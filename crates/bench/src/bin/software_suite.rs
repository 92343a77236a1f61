//! Runs the complete software-level characterization (§V) in one pass:
//! each (algorithm × dataset) sweep of all 8 combinations is executed once
//! and re-used to emit **Table III**, **Fig. 6(a–c)**, **Fig. 7**, and
//! **Fig. 8** together. The figure rows come from the derivations in
//! `saga_bench::experiments`, the same functions the shape-regression
//! suite asserts through.
//!
//! ```text
//! cargo run -p saga-bench --release --bin software_suite
//! ```

use saga_bench::experiments::{fs_over_inc, structure_norms, update_share, StructureNorms};
use saga_bench::{algorithms_from_env, config_from_env, datasets_from_env, emit, finish_trace};
use saga_core::experiment::{best_at, sweep_combinations, Metric};
use saga_core::report::{fmt_pct, fmt_ratio, fmt_secs, TextTable};
use saga_core::stages::Stage;
use saga_graph::DataStructureKind;

fn main() {
    saga_trace::init_from_env();
    let cfg = config_from_env();
    let mut table3 = TextTable::new([
        "Alg", "Dataset", "P1 best", "P1 s", "P2 best", "P2 s", "P3 best", "P3 s",
    ]);
    let fig6_headers = ["Alg", "Dataset", "CM", "AC/AS", "DAH/AS", "Stinger/AS"];
    let mut fig6 = [
        TextTable::new(fig6_headers),
        TextTable::new(fig6_headers),
        TextTable::new(fig6_headers),
    ];
    let mut fig7 = TextTable::new([
        "Alg", "Dataset", "DS", "FS/INC P1", "FS/INC P2", "FS/INC P3",
    ]);
    let mut fig8 = TextTable::new([
        "Alg", "Dataset", "Best combo", "update% P1", "update% P2", "update% P3",
    ]);

    for alg in algorithms_from_env() {
        for profile in datasets_from_env() {
            eprintln!("[software_suite] sweeping {alg} x {} ...", profile.name());
            let results = sweep_combinations(&profile, alg, &cfg);
            let key = [alg.to_string(), profile.name().to_string()];

            let mut row = key.to_vec();
            for stage in Stage::ALL {
                let best = best_at(&results, stage, Metric::Batch);
                row.push(best.notation());
                row.push(fmt_secs(best.best_mean));
            }
            table3.add_row(row);

            let norms = structure_norms(&results);
            for (t, panel) in fig6
                .iter_mut()
                .zip([&norms.batch, &norms.update, &norms.compute])
            {
                let mut row = key.to_vec();
                row.push(norms.cm.to_string());
                for ds in [
                    DataStructureKind::AdjacencyChunked,
                    DataStructureKind::Dah,
                    DataStructureKind::Stinger,
                ] {
                    let r = StructureNorms::ratio(panel, ds);
                    row.push(if r.is_finite() {
                        fmt_ratio(r)
                    } else {
                        "-".into()
                    });
                }
                t.add_row(row);
            }

            let ratios = fs_over_inc(&results);
            let mut row = key.to_vec();
            row.push(ratios.best_ds.to_string());
            row.extend(ratios.fs_over_inc.map(fmt_ratio));
            fig7.add_row(row);

            let share = update_share(&results);
            let mut row = key.to_vec();
            row.push(format!("{}+{}", share.best.1, share.best.0));
            row.extend(share.share.map(fmt_pct));
            fig8.add_row(row);
        }
    }

    emit(
        "Table III: best data structure + compute model per algorithm/dataset/stage",
        "table3.txt",
        &table3.render(),
    );
    emit(
        "Fig. 6(a): P3 batch processing latency normalized to AS",
        "fig6a.txt",
        &fig6[0].render(),
    );
    emit(
        "Fig. 6(b): P3 update latency normalized to AS",
        "fig6b.txt",
        &fig6[1].render(),
    );
    emit(
        "Fig. 6(c): P3 compute latency normalized to AS",
        "fig6c.txt",
        &fig6[2].render(),
    );
    emit(
        "Fig. 7: FS compute latency normalized to INC (best data structure)",
        "fig7.txt",
        &fig7.render(),
    );
    emit(
        "Fig. 8: % of batch processing latency in the update phase (best combination)",
        "fig8.txt",
        &fig8.render(),
    );
    finish_trace("software_suite");
}
