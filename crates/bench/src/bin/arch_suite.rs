//! Runs the architecture-level characterization (§VI) once and emits
//! **Fig. 9(b)**, **Fig. 9(c)**, the Fig. 9 imbalance supplement, and
//! **Fig. 10(a–c)** together from one trace + replay pass. Fig. 9(a), the
//! modeled thread sweep, is `fig9`.
//!
//! ```text
//! cargo run -p saga-bench --release --bin arch_suite
//! ```

use saga_bench::arch::{run_arch_characterization, PhaseStageStats};
use saga_bench::{algorithms_from_env, config_from_env, emit_table, env_or, finish_trace};
use saga_core::report::TextTable;

fn main() {
    saga_trace::init_from_env();
    let cfg = config_from_env();
    let algorithms = algorithms_from_env();
    let cache_scale = env_or("SAGA_CACHE_SCALE", 16usize);
    let results = run_arch_characterization(&cfg, &algorithms, cache_scale);

    let mut fig9b = TextTable::new(["Group", "Phase", "P1 GB/s", "P2 GB/s", "P3 GB/s"]);
    let mut fig9c = TextTable::new(["Group", "Phase", "P1 QPI%", "P2 QPI%", "P3 QPI%"]);
    let mut imbalance =
        TextTable::new(["Group", "Phase", "P3 imbalance (max/mean thread cycles)"]);
    let mut fig10a = TextTable::new([
        "Group", "Phase", "L2 hit P1", "L2 hit P2", "L2 hit P3", "LLC hit P1", "LLC hit P2",
        "LLC hit P3",
    ]);
    let mpki_headers = [
        "Group", "L2 MPKI P1", "L2 MPKI P2", "L2 MPKI P3", "LLC MPKI P1", "LLC MPKI P2",
        "LLC MPKI P3",
    ];
    let mut fig10b = TextTable::new(mpki_headers);
    let mut fig10c = TextTable::new(mpki_headers);

    for g in &results {
        for (phase, stats) in [("update", &g.update), ("compute", &g.compute)] {
            fig9b.add_row([
                g.name.to_string(),
                phase.to_string(),
                format!("{:.1}", stats[0].dram_gbps.mean),
                format!("{:.1}", stats[1].dram_gbps.mean),
                format!("{:.1}", stats[2].dram_gbps.mean),
            ]);
            fig9c.add_row([
                g.name.to_string(),
                phase.to_string(),
                format!("{:.1}%", stats[0].qpi_util.mean * 100.0),
                format!("{:.1}%", stats[1].qpi_util.mean * 100.0),
                format!("{:.1}%", stats[2].qpi_util.mean * 100.0),
            ]);
            imbalance.add_row([
                g.name.to_string(),
                phase.to_string(),
                format!("{:.2}", stats[2].imbalance.mean),
            ]);
            fig10a.add_row([
                g.name.to_string(),
                phase.to_string(),
                format!("{:.1}%", stats[0].l2_hit.mean * 100.0),
                format!("{:.1}%", stats[1].l2_hit.mean * 100.0),
                format!("{:.1}%", stats[2].l2_hit.mean * 100.0),
                format!("{:.1}%", stats[0].llc_hit.mean * 100.0),
                format!("{:.1}%", stats[1].llc_hit.mean * 100.0),
                format!("{:.1}%", stats[2].llc_hit.mean * 100.0),
            ]);
        }
        let mpki_row = |stats: &[PhaseStageStats; 3]| {
            [
                g.name.to_string(),
                format!("{:.1}", stats[0].l2_mpki.mean),
                format!("{:.1}", stats[1].l2_mpki.mean),
                format!("{:.1}", stats[2].l2_mpki.mean),
                format!("{:.1}", stats[0].llc_mpki.mean),
                format!("{:.1}", stats[1].llc_mpki.mean),
                format!("{:.1}", stats[2].llc_mpki.mean),
            ]
        };
        fig10b.add_row(mpki_row(&g.update));
        fig10c.add_row(mpki_row(&g.compute));
    }

    emit_table(
        "Fig. 9(b): memory bandwidth utilization (simulated, GB/s)",
        "fig9b.txt",
        &fig9b,
    );
    emit_table(
        "Fig. 9(c): QPI utilization (simulated, % of peak)",
        "fig9c.txt",
        &fig9c,
    );
    emit_table(
        "Fig. 9 supplement: thread imbalance behind the update phase's low TLP",
        "fig9_imbalance.txt",
        &imbalance,
    );
    emit_table(
        "Fig. 10(a): private L2 and shared LLC hit ratios (simulated)",
        "fig10a.txt",
        &fig10a,
    );
    emit_table(
        "Fig. 10(b): update-phase L2/LLC MPKI (simulated)",
        "fig10b.txt",
        &fig10b,
    );
    emit_table(
        "Fig. 10(c): compute-phase L2/LLC MPKI (simulated)",
        "fig10c.txt",
        &fig10c,
    );
    finish_trace("arch_suite");
}
