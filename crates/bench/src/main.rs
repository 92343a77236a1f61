//! `saga-bench`: the one experiment runner. Every paper artifact follows
//! the same §IV-B method (the same streams, P1/P2/P3 staging and repeated
//! runs), so each producer below is a loop over one `saga-core` driver; its
//! recorded configuration is a [`Recorded`] constant that the `SAGA_*`
//! variables override (crate docs).
//!
//! ```text
//! cargo run -p saga-bench --release -- all                 # reproduces results/
//! cargo run -p saga-bench --release -- datasets ablations  # any subset, in table order
//! ```

use saga_algorithms::{AlgorithmKind, AlgorithmParams, ComputeModelKind, VertexValues};
use saga_bench::arch::{run_arch_characterization, PhaseStageStats};
use saga_bench::experiments::{
    fs_over_inc, structure_norms, tail_sweep, update_share, StructureNorms,
};
use saga_bench::{emit, emit_table, finish_trace, Recorded, Settings};
use saga_core::driver::StreamDriver;
use saga_core::experiment::{best_at, sweep_combinations, ExperimentConfig, Metric};
use saga_core::pipelined::run_pipelined;
use saga_core::report::{fmt_pct, fmt_ratio, fmt_secs, TextTable};
use saga_core::stages::Stage;
use saga_graph::dah::Dah;
use saga_graph::delta_csr::{DeltaCsr, COMPACTIONS_METRIC};
use saga_graph::stinger::Stinger;
use saga_graph::{DataStructureKind, DeletableGraph};
use saga_perf::scaling::ScalingCurve;
use saga_stream::batch_stats::table4_row;
use saga_stream::EdgeStream;
use saga_utils::parallel::ThreadPool;

/// Every producer, in the order `all` runs them: name, what it writes, run.
const PRODUCERS: [(&str, &str, fn()); 6] = [
    ("datasets", "Table II, Table IV", datasets),
    ("software", "Table III, Fig. 6a-c, 7, 8 (+ results/heavy/)", software),
    ("arch", "Fig. 9a-c, Fig. 9 imbalance, Fig. 10a-c", arch),
    ("tail", "tail_sweep: the Fig. 6b flip vs hub mass", tail),
    ("pipelined", "interleaved vs pipelined execution", pipelined),
    ("ablations", "Stinger block, DAH threshold, DeltaCSR floor, PR epsilon", ablations),
];

fn main() {
    saga_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || PRODUCERS.iter().any(|(name, ..)| a == name);
    if args.is_empty() || !args.iter().all(known) {
        eprintln!("usage: saga-bench <producer>... | all\n");
        for (name, writes, _) in PRODUCERS {
            eprintln!("  {name:<10} {writes}");
        }
        std::process::exit(2);
    }
    let all = args.iter().any(|a| a == "all");
    for (name, _, run) in PRODUCERS {
        if all || args.iter().any(|a| a == name) {
            // Each producer's metrics.csv covers its own run only.
            saga_trace::metrics::reset();
            run();
            finish_trace(name);
        }
    }
}

/// Table II (dataset inventory) and Table IV (per-batch degree tails), at
/// full profile scale.
fn datasets() {
    let s = Settings::from_env(Recorded::FULL);
    let mut table2 = TextTable::new([
        "Dataset",
        "paper vertices",
        "paper edges",
        "paper batchCount",
        "scaled vertices",
        "scaled edges",
        "scaled batchCount",
        "directed",
    ]);
    let mut table4 = TextTable::new([
        "Dataset",
        "entire max in",
        "entire max out",
        "batch max in",
        "batch max out",
        "batch size",
        "tail",
    ]);
    for profile in &s.datasets {
        let scaled = profile.clone().scaled_by(s.cfg.scale);
        let stream = scaled.generate(s.cfg.seed);
        let paper = profile.paper_stats();
        table2.add_row([
            profile.name().to_string(),
            paper.vertices.to_string(),
            paper.edges.to_string(),
            paper.batch_count.to_string(),
            scaled.num_nodes().to_string(),
            stream.edges.len().to_string(),
            stream.suggested_batch_count().to_string(),
            if profile.is_directed() { "yes" } else { "no" }.to_string(),
        ]);
        let row = table4_row(&stream.edges, stream.num_nodes, stream.suggested_batch_size);
        table4.add_row([
            profile.name().to_string(),
            row.entire.max_in.to_string(),
            row.entire.max_out.to_string(),
            row.one_batch.max_in.to_string(),
            row.one_batch.max_out.to_string(),
            row.batch_size.to_string(),
            row.tail.to_string(),
        ]);
    }
    emit("Table II: evaluated datasets", "table2.txt", &table2.render());
    emit(
        "Table IV: max in/out degree per dataset (entire stream vs one batch)",
        "table4.txt",
        &table4.render(),
    );
}

/// The software-level sweep (§V): all 8 combinations per algorithm ×
/// dataset.
const SOFTWARE: Recorded = Recorded {
    scale: 0.35,
    repeats: 2,
    ..Recorded::FULL
};

/// Wiki/Talk again at full profile scale, into `results/heavy/`: the Fig. 6b
/// flip needs the full hub work (EXPERIMENTS.md).
const SOFTWARE_HEAVY: Recorded = Recorded {
    repeats: 2,
    datasets: Some("Wiki,Talk"),
    ..Recorded::FULL
};

/// Table III and Figs. 6–8, each (algorithm × dataset) sweep run once and
/// derived through `saga_bench::experiments` — the functions the shape
/// suite asserts through.
fn software() {
    for (recorded, dir) in [(SOFTWARE, ""), (SOFTWARE_HEAVY, "heavy/")] {
        let s = Settings::from_env(recorded);
        let mut table3 = TextTable::new([
            "Alg", "Dataset", "P1 best", "P1 s", "P2 best", "P2 s", "P3 best", "P3 s",
        ]);
        let fig6_headers = ["Alg", "Dataset", "CM", "AC/AS", "DAH/AS", "Stinger/AS"];
        let mut fig6 = [fig6_headers; 3].map(TextTable::new);
        let mut fig7 = TextTable::new([
            "Alg", "Dataset", "DS", "FS/INC P1", "FS/INC P2", "FS/INC P3",
        ]);
        let mut fig8 = TextTable::new([
            "Alg", "Dataset", "Best combo", "update% P1", "update% P2", "update% P3",
        ]);
        for &alg in &s.algorithms {
            for profile in &s.datasets {
                saga_trace::progress!("[software] sweeping {alg} x {} ...", profile.name());
                let results = sweep_combinations(profile, alg, &s.cfg);
                let key = [alg.to_string(), profile.name().to_string()];

                let mut row = key.to_vec();
                for stage in Stage::ALL {
                    let best = best_at(&results, stage, Metric::Batch);
                    row.push(best.notation());
                    row.push(fmt_secs(best.best_mean));
                }
                table3.add_row(row);

                let norms = structure_norms(&results);
                let panels = [&norms.batch, &norms.update, &norms.compute];
                for (t, panel) in fig6.iter_mut().zip(panels) {
                    let mut row = key.to_vec();
                    row.push(norms.cm.to_string());
                    for ds in [
                        DataStructureKind::AdjacencyChunked,
                        DataStructureKind::Dah,
                        DataStructureKind::Stinger,
                    ] {
                        let r = StructureNorms::ratio(panel, ds);
                        row.push(if r.is_finite() { fmt_ratio(r) } else { "-".into() });
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
        let [fig6a, fig6b, fig6c] = fig6;
        for (title, file, table) in [
            (
                "Table III: best data structure + compute model per algorithm/dataset/stage",
                "table3.txt",
                table3,
            ),
            ("Fig. 6(a): P3 batch processing latency normalized to AS", "fig6a.txt", fig6a),
            ("Fig. 6(b): P3 update latency normalized to AS", "fig6b.txt", fig6b),
            ("Fig. 6(c): P3 compute latency normalized to AS", "fig6c.txt", fig6c),
            (
                "Fig. 7: FS compute latency normalized to INC (best data structure)",
                "fig7.txt",
                fig7,
            ),
            (
                "Fig. 8: % of batch processing latency in the update phase (best combination)",
                "fig8.txt",
                fig8,
            ),
        ] {
            emit(title, &format!("{dir}{file}"), &table.render());
        }
    }
}

/// The architecture-level passes (§VI).
const ARCH: Recorded = Recorded {
    scale: 0.4,
    algorithms: Some("bfs,cc,pr"),
    ..Recorded::FULL
};

/// Fig. 9(a)'s thread axis: powers of two up to 32 (the paper sweeps 4–28
/// physical cores).
const SCALING_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Figs. 9(a–c), the imbalance supplement and Figs. 10(a–c) from one
/// group × dataset × algorithm × thread-count pass of traced, replayed runs.
fn arch() {
    let s = Settings::from_env(ARCH);
    let results = run_arch_characterization(&s.cfg, &s.algorithms, &SCALING_THREADS);

    let mut fig9a = TextTable::new(
        ["Group", "Phase"]
            .map(String::from)
            .into_iter()
            .chain(results[0].update_scaling.threads.iter().map(|t| format!("{t}T")))
            .chain(["incr. improvements".to_string()]),
    );
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
        let phases = [
            ("update", &g.update, &g.update_scaling, &mut fig10b),
            ("compute", &g.compute, &g.compute_scaling, &mut fig10c),
        ];
        for (phase, stats, curve, mpki) in phases {
            fig9a.add_row(scaling_row(g.name, phase, curve));
            let key = || [g.name.to_string(), phase.to_string()].into_iter();
            let per_stage = |f: fn(&PhaseStageStats) -> String| stats.iter().map(f);
            fig9b.add_row(key().chain(per_stage(|s| format!("{:.1}", s.dram_gbps.mean))));
            fig9c.add_row(key().chain(per_stage(|s| format!("{:.1}%", s.qpi_util.mean * 100.0))));
            imbalance.add_row(key().chain([format!("{:.2}", stats[2].imbalance.mean)]));
            fig10a.add_row(
                key()
                    .chain(per_stage(|s| format!("{:.1}%", s.l2_hit.mean * 100.0)))
                    .chain(per_stage(|s| format!("{:.1}%", s.llc_hit.mean * 100.0))),
            );
            mpki.add_row(
                [g.name.to_string()]
                    .into_iter()
                    .chain(per_stage(|s| format!("{:.1}", s.l2_mpki.mean)))
                    .chain(per_stage(|s| format!("{:.1}", s.llc_mpki.mean))),
            );
        }
    }

    emit(
        "Fig. 9(a): update/compute speedup vs thread count (normalized to smallest)",
        "fig9a.txt",
        &fig9a.render(),
    );
    for (title, file, table) in [
        ("Fig. 9(b): memory bandwidth utilization (simulated, GB/s)", "fig9b.txt", &fig9b),
        ("Fig. 9(c): QPI utilization (simulated, % of peak)", "fig9c.txt", &fig9c),
        (
            "Fig. 9 supplement: thread imbalance behind the update phase's low TLP",
            "fig9_imbalance.txt",
            &imbalance,
        ),
        ("Fig. 10(a): private L2 and shared LLC hit ratios (simulated)", "fig10a.txt", &fig10a),
        ("Fig. 10(b): update-phase L2/LLC MPKI (simulated)", "fig10b.txt", &fig10b),
        ("Fig. 10(c): compute-phase L2/LLC MPKI (simulated)", "fig10c.txt", &fig10c),
    ] {
        emit_table(title, file, table);
    }
}

/// One Fig. 9(a) row: speedups over the smallest thread count, then the
/// step-to-step improvements.
fn scaling_row(group: &str, phase: &str, curve: &ScalingCurve) -> Vec<String> {
    let improvements: Vec<String> =
        curve.incremental_improvements().iter().map(|i| format!("{i:.0}%")).collect();
    [group.to_string(), phase.to_string()]
        .into_iter()
        .chain(curve.speedups().iter().map(|s| format!("{s:.2}x")))
        .chain([improvements.join(" ")])
        .collect()
}

/// The tail sweep runs on a fixed Wiki-like stream of its own, so the scale
/// knob does not apply.
const TAIL: Recorded = Recorded {
    repeats: 2,
    ..Recorded::FULL
};
const TAIL_NODES: usize = 16_000;
const TAIL_EDGES: usize = 120_000;
const TAIL_BATCH: usize = 8_000;
const TAIL_MASSES: [f64; 7] = [0.0, 0.01, 0.03, 0.06, 0.12, 0.20, 0.30];

/// Where the AS ↔ DAH flip happens: §V-B's best update structure flips with
/// the per-batch degree tail (Fig. 6b), and the hub's serialized update work
/// shrinks quadratically under downscaling, so the sweep varies the in-hub
/// mass from 0 to 30 % of each batch and reports every structure's update
/// latency, exposing the crossover directly.
fn tail() {
    let s = Settings::from_env(TAIL);
    let pool = ThreadPool::new(s.cfg.threads);
    let mut table = TextTable::new([
        "hub mass",
        "batch max in",
        "AS ms",
        "AC ms",
        "Stinger ms",
        "DAH ms",
        "best",
        "AS p99 ms",
        "DAH p99 ms",
    ]);
    saga_trace::progress!("[tail] sweeping {} hub masses ...", TAIL_MASSES.len());
    let (repeats, seed) = (s.cfg.repeats, s.cfg.seed);
    for p in tail_sweep(&TAIL_MASSES, TAIL_NODES, TAIL_EDGES, TAIL_BATCH, repeats, seed, &pool) {
        let mut row = vec![format!("{:.0}%", p.mass * 100.0), p.batch_max_in.to_string()];
        let mut best = (f64::INFINITY, "-");
        for ds in DataStructureKind::ALL {
            let ms = p.ms(ds);
            row.push(format!("{ms:.2}"));
            if ms < best.0 {
                best = (ms, ds.abbrev());
            }
        }
        row.push(best.1.to_string());
        // The per-batch p99 of the two structures the flip is about.
        row.push(format!("{:.2}", p.p99_ms(DataStructureKind::AdjacencyShared)));
        row.push(format!("{:.2}", p.p99_ms(DataStructureKind::Dah)));
        table.add_row(row);
    }
    emit_table(
        "Tail sweep: update latency vs per-batch hub mass (the Fig. 6b flip)",
        "tail_sweep.txt",
        &table,
    );
}

/// The pipelined extension.
const PIPELINED: Recorded = Recorded {
    scale: 0.5,
    ..Recorded::FULL
};

/// The paper's interleaved model against the snapshot-based update ∥
/// compute pipeline of `saga_core::pipelined` (Aspen / GraphOne, the
/// paper's footnote 1) — the simplest use of §VI-A's "slack in resource
/// utilization in one phase". With `SAGA_TRACE=1` the update-stage track
/// and the main-thread compute spans show the overlap directly.
fn pipelined() {
    let s = Settings::from_env(PIPELINED);
    let mut table = TextTable::new([
        "Dataset",
        "interleaved s",
        "pipelined s",
        "wall speedup",
        "overlap speedup (modeled)",
    ]);
    for profile in &s.datasets {
        let stream = profile.clone().scaled_by(s.cfg.scale).generate(s.cfg.seed);
        let ds = if profile.is_heavy_tailed() {
            DataStructureKind::Dah
        } else {
            DataStructureKind::AdjacencyShared
        };
        saga_trace::progress!("[pipelined] {} on {} ...", profile.name(), ds.abbrev());
        let serial = StreamDriver::builder(ds, stream.num_nodes)
            .algorithm(AlgorithmKind::PageRank)
            .threads(s.cfg.threads)
            .build()
            .run(&stream);
        let update_threads = (s.cfg.threads / 2).max(1);
        let compute_threads = (s.cfg.threads - update_threads).max(1);
        let piped = run_pipelined(
            &stream,
            ds,
            AlgorithmKind::PageRank,
            stream.suggested_batch_size,
            update_threads,
            compute_threads,
        );
        // Ranks sum in neighbor order, which differs between the live
        // structure and the CSR snapshot; both stop below the INC trigger
        // epsilon (1e-7), amplified by up to in-degree/(1-d) on hubs, so
        // 1e-4 bounds the difference while still catching divergence.
        let max_diff = l1_or_max(&serial.final_values, &piped.final_values, f64::max);
        assert!(max_diff < 1e-4, "pipelining changed PageRank results (max diff {max_diff})");
        let serial_secs = serial.total_seconds();
        table.add_row([
            profile.name().to_string(),
            fmt_secs(serial_secs),
            fmt_secs(piped.pipelined_seconds()),
            fmt_ratio(serial_secs / piped.pipelined_seconds()),
            fmt_ratio(piped.overlap_speedup()),
        ]);
    }
    emit(
        "Extension: interleaved vs pipelined (update || compute) execution",
        "pipelined.txt",
        &table.render(),
    );
}

/// Folds `|a_v - b_v|` over two PageRank value arrays with `fold` (sum for
/// the L1 error, max for the largest deviation); `NaN` for other types.
fn l1_or_max(a: &VertexValues, b: &VertexValues, fold: fn(f64, f64) -> f64) -> f64 {
    match (a, b) {
        (VertexValues::F64(x), VertexValues::F64(y)) => {
            x.iter().zip(y).map(|(p, q)| (p - q).abs()).fold(0.0, fold)
        }
        _ => f64::NAN,
    }
}

/// The ablations: LJ and Talk, best of three runs per point.
const ABLATIONS: Recorded = Recorded {
    scale: 0.5,
    datasets: Some("LJ,Talk"),
    ..Recorded::FULL
};

/// A compaction floor that is never reached.
const NEVER: usize = usize::MAX / 2;

/// One structure-knob ablation: a constructor swept over `values`, each
/// point streamed through a driver session computing `algorithm` under
/// `model`.
struct Knob {
    file: &'static str,
    title: &'static str,
    knob: &'static str,
    values: &'static [usize],
    /// Builds the structure for `(stream, threads, value)`.
    build: fn(&EdgeStream, usize, usize) -> Box<dyn DeletableGraph>,
    algorithm: AlgorithmKind,
    model: ComputeModelKind,
    /// A registry counter whose per-run delta gets a column of its own.
    counter: Option<&'static str>,
}

const KNOBS: [Knob; 3] = [
    // Paper §III-A3: 16 edges per block. Small blocks chase more pointers
    // per scan; large ones scan longer per insert under coarser locks.
    Knob {
        file: "ablation_blocksize.txt",
        title: "Ablation: Stinger edge-block size (paper default: 16)",
        knob: "block size",
        values: &[4, 8, 16, 32, 64],
        build: |s, _, v| Box::new(Stinger::with_block_size(s.num_nodes, s.directed, v)),
        algorithm: AlgorithmKind::PageRank,
        model: ComputeModelKind::Incremental,
        counter: None,
    },
    // §III-A4: a low threshold flushes eagerly (more flush meta-operations,
    // hubs traverse dedicated tables), a high one leaves hubs clogging the
    // shared Robin Hood table.
    Knob {
        file: "ablation_dah_threshold.txt",
        title: "Ablation: DAH low-to-high flush threshold (default: 16)",
        knob: "flush threshold",
        values: &[4, 8, 16, 32, 64],
        build: |s, t, v| Box::new(Dah::with_threshold(s.num_nodes, s.directed, t, v as u32)),
        algorithm: AlgorithmKind::PageRank,
        model: ComputeModelKind::Incremental,
        counter: None,
    },
    // A low floor merges each chunk's overlay into its CSR base eagerly
    // (more rebuilds, scans stay static); a high one lets every scan pay
    // the overlay merge.
    Knob {
        file: "ablation_compaction.txt",
        title: "Ablation: delta-CSR compaction-threshold floor (default: 256; compactions = chunk merges)",
        knob: "threshold floor",
        values: &[64, 256, 1024, 4096, NEVER],
        build: |s, t, v| {
            Box::new(DeltaCsr::new(s.num_nodes, s.directed, t).with_compaction_threshold(v))
        },
        algorithm: AlgorithmKind::Bfs,
        model: ComputeModelKind::FromScratch,
        counter: Some(COMPACTIONS_METRIC),
    },
];

impl Knob {
    fn table(&self) -> TextTable {
        let compute = format!("compute s ({}/{})", self.algorithm, self.model);
        let counter = self.counter.and_then(|c| c.rsplit('.').next());
        let headers = ["Dataset", self.knob, "update s", compute.as_str()];
        TextTable::new(headers.into_iter().chain(counter))
    }

    /// Streams `stream` through one point of the sweep, best of
    /// `cfg.repeats` per phase.
    fn row(
        &self,
        dataset: &str,
        stream: &EdgeStream,
        cfg: &ExperimentConfig,
        value: usize,
    ) -> Vec<String> {
        // The kind is a placeholder: `session_over` runs on the graph built
        // below.
        let driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, stream.num_nodes)
            .algorithm(self.algorithm)
            .compute_model(self.model)
            .threads(cfg.threads)
            .build();
        let counter = self.counter.map(saga_trace::metrics::counter);
        let count = || counter.as_ref().map_or(0, |c| c.get());
        let root = stream.edges.first().map_or(0, |e| e.src);
        let (mut update_s, mut compute_s, mut counted) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..cfg.repeats.max(1) {
            let before = count();
            let mut session = driver.session_over((self.build)(stream, cfg.threads, value), root);
            let (mut update, mut compute) = (0.0, 0.0);
            for batch in stream.batches(stream.suggested_batch_size) {
                let record = session.step(batch, &[]);
                update += record.update_seconds;
                compute += record.compute_seconds;
            }
            (update_s, compute_s) = (update_s.min(update), compute_s.min(compute));
            counted = count() - before;
        }
        let label = if value == NEVER { "never".into() } else { value.to_string() };
        [dataset.to_string(), label, fmt_secs(update_s), fmt_secs(compute_s)]
            .into_iter()
            .chain(counter.map(|_| counted.to_string()))
            .collect()
    }
}

/// The structure knobs of [`KNOBS`] and the INC PageRank triggering
/// threshold ε (Algorithm 1, line 11; the paper uses 1e-7), which trades
/// compute against L1 error relative to a tightly converged FS PageRank.
fn ablations() {
    let s = Settings::from_env(ABLATIONS);
    let (threads, repeats) = (s.cfg.threads, s.cfg.repeats.max(1));
    let mut tables: Vec<TextTable> = KNOBS.iter().map(Knob::table).collect();
    let mut epsilon = TextTable::new(["Dataset", "epsilon", "compute s", "L1 error vs FS(1e-12)"]);
    for profile in &s.datasets {
        let name = profile.name();
        let stream = profile.clone().scaled_by(s.cfg.scale).generate(s.cfg.seed);
        for (knob, table) in KNOBS.iter().zip(&mut tables) {
            for &value in knob.values {
                saga_trace::progress!("[ablations] {name} @ {} {value} ...", knob.knob);
                table.add_row(knob.row(name, &stream, &s.cfg, value));
            }
        }
        let pagerank = |model, params| {
            StreamDriver::builder(DataStructureKind::AdjacencyShared, stream.num_nodes)
                .algorithm(AlgorithmKind::PageRank)
                .compute_model(model)
                .threads(threads)
                .params(params)
                .build()
                .run(&stream)
        };
        saga_trace::progress!("[ablations] {name}: reference FS PageRank ...");
        let tight = AlgorithmParams {
            pr_fs_tolerance: 1e-12,
            ..AlgorithmParams::default()
        };
        let reference = pagerank(ComputeModelKind::FromScratch, tight).final_values;
        for eps in [1e-3, 1e-5, 1e-7, 1e-9, 1e-11] {
            saga_trace::progress!("[ablations] {name} @ epsilon {eps:e} ...");
            let params = AlgorithmParams {
                pr_epsilon: eps,
                ..AlgorithmParams::default()
            };
            let runs: Vec<_> =
                (0..repeats).map(|_| pagerank(ComputeModelKind::Incremental, params)).collect();
            let compute = runs
                .iter()
                .map(|o| o.batches.iter().map(|b| b.compute_seconds).sum::<f64>())
                .fold(f64::INFINITY, f64::min);
            let l1 = l1_or_max(&runs[0].final_values, &reference, |acc, d| acc + d);
            let (eps_s, l1_s) = (format!("{eps:.0e}"), format!("{l1:.2e}"));
            epsilon.add_row([name.to_string(), eps_s, fmt_secs(compute), l1_s]);
        }
    }
    for (knob, table) in KNOBS.iter().zip(&tables) {
        emit(knob.title, knob.file, &table.render());
    }
    emit(
        "Ablation: incremental PageRank triggering threshold (paper: 1e-7)",
        "ablation_epsilon.txt",
        &epsilon.render(),
    );
}
