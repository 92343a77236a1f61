//! Paper-shape regression suite: the EXPERIMENTS.md scorecard as code.
//!
//! Every test is named for the paper table/figure whose claim it asserts,
//! deriving it through the same `saga_bench::experiments` /
//! `saga_bench::arch` functions the suites write `results/` with, over a
//! scaled-down sweep. Two compute-path claims of DESIGN §10 (the
//! direction-optimizing BFS speedup, the compacted delta-CSR's scan
//! locality) are measured here on the current build too. Deterministic
//! claims (dataset statistics, trace-model cache behavior) always run;
//! claims that depend on measured wall-clock time are tolerance-banded
//! generously and can be skipped on noisy machines with
//! `SAGA_SKIP_SHAPE_TIMING=1`.

use std::sync::OnceLock;

use saga_algorithms::bfs::{bfs_direction_optimizing, bfs_from_scratch, BfsProgram};
use saga_algorithms::fs::reset_values;
use saga_algorithms::{AlgorithmKind, ComputeOutcome};
use saga_bench::arch::{run_arch_characterization, GroupArchResult};
use saga_bench::experiments::{fs_over_inc, tail_sweep, update_share};
use saga_check::{assert_crossover, assert_ordering, assert_ratio_within};
use saga_core::experiment::{sweep_combinations, ComboResult, ExperimentConfig};
use saga_graph::csr::Csr;
use saga_graph::delta_csr::DeltaCsr;
use saga_graph::properties::AtomicU32Array;
use saga_graph::{build_graph, DataStructureKind, DynamicGraph, GraphTopology, Node};
use saga_perf::{replay_on_paper_machine, trace_phase};
use saga_stream::batch_stats::{table4_row, TailClass};
use saga_stream::profiles::DatasetProfile;
use saga_utils::parallel::ThreadPool;
use saga_utils::timer::Stopwatch;

/// Scaled-down configuration shared by the timing-based re-runs.
fn shape_cfg() -> ExperimentConfig {
    ExperimentConfig {
        seed: 42,
        repeats: 2,
        threads: 2,
        batch_size: None,
        scale: 0.05,
    }
}

/// True when `SAGA_SKIP_SHAPE_TIMING=1`: timing-based shapes are skipped
/// (deterministic ones still run).
fn timing_skipped() -> bool {
    if std::env::var("SAGA_SKIP_SHAPE_TIMING").as_deref() == Ok("1") {
        eprintln!("[shape] SAGA_SKIP_SHAPE_TIMING=1: skipping timing-based shape test");
        true
    } else {
        false
    }
}

/// The §VI trace-model characterization, computed once per test binary.
fn arch_results() -> &'static [GroupArchResult] {
    static RESULTS: OnceLock<Vec<GroupArchResult>> = OnceLock::new();
    RESULTS.get_or_init(|| run_arch_characterization(&shape_cfg(), &[AlgorithmKind::Bfs], &[]))
}

// ---------------------------------------------------------------------------
// Table II — dataset statistics (deterministic).
// ---------------------------------------------------------------------------

/// Table II: Orkut is by far the densest dataset (E/V ≈ 38 vs ≤ 16 for
/// every other dataset).
#[test]
fn table2_orkut_is_densest_edge_node_ratio() {
    let ratio = |p: &DatasetProfile| {
        let s = p.paper_stats();
        s.edges as f64 / s.vertices as f64
    };
    let orkut = ratio(&DatasetProfile::orkut());
    assert_ratio_within!("Table II: Orkut E/V", orkut, 30.0, 50.0);
    for p in DatasetProfile::all() {
        if p.name() != "Orkut" {
            let r = ratio(&p);
            assert!(
                r < orkut,
                "Table II: {} E/V {r:.1} must be below Orkut's {orkut:.1}",
                p.name()
            );
        }
    }
}

/// Table II: batch counts at 500K-edge batches order
/// Talk < Wiki < LJ < Orkut < RMAT (12, 16, 35, 40, 50).
#[test]
fn table2_batch_count_ordering_talk_wiki_lj_orkut_rmat() {
    let count = |p: DatasetProfile| p.paper_stats().batch_count as f64;
    assert_ordering!(
        "Table II: batch counts",
        [
            ("Talk", count(DatasetProfile::talk())),
            ("Wiki", count(DatasetProfile::wiki())),
            ("LJ", count(DatasetProfile::livejournal())),
            ("Orkut", count(DatasetProfile::orkut())),
            ("RMAT", count(DatasetProfile::rmat())),
        ]
    );
}

// ---------------------------------------------------------------------------
// Table IV — per-batch degree tails (deterministic given the seed).
// ---------------------------------------------------------------------------

/// Table IV: Wiki's first batch has a heavy *in*-degree tail — its max
/// in-degree dwarfs its max out-degree (paper: 544 vs 70).
#[test]
fn table4_wiki_first_batch_in_tail_dominates_out() {
    let stream = DatasetProfile::wiki().generate(42);
    let row = table4_row(&stream.edges, stream.num_nodes, stream.suggested_batch_size);
    let ratio = row.one_batch.max_in as f64 / row.one_batch.max_out.max(1) as f64;
    assert_ratio_within!("Table IV: Wiki batch max-in / max-out", ratio, 2.0, 1e4);
    assert_eq!(row.tail, TailClass::Heavy, "Table IV: Wiki is HTail");
}

/// Table IV: Talk's first batch has a heavy *out*-degree tail — its max
/// out-degree dwarfs its max in-degree (paper: 432 vs 49).
#[test]
fn table4_talk_first_batch_out_tail_dominates_in() {
    let stream = DatasetProfile::talk().generate(42);
    let row = table4_row(&stream.edges, stream.num_nodes, stream.suggested_batch_size);
    let ratio = row.one_batch.max_out as f64 / row.one_batch.max_in.max(1) as f64;
    assert_ratio_within!("Table IV: Talk batch max-out / max-in", ratio, 2.0, 1e4);
    assert_eq!(row.tail, TailClass::Heavy, "Table IV: Talk is HTail");
}

/// Table IV: LJ, Orkut, and RMAT batches classify short-tailed — no vertex
/// concentrates a meaningful fraction of a batch.
#[test]
fn table4_stail_group_classifies_short() {
    for p in DatasetProfile::short_tailed() {
        let stream = p.generate(42);
        let row = table4_row(&stream.edges, stream.num_nodes, stream.suggested_batch_size);
        assert_eq!(
            row.tail,
            TailClass::Short,
            "Table IV: {} must classify STail (batch max_in={} max_out={} of {})",
            p.name(),
            row.one_batch.max_in,
            row.one_batch.max_out,
            row.batch_size
        );
    }
}

// ---------------------------------------------------------------------------
// Fig. 10 — trace-model cache characterization (deterministic model).
// ---------------------------------------------------------------------------

/// Fig. 10(a): the compute phase's LLC hit ratio exceeds the update
/// phase's in both dataset groups at every stage (paper: 82.6% vs 64.4%
/// at STail P1) — updates are pointer-chasing, compute re-reads frontiers.
#[test]
fn fig10a_compute_llc_hit_exceeds_update() {
    for g in arch_results() {
        for stage in 0..3 {
            assert_ordering!(
                &format!("Fig. 10a: {} P{} LLC hit", g.name, stage + 1),
                [
                    ("update", g.update[stage].llc_hit.mean),
                    ("compute", g.compute[stage].llc_hit.mean),
                ]
            );
        }
    }
}

/// Fig. 10(c): the compute phase's MPKI falls sharply from L2 to LLC in
/// both groups (paper: ~4–6×) — most L2 misses are absorbed by the LLC.
#[test]
fn fig10c_compute_mpki_falls_from_l2_to_llc() {
    for g in arch_results() {
        for stage in 0..3 {
            let ratio = g.compute[stage].l2_mpki.mean / g.compute[stage].llc_mpki.mean;
            assert_ratio_within!(
                &format!("Fig. 10c: {} P{} compute L2/LLC MPKI", g.name, stage + 1),
                ratio,
                2.0,
                1e3
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fig. 7 — FS vs INC compute latency (timing-based, env-skippable).
// ---------------------------------------------------------------------------

/// Fig. 7's FS/INC compute ratio per stage, as the median of five
/// measurements: one alone is noise on a 2-core host running the rest of
/// this binary beside it (SSSP/LJ at P1 landed at 1.61 in 3 of 17 suite
/// runs; CC/Talk once measured P2 12.4 > P3 12.2).
fn median_fs_over_inc(profile: &DatasetProfile, alg: AlgorithmKind) -> [f64; 3] {
    let mut runs: Vec<[f64; 3]> = (0..5)
        .map(|_| fs_over_inc(&sweep_combinations(profile, alg, &shape_cfg())).fs_over_inc)
        .collect();
    std::array::from_fn(|stage| {
        runs.sort_by(|a, b| a[stage].total_cmp(&b[stage]));
        runs[runs.len() / 2][stage]
    })
}

/// Fig. 7: CC on Talk benefits enormously from the incremental model, and
/// the benefit grows as the graph fills up (paper: 5.1× at P1 → 15.1× at
/// P3).
#[test]
fn fig7_cc_talk_inc_speedup_grows_with_stage() {
    if timing_skipped() {
        return;
    }
    let ratios = median_fs_over_inc(&DatasetProfile::talk(), AlgorithmKind::Cc);
    assert_ordering!(
        "Fig. 7: CC/Talk FS/INC over stages",
        [("P1", ratios[0]), ("P2", ratios[1]), ("P3", ratios[2])]
    );
    assert_ratio_within!("Fig. 7: CC/Talk FS/INC at P3", ratios[2], 2.0, 200.0);
}

/// Fig. 7: SSSP gains nothing from the incremental model — FS/INC stays
/// at or below ~1 at every stage (paper: ≤ 1.0 on every dataset).
#[test]
fn fig7_sssp_lj_inc_gives_no_speedup() {
    if timing_skipped() {
        return;
    }
    let ratios = median_fs_over_inc(&DatasetProfile::livejournal(), AlgorithmKind::Sssp);
    for (stage, ratio) in ratios.into_iter().enumerate() {
        assert_ratio_within!(
            &format!("Fig. 7: SSSP/LJ FS/INC at P{}", stage + 1),
            ratio,
            0.01,
            1.5
        );
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — update share of batch latency (timing-based, env-skippable).
// ---------------------------------------------------------------------------

/// The BFS/Talk sweep both Fig. 8 tests read, run once per test binary.
fn bfs_talk_sweep() -> &'static [ComboResult] {
    static SWEEP: OnceLock<Vec<ComboResult>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        sweep_combinations(&DatasetProfile::talk(), AlgorithmKind::Bfs, &shape_cfg())
    })
}

/// Fig. 8: for BFS the update phase is a substantial share of batch
/// latency (paper: 40–60% on LJ; Talk similar) — update cannot be ignored.
#[test]
fn fig8_bfs_talk_update_share_is_substantial() {
    if timing_skipped() {
        return;
    }
    let r = update_share(bfs_talk_sweep());
    assert_ratio_within!("Fig. 8: BFS/Talk update share at P3", r.share[2], 0.1, 0.95);
}

/// Fig. 8: PageRank's compute dominates — its update share is far below
/// BFS's (paper: 3–10% vs 40–60%).
#[test]
fn fig8_pagerank_update_share_below_bfs() {
    if timing_skipped() {
        return;
    }
    let pr = update_share(&sweep_combinations(
        &DatasetProfile::talk(),
        AlgorithmKind::PageRank,
        &shape_cfg(),
    ));
    let bfs = update_share(bfs_talk_sweep());
    assert_ratio_within!("Fig. 8: PR/Talk update share at P3", pr.share[2], 0.001, 0.35);
    assert_ordering!(
        "Fig. 8: update share PR vs BFS at P3",
        [("PageRank", pr.share[2]), ("BFS", bfs.share[2])]
    );
}

// ---------------------------------------------------------------------------
// Fig. 6(b) mechanism — the tail sweep (deterministic + timing parts).
// ---------------------------------------------------------------------------

const SWEEP_MASSES: [f64; 3] = [0.0, 0.15, 0.30];
const SWEEP_NODES: usize = 4_000;
const SWEEP_EDGES: usize = 30_000;
const SWEEP_BATCH: usize = 3_000;

/// Tail sweep (Fig. 6b mechanism): raising the in-hub mass concentrates
/// the per-batch in-degree tail — max in-degree grows by well over 4×
/// from 0% to 30% hub mass. Deterministic given the seed.
#[test]
fn tail_sweep_fig6b_hub_mass_concentrates_first_batch() {
    use saga_bench::experiments::tail_sweep_stream;
    use saga_stream::batch_stats::degree_stats;
    let max_in = |mass: f64| {
        let edges = tail_sweep_stream(SWEEP_NODES, SWEEP_EDGES, mass, 42);
        degree_stats(&edges[..SWEEP_BATCH], SWEEP_NODES).max_in as f64
    };
    let (flat, hubby) = (max_in(0.0), max_in(0.30));
    assert_ratio_within!("tail sweep: batch max-in growth", hubby / flat, 4.0, 1e4);
}

/// Tail sweep (Fig. 6b): AS degrades with hub mass while DAH holds or
/// improves — their *relative slowdown* curves cross over (paper: AS
/// 19→66 ms vs DAH 77→56 ms across the sweep).
#[test]
fn tail_sweep_fig6b_as_degrades_while_dah_holds() {
    if timing_skipped() {
        return;
    }
    let pool = ThreadPool::new(2);
    let pts = tail_sweep(
        &SWEEP_MASSES,
        SWEEP_NODES,
        SWEEP_EDGES,
        SWEEP_BATCH,
        3,
        42,
        &pool,
    );
    let slowdown = |ds: DataStructureKind| -> Vec<f64> {
        let base = pts[0].ms(ds);
        pts.iter().map(|p| p.ms(ds) / base).collect()
    };
    let as_curve = slowdown(DataStructureKind::AdjacencyShared);
    let dah_curve = slowdown(DataStructureKind::Dah);
    assert_crossover!(
        "tail sweep: AS vs DAH relative slowdown over hub mass",
        &SWEEP_MASSES,
        &as_curve,
        &dah_curve
    );
}

/// Fig. 10 tail view of the Fig. 6b flip: per-batch p99 update latency,
/// read off the log-bucketed histograms that replaced the bespoke
/// percentile math, degrades with hub mass far more for AS than for DAH
/// (the paper's tail-latency metric amplifies the hub's serialized work).
#[test]
fn tail_sweep_fig10_p99_degrades_more_for_as_than_dah() {
    if timing_skipped() {
        return;
    }
    const REPEATS: usize = 3;
    let pool = ThreadPool::new(2);
    let pts = tail_sweep(
        &SWEEP_MASSES,
        SWEEP_NODES,
        SWEEP_EDGES,
        SWEEP_BATCH,
        REPEATS,
        42,
        &pool,
    );
    // Histogram bookkeeping is deterministic: one sample per batch per
    // repeat, with ordered quantiles.
    let batches = SWEEP_EDGES.div_ceil(SWEEP_BATCH);
    for p in &pts {
        for (ds, h) in &p.update_hist {
            assert_eq!(
                h.count,
                (batches * REPEATS) as u64,
                "mass {} / {ds:?}: every per-batch latency must be recorded",
                p.mass
            );
            assert!(
                h.min <= h.p50 && h.p50 <= h.p99 && h.p99 <= h.max,
                "mass {} / {ds:?}: quantiles out of order: {h:?}",
                p.mass
            );
        }
    }
    // The timing claim, normalized like the mean-latency crossover above:
    // each structure's p99 at the heaviest mass relative to its own flat
    // baseline — AS's tail stretches more than DAH's.
    let p99_slowdown = |ds: DataStructureKind| {
        pts.last().unwrap().p99_ms(ds) / pts[0].p99_ms(ds)
    };
    assert_ordering!(
        "tail sweep: p99 slowdown at 30% hub mass, DAH vs AS",
        [
            ("DAH", p99_slowdown(DataStructureKind::Dah)),
            ("AS", p99_slowdown(DataStructureKind::AdjacencyShared)),
        ]
    );
}

// ---------------------------------------------------------------------------
// DESIGN §10 — the compute path beyond the paper's four structures.
// ---------------------------------------------------------------------------

/// Dense uniform graph for the direction-optimizing comparison: low
/// diameter and uniform degree, so the middle BFS levels cover most of the
/// graph and the scout-count heuristic must go bottom-up. At degree 16 the
/// speedup swings between 1.4× and 2.1× with build profile and thread
/// count; at degree 32 twenty suite runs per profile measured 2.8–6.4×
/// (debug) and 4.0–5.1× (release) on a 2-core x86-64 host.
const DENSE_NODES: usize = 20_000;
const DENSE_DEGREE: usize = 32;

/// Direction-optimizing BFS (GAP's Beamer kernel): on a dense uniform
/// graph it expands at least one level bottom-up, and its best-of-five
/// single-thread time beats classic top-down `bfs_from_scratch` by ≥ 1.5×.
/// The level count always runs; the speedup is timing-based.
#[test]
fn dirop_bfs_beats_top_down_on_a_dense_graph() {
    let edges: Vec<(Node, Node, f32)> = (0..(DENSE_NODES * DENSE_DEGREE) as u64)
        .map(|i| {
            let r = saga_utils::hash::mix64(i);
            let node = |bits: u64| (bits % DENSE_NODES as u64) as Node;
            (node(r >> 8), node(r >> 32), 1.0)
        })
        .collect();
    let graph = Csr::from_edges(DENSE_NODES, true, &edges);
    let pool = ThreadPool::new(1);
    let program = BfsProgram::new(edges[0].0);
    let values = AtomicU32Array::filled(DENSE_NODES, 0);
    reset_values(&program, &values, DENSE_NODES, &pool);
    let outcome = bfs_direction_optimizing(&program, &graph, &values, &pool);
    assert!(
        outcome.dense_rounds >= 1,
        "dense graph must switch bottom-up ({} levels, none bottom-up)",
        outcome.iterations
    );
    if timing_skipped() {
        return;
    }
    type Kernel =
        fn(&BfsProgram, &dyn GraphTopology, &AtomicU32Array, &ThreadPool) -> ComputeOutcome;
    let best_of_five = |kernel: Kernel| {
        (0..5)
            .map(|_| {
                reset_values(&program, &values, DENSE_NODES, &pool);
                let sw = Stopwatch::start();
                kernel(&program, &graph, &values, &pool);
                sw.elapsed_secs()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let top_down = best_of_five(bfs_from_scratch);
    let dirop = best_of_five(bfs_direction_optimizing);
    eprintln!("[shape] dense BFS: top-down {top_down:.6}s, dirop {dirop:.6}s");
    assert_ratio_within!(
        "dirop BFS: top-down / dirop time",
        top_down / dirop,
        1.5,
        1e3
    );
}

/// Delta-CSR: once compacted, a full-graph neighbor scan walks CSR arrays
/// in vertex order, so its simulated miss rate (DRAM lines per line
/// access on the paper hierarchy, cache scale 16) is well below AS's, whose
/// rows are separate heap blocks (measured 0.45 vs 0.92). Before the
/// merge the same scan walks per-vertex overlay runs and misses like AS
/// (0.85), hence the ¾ bound. A simulated count, not a timing; nothing
/// merges until the explicit `compact()`.
#[test]
fn delta_csr_compacted_scan_misses_less_than_as() {
    const NODES: usize = 10_000;
    let stream = DatasetProfile::talk().scaled(NODES, 60_000).generate(42);
    let pool = ThreadPool::new(1);
    let miss_rate = |graph: &dyn GraphTopology| {
        let trace = trace_phase(&pool, || {
            let mut sum = 0u64;
            for v in 0..NODES {
                graph.for_each_out_neighbor(v as Node, &mut |nb, _| sum += u64::from(nb));
            }
            std::hint::black_box(sum);
        });
        let report = replay_on_paper_machine(&trace, 16);
        report.dram_lines as f64 / report.accesses.max(1) as f64
    };
    let as_graph = build_graph(DataStructureKind::AdjacencyShared, NODES, true, 1);
    as_graph.update_batch(&stream.edges, &pool);
    let delta = DeltaCsr::new(NODES, true, 1).with_compaction_threshold(usize::MAX);
    delta.update_batch(&stream.edges, &pool);
    delta.compact();
    let (as_miss, delta_miss) = (miss_rate(as_graph.as_ref()), miss_rate(&delta));
    eprintln!("[shape] neighbor-scan miss rate: AS {as_miss:.4}, DeltaCSR {delta_miss:.4}");
    assert_ratio_within!(
        "delta-CSR: compacted DeltaCSR / AS neighbor-scan miss rate",
        delta_miss / as_miss,
        0.01,
        0.75
    );
}
