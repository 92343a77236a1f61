//! Reusable experiment entry points.
//!
//! The Fig. 6/7/8 quantities are derived here, once, from a finished
//! [`sweep_combinations`](saga_core::experiment::sweep_combinations) run:
//! the runner's `software` producer writes `results/` from these
//! derivations and the `saga-check` shape-regression suite asserts the
//! EXPERIMENTS.md scorecard through the same functions on scaled-down
//! sweeps. The tail sweep behind
//! Fig. 6(b)'s flip lives here for the same two callers.

use saga_algorithms::ComputeModelKind;
use saga_core::experiment::{best_at, normalized_to, ComboResult, Metric};
use saga_core::stages::Stage;
use saga_graph::{build_graph, DataStructureKind};
use saga_stream::zipf::EndpointDist;
use saga_stream::{weight_for, Edge, Node};
use saga_trace::metrics::{Histogram, HistogramSummary};
use saga_utils::parallel::ThreadPool;
use saga_utils::timer::Stopwatch;

/// Fig. 7 row: FS compute latency normalized to INC at the dataset's best
/// data structure, per stage.
#[derive(Debug, Clone)]
pub struct ModelRatios {
    /// The data structure the ratios are measured on (best at P3 batch
    /// latency, the figure's caption rule).
    pub best_ds: DataStructureKind,
    /// FS/INC compute-latency ratio at P1/P2/P3.
    pub fs_over_inc: [f64; 3],
}

/// The Fig. 7 FS/INC compute ratio of one algorithm × dataset sweep.
pub fn fs_over_inc(results: &[ComboResult]) -> ModelRatios {
    let best_ds = best_at(results, Stage::P3, Metric::Batch).best.0;
    let compute_of = |cm: ComputeModelKind, stage: Stage| {
        results
            .iter()
            .find(|r| r.ds == best_ds && r.cm == cm)
            .map(|r| r.summary(stage, Metric::Compute).mean)
            .unwrap_or(f64::NAN)
    };
    let mut fs_over_inc = [f64::NAN; 3];
    for stage in Stage::ALL {
        fs_over_inc[stage.index()] = compute_of(ComputeModelKind::FromScratch, stage)
            / compute_of(ComputeModelKind::Incremental, stage);
    }
    ModelRatios {
        best_ds,
        fs_over_inc,
    }
}

/// Fig. 8 row: the update phase's share of batch latency at the best
/// combination, per stage.
#[derive(Debug, Clone)]
pub struct UpdateShare {
    /// The best (data structure, compute model) at P3 batch latency.
    pub best: (DataStructureKind, ComputeModelKind),
    /// Update fraction of batch latency at P1/P2/P3, in `[0, 1]`.
    pub share: [f64; 3],
}

/// The Fig. 8 update share of one algorithm × dataset sweep.
pub fn update_share(results: &[ComboResult]) -> UpdateShare {
    let best = best_at(results, Stage::P3, Metric::Batch).best;
    let combo = results
        .iter()
        .find(|r| (r.ds, r.cm) == best)
        .expect("best combination exists");
    let mut share = [f64::NAN; 3];
    for stage in Stage::ALL {
        share[stage.index()] = combo.stages[stage.index()].update_fraction();
    }
    UpdateShare { best, share }
}

/// Fig. 6 row: per-metric P3 latencies of every structure normalized to
/// AS, at the dataset's best compute model.
#[derive(Debug, Clone)]
pub struct StructureNorms {
    /// The compute model the comparison is isolated at.
    pub cm: ComputeModelKind,
    /// Batch latency relative to AS (panel a).
    pub batch: Vec<(DataStructureKind, f64)>,
    /// Update latency relative to AS (panel b).
    pub update: Vec<(DataStructureKind, f64)>,
    /// Compute latency relative to AS (panel c).
    pub compute: Vec<(DataStructureKind, f64)>,
}

impl StructureNorms {
    /// The ratio for one structure in one panel (`NaN` when absent).
    pub fn ratio(panel: &[(DataStructureKind, f64)], ds: DataStructureKind) -> f64 {
        panel
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|&(_, r)| r)
            .unwrap_or(f64::NAN)
    }
}

/// The Fig. 6 normalized structure latencies of one algorithm × dataset
/// sweep.
pub fn structure_norms(results: &[ComboResult]) -> StructureNorms {
    let cm = best_at(results, Stage::P3, Metric::Batch).best.1;
    let norm = |metric| {
        normalized_to(
            results,
            DataStructureKind::AdjacencyShared,
            cm,
            Stage::P3,
            metric,
        )
    };
    StructureNorms {
        cm,
        batch: norm(Metric::Batch),
        update: norm(Metric::Update),
        compute: norm(Metric::Compute),
    }
}

/// Generates the tail-sweep's Wiki-like stream with an explicit in-hub
/// mass: `mass` of all destination endpoints collapse onto one hub.
pub fn tail_sweep_stream(nodes: usize, edges: usize, mass: f64, seed: u64) -> Vec<Edge> {
    let out_dist = EndpointDist::zipf(nodes, 0.5, 0.0, seed ^ 0xA5A5);
    let in_dist = EndpointDist::zipf(nodes, 0.5, mass, seed ^ 0x5A5A);
    let mut rng = saga_utils::rng::Xoshiro256PlusPlus::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            let src: Node = out_dist.sample(&mut rng);
            let dst: Node = in_dist.sample(&mut rng);
            Edge::new(src, dst, weight_for(src, dst))
        })
        .collect()
}

/// One point of the tail sweep.
#[derive(Debug, Clone)]
pub struct TailPoint {
    /// In-hub mass of this point's stream.
    pub mass: f64,
    /// Observed max in-degree within the first batch.
    pub batch_max_in: usize,
    /// Best-of-repeats update latency per structure, milliseconds.
    pub update_ms: Vec<(DataStructureKind, f64)>,
    /// Log-bucketed per-batch update-latency distribution per structure,
    /// across every batch of every repeat (the Fig. 10 tail view; the
    /// histogram's p99 is the paper's tail-latency metric).
    pub update_hist: Vec<(DataStructureKind, HistogramSummary)>,
}

impl TailPoint {
    /// The update latency of one structure (`NaN` when absent).
    pub fn ms(&self, ds: DataStructureKind) -> f64 {
        self.update_ms
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|&(_, m)| m)
            .unwrap_or(f64::NAN)
    }

    /// The p99 per-batch update latency of one structure in milliseconds
    /// (`NaN` when absent).
    pub fn p99_ms(&self, ds: DataStructureKind) -> f64 {
        self.update_hist
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|&(_, h)| h.p99 as f64 / 1e6)
            .unwrap_or(f64::NAN)
    }
}

/// Runs the tail-mass sweep (the Fig. 6b AS↔DAH flip mechanism): for each
/// hub mass, measures the ingest-only update latency of every structure
/// over the stream, best-of-`repeats`.
pub fn tail_sweep(
    masses: &[f64],
    nodes: usize,
    edges: usize,
    batch: usize,
    repeats: usize,
    seed: u64,
    pool: &ThreadPool,
) -> Vec<TailPoint> {
    masses
        .iter()
        .map(|&mass| {
            let stream = tail_sweep_stream(nodes, edges, mass, seed);
            let first = &stream[..batch.min(stream.len())];
            let stats = saga_stream::batch_stats::degree_stats(first, nodes);
            let mut update_ms = Vec::with_capacity(DataStructureKind::ALL.len());
            let mut update_hist = Vec::with_capacity(DataStructureKind::ALL.len());
            for ds in DataStructureKind::ALL {
                // The histogram replaces the bespoke sorted-sample
                // percentile math this sweep used to carry: every
                // per-batch latency of every repeat is recorded, and the
                // summary's p99 is read straight off the buckets.
                let hist = Histogram::new();
                let mut best = f64::INFINITY;
                for _ in 0..repeats.max(1) {
                    let graph = build_graph(ds, nodes, true, pool.threads());
                    let total = Stopwatch::start();
                    for chunk in stream.chunks(batch) {
                        let sw = Stopwatch::start();
                        graph.update_batch(chunk, pool);
                        hist.record_secs(sw.elapsed_secs());
                    }
                    best = best.min(total.elapsed_secs());
                }
                update_ms.push((ds, best * 1e3));
                update_hist.push((ds, hist.summary()));
            }
            TailPoint {
                mass,
                batch_max_in: stats.max_in,
                update_ms,
                update_hist,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_algorithms::AlgorithmKind;
    use saga_core::experiment::{sweep_combinations, ExperimentConfig};
    use saga_stream::profiles::DatasetProfile;
    use std::sync::OnceLock;

    /// One tiny BFS/Talk sweep, shared by every derivation below.
    fn tiny_sweep() -> &'static [ComboResult] {
        static SWEEP: OnceLock<Vec<ComboResult>> = OnceLock::new();
        SWEEP.get_or_init(|| {
            let cfg = ExperimentConfig {
                seed: 11,
                repeats: 1,
                threads: 2,
                batch_size: None,
                scale: 0.04,
            };
            sweep_combinations(&DatasetProfile::talk(), AlgorithmKind::Bfs, &cfg)
        })
    }

    #[test]
    fn fs_over_inc_produces_finite_ratios() {
        let r = fs_over_inc(tiny_sweep());
        assert!(r.fs_over_inc.iter().all(|x| x.is_finite() && *x > 0.0));
    }

    #[test]
    fn update_share_is_a_fraction() {
        let r = update_share(tiny_sweep());
        assert!(r.share.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn structure_norms_include_all_four_structures() {
        let r = structure_norms(tiny_sweep());
        for panel in [&r.batch, &r.update, &r.compute] {
            assert_eq!(panel.len(), 4);
            let as_ratio = StructureNorms::ratio(panel, DataStructureKind::AdjacencyShared);
            assert!((as_ratio - 1.0).abs() < 1e-9, "AS normalizes to itself");
        }
    }

    #[test]
    fn tail_sweep_reports_hub_growth() {
        let pool = ThreadPool::new(2);
        let pts = tail_sweep(&[0.0, 0.3], 800, 4_000, 1_000, 1, 3, &pool);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].batch_max_in > pts[0].batch_max_in * 4,
            "hub mass must concentrate the in-degree tail: {} vs {}",
            pts[1].batch_max_in,
            pts[0].batch_max_in
        );
        for p in &pts {
            for ds in DataStructureKind::ALL {
                assert!(p.ms(ds).is_finite());
                assert!(p.p99_ms(ds).is_finite() && p.p99_ms(ds) > 0.0);
            }
            for (_, h) in &p.update_hist {
                // One sample per batch per repeat: 4000 edges / 1000.
                assert_eq!(h.count, 4);
                assert!(h.p50 <= h.p99 && h.p99 <= h.max);
            }
        }
    }
}
