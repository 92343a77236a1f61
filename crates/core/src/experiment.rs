//! Experiment sweeps over (data structure × compute model) configurations.
//!
//! Table III of the paper evaluates, per algorithm and dataset, all
//! 4 data structures × 2 compute models = 8 combinations, with three
//! repeated runs and 95% confidence intervals, reporting per stage the
//! best combination (and combinations whose intervals overlap it as
//! *competitive*). These helpers run exactly that sweep; the `saga-bench`
//! runner's `software` producer and the shape-regression suite consume the
//! results.

use crate::driver::{BatchRecord, StreamDriver};
use crate::stages::{Stage, StageSummary};
use saga_algorithms::{AlgorithmKind, ComputeModelKind};
use saga_graph::DataStructureKind;
use saga_stream::profiles::DatasetProfile;
use saga_utils::stats::Summary;

/// Shared sweep settings.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Stream generation seed.
    pub seed: u64,
    /// Repeated runs per configuration (the paper uses 3).
    pub repeats: usize,
    /// Worker threads.
    pub threads: usize,
    /// Batch size override (default: the profile's suggestion).
    pub batch_size: Option<usize>,
    /// Dataset scale multiplier (1.0 = the profile's default size).
    pub scale: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            repeats: 3,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            batch_size: None,
            scale: 1.0,
        }
    }
}

/// Which latency a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Batch processing latency (Eq. 1) — Fig. 6a, Table III.
    Batch,
    /// Update latency — Fig. 6b.
    Update,
    /// Compute latency — Fig. 6c, Fig. 7.
    Compute,
}

/// Result of one (data structure × compute model) cell.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// Data structure.
    pub ds: DataStructureKind,
    /// Compute model.
    pub cm: ComputeModelKind,
    /// P1/P2/P3 summaries.
    pub stages: [StageSummary; 3],
}

impl ComboResult {
    /// The summary of `metric` at `stage`.
    pub fn summary(&self, stage: Stage, metric: Metric) -> Summary {
        let s = &self.stages[stage.index()];
        match metric {
            Metric::Batch => s.batch,
            Metric::Update => s.update,
            Metric::Compute => s.compute,
        }
    }
}

/// Runs one configuration `cfg.repeats` times on the same stream and
/// aggregates stages (§IV-B methodology).
pub fn run_combination(
    profile: &DatasetProfile,
    algorithm: AlgorithmKind,
    ds: DataStructureKind,
    cm: ComputeModelKind,
    cfg: &ExperimentConfig,
) -> ComboResult {
    let profile = profile.clone().scaled_by(cfg.scale);
    let stream = profile.generate(cfg.seed);
    let mut runs: Vec<Vec<BatchRecord>> = Vec::with_capacity(cfg.repeats);
    for _ in 0..cfg.repeats.max(1) {
        let mut builder = StreamDriver::builder(ds, stream.num_nodes)
            .algorithm(algorithm)
            .compute_model(cm)
            .threads(cfg.threads);
        if let Some(b) = cfg.batch_size {
            builder = builder.batch_size(b);
        }
        let mut driver = builder.build();
        runs.push(driver.run(&stream).batches);
    }
    let views: Vec<&[BatchRecord]> = runs.iter().map(|r| r.as_slice()).collect();
    ComboResult {
        ds,
        cm,
        stages: crate::stages::summarize_stages(&views),
    }
}

/// Runs all 8 combinations for one algorithm and dataset.
pub fn sweep_combinations(
    profile: &DatasetProfile,
    algorithm: AlgorithmKind,
    cfg: &ExperimentConfig,
) -> Vec<ComboResult> {
    let mut out = Vec::with_capacity(8);
    for ds in DataStructureKind::ALL {
        for cm in ComputeModelKind::ALL {
            out.push(run_combination(profile, algorithm, ds, cm, cfg));
        }
    }
    out
}

/// The best combination at a stage, plus every combination whose 95%
/// confidence interval overlaps the best ("competitive", Table III).
#[derive(Debug, Clone)]
pub struct BestEntry {
    /// The outright best (lowest mean) combination.
    pub best: (DataStructureKind, ComputeModelKind),
    /// Mean latency of the best combination, seconds.
    pub best_mean: f64,
    /// Combinations competitive with the best (includes the best itself).
    pub competitive: Vec<(DataStructureKind, ComputeModelKind)>,
}

impl BestEntry {
    /// Table III cell notation: `INC+AS` or `INC/FS+AS` style (best first,
    /// competitive combinations appended).
    pub fn notation(&self) -> String {
        let mut parts: Vec<String> = vec![format!("{}+{}", self.best.1, self.best.0)];
        for &(ds, cm) in &self.competitive {
            if (ds, cm) != self.best {
                parts.push(format!("{cm}+{ds}"));
            }
        }
        parts.join(" / ")
    }
}

/// Picks the best/competitive set among `results` at `stage` by `metric`.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn best_at(results: &[ComboResult], stage: Stage, metric: Metric) -> BestEntry {
    assert!(!results.is_empty(), "no combinations to compare");
    let best = results
        .iter()
        .min_by(|a, b| {
            a.summary(stage, metric)
                .mean
                .total_cmp(&b.summary(stage, metric).mean)
        })
        .unwrap();
    let best_summary = best.summary(stage, metric);
    let competitive = results
        .iter()
        .filter(|r| best_summary.competitive_with(&r.summary(stage, metric)))
        .map(|r| (r.ds, r.cm))
        .collect();
    BestEntry {
        best: (best.ds, best.cm),
        best_mean: best_summary.mean,
        competitive,
    }
}

/// Ratio of a combination's latency to a baseline data structure's at a
/// stage (Fig. 6's "normalized to AS").
pub fn normalized_to(
    results: &[ComboResult],
    baseline: DataStructureKind,
    cm: ComputeModelKind,
    stage: Stage,
    metric: Metric,
) -> Vec<(DataStructureKind, f64)> {
    let base = results
        .iter()
        .find(|r| r.ds == baseline && r.cm == cm)
        .map(|r| r.summary(stage, metric).mean)
        .unwrap_or(f64::NAN);
    results
        .iter()
        .filter(|r| r.cm == cm)
        .map(|r| (r.ds, r.summary(stage, metric).mean / base))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            repeats: 2,
            threads: 2,
            batch_size: Some(600),
            scale: 1.0,
        }
    }

    #[test]
    fn run_combination_produces_three_stages() {
        let profile = DatasetProfile::talk().scaled(200, 1_800);
        let result = run_combination(
            &profile,
            AlgorithmKind::Bfs,
            DataStructureKind::Dah,
            ComputeModelKind::Incremental,
            &tiny_cfg(),
        );
        assert_eq!(result.stages.len(), 3);
        for s in &result.stages {
            assert_eq!(s.update.n, 2, "1 batch per stage x 2 repeats");
            assert!(s.batch.mean > 0.0);
        }
        assert!(result.summary(Stage::P1, Metric::Batch).mean > 0.0);
    }

    #[test]
    fn best_at_prefers_lower_mean() {
        let profile = DatasetProfile::livejournal().scaled(150, 1_800);
        let cfg = tiny_cfg();
        let results = vec![
            run_combination(
                &profile,
                AlgorithmKind::Cc,
                DataStructureKind::AdjacencyShared,
                ComputeModelKind::Incremental,
                &cfg,
            ),
            run_combination(
                &profile,
                AlgorithmKind::Cc,
                DataStructureKind::AdjacencyShared,
                ComputeModelKind::FromScratch,
                &cfg,
            ),
        ];
        let best = best_at(&results, Stage::P3, Metric::Batch);
        assert!(best.best_mean > 0.0);
        assert!(!best.competitive.is_empty());
        assert!(best.notation().contains("AS"));
    }

    #[test]
    fn normalization_is_one_for_the_baseline() {
        let profile = DatasetProfile::livejournal().scaled(150, 1_800);
        let cfg = tiny_cfg();
        let results = vec![
            run_combination(
                &profile,
                AlgorithmKind::Mc,
                DataStructureKind::AdjacencyShared,
                ComputeModelKind::Incremental,
                &cfg,
            ),
            run_combination(
                &profile,
                AlgorithmKind::Mc,
                DataStructureKind::Stinger,
                ComputeModelKind::Incremental,
                &cfg,
            ),
        ];
        let norm = normalized_to(
            &results,
            DataStructureKind::AdjacencyShared,
            ComputeModelKind::Incremental,
            Stage::P3,
            Metric::Update,
        );
        let as_entry = norm
            .iter()
            .find(|(ds, _)| *ds == DataStructureKind::AdjacencyShared)
            .unwrap();
        assert!((as_entry.1 - 1.0).abs() < 1e-12);
    }
}
