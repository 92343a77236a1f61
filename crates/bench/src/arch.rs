//! Shared machinery for the architecture-level experiments (Figs. 9–10).
//!
//! §VI of the paper groups results into *STail* (short-tailed LJ, Orkut,
//! RMAT on their best structure, AS) and *HTail* (heavy-tailed Wiki, Talk
//! on DAH), always under the incremental compute model, averaged across
//! the algorithms. This module runs those configurations once with the
//! `saga-perf` simulator attached and aggregates the per-phase, per-stage
//! statistics `arch_suite` reports as Fig. 9(b–c) and Fig. 10.

use saga_algorithms::{AlgorithmKind, ComputeModelKind};
use saga_core::driver::{ArchSimConfig, StreamDriver};
use saga_core::experiment::ExperimentConfig;
use saga_core::stages::stage_of;
use saga_graph::DataStructureKind;
use saga_stream::profiles::DatasetProfile;
use saga_utils::stats::Summary;

/// One of the paper's §VI dataset groups.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group name (STail / HTail).
    pub name: &'static str,
    /// Member datasets with their group-best data structure.
    pub members: Vec<(DatasetProfile, DataStructureKind)>,
}

/// The paper's two groups: STail = {LJ, Orkut, RMAT} on AS, HTail =
/// {Wiki, Talk} on DAH (§VI preamble).
pub fn groups() -> Vec<GroupSpec> {
    vec![
        GroupSpec {
            name: "STail",
            members: DatasetProfile::short_tailed()
                .into_iter()
                .map(|p| (p, DataStructureKind::AdjacencyShared))
                .collect(),
        },
        GroupSpec {
            name: "HTail",
            members: DatasetProfile::heavy_tailed()
                .into_iter()
                .map(|p| (p, DataStructureKind::Dah))
                .collect(),
        },
    ]
}

/// Raw per-batch samples of one phase within one stage bucket.
#[derive(Debug, Clone, Default)]
struct PhaseSamples {
    dram_gbps: Vec<f64>,
    qpi_util: Vec<f64>,
    l2_hit: Vec<f64>,
    llc_hit: Vec<f64>,
    l2_mpki: Vec<f64>,
    llc_mpki: Vec<f64>,
    imbalance: Vec<f64>,
}

/// Aggregated statistics of one phase within one stage.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStageStats {
    /// Modeled DRAM bandwidth (GB/s).
    pub dram_gbps: Summary,
    /// Modeled QPI utilization (fraction of peak).
    pub qpi_util: Summary,
    /// Private L2 hit ratio.
    pub l2_hit: Summary,
    /// Shared LLC hit ratio.
    pub llc_hit: Summary,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: Summary,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: Summary,
    /// Max-thread/mean-thread cycle imbalance.
    pub imbalance: Summary,
}

impl PhaseSamples {
    fn summarize(&self) -> PhaseStageStats {
        PhaseStageStats {
            dram_gbps: Summary::from_samples(&self.dram_gbps),
            qpi_util: Summary::from_samples(&self.qpi_util),
            l2_hit: Summary::from_samples(&self.l2_hit),
            llc_hit: Summary::from_samples(&self.llc_hit),
            l2_mpki: Summary::from_samples(&self.l2_mpki),
            llc_mpki: Summary::from_samples(&self.llc_mpki),
            imbalance: Summary::from_samples(&self.imbalance),
        }
    }
}

/// Per-group, per-stage, per-phase characterization.
#[derive(Debug)]
pub struct GroupArchResult {
    /// Group name.
    pub name: &'static str,
    /// `update[stage]` / `compute[stage]`.
    pub update: [PhaseStageStats; 3],
    /// Compute-phase statistics per stage.
    pub compute: [PhaseStageStats; 3],
}

/// Runs the §VI configuration (INC on the group's best structure) for
/// every group/dataset/algorithm and aggregates per-phase statistics.
pub fn run_arch_characterization(
    cfg: &ExperimentConfig,
    algorithms: &[AlgorithmKind],
    cache_scale: usize,
) -> Vec<GroupArchResult> {
    let mut out = Vec::new();
    for group in groups() {
        let mut update: [PhaseSamples; 3] = Default::default();
        let mut compute: [PhaseSamples; 3] = Default::default();
        for (profile, ds) in &group.members {
            let profile = profile.clone().scaled_by(cfg.scale);
            let stream = profile.generate(cfg.seed);
            for &alg in algorithms {
                saga_trace::progress!(
                    "[arch] {} / {} / {} (tracing + replay)...",
                    group.name,
                    profile.name(),
                    alg
                );
                let mut driver = StreamDriver::builder(*ds, stream.num_nodes)
                    .algorithm(alg)
                    .compute_model(ComputeModelKind::Incremental)
                    .threads(cfg.threads)
                    .arch_sim(ArchSimConfig {
                        cache_scale,
                        ..ArchSimConfig::default()
                    })
                    .build();
                let outcome = driver.run(&stream);
                let total = outcome.batches.len();
                for batch in &outcome.batches {
                    let s = stage_of(batch.index, total).index();
                    let arch = batch.arch.as_ref().expect("arch sim enabled");
                    let push = |bucket: &mut PhaseSamples,
                                report: &saga_perf::cache::CacheReport,
                                bw: &saga_perf::bandwidth::BandwidthEstimate| {
                        bucket.dram_gbps.push(bw.dram_gbps / 1e9);
                        bucket.qpi_util.push(bw.qpi_utilization);
                        bucket.l2_hit.push(report.l2_hit_ratio());
                        bucket.llc_hit.push(report.llc_hit_ratio());
                        bucket.l2_mpki.push(report.l2_mpki());
                        bucket.llc_mpki.push(report.llc_mpki());
                        bucket.imbalance.push(bw.imbalance);
                    };
                    push(&mut update[s], &arch.update, &arch.update_bw);
                    push(&mut compute[s], &arch.compute, &arch.compute_bw);
                }
            }
        }
        out.push(GroupArchResult {
            name: group.name,
            update: [
                update[0].summarize(),
                update[1].summarize(),
                update[2].summarize(),
            ],
            compute: [
                compute[0].summarize(),
                compute[1].summarize(),
                compute[2].summarize(),
            ],
        });
    }
    out
}

/// Stage label helper for the report rows.
pub fn stage_label(i: usize) -> &'static str {
    match i {
        0 => "P1",
        1 => "P2",
        _ => "P3",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_match_section_vi() {
        let gs = groups();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].name, "STail");
        assert_eq!(gs[0].members.len(), 3);
        assert!(gs[0]
            .members
            .iter()
            .all(|(_, ds)| *ds == DataStructureKind::AdjacencyShared));
        assert_eq!(gs[1].name, "HTail");
        assert_eq!(gs[1].members.len(), 2);
        assert!(gs[1].members.iter().all(|(_, ds)| *ds == DataStructureKind::Dah));
    }

    #[test]
    fn stage_labels() {
        assert_eq!(stage_label(0), "P1");
        assert_eq!(stage_label(2), "P3");
    }
}
