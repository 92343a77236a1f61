//! Shared machinery for the architecture-level experiments (Figs. 9–10).
//!
//! §VI of the paper groups results into *STail* (short-tailed LJ, Orkut,
//! RMAT on their best structure, AS) and *HTail* (heavy-tailed Wiki, Talk
//! on DAH), always under the incremental compute model, averaged across
//! the algorithms. This module runs those configurations with the
//! `saga-perf` simulator attached, once per thread count of Fig. 9(a)'s
//! axis, and aggregates what the runner's `arch` producer reports: the
//! modeled scaling curves (Fig. 9a) and the per-phase, per-stage
//! statistics at the configured thread count (Fig. 9b–c, Fig. 10).

use saga_algorithms::{AlgorithmKind, ComputeModelKind};
use saga_core::driver::StreamDriver;
use saga_core::experiment::ExperimentConfig;
use saga_core::stages::stage_of;
use saga_graph::DataStructureKind;
use saga_perf::bandwidth::BandwidthEstimate;
use saga_perf::cache::CacheReport;
use saga_perf::scaling::ScalingCurve;
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
    fn push(&mut self, report: &CacheReport, bw: &BandwidthEstimate) {
        self.dram_gbps.push(bw.dram_gbps / 1e9);
        self.qpi_util.push(bw.qpi_utilization);
        self.l2_hit.push(report.l2_hit_ratio());
        self.llc_hit.push(report.llc_hit_ratio());
        self.l2_mpki.push(report.l2_mpki());
        self.llc_mpki.push(report.llc_mpki());
        self.imbalance.push(bw.imbalance);
    }

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
    /// `update[stage]` / `compute[stage]`, at the configured thread count.
    pub update: [PhaseStageStats; 3],
    /// Compute-phase statistics per stage, at the configured thread count.
    pub compute: [PhaseStageStats; 3],
    /// Fig. 9(a): modeled update-phase seconds over every batch, per
    /// thread count of the axis.
    pub update_scaling: ScalingCurve,
    /// Fig. 9(a): the compute phase's curve.
    pub compute_scaling: ScalingCurve,
}

/// Runs the §VI configuration (INC on the group's best structure) for
/// every group × dataset × algorithm × thread count and aggregates
/// per-phase statistics. The thread axis is `scaling_threads` plus
/// `cfg.threads`, whose run alone feeds the per-stage statistics.
///
/// Every point is *modeled* (DESIGN.md, Substitutions): the structures
/// really run with that many threads and are traced, and each phase's time
/// is `max(slowest thread, most-contended lock, traffic / peak bandwidth)`
/// on the paper's machine model.
pub fn run_arch_characterization(
    cfg: &ExperimentConfig,
    algorithms: &[AlgorithmKind],
    scaling_threads: &[usize],
) -> Vec<GroupArchResult> {
    let mut threads = scaling_threads.to_vec();
    if !threads.contains(&cfg.threads) {
        threads.push(cfg.threads);
        threads.sort_unstable();
    }
    let mut out = Vec::new();
    for group in groups() {
        let mut update: [PhaseSamples; 3] = Default::default();
        let mut compute: [PhaseSamples; 3] = Default::default();
        let mut update_secs = vec![0.0f64; threads.len()];
        let mut compute_secs = vec![0.0f64; threads.len()];
        for (profile, ds) in &group.members {
            let profile = profile.clone().scaled_by(cfg.scale);
            let stream = profile.generate(cfg.seed);
            for &alg in algorithms {
                for (i, &t) in threads.iter().enumerate() {
                    saga_trace::progress!(
                        "[arch] {} / {} / {alg} @ {t} threads (tracing + replay)...",
                        group.name,
                        profile.name(),
                    );
                    let mut driver = StreamDriver::builder(*ds, stream.num_nodes)
                        .algorithm(alg)
                        .compute_model(ComputeModelKind::Incremental)
                        .threads(t)
                        .arch_sim()
                        .build();
                    let outcome = driver.run(&stream);
                    let total = outcome.batches.len();
                    let mut dropped = [0u64; 2];
                    for batch in &outcome.batches {
                        let arch = batch.arch.as_ref().expect("arch sim enabled");
                        dropped[0] += arch.update.dropped;
                        dropped[1] += arch.compute.dropped;
                        update_secs[i] += arch.update_bw.seconds;
                        compute_secs[i] += arch.compute_bw.seconds;
                        if t == cfg.threads {
                            let s = stage_of(batch.index, total).index();
                            update[s].push(&arch.update, &arch.update_bw);
                            compute[s].push(&arch.compute, &arch.compute_bw);
                        }
                    }
                    // A phase past the trace budget was replayed on its
                    // recorded prefix only.
                    for (phase, dropped) in ["update", "compute"].into_iter().zip(dropped) {
                        if dropped > 0 {
                            saga_trace::progress!(
                                "[arch] {} / {} / {alg} @ {t} threads: {phase} traces cut, \
                                 {dropped} accesses dropped",
                                group.name,
                                profile.name(),
                            );
                        }
                    }
                }
            }
        }
        let curve = |seconds| ScalingCurve {
            threads: threads.clone(),
            seconds,
        };
        out.push(GroupArchResult {
            name: group.name,
            update: update.each_ref().map(PhaseSamples::summarize),
            compute: compute.each_ref().map(PhaseSamples::summarize),
            update_scaling: curve(update_secs),
            compute_scaling: curve(compute_secs),
        });
    }
    out
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
}
