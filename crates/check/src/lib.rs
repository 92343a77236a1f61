//! `saga-check`: model-based differential fuzzing and paper-shape
//! regression for the SAGA-Bench suite.
//!
//! Three layers (DESIGN.md §8):
//!
//! 1. **Op programs** ([`program`]) — seeded, profile-driven generators of
//!    small insert/delete/batch-boundary sequences. Programs are purely
//!    structural (weights derive from endpoints), so every data structure
//!    and driver sees the same logical stream.
//! 2. **Differential checking** ([`diff`]) — a program's ground truth is a
//!    [`GraphOracle`](saga_graph::oracle::GraphOracle) replay plus
//!    from-scratch values on CSR snapshots; every structure × driver ×
//!    compute model is replayed against it, comparing per-batch stats,
//!    per-batch values, and final topology. Failures shrink ([`shrink`])
//!    to a minimal program rendered as a paste-ready `#[test]`.
//! 3. **Shape assertions** ([`shape`]) — `assert_ordering!`,
//!    `assert_ratio_within!`, `assert_crossover!` turn the EXPERIMENTS.md
//!    scorecard into failing tests, backed by scaled-down re-runs of the
//!    experiment suite measured on the current build.
//!
//! A fourth, smaller layer holds the validators for what `saga-trace`
//! renders: [`tracecheck`] checks exported Chrome trace-event JSON (its
//! shape and strict per-track span nesting, parsed with the in-tree
//! reader in [`json`]) for `cargo xtask check-trace` and CI's trace-smoke
//! step, and [`prom`] checks Prometheus exposition for `cargo xtask
//! check-metrics`.
//!
//! A fifth layer ([`recovery`]) targets the sharded BSP engine
//! (`saga-bsp`): it arms a mid-superstep worker kill, lets the engine
//! recover from its superstep-boundary checkpoint, and requires the
//! recovered run to be *bitwise identical* to an uninterrupted twin while
//! both track the serial oracle — CI's `recovery-smoke` job runs the
//! extended version.

pub mod diff;
pub mod json;
pub mod loadgen;
pub mod program;
pub mod prom;
pub mod recovery;
pub mod shape;
pub mod shrink;
pub mod tracecheck;

pub use diff::{check_program, CheckConfig, Divergence, DriverKind, Fault, FaultPlan, RepairTally};
pub use loadgen::{create_tenant, drive_tenant, verify_tenant, DriveReport, TenantSpec, VerifyReport};
pub use recovery::{check_recovery, RecoveryConfig};
pub use program::{OpProgram, ProgramProfile};
pub use shrink::{shrink, ShrinkResult};

use diff::check_program_tallied;
use saga_algorithms::AlgorithmKind;
use std::collections::BTreeMap;

/// What a [`fuzz_campaign`] checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Programs checked (all of them clean: a divergence panics).
    pub checked: u64,
    /// The serial INC replays' deletion batches, per algorithm.
    pub repairs: BTreeMap<AlgorithmKind, RepairTally>,
}

/// Runs `count` fuzzing steps starting at `base_seed`. Each step generates
/// the seeded program, picks the algorithm by seed rotation and checks it;
/// the first divergence is shrunk to a minimal reproducer.
///
/// # Panics
///
/// Panics with the shrunk minimal program's `#[test]` snippet when any
/// seed diverges.
pub fn fuzz_campaign(base_seed: u64, count: u64) -> CampaignReport {
    let mut report = CampaignReport::default();
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let profile = ProgramProfile::ALL[(seed % ProgramProfile::ALL.len() as u64) as usize];
        let algorithm = AlgorithmKind::ALL[(seed / 7 % AlgorithmKind::ALL.len() as u64) as usize];
        let program = OpProgram::generate(seed, profile);
        let config = CheckConfig { algorithm, ..CheckConfig::quick() };
        let tally = report.repairs.entry(algorithm).or_default();
        if let Some(d) = check_program_tallied(&program, &config, tally) {
            let result = shrink(
                &program,
                |p| check_program(p, &config).is_some(),
                500,
            );
            let snippet = result
                .program
                .to_test_snippet("shrunk_reproducer", "CheckConfig::quick()");
            panic!(
                "seed {seed} diverged: {d}\nshrunk to {} ops ({} evaluations, converged: {})\n{snippet}",
                result.program.total_ops(),
                result.evaluations,
                result.converged
            );
        }
        report.checked += 1;
    }
    report
}
