//! Kill-and-recover checks for the sharded BSP driver, plus trace
//! validation of its per-superstep spans.
//!
//! The fast tests cover every algorithm × compute model × kill phase on
//! one generated program each; the `#[ignore]`d `recovery_smoke` sweeps
//! more seeds and profiles for CI's dedicated job
//! (`cargo test -p saga-check --release -- --ignored recovery_smoke`).

use saga_algorithms::{AlgorithmKind, ComputeModelKind};
use saga_bsp::{KillPhase, KillSpec};
use saga_check::program::{OpProgram, ProgramOp, ProgramProfile};
use saga_check::recovery::{check_recovery, RecoveryConfig};
use saga_graph::DataStructureKind;
use saga_stream::EdgeOp;
use std::sync::Mutex;

/// The trace rings are process-global and one test here enables tracing;
/// serialize every test in this binary so pool spans from a concurrent
/// test can't dangle into the capture window.
static LOCK: Mutex<()> = Mutex::new(());

fn config(
    algorithm: AlgorithmKind,
    model: ComputeModelKind,
    phase: KillPhase,
) -> RecoveryConfig {
    RecoveryConfig {
        algorithm,
        model,
        structure: DataStructureKind::AdjacencyShared,
        shards: 3,
        threads: 2,
        // Superstep 1 exists in every full run of a non-trivial program;
        // if a particular batch converges earlier the spec just stays
        // armed for the next batch — the harness asserts it fired by
        // end of stream.
        kill: KillSpec {
            superstep: 1,
            shard: 1,
            phase,
        },
    }
}

#[test]
fn kill_and_recover_all_algorithms_fs() {
    let _g = LOCK.lock().unwrap();
    let program = OpProgram::generate(0x5EED_0001, ProgramProfile::Uniform);
    for algorithm in AlgorithmKind::ALL {
        for phase in [KillPhase::Scatter, KillPhase::Gather] {
            let cfg = config(algorithm, ComputeModelKind::FromScratch, phase);
            let got = check_recovery(&program, &cfg);
            assert!(got.is_none(), "{algorithm:?}/{phase:?}: {}", got.unwrap());
        }
    }
}

#[test]
fn kill_and_recover_all_algorithms_inc() {
    let _g = LOCK.lock().unwrap();
    // Delete-heavy: INC batches with deletions take the full-recompute
    // path, so both seeding modes get killed and recovered.
    let program = OpProgram::generate(0x5EED_0002, ProgramProfile::DeleteHeavy);
    for algorithm in AlgorithmKind::ALL {
        for phase in [KillPhase::Scatter, KillPhase::Gather] {
            let cfg = config(algorithm, ComputeModelKind::Incremental, phase);
            let got = check_recovery(&program, &cfg);
            assert!(got.is_none(), "{algorithm:?}/{phase:?}: {}", got.unwrap());
        }
    }
}

/// Insert-only INC batches are seeded from their edges and checkpointed
/// after the seed fold: a kill in superstep 0 or 1 of such a run must
/// recover from that checkpoint to the uninterrupted twin's bits. The
/// batches are chains — one rising from the root, one falling, then a
/// link between them — so every fold program's seeds start a wave that
/// outlives superstep 0 (a rising chain alone never moves MC's max).
#[test]
fn kill_and_recover_edge_seeded_batches() {
    let _g = LOCK.lock().unwrap();
    let chain = |from: u32, to: u32| -> Vec<ProgramOp> {
        let step = |v: u32| if from < to { v + 1 } else { v - 1 };
        let mut v = from;
        std::iter::from_fn(|| {
            (v != to).then(|| {
                let op = (EdgeOp::Insert, v, step(v));
                v = step(v);
                op
            })
        })
        .collect()
    };
    for directed in [true, false] {
        let program = OpProgram {
            capacity: 24,
            directed,
            batches: vec![chain(0, 11), chain(23, 12), chain(11, 13)],
        };
        for algorithm in AlgorithmKind::ALL {
            if algorithm == AlgorithmKind::PageRank {
                continue; // a sum program always runs in full
            }
            for superstep in [0, 1] {
                for phase in [KillPhase::Scatter, KillPhase::Gather] {
                    let cfg = RecoveryConfig {
                        kill: KillSpec { superstep, shard: 1, phase },
                        ..config(algorithm, ComputeModelKind::Incremental, phase)
                    };
                    let got = check_recovery(&program, &cfg);
                    let at = format!("{algorithm:?}/directed={directed}/{superstep}/{phase:?}");
                    assert!(got.is_none(), "{at}: {}", got.unwrap());
                }
            }
        }
    }
}

#[test]
fn sharded_driver_emits_valid_superstep_spans() {
    let _g = LOCK.lock().unwrap();
    use saga_algorithms::AlgorithmParams;
    use saga_core::driver::StreamDriver;

    let program = OpProgram::generate(0x5EED_0003, ProgramProfile::Uniform);
    let stream = program.to_stream();
    saga_trace::clear();
    saga_trace::set_enabled(true);
    let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, program.capacity)
        .algorithm(AlgorithmKind::Bfs)
        .compute_model(ComputeModelKind::FromScratch)
        .threads(2)
        .params(AlgorithmParams::default())
        .sharded(3)
        .build();
    driver.run(&stream);
    saga_trace::set_enabled(false);
    let doc = saga_trace::chrome_trace();
    saga_trace::clear();
    let stats = saga_check::tracecheck::validate(&doc).expect("sharded trace must validate");
    assert!(stats.spans > 0, "expected spans, got {stats:?}");
    assert!(
        doc.contains("bsp-superstep") && doc.contains("bsp-scatter") && doc.contains("bsp-gather"),
        "BSP phase spans missing from trace"
    );
}

/// Extended sweep for CI's `recovery-smoke` job.
#[test]
#[ignore = "extended sweep; run via CI recovery-smoke or --ignored"]
fn recovery_smoke() {
    let _g = LOCK.lock().unwrap();
    let mut checked = 0usize;
    for (i, profile) in ProgramProfile::ALL.into_iter().enumerate() {
        let program = OpProgram::generate(0xAB5_0000 + i as u64, profile);
        for algorithm in AlgorithmKind::ALL {
            for model in ComputeModelKind::ALL {
                for phase in [KillPhase::Scatter, KillPhase::Gather] {
                    let cfg = RecoveryConfig {
                        algorithm,
                        model,
                        structure: DataStructureKind::ALL_WITH_DELTA
                            [checked % DataStructureKind::ALL_WITH_DELTA.len()],
                        shards: 2 + checked % 4,
                        threads: 1 + checked % 3,
                        kill: KillSpec {
                            superstep: 1 + checked % 2,
                            shard: checked % 2,
                            phase,
                        },
                    };
                    let got = check_recovery(&program, &cfg);
                    // A kill spec aimed at a superstep no run reaches is
                    // reported as vacuous; tolerate only that outcome.
                    if let Some(detail) = got {
                        assert!(
                            detail.contains("never fired"),
                            "{profile:?}/{algorithm:?}/{model:?}/{phase:?}: {detail}"
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 144, "sweep shrank: {checked}");
}
