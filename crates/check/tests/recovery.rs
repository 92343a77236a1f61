//! Kill-and-recover checks for the sharded BSP driver, plus trace
//! validation of its per-superstep spans.
//!
//! The fast tests cover every algorithm × compute model × kill phase on
//! one generated program each; the `#[ignore]`d `recovery_smoke` sweeps
//! more seeds and profiles for CI's dedicated job
//! (`cargo test -p saga-check --release -- --ignored recovery_smoke`).

use saga_algorithms::layout::ShardLayout;
use saga_algorithms::{
    AlgorithmKind, BatchImpact, CheckpointConfig, ComputeEngine, ComputeModelKind, ComputeOutcome,
    KillPhase, KillSpec, ShardedState,
};
use saga_check::program::{OpProgram, ProgramOp, ProgramProfile};
use saga_check::recovery::{check_recovery, RecoveryConfig};
use saga_graph::{build_deletable_graph, DataStructureKind, Edge};
use saga_stream::EdgeOp;
use saga_utils::parallel::ThreadPool;
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
    // Delete-heavy: INC batches with deletions repair through the witness
    // forest or fall back to the FS kernel, beside edge-seeded inserts. A
    // kill in superstep 0 recovers from the baseline `begin` publishes; one
    // in superstep 1 from the checkpoint the first epilogue publishes.
    let program = OpProgram::generate(0x5EED_0002, ProgramProfile::DeleteHeavy);
    for algorithm in AlgorithmKind::ALL {
        for superstep in [0, 1] {
            for phase in [KillPhase::Scatter, KillPhase::Gather] {
                let mut cfg = config(algorithm, ComputeModelKind::Incremental, phase);
                cfg.kill.superstep = superstep;
                let got = check_recovery(&program, &cfg);
                assert!(got.is_none(), "{algorithm:?}/{superstep}/{phase:?}: {}", got.unwrap());
            }
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

/// `program` on an uninterrupted sharded INC state shaped like `config`'s
/// twins: the work record of every batch.
fn sharded_outcomes(program: &OpProgram, config: &RecoveryConfig) -> Vec<ComputeOutcome> {
    let pool = ThreadPool::new(config.threads);
    let graph =
        build_deletable_graph(config.structure, program.capacity, program.directed, pool.threads());
    let root = program.to_stream().edges.first().map_or(0, |e| e.src);
    let mut state = ShardedState::new(
        config.algorithm,
        config.model,
        program.capacity,
        config.shards,
        saga_server::tenant::tenant_params(root),
        CheckpointConfig::default(),
    );
    let edge = |s, d| Edge::new(s, d, saga_stream::edge_weight(s, d, program.directed));
    program
        .batches
        .iter()
        .map(|batch| {
            let ops = |kind| batch.iter().filter(move |op| op.0 == kind).map(|&(_, s, d)| edge(s, d));
            let (inserts, deletes): (Vec<Edge>, Vec<Edge>) =
                (ops(EdgeOp::Insert).collect(), ops(EdgeOp::Delete).collect());
            graph.update_batch(&inserts, &pool);
            graph.delete_batch(&deletes, &pool);
            state.compute(graph.as_ref(), &BatchImpact::default(), &inserts, &deletes, &pool)
        })
        .collect()
}

/// The repair scenario of [`kill_and_recover_inside_a_deletion_repair`]
/// for `algorithm`, with vertex `v` named `id(v)`: one edge per batch
/// builds the path 0 → 1 → … → 8 and a 31-hop detour 0 → 120 → … → 149 →
/// 3 that improves nothing (for SSWP too: these weights leave the detour
/// the narrower path), then the last batch deletes 0 → 1. CC and MC run it
/// undirected, MC with the ids mirrored (`199 - v`) so that the largest
/// label sits where CC's smallest does.
fn repair_program(algorithm: AlgorithmKind) -> (OpProgram, impl Fn(u32) -> u32) {
    let label = matches!(algorithm, AlgorithmKind::Cc | AlgorithmKind::Mc);
    let mirror = algorithm == AlgorithmKind::Mc;
    let id = move |v: u32| if mirror { 199 - v } else { v };
    let detour: Vec<u32> = std::iter::once(0).chain(120..150).chain([3]).collect();
    let mut batches: Vec<Vec<ProgramOp>> = (0..8)
        .map(|v| (v, v + 1))
        .chain(detour.windows(2).map(|w| (w[0], w[1])))
        .map(|(s, d)| vec![(EdgeOp::Insert, id(s), id(d))])
        .collect();
    batches.push(vec![(EdgeOp::Delete, id(0), id(1))]);
    (OpProgram { capacity: 200, directed: !label, batches }, id)
}

/// A kill inside the supersteps of an INC deletion batch that repairs: the
/// victim matches the uninterrupted twin bitwise, witness forest included,
/// for every Fold program ([`repair_program`]). No run before the last
/// outlives superstep 1. The last batch's subtree 1..=8 is reset (8
/// vertices, within a 200-vertex universe's 10-vertex repair limit), 3
/// re-derives over the detour, and the wave 3 → 4 → … → 8 runs past the
/// kill's superstep 2 on the shard that owns it.
#[test]
fn kill_and_recover_inside_a_deletion_repair() {
    let _g = LOCK.lock().unwrap();
    for algorithm in AlgorithmKind::ALL {
        if algorithm == AlgorithmKind::PageRank {
            continue; // keeps no witness forest
        }
        let (program, id) = repair_program(algorithm);
        for phase in [KillPhase::Scatter, KillPhase::Gather] {
            let mut cfg = config(algorithm, ComputeModelKind::Incremental, phase);
            let shard = ShardLayout::new(program.capacity, cfg.shards).shard_of(id(3) as usize);
            cfg.kill = KillSpec { superstep: 2, shard, phase };
            let outcomes = sharded_outcomes(&program, &cfg);
            let (last, earlier) = outcomes.split_last().expect("batches");
            assert!(earlier.iter().all(|o| o.iterations <= 2), "{algorithm:?}: {earlier:?}");
            assert!(
                last.repaired == 8 && !last.fs_fallback && last.iterations > 3,
                "{algorithm:?}: the deletion batch must repair in supersteps: {last:?}"
            );
            let got = check_recovery(&program, &cfg);
            assert!(got.is_none(), "{algorithm:?}/{phase:?}: {}", got.unwrap());
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
