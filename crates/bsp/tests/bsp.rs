//! End-to-end checks for the sharded BSP layer: serial-oracle agreement,
//! edge-seeded incremental batches, kill-and-recover determinism, and the
//! on-disk checkpoint path.

use saga_algorithms::bfs::BfsProgram;
use saga_bsp::checkpoint::{Checkpoint, CheckpointConfig, CheckpointStore};
use saga_bsp::engine::BspEngine;
use saga_bsp::{KillPhase, KillSpec, ShardedState};
use saga_algorithms::{
    AffectedTracker, AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeEngine,
    ComputeModelKind, ComputeOutcome, VertexValues,
};
use saga_graph::{build_graph, DataStructureKind, DynamicGraph, Edge};
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::Xoshiro256PlusPlus;
use std::path::PathBuf;

/// A deterministic pseudo-random directed edge list with weights in
/// (0, 1]; dense enough that BFS/CC reach most vertices from the root.
fn sample_edges(n: usize, edges: usize, seed: u64) -> Vec<Edge> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            let (src, dst) = (rng.range(0, n - 1) as u32, rng.range(0, n - 1) as u32);
            Edge::new(src, dst, rng.range(1, 1000) as f32 / 1000.0)
        })
        .collect()
}

fn build_loaded(n: usize, edges: &[Edge], pool: &ThreadPool) -> Box<dyn DynamicGraph> {
    let graph = build_graph(DataStructureKind::AdjacencyShared, n, true, 1);
    graph.update_batch(edges, pool);
    graph
}

fn params() -> AlgorithmParams {
    // Tight PR tolerances: the serial block sweep and the BSP Jacobi
    // iteration only agree at convergence, not per-iteration. Root and
    // delta are off their defaults too, so an engine whose program
    // construction dropped a tunable diverges from the other.
    AlgorithmParams {
        root: 7,
        pr_fs_tolerance: 1e-10,
        pr_epsilon: 1e-12,
        sssp_delta: 0.25,
        ..AlgorithmParams::default()
    }
}

fn assert_values_close(kind: AlgorithmKind, sharded: &VertexValues, serial: &VertexValues) {
    match (sharded, serial) {
        (VertexValues::U32(a), VertexValues::U32(b)) => assert_eq!(a, b, "{kind:?}"),
        (VertexValues::F32(a), VertexValues::F32(b)) => {
            assert_eq!(a.len(), b.len(), "{kind:?}");
            for (v, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    x == y || (x - y).abs() <= 1e-5,
                    "{kind:?} vertex {v}: sharded {x} vs serial {y}"
                );
            }
        }
        (VertexValues::F64(a), VertexValues::F64(b)) => {
            assert_eq!(a.len(), b.len(), "{kind:?}");
            for (v, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-8,
                    "{kind:?} vertex {v}: sharded {x} vs serial {y}"
                );
            }
        }
        _ => panic!("{kind:?}: value type mismatch"),
    }
}

#[test]
fn sharded_fs_matches_serial_oracle_on_all_algorithms() {
    let pool = ThreadPool::new(4);
    let n = 120;
    let edges = sample_edges(n, 700, 0xBEEF);
    let graph = build_loaded(n, &edges, &pool);
    for kind in AlgorithmKind::ALL {
        let mut serial =
            AlgorithmState::new(kind, ComputeModelKind::FromScratch, n, params());
        serial.perform_alg(graph.as_ref(), &[], &[], &pool);
        let mut sharded = ShardedState::new(
            kind,
            ComputeModelKind::FromScratch,
            n,
            5,
            params(),
            CheckpointConfig::default(),
        );
        sharded.perform_batch(graph.as_ref(), &[], false, &pool);
        assert_values_close(kind, &sharded.values(), &serial.values());
        // Both engines read the tracker's seeding rules off the same program.
        assert_eq!(
            sharded.affects_source_neighborhood(),
            serial.affects_source_neighborhood(),
            "{kind:?}"
        );
        assert_eq!(sharded.symmetric_scope(), serial.symmetric_scope(), "{kind:?}");
    }
}

#[test]
fn sharded_incremental_tracks_serial_across_batches() {
    let pool = ThreadPool::new(3);
    let n = 100;
    let all = sample_edges(n, 600, 0xFEED);
    for kind in AlgorithmKind::ALL {
        let graph = build_graph(DataStructureKind::AdjacencyShared, n, true, 1);
        let mut tracker = saga_algorithms::AffectedTracker::new(n);
        let mut serial =
            AlgorithmState::new(kind, ComputeModelKind::Incremental, n, params());
        let mut sharded = ShardedState::new(
            kind,
            ComputeModelKind::Incremental,
            n,
            4,
            params(),
            CheckpointConfig::default(),
        );
        for batch in all.chunks(150) {
            graph.update_batch(batch, &pool);
            let impact = tracker.process_mixed_batch(
                graph.as_ref(),
                batch,
                &[],
                serial.affects_source_neighborhood(),
                false,
                &pool,
            );
            serial.perform_alg(graph.as_ref(), &impact.affected, &impact.new_vertices, &pool);
            sharded.perform_batch(graph.as_ref(), &impact.affected, false, &pool);
            assert_values_close(kind, &sharded.values(), &serial.values());
        }
    }
}

/// The fold programs: every kind but PageRank, which always runs in full.
const FOLDS: [AlgorithmKind; 5] = [
    AlgorithmKind::Bfs,
    AlgorithmKind::Cc,
    AlgorithmKind::Mc,
    AlgorithmKind::Sssp,
    AlgorithmKind::Sswp,
];

/// A serial and a sharded INC engine over one live graph, stepped through
/// the driver-facing entry ([`ComputeEngine::compute`] with the batch).
struct Twins {
    graph: Box<dyn DynamicGraph>,
    tracker: AffectedTracker,
    serial: AlgorithmState,
    sharded: ShardedState,
}

impl Twins {
    fn new(kind: AlgorithmKind, n: usize, directed: bool, shards: usize, params: AlgorithmParams) -> Self {
        let inc = ComputeModelKind::Incremental;
        Self {
            graph: build_graph(DataStructureKind::AdjacencyShared, n, directed, 1),
            tracker: AffectedTracker::new(n),
            serial: AlgorithmState::new(kind, inc, n, params),
            sharded: ShardedState::new(kind, inc, n, shards, params, CheckpointConfig::default()),
        }
    }

    /// Applies an insert-only batch and computes it on both engines;
    /// returns the sharded outcome.
    fn step(&mut self, batch: &[Edge], pool: &ThreadPool) -> ComputeOutcome {
        let graph = self.graph.as_ref();
        graph.update_batch(batch, pool);
        let impact = self.tracker.process_mixed_batch(
            graph,
            batch,
            &[],
            self.serial.affects_source_neighborhood(),
            self.serial.symmetric_scope(),
            pool,
        );
        self.serial.compute(graph, &impact, batch, &[], pool);
        self.sharded.compute(graph, &impact, batch, &[], pool)
    }
}

#[test]
fn edge_seeded_batches_equal_serial_inc_exactly() {
    let n = 64;
    let all = sample_edges(n, 420, 0x5EED);
    for threads in [1, 2] {
        let pool = ThreadPool::new(threads);
        for kind in FOLDS {
            for directed in [true, false] {
                for shards in [1, 2, 3] {
                    let mut twins = Twins::new(kind, n, directed, shards, params());
                    for (i, batch) in all.chunks(35).enumerate() {
                        twins.step(batch, &pool);
                        assert_eq!(
                            twins.sharded.values(),
                            twins.serial.values(),
                            "{kind:?} directed={directed} shards={shards} threads={threads} batch {i}"
                        );
                    }
                }
            }
        }
    }
}

/// A re-inserted edge and an edge repeated within one batch keep the weight
/// the structure stored first; seeding with the batch's weight instead would
/// improve SSSP through the cheaper copy and SSWP through the wider one.
#[test]
fn edge_seeds_use_the_stored_weight() {
    let pool = ThreadPool::new(2);
    let cases = [(AlgorithmKind::Sssp, 0.5, 9.0), (AlgorithmKind::Sswp, 9.0, 0.5)];
    for (kind, better, worse) in cases {
        for directed in [true, false] {
            let mut twins = Twins::new(kind, 8, directed, 2, AlgorithmParams { root: 0, ..params() });
            twins.step(&[Edge::new(0, 1, 4.0), Edge::new(1, 2, 4.0)], &pool);
            let stored = twins.sharded.values();
            // Re-insert 0→1 with a better weight; insert 2→3 twice, the
            // worse weight first.
            let batch = [Edge::new(0, 1, better), Edge::new(2, 3, worse), Edge::new(2, 3, better)];
            twins.step(&batch, &pool);
            assert_eq!(twins.graph.out_neighbors(0), vec![(1, 4.0)], "first weight stored");
            let values = twins.sharded.values();
            assert_eq!(values, twins.serial.values(), "{kind:?} directed={directed}");
            let VertexValues::F32(v) = &values else { panic!("{kind:?}: f32 values") };
            let VertexValues::F32(before) = &stored else { panic!("{kind:?}: f32 values") };
            assert_eq!(v[1], before[1], "{kind:?}: the re-insert changes nothing");
            let via = |w: f32| if kind == AlgorithmKind::Sssp { 8.0 + w } else { w.min(4.0) };
            assert_eq!(v[3], via(worse), "{kind:?}: 2→3 carries its first weight");
        }
    }
}

/// A batch that improves nothing costs its seed terms and nothing more.
#[test]
fn an_unimproving_batch_sends_no_superstep_messages() {
    let pool = ThreadPool::new(2);
    for kind in FOLDS {
        let mut twins = Twins::new(kind, 6, true, 2, AlgorithmParams { root: 0, ..params() });
        // A two-way chain 0 ↔ 1 ↔ 2 ↔ 3: every label, depth and width is
        // settled once it has converged.
        let chain: Vec<Edge> = (0..3)
            .flat_map(|v| [Edge::new(v, v + 1, 1.0), Edge::new(v + 1, v, 1.0)])
            .collect();
        twins.step(&chain, &pool);
        // A shortcut from deeper to shallower and a repeated chain edge.
        let outcome = twins.step(&[Edge::new(3, 1, 1.0), Edge::new(1, 2, 1.0)], &pool);
        assert!(outcome.iterations <= 1, "{kind:?}: {outcome:?}");
        assert_eq!(outcome.messages, 0, "{kind:?}: {outcome:?}");
        assert_eq!(twins.sharded.values(), twins.serial.values(), "{kind:?}");
    }
}

#[test]
fn kill_and_recover_is_bitwise_identical() {
    let pool = ThreadPool::new(4);
    let n = 150;
    let edges = sample_edges(n, 900, 0xC0FFEE);
    let graph = build_loaded(n, &edges, &pool);
    for kind in AlgorithmKind::ALL {
        for phase in [KillPhase::Scatter, KillPhase::Gather] {
            let make = || {
                ShardedState::new(
                    kind,
                    ComputeModelKind::FromScratch,
                    n,
                    5,
                    params(),
                    CheckpointConfig::default(),
                )
            };
            let mut baseline = make();
            baseline.perform_batch(graph.as_ref(), &[], false, &pool);
            let mut victim = make();
            victim.inject_kill(KillSpec {
                superstep: 1,
                shard: 2,
                phase,
            });
            victim.perform_batch(graph.as_ref(), &[], false, &pool);
            assert_eq!(victim.recoveries(), 1, "{kind:?}/{phase:?}: kill must fire");
            // Bitwise: recovery restores the last barrier snapshot and
            // replays, so even float values must match exactly.
            assert_eq!(
                victim.values(),
                baseline.values(),
                "{kind:?}/{phase:?}: recovered run diverged"
            );
        }
    }
}

#[test]
fn disk_checkpoints_roundtrip_and_pick_the_newest() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bsp-ckpt-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        std::fs::create_dir_all(&dir).is_ok()
            && CheckpointStore::<f64>::load_latest_from_disk(&dir)
                .unwrap()
                .is_none(),
        "empty dir loads None"
    );
    let mut store: CheckpointStore<f64> = CheckpointStore::new(CheckpointConfig {
        interval: 1,
        dir: Some(dir.clone()),
    });
    let older = Checkpoint {
        superstep: 3,
        values: vec![vec![0.25, f64::NEG_INFINITY], vec![1e-300]],
        active: vec![vec![0, 1], vec![]],
    };
    let newer = Checkpoint {
        superstep: 12,
        values: vec![vec![-0.5, 2.0], vec![f64::INFINITY]],
        active: vec![vec![], vec![2]],
    };
    // Publish out of order: newest-by-superstep must win, not last-written.
    store.publish(newer.clone()).unwrap();
    store.publish(older).unwrap();
    let loaded = CheckpointStore::<f64>::load_latest_from_disk(&dir)
        .unwrap()
        .expect("two files on disk");
    assert_eq!(loaded, newer);
}

/// The on-disk format, pinned: little-endian `u64` words — superstep,
/// shard count, then per shard the value count, each value's bits
/// zero-extended, the active count and the active ids.
#[test]
fn checkpoint_file_bytes_are_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bsp-ckpt-golden");
    let _ = std::fs::remove_dir_all(&dir);
    let nan = f32::from_bits(0x7fc0_beef);
    let mut store: CheckpointStore<f32> = CheckpointStore::new(CheckpointConfig {
        interval: 1,
        dir: Some(dir.clone()),
    });
    store
        .publish(Checkpoint {
            superstep: 5,
            values: vec![vec![1.5, -0.0, f32::INFINITY], vec![nan]],
            active: vec![vec![0, 2], vec![3]],
        })
        .unwrap();
    let words: [u64; 13] = [
        5, 2, //
        3, 0x3fc0_0000, 0x8000_0000, 0x7f80_0000, 2, 0, 2, //
        1, 0x7fc0_beef, 1, 3,
    ];
    let golden: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(&golden[..24], &[5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(&golden[24..32], &[0, 0, 0xc0, 0x3f, 0, 0, 0, 0]);
    assert_eq!(std::fs::read(dir.join("ckpt-5.bin")).unwrap(), golden);
    let loaded = CheckpointStore::<f32>::load_latest_from_disk(&dir).unwrap().unwrap();
    let bits = |values: &[Vec<f32>]| -> Vec<Vec<u32>> {
        values.iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect()
    };
    assert_eq!(bits(&loaded.values), bits(&store.latest().unwrap().values));
    assert_eq!((loaded.superstep, loaded.active), (5, vec![vec![0, 2], vec![3]]));
}

#[test]
fn recovery_skips_and_deletes_corrupt_checkpoints() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bsp-ckpt-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store: CheckpointStore<f64> = CheckpointStore::new(CheckpointConfig {
        interval: 1,
        dir: Some(dir.clone()),
    });
    let valid = Checkpoint {
        superstep: 3,
        values: vec![vec![0.25, -7.5], vec![1e-300]],
        active: vec![vec![0, 1], vec![]],
    };
    let newest = Checkpoint {
        superstep: 12,
        values: vec![vec![-0.5, 2.0], vec![f64::INFINITY]],
        active: vec![vec![], vec![2]],
    };
    store.publish(valid.clone()).unwrap();
    store.publish(newest).unwrap();

    // Truncate the newest file "mid-write" — cut it to an unaligned byte
    // length, like a crash between write and fsync would.
    let newest_path = dir.join("ckpt-12.bin");
    let bytes = std::fs::read(&newest_path).unwrap();
    std::fs::write(&newest_path, &bytes[..bytes.len() / 2 + 3]).unwrap();

    // A corrupt *length prefix* claiming 2^60 shards must also be skipped
    // (and must error before it becomes an allocation of that size).
    std::fs::write(
        dir.join("ckpt-20.bin"),
        [20u64, 1 << 60].map(u64::to_le_bytes).concat(),
    )
    .unwrap();

    // And a structurally complete file with trailing garbage.
    let mut padded = std::fs::read(dir.join("ckpt-3.bin")).unwrap();
    padded.extend_from_slice(b"junk");
    std::fs::write(dir.join("ckpt-15.bin"), &padded).unwrap();

    // Recovery falls back to the newest VALID checkpoint...
    let loaded = CheckpointStore::<f64>::load_latest_from_disk(&dir)
        .unwrap()
        .expect("the superstep-3 checkpoint is still valid");
    assert_eq!(loaded, valid);
    // ...and the husks are gone, so the next restart goes straight there.
    assert!(!newest_path.exists(), "truncated checkpoint must be deleted");
    assert!(!dir.join("ckpt-20.bin").exists(), "implausible-count file must be deleted");
    assert!(!dir.join("ckpt-15.bin").exists(), "trailing-garbage file must be deleted");
    assert!(dir.join("ckpt-3.bin").exists(), "the valid checkpoint must survive");

    // With every file corrupt, recovery reports "nothing on disk" rather
    // than an error the caller can do nothing about.
    std::fs::write(dir.join("ckpt-3.bin"), &bytes[..5]).unwrap();
    assert!(CheckpointStore::<f64>::load_latest_from_disk(&dir)
        .unwrap()
        .is_none());
    assert!(!dir.join("ckpt-3.bin").exists());
}

#[test]
fn recover_from_disk_survives_a_process_restart() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bsp-ckpt-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let pool = ThreadPool::new(3);
    let n = 90;
    let edges = sample_edges(n, 500, 0xDADA);
    let graph = build_loaded(n, &edges, &pool);
    let config = || CheckpointConfig {
        interval: 1,
        dir: Some(dir.clone()),
    };
    let mut baseline = BspEngine::new(BfsProgram::new(0), n, 4, CheckpointConfig::default());
    baseline.reset_all_active();
    baseline.begin();
    baseline.run(graph.as_ref(), &pool).unwrap();

    let mut victim = BspEngine::new(BfsProgram::new(0), n, 4, config());
    victim.arm_kill(KillSpec {
        superstep: 1,
        shard: 1,
        phase: KillPhase::Gather,
    });
    victim.reset_all_active();
    victim.begin();
    let err = victim.run(graph.as_ref(), &pool).unwrap_err();
    assert_eq!(err.superstep, 1);

    // "Restart the process": a brand-new engine with no in-memory state,
    // pointed at the same checkpoint directory.
    let mut restarted = BspEngine::new(BfsProgram::new(0), n, 4, config());
    let resumed_at = restarted.recover_from_disk().unwrap();
    assert!(resumed_at <= 1, "kill at superstep 1 leaves a checkpoint at or before it");
    restarted.run(graph.as_ref(), &pool).unwrap();
    assert_eq!(restarted.values_vec(), baseline.values_vec());
}
