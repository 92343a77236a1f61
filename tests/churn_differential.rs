//! Differential correctness harness for deletion-sound streaming.
//!
//! After every batch of a churn stream (inserts threaded with deletions of
//! previously inserted edges), the incremental model's values must match a
//! from-scratch oracle evaluated on an independent CSR snapshot of the
//! materialized graph — across all four data structures and all six
//! algorithms. Dedicated scenarios force the KickStarter-style repair pass
//! to cascade and force the cascade-size threshold to trip into the
//! from-scratch fallback, so both halves of the deletion path are
//! exercised deterministically.

use saga_bench_suite::algorithms::{
    AffectedTracker, AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeModelKind,
    VertexValues,
};
use saga_bench_suite::core::driver::StreamDriver;
use saga_bench_suite::graph::csr::Csr;
use saga_bench_suite::graph::{build_deletable_graph, DataStructureKind, Edge};
use saga_bench_suite::stream::profiles::DatasetProfile;
use saga_bench_suite::stream::{EdgeOp, EdgeStream};
use saga_bench_suite::utils::parallel::ThreadPool;

// Scaled down under Miri so the interpreter finishes in reasonable time.
#[cfg(not(miri))]
const NODES: usize = 200;
#[cfg(miri)]
const NODES: usize = 32;
#[cfg(not(miri))]
const STREAM_EDGES: usize = 1_600;
#[cfg(miri)]
const STREAM_EDGES: usize = 96;
#[cfg(not(miri))]
const BATCH: usize = 400;
#[cfg(miri)]
const BATCH: usize = 48;

/// Churn fraction: one deletion threaded per four inserts on average.
const CHURN: f64 = 0.25;

fn churn_stream(seed: u64) -> EdgeStream {
    DatasetProfile::livejournal()
        .scaled(NODES, STREAM_EDGES)
        .with_churn(CHURN)
        .generate(seed)
}

fn params() -> AlgorithmParams {
    AlgorithmParams {
        root: 7,
        pr_epsilon: 1e-11,
        pr_fs_tolerance: 1e-11,
        ..AlgorithmParams::default()
    }
}

fn assert_close(
    kind: AlgorithmKind,
    ds: DataStructureKind,
    batch: usize,
    fs: &VertexValues,
    inc: &VertexValues,
) {
    match (fs, inc) {
        (VertexValues::U32(a), VertexValues::U32(b)) => {
            assert_eq!(a, b, "{kind} diverged on {ds:?} at batch {batch}");
        }
        (VertexValues::F32(a), VertexValues::F32(b)) => {
            for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    x == y || (x - y).abs() < 1e-4,
                    "{kind} diverged on {ds:?} at batch {batch}, vertex {v}: FS {x} INC {y}"
                );
            }
        }
        (VertexValues::F64(a), VertexValues::F64(b)) => {
            for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-6,
                    "{kind} diverged on {ds:?} at batch {batch}, vertex {v}: FS {x} INC {y}"
                );
            }
        }
        _ => panic!("value type mismatch"),
    }
}

/// The core check: stream churn batches into `ds`, run INC after each, and
/// compare against a fresh FS oracle on a CSR snapshot of the live graph.
/// Returns how many deletion batches INC repaired without falling back.
fn run_churn_differential(kind: AlgorithmKind, ds: DataStructureKind, directed: bool) -> usize {
    run_churn_stream(kind, ds, directed, &churn_stream(0xC0FFEE ^ kind as u64), BATCH)
}

fn run_churn_stream(
    kind: AlgorithmKind,
    ds: DataStructureKind,
    directed: bool,
    stream: &EdgeStream,
    batch_size: usize,
) -> usize {
    let pool = ThreadPool::new(4);
    assert!(stream.has_deletions(), "churn stream must carry deletions");
    let n = NODES.max(stream.num_nodes);
    let graph = build_deletable_graph(ds, n, directed, pool.threads());
    let mut inc = AlgorithmState::new(kind, ComputeModelKind::Incremental, n, params());
    let mut tracker = AffectedTracker::new(n);
    let mut repaired_batches = 0;
    for (i, batch) in stream.op_batches(batch_size).enumerate() {
        let (inserts, deletes) = batch.split();
        graph.update_batch(&inserts, &pool);
        if !deletes.is_empty() {
            graph.delete_batch(&deletes, &pool);
        }
        let impact = tracker.process_mixed_batch(
            graph.as_ref(),
            &inserts,
            &deletes,
            inc.affects_source_neighborhood(),
            inc.symmetric_scope(),
            &pool,
        );
        let out = inc.perform_alg_with_deletions(
            graph.as_ref(),
            &impact.affected,
            &impact.new_vertices,
            &deletes,
            &pool,
        );
        let repaired = !deletes.is_empty() && !out.fs_fallback && out.repaired > 0;
        repaired_batches += usize::from(repaired);

        // Independent oracle: from-scratch on a CSR snapshot of whatever
        // the structure materialized, with fresh algorithm state.
        let snapshot = Csr::from_graph(graph.as_ref());
        let mut fs = AlgorithmState::new(kind, ComputeModelKind::FromScratch, n, params());
        fs.perform_alg(&snapshot, &[], &[], &pool);
        assert_close(kind, ds, i, &fs.values(), &inc.values());
    }
    repaired_batches
}

macro_rules! churn_tests {
    ($($name:ident: $kind:expr, $ds:expr;)*) => {
        $(
            #[test]
            fn $name() {
                run_churn_differential($kind, $ds, true);
            }
        )*
    };
}

/// CC under churn repairs deletions instead of recomputing, INC == FS
/// after every batch. Every same-label neighbor derives a CC label, so
/// only the witness forest keeps a deletion's tagged set below the whole
/// component. At the default budget (5 % of 200 vertices), 100-op batches
/// repair 8 of their 20 on every structure.
#[test]
fn cc_repairs_deletion_batches_without_falling_back() {
    let stream = churn_stream(0xC0FFEE ^ AlgorithmKind::Cc as u64);
    for ds in DataStructureKind::ALL {
        let repaired = run_churn_stream(AlgorithmKind::Cc, ds, true, &stream, BATCH / 4);
        assert!(repaired > 0, "{ds:?}: CC fell back on every deletion batch");
    }
}

churn_tests! {
    churn_bfs_as: AlgorithmKind::Bfs, DataStructureKind::AdjacencyShared;
    churn_bfs_ac: AlgorithmKind::Bfs, DataStructureKind::AdjacencyChunked;
    churn_bfs_stinger: AlgorithmKind::Bfs, DataStructureKind::Stinger;
    churn_bfs_dah: AlgorithmKind::Bfs, DataStructureKind::Dah;
    churn_cc_as: AlgorithmKind::Cc, DataStructureKind::AdjacencyShared;
    churn_cc_ac: AlgorithmKind::Cc, DataStructureKind::AdjacencyChunked;
    churn_cc_stinger: AlgorithmKind::Cc, DataStructureKind::Stinger;
    churn_cc_dah: AlgorithmKind::Cc, DataStructureKind::Dah;
    churn_mc_as: AlgorithmKind::Mc, DataStructureKind::AdjacencyShared;
    churn_mc_ac: AlgorithmKind::Mc, DataStructureKind::AdjacencyChunked;
    churn_mc_stinger: AlgorithmKind::Mc, DataStructureKind::Stinger;
    churn_mc_dah: AlgorithmKind::Mc, DataStructureKind::Dah;
    churn_pr_as: AlgorithmKind::PageRank, DataStructureKind::AdjacencyShared;
    churn_pr_ac: AlgorithmKind::PageRank, DataStructureKind::AdjacencyChunked;
    churn_pr_stinger: AlgorithmKind::PageRank, DataStructureKind::Stinger;
    churn_pr_dah: AlgorithmKind::PageRank, DataStructureKind::Dah;
    churn_sssp_as: AlgorithmKind::Sssp, DataStructureKind::AdjacencyShared;
    churn_sssp_ac: AlgorithmKind::Sssp, DataStructureKind::AdjacencyChunked;
    churn_sssp_stinger: AlgorithmKind::Sssp, DataStructureKind::Stinger;
    churn_sssp_dah: AlgorithmKind::Sssp, DataStructureKind::Dah;
    churn_sswp_as: AlgorithmKind::Sswp, DataStructureKind::AdjacencyShared;
    churn_sswp_ac: AlgorithmKind::Sswp, DataStructureKind::AdjacencyChunked;
    churn_sswp_stinger: AlgorithmKind::Sswp, DataStructureKind::Stinger;
    churn_sswp_dah: AlgorithmKind::Sswp, DataStructureKind::Dah;
}

#[test]
fn undirected_churn_differential() {
    for kind in AlgorithmKind::ALL {
        run_churn_differential(kind, DataStructureKind::AdjacencyShared, false);
        run_churn_differential(kind, DataStructureKind::Dah, false);
    }
}

/// Two-batch stream: batch 0 inserts a directed path 0→1→…→k plus one
/// malformed deletion target; batch 1 cuts the path near the root.
fn path_cut_stream(k: usize) -> EdgeStream {
    let mut edges: Vec<Edge> = (0..k as u32).map(|v| Edge::new(v, v + 1, 1.0)).collect();
    let mut ops = vec![EdgeOp::Insert; edges.len()];
    let insert_end = edges.len();
    // Batch 1: delete 1→2 (cascades to every vertex past it) and one edge
    // that was never inserted (counts missing, repairs nothing).
    edges.push(Edge::new(1, 2, 1.0));
    edges.push(Edge::new(0, k as u32, 1.0));
    ops.extend([EdgeOp::Delete, EdgeOp::Delete]);
    let total = edges.len();
    EdgeStream {
        name: "path-cut".into(),
        num_nodes: k + 1,
        directed: true,
        edges,
        ops,
        boundaries: vec![insert_end, total],
        suggested_batch_size: insert_end,
    }
}

/// A deletion near the root of a path forces the repair pass to cascade:
/// far more vertices are reset than the two deletion endpoints.
#[test]
fn repair_cascade_resets_the_downstream_suffix() {
    const K: usize = 40;
    let stream = path_cut_stream(K);
    let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, K + 1)
        .algorithm(AlgorithmKind::Bfs)
        .compute_model(ComputeModelKind::Incremental)
        .root(0)
        .params(AlgorithmParams {
            root: 0,
            // The cut cascades through ~95% of the graph; give the repair
            // pass the whole capacity so it cannot trip the FS fallback.
            repair_cascade_fraction: 1.0,
            ..AlgorithmParams::default()
        })
        .threads(2)
        .build();
    let outcome = driver.run(&stream);
    assert_eq!(outcome.batches.len(), 2);
    let cut = &outcome.batches[1];
    assert_eq!((cut.removed, cut.missing), (1, 1));
    assert!(
        cut.compute.repaired >= K - 2,
        "cutting 1→2 must cascade past the endpoints: repaired {}",
        cut.compute.repaired
    );
    assert!(!cut.compute.fs_fallback);
    let VertexValues::U32(depths) = outcome.final_values else {
        panic!("BFS depths are u32")
    };
    assert_eq!(depths[0], 0);
    assert_eq!(depths[1], 1);
    // Everything past the cut is unreachable again.
    assert!(depths[2..=K].iter().all(|&d| d == u32::MAX));
}

/// With a tiny cascade budget the same cut overflows the threshold and the
/// driver falls back to from-scratch recomputation — values stay correct.
#[test]
fn cascade_overflow_trips_the_fs_fallback() {
    const K: usize = 40;
    let stream = path_cut_stream(K);
    let mut driver = StreamDriver::builder(DataStructureKind::Stinger, K + 1)
        .algorithm(AlgorithmKind::Bfs)
        .compute_model(ComputeModelKind::Incremental)
        .root(0)
        .params(AlgorithmParams {
            root: 0,
            repair_cascade_fraction: 1e-9, // limit clamps to 1 vertex
            ..AlgorithmParams::default()
        })
        .threads(2)
        .build();
    let outcome = driver.run(&stream);
    let cut = &outcome.batches[1];
    assert!(cut.compute.fs_fallback, "cascade of ~{K} must overflow a 1-vertex budget");
    assert_eq!(cut.compute.repaired, 0);
    let VertexValues::U32(depths) = outcome.final_values else {
        panic!("BFS depths are u32")
    };
    assert_eq!(depths[1], 1);
    assert!(depths[2..=K].iter().all(|&d| d == u32::MAX));
}

/// A fallback leaves no witnesses behind, so the forest is rebuilt from
/// the FS values and the next deletion batch repairs through it. Batch 1
/// cuts the path 0→1→…→K near the root (the subtree overflows a 1-vertex
/// budget) and adds the shortcut 0→K; batch 2 deletes the shortcut, which
/// only the rebuilt forest knows is K's witness.
#[test]
fn deletion_after_a_fallback_repairs_through_the_rebuilt_forest() {
    const K: u32 = 40;
    let mut stream = path_cut_stream(K as usize);
    // path_cut_stream's batch 1 is [delete 1→2, delete 0→K (missing)];
    // turn the second op into the shortcut's insert and delete it again in
    // a third batch.
    stream.ops[K as usize + 1] = EdgeOp::Insert;
    stream.edges.push(Edge::new(0, K, 1.0));
    stream.ops.push(EdgeOp::Delete);
    stream.boundaries.push(stream.edges.len());
    let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, K as usize + 1)
        .algorithm(AlgorithmKind::Bfs)
        .compute_model(ComputeModelKind::Incremental)
        .root(0)
        .params(AlgorithmParams {
            root: 0,
            repair_cascade_fraction: 1e-9, // limit clamps to 1 vertex
            ..AlgorithmParams::default()
        })
        .threads(2)
        .build();
    let outcome = driver.run(&stream);
    let [_, cut, shortcut] = &outcome.batches[..] else {
        panic!("three batches, got {}", outcome.batches.len())
    };
    assert!(cut.compute.fs_fallback, "cutting 1→2 strands ~{K} vertices");
    assert!(!shortcut.compute.fs_fallback, "the rebuilt forest carries the repair");
    assert_eq!(shortcut.compute.repaired, 1, "only K hung off the shortcut");
    let VertexValues::U32(depths) = outcome.final_values else {
        panic!("BFS depths are u32")
    };
    assert_eq!(&depths[..2], &[0, 1]);
    assert!(depths[2..].iter().all(|&d| d == u32::MAX), "{depths:?}");
}

/// End-to-end accounting: the driver's removed/missing tallies must agree
/// with what the structures report, on every structure.
#[test]
fn driver_reports_removed_and_missing_per_batch() {
    for ds in DataStructureKind::ALL {
        let stream = path_cut_stream(12);
        let mut driver = StreamDriver::builder(ds, 13)
            .algorithm(AlgorithmKind::Cc)
            .compute_model(ComputeModelKind::Incremental)
            .threads(2)
            .build();
        let outcome = driver.run(&stream);
        assert_eq!(outcome.batches[0].removed, 0, "{ds:?}");
        assert_eq!(outcome.batches[0].missing, 0, "{ds:?}");
        assert_eq!(outcome.batches[1].removed, 1, "{ds:?}");
        assert_eq!(outcome.batches[1].missing, 1, "{ds:?}");
        assert_eq!(outcome.total_edges, 11, "{ds:?}");
    }
}
