//! Seeded property tests of FS/INC equivalence: for arbitrary random
//! streams, the incremental compute model must agree with from-scratch recomputation on
//! the monotone algorithms after every batch.

use saga_algorithms::{
    AffectedTracker, AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeModelKind,
    VertexValues,
};
use saga_graph::{build_graph, DataStructureKind, Edge, Node};
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..32;

const NODES: usize = 40;

/// 1..=4 batches of 1..=79 edges, weights a function of the pair.
fn arb_stream(rng: &mut Xoshiro256PlusPlus) -> Vec<Vec<Edge>> {
    rng.vec(1, 4, |rng| {
        rng.vec(1, 79, |rng| {
            let (s, d) = (rng.range(0, NODES - 1) as Node, rng.range(0, NODES - 1) as Node);
            Edge::new(s, d, 1.0 + (saga_utils::hash::hash_edge(s, d) % 8) as f32)
        })
    })
}

fn check_equivalence(
    kind: AlgorithmKind,
    batches: &[Vec<Edge>],
    ds: DataStructureKind,
    root: Node,
) {
    let pool = ThreadPool::new(3);
    let graph = build_graph(ds, NODES, true, pool.threads());
    let params = AlgorithmParams {
        root,
        ..AlgorithmParams::default()
    };
    let mut fs = AlgorithmState::new(kind, ComputeModelKind::FromScratch, NODES, params);
    let mut inc = AlgorithmState::new(kind, ComputeModelKind::Incremental, NODES, params);
    let mut tracker = AffectedTracker::new(NODES);
    for (i, batch) in batches.iter().enumerate() {
        graph.update_batch(batch, &pool);
        let impact = tracker.process_batch(graph.as_ref(), batch, false, &pool);
        fs.perform_alg(graph.as_ref(), &impact.affected, &impact.new_vertices, &pool);
        inc.perform_alg(graph.as_ref(), &impact.affected, &impact.new_vertices, &pool);
        match (fs.values(), inc.values()) {
            (VertexValues::U32(a), VertexValues::U32(b)) => {
                assert_eq!(a, b, "{kind} batch {i} on {ds:?}");
            }
            (VertexValues::F32(a), VertexValues::F32(b)) => {
                for (v, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    assert!(
                        x == y || (x - y).abs() < 1e-4,
                        "{kind} batch {i} vertex {v}: FS {x} INC {y}"
                    );
                }
            }
            _ => panic!("unexpected value type"),
        }
    }
}

/// One algorithm on one structure; `rooted` draws the root per case.
fn inc_equals_fs(kind: AlgorithmKind, ds: DataStructureKind, rooted: bool) {
    for_each_seed(SEEDS, |rng| {
        let batches = arb_stream(rng);
        let root = if rooted { rng.range(0, NODES - 1) as Node } else { 0 };
        check_equivalence(kind, &batches, ds, root);
    });
}

#[test]
fn bfs_inc_equals_fs() {
    inc_equals_fs(AlgorithmKind::Bfs, DataStructureKind::AdjacencyShared, true);
}

#[test]
fn cc_inc_equals_fs() {
    inc_equals_fs(AlgorithmKind::Cc, DataStructureKind::Dah, false);
}

#[test]
fn mc_inc_equals_fs() {
    inc_equals_fs(AlgorithmKind::Mc, DataStructureKind::Stinger, false);
}

#[test]
fn sssp_inc_equals_fs() {
    inc_equals_fs(AlgorithmKind::Sssp, DataStructureKind::AdjacencyChunked, true);
}

#[test]
fn sswp_inc_equals_fs() {
    inc_equals_fs(AlgorithmKind::Sswp, DataStructureKind::AdjacencyShared, true);
}
