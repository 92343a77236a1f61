//! Seeded differential tests for the deletion extension: arbitrary
//! interleavings of insert and delete batches must leave every structure
//! identical to the sequential oracle.

use saga_graph::oracle::GraphOracle;
use saga_graph::{build_deletable_graph, DataStructureKind, Edge, Node};
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..40;

const MAX_NODES: usize = 40;

#[derive(Debug, Clone)]
enum Batch {
    Insert(Vec<Edge>),
    Delete(Vec<Edge>),
}

/// Up to `max_len` edges, weights a function of the ordered pair.
fn arb_edges(rng: &mut Xoshiro256PlusPlus, max_len: usize) -> Vec<Edge> {
    rng.vec(0, max_len, |rng| {
        let (s, d) = (rng.range(0, MAX_NODES - 1) as Node, rng.range(0, MAX_NODES - 1) as Node);
        Edge::new(s, d, 1.0 + (saga_utils::hash::hash_edge(s, d) % 8) as f32)
    })
}

/// 1..=7 batches, two insert batches (≤ 79 edges) to every delete batch
/// (≤ 39 edges).
fn arb_ops(rng: &mut Xoshiro256PlusPlus) -> Vec<Batch> {
    rng.vec(1, 7, |rng| {
        if rng.range(0, 2) < 2 {
            Batch::Insert(arb_edges(rng, 79))
        } else {
            Batch::Delete(arb_edges(rng, 39))
        }
    })
}

fn check(kind: DataStructureKind, directed: bool, ops: &[Batch], threads: usize) {
    let pool = ThreadPool::new(threads);
    let graph = build_deletable_graph(kind, MAX_NODES, directed, pool.threads());
    let mut oracle = GraphOracle::new(MAX_NODES, directed);
    for op in ops {
        match op {
            Batch::Insert(batch) => {
                graph.update_batch(batch, &pool);
                oracle.insert_batch(batch);
            }
            Batch::Delete(batch) => {
                let got = graph.delete_batch(batch, &pool);
                let want = oracle.delete_batch(batch);
                // Accounting parity: every structure reports the oracle's
                // removed/missing split, not just the right topology.
                assert_eq!(
                    (got.removed, got.missing),
                    (want.removed, want.missing),
                    "DeleteStats mismatch on {kind:?} (directed={directed})"
                );
            }
        }
    }
    oracle.assert_matches(graph.as_ref(), false);
}

fn matches_oracle_under_churn(kind: DataStructureKind) {
    for_each_seed(SEEDS, |rng| {
        let (ops, directed) = (arb_ops(rng), rng.chance(0.5));
        check(kind, directed, &ops, 4);
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn as_matches_oracle_under_churn() {
    matches_oracle_under_churn(DataStructureKind::AdjacencyShared);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn ac_matches_oracle_under_churn() {
    matches_oracle_under_churn(DataStructureKind::AdjacencyChunked);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn stinger_matches_oracle_under_churn() {
    matches_oracle_under_churn(DataStructureKind::Stinger);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn dah_matches_oracle_under_churn() {
    matches_oracle_under_churn(DataStructureKind::Dah);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn delete_stats_agree_across_structures() {
    for_each_seed(SEEDS, |rng| {
        let inserted = arb_edges(rng, 59);
        // A deletion batch that stresses the corner semantics: reversed
        // endpoints (hit for undirected graphs, miss for directed) and
        // batch-internal repeats (removed once, missing once).
        let mut deletes = Vec::new();
        if !inserted.is_empty() {
            for _ in 0..rng.range(0, 29) {
                let e = inserted[rng.range(0, inserted.len() - 1)];
                let edge = if rng.chance(0.5) { Edge::new(e.dst, e.src, e.weight) } else { e };
                deletes.push(edge);
                if rng.chance(0.5) {
                    deletes.push(edge);
                }
            }
        }
        let ops = vec![Batch::Insert(inserted), Batch::Delete(deletes)];
        let directed = rng.chance(0.5);
        for kind in DataStructureKind::ALL {
            check(kind, directed, &ops, 3);
        }
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn delete_everything_leaves_an_empty_graph() {
    for_each_seed(SEEDS, |rng| {
        let edges = arb_edges(rng, 119);
        for kind in DataStructureKind::ALL {
            let pool = ThreadPool::new(3);
            let graph = build_deletable_graph(kind, MAX_NODES, true, pool.threads());
            graph.update_batch(&edges, &pool);
            let inserted = graph.num_edges();
            let stats = graph.delete_batch(&edges, &pool);
            assert_eq!(stats.removed, inserted, "{kind:?}");
            assert_eq!(graph.num_edges(), 0, "{kind:?}");
            for v in 0..MAX_NODES as Node {
                assert_eq!(graph.out_degree(v), 0);
                assert_eq!(graph.in_degree(v), 0);
                assert!(graph.out_neighbors(v).is_empty());
            }
        }
    });
}
