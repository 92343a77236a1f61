//! Seeded differential tests for radix-partitioned batch ingestion:
//! arbitrary interleavings of insert and delete batches — duplicates, self
//! loops, and all — routed through the partitioner must leave every
//! structure identical to the sequential single-threaded oracle, for any
//! thread count.
//!
//! Weights are canonical per undirected pair (`hash_edge(min, max)`), so
//! every duplicate of an edge carries the same weight and the comparison
//! can include weights: first-wins races cannot hide behind the winner.

use saga_graph::oracle::GraphOracle;
use saga_graph::{build_deletable_graph_with, DataStructureKind, Edge, Node};
use saga_utils::hash::hash_edge;
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..24;

const MAX_NODES: usize = 40;

#[derive(Debug, Clone)]
enum Batch {
    Insert(Vec<Edge>),
    Delete(Vec<Edge>),
}

fn arb_edges(rng: &mut Xoshiro256PlusPlus, max_len: usize) -> Vec<Edge> {
    rng.vec(0, max_len, |rng| {
        let (s, d) = (rng.range(0, MAX_NODES - 1) as Node, rng.range(0, MAX_NODES - 1) as Node);
        Edge::new(s, d, 1.0 + (hash_edge(s.min(d), s.max(d)) % 8) as f32)
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
    let graph = build_deletable_graph_with(kind, MAX_NODES, directed, pool.threads(), true);
    let mut oracle = GraphOracle::new(MAX_NODES, directed);
    for op in ops {
        match op {
            Batch::Insert(batch) => {
                graph.update_batch(batch, &pool);
                oracle.insert_batch(batch);
            }
            Batch::Delete(batch) => {
                graph.delete_batch(batch, &pool);
                oracle.delete_batch(batch);
            }
        }
    }
    oracle.assert_matches(graph.as_ref(), true);
}

/// Either directedness, on 1, 2 or 4 threads.
fn partitioned_matches_oracle(kind: DataStructureKind) {
    for_each_seed(SEEDS, |rng| {
        let (ops, directed, threads) = (arb_ops(rng), rng.chance(0.5), 1 << rng.range(0, 2));
        check(kind, directed, &ops, threads);
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn as_partitioned_matches_oracle() {
    partitioned_matches_oracle(DataStructureKind::AdjacencyShared);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn ac_partitioned_matches_oracle() {
    partitioned_matches_oracle(DataStructureKind::AdjacencyChunked);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn stinger_partitioned_matches_oracle() {
    partitioned_matches_oracle(DataStructureKind::Stinger);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn dah_partitioned_matches_oracle() {
    partitioned_matches_oracle(DataStructureKind::Dah);
}
