//! Deterministic fixed-seed differential stress test for partitioned batch
//! ingestion — the Miri-runnable complement to `seeded_partitioned_ingest`.
//!
//! That suite's case counts are not Miri-sized, so this test drives the
//! same oracle comparison from one fixed-seed `Xoshiro256++` stream per
//! structure: identical edges, batches, and structure state on every run,
//! on every machine. Under Miri the model is
//! scaled down (fewer vertices, rounds, and edges) so the interpreter
//! finishes in seconds while still exercising the partitioner's parallel
//! histogram/scatter passes and the pool's fork-join on 2 workers.

use saga_graph::oracle::GraphOracle;
use saga_graph::{build_deletable_graph_with, DataStructureKind, Edge, Node};
use saga_utils::hash::hash_edge;
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::Xoshiro256PlusPlus;

#[cfg(miri)]
const MAX_NODES: usize = 12;
#[cfg(not(miri))]
const MAX_NODES: usize = 48;

#[cfg(miri)]
const ROUNDS: usize = 3;
#[cfg(not(miri))]
const ROUNDS: usize = 10;

#[cfg(miri)]
const INSERTS_PER_ROUND: usize = 16;
#[cfg(not(miri))]
const INSERTS_PER_ROUND: usize = 120;

/// Canonical per-pair weight so duplicate edges agree and the oracle
/// comparison can include weights (first-wins races cannot hide).
fn canonical_weight(s: Node, d: Node) -> f32 {
    1.0 + (hash_edge(s.min(d), s.max(d)) % 8) as f32
}

fn random_edges(rng: &mut Xoshiro256PlusPlus, count: usize) -> Vec<Edge> {
    (0..count)
        .map(|_| {
            let s = (rng.next_u64() % MAX_NODES as u64) as Node;
            let d = (rng.next_u64() % MAX_NODES as u64) as Node;
            Edge::new(s, d, canonical_weight(s, d))
        })
        .collect()
}

/// Interleaves insert and delete batches against one structure and the
/// sequential oracle; every round must leave them identical.
fn stress(kind: DataStructureKind, directed: bool, seed: u64) {
    let pool = ThreadPool::new(2);
    let graph = build_deletable_graph_with(kind, MAX_NODES, directed, pool.threads(), true);
    let mut oracle = GraphOracle::new(MAX_NODES, directed);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    for round in 0..ROUNDS {
        let inserts = random_edges(&mut rng, INSERTS_PER_ROUND);
        graph.update_batch(&inserts, &pool);
        oracle.insert_batch(&inserts);
        // Delete a mix of just-inserted and never-present edges.
        let deletes = random_edges(&mut rng, INSERTS_PER_ROUND / 2);
        graph.delete_batch(&deletes, &pool);
        oracle.delete_batch(&deletes);
        assert_eq!(
            oracle.num_edges(),
            graph.num_edges(),
            "{kind:?} diverged from oracle in round {round}"
        );
    }
    oracle.assert_matches(graph.as_ref(), true);
}

#[test]
fn adjacency_shared_matches_oracle() {
    stress(DataStructureKind::AdjacencyShared, false, 0x5A6A_0001);
}

#[test]
fn adjacency_chunked_matches_oracle() {
    stress(DataStructureKind::AdjacencyChunked, true, 0x5A6A_0002);
}

#[test]
fn stinger_matches_oracle() {
    stress(DataStructureKind::Stinger, false, 0x5A6A_0003);
}

#[test]
fn dah_matches_oracle() {
    stress(DataStructureKind::Dah, true, 0x5A6A_0004);
}
