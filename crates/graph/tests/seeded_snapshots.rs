//! Seeded property tests of the multi-snapshot store: every historical
//! version must equal a reference graph built from the corresponding batch
//! prefix.

use saga_graph::oracle::GraphOracle;
use saga_graph::snapshots::SnapshotStore;
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..48;

const MAX_NODES: usize = 32;

/// 1..=5 batches of up to 59 edges, weights a function of the pair.
fn arb_batches(rng: &mut Xoshiro256PlusPlus) -> Vec<Vec<Edge>> {
    rng.vec(1, 5, |rng| {
        rng.vec(0, 59, |rng| {
            let (s, d) = (rng.range(0, MAX_NODES - 1) as Node, rng.range(0, MAX_NODES - 1) as Node);
            Edge::new(s, d, 1.0 + (saga_utils::hash::hash_edge(s, d) % 8) as f32)
        })
    })
}

fn check_version_matches_prefix(
    store: &SnapshotStore,
    version: usize,
    prefix: &[Vec<Edge>],
    directed: bool,
) {
    let mut oracle = GraphOracle::new(MAX_NODES, directed);
    for batch in prefix {
        oracle.insert_batch(batch);
    }
    let view = store.snapshot(version);
    assert_eq!(view.num_edges(), oracle.num_edges(), "version {version}");
    for v in 0..MAX_NODES as Node {
        let mut got = view.out_neighbors(v);
        got.sort_by_key(|&(n, _)| n);
        assert_eq!(got, oracle.out_neighbors(v), "out-neighbors of {v} at version {version}");
        let mut got_in = view.in_neighbors(v);
        got_in.sort_by_key(|&(n, _)| n);
        assert_eq!(got_in, oracle.in_neighbors(v), "in-neighbors of {v} at version {version}");
        assert_eq!(view.out_degree(v), oracle.out_degree(v));
        assert_eq!(view.in_degree(v), oracle.in_degree(v));
    }
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn every_version_matches_its_prefix() {
    for_each_seed(SEEDS, |rng| {
        let (batches, directed) = (arb_batches(rng), rng.chance(0.5));
        let mut store = SnapshotStore::new(MAX_NODES, directed);
        for batch in &batches {
            store.ingest_batch(batch);
        }
        assert_eq!(store.num_snapshots(), batches.len());
        for version in 0..batches.len() {
            check_version_matches_prefix(&store, version, &batches[..=version], directed);
        }
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn latest_is_the_last_version() {
    for_each_seed(SEEDS, |rng| {
        let batches = arb_batches(rng);
        let mut store = SnapshotStore::new(MAX_NODES, true);
        for batch in &batches {
            store.ingest_batch(batch);
        }
        let latest = store.latest().expect("at least one batch");
        assert_eq!(latest.version(), batches.len() - 1);
    });
}
