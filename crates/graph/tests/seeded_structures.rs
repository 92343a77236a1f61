//! Seeded differential tests: every data structure must match the
//! sequential oracle on arbitrary batched edge streams, directed and
//! undirected, under concurrent updates.

use saga_graph::csr::Csr;
use saga_graph::delta_csr::DeltaCsr;
use saga_graph::oracle::GraphOracle;
use saga_graph::{
    build_deletable_graph, build_graph, DataStructureKind, DeletableGraph, Edge, GraphTopology,
    Node, Weight,
};
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..48;

const MAX_NODES: usize = 48;

/// Canonical-pair weight: undirected graphs must weigh (a, b) and (b, a)
/// identically, and duplicates must agree.
fn edge(s: Node, d: Node) -> Edge {
    Edge::new(s, d, 1.0 + (saga_utils::hash::hash_edge(s.min(d), s.max(d)) % 16) as f32)
}

/// 1..=4 batches of up to 119 edges.
fn arb_batches(rng: &mut Xoshiro256PlusPlus) -> Vec<Vec<Edge>> {
    rng.vec(1, 4, |rng| {
        rng.vec(0, 119, |rng| {
            edge(rng.range(0, MAX_NODES - 1) as Node, rng.range(0, MAX_NODES - 1) as Node)
        })
    })
}

/// The two undirected two-batch streams (self-loops, in-batch, cross-batch
/// and reversed duplicates) proptest once recorded as failures — of the
/// test, which then weighed (a, b) and (b, a) differently. Kept as explicit
/// cases with today's canonical weights, which is how the recorded seeds
/// replayed; every oracle comparison below runs them first.
const REGRESSIONS: [&[&[(Node, Node)]]; 2] = [
    &[
        &[
            (17, 4), (15, 32), (6, 47), (44, 2), (34, 7), (8, 43), (42, 40), (12, 35), (14, 22),
            (40, 3), (15, 44), (9, 45), (27, 43), (13, 26), (18, 25), (17, 44), (3, 43), (29, 29),
            (45, 30), (21, 16), (5, 7), (36, 14), (27, 44), (32, 18), (37, 13), (22, 2), (46, 10),
            (3, 29), (25, 34), (28, 30), (33, 43), (0, 14), (5, 36), (35, 0), (11, 12), (3, 43), (8, 7),
            (17, 30), (5, 27), (8, 6), (46, 8), (33, 0), (15, 41), (38, 28), (23, 41), (7, 34),
            (11, 10), (13, 36), (45, 30), (47, 38), (6, 46), (5, 24), (47, 16), (42, 39), (45, 19),
            (17, 27), (13, 10), (10, 22), (13, 0), (2, 17), (35, 14), (14, 7), (16, 47), (45, 2),
            (30, 24), (27, 39), (10, 20), (37, 46), (13, 36), (20, 24), (9, 18), (6, 18), (28, 12),
            (31, 32), (23, 5), (35, 3), (7, 31), (21, 11), (13, 6), (35, 12), (18, 23), (40, 4),
            (14, 13), (41, 20), (41, 23), (2, 18), (38, 19), (4, 32), (13, 35), (24, 22), (41, 9),
            (15, 43), (29, 46), (37, 24), (6, 46), (39, 4), (27, 47), (12, 9), (10, 34), (3, 5),
            (41, 1), (35, 39), (12, 45),
        ],
        &[
            (17, 14), (27, 19), (46, 40), (21, 0), (45, 21), (24, 37), (1, 11), (31, 32), (46, 22),
            (28, 39), (19, 43), (46, 33), (17, 42), (6, 42), (1, 22), (30, 16), (30, 7), (9, 1),
            (10, 0), (42, 25), (34, 25), (3, 30), (36, 29), (32, 2), (17, 29), (14, 41), (15, 16),
            (35, 47), (46, 18), (4, 45), (20, 5), (15, 36), (20, 28), (11, 12), (28, 13), (8, 46),
            (41, 9), (10, 2), (34, 3), (22, 31), (42, 4), (37, 39), (46, 25), (16, 7), (10, 42),
            (13, 1), (17, 6), (45, 25), (42, 46), (33, 33), (2, 11), (6, 33), (3, 41), (11, 6), (12, 9),
            (9, 14), (24, 8), (1, 12), (17, 18), (0, 14), (9, 30), (39, 26), (15, 14), (7, 23),
            (32, 13), (22, 43), (27, 46), (15, 33), (10, 45), (32, 40), (21, 19), (0, 9), (42, 30),
            (33, 15), (30, 7), (18, 37), (26, 28), (44, 39), (29, 46), (40, 8), (37, 14), (45, 44),
            (47, 11), (21, 37), (45, 18), (32, 6), (4, 13), (26, 28), (46, 6), (1, 23), (24, 46),
            (34, 35), (2, 6), (2, 22), (43, 23), (35, 35), (11, 4), (1, 3), (43, 41), (44, 38), (21, 7),
            (29, 22), (1, 32), (41, 5), (22, 47), (15, 20), (5, 35), (13, 37), (15, 17), (41, 3),
            (32, 2), (13, 12), (21, 47), (34, 16),
        ],
    ],
    &[
        &[
            (43, 32), (35, 32), (33, 42), (6, 40), (43, 15), (25, 23), (24, 16), (16, 34), (24, 12),
            (30, 40), (12, 37), (3, 36), (47, 18),
        ],
        &[
            (45, 7), (29, 9), (20, 25), (25, 46), (23, 32), (12, 40), (20, 46), (5, 29), (5, 41),
            (15, 46), (21, 24), (16, 19), (38, 37), (8, 40), (34, 34), (21, 3), (24, 27), (3, 0),
            (11, 30), (43, 42), (46, 43), (19, 34), (26, 23), (19, 42), (45, 40), (23, 37), (17, 15),
            (3, 42), (6, 22), (25, 22), (1, 17), (28, 26), (28, 33), (45, 35), (29, 3), (31, 35),
            (28, 22), (23, 31), (16, 16), (32, 19), (31, 16), (35, 15), (9, 19), (30, 30), (3, 0),
            (26, 46), (19, 3), (10, 15), (37, 34), (34, 3), (2, 38), (40, 17), (27, 9), (38, 16),
            (11, 13), (24, 34), (5, 38), (35, 35), (9, 12), (40, 39), (43, 28), (45, 26), (25, 11),
            (28, 46), (40, 43), (34, 12), (17, 40), (44, 45), (37, 42), (24, 19), (43, 44), (28, 30),
            (21, 24), (8, 43), (4, 38), (12, 28), (1, 43), (30, 3), (12, 36), (30, 6), (27, 37),
            (28, 35), (18, 44), (37, 18), (31, 13), (25, 24), (5, 8), (10, 28), (37, 7), (17, 34),
            (11, 13), (2, 34), (45, 15), (39, 43), (19, 44), (39, 26), (32, 32), (11, 43), (19, 36),
            (33, 37), (9, 20), (33, 39), (3, 27), (26, 5), (20, 25), (18, 33), (15, 4), (26, 10),
            (28, 28),
        ],
    ],
];

fn regressions() -> impl Iterator<Item = Vec<Vec<Edge>>> {
    REGRESSIONS
        .iter()
        .map(|case| case.iter().map(|b| b.iter().map(|&(s, d)| edge(s, d)).collect()).collect())
}

fn check_structure_against_oracle(
    kind: DataStructureKind,
    directed: bool,
    batches: &[Vec<Edge>],
    threads: usize,
) {
    let pool = ThreadPool::new(threads);
    let graph = build_graph(kind, MAX_NODES, directed, pool.threads());
    let mut oracle = GraphOracle::new(MAX_NODES, directed);
    for batch in batches {
        graph.update_batch(batch, &pool);
        oracle.insert_batch(batch);
    }
    oracle.assert_matches(graph.as_ref(), true);
}

/// The recorded regressions (undirected), then the seeded cases.
fn structure_matches_oracle(kind: DataStructureKind) {
    for batches in regressions() {
        check_structure_against_oracle(kind, false, &batches, 4);
    }
    for_each_seed(SEEDS, |rng| {
        let (batches, directed) = (arb_batches(rng), rng.chance(0.5));
        check_structure_against_oracle(kind, directed, &batches, 4);
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn adjacency_shared_matches_oracle() {
    structure_matches_oracle(DataStructureKind::AdjacencyShared);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn adjacency_chunked_matches_oracle() {
    structure_matches_oracle(DataStructureKind::AdjacencyChunked);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn stinger_matches_oracle() {
    structure_matches_oracle(DataStructureKind::Stinger);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn dah_matches_oracle() {
    structure_matches_oracle(DataStructureKind::Dah);
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn single_threaded_pool_equals_multithreaded() {
    for_each_seed(SEEDS, |rng| {
        let batches = arb_batches(rng);
        // Thread count must never change the resulting topology.
        for kind in DataStructureKind::ALL {
            let build = |threads| {
                let pool = ThreadPool::new(threads);
                let g = build_graph(kind, MAX_NODES, true, pool.threads());
                for b in &batches {
                    g.update_batch(b, &pool);
                }
                g
            };
            let (single, multi) = (build(1), build(4));
            assert_eq!(single.num_edges(), multi.num_edges());
            for v in 0..MAX_NODES as Node {
                let mut a = single.out_neighbors(v);
                let mut b = multi.out_neighbors(v);
                a.sort_by_key(|&(n, _)| n);
                b.sort_by_key(|&(n, _)| n);
                assert_eq!(a, b, "kind {kind:?} vertex {v}");
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn csr_snapshot_is_faithful() {
    let check = |batches: &[Vec<Edge>], directed: bool| {
        let pool = ThreadPool::new(2);
        let graph = build_graph(DataStructureKind::Stinger, MAX_NODES, directed, pool.threads());
        for b in batches {
            graph.update_batch(b, &pool);
        }
        let csr = saga_graph::csr::Csr::from_graph(graph.as_ref());
        assert_eq!(csr.num_edges(), graph.num_edges());
        for v in 0..MAX_NODES as Node {
            let mut dynamic = graph.out_neighbors(v);
            dynamic.sort_by_key(|&(n, _)| n);
            assert_eq!(csr.out_neighbors(v), &dynamic[..]);
            let mut dynamic_in = graph.in_neighbors(v);
            dynamic_in.sort_by_key(|&(n, _)| n);
            assert_eq!(csr.in_neighbors(v), &dynamic_in[..]);
        }
    };
    for batches in regressions() {
        check(&batches, false);
    }
    for_each_seed(SEEDS, |rng| check(&arb_batches(rng), rng.chance(0.5)));
}

/// Degrees, neighbours in scan order with their weights, and the edge
/// count — everything a CSR image states.
type CsrView = (usize, Vec<(usize, usize, Vec<(Node, Weight)>, Vec<(Node, Weight)>)>);

fn csr_view(g: &dyn GraphTopology) -> CsrView {
    let vertices = (0..g.capacity() as Node)
        .map(|v| (g.out_degree(v), g.in_degree(v), g.out_neighbors(v), g.in_neighbors(v)))
        .collect();
    (g.num_edges(), vertices)
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn csr_views_agree_after_churn() {
    // Each batch inserts its edges plus the previous batch's deletions,
    // then deletes every third of its own; DeltaCSR compacts every other
    // batch, so deletes hit both overlay adds and base tombstones.
    let check = |batches: &[Vec<Edge>], directed: bool| {
        let pool = ThreadPool::new(2);
        let delta = DeltaCsr::new(MAX_NODES, directed, pool.threads());
        let shared =
            build_deletable_graph(DataStructureKind::AdjacencyShared, MAX_NODES, directed, 2);
        let mut oracle = GraphOracle::new(MAX_NODES, directed);
        let mut deleted: Vec<Edge> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let inserts: Vec<Edge> = batch.iter().chain(&deleted).copied().collect();
            deleted = batch.iter().step_by(3).copied().collect();
            for g in [&delta as &dyn DeletableGraph, shared.as_ref()] {
                g.update_batch(&inserts, &pool);
                g.delete_batch(&deleted, &pool);
            }
            oracle.apply_batch(&inserts, &deleted);
            if i % 2 == 0 {
                delta.compact();
            }
        }
        delta.compact();
        let want = csr_view(&delta);
        let sorted = |ns: &[(Node, Weight)]| ns.windows(2).all(|w| w[0].0 < w[1].0);
        assert!(want.1.iter().all(|(_, _, outs, ins)| sorted(outs) && sorted(ins)));
        let views = [
            ("Csr::from_graph(DeltaCSR)", Csr::from_graph(&delta)),
            ("Csr::from_graph(AS)", Csr::from_graph(shared.as_topology())),
            ("Csr::from_edges(oracle)", Csr::from_edges(MAX_NODES, directed, &oracle.edge_list())),
        ];
        for (name, csr) in views {
            assert_eq!(csr.is_directed(), directed, "{name}");
            assert_eq!(csr_view(&csr), want, "{name} (directed: {directed})");
        }
    };
    for batches in regressions() {
        check(&batches, false);
    }
    for_each_seed(SEEDS, |rng| {
        let batches = arb_batches(rng);
        check(&batches, false);
        check(&batches, true);
    });
}
