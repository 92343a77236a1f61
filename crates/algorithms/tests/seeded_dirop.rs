//! Seeded property tests of direction-optimizing BFS equivalence: for
//! arbitrary edge streams — including hub-heavy ones that push the scout-count heuristic
//! into its bottom-up regime — the Beamer-style kernel must produce exactly
//! the depths of classic top-down BFS and of a sequential reference walk,
//! on every structure (the paper's four plus delta-CSR, whose replay
//! crosses compaction boundaries when batches are large enough).

use saga_algorithms::bfs::{bfs_direction_optimizing, bfs_from_scratch, BfsProgram, UNREACHED};
use saga_algorithms::fs::reset_values;
use saga_graph::properties::AtomicU32Array;
use saga_graph::{build_graph, DataStructureKind, Edge, GraphTopology, Node};
use saga_utils::parallel::ThreadPool;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..16;

const NODES: usize = 48;

/// `batches.0..=batches.1` batches of `len.0..=len.1` unit-weight edges
/// whose sources are drawn from the first `sources` vertices.
fn arb_batches(
    rng: &mut Xoshiro256PlusPlus,
    batches: (usize, usize),
    len: (usize, usize),
    sources: usize,
) -> Vec<Vec<Edge>> {
    rng.vec(batches.0, batches.1, |rng| {
        rng.vec(len.0, len.1, |rng| {
            Edge::new(rng.range(0, sources - 1) as Node, rng.range(0, NODES - 1) as Node, 1.0)
        })
    })
}

/// Sequential queue BFS over the structure's own topology view — the
/// trust anchor both parallel kernels are compared against.
fn reference_depths(g: &dyn GraphTopology, root: Node) -> Vec<u32> {
    let mut depth = vec![UNREACHED; NODES];
    depth[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        let d = depth[v as usize];
        let mut frontier: Vec<Node> = Vec::new();
        g.for_each_out_neighbor(v, &mut |nb, _| frontier.push(nb));
        for nb in frontier {
            if depth[nb as usize] == UNREACHED {
                depth[nb as usize] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    depth
}

fn check_dirop_equivalence(batches: &[Vec<Edge>], root: Node) {
    let pool = ThreadPool::new(3);
    for ds in DataStructureKind::ALL_WITH_DELTA {
        let graph = build_graph(ds, NODES, true, pool.threads());
        let program = BfsProgram::new(root);
        for (i, batch) in batches.iter().enumerate() {
            graph.update_batch(batch, &pool);
            let reference = reference_depths(graph.as_ref(), root);

            let classic = AtomicU32Array::filled(NODES, 0);
            reset_values(&program, &classic, NODES, &pool);
            bfs_from_scratch(&program, graph.as_ref(), &classic, &pool);
            assert_eq!(classic.to_vec(), reference, "top-down batch {i} on {ds:?}");

            let dirop = AtomicU32Array::filled(NODES, 0);
            reset_values(&program, &dirop, NODES, &pool);
            bfs_direction_optimizing(&program, graph.as_ref(), &dirop, &pool);
            assert_eq!(dirop.to_vec(), reference, "direction-optimizing batch {i} on {ds:?}");
        }
    }
}

/// Uniform random batches, like the FS/INC suite uses.
#[test]
fn dirop_bfs_matches_topdown_on_all_structures() {
    for_each_seed(SEEDS, |rng| {
        let batches = arb_batches(rng, (1, 3), (1, 99), NODES);
        check_dirop_equivalence(&batches, rng.range(0, NODES - 1) as Node);
    });
}

/// Hub-heavy batches: a handful of hubs fan out to arbitrary vertices, so
/// mid-search frontiers cover most of the graph and the dense switch fires.
#[test]
fn dirop_bfs_matches_topdown_on_hub_heavy_streams() {
    for_each_seed(SEEDS, |rng| {
        let batches = arb_batches(rng, (1, 2), (40, 159), 4);
        check_dirop_equivalence(&batches, rng.range(0, 3) as Node);
    });
}
