//! Breadth-First Search.
//!
//! Table I: `v.depth ← min_{e ∈ InEdges(v)} (e.source.depth + 1)`.
//!
//! The FS kernel the engine runs is [`bfs_direction_optimizing`] — the
//! Beamer-style sparse/dense kernel GAP ships, with the alpha/beta
//! scout-count switch. The conventional push-only frontier BFS
//! ([`bfs_from_scratch`]) stays exported as the comparison baseline.

use crate::program::{ValueStore, VertexProgram};
use crate::ComputeOutcome;
use saga_graph::properties::AtomicU32Array;
use saga_graph::{GraphTopology, Node};
use saga_utils::bitvec::AtomicBitVec;
use saga_utils::frontier::FlatFrontier;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::prefetch::PREFETCH_DISTANCE;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};

/// Depth of a vertex not (yet) reachable from the root.
pub const UNREACHED: u32 = u32::MAX;

/// BFS as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::bfs::{BfsProgram, UNREACHED};
/// use saga_algorithms::program::VertexProgram;
///
/// let p = BfsProgram::new(3);
/// assert_eq!(p.initial(3, 10), 0);
/// assert_eq!(p.initial(4, 10), UNREACHED);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BfsProgram {
    root: Node,
}

impl BfsProgram {
    /// BFS from `root`.
    pub fn new(root: Node) -> Self {
        Self { root }
    }

    /// The search root.
    pub fn root(&self) -> Node {
        self.root
    }
}

impl VertexProgram for BfsProgram {
    type Value = u32;
    type Store = AtomicU32Array;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn initial(&self, v: Node, _num_nodes: usize) -> u32 {
        if v == self.root {
            0
        } else {
            UNREACHED
        }
    }

    fn term(&self, src_value: u32, _weight: f32, _src_out_degree: usize) -> Option<u32> {
        (src_value != UNREACHED).then(|| src_value.saturating_add(1))
    }

    fn combine(&self, old: u32, pulled: u32) -> u32 {
        old.min(pulled)
    }

    fn significant_change(&self, old: u32, new: u32) -> bool {
        new < old
    }

    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &AtomicU32Array,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        // The direction-optimizing kernel produces identical depths and
        // dominates on dense-frontier batches (saga-check's shape suite
        // holds it ≥ 1.5× over the classic push kernel, which stays
        // exported for that comparison).
        bfs_direction_optimizing(self, graph, values, pool)
    }
}

/// Conventional frontier BFS from scratch. `values` must already be reset.
/// Counts the levels it expanded.
pub fn bfs_from_scratch(
    program: &BfsProgram,
    graph: &dyn GraphTopology,
    values: &AtomicU32Array,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    let mut visited = AtomicBitVec::new(n);
    let mut next = FlatFrontier::new(n);
    let mut frontier = vec![program.root];
    let mut levels = 0;
    while !frontier.is_empty() {
        levels += 1;
        let grain = saga_utils::parallel::adaptive_grain(frontier.len(), pool.threads());
        pool.parallel_for(0..frontier.len(), Schedule::Dynamic(grain), |i| {
            // Hide the random property read of the vertex a few slots
            // behind the cursor while this one's neighbors are scanned.
            if let Some(&ahead) = frontier.get(i + PREFETCH_DISTANCE) {
                values.prefetch(ahead as usize);
            }
            let v = frontier[i];
            let depth = values.load(v as usize);
            graph.for_each_out_neighbor(v, &mut |nb, _| {
                if values.fetch_min(nb as usize, depth + 1) && visited.try_set(nb as usize) {
                    next.push(nb);
                }
            });
        });
        next.take_into(&mut frontier);
        visited.clear_all();
    }
    ComputeOutcome { iterations: levels, ..ComputeOutcome::default() }
}

/// Switch top-down → bottom-up when the frontier's scouted out-edges
/// exceed `1/ALPHA` of the unexplored edges (Beamer's `alpha`; GAP's
/// default value).
const ALPHA: u64 = 15;
/// Switch bottom-up → top-down when the frontier shrinks below `n / BETA`
/// vertices (Beamer's `beta`; GAP's default value).
const BETA: usize = 18;

/// Direction-optimizing BFS from scratch (Beamer et al.; the kernel GAP
/// actually ships). Runs top-down (push) while the frontier is small and
/// switches to bottom-up (every unvisited vertex pulls from its
/// in-neighbors) while the frontier is dense, where scanning the unvisited
/// side is cheaper than pushing a huge frontier's edges.
///
/// The switch uses the scout-count heuristics of the original paper: the
/// out-degrees of newly discovered vertices are accumulated *at push time*
/// (so the decision costs nothing extra), the kernel goes dense when that
/// scout count exceeds `1/ALPHA` of the still-unexplored edges, and
/// returns to sparse when the frontier drops under `n / BETA` vertices.
///
/// Produces exactly the same depths as [`bfs_from_scratch`]; exposed
/// separately so the classic and direction-optimizing kernels can be
/// compared (`dirop_bfs_beats_top_down_on_a_dense_graph` in saga-check's
/// shape suite). Counts the levels it expanded, and in
/// [`dense_rounds`](ComputeOutcome::dense_rounds) those it ran bottom-up.
pub fn bfs_direction_optimizing(
    program: &BfsProgram,
    graph: &dyn GraphTopology,
    values: &AtomicU32Array,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    let mut visited = AtomicBitVec::new(n);
    let mut next = FlatFrontier::new(n);
    // Out-degrees of the vertices discovered this level, summed as they
    // are pushed: the scout count of the *next* level's frontier.
    let next_scout = AtomicUsize::new(0);
    let mut frontier = vec![program.root];
    let mut scout_count = graph.out_degree(program.root) as u64;
    let mut edges_to_check = graph.num_edges() as u64;
    let mut depth = 0u32;
    let mut bottom_up = false;
    let mut outcome = ComputeOutcome::default();
    while !frontier.is_empty() {
        outcome.iterations += 1;
        if bottom_up {
            // Stay dense until the frontier thins out.
            bottom_up = frontier.len() >= (n / BETA).max(1);
        } else {
            bottom_up = scout_count > edges_to_check / ALPHA;
        }
        if bottom_up {
            outcome.dense_rounds += 1;
            // Bottom-up step: every unvisited vertex scans its in-neighbors
            // for a frontier member; no CAS contention on the frontier side.
            let grain = saga_utils::parallel::adaptive_grain(n, pool.threads()).max(16);
            pool.parallel_for(0..n, Schedule::Dynamic(grain), |v| {
                if values.load(v) != UNREACHED {
                    return;
                }
                let mut found = false;
                graph.for_each_in_neighbor(v as Node, &mut |src, _| {
                    if !found && values.load(src as usize) == depth {
                        found = true;
                    }
                });
                if found {
                    values.store(v, depth + 1);
                    next_scout.fetch_add(graph.out_degree(v as Node), Ordering::Relaxed);
                    next.push(v as Node);
                }
            });
        } else {
            // Top-down step: push from the frontier.
            let grain = saga_utils::parallel::adaptive_grain(frontier.len(), pool.threads());
            pool.parallel_for(0..frontier.len(), Schedule::Dynamic(grain), |i| {
                if let Some(&ahead) = frontier.get(i + PREFETCH_DISTANCE) {
                    values.prefetch(ahead as usize);
                }
                let v = frontier[i];
                let d = values.load(v as usize);
                let mut discovered: Vec<Node> = Vec::new();
                graph.for_each_out_neighbor(v, &mut |nb, _| {
                    if values.fetch_min(nb as usize, d + 1) && visited.try_set(nb as usize) {
                        next.push(nb);
                        discovered.push(nb);
                    }
                });
                // Scout degrees are summed after the neighbor scan returns:
                // chunk-locked structures (AC) hold their lock across
                // `for_each`, so re-entering the topology from inside the
                // callback can self-deadlock on a same-chunk neighbor.
                let scouted: usize = discovered.iter().map(|&nb| graph.out_degree(nb)).sum();
                if scouted != 0 {
                    next_scout.fetch_add(scouted, Ordering::Relaxed);
                }
            });
        }
        edges_to_check = edges_to_check.saturating_sub(scout_count);
        scout_count = next_scout.swap(0, Ordering::Relaxed) as u64;
        next.take_into(&mut frontier);
        visited.clear_all();
        depth += 1;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::reset_values;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    #[test]
    fn fs_bfs_computes_exact_depths() {
        let pool = ThreadPool::new(3);
        let g = build_graph(DataStructureKind::AdjacencyChunked, 7, true, 3);
        g.update_batch(
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(1, 3, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(5, 4, 1.0), // 5 unreachable from 0
            ],
            &pool,
        );
        let program = BfsProgram::new(0);
        let values = AtomicU32Array::filled(7, 0);
        reset_values(&program, &values, 7, &pool);
        bfs_from_scratch(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![0, 1, 1, 2, 3, UNREACHED, UNREACHED]);
    }

    #[test]
    fn pull_takes_the_best_in_neighbor() {
        let pool = ThreadPool::new(1);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        g.update_batch(&[Edge::new(0, 2, 1.0), Edge::new(1, 2, 1.0)], &pool);
        let program = BfsProgram::new(0);
        let values = AtomicU32Array::filled(4, UNREACHED);
        values.set(0, 0);
        values.set(1, 5);
        assert_eq!(program.pull(g.as_ref(), 2, &values), 1);
        // Vertex with no in-edges pulls UNREACHED.
        assert_eq!(program.pull(g.as_ref(), 3, &values), UNREACHED);
    }

    #[test]
    fn direction_optimizing_matches_classic_bfs() {
        // Deterministic pseudo-random graph large enough to trigger the
        // bottom-up switch.
        let pool = ThreadPool::new(4);
        let n = 600usize;
        let g = build_graph(DataStructureKind::AdjacencyShared, n, true, pool.threads());
        let edges: Vec<Edge> = (0..6_000u64)
            .map(|i| {
                let r = saga_utils::hash::mix64(i);
                Edge::new(
                    ((r >> 8) % n as u64) as Node,
                    ((r >> 32) % n as u64) as Node,
                    1.0,
                )
            })
            .collect();
        g.update_batch(&edges, &pool);
        let program = BfsProgram::new(edges[0].src);
        let classic = AtomicU32Array::filled(n, 0);
        reset_values(&program, &classic, n, &pool);
        bfs_from_scratch(&program, g.as_ref(), &classic, &pool);
        let dirop = AtomicU32Array::filled(n, 0);
        reset_values(&program, &dirop, n, &pool);
        bfs_direction_optimizing(&program, g.as_ref(), &dirop, &pool);
        assert_eq!(classic.to_vec(), dirop.to_vec());
    }

    #[test]
    fn direction_optimizing_on_a_path_starts_top_down() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Stinger, 30, true, pool.threads());
        let edges: Vec<Edge> = (0..29).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        g.update_batch(&edges, &pool);
        let program = BfsProgram::new(0);
        let values = AtomicU32Array::filled(30, 0);
        reset_values(&program, &values, 30, &pool);
        let stats = bfs_direction_optimizing(&program, g.as_ref(), &values, &pool);
        // 29 productive rounds plus the final empty-frontier check round.
        assert_eq!(stats.iterations, 30);
        assert_eq!(values.get(29), 29);
        // A unit-width frontier never trips the scout heuristic while a
        // meaningful share of the edges is unexplored.
        assert!(
            stats.iterations - stats.dense_rounds >= 15,
            "path should run mostly sparse, got {stats:?}"
        );
    }

    #[test]
    fn dense_switch_fires_on_hub_heavy_input() {
        // A star: the root's first frontier already scouts every edge, so
        // the very next level must run bottom-up.
        let pool = ThreadPool::new(2);
        let n = 200usize;
        let g = build_graph(DataStructureKind::AdjacencyShared, n, true, pool.threads());
        let edges: Vec<Edge> = (1..n as Node).map(|i| Edge::new(0, i, 1.0)).collect();
        g.update_batch(&edges, &pool);
        let program = BfsProgram::new(0);
        let values = AtomicU32Array::filled(n, 0);
        reset_values(&program, &values, n, &pool);
        let stats = bfs_direction_optimizing(&program, g.as_ref(), &values, &pool);
        assert!(
            stats.dense_rounds >= 1,
            "hub frontier must go dense, got {stats:?}"
        );
        for v in 1..n {
            assert_eq!(values.get(v), 1, "vertex {v}");
        }
    }
}
