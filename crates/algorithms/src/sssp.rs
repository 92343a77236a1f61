//! Single-Source Shortest Paths.
//!
//! Table I: `v.path ← min_{e ∈ InEdges(v)} (e.source.path + e.weight)`.
//!
//! The FS kernel is delta-stepping (borrowed from GAP, as in the paper —
//! and, per the paper's §V-C footnote, "highly optimized", which is why FS
//! stays competitive with INC on SSSP except on the largest dataset).

use crate::program::VertexProgram;
use crate::ComputeOutcome;
use saga_graph::properties::AtomicF32Array;
use saga_graph::{GraphTopology, Node};
use saga_utils::bitvec::AtomicBitVec;
use saga_utils::frontier::FlatFrontier;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::prefetch::PREFETCH_DISTANCE;

/// Default delta-stepping bucket width; edge weights are in `[1, 8.875]`
/// (see `saga_stream::weight_for`), so 2.0 gives a healthy light/heavy mix.
pub const DEFAULT_DELTA: f32 = 2.0;

/// SSSP as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::sssp::SsspProgram;
/// use saga_algorithms::program::VertexProgram;
///
/// let p = SsspProgram::new(2);
/// assert_eq!(p.initial(2, 10), 0.0);
/// assert_eq!(p.initial(3, 10), f32::INFINITY);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SsspProgram {
    root: Node,
    delta: f32,
}

impl SsspProgram {
    /// Shortest paths from `root` with the default bucket width.
    pub fn new(root: Node) -> Self {
        Self {
            root,
            delta: DEFAULT_DELTA,
        }
    }

    /// Overrides the delta-stepping bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not positive.
    #[must_use]
    pub fn with_delta(mut self, delta: f32) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        self.delta = delta;
        self
    }

    /// The search root.
    pub fn root(&self) -> Node {
        self.root
    }
}

impl VertexProgram for SsspProgram {
    type Value = f32;
    type Store = AtomicF32Array;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn initial(&self, v: Node, _num_nodes: usize) -> f32 {
        if v == self.root {
            0.0
        } else {
            f32::INFINITY
        }
    }

    fn term(&self, src_value: f32, weight: f32, _src_out_degree: usize) -> Option<f32> {
        src_value.is_finite().then_some(src_value + weight)
    }

    fn combine(&self, old: f32, pulled: f32) -> f32 {
        old.min(pulled)
    }

    fn significant_change(&self, old: f32, new: f32) -> bool {
        new < old
    }

    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &AtomicF32Array,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        sssp_delta_stepping(self, graph, values, pool)
    }
}

/// Delta-stepping SSSP from scratch. `values` must already be reset.
/// Counts the bucket phases it processed.
pub fn sssp_delta_stepping(
    program: &SsspProgram,
    graph: &dyn GraphTopology,
    values: &AtomicF32Array,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    let delta = program.delta;
    let bucket_of = |dist: f32| (dist / delta) as usize;
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new()];
    buckets[0].push(program.root);
    // Relaxed vertices are collected flat and deduplicated per phase; the
    // bucket is (re)derived from the vertex's distance at drain time, which
    // is equal-or-better than the value that was current at push time, so a
    // vertex lands once in its best-known bucket instead of once per
    // successful relaxation.
    let mut relaxed_set = AtomicBitVec::new(n);
    let mut relaxed = FlatFrontier::new(n);
    let mut drained: Vec<Node> = Vec::new();
    let mut phases = 0;
    let mut current = 0usize;
    loop {
        // Advance to the next non-empty bucket.
        while current < buckets.len() && buckets[current].is_empty() {
            current += 1;
        }
        if current >= buckets.len() {
            return ComputeOutcome { iterations: phases, ..ComputeOutcome::default() };
        }
        // Settle the bucket: light-edge relaxations may refill it.
        while !buckets[current].is_empty() {
            phases += 1;
            let frontier = std::mem::take(&mut buckets[current]);
            let grain = saga_utils::parallel::adaptive_grain(frontier.len(), pool.threads());
            pool.parallel_for(0..frontier.len(), Schedule::Dynamic(grain), |i| {
                if let Some(&ahead) = frontier.get(i + PREFETCH_DISTANCE) {
                    values.prefetch(ahead as usize);
                }
                let v = frontier[i];
                let dist = values.get(v as usize);
                // Stale entry: the vertex settled in an earlier bucket.
                if bucket_of(dist) != current {
                    return;
                }
                graph.for_each_out_neighbor(v, &mut |nb, w| {
                    let candidate = dist + w;
                    if values.fetch_min(nb as usize, candidate)
                        && relaxed_set.try_set(nb as usize)
                    {
                        relaxed.push(nb);
                    }
                });
            });
            relaxed.take_into(&mut drained);
            relaxed_set.clear_all();
            for &v in &drained {
                let b = bucket_of(values.get(v as usize));
                if b >= buckets.len() {
                    buckets.resize_with(b + 1, Vec::new);
                }
                buckets[b].push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::reset_values;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    fn dist_graph(pool: &ThreadPool) -> Box<dyn GraphTopology> {
        let g = build_graph(DataStructureKind::AdjacencyShared, 6, true, 1);
        g.update_batch(
            &[
                Edge::new(0, 1, 4.0),
                Edge::new(0, 2, 1.0),
                Edge::new(2, 1, 2.0), // 0 -> 2 -> 1 = 3.0 beats direct 4.0
                Edge::new(1, 3, 1.0),
                Edge::new(2, 3, 5.0),
                Edge::new(4, 5, 1.0), // unreachable island
            ],
            pool,
        );
        g
    }

    #[test]
    fn delta_stepping_finds_shortest_paths() {
        let pool = ThreadPool::new(3);
        let g = dist_graph(&pool);
        let program = SsspProgram::new(0);
        let values = AtomicF32Array::filled(6, 0.0);
        reset_values(&program, &values, 6, &pool);
        sssp_delta_stepping(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![0.0, 3.0, 1.0, 4.0, f32::INFINITY, f32::INFINITY]);
    }

    #[test]
    fn tiny_delta_still_correct() {
        let pool = ThreadPool::new(2);
        let g = dist_graph(&pool);
        let program = SsspProgram::new(0).with_delta(0.5);
        let values = AtomicF32Array::filled(6, 0.0);
        reset_values(&program, &values, 6, &pool);
        sssp_delta_stepping(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.get(3), 4.0);
    }

    #[test]
    fn huge_delta_degenerates_to_bellman_ford() {
        let pool = ThreadPool::new(2);
        let g = dist_graph(&pool);
        let program = SsspProgram::new(0).with_delta(1e6);
        let values = AtomicF32Array::filled(6, 0.0);
        reset_values(&program, &values, 6, &pool);
        sssp_delta_stepping(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.get(1), 3.0);
        assert_eq!(values.get(3), 4.0);
    }
}
