//! Single-Source Widest Paths.
//!
//! Table I: `v.path ← max_{e ∈ InEdges(v)} (min(e.source.path, e.weight))`
//! — the bottleneck (maximum-capacity) path from the root. Implemented by
//! the paper itself because GAP does not ship it (§III-B).
//!
//! The FS kernel is a frontier-based monotone relaxation (the widest-path
//! analogue of frontier BFS): widths only grow, so CAS `fetch_max`
//! relaxation over out-edges converges to the exact fixpoint.

use crate::program::VertexProgram;
use crate::ComputeOutcome;
use saga_graph::properties::AtomicF32Array;
use saga_graph::{GraphTopology, Node};
use saga_utils::bitvec::AtomicBitVec;
use saga_utils::frontier::FlatFrontier;
use saga_utils::parallel::{Schedule, ThreadPool};

/// SSWP as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::sswp::SswpProgram;
/// use saga_algorithms::program::VertexProgram;
///
/// let p = SswpProgram::new(0);
/// assert_eq!(p.initial(0, 4), f32::INFINITY); // root has infinite width
/// assert_eq!(p.initial(1, 4), 0.0); // unreached
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SswpProgram {
    root: Node,
}

impl SswpProgram {
    /// Widest paths from `root`.
    pub fn new(root: Node) -> Self {
        Self { root }
    }

    /// The search root.
    pub fn root(&self) -> Node {
        self.root
    }
}

impl VertexProgram for SswpProgram {
    type Value = f32;
    type Store = AtomicF32Array;

    fn name(&self) -> &'static str {
        "SSWP"
    }

    fn initial(&self, v: Node, _num_nodes: usize) -> f32 {
        if v == self.root {
            f32::INFINITY
        } else {
            0.0
        }
    }

    fn term(&self, src_value: f32, weight: f32, _src_out_degree: usize) -> Option<f32> {
        (src_value > 0.0).then(|| src_value.min(weight))
    }

    fn combine(&self, old: f32, pulled: f32) -> f32 {
        old.max(pulled)
    }

    fn significant_change(&self, old: f32, new: f32) -> bool {
        new > old
    }

    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &AtomicF32Array,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        sswp_from_scratch(self, graph, values, pool)
    }
}

/// Frontier-based widest-path relaxation from scratch. `values` must
/// already be reset. Counts its relaxation rounds.
pub fn sswp_from_scratch(
    program: &SswpProgram,
    graph: &dyn GraphTopology,
    values: &AtomicF32Array,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    let mut visited = AtomicBitVec::new(n);
    let mut next = FlatFrontier::new(n);
    let mut frontier = vec![program.root];
    let mut rounds = 0;
    while !frontier.is_empty() {
        rounds += 1;
        let grain = saga_utils::parallel::adaptive_grain(frontier.len(), pool.threads());
        pool.parallel_for(0..frontier.len(), Schedule::Dynamic(grain), |i| {
            let v = frontier[i];
            let width = values.get(v as usize);
            graph.for_each_out_neighbor(v, &mut |nb, w| {
                let candidate = width.min(w);
                if values.fetch_max(nb as usize, candidate) && visited.try_set(nb as usize) {
                    next.push(nb);
                }
            });
        });
        next.take_into(&mut frontier);
        visited.clear_all();
    }
    ComputeOutcome { iterations: rounds, ..ComputeOutcome::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::reset_values;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    #[test]
    fn widest_path_prefers_high_capacity_detour() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyChunked, 4, true, 2);
        // Direct 0->2 has width 1; detour 0->1->2 has width min(5, 3) = 3.
        g.update_batch(
            &[
                Edge::new(0, 2, 1.0),
                Edge::new(0, 1, 5.0),
                Edge::new(1, 2, 3.0),
                Edge::new(2, 3, 8.0),
            ],
            &pool,
        );
        let program = SswpProgram::new(0);
        let values = AtomicF32Array::filled(4, 0.0);
        reset_values(&program, &values, 4, &pool);
        sswp_from_scratch(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![f32::INFINITY, 5.0, 3.0, 3.0]);
    }

    #[test]
    fn unreachable_width_is_zero() {
        let pool = ThreadPool::new(1);
        let g = build_graph(DataStructureKind::AdjacencyShared, 3, true, 1);
        g.update_batch(&[Edge::new(1, 2, 7.0)], &pool);
        let program = SswpProgram::new(0);
        let values = AtomicF32Array::filled(3, 0.0);
        reset_values(&program, &values, 3, &pool);
        sswp_from_scratch(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.get(1), 0.0);
        assert_eq!(values.get(2), 0.0);
    }
}
