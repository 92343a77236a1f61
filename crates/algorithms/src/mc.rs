//! Max Computation.
//!
//! Table I: `v.value ← max(v.value, max_{e ∈ InEdges(v)} e.source.value)`.
//! Every vertex starts with its own id and the maximum id propagates along
//! directed edges. The paper implements MC itself because GAP does not ship
//! it (§III-B); its FS and INC formulations are nearly identical, which is
//! why MC is the one algorithm that benefits little from INC (§V-C,
//! footnote 7).
//!
//! The FS kernel is whole-graph fixpoint iteration
//! ([`fixpoint_compute`](crate::fs::fixpoint_compute)).

use crate::program::VertexProgram;
use saga_graph::properties::AtomicU32Array;
use saga_graph::Node;

/// Max computation as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::mc::McProgram;
/// use saga_algorithms::program::VertexProgram;
///
/// let p = McProgram::new();
/// assert_eq!(p.combine(3, 9), 9);
/// assert!(p.significant_change(3, 9));
/// assert!(!p.significant_change(9, 9));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct McProgram;

impl McProgram {
    /// Creates the program.
    pub fn new() -> Self {
        Self
    }
}

impl VertexProgram for McProgram {
    type Value = u32;
    type Store = AtomicU32Array;

    fn name(&self) -> &'static str {
        "MC"
    }

    fn initial(&self, v: Node, _num_nodes: usize) -> u32 {
        v
    }

    fn term(&self, src_value: u32, _weight: f32, _src_out_degree: usize) -> Option<u32> {
        Some(src_value)
    }

    fn combine(&self, old: u32, pulled: u32) -> u32 {
        old.max(pulled)
    }

    fn significant_change(&self, old: u32, new: u32) -> bool {
        new > old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{fixpoint_compute, reset_values};
    use saga_graph::{build_graph, DataStructureKind, Edge};
    use saga_utils::parallel::ThreadPool;

    #[test]
    fn max_id_flows_downstream() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Stinger, 5, true, 1);
        // 4 -> 2 -> 0, and 1 -> 0; 3 isolated.
        g.update_batch(
            &[Edge::new(4, 2, 1.0), Edge::new(2, 0, 1.0), Edge::new(1, 0, 1.0)],
            &pool,
        );
        let program = McProgram::new();
        let values = AtomicU32Array::filled(5, 0);
        reset_values(&program, &values, 5, &pool);
        fixpoint_compute(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![4, 1, 4, 3, 4]);
    }

    #[test]
    fn direction_matters_for_mc() {
        let pool = ThreadPool::new(1);
        let g = build_graph(DataStructureKind::AdjacencyShared, 3, true, 1);
        // 0 -> 2: the max does NOT flow upstream to 0.
        g.update_batch(&[Edge::new(0, 2, 1.0)], &pool);
        let program = McProgram::new();
        let values = AtomicU32Array::filled(3, 0);
        reset_values(&program, &values, 3, &pool);
        fixpoint_compute(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![0, 1, 2]);
    }
}
