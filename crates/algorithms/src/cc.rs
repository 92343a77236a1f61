//! Connected Components.
//!
//! Table I: `v.value ← min(v.value, min_{e ∈ Edges(v)} e.other.value)` —
//! note `Edges(v)`, not `InEdges(v)`: connectivity ignores edge direction,
//! so the program's scope is [`EdgeScope::Symmetric`].
//!
//! The FS kernel is whole-graph label propagation to fixpoint
//! ([`fixpoint_compute`]); every vertex starts labeled with its own id and
//! components converge to the minimum id they contain.
//!
//! [`fixpoint_compute`]: crate::fs::fixpoint_compute

use crate::program::{EdgeScope, VertexProgram};
use saga_graph::properties::AtomicU32Array;
use saga_graph::Node;

/// Connected components as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::cc::CcProgram;
/// use saga_algorithms::program::{EdgeScope, VertexProgram};
///
/// let p = CcProgram::new();
/// assert_eq!(p.scope(), EdgeScope::Symmetric);
/// assert_eq!(p.initial(7, 10), 7); // own id
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CcProgram;

impl CcProgram {
    /// Creates the program.
    pub fn new() -> Self {
        Self
    }
}

impl VertexProgram for CcProgram {
    type Value = u32;
    type Store = AtomicU32Array;

    fn name(&self) -> &'static str {
        "CC"
    }

    fn scope(&self) -> EdgeScope {
        EdgeScope::Symmetric
    }

    fn initial(&self, v: Node, _num_nodes: usize) -> u32 {
        v
    }

    fn term(&self, src_value: u32, _weight: f32, _src_out_degree: usize) -> Option<u32> {
        // Labels propagate unchanged, so a vertex's label may derive from
        // any equal-labeled neighbor. The label's *owner* is never tagged by
        // the repair pass: its value equals its initial, and those are skipped.
        Some(src_value)
    }

    fn combine(&self, old: u32, pulled: u32) -> u32 {
        old.min(pulled)
    }

    fn significant_change(&self, old: u32, new: u32) -> bool {
        new < old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{fixpoint_compute, reset_values};
    use saga_graph::{build_graph, DataStructureKind, Edge};
    use saga_utils::parallel::ThreadPool;

    #[test]
    fn direction_is_ignored() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        // 2 -> 0 and 2 -> 1: all three are one component despite direction.
        g.update_batch(&[Edge::new(2, 0, 1.0), Edge::new(2, 1, 1.0)], &pool);
        let program = CcProgram::new();
        let values = AtomicU32Array::filled(4, 0);
        reset_values(&program, &values, 4, &pool);
        fixpoint_compute(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![0, 0, 0, 3]);
    }

    #[test]
    fn undirected_components() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Dah, 6, false, 2);
        g.update_batch(&[Edge::new(5, 4, 1.0), Edge::new(4, 3, 1.0), Edge::new(1, 0, 1.0)], &pool);
        let program = CcProgram::new();
        let values = AtomicU32Array::filled(6, 0);
        reset_values(&program, &values, 6, &pool);
        fixpoint_compute(&program, g.as_ref(), &values, &pool);
        assert_eq!(values.to_vec(), vec![0, 0, 2, 3, 3, 3]);
    }
}
