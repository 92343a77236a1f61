//! The recomputation-from-scratch compute model (**FS**) — §III-B.
//!
//! Every update phase is considered to produce a brand-new graph: all
//! vertex values are reset to their initial values and a conventional
//! static-graph algorithm is run, oblivious of the previous batch's
//! computation. The specialized kernels (frontier BFS, delta-stepping SSSP,
//! tolerance-stopped PageRank) live in their algorithm modules; this module
//! provides the shared reset and the generic Jacobi fixpoint used by the
//! label-propagation algorithms (CC, MC).

use crate::program::{ValueStore, VertexProgram};
use crate::ComputeOutcome;
use saga_graph::GraphTopology;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::sync::atomic::{AtomicBool, Ordering};

/// Resets every vertex to the program's initial value (the "oblivious"
/// restart of the FS model).
pub fn reset_values<P: VertexProgram>(
    program: &P,
    values: &P::Store,
    num_nodes: usize,
    pool: &ThreadPool,
) {
    pool.parallel_for(0..num_nodes, Schedule::Static, |v| {
        values.store(v, program.initial(v as u32, num_nodes));
    });
}

/// Conventional whole-graph Jacobi iteration: applies the vertex function
/// to every vertex each round until no vertex changes. Counts its rounds.
///
/// This is the textbook static-graph formulation of label-propagation
/// algorithms (CC, MC): correct for any monotone vertex function, and
/// deliberately oblivious of which part of the graph changed.
pub fn fixpoint_compute<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let changed = AtomicBool::new(false);
        let grain = saga_utils::parallel::adaptive_grain(n, pool.threads()).max(16);
        pool.parallel_for(0..n, Schedule::Dynamic(grain), |v| {
            let old = values.load(v);
            let pulled = program.pull(graph, v as u32, values);
            let new = program.combine(old, pulled);
            if new != old {
                values.store(v, new);
                changed.store(true, Ordering::Relaxed);
            }
        });
        if !changed.load(Ordering::Relaxed) {
            return ComputeOutcome { iterations: rounds, ..ComputeOutcome::default() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcProgram;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    #[test]
    fn reset_applies_per_vertex_initials() {
        let pool = ThreadPool::new(2);
        let program = CcProgram::new();
        let store = <CcProgram as VertexProgram>::Store::create(5, 0);
        reset_values(&program, &store, 5, &pool);
        for v in 0..5 {
            assert_eq!(store.load(v), v as u32, "CC initial label is the id");
        }
    }

    #[test]
    fn fixpoint_converges_on_components() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Stinger, 6, true, 1);
        // Two components: {0,1,2} in a chain and {4,5}; 3 isolated.
        g.update_batch(
            &[Edge::new(2, 1, 1.0), Edge::new(1, 0, 1.0), Edge::new(4, 5, 1.0)],
            &pool,
        );
        let program = CcProgram::new();
        let store = <CcProgram as VertexProgram>::Store::create(6, 0);
        reset_values(&program, &store, 6, &pool);
        let rounds = fixpoint_compute(&program, g.as_ref(), &store, &pool).iterations;
        assert!(rounds >= 2);
        assert_eq!(store.load(0), 0);
        assert_eq!(store.load(1), 0);
        assert_eq!(store.load(2), 0);
        assert_eq!(store.load(3), 3);
        assert_eq!(store.load(4), 4);
        assert_eq!(store.load(5), 4);
    }
}
