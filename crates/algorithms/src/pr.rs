//! PageRank.
//!
//! Table I: `v.rank ← 0.15/|V| + 0.85 · Σ_{e ∈ InEdges(v)} e.source.rank /
//! e.source.out_degree`.
//!
//! PR is the one non-monotone algorithm in the suite: the incremental
//! model's triggering condition is the magnitude test
//! `|old − new| > ε` with `ε = 1e-7` (Algorithm 1, line 11 and its
//! initialization), and INC results are approximate by design.
//!
//! The FS kernel is the conventional iterate-until-tolerance PageRank of
//! GAP (L1-norm stop).
//!
//! Note that on a degree-aware hashing graph every `out_degree` call in the
//! pull is a degree-query meta-operation — the reason the paper finds DAH
//! "performs particularly poorly in PR" (§V-B).

use crate::program::{ValueStore, VertexProgram};
use saga_graph::properties::AtomicF64Array;
use saga_graph::{GraphTopology, Node};
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::sync::atomic::{AtomicU64, Ordering};

/// Default damping factor (the paper's 0.85).
pub const DAMPING: f64 = 0.85;
/// Default incremental triggering threshold (the paper's `ε = 1e-7`).
pub const DEFAULT_EPSILON: f64 = 1e-7;
/// Default FS stopping tolerance on the L1 rank change (GAP's default).
pub const DEFAULT_FS_TOLERANCE: f64 = 1e-4;
/// Default FS iteration cap.
pub const DEFAULT_MAX_ITERS: usize = 100;

/// PageRank as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::pr::PrProgram;
/// use saga_algorithms::program::VertexProgram;
///
/// let p = PrProgram::new(100);
/// assert_eq!(p.initial(0, 100), (1.0 - 0.85) / 100.0); // the no-in-edge fixpoint
/// assert!(p.affects_source_neighborhood());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrProgram {
    num_nodes: usize,
    damping: f64,
    epsilon: f64,
    fs_tolerance: f64,
    max_iters: usize,
}

impl PrProgram {
    /// PageRank over a fixed universe of `num_nodes` vertices with default
    /// parameters.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            damping: DAMPING,
            epsilon: DEFAULT_EPSILON,
            fs_tolerance: DEFAULT_FS_TOLERANCE,
            max_iters: DEFAULT_MAX_ITERS,
        }
    }

    /// Overrides the incremental triggering threshold ε (used by the
    /// ablation bench).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the FS stopping tolerance.
    #[must_use]
    pub fn with_fs_tolerance(mut self, tolerance: f64) -> Self {
        self.fs_tolerance = tolerance;
        self
    }

    /// The triggering threshold ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The FS stopping tolerance on the L1 rank change.
    pub fn fs_tolerance(&self) -> f64 {
        self.fs_tolerance
    }

    /// The FS iteration cap.
    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    /// The damping factor.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// The fixed vertex-universe size this instance ranks over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

impl VertexProgram for PrProgram {
    type Value = f64;
    type Store = AtomicF64Array;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn initial(&self, _v: Node, num_nodes: usize) -> f64 {
        // Algorithm 1 line 4 initializes new vertices to 1/|V|, but any
        // vertex that ever appears is recomputed in the same phase, so the
        // only lasting effect of the initial value is on vertices that
        // never appear in the stream. Those have no in-edges and their
        // exact PageRank is the base term — using it keeps the incremental
        // model consistent with from-scratch recomputation over the whole
        // vertex universe.
        (1.0 - self.damping) / num_nodes as f64
    }

    fn pull(&self, graph: &dyn GraphTopology, v: Node, values: &Self::Store) -> f64 {
        let base = (1.0 - self.damping) / self.num_nodes as f64;
        // Two-phase: collect the in-neighbors first, then query degrees.
        // `for_each_in_neighbor` may hold an internal lock while invoking
        // the callback, and `out_degree(src)` can need that same lock when
        // `src` shares it with `v` (a self-loop on AS, a shared chunk on
        // AC/DAH) — see the reentrancy note on `GraphTopology`.
        let mut in_neighbors: Vec<Node> = Vec::with_capacity(graph.in_degree(v));
        graph.for_each_in_neighbor(v, &mut |src, _| in_neighbors.push(src));
        let mut sum = 0.0;
        for src in in_neighbors {
            // The out-degree query is a second DAH meta-operation per
            // incoming neighbor (§V-B).
            let deg = graph.out_degree(src);
            debug_assert!(deg > 0, "in-neighbor must have an out-edge");
            sum += values.load(src as usize) / deg as f64;
        }
        base + self.damping * sum
    }

    fn combine(&self, _old: f64, pulled: f64) -> f64 {
        pulled
    }

    fn significant_change(&self, old: f64, new: f64) -> bool {
        (old - new).abs() > self.epsilon
    }

    fn affects_source_neighborhood(&self) -> bool {
        true
    }

    fn derives_from(&self, _value: f64, _src_value: f64, _weight: f32) -> bool {
        // Never used: `needs_deletion_repair` is false (see below).
        false
    }

    fn needs_deletion_repair(&self) -> bool {
        // `combine` replaces the old rank with the freshly pulled one, so
        // re-pulling the affected vertices after a deletion already yields
        // the correct values — no stale-dependency cascade exists.
        false
    }

    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &AtomicF64Array,
        pool: &ThreadPool,
    ) -> usize {
        pagerank_from_scratch(self, graph, values, pool)
    }
}

/// Conventional PageRank from scratch: Jacobi-style in-place iteration
/// until the L1 rank change drops below the tolerance (or the iteration
/// cap). `values` must already be reset. Returns iterations executed.
pub fn pagerank_from_scratch(
    program: &PrProgram,
    graph: &dyn GraphTopology,
    values: &AtomicF64Array,
    pool: &ThreadPool,
) -> usize {
    let n = graph.capacity();
    for iter in 1..=program.max_iters {
        // Accumulate the L1 delta in fixed-point nanounits to stay atomic.
        let delta_bits = AtomicU64::new(0);
        let grain = saga_utils::parallel::adaptive_grain(n, pool.threads()).max(16);
        pool.parallel_for(0..n, Schedule::Dynamic(grain), |v| {
            let old = values.load(v);
            let new = program.pull(graph, v as Node, values);
            if new != old {
                values.set(v, new);
                let scaled = ((new - old).abs() * 1e12) as u64;
                delta_bits.fetch_add(scaled, Ordering::Relaxed);
            }
        });
        let delta = delta_bits.load(Ordering::Relaxed) as f64 / 1e12;
        if delta < program.fs_tolerance {
            return iter;
        }
    }
    program.max_iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::reset_values;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    #[test]
    fn ranks_sum_to_about_one_on_a_cycle() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        g.update_batch(
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 0, 1.0),
            ],
            &pool,
        );
        let program = PrProgram::new(4).with_fs_tolerance(1e-12);
        let values = AtomicF64Array::filled(4, 0.0);
        reset_values(&program, &values, 4, &pool);
        pagerank_from_scratch(&program, g.as_ref(), &values, &pool);
        let ranks = values.to_vec();
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        // Perfect symmetry: every vertex has the same rank.
        for r in &ranks {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn self_loops_do_not_deadlock_shared_locks() {
        // Regression: PR's pull queries out_degree(src) for every incoming
        // neighbor. With a self-loop on an undirected AS graph (or a
        // same-chunk neighbor on AC/DAH), a query issued from inside the
        // traversal callback would re-lock the lock the traversal holds.
        use saga_graph::{build_graph, DataStructureKind};
        for ds in DataStructureKind::ALL {
            for directed in [true, false] {
                let pool = ThreadPool::new(2);
                let g = build_graph(ds, 4, directed, pool.threads());
                g.update_batch(
                    &[Edge::new(2, 2, 1.0), Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)],
                    &pool,
                );
                let program = PrProgram::new(4);
                let values = AtomicF64Array::filled(4, 0.0);
                reset_values(&program, &values, 4, &pool);
                let iters = pagerank_from_scratch(&program, g.as_ref(), &values, &pool);
                assert!(iters > 0, "{ds:?} directed={directed}");
                assert!(values.to_vec().iter().all(|r| r.is_finite()));
            }
        }
    }

    #[test]
    fn hub_receives_more_rank() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Dah, 5, true, 2);
        // Everyone points at 4; 4 points at 0.
        g.update_batch(
            &[
                Edge::new(0, 4, 1.0),
                Edge::new(1, 4, 1.0),
                Edge::new(2, 4, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(4, 0, 1.0),
            ],
            &pool,
        );
        let program = PrProgram::new(5);
        let values = AtomicF64Array::filled(5, 0.0);
        reset_values(&program, &values, 5, &pool);
        pagerank_from_scratch(&program, g.as_ref(), &values, &pool);
        let ranks = values.to_vec();
        assert!(ranks[4] > ranks[0]);
        assert!(ranks[0] > ranks[1]);
        assert!((ranks[1] - ranks[3]).abs() < 1e-9);
    }
}
