//! The vertex-function abstraction (Table I of the paper).
//!
//! Every SAGA-Bench algorithm is *vertex-centric*: a vertex's property is a
//! reduction over its incoming edges (Table I), e.g.
//! `v.depth ← min_{e ∈ InEdges(v)} (e.source.depth + 1)` for BFS. The
//! [`VertexProgram`] trait captures exactly that vertex function plus the
//! triggering condition of the incremental compute model (Algorithm 1,
//! line 11); both compute engines are generic over it, which is what lets a
//! new algorithm join the benchmark by implementing one trait (§III-D).

use crate::inc::NO_PARENT;
use crate::ComputeOutcome;
use saga_graph::properties::{AtomicArray, Property};
use saga_graph::{GraphTopology, Node};
use saga_utils::parallel::ThreadPool;

/// Which neighbors a vertex function reduces over and propagates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeScope {
    /// Pull from in-neighbors, push to out-neighbors (BFS, MC, PR, SSSP,
    /// SSWP — see Table I).
    InPullOutPush,
    /// Pull from and push to both directions (CC: connectivity ignores
    /// edge direction, `min_{e ∈ Edges(v)}` in Table I).
    Symmetric,
}

/// Property storage used by a vertex program.
///
/// Every store is atomic-backed so the engines can run vertex functions
/// from parallel loops; each vertex's slot is written only by the thread
/// processing that vertex.
pub trait ValueStore<V: Copy>: Send + Sync {
    /// Creates a store of `len` slots, all `init`.
    fn create(len: usize, init: V) -> Self;
    /// Reads slot `i`.
    fn load(&self, i: usize) -> V;
    /// Writes slot `i`.
    fn store(&self, i: usize, value: V);
    /// Number of slots.
    fn len(&self) -> usize;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Hints that slot `i` will be accessed soon. Defaults to a no-op;
    /// the atomic-array stores forward it to a hardware prefetch so the
    /// frontier loops can hide the latency of their random property reads.
    fn prefetch_hint(&self, i: usize) {
        let _ = i;
    }
    /// Marks the start of a compute phase, before which the topology may
    /// have changed in any way. Called once per `perform_alg*`; a no-op
    /// except for [`PrValues`](crate::pr::PrValues), which invalidates its
    /// out-degree cache here.
    fn begin_phase(&self) {}
}

/// Every program's store but PageRank's: the shared atomic array.
impl<T: Property> ValueStore<T> for AtomicArray<T> {
    fn create(len: usize, init: T) -> Self {
        AtomicArray::filled(len, init)
    }
    fn load(&self, i: usize) -> T {
        self.get(i)
    }
    fn store(&self, i: usize, value: T) {
        self.set(i, value)
    }
    fn len(&self) -> usize {
        AtomicArray::len(self)
    }
    fn prefetch_hint(&self, i: usize) {
        self.prefetch(i);
    }
}

/// How a BSP destination absorbs the per-edge terms addressed to it (the
/// sharded engine in `saga-bsp` sends each [`VertexProgram::term`] as a
/// message from the source's shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// Fold each term into the stored value with
    /// [`combine`](VertexProgram::combine); a vertex whose value passes
    /// [`significant_change`](VertexProgram::significant_change) scatters
    /// again next superstep. The monotone reductions (BFS, CC, MC, SSSP,
    /// SSWP) gather this way.
    Fold,
    /// Re-evaluate every value each superstep as
    /// [`finish`](VertexProgram::finish) of the plain sum of its terms, every
    /// vertex active, until [`sum_converged`](VertexProgram::sum_converged).
    /// That is a Jacobi sweep; PageRank gathers this way.
    Sum,
}

/// A vertex-centric algorithm: one row of Table I.
///
/// The contract, shared by every compute model:
///
/// - [`initial`](Self::initial) is the property of a vertex that has not
///   been reached/computed yet (FS resets every vertex to it; INC applies
///   it to vertices appearing for the first time — Algorithm 1, lines 2–4).
/// - [`term`](Self::term) is Table I's per-edge term: what one source
///   contributes to a destination across one edge. It is the only place a
///   program states its vertex function; the pull reduction
///   ([`pull`](Self::pull)) and the witness it records for deletion repair,
///   the derivation test ([`derives_from`](Self::derives_from)) and the BSP
///   engine's messages are all derived from it.
/// - [`combine`](Self::combine) reduces terms and merges the result with
///   the vertex's previous property. For the monotone algorithms this is
///   `min`/`max` — the *processing amortization* of the incremental model
///   (previous results remain valid lower/upper bounds when edges are only
///   added).
/// - [`significant_change`](Self::significant_change) is the triggering
///   condition (Algorithm 1, line 11).
/// - [`gather_mode`](Self::gather_mode) says how the BSP engine reduces
///   terms; a [`GatherMode::Sum`] program (PageRank) also overrides
///   [`finish`](Self::finish), [`l1_units`](Self::l1_units) and
///   [`sum_converged`](Self::sum_converged), and its `pull`, because its
///   reduction is a sum rather than a `combine` fold.
pub trait VertexProgram: Send + Sync {
    /// Property type. `Default` and `Add` are the zero and the addition of
    /// the [`GatherMode::Sum`] gather.
    type Value: Property + Default + std::ops::Add<Output = Self::Value>;
    /// Storage for the property array.
    type Store: ValueStore<Self::Value>;

    /// Human-readable name (paper abbreviation).
    fn name(&self) -> &'static str;

    /// Neighbor scope of the vertex function.
    fn scope(&self) -> EdgeScope {
        EdgeScope::InPullOutPush
    }

    /// Property of an untouched vertex.
    fn initial(&self, v: Node, num_nodes: usize) -> Self::Value;

    /// Table I's per-edge term: what a source holding `src_value`
    /// contributes across an edge of `weight`. `None` means the source
    /// contributes nothing (an unreached BFS or SSSP source, a zero-width
    /// SSWP source). `src_out_degree` is the source's current out-degree
    /// for [`GatherMode::Sum`] programs (PageRank divides by it); callers
    /// of a [`GatherMode::Fold`] program pass 0, and its term ignores it.
    fn term(&self, src_value: Self::Value, weight: f32, src_out_degree: usize)
        -> Option<Self::Value>;

    /// Evaluates the vertex function: the [`combine`](Self::combine) fold of
    /// the in-edge terms (both directions for [`EdgeScope::Symmetric`]),
    /// starting from `v`'s own value — the fold is idempotent, so that start
    /// changes nothing once the caller combines the result with it.
    fn pull(&self, graph: &dyn GraphTopology, v: Node, values: &Self::Store) -> Self::Value {
        fold_pull(self, graph, v, values).0
    }

    /// Merges the previous property with a freshly pulled one.
    fn combine(&self, old: Self::Value, pulled: Self::Value) -> Self::Value;

    /// Whether the change from `old` to `new` is large enough to propagate
    /// to neighbors (Algorithm 1, line 11).
    fn significant_change(&self, old: Self::Value, new: Self::Value) -> bool;

    /// Whether `value` could have been derived from an in-neighbor holding
    /// `src_value` across an edge of weight `weight`: that edge's
    /// [`term`](Self::term) is exactly `value`. The INC model's witness
    /// forest is rebuilt over these derivation edges after a from-scratch
    /// fallback ([`rebuild_witness_forest`](crate::inc::rebuild_witness_forest)).
    /// A source that contributes nothing derives nothing.
    fn derives_from(&self, value: Self::Value, src_value: Self::Value, weight: f32) -> bool {
        self.term(src_value, weight, 0) == Some(value)
    }

    /// How the engines reduce the terms sent to a vertex — the one flag
    /// that sets a [`GatherMode::Sum`] program (PageRank) apart. Because a
    /// Sum term reads its source's out-degree, a batch source's existing
    /// out-neighbors are affected too; because a Sum `combine` replaces the
    /// old value, re-pulling the affected set is its whole deletion repair,
    /// while a [`GatherMode::Fold`] program keeps a witness forest
    /// ([`crate::inc`]).
    fn gather_mode(&self) -> GatherMode {
        GatherMode::Fold
    }

    /// [`GatherMode::Sum`]: a vertex's value from the sum of its in-edge
    /// terms. Defaults to the sum itself.
    fn finish(&self, sum: Self::Value) -> Self::Value {
        sum
    }

    /// [`GatherMode::Sum`]: one vertex's share of a sweep's L1 change,
    /// `|new − old|` in truncated fixed-point units of 1e-12 so that
    /// workers can sum their shares exactly. Defaults to 0.
    fn l1_units(&self, _old: Self::Value, _new: Self::Value) -> u64 {
        0
    }

    /// [`GatherMode::Sum`]: whether the run stops after `sweeps` sweeps,
    /// the last of which summed to `l1_units`. Defaults to one sweep.
    fn sum_converged(&self, _sweeps: usize, _l1_units: u64) -> bool {
        true
    }

    /// The FS model's kernel: recomputes every property on `graph` from
    /// `values` already reset to [`initial`](Self::initial), counting the
    /// rounds it took. Defaults to the generic Jacobi fixpoint (CC, MC);
    /// programs with a conventional static-graph kernel (frontier BFS,
    /// delta-stepping SSSP, tolerance-stopped PR) override it.
    #[allow(clippy::wrong_self_convention)] // "from scratch" is the paper's name for the model
    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &Self::Store,
        pool: &ThreadPool,
    ) -> ComputeOutcome
    where
        Self: Sized,
    {
        crate::fs::fixpoint_compute(self, graph, values, pool)
    }
}

/// The [`GatherMode::Fold`] pull behind [`VertexProgram::pull`]: `v`'s value
/// folded with every in-edge term, plus the fold's witness — the neighbor
/// whose term last strictly improved it, [`NO_PARENT`] when none improved on
/// `v`'s own value. The INC rounds record the witness as `v`'s parent.
pub(crate) fn fold_pull<P: VertexProgram + ?Sized>(
    program: &P,
    graph: &dyn GraphTopology,
    v: Node,
    values: &P::Store,
) -> (P::Value, Node) {
    let mut acc = values.load(v as usize);
    let mut witness = NO_PARENT;
    let mut fold = |src: Node, weight: f32| {
        if let Some(term) = program.term(values.load(src as usize), weight, 0) {
            let next = program.combine(acc, term);
            if next != acc {
                acc = next;
                witness = src;
            }
        }
    };
    graph.for_each_in_neighbor(v, &mut fold);
    if program.scope() == EdgeScope::Symmetric && graph.is_directed() {
        graph.for_each_out_neighbor(v, &mut fold);
    }
    (acc, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{BfsProgram, UNREACHED};
    use crate::cc::CcProgram;
    use crate::mc::McProgram;
    use crate::pr::{PrProgram, DEFAULT_FS_TOLERANCE, DEFAULT_MAX_ITERS};
    use crate::sssp::SsspProgram;
    use crate::sswp::SswpProgram;
    use saga_graph::properties::{AtomicF32Array, AtomicF64Array, AtomicU32Array};

    #[test]
    fn each_program_states_its_table_i_term_and_gather_mode() {
        let (bfs, sssp, sswp, pr) =
            (BfsProgram::new(0), SsspProgram::new(0), SswpProgram::new(0), PrProgram::new(10));
        let wide = |term: Option<u32>| term.map(f64::from);
        let narrow = |term: Option<f32>| term.map(f64::from);
        let rows = [
            ("BFS: depth + 1", wide(bfs.term(0, 1.0, 3)), Some(1.0)),
            ("BFS: depth + 1", wide(bfs.term(7, 1.0, 3)), Some(8.0)),
            ("BFS: unreached sends nothing", wide(bfs.term(UNREACHED, 1.0, 3)), None),
            ("BFS: saturates", wide(bfs.term(UNREACHED - 1, 1.0, 3)), Some(f64::from(UNREACHED))),
            ("CC: label unchanged", wide(CcProgram::new().term(5, 0.3, 9)), Some(5.0)),
            ("MC: label unchanged", wide(McProgram::new().term(5, 0.3, 9)), Some(5.0)),
            ("SSSP: path + w", narrow(sssp.term(2.0, 1.5, 4)), Some(3.5)),
            ("SSSP: infinity sends nothing", narrow(sssp.term(f32::INFINITY, 1.5, 4)), None),
            ("SSWP: edge is the bottleneck", narrow(sswp.term(0.8, 0.25, 4)), Some(0.25)),
            ("SSWP: path is the bottleneck", narrow(sswp.term(0.5, 0.9, 4)), Some(0.5)),
            ("SSWP: root passes the weight", narrow(sswp.term(f32::INFINITY, 0.75, 4)), Some(0.75)),
            ("SSWP: zero width sends nothing", narrow(sswp.term(0.0, 0.9, 4)), None),
            ("PR: rank / out-degree", pr.term(0.5, 1.0, 2), Some(0.25)),
        ];
        for (case, got, want) in rows {
            assert_eq!(got, want, "{case}");
        }
        let modes = [
            bfs.gather_mode(),
            CcProgram::new().gather_mode(),
            McProgram::new().gather_mode(),
            sssp.gather_mode(),
            sswp.gather_mode(),
            pr.gather_mode(),
        ];
        use GatherMode::{Fold, Sum};
        assert_eq!(modes, [Fold, Fold, Fold, Fold, Fold, Sum]);

        // PageRank's sum rule: the Jacobi finish, the L1 stop in truncated
        // 1e-12 units, and the sweep cap.
        let finished = pr.finish(0.25 + 0.15);
        assert!((finished - (0.15 / 10.0 + 0.85 * 0.4)).abs() < 1e-15);
        assert_eq!(pr.l1_units(0.1, 0.1 + 4.4e-13), 0, "below one unit truncates away");
        assert_eq!(pr.l1_units(0.5, 0.25), 250_000_000_000);
        let tolerance_units = (DEFAULT_FS_TOLERANCE * 1e12) as u64;
        assert!(pr.sum_converged(1, tolerance_units - 1));
        assert!(!pr.sum_converged(1, tolerance_units));
        assert!(!pr.sum_converged(DEFAULT_MAX_ITERS - 1, u64::MAX));
        assert!(pr.sum_converged(DEFAULT_MAX_ITERS, u64::MAX));
    }

    #[test]
    fn u32_store_roundtrip() {
        let s = <AtomicU32Array as ValueStore<u32>>::create(4, 7);
        assert_eq!(ValueStore::len(&s), 4);
        assert!(!ValueStore::is_empty(&s));
        assert_eq!(s.load(2), 7);
        ValueStore::store(&s, 2, 9);
        assert_eq!(s.load(2), 9);
    }

    #[test]
    fn f32_store_roundtrip() {
        let s = <AtomicF32Array as ValueStore<f32>>::create(3, f32::INFINITY);
        assert_eq!(s.load(0), f32::INFINITY);
        ValueStore::store(&s, 0, 1.5);
        assert_eq!(s.load(0), 1.5);
    }

    #[test]
    fn f64_store_roundtrip() {
        let s = <AtomicF64Array as ValueStore<f64>>::create(2, 0.5);
        assert_eq!(s.load(1), 0.5);
        ValueStore::store(&s, 1, 0.25);
        assert_eq!(s.load(1), 0.25);
    }
}
