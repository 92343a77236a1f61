//! The vertex-function abstraction (Table I of the paper).
//!
//! Every SAGA-Bench algorithm is *vertex-centric*: a vertex's property is a
//! reduction over its incoming edges (Table I), e.g.
//! `v.depth ← min_{e ∈ InEdges(v)} (e.source.depth + 1)` for BFS. The
//! [`VertexProgram`] trait captures exactly that vertex function plus the
//! triggering condition of the incremental compute model (Algorithm 1,
//! line 11); both compute engines are generic over it, which is what lets a
//! new algorithm join the benchmark by implementing one trait (§III-D).

use crate::VertexValues;
use saga_graph::properties::{AtomicF32Array, AtomicF64Array, AtomicU32Array};
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

/// Wires one property type to its atomic-array store and to its
/// [`VertexValues`] variant — the one `Vec<P::Value>` → `VertexValues`
/// conversion both engines snapshot through.
macro_rules! property_type {
    ($value:ty, $store:ident, $variant:ident) => {
        impl ValueStore<$value> for $store {
            fn create(len: usize, init: $value) -> Self {
                $store::filled(len, init)
            }
            fn load(&self, i: usize) -> $value {
                self.get(i)
            }
            fn store(&self, i: usize, value: $value) {
                self.set(i, value)
            }
            fn len(&self) -> usize {
                $store::len(self)
            }
            fn prefetch_hint(&self, i: usize) {
                self.prefetch(i);
            }
        }

        impl From<Vec<$value>> for VertexValues {
            fn from(values: Vec<$value>) -> Self {
                VertexValues::$variant(values)
            }
        }
    };
}

property_type!(u32, AtomicU32Array, U32);
property_type!(f32, AtomicF32Array, F32);
property_type!(f64, AtomicF64Array, F64);

/// A vertex-centric algorithm: one row of Table I.
///
/// The contract, shared by both compute models:
///
/// - [`initial`](Self::initial) is the property of a vertex that has not
///   been reached/computed yet (FS resets every vertex to it; INC applies
///   it to vertices appearing for the first time — Algorithm 1, lines 2–4).
/// - [`pull`](Self::pull) evaluates the reduction over the vertex's
///   incoming edges (both directions for [`EdgeScope::Symmetric`]).
/// - [`combine`](Self::combine) merges the pulled value with the vertex's
///   previous property. For the monotone algorithms this is `min`/`max` —
///   the *processing amortization* of the incremental model (previous
///   results remain valid lower/upper bounds when edges are only added).
/// - [`significant_change`](Self::significant_change) is the triggering
///   condition (Algorithm 1, line 11).
pub trait VertexProgram: Send + Sync {
    /// Property type.
    type Value: Copy + PartialEq + Send + Sync + std::fmt::Debug;
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

    /// Evaluates the vertex function: the reduction over incoming edges.
    fn pull(&self, graph: &dyn GraphTopology, v: Node, values: &Self::Store) -> Self::Value;

    /// Merges the previous property with a freshly pulled one.
    fn combine(&self, old: Self::Value, pulled: Self::Value) -> Self::Value;

    /// Whether the change from `old` to `new` is large enough to propagate
    /// to neighbors (Algorithm 1, line 11).
    fn significant_change(&self, old: Self::Value, new: Self::Value) -> bool;

    /// When `true`, an inserted edge `(u, v)` additionally seeds the
    /// out-neighbors of `u` as affected. Only PageRank needs this: a new
    /// out-edge changes `u`'s out-degree and therefore the contribution
    /// `u.rank / u.out_degree` that *every existing* out-neighbor of `u`
    /// pulls, even when `u.rank` itself does not change.
    fn affects_source_neighborhood(&self) -> bool {
        false
    }

    /// Whether `value` could have been derived from an in-neighbor holding
    /// `src_value` across an edge of weight `weight`. The deletion-repair
    /// pass (KickStarter-style) uses this to close the set of vertices
    /// whose stored property may transitively depend on a deleted edge:
    /// only derivable values can be stale, everything else is untouched.
    ///
    /// For the monotone reductions this is the exact inversion of
    /// [`pull`](Self::pull)'s per-edge term, e.g. BFS:
    /// `value == src_value + 1`.
    fn derives_from(&self, value: Self::Value, src_value: Self::Value, weight: f32) -> bool;

    /// Whether deleting edges can strand a stale property that the normal
    /// trigger rounds would never overwrite. True for the monotone
    /// min/max reductions (their [`combine`](Self::combine) only improves
    /// values, so a value depending on a removed edge survives forever);
    /// false for PageRank, whose `combine` replaces the old value — a
    /// re-pull of the affected vertices is already a full repair.
    fn needs_deletion_repair(&self) -> bool {
        true
    }

    /// The FS model's kernel: recomputes every property on `graph` from
    /// `values` already reset to [`initial`](Self::initial), returning the
    /// rounds it took. Defaults to the generic Jacobi fixpoint (CC, MC);
    /// programs with a conventional static-graph kernel (frontier BFS,
    /// delta-stepping SSSP, tolerance-stopped PR) override it.
    #[allow(clippy::wrong_self_convention)] // "from scratch" is the paper's name for the model
    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &Self::Store,
        pool: &ThreadPool,
    ) -> usize
    where
        Self: Sized,
    {
        crate::fs::fixpoint_compute(self, graph, values, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
