//! Message-passing adaptation of the vertex programs for the BSP layer.
//!
//! The serial engines evaluate Table I's vertex functions by *pulling*: a
//! vertex walks its in-edges and reads each source's property directly.
//! The sharded BSP engine (`saga-bsp`) cannot read remote shards' property
//! arrays — that cross-shard traffic is exactly what it exists to batch —
//! so each program is re-expressed in *push* form: the per-edge term of
//! the pull reduction becomes an explicit [`message`](MessageProgram::message)
//! computed on the **source** shard and delivered to the destination at
//! the next superstep barrier.
//!
//! The equivalence is mechanical. Every pull in this suite has the shape
//! `reduce_{e ∈ InEdges(v)} term(src.value, e.weight)`; the message *is*
//! `term`, and the destination folds it in with the program's existing
//! [`combine`](crate::program::VertexProgram::combine)
//! ([`GatherMode::Fold`]). PageRank is the one non-fold program — its
//! reduction is a sum re-evaluated from zero each iteration — so it
//! gathers under [`GatherMode::Sum`] with an explicit zero/add/finish
//! triple. That is a true Jacobi sweep (every value advances from the
//! previous superstep's), where [`crate::pr::pagerank_from_scratch`]
//! updates in place (Gauss–Seidel-like); damping, L1-delta stop and
//! iteration cap are the same and both reach the same fixed point
//! (DESIGN §12, "Known approximations").

use crate::bfs::{BfsProgram, UNREACHED};
use crate::cc::CcProgram;
use crate::mc::McProgram;
use crate::pr::PrProgram;
use crate::program::VertexProgram;
use crate::sssp::SsspProgram;
use crate::sswp::SswpProgram;

/// How a destination vertex absorbs the messages addressed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherMode {
    /// Fold each message into the stored value with
    /// [`VertexProgram::combine`]; a vertex whose value passes
    /// [`VertexProgram::significant_change`] re-scatters next superstep.
    /// The monotone reductions (BFS, CC, MC, SSSP, SSWP) gather this way.
    Fold,
    /// Re-evaluate the value from an explicit zero each superstep:
    /// `new = finish(Σ messages)`, every vertex active every superstep,
    /// terminated by the L1-delta tolerance or the superstep cap.
    /// PageRank's Jacobi iteration gathers this way.
    Sum,
}

/// A [`VertexProgram`] whose vertex function is also available in push
/// (message) form — the contract the `saga-bsp` superstep engine runs.
pub trait MessageProgram: VertexProgram {
    /// How destinations absorb this program's messages.
    fn gather_mode(&self) -> GatherMode {
        GatherMode::Fold
    }

    /// The per-edge term of the vertex function, computed source-side:
    /// what a source holding `value` contributes across an out-edge of
    /// `weight`, given the source's current `out_degree`. `None` means the
    /// contribution cannot improve any destination (e.g. an unreached BFS
    /// source) and no message is sent.
    fn message(&self, value: Self::Value, weight: f32, out_degree: usize) -> Option<Self::Value>;

    /// [`GatherMode::Sum`] only: the additive identity the gather starts
    /// from.
    fn zero(&self) -> Self::Value {
        unimplemented!("zero() is only defined for GatherMode::Sum programs")
    }

    /// [`GatherMode::Sum`] only: folds one message into the accumulator.
    fn add(&self, _acc: Self::Value, _msg: Self::Value) -> Self::Value {
        unimplemented!("add() is only defined for GatherMode::Sum programs")
    }

    /// [`GatherMode::Sum`] only: maps the finished accumulator to the
    /// vertex's new value.
    fn finish(&self, _acc: Self::Value) -> Self::Value {
        unimplemented!("finish() is only defined for GatherMode::Sum programs")
    }

    /// [`GatherMode::Sum`] only: the contribution of one vertex's change
    /// to the global L1 termination delta.
    fn delta_magnitude(&self, _old: Self::Value, _new: Self::Value) -> f64 {
        0.0
    }

    /// [`GatherMode::Sum`] only: stop when the summed
    /// [`delta_magnitude`](Self::delta_magnitude) of a superstep drops
    /// below this.
    fn sum_tolerance(&self) -> f64 {
        0.0
    }

    /// Upper bound on supersteps (a safety cap for [`GatherMode::Sum`];
    /// the fold-mode programs terminate by message exhaustion).
    fn max_supersteps(&self) -> usize {
        usize::MAX
    }
}

impl MessageProgram for BfsProgram {
    fn message(&self, value: u32, _weight: f32, _out_degree: usize) -> Option<u32> {
        // Pull term: `src.depth + 1` (saturating). An unreached source
        // contributes UNREACHED to the min — i.e. nothing.
        (value != UNREACHED).then(|| value.saturating_add(1))
    }
}

impl MessageProgram for CcProgram {
    fn message(&self, value: u32, _weight: f32, _out_degree: usize) -> Option<u32> {
        // Labels travel unchanged; `combine` takes the min at the
        // destination. (Symmetric scope: the engine scatters along both
        // edge directions, matching the pull over `Edges(v)`.)
        Some(value)
    }
}

impl MessageProgram for McProgram {
    fn message(&self, value: u32, _weight: f32, _out_degree: usize) -> Option<u32> {
        Some(value)
    }
}

impl MessageProgram for SsspProgram {
    fn message(&self, value: f32, weight: f32, _out_degree: usize) -> Option<f32> {
        // Pull term: `src.path + w`. An infinite source can't shorten
        // anything.
        value.is_finite().then_some(value + weight)
    }
}

impl MessageProgram for SswpProgram {
    fn message(&self, value: f32, weight: f32, _out_degree: usize) -> Option<f32> {
        // Pull term: `min(src.path, w)` under a max reduction. A zero
        // (unreached) source's term is 0, which never beats the
        // destination's stored value (≥ 0).
        (value > 0.0).then(|| value.min(weight))
    }
}

impl MessageProgram for PrProgram {
    fn gather_mode(&self) -> GatherMode {
        GatherMode::Sum
    }

    fn message(&self, value: f64, _weight: f32, out_degree: usize) -> Option<f64> {
        debug_assert!(out_degree > 0, "a scattering source has an out-edge");
        Some(value / out_degree as f64)
    }

    fn zero(&self) -> f64 {
        0.0
    }

    fn add(&self, acc: f64, msg: f64) -> f64 {
        acc + msg
    }

    fn finish(&self, acc: f64) -> f64 {
        (1.0 - self.damping()) / self.num_nodes() as f64 + self.damping() * acc
    }

    fn delta_magnitude(&self, old: f64, new: f64) -> f64 {
        // Mirror `pagerank_from_scratch`'s fixed-point accumulation: the
        // serial kernel rounds each |Δ| down to nanounits before summing,
        // so the BSP sweep must too for bit-identical stopping decisions.
        ((new - old).abs() * 1e12) as u64 as f64 / 1e12
    }

    fn sum_tolerance(&self) -> f64 {
        self.fs_tolerance()
    }

    fn max_supersteps(&self) -> usize {
        self.max_iters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_message_is_the_pull_term() {
        let p = BfsProgram::new(0);
        assert_eq!(p.message(0, 1.0, 3), Some(1));
        assert_eq!(p.message(7, 1.0, 3), Some(8));
        assert_eq!(p.message(UNREACHED, 1.0, 3), None, "unreached sends nothing");
        assert_eq!(p.message(UNREACHED - 1, 1.0, 3), Some(UNREACHED - 1 + 1));
        assert_eq!(p.gather_mode(), GatherMode::Fold);
    }

    #[test]
    fn label_programs_forward_values_unchanged() {
        assert_eq!(CcProgram::new().message(5, 0.3, 9), Some(5));
        assert_eq!(McProgram::new().message(5, 0.3, 9), Some(5));
    }

    #[test]
    fn sssp_message_adds_the_weight_and_skips_infinity() {
        let p = SsspProgram::new(0);
        assert_eq!(p.message(2.0, 1.5, 4), Some(3.5));
        assert_eq!(p.message(f32::INFINITY, 1.5, 4), None);
    }

    #[test]
    fn sswp_message_is_the_bottleneck_and_skips_unreached() {
        let p = SswpProgram::new(0);
        assert_eq!(p.message(0.8, 0.3, 4), Some(0.3), "edge is the bottleneck");
        assert_eq!(p.message(0.2, 0.9, 4), Some(0.2), "path is the bottleneck");
        assert_eq!(p.message(f32::INFINITY, 0.9, 4), Some(0.9), "root passes the weight");
        assert_eq!(p.message(0.0, 0.9, 4), None, "unreached sends nothing");
    }

    #[test]
    fn pr_gathers_by_sum_with_the_jacobi_finish() {
        let p = PrProgram::new(10);
        assert_eq!(p.gather_mode(), GatherMode::Sum);
        assert_eq!(p.message(0.5, 1.0, 2), Some(0.25));
        let acc = p.add(p.add(p.zero(), 0.25), 0.15);
        let finished = p.finish(acc);
        assert!((finished - (0.15 / 10.0 + 0.85 * 0.4)).abs() < 1e-15);
        assert_eq!(p.max_supersteps(), crate::pr::DEFAULT_MAX_ITERS);
        assert_eq!(p.sum_tolerance(), crate::pr::DEFAULT_FS_TOLERANCE);
        // Same nanounit rounding as the serial FS kernel.
        assert_eq!(p.delta_magnitude(0.1, 0.1 + 4.4e-13), 0.0);
        assert!(p.delta_magnitude(0.1, 0.2) > 0.099);
    }

    #[test]
    fn fold_programs_report_fold_mode() {
        assert_eq!(SsspProgram::new(0).gather_mode(), GatherMode::Fold);
        assert_eq!(SswpProgram::new(0).gather_mode(), GatherMode::Fold);
        assert_eq!(CcProgram::new().gather_mode(), GatherMode::Fold);
        assert_eq!(McProgram::new().gather_mode(), GatherMode::Fold);
    }
}
