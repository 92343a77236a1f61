//! Core-count scaling curves (Fig. 9a).
//!
//! The paper sweeps physical core counts from 4 to 28 (threads pinned, SMT
//! 2) and reports the performance of update and compute phases normalized
//! to the smallest configuration, observing that the update phase's curve
//! flattens much earlier. A [`ScalingCurve`] holds one phase's seconds per
//! thread count and derives what the paper quotes from it: speedups,
//! step-to-step improvements and the flattening point. `saga-bench arch`
//! fills it with *modeled* seconds — each point is a traced run at that
//! thread count replayed on the paper's machine model — not with this
//! host's wall clock.

/// One scaling curve: thread counts and a phase's seconds at each.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCurve {
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// Measured seconds per thread count (same order).
    pub seconds: Vec<f64>,
}

impl ScalingCurve {
    /// Speedup relative to the first (smallest) configuration.
    pub fn speedups(&self) -> Vec<f64> {
        let base = self.seconds.first().copied().unwrap_or(1.0);
        self.seconds.iter().map(|&s| base / s).collect()
    }

    /// Incremental improvement between successive configurations, in
    /// percent — the paper quotes e.g. "52% (from 4 to 8 cores)".
    pub fn incremental_improvements(&self) -> Vec<f64> {
        self.seconds
            .windows(2)
            .map(|w| (w[0] / w[1] - 1.0) * 100.0)
            .collect()
    }

    /// The thread count after which the incremental improvement stays
    /// below `percent` — where the curve "flattens".
    pub fn flattening_point(&self, percent: f64) -> usize {
        let improvements = self.incremental_improvements();
        for (i, _imp) in improvements.iter().enumerate() {
            if improvements[i..].iter().all(|&x| x < percent) {
                return self.threads[i];
            }
        }
        *self.threads.last().unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_are_relative_to_first() {
        let curve = ScalingCurve {
            threads: vec![1, 2, 4],
            seconds: vec![4.0, 2.0, 1.0],
        };
        assert_eq!(curve.speedups(), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn incremental_improvements_match_paper_phrasing() {
        let curve = ScalingCurve {
            threads: vec![4, 8, 12],
            seconds: vec![1.52, 1.0, 0.855],
        };
        let imp = curve.incremental_improvements();
        assert!((imp[0] - 52.0).abs() < 0.5);
        assert!((imp[1] - 17.0).abs() < 0.5);
    }

    #[test]
    fn flattening_point_detects_plateau() {
        let curve = ScalingCurve {
            threads: vec![1, 2, 4, 8],
            seconds: vec![8.0, 4.0, 3.9, 3.85],
        };
        // 100% improvement 1->2, then ~2.5% and ~1.3%: flattens at 2.
        assert_eq!(curve.flattening_point(10.0), 2);
        let steep = ScalingCurve {
            threads: vec![1, 2, 4],
            seconds: vec![8.0, 4.0, 2.0],
        };
        assert_eq!(steep.flattening_point(10.0), 4);
    }
}
