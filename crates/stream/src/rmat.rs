//! R-MAT recursive-matrix graph generator (Chakrabarti et al., SDM 2004).
//!
//! The paper's fifth dataset is a synthetic RMAT graph with parameters
//! `a = 0.55, b = 0.15, c = 0.15, d = 0.25` (§IV-C); this module implements
//! the generator itself, so the RMAT rows of every table and figure are
//! produced by exactly the paper's workload.

use saga_utils::rng::Xoshiro256PlusPlus;

use crate::{weight_for, Edge, Node};

/// R-MAT generator configuration.
///
/// # Examples
///
/// ```
/// use saga_stream::rmat::Rmat;
///
/// let edges = Rmat::paper(1 << 10).generate(5_000, 42);
/// assert_eq!(edges.len(), 5_000);
/// assert!(edges.iter().all(|e| (e.src as usize) < (1 << 10)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Rmat {
    num_nodes: usize,
    a: f64,
    b: f64,
    c: f64,
    /// `d` is implied: `1 - a - b - c`.
    levels: u32,
}

impl Rmat {
    /// Creates a generator over `num_nodes` vertices (rounded up to a power
    /// of two internally; emitted ids are clamped into range by rejection).
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero or the probabilities are invalid.
    pub fn new(num_nodes: usize, a: f64, b: f64, c: f64) -> Self {
        assert!(num_nodes > 0, "rmat needs at least one vertex");
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0, "invalid rmat quadrant probabilities");
        assert!(a + b + c < 1.0 + 1e-9, "rmat quadrant probabilities exceed 1");
        let levels = (num_nodes.next_power_of_two()).trailing_zeros().max(1);
        Self {
            num_nodes,
            a,
            b,
            c,
            levels,
        }
    }

    /// The paper's parameters: `a=0.55, b=0.15, c=0.15, d=0.25`.
    pub fn paper(num_nodes: usize) -> Self {
        Self::new(num_nodes, 0.55, 0.15, 0.15)
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Samples one edge by recursive quadrant descent.
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> (Node, Node) {
        loop {
            let mut src = 0usize;
            let mut dst = 0usize;
            for _ in 0..self.levels {
                src <<= 1;
                dst <<= 1;
                let r = rng.next_f64();
                if r < self.a {
                    // top-left
                } else if r < self.a + self.b {
                    dst |= 1;
                } else if r < self.a + self.b + self.c {
                    src |= 1;
                } else {
                    src |= 1;
                    dst |= 1;
                }
            }
            if src < self.num_nodes && dst < self.num_nodes {
                return (src as Node, dst as Node);
            }
            // Rejected: the padded power-of-two grid overshot the vertex
            // count; resample.
        }
    }

    /// Generates `num_edges` edges with deterministic per-pair weights.
    pub fn generate(&self, num_edges: usize, seed: u64) -> Vec<Edge> {
        let mut out = Vec::with_capacity(num_edges);
        self.generate_into(num_edges, seed, &mut out);
        out
    }

    /// Appends `num_edges` edges to `out` without allocating an
    /// intermediate vector — the chunked entry point for callers that
    /// stream generation through a reusable batch buffer instead of
    /// materializing the whole edge list. Produces exactly the edges
    /// [`generate`](Self::generate) would for the same `seed`.
    pub fn generate_into(&self, num_edges: usize, seed: u64, out: &mut Vec<Edge>) {
        out.reserve(num_edges);
        out.extend(self.edges(seed).take(num_edges));
    }

    /// An unbounded edge iterator seeded at `seed`: pull as many edges as
    /// needed, in arbitrary chunk sizes, without materializing anything.
    /// The first `k` items equal `generate(k, seed)` for every `k` — the
    /// iterator owns the RNG, so chunk boundaries cannot perturb the
    /// sequence.
    pub fn edges(&self, seed: u64) -> RmatIter {
        RmatIter {
            rmat: *self,
            rng: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }
}

/// Streaming R-MAT edge iterator (see [`Rmat::edges`]). Infinite: bound it
/// with [`Iterator::take`].
#[derive(Debug, Clone)]
pub struct RmatIter {
    rmat: Rmat,
    rng: Xoshiro256PlusPlus,
}

impl Iterator for RmatIter {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        let (src, dst) = self.rmat.sample(&mut self.rng);
        Some(Edge::new(src, dst, weight_for(src, dst)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_in_range() {
        let g = Rmat::paper(1000); // non-power-of-two: exercises rejection
        let edges = g.generate(20_000, 1);
        assert_eq!(edges.len(), 20_000);
        assert!(edges.iter().all(|e| (e.src as usize) < 1000 && (e.dst as usize) < 1000));
    }

    #[test]
    fn is_deterministic_per_seed() {
        let g = Rmat::paper(1 << 12);
        assert_eq!(g.generate(1000, 7), g.generate(1000, 7));
        assert_ne!(g.generate(1000, 7), g.generate(1000, 8));
    }

    #[test]
    fn paper_parameters_skew_toward_low_ids() {
        let g = Rmat::paper(1 << 14);
        let edges = g.generate(50_000, 3);
        let low_half = edges
            .iter()
            .filter(|e| (e.src as usize) < (1 << 13))
            .count();
        // a + b = 0.70 of the mass goes to the low-src half.
        let frac = low_half as f64 / edges.len() as f64;
        assert!((0.65..0.75).contains(&frac), "low-src fraction {frac}");
    }

    #[test]
    fn duplicate_pairs_carry_identical_weights() {
        let g = Rmat::paper(64); // tiny id space forces duplicate pairs
        let edges = g.generate(10_000, 9);
        use std::collections::HashMap;
        let mut seen: HashMap<(Node, Node), f32> = HashMap::new();
        for e in &edges {
            let w = seen.entry((e.src, e.dst)).or_insert(e.weight);
            assert_eq!(*w, e.weight, "weight must be a function of (src, dst)");
        }
    }

    #[test]
    fn chunked_generation_matches_full_materialization() {
        let g = Rmat::paper(1000);
        let full = g.generate(5_000, 21);

        // generate_into appends, and pulls from the same RNG sequence.
        let mut appended = vec![Edge::new(7, 7, 0.5)];
        g.generate_into(5_000, 21, &mut appended);
        assert_eq!(appended.len(), 5_001);
        assert_eq!(&appended[1..], &full[..]);

        // Arbitrary chunk boundaries over one iterator concatenate to the
        // same sequence: the iterator owns the RNG.
        let mut iter = g.edges(21);
        let mut chunked = Vec::new();
        for chunk in [1usize, 999, 2500, 1500] {
            chunked.extend(iter.by_ref().take(chunk));
        }
        assert_eq!(chunked, full);
    }

    #[test]
    fn rejection_sampling_matches_conditioned_padded_grid() {
        // Rejection on the padded 1024-grid is exactly conditioning: the
        // accepted-edge distribution of paper(1000) must match paper(1024)
        // edges filtered to both endpoints < 1000. Compare the low-src-half
        // mass, which is where the a+b skew concentrates.
        let n = 1000usize;
        let rejecting = Rmat::paper(n).generate(60_000, 5);
        let padded: Vec<Edge> = Rmat::paper(1024)
            .edges(5)
            .filter(|e| (e.src as usize) < n && (e.dst as usize) < n)
            .take(60_000)
            .collect();

        let low_frac = |edges: &[Edge]| {
            edges.iter().filter(|e| (e.src as usize) < n / 2).count() as f64 / edges.len() as f64
        };
        let a = low_frac(&rejecting);
        let b = low_frac(&padded);
        assert!(
            (a - b).abs() < 0.02,
            "rejection skewed the accepted distribution: {a} vs conditioned {b}"
        );
        // And the skew itself still tracks a + b = 0.70 (ids ≥ 512 are
        // pruned from the top half, so the low-512 mass only grows).
        assert!(a > 0.65, "low-src fraction {a} lost the R-MAT skew");
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn zero_nodes_panics() {
        let _ = Rmat::paper(0);
    }
}
