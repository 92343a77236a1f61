//! Discrete power-law endpoint samplers.
//!
//! The SNAP datasets of the paper (Table II) cannot be redistributed with
//! this repository, so `saga-stream` substitutes seeded synthetic
//! generators whose *per-batch degree distribution* — the property the
//! paper shows drives every software-level finding (§V-B) — matches each
//! dataset's shape. Endpoints are drawn from a Zipf distribution via a
//! Walker alias table (exact, O(1) per sample), optionally mixed with
//! explicit *hub mass*: a fixed probability of hitting a designated hub
//! vertex, which is what makes wiki-topcats (in-degree) and wiki-Talk
//! (out-degree) heavy-tailed in every batch (Table IV).

use saga_utils::rng::Xoshiro256PlusPlus;

use crate::Node;

/// Walker alias table for O(1) sampling from an arbitrary discrete
/// distribution.
///
/// # Examples
///
/// ```
/// use saga_stream::zipf::AliasTable;
/// use saga_utils::rng::Xoshiro256PlusPlus;
///
/// let table = AliasTable::new(&[1.0, 1.0, 2.0]);
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let x = table.sample(&mut rng);
/// assert!(x < 3);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table weights must not all be zero");
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers are probability-1 slots.
        for &s in small.iter().chain(large.iter()) {
            prob[s as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no outcomes.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome.
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        let i = (rng.next_u64() % self.prob.len() as u64) as usize;
        let coin = rng.next_f64();
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// An endpoint distribution over `0..n` vertices: a Zipf body plus optional
/// hub mass.
#[derive(Debug, Clone)]
pub struct EndpointDist {
    table: AliasTable,
    /// Rank → vertex-id permutation (decorrelates in- and out-hubs).
    permutation: Vec<Node>,
    /// Probability of redirecting a sample to the hub vertex.
    hub_mass: f64,
    hub: Node,
}

impl EndpointDist {
    /// Builds a Zipf(`exponent`) distribution over `n` vertices, permuted
    /// by `perm_seed`, with `hub_mass` probability concentrated on a single
    /// hub vertex.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hub_mass` is outside `[0, 1)`.
    pub fn zipf(n: usize, exponent: f64, hub_mass: f64, perm_seed: u64) -> Self {
        assert!(n > 0, "endpoint distribution needs at least one vertex");
        assert!((0.0..1.0).contains(&hub_mass), "hub mass must be in [0, 1)");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).collect();
        let table = AliasTable::new(&weights);
        let permutation = permutation(n, perm_seed);
        let hub = permutation[0];
        Self {
            table,
            permutation,
            hub_mass,
            hub,
        }
    }

    /// A uniform distribution over `n` vertices.
    pub fn uniform(n: usize, perm_seed: u64) -> Self {
        Self::zipf(n, 0.0, 0.0, perm_seed)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// Whether the distribution covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.permutation.is_empty()
    }

    /// The designated hub vertex (receives the hub mass, and is also the
    /// most likely Zipf outcome).
    pub fn hub(&self) -> Node {
        self.hub
    }

    /// Draws one endpoint.
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> Node {
        if self.hub_mass > 0.0 && rng.next_f64() < self.hub_mass {
            return self.hub;
        }
        self.permutation[self.table.sample(rng)]
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<Node> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut perm: Vec<Node> = (0..n as Node).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    #[test]
    fn alias_table_matches_weights() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]);
        let mut counts = [0usize; 3];
        let mut r = rng(7);
        let n = 100_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn alias_table_single_outcome() {
        let table = AliasTable::new(&[3.0]);
        let mut r = rng(1);
        for _ in 0..10 {
            assert_eq!(table.sample(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn alias_table_empty_panics() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(1000, 42);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as Node));
        // And actually permutes.
        assert_ne!(p, sorted);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let d = EndpointDist::zipf(1000, 0.8, 0.0, 3);
        let mut counts = vec![0usize; 1000];
        let mut r = rng(5);
        for _ in 0..50_000 {
            counts[d.sample(&mut r) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 500, "zipf head should be hot, got {max}");
        assert!(nonzero > 300, "zipf tail should be broad, got {nonzero}");
        // Determinism across fresh instances.
        let d2 = EndpointDist::zipf(1000, 0.8, 0.0, 3);
        let (mut r1, mut r2) = (rng(9), rng(9));
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r1), d2.sample(&mut r2));
        }
    }

    #[test]
    fn hub_mass_concentrates_on_one_vertex() {
        let d = EndpointDist::zipf(10_000, 0.5, 0.2, 11);
        let mut r = rng(13);
        let n = 20_000;
        let hits = (0..n).filter(|_| d.sample(&mut r) == d.hub()).count();
        let frac = hits as f64 / n as f64;
        assert!(frac > 0.2, "hub fraction {frac} should exceed the mass");
        assert!(frac < 0.3, "hub fraction {frac} unexpectedly large");
    }

    #[test]
    fn uniform_covers_everything() {
        let d = EndpointDist::uniform(50, 1);
        let mut r = rng(2);
        let mut seen = [false; 50];
        for _ in 0..5000 {
            seen[d.sample(&mut r) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
