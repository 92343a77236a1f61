//! Synthetic stand-ins for the paper's datasets (Table II / Table IV).
//!
//! The paper evaluates on four SNAP graphs (LiveJournal, Orkut,
//! wiki-topcats, wiki-Talk) and one synthetic RMAT graph. The SNAP files
//! are not redistributable here, so each profile generates a seeded
//! synthetic stream that preserves what the paper shows actually matters:
//!
//! - **directedness** (all directed except Orkut, §IV-C),
//! - the **edge/vertex ratio** of Table II,
//! - the **per-batch degree-distribution tail** of Table IV: LJ, Orkut and
//!   RMAT are *short-tailed* (per-batch max degree ~10–150 at 500K-edge
//!   batches), while Wiki has an extreme in-degree hub (4174 updates of one
//!   vertex per batch) and Talk an extreme out-degree hub (9957).
//!
//! Default sizes are laptop-scale (~1/30 of the paper); per-batch hub
//! *fractions* for Wiki/Talk are raised above the paper's exact values
//! (in-hub 12% for Wiki, out-hub 15% for Talk) because the update
//! contention that drives the paper's AS-vs-DAH flip scales with
//! `(hub edges per batch) x (hub degree)` — quadratically in stream size —
//! and would vanish at laptop scale with the paper's exact 0.8-2%
//! fractions (see DESIGN.md, *Substitutions*, and the `tail_sweep`
//! ablation, which sweeps the hub mass and locates the crossover).
//! [`DatasetProfile::with_paper_tails`] switches to the paper's exact hub
//! fractions for full-scale runs.

use crate::batching::shuffle_edges;
use crate::rmat::Rmat;
use crate::zipf::EndpointDist;
use crate::{edge_weight, Edge, EdgeOp, EdgeStream};
use saga_utils::rng::Xoshiro256PlusPlus;

/// Statistics of the *paper's* dataset (Table II), kept for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStats {
    /// Vertex count reported in Table II.
    pub vertices: u64,
    /// Edge count reported in Table II.
    pub edges: u64,
    /// Batch count at 500K-edge batches reported in Table II.
    pub batch_count: u64,
}

/// How a profile draws edges.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ProfileKind {
    /// R-MAT with the paper's parameters.
    Rmat,
    /// Independent power-law endpoints with optional hub mass.
    PowerLaw {
        out_exponent: f64,
        in_exponent: f64,
        /// Fraction of edges whose source is the out-hub vertex.
        out_hub: f64,
        /// Fraction of edges whose destination is the in-hub vertex.
        in_hub: f64,
    },
}

/// A generator profile for one of the paper's five datasets.
///
/// # Examples
///
/// ```
/// use saga_stream::profiles::DatasetProfile;
///
/// let wiki = DatasetProfile::wiki().scaled(2_000, 20_000);
/// let stream = wiki.generate(42);
/// assert_eq!(stream.edges.len(), 20_000);
/// assert!(stream.directed);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    name: &'static str,
    paper: PaperStats,
    num_nodes: usize,
    num_edges: usize,
    directed: bool,
    kind: ProfileKind,
    batch_count_target: usize,
    churn: f64,
}

impl DatasetProfile {
    /// LiveJournal-like: directed social network, short-tailed batches.
    pub fn livejournal() -> Self {
        Self {
            name: "LJ",
            paper: PaperStats {
                vertices: 4_847_571,
                edges: 68_993_773,
                batch_count: 138,
            },
            num_nodes: 50_000,
            num_edges: 700_000,
            directed: true,
            kind: ProfileKind::PowerLaw {
                out_exponent: 0.5,
                in_exponent: 0.5,
                out_hub: 0.0,
                in_hub: 0.0,
            },
            batch_count_target: 35,
            churn: 0.0,
        }
    }

    /// Orkut-like: the one undirected dataset, short-tailed batches.
    pub fn orkut() -> Self {
        Self {
            name: "Orkut",
            paper: PaperStats {
                vertices: 3_072_441,
                edges: 117_185_083,
                batch_count: 235,
            },
            num_nodes: 26_000,
            num_edges: 990_000,
            directed: false,
            kind: ProfileKind::PowerLaw {
                out_exponent: 0.5,
                in_exponent: 0.5,
                out_hub: 0.0,
                in_hub: 0.0,
            },
            batch_count_target: 40,
            churn: 0.0,
        }
    }

    /// The paper's synthetic RMAT dataset (its largest graph).
    pub fn rmat() -> Self {
        Self {
            name: "RMAT",
            paper: PaperStats {
                vertices: 32_118_308,
                edges: 500_000_000,
                batch_count: 1000,
            },
            num_nodes: 130_000,
            num_edges: 2_000_000,
            directed: true,
            kind: ProfileKind::Rmat,
            batch_count_target: 50,
            churn: 0.0,
        }
    }

    /// wiki-topcats-like: directed hyperlink graph with an extreme
    /// **in-degree** hub in every batch (Table IV: max in-degree 4174 per
    /// 500K batch vs 70 out).
    pub fn wiki() -> Self {
        Self {
            name: "Wiki",
            paper: PaperStats {
                vertices: 1_791_489,
                edges: 28_511_807,
                batch_count: 58,
            },
            num_nodes: 16_000,
            num_edges: 250_000,
            directed: true,
            kind: ProfileKind::PowerLaw {
                out_exponent: 0.5,
                in_exponent: 0.5,
                out_hub: 0.0,
                in_hub: 0.12,
            },
            batch_count_target: 15,
            churn: 0.0,
        }
    }

    /// wiki-Talk-like: directed communication graph with an extreme
    /// **out-degree** hub in every batch (Table IV: max out-degree 9957 per
    /// 500K batch vs 330 in).
    pub fn talk() -> Self {
        Self {
            name: "Talk",
            paper: PaperStats {
                vertices: 2_394_385,
                edges: 5_021_410,
                batch_count: 11,
            },
            num_nodes: 43_000,
            num_edges: 90_000,
            directed: true,
            kind: ProfileKind::PowerLaw {
                out_exponent: 0.5,
                in_exponent: 0.5,
                out_hub: 0.15,
                in_hub: 0.003,
            },
            batch_count_target: 11,
            churn: 0.0,
        }
    }

    /// All five profiles in the paper's order (Table II).
    pub fn all() -> Vec<DatasetProfile> {
        vec![
            Self::livejournal(),
            Self::orkut(),
            Self::rmat(),
            Self::wiki(),
            Self::talk(),
        ]
    }

    /// The short-tailed profiles (the paper's *STail* group, §VI).
    pub fn short_tailed() -> Vec<DatasetProfile> {
        vec![Self::livejournal(), Self::orkut(), Self::rmat()]
    }

    /// The heavy-tailed profiles (the paper's *HTail* group, §VI).
    pub fn heavy_tailed() -> Vec<DatasetProfile> {
        vec![Self::wiki(), Self::talk()]
    }

    /// Dataset name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The paper's full-scale statistics for this dataset (Table II).
    pub fn paper_stats(&self) -> PaperStats {
        self.paper
    }

    /// Vertex count of the generated stream.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Edge count of the generated stream.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the stream is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether the profile injects hub mass (Wiki/Talk).
    pub fn is_heavy_tailed(&self) -> bool {
        matches!(
            self.kind,
            ProfileKind::PowerLaw { out_hub, in_hub, .. } if out_hub > 0.005 || in_hub > 0.005
        )
    }

    /// Returns a copy resized to `num_nodes` / `num_edges` (for tests and
    /// scale sweeps). Batch-count target is preserved.
    #[must_use]
    pub fn scaled(mut self, num_nodes: usize, num_edges: usize) -> Self {
        assert!(num_nodes > 0 && num_edges > 0, "scaled sizes must be positive");
        self.num_nodes = num_nodes;
        self.num_edges = num_edges;
        self
    }

    /// Multiplies nodes and edges by `factor` (for `--scale` sweeps).
    #[must_use]
    pub fn scaled_by(self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let nodes = ((self.num_nodes as f64 * factor) as usize).max(16);
        let edges = ((self.num_edges as f64 * factor) as usize).max(16);
        self.scaled(nodes, edges)
    }

    /// Overrides the number of batches the stream should be consumed in.
    #[must_use]
    pub fn with_batch_target(mut self, batches: usize) -> Self {
        assert!(batches > 0, "batch target must be positive");
        self.batch_count_target = batches;
        self
    }

    /// Switches Wiki/Talk to the paper's *exact* per-batch hub fractions
    /// (4174/500K and 9957/500K) instead of the contrast-preserving
    /// defaults. Use for full-scale runs.
    #[must_use]
    pub fn with_paper_tails(mut self) -> Self {
        if let ProfileKind::PowerLaw {
            out_hub, in_hub, ..
        } = &mut self.kind
        {
            if *in_hub > 0.005 {
                *in_hub = 4174.0 / 500_000.0; // wiki-topcats' exact in-tail
            } else if *in_hub > 0.0 {
                *in_hub = 330.0 / 500_000.0; // wiki-Talk's exact in-tail
            }
            if *out_hub > 0.005 {
                *out_hub = 9957.0 / 500_000.0; // wiki-Talk's exact out-tail
            }
        }
        self
    }

    /// Interleaves deletions into the generated stream: after every
    /// insertion, with probability `fraction` a previously inserted edge
    /// (uniform over the live set) is deleted. The stream grows by
    /// roughly `fraction * num_edges` deletion records; batch boundaries
    /// stay uniform, so most batches mix both ops. A deletion may target
    /// an edge whose earlier insert was a duplicate — those count as
    /// `missing` in `DeleteStats`, like real churn feeds.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0.0, 1.0)`.
    #[must_use]
    pub fn with_churn(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "churn fraction must be in [0.0, 1.0)"
        );
        self.churn = fraction;
        self
    }

    /// Batch size that yields the profile's target batch count.
    pub fn suggested_batch_size(&self) -> usize {
        let total = (self.num_edges as f64 * (1.0 + self.churn)) as usize;
        (total / self.batch_count_target).max(1)
    }

    /// Generates the stream: sample edges, derive deterministic weights,
    /// and shuffle (§IV-B). With [`DatasetProfile::with_churn`] the
    /// shuffled insert stream is then threaded with deletions of
    /// previously arrived edges.
    pub fn generate(&self, seed: u64) -> EdgeStream {
        let mut edges = match self.kind {
            ProfileKind::Rmat => Rmat::paper(self.num_nodes).generate(self.num_edges, seed),
            ProfileKind::PowerLaw {
                out_exponent,
                in_exponent,
                out_hub,
                in_hub,
            } => {
                let out_dist =
                    EndpointDist::zipf(self.num_nodes, out_exponent, out_hub, seed ^ 0xA5A5);
                let in_dist =
                    EndpointDist::zipf(self.num_nodes, in_exponent, in_hub, seed ^ 0x5A5A);
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
                (0..self.num_edges)
                    .map(|_| {
                        let src = out_dist.sample(&mut rng);
                        let dst = in_dist.sample(&mut rng);
                        Edge::new(src, dst, edge_weight(src, dst, self.directed))
                    })
                    .collect()
            }
        };
        shuffle_edges(&mut edges, seed.wrapping_add(1));
        let (edges, ops) = if self.churn > 0.0 {
            self.thread_churn(edges, seed.wrapping_add(2))
        } else {
            (edges, Vec::new())
        };
        EdgeStream {
            name: self.name.to_string(),
            num_nodes: self.num_nodes,
            directed: self.directed,
            edges,
            ops,
            boundaries: Vec::new(),
            suggested_batch_size: self.suggested_batch_size(),
        }
    }

    /// Weaves seeded deletions of live edges into a shuffled insert
    /// stream (see [`DatasetProfile::with_churn`]).
    fn thread_churn(&self, inserts: Vec<Edge>, seed: u64) -> (Vec<Edge>, Vec<EdgeOp>) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let threshold = (self.churn * u64::MAX as f64) as u64;
        let mut edges = Vec::with_capacity(inserts.len() * 2);
        let mut ops = Vec::with_capacity(inserts.len() * 2);
        let mut live: Vec<Edge> = Vec::with_capacity(inserts.len());
        for edge in inserts {
            edges.push(edge);
            ops.push(EdgeOp::Insert);
            live.push(edge);
            if rng.next_u64() <= threshold && !live.is_empty() {
                let victim = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                edges.push(victim);
                ops.push(EdgeOp::Delete);
            }
        }
        (edges, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_stats::degree_stats;

    #[test]
    fn all_profiles_generate_their_advertised_sizes() {
        for profile in DatasetProfile::all() {
            let p = profile.clone().scaled(2_000, 10_000);
            let stream = p.generate(1);
            assert_eq!(stream.edges.len(), 10_000, "{}", p.name());
            assert_eq!(stream.num_nodes, 2_000);
            assert_eq!(stream.directed, p.is_directed());
            assert!(stream
                .edges
                .iter()
                .all(|e| (e.src as usize) < 2_000 && (e.dst as usize) < 2_000));
        }
    }

    #[test]
    fn only_orkut_is_undirected() {
        let flags: Vec<bool> = DatasetProfile::all()
            .iter()
            .map(|p| p.is_directed())
            .collect();
        assert_eq!(flags, vec![true, false, true, true, true]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = DatasetProfile::wiki().scaled(1_000, 5_000);
        assert_eq!(p.generate(3).edges, p.generate(3).edges);
        assert_ne!(p.generate(3).edges, p.generate(4).edges);
    }

    #[test]
    fn wiki_batches_have_an_in_degree_hub() {
        let p = DatasetProfile::wiki().scaled(4_000, 40_000);
        let stream = p.generate(7);
        let batch: Vec<Edge> = stream.edges[..10_000].to_vec();
        let stats = degree_stats(&batch, stream.num_nodes);
        // 3% in-hub mass -> ~300 updates of one vertex per 10K batch.
        assert!(stats.max_in > 200, "wiki max in {}", stats.max_in);
        assert!(stats.max_in > 4 * stats.max_out, "in {} out {}", stats.max_in, stats.max_out);
    }

    #[test]
    fn talk_batches_have_an_out_degree_hub() {
        let p = DatasetProfile::talk().scaled(4_000, 40_000);
        let stream = p.generate(7);
        let batch: Vec<Edge> = stream.edges[..10_000].to_vec();
        let stats = degree_stats(&batch, stream.num_nodes);
        assert!(stats.max_out > 350, "talk max out {}", stats.max_out);
        assert!(stats.max_out > 4 * stats.max_in, "out {} in {}", stats.max_out, stats.max_in);
    }

    #[test]
    fn livejournal_batches_are_short_tailed() {
        let p = DatasetProfile::livejournal().scaled(10_000, 40_000);
        let stream = p.generate(7);
        let batch: Vec<Edge> = stream.edges[..10_000].to_vec();
        let stats = degree_stats(&batch, stream.num_nodes);
        assert!(stats.max_in < 120, "lj max in {}", stats.max_in);
        assert!(stats.max_out < 120, "lj max out {}", stats.max_out);
    }

    #[test]
    fn heavy_tail_classification_matches_groups() {
        assert!(!DatasetProfile::livejournal().is_heavy_tailed());
        assert!(!DatasetProfile::orkut().is_heavy_tailed());
        assert!(!DatasetProfile::rmat().is_heavy_tailed());
        assert!(DatasetProfile::wiki().is_heavy_tailed());
        assert!(DatasetProfile::talk().is_heavy_tailed());
    }

    #[test]
    fn paper_tails_reduce_default_hub_mass() {
        let wiki = DatasetProfile::wiki().with_paper_tails();
        match wiki.kind {
            ProfileKind::PowerLaw { in_hub, .. } => {
                assert!((in_hub - 4174.0 / 500_000.0).abs() < 1e-12);
            }
            _ => panic!("wiki should be power-law"),
        }
    }

    #[test]
    fn suggested_batch_size_hits_target_count() {
        let p = DatasetProfile::talk().scaled(1_000, 11_000);
        let stream = p.generate(1);
        assert_eq!(stream.suggested_batch_count(), 11);
    }

    #[test]
    fn churn_threads_deletions_of_previously_inserted_edges() {
        let p = DatasetProfile::livejournal().scaled(500, 5_000).with_churn(0.3);
        let stream = p.generate(11);
        assert!(stream.has_deletions());
        assert_eq!(stream.ops.len(), stream.edges.len());
        let deletes = stream.ops.iter().filter(|o| **o == EdgeOp::Delete).count();
        let inserts = stream.ops.len() - deletes;
        assert_eq!(inserts, 5_000, "churn adds deletes, never drops inserts");
        let expected = (0.3 * 5_000.0) as usize;
        assert!(
            deletes.abs_diff(expected) < expected / 2,
            "expected ~{expected} deletes, got {deletes}"
        );
        // Every delete targets an edge inserted earlier in the stream and
        // not already deleted since.
        use std::collections::HashMap;
        let mut live: HashMap<(u32, u32), usize> = HashMap::new();
        for (edge, op) in stream.edges.iter().zip(&stream.ops) {
            let key = (edge.src, edge.dst);
            match op {
                EdgeOp::Insert => *live.entry(key).or_insert(0) += 1,
                EdgeOp::Delete => {
                    let count = live.get_mut(&key).expect("delete of never-inserted edge");
                    *count = count.checked_sub(1).expect("delete exceeded inserts");
                }
            }
        }
        // Determinism.
        assert_eq!(p.generate(11).edges, stream.edges);
        assert_eq!(p.generate(11).ops, stream.ops);
    }

    #[test]
    fn churn_keeps_the_batch_count_target() {
        let p = DatasetProfile::talk().scaled(1_000, 11_000).with_churn(0.25);
        let stream = p.generate(5);
        let batches = stream.suggested_batch_count();
        assert!(
            (10..=13).contains(&batches),
            "target 11 batches, got {batches}"
        );
    }
}
