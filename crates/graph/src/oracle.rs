//! Reference graph for differential testing.
//!
//! [`GraphOracle`] is a deliberately slow, deliberately simple adjacency
//! model (sorted maps, sequential updates) that implements the same
//! ingest-uniquely semantics as the four production data structures. The
//! test suites (unit, property-based, and integration) stream the same
//! batches into an oracle and a [`DynamicGraph`] and require identical
//! topology.

use crate::{
    DataStructureKind, DeleteStats, DynamicGraph, Edge, GraphTopology, Node, UpdateStats, Weight,
};
use std::collections::BTreeMap;

/// A sequential reference adjacency structure.
///
/// # Examples
///
/// ```
/// use saga_graph::oracle::GraphOracle;
/// use saga_graph::Edge;
///
/// let mut oracle = GraphOracle::new(4, true);
/// oracle.insert_batch(&[Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0)]);
/// assert_eq!(oracle.num_edges(), 1);
/// assert_eq!(oracle.out_neighbors(0), vec![(1, 1.0)]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphOracle {
    capacity: usize,
    directed: bool,
    out: Vec<BTreeMap<Node, Weight>>,
    inn: Vec<BTreeMap<Node, Weight>>,
    edges: usize,
}

impl GraphOracle {
    /// Creates an empty oracle over vertex ids `0..capacity`.
    pub fn new(capacity: usize, directed: bool) -> Self {
        Self {
            capacity,
            directed,
            out: vec![BTreeMap::new(); capacity],
            inn: vec![BTreeMap::new(); capacity],
            edges: 0,
        }
    }

    /// Ingests a batch with the same uniqueness semantics as the production
    /// structures: first occurrence of an edge wins, later ones are
    /// duplicates; undirected edges are mirrored and counted once.
    pub fn insert_batch(&mut self, batch: &[Edge]) {
        let _ = self.insert_batch_stats(batch);
    }

    /// [`GraphOracle::insert_batch`] reporting the same per-batch tallies a
    /// production structure's `update_batch` returns: edges newly inserted
    /// vs. occurrences skipped as duplicates. Differential harnesses use
    /// this as the expected value for every [`UpdateStats`] a driver emits.
    pub fn insert_batch_stats(&mut self, batch: &[Edge]) -> UpdateStats {
        let mut stats = UpdateStats::default();
        for &Edge { src, dst, weight } in batch {
            let inserted = if self.directed {
                if let std::collections::btree_map::Entry::Vacant(e) =
                    self.out[src as usize].entry(dst)
                {
                    e.insert(weight);
                    self.inn[dst as usize].insert(src, weight);
                    true
                } else {
                    false
                }
            } else {
                let vacant = match self.out[src as usize].entry(dst) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(weight);
                        true
                    }
                    std::collections::btree_map::Entry::Occupied(_) => false,
                };
                if vacant {
                    self.out[dst as usize].insert(src, weight);
                }
                vacant
            };
            if inserted {
                self.edges += 1;
                stats.inserted += 1;
            } else {
                stats.duplicates += 1;
            }
        }
        stats
    }

    /// Applies one driver batch — inserts first, then deletes — exactly as
    /// `StreamDriver` does, returning both phases' expected tallies.
    pub fn apply_batch(&mut self, inserts: &[Edge], deletes: &[Edge]) -> (UpdateStats, DeleteStats) {
        let ins = self.insert_batch_stats(inserts);
        let del = self.delete_batch(deletes);
        (ins, del)
    }

    /// The current logical edge set, as `(src, dst, weight)` triples sorted
    /// by `(src, dst)` — one row per stored direction for directed graphs,
    /// one per unordered pair for undirected ones (the `src <= dst`
    /// orientation). Suitable for [`crate::csr::Csr::from_edges`].
    pub fn edge_list(&self) -> Vec<(Node, Node, Weight)> {
        let mut out = Vec::with_capacity(self.edges);
        for v in 0..self.capacity as Node {
            for (&n, &w) in &self.out[v as usize] {
                if self.directed || v <= n {
                    out.push((v, n, w));
                }
            }
        }
        out
    }

    /// Deletes a batch with the same semantics as [`DeletableGraph`]:
    /// present edges are removed (both directions for undirected graphs)
    /// and counted in [`DeleteStats::removed`]; absent ones — including
    /// repeats of an edge already removed earlier in the same batch — are
    /// counted in [`DeleteStats::missing`].
    ///
    /// [`DeletableGraph`]: crate::DeletableGraph
    pub fn delete_batch(&mut self, batch: &[Edge]) -> DeleteStats {
        let mut stats = DeleteStats::default();
        for &Edge { src, dst, .. } in batch {
            let removed = if self.directed {
                if self.out[src as usize].remove(&dst).is_some() {
                    self.inn[dst as usize].remove(&src);
                    true
                } else {
                    false
                }
            } else if self.out[src as usize].remove(&dst).is_some() {
                if src != dst {
                    self.out[dst as usize].remove(&src);
                }
                true
            } else {
                false
            };
            if removed {
                self.edges -= 1;
                stats.removed += 1;
            } else {
                stats.missing += 1;
            }
        }
        stats
    }

    /// Number of logical edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Number of vertices.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Out-neighbors of `v`, sorted by id.
    pub fn out_neighbors(&self, v: Node) -> Vec<(Node, Weight)> {
        self.out[v as usize].iter().map(|(&n, &w)| (n, w)).collect()
    }

    /// In-neighbors of `v`, sorted by id.
    pub fn in_neighbors(&self, v: Node) -> Vec<(Node, Weight)> {
        if self.directed {
            self.inn[v as usize].iter().map(|(&n, &w)| (n, w)).collect()
        } else {
            self.out_neighbors(v)
        }
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: Node) -> usize {
        self.out[v as usize].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: Node) -> usize {
        if self.directed {
            self.inn[v as usize].len()
        } else {
            self.out_degree(v)
        }
    }

    /// Asserts that `graph` stores exactly the same topology.
    ///
    /// Weights are compared only when `check_weights` is set: when a batch
    /// carries the same edge twice with different weights, which concurrent
    /// insert wins is timing-dependent, so weight equality is only
    /// meaningful for streams with deterministic per-edge weights (the
    /// generators in `saga-stream` guarantee this).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first divergence.
    pub fn assert_matches(&self, graph: &dyn DynamicGraph, check_weights: bool) {
        if let Some(diff) = self.diff(graph, check_weights) {
            panic!("{diff}");
        }
    }

    /// Non-panicking topology comparison: returns a description of the
    /// first divergence between `graph` and this oracle, or `None` when the
    /// topologies agree. The differential fuzzer uses this so a divergence
    /// becomes a shrinkable test failure rather than an immediate panic.
    pub fn diff(&self, graph: &dyn DynamicGraph, check_weights: bool) -> Option<String> {
        self.diff_topology(graph.kind(), graph, check_weights)
    }

    /// [`diff`](Self::diff) for any topology — a frozen view, a snapshot —
    /// reported under `kind`'s name.
    pub fn diff_topology(
        &self,
        kind: DataStructureKind,
        graph: &dyn GraphTopology,
        check_weights: bool,
    ) -> Option<String> {
        if graph.capacity() != self.capacity {
            return Some(format!(
                "capacity mismatch on {kind:?}: graph {} vs oracle {}",
                graph.capacity(),
                self.capacity
            ));
        }
        if graph.num_edges() != self.edges {
            return Some(format!(
                "edge count mismatch on {kind:?}: graph {} vs oracle {}",
                graph.num_edges(),
                self.edges
            ));
        }
        for v in 0..self.capacity as Node {
            let mut got_out = graph.out_neighbors(v);
            got_out.sort_by_key(|&(n, _)| n);
            let want_out = self.out_neighbors(v);
            if let Some(d) = compare_lists(kind, v, "out", &got_out, &want_out, check_weights) {
                return Some(d);
            }
            let mut got_in = graph.in_neighbors(v);
            got_in.sort_by_key(|&(n, _)| n);
            let want_in = self.in_neighbors(v);
            if let Some(d) = compare_lists(kind, v, "in", &got_in, &want_in, check_weights) {
                return Some(d);
            }
            if graph.out_degree(v) != want_out.len() {
                return Some(format!(
                    "out_degree({v}) mismatch on {kind:?}: graph {} vs oracle {}",
                    graph.out_degree(v),
                    want_out.len()
                ));
            }
            if graph.in_degree(v) != want_in.len() {
                return Some(format!(
                    "in_degree({v}) mismatch on {kind:?}: graph {} vs oracle {}",
                    graph.in_degree(v),
                    want_in.len()
                ));
            }
        }
        None
    }
}

fn compare_lists(
    kind: DataStructureKind,
    v: Node,
    dir: &str,
    got: &[(Node, Weight)],
    want: &[(Node, Weight)],
    check_weights: bool,
) -> Option<String> {
    let got_ids: Vec<Node> = got.iter().map(|&(n, _)| n).collect();
    let want_ids: Vec<Node> = want.iter().map(|&(n, _)| n).collect();
    if got_ids != want_ids {
        return Some(format!(
            "{dir}-neighbors of {v} mismatch on {kind:?}: graph {got_ids:?} vs oracle {want_ids:?}"
        ));
    }
    if check_weights {
        for (&(n, gw), &(_, ww)) in got.iter().zip(want.iter()) {
            if gw != ww {
                return Some(format!(
                    "weight of {dir}-edge ({v}, {n}) mismatch on {kind:?}: graph {gw} vs oracle {ww}"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_graph;
    use saga_utils::parallel::ThreadPool;

    #[test]
    fn oracle_dedups_directed() {
        let mut o = GraphOracle::new(3, true);
        o.insert_batch(&[Edge::new(0, 1, 1.0), Edge::new(0, 1, 2.0), Edge::new(1, 0, 3.0)]);
        assert_eq!(o.num_edges(), 2);
        assert_eq!(o.out_neighbors(0), vec![(1, 1.0)]);
        assert_eq!(o.in_neighbors(0), vec![(1, 3.0)]);
    }

    #[test]
    fn oracle_mirrors_undirected() {
        let mut o = GraphOracle::new(3, false);
        o.insert_batch(&[Edge::new(0, 2, 1.0), Edge::new(2, 0, 9.0)]);
        assert_eq!(o.num_edges(), 1);
        assert_eq!(o.out_neighbors(0), vec![(2, 1.0)]);
        assert_eq!(o.out_neighbors(2), vec![(0, 1.0)]);
        assert_eq!(o.in_degree(0), 1);
    }

    #[test]
    fn oracle_delete_stats_count_removed_and_missing() {
        let mut o = GraphOracle::new(4, true);
        o.insert_batch(&[Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)]);
        // One present edge deleted twice in the batch: removed once,
        // missing once; one never-present edge: missing.
        let stats = o.delete_batch(&[
            Edge::new(0, 1, 1.0),
            Edge::new(0, 1, 1.0),
            Edge::new(3, 0, 1.0),
        ]);
        assert_eq!((stats.removed, stats.missing), (1, 2));
        assert_eq!(o.num_edges(), 1);
        // Directed graphs do not accept reversed endpoints.
        let stats = o.delete_batch(&[Edge::new(2, 1, 2.0)]);
        assert_eq!((stats.removed, stats.missing), (0, 1));
    }

    #[test]
    fn oracle_undirected_delete_accepts_either_orientation() {
        let mut o = GraphOracle::new(3, false);
        o.insert_batch(&[Edge::new(0, 2, 1.0)]);
        let stats = o.delete_batch(&[Edge::new(2, 0, 1.0)]);
        assert_eq!((stats.removed, stats.missing), (1, 0));
        assert_eq!(o.num_edges(), 0);
        assert!(o.out_neighbors(0).is_empty());
        assert!(o.out_neighbors(2).is_empty());
    }

    #[test]
    fn all_structures_match_oracle_on_a_small_stream() {
        let pool = ThreadPool::new(4);
        let batches: Vec<Vec<Edge>> = vec![
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), Edge::new(0, 1, 5.0)],
            vec![Edge::new(2, 0, 3.0), Edge::new(3, 3, 4.0), Edge::new(1, 2, 2.0)],
            (0..50).map(|i| Edge::new(4, i % 5, (i % 7) as Weight)).collect(),
        ];
        for directed in [true, false] {
            for kind in DataStructureKind::ALL {
                let g = build_graph(kind, 5, directed, pool.threads());
                let mut oracle = GraphOracle::new(5, directed);
                for batch in &batches {
                    g.update_batch(batch, &pool);
                    oracle.insert_batch(batch);
                }
                // Weights are deterministic per (src, dst) in these batches
                // except the duplicate (0,1); skip weight checks there.
                oracle.assert_matches(g.as_ref(), false);
            }
        }
    }
}
