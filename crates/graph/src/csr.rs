//! Compressed Sparse Row snapshots.
//!
//! Static graph analytics builds the whole graph once in CSR and never
//! changes it (§II-A, Fig. 2a). Streaming systems cannot afford that on the
//! critical path, but a CSR *snapshot* of a dynamic structure is still
//! useful as (1) the reference substrate the test suite validates the
//! dynamic structures and algorithms against, and (2) the static-baseline
//! layout for comparing traversal costs.

use crate::{GraphTopology, Node, Weight};
use saga_utils::probe;

/// An immutable CSR image of a graph's out- and in-adjacency.
///
/// # Examples
///
/// ```
/// use saga_graph::{build_graph, csr::Csr, DataStructureKind, Edge};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(1);
/// let g = build_graph(DataStructureKind::AdjacencyShared, 3, true, 1);
/// g.update_batch(&[Edge::new(0, 1, 1.0), Edge::new(0, 2, 2.0)], &pool);
/// let csr = Csr::from_graph(g.as_ref());
/// assert_eq!(csr.out_neighbors(0).len(), 2);
/// assert_eq!(csr.in_neighbors(1), &[(0, 1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_nodes: usize,
    num_edges: usize,
    directed: bool,
    out_offsets: Vec<usize>,
    out_edges: Vec<(Node, Weight)>,
    in_offsets: Vec<usize>,
    in_edges: Vec<(Node, Weight)>,
}

impl Csr {
    /// Snapshots a dynamic graph. Neighbor lists are sorted by id, making
    /// snapshots of different data structures directly comparable.
    pub fn from_graph(graph: &dyn GraphTopology) -> Self {
        // One read phase: no per-visit lock on the chunked structures.
        crate::read_phase(graph, |graph| {
            let n = graph.capacity();
            let mut out_offsets = Vec::with_capacity(n + 1);
            let mut out_edges = Vec::with_capacity(graph.num_edges());
            let mut in_offsets = Vec::with_capacity(n + 1);
            let mut in_edges = Vec::with_capacity(graph.num_edges());
            out_offsets.push(0);
            in_offsets.push(0);
            for v in 0..n as Node {
                let mut outs = graph.out_neighbors(v);
                outs.sort_by_key(|&(u, _)| u);
                out_edges.extend_from_slice(&outs);
                out_offsets.push(out_edges.len());
                let mut ins = graph.in_neighbors(v);
                ins.sort_by_key(|&(u, _)| u);
                in_edges.extend_from_slice(&ins);
                in_offsets.push(in_edges.len());
            }
            Self {
                num_nodes: n,
                num_edges: graph.num_edges(),
                directed: graph.is_directed(),
                out_offsets,
                out_edges,
                in_offsets,
                in_edges,
            }
        })
    }

    /// Builds a CSR directly from an edge list (unique, directed edges).
    pub fn from_edges(num_nodes: usize, directed: bool, edges: &[(Node, Node, Weight)]) -> Self {
        let mut out: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); num_nodes];
        let mut inn: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); num_nodes];
        let mut logical = 0usize;
        for &(s, d, w) in edges {
            if !out[s as usize].iter().any(|&(n, _)| n == d) {
                out[s as usize].push((d, w));
                inn[d as usize].push((s, w));
                logical += 1;
                if !directed && s != d {
                    out[d as usize].push((s, w));
                    inn[s as usize].push((d, w));
                }
            }
        }
        let mut out_offsets = vec![0usize];
        let mut out_edges = Vec::new();
        let mut in_offsets = vec![0usize];
        let mut in_edges = Vec::new();
        for v in 0..num_nodes {
            out[v].sort_by_key(|&(u, _)| u);
            out_edges.extend_from_slice(&out[v]);
            out_offsets.push(out_edges.len());
            if directed {
                inn[v].sort_by_key(|&(u, _)| u);
                in_edges.extend_from_slice(&inn[v]);
            } else {
                in_edges.extend_from_slice(&out[v]);
            }
            in_offsets.push(in_edges.len());
        }
        Self {
            num_nodes,
            num_edges: logical,
            directed,
            out_offsets,
            out_edges,
            in_offsets,
            in_edges,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of logical edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the snapshot came from a directed graph.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-neighbors of `v`, sorted by id.
    pub fn out_neighbors(&self, v: Node) -> &[(Node, Weight)] {
        let s = self.out_offsets[v as usize];
        let e = self.out_offsets[v as usize + 1];
        let slice = &self.out_edges[s..e];
        probe::slice_read(slice);
        slice
    }

    /// In-neighbors of `v`, sorted by id.
    pub fn in_neighbors(&self, v: Node) -> &[(Node, Weight)] {
        let s = self.in_offsets[v as usize];
        let e = self.in_offsets[v as usize + 1];
        let slice = &self.in_edges[s..e];
        probe::slice_read(slice);
        slice
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: Node) -> usize {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: Node) -> usize {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }
}


impl GraphTopology for Csr {
    fn capacity(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn is_directed(&self) -> bool {
        self.directed
    }

    fn out_degree(&self, v: Node) -> usize {
        Csr::out_degree(self, v)
    }

    fn in_degree(&self, v: Node) -> usize {
        Csr::in_degree(self, v)
    }

    fn for_each_out_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        for &(n, w) in Csr::out_neighbors(self, v) {
            f(n, w);
        }
    }

    fn for_each_in_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        for &(n, w) in Csr::in_neighbors(self, v) {
            f(n, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_graph, DataStructureKind, Edge};
    use saga_utils::parallel::ThreadPool;

    #[test]
    fn snapshot_matches_dynamic_graph() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Dah, 6, true, 2);
        g.update_batch(
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
                Edge::new(3, 0, 3.0),
                Edge::new(0, 1, 9.0),
            ],
            &pool,
        );
        let csr = Csr::from_graph(g.as_ref());
        assert_eq!(csr.num_nodes(), 6);
        assert_eq!(csr.num_edges(), 3);
        assert!(csr.is_directed());
        assert_eq!(csr.out_neighbors(0), &[(1, 1.0), (2, 2.0)]);
        assert_eq!(csr.in_neighbors(0), &[(3, 3.0)]);
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.in_degree(0), 1);
        assert_eq!(csr.out_degree(5), 0);
    }

    #[test]
    fn from_edges_dedups_and_mirrors_undirected() {
        let csr = Csr::from_edges(4, false, &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 5.0)]);
        assert_eq!(csr.num_edges(), 2);
        assert_eq!(csr.out_neighbors(0), &[(1, 1.0)]);
        assert_eq!(csr.out_neighbors(1), &[(0, 1.0)]);
        assert_eq!(csr.in_neighbors(1), &[(0, 1.0)]);
        assert_eq!(csr.out_neighbors(2), &[(2, 5.0)]);
    }

    #[test]
    fn from_edges_directed() {
        let csr = Csr::from_edges(3, true, &[(0, 1, 1.0), (0, 2, 1.0), (0, 1, 2.0)]);
        assert_eq!(csr.num_edges(), 2);
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.in_degree(1), 1);
        assert_eq!(csr.out_degree(1), 0);
    }
}
