//! Compressed Sparse Row snapshots.
//!
//! Static graph analytics builds the whole graph once in CSR and never
//! changes it (§II-A, Fig. 2a). Streaming systems cannot afford that on the
//! critical path, but a CSR *snapshot* of a dynamic structure is still
//! useful as (1) the reference substrate the test suite validates the
//! dynamic structures and algorithms against, and (2) the static-baseline
//! layout for comparing traversal costs.
//!
//! One direction of the layout is a `CsrDir` — offsets plus one id-sorted
//! edge array — filled by one builder that appends each vertex's
//! neighbours and sorts that slice in place. [`Csr`] is an `out` direction
//! plus, for a directed graph, an in-copy; each chunk of
//! [`DeltaCsr`](crate::delta_csr::DeltaCsr) keeps one direction over its
//! own vertices (row `i` is the chunk's `i`-th vertex) as its compacted
//! base.

use crate::shell::Sides;
use crate::{GraphTopology, Node, Weight};
use saga_utils::probe;

/// One direction of a CSR image: per-vertex offsets into one edge array,
/// each vertex's neighbours sorted by id. The layout of [`Csr`] and of a
/// [`DeltaCsr`](crate::delta_csr::DeltaCsr) chunk's compacted base.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrDir {
    offsets: Vec<usize>,
    edges: Vec<(Node, Weight)>,
}

impl CsrDir {
    /// `num_nodes` vertices, no edges. The offsets come zeroed from the
    /// allocator, so a base that is never filled costs no resident pages.
    pub(crate) fn empty(num_nodes: usize) -> Self {
        Self { offsets: vec![0; num_nodes + 1], edges: Vec::new() }
    }

    /// The one builder: `append(v, edges)` pushes `v`'s neighbours onto the
    /// shared edge array, in any order, and the builder sorts that slice in
    /// place — no allocation per vertex. `entries` presizes the array.
    pub(crate) fn build(
        num_nodes: usize,
        entries: usize,
        mut append: impl FnMut(Node, &mut Vec<(Node, Weight)>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut edges = Vec::with_capacity(entries);
        offsets.push(0);
        for v in 0..num_nodes as Node {
            let start = edges.len();
            append(v, &mut edges);
            edges[start..].sort_unstable_by_key(|&(n, _)| n);
            offsets.push(edges.len());
        }
        Self { offsets, edges }
    }

    /// Stored entries.
    pub(crate) fn len(&self) -> usize {
        self.edges.len()
    }

    /// `v`'s neighbours, sorted by id.
    #[inline]
    pub(crate) fn neighbors(&self, v: Node) -> &[(Node, Weight)] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether `dst` is a neighbour of `v` (a binary search).
    #[inline]
    pub(crate) fn contains(&self, v: Node, dst: Node) -> bool {
        self.neighbors(v).binary_search_by_key(&dst, |&(n, _)| n).is_ok()
    }
}

/// An immutable CSR image of a graph's out- and in-adjacency. An undirected
/// image stores each adjacency entry once and serves `in_*` from the out
/// side, like the dynamic structures.
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
    num_edges: usize,
    sides: Sides<CsrDir>,
}

impl Csr {
    /// Snapshots a dynamic graph. Neighbor lists are sorted by id, making
    /// snapshots of different data structures directly comparable.
    pub fn from_graph(graph: &dyn GraphTopology) -> Self {
        // One read phase: no per-visit lock on the chunked structures.
        crate::read_phase(graph, |graph| {
            let (n, m) = (graph.capacity(), graph.num_edges());
            let sides = Sides::new(graph.is_directed(), |is_in| {
                CsrDir::build(n, m, |v, edges| {
                    let mut push = |u, w| edges.push((u, w));
                    if is_in {
                        graph.for_each_in_neighbor(v, &mut push);
                    } else {
                        graph.for_each_out_neighbor(v, &mut push);
                    }
                })
            });
            Self { num_edges: m, sides }
        })
    }

    /// Builds a CSR directly from an edge list. A repeated edge keeps its
    /// first weight; an undirected edge and its reverse are one edge.
    pub fn from_edges(num_nodes: usize, directed: bool, edges: &[(Node, Node, Weight)]) -> Self {
        // Stored entries as (key, neighbour, index of the edge they came
        // from); sorting by all three puts each pair's first edge first.
        let mut entries: Vec<(Node, Node, u32)> = Vec::with_capacity(edges.len());
        for (i, &(s, d, _)) in edges.iter().enumerate() {
            let i = u32::try_from(i).expect("edge list indices fit in u32");
            entries.push((s, d, i));
            if !directed && s != d {
                entries.push((d, s, i));
            }
        }
        let side = |entries: &mut Vec<(Node, Node, u32)>| {
            entries.sort_unstable();
            entries.dedup_by_key(|e| (e.0, e.1));
            let mut next = entries.iter().peekable();
            let dir = CsrDir::build(num_nodes, entries.len(), |v, adj| {
                while let Some(&(_, d, i)) = next.next_if(|e| e.0 == v) {
                    adj.push((d, edges[i as usize].2));
                }
            });
            assert!(next.next().is_none(), "edge endpoint out of range");
            dir
        };
        let out = side(&mut entries);
        let num_edges = if directed {
            entries.len()
        } else {
            entries.iter().filter(|e| e.0 <= e.1).count()
        };
        let inn = directed.then(|| {
            entries.iter_mut().for_each(|e| *e = (e.1, e.0, e.2));
            side(&mut entries)
        });
        Self { num_edges, sides: Sides { out, inn } }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.sides.out.offsets.len() - 1
    }

    /// Number of logical edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the snapshot came from a directed graph.
    pub fn is_directed(&self) -> bool {
        self.sides.inn.is_some()
    }

    /// Out-neighbors of `v`, sorted by id.
    pub fn out_neighbors(&self, v: Node) -> &[(Node, Weight)] {
        let slice = self.sides.out.neighbors(v);
        probe::slice_read(slice);
        slice
    }

    /// In-neighbors of `v`, sorted by id.
    pub fn in_neighbors(&self, v: Node) -> &[(Node, Weight)] {
        let slice = self.sides.side(true).neighbors(v);
        probe::slice_read(slice);
        slice
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: Node) -> usize {
        self.sides.out.neighbors(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: Node) -> usize {
        self.sides.side(true).neighbors(v).len()
    }
}

impl GraphTopology for Csr {
    fn capacity(&self) -> usize {
        self.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn is_directed(&self) -> bool {
        Csr::is_directed(self)
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
        assert!(csr.sides.inn.is_none(), "an undirected image stores one side");
        assert_eq!(csr.in_neighbors(2), &[(2, 5.0)]);
    }

    #[test]
    fn from_edges_directed() {
        let csr = Csr::from_edges(3, true, &[(0, 1, 1.0), (0, 2, 1.0), (0, 1, 2.0)]);
        assert_eq!(csr.num_edges(), 2);
        assert_eq!(csr.out_neighbors(0), &[(1, 1.0), (2, 1.0)], "the first weight wins");
        assert_eq!(csr.in_neighbors(1), &[(0, 1.0)]);
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.in_degree(1), 1);
        assert_eq!(csr.out_degree(1), 0);
    }
}
