//! Degree-Aware Hashing (**DAH**, §III-A4, Fig. 5 of the paper;
//! Iwabuchi et al., IPDPSW 2016).
//!
//! DAH keeps two hash tables per chunk: a Robin Hood table for the edges of
//! *low-degree* vertices and per-vertex open-addressing tables for
//! *high-degree* vertices. Multithreading is chunked exactly like AC: each
//! chunk is single-threaded and lockless during a batch.
//!
//! Hashing gives amortized constant-time edge update, but degree-awareness
//! costs two *meta-operations* the paper highlights:
//!
//! 1. **Degree query** — before placing a new edge, both tables are queried
//!    for the source's degree to decide where it belongs; the same query is
//!    paid again on every traversal (and once more in PageRank, which also
//!    needs the out-degree of each incoming neighbor).
//! 2. **Flush** — when a vertex's low-table degree crosses
//!    [`DEFAULT_FLUSH_THRESHOLD`], all its edges are moved from the
//!    low-degree table into a fresh high-degree table.
//!
//! These meta-operations are why DAH loses to AS on short-tailed graphs
//! (update 2.3–3.2× slower, §V-B) while its lockless hash-based update wins
//! by 5.6–12.8× on heavy-tailed ones.

use crate::hash_tables::{OpenEdgeTable, RobinHoodEdgeTable};
use crate::shell::{Chunk, Chunks, Op, TwoSided};
use crate::{DataStructureKind, Node, Weight};
use saga_utils::probe;

/// Low-table degree beyond which a vertex's edges are flushed to the
/// high-degree table.
pub const DEFAULT_FLUSH_THRESHOLD: u32 = 16;

/// One single-threaded DAH chunk: shared low-degree Robin Hood table plus
/// per-vertex high-degree tables, with per-vertex degree counters serving
/// the degree-query meta-operation.
pub struct DahChunk {
    low: RobinHoodEdgeTable,
    high: Vec<Option<OpenEdgeTable>>,
    low_degree: Vec<u32>,
    high_degree: Vec<u32>,
    /// Low-table degree beyond which a vertex is flushed to a high table.
    threshold: u32,
}

impl DahChunk {
    fn new(local_count: usize, threshold: u32) -> Self {
        Self {
            low: RobinHoodEdgeTable::new(),
            high: (0..local_count).map(|_| None).collect(),
            low_degree: vec![0; local_count],
            high_degree: vec![0; local_count],
            threshold,
        }
    }

    /// Search-then-insert with degree-aware placement.
    fn insert(&mut self, local: usize, src: Node, dst: Node, weight: Weight) -> bool {
        // Meta-operation 1: query the degree of each table to decide
        // placement.
        probe::value_read(&self.low_degree[local]);
        probe::value_read(&self.high_degree[local]);
        probe::instructions(2);
        if self.high_degree[local] > 0 {
            let table = self.high[local]
                .as_mut()
                .expect("high degree implies a high table");
            if table.insert(dst, weight) {
                self.high_degree[local] += 1;
                probe::value_write(&self.high_degree[local]);
                return true;
            }
            return false;
        }
        if !self.low.insert(src, dst, weight) {
            return false;
        }
        self.low_degree[local] += 1;
        probe::value_write(&self.low_degree[local]);
        if self.low_degree[local] > self.threshold {
            // Meta-operation 2: flush the vertex's cluster to a fresh
            // high-degree table.
            let edges = self.low.remove_vertex(src);
            probe::instructions(edges.len() as u64);
            let table = OpenEdgeTable::from_edges(&edges);
            self.high_degree[local] = table.len() as u32;
            self.high[local] = Some(table);
            self.low_degree[local] = 0;
        }
        true
    }

    /// Search-then-remove with degree-aware table selection.
    fn remove(&mut self, local: usize, src: Node, dst: Node) -> bool {
        probe::value_read(&self.low_degree[local]);
        probe::value_read(&self.high_degree[local]);
        probe::instructions(2);
        if self.high_degree[local] > 0 {
            let table = self.high[local]
                .as_mut()
                .expect("high degree implies a high table");
            if table.remove(dst) {
                self.high_degree[local] -= 1;
                if self.high_degree[local] == 0 {
                    self.high[local] = None;
                }
                return true;
            }
            return false;
        }
        if self.low_degree[local] > 0 && self.low.remove_edge(src, dst) {
            self.low_degree[local] -= 1;
            return true;
        }
        false
    }

}

impl Chunk for DahChunk {
    const KIND: DataStructureKind = DataStructureKind::Dah;

    fn apply(&mut self, op: Op, local: usize, key: Node, nbr: Node, weight: Weight) -> bool {
        match op {
            Op::Insert => self.insert(local, key, nbr, weight),
            Op::Remove => self.remove(local, key, nbr),
        }
    }

    fn degree_at(&self, local: usize) -> usize {
        probe::value_read(&self.low_degree[local]);
        probe::value_read(&self.high_degree[local]);
        (self.low_degree[local] + self.high_degree[local]) as usize
    }

    fn for_each_at(&self, local: usize, src: Node, f: &mut dyn FnMut(Node, Weight)) {
        // Traversal pays the degree-query meta-operation to locate the
        // right table (§V-B: "expensive neighbor traversal due to
        // degree-query meta-operations").
        probe::value_read(&self.low_degree[local]);
        probe::value_read(&self.high_degree[local]);
        probe::instructions(2);
        if self.high_degree[local] > 0 {
            self.high[local]
                .as_ref()
                .expect("high degree implies a high table")
                .for_each(f);
        } else if self.low_degree[local] > 0 {
            self.low.for_each_neighbor(src, f);
        }
    }
}

/// Degree-aware hashing (DAH).
///
/// # Examples
///
/// ```
/// use saga_graph::dah::Dah;
/// use saga_graph::{DynamicGraph, Edge, GraphTopology};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let g = Dah::new(100, true, pool.threads());
/// let batch: Vec<Edge> = (1..50).map(|i| Edge::new(0, i, 1.0)).collect();
/// g.update_batch(&batch, &pool);
/// assert_eq!(g.out_degree(0), 49); // flushed into the high-degree table
/// ```
pub type Dah = TwoSided<Chunks<DahChunk>>;

impl Dah {
    /// Creates an empty DAH graph with the default flush threshold.
    pub fn new(capacity: usize, directed: bool, chunks: usize) -> Self {
        Self::with_threshold(capacity, directed, chunks, DEFAULT_FLUSH_THRESHOLD)
    }

    /// Creates an empty DAH graph with a custom low→high flush threshold
    /// (used by the threshold ablation bench).
    pub fn with_threshold(capacity: usize, directed: bool, chunks: usize, threshold: u32) -> Self {
        Self::with_sides(capacity, directed, |_| {
            Chunks::new(capacity, chunks, |local_count| DahChunk::new(local_count, threshold))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeletableGraph, DynamicGraph, Edge, GraphTopology};
    use saga_utils::parallel::ThreadPool;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn delete_from_low_table() {
        let g = Dah::new(10, true, 2);
        let p = pool();
        g.update_batch(&[Edge::new(1, 2, 1.0), Edge::new(1, 3, 1.0)], &p);
        let stats = g.delete_batch(&[Edge::new(1, 2, 0.0), Edge::new(1, 9, 0.0)], &p);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.missing, 1);
        assert_eq!(g.out_neighbors(1), vec![(3, 1.0)]);
        assert!(g.in_neighbors(2).is_empty());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn delete_from_high_table() {
        let g = Dah::with_threshold(100, true, 2, 4);
        let p = pool();
        let batch: Vec<Edge> = (1..=20).map(|i| Edge::new(0, i, 1.0)).collect();
        g.update_batch(&batch, &p); // vertex 0 flushed to the high table
        let deletions: Vec<Edge> = (1..=10).map(|i| Edge::new(0, i, 0.0)).collect();
        let stats = g.delete_batch(&deletions, &p);
        assert_eq!(stats.removed, 10);
        assert_eq!(g.out_degree(0), 10);
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns, (11..=20).collect::<Vec<_>>());
    }

    #[test]
    fn emptying_the_high_table_drops_it() {
        let g = Dah::with_threshold(20, true, 1, 2);
        let p = pool();
        let batch: Vec<Edge> = (1..=4).map(|i| Edge::new(0, i, 1.0)).collect();
        g.update_batch(&batch, &p);
        let deletions: Vec<Edge> = (1..=4).map(|i| Edge::new(0, i, 0.0)).collect();
        g.delete_batch(&deletions, &p);
        assert_eq!(g.out_degree(0), 0);
        assert!(g.out_neighbors(0).is_empty());
        // Vertex restarts in the low table.
        g.update_batch(&[Edge::new(0, 7, 2.0)], &p);
        assert_eq!(g.out_neighbors(0), vec![(7, 2.0)]);
    }

    #[test]
    fn low_degree_vertices_stay_in_low_table() {
        let g = Dah::new(20, true, 4);
        g.update_batch(&[Edge::new(1, 2, 1.0), Edge::new(1, 3, 2.0)], &pool());
        assert_eq!(g.out_degree(1), 2);
        let mut ns = g.out_neighbors(1);
        ns.sort_by_key(|&(n, _)| n);
        assert_eq!(ns, vec![(2, 1.0), (3, 2.0)]);
        // Still below threshold: no high table.
        let chunk = g.sides.out.read_chunk(g.sides.out.chunk_of(1));
        assert!(chunk.high[g.sides.out.local(1)].is_none());
    }

    #[test]
    fn crossing_threshold_flushes_to_high_table() {
        let g = Dah::with_threshold(100, true, 2, 8);
        let batch: Vec<Edge> = (1..=20).map(|i| Edge::new(0, i, i as Weight)).collect();
        g.update_batch(&batch, &pool());
        assert_eq!(g.out_degree(0), 20);
        let chunk = g.sides.out.read_chunk(0);
        assert!(chunk.high[0].is_some(), "vertex 0 should have been flushed");
        assert_eq!(chunk.low_degree[0], 0);
        assert_eq!(chunk.high_degree[0], 20);
        drop(chunk);
        let mut ns = g.out_neighbors(0);
        ns.sort_by_key(|&(n, _)| n);
        assert_eq!(ns.len(), 20);
        for (i, &(n, w)) in ns.iter().enumerate() {
            assert_eq!(n, i as Node + 1);
            assert_eq!(w, (i + 1) as Weight);
        }
    }

    #[test]
    fn duplicates_rejected_in_both_tables() {
        let g = Dah::with_threshold(10, true, 1, 4);
        let p = pool();
        // Low-table duplicates.
        let stats = g.update_batch(&[Edge::new(1, 2, 1.0), Edge::new(1, 2, 9.0)], &p);
        assert_eq!(stats.inserted, 1);
        // Push vertex 1 past the threshold into the high table.
        let batch: Vec<Edge> = (3..=9).map(|i| Edge::new(1, i, 1.0)).collect();
        g.update_batch(&batch, &p);
        assert_eq!(g.out_degree(1), 8);
        // High-table duplicates.
        let stats = g.update_batch(&[Edge::new(1, 2, 5.0)], &p);
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(g.out_degree(1), 8);
    }

    #[test]
    fn heavy_hub_lands_in_high_table_with_exact_neighbors() {
        let g = Dah::new(5001, true, 8);
        let batch: Vec<Edge> = (1..=5000).map(|i| Edge::new(0, i, 1.0)).collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 5000);
        assert_eq!(g.out_degree(0), 5000);
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns.len(), 5000);
        assert!(ns.iter().enumerate().all(|(i, &n)| n == i as Node + 1));
    }

    #[test]
    fn in_structure_tracks_high_degree_destinations() {
        let g = Dah::new(2001, true, 4);
        let batch: Vec<Edge> = (1..=2000).map(|i| Edge::new(i, 0, 1.0)).collect();
        g.update_batch(&batch, &pool());
        assert_eq!(g.in_degree(0), 2000);
        assert_eq!(g.out_degree(0), 0);
        let mut ns: Vec<Node> = g.in_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns.len(), 2000);
    }
}
