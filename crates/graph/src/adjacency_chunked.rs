//! Adjacency list with chunked-style multithreading (**AC**, §III-A2).
//!
//! The adjacency list is partitioned into chunks, each chunk storing the
//! neighbor vectors of a subset of source vertices (`v` belongs to chunk
//! `v % chunks`). A chunk is a *single-threaded* data structure: during a
//! batch update, exactly one worker touches each chunk, so no per-edge lock
//! is taken (the rest of the intra-chunk operation — search then insert in a
//! contiguous vector — is the same as AS, Fig. 3). The compute phase reads
//! the same vectors through [`GraphTopology::frozen`](crate::GraphTopology::frozen),
//! again with no lock per visit, which is why AC computes like AS (Fig. 6c).
//!
//! Routing a batch to its chunks uses a two-pass counting sort
//! ([`saga_utils::partition::Partitioner`]): the batch is partitioned once
//! into per-chunk buckets of edge indices (`O(batch)` key evaluations,
//! exactly one per edge per direction), then worker `w` drains the buckets
//! of the chunks it owns (`c % threads == w`) in batch order, instead of
//! every chunk owner rescanning the whole batch for its edges
//! (`O(batch × chunks)`). The routing itself lives in [`crate::shell`].
//!
//! Multithreading comes only from having multiple chunks. This trades the
//! lock contention of AS for workload imbalance: a heavy-tailed batch fills
//! the hub chunk's bucket while the others stay small, keeping the single
//! worker that owns the hub's chunk busy while the rest idle — the
//! behaviour the paper measures in Fig. 9. Partitioning changes how edges
//! *find* their chunk, not which chunk does the work, so that imbalance is
//! deliberately preserved.

use crate::adjacency_shared::apply_to_list;
use crate::shell::{Chunk, Chunks, Op, TwoSided};
use crate::{DataStructureKind, Node, Weight};
use saga_utils::probe;

/// Neighbor vectors for the vertices owned by one AC chunk, indexed by
/// their local index.
pub struct ListChunk {
    lists: Vec<Vec<(Node, Weight)>>,
}

impl Chunk for ListChunk {
    const KIND: DataStructureKind = DataStructureKind::AdjacencyChunked;

    fn apply(&mut self, op: Op, local: usize, _key: Node, nbr: Node, weight: Weight) -> bool {
        apply_to_list(&mut self.lists[local], op, nbr, weight)
    }

    fn degree_at(&self, local: usize) -> usize {
        self.lists[local].len()
    }

    fn for_each_at(&self, local: usize, _key: Node, f: &mut dyn FnMut(Node, Weight)) {
        let list = &self.lists[local];
        probe::slice_read(list);
        for &(n, w) in list.iter() {
            f(n, w);
        }
    }
}

/// Adjacency list with chunked-style multithreading (AC).
///
/// # Examples
///
/// ```
/// use saga_graph::adjacency_chunked::AdjacencyChunked;
/// use saga_graph::{DynamicGraph, Edge, GraphTopology};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let g = AdjacencyChunked::new(100, true, pool.threads());
/// g.update_batch(&[Edge::new(0, 7, 1.0), Edge::new(7, 0, 1.0)], &pool);
/// assert_eq!(g.out_degree(0), 1);
/// assert_eq!(g.in_degree(0), 1);
/// ```
pub type AdjacencyChunked = TwoSided<Chunks<ListChunk>>;

impl AdjacencyChunked {
    /// Creates an empty AC graph with the given number of single-threaded
    /// chunks (typically the update thread count).
    pub fn new(capacity: usize, directed: bool, chunks: usize) -> Self {
        Self::with_sides(capacity, directed, |_| {
            Chunks::new(capacity, chunks, |local_count| ListChunk {
                lists: vec![Vec::new(); local_count],
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicGraph, Edge, GraphTopology};
    use saga_utils::parallel::ThreadPool;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn more_chunks_than_vertices_is_fine() {
        let g = AdjacencyChunked::new(3, true, 16);
        let stats = g.update_batch(&[Edge::new(0, 2, 1.0)], &pool());
        assert_eq!(stats.inserted, 1);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn hub_batch_lands_in_one_chunk() {
        let g = AdjacencyChunked::new(101, true, 4);
        let batch: Vec<Edge> = (1..=100).map(|i| Edge::new(0, i, 1.0)).collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 100);
        assert_eq!(g.out_degree(0), 100);
    }
}
