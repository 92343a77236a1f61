//! Delta-CSR hybrid structure (**DeltaCSR**): per chunk, a compacted CSR
//! base plus a small delta overlay, merged on threshold. The base is the
//! [`csr`](crate::csr) layout over the chunk's local ids, rebuilt by its
//! builder.
//!
//! The four §III-A structures pick one point each on the update-cost /
//! traversal-locality trade-off. Delta-CSR refuses the choice: reads run
//! mostly over a *compacted CSR base* — one contiguous, id-sorted edge
//! array with offset indexing, the layout static frameworks use because it
//! makes neighbor scans sequential and prefetchable — while writes go to a
//! small *delta overlay* of per-vertex add/tombstone lists beside it.
//!
//! DeltaCSR is a chunked store like AC and DAH ([`crate::shell`]): vertex
//! `v` belongs to chunk `v % chunks`, and each chunk holds the base and the
//! overlay of the vertices it owns, both indexed by local index. When a
//! chunk's overlay grows past a threshold proportional to its size, the
//! chunk *compacts*: base and overlay are merged into a fresh CSR image and
//! the overlay resets to empty. The merge is the chunk owner's job, done
//! inside the pass under the write guard the pass already holds, so merges
//! of different chunks run in parallel and no lock beyond the chunk's
//! exists. Its cost is `O(local vertices + entries)` of the one chunk,
//! amortized over the `Θ(threshold)` updates that funded it.
//!
//! Semantics match the other structures exactly (search-before-insert
//! dedup, logical-edge counting, undirected mirroring), so Delta-CSR drops
//! into every driver, compute model, and differential harness unmodified:
//!
//! - an edge is **present** iff it is in the overlay's adds, or in the
//!   base and not tombstoned;
//! - inserting a present edge is a duplicate (no weight update, like AC);
//! - deleting removes a delta add outright, tombstones a live base edge,
//!   and counts missing otherwise.

use crate::csr::CsrDir;
use crate::shell::{Chunk, Chunks, Op, TwoSided};
use crate::{DataStructureKind, Node, Weight};
use saga_utils::prefetch::{prefetch_index, PREFETCH_DISTANCE};
use saga_utils::probe;

/// Overlay entries that force a merge regardless of base size, over the
/// whole structure (keeps tiny graphs compacting at all). Each chunk store
/// gets an even share of it.
const DEFAULT_THRESHOLD_FLOOR: usize = 256;

/// A chunk also merges once its overlay changes reach this fraction (¼) of
/// what a merge rewrites — the chunk's rows plus its base's entries — so
/// every merge is paid for by a proportional run of changes, and the scan
/// overhead of the overlay stays bounded on large graphs.
const THRESHOLD_DIVISOR: usize = 4;

/// Registry counter bumped once per chunk merge, across every instance —
/// what `/metrics` and the compaction ablation read, since neither holds
/// the concrete type that [`DeltaCsr::compactions`] needs.
pub const COMPACTIONS_METRIC: &str = "graph.delta_csr.compactions";

/// One DeltaCSR chunk: the compacted base of the vertices it owns and the
/// overlay over it, both indexed by local index. `adds` are edges not live
/// in the base; `dels` are tombstones over base entries. The two are
/// disjoint views: an edge re-inserted after deletion keeps its tombstone
/// and gains an add.
pub struct DeltaChunk {
    base: CsrDir,
    adds: Vec<Vec<(Node, Weight)>>,
    dels: Vec<Vec<Node>>,
    /// Overlay changes since the last merge (adds pushed, adds retracted,
    /// tombstones pushed) — the compaction trigger.
    ops: usize,
    /// This chunk's share of the structure's compaction floor.
    floor: usize,
    /// Merges over the chunk's lifetime.
    compactions: usize,
}

impl DeltaChunk {
    fn new(local_count: usize) -> Self {
        Self {
            base: CsrDir::empty(local_count),
            adds: vec![Vec::new(); local_count],
            dels: vec![Vec::new(); local_count],
            ops: 0,
            floor: 1,
            compactions: 0,
        }
    }

    /// Search-then-insert or search-then-remove of `nbr` in the adjacency
    /// of the chunk's vertex number `local`, against overlay and base;
    /// returns whether the overlay changed.
    fn change(&mut self, op: Op, local: usize, nbr: Node, weight: Weight) -> bool {
        let (base, adds, dels) = (&self.base, &mut self.adds[local], &mut self.dels[local]);
        probe::slice_read(adds);
        let added = adds.iter().position(|&(n, _)| n == nbr);
        let live_in_base = || base.contains(local as Node, nbr) && !dels.contains(&nbr);
        match (op, added) {
            (Op::Insert, Some(_)) => false,
            (Op::Insert, None) if live_in_base() => {
                probe::slice_read(base.neighbors(local as Node));
                false
            }
            (Op::Insert, None) => {
                adds.push((nbr, weight));
                probe::write(adds.last().unwrap() as *const (Node, Weight), 1);
                true
            }
            (Op::Remove, Some(pos)) => {
                adds.swap_remove(pos);
                true
            }
            (Op::Remove, None) if live_in_base() => {
                dels.push(nbr);
                probe::write(dels.last().unwrap() as *const Node, 1);
                true
            }
            (Op::Remove, None) => false,
        }
    }

    /// Merges base and overlay into a fresh base through the CSR builder,
    /// which keeps every row id-sorted: membership stays a binary search and
    /// snapshots of different structures stay directly comparable.
    fn compact(&mut self) {
        let _span = saga_trace::span!("compaction", ops = self.ops as u64);
        let Self { base, adds, dels, .. } = self;
        *base = CsrDir::build(adds.len(), base.len(), |local, edges| {
            let live = base.neighbors(local);
            let (adds, dels) = (&mut adds[local as usize], &mut dels[local as usize]);
            if dels.is_empty() {
                edges.extend_from_slice(live);
            } else {
                dels.sort_unstable();
                edges.extend(live.iter().filter(|&&(n, _)| dels.binary_search(&n).is_err()));
                dels.clear();
            }
            edges.append(adds);
        });
        self.ops = 0;
        self.compactions += 1;
        saga_trace::metrics::counter(COMPACTIONS_METRIC).incr();
    }
}

impl Chunk for DeltaChunk {
    const KIND: DataStructureKind = DataStructureKind::DeltaCsr;

    fn apply(&mut self, op: Op, local: usize, _key: Node, nbr: Node, weight: Weight) -> bool {
        if !self.change(op, local, nbr, weight) {
            return false;
        }
        self.ops += 1;
        let rewritten = self.adds.len() + self.base.len();
        if self.ops >= self.floor.max(rewritten / THRESHOLD_DIVISOR) {
            self.compact();
        }
        true
    }

    fn degree_at(&self, local: usize) -> usize {
        self.base.neighbors(local as Node).len() + self.adds[local].len() - self.dels[local].len()
    }

    /// The base row minus tombstones, then the adds.
    fn for_each_at(&self, local: usize, _key: Node, f: &mut dyn FnMut(Node, Weight)) {
        let dels = &self.dels[local];
        let slice = self.base.neighbors(local as Node);
        probe::slice_read(slice);
        if dels.is_empty() {
            // Hot path: one sequential sweep over the contiguous base row,
            // hinting the line PREFETCH_DISTANCE entries ahead.
            for i in 0..slice.len() {
                prefetch_index(slice, i + PREFETCH_DISTANCE);
                let (n, w) = slice[i];
                f(n, w);
            }
        } else {
            for i in 0..slice.len() {
                prefetch_index(slice, i + PREFETCH_DISTANCE);
                let (n, w) = slice[i];
                if !dels.contains(&n) {
                    f(n, w);
                }
            }
        }
        let adds = &self.adds[local];
        probe::slice_read(adds);
        for &(n, w) in adds.iter() {
            f(n, w);
        }
    }
}

/// Delta-CSR hybrid: per-chunk CSR base + delta overlay with
/// threshold-triggered compaction.
///
/// # Examples
///
/// ```
/// use saga_graph::delta_csr::DeltaCsr;
/// use saga_graph::{DeletableGraph, DynamicGraph, Edge, GraphTopology};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let g = DeltaCsr::new(10, true, pool.threads());
/// g.update_batch(&[Edge::new(0, 3, 1.0), Edge::new(0, 5, 2.0)], &pool);
/// assert_eq!(g.out_degree(0), 2);
/// g.delete_batch(&[Edge::new(0, 3, 0.0)], &pool);
/// assert_eq!(g.out_neighbors(0), vec![(5, 2.0)]);
/// ```
pub type DeltaCsr = TwoSided<Chunks<DeltaChunk>>;

impl DeltaCsr {
    /// Creates an empty Delta-CSR graph with the given number of
    /// single-threaded chunks (typically the update thread count).
    pub fn new(capacity: usize, directed: bool, chunks: usize) -> Self {
        Self::with_sides(capacity, directed, |_| Chunks::new(capacity, chunks, DeltaChunk::new))
            .with_compaction_threshold(DEFAULT_THRESHOLD_FLOOR)
    }

    /// Overrides the compaction floor (overlay entries over the whole
    /// structure that force a merge regardless of base size, split evenly
    /// over its chunk stores) — the knob the compaction-threshold ablation
    /// sweeps. The proportional part (a chunk's changes ≥ a quarter of its
    /// rows plus base entries) is unchanged.
    pub fn with_compaction_threshold(self, floor: usize) -> Self {
        let share = (floor / self.chunk_locks().count()).max(1);
        self.chunk_locks().for_each(|chunk| chunk.write().floor = share);
        self
    }

    /// Overlay changes accumulated since each chunk's last merge, summed
    /// (test and ablation observability).
    pub fn pending_delta_ops(&self) -> usize {
        self.chunk_locks().map(|chunk| chunk.read().ops).sum()
    }

    /// Chunk merges performed so far (threshold-triggered and explicit).
    pub fn compactions(&self) -> usize {
        self.chunk_locks().map(|chunk| chunk.read().compactions).sum()
    }

    /// Merges every chunk with overlay changes pending, one at a time.
    pub fn compact(&self) {
        for chunk in self.chunk_locks() {
            let mut chunk = chunk.write();
            if chunk.ops > 0 {
                chunk.compact();
            }
        }
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
    fn delete_spans_overlay_and_snapshot() {
        let p = pool();
        let g = DeltaCsr::new(10, true, 4);
        g.update_batch(&[Edge::new(1, 3, 2.0), Edge::new(1, 5, 1.0)], &p);
        g.compact(); // (1,3) and (1,5) now live in the base
        g.update_batch(&[Edge::new(1, 7, 4.0)], &p); // overlay add
        let stats = g.delete_batch(
            &[Edge::new(1, 3, 0.0), Edge::new(1, 7, 0.0), Edge::new(1, 9, 0.0)],
            &p,
        );
        assert_eq!(stats.removed, 2);
        assert_eq!(stats.missing, 1);
        assert_eq!(g.out_neighbors(1), vec![(5, 1.0)]);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn reinsert_after_delete_through_compaction() {
        let p = pool();
        let g = DeltaCsr::new(10, true, 2);
        g.update_batch(&[Edge::new(0, 1, 1.0)], &p);
        g.compact();
        g.delete_batch(&[Edge::new(0, 1, 0.0)], &p); // tombstone base edge
        assert!(g.out_neighbors(0).is_empty());
        let stats = g.update_batch(&[Edge::new(0, 1, 5.0)], &p); // re-insert
        assert_eq!(stats.inserted, 1);
        assert_eq!(g.out_neighbors(0), vec![(1, 5.0)]);
        assert_eq!(g.out_degree(0), 1);
        g.compact();
        assert_eq!(g.out_neighbors(0), vec![(1, 5.0)]);
        assert_eq!(g.in_neighbors(1), vec![(0, 5.0)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn compaction_threshold_fires_automatically() {
        let p = pool();
        // Four chunk stores (2 chunks × out / in) split the floor of 16: 4
        // each, above a quarter of their 8 rows plus base entries.
        let g = DeltaCsr::new(16, true, 2).with_compaction_threshold(16);
        // Out keys 0..8 and in keys 1..9 give every store exactly its share
        // of changes, so every one merges inside the pass.
        let batch: Vec<Edge> = (0..8).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        g.update_batch(&batch, &p);
        assert!(g.chunk_locks().all(|chunk| chunk.read().compactions == 1));
        assert_eq!(g.compactions(), 4);
        assert_eq!(g.pending_delta_ops(), 0);
        // One more edge brings no store to its share: nothing merges.
        g.update_batch(&[Edge::new(0, 9, 1.0)], &p);
        assert_eq!(g.compactions(), 4);
        assert_eq!(g.pending_delta_ops(), 2);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.out_neighbors(0), vec![(1, 1.0), (9, 1.0)]);
        assert_eq!(g.in_neighbors(8), vec![(7, 1.0)]);
    }

    #[test]
    fn compaction_bumps_the_registry_counter() {
        let p = pool();
        let g = DeltaCsr::new(10, true, 2);
        g.update_batch(&[Edge::new(0, 1, 1.0)], &p);
        let counter = saga_trace::metrics::counter(COMPACTIONS_METRIC);
        let (before, own_before) = (counter.get(), g.compactions());
        g.compact();
        // Other tests compact concurrently, so the shared counter may move
        // further than this instance did — never less.
        assert!(counter.get() - before >= (g.compactions() - own_before) as u64);
        // One merge per store with changes pending: (0, 1)'s out entry in
        // chunk 0 and its in entry in chunk 1.
        assert_eq!(g.compactions() - own_before, 2);
    }

    #[test]
    fn merged_scan_is_id_sorted_after_compaction() {
        let p = pool();
        let g = DeltaCsr::new(50, true, 4);
        g.update_batch(&[Edge::new(1, 30, 1.0), Edge::new(1, 10, 1.0)], &p);
        g.compact();
        g.update_batch(&[Edge::new(1, 20, 1.0), Edge::new(1, 5, 1.0)], &p);
        g.compact();
        assert_eq!(
            g.out_neighbors(1),
            vec![(5, 1.0), (10, 1.0), (20, 1.0), (30, 1.0)]
        );
    }

    #[test]
    fn undirected_self_loop_roundtrip() {
        let p = pool();
        let g = DeltaCsr::new(5, false, 2);
        g.update_batch(&[Edge::new(3, 3, 1.0)], &p);
        assert_eq!(g.out_degree(3), 1);
        g.compact();
        assert_eq!(g.out_neighbors(3), vec![(3, 1.0)]);
        let stats = g.delete_batch(&[Edge::new(3, 3, 0.0)], &p);
        assert_eq!(stats.removed, 1);
        assert!(g.out_neighbors(3).is_empty());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn degrees_mix_snapshot_and_overlay() {
        let p = pool();
        let g = DeltaCsr::new(20, true, 4);
        g.update_batch(&[Edge::new(2, 4, 1.0), Edge::new(2, 6, 1.0)], &p);
        g.compact();
        g.update_batch(&[Edge::new(2, 8, 1.0)], &p);
        g.delete_batch(&[Edge::new(2, 4, 0.0)], &p);
        assert_eq!(g.out_degree(2), 2); // 2 base − 1 tombstone + 1 add
        assert_eq!(g.in_degree(8), 1);
        assert_eq!(g.in_degree(4), 0);
    }
}
