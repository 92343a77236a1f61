//! Delta-CSR hybrid structure (**DeltaCSR**): an immutable CSR snapshot
//! plus a small chunked delta overlay, merged on threshold. The snapshot
//! is the [`csr`](crate::csr) layout, rebuilt by its builder.
//!
//! The four §III-A structures pick one point each on the update-cost /
//! traversal-locality trade-off. Delta-CSR refuses the choice: reads run
//! mostly over a *compacted CSR snapshot* — one contiguous, id-sorted edge
//! array with offset indexing, the layout static frameworks use because it
//! makes neighbor scans sequential and prefetchable — while writes go to a
//! small *delta overlay* (per-chunk add/tombstone lists, same chunked
//! ownership discipline as AC/DAH, so batch ingest stays lock-free within
//! a chunk). When the overlay grows past a threshold proportional to the
//! snapshot size, the structure *compacts*: snapshot and overlay are merged
//! into a fresh CSR image and the overlay resets to empty. Compaction cost
//! is `O(n + edges)`, amortized over the `Θ(threshold)` updates that funded
//! it.
//!
//! Semantics match the other structures exactly (search-before-insert
//! dedup, logical-edge counting, undirected mirroring), so Delta-CSR drops
//! into every driver, compute model, and differential harness unmodified:
//!
//! - an edge is **present** iff it is in the overlay's adds, or in the
//!   snapshot and not tombstoned;
//! - inserting a present edge is a duplicate (no weight update, like AC);
//! - deleting removes a delta add outright, tombstones a live snapshot
//!   edge, and counts missing otherwise.
//!
//! Concurrency: the snapshot sits behind an [`RwLock`] read-locked for the
//! duration of a batch, a read phase ([`GraphTopology::frozen`]) or one
//! stray visit; overlay chunks sit behind the shell's per-chunk
//! reader-writer locks. Lock order is always snapshot, then `out`'s chunks
//! in index order, then the in-copy's (a frozen view holds them all shared,
//! compaction takes them exclusively in the same order), so the two-level
//! scheme cannot deadlock.

use crate::csr::CsrDir;
use crate::shell::{Chunks, FrozenChunks, Op, ReadSide, Sides, TwoSided};
use crate::{
    DataStructureKind, DeletableGraph, DeleteStats, DynamicGraph, Edge, GraphTopology, Node,
    UpdateStats, Weight,
};
use saga_utils::parallel::ThreadPool;
use saga_utils::prefetch::{prefetch_index, PREFETCH_DISTANCE};
use saga_utils::probe;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use saga_utils::sync::RwLock;

/// Compaction fires when the overlay holds at least this many entries,
/// regardless of snapshot size (keeps tiny graphs compacting at all).
const DEFAULT_THRESHOLD_FLOOR: usize = 256;

/// Compaction also fires once the overlay reaches this fraction of the
/// snapshot's stored entries (¼), bounding scan overhead on large graphs.
const THRESHOLD_SNAPSHOT_DIVISOR: usize = 4;

/// Registry counter bumped once per merge, across every instance — what
/// `/metrics` and the compaction ablation read, since neither holds the
/// concrete type that [`DeltaCsr::compactions`] needs.
pub const COMPACTIONS_METRIC: &str = "graph.delta_csr.compactions";

/// Overlay state for the vertices owned by one chunk, indexed by their
/// local index. `adds` are edges not live in the snapshot; `dels` are
/// tombstones over snapshot entries. The two are disjoint views: an edge
/// re-inserted after deletion keeps its tombstone and gains an add.
struct DeltaChunk {
    adds: Vec<Vec<(Node, Weight)>>,
    dels: Vec<Vec<Node>>,
}

impl DeltaChunk {
    /// Search-then-insert or search-then-remove of `key → nbr` against the
    /// overlay and the snapshot direction `dir` it sits on; returns whether
    /// the overlay changed (every change is one delta op).
    fn apply(
        &mut self,
        dir: &CsrDir,
        op: Op,
        local: usize,
        key: Node,
        nbr: Node,
        weight: Weight,
    ) -> bool {
        let (adds, dels) = (&mut self.adds[local], &mut self.dels[local]);
        probe::slice_read(adds);
        let added = adds.iter().position(|&(n, _)| n == nbr);
        let live_in_snapshot = || dir.contains(key, nbr) && !dels.contains(&nbr);
        match (op, added) {
            (Op::Insert, Some(_)) => false,
            (Op::Insert, None) if live_in_snapshot() => {
                probe::slice_read(dir.neighbors(key));
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
            (Op::Remove, None) if live_in_snapshot() => {
                dels.push(nbr);
                probe::write(dels.last().unwrap() as *const Node, 1);
                true
            }
            (Op::Remove, None) => false,
        }
    }

    /// Live neighbors of `v`, this chunk's vertex number `local`, over `dir`.
    fn degree(&self, dir: &CsrDir, local: usize, v: Node) -> usize {
        dir.neighbors(v).len() + self.adds[local].len() - self.dels[local].len()
    }

    /// Visits them: the snapshot slice minus tombstones, then the adds.
    fn for_each(&self, dir: &CsrDir, local: usize, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        let dels = &self.dels[local];
        let slice = dir.neighbors(v);
        probe::slice_read(slice);
        if dels.is_empty() {
            // Hot path: one sequential sweep over the contiguous snapshot
            // slice, hinting the line PREFETCH_DISTANCE entries ahead.
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

/// One direction of a [`DeltaCsr`] for the length of a read phase: the
/// snapshot image and the overlay chunks out of guards the caller holds.
struct FrozenDelta<'a>(&'a CsrDir, FrozenChunks<'a, DeltaChunk>);

impl ReadSide for FrozenDelta<'_> {
    fn degree(&self, v: Node) -> usize {
        let (chunk, local) = self.1.at(v);
        chunk.degree(self.0, local, v)
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        let (chunk, local) = self.1.at(v);
        chunk.for_each(self.0, local, v, f);
    }
}

/// Delta-CSR hybrid: CSR snapshot + chunked delta overlay with
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
pub struct DeltaCsr {
    /// Both directions of the CSR image, paired exactly like the overlay's
    /// sides: undirected graphs store each logical edge twice in `out`
    /// (mirror entries) and serve `in_*` from it.
    snapshot: RwLock<Sides<CsrDir>>,
    /// The chunked overlay, and with it the shell's routing, pass protocol
    /// and edge counter.
    overlay: TwoSided<Chunks<DeltaChunk>>,
    /// Overlay mutations since the last compaction (adds pushed, adds
    /// retracted, tombstones pushed) — the compaction trigger.
    delta_ops: AtomicUsize,
    /// Stored entries in the current snapshot, mirrored out of the lock so
    /// the trigger check stays lock-free.
    snap_entries: AtomicUsize,
    /// Merges performed over the structure's lifetime (ablation
    /// observability).
    compactions: AtomicUsize,
    threshold_floor: usize,
}

impl std::fmt::Debug for DeltaCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaCsr")
            .field("capacity", &self.capacity())
            .field("directed", &self.is_directed())
            .field("edges", &self.num_edges())
            .field("delta_ops", &self.delta_ops.load(Ordering::Relaxed))
            .finish()
    }
}

impl DeltaCsr {
    /// Creates an empty Delta-CSR graph with the given number of
    /// single-threaded overlay chunks (typically the update thread count).
    pub fn new(capacity: usize, directed: bool, chunks: usize) -> Self {
        Self {
            snapshot: RwLock::new(Sides::new(directed, |_| CsrDir::empty(capacity))),
            overlay: TwoSided::with_sides(capacity, directed, |_| {
                Chunks::new(capacity, chunks, |local_count| DeltaChunk {
                    adds: vec![Vec::new(); local_count],
                    dels: vec![Vec::new(); local_count],
                })
            }),
            delta_ops: AtomicUsize::new(0),
            snap_entries: AtomicUsize::new(0),
            compactions: AtomicUsize::new(0),
            threshold_floor: DEFAULT_THRESHOLD_FLOOR,
        }
    }

    /// Overrides the compaction floor (overlay entries that force a merge
    /// regardless of snapshot size) — the knob the compaction-threshold
    /// ablation sweeps. The proportional part (overlay ≥ snapshot / 4)
    /// is unchanged.
    pub fn with_compaction_threshold(mut self, floor: usize) -> Self {
        self.threshold_floor = floor.max(1);
        self
    }

    /// Overlay mutations accumulated since the last compaction (test and
    /// ablation observability).
    pub fn pending_delta_ops(&self) -> usize {
        self.delta_ops.load(Ordering::Acquire)
    }

    /// Snapshot merges performed so far (threshold-triggered and explicit).
    pub fn compactions(&self) -> usize {
        self.compactions.load(Ordering::Acquire)
    }

    /// One chunked-style batch with the snapshot read-locked throughout,
    /// then the compaction check; returns how many logical edges changed.
    fn run_batch(&self, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        let changed = {
            let snap = self.snapshot.read();
            self.overlay.chunked_batch(batch, pool, |chunk, edge, into_in| {
                self.overlay.apply_pass(edge, into_in, |delta, key, nbr| {
                    let dir = snap.side(into_in);
                    let changed = chunk.apply(dir, op, delta.local(key), key, nbr, edge.weight);
                    if changed {
                        self.delta_ops.fetch_add(1, Ordering::Relaxed);
                    }
                    changed
                })
            })
        };
        self.maybe_compact();
        changed
    }

    /// One stray visit of the live graph: `read(chunk, dir, local)` on `v`'s
    /// overlay chunk and snapshot direction, under guards of its own.
    fn visit<R>(
        &self,
        v: Node,
        is_in: bool,
        read: impl FnOnce(&DeltaChunk, &CsrDir, usize) -> R,
    ) -> R {
        let snap = self.snapshot.read();
        let delta = self.overlay.sides.side(is_in);
        read(&delta.read_chunk(delta.chunk_of(v)), snap.side(is_in), delta.local(v))
    }

    /// Merges snapshot and overlay into a fresh CSR image if the overlay
    /// has crossed the compaction threshold.
    fn maybe_compact(&self) {
        let ops = self.delta_ops.load(Ordering::Acquire);
        let threshold = self
            .threshold_floor
            .max(self.snap_entries.load(Ordering::Acquire) / THRESHOLD_SNAPSHOT_DIVISOR);
        if ops >= threshold {
            self.compact();
        }
    }

    /// Unconditional merge: rebuilds both CSR images with tombstones
    /// applied and adds merged in id order, then resets the overlay. The
    /// directions are merged and replaced one at a time, so the transient
    /// is one direction's image beside the base, not both.
    pub fn compact(&self) {
        let _span = saga_trace::span!("compaction", ops = self.delta_ops.load(Ordering::Relaxed) as u64);
        let mut snap = self.snapshot.write();
        let snap = &mut *snap;
        let sides = &self.overlay.sides;
        snap.out = Self::merge_dir(self.capacity(), &snap.out, &sides.out);
        if let (Some(inn), Some(delta)) = (snap.inn.as_mut(), sides.inn.as_ref()) {
            *inn = Self::merge_dir(self.capacity(), inn, delta);
        }
        let entries = snap.out.len() + snap.inn.as_ref().map_or(0, CsrDir::len);
        self.snap_entries.store(entries, Ordering::Release);
        self.delta_ops.store(0, Ordering::Release);
        self.compactions.fetch_add(1, Ordering::AcqRel);
        saga_trace::metrics::counter(COMPACTIONS_METRIC).incr();
    }

    /// Rebuilds one direction through the CSR builder, which keeps every
    /// list id-sorted: membership stays a binary search and snapshots of
    /// different structures stay directly comparable. Holds every chunk's
    /// write guard of the direction for the duration (the snapshot write
    /// lock already excludes readers and ingest batches; chunk guards are
    /// taken in index order).
    fn merge_dir(capacity: usize, dir: &CsrDir, delta: &Chunks<DeltaChunk>) -> CsrDir {
        let mut guards: Vec<_> = (0..delta.count()).map(|c| delta.write_chunk(c)).collect();
        CsrDir::build(capacity, dir.len(), |v, edges| {
            let local = delta.local(v);
            let DeltaChunk { adds, dels } = &mut *guards[delta.chunk_of(v)];
            let (adds, dels) = (&mut adds[local], &mut dels[local]);
            let live = dir.neighbors(v);
            if dels.is_empty() {
                edges.extend_from_slice(live);
            } else {
                dels.sort_unstable();
                edges.extend(live.iter().filter(|&&(n, _)| dels.binary_search(&n).is_err()));
                dels.clear();
            }
            edges.append(adds);
        })
    }
}

impl GraphTopology for DeltaCsr {
    fn capacity(&self) -> usize {
        self.overlay.capacity
    }

    fn num_edges(&self) -> usize {
        self.overlay.edge_count()
    }

    fn is_directed(&self) -> bool {
        self.overlay.directed()
    }

    fn out_degree(&self, v: Node) -> usize {
        self.visit(v, false, |chunk, dir, local| chunk.degree(dir, local, v))
    }

    fn in_degree(&self, v: Node) -> usize {
        self.visit(v, true, |chunk, dir, local| chunk.degree(dir, local, v))
    }

    fn for_each_out_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        self.visit(v, false, |chunk, dir, local| chunk.for_each(dir, local, v, f));
    }

    fn for_each_in_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        self.visit(v, true, |chunk, dir, local| chunk.for_each(dir, local, v, f));
    }

    fn frozen(&self, f: &mut dyn FnMut(&dyn GraphTopology)) {
        let snap = self.snapshot.read();
        let guards = self.overlay.read_chunks();
        f(&self.overlay.view_over(|is_in| {
            FrozenDelta(snap.side(is_in), FrozenChunks::new(guards.side(is_in)))
        }));
    }
}

impl DynamicGraph for DeltaCsr {
    fn update_batch(&self, batch: &[Edge], pool: &ThreadPool) -> UpdateStats {
        let inserted = self.run_batch(batch, pool, Op::Insert);
        self.overlay.tally_inserted(batch.len(), inserted)
    }

    fn kind(&self) -> DataStructureKind {
        DataStructureKind::DeltaCsr
    }
}

impl DeletableGraph for DeltaCsr {
    fn delete_batch(&self, batch: &[Edge], pool: &ThreadPool) -> DeleteStats {
        let removed = self.run_batch(batch, pool, Op::Remove);
        self.overlay.tally_removed(batch.len(), removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn delete_spans_overlay_and_snapshot() {
        let p = pool();
        let g = DeltaCsr::new(10, true, 4);
        g.update_batch(&[Edge::new(1, 3, 2.0), Edge::new(1, 5, 1.0)], &p);
        g.compact(); // (1,3) and (1,5) now live in the snapshot
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
        g.delete_batch(&[Edge::new(0, 1, 0.0)], &p); // tombstone snapshot edge
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
        let g = DeltaCsr::new(200, true, 2).with_compaction_threshold(16);
        let batch: Vec<Edge> = (0..40).map(|i| Edge::new(i, (i + 1) % 200, 1.0)).collect();
        g.update_batch(&batch, &p);
        // 40 logical edges × 2 directions = 80 overlay entries ≥ 16 ⇒ the
        // batch-end check compacted and the overlay is empty again.
        assert_eq!(g.pending_delta_ops(), 0);
        assert_eq!(g.compactions(), 1);
        assert_eq!(g.num_edges(), 40);
        assert_eq!(g.out_neighbors(0), vec![(1, 1.0)]);
        assert_eq!(g.in_neighbors(40), vec![(39, 1.0)]);
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
        assert_eq!(g.compactions() - own_before, 1);
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
        assert_eq!(g.out_degree(2), 2); // 2 snapshot − 1 tombstone + 1 add
        assert_eq!(g.in_degree(8), 1);
        assert_eq!(g.in_degree(4), 0);
    }
}
