//! The two-sided graph shell: everything about a streaming structure that
//! is not its store.
//!
//! The paper classifies its structures on two independent axes (§III-A):
//! how one direction of adjacency is *stored*, and how a batch is
//! *multithreaded* over that store. This module owns the second axis and
//! everything the axes share; the structure modules own only the first.
//!
//! | style \ store | neighbor vectors | 16-edge block chains | degree-aware hash tables | CSR base + overlay |
//! |---|---|---|---|---|
//! | **shared** — per-edge `parallel for`, fine-grained locks ([`SharedSide`]) | AS | Stinger | | |
//! | **chunked** — one owner worker per chunk, lock-free inside ([`Chunk`] in [`Chunks`]) | AC | | DAH | DeltaCSR |
//!
//! "Lock-free inside" holds for both phases: a batch's owner worker takes
//! its chunk's write guard once per pass, and a read phase takes every
//! chunk's read guard once ([`GraphTopology::frozen`]) and then reads
//! through plain references ([`FrozenChunks`]). Only a stray per-visit read
//! of the live graph pays a (shared, one-chunk) lock.
//!
//! [`TwoSided`] holds the `out` store and, for directed graphs, the `in`
//! copy of footnote 3; implements [`GraphTopology`], [`DynamicGraph`] and
//! [`DeletableGraph`] once; and keeps the *pass protocol* — how one logical
//! edge maps to stored entries, and which of them is counted — in
//! `TwoSided::pass` and `TwoSided::apply_pass`, which both styles call.

use crate::{
    DataStructureKind, DeletableGraph, DeleteStats, DynamicGraph, Edge, GraphTopology, Node,
    UpdateStats, Weight,
};
use saga_utils::parallel::ThreadPool;
use saga_utils::partition::Partitioner;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use saga_utils::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Buckets per pool worker in partitioned shared-style ingest: more buckets
/// than workers lets the dynamic bucket cursor balance skewed batches.
const BUCKETS_PER_WORKER: usize = 8;

/// What a batch does with each of its edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Search, then insert if absent (`update_batch`).
    Insert,
    /// Search, then remove if present (`delete_batch`).
    Remove,
}

/// The `out` half of a two-sided value and, for directed graphs, its `in`
/// copy (footnote 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sides<T> {
    pub(crate) out: T,
    pub(crate) inn: Option<T>,
}

impl<T> Sides<T> {
    /// Builds `out` as `make(false)` and, when `directed`, `inn` as
    /// `make(true)`.
    pub(crate) fn new(directed: bool, mut make: impl FnMut(/*is_in:*/ bool) -> T) -> Self {
        Self {
            out: make(false),
            inn: directed.then(|| make(true)),
        }
    }

    /// The half an `into_in` pass reads or writes: the in-copy when there
    /// is one, else `out` — which also holds an undirected graph's mirrors.
    pub(crate) fn side(&self, into_in: bool) -> &T {
        match &self.inn {
            Some(inn) if into_in => inn,
            _ => &self.out,
        }
    }
}

/// The read half of one direction of adjacency — all [`TwoSided`] needs to
/// be a [`GraphTopology`], and all a frozen view's store provides.
pub trait ReadSide: Send + Sync + Sized {
    /// Current number of neighbors stored for `v`.
    fn degree(&self, v: Node) -> usize;

    /// Visits every neighbor stored for `v`.
    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight));

    /// [`GraphTopology::frozen`] of a shell over this store: the shell
    /// itself, unless the store can trade its per-visit lock for one taken
    /// per phase.
    fn frozen(shell: &TwoSided<Self>, f: &mut dyn FnMut(&dyn GraphTopology)) {
        f(shell);
    }
}

/// One direction of a live structure's adjacency: a [`ReadSide`] plus the
/// choice of multithreading style for its batches.
pub trait Side: ReadSide {
    /// The structure a [`TwoSided`] over this store is.
    const KIND: DataStructureKind;

    /// Applies `op` to every edge of `batch` in this store's multithreading
    /// style and returns how many logical edges changed.
    fn run_batch(shell: &TwoSided<Self>, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize;
}

/// Reusable partitioning scratch of the update phase: one [`Partitioner`]
/// per pass (out-keys and in-keys of the same batch), so `update_batch(&self)`
/// reaches steady state with zero per-batch allocation.
#[derive(Default)]
pub(crate) struct IngestScratch {
    out: Partitioner,
    inn: Partitioner,
}

/// A streaming graph structure over store `S`: the `out` / `in` pair, the
/// edge counter, and the protocol that maps logical edges to stored passes.
/// The five public structures are this type.
pub struct TwoSided<S> {
    pub(crate) sides: Sides<S>,
    pub(crate) capacity: usize,
    edges: AtomicUsize,
    /// Shared-style only: route batches through the counting-sort
    /// partitioner instead of the paper's per-edge `parallel for`.
    partitioned: bool,
    scratch: Mutex<IngestScratch>,
}

impl<S: Side> std::fmt::Debug for TwoSided<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(S::KIND.abbrev())
            .field("capacity", &self.capacity)
            .field("directed", &self.directed())
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl<S> TwoSided<S> {
    /// An empty graph over vertex ids `0..capacity` whose stores come from
    /// `make(is_in)`.
    pub(crate) fn with_sides(
        capacity: usize,
        directed: bool,
        make: impl FnMut(/*is_in:*/ bool) -> S,
    ) -> Self {
        Self {
            sides: Sides::new(directed, make),
            capacity,
            edges: AtomicUsize::new(0),
            partitioned: false,
            scratch: Mutex::new(IngestScratch::default()),
        }
    }

    pub(crate) fn directed(&self) -> bool {
        self.sides.inn.is_some()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.edges.load(Ordering::Acquire)
    }

    /// A shell of this one's shape and edge count over the stores
    /// `make(is_in)` — how a store presents borrowed guards as a frozen view.
    fn view_over<R>(&self, make: impl FnMut(/*is_in:*/ bool) -> R) -> TwoSided<R> {
        let mut view = TwoSided::with_sides(self.capacity, self.directed(), make);
        view.edges = AtomicUsize::new(self.edge_count());
        view
    }

    /// `(key, nbr)` of one of the two stored passes of `edge`: `key`'s
    /// adjacency gains or loses `nbr`, so `key` is also what the pass is
    /// routed by. The out pass stores `src → dst`; the in pass stores
    /// `dst → src` into the in-copy (directed) or as the mirror entry in
    /// `out` (undirected). An undirected edge is canonicalised small → large
    /// first, so `(a, b)` and `(b, a)` are the same two passes.
    pub(crate) fn pass(&self, edge: &Edge, into_in: bool) -> (Node, Node) {
        let (src, dst) = if self.directed() || edge.src <= edge.dst {
            (edge.src, edge.dst)
        } else {
            (edge.dst, edge.src)
        };
        if into_in {
            (dst, src)
        } else {
            (src, dst)
        }
    }

    /// Runs one pass of `edge` through `apply(store, key, nbr)` — a
    /// search-first insert or remove reporting whether it changed the store
    /// — and returns whether the pass accounts for a logical edge.
    ///
    /// Because every `apply` searches first and the two passes of an edge
    /// are always attempted as a pair, they may run coupled (the in pass
    /// only after the out pass changed something) or decoupled on different
    /// workers: a redundant pass finds its entry already present or absent.
    pub(crate) fn apply_pass(
        &self,
        edge: &Edge,
        into_in: bool,
        apply: impl FnOnce(&S, Node, Node) -> bool,
    ) -> bool {
        let (key, nbr) = self.pass(edge, into_in);
        if !self.directed() && into_in && key == nbr {
            // The undirected self-loop mirror is the entry its canonical
            // pass already handled: skip the redundant search.
            return false;
        }
        // A logical edge is counted exactly once, by its out (directed) or
        // canonical (undirected) pass.
        apply(self.sides.side(into_in), key, nbr) && !into_in
    }
}

impl<S: ReadSide> GraphTopology for TwoSided<S> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn num_edges(&self) -> usize {
        self.edge_count()
    }

    fn is_directed(&self) -> bool {
        self.directed()
    }

    fn out_degree(&self, v: Node) -> usize {
        self.sides.out.degree(v)
    }

    fn in_degree(&self, v: Node) -> usize {
        self.sides.side(true).degree(v)
    }

    fn for_each_out_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        self.sides.out.for_each(v, f);
    }

    fn for_each_in_neighbor(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        self.sides.side(true).for_each(v, f);
    }

    fn frozen(&self, f: &mut dyn FnMut(&dyn GraphTopology)) {
        S::frozen(self, f);
    }
}

impl<S: Side> DynamicGraph for TwoSided<S> {
    fn update_batch(&self, batch: &[Edge], pool: &ThreadPool) -> UpdateStats {
        let inserted = S::run_batch(self, batch, pool, Op::Insert);
        self.edges.fetch_add(inserted, Ordering::AcqRel);
        UpdateStats { inserted, duplicates: batch.len() - inserted }
    }

    fn kind(&self) -> DataStructureKind {
        S::KIND
    }
}

impl<S: Side> DeletableGraph for TwoSided<S> {
    fn delete_batch(&self, batch: &[Edge], pool: &ThreadPool) -> DeleteStats {
        let removed = S::run_batch(self, batch, pool, Op::Remove);
        self.edges.fetch_sub(removed, Ordering::AcqRel);
        DeleteStats { removed, missing: batch.len() - removed }
    }
}

/// A store multithreaded *shared-style* (§III-A1, §III-A3): any worker may
/// update any vertex, under the store's own fine-grained locks.
pub trait SharedSide: Side {
    /// Whatever the store can keep locked across a run of passes on one
    /// vertex (AS: the vertex's list guard; Stinger: nothing — its locks are
    /// per block).
    type Held<'a>
    where
        Self: 'a;

    /// Takes `key`'s lock, if the store has one per vertex.
    fn hold(&self, key: Node) -> Self::Held<'_>;

    /// Search-then-insert or search-then-remove of `key → nbr` under
    /// `held`; returns whether the store changed.
    fn apply_held(
        &self,
        held: &mut Self::Held<'_>,
        op: Op,
        key: Node,
        nbr: Node,
        weight: Weight,
    ) -> bool;
}

impl<S: SharedSide> TwoSided<S> {
    /// Enables or disables partitioned ingest: the batch is first grouped
    /// by key vertex with the counting-sort partitioner, then each bucket of
    /// vertices is drained by exactly one worker, so no two workers ever
    /// contend on one vertex and a per-vertex lock is taken once per run of
    /// same-key edges. It removes the hub serialization the paper measures
    /// for shared-style structures and is therefore off by default.
    pub fn with_partitioned_ingest(mut self, enabled: bool) -> Self {
        self.partitioned = enabled;
        self
    }

    /// The paper's shared-style batch: a static `parallel for` over the
    /// edges (one contiguous range per worker), each worker running both
    /// passes of its edges.
    pub(crate) fn shared_batch(&self, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        if self.partitioned {
            return self.partitioned_batch(batch, pool, op);
        }
        let changed = AtomicUsize::new(0);
        pool.parallel_ranges(0..batch.len(), |_, range| {
            let mut local = 0;
            for edge in &batch[range] {
                let apply = |side: &S, key, nbr| {
                    side.apply_held(&mut side.hold(key), op, key, nbr, edge.weight)
                };
                // Coupled passes: the out pass decides (under the key's
                // lock) which of two racing copies of an edge wins, and only
                // the winner touches the in side.
                if self.apply_pass(edge, false, apply) {
                    self.apply_pass(edge, true, apply);
                    local += 1;
                }
            }
            changed.fetch_add(local, Ordering::Relaxed);
        });
        changed.load(Ordering::Relaxed)
    }

    /// Partitions both passes by key vertex, then drains buckets through a
    /// dynamic cursor. Bucket exclusivity means no two workers ever touch
    /// the same vertex, so every lock acquisition is uncontended.
    fn partitioned_batch(&self, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        let n_buckets = (pool.threads() * BUCKETS_PER_WORKER).max(1);
        let mut scratch = self.scratch.lock();
        let IngestScratch { out, inn } = &mut *scratch;
        out.partition(pool, batch.len(), n_buckets, |i| {
            self.pass(&batch[i], false).0 as usize % n_buckets
        });
        inn.partition(pool, batch.len(), n_buckets, |i| {
            self.pass(&batch[i], true).0 as usize % n_buckets
        });
        let (out, inn) = (&*out, &*inn);
        let changed = AtomicUsize::new(0);
        let cursor = AtomicUsize::new(0);
        pool.run_on_all(|_| {
            let mut local = 0;
            loop {
                // Dynamic bucket grabbing: skewed buckets (a hub's vertex)
                // keep one worker busy while the others drain the rest.
                let b = cursor.fetch_add(1, Ordering::Relaxed);
                if b >= n_buckets {
                    break;
                }
                for (part, into_in) in [(out, false), (inn, true)] {
                    let side = self.sides.side(into_in);
                    let idxs = part.bucket(b);
                    let mut i = 0;
                    while i < idxs.len() {
                        // Hold once per run of consecutive same-key edges
                        // (buckets preserve batch order, so a hub's edges
                        // form one long run).
                        let run_key = self.pass(&batch[idxs[i] as usize], into_in).0;
                        let mut held = side.hold(run_key);
                        while i < idxs.len() {
                            let edge = &batch[idxs[i] as usize];
                            if self.pass(edge, into_in).0 != run_key {
                                break;
                            }
                            if self.apply_pass(edge, into_in, |side, key, nbr| {
                                side.apply_held(&mut held, op, key, nbr, edge.weight)
                            }) {
                                local += 1;
                            }
                            i += 1;
                        }
                    }
                }
            }
            changed.fetch_add(local, Ordering::Relaxed);
        });
        changed.load(Ordering::Relaxed)
    }
}

/// The per-chunk store of a structure multithreaded *chunked-style*
/// (§III-A2, §III-A4): a single-threaded structure over the vertices one
/// chunk owns, indexed by their local index. `Sync` because a read phase
/// shares every chunk between the compute workers.
pub trait Chunk: Send + Sync {
    /// The structure a [`TwoSided`] over [`Chunks`] of this chunk is.
    const KIND: DataStructureKind;

    /// Search-then-insert or search-then-remove of `key → nbr`, where `key`
    /// is this chunk's vertex number `local`; returns whether the chunk
    /// changed.
    fn apply(&mut self, op: Op, local: usize, key: Node, nbr: Node, weight: Weight) -> bool;

    /// Current number of neighbors of the chunk's vertex number `local`.
    fn degree_at(&self, local: usize) -> usize;

    /// Visits every neighbor of `key`, the chunk's vertex number `local`.
    fn for_each_at(&self, local: usize, key: Node, f: &mut dyn FnMut(Node, Weight));
}

/// One direction of chunked adjacency: vertex `v` belongs to chunk
/// `v % chunks` at local index `v / chunks`. Each chunk sits behind a
/// reader-writer lock that is taken per *phase*, not per edge: the update
/// phase's ownership discipline (exactly one worker per chunk) lets the
/// owner hold the write guard for a whole pass, and a read phase holds all
/// read guards at once ([`FrozenChunks`]) — the "lockless" property the
/// paper ascribes to chunked multithreading. The locks only order the two
/// kinds of phase, and only one way round: a batch waits for a live view to
/// drop. Guards are per chunk, so a view opened *during* a batch is not made
/// to wait for the whole batch — the phases are the caller's to keep apart.
pub struct Chunks<C> {
    chunks: Vec<RwLock<C>>,
}

impl<C> Chunks<C> {
    /// `chunks` (at least one) chunks over `0..capacity`, each built by
    /// `make(local_count)` for the vertices `c, c + chunks, c + 2·chunks, …`
    /// it owns.
    pub(crate) fn new(capacity: usize, chunks: usize, make: impl Fn(usize) -> C) -> Self {
        let chunks = chunks.max(1);
        Self {
            chunks: (0..chunks)
                .map(|c| RwLock::new(make(capacity.saturating_sub(c).div_ceil(chunks))))
                .collect(),
        }
    }

    fn count(&self) -> usize {
        self.chunks.len()
    }

    pub(crate) fn chunk_of(&self, v: Node) -> usize {
        v as usize % self.chunks.len()
    }

    /// `v`'s index inside its chunk.
    pub(crate) fn local(&self, v: Node) -> usize {
        v as usize / self.chunks.len()
    }

    pub(crate) fn read_chunk(&self, chunk: usize) -> RwLockReadGuard<'_, C> {
        self.chunks[chunk].read()
    }

    fn write_chunk(&self, chunk: usize) -> RwLockWriteGuard<'_, C> {
        self.chunks[chunk].write()
    }
}

/// [`Chunks`] for the length of a read phase: the same vertex → chunk map
/// over plain references into read guards the caller holds, so a visit is
/// an index, not a lock.
pub struct FrozenChunks<'a, C>(Vec<&'a C>);

impl<'a, C> FrozenChunks<'a, C> {
    fn new(guards: &'a [RwLockReadGuard<'_, C>]) -> Self {
        Self(guards.iter().map(|guard| &**guard).collect())
    }

    /// `v`'s chunk and its index inside it.
    fn at(&self, v: Node) -> (&'a C, usize) {
        (self.0[v as usize % self.0.len()], v as usize / self.0.len())
    }
}

impl<C: Chunk> ReadSide for FrozenChunks<'_, C> {
    fn degree(&self, v: Node) -> usize {
        let (chunk, local) = self.at(v);
        chunk.degree_at(local)
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        let (chunk, local) = self.at(v);
        chunk.for_each_at(local, v, f);
    }
}

impl<C: Chunk> ReadSide for Chunks<C> {
    fn degree(&self, v: Node) -> usize {
        self.read_chunk(self.chunk_of(v)).degree_at(self.local(v))
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        self.read_chunk(self.chunk_of(v)).for_each_at(self.local(v), v, f);
    }

    fn frozen(shell: &TwoSided<Self>, f: &mut dyn FnMut(&dyn GraphTopology)) {
        let guards = shell.read_chunks();
        f(&shell.view_over(|is_in| FrozenChunks::new(guards.side(is_in))));
    }
}

impl<C: Chunk> Side for Chunks<C> {
    const KIND: DataStructureKind = C::KIND;

    /// The chunked-style batch: routes every pass to the chunk owning its
    /// key vertex; the chunk's owner worker then takes the chunk's write
    /// guard once per pass and applies the pass's edges under it.
    fn run_batch(shell: &TwoSided<Self>, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        let out = &shell.sides.out;
        chunked_update(
            batch,
            pool,
            out.count(),
            &shell.scratch,
            |edge, into_in| out.chunk_of(shell.pass(edge, into_in).0),
            |chunk, into_in, bucket| {
                let mut guard = shell.sides.side(into_in).write_chunk(chunk);
                bucket
                    .iter()
                    .filter(|&&i| {
                        let edge = &batch[i as usize];
                        shell.apply_pass(edge, into_in, |side, key, nbr| {
                            guard.apply(op, side.local(key), key, nbr, edge.weight)
                        })
                    })
                    .count()
            },
        )
    }
}

impl<C> TwoSided<Chunks<C>> {
    /// Every chunk's read guard: `out`'s in index order, then the in-copy's.
    fn read_chunks(&self) -> Sides<Vec<RwLockReadGuard<'_, C>>> {
        Sides::new(self.directed(), |is_in| {
            let side = self.sides.side(is_in);
            (0..side.count()).map(|chunk| side.read_chunk(chunk)).collect()
        })
    }

    /// Every chunk's lock, in the same order.
    pub(crate) fn chunk_locks(&self) -> impl Iterator<Item = &RwLock<C>> {
        std::iter::once(&self.sides.out).chain(&self.sides.inn).flat_map(|side| &side.chunks)
    }
}

/// Runs a chunk-partitioned pass over a batch.
///
/// The batch is first partitioned into per-chunk buckets of edge indices —
/// once per pass, evaluating `key_chunk` exactly twice per edge whatever the
/// chunk count — then worker `w` hands the buckets of every chunk `c` with
/// `c % threads == w` to `drain(c, into_in, bucket)`: that chunk's out-keyed
/// edges, then its in-keyed edges, each in batch order. Chunk ownership (and
/// therefore the paper's imbalance behaviour, Fig. 9) is the paper's.
///
/// `drain` returns how many logical edges its bucket accounts for.
fn chunked_update<FKey, FDrain>(
    batch: &[Edge],
    pool: &ThreadPool,
    chunk_count: usize,
    scratch: &Mutex<IngestScratch>,
    key_chunk: FKey,
    drain: FDrain,
) -> usize
where
    FKey: Fn(&Edge, /*into_in:*/ bool) -> usize + Sync,
    FDrain: Fn(usize, /*into_in:*/ bool, &[u32]) -> usize + Sync,
{
    let mut scratch = scratch.lock();
    let IngestScratch { out, inn } = &mut *scratch;
    out.partition(pool, batch.len(), chunk_count, |i| key_chunk(&batch[i], false));
    inn.partition(pool, batch.len(), chunk_count, |i| key_chunk(&batch[i], true));
    let (out, inn) = (&*out, &*inn);
    let changed = AtomicUsize::new(0);
    pool.run_on_all(|w| {
        // Each bucket is in batch order, so the first copy of a duplicated
        // edge wins in every chunk it reaches. The two buckets need no
        // interleaving: they write different stores (directed) or disjoint
        // entries of one list (undirected: the canonical pass stores
        // `v → x` with `x >= v`, the mirror pass `x < v`).
        let drain_chunk = |c| drain(c, false, out.bucket(c)) + drain(c, true, inn.bucket(c));
        let local_changed: usize = (w..chunk_count).step_by(pool.threads()).map(drain_chunk).sum();
        changed.fetch_add(local_changed, Ordering::Relaxed);
    });
    changed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_csr::DeltaCsr;
    use crate::oracle::GraphOracle;
    use crate::{build_deletable_graph_with, DataStructureKind};

    /// Every structure × directedness × partitioned-ingest choice.
    fn every_config(mut check: impl FnMut(DataStructureKind, bool, bool)) {
        for kind in DataStructureKind::ALL_WITH_DELTA {
            for directed in [true, false] {
                for partitioned in [false, true] {
                    check(kind, directed, partitioned);
                }
            }
        }
    }

    /// The shell's contract, once for all five structures: after every batch
    /// of a script that walks the protocol's corner cases, the batch tallies
    /// and the whole topology (both directions, degrees, weights) — read per
    /// visit from the live graph and through its frozen view — equal the
    /// sequential oracle's. DeltaCSR runs once more at a compaction floor of
    /// 1, where chunks merge inside the pass, many times per batch.
    #[test]
    fn every_structure_follows_the_pass_protocol() {
        let e = |s, d, w: f32| Edge::new(s, d, w);
        let bulk: Vec<Edge> = (0..600).map(|i| e(i % 23, (i * 17) % 29, 1.0)).collect();
        let bulk_deletes: Vec<Edge> = (0..200).map(|i| e(i % 23, (i * 5) % 29, 0.0)).collect();
        let script: Vec<(Op, Vec<Edge>)> = vec![
            // Both directions of a directed edge; a reversed duplicate and a
            // self-loop, which an undirected graph stores once.
            (Op::Insert, vec![e(1, 3, 2.0), e(2, 4, 1.5), e(4, 2, 1.5), e(3, 3, 4.0)]),
            // Duplicates inside one batch and across batches.
            (Op::Insert, [vec![e(0, 1, 1.0); 10], vec![e(1, 3, 2.0), e(0, 2, 1.0)]].concat()),
            // Delete: present, never present, twice in one batch, reversed
            // orientation (the same edge only when undirected); weights are
            // ignored when matching.
            (Op::Remove, vec![e(0, 1, 9.0), e(5, 6, 0.0), e(0, 2, 0.0), e(0, 2, 0.0), e(3, 1, 0.0)]),
            (Op::Remove, vec![e(3, 3, 0.0), e(3, 3, 0.0)]),
            // Reinsert after delete takes the new weight.
            (Op::Insert, vec![e(0, 1, 7.0), e(3, 3, 8.0)]),
            // Enough edges to span chunks, buckets, Stinger blocks, DAH's
            // flush threshold and DeltaCSR's compaction floor.
            (Op::Insert, bulk),
            (Op::Remove, bulk_deletes),
        ];
        let pool = ThreadPool::new(4);
        let follow = |g: &dyn DeletableGraph, directed: bool, label: &str| {
            let (kind, mut oracle) = (g.kind(), GraphOracle::new(32, directed));
            for (step, (op, batch)) in script.iter().enumerate() {
                let at = format!("{label}, directed = {directed}, step {step}");
                match op {
                    Op::Insert => {
                        assert_eq!(g.update_batch(batch, &pool), oracle.insert_batch_stats(batch), "{at}");
                    }
                    Op::Remove => {
                        assert_eq!(g.delete_batch(batch, &pool), oracle.delete_batch(batch), "{at}");
                    }
                }
                if let Some(diff) = oracle.diff(g, true) {
                    panic!("{at}: {diff}");
                }
                g.frozen(&mut |view| {
                    if let Some(diff) = oracle.diff_topology(kind, view, true) {
                        panic!("{at}, frozen view: {diff}");
                    }
                });
            }
        };
        every_config(|kind, directed, partitioned| {
            let g = build_deletable_graph_with(kind, 32, directed, pool.threads(), partitioned);
            follow(g.as_ref(), directed, &format!("{kind:?}, partitioned = {partitioned}"));
        });
        for directed in [true, false] {
            let g = DeltaCsr::new(32, directed, pool.threads()).with_compaction_threshold(1);
            follow(&g, directed, "DeltaCsr, compaction floor 1");
            assert!(g.compactions() > 2 * script.len(), "directed = {directed}: chunks merge inside passes");
        }
    }

    /// One batch carries the same edge with different weights, and its two
    /// passes land in different chunks / buckets (`1 % 4 != 6 % 4`). Both
    /// stored copies must carry the same weight; where one worker owns each
    /// vertex (chunked style, partitioned ingest) the first copy in the batch
    /// wins, as in the oracle. The per-edge shared loop races the copies, so
    /// there only the agreement of the two copies is checked.
    #[test]
    fn conflicting_weights_in_one_batch_stay_symmetric() {
        let pool = ThreadPool::new(4);
        let batch = [Edge::new(1, 6, 1.0), Edge::new(6, 1, 2.0), Edge::new(1, 6, 3.0)];
        every_config(|kind, directed, partitioned| {
            let g = build_deletable_graph_with(kind, 8, directed, pool.threads(), partitioned);
            let mut oracle = GraphOracle::new(8, directed);
            assert_eq!(g.update_batch(&batch, &pool), oracle.insert_batch_stats(&batch));
            let shared_style =
                matches!(kind, DataStructureKind::AdjacencyShared | DataStructureKind::Stinger);
            oracle.assert_matches(g.as_ref(), partitioned || !shared_style);
            let weights = |ns: Vec<(Node, Weight)>| ns.into_iter().map(|(_, w)| w).collect::<Vec<_>>();
            let at = format!("{kind:?}, directed = {directed}, partitioned = {partitioned}");
            assert_eq!(weights(g.out_neighbors(1)), weights(g.in_neighbors(6)), "{at}");
            assert_eq!(weights(g.out_neighbors(6)), weights(g.in_neighbors(1)), "{at}");
        });
    }

    #[test]
    fn chunk_ownership_partitions_vertices() {
        let chunks = Chunks::new(103, 4, |local_count| local_count);
        for v in 0..103u32 {
            assert_eq!(chunks.chunk_of(v), v as usize % 4);
            assert_eq!(chunks.local(v), v as usize / 4);
        }
        // 103 = 4 × 25 + 3: chunks 0..3 own 26 vertices, chunk 3 owns 25.
        let owned: Vec<usize> = (0..4).map(|c| *chunks.read_chunk(c)).collect();
        assert_eq!(owned, [26, 26, 26, 25]);
    }

    #[test]
    fn partitioned_update_evaluates_each_key_once() {
        // The O(batch) acceptance check: routing evaluates the chunk key
        // exactly twice per edge (once per pass) no matter how many chunks
        // exist, and hands every edge to exactly one chunk per pass.
        let pool = ThreadPool::new(4);
        let batch: Vec<Edge> = (0..200).map(|i| Edge::new(i % 13, i % 7, 1.0)).collect();
        for chunk_count in [1usize, 4, 16] {
            let evals = AtomicUsize::new(0);
            let key_chunk = |edge: &Edge, into_in: bool| {
                evals.fetch_add(1, Ordering::Relaxed);
                (if into_in { edge.dst } else { edge.src }) as usize % chunk_count
            };
            let scratch = Mutex::new(IngestScratch::default());
            let drained =
                chunked_update(&batch, &pool, chunk_count, &scratch, key_chunk, |_, _, b| b.len());
            assert_eq!(evals.load(Ordering::Relaxed), 2 * batch.len(), "chunks = {chunk_count}");
            assert_eq!(drained, 2 * batch.len(), "chunks = {chunk_count}");
        }
    }
}
