//! Stinger-style shared-memory structure with linked edge blocks
//! (§III-A3, Fig. 4 of the paper; Ediger et al., HPEC 2012).
//!
//! Each vertex owns a header — a degree counter and the id of its first
//! *edge block* — heading a singly linked chain of blocks that each hold a
//! fixed number of edges ([`DEFAULT_BLOCK_SIZE`] = 16, as in the paper).
//! Stinger differs from AS in two ways the paper calls out:
//!
//! 1. **Intra-node parallelism** — writers lock per *block*, not per
//!    vertex, so several threads can update edges of the same high-degree
//!    vertex concurrently.
//! 2. **Two scans per insert** — the first scan searches the chain for the
//!    target edge; if absent, a second scan re-checks every block under its
//!    lock and fills the first empty slot. This is the price of the
//!    fine-grained locks and is why Stinger's update is 1.57–1.76× slower
//!    than AS on short-tailed graphs (§V-B) while being ~3.9× faster than
//!    AS on heavy-tailed ones.
//!
//! A block is a header (`lock`, `len`, and the `link` to the next block)
//! plus `block_size` atomic slots, each a packed `(node, weight)` word.
//! Blocks live in a per-direction arena (`BlockArena`) of geometrically
//! growing segments, each allocated once: a block id maps to its segment
//! and index by arithmetic, so a hop takes no directory lock and no
//! reference count. Deletions recycle emptied tail blocks through a free
//! list.
//!
//! **Lock-free scans.** Every block but a chain's tail is full, and inserts
//! only ever append: a writer stores the slot, then `len` with Release; an
//! appender fills a fresh block, then links it with Release. A reader that
//! Acquire-loads `head` / `link` / `len` therefore sees every slot below
//! `len`, so a scan takes no block lock and copies nothing. What a scan
//! must not meet is a *deleter*, which moves edges and recycles blocks:
//! deleters hold the vertex's op-lock exclusively, and scan 1 and every
//! visit hold it shared — the one lock a read takes, never shared between
//! two vertices' readers. Stinger is its own
//! [`frozen`](crate::GraphTopology::frozen) view. Traversal still hops
//! block to block, the pointer-chasing the paper blames for Stinger's
//! compute latency, and the access probe records each hop for the cache
//! simulator.

use crate::shell::{Op, ReadSide, SharedSide, Side, TwoSided};
use crate::{DataStructureKind, Edge, Node, Weight};
use saga_utils::parallel::ThreadPool;
use saga_utils::probe;
use saga_utils::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use saga_utils::sync::{Mutex, OnceLock, RwLock};

/// Edges per block, matching the paper's Stinger configuration.
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// The null block id: the end of a chain, or the head of an empty one.
/// Block ids start at 1, so a zeroed header or vertex is empty.
const NONE: u32 = 0;

/// Blocks in the arena's first size class; class `c` holds
/// `FIRST_CLASS << c`, in [`SPLIT`] equal segments.
const FIRST_CLASS: usize = 64;

/// Segments per size class. A segment is filled in full when first
/// reached; at `1 / SPLIT` of its class it is about `1 / SPLIT` of the
/// blocks allocated before it, which bounds the arena's unused tail (a
/// class in one piece could leave about half the arena unused).
const SPLIT: usize = 8;

/// Segments enough to address every `u32` block id.
const SEGMENTS: usize = BlockArena::locate(u32::MAX).0 + 1;

/// One edge block's header; its slots sit in its segment's slot array.
#[derive(Default)]
struct Block {
    /// Serialises this block's writers (scan 2's re-check and fill).
    lock: Mutex<()>,
    /// Published slots: stored with Release after the slot it publishes.
    len: AtomicU32,
    /// The chain's next block, or [`NONE`].
    link: AtomicU32,
}

/// One arena segment: its block headers and their slots, one allocation
/// each.
struct Segment {
    blocks: Box<[Block]>,
    slots: Box<[AtomicU64]>,
}

/// Reads a slot. Slot accesses are Relaxed: the `len`, `link` or `head`
/// store that made the slot reachable publishes it.
fn read(slot: &AtomicU64) -> (Node, Weight) {
    let word = slot.load(Ordering::Relaxed);
    (word as Node, Weight::from_bits((word >> 32) as u32))
}

/// Writes a slot, for the caller to publish.
fn write(slot: &AtomicU64, node: Node, weight: Weight) {
    slot.store(node as u64 | (weight.to_bits() as u64) << 32, Ordering::Relaxed);
    probe::value_write(slot);
}

/// Where `dst` sits among `slots`.
fn position(slots: &[AtomicU64], dst: Node) -> Option<usize> {
    slots.iter().position(|slot| read(slot).0 == dst)
}

/// `block`'s published slots.
fn published<'a>(block: &Block, slots: &'a [AtomicU64]) -> &'a [AtomicU64] {
    let slots = &slots[..block.len.load(Ordering::Acquire) as usize];
    probe::slice_read(slots);
    slots
}

/// Distinguishes the lock ids the probe reports for different arenas (out
/// vs in lists, multiple graphs in one process).
static ARENA_TAGS: AtomicUsize = AtomicUsize::new(1);

/// Segment-pool allocator for edge blocks.
///
/// With `x = id − 1 + FIRST_CLASS`, block `id` lies in size class
/// `c = log2(x) − log2(FIRST_CLASS)`, `x − (FIRST_CLASS << c)` blocks into
/// it, which names a segment of the class and an index there.
/// A segment is initialised by the first allocation that reaches it and
/// never moves, so a linked id always resolves without a lock. Allocation
/// pops the free list (blocks recycled by deletion) or bumps a cursor.
///
/// Safety of recycling is a protocol, not a type: a block id is owned by
/// exactly one vertex chain, every walk of a chain holds that vertex's
/// op-lock shared, and ids are only released — as emptied, unlinked tails,
/// so with `len = 0` and no `link` — while the deleting thread holds the
/// op-lock exclusively. No walk can observe a block after it returns to
/// the free list.
struct BlockArena {
    segments: [OnceLock<Segment>; SEGMENTS],
    free: Mutex<Vec<u32>>,
    /// The last block id allocated fresh.
    bump: AtomicUsize,
    block_size: usize,
    /// High bits of the probe lock ids this arena reports.
    tag: u64,
}

impl BlockArena {
    fn new(block_size: usize) -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            free: Mutex::new(Vec::new()),
            bump: AtomicUsize::new(0),
            block_size,
            tag: (ARENA_TAGS.fetch_add(1, Ordering::Relaxed) as u64) << 32,
        }
    }

    /// Block `id`'s segment and its index there.
    const fn locate(id: u32) -> (usize, usize) {
        let offset = id as usize - 1 + FIRST_CLASS;
        let class = (offset.ilog2() - FIRST_CLASS.ilog2()) as usize;
        let into = offset - (FIRST_CLASS << class);
        let blocks = Self::blocks_in(class * SPLIT);
        (class * SPLIT + into / blocks, into % blocks)
    }

    /// Blocks in segment `k`.
    const fn blocks_in(k: usize) -> usize {
        (FIRST_CLASS << (k / SPLIT)) / SPLIT
    }

    /// Block `id`'s header and slots.
    fn block(&self, id: u32) -> (&Block, &[AtomicU64]) {
        let (k, i) = Self::locate(id);
        let segment = self.segments[k].get().expect("a linked block's segment is initialised");
        let block = &segment.blocks[i];
        // A hop is a dependent load (the pointer-chasing the paper
        // attributes Stinger's compute latency to): the probe records it.
        probe::value_read(block);
        (block, &segment.slots[i * self.block_size..][..self.block_size])
    }

    /// An empty, unlinked block: recycled if possible, fresh otherwise.
    fn alloc(&self) -> u32 {
        let recycled = self.free.lock().pop();
        recycled.unwrap_or_else(|| {
            let id = self.bump.fetch_add(1, Ordering::Relaxed) + 1;
            let id = u32::try_from(id).expect("Stinger block arena exhausted");
            let (k, _) = Self::locate(id);
            let blocks = Self::blocks_in(k);
            self.segments[k].get_or_init(|| Segment {
                blocks: (0..blocks).map(|_| Block::default()).collect(),
                slots: (0..blocks * self.block_size).map(|_| AtomicU64::new(0)).collect(),
            });
            id
        })
    }
}

/// Per-vertex header: degree and the block chain's two ends.
#[derive(Default)]
struct VertexEntry {
    degree: AtomicU32,
    /// The chain's first block, or [`NONE`].
    head: AtomicU32,
    /// The chain's last block, or [`NONE`]; its mutex serialises appends.
    tail: Mutex<u32>,
    /// Inserters and visits hold this shared (they stay concurrent
    /// — the intra-node parallelism of Fig. 4); deleters hold it
    /// exclusively, so a walk never meets a moved edge or a recycled block
    /// and a compaction never interleaves an insert's two scans. The
    /// no-holes invariant (every block full except the tail) that makes
    /// lock-free scans and concurrent duplicate detection sound depends on
    /// this too.
    op_lock: RwLock<()>,
}

/// One direction of Stinger adjacency.
pub struct StingerLists {
    vertices: Vec<VertexEntry>,
    arena: BlockArena,
}

impl StingerLists {
    fn new(capacity: usize, block_size: usize) -> Self {
        Self {
            vertices: (0..capacity).map(|_| VertexEntry::default()).collect(),
            arena: BlockArena::new(block_size),
        }
    }

    /// Walks the chain from block `id` until `visit(id, block, slots)`
    /// returns a value.
    fn walk_from<'s, R>(
        &'s self,
        mut id: u32,
        mut visit: impl FnMut(u32, &'s Block, &'s [AtomicU64]) -> Option<R>,
    ) -> Option<R> {
        while id != NONE {
            let (block, slots) = self.arena.block(id);
            if let Some(found) = visit(id, block, slots) {
                return Some(found);
            }
            id = block.link.load(Ordering::Acquire);
        }
        None
    }

    /// [`walk_from`](Self::walk_from) `v`'s first block.
    fn walk<'s, R>(
        &'s self,
        v: Node,
        visit: impl FnMut(u32, &'s Block, &'s [AtomicU64]) -> Option<R>,
    ) -> Option<R> {
        let entry = &self.vertices[v as usize];
        probe::value_read(&entry.head);
        self.walk_from(entry.head.load(Ordering::Acquire), visit)
    }

    /// Search-then-insert with the paper's two scans.
    fn insert(&self, src: Node, dst: Node, weight: Weight) -> bool {
        let entry = &self.vertices[src as usize];
        let _shared = entry.op_lock.read();
        probe::value_read(&entry.degree);

        // Scan 1: search the chain for the edge, lock-free.
        if self.walk(src, |_, block, slots| position(published(block, slots), dst)).is_some() {
            return false;
        }

        // Scan 2: walk again, re-checking for the edge under each block's
        // lock (so a racing insert of the same edge is caught) and filling
        // the first empty slot — only the tail can have one.
        let mut last = NONE;
        let filled = self.walk(src, |id, block, slots| {
            last = id;
            self.fill(id, block, slots, dst, weight)
        });
        let inserted = filled.unwrap_or_else(|| {
            // Every block is full: append under the tail mutex, after the
            // blocks other appenders linked since scan 2 reached the end.
            let mut tail = entry.tail.lock();
            let after = match last {
                NONE => entry.head.load(Ordering::Acquire),
                last => self.arena.block(last).0.link.load(Ordering::Acquire),
            };
            self.walk_from(after, |id, block, slots| self.fill(id, block, slots, dst, weight))
                .unwrap_or_else(|| {
                    self.append(entry, &mut tail, dst, weight);
                    true
                })
        });
        if inserted {
            entry.degree.fetch_add(1, Ordering::AcqRel);
        }
        inserted
    }

    /// Scan 2 on one block, under its lock: `Some(false)` if it holds `dst`,
    /// `Some(true)` once `dst` is stored into its first empty slot, `None`
    /// if it is full.
    fn fill(&self, id: u32, block: &Block, slots: &[AtomicU64], dst: Node, weight: Weight) -> Option<bool> {
        let _writer = block.lock.lock();
        let held = published(block, slots);
        // Reported per block lock id, unique across arenas.
        probe::critical(self.arena.tag | id as u64, held.len() as u64 + 1);
        if position(held, dst).is_some() {
            return Some(false);
        }
        write(slots.get(held.len())?, dst, weight);
        block.len.store(held.len() as u32 + 1, Ordering::Release);
        Some(true)
    }

    /// Links a fresh block holding `dst` after `*tail`, under the tail
    /// mutex the caller holds.
    fn append(&self, entry: &VertexEntry, tail: &mut u32, dst: Node, weight: Weight) {
        let id = self.arena.alloc();
        let (block, slots) = self.arena.block(id);
        write(&slots[0], dst, weight);
        block.len.store(1, Ordering::Release);
        match *tail {
            NONE => entry.head.store(id, Ordering::Release),
            last => self.arena.block(last).0.link.store(id, Ordering::Release),
        }
        *tail = id;
    }

    /// Removes edge `(src, dst)` if present, refilling its slot with the
    /// tail's last edge so every block but the tail stays full (the
    /// invariant scans and inserts rely on); an emptied tail block goes back
    /// to the arena. Returns `true` when removed.
    fn remove(&self, src: Node, dst: Node) -> bool {
        let entry = &self.vertices[src as usize];
        // Exclusive per-vertex access: no insert or scan can interleave,
        // and nobody else can hold the block this may recycle.
        let _exclusive = entry.op_lock.write();
        let Some(hole) = self.walk(src, |_, block, slots| {
            let held = published(block, slots);
            position(held, dst).map(|i| &held[i])
        }) else {
            return false;
        };
        let mut tail = entry.tail.lock();
        let (last, last_slots) = self.arena.block(*tail);
        let len = last.len.load(Ordering::Acquire) - 1;
        let (moved, moved_weight) = read(&last_slots[len as usize]);
        write(hole, moved, moved_weight);
        last.len.store(len, Ordering::Release);
        entry.degree.fetch_sub(1, Ordering::AcqRel);
        if len == 0 {
            // Unlink the emptied tail from its predecessor (or the head)
            // before recycling it, or the chain would run into whichever
            // vertex reuses the block.
            let emptied = *tail;
            let before = self.walk(src, |id, block, _| {
                (block.link.load(Ordering::Acquire) == emptied).then_some(id)
            });
            match before {
                Some(id) => self.arena.block(id).0.link.store(NONE, Ordering::Release),
                None => entry.head.store(NONE, Ordering::Release),
            }
            *tail = before.unwrap_or(NONE);
            self.arena.free.lock().push(emptied);
        }
        true
    }
}

impl ReadSide for StingerLists {
    fn degree(&self, v: Node) -> usize {
        self.vertices[v as usize].degree.load(Ordering::Acquire) as usize
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        // Shared op-lock: a concurrent deleter of `v` could otherwise move
        // an edge or recycle a block under the walk.
        let _shared = self.vertices[v as usize].op_lock.read();
        self.walk(v, |_, block, slots| {
            for slot in published(block, slots) {
                let (n, w) = read(slot);
                f(n, w);
            }
            None::<()>
        });
    }
}

impl Side for StingerLists {
    const KIND: DataStructureKind = DataStructureKind::Stinger;

    fn run_batch(shell: &TwoSided<Self>, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        shell.shared_batch(batch, pool, op)
    }
}

impl SharedSide for StingerLists {
    /// Nothing is held per vertex: Stinger's locks are per block and are
    /// re-taken per edge (never contended under partitioned ingest).
    type Held<'a> = ();

    fn hold(&self, _key: Node) {}

    fn apply_held(&self, _held: &mut (), op: Op, key: Node, nbr: Node, weight: Weight) -> bool {
        match op {
            Op::Insert => self.insert(key, nbr, weight),
            Op::Remove => self.remove(key, nbr),
        }
    }
}

/// Stinger: shared-memory linked edge blocks with fine-grained locks.
///
/// # Examples
///
/// ```
/// use saga_graph::stinger::Stinger;
/// use saga_graph::{DynamicGraph, Edge, GraphTopology};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let g = Stinger::new(8, true);
/// g.update_batch(&[Edge::new(0, 1, 1.0), Edge::new(0, 2, 1.0)], &pool);
/// assert_eq!(g.out_degree(0), 2);
/// ```
pub type Stinger = TwoSided<StingerLists>;

impl Stinger {
    /// Creates an empty Stinger graph with the paper's 16-edge blocks.
    pub fn new(capacity: usize, directed: bool) -> Self {
        Self::with_block_size(capacity, directed, DEFAULT_BLOCK_SIZE)
    }

    /// Creates an empty Stinger graph with a custom block size (used by the
    /// block-size ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn with_block_size(capacity: usize, directed: bool, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self::with_sides(capacity, directed, |_| StingerLists::new(capacity, block_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeletableGraph, DynamicGraph, GraphTopology};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    impl StingerLists {
        /// `(id, len)` of every block of `v`'s chain, head first; checks
        /// that the tail mutex names the last one.
        fn chain(&self, v: Node) -> Vec<(u32, usize)> {
            let mut blocks = Vec::new();
            self.walk(v, |id, block, _| {
                blocks.push((id, block.len.load(Ordering::Acquire) as usize));
                None::<()>
            });
            let tail = *self.vertices[v as usize].tail.lock();
            assert_eq!(blocks.last().map_or(NONE, |&(id, _)| id), tail, "tail of vertex {v}");
            blocks
        }

        fn lens(&self, v: Node) -> Vec<usize> {
            self.chain(v).into_iter().map(|(_, len)| len).collect()
        }
    }

    fn sorted_out(g: &Stinger, v: Node) -> Vec<Node> {
        let mut ns: Vec<Node> = g.out_neighbors(v).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        ns
    }

    fn edges_from(src: Node, dsts: std::ops::RangeInclusive<Node>) -> Vec<Edge> {
        dsts.map(|d| Edge::new(src, d, d as Weight)).collect()
    }

    #[test]
    fn slots_round_trip_node_and_weight() {
        for (n, w) in [(0, 0.0), (7, -1.5), (Node::MAX - 1, f32::MAX)] {
            let slot = AtomicU64::new(0);
            write(&slot, n, w);
            assert_eq!(read(&slot), (n, w));
        }
    }

    #[test]
    fn block_ids_map_onto_geometric_segments() {
        assert_eq!(BlockArena::locate(1), (0, 0));
        assert_eq!(BlockArena::locate(8), (0, 7));
        assert_eq!(BlockArena::locate(9), (1, 0));
        assert_eq!(BlockArena::locate(64), (SPLIT - 1, 7));
        assert_eq!(BlockArena::locate(65), (SPLIT, 0));
        assert_eq!(BlockArena::locate(80), (SPLIT, 15));
        assert_eq!(BlockArena::locate(81), (SPLIT + 1, 0));
        // Consecutive ids fill each segment, then start the next one.
        let runs = [1..=100_000, u32::MAX - 100_000..=u32::MAX];
        for (prev, id) in runs.into_iter().flat_map(|ids| ids.clone().zip(ids.skip(1))) {
            let ((k, i), next) = (BlockArena::locate(prev), BlockArena::locate(id));
            let expected = if i + 1 < BlockArena::blocks_in(k) { (k, i + 1) } else { (k + 1, 0) };
            assert_eq!(next, expected, "block {id}");
        }
        assert_eq!(BlockArena::blocks_in(SEGMENTS - 1), 1 << 29);
    }

    #[test]
    fn delete_compacts_blocks() {
        let g = Stinger::with_block_size(10, true, 4);
        let p = pool();
        g.update_batch(&edges_from(0, 1..=9), &p); // 9 edges -> 3 blocks (4+4+1)
        // Delete an edge from the first block: the tail edge must refill it.
        let stats = g.delete_batch(&[Edge::new(0, 1, 0.0)], &p);
        assert_eq!(stats.removed, 1);
        assert_eq!(g.out_degree(0), 8);
        // Blocks 0..n-1 full (the concurrent-insert invariant), the emptied
        // tail dropped.
        assert_eq!(g.sides.out.lens(0), [4, 4]);
        assert_eq!(sorted_out(&g, 0), (2..=9).collect::<Vec<_>>());
    }

    #[test]
    fn arena_recycles_blocks_through_churn() {
        let g = Stinger::with_block_size(4, true, 2);
        let p = pool();
        let batch: Vec<Edge> = (0..30).map(|i| Edge::new(0, 1 + (i % 3), 1.0)).collect();
        g.update_batch(&batch, &p); // 3 edges -> 2 blocks
        let high_water = g.sides.out.arena.bump.load(Ordering::Relaxed);
        // Delete and reinsert the same edges repeatedly: freed tail blocks
        // must be reused, never newly bumped.
        for _ in 0..5 {
            g.delete_batch(&batch[..3], &p);
            assert_eq!(g.out_degree(0), 0);
            g.update_batch(&batch[..3], &p);
            assert_eq!(g.out_degree(0), 3);
        }
        assert_eq!(
            g.sides.out.arena.bump.load(Ordering::Relaxed),
            high_water,
            "churn must be served from the free list"
        );
        assert_eq!(sorted_out(&g, 0), [1, 2, 3]);
    }

    /// The compaction corner cases at the two smallest block sizes, where
    /// the head block and the tail block are easily one and the same.
    #[test]
    fn compaction_corner_cases_at_block_sizes_one_and_two() {
        let p = ThreadPool::new(1); // batch order is slot order
        for bs in [1, 2] {
            // A delete in the head block while the tail holds one edge: the
            // tail's edge moves into the hole and the tail is recycled.
            let g = Stinger::with_block_size(8, true, bs);
            let n = 2 * bs as Node + 1;
            g.update_batch(&edges_from(0, 1..=n), &p);
            assert_eq!(g.sides.out.chain(0).last().unwrap().1, 1, "bs = {bs}");
            assert_eq!(g.delete_batch(&[Edge::new(0, 1, 0.0)], &p).removed, 1);
            assert_eq!(g.sides.out.lens(0), vec![bs; 2], "bs = {bs}");
            assert_eq!(sorted_out(&g, 0), (2..=n).collect::<Vec<_>>(), "bs = {bs}");
            let moved = g.out_neighbors(0)[0];
            assert_eq!(moved, (n, n as Weight), "bs = {bs}: the tail's edge refills the hole");

            // Deleting a vertex's only edge empties its chain.
            let g = Stinger::with_block_size(8, true, bs);
            g.update_batch(&[Edge::new(3, 4, 2.0)], &p);
            assert_eq!(g.delete_batch(&[Edge::new(3, 4, 0.0)], &p).removed, 1);
            assert!(g.sides.out.chain(3).is_empty(), "bs = {bs}");
            assert_eq!(g.out_degree(3), 0);
            assert_eq!(g.in_degree(4), 0);

            // Reinserting after the chain is empty starts a new chain.
            g.update_batch(&edges_from(3, 4..=(4 + bs as Node)), &p);
            assert_eq!(g.sides.out.lens(3), [bs, 1], "bs = {bs}");
            assert_eq!(sorted_out(&g, 3), (4..=(4 + bs as Node)).collect::<Vec<_>>());
            assert_eq!(g.delete_batch(&edges_from(3, 4..=(4 + bs as Node)), &p).removed, bs + 1);
            assert!(g.sides.out.chain(3).is_empty(), "bs = {bs}");
        }
    }

    /// A block one vertex frees comes back empty and unlinked, and the
    /// vertex that freed it no longer links to it — else its chain would run
    /// on into the edges of whichever vertex reuses the block.
    #[test]
    fn a_recycled_block_is_empty_unlinked_and_unreachable_from_its_old_chain() {
        let p = ThreadPool::new(1);
        for bs in [1, 2] {
            let g = Stinger::with_block_size(8, true, bs);
            let out = &g.sides.out;
            g.update_batch(&edges_from(0, 1..=(bs as Node + 1)), &p); // full head + 1
            let freed = out.chain(0)[1].0;
            g.delete_batch(&[Edge::new(0, 1, 0.0)], &p);
            assert_eq!(out.chain(0).len(), 1, "bs = {bs}");

            let id = out.arena.alloc();
            assert_eq!(id, freed, "bs = {bs}: the free list serves first");
            let (block, _) = out.arena.block(id);
            assert_eq!(block.len.load(Ordering::Acquire), 0, "bs = {bs}");
            assert_eq!(block.link.load(Ordering::Acquire), NONE, "bs = {bs}");
            out.arena.free.lock().push(id);

            // Another vertex takes the block over; vertex 0 must not see it.
            g.update_batch(&[Edge::new(5, 6, 1.0)], &p);
            assert_eq!(out.chain(5), [(freed, 1)], "bs = {bs}");
            assert_eq!(sorted_out(&g, 0), (2..=(bs as Node + 1)).collect::<Vec<_>>());
            assert_eq!(sorted_out(&g, 5), [6]);
        }
    }

    #[test]
    fn concurrent_inserts_after_deletions_stay_unique() {
        let g = Stinger::new(401, true);
        let p = pool();
        let batch = edges_from(0, 1..=400);
        g.update_batch(&batch, &p);
        let deletions: Vec<Edge> = (1..=200).map(|i| Edge::new(0, i * 2, 0.0)).collect();
        g.delete_batch(&deletions, &p);
        assert_eq!(g.out_degree(0), 200);
        // Reinsert everything concurrently, twice over.
        let mut reinsert = batch.clone();
        reinsert.extend(batch.iter().copied());
        let stats = g.update_batch(&reinsert, &p);
        assert_eq!(stats.inserted, 200);
        let mut ns = sorted_out(&g, 0);
        ns.dedup();
        assert_eq!(ns.len(), 400, "no duplicates after delete/reinsert churn");
        assert_eq!(g.out_degree(0), 400);
    }

    #[test]
    fn inserts_span_multiple_blocks() {
        let g = Stinger::new(50, true);
        let stats = g.update_batch(&edges_from(0, 1..=40), &pool());
        assert_eq!(stats.inserted, 40);
        assert_eq!(g.out_degree(0), 40);
        // 40 edges at block size 16 -> 3 blocks.
        assert_eq!(g.sides.out.lens(0), [16, 16, 8]);
        let mut ns = g.out_neighbors(0);
        ns.sort_by_key(|&(n, _)| n);
        assert_eq!(ns.len(), 40);
        for (i, &(n, w)) in ns.iter().enumerate() {
            assert_eq!(n, i as Node + 1);
            assert_eq!(w, (i + 1) as Weight);
        }
    }

    #[test]
    fn concurrent_hub_inserts_are_exact() {
        // Exercises the intra-node path: many threads target vertex 0.
        let g = Stinger::new(2001, true);
        let batch = [edges_from(0, 1..=2000), edges_from(0, 1..=2000)].concat();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 2000);
        assert_eq!(stats.duplicates, 2000);
        assert_eq!(g.out_degree(0), 2000);
        let mut ns = sorted_out(&g, 0);
        ns.dedup();
        assert_eq!(ns.len(), 2000, "no duplicate edges may survive the race");
        let lens = g.sides.out.lens(0);
        assert!(lens[..lens.len() - 1].iter().all(|&len| len == DEFAULT_BLOCK_SIZE));
    }

    #[test]
    fn partitioned_hub_batch_is_exact() {
        let g = Stinger::new(1001, true).with_partitioned_ingest(true);
        let batch = [edges_from(0, 1..=1000), edges_from(0, 1..=1000)].concat();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 1000);
        assert_eq!(stats.duplicates, 1000);
        assert_eq!(g.out_degree(0), 1000);
        let mut ns = sorted_out(&g, 0);
        ns.dedup();
        assert_eq!(ns.len(), 1000);
    }

    #[test]
    fn custom_block_size() {
        let g = Stinger::with_block_size(5, true, 2);
        g.update_batch(&edges_from(0, 1..=4), &pool());
        assert_eq!(g.sides.out.lens(0), [2, 2]);
        assert_eq!(g.out_degree(0), 4);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = Stinger::with_block_size(5, true, 0);
    }
}
