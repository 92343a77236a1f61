//! Stinger-style shared-memory structure with linked edge blocks
//! (§III-A3, Fig. 4 of the paper; Ediger et al., HPEC 2012).
//!
//! Each vertex owns a header (degree counter) pointing to a linked list of
//! *edge blocks*, each holding a fixed number of edges
//! ([`DEFAULT_BLOCK_SIZE`] = 16, as in the paper). Stinger differs from AS
//! in two ways the paper calls out:
//!
//! 1. **Intra-node parallelism** — locks are per *block*, not per vertex, so
//!    several threads can update edges of the same high-degree vertex
//!    concurrently (hand-over-hand through the block chain).
//! 2. **Two scans per insert** — the first scan searches the chain for the
//!    target edge; if absent, a second scan finds an empty slot. This is the
//!    price of the fine-grained locks and is why Stinger's update is
//!    1.57–1.76× slower than AS on short-tailed graphs (§V-B) while being
//!    ~3.9× faster than AS on heavy-tailed ones.
//!
//! Blocks live in a per-direction **arena** ([`BlockArena`]): a pool of
//! fixed-size segments allocated 64 blocks at a time, addressed by dense
//! `u32` block ids and recycled through a free list when deletions drop
//! empty tail blocks. Compared to one `Arc<Mutex<Block>>` heap allocation
//! per block, the arena keeps block headers contiguous, makes steady-state
//! block allocation malloc-free (pop the free list or bump a cursor into a
//! warm segment), and shrinks a chain link from a pointer to a 4-byte id.
//! Traversal still hops id → segment → block — the pointer-chasing the
//! paper blames for Stinger's compute latency — and the access probe
//! records each hop for the cache simulator.

use crate::shell::{Op, ReadSide, SharedSide, Side, TwoSided};
use crate::{DataStructureKind, Edge, Node, Weight};
use saga_utils::parallel::ThreadPool;
use saga_utils::probe;
use saga_utils::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use saga_utils::sync::Arc;
use saga_utils::sync::{Mutex, RwLock};

/// Edges per block, matching the paper's Stinger configuration.
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Blocks allocated per arena segment.
const BLOCKS_PER_SEGMENT: usize = 64;

/// One fixed-capacity edge block.
struct Block {
    edges: Vec<(Node, Weight)>,
}

/// One arena segment: [`BLOCKS_PER_SEGMENT`] block headers in a single
/// contiguous slab, each block's edge storage pre-reserved at the arena's
/// block size so filling a block never reallocates.
struct Segment {
    blocks: Vec<Mutex<Block>>,
}

impl Segment {
    fn new(block_size: usize) -> Self {
        Self {
            blocks: (0..BLOCKS_PER_SEGMENT)
                .map(|_| {
                    Mutex::new(Block {
                        edges: Vec::with_capacity(block_size),
                    })
                })
                .collect(),
        }
    }
}

/// Distinguishes the lock ids the probe reports for different arenas (out
/// vs in lists, multiple graphs in one process).
static ARENA_TAGS: AtomicUsize = AtomicUsize::new(1);

/// Segment-pool allocator for edge blocks.
///
/// Blocks are addressed by dense `u32` ids: `id / BLOCKS_PER_SEGMENT`
/// selects the segment, `id % BLOCKS_PER_SEGMENT` the slot. Allocation
/// pops the free list (blocks recycled by deletion compaction) or bumps a
/// cursor; the segment directory only takes its write lock to append a
/// fresh segment, so steady-state allocation performs no heap allocation
/// at all.
///
/// Safety of recycling is a protocol, not a type: a block id is owned by
/// exactly one vertex chain, every reader of a chain holds that vertex's
/// `op_lock` at least shared, and ids are only released while the deleting
/// thread holds it exclusively — so no traversal can observe a block after
/// it returns to the free list.
struct BlockArena {
    segments: RwLock<Vec<Arc<Segment>>>,
    free: Mutex<Vec<u32>>,
    next: AtomicUsize,
    block_size: usize,
    /// High bits of the probe lock ids this arena reports.
    tag: u64,
}

impl BlockArena {
    fn new(block_size: usize) -> Self {
        Self {
            segments: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            next: AtomicUsize::new(0),
            block_size,
            tag: (ARENA_TAGS.fetch_add(1, Ordering::Relaxed) as u64) << 32,
        }
    }

    /// The probe lock id of block `id` (unique across arenas).
    fn lock_id(&self, id: u32) -> u64 {
        self.tag | id as u64
    }

    /// Runs `f` on block `id`'s mutex. The directory read lock is held only
    /// long enough to pin the segment.
    fn with_block<R>(&self, id: u32, f: impl FnOnce(&Mutex<Block>) -> R) -> R {
        let seg = {
            let dir = self.segments.read();
            Arc::clone(&dir[id as usize / BLOCKS_PER_SEGMENT])
        };
        // The id → segment → block walk is a dependent pointer hop (the
        // pointer-chasing the paper attributes Stinger's compute latency
        // to); the probe records it as a separate access.
        let block = &seg.blocks[id as usize % BLOCKS_PER_SEGMENT];
        probe::value_read(block);
        f(block)
    }

    /// Allocates a block id: recycled if possible, bumped otherwise. The
    /// returned block is empty with `block_size` capacity reserved.
    fn alloc(&self) -> u32 {
        if let Some(id) = self.free.lock().pop() {
            return id;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        {
            let dir = self.segments.read();
            if id < dir.len() * BLOCKS_PER_SEGMENT {
                return id as u32;
            }
        }
        let mut dir = self.segments.write();
        while dir.len() * BLOCKS_PER_SEGMENT <= id {
            dir.push(Arc::new(Segment::new(self.block_size)));
        }
        id as u32
    }

    /// Returns an emptied block to the free list. Callers must hold the
    /// owning vertex's `op_lock` exclusively (see the type-level contract).
    fn release(&self, id: u32) {
        self.free.lock().push(id);
    }
}

/// Per-vertex header: degree + the block chain.
///
/// The chain is a vector of arena block ids; the vector itself is only
/// locked to append a block (or to snapshot the chain), while per-edge work
/// locks individual blocks — the fine-grained scheme of Fig. 4.
struct VertexEntry {
    degree: AtomicU32,
    chain: Mutex<Vec<u32>>,
    /// Inserters and traversals hold this shared (they stay concurrent —
    /// the intra-node parallelism of Fig. 4); deleters hold it exclusively
    /// so their compaction cannot interleave an insert's two scans, and so
    /// the block ids they recycle cannot be observed by a racing reader.
    /// The no-holes invariant (every block full except the tail) that makes
    /// concurrent duplicate detection sound depends on this too.
    op_lock: RwLock<()>,
}

impl VertexEntry {
    fn new() -> Self {
        Self {
            degree: AtomicU32::new(0),
            chain: Mutex::new(Vec::new()),
            op_lock: RwLock::new(()),
        }
    }
}

/// One direction of Stinger adjacency.
pub struct StingerLists {
    vertices: Vec<VertexEntry>,
    arena: BlockArena,
    block_size: usize,
}

impl StingerLists {
    fn new(capacity: usize, block_size: usize) -> Self {
        Self {
            vertices: (0..capacity).map(|_| VertexEntry::new()).collect(),
            arena: BlockArena::new(block_size),
            block_size,
        }
    }

    fn snapshot(&self, v: Node) -> Vec<u32> {
        let chain = self.vertices[v as usize].chain.lock();
        probe::slice_read(&chain);
        chain.clone()
    }

    /// Search-then-insert with the paper's two scans.
    fn insert(&self, src: Node, dst: Node, weight: Weight) -> bool {
        let entry = &self.vertices[src as usize];
        let _shared = entry.op_lock.read();
        probe::value_read(&entry.degree);
        let snapshot = self.snapshot(src);

        // Scan 1: search the chain for the target edge. Serialization is
        // per *block* (fine-grained locks give intra-node parallelism), so
        // each block's scan is reported against its own lock id.
        for &id in &snapshot {
            let found = self.arena.with_block(id, |block| {
                let guard = block.lock();
                probe::slice_read(&guard.edges);
                probe::critical(self.arena.lock_id(id), guard.edges.len() as u64 + 1);
                guard.edges.iter().any(|&(n, _)| n == dst)
            });
            if found {
                return false;
            }
        }

        // Scan 2: walk the chain again looking for an empty slot,
        // re-checking for the edge under each block's lock so a racing
        // insert of the same edge is caught.
        for &id in &snapshot {
            let outcome = self.arena.with_block(id, |block| {
                let mut guard = block.lock();
                probe::slice_read(&guard.edges);
                probe::critical(self.arena.lock_id(id), guard.edges.len() as u64 + 1);
                if guard.edges.iter().any(|&(n, _)| n == dst) {
                    return Some(false);
                }
                if guard.edges.len() < self.block_size {
                    guard.edges.push((dst, weight));
                    probe::write(guard.edges.last().unwrap() as *const (Node, Weight), 1);
                    entry.degree.fetch_add(1, Ordering::AcqRel);
                    return Some(true);
                }
                None
            });
            if let Some(inserted) = outcome {
                return inserted;
            }
        }

        // Every snapshotted block is full: append. The chain lock
        // serializes appenders; blocks added since the snapshot are checked
        // first (they may hold the edge or an empty slot).
        let mut chain = entry.chain.lock();
        for &id in chain.iter().skip(snapshot.len()) {
            let outcome = self.arena.with_block(id, |block| {
                let mut guard = block.lock();
                probe::slice_read(&guard.edges);
                if guard.edges.iter().any(|&(n, _)| n == dst) {
                    return Some(false);
                }
                if guard.edges.len() < self.block_size {
                    guard.edges.push((dst, weight));
                    probe::write(guard.edges.last().unwrap() as *const (Node, Weight), 1);
                    entry.degree.fetch_add(1, Ordering::AcqRel);
                    return Some(true);
                }
                None
            });
            if let Some(inserted) = outcome {
                return inserted;
            }
        }
        let id = self.arena.alloc();
        self.arena.with_block(id, |block| {
            let mut guard = block.lock();
            guard.edges.push((dst, weight));
            probe::write(guard.edges.last().unwrap() as *const (Node, Weight), 1);
        });
        chain.push(id);
        entry.degree.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Removes edge `(src, dst)` if present, compacting the chain so every
    /// block except the tail stays full (the invariant concurrent inserts
    /// rely on). Emptied tail blocks go back to the arena free list.
    /// Returns `true` when removed.
    fn remove(&self, src: Node, dst: Node) -> bool {
        let entry = &self.vertices[src as usize];
        // Exclusive per-vertex access: no insert or traversal can
        // interleave, and nobody else can hold ids we recycle.
        let _exclusive = entry.op_lock.write();
        let chain_snapshot = entry.chain.lock().clone();
        let mut found: Option<usize> = None;
        for (bi, &id) in chain_snapshot.iter().enumerate() {
            let hit = self.arena.with_block(id, |block| {
                let mut guard = block.lock();
                probe::slice_read(&guard.edges);
                if let Some(pos) = guard.edges.iter().position(|&(n, _)| n == dst) {
                    guard.edges.swap_remove(pos);
                    true
                } else {
                    false
                }
            });
            if hit {
                found = Some(bi);
                break;
            }
        }
        let Some(bi) = found else {
            return false;
        };
        entry.degree.fetch_sub(1, Ordering::AcqRel);
        // Compaction: refill the hole from the tail block, then drop empty
        // tail blocks back into the arena.
        let mut chain = entry.chain.lock();
        while let Some(&last) = chain.last() {
            if last == chain_snapshot[bi] {
                break; // the hole is in the tail: already the partial block
            }
            let moved = self.arena.with_block(last, |block| block.lock().edges.pop());
            match moved {
                Some(edge) => {
                    self.arena
                        .with_block(chain_snapshot[bi], |block| block.lock().edges.push(edge));
                    break;
                }
                None => {
                    chain.pop(); // stale empty tail
                    self.arena.release(last);
                }
            }
        }
        while let Some(&last) = chain.last() {
            let empty = self.arena.with_block(last, |block| block.lock().edges.is_empty());
            if empty {
                chain.pop();
                self.arena.release(last);
            } else {
                break;
            }
        }
        true
    }
}

impl ReadSide for StingerLists {
    fn degree(&self, v: Node) -> usize {
        self.vertices[v as usize].degree.load(Ordering::Acquire) as usize
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        // Shared op-lock: a concurrent deleter of this vertex could
        // otherwise recycle a snapshotted block id under the scan.
        let _shared = self.vertices[v as usize].op_lock.read();
        let snapshot = self.snapshot(v);
        for &id in &snapshot {
            self.arena.with_block(id, |block| {
                let guard = block.lock();
                probe::slice_read(&guard.edges);
                for &(n, w) in guard.edges.iter() {
                    f(n, w);
                }
            });
        }
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

    #[test]
    fn delete_compacts_blocks() {
        let g = Stinger::with_block_size(10, true, 4);
        let p = pool();
        let batch: Vec<Edge> = (1..=9).map(|i| Edge::new(0, i, i as Weight)).collect();
        g.update_batch(&batch, &p); // 9 edges -> 3 blocks (4+4+1)
        // Delete an edge from the first block: the tail edge must refill it.
        let stats = g.delete_batch(&[Edge::new(0, 1, 0.0)], &p);
        assert_eq!(stats.removed, 1);
        assert_eq!(g.out_degree(0), 8);
        let chain_len = g.sides.out.vertices[0].chain.lock().len();
        assert_eq!(chain_len, 2, "empty tail block dropped after compaction");
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns, (2..=9).collect::<Vec<_>>());
        // Blocks 0..n-1 must be full (the concurrent-insert invariant).
        let chain = g.sides.out.vertices[0].chain.lock().clone();
        for &id in &chain[..chain.len() - 1] {
            g.sides.out.arena.with_block(id, |block| {
                assert_eq!(block.lock().edges.len(), 4);
            });
        }
    }

    #[test]
    fn arena_recycles_blocks_through_churn() {
        let g = Stinger::with_block_size(4, true, 2);
        let p = pool();
        let batch: Vec<Edge> = (0..30).map(|i| Edge::new(0, 1 + (i % 3), 1.0)).collect();
        g.update_batch(&batch, &p); // 3 edges -> 2 blocks
        let high_water = g.sides.out.arena.next.load(Ordering::Relaxed);
        // Delete and reinsert the same edges repeatedly: freed tail blocks
        // must be reused, never newly bumped.
        for _ in 0..5 {
            g.delete_batch(&batch[..3], &p);
            assert_eq!(g.out_degree(0), 0);
            g.update_batch(&batch[..3], &p);
            assert_eq!(g.out_degree(0), 3);
        }
        assert_eq!(
            g.sides.out.arena.next.load(Ordering::Relaxed),
            high_water,
            "churn must be served from the free list"
        );
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_inserts_after_deletions_stay_unique() {
        let g = Stinger::new(401, true);
        let p = pool();
        let batch: Vec<Edge> = (1..=400).map(|i| Edge::new(0, i, 1.0)).collect();
        g.update_batch(&batch, &p);
        let deletions: Vec<Edge> = (1..=200).map(|i| Edge::new(0, i * 2, 0.0)).collect();
        g.delete_batch(&deletions, &p);
        assert_eq!(g.out_degree(0), 200);
        // Reinsert everything concurrently, twice over.
        let mut reinsert = batch.clone();
        reinsert.extend(batch.iter().copied());
        let stats = g.update_batch(&reinsert, &p);
        assert_eq!(stats.inserted, 200);
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), 400, "no duplicates after delete/reinsert churn");
        assert_eq!(g.out_degree(0), 400);
    }

    #[test]
    fn inserts_span_multiple_blocks() {
        let g = Stinger::new(50, true);
        let batch: Vec<Edge> = (1..=40).map(|i| Edge::new(0, i, i as Weight)).collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 40);
        assert_eq!(g.out_degree(0), 40);
        // 40 edges at block size 16 -> 3 blocks.
        let chain_len = g.sides.out.vertices[0].chain.lock().len();
        assert_eq!(chain_len, 3);
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
        let batch: Vec<Edge> = (1..=2000)
            .map(|i| Edge::new(0, i, 1.0))
            .chain((1..=2000).map(|i| Edge::new(0, i, 1.0)))
            .collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 2000);
        assert_eq!(stats.duplicates, 2000);
        assert_eq!(g.out_degree(0), 2000);
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), 2000, "no duplicate edges may survive the race");
    }

    #[test]
    fn partitioned_hub_batch_is_exact() {
        let g = Stinger::new(1001, true).with_partitioned_ingest(true);
        let batch: Vec<Edge> = (1..=1000)
            .map(|i| Edge::new(0, i, 1.0))
            .chain((1..=1000).map(|i| Edge::new(0, i, 1.0)))
            .collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 1000);
        assert_eq!(stats.duplicates, 1000);
        assert_eq!(g.out_degree(0), 1000);
        let mut ns: Vec<Node> = g.out_neighbors(0).into_iter().map(|(n, _)| n).collect();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), 1000);
    }

    #[test]
    fn custom_block_size() {
        let g = Stinger::with_block_size(5, true, 2);
        let batch: Vec<Edge> = (1..=4).map(|i| Edge::new(0, i, 1.0)).collect();
        g.update_batch(&batch, &pool());
        assert_eq!(g.sides.out.vertices[0].chain.lock().len(), 2);
        assert_eq!(g.out_degree(0), 4);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = Stinger::with_block_size(5, true, 0);
    }
}
