//! Loom model-checking of the suite's core concurrency protocols.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p saga-utils --test loom
//! ```
//!
//! Each test explores every interleaving (within the preemption bound) of a
//! deliberately tiny configuration — 2 pool workers, a couple of bits, a
//! 4-item batch — because exhaustive small models catch protocol bugs that
//! large randomized runs miss. See DESIGN.md §7 for what is and is not
//! covered.
#![cfg(loom)]

use saga_utils::barrier::Barrier;
use saga_utils::bitvec::{AtomicBitVec, GenerationMarks};
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::partition::Partitioner;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use saga_utils::sync::Arc;

/// The pool's epoch/condvar dispatch protocol: a fork-join must run the
/// closure exactly once per worker, and dropping the pool must terminate
/// the worker in every interleaving (no lost shutdown wakeup).
#[test]
fn pool_dispatch_and_shutdown() {
    saga_loom::model(|| {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run_on_all(|_w| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // `drop(pool)` model-checks the shutdown protocol: a schedule that
        // loses the shutdown notification shows up as a deadlock.
    });
}

/// Two consecutive fork-joins through the same pool: the epoch counter
/// must not confuse a worker into re-running the old job or skipping the
/// new one.
#[test]
fn pool_back_to_back_dispatches() {
    saga_loom::model(|| {
        let pool = ThreadPool::new(2);
        let first = AtomicUsize::new(0);
        let second = AtomicUsize::new(0);
        pool.run_on_all(|_w| {
            first.fetch_add(1, Ordering::SeqCst);
        });
        pool.run_on_all(|_w| {
            second.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(first.load(Ordering::SeqCst), 2);
        assert_eq!(second.load(Ordering::SeqCst), 2);
    });
}

/// `AtomicBitVec::try_set` publication: when two workers race on the same
/// bit, exactly one observes the 0→1 transition in every interleaving.
#[test]
fn bitvec_try_set_single_winner() {
    saga_loom::model(|| {
        let bv = Arc::new(AtomicBitVec::new(64));
        let wins = Arc::new(AtomicUsize::new(0));
        let t = {
            let bv = Arc::clone(&bv);
            let wins = Arc::clone(&wins);
            saga_utils::sync::thread::spawn_named("racer".into(), move || {
                if bv.try_set(7) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        if bv.try_set(7) {
            wins.fetch_add(1, Ordering::SeqCst);
        }
        let _ = t.join();
        assert_eq!(wins.load(Ordering::SeqCst), 1, "both or neither won the CAS");
        assert!(bv.get(7));
    });
}

/// The facade's modeled `RwLock` (exclusive under the model, see
/// DESIGN.md §7): a racing writer and reader-then-writer can interleave
/// any way, but guard-protected increments must never be lost and the
/// final value must be exactly the sum of both threads' additions.
#[test]
fn rwlock_guarded_increments_are_not_lost() {
    saga_loom::model(|| {
        let lock = Arc::new(saga_utils::sync::RwLock::new(0u32));
        let t = {
            let lock = Arc::clone(&lock);
            saga_utils::sync::thread::spawn_named("writer".into(), move || {
                let mut g = lock.write();
                *g += 1;
            })
        };
        let seen = *lock.read();
        assert!(seen <= 1, "read saw a value never written");
        {
            let mut g = lock.write();
            *g += 2;
        }
        let _ = t.join();
        assert_eq!(*lock.read(), 3, "an increment was lost");
    });
}

/// `GenerationMarks::try_mark` (the affected tracker's dedup CAS): single
/// winner per generation in every interleaving of its retry loop.
#[test]
fn generation_marks_single_winner() {
    saga_loom::model(|| {
        let mut marks = GenerationMarks::new(4);
        marks.next_generation();
        let marks = Arc::new(marks);
        let wins = Arc::new(AtomicUsize::new(0));
        let t = {
            let marks = Arc::clone(&marks);
            let wins = Arc::clone(&wins);
            saga_utils::sync::thread::spawn_named("marker".into(), move || {
                if marks.try_mark(2) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        if marks.try_mark(2) {
            wins.fetch_add(1, Ordering::SeqCst);
        }
        let _ = t.join();
        assert_eq!(wins.load(Ordering::SeqCst), 1);
        assert!(marks.is_marked(2));
    });
}

/// The dynamic schedule's shared grab cursor: every index claimed exactly
/// once, no index lost, in every interleaving of the `fetch_add` loop.
#[test]
fn dynamic_schedule_cursor_disjoint_cover() {
    saga_loom::model(|| {
        let pool = ThreadPool::new(2);
        let counts: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..3, Schedule::Dynamic(1), |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "index {i} claimed != once");
        }
    });
}

/// The partitioner's two parallel passes (per-worker histogram rows, then
/// scatter into prefix-summed disjoint windows): under loom the sequential
/// cutoff drops to 1, so this 4-item batch takes the real parallel path on
/// both workers. Any overlap of the (worker, bucket) windows or a racy
/// cursor update corrupts the partition and fails the assertions.
#[test]
fn partitioner_parallel_windows_disjoint() {
    saga_loom::model(|| {
        let pool = ThreadPool::new(2);
        let mut p = Partitioner::new();
        p.partition(&pool, 4, 2, |i| i % 2);
        assert_eq!(p.bucket(0), &[0, 2]);
        assert_eq!(p.bucket(1), &[1, 3]);
    });
}

/// The BSP superstep barrier's phase-isolation guarantee: two workers
/// exchange values through plain Relaxed slots across a crossing. In every
/// interleaving the crossing must (a) elect exactly one leader, and (b)
/// order each worker's pre-barrier write before the other's post-barrier
/// read — the property the scatter→gather handoff in `saga-bsp` relies on
/// to read another shard's outbox without extra synchronization.
#[test]
fn barrier_crossing_publishes_peer_writes() {
    saga_loom::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let slots = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let leaders = Arc::new(AtomicUsize::new(0));
        let t = {
            let barrier = Arc::clone(&barrier);
            let slots = Arc::clone(&slots);
            let leaders = Arc::clone(&leaders);
            saga_utils::sync::thread::spawn_named("peer".into(), move || {
                slots[1].store(20, Ordering::Relaxed);
                if barrier.wait() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
                assert_eq!(slots[0].load(Ordering::Relaxed), 10);
            })
        };
        slots[0].store(10, Ordering::Relaxed);
        if barrier.wait() {
            leaders.fetch_add(1, Ordering::SeqCst);
        }
        assert_eq!(slots[1].load(Ordering::Relaxed), 20);
        let _ = t.join();
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "crossings must elect one leader");
    });
}

/// The checkpoint-publish double-crossing: workers write their shard slots,
/// cross once, the elected leader snapshots both slots into the checkpoint
/// cell while followers park on the second crossing, and after the second
/// crossing every worker must observe the completed checkpoint. A schedule
/// where a follower races past the leader's sequential section — or where
/// the leader's snapshot misses a shard write — fails the asserts.
#[test]
fn barrier_double_crossing_checkpoint_publish() {
    saga_loom::model(|| {
        let barrier = Arc::new(Barrier::new(2));
        let shards = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
        let checkpoint = Arc::new(AtomicUsize::new(0));
        let run = |me: usize,
                   barrier: Arc<Barrier>,
                   shards: Arc<[AtomicUsize; 2]>,
                   checkpoint: Arc<AtomicUsize>| {
            shards[me].store(me + 1, Ordering::Relaxed);
            if barrier.wait() {
                let sum = shards[0].load(Ordering::Relaxed) + shards[1].load(Ordering::Relaxed);
                checkpoint.store(sum, Ordering::Relaxed);
            }
            barrier.wait();
            assert_eq!(
                checkpoint.load(Ordering::Relaxed),
                3,
                "checkpoint incomplete after the publish crossing"
            );
        };
        let t = {
            let barrier = Arc::clone(&barrier);
            let shards = Arc::clone(&shards);
            let checkpoint = Arc::clone(&checkpoint);
            saga_utils::sync::thread::spawn_named("w1".into(), move || {
                run(1, barrier, shards, checkpoint)
            })
        };
        run(0, Arc::clone(&barrier), Arc::clone(&shards), Arc::clone(&checkpoint));
        let _ = t.join();
    });
}

/// Miniature of Stinger's per-vertex edge-block protocol
/// (`crates/graph/src/stinger.rs`): a linked chain of fixed-capacity blocks
/// in a small arena — each a header (`lock`, `len`, `link`) plus slots — an
/// atomic degree, a tail mutex serialising appends, and the "every block
/// full except the tail" compaction invariant. Scans walk the chain without
/// a lock: a writer stores a slot, then publishes it by storing `len` with
/// Release (`PUBLISH`); an appender links a filled block with Release.
///
/// The real slots are Relaxed atomics that a scan may only read behind that
/// publication, so here they are `saga_loom::cell::CausalCell`s: a read its
/// write does not happen-before fails the model. The real structure guards
/// insert-vs-remove with a per-vertex RwLock; the facade's modeled RwLock is
/// exclusive, so the reader-writer pairing is modeled with a Mutex (`op`)
/// taken by the insert-vs-delete model only, while reader-reader concurrency
/// — two shared-mode inserts, a lock-free scan beside an insert — is modeled
/// lock-free, the way two read guards never exclude each other.
mod stinger_block {
    use saga_loom::cell::CausalCell;
    use saga_utils::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use saga_utils::sync::Mutex;

    pub const BLOCK_SIZE: usize = 2;
    const BLOCKS: usize = 3;
    const NONE: u32 = u32::MAX;
    /// How a writer publishes the slot it filled.
    pub const PUBLISH: Ordering = Ordering::Release;

    pub struct Block {
        lock: Mutex<()>,
        len: AtomicUsize,
        link: AtomicU32,
        slots: [CausalCell<u32>; BLOCK_SIZE],
    }

    pub struct Vertex {
        degree: AtomicU32,
        head: AtomicU32,
        tail: Mutex<u32>,
        pub op: Mutex<()>,
        /// The arena: a bump cursor and a free list over a fixed array.
        blocks: [Block; BLOCKS],
        bump: AtomicUsize,
        free: Mutex<Vec<u32>>,
    }

    pub fn seed(chain: &[&[u32]]) -> Vertex {
        let blocks = std::array::from_fn(|i| {
            let edges = chain.get(i).copied().unwrap_or_default();
            let link = if i + 1 < chain.len() { i as u32 + 1 } else { NONE };
            Block {
                lock: Mutex::new(()),
                len: AtomicUsize::new(edges.len()),
                link: AtomicU32::new(link),
                slots: std::array::from_fn(|s| CausalCell::new(edges.get(s).copied().unwrap_or(0))),
            }
        });
        let last = chain.len() as u32;
        Vertex {
            degree: AtomicU32::new(chain.iter().map(|b| b.len()).sum::<usize>() as u32),
            head: AtomicU32::new(if chain.is_empty() { NONE } else { 0 }),
            tail: Mutex::new(last.checked_sub(1).unwrap_or(NONE)),
            op: Mutex::new(()),
            blocks,
            bump: AtomicUsize::new(chain.len()),
            free: Mutex::new(Vec::new()),
        }
    }

    impl Vertex {
        fn block(&self, id: u32) -> &Block {
            &self.blocks[id as usize]
        }

        fn walk_from<'a, R>(&'a self, mut id: u32, mut visit: impl FnMut(u32, &'a Block) -> Option<R>) -> Option<R> {
            while id != NONE {
                let block = self.block(id);
                if let Some(found) = visit(id, block) {
                    return Some(found);
                }
                id = block.link.load(Ordering::Acquire);
            }
            None
        }

        fn walk<'a, R>(&'a self, visit: impl FnMut(u32, &'a Block) -> Option<R>) -> Option<R> {
            self.walk_from(self.head.load(Ordering::Acquire), visit)
        }

        /// A block, recycled or fresh; like the real arena it relies on
        /// `remove` to free only emptied, unlinked tails.
        fn alloc(&self) -> u32 {
            let recycled = self.free.lock().pop();
            recycled.unwrap_or_else(|| self.bump.fetch_add(1, Ordering::Relaxed) as u32)
        }
    }

    fn published(block: &Block) -> &[CausalCell<u32>] {
        &block.slots[..block.len.load(Ordering::Acquire)]
    }

    /// Scan 1's lock-free walk (a visit's too): every published edge.
    pub fn scan(v: &Vertex) -> Vec<u32> {
        let mut edges = Vec::new();
        v.walk(|_, block| {
            edges.extend(published(block).iter().map(CausalCell::get));
            None::<()>
        });
        edges
    }

    /// Scan 2 on one block, under its lock.
    fn fill(block: &Block, dst: u32) -> Option<bool> {
        let _writer = block.lock.lock();
        let held = published(block);
        if held.iter().any(|slot| slot.get() == dst) {
            return Some(false);
        }
        let slot = block.slots.get(held.len())?;
        slot.set(dst);
        block.len.store(held.len() + 1, PUBLISH);
        Some(true)
    }

    /// The real insert's two scans + append (shared mode).
    pub fn insert(v: &Vertex, dst: u32) -> bool {
        if v.walk(|_, block| published(block).iter().any(|s| s.get() == dst).then_some(())).is_some() {
            return false;
        }
        let mut last = NONE;
        let inserted = v
            .walk(|id, block| {
                last = id;
                fill(block, dst)
            })
            .unwrap_or_else(|| {
                let mut tail = v.tail.lock();
                let after = match last {
                    NONE => v.head.load(Ordering::Acquire),
                    last => v.block(last).link.load(Ordering::Acquire),
                };
                v.walk_from(after, |_, block| fill(block, dst)).unwrap_or_else(|| {
                    let id = v.alloc();
                    let block = v.block(id);
                    block.slots[0].set(dst);
                    block.len.store(1, PUBLISH);
                    match *tail {
                        NONE => v.head.store(id, Ordering::Release),
                        last => v.block(last).link.store(id, Ordering::Release),
                    }
                    *tail = id;
                    true
                })
            });
        if inserted {
            v.degree.fetch_add(1, Ordering::AcqRel);
        }
        inserted
    }

    /// The real remove + refill-from-tail compaction (exclusive mode; the
    /// caller holds `op`).
    pub fn remove(v: &Vertex, dst: u32) -> bool {
        let hole = v.walk(|_, block| published(block).iter().find(|slot| slot.get() == dst));
        let Some(hole) = hole else { return false };
        let mut tail = v.tail.lock();
        let last = v.block(*tail);
        let len = last.len.load(Ordering::Acquire) - 1;
        hole.set(last.slots[len].get());
        last.len.store(len, Ordering::Release);
        v.degree.fetch_sub(1, Ordering::AcqRel);
        if len == 0 {
            let emptied = *tail;
            let before = v.walk(|id, block| (block.link.load(Ordering::Acquire) == emptied).then_some(id));
            match before {
                Some(id) => v.block(id).link.store(NONE, Ordering::Release),
                None => v.head.store(NONE, Ordering::Release),
            }
            *tail = before.unwrap_or(NONE);
            v.free.lock().push(emptied);
        }
        true
    }

    /// Asserts the chain invariants and returns the edge multiset.
    pub fn check(v: &Vertex) -> Vec<u32> {
        let (mut ids, mut lens) = (Vec::new(), Vec::new());
        v.walk(|id, block| {
            ids.push(id);
            lens.push(block.len.load(Ordering::Acquire));
            None::<()>
        });
        assert_eq!(*v.tail.lock(), ids.last().copied().unwrap_or(NONE), "tail is not the last block");
        assert!(ids.iter().all(|id| !v.free.lock().contains(id)), "a freed block is still linked");
        for (i, &len) in lens.iter().enumerate() {
            assert!(len > 0, "empty block left in chain");
            if i + 1 < lens.len() {
                assert_eq!(len, BLOCK_SIZE, "non-tail block not full");
            }
        }
        let all = scan(v);
        assert_eq!(
            v.degree.load(Ordering::Acquire) as usize,
            all.len(),
            "degree diverged from stored edges"
        );
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate edge");
        all
    }
}

/// Two shared-mode inserts of the *same* edge racing on one full block:
/// the second scan's re-check under the block lock must give exactly one
/// winner in every interleaving (the search-then-insert TOCTOU the real
/// code closes by re-scanning under each lock).
#[test]
fn stinger_block_duplicate_insert_single_winner() {
    saga_loom::model(|| {
        let v = Arc::new(stinger_block::seed(&[&[1, 2]]));
        let wins = Arc::new(AtomicUsize::new(0));
        let t = {
            let v = Arc::clone(&v);
            let wins = Arc::clone(&wins);
            saga_utils::sync::thread::spawn_named("ins".into(), move || {
                if stinger_block::insert(&v, 3) {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        if stinger_block::insert(&v, 3) {
            wins.fetch_add(1, Ordering::SeqCst);
        }
        let _ = t.join();
        assert_eq!(wins.load(Ordering::SeqCst), 1, "duplicate edge inserted twice");
        let mut edges = stinger_block::check(&v);
        edges.sort_unstable();
        assert_eq!(edges, vec![1, 2, 3]);
    });
}

/// Two shared-mode inserts of *different* edges racing to append past a
/// full block: both must land, and the tail-mutex append path must keep
/// the all-but-tail-full invariant (no lost block, no double append).
#[test]
fn stinger_block_concurrent_appends_keep_chain_invariant() {
    saga_loom::model(|| {
        let v = Arc::new(stinger_block::seed(&[&[1, 2]]));
        let t = {
            let v = Arc::clone(&v);
            saga_utils::sync::thread::spawn_named("ins".into(), move || {
                assert!(stinger_block::insert(&v, 3));
            })
        };
        assert!(stinger_block::insert(&v, 4));
        let _ = t.join();
        let mut edges = stinger_block::check(&v);
        edges.sort_unstable();
        assert_eq!(edges, vec![1, 2, 3, 4]);
    });
}

/// Insert vs. delete on one vertex, serialized by the op lock exactly as
/// the real structure's per-vertex RwLock serializes them: in both orders
/// (and every schedule of the atomics around them) the compaction must
/// refill the hole from the tail, unlink and recycle the emptied tail, and
/// keep the degree counter equal to the stored edge count.
#[test]
fn stinger_block_insert_vs_delete_compaction() {
    saga_loom::model(|| {
        let v = Arc::new(stinger_block::seed(&[&[1, 2], &[3]]));
        let t = {
            let v = Arc::clone(&v);
            saga_utils::sync::thread::spawn_named("del".into(), move || {
                let _x = v.op.lock();
                assert!(stinger_block::remove(&v, 1));
            })
        };
        {
            let _x = v.op.lock();
            assert!(stinger_block::insert(&v, 4));
        }
        let _ = t.join();
        let mut edges = stinger_block::check(&v);
        edges.sort_unstable();
        assert_eq!(edges, vec![2, 3, 4], "insert and delete must both land");
    });
}

/// A lock-free scan racing a writer that fills the tail's free slot (scan
/// 2) and then appends a block: the scan must see a prefix of the writer's
/// edges and never read a slot before its `len` or `link` published it —
/// the `CausalCell` slots fail the model if it does (with a Relaxed
/// `len` store it does).
#[test]
fn stinger_block_lock_free_scan_never_reads_an_unpublished_slot() {
    saga_loom::model(|| {
        let v = Arc::new(stinger_block::seed(&[&[1]]));
        let reader = {
            let v = Arc::clone(&v);
            saga_utils::sync::thread::spawn_named("scan".into(), move || {
                let seen = stinger_block::scan(&v);
                assert!([&[1][..], &[1, 2], &[1, 2, 3]].contains(&&seen[..]), "scan saw {seen:?}");
            })
        };
        assert!(stinger_block::insert(&v, 2));
        assert!(stinger_block::insert(&v, 3));
        let _ = reader.join();
        assert_eq!(stinger_block::check(&v), vec![1, 2, 3]);
    });
}
