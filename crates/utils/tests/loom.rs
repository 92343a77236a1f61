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
//! large randomized runs miss. See DESIGN.md §7b for what is and is not
//! covered.
#![cfg(loom)]

use saga_utils::barrier::Barrier;
use saga_utils::bitvec::{AtomicBitVec, GenerationMarks};
use saga_utils::frontier::FlatFrontier;
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

/// The facade's modeled `RwLock`: a racing writer and reader-then-writer
/// can interleave any way, but guard-protected increments must never be
/// lost and the final value must be exactly the sum of both threads'
/// additions.
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

/// `FlatFrontier`'s push cursor and slot publication: two pool workers
/// push concurrently, the drain (exclusive, after the join) must see both
/// vertices exactly once, and a reuse after the cursor reset must collect
/// only the new push. A cursor bump split into a load and a store loses a
/// push here.
#[test]
fn frontier_pushes_drain_and_reuse() {
    saga_loom::model(|| {
        let pool = ThreadPool::new(2);
        let mut next = FlatFrontier::new(2);
        pool.run_on_all(|w| next.push(10 + w as u32));
        let mut level = Vec::new();
        next.take_into(&mut level);
        level.sort_unstable();
        assert_eq!(level, [10, 11]);
        assert!(next.is_empty());
        pool.run_on_all(|w| {
            if w == 1 {
                next.push(7);
            }
        });
        next.take_into(&mut level);
        assert_eq!(level, [7]);
    });
}
