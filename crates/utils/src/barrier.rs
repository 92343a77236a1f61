//! A reusable superstep barrier that runs the leader's work inside the
//! crossing.
//!
//! The BSP engine (`saga-bsp`) separates each superstep into a scatter
//! phase, a message exchange, and a gather phase. Phase transitions need
//! two things from a barrier that [`std::sync::Barrier`] bundles awkwardly:
//!
//! 1. **Reusability** — the same barrier object is crossed hundreds of
//!    times per run (twice per superstep), so it must reset itself after
//!    every crossing (a *sense-reversing* barrier, implemented here with a
//!    generation counter instead of a boolean sense flag).
//! 2. **Leader work** — sequential between-phase work (termination check,
//!    checkpoint publish, metric flush) runs once per crossing, in the
//!    last arriver, *before* the crossing releases, so every participant
//!    leaves the crossing seeing its result:
//!
//!    ```text
//!    barrier.wait(|| sequential work);  // end of phase; released after it
//!    ```
//!
//!    One crossing does what leader election needs two for (elect, then
//!    publish the leader's decision).
//!
//! Built on the [`crate::sync`] facade (Mutex + Condvar), so the whole
//! protocol model-checks under `--cfg loom` (see
//! `crates/utils/tests/loom.rs`).

use crate::sync::{Condvar, Mutex};

/// Shared barrier state behind the mutex.
#[derive(Debug)]
struct State {
    /// Threads that have arrived at the current crossing.
    arrived: usize,
    /// Crossing counter. A waiter records the generation it arrived in and
    /// sleeps until it changes; the last arriver bumps it. This is what
    /// makes the barrier reusable: a thread racing ahead to the next
    /// crossing sees a fresh generation and cannot consume a stale wakeup.
    generation: u64,
}

/// A reusable sense-reversing barrier for a fixed set of participants.
///
/// [`wait`](Barrier::wait) runs the closure of exactly one participant per
/// crossing (the last arriver — the "leader") before releasing the rest.
///
/// # Examples
///
/// ```
/// use saga_utils::barrier::Barrier;
/// use saga_utils::sync::atomic::{AtomicUsize, Ordering};
/// use saga_utils::sync::Arc;
///
/// let barrier = Arc::new(Barrier::new(2));
/// let decided = Arc::new(AtomicUsize::new(0));
/// let (b, d) = (Arc::clone(&barrier), Arc::clone(&decided));
/// let t = std::thread::spawn(move || {
///     b.wait(|| { d.fetch_add(1, Ordering::Relaxed); });
///     d.load(Ordering::Relaxed)
/// });
/// barrier.wait(|| { decided.fetch_add(1, Ordering::Relaxed); });
/// // Exactly one leader ran, and both sides see it after the crossing.
/// assert_eq!(decided.load(Ordering::Relaxed), 1);
/// assert_eq!(t.join().unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct Barrier {
    participants: usize,
    state: Mutex<State>,
    cvar: Condvar,
}

impl Barrier {
    /// Creates a barrier for `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        Self {
            participants,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Number of threads that must arrive to release a crossing.
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Blocks until all participants arrive. The last arriver runs
    /// `leader` — only its closure runs; the others' are dropped — and then
    /// releases the crossing, so every participant returns after `leader`
    /// did and sees what it wrote. `leader` runs under the barrier's lock:
    /// it must not cross this barrier.
    ///
    /// The barrier resets itself: the same object can be crossed any number
    /// of times, including immediately by a thread released from the
    /// previous crossing.
    pub fn wait(&self, leader: impl FnOnce()) {
        let mut state = self.state.lock();
        state.arrived += 1;
        if state.arrived == self.participants {
            leader();
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cvar.notify_all();
        } else {
            let generation = state.generation;
            while state.generation == generation {
                self.cvar.wait(&mut state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::thread::spawn_named;
    use crate::sync::Arc;

    #[test]
    fn single_participant_is_always_leader() {
        let b = Barrier::new(1);
        let mut led = 0;
        for _ in 0..5 {
            b.wait(|| led += 1);
        }
        assert_eq!(led, 5);
    }

    #[test]
    fn elects_exactly_one_leader_per_crossing() {
        const THREADS: usize = 4;
        const CROSSINGS: usize = 50;
        let barrier = Arc::new(Barrier::new(THREADS));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                spawn_named(format!("barrier-test-{i}"), move || {
                    for _ in 0..CROSSINGS {
                        barrier.wait(|| {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), CROSSINGS);
    }

    #[test]
    fn one_crossing_publishes_leader_work_to_all() {
        // The BSP idiom: phase work → wait with the leader-only sequential
        // step → everyone observes the leader's write.
        const THREADS: usize = 4;
        const ROUNDS: usize = 20;
        let barrier = Arc::new(Barrier::new(THREADS));
        let published = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let published = Arc::clone(&published);
                spawn_named(format!("barrier-test-{i}"), move || {
                    for round in 0..ROUNDS {
                        barrier.wait(|| published.store(round + 1, Ordering::Relaxed));
                        assert_eq!(published.load(Ordering::Relaxed), round + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = Barrier::new(0);
    }
}
