//! A small model checker for the suite's concurrency protocols, shaped like
//! the [`loom`](https://docs.rs/loom) crate's API.
//!
//! The real loom crate is not available in this repository's offline build
//! environment, so this crate provides the subset of its surface that the
//! `saga_utils::sync` facade needs: [`model`], [`sync::atomic`] integer
//! atomics, a poison-free [`sync::Mutex`]/[`sync::Condvar`] pair, a
//! shared-mode [`sync::RwLock`], [`sync::OnceLock`], and
//! [`thread::spawn`]/[`thread::JoinHandle`]. Code written against the
//! facade compiles against `std::sync` normally and against this
//! crate under `--cfg loom`, so the models drive production types.
//!
//! # What it checks
//!
//! [`model`] runs a closure repeatedly, each time under a cooperative
//! scheduler that serializes the program onto one runnable thread at a time
//! and explores a different interleaving of the *scheduling points* (every
//! atomic access, lock acquisition, condvar wait/notify, spawn, and join).
//! Exploration is a depth-first search over the scheduling decisions with
//! **preemption bounding** (the CHESS strategy): schedules that preempt a
//! runnable thread more than [`Builder::preemption_bound`] times are pruned.
//! Small bounds find the overwhelming majority of interleaving bugs while
//! keeping the schedule count polynomial.
//!
//! [`sync::RwLock`] is shared: two read guards are out at once, and a write
//! guard waits until none is. Within an explored schedule the checker
//! detects, and reports with a full schedule trace:
//!
//! - assertion failures / panics on any modeled thread,
//! - deadlocks (no thread can make progress, including lost condvar
//!   wakeups and a writer waiting on a reader that waits on it),
//! - non-deterministic models (the replayed prefix diverges),
//! - an **unordered read**: a `Relaxed` load that returns another
//!   thread's plain store when that store does not happen-before the load.
//!   Every thread carries a vector clock; spawn, join, a mutex hand-over,
//!   a write unlock → the next read or write lock, every read unlock → the
//!   next write lock, and a Release → Acquire atomic pair carry it across
//!   threads. Read → read carries nothing. So a payload stored `Relaxed`
//!   and published by a `Release` length, link or flag fails the model when
//!   the publishing store is `Relaxed`, or when the reader's load of it is.
//!   A location last written by a read-modify-write (a counter, a cursor)
//!   is exempt until its next plain store: an RMW reads the latest value.
//!
//! # What it does not check
//!
//! Unlike the real loom, this checker explores interleavings under
//! **sequential consistency**: a load always returns the latest store, so
//! it never *shows* a stale value; the unordered-read rule stands in for
//! that, for `Relaxed` loads only. A stale value an *Acquire* load could
//! read is out of reach: Stinger's `append` with its `link` store made
//! `Relaxed` passes, because the new block's `len`, loaded Acquire behind
//! the link, always returns the latest (Release) store. So is a write-only
//! atomic, which has no ordering to check. The rule is also stricter than
//! C11: a deliberate `Relaxed` race on a plain store (INC's racing property
//! stores in `saga_graph::properties`) fails it, so such code is not
//! modeled. A `static` modeled atomic outlives one schedule, and so does
//! the record of its last plain store; no model stores into one plainly.
//! Spurious condvar wakeups and the spurious failure mode of
//! `compare_exchange_weak` are not modeled either; ThreadSanitizer covers
//! data races on real threads.
//!
//! # Examples
//!
//! A racy read-modify-write is caught (this test is in the crate's suite):
//!
//! ```should_panic
//! use saga_loom::sync::atomic::{AtomicUsize, Ordering};
//! use saga_loom::sync::Arc;
//!
//! saga_loom::model(|| {
//!     let counter = Arc::new(AtomicUsize::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let counter = Arc::clone(&counter);
//!             saga_loom::thread::spawn(move || {
//!                 // Racy: load and store are separate scheduling points.
//!                 let v = counter.load(Ordering::SeqCst);
//!                 counter.store(v + 1, Ordering::SeqCst);
//!             })
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join().unwrap();
//!     }
//!     // Some interleaving loses an increment; the checker finds it.
//!     assert_eq!(counter.load(Ordering::SeqCst), 2);
//! });
//! ```

mod rt;
pub mod sync;
pub mod thread;

/// Configuration for a model-checking run.
///
/// ```
/// use saga_loom::Builder;
/// use saga_loom::sync::atomic::{AtomicUsize, Ordering};
///
/// let mut b = Builder::new();
/// b.preemption_bound = Some(3);
/// b.check(|| {
///     let x = AtomicUsize::new(0);
///     x.fetch_add(1, Ordering::SeqCst);
///     assert_eq!(x.load(Ordering::SeqCst), 1);
/// });
/// ```
#[derive(Debug, Clone)]
pub struct Builder {
    /// Maximum number of *preemptive* context switches per schedule (a
    /// switch away from a thread that could have kept running). `None`
    /// reads `SAGA_LOOM_PREEMPTION_BOUND`, defaulting to 2.
    pub preemption_bound: Option<usize>,
    /// Maximum number of schedules to explore before the run panics as
    /// inconclusive. `None` reads `SAGA_LOOM_MAX_ITERS`, defaulting to
    /// 500 000.
    pub max_iterations: Option<usize>,
}

impl Default for Builder {
    fn default() -> Self {
        Self::new()
    }
}

impl Builder {
    /// A builder with the environment-variable defaults described on the
    /// fields.
    pub fn new() -> Self {
        Self {
            preemption_bound: None,
            max_iterations: None,
        }
    }

    /// Exhaustively checks `f` under every schedule within the preemption
    /// bound, panicking with a schedule trace on the first failure.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let bound = self
            .preemption_bound
            .or_else(|| env_usize("SAGA_LOOM_PREEMPTION_BOUND"))
            .unwrap_or(2);
        let max_iters = self
            .max_iterations
            .or_else(|| env_usize("SAGA_LOOM_MAX_ITERS"))
            .unwrap_or(500_000);
        rt::explore(std::sync::Arc::new(f), bound, max_iters);
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// Model-checks `f` with the default [`Builder`] configuration.
///
/// Every schedule of `f`'s scheduling points (within the preemption bound)
/// is executed; the call panics with the offending schedule if any of them
/// panics or deadlocks.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f);
}
