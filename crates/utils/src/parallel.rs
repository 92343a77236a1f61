//! OpenMP-style fork-join parallelism on a persistent worker pool.
//!
//! The paper's C++ benchmark multithreads both phases of streaming graph
//! analytics with `#pragma omp parallel for`. This module provides the same
//! model: a [`ThreadPool`] is created once per experiment with a fixed thread
//! count (the paper pins 64 threads; here the count is configurable for the
//! core-scaling study of Fig. 9a), and every parallel loop is dispatched to
//! it with either static or dynamic scheduling.
//!
//! Workers are parked between loops, so per-loop overhead is a mutex
//! round-trip rather than a thread spawn — important because the incremental
//! compute model runs one parallel loop per frontier iteration.
//!
//! # Examples
//!
//! ```
//! use saga_utils::parallel::{Schedule, ThreadPool};
//! use saga_utils::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let sum = AtomicUsize::new(0);
//! pool.parallel_for(0..1000, Schedule::Static, |i| {
//!     sum.fetch_add(i, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! ```

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
#[cfg(all(debug_assertions, not(loom)))]
use crate::sync::lockdep;
use crate::sync::{thread, Arc, Condvar, Mutex};
use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Loop-scheduling policy for [`ThreadPool::parallel_for`].
///
/// Mirrors OpenMP's `schedule` clause. The paper's code relies on the OpenMP
/// default (static chunking); dynamic scheduling is provided for the
/// frontier-driven loops of the incremental compute model where iteration
/// costs are highly non-uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous equal-size ranges, one per worker (`schedule(static)`).
    Static,
    /// Workers grab `grain`-sized chunks from a shared counter
    /// (`schedule(dynamic, grain)`).
    Dynamic(usize),
}

/// A type-erased pointer to the closure currently being executed, plus the
/// monomorphized shim that calls it.
///
/// Type and lifetime erasure happen by plain thin-pointer casts (`*const F`
/// → `*const ()`), never `transmute`, so pointer provenance is preserved
/// and Miri/TSan can track the access back to the dispatcher's stack frame.
/// The pointer is only dereferenced while the dispatching thread is blocked
/// in [`ThreadPool::run_on_all`], which keeps the underlying closure (and
/// everything it borrows) alive.
#[derive(Clone, Copy)]
struct Job {
    /// Thin pointer to the dispatcher's closure (`*const F`, erased).
    data: *const (),
    /// Monomorphized trampoline that casts `data` back to `*const F` and
    /// calls it with the worker id.
    call: unsafe fn(*const (), usize),
    /// The lock-order checker's pseudo-class of the dispatch: its call site.
    #[cfg(all(debug_assertions, not(loom)))]
    class: lockdep::Class,
}

// SAFETY: `data` points to a closure that is `Sync` (bound enforced by
// `Job::new`), and the dispatcher guarantees it outlives every worker's
// use of it (see `run_on_all`), so sending the pointer to workers is sound.
unsafe impl Send for Job {}

impl Job {
    /// Erases `f` into a thin pointer + trampoline pair.
    ///
    /// The cast chain `&F → *const F → *const ()` is safe code; the
    /// soundness obligation (the pointee must still be alive at call time)
    /// is carried by [`Self::call_on`]'s contract.
    #[cfg_attr(debug_assertions, track_caller)]
    fn new<F: Fn(usize) + Sync>(f: &F) -> Self {
        /// # Safety
        ///
        /// `data` must be the still-live `F` this trampoline was
        /// monomorphized for (guaranteed by [`Job::call_on`]'s contract).
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
            // SAFETY: `call_on`'s contract guarantees `data` is the still
            // live `F` this trampoline was monomorphized for.
            let f = unsafe { &*data.cast::<F>() };
            f(worker);
        }
        Self {
            data: (f as *const F).cast::<()>(),
            call: trampoline::<F>,
            #[cfg(all(debug_assertions, not(loom)))]
            class: lockdep::Class::dispatch(std::panic::Location::caller()),
        }
    }

    /// Holds the dispatch's pseudo-class on this thread: the caller through
    /// the join, a worker for its task (DESIGN.md §7b).
    #[cfg(all(debug_assertions, not(loom)))]
    #[track_caller]
    fn hold(&self) -> lockdep::Held {
        lockdep::Held::acquire(self.class)
    }

    /// Calls the erased closure with `worker`.
    ///
    /// # Safety
    ///
    /// The closure passed to [`Job::new`] must still be alive, and must not
    /// be accessed mutably by anyone for the duration of the call.
    unsafe fn call_on(&self, worker: usize) {
        // SAFETY: forwarded contract — the caller guarantees liveness and
        // the `F: Sync` bound in `Job::new` makes shared calls sound.
        unsafe { (self.call)(self.data, worker) };
    }
}

struct PoolState {
    epoch: u64,
    job: Option<Job>,
    remaining: usize,
    /// The first panic of the running job, resumed on the dispatcher once
    /// every worker has finished with the job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    work_done: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size worker pool with fork-join `parallel for` loops.
///
/// The calling thread always participates as worker `0`, so
/// `ThreadPool::new(1)` spawns no OS threads and runs loops inline —
/// convenient for the single-core point of the scaling study.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool that executes parallel loops on `threads` workers
    /// (including the caller).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        // Pool-unique thread names keep each worker on its own timeline
        // track when several pools coexist (e.g. the pipelined driver's
        // update and compute pools).
        let pool_id = saga_trace::next_instance_id();
        for worker_id in 1..threads {
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn_named(
                format!("saga-p{pool_id}-worker-{worker_id}"),
                move || worker_loop(&shared, worker_id),
            ));
        }
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        Self::new(thread::available_parallelism())
    }

    /// Number of workers (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(worker_id)` once on every worker, in parallel, and returns
    /// when all invocations have finished.
    ///
    /// A panic in any invocation — the caller's included — is caught,
    /// the join still waits for every worker, and the first panic is then
    /// resumed on the caller; the pool stays usable.
    ///
    /// This is the fork-join primitive underneath [`parallel_for`]
    /// (`#pragma omp parallel` without the `for`). Chunk-owned data
    /// structures (AC, DAH) use it directly: worker `w` updates exactly the
    /// chunks it owns.
    ///
    /// [`parallel_for`]: Self::parallel_for
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn run_on_all<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let job = Job::new(&f);
        #[cfg(all(debug_assertions, not(loom)))]
        let _dispatch = job.hold();
        if self.threads == 1 {
            #[cfg(not(loom))]
            let _task = saga_trace::span!("task", worker = 0u64);
            f(0);
            return;
        }
        // INVARIANT: the erased pointer inside `job` is dereferenced only
        // by workers between the `work_ready` notification below and the
        // `remaining == 0` wait that follows, during which this frame (and
        // therefore `f`) is pinned — see the SAFETY comment at the
        // `call_on` in `worker_loop`.
        {
            let mut state = self.shared.state.lock();
            debug_assert!(state.job.is_none(), "nested parallel regions are not supported");
            state.epoch += 1;
            state.job = Some(job);
            state.remaining = self.threads - 1;
            self.shared.work_ready.notify_all();
        }
        // The caller participates as worker 0. Its panic must not unwind
        // past the join below while workers still call through `job`.
        let caught = {
            #[cfg(not(loom))]
            let _task = saga_trace::span!("task", worker = 0u64);
            panic::catch_unwind(AssertUnwindSafe(|| f(0)))
        };
        let mut state = self.shared.state.lock();
        if let Err(payload) = caught {
            state.panic.get_or_insert(payload);
        }
        while state.remaining != 0 {
            self.shared.work_done.wait(&mut state);
        }
        state.job = None;
        if let Some(payload) = state.panic.take() {
            drop(state);
            panic::resume_unwind(payload);
        }
    }

    /// Parallel loop over `range`, calling `f(i)` for every index exactly
    /// once, with the given scheduling policy.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let base = range.start;
        match schedule {
            Schedule::Static => {
                let threads = self.threads;
                self.run_on_all(|w| {
                    let (lo, hi) = static_chunk(n, threads, w);
                    for i in lo..hi {
                        f(base + i);
                    }
                });
            }
            Schedule::Dynamic(grain) => {
                let grain = grain.max(1);
                let next = AtomicUsize::new(0);
                self.run_on_all(|_| loop {
                    let start = next.fetch_add(grain, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + grain).min(n);
                    for i in start..end {
                        f(base + i);
                    }
                });
            }
        }
    }

    /// Parallel loop over the items of a slice (static schedule).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn parallel_for_each<T, F>(&self, items: &[T], schedule: Schedule, f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.parallel_for(0..items.len(), schedule, |i| f(&items[i]));
    }

    /// Splits `range` into one contiguous sub-range per worker and calls
    /// `f(worker_id, sub_range)` on each worker in parallel.
    ///
    /// Unlike [`parallel_for`](Self::parallel_for) this exposes the chunk
    /// boundary, which the chunked data structures use for ownership.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn parallel_ranges<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        let base = range.start;
        let threads = self.threads;
        self.run_on_all(|w| {
            let (lo, hi) = static_chunk(n, threads, w);
            f(w, base + lo..base + hi);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _state = self.shared.state.lock();
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The contiguous `[lo, hi)` sub-range of `0..n` assigned to worker `w` out
/// of `threads` under static scheduling.
///
/// Deterministic in `(n, threads, w)`: multi-pass algorithms (e.g. the
/// histogram and scatter passes of [`crate::partition::Partitioner`]) rely
/// on each worker seeing the identical range in every pass.
pub(crate) fn static_chunk(n: usize, threads: usize, w: usize) -> (usize, usize) {
    let lo = n * w / threads;
    let hi = n * (w + 1) / threads;
    (lo, hi)
}

/// Floor share of `n` items per worker across `threads` workers.
///
/// The one sizing primitive shared by [`adaptive_grain`] and the batch
/// partitioner's sequential cutoff ([`crate::partition::Partitioner`]), so
/// both answer "how much work does one worker see?" identically.
pub fn per_worker_share(n: usize, threads: usize) -> usize {
    n / threads.max(1)
}

/// A dynamic-schedule grain that keeps every worker busy: roughly eight
/// chunks per worker, clamped to `[1, 64]`. Fixed grains starve workers
/// when the iteration space (e.g. an incremental frontier) is smaller than
/// `grain * threads`.
pub fn adaptive_grain(n: usize, threads: usize) -> usize {
    (per_worker_share(n, threads) / 8).clamp(1, 64)
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if state.epoch != last_epoch {
                    last_epoch = state.epoch;
                    break state.job.expect("epoch advanced without a job");
                }
                shared.work_ready.wait(&mut state);
            }
        };
        // The task runs under the dispatch's pseudo-class, taken only now
        // that the pool's `state` lock is released.
        #[cfg(all(debug_assertions, not(loom)))]
        let dispatch = job.hold();
        #[cfg(not(loom))]
        let task = saga_trace::span!("task", worker = worker_id as u64);
        // SAFETY: the dispatcher blocks until `remaining == 0` — its own
        // share of the job cannot unwind past that wait, and this worker's
        // panic is caught here so it still decrements `remaining` — so the
        // closure behind the job's pointer is alive for the duration of
        // the call, and `run_on_all` only shares it immutably.
        let caught = panic::catch_unwind(AssertUnwindSafe(|| unsafe { job.call_on(worker_id) }));
        #[cfg(not(loom))]
        drop(task);
        #[cfg(all(debug_assertions, not(loom)))]
        drop(dispatch);
        let mut state = shared.state.lock();
        if let Err(payload) = caught {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Miri interprets every instruction; shrink iteration counts so the
    /// suite stays Miri-sized while native runs keep full coverage.
    const fn scaled(n: usize) -> usize {
        if cfg!(miri) {
            n / 10
        } else {
            n
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(0..100, Schedule::Static, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn static_schedule_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..scaled(1000)).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..scaled(1000), Schedule::Static, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_schedule_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..scaled(1000) + 3).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..scaled(1000) + 3, Schedule::Dynamic(7), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn offset_range_respected() {
        let pool = ThreadPool::new(3);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(100..200, Schedule::Static, |i| {
            assert!((100..200).contains(&i));
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (100..200).sum::<usize>());
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(5..5, Schedule::Static, |_| panic!("should not run"));
        pool.parallel_for(5..5, Schedule::Dynamic(4), |_| panic!("should not run"));
    }

    #[test]
    fn run_on_all_sees_every_worker_id() {
        let pool = ThreadPool::new(5);
        let seen: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        pool.run_on_all(|w| {
            seen[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_ranges_partition_is_exact() {
        let pool = ThreadPool::new(4);
        let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_ranges(0..257, |_, r| {
            for i in r {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_survives_many_dispatches() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..scaled(200) {
            pool.parallel_for(0..64, Schedule::Static, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), scaled(200) * 64);
    }

    #[test]
    fn static_chunk_partitions() {
        for n in [0usize, 1, 7, 64, 1001] {
            for t in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for w in 0..t {
                    let (lo, hi) = static_chunk(n, t, w);
                    assert!(lo <= hi);
                    covered += hi - lo;
                    if w > 0 {
                        let (_, prev_hi) = static_chunk(n, t, w - 1);
                        assert_eq!(prev_hi, lo);
                    }
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn per_worker_share_boundaries() {
        // Zero items: nobody gets work.
        assert_eq!(per_worker_share(0, 4), 0);
        // Fewer items than workers: floor share is zero.
        assert_eq!(per_worker_share(3, 4), 0);
        // Zero threads is treated as one worker, never a division by zero.
        assert_eq!(per_worker_share(10, 0), 10);
        // Exact and inexact splits.
        assert_eq!(per_worker_share(64, 4), 16);
        assert_eq!(per_worker_share(65, 4), 16);
        // Huge n does not overflow.
        assert_eq!(per_worker_share(usize::MAX, 1), usize::MAX);
    }

    #[test]
    fn adaptive_grain_boundaries() {
        // Empty and tiny iteration spaces clamp to the minimum grain.
        assert_eq!(adaptive_grain(0, 4), 1);
        assert_eq!(adaptive_grain(3, 4), 1);
        assert_eq!(adaptive_grain(31, 4), 1);
        // Huge n clamps to the maximum grain.
        assert_eq!(adaptive_grain(1 << 30, 4), 64);
        assert_eq!(adaptive_grain(usize::MAX, 1), 64);
        // Interior: eight chunks per worker.
        assert_eq!(adaptive_grain(320, 4), 10);
        // Zero threads behaves like one worker.
        assert_eq!(adaptive_grain(320, 0), 40);
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        let pool = ThreadPool::new(2);
        let data = [0usize; 4];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_ranges(0..data.len(), |w, r| {
                // Worker 1 indexes past the end; the caller finishes cleanly.
                let _ = data[r.start + if w == 1 { data.len() } else { 0 }];
            });
        }));
        assert!(caught.is_err(), "the worker's panic must be resumed on the caller");
        let hits = AtomicUsize::new(0);
        pool.run_on_all(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn caller_panic_waits_for_workers_and_the_pool_survives() {
        let pool = ThreadPool::new(3);
        let (panicking, done) = (AtomicBool::new(false), AtomicUsize::new(0));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_on_all(|w| {
                if w == 0 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("caller's share");
                }
                // Workers still read the caller's frame after it panicked.
                while !panicking.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err("the caller's panic must be resumed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller's share"));
        assert_eq!(done.load(Ordering::Relaxed), 2, "the join waited for both workers");
        let hits = AtomicUsize::new(0);
        pool.run_on_all(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn borrows_local_data() {
        let pool = ThreadPool::new(3);
        let data: Vec<usize> = (0..100).collect();
        let sum = AtomicUsize::new(0);
        pool.parallel_for_each(&data, Schedule::Static, |x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), data.iter().sum::<usize>());
    }
}
