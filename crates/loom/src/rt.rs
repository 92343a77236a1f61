//! The scheduler runtime behind [`crate::model`].
//!
//! One *iteration* executes the model closure once under a cooperative
//! scheduler: every managed thread stops at each scheduling point
//! ([`shared_op`], [`mutex_lock`], [`cond_wait`], …) and hands a baton back
//! to the scheduler, which picks the next thread to run according to the
//! schedule being explored. Exploration is a depth-first search over those
//! decisions with preemption bounding (see the crate docs).
//!
//! The runtime is intentionally simple: real OS threads are used for the
//! managed threads, but a global baton guarantees at most one of them runs
//! user code at any instant, so modeled "atomics" can be plain
//! `UnsafeCell`s.
//!
//! Beside the schedule, the runtime tracks *happens-before* with one vector
//! clock per thread ([`VClock`]): a thread ticks its own entry at every
//! scheduling point, and spawn, join, a mutex or write-lock release → the
//! next acquire, a write unlock → a read lock, every read unlock → the
//! next write lock, and a Release-side atomic store → Acquire-side load
//! carry the clock across threads. Values are still sequentially
//! consistent; the clocks only answer "is that store ordered before this
//! Relaxed load?" for the modeled atomics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// A vector clock: entry `t` is the last scheduling step of thread `t`
/// that happens-before the clock's owner.
#[derive(Debug, Clone, Default)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    /// The clock that knows of no step.
    pub(crate) const fn new() -> Self {
        Self(Vec::new())
    }

    /// Entry `t`.
    pub(crate) fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    /// Raises entry `t` to at least `at`.
    pub(crate) fn raise(&mut self, t: usize, at: u64) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = self.0[t].max(at);
    }

    /// Pointwise maximum with `other`: everything `other` knows of.
    pub(crate) fn join(&mut self, other: &VClock) {
        for (t, &at) in other.0.iter().enumerate() {
            self.raise(t, at);
        }
    }
}

/// The running thread as a shared op sees it: its id and its clock.
pub(crate) struct Now<'a> {
    pub(crate) tid: usize,
    pub(crate) clock: &'a mut VClock,
}

impl Now<'_> {
    /// `(thread, step)` of this thread's current scheduling step, as a
    /// plain store records it.
    pub(crate) fn step(&self) -> (usize, u64) {
        (self.tid, self.clock.get(self.tid))
    }
}

/// The operation a parked thread is about to perform; determines whether
/// the scheduler may grant it the baton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    /// Unconditional shared-memory step (atomic access, notify, spawn).
    Op,
    /// Acquire the mutex (or write lock) keyed by this address; enabled
    /// iff it has no owner and no reader.
    Lock(usize),
    /// Acquire the read lock keyed by this address; enabled iff it has no
    /// owner (readers share it).
    Read(usize),
    /// Join the given thread; enabled iff it has finished.
    Join(usize),
}

#[derive(Debug)]
enum Status {
    /// Holds the baton and is executing user code.
    Running,
    /// Stopped at a scheduling point, waiting to be granted the baton.
    Parked(Pending),
    /// Blocked in `Condvar::wait`; not schedulable until notified (the
    /// waiter list in `ModelState::cond_waiters` holds the cv/mutex pair).
    CondWait,
    /// The thread function returned (or unwound).
    Finished,
}

/// One recorded scheduling decision, with enough context to both replay it
/// and derive the next schedule to explore.
#[derive(Debug, Clone)]
struct Decision {
    /// Thread ids that were grantable at this point: the previously
    /// running one first, if it was, then the rest ascending.
    enabled: Vec<usize>,
    /// Index into `enabled` of the granted thread.
    index: usize,
    /// Thread that held the baton before this decision (for preemption
    /// accounting).
    prev_active: Option<usize>,
    /// Preemptions spent on the schedule prefix before this decision.
    preempts_before: usize,
}

struct ModelState {
    threads: Vec<Status>,
    /// Happens-before clock per thread (same index as `threads`).
    clocks: Vec<VClock>,
    /// Per mutex address: the clock its last holder released it with.
    lock_clocks: HashMap<usize, VClock>,
    /// Per read-write lock address: every read unlock's clock, joined.
    reader_clocks: HashMap<usize, VClock>,
    /// Per read-write lock address: the threads holding it shared (one
    /// entry per guard).
    readers: HashMap<usize, Vec<usize>>,
    /// Baton holder; `None` while the scheduler is deciding.
    active: Option<usize>,
    prev_active: Option<usize>,
    /// Lock owner per mutex address (`None` = unlocked).
    mutexes: HashMap<usize, Option<usize>>,
    /// Waiters per condvar address: (thread id, mutex to reacquire).
    cond_waiters: HashMap<usize, Vec<(usize, usize)>>,
    /// OS handles of threads spawned this iteration, joined at the end.
    os_handles: Vec<std::thread::JoinHandle<()>>,
    /// Set on failure (panic / deadlock / divergence): every blocked thread
    /// unwinds with an [`AbortToken`] so the iteration can be torn down.
    abort: bool,
    panic_msg: Option<String>,
    /// Schedule: replayed prefix then fresh extension.
    path: Vec<Decision>,
    cursor: usize,
    preempts: usize,
}

struct Rt {
    state: StdMutex<Option<ModelState>>,
    cv: StdCondvar,
}

static RT: Rt = Rt {
    state: StdMutex::new(None),
    cv: StdCondvar::new(),
};

/// Held for a whole [`explore`] run: `RT` is one model's state, so models
/// started from parallel `#[test]`s take turns instead of colliding.
static MODEL_RUN: StdMutex<()> = StdMutex::new(());

std::thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Token unwound through managed threads when an iteration is aborted
/// (another thread panicked or deadlocked); not a user failure itself.
struct AbortToken;

fn current_tid() -> Option<usize> {
    TID.with(|t| t.get())
}

/// Whether the calling thread is managed by an active model iteration.
pub(crate) fn is_managed() -> bool {
    current_tid().is_some()
}

/// Whether scheduling must be bypassed: a managed thread that is already
/// unwinding (user panic or [`AbortToken`]) must not re-enter the
/// scheduler from destructors — a panic inside a drop during unwinding
/// aborts the process. Bypassed shared ops are serialized on the runtime
/// lock instead, so teardown stays race-free.
fn abort_bypass() -> bool {
    is_managed() && std::thread::panicking()
}

/// Unwinds the current managed thread without running the panic hook.
fn raise_abort() -> ! {
    std::panic::resume_unwind(Box::new(AbortToken));
}

/// Panics unless called from a managed thread; modeled primitives are only
/// meaningful inside [`crate::model`].
fn expect_managed() -> usize {
    current_tid().expect(
        "saga-loom primitive used outside of saga_loom::model — \
         loom-cfg'd types must only be exercised from model()",
    )
}

/// Parks the calling managed thread at a scheduling point declaring
/// `pending`, and returns once the scheduler grants it the baton. On
/// return the thread holds the baton (exclusive execution) and, for
/// [`Pending::Lock`], owns the mutex.
fn yield_point(pending: Pending) {
    let me = expect_managed();
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    {
        let st = guard.as_mut().expect("model state missing");
        if st.abort {
            drop(guard);
            raise_abort();
        }
        st.threads[me] = Status::Parked(pending);
        st.active = None;
    }
    RT.cv.notify_all();
    loop {
        let st = guard.as_mut().expect("model state missing");
        if st.abort {
            drop(guard);
            raise_abort();
        }
        if st.active == Some(me) {
            st.threads[me] = Status::Running;
            let step = st.clocks[me].get(me) + 1;
            st.clocks[me].raise(me, step);
            match pending {
                Pending::Op => {}
                Pending::Lock(m) => {
                    let owner = st.mutexes.entry(m).or_insert(None);
                    debug_assert!(owner.is_none(), "granted a held mutex");
                    *owner = Some(me);
                    acquire_lock_clock(st, me, m);
                }
                Pending::Read(m) => {
                    st.readers.entry(m).or_default().push(me);
                    // The last writer's release; read → read publishes
                    // nothing.
                    if let Some(released) = st.lock_clocks.get(&m) {
                        let released = released.clone();
                        st.clocks[me].join(&released);
                    }
                }
                Pending::Join(t) => {
                    let finished = st.clocks[t].clone();
                    st.clocks[me].join(&finished);
                }
            }
            return;
        }
        guard = RT.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
}

/// Joins the clock lock `m` was last released with, and every read
/// unlock's, into thread `me`'s: what an exclusive acquire is ordered after.
fn acquire_lock_clock(st: &mut ModelState, me: usize, m: usize) {
    for released in [st.lock_clocks.get(&m), st.reader_clocks.get(&m)].into_iter().flatten() {
        let released = released.clone();
        st.clocks[me].join(&released);
    }
}

/// Runs `op` as one atomic scheduling step. The baton serializes managed
/// threads, so `op` may touch the `UnsafeCell` state of modeled atomics.
/// `op` gets the running thread's clock, or `None` during teardown, when
/// nothing is checked any more.
pub(crate) fn shared_op<T>(op: impl FnOnce(Option<Now<'_>>) -> T) -> T {
    if abort_bypass() {
        // Serialize teardown-time accesses on the runtime lock instead of
        // the (no longer running) scheduler.
        let _guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
        return op(None);
    }
    yield_point(Pending::Op);
    let tid = expect_managed();
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.as_mut().expect("model state missing");
    op(Some(Now {
        tid,
        clock: &mut st.clocks[tid],
    }))
}

/// Acquires the modeled mutex keyed by `addr` (blocking schedule-wise until
/// it is free).
pub(crate) fn mutex_lock(addr: usize) {
    if abort_bypass() {
        // Teardown: every managed thread is unwinding, so the lock is
        // uncontended in any execution that matters; grant it vacuously.
        return;
    }
    yield_point(Pending::Lock(addr));
}

/// Releases the modeled mutex keyed by `addr`. Not a scheduling point: the
/// releasing thread keeps the baton; the scheduler re-evaluates enabledness
/// at its next yield.
pub(crate) fn mutex_unlock(addr: usize) {
    // Runs from guard destructors, possibly during abort unwinding or
    // after the iteration state was torn down — must never panic.
    let Some(me) = current_tid() else { return };
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let Some(st) = guard.as_mut() else { return };
    if let Some(owner) = st.mutexes.get_mut(&addr) {
        if *owner == Some(me) {
            *owner = None;
            st.lock_clocks.insert(addr, st.clocks[me].clone());
        }
    }
}

/// Acquires the modeled read lock keyed by `addr` (blocking schedule-wise
/// while a writer holds it).
pub(crate) fn read_lock(addr: usize) {
    if abort_bypass() {
        return;
    }
    yield_point(Pending::Read(addr));
}

/// Releases one read guard of the lock keyed by `addr`; like
/// [`mutex_unlock`], not a scheduling point and never panics.
pub(crate) fn read_unlock(addr: usize) {
    let Some(me) = current_tid() else { return };
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let Some(st) = guard.as_mut() else { return };
    let Some(readers) = st.readers.get_mut(&addr) else { return };
    if let Some(i) = readers.iter().position(|&t| t == me) {
        readers.swap_remove(i);
        let released = st.clocks[me].clone();
        st.reader_clocks.entry(addr).or_default().join(&released);
    }
}

/// Atomically releases `mutex` and blocks on `cv` until notified, then
/// reacquires `mutex` before returning (the condvar-wait protocol).
pub(crate) fn cond_wait(cv: usize, mutex: usize) {
    if abort_bypass() {
        return;
    }
    let me = expect_managed();
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    {
        let st = guard.as_mut().expect("model state missing");
        if st.abort {
            drop(guard);
            raise_abort();
        }
        let owner = st.mutexes.entry(mutex).or_insert(None);
        debug_assert_eq!(*owner, Some(me), "cond_wait without holding the mutex");
        *owner = None;
        st.lock_clocks.insert(mutex, st.clocks[me].clone());
        st.cond_waiters.entry(cv).or_default().push((me, mutex));
        st.threads[me] = Status::CondWait;
        st.active = None;
    }
    RT.cv.notify_all();
    loop {
        let st = guard.as_mut().expect("model state missing");
        if st.abort {
            drop(guard);
            raise_abort();
        }
        if st.active == Some(me) {
            // A notify converted us to Parked(Lock(mutex)) and the
            // scheduler granted the reacquisition.
            st.threads[me] = Status::Running;
            let owner = st.mutexes.entry(mutex).or_insert(None);
            debug_assert!(owner.is_none(), "granted a held mutex on cond wake");
            *owner = Some(me);
            acquire_lock_clock(st, me, mutex);
            return;
        }
        guard = RT.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
}

/// Wakes every thread blocked on the condvar keyed by `cv`; each woken
/// thread becomes schedulable once it can reacquire its mutex.
pub(crate) fn cond_notify_all(cv: usize) {
    if abort_bypass() {
        // Teardown: waiters are woken by the abort flag, not notifies.
        return;
    }
    yield_point(Pending::Op);
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.as_mut().expect("model state missing");
    if let Some(waiters) = st.cond_waiters.remove(&cv) {
        for (tid, mutex) in waiters {
            st.threads[tid] = Status::Parked(Pending::Lock(mutex));
        }
    }
}

/// Wakes one thread (FIFO) blocked on the condvar keyed by `cv`.
pub(crate) fn cond_notify_one(cv: usize) {
    if abort_bypass() {
        return;
    }
    yield_point(Pending::Op);
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.as_mut().expect("model state missing");
    if let Some(waiters) = st.cond_waiters.get_mut(&cv) {
        if !waiters.is_empty() {
            let (tid, mutex) = waiters.remove(0);
            st.threads[tid] = Status::Parked(Pending::Lock(mutex));
        }
    }
}

/// Registers and starts a new managed thread running `f`; returns its
/// thread id for [`join`].
pub(crate) fn spawn(f: Box<dyn FnOnce() + Send>) -> usize {
    if abort_bypass() {
        // Pathological (spawn from a destructor during teardown): run the
        // closure inline; its scheduling points all bypass too.
        f();
        return usize::MAX;
    }
    yield_point(Pending::Op);
    let parent = expect_managed();
    let tid = {
        let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
        let st = guard.as_mut().expect("model state missing");
        let tid = st.threads.len();
        st.threads.push(Status::Parked(Pending::Op));
        // Everything the parent did so far happens-before the child.
        let inherited = st.clocks[parent].clone();
        st.clocks.push(inherited);
        tid
    };
    let handle = std::thread::Builder::new()
        .name(format!("saga-loom-{tid}"))
        .spawn(move || run_managed(tid, f))
        .expect("failed to spawn model thread");
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    let st = guard.as_mut().expect("model state missing");
    st.os_handles.push(handle);
    tid
}

/// Blocks (schedule-wise) until thread `tid` has finished.
pub(crate) fn join(tid: usize) {
    if abort_bypass() || tid == usize::MAX {
        return;
    }
    yield_point(Pending::Join(tid));
}

/// Body of every managed OS thread: wait for the first grant, run the user
/// closure, report completion (or failure) to the scheduler.
fn run_managed(tid: usize, f: Box<dyn FnOnce() + Send>) {
    TID.with(|t| t.set(Some(tid)));
    // The spawn registered us as Parked(Op): wait for the starting grant.
    let result = catch_unwind(AssertUnwindSafe(|| {
        wait_for_start(tid);
        f();
    }));
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = guard.as_mut() {
        st.threads[tid] = Status::Finished;
        if st.active == Some(tid) {
            st.active = None;
        }
        if let Err(payload) = result {
            if !payload.is::<AbortToken>() && !st.abort {
                st.abort = true;
                // `&*`: the message is inside the box (`&payload` would
                // make the box itself the `Any`, which no downcast matches).
                st.panic_msg = Some(payload_to_string(&*payload));
            }
        }
    }
    drop(guard);
    RT.cv.notify_all();
}

fn wait_for_start(me: usize) {
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let st = guard.as_mut().expect("model state missing");
        if st.abort {
            drop(guard);
            raise_abort();
        }
        if st.active == Some(me) {
            st.threads[me] = Status::Running;
            return;
        }
        guard = RT.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

/// Whether a parked thread's pending op can be granted right now.
fn is_enabled(st: &ModelState, tid: usize) -> bool {
    match st.threads[tid] {
        Status::Parked(Pending::Op) => true,
        Status::Parked(Pending::Lock(m)) => {
            st.mutexes.get(&m).copied().flatten().is_none()
                && st.readers.get(&m).is_none_or(Vec::is_empty)
        }
        Status::Parked(Pending::Read(m)) => st.mutexes.get(&m).copied().flatten().is_none(),
        Status::Parked(Pending::Join(t)) => matches!(st.threads[t], Status::Finished),
        Status::Running | Status::CondWait | Status::Finished => false,
    }
}

/// The DFS driver: runs iterations until the schedule space (within the
/// preemption bound) is exhausted or a failure is found.
pub(crate) fn explore(f: Arc<dyn Fn() + Send + Sync>, bound: usize, max_iters: usize) {
    assert!(
        !is_managed(),
        "saga_loom::model may not be nested inside a model"
    );
    // Poison is expected: a failing model panics out of here by design.
    let _run = MODEL_RUN.lock().unwrap_or_else(|e| e.into_inner());
    let mut path: Vec<Decision> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        assert!(
            iterations <= max_iters,
            "saga-loom: exceeded {max_iters} schedules without exhausting the model; \
             shrink the model or raise SAGA_LOOM_MAX_ITERS"
        );
        path = match run_iteration(&f, std::mem::take(&mut path)) {
            Ok(p) => p,
            Err((msg, p)) => {
                panic!(
                    "saga-loom: model failed on schedule #{iterations} {}: {msg}",
                    format_schedule(&p)
                );
            }
        };
        if !next_schedule(&mut path, bound) {
            return;
        }
    }
}

fn format_schedule(path: &[Decision]) -> String {
    let order: Vec<String> = path
        .iter()
        .map(|d| d.enabled[d.index.min(d.enabled.len().saturating_sub(1))].to_string())
        .collect();
    format!("[{}]", order.join(" "))
}

/// Executes one schedule. Returns the (possibly extended) path, or the
/// failure message plus the path executed so far.
fn run_iteration(
    f: &Arc<dyn Fn() + Send + Sync>,
    path: Vec<Decision>,
) -> Result<Vec<Decision>, (String, Vec<Decision>)> {
    {
        let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(ModelState {
            threads: vec![Status::Parked(Pending::Op)],
            clocks: vec![VClock::new()],
            lock_clocks: HashMap::new(),
            reader_clocks: HashMap::new(),
            readers: HashMap::new(),
            active: None,
            prev_active: None,
            mutexes: HashMap::new(),
            cond_waiters: HashMap::new(),
            os_handles: Vec::new(),
            abort: false,
            panic_msg: None,
            path,
            cursor: 0,
            preempts: 0,
        });
    }
    // Thread 0 is the root: it runs the model closure itself.
    let f0 = Arc::clone(f);
    let root = std::thread::Builder::new()
        .name("saga-loom-0".into())
        .spawn(move || run_managed(0, Box::new(move || f0())))
        .expect("failed to spawn model root thread");

    // Scheduler loop.
    let mut guard = RT.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        {
            let st = guard.as_mut().expect("model state missing");
            if st.abort {
                break;
            }
            if st.active.is_none() {
                if st
                    .threads
                    .iter()
                    .all(|t| matches!(t, Status::Finished))
                {
                    break;
                }
                let mut enabled: Vec<usize> = (0..st.threads.len())
                    .filter(|&t| is_enabled(st, t))
                    .collect();
                // The thread that ran last goes first: index 0 continues
                // it, and backtracking tries every other index.
                if let Some(i) = st.prev_active.and_then(|p| enabled.iter().position(|&t| t == p)) {
                    enabled[..=i].rotate_right(1);
                }
                let any_parked_or_waiting = st.threads.iter().any(|t| {
                    matches!(t, Status::Parked(_) | Status::CondWait)
                });
                if enabled.is_empty() {
                    if any_parked_or_waiting {
                        st.abort = true;
                        st.panic_msg = Some(
                            "deadlock: threads blocked with no enabled successor \
                             (lost wakeup or lock cycle)"
                                .to_string(),
                        );
                        break;
                    }
                    // Threads exist that are neither parked nor finished:
                    // an OS thread is still on its way to its first or next
                    // yield. Wait for it below.
                } else {
                    let cursor = st.cursor;
                    let index = if cursor < st.path.len() {
                        if st.path[cursor].enabled != enabled {
                            st.abort = true;
                            st.panic_msg = Some(format!(
                                "non-deterministic model: replayed schedule diverged at \
                                 decision {cursor} (expected enabled {:?}, got {enabled:?})",
                                st.path[cursor].enabled
                            ));
                            break;
                        }
                        st.path[cursor].index
                    } else {
                        // Fresh extension: continue the previous thread (no
                        // preemption), else the lowest tid.
                        st.path.push(Decision {
                            enabled: enabled.clone(),
                            index: 0,
                            prev_active: st.prev_active,
                            preempts_before: st.preempts,
                        });
                        0
                    };
                    let chosen = enabled[index];
                    if let Some(p) = st.prev_active {
                        if p != chosen && enabled.contains(&p) {
                            st.preempts += 1;
                        }
                    }
                    st.cursor += 1;
                    st.prev_active = Some(chosen);
                    st.active = Some(chosen);
                    RT.cv.notify_all();
                }
            }
        }
        guard = RT.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }

    // Tear down: release any still-blocked threads and join the OS threads.
    let (handles, panic_msg, path) = {
        let st = guard.as_mut().expect("model state missing");
        st.abort = st.abort || st.panic_msg.is_some();
        let handles = std::mem::take(&mut st.os_handles);
        let panic_msg = st.panic_msg.take();
        let path = std::mem::take(&mut st.path);
        if panic_msg.is_some() {
            st.abort = true;
        }
        (handles, panic_msg, path)
    };
    RT.cv.notify_all();
    drop(guard);
    for h in handles {
        let _ = h.join();
    }
    let _ = root.join();
    *RT.state.lock().unwrap_or_else(|e| e.into_inner()) = None;
    match panic_msg {
        Some(msg) => Err((msg, path)),
        None => Ok(path),
    }
}

/// Advances `path` to the next unexplored schedule within the preemption
/// bound (standard DFS backtracking). Returns `false` when the space is
/// exhausted.
fn next_schedule(path: &mut Vec<Decision>, bound: usize) -> bool {
    for k in (0..path.len()).rev() {
        let d = &path[k];
        for idx in d.index + 1..d.enabled.len() {
            let preemptive = match d.prev_active {
                Some(p) => p != d.enabled[idx] && d.enabled.contains(&p),
                None => false,
            };
            let delta = usize::from(preemptive);
            if d.preempts_before + delta <= bound {
                path.truncate(k + 1);
                path[k].index = idx;
                return true;
            }
        }
    }
    false
}
