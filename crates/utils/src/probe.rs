//! Per-thread memory-access tracing.
//!
//! The paper characterizes the architecture behaviour of streaming graph
//! analytics with Intel Processor Counter Monitor on a dual-socket Xeon.
//! This suite has no PCM, so the graph data structures and compute engines
//! report every significant memory access through the hooks in this module;
//! `saga-perf` then replays the collected trace through a model of the
//! paper's cache hierarchy.
//!
//! A thread records only while it is [`attach`]ed to a [`Recorder`], so
//! the software-level experiments (Tables III/IV, Figs. 6–8) run untraced
//! while the architecture-level ones (Figs. 9b–10) trace their phases. On
//! a thread that is not attached every hook is one load of a thread-local
//! flag; it is no atomic, so `--cfg loom` models do not schedule on it.
//!
//! Like PCM, which charges each access to the hardware thread that issued
//! it, an attached thread buffers its accesses and counts its accesses,
//! instructions and lock cycles locally. It flushes full buffers to its
//! recorder as [`TraceBlock`]s tagged with the worker index it was
//! attached under, and merges its counts at [`detach`]. Recorders do not
//! see each other: two traced phases on two pools may overlap.
//!
//! # Examples
//!
//! ```
//! use saga_utils::probe::{self, Recorder};
//!
//! let recorder = Recorder::default();
//! probe::attach(&recorder, 0);
//! let data = vec![1u64, 2, 3, 4];
//! probe::slice_read(&data);
//! probe::detach();
//! let trace = recorder.finish();
//! assert_eq!(trace.total_accesses, 1);
//! ```

use crate::sync::{Arc, Mutex};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// One traced memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Starting byte address of the access.
    pub addr: u64,
    /// Length of the access in bytes.
    pub len: u32,
    /// `true` for stores, `false` for loads.
    pub write: bool,
}

/// A flushed buffer of accesses from one thread.
#[derive(Debug)]
pub struct TraceBlock {
    /// Worker index the producing thread was attached under (the pool
    /// worker index; 0 is the thread that dispatches the pool's work).
    pub thread: usize,
    /// The accesses, in program order within the thread.
    pub accesses: Vec<MemAccess>,
}

/// Everything one [`Recorder`] collected.
#[derive(Debug, Default)]
pub struct Trace {
    /// Flushed access blocks in flush order, which approximates the real
    /// cross-thread interleaving.
    pub blocks: Vec<TraceBlock>,
    /// Retired-instruction estimate (one per traced access plus any counts
    /// reported through [`instructions`]).
    pub instructions: u64,
    /// Total accesses *observed*, including ones dropped past the budget.
    pub total_accesses: u64,
    /// Accesses not recorded because the trace budget was exhausted.
    pub dropped: u64,
    /// Cycles spent inside critical sections, keyed by lock id (see
    /// [`critical`]). Work under the same lock cannot overlap, so the
    /// maximum entry lower-bounds the phase's execution time regardless of
    /// thread count — the thread-contention term of Fig. 9a.
    pub lock_cycles: HashMap<u64, u64>,
}

impl Trace {
    /// Highest thread index present plus one, i.e. the number of distinct
    /// hardware contexts to model.
    pub fn thread_count(&self) -> usize {
        self.blocks.iter().map(|b| b.thread + 1).max().unwrap_or(0)
    }
}

const FLUSH_THRESHOLD: usize = 1 << 14;

/// Accesses one recorder keeps before further ones are counted but
/// dropped. Protects memory on very large runs; the simulator reports
/// ratios, which remain meaningful on the recorded prefix.
const BUDGET: u64 = 16_000_000;

/// The sink of one traced phase. Clones share it; the threads [`attach`]ed
/// to it flush into it, and [`Recorder::finish`] returns the [`Trace`].
#[derive(Debug, Clone)]
pub struct Recorder(Arc<Mutex<Collected>>);

#[derive(Debug)]
struct Collected {
    trace: Trace,
    /// Accesses the budget still admits.
    room: u64,
}

impl Default for Recorder {
    /// An empty recorder with the default access budget.
    fn default() -> Self {
        Self::with_budget(BUDGET)
    }
}

impl Recorder {
    /// An empty recorder that keeps at most `budget` accesses.
    pub(crate) fn with_budget(budget: u64) -> Self {
        Self(Arc::new(Mutex::new(Collected { trace: Trace::default(), room: budget })))
    }

    /// Takes what the detached threads delivered. Call after every thread
    /// attached to this recorder has [`detach`]ed.
    pub fn finish(self) -> Trace {
        let mut trace = std::mem::take(&mut self.0.lock().trace);
        let recorded: u64 = trace.blocks.iter().map(|b| b.accesses.len() as u64).sum();
        trace.dropped = trace.total_accesses - recorded;
        trace
    }
}

/// What an attached thread tallies before it merges into its recorder.
struct Attached {
    recorder: Recorder,
    worker: usize,
    buffer: Vec<MemAccess>,
    accesses: u64,
    /// Counts from [`instructions`]; each access adds one more at merge.
    instructions: u64,
    lock_cycles: HashMap<u64, u64>,
    /// The recorder's budget ran out at this thread's last flush.
    full: bool,
}

impl Attached {
    #[inline]
    fn record(&mut self, access: MemAccess) {
        self.accesses += 1;
        if self.full {
            return;
        }
        self.buffer.push(access);
        if self.buffer.len() >= FLUSH_THRESHOLD {
            let recorder = self.recorder.clone();
            self.flush(&mut recorder.0.lock());
        }
    }

    /// Hands the buffer to the recorder, truncated to the budget's room.
    fn flush(&mut self, into: &mut Collected) {
        let keep = (self.buffer.len() as u64).min(into.room);
        into.room -= keep;
        self.full = into.room == 0;
        self.buffer.truncate(keep as usize);
        if keep > 0 {
            let accesses = std::mem::take(&mut self.buffer);
            into.trace.blocks.push(TraceBlock { thread: self.worker, accesses });
        }
    }
}

thread_local! {
    /// `ATTACHED.is_some()`, kept apart so the hooks' gate is one load.
    static ON: Cell<bool> = const { Cell::new(false) };
    static ATTACHED: RefCell<Option<Attached>> = const { RefCell::new(None) };
}

/// Starts recording the calling thread's accesses into `recorder`, tagged
/// with `worker`.
///
/// # Panics
///
/// Panics if the thread is already attached.
pub fn attach(recorder: &Recorder, worker: usize) {
    ATTACHED.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(slot.is_none(), "probe: thread already attached to a recorder");
        *slot = Some(Attached {
            recorder: recorder.clone(),
            worker,
            buffer: Vec::new(),
            accesses: 0,
            instructions: 0,
            lock_cycles: HashMap::new(),
            full: false,
        });
    });
    ON.set(true);
}

/// Stops recording on the calling thread and merges its buffer and counts
/// into its recorder. A no-op on a thread that is not attached.
pub fn detach() {
    ON.set(false);
    let Some(mut local) = ATTACHED.take() else { return };
    let recorder = local.recorder.clone();
    let mut into = recorder.0.lock();
    local.flush(&mut into);
    let trace = &mut into.trace;
    trace.total_accesses += local.accesses;
    trace.instructions += local.accesses + local.instructions;
    for (lock, cycles) in local.lock_cycles {
        *trace.lock_cycles.entry(lock).or_insert(0) += cycles;
    }
}

/// Whether the calling thread is attached to a recorder.
#[inline]
pub fn is_enabled() -> bool {
    ON.get()
}

/// Every hook's path: `f` runs on the calling thread's tallies if it is
/// attached, and a detached thread pays one thread-local load.
#[inline]
fn with_attached(f: impl FnOnce(&mut Attached)) {
    if is_enabled() {
        ATTACHED.with(|slot| {
            if let Some(local) = slot.borrow_mut().as_mut() {
                f(local);
            }
        });
    }
}

#[inline]
fn record(addr: u64, len: usize, write: bool) {
    with_attached(|local| local.record(MemAccess { addr, len: len as u32, write }));
}

/// Records a load of `count` elements of `T` starting at `ptr`.
#[inline]
pub fn read<T>(ptr: *const T, count: usize) {
    record(ptr as u64, count * std::mem::size_of::<T>(), false);
}

/// Records a store of `count` elements of `T` starting at `ptr`.
#[inline]
pub fn write<T>(ptr: *const T, count: usize) {
    record(ptr as u64, count * std::mem::size_of::<T>(), true);
}

/// Records a load of an entire slice.
#[inline]
pub fn slice_read<T>(slice: &[T]) {
    if !slice.is_empty() {
        record(slice.as_ptr() as u64, std::mem::size_of_val(slice), false);
    }
}

/// Records a load of a single value.
#[inline]
pub fn value_read<T>(value: &T) {
    record(value as *const T as u64, std::mem::size_of::<T>(), false);
}

/// Records a store to a single value.
#[inline]
pub fn value_write<T>(value: &T) {
    record(value as *const T as u64, std::mem::size_of::<T>(), true);
}

/// Adds `n` to the retired-instruction estimate (for non-memory work such
/// as hashing or comparisons).
#[inline]
pub fn instructions(n: u64) {
    with_attached(|local| local.instructions += n);
}

/// Reports `cycles` of work performed while holding the lock identified by
/// `lock_id`. Such work serializes across threads, so the per-lock totals
/// bound achievable speedup — the mechanism behind the update phase's poor
/// core scaling on shared-style structures (§VI-B thread contention).
#[inline]
pub fn critical(lock_id: u64, cycles: u64) {
    with_attached(|local| *local.lock_cycles.entry(lock_id).or_insert(0) += cycles);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body` attached to a fresh recorder of `budget` accesses.
    fn traced_with(budget: u64, body: impl FnOnce()) -> Trace {
        let recorder = Recorder::with_budget(budget);
        attach(&recorder, 0);
        body();
        detach();
        recorder.finish()
    }

    fn traced(body: impl FnOnce()) -> Trace {
        traced_with(BUDGET, body)
    }

    #[test]
    fn detached_probe_records_nothing() {
        let recorder = Recorder::default();
        read(&0u64 as *const u64, 1);
        critical(1, 100);
        instructions(5);
        assert!(!is_enabled());
        let trace = recorder.finish();
        assert_eq!(trace.total_accesses, 0);
        assert_eq!(trace.instructions, 0);
        assert!(trace.blocks.is_empty());
        assert!(trace.lock_cycles.is_empty());
    }

    #[test]
    fn attached_probe_records_reads_and_writes() {
        let x = 5u32;
        let trace = traced(|| {
            value_read(&x);
            value_write(&x);
        });
        assert!(!is_enabled());
        assert_eq!(trace.total_accesses, 2);
        let all: Vec<_> = trace.blocks.iter().flat_map(|b| b.accesses.iter()).collect();
        assert_eq!(all.len(), 2);
        assert!(!all[0].write);
        assert!(all[1].write);
        assert_eq!(all[0].addr, &x as *const u32 as u64);
        assert_eq!(all[0].len, 4);
    }

    #[test]
    fn budget_drops_excess_accesses() {
        let x = 0u8;
        let trace = traced_with(10, || {
            for _ in 0..25 {
                value_read(&x);
            }
        });
        assert_eq!(trace.total_accesses, 25);
        assert_eq!(trace.dropped, 15);
        let recorded: usize = trace.blocks.iter().map(|b| b.accesses.len()).sum();
        assert_eq!(recorded, 10);
    }

    #[test]
    fn instructions_counter_accumulates() {
        let x = 1u64;
        let trace = traced(|| {
            instructions(100);
            value_read(&x); // +1 instruction
        });
        assert_eq!(trace.instructions, 101);
    }

    #[test]
    fn critical_sections_accumulate_per_lock() {
        let trace = traced(|| {
            critical(7, 10);
            critical(7, 5);
            critical(9, 3);
        });
        assert_eq!(trace.lock_cycles.get(&7), Some(&15));
        assert_eq!(trace.lock_cycles.get(&9), Some(&3));
        // A new recorder starts empty.
        assert!(traced(|| {}).lock_cycles.is_empty());
    }

    #[test]
    fn slice_read_len_covers_whole_slice() {
        let data = [0u64; 8];
        let trace = traced(|| slice_read(&data));
        let all: Vec<_> = trace.blocks.iter().flat_map(|b| b.accesses.iter()).collect();
        assert_eq!(all[0].len, 64);
    }

    #[test]
    fn blocks_carry_the_attached_worker_index() {
        let recorder = Recorder::default();
        attach(&recorder, 3);
        value_read(&0u8);
        detach();
        detach(); // a second detach is a no-op
        let trace = recorder.finish();
        assert_eq!(trace.blocks.len(), 1);
        assert_eq!(trace.blocks[0].thread, 3);
        assert_eq!(trace.thread_count(), 4);
    }
}
