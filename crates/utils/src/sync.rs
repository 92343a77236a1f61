//! The suite's synchronization facade: `std::sync` primitives (the locks
//! behind poison-free wrappers) normally, [`saga_loom`]'s model-checked
//! versions under `--cfg loom`.
//!
//! Every crate in the workspace imports its atomics, locks, condvars, and
//! thread-spawning through this module instead of `std::sync` directly
//! (enforced by `cargo xtask lint`). In a normal build the atomics are
//! the standard library's and the locks are thin wrappers over its
//! `Mutex` / `RwLock` / `Condvar` with one API shape on both sides of the
//! facade: no poisoning (a panicking holder leaves the data as it was)
//! and `Condvar::wait(&mut guard)`. A debug build's locks also carry
//! lock classes, and every blocking acquire is checked against the lock
//! order recorded so far (`lockdep.rs`, DESIGN.md §7b). Under `RUSTFLAGS="--cfg
//! loom"` they swap to the [`saga_loom`] model checker's instrumented
//! types, so the concurrency protocols built on top of them — the
//! [`crate::parallel::ThreadPool`] dispatch/shutdown protocol, the
//! [`crate::bitvec::AtomicBitVec`] publication CAS, the
//! [`crate::partition::Partitioner`] scatter cursors, Stinger's block
//! chains — can be exhaustively model-checked over thread interleavings
//! (see `crates/utils/tests/loom.rs`, `crates/graph/tests/loom.rs` and
//! DESIGN.md §7b).

/// Atomic integer and bool types plus [`atomic::Ordering`].
///
/// `std::sync::atomic` normally; `saga_loom`'s modeled atomics under
/// `--cfg loom` (every operation becomes a scheduling point).
#[cfg(not(loom))]
pub use std::sync::atomic;

#[cfg(loom)]
pub use saga_loom::sync::atomic;

#[cfg(not(loom))]
pub use locks::{
    read_all, Condvar, Mutex, MutexGuard, ReadGuards, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(loom)]
pub use saga_loom::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Shared access to every lock of `locks`, taken in iteration order (the
/// model has no lock classes to hold once).
#[cfg(loom)]
pub fn read_all<'a, T: 'a>(
    locks: impl IntoIterator<Item = &'a RwLock<T>>,
) -> Vec<RwLockReadGuard<'a, T>> {
    locks.into_iter().map(RwLock::read).collect()
}

/// A cell initialised at most once (Stinger's arena segments): `std`'s
/// normally; under `--cfg loom` the same `std` cell behind a modeled
/// initialisation lock and ready flag, so racing initialisers are explored
/// and a reader is ordered after the initialiser (sound without `unsafe`;
/// the argument is on `saga_loom::sync::OnceLock`).
#[cfg(not(loom))]
pub use std::sync::OnceLock;

#[cfg(loom)]
pub use saga_loom::sync::OnceLock;

pub use std::sync::Arc;

/// The poison-free lock wrappers of a normal build.
#[cfg(not(loom))]
mod locks;

/// The debug build's lock-order checker.
#[cfg(all(debug_assertions, not(loom)))]
pub(crate) mod lockdep;

/// Thread creation and introspection behind the facade.
///
/// Only [`crate::parallel`] may spawn threads (enforced by
/// `cargo xtask lint`); everything else receives parallelism through a
/// [`crate::parallel::ThreadPool`].
pub mod thread {
    /// Handle to a facade-spawned thread.
    #[cfg(not(loom))]
    pub type JoinHandle = std::thread::JoinHandle<()>;

    /// Handle to a facade-spawned thread.
    #[cfg(loom)]
    pub type JoinHandle = saga_loom::thread::JoinHandle<()>;

    /// Spawns a named thread. The name shows up in panic messages and
    /// debuggers (and is ignored under the loom model, where threads are
    /// numbered by spawn order).
    #[cfg(not(loom))]
    pub fn spawn_named<F>(name: String, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("failed to spawn worker thread")
    }

    /// Spawns a named thread (modeled; the name is ignored).
    #[cfg(loom)]
    pub fn spawn_named<F>(_name: String, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        saga_loom::thread::spawn(f)
    }

    /// The machine's available parallelism (fixed at 2 under the loom
    /// model, which explores small thread counts exhaustively).
    #[cfg(not(loom))]
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The model's thread count (2): loom checks small configurations
    /// exhaustively rather than large ones at random.
    #[cfg(loom)]
    pub fn available_parallelism() -> usize {
        2
    }
}
