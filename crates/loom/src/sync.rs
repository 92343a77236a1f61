//! Modeled synchronization primitives: poison-free [`Mutex`] and
//! [`Condvar`], [`RwLock`], [`OnceLock`], plus [`atomic`] integer types.
//!
//! All of these are plain data guarded by the scheduler baton: at most one
//! managed thread executes between scheduling points, so the interior
//! `UnsafeCell`s are never accessed concurrently. Each access *is* a
//! scheduling point, which is what lets the explorer interleave them.

use crate::rt;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

pub use std::sync::Arc;

/// Modeled atomics with the `std::sync::atomic` surface the suite uses.
///
/// Values are sequentially consistent: a load returns the latest store in
/// the schedule, whatever its `Ordering` (see the crate docs for why that is
/// an intentional trade-off). Orderings still decide *happens-before*: a
/// Release-side store (or RMW) publishes the storing thread's clock with the
/// value, an Acquire-side load (or RMW) that reads it joins that clock, and
/// a Relaxed store publishes nothing — which is what a
/// [`CausalCell`](crate::cell::CausalCell) read behind the atomic checks.
pub mod atomic {
    use super::rt::{self, Now, VClock};
    use std::cell::UnsafeCell;

    pub use std::sync::atomic::Ordering;

    fn acquires(order: Ordering) -> bool {
        matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn releases(order: Ordering) -> bool {
        matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    /// One modeled atomic location: its value and the clock its last
    /// Release-side store (extended by the RMWs after it) published.
    #[derive(Debug, Default)]
    struct Location<T> {
        value: UnsafeCell<T>,
        published: UnsafeCell<VClock>,
    }

    // SAFETY: the model scheduler guarantees at most one managed thread
    // runs between scheduling points, and every access to the cells happens
    // inside `rt::shared_op`, i.e. while holding the baton — so there is
    // never a concurrent access.
    unsafe impl<T: Send> Sync for Location<T> {}

    impl<T: Copy> Location<T> {
        const fn new(value: T) -> Self {
            Self {
                value: UnsafeCell::new(value),
                published: UnsafeCell::new(VClock::new()),
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut T, &mut VClock, Option<Now<'_>>) -> R) -> R {
            rt::shared_op(|now| {
                // SAFETY: executed under the scheduler baton (`shared_op`),
                // so these are the only live accesses to either cell.
                let (value, published) = unsafe { (&mut *self.value.get(), &mut *self.published.get()) };
                f(value, published, now)
            })
        }

        fn load(&self, order: Ordering) -> T {
            self.with(|value, published, now| {
                if let Some(now) = now.filter(|_| acquires(order)) {
                    now.clock.join(published);
                }
                *value
            })
        }

        fn store(&self, new: T, order: Ordering) {
            self.with(|value, published, now| {
                *value = new;
                *published = match now {
                    Some(now) if releases(order) => now.clock.clone(),
                    _ => VClock::new(),
                };
            })
        }

        /// A read-modify-write: `f` maps the old value to the new one (or
        /// to `None`, a failed compare-exchange that only loads, with
        /// `failure` ordering) and the result is the old value.
        fn rmw(
            &self,
            order: Ordering,
            failure: Ordering,
            f: impl FnOnce(T) -> Option<T>,
        ) -> Result<T, T> {
            self.with(|value, published, now| {
                let old = *value;
                let new = f(old);
                let order = if new.is_some() { order } else { failure };
                if let Some(now) = now {
                    if acquires(order) {
                        now.clock.join(published);
                    }
                    // An RMW continues the release sequence it read from.
                    if new.is_some() && releases(order) {
                        published.join(now.clock);
                    }
                }
                match new {
                    Some(new) => {
                        *value = new;
                        Ok(old)
                    }
                    None => Err(old),
                }
            })
        }

        fn update(&self, order: Ordering, f: impl FnOnce(T) -> T) -> T {
            match self.rmw(order, order, |old| Some(f(old))) {
                Ok(old) | Err(old) => old,
            }
        }
    }

    macro_rules! int_atomic {
        ($name:ident, $ty:ty) => {
            /// Modeled counterpart of the std atomic of the same name;
            /// every operation is one scheduling point.
            #[derive(Debug, Default)]
            pub struct $name(Location<$ty>);

            impl $name {
                /// Creates a new modeled atomic with the given value.
                pub const fn new(value: $ty) -> Self {
                    Self(Location::new(value))
                }

                /// Loads the value (one scheduling point).
                pub fn load(&self, order: Ordering) -> $ty {
                    self.0.load(order)
                }

                /// Stores `value` (one scheduling point).
                pub fn store(&self, value: $ty, order: Ordering) {
                    self.0.store(value, order)
                }

                /// Swaps in `value`, returning the previous value.
                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |_| value)
                }

                /// Compare-and-exchange; the whole CAS is one scheduling
                /// point, matching hardware atomicity.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.0.rmw(success, failure, |old| (old == current).then_some(new))
                }

                /// Like [`compare_exchange`](Self::compare_exchange);
                /// spurious failures are not modeled.
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.compare_exchange(current, new, success, failure)
                }

                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v.wrapping_add(rhs))
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v.wrapping_sub(rhs))
                }

                /// Atomic bitwise OR, returning the previous value.
                pub fn fetch_or(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v | rhs)
                }

                /// Atomic bitwise AND, returning the previous value.
                pub fn fetch_and(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v & rhs)
                }

                /// Atomic bitwise XOR, returning the previous value.
                pub fn fetch_xor(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v ^ rhs)
                }

                /// Atomic maximum, returning the previous value.
                pub fn fetch_max(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v.max(rhs))
                }

                /// Atomic minimum, returning the previous value.
                pub fn fetch_min(&self, rhs: $ty, order: Ordering) -> $ty {
                    self.0.update(order, |v| v.min(rhs))
                }

                /// Non-atomic read through exclusive access (no scheduling
                /// point; `&mut self` proves no sharing).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.0.value.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.0.value.into_inner()
                }
            }
        };
    }

    int_atomic!(AtomicUsize, usize);
    int_atomic!(AtomicU64, u64);
    int_atomic!(AtomicU32, u32);
    int_atomic!(AtomicU8, u8);
    int_atomic!(AtomicI64, i64);

    /// Modeled `AtomicBool`; every operation is one scheduling point.
    #[derive(Debug, Default)]
    pub struct AtomicBool(Location<bool>);

    impl AtomicBool {
        /// Creates a new modeled atomic bool.
        pub const fn new(value: bool) -> Self {
            Self(Location::new(value))
        }

        /// Loads the value (one scheduling point).
        pub fn load(&self, order: Ordering) -> bool {
            self.0.load(order)
        }

        /// Stores `value` (one scheduling point).
        pub fn store(&self, value: bool, order: Ordering) {
            self.0.store(value, order)
        }

        /// Swaps in `value`, returning the previous value.
        pub fn swap(&self, value: bool, order: Ordering) -> bool {
            self.0.update(order, |_| value)
        }

        /// Compare-and-exchange as one scheduling point.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.0.rmw(success, failure, |old| (old == current).then_some(new))
        }

        /// Atomic OR, returning the previous value.
        pub fn fetch_or(&self, rhs: bool, order: Ordering) -> bool {
            self.0.update(order, |v| v | rhs)
        }

        /// Atomic AND, returning the previous value.
        pub fn fetch_and(&self, rhs: bool, order: Ordering) -> bool {
            self.0.update(order, |v| v & rhs)
        }
    }
}

/// A modeled `std::sync::OnceLock`: the standard cell behind a modeled
/// initialisation lock and a modeled ready flag.
///
/// Sound without `unsafe`: the value lives in a real `std` `OnceLock`, which
/// is memory-safe on its own. The model adds two things. Initialisers
/// serialize on a modeled [`Mutex`] *before* they reach the `std` cell, so
/// a racing `get_or_init` parks at a scheduling point instead of blocking
/// its OS thread inside `std` while it holds the baton (which would hang
/// the model). And `get` answers from a modeled flag stored with Release
/// after the value is in place, so a reader that sees the value is ordered
/// after its initialiser, and every first read is a scheduling point.
#[derive(Debug, Default)]
pub struct OnceLock<T> {
    cell: std::sync::OnceLock<T>,
    init: Mutex<()>,
    ready: atomic::AtomicBool,
}

impl<T> OnceLock<T> {
    /// An uninitialised cell.
    pub const fn new() -> Self {
        Self {
            cell: std::sync::OnceLock::new(),
            init: Mutex::new(()),
            ready: atomic::AtomicBool::new(false),
        }
    }

    /// The value, if some `get_or_init` has finished.
    pub fn get(&self) -> Option<&T> {
        if self.ready.load(atomic::Ordering::Acquire) {
            self.cell.get()
        } else {
            None
        }
    }

    /// The value, initialised by `f` if no one has yet.
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        if let Some(value) = self.get() {
            return value;
        }
        let _init = self.init.lock();
        let value = self.cell.get_or_init(f);
        self.ready.store(true, atomic::Ordering::Release);
        value
    }
}

/// A modeled mutex with the facade's API shape (no lock poisoning,
/// guard-based [`Condvar::wait`]).
///
/// Identity in the model is the object's address, so a `Mutex` created
/// inside the model closure is tracked per iteration automatically.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    data: UnsafeCell<T>,
    /// Never read: keeps the type non-zero-sized even for `Mutex<()>` so
    /// address-based identity cannot alias (see [`Condvar::_addr`]).
    _addr: u8,
}

// SAFETY: lock acquisition goes through the model scheduler, which grants
// the mutex to at most one thread at a time; `data` is only reachable
// through a held guard.
unsafe impl<T: Send> Sync for Mutex<T> {}
// SAFETY: ownership transfer of the cell is sound whenever `T: Send`.
unsafe impl<T: Send> Send for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new modeled mutex.
    pub const fn new(data: T) -> Self {
        Self {
            data: UnsafeCell::new(data),
            _addr: 0,
        }
    }

    fn key(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquires the mutex, blocking (schedule-wise) until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        rt::mutex_lock(self.key());
        MutexGuard { mutex: self }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Exclusive access without locking (`&mut self` proves no sharing).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Guard returned by [`Mutex::lock`]; releases the model lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the scheduler granted this thread the mutex and will not
        // grant it to another thread until the guard drops, so access to
        // the cell is exclusive.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`: the model lock is held for the guard's
        // lifetime, so the access is exclusive.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rt::mutex_unlock(self.mutex.key());
    }
}

/// A modeled condition variable with the facade's API shape
/// ([`wait`](Self::wait) takes the guard by `&mut`).
///
/// Spurious wakeups are not modeled; lost-wakeup bugs still surface as
/// deadlocks because a waiter with no pending notify has no enabled
/// successor.
#[derive(Debug, Default)]
pub struct Condvar {
    /// Never read: pads the type to a non-zero size so that adjacent
    /// condvars in one struct get distinct addresses (identity in the
    /// model is the object address — two ZST fields would alias).
    _addr: u8,
}

impl Condvar {
    /// Creates a new modeled condvar.
    pub const fn new() -> Self {
        Self { _addr: 0 }
    }

    fn key(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Releases the guard's mutex, blocks until notified, and reacquires
    /// the mutex before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        rt::cond_wait(self.key(), guard.mutex.key());
    }

    /// Wakes every thread blocked in [`wait`](Self::wait) on this condvar.
    pub fn notify_all(&self) {
        rt::cond_notify_all(self.key());
    }

    /// Wakes one thread (FIFO) blocked in [`wait`](Self::wait).
    pub fn notify_one(&self) {
        rt::cond_notify_one(self.key());
    }
}

/// A modeled reader-writer lock with the facade's API shape.
///
/// The model is deliberately conservative: readers serialize with each
/// other exactly like writers (both map onto the model's exclusive lock).
/// That forfeits exploration of reader-reader concurrency — which is
/// data-race-free by construction — but preserves every lock-ordering and
/// hold-across-callback interleaving, which is what the model checker is
/// for. See DESIGN.md §7.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    data: UnsafeCell<T>,
    /// Never read: keeps the type non-zero-sized so address-based
    /// identity cannot alias (see [`Mutex::_addr`]).
    _addr: u8,
}

// SAFETY: both guard flavors go through the model scheduler's exclusive
// lock, so `data` is only ever reached by the single thread holding it.
unsafe impl<T: Send> Sync for RwLock<T> {}
// SAFETY: ownership transfer of the cell is sound whenever `T: Send`.
unsafe impl<T: Send> Send for RwLock<T> {}

impl<T> RwLock<T> {
    /// Creates a new modeled reader-writer lock.
    pub const fn new(data: T) -> Self {
        Self {
            data: UnsafeCell::new(data),
            _addr: 0,
        }
    }

    fn key(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Acquires a read guard (exclusive under the model).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        rt::mutex_lock(self.key());
        RwLockReadGuard { lock: self }
    }

    /// Acquires a write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        rt::mutex_lock(self.key());
        RwLockWriteGuard { lock: self }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Exclusive access without locking (`&mut self` proves no sharing).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

/// Guard returned by [`RwLock::read`]; releases the model lock on drop.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the scheduler granted this thread the lock and will not
        // grant it again until the guard drops.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        rt::mutex_unlock(self.lock.key());
    }
}

/// Guard returned by [`RwLock::write`]; releases the model lock on drop.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: as in the read guard — the model lock is held for the
        // guard's lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: write guards hold the model's exclusive lock, so the
        // access cannot race.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        rt::mutex_unlock(self.lock.key());
    }
}
