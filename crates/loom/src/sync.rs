//! Modeled synchronization primitives: poison-free [`Mutex`] and
//! [`Condvar`], plus [`atomic`] integer types.
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
/// `Ordering` arguments are accepted for API compatibility and ignored:
/// exploration is sequentially consistent (see the crate docs for why that
/// is an intentional trade-off).
pub mod atomic {
    use super::rt;
    use std::cell::UnsafeCell;

    pub use std::sync::atomic::Ordering;

    macro_rules! int_atomic {
        ($name:ident, $ty:ty) => {
            /// Modeled counterpart of the std atomic of the same name;
            /// every operation is one scheduling point.
            #[derive(Debug, Default)]
            pub struct $name {
                value: UnsafeCell<$ty>,
            }

            // SAFETY: the model scheduler guarantees at most one managed
            // thread runs between scheduling points, and every access to
            // `value` happens inside `rt::shared_op`, i.e. while holding
            // the baton — so there is never a concurrent access.
            unsafe impl Sync for $name {}
            // SAFETY: `$ty` is a plain integer; moving the cell between
            // threads is trivially sound.
            unsafe impl Send for $name {}

            impl $name {
                /// Creates a new modeled atomic with the given value.
                pub const fn new(value: $ty) -> Self {
                    Self {
                        value: UnsafeCell::new(value),
                    }
                }

                fn with<R>(&self, f: impl FnOnce(&mut $ty) -> R) -> R {
                    rt::shared_op(|| {
                        // SAFETY: executed under the scheduler baton
                        // (`shared_op`), so this is the only live access.
                        f(unsafe { &mut *self.value.get() })
                    })
                }

                /// Loads the value (one scheduling point).
                pub fn load(&self, _order: Ordering) -> $ty {
                    self.with(|v| *v)
                }

                /// Stores `value` (one scheduling point).
                pub fn store(&self, value: $ty, _order: Ordering) {
                    self.with(|v| *v = value);
                }

                /// Swaps in `value`, returning the previous value.
                pub fn swap(&self, value: $ty, _order: Ordering) -> $ty {
                    self.with(|v| std::mem::replace(v, value))
                }

                /// Compare-and-exchange; the whole CAS is one scheduling
                /// point, matching hardware atomicity.
                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.with(|v| {
                        if *v == current {
                            *v = new;
                            Ok(current)
                        } else {
                            Err(*v)
                        }
                    })
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
                pub fn fetch_add(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.wrapping_add(rhs);
                        prev
                    })
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.wrapping_sub(rhs);
                        prev
                    })
                }

                /// Atomic bitwise OR, returning the previous value.
                pub fn fetch_or(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev | rhs;
                        prev
                    })
                }

                /// Atomic bitwise AND, returning the previous value.
                pub fn fetch_and(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev & rhs;
                        prev
                    })
                }

                /// Atomic bitwise XOR, returning the previous value.
                pub fn fetch_xor(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev ^ rhs;
                        prev
                    })
                }

                /// Atomic maximum, returning the previous value.
                pub fn fetch_max(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.max(rhs);
                        prev
                    })
                }

                /// Atomic minimum, returning the previous value.
                pub fn fetch_min(&self, rhs: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.min(rhs);
                        prev
                    })
                }

                /// Non-atomic read through exclusive access (no scheduling
                /// point; `&mut self` proves no sharing).
                pub fn get_mut(&mut self) -> &mut $ty {
                    self.value.get_mut()
                }

                /// Consumes the atomic, returning the value.
                pub fn into_inner(self) -> $ty {
                    self.value.into_inner()
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
    pub struct AtomicBool {
        value: UnsafeCell<bool>,
    }

    // SAFETY: same argument as the integer atomics — all accesses happen
    // under the scheduler baton inside `rt::shared_op`.
    unsafe impl Sync for AtomicBool {}
    // SAFETY: `bool` is plain data; sending the cell is sound.
    unsafe impl Send for AtomicBool {}

    impl AtomicBool {
        /// Creates a new modeled atomic bool.
        pub const fn new(value: bool) -> Self {
            Self {
                value: UnsafeCell::new(value),
            }
        }

        fn with<R>(&self, f: impl FnOnce(&mut bool) -> R) -> R {
            rt::shared_op(|| {
                // SAFETY: executed under the scheduler baton, so this is
                // the only live access.
                f(unsafe { &mut *self.value.get() })
            })
        }

        /// Loads the value (one scheduling point).
        pub fn load(&self, _order: Ordering) -> bool {
            self.with(|v| *v)
        }

        /// Stores `value` (one scheduling point).
        pub fn store(&self, value: bool, _order: Ordering) {
            self.with(|v| *v = value);
        }

        /// Swaps in `value`, returning the previous value.
        pub fn swap(&self, value: bool, _order: Ordering) -> bool {
            self.with(|v| std::mem::replace(v, value))
        }

        /// Compare-and-exchange as one scheduling point.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            _success: Ordering,
            _failure: Ordering,
        ) -> Result<bool, bool> {
            self.with(|v| {
                if *v == current {
                    *v = new;
                    Ok(current)
                } else {
                    Err(*v)
                }
            })
        }

        /// Atomic OR, returning the previous value.
        pub fn fetch_or(&self, rhs: bool, _order: Ordering) -> bool {
            self.with(|v| {
                let prev = *v;
                *v = prev | rhs;
                prev
            })
        }

        /// Atomic AND, returning the previous value.
        pub fn fetch_and(&self, rhs: bool, _order: Ordering) -> bool {
            self.with(|v| {
                let prev = *v;
                *v = prev & rhs;
                prev
            })
        }
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
