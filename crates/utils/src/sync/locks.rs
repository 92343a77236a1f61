//! The poison-free lock wrappers behind [`crate::sync`] in a normal build:
//! `std::sync`'s `Mutex` / `RwLock` / `Condvar` in the API shape the
//! `saga-loom` model implements on the other side of the facade (no
//! poisoning — a panicking holder leaves the data as it was — and
//! `Condvar::wait(&mut guard)`).
//!
//! In a debug build every lock also carries its class (its construction
//! site) and every guard its entry on the thread's held stack, which is how
//! the lock-order checker ([`super::lockdep`]) sees each acquisition. A
//! release build has neither field and no caller argument.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

#[cfg(debug_assertions)]
use super::lockdep::{Class, Held};
#[cfg(debug_assertions)]
use std::panic::Location;

/// A mutual-exclusion lock without poisoning.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: Class,
    inner: sync::Mutex<T>,
}

/// Guard of a locked [`Mutex`]. The inner guard is `None` only while a
/// [`Condvar::wait`] has handed it to the standard library.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    held: Held,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            class: Class::lock(Location::caller()),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns its value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = Held::acquire(self.class);
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(debug_assertions)]
            held,
        }
    }

    /// Takes the lock if it is free.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            guard: Some(guard),
            #[cfg(debug_assertions)]
            held: Held::push(self.class),
        })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard is present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard is present outside Condvar::wait")
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Releases the guard's lock, blocks until notified, and re-locks.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard is present outside Condvar::wait");
        #[cfg(debug_assertions)]
        guard.held.suspend();
        guard.guard = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
        #[cfg(debug_assertions)]
        guard.held.resume();
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: Class,
    inner: sync::RwLock<T>,
}

/// Shared guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: Held,
}

/// Exclusive guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: Held,
}

/// Shared guards of a run of locks of one class, taken in order by
/// [`read_all`].
#[derive(Debug)]
pub struct ReadGuards<'a, T> {
    guards: Vec<sync::RwLockReadGuard<'a, T>>,
    #[cfg(debug_assertions)]
    _held: Option<Held>,
}

impl<T> RwLock<T> {
    /// A new unlocked lock holding `value`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            class: Class::lock(Location::caller()),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock and returns its value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let _held = Held::acquire(self.class);
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Blocks until exclusive access is held.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let _held = Held::acquire(self.class);
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared access to every lock of `locks`, taken in iteration order: the
/// one way to hold several locks of one class (a structure's chunks, for a
/// read phase). The checker holds their class once, for the whole run.
#[cfg_attr(debug_assertions, track_caller)]
pub fn read_all<'a, T: 'a>(locks: impl IntoIterator<Item = &'a RwLock<T>>) -> ReadGuards<'a, T> {
    let locks = locks.into_iter();
    #[cfg(debug_assertions)]
    let (class, locks) = {
        let mut locks = locks.peekable();
        (locks.peek().map(|first| first.class), locks)
    };
    // Not `class.map(Held::acquire)`: only a direct call keeps the caller's
    // location for the checker's message.
    #[cfg(debug_assertions)]
    #[allow(clippy::manual_map)]
    let _held = match class {
        Some(class) => Some(Held::acquire(class)),
        None => None,
    };
    let guards = locks
        .map(|lock| {
            #[cfg(debug_assertions)]
            assert_eq!(Some(lock.class), class, "read_all takes locks of one class");
            lock.inner.read().unwrap_or_else(PoisonError::into_inner)
        })
        .collect();
    ReadGuards {
        guards,
        #[cfg(debug_assertions)]
        _held,
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<'a, T> Deref for ReadGuards<'a, T> {
    type Target = [sync::RwLockReadGuard<'a, T>];
    fn deref(&self) -> &Self::Target {
        &self.guards
    }
}
