//! A shared slot whose every access is checked against happens-before.

use crate::rt;
use std::cell::UnsafeCell;

/// A slot of data published through *other* synchronization — a Release
/// store, a lock, a spawn or a join — such as the payload behind a length
/// or a link, stored plainly or with Relaxed atomics.
///
/// Each access is one scheduling point. A read fails the model unless the
/// slot's last write happens-before it: on a weakly ordered machine an
/// unordered read could return an older value, which sequentially
/// consistent exploration would never show. A write fails unless the last
/// write happens-before it.
#[derive(Debug)]
pub struct CausalCell<T> {
    value: UnsafeCell<T>,
    /// `(thread, step)` of the last write; `(0, 0)` for the initial value.
    written: UnsafeCell<(usize, u64)>,
}

// SAFETY: every access to the cells happens inside `rt::shared_op`, under
// the scheduler baton, so no two threads ever touch them at once.
unsafe impl<T: Send> Sync for CausalCell<T> {}

impl<T: Copy> CausalCell<T> {
    /// A slot holding `value`, readable by every thread.
    pub const fn new(value: T) -> Self {
        Self {
            value: UnsafeCell::new(value),
            written: UnsafeCell::new((0, 0)),
        }
    }

    /// Reads the value; fails the model if its write is not ordered before
    /// this read.
    pub fn get(&self) -> T {
        self.access(None)
    }

    /// Writes `value`; fails the model if the previous write is not ordered
    /// before this one.
    pub fn set(&self, value: T) {
        self.access(Some(value));
    }

    /// One checked access: a write of `new`, or a read.
    fn access(&self, new: Option<T>) -> T {
        rt::shared_op(|now| {
            // SAFETY: under the scheduler baton (`shared_op`), so these are
            // the only live accesses to the cells.
            let (value, written) = unsafe { (&mut *self.value.get(), &mut *self.written.get()) };
            if let Some(now) = now {
                let (writer, step) = *written;
                let what = if new.is_some() { "wrote over" } else { "read" };
                assert!(
                    now.clock.get(writer) >= step,
                    "CausalCell: thread {} {what} an unpublished value (thread {writer}'s \
                     write does not happen-before it)",
                    now.tid
                );
                if new.is_some() {
                    *written = (now.tid, now.clock.get(now.tid));
                }
            }
            if let Some(new) = new {
                *value = new;
            }
            *value
        })
    }
}
