//! Modeled thread spawn/join.
//!
//! Spawned threads are real OS threads, but they only execute while holding
//! the scheduler baton, so the model explores their interleavings
//! deterministically.

use crate::rt;
use std::sync::{Arc, Mutex as StdMutex};

/// Handle to a modeled thread; join is a scheduling point enabled once the
/// thread has finished.
#[derive(Debug)]
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Waits (schedule-wise) for the thread to finish and returns its
    /// result.
    ///
    /// # Errors
    ///
    /// Mirrors `std::thread::JoinHandle::join`'s signature. A panicking
    /// modeled thread aborts the whole model iteration before `join`
    /// returns, so in practice the error case is unreachable.
    pub fn join(self) -> Result<T, Box<dyn std::any::Any + Send + 'static>> {
        rt::join(self.tid);
        let result = self
            .result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match result {
            Some(v) => Ok(v),
            None => Err(Box::new("modeled thread produced no result")
                as Box<dyn std::any::Any + Send + 'static>),
        }
    }
}

/// Spawns a modeled thread running `f`. Must be called from inside
/// [`crate::model`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let result = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let tid = rt::spawn(Box::new(move || {
        let value = f();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
    }));
    JoinHandle { tid, result }
}

/// A scheduling point with no shared-memory effect; lets the explorer
/// switch threads at a program point of the model's choosing.
pub fn yield_now() {
    rt::shared_op(|_| ());
}
