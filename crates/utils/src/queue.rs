//! A bounded multi-producer/multi-consumer work queue.
//!
//! This is the admission-control primitive behind `saga-server`: HTTP
//! workers [`try_push`](BoundedQueue::try_push) accepted work and get an
//! immediate `Err` back when the queue is at its bound — which the server
//! surfaces as `429 Too Many Requests` backpressure instead of letting
//! queue depth grow without limit — while a consumer thread blocks in
//! [`pop`](BoundedQueue::pop) until work or shutdown arrives. Control
//! messages that must not be dropped (quiesce barriers, shutdown markers)
//! go through [`push_force`](BoundedQueue::push_force), which ignores the
//! bound but still respects [`close`](BoundedQueue::close).
//!
//! Built purely on the [`crate::sync`] facade (one mutex, one condvar), so
//! the type is loom-modelable like every other protocol in this crate.
//!
//! # Examples
//!
//! ```
//! use saga_utils::queue::BoundedQueue;
//!
//! let q: BoundedQueue<u32> = BoundedQueue::new(2);
//! assert_eq!(q.try_push(1), Ok(1));
//! assert_eq!(q.try_push(2), Ok(2));
//! assert_eq!(q.try_push(3), Err(3), "at bound: producer sees backpressure");
//! assert_eq!(q.pop(), Some(1));
//! q.close();
//! assert_eq!(q.pop(), Some(2), "close drains remaining items");
//! assert_eq!(q.pop(), None, "then reports shutdown");
//! ```

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO queue with blocking consumers and non-blocking
/// (fail-fast) producers. See the [module docs](self) for the admission-
/// control protocol it implements.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    bound: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("bound", &self.bound)
            .field("depth", &self.depth())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `bound` items (`bound` is clamped
    /// to at least 1).
    pub fn new(bound: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// The admission bound this queue was created with.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Current queue depth. (Named `depth` rather than `len` so static
    /// analysis does not conflate it with the lock-free `VecDeque::len`
    /// calls made while the inner guard is held.)
    pub fn depth(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Enqueues `item` unless the queue is full or closed; on success
    /// returns the new depth, on rejection hands the item back so the
    /// producer can report backpressure (or retry later) without cloning.
    pub fn try_push(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock();
        if inner.closed || inner.items.len() >= self.bound {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Enqueues `item` even past the bound (control messages must not be
    /// dropped). Still fails once the queue is closed.
    pub fn push_force(&self, item: T) -> Result<usize, T> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest item, blocking while the queue is open but
    /// empty. Returns `None` only after [`close`](Self::close) once every
    /// remaining item has been drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Closes the queue: producers fail from now on, consumers drain the
    /// backlog and then observe shutdown. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;

    #[test]
    fn fifo_order_and_depth_reporting() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            assert_eq!(q.try_push(i), Ok(i + 1));
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn bound_rejects_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push("a").is_ok());
        assert!(q.try_push("b").is_ok());
        assert_eq!(q.try_push("c"), Err("c"));
        assert_eq!(q.pop(), Some("a"));
        assert!(q.try_push("c").is_ok(), "a pop frees one slot");
    }

    #[test]
    fn force_push_ignores_the_bound_but_not_close() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.push_force(2), Ok(2));
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.push_force(3), Err(3));
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn bound_zero_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.bound(), 1);
        assert!(q.try_push(7).is_ok());
        assert_eq!(q.try_push(8), Err(8));
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            crate::sync::thread::spawn_named("queue-test-consumer".into(), move || {
                assert_eq!(q.pop(), Some(9));
                assert_eq!(q.pop(), None, "close wakes the blocked pop");
            })
        };
        // Give the consumer a moment to block, then feed and close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(9).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        consumer.join().unwrap();
    }

    #[test]
    fn concurrent_producers_never_exceed_the_bound() {
        let q: Arc<BoundedQueue<usize>> = Arc::new(BoundedQueue::new(3));
        let mut producers = Vec::new();
        for p in 0..4 {
            let q = Arc::clone(&q);
            producers.push(crate::sync::thread::spawn_named(
                format!("queue-test-producer-{p}"),
                move || {
                    for i in 0..50 {
                        loop {
                            match q.try_push(p * 1000 + i) {
                                Ok(depth) => {
                                    assert!(depth <= q.bound(), "depth {depth} over bound");
                                    break;
                                }
                                Err(_) => std::thread::yield_now(),
                            }
                        }
                    }
                },
            ));
        }
        let mut popped = 0;
        while popped < 200 {
            if q.pop().is_some() {
                popped += 1;
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        assert!(q.is_empty());
    }
}
