//! Offline stand-in for `crossbeam` 0.8. The SAGA crates use one item,
//! [`queue::SegQueue`] (the SSWP frontier); this one is a mutex around a
//! `VecDeque`, which keeps the semantics and gives up the lock-freedom.

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded multi-producer multi-consumer FIFO queue.
    #[derive(Debug, Default)]
    pub struct SegQueue<T> {
        items: Mutex<VecDeque<T>>,
    }

    impl<T> SegQueue<T> {
        /// An empty queue.
        pub fn new() -> Self {
            Self { items: Mutex::new(VecDeque::new()) }
        }

        fn items(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            // A panicking pusher cannot leave the deque half-updated.
            self.items.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Appends `value` at the back.
        pub fn push(&self, value: T) {
            self.items().push_back(value);
        }

        /// Removes the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.items().pop_front()
        }

        /// Whether the queue holds no element.
        pub fn is_empty(&self) -> bool {
            self.items().is_empty()
        }

        /// The number of queued elements.
        pub fn len(&self) -> usize {
            self.items().len()
        }
    }
}
