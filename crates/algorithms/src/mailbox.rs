//! Inter-shard message batches.
//!
//! One mailbox cell per (source shard, destination shard) pair. During the
//! scatter phase, cell `(s, d)` is appended to **only** by the worker that
//! owns shard `s`; during the gather phase it is drained **only** by the
//! worker that owns shard `d`, in ascending source-shard order. The
//! superstep barrier separates the two phases, so every cell has exactly
//! one writer and one reader per superstep and the drain order is a pure
//! function of the layout — the determinism the checkpoint/recovery
//! guarantee rests on (see DESIGN.md §12).
//!
//! The cells still sit behind the sync facade's `Mutex` (cheap,
//! uncontended in the phase discipline above) so the type stays safe
//! without `unsafe` aliasing arguments.

use saga_utils::sync::Mutex;

/// The `shards × shards` grid of message batches.
#[derive(Debug)]
pub struct Mailboxes<M> {
    shards: usize,
    cells: Vec<Mutex<Vec<M>>>,
}

impl<M: Copy + Send> Mailboxes<M> {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            cells: (0..shards * shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    #[inline]
    fn index(&self, src_shard: usize, dst_shard: usize) -> usize {
        debug_assert!(src_shard < self.shards && dst_shard < self.shards);
        src_shard * self.shards + dst_shard
    }

    /// Appends `batch` to cell `(src_shard, dst_shard)` and leaves the
    /// buffer empty. Caller must own `src_shard` (scatter phase). An empty
    /// cell — the one post per superstep — takes the buffer itself, so no
    /// message is copied and no second buffer of that size is held.
    pub fn post(&self, src_shard: usize, dst_shard: usize, batch: &mut Vec<M>) {
        if batch.is_empty() {
            return;
        }
        let mut cell = self.cells[self.index(src_shard, dst_shard)].lock();
        if cell.is_empty() {
            std::mem::swap(&mut *cell, batch);
        } else {
            cell.append(batch);
        }
    }

    /// Takes the whole content of cell `(src_shard, dst_shard)`, leaving it
    /// empty. Caller must own `dst_shard` (gather phase).
    pub fn take(&self, src_shard: usize, dst_shard: usize) -> Vec<M> {
        std::mem::take(&mut *self.cells[self.index(src_shard, dst_shard)].lock())
    }

    /// Empties every cell — recovery discards all in-flight messages (the
    /// checkpoint boundary is message-free by construction).
    pub fn clear(&self) {
        for cell in &self.cells {
            cell.lock().clear();
        }
    }

    /// Total queued messages (test/diagnostic helper).
    pub fn queued(&self) -> usize {
        self.cells.iter().map(|c| c.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_take_roundtrip_preserves_order() {
        let m: Mailboxes<(u32, u32)> = Mailboxes::new(2);
        let mut buf = vec![(4u32, 1u32), (5, 2)];
        m.post(0, 1, &mut buf);
        assert!(buf.is_empty(), "post empties the buffer");
        buf.push((6, 3));
        m.post(0, 1, &mut buf);
        assert_eq!(m.queued(), 3);
        assert_eq!(m.take(0, 1), vec![(4, 1), (5, 2), (6, 3)]);
        assert_eq!(m.take(0, 1), vec![], "take drains");
        assert_eq!(m.queued(), 0);
    }

    #[test]
    fn cells_are_independent_and_clear_empties_all() {
        let m: Mailboxes<(u32, f32)> = Mailboxes::new(3);
        m.post(0, 2, &mut vec![(1, 0.5)]);
        m.post(2, 0, &mut vec![(2, 1.5)]);
        assert_eq!(m.take(0, 0), vec![]);
        assert_eq!(m.queued(), 2);
        m.clear();
        assert_eq!(m.queued(), 0);
        assert_eq!(m.take(0, 2), vec![]);
    }
}
