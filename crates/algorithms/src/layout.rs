//! Shard layout: the static mapping between global vertex ids and shards.
//!
//! The vertex universe `0..capacity` is cut into `shards` contiguous
//! ranges using the same floor-division split the thread pool's static
//! schedule uses, so shard boundaries line up with the chunk boundaries
//! the rest of the suite already reasons about. Contiguity is what makes a
//! shard's slice of the property array, and of its checkpoint, one range.

use std::ops::Range;

/// The owner-computes partition of the vertex space.
///
/// # Examples
///
/// ```
/// use saga_algorithms::layout::ShardLayout;
///
/// let l = ShardLayout::new(10, 3);
/// assert_eq!(l.range(0), 0..3);
/// assert_eq!(l.range(1), 3..6);
/// assert_eq!(l.range(2), 6..10);
/// assert_eq!(l.shard_of(5), 1);
/// assert_eq!(l.shard_of(9), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    capacity: usize,
    shards: usize,
}

impl ShardLayout {
    /// A layout of `capacity` vertices over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "layout needs at least one shard");
        Self { capacity, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of vertices.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The contiguous global-id range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        debug_assert!(s < self.shards);
        (self.capacity * s / self.shards)..(self.capacity * (s + 1) / self.shards)
    }

    /// The shard owning global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is out of range.
    #[inline]
    pub fn shard_of(&self, v: usize) -> usize {
        debug_assert!(v < self.capacity, "vertex {v} outside universe {}", self.capacity);
        // The multiplicative guess is exact up to integer-floor rounding of
        // the range bounds; the fixup walks at most one shard.
        let mut s = (v * self.shards / self.capacity).min(self.shards - 1);
        while v < self.range(s).start {
            s -= 1;
        }
        while v >= self.range(s).end {
            s += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_universe_exactly() {
        for capacity in [0usize, 1, 2, 5, 64, 1000, 1021] {
            for shards in [1usize, 2, 3, 7, 16] {
                let l = ShardLayout::new(capacity, shards);
                let mut next = 0;
                for s in 0..shards {
                    let r = l.range(s);
                    assert_eq!(r.start, next, "cap={capacity} shards={shards} s={s}");
                    next = r.end;
                }
                assert_eq!(next, capacity);
            }
        }
    }

    #[test]
    fn shard_of_agrees_with_the_ranges() {
        for capacity in [1usize, 2, 5, 64, 1000, 1021] {
            for shards in [1usize, 2, 3, 7, 16] {
                let l = ShardLayout::new(capacity, shards);
                for v in 0..capacity {
                    let s = l.shard_of(v);
                    assert!(
                        l.range(s).contains(&v),
                        "cap={capacity} shards={shards} v={v} -> {s}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardLayout::new(4, 0);
    }
}
