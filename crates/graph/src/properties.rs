//! Vertex property arrays.
//!
//! SAGA-Bench keeps vertex property values (depths, labels, ranks, path
//! costs) in arrays *separate from* the topology (footnote 4 of the paper).
//! The compute engines update them from parallel loops, so the shared array
//! ([`AtomicArray`]) is atomic-backed; relaxed loads and stores compile to
//! plain moves, and the monotone algorithms additionally get lock-free
//! `fetch_min` / `fetch_max`.
//!
//! [`Property`] is the one place a property type's bit layout is stated:
//! the atomic word it lives in, the `u64` word a BSP checkpoint stores it
//! as, and its [`VertexValues`] variant. A new property type is one
//! `Property` impl plus one `VertexValues` variant.

use crate::Node;
use saga_utils::probe;
use saga_utils::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The atomic word a [`Property`]'s bits live in.
pub trait AtomicBits: Send + Sync + std::fmt::Debug {
    /// The plain word.
    type Bits: Copy + Into<u64>;
    /// A cell holding `bits`.
    fn with_bits(bits: Self::Bits) -> Self;
    /// Relaxed load.
    fn load_bits(&self) -> Self::Bits;
    /// Relaxed store.
    fn store_bits(&self, bits: Self::Bits);
    /// Weak compare-and-swap (`AcqRel` on success).
    fn cas_bits(&self, current: Self::Bits, new: Self::Bits) -> Result<Self::Bits, Self::Bits>;
    /// The low bits of a checkpoint word.
    fn narrow(word: u64) -> Self::Bits;
}

macro_rules! atomic_bits {
    ($($atomic:ident => $bits:ty),*) => {$(
        impl AtomicBits for $atomic {
            type Bits = $bits;
            fn with_bits(bits: $bits) -> Self {
                $atomic::new(bits)
            }
            #[inline]
            fn load_bits(&self) -> $bits {
                self.load(Ordering::Relaxed)
            }
            #[inline]
            fn store_bits(&self, bits: $bits) {
                self.store(bits, Ordering::Relaxed)
            }
            #[inline]
            fn cas_bits(&self, current: $bits, new: $bits) -> Result<$bits, $bits> {
                self.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed)
            }
            fn narrow(word: u64) -> $bits {
                word as $bits
            }
        }
    )*};
}

atomic_bits!(AtomicU32 => u32, AtomicU64 => u64);

type Bits<T> = <<T as Property>::Cell as AtomicBits>::Bits;

/// A vertex property type: its atomic word, the bit-cast into and out of
/// it, and the [`VertexValues`] variant its snapshots take.
pub trait Property: Copy + PartialOrd + Send + Sync + std::fmt::Debug {
    /// The atomic word holding the value's bits.
    type Cell: AtomicBits;
    /// The value's bits.
    fn to_bits(self) -> Bits<Self>;
    /// Inverse of [`to_bits`](Self::to_bits).
    fn from_bits(bits: Bits<Self>) -> Self;
    /// Wraps a snapshot in this type's [`VertexValues`] variant.
    fn into_values(values: Vec<Self>) -> VertexValues;
    /// The value's bits widened to a checkpoint word.
    fn to_word(self) -> u64 {
        self.to_bits().into()
    }
    /// Inverse of [`to_word`](Self::to_word).
    fn from_word(word: u64) -> Self {
        Self::from_bits(Self::Cell::narrow(word))
    }
}

impl Property for u32 {
    type Cell = AtomicU32;
    fn to_bits(self) -> u32 {
        self
    }
    fn from_bits(bits: u32) -> Self {
        bits
    }
    fn into_values(values: Vec<Self>) -> VertexValues {
        VertexValues::U32(values)
    }
}

impl Property for f32 {
    type Cell = AtomicU32;
    fn to_bits(self) -> u32 {
        f32::to_bits(self)
    }
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
    fn into_values(values: Vec<Self>) -> VertexValues {
        VertexValues::F32(values)
    }
}

impl Property for f64 {
    type Cell = AtomicU64;
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    fn into_values(values: Vec<Self>) -> VertexValues {
        VertexValues::F64(values)
    }
}

/// Shared array of property values: `u32` BFS depths, CC labels and MC
/// values, `f32` SSSP distances and SSWP widths, `f64` PageRank scores.
///
/// # Examples
///
/// ```
/// use saga_graph::properties::AtomicF64Array;
///
/// let ranks = AtomicF64Array::filled(3, 0.25);
/// ranks.set(1, 0.5);
/// assert_eq!(ranks.get(1), 0.5);
/// assert_eq!(ranks.get(0), 0.25);
/// ```
#[derive(Debug)]
pub struct AtomicArray<T: Property> {
    data: Vec<T::Cell>,
}

/// Depths, labels, max values.
pub type AtomicU32Array = AtomicArray<u32>;
/// Distances, widths.
pub type AtomicF32Array = AtomicArray<f32>;
/// PageRank scores.
pub type AtomicF64Array = AtomicArray<f64>;

impl<T: Property> AtomicArray<T> {
    /// Creates an array of `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self {
        Self {
            data: (0..len).map(|_| T::Cell::with_bits(value.to_bits())).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        probe::value_read(&self.data[i]);
        T::from_bits(self.data[i].load_bits())
    }

    /// Writes element `i`.
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        probe::value_write(&self.data[i]);
        self.data[i].store_bits(value.to_bits());
    }

    /// Atomically lowers element `i` to `value` if `value` is smaller.
    /// Returns `true` when the element changed (BFS and delta-stepping
    /// relaxation).
    #[inline]
    pub fn fetch_min(&self, i: usize, value: T) -> bool {
        self.replace_unless(i, value, |current| current <= value)
    }

    /// Atomically raises element `i` to `value` if `value` is larger.
    /// Returns `true` when the element changed (widest-path relaxation).
    #[inline]
    pub fn fetch_max(&self, i: usize, value: T) -> bool {
        self.replace_unless(i, value, |current| current >= value)
    }

    /// Compare-and-swap loop behind `fetch_min` / `fetch_max`: stores
    /// `value` unless `keep` holds for the current element.
    #[inline]
    fn replace_unless(&self, i: usize, value: T, keep: impl Fn(T) -> bool) -> bool {
        probe::value_write(&self.data[i]);
        let slot = &self.data[i];
        let mut current = slot.load_bits();
        loop {
            if keep(T::from_bits(current)) {
                return false;
            }
            match slot.cas_bits(current, value.to_bits()) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Copies all values out.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Hints that element `i` will be read soon (no-op when out of bounds).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        saga_utils::prefetch::prefetch_index(&self.data, i);
    }
}

/// A snapshot of a vertex property array, one variant per [`Property`]
/// type.
#[derive(Debug, Clone, PartialEq)]
pub enum VertexValues {
    /// Depths, labels, or max values.
    U32(Vec<u32>),
    /// Distances or widths.
    F32(Vec<f32>),
    /// PageRank scores.
    F64(Vec<f64>),
}

impl VertexValues {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        match self {
            VertexValues::U32(v) => v.len(),
            VertexValues::F32(v) => v.len(),
            VertexValues::F64(v) => v.len(),
        }
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer values, if this is a U32 snapshot.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            VertexValues::U32(v) => Some(v),
            _ => None,
        }
    }

    /// The f64 values, if this is an F64 snapshot.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            VertexValues::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The `k` vertices with the largest values, descending (useful for
    /// "top influencers" style queries; ties broken by vertex id).
    pub fn top_k(&self, k: usize) -> Vec<(Node, f64)> {
        let mut indexed: Vec<(Node, f64)> = match self {
            VertexValues::U32(v) => v
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x != u32::MAX)
                .map(|(i, &x)| (i as Node, x as f64))
                .collect(),
            VertexValues::F32(v) => v
                .iter()
                .enumerate()
                .filter(|&(_, &x)| x.is_finite())
                .map(|(i, &x)| (i as Node, x as f64))
                .collect(),
            VertexValues::F64(v) => v
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as Node, x))
                .collect(),
        };
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        indexed.truncate(k);
        indexed
    }
}

/// A shard's slice of a partitioned vertex property array, used by the
/// BSP execution layer (`saga-bsp`).
///
/// The atomic array above exists because the serial engines let every
/// worker write any vertex. The sharded engine's whole point is that it
/// does not: shard `s` owns the contiguous global range `[base, base+len)`
/// and is the only writer of those properties, so the storage is plain
/// (non-atomic) values — no cross-socket false sharing, and checkpoint
/// snapshot/restore is a `memcpy`. Accessors take **global** vertex ids
/// and translate internally, so algorithm code reads the same either way.
///
/// Accesses report through [`saga_utils::probe`] like the atomic arrays,
/// so the `saga-perf` memory model sees sharded property traffic too.
///
/// # Examples
///
/// ```
/// use saga_graph::properties::ShardValues;
///
/// let mut s = ShardValues::filled(10, 5, 0u32); // global vertices 10..15
/// s.set(12, 7);
/// assert_eq!(s.get(12), 7);
/// assert_eq!(s.as_slice(), &[0, 0, 7, 0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardValues<V> {
    base: usize,
    data: Vec<V>,
}

impl<V: Copy> ShardValues<V> {
    /// A shard covering global vertices `[base, base + len)`, all `init`.
    pub fn filled(base: usize, len: usize, init: V) -> Self {
        Self {
            base,
            data: vec![init; len],
        }
    }

    /// A shard covering `[base, base + data.len())` with explicit initial
    /// values (global id `base + i` gets `data[i]`).
    pub fn from_vec(base: usize, data: Vec<V>) -> Self {
        Self { base, data }
    }

    /// First global vertex id owned by this shard.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of vertices owned.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the shard owns no vertices.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads the property of global vertex `v` (must be owned here).
    #[inline]
    pub fn get(&self, v: usize) -> V {
        let slot = &self.data[v - self.base];
        probe::value_read(slot);
        *slot
    }

    /// Writes the property of global vertex `v` (must be owned here).
    #[inline]
    pub fn set(&mut self, v: usize, value: V) {
        let slot = &mut self.data[v - self.base];
        probe::value_write(slot);
        *slot = value;
    }

    /// The owned values, shard-local order (global id `base + i` at `i`) —
    /// what the checkpoint store snapshots.
    pub fn as_slice(&self) -> &[V] {
        &self.data
    }

    /// Restores the shard from a checkpoint snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot.len() != self.len()`.
    pub fn restore(&mut self, snapshot: &[V]) {
        assert_eq!(snapshot.len(), self.data.len(), "checkpoint shape mismatch");
        self.data.copy_from_slice(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_utils::parallel::{Schedule, ThreadPool};

    #[test]
    fn shard_values_translate_global_ids_and_restore() {
        let mut s = ShardValues::filled(4, 3, f32::INFINITY);
        assert_eq!(s.base(), 4);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        s.set(5, 2.5);
        assert_eq!(s.get(5), 2.5);
        assert_eq!(s.as_slice(), &[f32::INFINITY, 2.5, f32::INFINITY]);
        let snapshot = s.as_slice().to_vec();
        s.set(4, 0.0);
        s.set(6, 1.0);
        s.restore(&snapshot);
        assert_eq!(s.as_slice(), &[f32::INFINITY, 2.5, f32::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shard_restore_rejects_wrong_length() {
        let mut s = ShardValues::filled(0, 2, 0u32);
        s.restore(&[1, 2, 3]);
    }

    #[test]
    fn f64_roundtrip() {
        let a = AtomicF64Array::filled(4, 1.5);
        assert_eq!(a.len(), 4);
        assert_eq!(a.to_vec(), vec![1.5; 4]);
        a.set(2, -3.25);
        assert_eq!(a.get(2), -3.25);
        assert_eq!(a.to_vec(), vec![1.5, 1.5, -3.25, 1.5]);
    }

    /// Every bit pattern round-trips through the array and the checkpoint
    /// word: NaN payloads, signed zeros, infinities.
    fn assert_bitwise<T: Property>(values: &[T], bits: impl Fn(T) -> u64) {
        for &v in values {
            let a = AtomicArray::filled(2, v);
            a.set(1, v);
            for got in a.to_vec() {
                assert_eq!(bits(got), bits(v), "{v:?} through the array");
            }
            assert_eq!(v.to_word(), bits(v), "{v:?}'s word is its bits");
            assert_eq!(bits(T::from_word(v.to_word())), bits(v), "{v:?} through the word");
        }
    }

    #[test]
    fn special_values_roundtrip_bitwise() {
        let f32s = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::from_bits(0x7fc0_beef)]
            .into_iter()
            .chain([f32::from_bits(0xff80_0001), f32::MIN_POSITIVE, f32::MAX]);
        assert_bitwise(&f32s.collect::<Vec<_>>(), |v| u64::from(v.to_bits()));
        let f64s = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(0x7ff8_0000_dead_beef)]
            .into_iter()
            .chain([f64::from_bits(0xfff0_0000_0000_0001), 5e-324]);
        assert_bitwise(&f64s.collect::<Vec<_>>(), f64::to_bits);
        assert_bitwise(&[0u32, 1, u32::MAX], u64::from);
    }

    #[test]
    fn f32_fetch_min_is_monotone() {
        let a = AtomicF32Array::filled(1, f32::INFINITY);
        assert!(a.fetch_min(0, 5.0));
        assert!(!a.fetch_min(0, 7.0));
        assert!(a.fetch_min(0, 2.0));
        assert_eq!(a.get(0), 2.0);
    }

    #[test]
    fn f32_fetch_max_is_monotone() {
        let a = AtomicF32Array::filled(1, 0.0);
        assert!(a.fetch_max(0, 5.0));
        assert!(!a.fetch_max(0, 3.0));
        assert_eq!(a.get(0), 5.0);
    }

    #[test]
    fn u32_fetch_min_max_report_changes() {
        let a = AtomicU32Array::filled(2, 100);
        assert!(a.fetch_min(0, 5));
        assert!(!a.fetch_min(0, 5));
        assert!(a.fetch_max(1, 200));
        assert!(!a.fetch_max(1, 100));
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 200);
    }

    #[test]
    fn concurrent_fetch_min_converges_to_global_min() {
        let pool = ThreadPool::new(4);
        let a = AtomicF32Array::filled(1, f32::INFINITY);
        pool.parallel_for(1..1000, Schedule::Dynamic(17), |i| {
            a.fetch_min(0, i as f32);
        });
        assert_eq!(a.get(0), 1.0);
    }

    #[test]
    fn concurrent_u32_max_converges() {
        let pool = ThreadPool::new(4);
        let a = AtomicU32Array::filled(1, 0);
        pool.parallel_for(0..1000, Schedule::Static, |i| {
            a.fetch_max(0, i as u32);
        });
        assert_eq!(a.get(0), 999);
    }
}
