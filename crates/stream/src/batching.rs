//! Seeded shuffling and batch iteration.
//!
//! The paper first randomly shuffles each input file "to ensure the
//! realistic scenario that streaming edges are not likely to come in any
//! pre-defined order", then reads it in 500K-edge batches (§IV-B). The
//! shuffle here is a seeded Fisher–Yates so experiments are reproducible.

use std::borrow::Cow;

use saga_utils::rng::Xoshiro256PlusPlus;

use crate::{Edge, EdgeOp};

/// Shuffles edges in place with a seeded Fisher–Yates permutation.
///
/// # Examples
///
/// ```
/// use saga_stream::batching::shuffle_edges;
/// use saga_stream::Edge;
///
/// let mut a: Vec<Edge> = (0..100).map(|i| Edge::new(i, i + 1, 1.0)).collect();
/// let mut b = a.clone();
/// shuffle_edges(&mut a, 7);
/// shuffle_edges(&mut b, 7);
/// assert_eq!(a, b); // same seed, same order
/// ```
pub fn shuffle_edges(edges: &mut [Edge], seed: u64) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        edges.swap(i, j);
    }
}

/// Iterator over consecutive fixed-size batches of a stream; the final
/// batch may be short.
#[derive(Debug, Clone)]
pub struct BatchIter<'a> {
    edges: &'a [Edge],
    batch_size: usize,
}

impl<'a> BatchIter<'a> {
    /// Creates a batch iterator.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(edges: &'a [Edge], batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { edges, batch_size }
    }
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = &'a [Edge];

    fn next(&mut self) -> Option<Self::Item> {
        if self.edges.is_empty() {
            return None;
        }
        let take = self.batch_size.min(self.edges.len());
        let (batch, rest) = self.edges.split_at(take);
        self.edges = rest;
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.edges.len().div_ceil(self.batch_size);
        (n, Some(n))
    }
}

impl ExactSizeIterator for BatchIter<'_> {}

/// One batch of an op-aware stream: a slice of edges plus (when the
/// stream mixes operations) a parallel slice of per-edge ops.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatch<'a> {
    /// Edges of this batch, in arrival order.
    pub edges: &'a [Edge],
    /// Per-edge ops, parallel to `edges`. Empty means every edge is an
    /// insertion (the common, paper-faithful case).
    pub ops: &'a [EdgeOp],
}

impl<'a> StreamBatch<'a> {
    /// Splits the batch into its insertion and deletion edges, preserving
    /// arrival order within each class. Insert-only batches borrow the
    /// original slice — no allocation on the paper's insertion-only path.
    ///
    /// The driver applies the insert half before the delete half, giving
    /// each batch set-operation semantics: a delete in batch `i` removes
    /// the edge even when its insert arrived earlier *in the same batch*.
    pub fn split(&self) -> (Cow<'a, [Edge]>, Cow<'a, [Edge]>) {
        if self.ops.is_empty() {
            return (Cow::Borrowed(self.edges), Cow::Borrowed(&[]));
        }
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for (edge, op) in self.edges.iter().zip(self.ops) {
            match op {
                EdgeOp::Insert => inserts.push(*edge),
                EdgeOp::Delete => deletes.push(*edge),
            }
        }
        (Cow::Owned(inserts), Cow::Owned(deletes))
    }

    /// Number of edges (of either op) in the batch.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the batch carries no edges at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Iterator over op-aware batches of a stream. Honors explicit batch
/// boundaries when present; otherwise chunks uniformly like [`BatchIter`].
#[derive(Debug, Clone)]
pub struct OpBatchIter<'a> {
    edges: &'a [Edge],
    ops: &'a [EdgeOp],
    boundaries: &'a [usize],
    consumed: usize,
    batch_size: usize,
}

impl<'a> OpBatchIter<'a> {
    /// Creates an op-aware batch iterator. `ops` must be empty or parallel
    /// to `edges`; `boundaries`, when non-empty, must be strictly
    /// increasing and end at `edges.len()` (then `batch_size` is ignored).
    ///
    /// # Panics
    ///
    /// Panics on a malformed `ops`/`boundaries` combination, or when
    /// `boundaries` is empty and `batch_size` is zero.
    pub fn new(
        edges: &'a [Edge],
        ops: &'a [EdgeOp],
        boundaries: &'a [usize],
        batch_size: usize,
    ) -> Self {
        assert!(
            ops.is_empty() || ops.len() == edges.len(),
            "ops must be empty or parallel to edges"
        );
        if boundaries.is_empty() {
            assert!(batch_size > 0, "batch size must be positive");
        } else {
            assert!(
                boundaries.windows(2).all(|w| w[0] < w[1]),
                "boundaries must be strictly increasing"
            );
            assert_eq!(
                *boundaries.last().unwrap(),
                edges.len(),
                "last boundary must cover the stream"
            );
        }
        Self { edges, ops, boundaries, consumed: 0, batch_size }
    }
}

impl<'a> Iterator for OpBatchIter<'a> {
    type Item = StreamBatch<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.edges.is_empty() {
            return None;
        }
        let take = match self.boundaries.split_first() {
            Some((&end, rest)) => {
                self.boundaries = rest;
                end - self.consumed
            }
            None => self.batch_size.min(self.edges.len()),
        };
        let (edges, rest) = self.edges.split_at(take);
        self.edges = rest;
        let ops = if self.ops.is_empty() {
            &[]
        } else {
            let (ops, rest) = self.ops.split_at(take);
            self.ops = rest;
            ops
        };
        self.consumed += take;
        Some(StreamBatch { edges, ops })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.boundaries.is_empty() {
            self.edges.len().div_ceil(self.batch_size.max(1))
        } else {
            self.boundaries.len()
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for OpBatchIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1, i as f32)).collect()
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let original = edges(500);
        let mut shuffled = original.clone();
        shuffle_edges(&mut shuffled, 42);
        assert_ne!(original, shuffled);
        let mut o: Vec<u32> = original.iter().map(|e| e.src).collect();
        let mut s: Vec<u32> = shuffled.iter().map(|e| e.src).collect();
        o.sort_unstable();
        s.sort_unstable();
        assert_eq!(o, s);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = edges(200);
        let mut b = edges(200);
        shuffle_edges(&mut a, 1);
        shuffle_edges(&mut b, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn batches_partition_the_stream() {
        let es = edges(23);
        let batches: Vec<&[Edge]> = BatchIter::new(&es, 5).collect();
        assert_eq!(batches.len(), 5);
        assert!(batches[..4].iter().all(|b| b.len() == 5));
        assert_eq!(batches[4].len(), 3);
        let flat: Vec<Edge> = batches.concat();
        assert_eq!(flat, es);
    }

    #[test]
    fn exact_size_hint() {
        let es = edges(10);
        let it = BatchIter::new(&es, 4);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let it = BatchIter::new(&[], 4);
        assert_eq!(it.count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let es = edges(3);
        let _ = BatchIter::new(&es, 0);
    }

    #[test]
    fn insert_only_split_borrows_without_allocating() {
        let es = edges(6);
        let batch = StreamBatch { edges: &es, ops: &[] };
        let (ins, del) = batch.split();
        assert!(matches!(ins, Cow::Borrowed(_)));
        assert!(del.is_empty());
        assert_eq!(ins.as_ref(), &es[..]);
    }

    #[test]
    fn mixed_split_preserves_arrival_order_per_class() {
        let es = edges(5);
        let ops = [
            EdgeOp::Insert,
            EdgeOp::Delete,
            EdgeOp::Insert,
            EdgeOp::Delete,
            EdgeOp::Insert,
        ];
        let batch = StreamBatch { edges: &es, ops: &ops };
        let (ins, del) = batch.split();
        assert_eq!(ins.iter().map(|e| e.src).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(del.iter().map(|e| e.src).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn op_batches_honor_boundaries() {
        let es = edges(9);
        let ops = vec![EdgeOp::Insert; 9];
        let bounds = [2, 3, 9];
        let sizes: Vec<usize> =
            OpBatchIter::new(&es, &ops, &bounds, 500).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![2, 1, 6]);
        let it = OpBatchIter::new(&es, &ops, &bounds, 500);
        assert_eq!(it.len(), 3);
    }

    #[test]
    #[should_panic(expected = "last boundary must cover the stream")]
    fn short_boundaries_panic() {
        let es = edges(9);
        let _ = OpBatchIter::new(&es, &[], &[2, 3], 500);
    }

    #[test]
    #[should_panic(expected = "ops must be empty or parallel to edges")]
    fn misaligned_ops_panic() {
        let es = edges(9);
        let ops = vec![EdgeOp::Delete; 3];
        let _ = OpBatchIter::new(&es, &ops, &[], 4);
    }
}
