//! Adjacency list with shared-style multithreading (**AS**, §III-A1).
//!
//! An array of vectors, one vector per source vertex. A batch is split
//! across all threads (`#pragma omp parallel for` in the paper's code; the
//! pool's static schedule here), and a thread performing an edge update:
//!
//! 1. locks the vector of the source node,
//! 2. scans it for the target edge,
//! 3. inserts the edge if the search was negative.
//!
//! Because the *entire* vector of a source node is locked, there is no
//! intra-node parallelism: concurrent updates to the same high-degree vertex
//! serialize. This is exactly the behaviour behind the paper's finding that
//! AS collapses on heavy-tailed batches (Fig. 6b: 5.6–12.8× slower than DAH
//! on Wiki/Talk) while being the fastest structure on short-tailed ones.
//!
//! An optional **partitioned ingest** mode
//! ([`AdjacencyShared::with_partitioned_ingest`]) first groups the batch by
//! key vertex with the counting-sort partitioner, then hands each bucket of
//! vertices to exactly one worker, which takes each vertex's lock once per
//! run of consecutive same-source edges. Every lock acquisition is then
//! uncontended, which removes the hub serialization above — it is *not* the
//! paper's AS and is therefore off by default.

use crate::shell::{Op, ReadSide, SharedSide, Side, TwoSided};
use crate::{DataStructureKind, Edge, Node, Weight};
use saga_utils::parallel::ThreadPool;
use saga_utils::probe;
use saga_utils::sync::{Mutex, MutexGuard};

/// One direction of AS adjacency: a lock-protected neighbor vector per
/// vertex.
pub struct SharedLists {
    lists: Vec<Mutex<Vec<(Node, Weight)>>>,
    /// Distinguishes out- from in-list locks in the serialization probe.
    lock_tag: u64,
}

impl SharedLists {
    fn new(capacity: usize, lock_tag: u64) -> Self {
        Self {
            lists: (0..capacity).map(|_| Mutex::new(Vec::new())).collect(),
            lock_tag,
        }
    }
}

impl ReadSide for SharedLists {
    fn degree(&self, v: Node) -> usize {
        self.lists[v as usize].lock().len()
    }

    fn for_each(&self, v: Node, f: &mut dyn FnMut(Node, Weight)) {
        let list = self.lists[v as usize].lock();
        probe::slice_read(&list);
        for &(n, w) in list.iter() {
            f(n, w);
        }
    }
}

impl Side for SharedLists {
    const KIND: DataStructureKind = DataStructureKind::AdjacencyShared;

    fn run_batch(shell: &TwoSided<Self>, batch: &[Edge], pool: &ThreadPool, op: Op) -> usize {
        shell.shared_batch(batch, pool, op)
    }
}

impl SharedSide for SharedLists {
    type Held<'a> = MutexGuard<'a, Vec<(Node, Weight)>>;

    /// The *entire* vector is locked for the scan + insert (step 1 of
    /// §III-A1): concurrent updates of the same source serialize (no
    /// intra-node parallelism). Partitioned ingest holds the guard across a
    /// whole run of same-source edges instead of re-locking per edge.
    fn hold(&self, key: Node) -> Self::Held<'_> {
        self.lists[key as usize].lock()
    }

    /// Steps 2–3 of §III-A1 against the held list. The probe records are the
    /// same however long the guard is held (including the critical section),
    /// so the simulator sees identical per-edge work on both ingest paths.
    fn apply_held(
        &self,
        list: &mut Self::Held<'_>,
        op: Op,
        key: Node,
        nbr: Node,
        weight: Weight,
    ) -> bool {
        probe::critical(self.lock_tag | key as u64, list.len() as u64 + 1);
        apply_to_list(list, op, nbr, weight)
    }
}

/// Search then insert / remove in one contiguous neighbor vector (Fig. 3) —
/// the per-vertex operation AS runs under the vertex's lock and AC runs
/// lock-free inside a chunk. Returns whether the vector changed.
pub(crate) fn apply_to_list(
    list: &mut Vec<(Node, Weight)>,
    op: Op,
    nbr: Node,
    weight: Weight,
) -> bool {
    probe::slice_read(list);
    let found = list.iter().position(|&(n, _)| n == nbr);
    match (op, found) {
        (Op::Insert, None) => {
            list.push((nbr, weight));
            probe::write(list.last().unwrap() as *const (Node, Weight), 1);
            true
        }
        (Op::Remove, Some(pos)) => {
            list.swap_remove(pos);
            true
        }
        _ => false,
    }
}

/// Adjacency list with shared-style multithreading (AS).
///
/// # Examples
///
/// ```
/// use saga_graph::adjacency_shared::AdjacencyShared;
/// use saga_graph::{DynamicGraph, Edge, GraphTopology};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let g = AdjacencyShared::new(4, true);
/// g.update_batch(&[Edge::new(0, 1, 1.0), Edge::new(2, 1, 1.0)], &pool);
/// assert_eq!(g.in_degree(1), 2);
/// ```
pub type AdjacencyShared = TwoSided<SharedLists>;

impl AdjacencyShared {
    /// Creates an empty AS graph over vertex ids `0..capacity`.
    pub fn new(capacity: usize, directed: bool) -> Self {
        Self::with_sides(capacity, directed, |is_in| {
            SharedLists::new(capacity, if is_in { 1 << 40 } else { 0 })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicGraph, GraphTopology};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn partitioned_hub_batch_is_exact() {
        // The scenario partitioned ingest exists for: every edge fights for
        // vertex 0's out-list lock on the default path; here a single owner
        // worker drains the hub's run with one lock acquisition.
        let g = AdjacencyShared::new(2001, true).with_partitioned_ingest(true);
        let batch: Vec<Edge> = (1..=2000)
            .map(|i| Edge::new(0, i, 1.0))
            .chain((1..=2000).map(|i| Edge::new(0, i, 1.0)))
            .collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 2000);
        assert_eq!(stats.duplicates, 2000);
        assert_eq!(g.out_degree(0), 2000);
        for i in 1..=2000u32 {
            assert_eq!(g.in_neighbors(i), vec![(0, 1.0)]);
        }
    }

    #[test]
    fn concurrent_hub_updates_serialize_correctly() {
        let g = AdjacencyShared::new(1001, true);
        // Heavy-tailed batch: everything points at vertex 0's out-list.
        let batch: Vec<Edge> = (1..=1000).map(|i| Edge::new(0, i, 1.0)).collect();
        let stats = g.update_batch(&batch, &pool());
        assert_eq!(stats.inserted, 1000);
        assert_eq!(g.out_degree(0), 1000);
        let mut ns = g.out_neighbors(0);
        ns.sort_by_key(|&(n, _)| n);
        assert_eq!(ns.len(), 1000);
        assert!(ns.iter().enumerate().all(|(i, &(n, _))| n == i as Node + 1));
    }
}
