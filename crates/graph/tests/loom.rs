//! Loom model-checking of the production Stinger (`src/stinger.rs`): its
//! per-block locks, tail-mutex appends, shared/exclusive vertex op-lock and
//! lock-free scans, driven through the public batch API.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p saga-graph --test loom
//! ```
//!
//! Every model uses blocks of two slots, so a third edge already appends a
//! block, and gives each modeled thread its own one-thread pool: a
//! one-thread pool runs its loops inline and spawns nothing, so the model's
//! threads are exactly the ones spawned here. A slot is read `Relaxed`
//! behind the `len` (or `link` / `head`) that published it, so a scan that
//! is not ordered after a slot's store fails the model with an unordered
//! read. See DESIGN.md §7b for what these models cover and what they do
//! not.
#![cfg(loom)]

use saga_graph::stinger::Stinger;
use saga_graph::{DeletableGraph, DynamicGraph, Edge, GraphTopology, Node};
use saga_loom::sync::Arc;
use saga_loom::thread;
use saga_utils::parallel::ThreadPool;

/// A directed Stinger of 8 vertices and 2-slot blocks whose vertex 0 holds
/// `dsts`, in order: `[1, 2, 3]` is one full block and a tail of one.
fn seeded(dsts: &[Node]) -> Stinger {
    let g = Stinger::with_block_size(8, true, 2);
    for &dst in dsts {
        g.update_batch(&[edge(dst)], &ThreadPool::new(1));
    }
    g
}

/// The edge `0 → dst`.
fn edge(dst: Node) -> Edge {
    Edge::new(0, dst, 1.0)
}

/// Vertex 0's out-neighbors in chain order.
fn out_of_0(g: &Stinger) -> Vec<Node> {
    let mut out = Vec::new();
    g.for_each_out_neighbor(0, &mut |n, _| out.push(n));
    out
}

/// Checks vertex 0's chain against the edge set `expected` and returns it
/// in chain order: degrees and the edge count agree with the stored edges,
/// every in-copy mirrors its out-edge, and a further insert lands last —
/// which holds only if every block before the tail is full.
fn check(g: &Stinger, expected: &[Node]) -> Vec<Node> {
    let chain = out_of_0(g);
    let mut sorted = chain.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expected, "vertex 0 holds {chain:?}");
    assert_eq!(g.out_degree(0), expected.len(), "degree diverged from stored edges");
    assert_eq!(g.num_edges(), expected.len());
    for v in 1..8 {
        assert_eq!(g.in_degree(v), usize::from(expected.contains(&v)), "in-copy of {v}");
    }
    g.update_batch(&[edge(7)], &ThreadPool::new(1));
    assert_eq!(out_of_0(g).last(), Some(&7), "a block before the tail has a hole");
    chain
}

/// Runs `a` on a spawned thread and `b` on the model's root thread, each
/// with its own one-thread pool, and returns both results.
fn race<R: Send + 'static>(
    g: &Arc<Stinger>,
    a: fn(&Stinger, &ThreadPool) -> R,
    b: fn(&Stinger, &ThreadPool) -> R,
) -> (R, R) {
    let other = {
        let g = Arc::clone(g);
        thread::spawn(move || a(&g, &ThreadPool::new(1)))
    };
    let mine = b(g, &ThreadPool::new(1));
    (other.join().unwrap(), mine)
}

/// Two inserts of the *same* edge racing past a full block: scan 2's
/// re-check under each block lock (and under the tail mutex) gives exactly
/// one winner in every interleaving.
#[test]
fn duplicate_insert_has_a_single_winner() {
    saga_loom::model(|| {
        let g = Arc::new(seeded(&[1, 2]));
        let insert = |g: &Stinger, pool: &ThreadPool| g.update_batch(&[edge(3)], pool).inserted;
        let (a, b) = race(&g, insert, insert);
        assert_eq!(a + b, 1, "duplicate edge inserted twice or never");
        check(&g, &[1, 2, 3]);
    });
}

/// Two inserts of different edges racing to append past a full block: both
/// land, and the tail mutex keeps one block per append (no lost block, no
/// second half-full block).
#[test]
fn concurrent_appends_keep_the_chain_invariant() {
    saga_loom::model(|| {
        let g = Arc::new(seeded(&[1, 2]));
        race(
            &g,
            |g, pool| assert_eq!(g.update_batch(&[edge(3)], pool).inserted, 1),
            |g, pool| assert_eq!(g.update_batch(&[edge(4)], pool).inserted, 1),
        );
        check(&g, &[1, 2, 3, 4]);
    });
}

/// An insert racing a delete on one vertex: the exclusive op-lock orders
/// the delete's compaction (refill the hole from the tail, unlink and
/// recycle the emptied tail) against the insert's two scans, in both
/// orders and every schedule of the atomics around them.
#[test]
fn insert_vs_delete_compacts() {
    saga_loom::model(|| {
        let g = Arc::new(seeded(&[1, 2, 3]));
        race(
            &g,
            |g, pool| assert_eq!(g.delete_batch(&[edge(1)], pool).removed, 1),
            |g, pool| assert_eq!(g.update_batch(&[edge(4)], pool).inserted, 1),
        );
        check(&g, &[2, 3, 4]);
    });
}

/// A lock-free scan racing an insert that fills the tail's free slot and
/// then one that appends a block: the scan never loads a slot before its
/// `len` or `link` published it, and sees the edge that was there before it
/// began plus some of the writer's, in chain order. Not necessarily a
/// prefix: a scan past the tail's `len` before the fill that reaches the
/// appended block sees `[1, 3]` — scan 1 of an insert may miss an edge,
/// which is why scan 2 re-checks under the block locks.
#[test]
fn scan_races_a_fill_and_an_append() {
    saga_loom::model(|| {
        let g = Arc::new(seeded(&[1]));
        race(
            &g,
            |g, _| {
                let seen = out_of_0(g);
                assert!(
                    [&[1][..], &[1, 2], &[1, 3], &[1, 2, 3]].contains(&&seen[..]),
                    "scan saw {seen:?}"
                );
            },
            |g, pool| {
                assert_eq!(g.update_batch(&[edge(2)], pool).inserted, 1);
                assert_eq!(g.update_batch(&[edge(3)], pool).inserted, 1);
            },
        );
        assert_eq!(check(&g, &[1, 2, 3]), [1, 2, 3]);
    });
}
