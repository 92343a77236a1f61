//! Worker-order stitching of [`AffectedTracker::process_mixed_batch`]:
//! the affected/new-vertex sets must be permutation-equal regardless of
//! how many workers raced on the generation marks — a single-threaded
//! pool is the ground truth for an 8-way pool. A real divergence here
//! would mean the try_mark/worker-buffer stitching loses or duplicates
//! vertices under contention.

use std::collections::BTreeSet;

use saga_algorithms::AffectedTracker;
use saga_graph::{build_deletable_graph, DataStructureKind, Edge, Node};
use saga_utils::hash::mix64;
use saga_utils::parallel::ThreadPool;

const NODES: usize = 200;

fn weight(src: Node, dst: Node) -> f32 {
    1.0 + ((src ^ dst) % 8) as f32
}

/// A hub-heavy batch: lots of duplicate endpoints so the marks race.
fn batch(seed: u64, len: usize) -> Vec<Edge> {
    (0..len)
        .map(|i| {
            let r = mix64(seed ^ i as u64);
            // Concentrate a third of the batch on a few hubs.
            let src = if r.is_multiple_of(3) { (r % 4) as Node } else { (r % NODES as u64) as Node };
            let dst = ((r >> 17) % NODES as u64) as Node;
            Edge::new(src, dst, weight(src, dst))
        })
        .collect()
}

fn sorted(v: &[Node]) -> Vec<Node> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Runs three mixed batches through one tracker at the given pool width,
/// returning per-batch sorted (affected, new_vertices) sets.
fn run(threads: usize, source_hoods: bool) -> Vec<(Vec<Node>, Vec<Node>)> {
    let pool = ThreadPool::new(threads);
    let graph = build_deletable_graph(DataStructureKind::Stinger, NODES, true, pool.threads());
    let mut tracker = AffectedTracker::new(NODES);
    let mut out = Vec::new();
    for b in 0..3u64 {
        let inserts = batch(0x51ED * (b + 1), 400);
        let deletes: Vec<Edge> = batch(0x51ED * (b + 1), 400)
            .into_iter()
            .step_by(3)
            .collect();
        graph.update_batch(&inserts, &pool);
        graph.delete_batch(&deletes, &pool);
        let impact = tracker.process_mixed_batch(
            graph.as_ref(),
            &inserts,
            &deletes,
            source_hoods,
            false,
            &pool,
        );
        // Within one batch the report itself must already be duplicate-free.
        let unique: BTreeSet<Node> = impact.affected.iter().copied().collect();
        assert_eq!(unique.len(), impact.affected.len(), "affected has duplicates");
        let unique: BTreeSet<Node> = impact.new_vertices.iter().copied().collect();
        assert_eq!(unique.len(), impact.new_vertices.len(), "new_vertices has duplicates");
        out.push((sorted(&impact.affected), sorted(&impact.new_vertices)));
    }
    out
}

/// The ground truth: a single worker. Any wider pool must report the same
/// sets (as sets — the stitched order may differ) for every batch and
/// every neighborhood-seeding mode.
#[test]
fn mixed_batch_stitching_is_permutation_equal_across_pool_widths() {
    for source_hoods in [false, true] {
        let reference = run(1, source_hoods);
        for threads in [2, 8] {
            let wide = run(threads, source_hoods);
            assert_eq!(
                reference, wide,
                "tracker output diverged at {threads} threads (source_hoods={source_hoods})"
            );
        }
    }
}

/// Re-running the same batches through a *fresh* tracker on a fresh graph
/// is deterministic at any width: first-seen bookkeeping (`seen` bitvec)
/// must not leak across tracker instances.
#[test]
fn fresh_trackers_are_deterministic() {
    let a = run(8, true);
    let b = run(8, true);
    assert_eq!(a, b);
}
