//! The incremental compute model (**INC**) — Algorithm 1 of the paper.
//!
//! INC exploits the overlap between successive compute phases with two
//! techniques (§III-B):
//!
//! 1. **Processing amortization** — computation starts from the vertex
//!    values produced by the previous batch's compute phase (implemented by
//!    never resetting the store, and by the program's `combine` keeping
//!    monotone values valid).
//! 2. **Selective triggering** — computation starts from only the vertices
//!    affected by the latest update; changes larger than the triggering
//!    condition propagate iteration-by-iteration to neighbors, guarded by a
//!    CAS `visited` bitvector, until no vertex is triggered.
//!
//! Deletion batches additionally get a KickStarter-style **repair pass**
//! ([`incremental_compute_with_deletions`]): monotone `combine` only ever
//! improves values, so a stored property that depended on a removed edge
//! would survive forever. The repair tags the transitive derivation
//! closure of the deleted edges, resets it to the program's initial
//! values, and reseeds it from surviving in-neighbors through the normal
//! trigger rounds — falling back to from-scratch recomputation when the
//! cascade exceeds a size threshold.

use crate::program::{EdgeScope, ValueStore, VertexProgram};
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::bitvec::AtomicBitVec;
use saga_utils::frontier::FlatFrontier;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::prefetch::PREFETCH_DISTANCE;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};

/// What an incremental compute phase did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncOutcome {
    /// Frontier rounds executed, including the initial affected pass.
    pub iterations: usize,
    /// Total vertex-function evaluations.
    pub recomputed: usize,
    /// Vertices whose change was significant enough to trigger neighbors.
    pub triggered: usize,
    /// Vertices reset and reseeded by the deletion-repair pass.
    pub repaired: usize,
}

/// Result of an incremental phase over a batch that contained deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeletionOutcome {
    /// Repair (if any was needed) stayed under the threshold and the
    /// incremental rounds ran to quiescence.
    Done(IncOutcome),
    /// The repair cascade exceeded the caller's limit before closing; the
    /// value store was **not** modified. The caller should recompute from
    /// scratch (cheaper than resetting and reseeding most of the graph).
    CascadeOverflow {
        /// Vertices tagged before the limit tripped.
        tagged: usize,
    },
}

/// Runs Algorithm 1: recompute `affected`, then propagate significant
/// changes through `visited`-guarded frontier queues until quiescence.
///
/// `new_vertices` are vertices appearing in the stream for the first time;
/// they are reset to the program's initial value (lines 2–4).
pub fn incremental_compute<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    affected: &[Node],
    new_vertices: &[Node],
    pool: &ThreadPool,
) -> IncOutcome {
    let n = graph.capacity();
    // Lines 2–4: initialize vertices entering the graph this batch.
    pool.parallel_for(0..new_vertices.len(), Schedule::Static, |i| {
        let v = new_vertices[i];
        values.store(v as usize, program.initial(v, n));
    });

    let mut visited = AtomicBitVec::new(n);
    let mut next = FlatFrontier::new(n);
    let recomputed = AtomicUsize::new(0);
    let triggered = AtomicUsize::new(0);

    let process = |frontier: &[Node], visited: &AtomicBitVec, next: &FlatFrontier| {
        let grain = saga_utils::parallel::adaptive_grain(frontier.len(), pool.threads());
        pool.parallel_for(0..frontier.len(), Schedule::Dynamic(grain), |i| {
            if let Some(&ahead) = frontier.get(i + PREFETCH_DISTANCE) {
                values.prefetch_hint(ahead as usize);
            }
            let v = frontier[i];
            recomputed.fetch_add(1, Ordering::Relaxed);
            // Lines 9–10: re-calculate the vertex function.
            let old = values.load(v as usize);
            let pulled = program.pull(graph, v, values);
            let new = program.combine(old, pulled);
            if new != old {
                values.store(v as usize, new);
            }
            // Lines 11–15: trigger out-neighbors on significant change.
            if program.significant_change(old, new) {
                triggered.fetch_add(1, Ordering::Relaxed);
                let push = |nb: Node| {
                    if visited.try_set(nb as usize) {
                        next.push(nb);
                    }
                };
                graph.for_each_out_neighbor(v, &mut |nb, _| push(nb));
                if program.scope() == EdgeScope::Symmetric && graph.is_directed() {
                    graph.for_each_in_neighbor(v, &mut |nb, _| push(nb));
                }
            }
        });
    };

    // Lines 6–15: the affected pass. The affected list can repeat a
    // vertex (it is stitched from per-worker buffers keyed by batch edge,
    // and several edges can share an endpoint), so dedupe through the
    // visited marks first — recomputing a vertex twice in the same round
    // is wasted work and inflates `recomputed`. The marks are cleared
    // again before processing: a seed must stay eligible for round-2
    // re-triggering by its neighbors.
    let seeds: Vec<Node> = {
        let mut seeds = Vec::with_capacity(affected.len());
        for &v in affected {
            if visited.try_set(v as usize) {
                seeds.push(v);
            }
        }
        seeds
    };
    visited.clear_all();
    let mut iterations = 1;
    process(&seeds, &visited, &next);

    // Lines 17–25: frontier propagation until quiescence.
    let mut frontier: Vec<Node> = Vec::new();
    loop {
        next.take_into(&mut frontier);
        if frontier.is_empty() {
            break;
        }
        visited.clear_all(); // line 20
        iterations += 1;
        assert!(
            iterations < 1_000_000,
            "incremental compute did not quiesce after {iterations} rounds; \
             frontier has {} vertices (e.g. {:?})",
            frontier.len(),
            &frontier[..frontier.len().min(5)]
        );
        process(&frontier, &visited, &next);
    }

    IncOutcome {
        iterations,
        recomputed: recomputed.load(Ordering::Relaxed),
        triggered: triggered.load(Ordering::Relaxed),
        repaired: 0,
    }
}

/// Computes the set of vertices whose stored property may (transitively)
/// depend on one of the `deleted` edges — the KickStarter-style tag
/// closure. Must run **after** the deletions are applied to `graph` but
/// **before** any value is modified: the closure walks surviving edges
/// but judges derivability against the pre-repair values.
///
/// Seeds are the deleted edges' destinations (and sources too, for
/// symmetric-scope programs and undirected graphs, where values flow both
/// ways). A vertex already holding its initial value cannot be stale and
/// is never tagged — this keeps cascades out of unreached regions and
/// anchors CC/MC label components at their label owner. From a tagged
/// vertex `u`, a neighbor `nb` joins the closure when
/// [`VertexProgram::derives_from`] says `nb`'s value could have come from
/// `u`'s across the connecting edge's stored weight.
///
/// Returns the tagged vertices, or `Err(tagged_so_far)` once the closure
/// exceeds `limit` — the signal that from-scratch recomputation is the
/// cheaper path. The value store is never modified here.
pub fn plan_deletion_repair<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    deleted: &[Edge],
    limit: usize,
) -> Result<Vec<Node>, usize> {
    let n = graph.capacity();
    let symmetric = program.scope() == EdgeScope::Symmetric || !graph.is_directed();
    let mut tagged = vec![false; n];
    let mut queue: Vec<Node> = Vec::new();
    let mut order: Vec<Node> = Vec::new();
    let tag = |v: Node, tagged: &mut Vec<bool>, queue: &mut Vec<Node>, order: &mut Vec<Node>| {
        let i = v as usize;
        if i < n && !tagged[i] && values.load(i) != program.initial(v, n) {
            tagged[i] = true;
            queue.push(v);
            order.push(v);
        }
    };
    for e in deleted {
        // Endpoints are tagged unconditionally (beyond the initial-value
        // check): the batch edge's weight may differ from the weight that
        // was stored, so a derives_from test against it would be unsound.
        tag(e.dst, &mut tagged, &mut queue, &mut order);
        if symmetric {
            tag(e.src, &mut tagged, &mut queue, &mut order);
        }
    }
    while let Some(u) = queue.pop() {
        if order.len() > limit {
            return Err(order.len());
        }
        let u_val = values.load(u as usize);
        let mut visit = |nb: Node, w: f32| {
            let i = nb as usize;
            if !tagged[i]
                && values.load(i) != program.initial(nb, n)
                && program.derives_from(values.load(i), u_val, w)
            {
                tagged[i] = true;
                queue.push(nb);
                order.push(nb);
            }
        };
        graph.for_each_out_neighbor(u, &mut |nb, w| visit(nb, w));
        if symmetric && graph.is_directed() {
            graph.for_each_in_neighbor(u, &mut |nb, w| visit(nb, w));
        }
    }
    if order.len() > limit {
        return Err(order.len());
    }
    Ok(order)
}

/// [`incremental_compute`] for a batch that may carry deletions.
///
/// For programs where deletions cannot strand stale state
/// ([`VertexProgram::needs_deletion_repair`] is false, i.e. PageRank) or
/// when `deleted` is empty, this is exactly the plain incremental phase.
/// Otherwise the repair closure is planned first
/// ([`plan_deletion_repair`]); if it stays within `repair_limit`, the
/// tagged vertices are reset to their initial values and appended to the
/// affected set, so the normal trigger/propagate rounds reseed them from
/// surviving in-neighbors. On overflow the store is left untouched and
/// [`DeletionOutcome::CascadeOverflow`] tells the caller to fall back to
/// from-scratch recomputation.
#[allow(clippy::too_many_arguments)] // mirrors incremental_compute + deletion inputs
pub fn incremental_compute_with_deletions<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    affected: &[Node],
    new_vertices: &[Node],
    deleted: &[Edge],
    repair_limit: usize,
    pool: &ThreadPool,
) -> DeletionOutcome {
    if deleted.is_empty() || !program.needs_deletion_repair() {
        return DeletionOutcome::Done(incremental_compute(
            program,
            graph,
            values,
            affected,
            new_vertices,
            pool,
        ));
    }
    let repair_span = saga_trace::span!("repair", deleted = deleted.len() as u64);
    let tagged = match plan_deletion_repair(program, graph, values, deleted, repair_limit) {
        Ok(tagged) => tagged,
        Err(count) => {
            drop(repair_span);
            saga_trace::instant!("repair-overflow", tagged = count as u64);
            return DeletionOutcome::CascadeOverflow { tagged: count };
        }
    };
    let n = graph.capacity();
    for &v in &tagged {
        values.store(v as usize, program.initial(v, n));
    }
    drop(repair_span);
    let mut seeds = Vec::with_capacity(affected.len() + tagged.len());
    seeds.extend_from_slice(affected);
    seeds.extend_from_slice(&tagged);
    let mut outcome = incremental_compute(program, graph, values, &seeds, new_vertices, pool);
    outcome.repaired = tagged.len();
    DeletionOutcome::Done(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::sssp::SsspProgram;
    use crate::sswp::SswpProgram;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    #[test]
    fn empty_affected_set_is_a_noop() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        let program = BfsProgram::new(0);
        let store = <BfsProgram as VertexProgram>::Store::create(4, u32::MAX);
        store.store(0, 0);
        let out = incremental_compute(&program, g.as_ref(), &store, &[], &[], &pool);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.recomputed, 0);
        assert_eq!(out.triggered, 0);
    }

    #[test]
    fn propagates_along_a_path() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 5, true, 1);
        g.update_batch(
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 4, 1.0),
            ],
            &pool,
        );
        let program = BfsProgram::new(0);
        let store = <BfsProgram as VertexProgram>::Store::create(5, u32::MAX);
        store.store(0, 0);
        let affected: Vec<Node> = vec![0, 1, 2, 3, 4];
        let out = incremental_compute(&program, g.as_ref(), &store, &affected, &[], &pool);
        assert_eq!(store.load(4), 4);
        assert!(out.iterations >= 2, "chain must propagate over rounds");
        assert!(out.recomputed >= 5);
    }

    #[test]
    fn duplicate_affected_entries_are_recomputed_once() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        g.update_batch(&[Edge::new(0, 1, 1.0)], &pool);
        let program = BfsProgram::new(0);
        let store = <BfsProgram as VertexProgram>::Store::create(4, u32::MAX);
        store.store(0, 0);
        store.store(1, 1);
        // Vertex 1 appears four times (e.g. four batch edges shared the
        // endpoint); it must be evaluated once, not four times.
        let out = incremental_compute(&program, g.as_ref(), &store, &[1, 1, 1, 1], &[], &pool);
        assert_eq!(out.recomputed, 1);
        assert_eq!(out.iterations, 1, "no change, so no propagation rounds");
    }

    fn path_graph(
        pool: &ThreadPool,
        n: usize,
    ) -> Box<dyn saga_graph::DeletableGraph> {
        let g = saga_graph::build_deletable_graph(
            DataStructureKind::AdjacencyShared,
            n,
            true,
            pool.threads(),
        );
        let edges: Vec<Edge> = (0..n as Node - 1).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        g.update_batch(&edges, pool);
        g
    }

    #[test]
    fn deletion_repair_resets_the_downstream_cascade() {
        let pool = ThreadPool::new(2);
        let n = 8;
        let g = path_graph(&pool, n);
        let program = BfsProgram::new(0);
        let store = <BfsProgram as VertexProgram>::Store::create(n, 0);
        for v in 0..n {
            store.store(v, v as u32); // converged depths on the path
        }
        // Cut 3 -> 4: vertices 4..8 must lose their depths.
        let cut = [Edge::new(3, 4, 1.0)];
        g.delete_batch(&cut, &pool);
        let plan =
            plan_deletion_repair(&program, g.as_ref(), &store, &cut, 1_000).unwrap();
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![4, 5, 6, 7], "exactly the stranded suffix");
        let out = incremental_compute_with_deletions(
            &program,
            g.as_ref(),
            &store,
            &[3, 4],
            &[],
            &cut,
            1_000,
            &pool,
        );
        match out {
            DeletionOutcome::Done(o) => assert_eq!(o.repaired, 4),
            other => panic!("expected Done, got {other:?}"),
        }
        for v in 4..n {
            assert_eq!(store.load(v), crate::bfs::UNREACHED, "vertex {v}");
        }
        for v in 0..4 {
            assert_eq!(store.load(v), v as u32, "vertex {v} untouched");
        }
    }

    #[test]
    fn cascade_overflow_leaves_values_untouched() {
        let pool = ThreadPool::new(2);
        let n = 8;
        let g = path_graph(&pool, n);
        let program = BfsProgram::new(0);
        let store = <BfsProgram as VertexProgram>::Store::create(n, 0);
        for v in 0..n {
            store.store(v, v as u32);
        }
        let cut = [Edge::new(1, 2, 1.0)];
        g.delete_batch(&cut, &pool);
        // The stranded suffix has 6 vertices; a limit of 2 must trip.
        let out = incremental_compute_with_deletions(
            &program,
            g.as_ref(),
            &store,
            &[1, 2],
            &[],
            &cut,
            2,
            &pool,
        );
        match out {
            DeletionOutcome::CascadeOverflow { tagged } => assert!(tagged > 2),
            other => panic!("expected overflow, got {other:?}"),
        }
        for v in 0..n {
            assert_eq!(store.load(v), v as u32, "store must be unmodified");
        }
    }

    /// Converges `program` on `0 → 1 → 2 → 3` plus the shortcut `0 → 3`
    /// beside the unreached region `4 → 5 → 6 → 1`, then deletes `1 → 2`,
    /// the bordering `6 → 1` and the unreached `5 → 6`. The plan must tag
    /// exactly `want`, and INC must then agree with FS.
    fn repair_beside_an_unreached_region<P: VertexProgram>(program: P, want: &[Node]) {
        let pool = ThreadPool::new(2);
        let n = 7;
        let e = Edge::new;
        let g = saga_graph::build_deletable_graph(DataStructureKind::AdjacencyShared, n, true, 2);
        let reached = [e(0, 1, 1.5), e(1, 2, 2.0), e(2, 3, 1.0), e(0, 3, 9.0)];
        g.update_batch(&reached, &pool);
        g.update_batch(&[e(4, 5, 1.0), e(5, 6, 1.0), e(6, 1, 1.0)], &pool);
        let converged = |store: &P::Store| {
            crate::fs::reset_values(&program, store, n, &pool);
            program.from_scratch(g.as_ref(), store, &pool);
        };
        let store = P::Store::create(n, program.initial(0, n));
        converged(&store);
        let cut = [e(1, 2, 2.0), e(6, 1, 1.0), e(5, 6, 1.0)];
        g.delete_batch(&cut, &pool);
        let mut tagged = plan_deletion_repair(&program, g.as_ref(), &store, &cut, n).unwrap();
        tagged.sort_unstable();
        assert_eq!(tagged, want, "{}", program.name());
        let out = incremental_compute_with_deletions(
            &program, g.as_ref(), &store, &[1, 2, 6], &[], &cut, n, &pool,
        );
        assert!(matches!(out, DeletionOutcome::Done(o) if o.repaired == want.len()));
        let fs = P::Store::create(n, program.initial(0, n));
        converged(&fs);
        let values = |s: &P::Store| (0..n).map(|v| s.load(v)).collect::<Vec<_>>();
        assert_eq!(values(&store), values(&fs), "{}: INC vs FS", program.name());
    }

    #[test]
    fn repair_beside_an_unreached_region_tags_only_what_derives() {
        // A source that contributes nothing derives nothing, although
        // `UNREACHED == UNREACHED + 1` (saturating), `∞ == ∞ + w` and
        // `0 == min(0, w)` hold. The plan skips initial-valued vertices
        // before it asks, so that edge never changes which vertices it tags.
        let unreached = crate::bfs::UNREACHED;
        assert!(!BfsProgram::new(0).derives_from(unreached, unreached, 1.0));
        assert!(!SsspProgram::new(0).derives_from(f32::INFINITY, f32::INFINITY, 1.0));
        assert!(!SswpProgram::new(0).derives_from(0.0, 0.0, 1.0));
        // Vertex 1 is the bordering edge's endpoint (tagged unconditionally);
        // only SSSP's distance of 3 derives from 2 (1.5 + 2 + 1 < 9).
        repair_beside_an_unreached_region(BfsProgram::new(0), &[1, 2]);
        repair_beside_an_unreached_region(SsspProgram::new(0), &[1, 2, 3]);
        repair_beside_an_unreached_region(SswpProgram::new(0), &[1, 2]);
    }

    #[test]
    fn repair_skips_initial_valued_vertices() {
        let pool = ThreadPool::new(1);
        let n = 4;
        let g = path_graph(&pool, n);
        let program = BfsProgram::new(0);
        // Nothing reached yet except the root: deleting an edge inside the
        // unreached region must not cascade at all.
        let store = <BfsProgram as VertexProgram>::Store::create(n, u32::MAX);
        store.store(0, 0);
        let cut = [Edge::new(1, 2, 1.0)];
        g.delete_batch(&cut, &pool);
        let plan =
            plan_deletion_repair(&program, g.as_ref(), &store, &cut, 1_000).unwrap();
        assert!(plan.is_empty(), "unreached vertices are never stale");
    }
}
