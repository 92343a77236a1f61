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
//! (in [`incremental_compute`]): monotone `combine` only ever
//! improves values, so a stored property that depended on a removed edge
//! would survive forever. Every vertex of a [`GatherMode::Fold`] program
//! keeps one *witness parent* — the neighbor whose term last strictly
//! improved it, KickStarter's dependence tree. The repair resets the
//! subtrees of that forest that hung off the deleted edges to the
//! program's initial values and reseeds them from surviving in-neighbors
//! through the normal trigger rounds — falling back to from-scratch
//! recomputation when they exceed a size threshold.
//!
//! [`GatherMode::Fold`]: crate::program::GatherMode::Fold

use crate::program::{fold_pull, EdgeScope, GatherMode, ValueStore, VertexProgram};
use crate::ComputeOutcome;
use saga_graph::properties::AtomicU32Array;
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::bitvec::AtomicBitVec;
use saga_utils::frontier::FlatFrontier;
use saga_utils::parallel::{adaptive_grain, Schedule, ThreadPool};
use saga_utils::prefetch::PREFETCH_DISTANCE;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};

/// The witness parent of a vertex that has none: it holds its initial value.
pub const NO_PARENT: Node = u32::MAX;

/// Algorithm 1's rounds: recompute `affected`, then propagate significant
/// changes through `visited`-guarded frontier queues until quiescence.
/// `new_vertices` are vertices appearing in the stream for the first time;
/// they are reset to the program's initial value (lines 2–4). With
/// `parents`, every value a round improves also records its witness
/// ([`fold_pull`]).
fn rounds<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    parents: Option<&AtomicU32Array>,
    affected: &[Node],
    new_vertices: &[Node],
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    // Lines 2–4: initialize vertices entering the graph this batch.
    pool.parallel_for(0..new_vertices.len(), Schedule::Static, |i| {
        let v = new_vertices[i];
        values.store(v as usize, program.initial(v, n));
        if let Some(parents) = parents {
            parents.set(v as usize, NO_PARENT);
        }
    });

    let mut visited = AtomicBitVec::new(n);
    let mut next = FlatFrontier::new(n);
    let recomputed = AtomicUsize::new(0);
    let triggered = AtomicUsize::new(0);

    let process = |frontier: &[Node], visited: &AtomicBitVec, next: &FlatFrontier| {
        if frontier.is_empty() {
            return;
        }
        let grain = adaptive_grain(frontier.len(), pool.threads());
        let cursor = AtomicUsize::new(0);
        pool.run_on_all(|_| {
            // Each worker tallies its own evaluations and adds them to the
            // shared counters once per round: a counter bumped per vertex
            // is one contended cache line per evaluation.
            let (mut evaluated, mut fired) = (0, 0);
            loop {
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= frontier.len() {
                    break;
                }
                for i in start..(start + grain).min(frontier.len()) {
                    if let Some(&ahead) = frontier.get(i + PREFETCH_DISTANCE) {
                        values.prefetch_hint(ahead as usize);
                    }
                    let v = frontier[i];
                    evaluated += 1;
                    // Lines 9–10: re-calculate the vertex function.
                    let old = values.load(v as usize);
                    let (new, witness) = match parents {
                        Some(_) => fold_pull(program, graph, v, values),
                        None => (program.combine(old, program.pull(graph, v, values)), NO_PARENT),
                    };
                    if new != old {
                        values.store(v as usize, new);
                        if let Some(parents) = parents {
                            parents.set(v as usize, witness);
                        }
                    }
                    // Lines 11–15: trigger out-neighbors on significant change.
                    if program.significant_change(old, new) {
                        fired += 1;
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
                }
            }
            recomputed.fetch_add(evaluated, Ordering::Relaxed);
            triggered.fetch_add(fired, Ordering::Relaxed);
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

    ComputeOutcome {
        iterations,
        recomputed: recomputed.load(Ordering::Relaxed),
        triggered: triggered.load(Ordering::Relaxed),
        ..ComputeOutcome::default()
    }
}

/// Computes the set of vertices whose stored property may depend on one
/// of the `deleted` edges: the subtrees of the witness forest `parents`
/// that hung off them. Must run **after** the deletions are applied to
/// `graph`; it reads only the forest and the surviving edges.
///
/// A deleted edge's destination is tagged when the edge was its witness
/// (`parents[dst] == src`; for symmetric-scope programs and undirected
/// graphs, where values flow both ways, the source too when
/// `parents[src] == dst`). The walk then descends the forest: from a
/// tagged `x`, every neighbor `y` with `parents[y] == x` joins. Every
/// vertex off its initial value has a witness whose own chain ends at an
/// initial-valued vertex, so the untagged values keep a derivation that
/// avoids every deleted edge — and an edge that was not a witness resets
/// nothing.
///
/// Returns the tagged vertices, or `Err(tagged_so_far)` once they exceed
/// `limit` — the signal that from-scratch recomputation is the cheaper
/// path. Neither the values nor the forest is modified here.
pub fn plan_deletion_repair<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    parents: &AtomicU32Array,
    deleted: &[Edge],
    limit: usize,
) -> Result<Vec<Node>, usize> {
    let n = graph.capacity();
    let symmetric = program.scope() == EdgeScope::Symmetric || !graph.is_directed();
    let mut tagged = vec![false; n];
    let mut order: Vec<Node> = Vec::new();
    let tag_child = |child: Node, parent: Node, tagged: &mut [bool], order: &mut Vec<Node>| {
        let i = child as usize;
        if i < n && !tagged[i] && parents.get(i) == parent {
            tagged[i] = true;
            order.push(child);
        }
    };
    for e in deleted {
        tag_child(e.dst, e.src, &mut tagged, &mut order);
        if symmetric {
            tag_child(e.src, e.dst, &mut tagged, &mut order);
        }
    }
    // `order` doubles as the walk's queue.
    let mut next = 0;
    while let Some(&x) = order.get(next) {
        if order.len() > limit {
            return Err(order.len());
        }
        next += 1;
        let mut child = |y: Node, _| tag_child(y, x, &mut tagged, &mut order);
        graph.for_each_out_neighbor(x, &mut child);
        if symmetric && graph.is_directed() {
            graph.for_each_in_neighbor(x, &mut child);
        }
    }
    if order.len() > limit {
        return Err(order.len());
    }
    Ok(order)
}

/// Derives the witness forest of converged `values` afresh — after a
/// from-scratch run, which leaves no witnesses behind. Every vertex pulls
/// its parent over derivation edges ([`VertexProgram::derives_from`]),
/// stopping at the first that qualifies, on the pool:
///
/// 1. A vertex holding its initial value is a root. Any other vertex takes
///    a neighbor that derives it from a strictly different (so better)
///    value, or a root that derives it. BFS and SSSP settle here: their
///    terms always worsen the source.
/// 2. What is left derives only from equal values (CC and MC labels, an
///    SSWP path whose bottleneck lies upstream). Level by level, each
///    takes a deriving neighbor anchored (given a parent, or a root) in an
///    earlier level: the first level pulls, the later ones push from the
///    vertices the previous level anchored — a BFS over derivation edges.
///
/// No cycle can form: a parent's value is never worse than its child's, a
/// strictly better one cannot lead back, and an equal one was anchored
/// earlier. At a fixpoint every value off its initial one has a
/// derivation chain back to an initial value, so the levels anchor every
/// vertex, one chain link per level.
pub fn rebuild_witness_forest<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    parents: &AtomicU32Array,
    pool: &ThreadPool,
) {
    let n = graph.capacity();
    let both_directions = program.scope() == EdgeScope::Symmetric && graph.is_directed();
    // The first neighbor deriving `v` that `accept`s (its id, its value).
    let witness = |v: Node, accept: &dyn Fn(Node, P::Value) -> bool| {
        let value = values.load(v as usize);
        let mut found = NO_PARENT;
        let mut check = |p: Node, weight: f32| {
            if found == NO_PARENT {
                let p_value = values.load(p as usize);
                if program.derives_from(value, p_value, weight) && accept(p, p_value) {
                    found = p;
                }
            }
        };
        graph.for_each_in_neighbor(v, &mut check);
        if both_directions {
            graph.for_each_out_neighbor(v, &mut check);
        }
        found
    };
    let anchored = AtomicBitVec::new(n);
    let mut pending = FlatFrontier::new(n);
    let grain = adaptive_grain(n, pool.threads()).max(16);
    pool.parallel_for(0..n, Schedule::Dynamic(grain), |v| {
        let value = values.load(v);
        let root = value == program.initial(v as Node, n);
        let parent = if root {
            NO_PARENT
        } else {
            witness(v as Node, &|p, p_value| p_value != value || p_value == program.initial(p, n))
        };
        parents.set(v, parent);
        if root || parent != NO_PARENT {
            anchored.set(v);
        } else {
            pending.push(v as Node);
        }
    });
    let mut unanchored = Vec::new();
    pending.take_into(&mut unanchored);
    if unanchored.is_empty() {
        return;
    }
    // The first equal-value level pulls: each unanchored vertex takes an
    // anchored neighbor that derives it. Later levels push from the
    // vertices the previous level anchored, so each edge is scanned a
    // bounded number of times however deep the chains run.
    let mut next = pending;
    let grain = adaptive_grain(unanchored.len(), pool.threads());
    pool.parallel_for(0..unanchored.len(), Schedule::Dynamic(grain), |i| {
        let y = unanchored[i];
        let p = witness(y, &|p, _| anchored.get(p as usize));
        if p != NO_PARENT {
            parents.set(y as usize, p);
            next.push(y);
        }
    });
    let (mut level, mut placed) = (Vec::new(), 0);
    loop {
        next.take_into(&mut level);
        if level.is_empty() {
            break;
        }
        placed += level.len();
        for &y in &level {
            anchored.set(y as usize);
        }
        let grain = adaptive_grain(level.len(), pool.threads());
        pool.parallel_for(0..level.len(), Schedule::Dynamic(grain), |i| {
            let u = level[i];
            let u_value = values.load(u as usize);
            let mut claim = |y: Node, weight: f32| {
                if !anchored.get(y as usize)
                    && program.derives_from(values.load(y as usize), u_value, weight)
                    && anchored.try_set(y as usize)
                {
                    parents.set(y as usize, u);
                    next.push(y);
                }
            };
            graph.for_each_out_neighbor(u, &mut claim);
            if both_directions {
                graph.for_each_in_neighbor(u, &mut claim);
            }
        });
    }
    assert_eq!(
        placed,
        unanchored.len(),
        "vertices hold values no initial value derives (e.g. {:?})",
        &unanchored[..unanchored.len().min(5)]
    );
}

/// Runs Algorithm 1 over one batch already applied to `graph`: the
/// serial INC model's one entry.
///
/// `affected` are the vertices the update touched
/// ([`AffectedTracker`](crate::AffectedTracker)) and `new_vertices` those
/// appearing for the first time. `parents` is the witness forest of a
/// [`GatherMode::Fold`] program, which the rounds keep current; a
/// [`GatherMode::Sum`] program (PageRank) passes `None`, because its
/// `combine` replaces the old value, so re-pulling the affected set after a
/// deletion already is its full repair.
///
/// With a forest and `deleted` edges, the repair is planned first
/// ([`plan_deletion_repair`]). If it stays within `repair_limit`, the
/// tagged vertices are reset to their initial values (and lose their
/// witnesses) and join the affected set, so the normal trigger/propagate
/// rounds reseed them from surviving in-neighbors. On overflow nothing is
/// touched and the result is `None`: the caller recomputes from scratch
/// (cheaper than resetting and reseeding most of the graph) and then
/// [`rebuild_witness_forest`]s.
#[allow(clippy::too_many_arguments)] // the batch, its graph and the INC state
pub fn incremental_compute<P: VertexProgram>(
    program: &P,
    graph: &dyn GraphTopology,
    values: &P::Store,
    parents: Option<&AtomicU32Array>,
    affected: &[Node],
    new_vertices: &[Node],
    deleted: &[Edge],
    repair_limit: usize,
    pool: &ThreadPool,
) -> Option<ComputeOutcome> {
    debug_assert!(
        parents.is_some() || deleted.is_empty() || program.gather_mode() == GatherMode::Sum,
        "{}: a fold program repairs deletions through its witness forest",
        program.name()
    );
    let Some(forest) = parents.filter(|_| !deleted.is_empty()) else {
        return Some(rounds(program, graph, values, parents, affected, new_vertices, pool));
    };
    let repair_span = saga_trace::span!("repair", deleted = deleted.len() as u64);
    let tagged = match plan_deletion_repair(program, graph, forest, deleted, repair_limit) {
        Ok(tagged) => tagged,
        Err(count) => {
            drop(repair_span);
            saga_trace::instant!("repair-overflow", tagged = count as u64);
            return None;
        }
    };
    let n = graph.capacity();
    for &v in &tagged {
        values.store(v as usize, program.initial(v, n));
        forest.set(v as usize, NO_PARENT);
    }
    drop(repair_span);
    let mut seeds = Vec::with_capacity(affected.len() + tagged.len());
    seeds.extend_from_slice(affected);
    seeds.extend_from_slice(&tagged);
    let outcome = rounds(program, graph, values, parents, &seeds, new_vertices, pool);
    Some(ComputeOutcome { repaired: tagged.len(), ..outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::cc::CcProgram;
    use crate::mc::McProgram;
    use crate::sssp::SsspProgram;
    use crate::sswp::SswpProgram;
    use saga_graph::{build_graph, DataStructureKind, Edge};

    /// An insert-only batch of BFS without a witness forest.
    fn bfs_rounds(
        g: &dyn GraphTopology,
        store: &AtomicU32Array,
        affected: &[Node],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        let program = BfsProgram::new(0);
        incremental_compute(&program, g, store, None, affected, &[], &[], 0, pool)
            .expect("no deletions, so no overflow")
    }

    #[test]
    fn empty_affected_set_is_a_noop() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        let store = <BfsProgram as VertexProgram>::Store::create(4, u32::MAX);
        store.store(0, 0);
        let out = bfs_rounds(g.as_ref(), &store, &[], &pool);
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
        let store = <BfsProgram as VertexProgram>::Store::create(5, u32::MAX);
        store.store(0, 0);
        let affected: Vec<Node> = vec![0, 1, 2, 3, 4];
        let out = bfs_rounds(g.as_ref(), &store, &affected, &pool);
        assert_eq!(store.load(4), 4);
        assert!(out.iterations >= 2, "chain must propagate over rounds");
        assert!(out.recomputed >= 5);
    }

    #[test]
    fn duplicate_affected_entries_are_recomputed_once() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        g.update_batch(&[Edge::new(0, 1, 1.0)], &pool);
        let store = <BfsProgram as VertexProgram>::Store::create(4, u32::MAX);
        store.store(0, 0);
        store.store(1, 1);
        // Vertex 1 appears four times (e.g. four batch edges shared the
        // endpoint); it must be evaluated once, not four times.
        let out = bfs_rounds(g.as_ref(), &store, &[1, 1, 1, 1], &pool);
        assert_eq!(out.recomputed, 1);
        assert_eq!(out.iterations, 1, "no change, so no propagation rounds");
    }

    /// A fresh INC state of `program` over `n` vertices: initial values, no
    /// witnesses.
    fn fresh<P: VertexProgram>(program: &P, n: usize) -> (P::Store, AtomicU32Array) {
        let store = P::Store::create(n, program.initial(0, n));
        for v in 1..n {
            store.store(v, program.initial(v as Node, n));
        }
        (store, AtomicU32Array::filled(n, NO_PARENT))
    }

    /// An empty deletable AS graph built for 2 workers.
    fn build(n: usize, directed: bool) -> Box<dyn saga_graph::DeletableGraph> {
        saga_graph::build_deletable_graph(DataStructureKind::AdjacencyShared, n, directed, 2)
    }

    /// Converges a fresh INC state on `g` through the rounds, which grow
    /// the witness forest as they go.
    fn converged_by_rounds<P: VertexProgram>(
        program: &P,
        g: &dyn GraphTopology,
        pool: &ThreadPool,
    ) -> (P::Store, AtomicU32Array) {
        let n = g.capacity();
        let (store, parents) = fresh(program, n);
        let all: Vec<Node> = (0..n as Node).collect();
        let out = incremental_compute(program, g, &store, Some(&parents), &all, &[], &[], n, pool);
        assert!(out.is_some());
        (store, parents)
    }

    /// The forest's invariant: an initial-valued vertex has no parent; any
    /// other vertex has a neighbor parent that derives its value across a
    /// live edge, and its parent chain ends at an initial-valued vertex.
    fn assert_forest_sound<P: VertexProgram>(
        program: &P,
        g: &dyn GraphTopology,
        store: &P::Store,
        parents: &AtomicU32Array,
    ) {
        let n = g.capacity();
        let both = program.scope() == EdgeScope::Symmetric && g.is_directed();
        for v in 0..n {
            let (value, parent) = (store.load(v), parents.get(v));
            if value == program.initial(v as Node, n) {
                assert_eq!(parent, NO_PARENT, "{}: root {v} has a parent", program.name());
                continue;
            }
            let mut derived = false;
            let mut check = |src: Node, w: f32| {
                let src_value = store.load(src as usize);
                derived |= src == parent && program.derives_from(value, src_value, w);
            };
            g.for_each_in_neighbor(v as Node, &mut check);
            if both {
                g.for_each_out_neighbor(v as Node, &mut check);
            }
            let name = program.name();
            assert!(derived, "{name}: vertex {v} ({value:?}) has no live witness {parent}");
            let (mut at, mut steps) = (v, 0);
            while parents.get(at) != NO_PARENT {
                at = parents.get(at) as usize;
                steps += 1;
                assert!(steps <= n, "{}: parent chain from {v} cycles", program.name());
            }
        }
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
        let (store, parents) = converged_by_rounds(&program, g.as_ref(), &pool);
        for v in 0..n {
            assert_eq!(store.load(v), v as u32, "converged depths on the path");
        }
        // Cut 3 -> 4: vertices 4..8 must lose their depths.
        let cut = [Edge::new(3, 4, 1.0)];
        g.delete_batch(&cut, &pool);
        let plan = plan_deletion_repair(&program, g.as_ref(), &parents, &cut, 1_000).unwrap();
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![4, 5, 6, 7], "exactly the stranded suffix");
        let out = incremental_compute(
            &program,
            g.as_ref(),
            &store,
            Some(&parents),
            &[3, 4],
            &[],
            &cut,
            1_000,
            &pool,
        );
        assert_eq!(out.map(|o| o.repaired), Some(4));
        for v in 4..n {
            assert_eq!(store.load(v), crate::bfs::UNREACHED, "vertex {v}");
            assert_eq!(parents.get(v), NO_PARENT, "vertex {v} lost its witness");
        }
        for v in 0..4 {
            assert_eq!(store.load(v), v as u32, "vertex {v} untouched");
        }
        assert_forest_sound(&program, g.as_ref(), &store, &parents);
    }

    #[test]
    fn cascade_overflow_leaves_values_untouched() {
        let pool = ThreadPool::new(2);
        let n = 8;
        let g = path_graph(&pool, n);
        let program = BfsProgram::new(0);
        let (store, parents) = converged_by_rounds(&program, g.as_ref(), &pool);
        let cut = [Edge::new(1, 2, 1.0)];
        g.delete_batch(&cut, &pool);
        // The stranded suffix has 6 vertices; a limit of 2 must trip.
        let planned = plan_deletion_repair(&program, g.as_ref(), &parents, &cut, 2);
        assert!(matches!(planned, Err(tagged) if tagged > 2), "{planned:?}");
        let out = incremental_compute(
            &program,
            g.as_ref(),
            &store,
            Some(&parents),
            &[1, 2],
            &[],
            &cut,
            2,
            &pool,
        );
        assert_eq!(out, None, "an overflow leaves the batch to FS");
        for v in 0..n {
            assert_eq!(store.load(v), v as u32, "store must be unmodified");
            assert_eq!(parents.get(v), v.checked_sub(1).map_or(NO_PARENT, |p| p as Node));
        }
    }

    #[test]
    fn deleting_a_non_witness_edge_resets_nothing_and_a_witness_edge_its_subtree() {
        // 0 -> {1, 2} -> 3 -> 4 and 1 -> 5: vertex 3 has two in-neighbors
        // at depth 1, and exactly one of them is its witness.
        let pool = ThreadPool::new(2);
        let program = BfsProgram::new(0);
        let e = Edge::new;
        let edges =
            [e(0, 1, 1.0), e(0, 2, 1.0), e(1, 3, 1.0), e(2, 3, 1.0), e(3, 4, 1.0), e(1, 5, 1.0)];
        let depths = [0, 1, 1, 2, 3, 2];
        for cut_the_witness in [false, true] {
            let g = build(6, true);
            g.update_batch(&edges, &pool);
            let (store, parents) = converged_by_rounds(&program, g.as_ref(), &pool);
            let witness = parents.get(3);
            assert!(witness == 1 || witness == 2, "3's witness is an in-neighbor: {witness}");
            let other = 3 - witness;
            let cut = e(if cut_the_witness { witness } else { other }, 3, 1.0);
            g.delete_batch(&[cut], &pool);
            let mut plan = plan_deletion_repair(&program, g.as_ref(), &parents, &[cut], 6).unwrap();
            plan.sort_unstable();
            let out = incremental_compute(
                &program, g.as_ref(), &store, Some(&parents), &[cut.src, 3], &[], &[cut], 6, &pool,
            );
            assert_eq!(out.map(|o| o.repaired), Some(plan.len()));
            let values: Vec<u32> = (0..6).map(|v| store.load(v)).collect();
            assert_eq!(values, depths, "3 keeps or re-derives depth 2");
            if cut_the_witness {
                assert_eq!(plan, vec![3, 4], "exactly 3's subtree; 5 hangs off 1 and stays");
                assert_eq!(parents.get(3), other, "3 re-derives from the other in-neighbor");
                assert_eq!((parents.get(4), parents.get(5)), (3, 1));
            } else {
                assert!(plan.is_empty(), "a non-witness edge resets nothing: {plan:?}");
                assert_eq!(parents.get(3), witness);
            }
            assert_forest_sound(&program, g.as_ref(), &store, &parents);
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
        let g = build(n, true);
        let reached = [e(0, 1, 1.5), e(1, 2, 2.0), e(2, 3, 1.0), e(0, 3, 9.0)];
        g.update_batch(&reached, &pool);
        g.update_batch(&[e(4, 5, 1.0), e(5, 6, 1.0), e(6, 1, 1.0)], &pool);
        let (store, parents) = fresh(&program, n);
        let converged = |store: &P::Store| {
            crate::fs::reset_values(&program, store, n, &pool);
            program.from_scratch(g.as_ref(), store, &pool);
        };
        converged(&store);
        rebuild_witness_forest(&program, g.as_ref(), &store, &parents, &pool);
        assert_forest_sound(&program, g.as_ref(), &store, &parents);
        let cut = [e(1, 2, 2.0), e(6, 1, 1.0), e(5, 6, 1.0)];
        g.delete_batch(&cut, &pool);
        let mut tagged = plan_deletion_repair(&program, g.as_ref(), &parents, &cut, n).unwrap();
        tagged.sort_unstable();
        assert_eq!(tagged, want, "{}", program.name());
        let out = incremental_compute(
            &program, g.as_ref(), &store, Some(&parents), &[1, 2, 6], &[], &cut, n, &pool,
        );
        assert_eq!(out.map(|o| o.repaired), Some(want.len()));
        let (fs, _) = fresh(&program, n);
        converged(&fs);
        let values = |s: &P::Store| (0..n).map(|v| s.load(v)).collect::<Vec<_>>();
        assert_eq!(values(&store), values(&fs), "{}: INC vs FS", program.name());
        assert_forest_sound(&program, g.as_ref(), &store, &parents);
    }

    #[test]
    fn repair_beside_an_unreached_region_tags_only_what_derives() {
        // A source that contributes nothing derives nothing, although
        // `UNREACHED == UNREACHED + 1` (saturating), `∞ == ∞ + w` and
        // `0 == min(0, w)` hold, so the rebuilt forest hangs nothing off
        // the unreached region.
        let unreached = crate::bfs::UNREACHED;
        assert!(!BfsProgram::new(0).derives_from(unreached, unreached, 1.0));
        assert!(!SsspProgram::new(0).derives_from(f32::INFINITY, f32::INFINITY, 1.0));
        assert!(!SswpProgram::new(0).derives_from(0.0, 0.0, 1.0));
        // The bordering 6 → 1 was never 1's witness, so only 1 → 2 tags:
        // vertex 2, plus 3 where its value came through 2 (SSSP's distance
        // of 4.5 beats the shortcut's 9; BFS and SSWP take the shortcut).
        repair_beside_an_unreached_region(BfsProgram::new(0), &[2]);
        repair_beside_an_unreached_region(SsspProgram::new(0), &[2, 3]);
        repair_beside_an_unreached_region(SswpProgram::new(0), &[2]);
    }

    #[test]
    fn repair_skips_initial_valued_vertices() {
        let pool = ThreadPool::new(1);
        let n = 4;
        let g = path_graph(&pool, n);
        let program = BfsProgram::new(0);
        // Nothing reached yet except the root: deleting an edge inside the
        // unreached region must not cascade at all.
        let (_, parents) = fresh(&program, n);
        let cut = [Edge::new(1, 2, 1.0)];
        g.delete_batch(&cut, &pool);
        let plan = plan_deletion_repair(&program, g.as_ref(), &parents, &cut, 1_000).unwrap();
        assert!(plan.is_empty(), "unreached vertices are never stale");
    }

    /// Seeded churn over every Fold program, directed and undirected: after
    /// each batch INC equals FS and the forest the rounds maintain is sound;
    /// the forest rebuilt from FS's values is sound too.
    fn forest_stays_sound_under_churn<P: VertexProgram>(program: P) {
        let pool = ThreadPool::new(2);
        let n = 64;
        for directed in [true, false] {
            let g = build(n, directed);
            let (store, parents) = fresh(&program, n);
            let mut live: Vec<Edge> = Vec::new();
            for batch in 0..12u64 {
                let edge = |i: u64| {
                    let r = saga_utils::hash::mix64(batch * 1_000 + i);
                    let (s, d) = ((r >> 8) % n as u64, (r >> 32) % n as u64);
                    // A function of the endpoints, so a re-insert agrees.
                    Edge::new(s as Node, d as Node, 1.0 + ((s + d) % 8) as f32)
                };
                let inserts: Vec<Edge> = (0..24).map(edge).collect();
                let deletes: Vec<Edge> = live.iter().copied().step_by(3).take(6).collect();
                g.update_batch(&inserts, &pool);
                g.delete_batch(&deletes, &pool);
                live.extend(&inserts);
                live.retain(|e| !deletes.iter().any(|d| (d.src, d.dst) == (e.src, e.dst)));
                let affected: Vec<Node> =
                    inserts.iter().chain(&deletes).flat_map(|e| [e.src, e.dst]).collect();
                let forest = Some(&parents);
                let out = incremental_compute(
                    &program, g.as_ref(), &store, forest, &affected, &[], &deletes, n, &pool,
                );
                assert!(out.is_some());
                assert_forest_sound(&program, g.as_ref(), &store, &parents);
                let (fs, rebuilt) = fresh(&program, n);
                program.from_scratch(g.as_ref(), &fs, &pool);
                let values = |s: &P::Store| (0..n).map(|v| s.load(v)).collect::<Vec<_>>();
                assert_eq!(values(&store), values(&fs), "{} batch {batch}", program.name());
                rebuild_witness_forest(&program, g.as_ref(), &fs, &rebuilt, &pool);
                assert_forest_sound(&program, g.as_ref(), &fs, &rebuilt);
            }
        }
    }

    #[test]
    fn witness_forest_stays_sound_under_churn_and_rebuild() {
        forest_stays_sound_under_churn(BfsProgram::new(0));
        forest_stays_sound_under_churn(CcProgram::new());
        forest_stays_sound_under_churn(McProgram::new());
        forest_stays_sound_under_churn(SsspProgram::new(0));
        forest_stays_sound_under_churn(SswpProgram::new(0));
    }
}
