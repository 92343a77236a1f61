//! PageRank.
//!
//! Table I: `v.rank ← 0.15/|V| + 0.85 · Σ_{e ∈ InEdges(v)} e.source.rank /
//! e.source.out_degree`.
//!
//! PR is the one non-monotone algorithm in the suite: the incremental
//! model's triggering condition is the magnitude test
//! `|old − new| > ε` with `ε = 1e-7` (Algorithm 1, line 11 and its
//! initialization), and INC results are approximate by design.
//!
//! The FS kernel is the conventional iterate-until-tolerance PageRank of
//! GAP (L1-norm stop) as a block Gauss–Seidel sweep: a vertex sees the
//! ranks of earlier vertex blocks already rewritten this sweep, and the
//! result does not depend on the thread count ([`pagerank_from_scratch`]).
//!
//! # The phase-stamped degree cache
//!
//! INC's pull divides by `src.out_degree` once per in-edge, and on every
//! dynamic structure that query takes a lock (AS: the vertex's vector;
//! AC/DAH: the chunk; DeltaCSR: the snapshot lock and the chunk). GAP reads
//! degrees `n` times per iteration, not `m` times, and so do we:
//! [`PrValues`] keeps one packed `(phase, out_degree)` word per vertex
//! beside the ranks. The topology is frozen during a compute phase, so a
//! slot stamped with the current phase is the current degree; every
//! `perform_alg*` call ticks the phase ([`ValueStore::begin_phase`]), which
//! invalidates all slots at once — whatever the batch did, and whichever
//! graph object the next phase runs on. The FS kernel fills every slot up
//! front (`n` queries per phase); INC's pull fills on a miss, **after** its
//! in-edge traversal has returned (the reentrancy rule on
//! [`GraphTopology`]). Inside the traversal a hit is one relaxed load.
//!
//! On a degree-aware hashing graph the degree query is a meta-operation
//! (§V-B). It is now paid once per vertex per phase instead of once per
//! in-edge per iteration, so what is left of "DAH performs particularly
//! poorly in PR" is the traversal itself — the hash-table scans of
//! `for_each_in_neighbor`. DAH stays the slowest of the paper's four
//! structures at FS PageRank in the rig's `lib.fs-sweep`
//! (`results/BENCH_fs_pagerank.json`: DAH 0.29 s per pass, was 0.48 s,
//! against Stinger 0.24 s, AC 0.20 s and AS 0.08 s).

use crate::program::{GatherMode, ValueStore, VertexProgram};
use crate::ComputeOutcome;
use saga_graph::properties::AtomicF64Array;
use saga_graph::{GraphTopology, Node};
use saga_utils::parallel::{adaptive_grain, Schedule, ThreadPool};
use saga_utils::probe;
use saga_utils::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Default damping factor (the paper's 0.85).
pub const DAMPING: f64 = 0.85;
/// Default incremental triggering threshold (the paper's `ε = 1e-7`).
pub const DEFAULT_EPSILON: f64 = 1e-7;
/// Default FS stopping tolerance on the L1 rank change (GAP's default).
pub const DEFAULT_FS_TOLERANCE: f64 = 1e-4;
/// Default FS iteration cap.
pub const DEFAULT_MAX_ITERS: usize = 100;

/// PageRank's property store: the ranks, and beside them the phase-stamped
/// out-degree cache (module docs). Only the ranks are values — snapshots,
/// checkpoints and journals never see the cache.
///
/// Every cache access is `Relaxed`: a slot carries its stamp and its degree
/// in one word, so it publishes nothing but itself (two workers missing on
/// the same vertex store the same word), and the phase changes only between
/// compute phases, reaching the workers through the pool's dispatch lock.
#[derive(Debug)]
pub struct PrValues {
    ranks: AtomicF64Array,
    /// `(phase << 32) | out_degree` per vertex; valid while the stamp equals
    /// `phase`. Stamp 0 is "never filled".
    degrees: Vec<AtomicU64>,
    phase: AtomicU32,
}

impl PrValues {
    /// The out-degree of `v` if it was cached during the current phase.
    #[cfg(test)]
    fn cached_degree(&self, v: Node) -> Option<usize> {
        self.degree_at(v, self.phase.load(Ordering::Relaxed))
    }

    /// Caches `degree` as `v`'s out-degree for the rest of the current phase.
    #[inline]
    fn cache_degree(&self, v: Node, degree: usize) {
        debug_assert!(degree <= u32::MAX as usize, "degrees are bounded by the u32 id space");
        let slot = &self.degrees[v as usize];
        probe::value_write(slot);
        let phase = u64::from(self.phase.load(Ordering::Relaxed));
        slot.store(phase << 32 | degree as u64, Ordering::Relaxed);
    }

    /// The out-degree of `v` if its slot carries `phase` — the current phase,
    /// which the caller loads once per pull, not once per in-edge.
    #[inline]
    fn degree_at(&self, v: Node, phase: u32) -> Option<usize> {
        let slot = &self.degrees[v as usize];
        probe::value_read(slot);
        let word = slot.load(Ordering::Relaxed);
        ((word >> 32) as u32 == phase).then_some(word as u32 as usize)
    }
}

impl ValueStore<f64> for PrValues {
    fn create(len: usize, init: f64) -> Self {
        Self {
            ranks: AtomicF64Array::filled(len, init),
            degrees: (0..len).map(|_| AtomicU64::new(0)).collect(),
            phase: AtomicU32::new(1),
        }
    }

    #[inline]
    fn load(&self, i: usize) -> f64 {
        self.ranks.get(i)
    }

    #[inline]
    fn store(&self, i: usize, value: f64) {
        self.ranks.set(i, value);
    }

    fn len(&self) -> usize {
        self.ranks.len()
    }

    fn prefetch_hint(&self, i: usize) {
        self.ranks.prefetch(i);
    }

    fn begin_phase(&self) {
        let mut next = self.phase.load(Ordering::Relaxed).wrapping_add(1);
        if next == 0 {
            // The 32-bit stamp wrapped: wipe the slots, or a phase number
            // reused 2^32 phases later would revalidate them.
            for slot in &self.degrees {
                slot.store(0, Ordering::Relaxed);
            }
            next = 1;
        }
        self.phase.store(next, Ordering::Relaxed);
    }
}

/// PageRank as a vertex program.
///
/// # Examples
///
/// ```
/// use saga_algorithms::pr::PrProgram;
/// use saga_algorithms::program::{GatherMode, VertexProgram};
///
/// let p = PrProgram::new(100);
/// assert_eq!(p.initial(0, 100), (1.0 - 0.85) / 100.0); // the no-in-edge fixpoint
/// assert_eq!(p.gather_mode(), GatherMode::Sum);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrProgram {
    num_nodes: usize,
    damping: f64,
    epsilon: f64,
    fs_tolerance: f64,
    max_iters: usize,
}

impl PrProgram {
    /// PageRank over a fixed universe of `num_nodes` vertices with default
    /// parameters.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            damping: DAMPING,
            epsilon: DEFAULT_EPSILON,
            fs_tolerance: DEFAULT_FS_TOLERANCE,
            max_iters: DEFAULT_MAX_ITERS,
        }
    }

    /// Overrides the incremental triggering threshold ε (used by the
    /// ablation bench).
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the FS stopping tolerance.
    #[must_use]
    pub fn with_fs_tolerance(mut self, tolerance: f64) -> Self {
        self.fs_tolerance = tolerance;
        self
    }

    /// The triggering threshold ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The FS stopping tolerance on the L1 rank change.
    pub fn fs_tolerance(&self) -> f64 {
        self.fs_tolerance
    }

    /// The FS iteration cap.
    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    /// The damping factor.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// The fixed vertex-universe size this instance ranks over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

impl VertexProgram for PrProgram {
    type Value = f64;
    type Store = PrValues;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn initial(&self, _v: Node, num_nodes: usize) -> f64 {
        // Algorithm 1 line 4 initializes new vertices to 1/|V|, but any
        // vertex that ever appears is recomputed in the same phase, so the
        // only lasting effect of the initial value is on vertices that
        // never appear in the stream. Those have no in-edges and their
        // exact PageRank is the base term — using it keeps the incremental
        // model consistent with from-scratch recomputation over the whole
        // vertex universe.
        (1.0 - self.damping) / num_nodes as f64
    }

    fn term(&self, src_value: f64, _weight: f32, src_out_degree: usize) -> Option<f64> {
        debug_assert!(src_out_degree > 0, "a contributing source has an out-edge");
        Some(src_value / src_out_degree as f64)
    }

    /// The provided fold with the out-degrees read through the phase cache
    /// (module docs), ending in [`finish`](VertexProgram::finish).
    fn pull(&self, graph: &dyn GraphTopology, v: Node, values: &PrValues) -> f64 {
        let phase = values.phase.load(Ordering::Relaxed);
        let term = |src: Node, degree: usize| {
            self.term(values.load(src as usize), 0.0, degree).unwrap_or_default()
        };
        let mut sum = 0.0;
        // A degree missing from the cache cannot be queried from inside the
        // callback: `for_each_in_neighbor` may hold an internal lock, and
        // `out_degree(src)` can need that same lock when `src` shares it
        // with `v` (a self-loop on AS, a shared chunk on AC/DAH) — see the
        // reentrancy note on `GraphTopology`. From the first miss on, the
        // rest of the in-edges wait in `deferred` and are summed after the
        // traversal returns, in traversal order, so the sum is the same
        // floating-point expression with or without misses.
        let mut deferred: Vec<Node> = Vec::new();
        graph.for_each_in_neighbor(v, &mut |src, _| {
            if deferred.is_empty() {
                if let Some(degree) = values.degree_at(src, phase) {
                    sum += term(src, degree);
                    return;
                }
            }
            deferred.push(src);
        });
        for src in deferred {
            let degree = values.degree_at(src, phase).unwrap_or_else(|| {
                let degree = graph.out_degree(src);
                values.cache_degree(src, degree);
                degree
            });
            sum += term(src, degree);
        }
        self.finish(sum)
    }

    fn combine(&self, _old: f64, pulled: f64) -> f64 {
        pulled
    }

    fn significant_change(&self, old: f64, new: f64) -> bool {
        (old - new).abs() > self.epsilon
    }

    fn gather_mode(&self) -> GatherMode {
        GatherMode::Sum
    }

    fn finish(&self, sum: f64) -> f64 {
        (1.0 - self.damping) / self.num_nodes as f64 + self.damping * sum
    }

    /// The one L1 rule of both kernels (FS sweep and BSP superstep).
    fn l1_units(&self, old: f64, new: f64) -> u64 {
        ((new - old).abs() * 1e12) as u64
    }

    fn sum_converged(&self, sweeps: usize, l1_units: u64) -> bool {
        (l1_units as f64 / 1e12) < self.fs_tolerance || sweeps >= self.max_iters
    }

    fn from_scratch(
        &self,
        graph: &dyn GraphTopology,
        values: &PrValues,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        pagerank_from_scratch(self, graph, values, pool)
    }
}

/// Vertex blocks of a [`pagerank_from_scratch`] sweep: fixed, so the ranks
/// never depend on the thread count. More blocks converge in fewer sweeps
/// but pay one pool dispatch each; on a 16K-vertex, 98K-edge R-MAT graph
/// (`lib.fs-sweep`'s shape) it takes 37 sweeps with one block, 27 with 8
/// and 24 with 64.
const SWEEP_BLOCKS: usize = 8;

/// Conventional PageRank from scratch: a block Gauss–Seidel iteration until
/// [`sum_converged`](VertexProgram::sum_converged). `values` must already be
/// reset. Counts its sweeps.
///
/// Every vertex keeps its out-edges' [`term`](VertexProgram::term)
/// (`rank / out_degree`) in one of two contribution arrays. A sweep
/// visits [`SWEEP_BLOCKS`] contiguous vertex blocks in order, all workers
/// on one block at a time; a vertex sums the contributions its earlier
/// blocks wrote this sweep and, for its own and later blocks, those of the
/// previous sweep. So a sweep reads nothing another worker may be writing
/// and the ranks are the same bits under any thread count or interleaving,
/// which the FS-on-CSR oracles rely on. With one block it would be the Jacobi
/// sweep the BSP engine runs under [`GatherMode::Sum`]. Out-degrees are read
/// once per vertex, up front, into the degree cache.
pub fn pagerank_from_scratch(
    program: &PrProgram,
    graph: &dyn GraphTopology,
    values: &PrValues,
    pool: &ThreadPool,
) -> ComputeOutcome {
    let n = graph.capacity();
    pool.parallel_for(0..n, Schedule::Static, |v| {
        values.cache_degree(v as Node, graph.out_degree(v as Node));
    });
    let phase = values.phase.load(Ordering::Relaxed);
    // A vertex without out-edges is nobody's in-neighbor.
    let contribution = |v: usize| match values.degree_at(v as Node, phase) {
        Some(degree) if degree > 0 => {
            program.term(values.load(v), 0.0, degree).unwrap_or_default()
        }
        _ => 0.0,
    };
    let mut previous = AtomicF64Array::filled(n, 0.0);
    let mut current = AtomicF64Array::filled(n, 0.0);
    pool.parallel_for(0..n, Schedule::Static, |v| previous.set(v, contribution(v)));
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        // Accumulate the L1 delta in fixed-point units to stay atomic: each
        // worker sums its own share and adds it in once.
        let delta_units = AtomicU64::new(0);
        for b in 0..SWEEP_BLOCKS {
            let block = b * n / SWEEP_BLOCKS..(b + 1) * n / SWEEP_BLOCKS;
            let sides = [&previous, &current];
            let grain = adaptive_grain(block.len(), pool.threads()).max(16);
            let next = AtomicUsize::new(block.start);
            pool.run_on_all(|_| {
                let mut local = 0u64;
                loop {
                    let start = next.fetch_add(grain, Ordering::Relaxed);
                    if start >= block.end {
                        break;
                    }
                    for v in start..(start + grain).min(block.end) {
                        let mut sum = 0.0;
                        graph.for_each_in_neighbor(v as Node, &mut |src, _| {
                            // Branch-free: the side flips at a random place
                            // in every in-edge list.
                            let side = sides[usize::from((src as usize) < block.start)];
                            sum += side.get(src as usize);
                        });
                        let old = values.load(v);
                        let new = program.finish(sum);
                        if new != old {
                            values.store(v, new);
                            local += program.l1_units(old, new);
                        }
                        current.set(v, contribution(v));
                    }
                }
                delta_units.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::mem::swap(&mut previous, &mut current);
        if program.sum_converged(sweeps, delta_units.load(Ordering::Relaxed)) {
            return ComputeOutcome { iterations: sweeps, ..ComputeOutcome::default() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::reset_values;
    use crate::inc::incremental_compute;
    use crate::{
        AffectedTracker, AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeModelKind,
        VertexValues,
    };
    use saga_graph::csr::Csr;
    use saga_graph::delta_csr::DeltaCsr;
    use saga_graph::{build_deletable_graph, build_graph, DataStructureKind, DeletableGraph, Edge};
    use saga_utils::hash::mix64;

    fn fs_ranks(
        program: &PrProgram,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
    ) -> (Vec<f64>, usize) {
        let n = graph.capacity();
        let values = PrValues::create(n, 0.0);
        reset_values(program, &values, n, pool);
        let iters = pagerank_from_scratch(program, graph, &values, pool).iterations;
        (values.ranks.to_vec(), iters)
    }

    /// The block sweep without the degree cache or the contribution arrays —
    /// collect the in-edges, then one `graph.out_degree` per in-edge per
    /// sweep, reading this sweep's rank below the vertex's block and the
    /// previous sweep's from there on — on one thread.
    fn reference_sweep(program: &PrProgram, graph: &dyn GraphTopology) -> (Vec<f64>, usize) {
        let n = graph.capacity();
        let base = (1.0 - program.damping) / n as f64;
        let starts: Vec<usize> = (0..SWEEP_BLOCKS).map(|b| b * n / SWEEP_BLOCKS).collect();
        let mut ranks = vec![base; n];
        for sweep in 1..=program.max_iters {
            let before = ranks.clone();
            let mut delta = 0u64;
            for v in 0..n {
                let block_start = *starts.iter().rev().find(|&&start| start <= v).unwrap();
                let mut in_neighbors = Vec::new();
                graph.for_each_in_neighbor(v as Node, &mut |src, _| in_neighbors.push(src));
                let mut sum = 0.0;
                for src in in_neighbors {
                    let side = if (src as usize) < block_start { &ranks } else { &before };
                    sum += side[src as usize] / graph.out_degree(src) as f64;
                }
                let new = base + program.damping * sum;
                if new != ranks[v] {
                    delta += ((new - ranks[v]).abs() * 1e12) as u64;
                    ranks[v] = new;
                }
            }
            if (delta as f64 / 1e12) < program.fs_tolerance {
                return (ranks, sweep);
            }
        }
        (ranks, program.max_iters)
    }

    /// `edges` pseudo-random edges over vertices `0..n - 2`, plus a
    /// self-loop on 5 and in-edges only for `n - 2` (dangling when
    /// directed); `n - 1` never appears.
    fn test_edges(n: u32, edges: u32) -> Vec<Edge> {
        let pick = |r: u64| (r % u64::from(n - 2)) as Node;
        let mut out: Vec<Edge> = (1..=u64::from(edges))
            .map(mix64)
            .map(|r| Edge::new(pick(r >> 8), pick(r >> 36), 1.0))
            .collect();
        out.push(Edge::new(5, 5, 1.0));
        out.extend((0..4).map(|i| Edge::new(i * 3, n - 2, 1.0)));
        out
    }

    #[test]
    fn ranks_sum_to_about_one_on_a_cycle() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
        g.update_batch(
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 0, 1.0),
            ],
            &pool,
        );
        let program = PrProgram::new(4).with_fs_tolerance(1e-12);
        let (ranks, _) = fs_ranks(&program, g.as_ref(), &pool);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        // Perfect symmetry: every vertex has the same rank.
        for r in &ranks {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn self_loops_do_not_deadlock_shared_locks() {
        // Regression: PR's pull needs out_degree(src) for every incoming
        // neighbor. With a self-loop on an undirected AS graph (or a
        // same-chunk neighbor on AC/DAH), a query issued from inside the
        // traversal callback would re-lock the lock the traversal holds.
        // The FS kernel fills the cache before it sweeps; the INC pass
        // below starts from an empty cache, so every pull takes the miss
        // path.
        for ds in DataStructureKind::ALL_WITH_DELTA {
            for directed in [true, false] {
                let pool = ThreadPool::new(2);
                let g = build_graph(ds, 4, directed, pool.threads());
                g.update_batch(
                    &[Edge::new(2, 2, 1.0), Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)],
                    &pool,
                );
                let program = PrProgram::new(4);
                let values = PrValues::create(4, 0.0);
                reset_values(&program, &values, 4, &pool);
                let iters = pagerank_from_scratch(&program, g.as_ref(), &values, &pool).iterations;
                assert!(iters > 0, "{ds:?} directed={directed}");
                values.begin_phase();
                let affected = [0, 1, 2, 3];
                let out = incremental_compute(
                    &program, g.as_ref(), &values, None, &affected, &[], &[], 0, &pool,
                );
                assert!(out.is_some_and(|o| o.recomputed >= 4), "{ds:?} directed={directed}");
                assert!(values.ranks.to_vec().iter().all(|r| r.is_finite()));
            }
        }
    }

    #[test]
    fn hub_receives_more_rank() {
        let pool = ThreadPool::new(2);
        let g = build_graph(DataStructureKind::Dah, 5, true, 2);
        // Everyone points at 4; 4 points at 0.
        g.update_batch(
            &[
                Edge::new(0, 4, 1.0),
                Edge::new(1, 4, 1.0),
                Edge::new(2, 4, 1.0),
                Edge::new(3, 4, 1.0),
                Edge::new(4, 0, 1.0),
            ],
            &pool,
        );
        let (ranks, _) = fs_ranks(&PrProgram::new(5), g.as_ref(), &pool);
        assert!(ranks[4] > ranks[0]);
        assert!(ranks[0] > ranks[1]);
        assert!((ranks[1] - ranks[3]).abs() < 1e-9);
    }

    #[test]
    fn one_thread_fs_is_bit_identical_to_the_uncached_sweep() {
        let pool = ThreadPool::new(1);
        let n = 64;
        let program = PrProgram::new(n);
        for ds in DataStructureKind::ALL_WITH_DELTA {
            for directed in [true, false] {
                let g = build_graph(ds, n, directed, 2);
                g.update_batch(&test_edges(n as u32, 300), &pool);
                let (want, want_iters) = reference_sweep(&program, g.as_ref());
                let (got, iters) = fs_ranks(&program, g.as_ref(), &pool);
                assert_eq!(iters, want_iters, "{ds:?} directed={directed}");
                assert!(iters > 2 && iters < program.max_iters, "a real run: {iters} sweeps");
                let bits = |ranks: &[f64]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{ds:?} directed={directed}");
                assert_eq!(got[n - 1], program.initial(0, n), "the absent vertex keeps the base");
            }
        }
    }

    #[test]
    fn fs_ranks_do_not_depend_on_threads_or_interleaving() {
        // Regression: the in-place sweep let a worker read a rank the other
        // was rewriting, so two 2-thread runs at the default tolerance could
        // differ by more than 1e-6 at a vertex — and the rig's `lib.fs-sweep`
        // check (FS on each structure against FS on a CSR of the same edges,
        // 1e-6 apart) failed about once in 80 runs.
        let n = 2_000;
        let program = PrProgram::new(n);
        let edges = test_edges(n as u32, 12_000);
        let triples: Vec<(Node, Node, f32)> =
            edges.iter().map(|e| (e.src, e.dst, e.weight)).collect();
        let csr = Csr::from_edges(n, true, &triples);
        let (oracle, _) = fs_ranks(&program, &csr, &ThreadPool::new(2));
        for ds in DataStructureKind::ALL_WITH_DELTA {
            let g = build_graph(ds, n, true, 2);
            g.update_batch(&edges, &ThreadPool::new(1));
            let (one, one_sweeps) = fs_ranks(&program, g.as_ref(), &ThreadPool::new(1));
            let two = ThreadPool::new(2);
            for run in 0..8 {
                let (got, sweeps) = fs_ranks(&program, g.as_ref(), &two);
                assert_eq!(sweeps, one_sweeps, "{ds:?} run {run}");
                let differs = got.iter().zip(&one).position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(differs, None, "{ds:?} run {run}: first vertex off the 1-thread bits");
            }
            // Only the in-edge order differs from the CSR: float rounding.
            for (v, (a, b)) in oracle.iter().zip(&one).enumerate() {
                assert!((a - b).abs() < 1e-12, "{ds:?} vertex {v}: CSR {a} vs {b}");
            }
        }
    }

    /// Insert → delete → re-insert under INC, checking after every phase
    /// that no slot of the current phase holds anything but the live degree.
    fn churn_keeps_the_cache_fresh(graph: &dyn DeletableGraph, between: &dyn Fn(), label: &str) {
        let pool = ThreadPool::new(2);
        let n = graph.capacity();
        let program = PrProgram::new(n).with_epsilon(1e-11);
        let values = PrValues::create(n, program.initial(0, n));
        let mut tracker = AffectedTracker::new(n);
        let e = |s, d| Edge::new(s, d, 1.0);
        let base = [e(0, 1), e(0, 2), e(0, 3), e(1, 2), e(2, 0), e(3, 3), e(4, 0), e(6, 1)];
        let phases: [(&[Edge], &[Edge], usize); 4] = [
            (&base, &[], 3),
            (&[], &[e(0, 3), e(6, 1)], 2),
            (&[e(0, 3), e(5, 0)], &[], 3),
            (&[e(0, 5), e(0, 6)], &[e(0, 1)], 4),
        ];
        for (i, (inserts, deletes, degree_of_0)) in phases.into_iter().enumerate() {
            graph.update_batch(inserts, &pool);
            graph.delete_batch(deletes, &pool);
            between();
            let seed_deletes = !graph.is_directed();
            let impact =
                tracker.process_mixed_batch(graph, inserts, deletes, true, seed_deletes, &pool);
            values.begin_phase();
            let (affected, new) = (&impact.affected, &impact.new_vertices);
            incremental_compute(&program, graph, &values, None, affected, new, deletes, 0, &pool);
            if graph.is_directed() {
                assert_eq!(graph.out_degree(0), degree_of_0, "{label} phase {i}: the script");
            }
            assert!(values.cached_degree(0).is_some(), "{label} phase {i}: vertex 0 was pulled from");
            for v in 0..n as Node {
                if let Some(cached) = values.cached_degree(v) {
                    assert_eq!(cached, graph.out_degree(v), "{label} phase {i}: vertex {v}");
                }
            }
            let (want, _) = fs_ranks(&program.with_fs_tolerance(1e-11), graph, &pool);
            for (v, (a, b)) in want.iter().zip(values.ranks.to_vec()).enumerate() {
                assert!((a - b).abs() < 1e-6, "{label} phase {i} vertex {v}: FS {a} INC {b}");
            }
        }
    }

    #[test]
    fn inc_churn_never_reads_a_stale_degree() {
        for directed in [true, false] {
            for ds in DataStructureKind::ALL_WITH_DELTA {
                let g = build_deletable_graph(ds, 8, directed, 2);
                churn_keeps_the_cache_fresh(g.as_ref(), &|| (), &format!("{ds:?}/{directed}"));
            }
            // DeltaCSR again, every batch merged into the snapshot before
            // the compute phase reads it.
            let g = DeltaCsr::new(8, directed, 2);
            churn_keeps_the_cache_fresh(&g, &|| g.compact(), &format!("compacted/{directed}"));
            assert!(g.compactions() >= 4);
        }
    }

    #[test]
    fn a_state_survives_graph_objects_it_never_saw_a_batch_for() {
        // The rig's oracle: FS on a prebuilt CSR, no batch ever tracked.
        let pool = ThreadPool::new(2);
        let n = 32u32;
        let ring = |skip: u32| -> Vec<(Node, Node, f32)> {
            (0..n).flat_map(|v| [(v, (v + 1) % n, 1.0), (v, (v + skip) % n, 1.0)]).collect()
        };
        let ranks = |state: &AlgorithmState| match state.values() {
            VertexValues::F64(ranks) => ranks,
            other => panic!("PageRank values are f64, got {other:?}"),
        };
        let tight = AlgorithmParams {
            pr_epsilon: 1e-11,
            pr_fs_tolerance: 1e-11,
            ..AlgorithmParams::default()
        };
        let state = |model, params| AlgorithmState::new(AlgorithmKind::PageRank, model, n as usize, params);
        let first = Csr::from_edges(n as usize, true, &ring(5));
        let mut fs = state(ComputeModelKind::FromScratch, AlgorithmParams::default());
        fs.perform_alg(&first, &[], &[], &pool);
        assert!(ranks(&fs).iter().all(|r| r.is_finite() && *r > 0.0));
        let mut fs = state(ComputeModelKind::FromScratch, tight);
        fs.perform_alg(&first, &[], &[], &pool);
        let sum: f64 = ranks(&fs).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");

        // The pipelined shape: one state, a different graph object every
        // phase. Vertex 0 goes from two out-edges to six; a degree kept
        // from `first` would triple what its out-neighbors pull.
        let mut edges = ring(5);
        let added: Vec<Edge> = (10..14).map(|d| Edge::new(0, d, 1.0)).collect();
        edges.extend(added.iter().map(|e| (e.src, e.dst, e.weight)));
        let second = Csr::from_edges(n as usize, true, &edges);
        let mut inc = state(ComputeModelKind::Incremental, tight);
        let everyone: Vec<Node> = (0..n).collect();
        inc.perform_alg(&first, &everyone, &everyone, &pool);
        let impact = AffectedTracker::new(n as usize).process_batch(&second, &added, true, &pool);
        inc.perform_alg(&second, &impact.affected, &[], &pool);
        fs.perform_alg(&second, &[], &[], &pool);
        for (v, (a, b)) in ranks(&fs).iter().zip(ranks(&inc)).enumerate() {
            assert!((a - b).abs() < 1e-6, "vertex {v}: FS {a} INC {b}");
        }
    }

    #[test]
    fn a_wrapped_phase_stamp_does_not_revalidate_old_slots() {
        let values = PrValues::create(2, 0.0);
        values.cache_degree(0, 7); // stamped with phase 1
        values.phase.store(u32::MAX, Ordering::Relaxed);
        values.cache_degree(1, 9);
        values.begin_phase(); // wraps past 0 to 1
        assert_eq!(values.phase.load(Ordering::Relaxed), 1);
        assert_eq!(values.cached_degree(0), None);
        assert_eq!(values.cached_degree(1), None);
    }
}
