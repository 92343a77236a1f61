//! The six vertex-centric algorithms of SAGA-Bench, each implemented in
//! both compute models (§III-B, §III-C of the paper).
//!
//! | Algorithm | Vertex function (Table I) | Module |
//! |-----------|---------------------------|--------|
//! | BFS  | `min_in (src.depth + 1)` | [`bfs`] |
//! | CC   | `min_edges other.value` | [`cc`] |
//! | MC   | `max_in src.value` | [`mc`] |
//! | PR   | `0.15/V + 0.85 sum_in src.rank/src.out_deg` | [`pr`] |
//! | SSSP | `min_in (src.path + w)` | [`sssp`] |
//! | SSWP | `max_in min(src.path, w)` | [`sswp`] |
//!
//! Compute models:
//!
//! - **FS** ([`fs`]): recomputation from scratch with conventional
//!   static-graph kernels (frontier BFS, delta-stepping SSSP,
//!   tolerance-stopped PR, fixpoint label propagation).
//! - **INC**: the incremental model of Algorithm 1 — processing
//!   amortization plus selective triggering. The Fold programs (BFS, CC,
//!   MC, SSSP, SSWP) run its rounds as the superstep engine's pull
//!   supersteps ([`engine`]), repairing deletions through a witness forest;
//!   PageRank runs Algorithm 1's rounds serially ([`inc`]).
//!
//! [`AlgorithmState`] packages a program with its property array and runs
//! either model — the paper's `performAlg()` API. [`ShardedState`] runs the
//! same programs on the superstep engine with a fixed shard count and
//! superstep checkpoints ([`checkpoint`]) a killed run recovers from.

#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod checkpoint;
pub mod engine;
pub mod fs;
pub mod inc;
pub mod layout;
pub mod mailbox;
pub mod mc;
pub mod pr;
pub mod program;
mod sharded;
pub mod sssp;
pub mod sswp;

pub use checkpoint::CheckpointConfig;
pub use engine::{KillPhase, KillSpec, Killed};
pub use saga_graph::properties::VertexValues;
pub use sharded::ShardedState;

use engine::{BoundProgram, BspEngine, Seed};
use program::{EdgeScope, GatherMode, VertexProgram};
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::sync::Mutex;
use saga_utils::bitvec::{AtomicBitVec, GenerationMarks};
use saga_utils::parallel::{adaptive_grain, ThreadPool};
use saga_utils::sync::atomic::{AtomicUsize, Ordering};

/// The six algorithms (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgorithmKind {
    /// Breadth-First Search.
    Bfs,
    /// Connected Components.
    Cc,
    /// Max Computation.
    Mc,
    /// PageRank.
    PageRank,
    /// Single-Source Shortest Paths.
    Sssp,
    /// Single-Source Widest Paths.
    Sswp,
}

impl AlgorithmKind {
    /// All six, in the paper's order.
    pub const ALL: [AlgorithmKind; 6] = [
        AlgorithmKind::Bfs,
        AlgorithmKind::Cc,
        AlgorithmKind::Mc,
        AlgorithmKind::PageRank,
        AlgorithmKind::Sssp,
        AlgorithmKind::Sswp,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            AlgorithmKind::Bfs => "BFS",
            AlgorithmKind::Cc => "CC",
            AlgorithmKind::Mc => "MC",
            AlgorithmKind::PageRank => "PR",
            AlgorithmKind::Sssp => "SSSP",
            AlgorithmKind::Sswp => "SSWP",
        }
    }

    /// The canonical lowercase spelling (config files, the wire format):
    /// the first of the spellings [`FromStr`](std::str::FromStr) accepts.
    pub fn key(&self) -> &'static str {
        self.spellings()[0]
    }

    fn spellings(&self) -> &'static [&'static str] {
        match self {
            AlgorithmKind::Bfs => &["bfs"],
            AlgorithmKind::Cc => &["cc"],
            AlgorithmKind::Mc => &["mc"],
            AlgorithmKind::PageRank => &["pr", "pagerank"],
            AlgorithmKind::Sssp => &["sssp"],
            AlgorithmKind::Sswp => &["sswp"],
        }
    }
}

impl std::str::FromStr for AlgorithmKind {
    type Err = String;

    /// Case-insensitive; the error names the canonical keys.
    fn from_str(s: &str) -> Result<Self, String> {
        saga_utils::parse_kind("algorithm", &Self::ALL, Self::spellings, s)
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The two compute models (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComputeModelKind {
    /// Recomputation from scratch.
    FromScratch,
    /// Incremental computation (Algorithm 1).
    Incremental,
}

impl ComputeModelKind {
    /// Both models.
    pub const ALL: [ComputeModelKind; 2] =
        [ComputeModelKind::FromScratch, ComputeModelKind::Incremental];

    /// The paper's abbreviation (FS / INC).
    pub fn abbrev(&self) -> &'static str {
        match self {
            ComputeModelKind::FromScratch => "FS",
            ComputeModelKind::Incremental => "INC",
        }
    }

    /// The canonical lowercase spelling: the first of the spellings
    /// [`FromStr`](std::str::FromStr) accepts.
    pub fn key(&self) -> &'static str {
        self.spellings()[0]
    }

    fn spellings(&self) -> &'static [&'static str] {
        match self {
            ComputeModelKind::FromScratch => &["fs", "from-scratch", "fromscratch"],
            ComputeModelKind::Incremental => &["inc", "incremental"],
        }
    }
}

impl std::str::FromStr for ComputeModelKind {
    type Err = String;

    /// Case-insensitive; the error names the canonical keys.
    fn from_str(s: &str) -> Result<Self, String> {
        saga_utils::parse_kind("model", &Self::ALL, Self::spellings, s)
    }
}

impl std::fmt::Display for ComputeModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Tunables shared by the algorithm constructors.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmParams {
    /// Source vertex for BFS/SSSP/SSWP.
    pub root: Node,
    /// Incremental triggering threshold for PageRank (paper: `1e-7`).
    pub pr_epsilon: f64,
    /// FS stopping tolerance for PageRank.
    pub pr_fs_tolerance: f64,
    /// Delta-stepping bucket width for SSSP.
    pub sssp_delta: f32,
    /// Deletion-repair cascade threshold as a fraction of the vertex
    /// universe: when the witness-forest subtrees a deletion batch would
    /// reset hold more than `capacity * repair_cascade_fraction` vertices,
    /// the incremental model falls back to from-scratch recomputation for
    /// that batch.
    pub repair_cascade_fraction: f64,
}

impl Default for AlgorithmParams {
    fn default() -> Self {
        Self {
            root: 0,
            pr_epsilon: pr::DEFAULT_EPSILON,
            pr_fs_tolerance: pr::DEFAULT_FS_TOLERANCE,
            sssp_delta: sssp::DEFAULT_DELTA,
            repair_cascade_fraction: 0.05,
        }
    }
}

/// What a compute phase did: the one work record of every engine — the
/// FS kernels, PageRank's INC rounds ([`inc::incremental_compute`]) and the
/// superstep engine ([`engine`]) — each filled where the work happens. A
/// field an engine does not count reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeOutcome {
    /// Rounds / levels / sweeps / supersteps executed.
    pub iterations: usize,
    /// Vertex-function evaluations of Algorithm 1's rounds (PageRank INC).
    pub recomputed: usize,
    /// Vertices that triggered neighbor propagation in Algorithm 1's rounds
    /// (PageRank INC).
    pub triggered: usize,
    /// Vertices a Fold INC batch's deletion repair reset and reseeded.
    pub repaired: usize,
    /// Of `iterations`, the levels direction-optimizing BFS ran bottom-up
    /// ([`bfs::bfs_direction_optimizing`]).
    pub dense_rounds: usize,
    /// Messages sent across all supersteps (seed terms are not messages).
    pub messages: usize,
    /// Whether this Fold INC batch was recomputed from scratch: its
    /// deletion repair overflowed the threshold, or its deleted edges were
    /// not given ([`ShardedState::perform_batch`]).
    pub fs_fallback: bool,
}

/// The one [`AlgorithmKind`] → concrete program table. Evaluates `$body`
/// with `$program` bound to the kind's [`VertexProgram`], built from the
/// [`AlgorithmParams`] tunables over a `$capacity`-vertex universe. Every
/// arm must produce the same type, so callers erase the program type inside
/// `$body` (a `Box<dyn …>` around the engine they instantiate with it).
///
/// Both states — [`AlgorithmState`] and [`ShardedState`] —
/// construct their programs through this macro and nowhere else, so a
/// tunable cannot reach one engine and miss the other, and a new algorithm
/// is one new arm.
#[macro_export]
macro_rules! with_program {
    ($kind:expr, $params:expr, $capacity:expr, $program:ident => $body:expr) => {{
        let params: &$crate::AlgorithmParams = &$params;
        let capacity: usize = $capacity;
        match $kind {
            $crate::AlgorithmKind::Bfs => {
                let $program = $crate::bfs::BfsProgram::new(params.root);
                $body
            }
            $crate::AlgorithmKind::Cc => {
                let $program = $crate::cc::CcProgram::new();
                $body
            }
            $crate::AlgorithmKind::Mc => {
                let $program = $crate::mc::McProgram::new();
                $body
            }
            $crate::AlgorithmKind::PageRank => {
                let $program = $crate::pr::PrProgram::new(capacity)
                    .with_epsilon(params.pr_epsilon)
                    .with_fs_tolerance(params.pr_fs_tolerance);
                $body
            }
            $crate::AlgorithmKind::Sssp => {
                let $program =
                    $crate::sssp::SsspProgram::new(params.root).with_delta(params.sssp_delta);
                $body
            }
            $crate::AlgorithmKind::Sswp => {
                let $program = $crate::sswp::SswpProgram::new(params.root);
                $body
            }
        }
    }};
}

/// The compute phase of a step as the driver sees it: one `track` and one
/// `compute` per batch, and the property values. Implemented by
/// [`AlgorithmState`] and [`ShardedState`], so a driver session holds
/// either behind one `Box<dyn ComputeEngine>`. Where an INC batch starts is
/// the engine's choice: the driver hands `compute` back whatever `track`
/// returned and never looks inside.
pub trait ComputeEngine: Send + Sync {
    /// The update phase's bookkeeping for one batch already applied to
    /// `graph` (Algorithm 1's affected array): `inserted` the edges it
    /// ingested and `deleted` the edges it removed. PageRank's INC rounds
    /// run their [`AffectedTracker`] here. The default tracks nothing and
    /// returns an empty impact: FS needs none, and the superstep engine
    /// seeds from `inserted` itself.
    fn track(
        &mut self,
        graph: &dyn GraphTopology,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> BatchImpact {
        let _ = (graph, inserted, deleted, pool);
        BatchImpact::default()
    }

    /// Runs the compute phase for one batch already applied to `graph`:
    /// `impact` is what [`track`](Self::track) returned for it, `inserted`
    /// the edges it ingested (repeats and already-present edges included,
    /// with the batch's weights) and `deleted` the edges it removed.
    fn compute(
        &mut self,
        graph: &dyn GraphTopology,
        impact: &BatchImpact,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome;

    /// Snapshots the property array.
    fn values(&self) -> VertexValues;
}

/// What both states hold: a program's [`BspEngine`] behind a trait object,
/// and how the program reduces.
#[derive(Debug)]
struct Bound {
    kind: AlgorithmKind,
    model: ComputeModelKind,
    sum_mode: bool,
    symmetric_scope: bool,
    engine: Box<dyn BoundProgram>,
}

impl Bound {
    /// `kind`'s program over `capacity` vertices in `shards` shards. A
    /// [`GatherMode::Fold`] program's INC keeps the witness forest, whose
    /// deletion repair falls back to FS beyond
    /// [`AlgorithmParams::repair_cascade_fraction`] of `capacity`.
    fn new(
        kind: AlgorithmKind,
        model: ComputeModelKind,
        capacity: usize,
        shards: usize,
        params: &AlgorithmParams,
        checkpoints: Option<checkpoint::CheckpointConfig>,
    ) -> Self {
        with_program!(kind, *params, capacity, program => {
            let sum_mode = program.gather_mode() == GatherMode::Sum;
            let symmetric_scope = program.scope() == EdgeScope::Symmetric;
            let mut engine = BspEngine::new(program, capacity, shards);
            if model == ComputeModelKind::Incremental && !sum_mode {
                let limit = ((capacity as f64 * params.repair_cascade_fraction) as usize).max(1);
                engine = engine.with_witnesses(limit);
            }
            if let Some(config) = checkpoints {
                engine = engine.with_checkpoints(config);
            }
            Self { kind, model, sum_mode, symmetric_scope, engine: Box::new(engine) }
        })
    }

    /// Whether batches run as a Fold program's INC on the engine.
    fn fold_inc(&self) -> bool {
        self.model == ComputeModelKind::Incremental && !self.sum_mode
    }
}

/// An algorithm instance bound to a compute model and a property array —
/// the receiver of the paper's `performAlg()` API function.
///
/// Under INC, a Fold program (BFS, CC, MC, SSSP, SSWP) runs on the
/// superstep engine with one shard per pool worker; PageRank runs
/// Algorithm 1's rounds from its [`AffectedTracker`].
///
/// # Examples
///
/// ```
/// use saga_algorithms::{AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeModelKind};
/// use saga_graph::{build_graph, DataStructureKind, Edge};
/// use saga_utils::parallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let graph = build_graph(DataStructureKind::AdjacencyShared, 4, true, 1);
/// let batch = [Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)];
/// graph.update_batch(&batch, &pool);
///
/// let mut state = AlgorithmState::new(
///     AlgorithmKind::Bfs,
///     ComputeModelKind::Incremental,
///     4,
///     AlgorithmParams::default(),
/// );
/// let affected = vec![0, 1, 2];
/// state.perform_alg(graph.as_ref(), &affected, &[], &pool);
/// match state.values() {
///     saga_algorithms::VertexValues::U32(depths) => assert_eq!(depths[2], 2),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct AlgorithmState {
    capacity: usize,
    /// Algorithm 1's affected-array bookkeeping; PageRank INC only.
    tracker: Option<AffectedTracker>,
    bound: Bound,
}

impl AlgorithmState {
    /// Creates an algorithm state over a fixed `capacity`-vertex universe.
    /// All property values start at the program's initial values.
    pub fn new(
        kind: AlgorithmKind,
        model: ComputeModelKind,
        capacity: usize,
        params: AlgorithmParams,
    ) -> Self {
        let bound = Bound::new(kind, model, capacity, 1, &params, None);
        let tracks = model == ComputeModelKind::Incremental && bound.sum_mode;
        Self { capacity, tracker: tracks.then(|| AffectedTracker::new(capacity)), bound }
    }

    /// Which algorithm this state runs.
    pub fn kind(&self) -> AlgorithmKind {
        self.bound.kind
    }

    /// Which compute model this state uses.
    pub fn model(&self) -> ComputeModelKind {
        self.bound.model
    }

    /// Number of vertices in the universe.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether batch sources' existing out-neighbors must be seeded as
    /// affected: only a [`GatherMode::Sum`] program's
    /// [`term`](VertexProgram::term) reads its source's out-degree
    /// (PageRank's `rank / out_degree`), so a new or deleted out-edge
    /// changes what every existing out-neighbor pulls.
    pub fn affects_source_neighborhood(&self) -> bool {
        self.bound.sum_mode
    }

    /// Whether the program's vertex function reduces over both edge
    /// directions ([`EdgeScope::Symmetric`], i.e. CC).
    pub fn symmetric_scope(&self) -> bool {
        self.bound.symmetric_scope
    }

    /// Runs the compute phase — the paper's `performAlg()`.
    ///
    /// For the incremental model, `affected` is the set of vertices touched
    /// by the latest update (see [`AffectedTracker`]) and `new_vertices`
    /// those appearing for the first time. The FS model ignores both; in a
    /// Fold program's INC every affected vertex pulls its in-edges in
    /// superstep 0.
    pub fn perform_alg(
        &mut self,
        graph: &dyn GraphTopology,
        affected: &[Node],
        new_vertices: &[Node],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        self.perform_alg_with_deletions(graph, affected, new_vertices, &[], pool)
    }

    /// [`AlgorithmState::perform_alg`] for a batch that (also) deleted
    /// edges. `deleted` must already be applied to `graph`. The FS model
    /// ignores it (recomputation is deletion-proof by construction); a Fold
    /// program's INC repairs the witness-forest subtrees that hung off the
    /// deleted edges and falls back to from-scratch recomputation when they
    /// exceed [`AlgorithmParams::repair_cascade_fraction`] of the vertex
    /// universe (reported via [`ComputeOutcome::fs_fallback`]); PageRank's
    /// re-pull of the affected set is its whole repair.
    pub fn perform_alg_with_deletions(
        &mut self,
        graph: &dyn GraphTopology,
        affected: &[Node],
        new_vertices: &[Node],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        let engine = &mut self.bound.engine;
        match self.bound.model {
            ComputeModelKind::FromScratch => engine.from_scratch(graph, pool),
            ComputeModelKind::Incremental => {
                let seed = Seed::Affected { affected, new_vertices };
                engine.incremental(graph, pool, pool.threads(), seed, deleted)
            }
        }
    }

    /// Snapshots the property array.
    pub fn values(&self) -> VertexValues {
        self.bound.engine.values()
    }
}

impl ComputeEngine for AlgorithmState {
    /// PageRank's INC rounds track the batch's endpoints plus each source's
    /// existing out-neighbors
    /// ([`affects_source_neighborhood`](AlgorithmState::affects_source_neighborhood));
    /// every other state tracks nothing.
    fn track(
        &mut self,
        graph: &dyn GraphTopology,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> BatchImpact {
        match &mut self.tracker {
            Some(t) => t.process_mixed_batch(graph, inserted, deleted, true, false, pool),
            None => BatchImpact::default(),
        }
    }

    /// A Fold program's INC seeds from `inserted` (see [`ShardedState`]'s
    /// `compute`); the other states work from `impact`.
    fn compute(
        &mut self,
        graph: &dyn GraphTopology,
        impact: &BatchImpact,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        if !self.bound.fold_inc() {
            let BatchImpact { affected, new_vertices } = impact;
            return self.perform_alg_with_deletions(graph, affected, new_vertices, deleted, pool);
        }
        self.bound.engine.incremental(graph, pool, pool.threads(), Seed::Batch(inserted), deleted)
    }

    fn values(&self) -> VertexValues {
        AlgorithmState::values(self)
    }
}

/// The per-batch affected/new-vertex bookkeeping the update phase hands to
/// Algorithm 1 (its `affected` array and "new vertex" test). PageRank's INC
/// rounds own one and run it from [`ComputeEngine::track`]; a caller that
/// holds a tracker's output drives a state through
/// [`AlgorithmState::perform_alg_with_deletions`] or
/// [`ShardedState::perform_batch`].
///
/// Marking is parallel and allocation-free in steady state: `flagged` is a
/// generation-stamped mark set (`O(1)` reset per batch instead of a
/// `vec![false; V]` allocation), `seen` an atomic bitvector, and each pool
/// worker appends first-touch wins to its own reusable output buffer; the
/// buffers are stitched in worker order, so a single-threaded pool
/// reproduces the sequential first-touch order exactly.
#[derive(Debug)]
pub struct AffectedTracker {
    seen: AtomicBitVec,
    flagged: GenerationMarks,
    /// Dedup marks for batch sources (only used when seeding
    /// neighborhoods); separate from `flagged` so source collection does
    /// not depend on cross-worker marking order.
    src_marks: GenerationMarks,
    worker_out: Vec<Mutex<WorkerOut>>,
    sources: Vec<Node>,
}

/// One worker's share of a batch's output, reused across batches.
#[derive(Debug, Default)]
struct WorkerOut {
    affected: Vec<Node>,
    new_vertices: Vec<Node>,
    sources: Vec<Node>,
}

impl WorkerOut {
    /// Reports `v` as affected — and as new, on its first appearance in the
    /// stream — unless another worker already claimed it this batch.
    fn touch(&mut self, v: Node, flagged: &GenerationMarks, seen: &AtomicBitVec) {
        if flagged.try_mark(v as usize) {
            self.affected.push(v);
            if seen.try_set(v as usize) {
                self.new_vertices.push(v);
            }
        }
    }
}

/// Affected and first-seen vertices of one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchImpact {
    /// Vertices whose in- or out-edge set changed (deduplicated).
    pub affected: Vec<Node>,
    /// Affected vertices never seen in any earlier batch.
    pub new_vertices: Vec<Node>,
}

impl AffectedTracker {
    /// Creates a tracker for a `capacity`-vertex universe.
    pub fn new(capacity: usize) -> Self {
        Self {
            seen: AtomicBitVec::new(capacity),
            flagged: GenerationMarks::new(capacity),
            src_marks: GenerationMarks::new(capacity),
            worker_out: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// Computes the affected set of `batch`. When
    /// `include_source_neighborhoods` is set (PageRank), the existing
    /// out-neighbors of every distinct batch source are seeded as well
    /// (their contribution denominators changed); call this *after* the
    /// update phase so the query sees the new topology.
    pub fn process_batch(
        &mut self,
        graph: &dyn GraphTopology,
        batch: &[Edge],
        include_source_neighborhoods: bool,
        pool: &ThreadPool,
    ) -> BatchImpact {
        self.process_mixed_batch(graph, batch, &[], include_source_neighborhoods, false, pool)
    }

    /// Like [`process_batch`](Self::process_batch) for a batch that mixes
    /// insertions and deletions: endpoints of both edge classes are marked
    /// affected, and delete sources join the seeded sources. Call after the
    /// update phase so the neighborhood queries see the post-delete
    /// topology.
    ///
    /// `_include_delete_neighborhoods` has no effect: witness repair
    /// ([`inc::plan_deletion_repair`]) resets and reseeds exactly what a
    /// deleted edge carried, and PageRank re-pulls the endpoints, so no
    /// deletion endpoint's neighborhood needs seeding.
    pub fn process_mixed_batch(
        &mut self,
        graph: &dyn GraphTopology,
        inserts: &[Edge],
        deletes: &[Edge],
        include_source_neighborhoods: bool,
        _include_delete_neighborhoods: bool,
        pool: &ThreadPool,
    ) -> BatchImpact {
        let _span =
            saga_trace::span!("affected", edges = (inserts.len() + deletes.len()) as u64);
        self.flagged.next_generation();
        self.src_marks.next_generation();
        let threads = pool.threads();
        while self.worker_out.len() < threads {
            self.worker_out.push(Mutex::new(WorkerOut::default()));
        }
        let flagged = &self.flagged;
        let src_marks = &self.src_marks;
        let seen = &self.seen;
        let worker_out = &self.worker_out;

        // Phase 1: mark the endpoints, inserts then deletes under the same
        // generation, so a vertex touched by both classes is reported once.
        // Each worker scans a contiguous range; `try_mark` gives every
        // vertex exactly one winner, which appends it to that worker's
        // buffer. Delete sources join the source set too (their out-degree
        // shrank, which changes PageRank denominators just like an insert
        // does).
        for edges in [inserts, deletes] {
            pool.parallel_ranges(0..edges.len(), |w, range| {
                let mut out = worker_out[w].lock();
                let out = &mut *out;
                for e in &edges[range] {
                    if include_source_neighborhoods && src_marks.try_mark(e.src as usize) {
                        out.sources.push(e.src);
                    }
                    out.touch(e.src, flagged, seen);
                    out.touch(e.dst, flagged, seen);
                }
            });
        }

        // Phase 2: seed the sources' existing out-neighbors (their
        // contribution denominators changed). Sources are stitched in
        // worker order first (phase 1's barrier makes that safe), then
        // distributed by a dynamic cursor so one hub's big neighborhood
        // does not serialize the rest.
        if include_source_neighborhoods {
            self.sources.clear();
            for slot in worker_out.iter().take(threads) {
                self.sources.append(&mut slot.lock().sources);
            }
            let seeds = &self.sources;
            let grain = adaptive_grain(seeds.len(), threads);
            let cursor = AtomicUsize::new(0);
            saga_graph::read_phase(graph, |graph| pool.run_on_all(|w| {
                let mut out = worker_out[w].lock();
                let out = &mut *out;
                loop {
                    let start = cursor.fetch_add(grain, Ordering::Relaxed);
                    if start >= seeds.len() {
                        break;
                    }
                    let end = (start + grain).min(seeds.len());
                    for &v in &seeds[start..end] {
                        graph.for_each_out_neighbor(v, &mut |nb, _| out.touch(nb, flagged, seen));
                    }
                }
            }));
        }

        // Stitch per-worker buffers in worker order: deterministic for any
        // fixed thread count, and identical to the sequential first-touch
        // order when the pool has one thread.
        let mut impact = BatchImpact::default();
        for slot in &self.worker_out {
            let mut out = slot.lock();
            impact.affected.append(&mut out.affected);
            impact.new_vertices.append(&mut out.new_vertices);
            out.sources.clear();
        }
        impact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_graph::{build_graph, DataStructureKind};

    #[test]
    fn kind_keys_round_trip_and_aliases_parse() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(kind.key().parse(), Ok(kind));
            assert_eq!(kind.abbrev().parse(), Ok(kind), "the paper's abbreviation parses");
        }
        for model in ComputeModelKind::ALL {
            assert_eq!(model.key().parse(), Ok(model));
            assert_eq!(model.abbrev().parse(), Ok(model));
        }
        assert_eq!("PageRank".parse(), Ok(AlgorithmKind::PageRank));
        assert_eq!("from-scratch".parse(), Ok(ComputeModelKind::FromScratch));
        assert_eq!(
            "dfs".parse::<AlgorithmKind>().unwrap_err(),
            "unknown algorithm \"dfs\" (bfs|cc|mc|pr|sssp|sswp)"
        );
        assert_eq!(
            "lazy".parse::<ComputeModelKind>().unwrap_err(),
            "unknown model \"lazy\" (fs|inc)"
        );
    }

    #[test]
    fn kinds_and_models_display_like_the_paper() {
        assert_eq!(AlgorithmKind::PageRank.to_string(), "PR");
        assert_eq!(ComputeModelKind::Incremental.to_string(), "INC");
        assert_eq!(AlgorithmKind::ALL.len(), 6);
        assert_eq!(ComputeModelKind::ALL.len(), 2);
    }

    #[test]
    fn tracker_dedups_and_detects_new_vertices() {
        let pool = ThreadPool::new(1);
        let g = build_graph(DataStructureKind::AdjacencyShared, 6, true, 1);
        let mut tracker = AffectedTracker::new(6);
        let b1 = [Edge::new(0, 1, 1.0), Edge::new(0, 2, 1.0), Edge::new(0, 1, 1.0)];
        g.update_batch(&b1, &pool);
        let i1 = tracker.process_batch(g.as_ref(), &b1, false, &pool);
        assert_eq!(i1.affected, vec![0, 1, 2]);
        assert_eq!(i1.new_vertices, vec![0, 1, 2]);
        let b2 = [Edge::new(1, 3, 1.0)];
        g.update_batch(&b2, &pool);
        let i2 = tracker.process_batch(g.as_ref(), &b2, false, &pool);
        assert_eq!(i2.affected, vec![1, 3]);
        assert_eq!(i2.new_vertices, vec![3]);
    }

    #[test]
    fn tracker_seeds_source_neighborhood_for_pagerank() {
        let pool = ThreadPool::new(1);
        let g = build_graph(DataStructureKind::AdjacencyShared, 6, true, 1);
        let b0 = [Edge::new(0, 1, 1.0), Edge::new(0, 2, 1.0)];
        g.update_batch(&b0, &pool);
        let mut tracker = AffectedTracker::new(6);
        tracker.process_batch(g.as_ref(), &b0, true, &pool);
        // New batch adds 0 -> 3: vertices 1 and 2 pull stale contributions
        // (0's out-degree changed) unless seeded.
        let b = [Edge::new(0, 3, 1.0)];
        g.update_batch(&b, &pool);
        let impact = tracker.process_batch(g.as_ref(), &b, true, &pool);
        let mut affected = impact.affected.clone();
        affected.sort_unstable();
        assert_eq!(affected, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mixed_batch_marks_delete_endpoints_and_seeds_delete_sources() {
        let pool = ThreadPool::new(1);
        let g = saga_graph::build_deletable_graph(DataStructureKind::AdjacencyShared, 8, true, 1);
        // 0 -> {1, 2}, 3 -> 1, 4 -> 0.
        let b0 = [
            Edge::new(0, 1, 1.0),
            Edge::new(0, 2, 1.0),
            Edge::new(3, 1, 1.0),
            Edge::new(4, 0, 1.0),
        ];
        g.update_batch(&b0, &pool);
        let mut tracker = AffectedTracker::new(8);
        tracker.process_batch(g.as_ref(), &b0, false, &pool);
        // Delete 0 -> 1 and apply it before tracking, as the driver does.
        let del = [Edge::new(0, 1, 1.0)];
        g.delete_batch(&del, &pool);

        // Only the endpoints are affected, whatever the no-op last flag says.
        for delete_hoods in [false, true] {
            let plain =
                tracker.process_mixed_batch(g.as_ref(), &[], &del, false, delete_hoods, &pool);
            let mut affected = plain.affected.clone();
            affected.sort_unstable();
            assert_eq!(affected, vec![0, 1]);
            assert!(plain.new_vertices.is_empty());
        }

        // A delete source's surviving out-neighbors (0 -> 2) join when
        // source neighborhoods are seeded: its out-degree shrank.
        let seeded = tracker.process_mixed_batch(g.as_ref(), &[], &del, true, false, &pool);
        let mut affected = seeded.affected.clone();
        affected.sort_unstable();
        assert_eq!(affected, vec![0, 1, 2]);
    }

    #[test]
    fn parallel_tracker_matches_single_thread_sets() {
        let n = 256;
        let batch: Vec<Edge> = (0..600)
            .map(|i| Edge::new((i * 7) % n, (i * 13 + 1) % n, 1.0))
            .collect();
        let build = |threads: usize| {
            let pool = ThreadPool::new(threads);
            let g = build_graph(DataStructureKind::AdjacencyShared, n as usize, true, 1);
            g.update_batch(&batch, &pool);
            let mut tracker = AffectedTracker::new(n as usize);
            let mut impact = tracker.process_batch(g.as_ref(), &batch, true, &pool);
            impact.affected.sort_unstable();
            impact.new_vertices.sort_unstable();
            impact
        };
        let reference = build(1);
        for threads in [2, 4, 8] {
            assert_eq!(build(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn vertex_values_accessors_and_top_k() {
        let v = VertexValues::F64(vec![0.1, 0.4, 0.2, 0.4]);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(v.as_f64().is_some());
        assert!(v.as_u32().is_none());
        // Ties broken by vertex id: 1 before 3.
        assert_eq!(v.top_k(3), vec![(1, 0.4), (3, 0.4), (2, 0.2)]);

        let d = VertexValues::U32(vec![0, u32::MAX, 2]);
        assert_eq!(d.top_k(10), vec![(2, 2.0), (0, 0.0)], "unreached filtered");

        let w = VertexValues::F32(vec![f32::INFINITY, 1.5]);
        assert_eq!(w.top_k(5), vec![(1, 1.5)], "infinite filtered");
    }

    #[test]
    fn fs_and_inc_states_have_matching_metadata() {
        let s = AlgorithmState::new(
            AlgorithmKind::Sswp,
            ComputeModelKind::FromScratch,
            10,
            AlgorithmParams::default(),
        );
        assert_eq!(s.kind(), AlgorithmKind::Sswp);
        assert_eq!(s.model(), ComputeModelKind::FromScratch);
        assert_eq!(s.capacity(), 10);
        assert!(!s.affects_source_neighborhood());
        let pr = AlgorithmState::new(
            AlgorithmKind::PageRank,
            ComputeModelKind::Incremental,
            10,
            AlgorithmParams::default(),
        );
        assert!(pr.affects_source_neighborhood());
    }
}
