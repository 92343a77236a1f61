//! Sharded bulk-synchronous-parallel (BSP) execution for SAGA-Bench.
//!
//! The serial compute path (`saga-algorithms`) runs each vertex program as
//! a pull-based sweep over one shared property array. This crate runs the
//! *same* programs owner-computes style: the vertex universe is cut into
//! contiguous shards ([`layout::ShardLayout`]), each shard keeps its
//! property values in a private dense array
//! ([`saga_graph::properties::ShardValues`]), and supersteps alternate a
//! scatter phase (each active vertex's per-edge
//! [`term`](saga_algorithms::program::VertexProgram::term)s, sent as
//! messages into per-shard-pair mailboxes,
//! [`mailbox::Mailboxes`]) with a gather phase (fold or sum the inbox into
//! shard state) separated by a barrier whose last arriver runs the epilogue
//! ([`saga_utils::barrier::Barrier`]).
//!
//! At every gather-end barrier the mailboxes are empty by construction,
//! so the engine snapshots shard state there
//! ([`checkpoint::CheckpointStore`], optionally mirrored to disk). A
//! worker killed mid-superstep ([`engine::KillSpec`]) is restarted from
//! the last barrier and — because every mailbox cell has one writer and
//! one reader per superstep, drained in fixed order — finishes with
//! **bitwise-identical** results. `saga-check` asserts both properties:
//! sharded-vs-serial agreement and kill-and-recover equality.
//!
//! [`ShardedState`] is the driver-facing wrapper mirroring
//! [`saga_algorithms::AlgorithmState`]: it picks the engine for an
//! [`AlgorithmKind`] and seeds each batch's run, which reports in the same
//! [`ComputeOutcome`] as the serial engines (superstep messages in
//! `messages`). An incremental batch of a fold program that
//! only inserts starts from the batch's own edges: one term per inserted
//! edge (both directions for a symmetric scope or an undirected graph),
//! computed from the pre-batch values, kept only if it would change its
//! head, carrying the weight the structure stored, and folded into its
//! head's shard before the superstep-0 checkpoint; the heads that changed
//! are the first frontier ([`engine::BspEngine::seed`]). The work a batch
//! costs is then proportional to what it changed, not to its endpoints'
//! degrees. [`ShardedState::perform_batch`] hands the same seeding step
//! an affected set's incident edges. PageRank, from-scratch batches and
//! batches with deletions recompute from initial values.

pub mod checkpoint;
pub mod engine;
pub mod layout;
pub mod mailbox;

pub use checkpoint::CheckpointConfig;
pub use engine::{KillPhase, KillSpec, Killed};

use crate::engine::{BspEngine, SeedArc, SeedArcs};
use saga_algorithms::program::{EdgeScope, GatherMode, VertexProgram};
use saga_algorithms::{
    with_program, AlgorithmKind, AlgorithmParams, BatchImpact, ComputeEngine, ComputeModelKind,
    ComputeOutcome, VertexValues,
};
use saga_graph::properties::Property;
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::parallel::ThreadPool;
use std::ops::Range;

/// A [`BspEngine`] with the program type erased: one dynamic call per
/// batch, the superstep loop behind it monomorphised per program.
trait Engine: Send + Sync {
    fn checkpoints_published(&self) -> usize;

    fn arm_kill(&mut self, spec: KillSpec);

    /// Resets every vertex and activates all of them when `arcs` is
    /// `None`, else [`seed`](BspEngine::seed)s the run from the arcs (the
    /// flag: they carry the batch's weights); then
    /// runs and — if a kill fires — recovers the engine to completion,
    /// counting the recovery.
    fn run_batch(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        arcs: Option<(&SeedArcs<'_>, bool)>,
        recoveries: &mut usize,
    ) -> ComputeOutcome;

    fn values(&self) -> VertexValues;
}

impl<P: VertexProgram> Engine for BspEngine<P> {
    fn checkpoints_published(&self) -> usize {
        BspEngine::checkpoints_published(self)
    }

    fn arm_kill(&mut self, spec: KillSpec) {
        BspEngine::arm_kill(self, spec);
    }

    fn run_batch(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        arcs: Option<(&SeedArcs<'_>, bool)>,
        recoveries: &mut usize,
    ) -> ComputeOutcome {
        match arcs {
            None => self.reset_all_active(),
            Some((arcs, batch_weights)) => self.seed(graph, pool, arcs, batch_weights),
        }
        self.begin();
        match self.run(graph, pool) {
            Ok(outcome) => outcome,
            Err(_killed) => {
                *recoveries += 1;
                self.recover();
                self.run(graph, pool)
                    .expect("kill specs are one-shot: the recovered run cannot be killed again")
            }
        }
    }

    fn values(&self) -> VertexValues {
        P::Value::into_values(self.values_vec())
    }
}

/// Sharded counterpart of [`saga_algorithms::AlgorithmState`]: the same
/// algorithm kinds and parameters, executed by the BSP engine.
pub struct ShardedState {
    kind: AlgorithmKind,
    model: ComputeModelKind,
    recoveries: usize,
    /// Sum-mode programs (PageRank) re-evaluate every vertex each batch.
    sum_mode: bool,
    symmetric_scope: bool,
    engine: Box<dyn Engine>,
}

impl std::fmt::Debug for ShardedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedState")
            .field("kind", &self.kind)
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl ShardedState {
    /// Creates a sharded state over a fixed `capacity`-vertex universe cut
    /// into `shards` shards, with the same program construction as
    /// [`saga_algorithms::AlgorithmState::new`].
    pub fn new(
        kind: AlgorithmKind,
        model: ComputeModelKind,
        capacity: usize,
        shards: usize,
        params: AlgorithmParams,
        checkpoints: CheckpointConfig,
    ) -> Self {
        with_program!(kind, params, capacity, program => Self {
            kind,
            model,
            recoveries: 0,
            sum_mode: program.gather_mode() == GatherMode::Sum,
            symmetric_scope: program.scope() == EdgeScope::Symmetric,
            engine: Box::new(BspEngine::new(program, capacity, shards, checkpoints)),
        })
    }

    /// How many kill-and-recover cycles have happened so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Whether batch sources' existing out-neighbors must be seeded as
    /// affected, as [`saga_algorithms::AlgorithmState`]'s method of the
    /// same name answers: only a sum-mode program's
    /// [`term`](VertexProgram::term) reads its source's out-degree.
    pub fn affects_source_neighborhood(&self) -> bool {
        self.sum_mode
    }

    /// Whether the program reduces over both edge directions
    /// ([`EdgeScope::Symmetric`], i.e. CC).
    pub fn symmetric_scope(&self) -> bool {
        self.symmetric_scope
    }

    /// Checkpoints published across all batches so far.
    pub fn checkpoints_published(&self) -> usize {
        self.engine.checkpoints_published()
    }

    /// Arms a one-shot simulated worker kill for the next batch's run.
    pub fn inject_kill(&mut self, spec: KillSpec) {
        self.engine.arm_kill(spec);
    }

    /// Runs the compute phase for one update batch from its affected set —
    /// the sharded counterpart of
    /// [`saga_algorithms::AlgorithmState::perform_alg`], for callers that
    /// hold the tracker's output rather than the batch. An incremental
    /// fold-mode batch without deletions seeds the run with every arc an
    /// affected vertex scatters along (its out-edges, plus its in-edges for
    /// a symmetric-scope program on a directed graph): the tracker marks
    /// both endpoints of every insert, so those terms cover every new edge.
    /// Everything else is a full run (see [`ComputeEngine::compute`] on
    /// this type).
    pub fn perform_batch(
        &mut self,
        graph: &dyn GraphTopology,
        affected: &[Node],
        had_deletes: bool,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        let both = self.symmetric_scope && graph.is_directed();
        let arcs = |shard: Range<usize>, graph: &dyn GraphTopology, visit: &mut dyn FnMut(SeedArc)| {
            for &v in affected.iter().filter(|&&v| shard.contains(&(v as usize))) {
                graph.for_each_out_neighbor(v, &mut |nb, w| {
                    visit(SeedArc { edge: Edge::new(v, nb, w), reverse: false });
                });
                if both {
                    graph.for_each_in_neighbor(v, &mut |nb, w| {
                        visit(SeedArc { edge: Edge::new(nb, v, w), reverse: true });
                    });
                }
            }
        };
        self.execute(graph, had_deletes, pool, (&arcs, false))
    }

    /// Whether a batch recomputes from initial values with every vertex
    /// active: from-scratch batches, PageRank (whole-graph power
    /// iteration) and any batch with deletions (monotone fold state cannot
    /// be repaired by pushing).
    fn full_run(&self, had_deletes: bool) -> bool {
        self.model == ComputeModelKind::FromScratch || self.sum_mode || had_deletes
    }

    /// One batch on the engine, [seeded](BspEngine::seed) from `arcs`
    /// unless it is a [`full_run`](Self::full_run). A run interrupted by an
    /// armed [`KillSpec`] is recovered from the latest superstep checkpoint
    /// and re-run to completion — the outcome then counts the replayed
    /// supersteps too.
    fn execute(
        &mut self,
        graph: &dyn GraphTopology,
        had_deletes: bool,
        pool: &ThreadPool,
        arcs: (&SeedArcs<'_>, bool),
    ) -> ComputeOutcome {
        let arcs = (!self.full_run(had_deletes)).then_some(arcs);
        let outcome = self.engine.run_batch(graph, pool, arcs, &mut self.recoveries);
        let fs_fallback =
            had_deletes && self.model == ComputeModelKind::Incremental && !self.sum_mode;
        ComputeOutcome { fs_fallback, ..outcome }
    }

    /// Current vertex values in global-id order.
    pub fn values(&self) -> VertexValues {
        self.engine.values()
    }
}

impl ComputeEngine for ShardedState {
    /// Runs the compute phase for one batch already applied to `graph`.
    ///
    /// An incremental fold-mode batch without deletions is seeded from the
    /// batch itself: one [`SeedArc`] per inserted edge, plus its reverse
    /// when the program's scope is [`EdgeScope::Symmetric`] or the graph
    /// is undirected. The arcs carry the batch's weights, which
    /// [`BspEngine::seed`] replaces with the weight the structure stored
    /// (the first one ingested wins) before any term is folded: the
    /// inserted edges are exactly what changed, so the engine keeps the
    /// default [`track`](ComputeEngine::track) and `impact` is empty. Every
    /// other batch is a full run, the deletions reporting `fs_fallback`.
    fn compute(
        &mut self,
        graph: &dyn GraphTopology,
        _impact: &BatchImpact,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        let both = self.symmetric_scope || !graph.is_directed();
        let arcs = |shard: Range<usize>, _: &dyn GraphTopology, visit: &mut dyn FnMut(SeedArc)| {
            let from = |v: Node| shard.contains(&(v as usize));
            for &edge in inserted.iter().filter(|e| from(e.src)) {
                visit(SeedArc { edge, reverse: false });
            }
            if both {
                for &edge in inserted.iter().filter(|e| from(e.dst)) {
                    visit(SeedArc { edge, reverse: true });
                }
            }
        };
        self.execute(graph, !deleted.is_empty(), pool, (&arcs, true))
    }

    fn values(&self) -> VertexValues {
        self.engine.values()
    }
}
