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
//! shard state) separated by a leader-electing barrier
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
//! [`AlgorithmKind`], routes per-batch seed sets to their shards with the
//! radix [`Partitioner`], and maps BSP outcomes back onto
//! [`ComputeOutcome`].

pub mod checkpoint;
pub mod engine;
pub mod layout;
pub mod mailbox;

pub use checkpoint::CheckpointConfig;
pub use engine::{BspOutcome, KillPhase, KillSpec, Killed};

use crate::engine::BspEngine;
use crate::layout::ShardLayout;
use saga_algorithms::program::{EdgeScope, GatherMode, VertexProgram};
use saga_algorithms::{
    with_program, AlgorithmKind, AlgorithmParams, BatchImpact, ComputeEngine, ComputeModelKind,
    ComputeOutcome, VertexValues,
};
use saga_graph::properties::Property;
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::parallel::ThreadPool;
use saga_utils::partition::Partitioner;

/// A [`BspEngine`] with the program type erased: one dynamic call per
/// batch, the superstep loop behind it monomorphised per program.
trait Engine: Send + Sync {
    fn checkpoints_published(&self) -> usize;

    fn arm_kill(&mut self, spec: KillSpec);

    /// Seeds (all vertices when `seeds` is `None`, else each shard's
    /// `partitioner` bucket of the seed list), runs, and — if a kill fires
    /// — recovers the engine to completion, counting the recovery.
    fn run_batch(
        &mut self,
        graph: &dyn GraphTopology,
        pool: &ThreadPool,
        seeds: Option<(&[Node], &Partitioner)>,
        recoveries: &mut usize,
    ) -> BspOutcome;

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
        seeds: Option<(&[Node], &Partitioner)>,
        recoveries: &mut usize,
    ) -> BspOutcome {
        match seeds {
            None => self.reset_all_active(),
            Some((seeds, partitioner)) => {
                for s in 0..self.layout().shards() {
                    self.set_active(s, partitioner.bucket(s).iter().map(|&i| seeds[i as usize]));
                }
            }
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
    capacity: usize,
    shards: usize,
    /// Radix router for per-batch seed sets (reused across batches, so
    /// its internal index buffers amortize like the ingest partitioner's).
    partitioner: Partitioner,
    recoveries: usize,
    /// Sum-mode programs (PageRank) re-evaluate every vertex each batch.
    sum_mode: bool,
    affects_source_neighborhood: bool,
    symmetric_scope: bool,
    engine: Box<dyn Engine>,
}

impl std::fmt::Debug for ShardedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedState")
            .field("kind", &self.kind)
            .field("model", &self.model)
            .field("capacity", &self.capacity)
            .field("shards", &self.shards)
            .finish()
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
            capacity,
            shards,
            partitioner: Partitioner::new(),
            recoveries: 0,
            sum_mode: program.gather_mode() == GatherMode::Sum,
            affects_source_neighborhood: program.affects_source_neighborhood(),
            symmetric_scope: program.scope() == EdgeScope::Symmetric,
            engine: Box::new(BspEngine::new(program, capacity, shards, checkpoints)),
        })
    }

    /// How many kill-and-recover cycles have happened so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Whether batch sources' existing out-neighbors must be seeded as
    /// affected (mirrors [`saga_algorithms::AlgorithmState`]'s tracker
    /// wiring; the answer comes from the same program trait).
    pub fn affects_source_neighborhood(&self) -> bool {
        self.affects_source_neighborhood
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

    /// Runs the compute phase for one update batch — the sharded
    /// counterpart of [`saga_algorithms::AlgorithmState::perform_alg`].
    ///
    /// Incremental fold-mode batches without deletions seed the frontier
    /// from `affected` (the tracker marks both endpoints of every insert,
    /// so push-form propagation from the seeds covers every new edge).
    /// From-scratch batches, PageRank (whole-graph power iteration), and
    /// any batch with deletions (monotone fold state cannot be repaired
    /// by pushing) recompute from initial values with all vertices
    /// active; the latter case reports `fs_fallback`.
    ///
    /// A run interrupted by an armed [`KillSpec`] is recovered from the
    /// latest superstep checkpoint and re-run to completion — the outcome
    /// then counts the replayed supersteps too.
    pub fn perform_batch(
        &mut self,
        graph: &dyn GraphTopology,
        affected: &[Node],
        had_deletes: bool,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        let full = self.model == ComputeModelKind::FromScratch || self.sum_mode || had_deletes;
        if !full {
            let layout = ShardLayout::new(self.capacity, self.shards);
            self.partitioner
                .partition(pool, affected.len(), self.shards, |i| {
                    layout.shard_of(affected[i] as usize)
                });
        }
        let seeds = (!full).then_some((affected, &self.partitioner));
        let outcome = self.engine.run_batch(graph, pool, seeds, &mut self.recoveries);
        ComputeOutcome {
            iterations: outcome.supersteps,
            recomputed: outcome.messages as usize,
            triggered: 0,
            repaired: 0,
            fs_fallback: had_deletes
                && self.model == ComputeModelKind::Incremental
                && !self.sum_mode,
        }
    }

    /// Current vertex values in global-id order.
    pub fn values(&self) -> VertexValues {
        self.engine.values()
    }
}

impl ComputeEngine for ShardedState {
    fn affects_source_neighborhood(&self) -> bool {
        self.affects_source_neighborhood
    }

    fn symmetric_scope(&self) -> bool {
        self.symmetric_scope
    }

    fn compute(
        &mut self,
        graph: &dyn GraphTopology,
        impact: &BatchImpact,
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        self.perform_batch(graph, &impact.affected, !deleted.is_empty(), pool)
    }

    fn values(&self) -> VertexValues {
        self.engine.values()
    }
}
