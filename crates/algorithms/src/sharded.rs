//! [`ShardedState`]: the programs of [`AlgorithmState`](crate::AlgorithmState)
//! on the superstep engine with a fixed shard count and superstep
//! checkpoints, so a killed worker's run recovers to the same bits.

use crate::checkpoint::CheckpointConfig;
use crate::engine::{KillSpec, Seed};
use crate::{
    AlgorithmKind, AlgorithmParams, BatchImpact, Bound, ComputeEngine, ComputeModelKind,
    ComputeOutcome, VertexValues,
};
use saga_graph::{Edge, GraphTopology, Node};
use saga_utils::parallel::ThreadPool;

/// Sharded counterpart of [`AlgorithmState`](crate::AlgorithmState): the
/// same algorithm kinds and parameters, every batch on the superstep engine
/// over `shards` shards.
///
/// A Fold program's INC batch runs as the serial state's does — seeded
/// from the batch, deletions repaired through the witness forest. Every
/// other batch (the FS model, PageRank) recomputes from initial values in
/// supersteps, so a kill can land in any of them.
#[derive(Debug)]
pub struct ShardedState {
    shards: usize,
    bound: Bound,
}

impl ShardedState {
    /// Creates a sharded state over a fixed `capacity`-vertex universe cut
    /// into `shards` shards, with the same program construction as
    /// [`AlgorithmState::new`](crate::AlgorithmState::new).
    pub fn new(
        kind: AlgorithmKind,
        model: ComputeModelKind,
        capacity: usize,
        shards: usize,
        params: AlgorithmParams,
        checkpoints: CheckpointConfig,
    ) -> Self {
        let bound = Bound::new(kind, model, capacity, shards, &params, Some(checkpoints));
        Self { shards, bound }
    }

    /// How many kill-and-recover cycles have happened so far.
    pub fn recoveries(&self) -> usize {
        self.bound.engine.recoveries()
    }

    /// Whether batch sources' existing out-neighbors must be seeded as
    /// affected, as [`AlgorithmState`](crate::AlgorithmState)'s method of
    /// the same name answers: only a sum-mode program's
    /// [`term`](crate::program::VertexProgram::term) reads its source's out-degree.
    pub fn affects_source_neighborhood(&self) -> bool {
        self.bound.sum_mode
    }

    /// Whether the program reduces over both edge directions
    /// ([`EdgeScope::Symmetric`](crate::program::EdgeScope::Symmetric), i.e. CC).
    pub fn symmetric_scope(&self) -> bool {
        self.bound.symmetric_scope
    }

    /// Checkpoints published across all batches so far.
    pub fn checkpoints_published(&self) -> usize {
        self.bound.engine.checkpoints_published()
    }

    /// Arms a one-shot simulated worker kill for the next batch's run.
    pub fn inject_kill(&mut self, spec: KillSpec) {
        self.bound.engine.arm_kill(spec);
    }

    /// Runs the compute phase for one update batch from its affected set —
    /// the sharded counterpart of
    /// [`AlgorithmState::perform_alg`](crate::AlgorithmState::perform_alg),
    /// for callers that hold the tracker's output rather than the batch. A
    /// Fold program's INC batch lets every affected vertex pull its
    /// in-edges in superstep 0: the tracker marks both endpoints of every
    /// insert, so those pulls cover every new edge.
    /// A batch with deletions does not name them, so it recomputes from
    /// scratch and rebuilds the witness forest.
    pub fn perform_batch(
        &mut self,
        graph: &dyn GraphTopology,
        affected: &[Node],
        had_deletes: bool,
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        if !self.bound.fold_inc() {
            self.bound.engine.supersteps(graph, pool)
        } else if had_deletes {
            self.bound.engine.from_scratch(graph, pool)
        } else {
            let seed = Seed::Affected { affected, new_vertices: &[] };
            self.bound.engine.incremental(graph, pool, self.shards, seed, &[])
        }
    }

    /// Current vertex values in global-id order.
    pub fn values(&self) -> VertexValues {
        self.bound.engine.values()
    }

    /// The witness forest of a Fold program's INC state (each vertex's
    /// parent, `u32::MAX` for none); `None` for every other state.
    pub fn witnesses(&self) -> Option<Vec<Node>> {
        self.bound.engine.witnesses()
    }
}

impl ComputeEngine for ShardedState {
    /// Runs the compute phase for one batch already applied to `graph`.
    ///
    /// A Fold program's INC batch is seeded from the batch itself: of the
    /// inserted edges' endpoints, those the edge's own term would change
    /// pull their in-edges in superstep 0 (the weights they read are the
    /// ones the structure stored), where the unsharded state's Algorithm 1
    /// pulls every endpoint. The inserted edges are exactly what changed, so the state
    /// keeps the default [`track`](ComputeEngine::track) and `impact` is
    /// empty. `deleted` edges are repaired through the witness forest.
    /// Every other batch recomputes from initial values in supersteps.
    fn compute(
        &mut self,
        graph: &dyn GraphTopology,
        _impact: &BatchImpact,
        inserted: &[Edge],
        deleted: &[Edge],
        pool: &ThreadPool,
    ) -> ComputeOutcome {
        if !self.bound.fold_inc() {
            return self.bound.engine.supersteps(graph, pool);
        }
        self.bound.engine.incremental(graph, pool, self.shards, Seed::Improving(inserted), deleted)
    }

    fn values(&self) -> VertexValues {
        ShardedState::values(self)
    }
}
