//! Kill-and-recover differential harness for the sharded BSP path.
//!
//! For one op program the harness replays the stream once, driving three
//! compute states over the same live graph:
//!
//! * the **oracle**, a from-scratch [`AlgorithmState`] — the FS kernels,
//!   independent of the superstep engine under test;
//! * an **uninterrupted** sharded BSP state;
//! * a **victim** sharded BSP state with a one-shot [`KillSpec`] armed,
//!   which dies mid-superstep, recovers from the last superstep-boundary
//!   checkpoint, and replays.
//!
//! After every batch the victim must match the uninterrupted twin
//! **bitwise**, witness forest included (recovery restores total state and
//! the mailbox drain order is deterministic — DESIGN.md §12), and the twin
//! must match the oracle within the usual per-type tolerances. At end of
//! stream the kill must actually have fired; a harness whose fault never
//! triggers proves nothing.

use crate::diff::values_diff;
use crate::program::OpProgram;
use saga_algorithms::{
    AlgorithmKind, AlgorithmState, CheckpointConfig, ComputeEngine, ComputeModelKind, KillSpec,
    ShardedState,
};
use saga_graph::{build_deletable_graph, DataStructureKind, Edge};
use saga_server::tenant::tenant_params;
use saga_stream::EdgeOp;
use saga_utils::parallel::ThreadPool;

/// Configuration of one kill-and-recover check.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Compute model (FS always full-runs; INC seeds batches from their
    /// edges and repairs deletions through the witness forest).
    pub model: ComputeModelKind,
    /// Data structure backing the live graph.
    pub structure: DataStructureKind,
    /// Shard count for both BSP states.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// The fault. Armed once, before the first batch; it fires in the
    /// first run that reaches its superstep/shard/phase coordinates.
    pub kill: KillSpec,
}

/// Replays `program` per the harness contract above. Returns the first
/// disagreement found, or `None` when the killed-and-recovered state is
/// bitwise identical to the uninterrupted one (and both track the FS
/// oracle) on every batch.
pub fn check_recovery(program: &OpProgram, config: &RecoveryConfig) -> Option<String> {
    let stream = program.to_stream();
    let root = stream.edges.first().map(|e| e.src).unwrap_or(0);
    let pool = ThreadPool::new(config.threads);
    let graph = build_deletable_graph(
        config.structure,
        program.capacity,
        program.directed,
        pool.threads(),
    );
    let params = tenant_params(root);
    let mut oracle = AlgorithmState::new(
        config.algorithm,
        ComputeModelKind::FromScratch,
        program.capacity,
        params,
    );
    let make_sharded = || {
        ShardedState::new(
            config.algorithm,
            config.model,
            program.capacity,
            config.shards,
            params,
            CheckpointConfig::default(),
        )
    };
    let mut baseline = make_sharded();
    let mut victim = make_sharded();
    victim.inject_kill(config.kill);

    for (index, batch) in program.batches.iter().enumerate() {
        let mut inserts: Vec<Edge> = Vec::new();
        let mut deletes: Vec<Edge> = Vec::new();
        for &(op, s, d) in batch {
            let e = Edge::new(s, d, saga_stream::edge_weight(s, d, program.directed));
            match op {
                EdgeOp::Insert => inserts.push(e),
                EdgeOp::Delete => deletes.push(e),
            }
        }
        graph.update_batch(&inserts, &pool);
        if !deletes.is_empty() {
            graph.delete_batch(&deletes, &pool);
        }
        // The driver's entry for all three engines: the sharded twins track
        // nothing and seed incremental batches from `inserts`, repairing
        // `deletes`, so kills land in edge-seeded and repair runs too.
        for engine in [&mut oracle as &mut dyn ComputeEngine, &mut baseline, &mut victim] {
            let impact = engine.track(graph.as_ref(), &inserts, &deletes, &pool);
            engine.compute(graph.as_ref(), &impact, &inserts, &deletes, &pool);
        }
        // The recovery contract is exact: restored state + deterministic
        // replay ⇒ no float tolerance, even for PR/SSSP/SSWP.
        if victim.values() != baseline.values() {
            let detail = values_diff(&baseline.values(), &victim.values())
                .unwrap_or_else(|| "values differ only in float bit patterns".into());
            return Some(format!(
                "batch {index}: recovered run diverged from uninterrupted run: {detail}"
            ));
        }
        if victim.witnesses() != baseline.witnesses() {
            return Some(format!(
                "batch {index}: recovered run's witness forest diverged from the uninterrupted run's"
            ));
        }
        if let Some(detail) = values_diff(&oracle.values(), &baseline.values()) {
            return Some(format!("batch {index}: sharded BSP diverged from the FS oracle: {detail}"));
        }
    }
    if victim.recoveries() == 0 {
        return Some(format!(
            "kill {:?} never fired — the check was vacuous",
            config.kill
        ));
    }
    None
}
