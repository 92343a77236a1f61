//! The differential checker: one program, every implementation.
//!
//! A program's ground truth is computed once from the [`GraphOracle`]
//! (a `BTreeMap` reference structure): per-batch insert/delete stats, a
//! per-batch edge-list snapshot, and per-batch from-scratch property
//! values on a [`Csr`] built from that snapshot. Every structure × driver
//! × compute-model combination is then replayed against that model,
//! comparing per-batch [`BatchRecord`](saga_core::driver::BatchRecord)
//! counts, per-batch property values, and the final topology.

use crate::program::OpProgram;
use saga_algorithms::{
    AlgorithmKind, AlgorithmState, ComputeModelKind, ComputeOutcome, VertexValues,
};
use saga_core::driver::StreamDriver;
use saga_core::pipelined::run_pipelined_full;
use saga_graph::csr::Csr;
use saga_graph::oracle::GraphOracle;
use saga_graph::{DataStructureKind, DeleteStats, Edge, UpdateStats};
use saga_server::tenant::tenant_params;
use saga_stream::{EdgeOp, EdgeStream};
use saga_utils::parallel::ThreadPool;
use std::cell::RefCell;

/// Which driver path a run exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// Interleaved update/compute, per-edge shared-memory ingest.
    Serial,
    /// Interleaved, with radix-partitioned ingest forced on.
    Partitioned,
    /// Interleaved, compute on the sharded BSP engine (`saga-bsp`).
    Sharded,
    /// Update ∥ compute pipelining on CSR snapshots (INC only).
    Pipelined,
}

impl DriverKind {
    /// Every driver path.
    pub const ALL: [DriverKind; 4] = [
        DriverKind::Serial,
        DriverKind::Partitioned,
        DriverKind::Sharded,
        DriverKind::Pipelined,
    ];

    /// Shard count the differential `Sharded` runs use: deliberately
    /// coprime with the checker's thread counts so worker→shard
    /// assignment wraps.
    pub const DIFF_SHARDS: usize = 3;
}

/// A deliberate bug injected into one structure's input stream — a pure
/// program transformation, so a faulty run stays deterministic and the
/// shrinker can minimize the program that exposes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop every `n`-th delete op (1-based count; `n = 1` drops all).
    DropEveryNthDelete(usize),
    /// Redirect every delete op onto the reversed edge `(dst, src)`.
    ReverseDeleteEndpoints,
}

impl Fault {
    /// Applies the fault to a program, returning the corrupted variant the
    /// faulty structure will run (the oracle always sees the original).
    pub fn corrupt(&self, program: &OpProgram) -> OpProgram {
        let mut out = program.clone();
        let mut nth = 0usize;
        for batch in &mut out.batches {
            match self {
                Fault::DropEveryNthDelete(n) => {
                    batch.retain(|&(op, _, _)| {
                        if op == EdgeOp::Delete {
                            nth += 1;
                            !nth.is_multiple_of(*n.max(&1))
                        } else {
                            true
                        }
                    });
                }
                Fault::ReverseDeleteEndpoints => {
                    for op in batch.iter_mut() {
                        if op.0 == EdgeOp::Delete {
                            *op = (EdgeOp::Delete, op.2, op.1);
                        }
                    }
                }
            }
        }
        out.batches.retain(|b| !b.is_empty());
        out
    }
}

/// Fault routed to one structure (all others run the true program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The structure that receives the corrupted program.
    pub structure: DataStructureKind,
    /// The corruption.
    pub fault: Fault,
}

/// Configuration of one differential check.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Algorithm whose property values are compared.
    pub algorithm: AlgorithmKind,
    /// Worker threads per driver pool.
    pub threads: usize,
    /// Whether topology comparison also checks edge weights.
    pub check_weights: bool,
    /// Optional injected bug (mutation testing of the harness itself).
    pub fault: Option<FaultPlan>,
}

impl CheckConfig {
    /// A fast default: BFS values, 2 threads, weight checking on.
    pub fn quick() -> CheckConfig {
        CheckConfig {
            algorithm: AlgorithmKind::Bfs,
            threads: 2,
            check_weights: true,
            fault: None,
        }
    }
}

/// A detected disagreement between an implementation and the model.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Structure that diverged.
    pub structure: DataStructureKind,
    /// Driver path that diverged.
    pub driver: DriverKind,
    /// Compute model of the diverging run (`None` for topology-only).
    pub model: Option<ComputeModelKind>,
    /// Batch index (`None` for end-of-stream checks).
    pub batch: Option<usize>,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}/{:?}{}{}: {}",
            self.structure,
            self.driver,
            self.model.map(|m| format!("/{m:?}")).unwrap_or_default(),
            self.batch.map(|b| format!(" batch {b}")).unwrap_or_default(),
            self.detail
        )
    }
}

/// What the serial INC replay of a check did with its deletion batches —
/// the evidence that INC == FS was reached by repairing, not by always
/// recomputing from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairTally {
    /// Batches that removed at least one edge.
    pub deletion_batches: usize,
    /// Of those, batches INC repaired (reset ≥ 1 vertex, no fallback).
    pub repaired: usize,
    /// Of those, batches INC recomputed from scratch.
    pub fell_back: usize,
}

impl RepairTally {
    fn record(&mut self, removed: usize, compute: &ComputeOutcome) {
        if removed > 0 {
            self.deletion_batches += 1;
            self.repaired += usize::from(!compute.fs_fallback && compute.repaired > 0);
            self.fell_back += usize::from(compute.fs_fallback);
        }
    }
}

/// Per-batch ground truth derived from the oracle replay.
struct BatchModel {
    ins: UpdateStats,
    del: DeleteStats,
    /// From-scratch property values on a CSR of the post-batch topology.
    fs_values: VertexValues,
}

/// Compares two value vectors with per-type tolerances (u32 exact, f32
/// 1e-4, f64 1e-6 — matching the churn differential suite).
pub fn values_diff(reference: &VertexValues, got: &VertexValues) -> Option<String> {
    match (reference, got) {
        (VertexValues::U32(a), VertexValues::U32(b)) => a.iter().zip(b.iter()).enumerate().find_map(
            |(v, (x, y))| (x != y).then(|| format!("vertex {v}: reference {x} got {y}")),
        ),
        (VertexValues::F32(a), VertexValues::F32(b)) => {
            a.iter().zip(b.iter()).enumerate().find_map(|(v, (x, y))| {
                (x != y && (x - y).abs() >= 1e-4)
                    .then(|| format!("vertex {v}: reference {x} got {y}"))
            })
        }
        (VertexValues::F64(a), VertexValues::F64(b)) => {
            a.iter().zip(b.iter()).enumerate().find_map(|(v, (x, y))| {
                ((x - y).abs() >= 1e-6).then(|| format!("vertex {v}: reference {x} got {y}"))
            })
        }
        _ => Some("value type mismatch".into()),
    }
}

/// Replays the true program through the oracle, producing per-batch stats,
/// the final oracle, and per-batch FS reference values.
fn build_model(
    program: &OpProgram,
    algorithm: AlgorithmKind,
    root: saga_graph::Node,
    pool: &ThreadPool,
) -> (Vec<BatchModel>, GraphOracle) {
    let mut oracle = GraphOracle::new(program.capacity, program.directed);
    let mut model = Vec::with_capacity(program.batches.len());
    for batch in &program.batches {
        let mut inserts: Vec<Edge> = Vec::new();
        let mut deletes: Vec<Edge> = Vec::new();
        for &(op, s, d) in batch {
            let e = Edge::new(s, d, saga_stream::edge_weight(s, d, program.directed));
            match op {
                EdgeOp::Insert => inserts.push(e),
                EdgeOp::Delete => deletes.push(e),
            }
        }
        let (ins, del) = oracle.apply_batch(&inserts, &deletes);
        let snapshot = Csr::from_edges(program.capacity, program.directed, &oracle.edge_list());
        let mut fs = AlgorithmState::new(
            algorithm,
            ComputeModelKind::FromScratch,
            program.capacity,
            tenant_params(root),
        );
        fs.perform_alg(&snapshot, &[], &[], pool);
        model.push(BatchModel {
            ins,
            del,
            fs_values: fs.values(),
        });
    }
    (model, oracle)
}

fn counts_diff(
    model: &BatchModel,
    inserted: usize,
    duplicates: usize,
    removed: usize,
    missing: usize,
) -> Option<String> {
    if inserted != model.ins.inserted {
        return Some(format!(
            "inserted count: model {} got {inserted}",
            model.ins.inserted
        ));
    }
    if duplicates != model.ins.duplicates {
        return Some(format!(
            "duplicate count: model {} got {duplicates}",
            model.ins.duplicates
        ));
    }
    if removed != model.del.removed {
        return Some(format!(
            "removed count: model {} got {removed}",
            model.del.removed
        ));
    }
    if missing != model.del.missing {
        return Some(format!(
            "missing count: model {} got {missing}",
            model.del.missing
        ));
    }
    None
}

/// Checks one program differentially across all 5 structures (the paper's
/// four plus the delta-CSR extension) × {serial, partitioned, sharded BSP}
/// × {FS, INC} plus the pipelined INC driver, returning the first
/// divergence found (or `None` when every combination agrees with the
/// oracle model).
///
/// DeltaCsr rides the same matrix as the paper structures, which in
/// particular replays every program *through compaction boundaries*: any
/// INC/FS disagreement introduced by a snapshot merge shows up as a
/// divergence against the oracle model.
pub fn check_program(program: &OpProgram, config: &CheckConfig) -> Option<Divergence> {
    check_program_tallied(program, config, &mut RepairTally::default())
}

/// [`check_program`], adding each structure's serial INC deletion batches
/// to `tally`.
pub(crate) fn check_program_tallied(
    program: &OpProgram,
    config: &CheckConfig,
    tally: &mut RepairTally,
) -> Option<Divergence> {
    if program.batches.is_empty() {
        return None;
    }
    let true_stream = program.to_stream();
    let root = true_stream.edges.first().map(|e| e.src).unwrap_or(0);
    let ref_pool = ThreadPool::new(config.threads);
    let (model, oracle) = build_model(program, config.algorithm, root, &ref_pool);

    for ds in DataStructureKind::ALL_WITH_DELTA {
        // A fault plan corrupts this structure's *input*; the model keeps
        // describing the true program, so the corruption must surface as a
        // divergence on this structure only.
        let corrupted: Option<OpProgram> = match config.fault {
            Some(plan) if plan.structure == ds => Some(plan.fault.corrupt(program)),
            _ => None,
        };
        let stream = corrupted.as_ref().map(OpProgram::to_stream);
        let stream: &EdgeStream = stream.as_ref().unwrap_or(&true_stream);
        if stream.edges.is_empty() {
            // Only a fault can empty a stream (generated batches are
            // non-empty) — the whole program vanished, which is itself a
            // divergence from the model.
            return Some(Divergence {
                structure: ds,
                driver: DriverKind::Serial,
                model: None,
                batch: None,
                detail: "corrupted stream is empty while the model has batches".into(),
            });
        }

        for driver in [
            DriverKind::Serial,
            DriverKind::Partitioned,
            DriverKind::Sharded,
        ] {
            for model_kind in ComputeModelKind::ALL {
                if let Some(d) = check_interleaved(
                    program, stream, &model, &oracle, ds, driver, model_kind, root, config, tally,
                ) {
                    return Some(d);
                }
            }
        }
        if let Some(d) = check_pipelined(stream, &model, &oracle, ds, root, config) {
            return Some(d);
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn check_interleaved(
    program: &OpProgram,
    stream: &EdgeStream,
    model: &[BatchModel],
    oracle: &GraphOracle,
    ds: DataStructureKind,
    driver: DriverKind,
    model_kind: ComputeModelKind,
    root: saga_graph::Node,
    config: &CheckConfig,
    tally: &mut RepairTally,
) -> Option<Divergence> {
    let tallied = driver == DriverKind::Serial && model_kind == ComputeModelKind::Incremental;
    let mut builder = StreamDriver::builder(ds, program.capacity)
        .algorithm(config.algorithm)
        .compute_model(model_kind)
        .threads(config.threads)
        .root(root)
        .params(tenant_params(root))
        .partitioned_ingest(driver == DriverKind::Partitioned);
    if driver == DriverKind::Sharded {
        builder = builder.sharded(DriverKind::DIFF_SHARDS);
    }
    let mut d = builder.build();
    let first: RefCell<Option<Divergence>> = RefCell::new(None);
    let divergence = |batch: Option<usize>, detail: String| Divergence {
        structure: ds,
        driver,
        model: Some(model_kind),
        batch,
        detail,
    };
    d.run_observed(stream, |record, graph, state| {
        if first.borrow().is_some() {
            return;
        }
        if tallied {
            tally.record(record.removed, &record.compute);
        }
        let i = record.index;
        let Some(expect) = model.get(i) else {
            *first.borrow_mut() = Some(divergence(Some(i), "batch beyond model".into()));
            return;
        };
        let found = counts_diff(
            expect,
            record.inserted,
            record.duplicates,
            record.removed,
            record.missing,
        )
        .or_else(|| values_diff(&expect.fs_values, &state.values()))
        .or_else(|| {
            // Final batch: the live structure must match the oracle.
            (i + 1 == model.len())
                .then(|| oracle.diff(graph, config.check_weights))
                .flatten()
        });
        if let Some(detail) = found {
            *first.borrow_mut() = Some(divergence(Some(i), detail));
        }
    });
    let clean_so_far = first.borrow().is_none();
    let mut found = first.into_inner();
    if clean_so_far {
        // A corrupted stream can lose whole batches; the count check makes
        // sure the final-topology comparison above actually ran.
        let ran = stream.op_batches(stream.edges.len().max(1)).count();
        if ran != model.len() {
            found = Some(divergence(
                None,
                format!("batch count: model {} got {ran}", model.len()),
            ));
        }
    }
    found
}

fn check_pipelined(
    stream: &EdgeStream,
    model: &[BatchModel],
    oracle: &GraphOracle,
    ds: DataStructureKind,
    root: saga_graph::Node,
    config: &CheckConfig,
) -> Option<Divergence> {
    let (outcome, graph) = run_pipelined_full(
        stream,
        ds,
        config.algorithm,
        stream.edges.len().max(1),
        config.threads,
        config.threads,
        tenant_params(root),
    );
    let divergence = |batch: Option<usize>, detail: String| Divergence {
        structure: ds,
        driver: DriverKind::Pipelined,
        model: Some(ComputeModelKind::Incremental),
        batch,
        detail,
    };
    // Per-batch counts are safe to compare (captured synchronously with
    // each apply); values are only compared at end-of-stream because the
    // live graph is mutated concurrently with each batch's compute.
    for record in &outcome.batches {
        let Some(expect) = model.get(record.index) else {
            return Some(divergence(Some(record.index), "batch beyond model".into()));
        };
        if let Some(detail) = counts_diff(
            expect,
            record.inserted,
            record.duplicates,
            record.removed,
            record.missing,
        ) {
            return Some(divergence(Some(record.index), detail));
        }
    }
    if outcome.batches.len() != model.len() {
        return Some(divergence(
            None,
            format!(
                "batch count: model {} got {}",
                model.len(),
                outcome.batches.len()
            ),
        ));
    }
    if let Some(expect) = model.last() {
        if let Some(detail) = values_diff(&expect.fs_values, &outcome.final_values) {
            return Some(divergence(None, detail));
        }
    }
    if let Some(detail) = oracle.diff(graph.as_ref(), config.check_weights) {
        return Some(Divergence {
            structure: ds,
            driver: DriverKind::Pipelined,
            model: None,
            batch: None,
            detail,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramProfile;

    #[test]
    fn clean_programs_have_no_divergence() {
        for (i, profile) in ProgramProfile::ALL.into_iter().enumerate() {
            let program = OpProgram::generate(0xBEEF + i as u64, profile);
            let config = CheckConfig::quick();
            let got = check_program(&program, &config);
            assert!(got.is_none(), "{profile:?}: {}", got.unwrap());
        }
    }

    #[test]
    fn dropped_delete_is_detected() {
        let program = OpProgram::from_ops(
            4,
            true,
            &[&[(EdgeOp::Insert, 0, 1), (EdgeOp::Delete, 0, 1)]],
        );
        let config = CheckConfig {
            fault: Some(FaultPlan {
                structure: DataStructureKind::Stinger,
                fault: Fault::DropEveryNthDelete(1),
            }),
            ..CheckConfig::quick()
        };
        let d = check_program(&program, &config).expect("fault must diverge");
        assert_eq!(d.structure, DataStructureKind::Stinger);
        assert!(d.detail.contains("removed count"), "{d}");
    }
}
