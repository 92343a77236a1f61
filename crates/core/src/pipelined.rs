//! Pipelined execution: update and compute in parallel (footnote 1).
//!
//! SAGA-Bench v1 interleaves the update and compute phases (Fig. 2b). The
//! paper notes that recent systems (Aspen, GraphOne) use data structures
//! "capable of parallelizing update and compute" and lists that model for
//! a future version — this module provides it on top of the
//! [`GraphTopology`]/[`DynamicGraph`] trait split:
//!
//! 1. after ingesting batch *i*, an immutable [`Csr`] snapshot is taken;
//! 2. the compute phase for batch *i* runs on that snapshot, **while**
//!    the update phase for batch *i+1* runs on the live structure.
//!
//! The suite's naive snapshot (a full CSR copy) charges the snapshot cost
//! to the update pipeline stage, so the measured speedup over interleaved
//! execution is honest about the price of this model; systems like Aspen
//! make snapshots O(1) with functional trees.
//!
//! There is no second batch loop here: the run is a
//! [`DriverSession`](crate::driver::DriverSession) whose two halves — apply
//! to the live graph, track + compute against a topology — are overlapped
//! instead of sequenced, so root policy, tracker seeding, spans and
//! `driver.*` metrics are the session's.
//!
//! [`Csr`]: saga_graph::csr::Csr
//! [`GraphTopology`]: saga_graph::GraphTopology
//! [`DynamicGraph`]: saga_graph::DynamicGraph

use crate::driver::{Applied, ApplyHalf, DriverSession, StreamDriver};
use saga_algorithms::{AlgorithmKind, AlgorithmParams, ComputeModelKind};
use saga_graph::csr::Csr;
use saga_graph::{DataStructureKind, DeletableGraph, Edge};
use saga_stream::EdgeStream;
use saga_utils::parallel::ThreadPool;
use saga_utils::timer::Stopwatch;
use std::borrow::Cow;

/// Per-batch measurements of a pipelined run.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedBatchRecord {
    /// Batch index.
    pub index: usize,
    /// Seconds spent updating the live structure with the *next* batch
    /// (plus snapshotting it), overlapped with this batch's compute.
    pub update_seconds: f64,
    /// Seconds spent computing on this batch's snapshot.
    pub compute_seconds: f64,
    /// Wall-clock seconds of the overlapped stage: ideally
    /// `max(update, compute)` rather than their sum.
    pub wall_seconds: f64,
    /// Edges newly inserted by this batch.
    pub inserted: usize,
    /// Duplicate edges skipped by this batch.
    pub duplicates: usize,
    /// Edges found and removed by this batch's deletions.
    pub removed: usize,
    /// Deletion targets that were not present.
    pub missing: usize,
}

/// Outcome of a pipelined run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Per-batch records.
    pub batches: Vec<PipelinedBatchRecord>,
    /// Final vertex values.
    pub final_values: saga_algorithms::VertexValues,
}

impl PipelineOutcome {
    /// Total overlapped wall time.
    pub fn pipelined_seconds(&self) -> f64 {
        self.batches.iter().map(|b| b.wall_seconds).sum()
    }

    /// What the same phases would cost end-to-end without overlap.
    pub fn serial_estimate_seconds(&self) -> f64 {
        self.batches
            .iter()
            .map(|b| b.update_seconds + b.compute_seconds)
            .sum()
    }

    /// Speedup of pipelining over interleaved execution (> 1 when the
    /// overlap pays for the snapshot cost).
    pub fn overlap_speedup(&self) -> f64 {
        let wall = self.pipelined_seconds();
        if wall == 0.0 {
            1.0
        } else {
            self.serial_estimate_seconds() / wall
        }
    }
}

/// Runs a stream with update ∥ compute pipelining.
///
/// `update_threads` + `compute_threads` workers are used in total: the
/// update stage owns one pool, the compute stage the other, mirroring a
/// deployment that partitions cores between ingest and analytics.
///
/// # Examples
///
/// ```
/// use saga_core::pipelined::run_pipelined;
/// use saga_graph::DataStructureKind;
/// use saga_algorithms::AlgorithmKind;
/// use saga_stream::profiles::DatasetProfile;
///
/// let stream = DatasetProfile::livejournal().scaled(300, 2_000).generate(3);
/// let outcome = run_pipelined(
///     &stream,
///     DataStructureKind::AdjacencyShared,
///     AlgorithmKind::Cc,
///     1_000,
///     2,
///     2,
/// );
/// assert_eq!(outcome.batches.len(), 2);
/// ```
pub fn run_pipelined(
    stream: &EdgeStream,
    ds: DataStructureKind,
    algorithm: AlgorithmKind,
    batch_size: usize,
    update_threads: usize,
    compute_threads: usize,
) -> PipelineOutcome {
    run_pipelined_full(
        stream,
        ds,
        algorithm,
        batch_size,
        update_threads,
        compute_threads,
        AlgorithmParams::default(),
    )
    .0
}

/// [`run_pipelined`] with explicit algorithm tunables, additionally
/// returning the final live structure so callers (the `saga-check`
/// differential harness) can compare its topology against a model after
/// the run. `params.root` is overridden by the stream's first edge source,
/// matching [`run_pipelined`]'s root policy.
pub fn run_pipelined_full(
    stream: &EdgeStream,
    ds: DataStructureKind,
    algorithm: AlgorithmKind,
    batch_size: usize,
    update_threads: usize,
    compute_threads: usize,
    params: AlgorithmParams,
) -> (PipelineOutcome, Box<dyn DeletableGraph>) {
    let update_pool = ThreadPool::new(update_threads);
    let driver = StreamDriver::builder(ds, stream.num_nodes)
        .algorithm(algorithm)
        .compute_model(ComputeModelKind::Incremental)
        .threads(compute_threads)
        .params(params)
        .build();
    let root = stream.edges.first().map(|e| e.src).unwrap_or(0);
    let mut session = driver.session_on(&update_pool, stream.num_nodes, stream.directed, root);
    // Pre-split every batch into its insert/delete classes (borrows for
    // insert-only batches; allocates only when a batch mixes ops).
    let batches: Vec<SplitBatch<'_>> =
        stream.op_batches(batch_size).map(|b| b.split()).collect();
    let m_update = saga_trace::metrics::histogram("pipeline.update_ns");
    let m_compute = saga_trace::metrics::histogram("pipeline.compute_ns");
    let m_wall = saga_trace::metrics::histogram("pipeline.wall_ns");

    let mut records = Vec::with_capacity(batches.len());
    let DriverSession { apply, compute } = &mut session;
    let apply = &*apply;
    // Prologue: batch 0's update stage overlaps with nothing; its cost is
    // charged to batch 0's wall time below.
    let mut staged = batches.first().map(|first| {
        std::thread::scope(|scope| Staged::join(scope.spawn(|| Staged::run(apply, first)), 0))
    });
    for (i, (inserts, deletes)) in batches.iter().enumerate() {
        let Staged {
            snapshot,
            applied,
            seconds: update_seconds,
            ..
        } = staged.take().expect("batch i was staged while batch i-1 computed");
        let wall = Stopwatch::start();
        let record = std::thread::scope(|scope| {
            // Stage A (worker thread): apply batch i+1 and snapshot.
            let updater = batches
                .get(i + 1)
                .map(|next| scope.spawn(|| Staged::run(apply, next)));
            // Stage B (this thread): track + compute batch i on its
            // snapshot (taken after the batch was applied, so deletions
            // are reflected).
            let _batch_span = saga_trace::span!("batch", index = i as u64);
            let impact = compute.track(&snapshot, inserts, deletes);
            let record = compute.compute(&snapshot, &impact, inserts, deletes, applied, update_seconds);
            staged = updater.map(|handle| Staged::join(handle, i + 1));
            record
        });
        let wall_seconds = wall.elapsed_secs();
        m_update.record_secs(update_seconds);
        m_compute.record_secs(record.compute_seconds);
        m_wall.record_secs(wall_seconds);
        records.push(PipelinedBatchRecord {
            index: record.index,
            update_seconds,
            compute_seconds: record.compute_seconds,
            wall_seconds: wall_seconds + if i == 0 { update_seconds } else { 0.0 },
            inserted: record.inserted,
            duplicates: record.duplicates,
            removed: record.removed,
            missing: record.missing,
        });
    }

    let outcome = PipelineOutcome {
        batches: records,
        final_values: session.values(),
    };
    (outcome, session.into_graph())
}

/// A batch's insert and delete classes.
type SplitBatch<'a> = (Cow<'a, [Edge]>, Cow<'a, [Edge]>);

/// One batch applied to the live graph and snapshotted by the update
/// stage, waiting for its compute.
struct Staged {
    snapshot: Csr,
    applied: Applied,
    seconds: f64,
    started_ns: u64,
}

impl Staged {
    /// The update stage, on a per-batch scope thread. The thread is muted:
    /// emitting from it would allocate — and leak — a pool-lifetime ring
    /// per batch (see [`saga_trace::mute_thread`]); [`Staged::join`] reports
    /// its work from the spawning thread instead.
    fn run(apply: &ApplyHalf<'_>, (inserts, deletes): &SplitBatch<'_>) -> Staged {
        saga_trace::mute_thread();
        let started_ns = saga_trace::now_ns();
        let sw = Stopwatch::start();
        let applied = apply.apply(inserts, deletes);
        let snapshot = Csr::from_graph(apply.graph());
        Staged {
            snapshot,
            applied,
            seconds: sw.elapsed_secs(),
            started_ns,
        }
    }

    /// Joins batch `index`'s update stage and reports it as a Complete
    /// event on one virtual track.
    fn join(handle: std::thread::ScopedJoinHandle<'_, Staged>, index: usize) -> Staged {
        static UPDATE_STAGE: saga_trace::Site = saga_trace::Site::new("update+snapshot", "batch");
        let staged = handle.join().expect("updater thread panicked");
        let ns = (staged.seconds * 1e9) as u64;
        let batch = Some(index as u64);
        saga_trace::emit_complete(&UPDATE_STAGE, "update-stage", staged.started_ns, ns, batch);
        staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_algorithms::VertexValues;
    use saga_stream::profiles::DatasetProfile;

    #[test]
    fn pipelined_matches_interleaved_results() {
        // A churn stream exercises the seeding the pipelined run inherits
        // from the session's engine: PR's source neighbourhoods, and every
        // repair pass on a snapshot.
        let stream = DatasetProfile::wiki()
            .scaled(400, 4_000)
            .with_churn(0.1)
            .generate(9);
        for algorithm in AlgorithmKind::ALL {
            let params = AlgorithmParams {
                pr_epsilon: 1e-11,
                pr_fs_tolerance: 1e-11,
                ..AlgorithmParams::default()
            };
            let ds = DataStructureKind::Stinger;
            let (pipelined, _graph) =
                run_pipelined_full(&stream, ds, algorithm, 1_000, 2, 2, params);
            let mut interleaved = StreamDriver::builder(ds, stream.num_nodes)
                .algorithm(algorithm)
                .compute_model(ComputeModelKind::Incremental)
                .batch_size(1_000)
                .threads(4)
                .params(params)
                .build();
            let expected = interleaved.run(&stream);
            assert_eq!(pipelined.batches.len(), expected.batches.len(), "{algorithm}");
            match (&pipelined.final_values, &expected.final_values) {
                // PageRank sums floats in neighbor order, which differs
                // between the live structure and the sorted snapshot.
                (VertexValues::F64(a), VertexValues::F64(b)) => {
                    for (v, (x, y)) in a.iter().zip(b).enumerate() {
                        assert!((x - y).abs() < 1e-6, "{algorithm} vertex {v}: {x} vs {y}");
                    }
                }
                (a, b) => assert_eq!(a, b, "{algorithm}"),
            }
        }
    }

    #[test]
    fn pipelined_consumes_deletion_batches() {
        let stream = DatasetProfile::wiki()
            .scaled(300, 2_400)
            .with_churn(0.2)
            .generate(17);
        assert!(stream.has_deletions());
        let pipelined = run_pipelined(
            &stream,
            DataStructureKind::AdjacencyShared,
            AlgorithmKind::Bfs,
            800,
            2,
            2,
        );
        // The interleaved driver on the same churn stream is the oracle
        // (itself FS-checked in driver.rs).
        let mut interleaved =
            StreamDriver::builder(DataStructureKind::AdjacencyShared, stream.num_nodes)
                .algorithm(AlgorithmKind::Bfs)
                .compute_model(ComputeModelKind::Incremental)
                .batch_size(800)
                .threads(4)
                .build();
        let expected = interleaved.run(&stream);
        assert_eq!(pipelined.final_values, expected.final_values);
    }

    #[test]
    fn timing_bookkeeping_is_sane() {
        let stream = DatasetProfile::talk().scaled(300, 3_000).generate(4);
        let outcome = run_pipelined(
            &stream,
            DataStructureKind::Dah,
            AlgorithmKind::Cc,
            1_000,
            2,
            2,
        );
        assert!(outcome.pipelined_seconds() > 0.0);
        assert!(outcome.serial_estimate_seconds() > 0.0);
        assert!(outcome.overlap_speedup() > 0.0);
        for b in &outcome.batches {
            assert!(b.compute_seconds > 0.0);
            assert!(b.wall_seconds > 0.0);
        }
    }
}
