//! The streaming driver: interleaved update and compute phases.
//!
//! This is the paper's execution model (Fig. 1, Fig. 2b): the input edge
//! stream is consumed in batches; for each batch the driver first ingests
//! the edges into the data structure (*update phase*), then runs the
//! algorithm on the freshly updated structure (*compute phase*), recording
//! both latencies — their sum is the batch processing latency of Eq. 1,
//! the performance metric used throughout.
//!
//! With [`StreamDriverBuilder::arch_sim`] set, both phases additionally run under the
//! memory probe and are replayed — in stream order, on one persistent
//! hierarchy, so the compute phase really can reuse lines the update phase
//! brought in (§VI-C) — producing the per-phase cache and bandwidth
//! reports behind Figs. 9(b–c) and 10.

use saga_algorithms::{
    AlgorithmKind, AlgorithmParams, AlgorithmState, BatchImpact, CheckpointConfig, ComputeEngine,
    ComputeModelKind, ComputeOutcome, ShardedState, VertexValues,
};
use saga_graph::{
    build_deletable_graph_with, DataStructureKind, DeletableGraph, DeleteStats, DynamicGraph, Edge,
    GraphTopology, Node, UpdateStats,
};
use saga_perf::bandwidth::{estimate, BandwidthEstimate, TimeModel};
use saga_perf::cache::{CacheReport, HierarchyConfig, MemoryHierarchy};
use saga_perf::trace_phase;
use saga_stream::EdgeStream;
use saga_utils::parallel::ThreadPool;
use saga_utils::probe::Trace;
use saga_utils::timer::Stopwatch;

/// Cache-capacity scale factor of the arch-sim hierarchy: the paper
/// machine's caches divided by 16, paired with the scaled datasets (see
/// DESIGN.md).
const ARCH_CACHE_SCALE: usize = 16;

/// Per-phase architecture reports for one batch.
#[derive(Debug, Clone)]
pub struct ArchRecord {
    /// Cache report of the update phase.
    pub update: CacheReport,
    /// Cache report of the compute phase.
    pub compute: CacheReport,
    /// Bandwidth estimate of the update phase.
    pub update_bw: BandwidthEstimate,
    /// Bandwidth estimate of the compute phase.
    pub compute_bw: BandwidthEstimate,
}

/// Measurements for one batch (Eq. 1 decomposition).
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Batch index within the stream.
    pub index: usize,
    /// Edges in the batch.
    pub batch_len: usize,
    /// Update-phase latency in seconds.
    pub update_seconds: f64,
    /// Compute-phase latency in seconds.
    pub compute_seconds: f64,
    /// Edges newly inserted.
    pub inserted: usize,
    /// Duplicate edges skipped.
    pub duplicates: usize,
    /// Edges found and removed by this batch's deletions.
    pub removed: usize,
    /// Deletion targets that were not present.
    pub missing: usize,
    /// Compute-phase counters.
    pub compute: ComputeOutcome,
    /// Architecture simulation (when enabled).
    pub arch: Option<ArchRecord>,
}

impl BatchRecord {
    /// Batch processing latency (Eq. 1): update + compute.
    pub fn batch_seconds(&self) -> f64 {
        self.update_seconds + self.compute_seconds
    }

    /// Fraction of the batch latency spent in the update phase (Fig. 8).
    pub fn update_fraction(&self) -> f64 {
        let total = self.batch_seconds();
        if total == 0.0 {
            0.0
        } else {
            self.update_seconds / total
        }
    }
}

/// Result of streaming one dataset through the driver.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Per-batch measurements, in stream order.
    pub batches: Vec<BatchRecord>,
    /// Final vertex property values.
    pub final_values: VertexValues,
    /// Total unique edges ingested.
    pub total_edges: usize,
}

impl StreamOutcome {
    /// Sum of batch processing latencies.
    pub fn total_seconds(&self) -> f64 {
        self.batches.iter().map(BatchRecord::batch_seconds).sum()
    }
}

/// Builder for [`StreamDriver`].
#[derive(Debug, Clone)]
pub struct StreamDriverBuilder {
    data_structure: DataStructureKind,
    capacity: usize,
    algorithm: AlgorithmKind,
    compute_model: ComputeModelKind,
    batch_size: Option<usize>,
    threads: usize,
    root: Option<Node>,
    params: AlgorithmParams,
    arch_sim: bool,
    partitioned_ingest: bool,
    sharded: Option<usize>,
}

impl StreamDriverBuilder {
    /// Selects the algorithm (default: PageRank).
    pub fn algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the compute model (default: incremental).
    pub fn compute_model(mut self, model: ComputeModelKind) -> Self {
        self.compute_model = model;
        self
    }

    /// Overrides the batch size (default: the stream's suggestion).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Number of worker threads (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the search root for BFS/SSSP/SSWP (default: the source of
    /// the stream's first edge, which is guaranteed to exist).
    pub fn root(mut self, root: Node) -> Self {
        self.root = Some(root);
        self
    }

    /// Overrides algorithm tunables.
    pub fn params(mut self, params: AlgorithmParams) -> Self {
        self.params = params;
        self
    }

    /// Enables the architecture simulator for both phases: a hierarchy
    /// at 1/16 of the paper machine's cache capacity, bandwidth priced by
    /// the default [`TimeModel`] on the paper machine's topology.
    pub fn arch_sim(mut self) -> Self {
        self.arch_sim = true;
        self
    }

    /// Routes AS/Stinger batches through the radix partitioner instead of
    /// per-edge shared-memory ingestion (default: off, the paper's design).
    /// AC and DAH always partition, so the flag is a no-op there.
    pub fn partitioned_ingest(mut self, enabled: bool) -> Self {
        self.partitioned_ingest = enabled;
        self
    }

    /// Runs the compute phase on a [`ShardedState`] with `shards` shards
    /// instead of an [`AlgorithmState`] (default: unsharded). The sharded
    /// state checkpoints at every superstep barrier, so a simulated worker
    /// kill ([`ShardedState::inject_kill`]) recovers to bitwise-identical
    /// results — `saga-check`'s recovery harness exercises this — and runs
    /// FS and PageRank in supersteps too.
    pub fn sharded(mut self, shards: usize) -> Self {
        self.sharded = Some(shards.max(1));
        self
    }

    /// Builds the driver (spawns its thread pool).
    pub fn build(self) -> StreamDriver {
        let pool = ThreadPool::new(self.threads);
        StreamDriver {
            builder: self,
            pool,
        }
    }
}

/// Drives one (data structure × algorithm × compute model) configuration
/// over edge streams.
///
/// # Examples
///
/// ```
/// use saga_core::driver::StreamDriver;
/// use saga_graph::DataStructureKind;
/// use saga_stream::profiles::DatasetProfile;
/// use saga_algorithms::{AlgorithmKind, ComputeModelKind};
///
/// let profile = DatasetProfile::talk().scaled(500, 3_000);
/// let stream = profile.generate(7);
/// let mut driver = StreamDriver::builder(DataStructureKind::Dah, 500)
///     .algorithm(AlgorithmKind::Cc)
///     .compute_model(ComputeModelKind::Incremental)
///     .batch_size(1_000)
///     .threads(2)
///     .build();
/// let outcome = driver.run(&stream);
/// assert_eq!(outcome.batches.len(), 3);
/// assert!(outcome.total_seconds() > 0.0);
/// ```
#[derive(Debug)]
pub struct StreamDriver {
    builder: StreamDriverBuilder,
    pool: ThreadPool,
}

impl StreamDriver {
    /// Starts configuring a driver for the given data structure and vertex
    /// universe.
    pub fn builder(data_structure: DataStructureKind, capacity: usize) -> StreamDriverBuilder {
        StreamDriverBuilder {
            data_structure,
            capacity,
            algorithm: AlgorithmKind::PageRank,
            compute_model: ComputeModelKind::Incremental,
            batch_size: None,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            root: None,
            params: AlgorithmParams::default(),
            arch_sim: false,
            partitioned_ingest: false,
            sharded: None,
        }
    }

    /// The worker pool (exposed for phase-level experiments).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Streams `stream` through a fresh graph and algorithm state,
    /// interleaving update and compute per batch.
    pub fn run(&mut self, stream: &EdgeStream) -> StreamOutcome {
        self.run_observed(stream, |_, _, _| {})
    }

    /// Like [`StreamDriver::run`], but invokes `observer` after every batch
    /// with the batch's record, the live graph, and the compute engine
    /// (serial or sharded, depending on the builder).
    /// The differential checker in `saga-check` uses this to compare
    /// intermediate topology and property values against its model after
    /// each batch instead of only at the end of the stream.
    pub fn run_observed<F>(&mut self, stream: &EdgeStream, mut observer: F) -> StreamOutcome
    where
        F: FnMut(&BatchRecord, &dyn DynamicGraph, &dyn ComputeEngine),
    {
        let root = self
            .builder
            .root
            .unwrap_or_else(|| stream.edges.first().map(|e| e.src).unwrap_or(0));
        let batch_size = self
            .builder
            .batch_size
            .unwrap_or(stream.suggested_batch_size);
        let mut session = self.session(stream.num_nodes, stream.directed, root);
        let mut batches = Vec::new();
        for batch in stream.op_batches(batch_size) {
            let (inserts, deletes) = batch.split();
            batches.push(session.step(&inserts, &deletes));
            let record = batches.last().expect("just pushed");
            observer(record, session.graph(), session.compute.engine.as_ref());
        }
        StreamOutcome {
            final_values: session.values(),
            total_edges: session.graph().num_edges(),
            batches,
        }
    }

    /// Opens a long-lived per-batch stepping session: the graph and the
    /// compute engine are created up front, then the caller feeds batches
    /// one at a time through [`DriverSession::step`].
    ///
    /// [`StreamDriver::run`] is a thin loop over this API; `saga-server`
    /// drives one session per tenant from its admission queue, where the
    /// stream has no known end. `num_nodes` joins the builder's capacity
    /// (whichever is larger wins); `root` seeds BFS/SSSP/SSWP and must be
    /// chosen by the caller because a session never sees the whole stream
    /// (the driver uses the first edge's source, matching the oracle).
    pub fn session(&self, num_nodes: usize, directed: bool, root: Node) -> DriverSession<'_> {
        self.session_on(&self.pool, num_nodes, directed, root)
    }

    /// [`session`](Self::session) whose apply half writes the live graph
    /// from `ingest_pool` instead of the driver's own pool — the pipelined
    /// arrangement's second set of cores.
    pub(crate) fn session_on<'d>(
        &'d self,
        ingest_pool: &'d ThreadPool,
        num_nodes: usize,
        directed: bool,
        root: Node,
    ) -> DriverSession<'d> {
        let cfg = &self.builder;
        let graph = build_deletable_graph_with(
            cfg.data_structure,
            cfg.capacity.max(num_nodes),
            directed,
            ingest_pool.threads(),
            cfg.partitioned_ingest,
        );
        let mut session = self.session_over(graph, root);
        session.apply.pool = ingest_pool;
        session
    }

    /// [`session`](Self::session) over a graph the caller built — a
    /// structure with a non-default constructor knob, as the ablations
    /// sweep. The builder's data structure and capacity are ignored; the
    /// session covers `graph.capacity()` vertices.
    pub fn session_over(&self, graph: Box<dyn DeletableGraph>, root: Node) -> DriverSession<'_> {
        let cfg = &self.builder;
        let capacity = graph.capacity();
        let params = AlgorithmParams { root, ..cfg.params };
        let (algorithm, model) = (cfg.algorithm, cfg.compute_model);
        let engine: Box<dyn ComputeEngine> = match cfg.sharded {
            Some(shards) => Box::new(ShardedState::new(
                algorithm,
                model,
                capacity,
                shards,
                params,
                CheckpointConfig::default(),
            )),
            None => Box::new(AlgorithmState::new(algorithm, model, capacity, params)),
        };
        let arch = cfg.arch_sim.then(|| {
            let config = HierarchyConfig::paper_scaled(ARCH_CACHE_SCALE);
            MemoryHierarchy::new(config, self.pool.threads())
        });
        DriverSession {
            apply: ApplyHalf {
                graph,
                pool: &self.pool,
                probed: arch.is_some(),
            },
            compute: ComputeHalf {
                pool: &self.pool,
                engine,
                arch,
                // The bandwidth model prices against the paper's machine,
                // not the scaled hierarchy.
                topo: HierarchyConfig::paper().topology,
                metrics: DriverMetrics::resolve(),
                next_index: 0,
            },
        }
    }
}

/// Registry handles resolved once per session, outside the batch loop (the
/// registry lock is only for lookup; recording is lock-free). These are
/// the Eq. 1 latencies and batch counters every figure binary re-derives
/// today; a `metrics::snapshot()` after the run sees them regardless of
/// whether span tracing is enabled.
struct DriverMetrics {
    update: std::sync::Arc<saga_trace::metrics::Histogram>,
    compute: std::sync::Arc<saga_trace::metrics::Histogram>,
    batch: std::sync::Arc<saga_trace::metrics::Histogram>,
    inserted: std::sync::Arc<saga_trace::metrics::Counter>,
    duplicates: std::sync::Arc<saga_trace::metrics::Counter>,
    removed: std::sync::Arc<saga_trace::metrics::Counter>,
    missing: std::sync::Arc<saga_trace::metrics::Counter>,
    affected: std::sync::Arc<saga_trace::metrics::Counter>,
    /// Vertices INC's deletion repair reset ([`ComputeOutcome::repaired`]).
    repaired: std::sync::Arc<saga_trace::metrics::Counter>,
    /// Batches INC recomputed from scratch ([`ComputeOutcome::fs_fallback`]).
    fs_fallbacks: std::sync::Arc<saga_trace::metrics::Counter>,
    /// Process allocation high-water mark (bytes); stays 0 unless the
    /// counting allocator is installed (`alloc-track` in saga-server).
    mem_high: std::sync::Arc<saga_trace::metrics::Gauge>,
}

impl DriverMetrics {
    fn resolve() -> Self {
        Self {
            update: saga_trace::metrics::histogram("driver.update_ns"),
            compute: saga_trace::metrics::histogram("driver.compute_ns"),
            batch: saga_trace::metrics::histogram("driver.batch_ns"),
            inserted: saga_trace::metrics::counter("driver.inserted"),
            duplicates: saga_trace::metrics::counter("driver.duplicates"),
            removed: saga_trace::metrics::counter("driver.removed"),
            missing: saga_trace::metrics::counter("driver.missing"),
            affected: saga_trace::metrics::counter("driver.affected"),
            repaired: saga_trace::metrics::counter("driver.repaired"),
            fs_fallbacks: saga_trace::metrics::counter("driver.fs_fallbacks"),
            mem_high: saga_trace::metrics::gauge("mem.high_water"),
        }
    }
}

/// Runs `phase`, under the memory probe when `probed` (arch-sim sessions).
fn run_phase<T>(probed: bool, pool: &ThreadPool, phase: impl FnOnce() -> T) -> (T, Option<Trace>) {
    if !probed {
        return (phase(), None);
    }
    let mut out = None;
    let trace = trace_phase(pool, || out = Some(phase()));
    (out.expect("trace_phase runs the phase"), Some(trace))
}

/// First half of a step: the live graph and the pool that writes it.
pub(crate) struct ApplyHalf<'d> {
    graph: Box<dyn DeletableGraph>,
    pool: &'d ThreadPool,
    probed: bool,
}

/// What applying one batch to the live graph produced.
pub(crate) struct Applied {
    batch_len: usize,
    stats: UpdateStats,
    del_stats: DeleteStats,
    trace: Option<Trace>,
}

impl ApplyHalf<'_> {
    /// Ingests `inserts`, then removes `deletes` (the window semantics every
    /// churn transform assumes).
    pub(crate) fn apply(&self, inserts: &[Edge], deletes: &[Edge]) -> Applied {
        let ((stats, del_stats), trace) = run_phase(self.probed, self.pool, || {
            let stats = {
                let _s = saga_trace::span!("ingest", edges = inserts.len() as u64);
                self.graph.update_batch(inserts, self.pool)
            };
            let del_stats = if deletes.is_empty() {
                DeleteStats::default()
            } else {
                let _s = saga_trace::span!("delete", edges = deletes.len() as u64);
                self.graph.delete_batch(deletes, self.pool)
            };
            (stats, del_stats)
        });
        Applied {
            batch_len: inserts.len() + deletes.len(),
            stats,
            del_stats,
            trace,
        }
    }

    /// The live graph.
    pub(crate) fn graph(&self) -> &dyn DeletableGraph {
        self.graph.as_ref()
    }
}

/// Second half of a step: the compute engine, which only *reads* a
/// topology, plus the batch bookkeeping.
/// The topology is a parameter, so the same half serves the live graph
/// ([`DriverSession::step`]) and a snapshot of it (the pipelined run).
pub(crate) struct ComputeHalf<'d> {
    pool: &'d ThreadPool,
    engine: Box<dyn ComputeEngine>,
    /// The one persistent arch-sim hierarchy both phases of every batch
    /// replay on.
    arch: Option<MemoryHierarchy>,
    topo: saga_perf::numa::Topology,
    metrics: DriverMetrics,
    next_index: usize,
}

impl ComputeHalf<'_> {
    /// The engine's update-phase bookkeeping for a batch already applied
    /// to `topology` ([`ComputeEngine::track`]).
    pub(crate) fn track(
        &mut self,
        topology: &dyn GraphTopology,
        inserts: &[Edge],
        deletes: &[Edge],
    ) -> BatchImpact {
        self.engine.track(topology, inserts, deletes, self.pool)
    }

    /// Runs the compute phase on `topology` and closes the batch: metrics,
    /// arch-sim replay, and the [`BatchRecord`]. `update_seconds` is what
    /// the caller's arrangement charges to the update phase.
    pub(crate) fn compute(
        &mut self,
        topology: &dyn GraphTopology,
        impact: &BatchImpact,
        inserts: &[Edge],
        deletes: &[Edge],
        applied: Applied,
        update_seconds: f64,
    ) -> BatchRecord {
        let Applied {
            batch_len,
            stats,
            del_stats,
            trace: update_trace,
        } = applied;
        saga_trace::instant!("removed", count = del_stats.removed as u64);
        saga_trace::instant!("missing", count = del_stats.missing as u64);

        let compute_span = saga_trace::span!("compute", affected = impact.affected.len() as u64);
        let sw = Stopwatch::start();
        let engine = &mut self.engine;
        let (compute, compute_trace) = run_phase(self.arch.is_some(), self.pool, || {
            engine.compute(topology, impact, inserts, deletes, self.pool)
        });
        let compute_seconds = sw.elapsed_secs();
        drop(compute_span);

        self.metrics.update.record_secs(update_seconds);
        self.metrics.compute.record_secs(compute_seconds);
        self.metrics.batch.record_secs(update_seconds + compute_seconds);
        self.metrics.inserted.add(stats.inserted as u64);
        self.metrics.duplicates.add(stats.duplicates as u64);
        self.metrics.removed.add(del_stats.removed as u64);
        self.metrics.missing.add(del_stats.missing as u64);
        self.metrics.affected.add(impact.affected.len() as u64);
        self.metrics.repaired.add(compute.repaired as u64);
        self.metrics.fs_fallbacks.add(u64::from(compute.fs_fallback));
        if saga_trace::alloc::tracking_active() {
            self.metrics.mem_high.set(saga_trace::alloc::high_water_bytes() as f64);
        }

        let arch = self.arch.as_mut().map(|h| {
            let traces = update_trace.as_ref().zip(compute_trace.as_ref());
            let (update_trace, compute_trace) = traces.expect("arch-sim probes both phases");
            let update = h.replay(update_trace);
            let compute = h.replay(compute_trace);
            let update_bw = estimate(&update, &TimeModel::default(), &self.topo);
            let compute_bw = estimate(&compute, &TimeModel::default(), &self.topo);
            saga_trace::metrics::gauge("perf.update.dram_gbps").set(update_bw.dram_gbps);
            saga_trace::metrics::gauge("perf.compute.dram_gbps").set(compute_bw.dram_gbps);
            saga_trace::metrics::gauge("perf.compute.qpi_utilization")
                .set(compute_bw.qpi_utilization);
            ArchRecord {
                update_bw,
                compute_bw,
                update,
                compute,
            }
        });

        let index = self.next_index;
        self.next_index += 1;
        BatchRecord {
            index,
            batch_len,
            update_seconds,
            compute_seconds,
            inserted: stats.inserted,
            duplicates: stats.duplicates,
            removed: del_stats.removed,
            missing: del_stats.missing,
            compute,
            arch,
        }
    }
}

/// A long-lived per-batch execution session over one graph + compute
/// engine, created by [`StreamDriver::session`] — the only batch loop in
/// the workspace.
///
/// Each [`step`](DriverSession::step) is apply → track → compute: the
/// batch is applied to the live graph, the engine tracks what it will start
/// from (both the update phase), and the engine computes — returning the
/// batch's [`BatchRecord`]. The execution paths are arrangements of those
/// pieces: partitioned ingest and sharded compute are builder settings of
/// the same `step`, and [`run_pipelined`](crate::pipelined::run_pipelined)
/// overlaps the apply half of batch *i+1* with the track + compute half of
/// batch *i* on a snapshot. A session does not need the whole stream up front,
/// which is what lets `saga-server` host tenants whose streams arrive over
/// the network and never end.
pub struct DriverSession<'d> {
    pub(crate) apply: ApplyHalf<'d>,
    pub(crate) compute: ComputeHalf<'d>,
}

impl std::fmt::Debug for DriverSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverSession")
            .field("structure", &self.apply.graph.kind())
            .field("batches_stepped", &self.compute.next_index)
            .field("num_edges", &self.apply.graph.num_edges())
            .finish()
    }
}

impl DriverSession<'_> {
    /// Processes one batch (insertions then deletions) and returns its
    /// record. Batch indices count up from 0 in step order.
    pub fn step(&mut self, inserts: &[Edge], deletes: &[Edge]) -> BatchRecord {
        let _batch_span = saga_trace::span!("batch", index = self.compute.next_index as u64);
        // Tracking (Algorithm 1's affected array) is part of the update
        // phase's bookkeeping, so the span and the clock cover apply + track.
        let batch_len = inserts.len() + deletes.len();
        let update_span = saga_trace::span!("update", edges = batch_len as u64);
        let sw = Stopwatch::start();
        let applied = self.apply.apply(inserts, deletes);
        let graph = self.apply.graph();
        let impact = self.compute.track(graph, inserts, deletes);
        let update_seconds = sw.elapsed_secs();
        drop(update_span);
        self.compute.compute(graph, &impact, inserts, deletes, applied, update_seconds)
    }

    /// The live graph.
    pub fn graph(&self) -> &dyn DynamicGraph {
        self.apply.graph()
    }

    /// Current vertex property values.
    pub fn values(&self) -> VertexValues {
        self.compute.engine.values()
    }

    /// Number of batches stepped so far.
    pub fn batches_stepped(&self) -> usize {
        self.compute.next_index
    }

    /// Ends the session, keeping its live graph.
    pub(crate) fn into_graph(self) -> Box<dyn DeletableGraph> {
        self.apply.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_stream::profiles::DatasetProfile;

    fn tiny_stream() -> saga_stream::EdgeStream {
        DatasetProfile::livejournal().scaled(300, 2_400).generate(3)
    }

    #[test]
    fn driver_runs_all_batches_and_counts_edges() {
        let stream = tiny_stream();
        let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, 300)
            .algorithm(AlgorithmKind::Bfs)
            .compute_model(ComputeModelKind::Incremental)
            .batch_size(800)
            .threads(2)
            .build();
        let outcome = driver.run(&stream);
        assert_eq!(outcome.batches.len(), 3);
        let inserted: usize = outcome.batches.iter().map(|b| b.inserted).sum();
        assert_eq!(inserted, outcome.total_edges);
        let processed: usize = outcome.batches.iter().map(|b| b.batch_len).sum();
        assert_eq!(processed, 2_400);
        for b in &outcome.batches {
            assert!(b.update_seconds > 0.0);
            assert!(b.compute_seconds > 0.0);
            assert!(b.update_fraction() > 0.0 && b.update_fraction() < 1.0);
            assert!(b.arch.is_none());
        }
    }

    #[test]
    fn fs_and_inc_drivers_agree_on_final_values() {
        let stream = tiny_stream();
        let run = |model| {
            let mut driver = StreamDriver::builder(DataStructureKind::Stinger, 300)
                .algorithm(AlgorithmKind::Cc)
                .compute_model(model)
                .batch_size(600)
                .threads(3)
                .build();
            driver.run(&stream).final_values
        };
        assert_eq!(
            run(ComputeModelKind::FromScratch),
            run(ComputeModelKind::Incremental)
        );
    }

    #[test]
    fn churn_stream_routes_deletions_and_keeps_models_agreeing() {
        let stream = DatasetProfile::livejournal()
            .scaled(300, 2_400)
            .with_churn(0.2)
            .generate(11);
        assert!(stream.has_deletions());
        let run = |model| {
            let mut driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, 300)
                .algorithm(AlgorithmKind::Bfs)
                .compute_model(model)
                .batch_size(800)
                .threads(2)
                .build();
            driver.run(&stream)
        };
        let inc = run(ComputeModelKind::Incremental);
        let removed: usize = inc.batches.iter().map(|b| b.removed).sum();
        assert!(removed > 0, "churn stream must exercise delete_batch");
        let inserted: usize = inc.batches.iter().map(|b| b.inserted).sum();
        assert_eq!(inserted - removed, inc.total_edges);
        let fs = run(ComputeModelKind::FromScratch);
        assert_eq!(inc.final_values, fs.final_values);
    }

    /// FS on the same topology after every batch, with the sharded state
    /// and without it, under both models.
    #[test]
    fn sharded_driver_matches_serial_final_values() {
        let stream = tiny_stream();
        let root = stream.edges[0].src;
        let pool = ThreadPool::new(2);
        for algorithm in [AlgorithmKind::Bfs, AlgorithmKind::Sswp] {
            for model in ComputeModelKind::ALL {
                for shards in [Some(3), None] {
                    let mut b = StreamDriver::builder(DataStructureKind::AdjacencyShared, 300)
                        .algorithm(algorithm)
                        .compute_model(model)
                        .batch_size(800)
                        .threads(2);
                    if let Some(s) = shards {
                        b = b.sharded(s);
                    }
                    b.build().run_observed(&stream, |record, graph, engine| {
                        let params = AlgorithmParams { root, ..AlgorithmParams::default() };
                        let mut fs =
                            AlgorithmState::new(algorithm, ComputeModelKind::FromScratch, 300, params);
                        fs.perform_alg(graph, &[], &[], &pool);
                        assert_eq!(
                            engine.values(),
                            fs.values(),
                            "{algorithm:?}/{model:?}/{shards:?} batch {}: diverged from FS",
                            record.index
                        );
                    });
                }
            }
        }
    }

    /// The work record's fields mean one thing in every engine: vertex
    /// evaluations are Algorithm 1's rounds' (PageRank INC), superstep
    /// messages the superstep engine's (every Fold INC batch, and every
    /// sharded batch), and every engine counts its rounds.
    #[test]
    fn one_record_means_the_same_in_every_engine() {
        let stream = tiny_stream();
        let run = |algorithm, model, shards: Option<usize>| {
            let mut b = StreamDriver::builder(DataStructureKind::AdjacencyShared, 300)
                .algorithm(algorithm)
                .compute_model(model)
                .batch_size(800)
                .threads(2);
            if let Some(s) = shards {
                b = b.sharded(s);
            }
            let batches = b.build().run(&stream).batches;
            let at = format!("{algorithm:?} {model:?} {shards:?}");
            assert!(batches.iter().all(|b| b.compute.iterations >= 1), "{at}");
            let sum = |field: fn(&ComputeOutcome) -> usize| {
                batches.iter().map(|b| field(&b.compute)).sum::<usize>()
            };
            (sum(|c| c.recomputed), sum(|c| c.messages))
        };
        let (fs, inc) = (ComputeModelKind::FromScratch, ComputeModelKind::Incremental);
        let (bfs, pr) = (AlgorithmKind::Bfs, AlgorithmKind::PageRank);
        let (fs_evaluated, fs_messages) = run(bfs, fs, None);
        let (inc_evaluated, inc_messages) = run(bfs, inc, None);
        let (bsp_evaluated, bsp_messages) = run(bfs, inc, Some(2));
        let (pr_evaluated, pr_messages) = run(pr, inc, None);
        assert_eq!((fs_evaluated, fs_messages), (0, 0), "FS counts neither");
        assert!(inc_evaluated == 0 && inc_messages > 0, "fold INC: {inc_evaluated}, {inc_messages}");
        assert!(bsp_evaluated == 0 && bsp_messages > 0, "sharded: {bsp_evaluated}, {bsp_messages}");
        assert!(pr_evaluated > 0 && pr_messages == 0, "PageRank INC: {pr_evaluated}, {pr_messages}");
    }

    /// Fold INC on a churn stream computes the same bits, and the same work
    /// record per batch, at 1, 2 and 4 pool threads — unsharded (one shard
    /// per worker) and at a fixed shard count. A batch that falls back to
    /// FS is the exception for `iterations`: the FS kernels' rounds (Jacobi
    /// sweeps, delta-stepping phases) depend on the interleaving.
    #[test]
    fn fold_inc_does_not_depend_on_threads() {
        let stream =
            DatasetProfile::livejournal().scaled(300, 3_000).with_churn(0.25).generate(17);
        assert!(stream.has_deletions());
        let folds = [
            AlgorithmKind::Bfs,
            AlgorithmKind::Cc,
            AlgorithmKind::Mc,
            AlgorithmKind::Sssp,
            AlgorithmKind::Sswp,
        ];
        let mut repaired = 0;
        for algorithm in folds {
            for shards in [None, Some(3)] {
                let run = |threads: usize| {
                    let mut b = StreamDriver::builder(DataStructureKind::AdjacencyShared, 300)
                        .algorithm(algorithm)
                        .compute_model(ComputeModelKind::Incremental)
                        .batch_size(250)
                        .threads(threads);
                    if let Some(s) = shards {
                        b = b.sharded(s);
                    }
                    let mut values = Vec::new();
                    let outcome = b.build().run_observed(&stream, |_, _, engine| {
                        values.push(engine.values());
                    });
                    let work: Vec<ComputeOutcome> = outcome
                        .batches
                        .iter()
                        .map(|b| match b.compute.fs_fallback {
                            true => ComputeOutcome { iterations: 0, ..b.compute },
                            false => b.compute,
                        })
                        .collect();
                    (values, work)
                };
                let (values, work) = run(1);
                let deleting = work.iter().filter(|w| w.repaired > 0 || w.fs_fallback).count();
                assert!(deleting > 0, "{algorithm:?}: no batch repaired or fell back");
                repaired += work.iter().filter(|w| w.repaired > 0).count();
                for threads in [2, 4] {
                    let (other_values, other_work) = run(threads);
                    let at = format!("{algorithm:?} shards={shards:?} threads={threads}");
                    assert!(values == other_values, "{at}: values differ");
                    assert_eq!(work, other_work, "{at}: work records differ");
                }
            }
        }
        assert!(repaired > 0, "no batch of any program repaired");
    }

    #[test]
    fn sharded_driver_observer_sees_the_live_engine() {
        let stream = tiny_stream();
        let mut driver = StreamDriver::builder(DataStructureKind::Dah, 300)
            .algorithm(AlgorithmKind::Cc)
            .batch_size(800)
            .threads(2)
            .sharded(4)
            .build();
        let mut observed = 0;
        let outcome = driver.run_observed(&stream, |record, graph, engine| {
            assert_eq!(record.index, observed);
            assert_eq!(engine.values().len(), graph.capacity());
            observed += 1;
        });
        assert_eq!(observed, 3);
        assert_eq!(outcome.batches.len(), 3);
    }

    /// CC INC through `step` on a 240-spoke hub: deleting an edge at the
    /// hub that witnesses nothing resets nothing and sends no wave through
    /// the hub's neighborhood, and every batch matches FS on a CSR.
    #[test]
    fn cc_inc_deleting_a_non_witness_hub_edge_recomputes_only_its_endpoints() {
        const SPOKES: Node = 240;
        let (hub, far) = (0, SPOKES + 1);
        let e = |s, d| Edge::new(s, d, 1.0);
        let star: Vec<Edge> = (1..=SPOKES).map(|v| e(hub, v)).collect();
        // `far` takes its label over 1 first, so the later hub edge to it
        // is no witness and deleting it strands no value.
        let batches: [(&[Edge], &[Edge]); 4] =
            [(&star, &[]), (&[e(1, far)], &[]), (&[e(hub, far)], &[]), (&[], &[e(hub, far)])];
        let pool = ThreadPool::new(2);
        for directed in [true, false] {
            let driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, 256)
                .algorithm(AlgorithmKind::Cc)
                .compute_model(ComputeModelKind::Incremental)
                .threads(2)
                .build();
            let mut session = driver.session(256, directed, hub);
            for (i, (inserts, deletes)) in batches.iter().enumerate() {
                let record = session.step(inserts, deletes);
                let csr = saga_graph::csr::Csr::from_graph(session.graph());
                let mut fs = AlgorithmState::new(
                    AlgorithmKind::Cc,
                    ComputeModelKind::FromScratch,
                    256,
                    AlgorithmParams::default(),
                );
                fs.perform_alg(&csr, &[], &[], &pool);
                assert_eq!(session.values(), fs.values(), "directed={directed} batch {i}");
                if !deletes.is_empty() {
                    assert_eq!(record.removed, 1);
                    let work = record.compute;
                    assert_eq!(work.repaired, 0, "directed={directed}: a non-witness deletion reset {work:?}");
                    assert!(work.messages <= 4, "directed={directed}: {work:?} for one non-witness deletion");
                }
            }
        }
    }

    /// Only PageRank's INC rounds track the batch: FS needs nothing, and
    /// the superstep engine (every sharded state, and a Fold program's INC)
    /// seeds from the batch's edges itself.
    #[test]
    fn fs_and_sharded_engines_track_nothing() {
        let e = |s, d| Edge::new(s, d, 1.0);
        let (inserts, deletes) = ([e(0, 1), e(1, 2), e(2, 3)], [e(1, 2)]);
        for algorithm in [AlgorithmKind::Cc, AlgorithmKind::PageRank] {
            for model in ComputeModelKind::ALL {
                for sharded in [false, true] {
                    let mut builder = StreamDriver::builder(DataStructureKind::AdjacencyShared, 8)
                        .algorithm(algorithm)
                        .compute_model(model)
                        .threads(2);
                    if sharded {
                        builder = builder.sharded(2);
                    }
                    let driver = builder.build();
                    let mut session = driver.session(8, true, 0);
                    session.apply.apply(&inserts, &deletes);
                    let impact = session.compute.track(session.apply.graph(), &inserts, &deletes);
                    let tracks = algorithm == AlgorithmKind::PageRank
                        && model == ComputeModelKind::Incremental
                        && !sharded;
                    let at = format!("{algorithm:?} {model:?} sharded={sharded}");
                    assert_eq!(impact.affected.is_empty(), !tracks, "{at}");
                }
            }
        }
    }

    #[test]
    fn arch_sim_produces_phase_reports() {
        let stream = DatasetProfile::wiki().scaled(200, 1_000).generate(9);
        let mut driver = StreamDriver::builder(DataStructureKind::Dah, 200)
            .algorithm(AlgorithmKind::PageRank)
            .batch_size(500)
            .threads(2)
            .arch_sim()
            .build();
        let outcome = driver.run(&stream);
        assert_eq!(outcome.batches.len(), 2);
        for b in &outcome.batches {
            let arch = b.arch.as_ref().expect("arch sim enabled");
            assert!(arch.update.accesses > 0, "update phase must touch memory");
            assert!(arch.compute.accesses > 0, "compute phase must touch memory");
            assert!(arch.update_bw.seconds > 0.0);
            assert!(arch.compute_bw.seconds > 0.0);
        }
    }
}
