//! One pass of a stream through one library configuration — structure ×
//! algorithm × compute model × execution path — and the FS-on-CSR oracle
//! its final values are checked against.

use crate::inputs::{Stream, Workload, LIB_THREADS, SHARDS};
use saga_algorithms::{
    AlgorithmKind, AlgorithmParams, AlgorithmState, ComputeModelKind, VertexValues,
};
use saga_check::diff::values_diff;
use saga_core::driver::StreamDriver;
use saga_core::pipelined::run_pipelined_full;
use saga_graph::csr::Csr;
use saga_graph::oracle::GraphOracle;
use saga_graph::DataStructureKind;
use saga_stream::{EdgeOp, EdgeStream};
use saga_utils::parallel::ThreadPool;
use std::time::Instant;

/// The four execution paths ROADMAP item 2 wants to collapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Interleaved `DriverSession::step`.
    Serial,
    /// `DriverSession` with `partitioned_ingest(true)`.
    Partitioned,
    /// `run_pipelined` (update ∥ compute on CSR snapshots, INC only).
    Pipelined,
    /// `DriverSession` with `.sharded(2)`: compute on the BSP engine.
    Sharded,
}

impl Mode {
    /// Every path, serial first (the others are reported relative to it).
    pub const ALL: [Mode; 4] = [
        Mode::Serial,
        Mode::Partitioned,
        Mode::Pipelined,
        Mode::Sharded,
    ];

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Partitioned => "partitioned",
            Mode::Pipelined => "pipelined",
            Mode::Sharded => "sharded",
        }
    }
}

/// One point of the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Data structure.
    pub structure: DataStructureKind,
    /// Algorithm.
    pub algorithm: AlgorithmKind,
    /// FS or INC.
    pub model: ComputeModelKind,
    /// Execution path.
    pub mode: Mode,
}

impl Config {
    /// `AS/BFS/FS/serial`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.structure,
            self.algorithm,
            self.model,
            self.mode.name()
        )
    }
}

/// The configurations a library workload cycles through, and the one a
/// server workload's first tenant runs (the layer probes use the first).
pub fn configs(workload: Workload) -> Vec<Config> {
    use AlgorithmKind::{Bfs, Cc, PageRank, Sssp};
    use ComputeModelKind::{FromScratch, Incremental};
    let sweep = |algorithms: [AlgorithmKind; 2], model| {
        DataStructureKind::ALL_WITH_DELTA
            .into_iter()
            .flat_map(|structure| {
                algorithms.map(|algorithm| Config {
                    structure,
                    algorithm,
                    model,
                    mode: Mode::Serial,
                })
            })
            .collect()
    };
    let on_as = |algorithm, mode| Config {
        structure: DataStructureKind::AdjacencyShared,
        algorithm,
        model: Incremental,
        mode,
    };
    match workload {
        Workload::FsSweep => sweep([Bfs, PageRank], FromScratch),
        Workload::IncChurn => sweep([Sssp, Bfs], Incremental),
        Workload::ExecModes => [Cc, Sssp]
            .into_iter()
            .flat_map(|a| Mode::ALL.map(|m| on_as(a, m)))
            .collect(),
        Workload::ClosedSmall => vec![
            on_as(Bfs, Mode::Serial),
            Config {
                structure: DataStructureKind::DeltaCsr,
                ..on_as(Cc, Mode::Sharded)
            },
        ],
        Workload::OpenMixed => vec![on_as(Sssp, Mode::Serial)],
    }
}

/// What one pass measured and produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// First batch handed over → last batch's result visible.
    pub wall_s: f64,
    /// Per-batch latency: handed over → result queryable.
    pub batch_ms: Vec<f64>,
    /// Update-phase seconds, summed over batches.
    pub update_s: f64,
    /// Compute-phase seconds, summed over batches.
    pub compute_s: f64,
    /// Time to read the vertex values out after the last batch.
    pub read_ms: f64,
    /// The values read.
    pub values: VertexValues,
    /// Edges in the graph after the last batch.
    pub num_edges: usize,
}

fn params(root: saga_graph::Node) -> AlgorithmParams {
    AlgorithmParams {
        root,
        ..AlgorithmParams::default()
    }
}

/// The stream in the form `run_pipelined` takes: per batch its inserts then
/// its deletes, with explicit ops and batch boundaries.
fn edge_stream(stream: &Stream) -> EdgeStream {
    let mut edges = Vec::with_capacity(stream.ops());
    let mut ops = Vec::with_capacity(stream.ops());
    let mut boundaries = Vec::with_capacity(stream.batches.len());
    for batch in &stream.batches {
        for (op, edge) in batch.tagged() {
            edges.push(edge);
            ops.push(op);
        }
        boundaries.push(edges.len());
    }
    if !ops.contains(&EdgeOp::Delete) {
        ops.clear();
    }
    EdgeStream {
        name: "rig".to_string(),
        num_nodes: stream.num_nodes,
        directed: true,
        edges,
        ops,
        boundaries,
        suggested_batch_size: stream.batches.first().map_or(1, |b| b.ops().max(1)),
    }
}

/// A `StreamDriver` for `config` (any mode but pipelined, which has no
/// driver) with a pool of `threads`.
pub fn driver(config: &Config, num_nodes: usize, threads: usize) -> StreamDriver {
    let mut builder = StreamDriver::builder(config.structure, num_nodes)
        .algorithm(config.algorithm)
        .compute_model(config.model)
        .threads(threads)
        .partitioned_ingest(config.mode == Mode::Partitioned);
    if config.mode == Mode::Sharded {
        builder = builder.sharded(SHARDS);
    }
    builder.build()
}

/// Runs `stream` through a fresh instance of `config`.
pub fn run_pass(config: &Config, stream: &Stream) -> Pass {
    if config.mode == Mode::Pipelined {
        return run_pipelined_pass(config, stream);
    }
    let n = stream.num_nodes;
    let driver = driver(config, n, LIB_THREADS);
    let mut session = driver.session(n, true, stream.root());
    let mut batch_ms = Vec::with_capacity(stream.batches.len());
    let (mut update_s, mut compute_s) = (0.0, 0.0);
    let started = Instant::now();
    for batch in &stream.batches {
        let handed = Instant::now();
        let record = session.step(&batch.inserts, &batch.deletes);
        batch_ms.push(handed.elapsed().as_secs_f64() * 1e3);
        update_s += record.update_seconds;
        compute_s += record.compute_seconds;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let reading = Instant::now();
    let values = session.values();
    let read_ms = reading.elapsed().as_secs_f64() * 1e3;
    Pass {
        wall_s,
        batch_ms,
        update_s,
        compute_s,
        read_ms,
        values,
        num_edges: session.graph().num_edges(),
    }
}

fn run_pipelined_pass(config: &Config, stream: &Stream) -> Pass {
    let edge_stream = edge_stream(stream);
    // One update thread beside one compute thread: two in all, like the
    // two-thread pools of the other paths.
    let (outcome, graph) = run_pipelined_full(
        &edge_stream,
        config.structure,
        config.algorithm,
        edge_stream.suggested_batch_size,
        1,
        1,
        params(stream.root()),
    );
    let reading = Instant::now();
    let values = outcome.final_values.clone();
    let read_ms = reading.elapsed().as_secs_f64() * 1e3;
    Pass {
        wall_s: outcome.pipelined_seconds(),
        batch_ms: outcome
            .batches
            .iter()
            .map(|b| b.wall_seconds * 1e3)
            .collect(),
        update_s: outcome.batches.iter().map(|b| b.update_seconds).sum(),
        compute_s: outcome.batches.iter().map(|b| b.compute_seconds).sum(),
        read_ms,
        values,
        num_edges: graph.num_edges(),
    }
}

/// The oracle's view of a stream: the final topology as a CSR.
#[derive(Debug)]
pub struct Reference {
    csr: Csr,
    root: saga_graph::Node,
    pool: ThreadPool,
}

impl Reference {
    /// Replays `stream` through `GraphOracle` and snapshots the result.
    pub fn of(stream: &Stream) -> Reference {
        let mut oracle = GraphOracle::new(stream.num_nodes, true);
        for batch in &stream.batches {
            oracle.apply_batch(&batch.inserts, &batch.deletes);
        }
        Reference {
            csr: Csr::from_edges(stream.num_nodes, true, &oracle.edge_list()),
            root: stream.root(),
            pool: ThreadPool::new(LIB_THREADS),
        }
    }

    /// Edges the oracle holds.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// From-scratch values of `algorithm` on the oracle's CSR.
    pub fn values(&self, algorithm: AlgorithmKind, params: AlgorithmParams) -> VertexValues {
        let params = AlgorithmParams {
            root: self.root,
            ..params
        };
        let mut fs = AlgorithmState::new(
            algorithm,
            ComputeModelKind::FromScratch,
            self.csr.num_nodes(),
            params,
        );
        fs.perform_alg(&self.csr, &[], &[], &self.pool);
        fs.values()
    }

    /// Checks one configuration's final state; `Err` names the mismatch.
    pub fn check(
        &self,
        label: &str,
        algorithm: AlgorithmKind,
        values: &VertexValues,
        num_edges: usize,
    ) -> Result<(), String> {
        if num_edges != self.num_edges() {
            return Err(format!(
                "{label}: {num_edges} edges, oracle has {}",
                self.num_edges()
            ));
        }
        match values_diff(&self.values(algorithm, AlgorithmParams::default()), values) {
            Some(diff) => Err(format!("{label}: values diverge from FS on CSR: {diff}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;

    #[test]
    fn every_mode_agrees_with_the_oracle_on_a_churn_stream() {
        let stream = generate(1 << 8, 5, 120, 200, 0, 11);
        let reference = Reference::of(&stream);
        for mode in Mode::ALL {
            let config = Config {
                structure: DataStructureKind::AdjacencyShared,
                algorithm: AlgorithmKind::Cc,
                model: ComputeModelKind::Incremental,
                mode,
            };
            let pass = run_pass(&config, &stream);
            assert_eq!(pass.batch_ms.len(), 5, "{}", config.label());
            reference
                .check(
                    &config.label(),
                    config.algorithm,
                    &pass.values,
                    pass.num_edges,
                )
                .unwrap();
        }
    }

    #[test]
    fn the_check_catches_a_wrong_value_and_a_wrong_edge_count() {
        let stream = generate(1 << 8, 3, 100, 0, 0, 5);
        let reference = Reference::of(&stream);
        let config = configs(Workload::FsSweep)[0];
        let pass = run_pass(&config, &stream);
        assert!(reference
            .check("x", config.algorithm, &pass.values, pass.num_edges + 1)
            .is_err());
        let VertexValues::U32(mut depths) = pass.values else {
            panic!("BFS depths are u32")
        };
        depths[stream.root() as usize] += 1;
        assert!(reference
            .check(
                "x",
                config.algorithm,
                &VertexValues::U32(depths),
                pass.num_edges
            )
            .is_err());
    }

    #[test]
    fn workloads_cycle_through_the_configurations_the_issue_names() {
        assert_eq!(configs(Workload::FsSweep).len(), 10);
        assert_eq!(configs(Workload::IncChurn).len(), 10);
        assert_eq!(configs(Workload::ExecModes).len(), 8);
        assert_eq!(
            configs(Workload::ClosedSmall)[1].label(),
            "DeltaCSR/CC/INC/sharded"
        );
    }
}
