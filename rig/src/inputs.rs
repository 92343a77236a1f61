//! Workload names, their frozen sizes, and the seeded input streams.
//!
//! Every size below is a constant: nothing is derived from how fast the
//! machine turns out to be. `--seconds` scales the *amount* of work
//! (cycles, batches) through the frozen per-second constants, which were
//! set so that the timed window lasts about `--seconds` on the reference
//! 2-core host; a slower host takes longer, up to the guard in
//! [`Sizes::guard`], and reports that it was cut short.

use rand_xoshiro::rand_core::{RngCore, SeedableRng};
use rand_xoshiro::Xoshiro256PlusPlus;
use saga_stream::batching::shuffle_edges;
use saga_stream::loader::render_edge_line;
use saga_stream::rmat::Rmat;
use saga_stream::{Edge, EdgeOp};
use std::time::{Duration, Instant};

/// Threads of every library pool (`nproc` of the reference host).
pub const LIB_THREADS: usize = 2;
/// Shards of every BSP (`.sharded`) configuration.
pub const SHARDS: usize = 2;
/// HTTP workers of the server child (`saga-server 127.0.0.1:0 2`).
pub const SERVER_WORKERS: usize = 2;
/// Compute threads of every server tenant.
pub const TENANT_THREADS: usize = 1;
/// Admission bound of every server tenant.
pub const QUEUE_BOUND: usize = 8;
/// Batches in flight per connection in the closed loop. With four, the
/// loop locks into one of two phases against the server's threads for a
/// whole run (median latency 1.2 ms or 1.7 ms, throughput ±15 %); with one
/// it does not.
pub const CLOSED_OUTSTANDING: usize = 1;
/// Period of the `GET /values` reads in the open-loop workload.
pub const READ_PERIOD: Duration = Duration::from_millis(500);

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// FS compute over every structure: graph reads dominate.
    FsSweep,
    /// INC compute under 20 % deletions: graph writes and repair dominate.
    IncChurn,
    /// One structure through the four execution paths.
    ExecModes,
    /// Server, closed loop, small batches: HTTP/parse/queue/journal dominate.
    ClosedSmall,
    /// Server, open loop, writes beside reads on one tenant.
    OpenMixed,
}

impl Workload {
    /// Every workload, in the order a full run visits them.
    pub const ALL: [Workload; 5] = [
        Workload::FsSweep,
        Workload::IncChurn,
        Workload::ExecModes,
        Workload::ClosedSmall,
        Workload::OpenMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FsSweep => "lib.fs-sweep",
            Workload::IncChurn => "lib.inc-churn",
            Workload::ExecModes => "lib.exec-modes",
            Workload::ClosedSmall => "server.closed-small",
            Workload::OpenMixed => "server.open-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the system under test is the server child process.
    pub fn is_server(self) -> bool {
        matches!(self, Workload::ClosedSmall | Workload::OpenMixed)
    }

    /// The workload's input stream shape at full scale.
    fn stream(self) -> StreamSpec {
        match self {
            Workload::FsSweep => StreamSpec {
                log_nodes: 14,
                batches: 4,
                batch_ops: 24_576,
                delete_per_mille: 0,
            },
            Workload::IncChurn => StreamSpec {
                log_nodes: 16,
                batches: 6,
                batch_ops: 65_536,
                delete_per_mille: 200,
            },
            Workload::ExecModes => StreamSpec {
                log_nodes: 16,
                batches: 6,
                batch_ops: 65_536,
                delete_per_mille: 0,
            },
            // Server streams are cut per run: `batches` is per second of window.
            Workload::ClosedSmall => StreamSpec {
                log_nodes: 16,
                batches: 1_800,
                batch_ops: 64,
                delete_per_mille: 0,
            },
            Workload::OpenMixed => StreamSpec {
                log_nodes: 15,
                batches: 75,
                batch_ops: 512,
                delete_per_mille: 500,
            },
        }
    }

    /// Seconds one cycle over a library workload's configurations takes on
    /// the reference host (frozen; sets how many cycles fit a window).
    fn cycle_ref_seconds(self) -> f64 {
        match self {
            Workload::FsSweep => 3.3,
            Workload::IncChurn => 3.2,
            Workload::ExecModes => 1.75,
            Workload::ClosedSmall | Workload::OpenMixed => 1.0,
        }
    }

    /// Edges pre-loaded into each server tenant during set-up.
    fn preload_edges(self) -> usize {
        match self {
            Workload::ClosedSmall => 262_144,
            Workload::OpenMixed => 65_536,
            _ => 0,
        }
    }
}

/// Shape of one generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// log2 of the vertex universe.
    pub log_nodes: u32,
    /// Number of batches (library workloads) or batches per second of
    /// window (server workloads).
    pub batches: usize,
    /// Ops per batch, deletes included.
    pub batch_ops: usize,
    /// Share of each batch, in thousandths, that deletes earlier inserts.
    pub delete_per_mille: usize,
}

/// What a run of one workload will do, after `--seconds` and `--quick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// The workload.
    pub workload: Workload,
    /// The measurement window asked for.
    pub seconds: f64,
    /// Vertex universe.
    pub num_nodes: usize,
    /// Batches in the stream (per tenant for `server.closed-small`).
    pub batches: usize,
    /// Ops per batch.
    pub batch_ops: usize,
    /// Deletes per batch, in thousandths.
    pub delete_per_mille: usize,
    /// Cycles over the configurations (library workloads; 1 otherwise).
    pub cycles: usize,
    /// Edges pre-loaded per server tenant.
    pub preload_edges: usize,
    /// Batch-submission rate of the open loop (0 elsewhere).
    pub open_rate_per_s: usize,
}

impl Sizes {
    /// Sizes of `workload` for a `seconds` window; `quick` divides every
    /// op count by 100 for the smoke run.
    pub fn new(workload: Workload, seconds: f64, quick: bool) -> Sizes {
        let spec = workload.stream();
        let shrink = |n: usize| if quick { (n / 100).max(1) } else { n };
        let (batches, cycles) = if workload.is_server() {
            (
                (shrink(spec.batches) as f64 * seconds).round().max(4.0) as usize,
                1,
            )
        } else {
            (
                spec.batches,
                (seconds / workload.cycle_ref_seconds()).round().max(1.0) as usize,
            )
        };
        Sizes {
            workload,
            seconds,
            num_nodes: 1
                << if quick {
                    spec.log_nodes.min(12)
                } else {
                    spec.log_nodes
                },
            batches,
            batch_ops: if workload.is_server() {
                spec.batch_ops
            } else {
                shrink(spec.batch_ops).max(8)
            },
            delete_per_mille: spec.delete_per_mille,
            cycles,
            preload_edges: shrink(workload.preload_edges()),
            open_rate_per_s: if workload == Workload::OpenMixed {
                shrink(spec.batches).max(4)
            } else {
                0
            },
        }
    }

    /// The point past which a window is cut short instead of finished:
    /// keeps a slow host inside the driver's per-run time limit.
    pub fn guard(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 1.5 + 2.0)
    }

    /// The sizes as they are echoed in every output document.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("num_nodes", Json::count(self.num_nodes)),
            ("batches", Json::count(self.batches)),
            ("batch_ops", Json::count(self.batch_ops)),
            ("delete_per_mille", Json::count(self.delete_per_mille)),
            ("cycles", Json::count(self.cycles)),
            ("preload_edges", Json::count(self.preload_edges)),
            ("open_rate_per_s", Json::count(self.open_rate_per_s)),
            ("lib_threads", Json::count(LIB_THREADS)),
            ("shards", Json::count(SHARDS)),
            ("server_workers", Json::count(SERVER_WORKERS)),
            ("tenant_threads", Json::count(TENANT_THREADS)),
            ("queue_bound", Json::count(QUEUE_BOUND)),
            ("closed_outstanding", Json::count(CLOSED_OUTSTANDING)),
        ])
    }
}

/// One batch of a stream: inserts apply before deletes (driver semantics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpBatch {
    /// Edges to insert.
    pub inserts: Vec<Edge>,
    /// Edges to delete.
    pub deletes: Vec<Edge>,
}

impl OpBatch {
    /// Ops in the batch.
    pub fn ops(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The batch as the `(op, edge)` list `Tenant::submit` takes.
    pub fn tagged(&self) -> Vec<(EdgeOp, Edge)> {
        let ins = self.inserts.iter().map(|&e| (EdgeOp::Insert, e));
        ins.chain(self.deletes.iter().map(|&e| (EdgeOp::Delete, e)))
            .collect()
    }

    /// The batch as a `POST /tenants/{t}/batches` body.
    pub fn render_body(&self) -> String {
        let mut body = String::with_capacity(self.ops() * 16);
        for (op, edge) in self.tagged() {
            body.push_str(&render_edge_line(&edge, op));
            body.push('\n');
        }
        body
    }
}

/// A generated stream and what generating it cost.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Vertex universe.
    pub num_nodes: usize,
    /// The batches, in arrival order.
    pub batches: Vec<OpBatch>,
    /// Seconds spent in `Rmat::generate_into` and `shuffle_edges`.
    pub gen_seconds: f64,
}

impl Stream {
    /// Root for BFS/SSSP: the first edge's source, the driver's and the
    /// server's shared convention.
    pub fn root(&self) -> saga_graph::Node {
        self.batches
            .first()
            .and_then(|b| b.inserts.first())
            .map_or(0, |e| e.src)
    }

    /// Total ops.
    pub fn ops(&self) -> usize {
        self.batches.iter().map(OpBatch::ops).sum()
    }
}

/// Mixes a tag into a seed so that no two generators of a run share a
/// sequence.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    (seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag)
}

/// Seed of the R-MAT datasets. Like the paper's input files (§IV-B: a fixed
/// dataset, shuffled once, then read in batches), the edges of every batch
/// of a stream are fixed by its dataset number; `--seed` decides the order
/// the edges arrive in *within* each batch and which live edges the
/// deletions pick. From-scratch cost on a graph (PageRank's iteration count
/// above all) varies by ±10 % from one R-MAT draw to the next and from one
/// batch membership to the next, which would drown any bound worth having.
const DATASET_SEED: u64 = 0x5A6A_2020;

/// Generates `batches` batches of `batch_ops` ops over `num_nodes`
/// vertices: the R-MAT edges (the paper's parameters) of dataset number
/// `dataset`, shuffled, cut into batches, each batch reordered by `seed`;
/// from the second batch on, `delete_per_mille` thousandths of each batch
/// delete edges inserted by earlier batches (each live edge at most once),
/// picked by `seed`.
pub fn generate(
    num_nodes: usize,
    batches: usize,
    batch_ops: usize,
    delete_per_mille: usize,
    dataset: u64,
    seed: u64,
) -> Stream {
    let deletes_per_batch = batch_ops * delete_per_mille / 1000;
    let inserts_per_batch = |i: usize| {
        if i == 0 {
            batch_ops
        } else {
            batch_ops - deletes_per_batch
        }
    };
    let total_inserts: usize = (0..batches).map(inserts_per_batch).sum();

    let started = Instant::now();
    let mut edges = Vec::new();
    Rmat::paper(num_nodes).generate_into(
        total_inserts,
        sub_seed(DATASET_SEED, dataset),
        &mut edges,
    );
    shuffle_edges(&mut edges, sub_seed(DATASET_SEED, !dataset));
    let mut cut = 0;
    for i in 0..batches {
        let batch = &mut edges[cut..cut + inserts_per_batch(i)];
        shuffle_edges(batch, sub_seed(seed, 2 * dataset).wrapping_add(i as u64));
        cut += batch.len();
    }
    let gen_seconds = started.elapsed().as_secs_f64();

    let mut rng = Xoshiro256PlusPlus::seed_from_u64(sub_seed(seed, 2 * dataset + 1));
    let mut live: Vec<Edge> = Vec::new();
    let mut rest = edges.as_slice();
    let mut out = Vec::with_capacity(batches);
    for i in 0..batches {
        let (inserts, tail) = rest.split_at(inserts_per_batch(i));
        rest = tail;
        let mut deletes = Vec::new();
        if i > 0 {
            for _ in 0..deletes_per_batch.min(live.len()) {
                let victim = (rng.next_u64() % live.len() as u64) as usize;
                deletes.push(live.swap_remove(victim));
            }
        }
        if deletes_per_batch > 0 {
            live.extend_from_slice(inserts);
        }
        out.push(OpBatch {
            inserts: inserts.to_vec(),
            deletes,
        });
    }
    Stream {
        num_nodes,
        batches: out,
        gen_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(seed: u64) -> Vec<String> {
        generate(1 << 10, 6, 200, 200, 0, seed)
            .batches
            .iter()
            .map(OpBatch::render_body)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(bodies(42), bodies(42));
        assert_ne!(bodies(42), bodies(43));
    }

    #[test]
    fn the_seed_orders_the_batches_of_a_fixed_dataset() {
        let batch_sets = |dataset, seed| -> Vec<Vec<(u32, u32)>> {
            let stream = generate(1 << 10, 4, 100, 0, dataset, seed);
            let sorted = |b: &OpBatch| {
                let mut edges: Vec<(u32, u32)> = b.inserts.iter().map(|e| (e.src, e.dst)).collect();
                edges.sort_unstable();
                edges
            };
            stream.batches.iter().map(sorted).collect()
        };
        assert_eq!(
            batch_sets(3, 1),
            batch_sets(3, 2),
            "same edges per batch whatever the seed"
        );
        assert_ne!(batch_sets(3, 1), batch_sets(4, 1), "datasets differ");
    }

    #[test]
    fn batches_have_the_frozen_shape_and_delete_earlier_inserts() {
        let stream = generate(1 << 10, 6, 200, 200, 0, 7);
        assert_eq!(stream.batches.len(), 6);
        assert_eq!(stream.ops(), 1_200);
        assert!(stream.batches[0].deletes.is_empty());
        let mut seen = std::collections::HashSet::new();
        for batch in &stream.batches {
            assert_eq!(batch.ops(), 200);
            for d in &batch.deletes {
                assert!(
                    seen.contains(&(d.src, d.dst)),
                    "delete of an edge no earlier batch inserted"
                );
            }
            seen.extend(batch.inserts.iter().map(|e| (e.src, e.dst)));
        }
        assert_eq!(stream.batches[1].deletes.len(), 40);
        // Bodies are what the server's parser accepts, deletes marked.
        let body = stream.batches[1].render_body();
        let ops = saga_server::api::parse_batch_body(&body, 1 << 10, true).expect("parses");
        assert_eq!(ops, stream.batches[1].tagged());
    }

    #[test]
    fn sizes_scale_with_seconds_and_quick() {
        let full = Sizes::new(Workload::ClosedSmall, 10.0, false);
        let half = Sizes::new(Workload::ClosedSmall, 5.0, false);
        assert_eq!(full.batches, 2 * half.batches);
        let quick = Sizes::new(Workload::ClosedSmall, 10.0, true);
        assert!(quick.batches * 50 < full.batches && quick.preload_edges * 50 < full.preload_edges);
        assert_eq!(Sizes::new(Workload::FsSweep, 10.0, false).cycles, 3);
        assert_eq!(Sizes::new(Workload::FsSweep, 1.0, true).cycles, 1);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
