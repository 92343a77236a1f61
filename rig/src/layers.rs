//! The traced pass: replays a workload's inputs through each layer's
//! *public* functions with rig-owned spans around the calls, derives the
//! per-layer metrics, and writes the span file. Tracing inside the program
//! is a later change; nothing here touches the program's own tracer.
//!
//! Two parts per workload:
//!
//! - the **path replay**, which follows the workload's own blocking path
//!   (`lib.*`: `DriverSession::step` decomposed by hand for every
//!   configuration; `server.*`: the request bytes through parse → handle →
//!   queue → response in-process, next to a serial run over real TCP), and
//!   yields the `path.*` shares and the tracing overhead;
//! - the **layer probes**, which time one public function each on the
//!   workload's first configuration and a prefix of its batches, so every
//!   workload reports every layer on its own input shape.

use crate::child::Paths;
use crate::exec::{configs, driver, run_pass, Config, Mode, Reference};
use crate::http::Conn;
use crate::inputs::{OpBatch, Sizes, Stream, LIB_THREADS, SHARDS, TENANT_THREADS};
use crate::json::Json;
use crate::spans::{self, self_ns_where, Recorder};
use crate::stats::median;
use crate::{libload, serverload};
use saga_algorithms::{
    AffectedTracker, AlgorithmKind, AlgorithmParams, AlgorithmState, BatchImpact, ComputeModelKind,
    ComputeOutcome, VertexValues,
};
use saga_bsp::{CheckpointConfig, ShardedState};
use saga_graph::{build_deletable_graph_with, DataStructureKind, DeletableGraph, Node};
use saga_server::api::{handle, parse_batch_body};
use saga_server::http::{parse_request, Limits, Parsed};
use saga_server::journal::append_batch;
use saga_server::tenant::{parse_values, split_ops, TenantConfig, TenantSnapshot};
use saga_server::Registry;
use saga_stream::loader::parse_edge_line;
use saga_utils::parallel::ThreadPool;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ops of the prefix the layer probes run on (whole batches, at least one).
const PROBE_OPS: usize = 100_000;
/// Requests of the server path replay (the first third of the window's,
/// up to this many).
const REPLAY_REQUESTS: usize = 3_000;
/// Timed batches of the execution-mode probe: the pipelined path copies the
/// whole graph into a CSR per batch, whatever the batch's size.
const MODE_BATCHES: usize = 16;
/// Round trips of the fixed-cost probes (`tenant.hop_us`, `pool.dispatch_us`).
const ROUND_TRIPS: usize = 400;

/// Results of a traced pass.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer values by catalogue name.
    pub values: Vec<(String, f64)>,
    /// Verification mismatches.
    pub mismatches: Vec<String>,
    /// Checks and requests attempted.
    pub attempted: usize,
    /// Where the spans were written.
    pub span_file: PathBuf,
    /// The self-time table.
    pub self_time: Json,
}

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// The compute state behind a hand-decomposed step.
enum State {
    Serial(AlgorithmState),
    Sharded(Box<ShardedState>),
}

/// What one hand-decomposed step did.
struct StepOut {
    tracker_ns: f64,
    compute_ns: f64,
    affected: usize,
    outcome: ComputeOutcome,
}

/// `DriverSession::step` taken apart: the same public calls in the same
/// order — `update_batch` → `delete_batch` → `process_mixed_batch` →
/// `perform_alg_with_deletions` / `perform_batch` — each inside a span.
struct Stepper {
    pool: ThreadPool,
    graph: Box<dyn DeletableGraph>,
    state: State,
    tracker: AffectedTracker,
    /// Run the tracker (always for INC; forced for the tracker probe).
    track: bool,
}

impl Stepper {
    fn new(
        config: &Config,
        num_nodes: usize,
        root: Node,
        threads: usize,
        force_tracker: bool,
    ) -> Stepper {
        let pool = ThreadPool::new(threads);
        let graph = build_deletable_graph_with(
            config.structure,
            num_nodes,
            true,
            pool.threads(),
            config.mode == Mode::Partitioned,
        );
        let params = AlgorithmParams {
            root,
            ..AlgorithmParams::default()
        };
        let state = if config.mode == Mode::Sharded {
            State::Sharded(Box::new(ShardedState::new(
                config.algorithm,
                config.model,
                num_nodes,
                SHARDS,
                params,
                CheckpointConfig::default(),
            )))
        } else {
            State::Serial(AlgorithmState::new(
                config.algorithm,
                config.model,
                num_nodes,
                params,
            ))
        };
        Stepper {
            pool,
            graph,
            state,
            tracker: AffectedTracker::new(num_nodes),
            track: force_tracker || config.model == ComputeModelKind::Incremental,
        }
    }

    fn step(&mut self, batch: &OpBatch, id: u64, rec: &mut Recorder) -> StepOut {
        let root = rec.enter("core.step", id);
        let (graph, pool) = (&self.graph, &self.pool);
        rec.scope("graph.update", id, || {
            graph.update_batch(&batch.inserts, pool)
        });
        if !batch.deletes.is_empty() {
            rec.scope("graph.delete", id, || {
                graph.delete_batch(&batch.deletes, pool)
            });
        }
        let (seed_sources, seed_deletes) = match &self.state {
            State::Serial(s) => (s.affects_source_neighborhood(), s.symmetric_scope()),
            State::Sharded(s) => (s.affects_source_neighborhood(), s.symmetric_scope()),
        };
        let tracking = Instant::now();
        let impact = if self.track {
            let tracker = &mut self.tracker;
            rec.scope("alg.tracker", id, || {
                tracker.process_mixed_batch(
                    graph.as_ref(),
                    &batch.inserts,
                    &batch.deletes,
                    seed_sources,
                    seed_deletes,
                    pool,
                )
            })
        } else {
            BatchImpact::default()
        };
        let tracker_ns = ns_since(tracking);
        let computing = Instant::now();
        let outcome = match &mut self.state {
            State::Serial(s) => rec.scope("alg.compute", id, || {
                s.perform_alg_with_deletions(
                    graph.as_ref(),
                    &impact.affected,
                    &impact.new_vertices,
                    &batch.deletes,
                    pool,
                )
            }),
            State::Sharded(s) => rec.scope("bsp.batch", id, || {
                s.perform_batch(
                    graph.as_ref(),
                    &impact.affected,
                    !batch.deletes.is_empty(),
                    pool,
                )
            }),
        };
        let compute_ns = ns_since(computing);
        rec.exit(root);
        StepOut {
            tracker_ns,
            compute_ns,
            affected: impact.affected.len(),
            outcome,
        }
    }

    fn values(&self) -> VertexValues {
        match &self.state {
            State::Serial(s) => s.values(),
            State::Sharded(s) => s.values(),
        }
    }
}

/// What the path replay established, in nanoseconds over `batches` batches.
#[derive(Debug, Default)]
struct PathTimes {
    batches: usize,
    /// The blocking path end to end (`lib.*`: the step spans; `server.*`:
    /// the serial run over real TCP).
    total_ns: f64,
    /// Part of `total_ns` no rig span covers.
    unattributed_ns: f64,
    /// The same batches without and with span recording.
    untraced_ns: f64,
    traced_ns: f64,
}

/// Inputs of the layer probes: the first configuration of the workload,
/// the state it starts from, and the batches that are timed.
struct ProbeInput {
    config: Config,
    /// Pool threads of the system the workload drives (library pools or a
    /// server tenant's).
    threads: usize,
    num_nodes: usize,
    root: Node,
    /// Applied untimed (a server tenant's pre-load and warm-up).
    warm: Vec<OpBatch>,
    /// Timed.
    prefix: Vec<OpBatch>,
    gen_seconds: f64,
}

impl ProbeInput {
    fn new(
        config: Config,
        threads: usize,
        warm: &[OpBatch],
        stream: &Stream,
        root: Node,
        gen_seconds: f64,
    ) -> ProbeInput {
        let third = stream.batches.len().div_ceil(3);
        let mut ops = 0;
        let prefix: Vec<OpBatch> = stream
            .batches
            .iter()
            .take(third)
            .take_while(|b| {
                let take = ops == 0 || ops + b.ops() <= PROBE_OPS;
                ops += b.ops();
                take
            })
            .cloned()
            .collect();
        ProbeInput {
            config,
            threads,
            num_nodes: stream.num_nodes,
            root,
            warm: warm.to_vec(),
            prefix,
            gen_seconds,
        }
    }

    fn ops(&self) -> usize {
        self.prefix.iter().map(OpBatch::ops).sum()
    }

    /// `warm` then the first `timed` batches of `prefix` as one stream.
    fn whole(&self, timed: usize) -> Stream {
        Stream {
            num_nodes: self.num_nodes,
            batches: self
                .warm
                .iter()
                .chain(self.prefix.iter().take(timed))
                .cloned()
                .collect(),
            gen_seconds: 0.0,
        }
    }
}

/// Runs the traced pass of `sizes.workload`.
pub fn run(
    sizes: &Sizes,
    seed: u64,
    paths: &Paths,
    server_bin: Option<&Path>,
) -> Result<Traced, String> {
    let mut rec = Recorder::new(true);
    let mut mismatches = Vec::new();
    let mut attempted = 0;
    let mut check = |outcome: Result<(), String>| {
        attempted += 1;
        mismatches.extend(outcome.err());
    };

    let (path, probe) = if sizes.workload.is_server() {
        let bin = server_bin.ok_or("server workloads need the saga-server binary")?;
        server_path(sizes, seed, bin, paths, &mut rec, &mut check)?
    } else {
        lib_path(sizes, seed, &mut rec, &mut check)
    };
    let mut values = path_metrics(&path, &rec);
    values.extend(layer_probes(&probe, &mut check));
    values.push(("trace.spans".to_string(), rec.spans().len() as f64));

    let span_file = paths
        .out_dir
        .join(format!("{}.spans.json", sizes.workload.name()));
    let document = spans::to_json(rec.spans());
    std::fs::write(&span_file, document.pretty())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    let Json::Obj(mut parts) = document else {
        unreachable!("the span file is an object")
    };
    let self_time = parts.swap_remove(0).1;
    Ok(Traced {
        values,
        mismatches,
        attempted,
        span_file,
        self_time,
    })
}

/// `path.*` and `trace.overhead_share` from the replay's spans.
fn path_metrics(path: &PathTimes, rec: &Recorder) -> Vec<(String, f64)> {
    let table = spans::self_times(rec.spans());
    let compute = self_ns_where(&table, |n| matches!(n, "alg.compute" | "bsp.batch")) as f64;
    let update = self_ns_where(&table, |n| {
        matches!(n, "graph.update" | "graph.delete" | "alg.tracker")
    }) as f64;
    let total = path.total_ns.max(1.0);
    let per_batch_us = |ns: f64| ns / 1e3 / path.batches.max(1) as f64;
    vec![
        ("path.batch_us".to_string(), per_batch_us(path.total_ns)),
        ("path.compute_share".to_string(), compute / total),
        ("path.update_share".to_string(), update / total),
        (
            "path.outside_share".to_string(),
            1.0 - (compute + update) / total,
        ),
        (
            "path.unattributed_us".to_string(),
            per_batch_us(path.unattributed_ns),
        ),
        // (untraced − traced) ÷ untraced throughput, on the same batches.
        (
            "trace.overhead_share".to_string(),
            1.0 - path.untraced_ns / path.traced_ns.max(1.0),
        ),
    ]
}

/// `lib.*`: one untraced cycle through `DriverSession`, then one cycle
/// with every step decomposed by hand, each checked against the oracle.
fn lib_path(
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
    check: &mut impl FnMut(Result<(), String>),
) -> (PathTimes, ProbeInput) {
    let stream = libload::setup(sizes, seed);
    let configs = configs(sizes.workload);
    let reference = Reference::of(&stream);
    let mut path = PathTimes::default();
    for (i, config) in configs.iter().enumerate() {
        path.untraced_ns += run_pass(config, &stream).wall_s * 1e9;
        let id = |batch: usize| (i * stream.batches.len() + batch) as u64;
        let (values, num_edges) = if config.mode == Mode::Pipelined {
            // One public call: its inside is not attributed (README).
            let pass = rec.scope("core.pipelined", id(0), || run_pass(config, &stream));
            (pass.values, pass.num_edges)
        } else {
            let mut stepper =
                Stepper::new(config, stream.num_nodes, stream.root(), LIB_THREADS, false);
            for (b, batch) in stream.batches.iter().enumerate() {
                stepper.step(batch, id(b), rec);
            }
            (stepper.values(), stepper.graph.num_edges())
        };
        path.batches += stream.batches.len();
        check(reference.check(&config.label(), config.algorithm, &values, num_edges));
    }
    let table = spans::self_times(rec.spans());
    let roots = |n: &str| matches!(n, "core.step" | "core.pipelined");
    path.total_ns = table
        .iter()
        .filter(|(n, _)| roots(n))
        .map(|(_, t)| t.total_ns as f64)
        .sum();
    path.traced_ns = path.total_ns;
    path.unattributed_ns = self_ns_where(&table, roots) as f64;
    let probe = ProbeInput::new(
        configs[0],
        LIB_THREADS,
        &[],
        &stream,
        stream.root(),
        stream.gen_seconds,
    );
    (path, probe)
}

/// Request bytes as the load generator's connection writes them.
fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nhost: saga\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Per-call timings of the in-process onion, in microseconds.
#[derive(Debug, Default)]
struct OnionTimes {
    parse_us: Vec<f64>,
    handle_us: Vec<f64>,
    write_us: Vec<f64>,
    total_ns: f64,
    snapshot_ms: Vec<f64>,
    snapshot: TenantSnapshot,
}

/// The server's request path in-process, layer by layer: `parse_request`
/// on the request bytes → `api::handle` (`parse_batch_body` →
/// `Tenant::submit`) → wait until `processed()` shows the batch →
/// `Response::write_to`; then `Tenant::snapshot`, the read path.
fn onion(
    config_body: &str,
    warm: &[String],
    requests: &[String],
    rec: &mut Recorder,
) -> Result<OnionTimes, String> {
    let registry = Registry::new();
    let config = TenantConfig::parse(config_body)?;
    let path = format!("/tenants/{}/batches", config.name);
    let tenant = registry.create(config)?;
    let wait = |count: usize| {
        while tenant.processed() < count {
            std::hint::spin_loop();
        }
    };
    for (sent, body) in warm.iter().enumerate() {
        let ops = parse_batch_body(body, tenant.config.capacity, true).map_err(|(_, e)| e)?;
        tenant
            .submit(ops, None)
            .map_err(|e| format!("warm-up batch refused: {e:?}"))?;
        wait(sent + 1);
    }
    let mut times = OnionTimes::default();
    let limits = Limits::default();
    let mut sink = Vec::with_capacity(256);
    for (i, body) in requests.iter().enumerate() {
        let bytes = request_bytes(&path, body);
        let id = i as u64;
        let started = Instant::now();
        let root = rec.enter("server.request", id);

        let parsing = Instant::now();
        let request = rec.scope("http.parse", id, || match parse_request(&bytes, &limits) {
            Ok(Parsed::Head {
                mut request,
                consumed,
                content_length,
            }) => {
                request.body = bytes[consumed..consumed + content_length].to_vec();
                Ok(request)
            }
            other => Err(format!("request {i} does not parse: {other:?}")),
        })?;
        times.parse_us.push(ns_since(parsing) / 1e3);

        let handling = Instant::now();
        let response = rec.scope("api.handle", id, || handle(&registry, &request));
        times.handle_us.push(ns_since(handling) / 1e3);
        if response.status != 202 {
            return Err(format!(
                "request {i}: status {} in-process",
                response.status
            ));
        }

        rec.scope("tenant.wait", id, || wait(warm.len() + i + 1));

        let writing = Instant::now();
        sink.clear();
        rec.scope("http.write", id, || response.write_to(&mut sink, true))
            .map_err(|e| e.to_string())?;
        times.write_us.push(ns_since(writing) / 1e3);

        rec.exit(root);
        times.total_ns += ns_since(started);
    }
    for _ in 0..5 {
        let reading = Instant::now();
        times.snapshot = tenant
            .snapshot()
            .ok_or("tenant closed before its snapshot")?;
        times.snapshot_ms.push(ns_since(reading) / 1e6);
    }
    registry.shutdown_all();
    Ok(times)
}

/// `server.*`: a serial run of the first requests over real TCP, the same
/// requests through the in-process onion (without and with spans), and the
/// worker's side — `parse_batch_body`, `split_ops`, `append_batch`, the
/// step — timed standalone, since the rig cannot put spans inside the
/// tenant's thread.
fn server_path(
    sizes: &Sizes,
    seed: u64,
    server_bin: &Path,
    paths: &Paths,
    rec: &mut Recorder,
    check: &mut impl FnMut(Result<(), String>),
) -> Result<(PathTimes, ProbeInput), String> {
    let serverload::Live { server, tenants } = serverload::setup(sizes, seed, server_bin, paths)?;
    let plan = &tenants[0];
    let warm_bodies: Vec<String> = plan
        .preload
        .iter()
        .chain(&plan.bodies[..plan.warmup()])
        .cloned()
        .collect();
    let window = &plan.bodies[plan.warmup()..];
    let requests = &window[..window.len().div_ceil(3).min(REPLAY_REQUESTS)];
    let mut path = PathTimes {
        batches: requests.len(),
        ..PathTimes::default()
    };

    // Real TCP, one batch in flight: POST, then poll until it is applied.
    let mut conn = Conn::new(server.addr());
    for (i, body) in requests.iter().enumerate() {
        let started = Instant::now();
        let accepted =
            matches!(conn.post(&plan.batches_path(), body), Ok(reply) if reply.status == 202);
        if !accepted {
            return Err(format!("request {i} was not accepted over TCP"));
        }
        while serverload::status(&mut conn, &plan.name)?.0 < warm_bodies.len() + i + 1 {}
        path.total_ns += ns_since(started);
    }
    drop(server);

    path.untraced_ns = onion(
        &plan.config_body(),
        &warm_bodies,
        requests,
        &mut Recorder::new(false),
    )?
    .total_ns;
    let traced = onion(&plan.config_body(), &warm_bodies, requests, rec)?;
    path.traced_ns = traced.total_ns;
    path.unattributed_ns = path.total_ns - traced.total_ns;

    // The worker's side, standalone.
    let warm: Vec<OpBatch> = plan
        .preload_stream
        .batches
        .iter()
        .chain(&plan.stream.batches[..plan.warmup()])
        .cloned()
        .collect();
    let root = warm
        .first()
        .and_then(|b| b.inserts.first())
        .map_or(0, |e| e.src);
    let standalone = rec.enter("standalone", 0);
    let mut journal = String::new();
    for (i, body) in requests.iter().enumerate() {
        let id = i as u64;
        let ops = rec
            .scope("api.parse_body", id, || {
                parse_batch_body(body, plan.capacity, true)
            })
            .map_err(|(_, e)| e)?;
        rec.scope("tenant.split_ops", id, || split_ops(&ops));
        rec.scope("journal.append", id, || append_batch(&mut journal, i, &ops));
    }
    let mut stepper = Stepper::new(&plan.config, plan.capacity, root, TENANT_THREADS, false);
    let mut quiet = Recorder::new(false);
    for batch in &warm {
        stepper.step(batch, 0, &mut quiet);
    }
    let replayed = &plan.stream.batches[plan.warmup()..plan.warmup() + requests.len()];
    for (i, batch) in replayed.iter().enumerate() {
        stepper.step(batch, i as u64, rec);
    }
    rec.exit(standalone);

    // The in-process tenant and the hand-stepped state both saw exactly
    // warm + requests: both must agree with FS on the oracle's CSR.
    let all = Stream {
        num_nodes: plan.capacity,
        batches: warm.iter().chain(replayed).cloned().collect(),
        gen_seconds: 0.0,
    };
    let reference = Reference::of(&all);
    let label = plan.config.label();
    check(reference.check(
        &format!("{label} stepped by hand"),
        plan.config.algorithm,
        &stepper.values(),
        stepper.graph.num_edges(),
    ));
    check(
        parse_values(&traced.snapshot.values_text).and_then(|values| {
            reference.check(
                &format!("{label} in-process tenant"),
                plan.config.algorithm,
                &values,
                traced.snapshot.num_edges,
            )
        }),
    );

    let gen_seconds = plan.preload_stream.gen_seconds + plan.stream.gen_seconds;
    let probe = ProbeInput::new(
        plan.config,
        TENANT_THREADS,
        &warm,
        &Stream {
            batches: plan.stream.batches[plan.warmup()..].to_vec(),
            ..all
        },
        root,
        gen_seconds,
    );
    Ok((path, probe))
}

/// One number per layer, each from a timed call into that layer's public
/// function on the probe input.
fn layer_probes(
    input: &ProbeInput,
    check: &mut impl FnMut(Result<(), String>),
) -> Vec<(String, f64)> {
    let mut out = vec![("stream.gen_s".to_string(), input.gen_seconds)];
    let bodies: Vec<String> = input.prefix.iter().map(OpBatch::render_body).collect();
    let ops = input.ops().max(1) as f64;

    // stream: the wire format's line parser over the rendered bodies.
    let parsing = Instant::now();
    let parsed: usize = bodies
        .iter()
        .map(|b| b.lines().filter_map(parse_edge_line).count())
        .sum();
    out.push((
        "stream.parse_ns_per_op".to_string(),
        ns_since(parsing) / ops,
    ));
    check(if parsed == input.ops() {
        Ok(())
    } else {
        Err(format!(
            "parse_edge_line kept {parsed} of {ops} rendered ops"
        ))
    });

    // http + api + tenant read path: the onion on a tenant of this shape.
    let tenant = serverload::tenant_config_body("probe", &input.config, input.num_nodes);
    let warm: Vec<String> = input.warm.iter().map(OpBatch::render_body).collect();
    match onion(&tenant, &warm, &bodies, &mut Recorder::new(false)) {
        Ok(times) => {
            out.push(("http.parse_us".to_string(), median(&times.parse_us)));
            out.push(("http.write_us".to_string(), median(&times.write_us)));
            out.push(("api.handle_us".to_string(), median(&times.handle_us)));
            out.push(("tenant.snapshot_ms".to_string(), median(&times.snapshot_ms)));
        }
        Err(e) => {
            check(Err(format!("in-process request path: {e}")));
            for name in [
                "http.parse_us",
                "http.write_us",
                "api.handle_us",
                "tenant.snapshot_ms",
            ] {
                out.push((name.to_string(), f64::NAN));
            }
        }
    }
    out.push(("tenant.hop_us".to_string(), tenant_hop_us()));

    // journal: canonical re-rendering of every admitted op.
    let mut journal = String::new();
    let appending = Instant::now();
    for (seq, batch) in input.prefix.iter().enumerate() {
        append_batch(&mut journal, seq, &batch.tagged());
    }
    out.push((
        "journal.append_ns_per_op".to_string(),
        ns_since(appending) / ops,
    ));

    out.extend(core_step_probe(input));
    for structure in DataStructureKind::ALL_WITH_DELTA {
        out.extend(graph_probe(input, structure));
    }
    out.extend(alg_probe(input));
    out.extend(bsp_probe(input));
    out.extend(mode_probe(input, check));

    // pool: an empty fork-join round trip.
    let pool = ThreadPool::new(LIB_THREADS);
    let trips: Vec<f64> = (0..ROUND_TRIPS)
        .map(|_| {
            let started = Instant::now();
            pool.run_on_all(|_| {});
            ns_since(started) / 1e3
        })
        .collect();
    out.push(("pool.dispatch_us".to_string(), median(&trips)));
    out
}

/// Queue push → worker wake-up → `processed()` visible, for a one-op batch
/// on a tiny tenant (so the step itself is a few microseconds).
fn tenant_hop_us() -> f64 {
    let registry = Registry::new();
    let config =
        TenantConfig::parse("name=hop\ncapacity=64\nthreads=1\n").expect("static config parses");
    let tenant = registry.create(config).expect("fresh registry");
    let edge = saga_stream::Edge::new(1, 2, 1.0);
    let trips: Vec<f64> = (0..ROUND_TRIPS)
        .map(|i| {
            let started = Instant::now();
            tenant
                .submit(vec![(saga_stream::EdgeOp::Insert, edge)], None)
                .expect("one in flight never fills the queue");
            while tenant.processed() <= i {
                std::hint::spin_loop();
            }
            ns_since(started) / 1e3
        })
        .collect();
    registry.shutdown_all();
    median(&trips)
}

/// `DriverSession::step` itself: median latency and the paper's Fig. 8
/// number, update ÷ (update + compute).
fn core_step_probe(input: &ProbeInput) -> Vec<(String, f64)> {
    let driver = driver(&input.config, input.num_nodes, input.threads);
    let mut session = driver.session(input.num_nodes, true, input.root);
    for batch in &input.warm {
        session.step(&batch.inserts, &batch.deletes);
    }
    let (mut step_ms, mut update_s, mut batch_s) = (Vec::new(), 0.0, 0.0);
    for batch in &input.prefix {
        let started = Instant::now();
        let record = session.step(&batch.inserts, &batch.deletes);
        step_ms.push(ns_since(started) / 1e6);
        update_s += record.update_seconds;
        batch_s += record.batch_seconds();
    }
    vec![
        ("core.step_ms".to_string(), median(&step_ms)),
        (
            "core.update_share".to_string(),
            update_s / batch_s.max(f64::MIN_POSITIVE),
        ),
    ]
}

/// One structure's write and read side: `update_batch` over the prefix, a
/// full out-neighbour sweep, `delete_batch` of the last batch's inserts.
fn graph_probe(input: &ProbeInput, structure: DataStructureKind) -> Vec<(String, f64)> {
    let pool = ThreadPool::new(input.threads);
    let graph = build_deletable_graph_with(structure, input.num_nodes, true, pool.threads(), false);
    for batch in &input.warm {
        graph.update_batch(&batch.inserts, &pool);
        graph.delete_batch(&batch.deletes, &pool);
    }
    let inserts: usize = input.prefix.iter().map(|b| b.inserts.len()).sum();
    let updating = Instant::now();
    for batch in &input.prefix {
        graph.update_batch(&batch.inserts, &pool);
    }
    let update_ns = ns_since(updating) / inserts.max(1) as f64;

    let scanning = Instant::now();
    let mut scanned = 0usize;
    for v in 0..input.num_nodes as Node {
        graph.for_each_out_neighbor(v, &mut |_, _| scanned += 1);
    }
    let scan_ns = ns_since(scanning) / std::hint::black_box(scanned).max(1) as f64;

    let victims = &input
        .prefix
        .last()
        .expect("the prefix holds a batch")
        .inserts;
    let deleting = Instant::now();
    graph.delete_batch(victims, &pool);
    let delete_ns = ns_since(deleting) / victims.len().max(1) as f64;
    vec![
        (format!("graph.update_ns_per_edge.{structure}"), update_ns),
        (format!("graph.delete_ns_per_edge.{structure}"), delete_ns),
        (format!("graph.scan_ns_per_edge.{structure}"), scan_ns),
    ]
}

/// The algorithm layer on the first configuration: tracker cost and reach,
/// compute cost, and how often a deletion batch was repaired incrementally
/// instead of falling back to from-scratch.
fn alg_probe(input: &ProbeInput) -> Vec<(String, f64)> {
    let serial = Config {
        mode: Mode::Serial,
        ..input.config
    };
    let mut stepper = Stepper::new(&serial, input.num_nodes, input.root, input.threads, true);
    let mut quiet = Recorder::new(false);
    for batch in &input.warm {
        stepper.step(batch, 0, &mut quiet);
    }
    let (mut tracker_ms, mut compute_ms, mut affected) = (Vec::new(), Vec::new(), 0usize);
    let (mut delete_batches, mut fallbacks) = (0usize, 0usize);
    for batch in &input.prefix {
        let step = stepper.step(batch, 0, &mut quiet);
        tracker_ms.push(step.tracker_ns / 1e6);
        compute_ms.push(step.compute_ns / 1e6);
        affected += step.affected;
        if !batch.deletes.is_empty() {
            delete_batches += 1;
            fallbacks += usize::from(step.outcome.fs_fallback);
        }
    }
    let repaired = if delete_batches == 0 {
        1.0
    } else {
        1.0 - fallbacks as f64 / delete_batches as f64
    };
    vec![
        ("alg.tracker_ms".to_string(), median(&tracker_ms)),
        (
            "alg.affected_share".to_string(),
            affected as f64 / (input.prefix.len() * input.num_nodes) as f64,
        ),
        ("alg.compute_ms".to_string(), median(&compute_ms)),
        ("alg.repair_ok_share".to_string(), repaired),
    ]
}

/// The BSP engine against the serial kernels on the same graph and the
/// same affected sets.
fn bsp_probe(input: &ProbeInput) -> Vec<(String, f64)> {
    let (algorithm, model): (AlgorithmKind, ComputeModelKind) =
        (input.config.algorithm, input.config.model);
    let pool = ThreadPool::new(input.threads);
    let graph = build_deletable_graph_with(
        input.config.structure,
        input.num_nodes,
        true,
        pool.threads(),
        false,
    );
    let params = AlgorithmParams {
        root: input.root,
        ..AlgorithmParams::default()
    };
    let mut serial = AlgorithmState::new(algorithm, model, input.num_nodes, params);
    let mut sharded = ShardedState::new(
        algorithm,
        model,
        input.num_nodes,
        SHARDS,
        params,
        CheckpointConfig::default(),
    );
    let mut tracker = AffectedTracker::new(input.num_nodes);
    let (mut bsp_ms, mut bsp_ns, mut serial_ns) = (Vec::new(), 0.0, 0.0);
    for (i, batch) in input.warm.iter().chain(&input.prefix).enumerate() {
        graph.update_batch(&batch.inserts, &pool);
        graph.delete_batch(&batch.deletes, &pool);
        let impact = tracker.process_mixed_batch(
            graph.as_ref(),
            &batch.inserts,
            &batch.deletes,
            serial.affects_source_neighborhood(),
            serial.symmetric_scope(),
            &pool,
        );
        let started = Instant::now();
        serial.perform_alg_with_deletions(
            graph.as_ref(),
            &impact.affected,
            &impact.new_vertices,
            &batch.deletes,
            &pool,
        );
        let serial_took = ns_since(started);
        let started = Instant::now();
        sharded.perform_batch(
            graph.as_ref(),
            &impact.affected,
            !batch.deletes.is_empty(),
            &pool,
        );
        let bsp_took = ns_since(started);
        if i >= input.warm.len() {
            serial_ns += serial_took;
            bsp_ns += bsp_took;
            bsp_ms.push(bsp_took / 1e6);
        }
    }
    vec![
        ("bsp.batch_ms".to_string(), median(&bsp_ms)),
        ("bsp.over_serial".to_string(), bsp_ns / serial_ns.max(1.0)),
        (
            "bsp.checkpoints".to_string(),
            sharded.checkpoints_published() as f64,
        ),
    ]
}

/// The four execution paths (library pools, whatever the workload) on the
/// warm state plus the first [`MODE_BATCHES`] probe batches, each checked
/// against the oracle; the three alternatives also relative to serial.
fn mode_probe(
    input: &ProbeInput,
    check: &mut impl FnMut(Result<(), String>),
) -> Vec<(String, f64)> {
    let stream = input.whole(MODE_BATCHES);
    let reference = Reference::of(&stream);
    let mut out = Vec::new();
    let mut serial_s = 0.0;
    for mode in Mode::ALL {
        // The pipelined path is incremental only, so all four run INC.
        let config = Config {
            model: ComputeModelKind::Incremental,
            mode,
            ..input.config
        };
        let pass = run_pass(&config, &stream);
        check(reference.check(
            &format!("probe {}", config.label()),
            config.algorithm,
            &pass.values,
            pass.num_edges,
        ));
        out.push((format!("core.mode_s.{}", mode.name()), pass.wall_s));
        if mode == Mode::Serial {
            serial_s = pass.wall_s;
        } else {
            out.push((
                format!("core.mode_over_serial.{}", mode.name()),
                pass.wall_s / serial_s.max(f64::MIN_POSITIVE),
            ));
        }
    }
    out
}
