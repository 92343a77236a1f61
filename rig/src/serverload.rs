//! The two `server.*` workloads: the release `saga-server` binary as a
//! child process, driven over loopback by one load-generator process with
//! at most two connections.

use crate::child::{Paths, ServerChild};
use crate::exec::{configs, Config, Mode};
use crate::http::Conn;
use crate::inputs::{
    generate, Sizes, Stream, Workload, CLOSED_OUTSTANDING, QUEUE_BOUND, READ_PERIOD,
    SERVER_WORKERS, SHARDS, TENANT_THREADS,
};
use crate::json::Json;
use crate::sched::{run_open_loop, Clock, Sent, WallClock};
use crate::stats::summarize;
use crate::window::Window;
use saga_algorithms::{AlgorithmState, ComputeModelKind};
use saga_check::diff::values_diff;
use saga_graph::csr::Csr;
use saga_graph::oracle::GraphOracle;
use saga_graph::DataStructureKind;
use saga_server::journal::{journal_root, parse_journal};
use saga_server::tenant::{parse_edge_list, parse_values, tenant_params};
use saga_utils::parallel::ThreadPool;
use saga_utils::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Lines per pre-load request (its body stays under the server's 8 MB cap).
const PRELOAD_BATCH: usize = 65_536;
/// Workload batches sent before the timed window opens.
const WARMUP_BATCHES: usize = 16;
/// Idle `GET /values` reads per tenant after the closed loop has drained.
const IDLE_READS: usize = 5;
/// Time-ordered segments each closed-loop connection's latencies are
/// summarised in (see `stats::summarize_segments`).
const CLOSED_SEGMENTS: usize = 10;
/// Segments of the open loop's latencies: 750 samples leave ≥ 100 each.
const OPEN_SEGMENTS: usize = 7;
/// Pause between status polls of the open loop's second connection.
const POLL_PAUSE: Duration = Duration::from_millis(1);

/// One tenant of a server workload: its configuration and its requests.
#[derive(Debug)]
pub struct TenantPlan {
    /// Tenant name (path segment).
    pub name: String,
    /// Structure × algorithm × model (× sharded) the tenant runs.
    pub config: Config,
    /// Vertex universe.
    pub capacity: usize,
    /// The pre-load stream.
    pub preload_stream: Stream,
    /// Pre-load request bodies, sent during set-up.
    pub preload: Vec<String>,
    /// Workload request bodies: a warm-up prefix, then the timed window's.
    pub bodies: Vec<String>,
    /// The workload stream the bodies were rendered from.
    pub stream: Stream,
    /// Ops per workload batch.
    pub batch_ops: usize,
}

/// The `key=value` body of `POST /tenants` for a tenant running `config`
/// with the rig's frozen queue bound and thread count.
pub fn tenant_config_body(name: &str, config: &Config, capacity: usize) -> String {
    let structure = match config.structure {
        DataStructureKind::AdjacencyShared => "as",
        DataStructureKind::AdjacencyChunked => "ac",
        DataStructureKind::Stinger => "stinger",
        DataStructureKind::Dah => "dah",
        DataStructureKind::DeltaCsr => "delta-csr",
    };
    let mut body = format!(
        "name={name}\nstructure={structure}\nalgorithm={}\nmodel={}\ncapacity={capacity}\ndirected=true\n\
         queue_bound={QUEUE_BOUND}\nthreads={TENANT_THREADS}\n",
        config.algorithm.abbrev().to_ascii_lowercase(),
        config.model.abbrev().to_ascii_lowercase(),
    );
    if config.mode == Mode::Sharded {
        body.push_str(&format!("shards={SHARDS}\n"));
    }
    body
}

impl TenantPlan {
    /// The `key=value` body of `POST /tenants`.
    pub fn config_body(&self) -> String {
        tenant_config_body(&self.name, &self.config, self.capacity)
    }

    /// Where the tenant's batches are POSTed.
    pub fn batches_path(&self) -> String {
        format!("/tenants/{}/batches", self.name)
    }

    /// Workload batches sent during set-up, before the timed window.
    pub fn warmup(&self) -> usize {
        WARMUP_BATCHES.min(self.bodies.len() / 4)
    }

    /// Batches the server has applied once pre-load and warm-up are done.
    fn base(&self) -> usize {
        self.preload.len() + self.warmup()
    }
}

/// Generates and renders every request of `sizes.workload`: same seed,
/// byte-identical bodies.
pub fn plan(sizes: &Sizes, seed: u64) -> Vec<TenantPlan> {
    configs(sizes.workload)
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            // Dataset numbers: one per (workload, tenant, pre-load | window).
            let dataset = 16 + 8 * sizes.workload as u64 + 2 * i as u64;
            let preload_batch = PRELOAD_BATCH.min(sizes.preload_edges.max(1));
            let preload = generate(
                sizes.num_nodes,
                sizes.preload_edges.div_ceil(preload_batch),
                preload_batch,
                0,
                dataset,
                seed,
            );
            let stream = generate(
                sizes.num_nodes,
                sizes.batches,
                sizes.batch_ops,
                sizes.delete_per_mille,
                dataset + 1,
                seed,
            );
            TenantPlan {
                name: format!("t{}", i + 1),
                config,
                capacity: sizes.num_nodes,
                preload: preload.batches.iter().map(|b| b.render_body()).collect(),
                preload_stream: preload,
                bodies: stream.batches.iter().map(|b| b.render_body()).collect(),
                stream,
                batch_ops: sizes.batch_ops,
            }
        })
        .collect()
}

/// A server child with its tenants created, pre-loaded and warmed up.
#[derive(Debug)]
pub struct Live {
    /// The child process (killed on drop).
    pub server: ServerChild,
    /// The tenants and their requests.
    pub tenants: Vec<TenantPlan>,
}

/// Set-up of a server workload: render the requests, spawn the server,
/// create the tenants, pre-load their graphs, send the warm-up prefix and
/// wait until all of it is applied.
pub fn setup(sizes: &Sizes, seed: u64, server_bin: &Path, paths: &Paths) -> Result<Live, String> {
    let tenants = plan(sizes, seed);
    let server = ServerChild::spawn(server_bin, SERVER_WORKERS, &paths.out_dir)?;
    let mut client = Conn::new(server.addr());
    for tenant in &tenants {
        expect(&mut client, "POST", "/tenants", &tenant.config_body(), 201)?;
        let requests = tenant
            .preload
            .iter()
            .chain(&tenant.bodies[..tenant.warmup()]);
        for (sent, body) in requests.enumerate() {
            expect(&mut client, "POST", &tenant.batches_path(), body, 202)?;
            // One at a time: the pre-load must never meet the queue bound.
            wait_processed(&mut client, &tenant.name, sent + 1, Duration::from_secs(60))?;
        }
    }
    Ok(Live { server, tenants })
}

fn expect(
    client: &mut Conn,
    method: &str,
    path: &str,
    body: &str,
    status: u16,
) -> Result<String, String> {
    let resp = client
        .request(method, path, body.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    if resp.status == status {
        Ok(resp.text())
    } else {
        Err(format!(
            "{method} {path}: status {} (wanted {status}): {}",
            resp.status,
            resp.text().trim()
        ))
    }
}

/// `processed` and `queue_depth` from a status document.
fn parse_status(text: &str) -> Option<(usize, usize)> {
    let field = |key: &str| -> Option<usize> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
    };
    Some((field("processed")?, field("queue_depth")?))
}

/// `GET /tenants/{tenant}/status` → `(processed, queue_depth)`.
pub fn status(client: &mut Conn, tenant: &str) -> Result<(usize, usize), String> {
    let text = expect(client, "GET", &format!("/tenants/{tenant}/status"), "", 200)?;
    parse_status(&text).ok_or_else(|| format!("malformed status document: {text:?}"))
}

/// Polls until the tenant has applied at least `count` batches.
fn wait_processed(
    client: &mut Conn,
    tenant: &str,
    count: usize,
    limit: Duration,
) -> Result<usize, String> {
    let started = Instant::now();
    loop {
        let (processed, _) = status(client, tenant)?;
        if processed >= count {
            return Ok(processed);
        }
        if started.elapsed() > limit {
            return Err(format!(
                "{tenant}: {processed} of {count} batches applied after {limit:?}"
            ));
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

/// What one connection of the closed loop observed.
#[derive(Debug, Default)]
struct ClosedLog {
    accepted: usize,
    requests: usize,
    failed: usize,
    latencies_ms: Vec<f64>,
    /// Seconds from the first POST to each completion, parallel to
    /// `latencies_ms`.
    done_s: Vec<f64>,
    first_post: Option<Instant>,
    cut_short: bool,
}

impl ClosedLog {
    /// Batches per second the connection sustains when the host is quiet:
    /// the rate of the upper-quartile time segment (see `stats::summarize`
    /// for why the quieter segments carry the system's own level).
    fn steady_batches_per_s(&self) -> f64 {
        let chunk = self.done_s.len().div_ceil(CLOSED_SEGMENTS).max(1);
        let mut from = 0.0;
        let mut rates: Vec<f64> = self
            .done_s
            .chunks(chunk)
            .map(|segment| {
                let until = segment[segment.len() - 1];
                let rate = segment.len() as f64 / (until - from).max(f64::MIN_POSITIVE);
                from = until;
                rate
            })
            .collect();
        rates.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
        crate::stats::percentile(&rates, 250)
    }
}

/// The closed loop on one connection: POST while fewer than
/// [`CLOSED_OUTSTANDING`] batches are in flight, otherwise poll the status
/// document and stamp every batch it shows as applied.
///
/// The connections stop together: the first to finish its batches raises
/// `stop`, and the others send no more. A connection left running alone
/// would have the machine to itself and measure a different system.
fn closed_loop(
    addr: SocketAddr,
    tenant: &TenantPlan,
    guard: Duration,
    stop: &AtomicBool,
) -> ClosedLog {
    let mut client = Conn::new(addr);
    let mut log = ClosedLog::default();
    let path = tenant.batches_path();
    let started = Instant::now();
    let mut todo = tenant.bodies[tenant.warmup()..].iter();
    // (applied-count at which the batch is visible, POST start)
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut applied_target = tenant.base();
    loop {
        let next = if in_flight.len() < CLOSED_OUTSTANDING && !stop.load(Ordering::Relaxed) {
            let next = todo.next();
            if next.is_none() {
                stop.store(true, Ordering::Relaxed);
            }
            next
        } else {
            None
        };
        if let Some(body) = next {
            if started.elapsed() > guard {
                log.cut_short = true;
                stop.store(true, Ordering::Relaxed);
                continue;
            }
            let posted = Instant::now();
            log.first_post.get_or_insert(posted);
            log.requests += 1;
            match client.post(&path, body) {
                Ok(resp) if resp.status == 202 => {
                    applied_target += 1;
                    log.accepted += 1;
                    in_flight.push_back((applied_target, posted));
                }
                // A 429 is a failure here: the batches in flight never
                // fill the queue bound. The batch is not retried.
                _ => log.failed += 1,
            }
        } else if in_flight.is_empty() {
            return log;
        } else {
            log.requests += 1;
            match status(&mut client, &tenant.name) {
                Ok((processed, _)) => {
                    let seen = Instant::now();
                    while in_flight
                        .front()
                        .is_some_and(|&(target, _)| target <= processed)
                    {
                        let (_, posted) = in_flight.pop_front().expect("front exists");
                        log.latencies_ms.push((seen - posted).as_secs_f64() * 1e3);
                        let first = log.first_post.expect("a batch in flight was posted");
                        log.done_s.push((seen - first).as_secs_f64());
                    }
                }
                Err(_) => log.failed += 1,
            }
            if started.elapsed() > guard * 2 {
                // The server stopped applying batches: give up on the rest.
                log.failed += in_flight.len();
                log.cut_short = true;
                return log;
            }
        }
    }
}

/// `server.closed-small`: one connection per tenant, closed loop.
pub fn measure_closed(sizes: &Sizes, live: &Live) -> Window {
    let addr = live.server.addr();
    let stop = AtomicBool::new(false);
    let logs: Vec<ClosedLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .tenants
            .iter()
            .map(|tenant| scope.spawn(|| closed_loop(addr, tenant, sizes.guard(), &stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    let mut window = Window {
        segments: CLOSED_SEGMENTS,
        ..Window::default()
    };
    // The connections run side by side: their steady rates add up.
    let mut edges_per_s = 0.0;
    for (log, tenant) in logs.iter().zip(&live.tenants) {
        edges_per_s += log.steady_batches_per_s() * tenant.batch_ops as f64;
        window.ops += log.latencies_ms.len() * tenant.batch_ops;
        window.attempted += log.requests;
        window.failed += log.failed;
        window.batch_ms.push(log.latencies_ms.clone());
        window.cut_short |= log.cut_short;
    }
    window.busy_s = window.ops as f64 / edges_per_s.max(f64::MIN_POSITIVE);
    let wall = logs
        .iter()
        .filter_map(|l| l.done_s.last().copied())
        .fold(0.0, f64::max);
    window.detail.push(("wall_s".to_string(), Json::Num(wall)));
    // Reads of a drained server: the idle cost of the snapshot barrier
    // plus rendering, one tenant after the other.
    let mut client = Conn::new(addr);
    for tenant in &live.tenants {
        for _ in 0..IDLE_READS {
            window.attempted += 1;
            match timed_read(&mut client, &tenant.name) {
                Some(ms) => window.read_ms.push(ms),
                None => window.failed += 1,
            }
        }
    }
    let accepted: Vec<Json> = logs.iter().map(|l| Json::count(l.accepted)).collect();
    window
        .detail
        .push(("accepted_per_tenant".to_string(), Json::Arr(accepted)));
    window
}

fn timed_read(client: &mut Conn, tenant: &str) -> Option<f64> {
    let started = Instant::now();
    let resp = client.get(&format!("/tenants/{tenant}/values")).ok()?;
    (resp.status == 200).then(|| started.elapsed().as_secs_f64() * 1e3)
}

/// `server.open-mixed`: connection 1 POSTs on a fixed schedule, connection
/// 2 reads `/values` every [`READ_PERIOD`] and polls `/status` between
/// reads to stamp completions.
pub fn measure_open(sizes: &Sizes, live: &Live) -> Window {
    let addr = live.server.addr();
    let tenant = &live.tenants[0];
    let bodies = &tenant.bodies[tenant.warmup()..];
    let base = tenant.base();
    let interval = Duration::from_secs_f64(1.0 / sizes.open_rate_per_s as f64);
    let clock = WallClock::start();
    let start = clock.now() + Duration::from_millis(20);
    let sending = AtomicBool::new(true);
    let accepted_total = AtomicUsize::new(0);
    let guard = sizes.guard();

    let mut window = Window::default();
    // reached[k]: when the status document first showed base + k + 1 applied.
    let mut reached: Vec<Duration> = Vec::with_capacity(bodies.len());
    let mut accepted: Vec<bool> = Vec::with_capacity(bodies.len());
    let mut sends: Vec<Sent> = Vec::new();
    let (mut reads, mut requests, mut request_failures) = (Vec::new(), 0usize, 0usize);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut client = Conn::new(addr);
            let path = tenant.batches_path();
            let mut accepted = Vec::with_capacity(bodies.len());
            let log = run_open_loop(&clock, start, interval, bodies.len(), |i| {
                let ok = matches!(client.post(&path, &bodies[i]), Ok(resp) if resp.status == 202);
                if ok {
                    accepted_total.fetch_add(1, Ordering::Release);
                }
                accepted.push(ok);
            });
            sending.store(false, Ordering::Release);
            (log, accepted)
        });

        let mut client = Conn::new(addr);
        let mut next_read = start + READ_PERIOD;
        loop {
            let now = clock.now();
            if now >= next_read {
                next_read += READ_PERIOD;
                requests += 1;
                match timed_read(&mut client, &tenant.name) {
                    Some(ms) => reads.push(ms),
                    None => request_failures += 1,
                }
            }
            requests += 1;
            match status(&mut client, &tenant.name) {
                Ok((processed, _)) => {
                    let seen = clock.now();
                    while base + reached.len() < processed {
                        reached.push(seen);
                    }
                }
                Err(_) => request_failures += 1,
            }
            let done = !sending.load(Ordering::Acquire)
                && reached.len() >= accepted_total.load(Ordering::Acquire);
            if done || clock.now() > start + guard * 2 {
                break;
            }
            std::thread::sleep(POLL_PAUSE);
        }
        (sends, accepted) = sender.join().expect("open-loop sender panicked");
    });

    let mut lateness_ms = Vec::with_capacity(sends.len());
    let mut latencies_ms = Vec::with_capacity(sends.len());
    let mut k = 0;
    for (sent, ok) in sends.iter().zip(&accepted) {
        lateness_ms.push(sent.lateness().as_secs_f64() * 1e3);
        if !ok {
            window.failed += 1;
            continue;
        }
        match reached.get(k) {
            Some(&done) => latencies_ms.push(sent.latency(done).as_secs_f64() * 1e3),
            None => window.failed += 1,
        }
        k += 1;
    }
    window.segments = OPEN_SEGMENTS;
    window.ops = latencies_ms.len() * tenant.batch_ops;
    window.batch_ms.push(latencies_ms);
    window.busy_s = reached
        .last()
        .map_or(0.0, |&last| last.saturating_sub(start).as_secs_f64());
    window.attempted = sends.len() + requests;
    window.failed += request_failures;
    window.cut_short = reached.len() < accepted.iter().filter(|&&ok| ok).count();
    window.read_ms = reads;
    let late = summarize(&lateness_ms, 1);
    window
        .detail
        .push(("gen_late_ms_mid".to_string(), Json::Num(late.mid)));
    window.detail.push((
        format!("gen_late_ms_{}", late.tail_label),
        Json::Num(late.tail),
    ));
    window
}

/// The correctness gate of a server workload: every tenant's journal is
/// replayed offline — topology through `GraphOracle` against `/edges`,
/// values through one from-scratch run on the oracle's CSR against
/// `/values` — and must cover exactly the batches the rig saw accepted.
pub fn verify(live: &Live, window: &mut Window) {
    let mut client = Conn::new(live.server.addr());
    for tenant in &live.tenants {
        window.check(verify_tenant(&mut client, tenant));
    }
}

fn verify_tenant(client: &mut Conn, tenant: &TenantPlan) -> Result<(), String> {
    let name = &tenant.name;
    let fetch = |client: &mut Conn, what: &str| {
        expect(client, "GET", &format!("/tenants/{name}/{what}"), "", 200)
    };
    let (processed, _) = status(client, name)?;
    // The journal endpoint takes the snapshot barrier first, so the dumps
    // that follow describe exactly the journaled prefix.
    let batches = parse_journal(&fetch(client, "journal")?, true)
        .map_err(|e| format!("{name}: journal: {e}"))?;
    if batches.len() != processed {
        return Err(format!(
            "{name}: journal holds {} batches, status says {processed} applied",
            batches.len()
        ));
    }
    let mut oracle = GraphOracle::new(tenant.capacity, true);
    for batch in &batches {
        let (inserts, deletes) = batch.split();
        oracle.apply_batch(&inserts, &deletes);
    }
    let expected = oracle.edge_list();
    let edges =
        parse_edge_list(&fetch(client, "edges")?).map_err(|e| format!("{name}: edges: {e}"))?;
    if expected != edges {
        return Err(format!(
            "{name}: topology diverges: oracle {} rows, server {} rows",
            expected.len(),
            edges.len()
        ));
    }
    // `saga_check::loadgen::verify_against_dumps` steps a from-scratch
    // session once per journaled batch, which is minutes at this batch
    // count; FS depends on the final topology only, so one run suffices.
    let csr = Csr::from_edges(tenant.capacity, true, &expected);
    let mut fs = AlgorithmState::new(
        tenant.config.algorithm,
        ComputeModelKind::FromScratch,
        tenant.capacity,
        tenant_params(journal_root(&batches)),
    );
    fs.perform_alg(&csr, &[], &[], &ThreadPool::new(1));
    let values =
        parse_values(&fetch(client, "values")?).map_err(|e| format!("{name}: values: {e}"))?;
    match values_diff(&fs.values(), &values) {
        Some(diff) => Err(format!(
            "{name}: values diverge from FS replay of the journal: {diff}"
        )),
        None => Ok(()),
    }
}

/// Runs the timed window of a server workload.
pub fn measure(sizes: &Sizes, live: &Live) -> Window {
    match sizes.workload {
        Workload::ClosedSmall => measure_closed(sizes, live),
        Workload::OpenMixed => measure_open(sizes, live),
        other => unreachable!("{} is not a server workload", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_document_parses() {
        let text = "name t1\nstructure AdjacencyShared\nqueue_bound 8\nqueue_depth 3\naccepted 12\nprocessed 9\nrejected 0\n";
        assert_eq!(parse_status(text), Some((9, 3)));
        assert_eq!(parse_status("name t1\n"), None);
    }

    #[test]
    fn plans_are_a_function_of_the_seed() {
        let sizes = Sizes::new(Workload::ClosedSmall, 1.0, true);
        let render = |seed| -> Vec<String> {
            plan(&sizes, seed)
                .into_iter()
                .flat_map(|t| t.preload.into_iter().chain(t.bodies))
                .collect()
        };
        assert_eq!(
            render(42),
            render(42),
            "same seed, byte-identical request bodies"
        );
        assert_ne!(render(42), render(43));
        let tenants = plan(&sizes, 42);
        assert_eq!(tenants.len(), 2);
        assert_ne!(
            tenants[0].bodies, tenants[1].bodies,
            "tenants do not share a stream"
        );
        assert!(tenants[1].config_body().contains("shards=2"));
        let parsed = saga_server::TenantConfig::parse(&tenants[1].config_body()).unwrap();
        assert_eq!(
            (parsed.shards, parsed.threads, parsed.queue_bound),
            (Some(2), 1, 8)
        );
    }
}
