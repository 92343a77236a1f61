//! One run of one workload: set-up (timed, repeated), the timed window,
//! the correctness gate, and the output document.

use crate::child::{self, Paths};
use crate::inputs::{Sizes, Workload};
use crate::json::Json;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, summarize, summarize_streams};
use crate::window::Window;
use crate::{layers, libload, serverload};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, the window uses the last.
pub const SETUP_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// 1/100 scale smoke run.
    pub quick: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output the gate checked was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, verification mismatches included.
    pub failed: usize,
    /// End-to-end metrics (`trace: false`) or per-layer ones.
    pub metrics: Metrics,
    /// The full output document.
    pub document: Json,
}

impl Outcome {
    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::count(self.attempted)),
            ("failed", Json::count(self.failed)),
            ("metrics", self.metrics.to_json()),
        ])
        .compact()
    }
}

/// Why each workload exists, in one line (also in `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::FsSweep => "FS BFS+PR on all five structures: compute (graph reads) dominates, update is small, server absent",
        Workload::IncChurn => "INC SSSP+BFS with 20% deletes on all five structures: graph writes, tracker and repair dominate",
        Workload::ExecModes => "AS through serial, partitioned, pipelined and BSP-sharded execution: the four paths ROADMAP wants collapsed",
        Workload::ClosedSmall => "release server, 2 tenants, closed loop of 64-op batches: HTTP, parse, queue hop and journal dominate",
        Workload::OpenMixed => "release server, open loop at a fixed rate with value reads beside writes on one tenant queue",
    }
}

/// The checked-out revision, read from `.git` beside the rig's directory
/// without running `git` (which would search parent directories when the
/// checkout is not a repository).
fn git_revision() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference)
            .map(|hash| hash.trim().to_string())
    })
}

/// Host, parallelism and revision: recorded in every output document.
pub fn host_json() -> Json {
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or("unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("hostname", Json::str(hostname)),
        (
            "nproc",
            Json::count(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "git_revision",
            Json::str(git_revision().unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
        ("rig_version", Json::str(env!("CARGO_PKG_VERSION"))),
    ])
}

fn document(options: &Options, sizes: &Sizes, body: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("rig".to_string(), Json::str("saga-rig")),
        ("workload".to_string(), Json::str(options.workload.name())),
        ("why".to_string(), Json::str(why(options.workload))),
        ("seed".to_string(), Json::Int(options.seed as i64)),
        ("seconds".to_string(), Json::Num(options.seconds)),
        ("trace".to_string(), Json::Bool(options.trace)),
        ("quick".to_string(), Json::Bool(options.quick)),
        ("claim".to_string(), Json::Null),
        ("host".to_string(), host_json()),
        ("sizes".to_string(), sizes.to_json()),
    ];
    pairs.extend(body);
    Json::Obj(pairs)
}

/// Runs `options.workload` once. `server_bin` must be given for server
/// workloads (see [`Paths::build_server`]).
pub fn run(options: &Options, paths: &Paths, server_bin: Option<&Path>) -> Result<Outcome, String> {
    let sizes = Sizes::new(options.workload, options.seconds, options.quick);
    if options.trace {
        let traced = layers::run(&sizes, options.seed, paths, server_bin)?;
        let metrics = Metrics::from_catalogue(&PER_LAYER, traced.values);
        let body = vec![
            (
                "correct".to_string(),
                Json::Bool(traced.mismatches.is_empty()),
            ),
            ("metrics".to_string(), metrics.to_json()),
            (
                "mismatches".to_string(),
                Json::Arr(traced.mismatches.iter().map(Json::str).collect()),
            ),
            (
                "span_file".to_string(),
                Json::str(traced.span_file.display().to_string()),
            ),
            ("self_time".to_string(), traced.self_time),
        ];
        return Ok(Outcome {
            correct: traced.mismatches.is_empty(),
            attempted: traced.attempted,
            failed: traced.mismatches.len(),
            metrics,
            document: document(options, &sizes, body),
        });
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (mut window, peak_rss_mb) = if options.workload.is_server() {
        let bin = server_bin.ok_or("server workloads need the saga-server binary")?;
        let mut live = None;
        for _ in 0..SETUP_REPEATS {
            // One server at a time: the previous one is killed first.
            drop(live.take());
            let started = Instant::now();
            live = Some(serverload::setup(&sizes, options.seed, bin, paths)?);
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let live = live.expect("at least one set-up ran");
        let mut window = serverload::measure(&sizes, &live);
        // Read before the gate: serving the journal inflates the peak.
        let rss = live.server.peak_rss_mb();
        serverload::verify(&live, &mut window);
        (window, rss)
    } else {
        let mut stream = None;
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            stream = Some(libload::setup(&sizes, options.seed));
            setup_s.push(started.elapsed().as_secs_f64());
        }
        let stream = stream.expect("at least one set-up ran");
        let (mut window, passes) = libload::measure(&sizes, &stream);
        // Read before the gate: the oracle's copies are not the program's.
        let rss = child::self_peak_rss_mb();
        libload::verify(&sizes, &stream, &passes, &mut window);
        (window, rss)
    };
    let peak_rss_mb = peak_rss_mb.ok_or("cannot read VmHWM from /proc")?;
    if window.batch_ms.iter().all(Vec::is_empty)
        || window.read_ms.is_empty()
        || window.busy_s <= 0.0
    {
        window.check(Err(
            "the window produced no batch or read samples".to_string()
        ));
    }
    Ok(end_to_end(options, &sizes, &setup_s, &window, peak_rss_mb))
}

fn end_to_end(
    options: &Options,
    sizes: &Sizes,
    setup_s: &[f64],
    window: &Window,
    peak_rss_mb: f64,
) -> Outcome {
    let batch = summarize_streams(&window.batch_ms, window.segments);
    let read = summarize(&window.read_ms, 1);
    let metrics = Metrics::from_catalogue(
        &END_TO_END,
        vec![
            ("setup_s".to_string(), median(setup_s)),
            (
                "edges_per_s".to_string(),
                window.ops as f64 / window.busy_s.max(f64::MIN_POSITIVE),
            ),
            ("batch_ms_mid".to_string(), batch.mid),
            ("peak_rss_mb".to_string(), peak_rss_mb),
        ],
    );
    let correct = window.mismatches.is_empty();
    let body = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::count(window.attempted)),
        ("failed".to_string(), Json::count(window.failed)),
        (
            "failed_share".to_string(),
            Json::Num(window.failed as f64 / window.attempted.max(1) as f64),
        ),
        ("metrics".to_string(), metrics.to_json()),
        (
            "samples".to_string(),
            Json::obj([
                ("batch", Json::count(batch.count)),
                ("batch_tail_percentile", Json::str(batch.tail_label)),
                ("batch_ms_tail", Json::Num(batch.tail)),
                ("batch_streams", Json::count(window.batch_ms.len())),
                (
                    "batch_segments_per_stream",
                    Json::count(window.segments.max(1)),
                ),
                ("read", Json::count(read.count)),
                ("read_ms_mid", Json::Num(read.mid)),
                (
                    format!("read_ms_{}", read.tail_label).as_str(),
                    Json::Num(read.tail),
                ),
                (
                    "setup_s",
                    Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        ),
        ("ops".to_string(), Json::count(window.ops)),
        ("window_s".to_string(), Json::Num(window.busy_s)),
        ("cut_short".to_string(), Json::Bool(window.cut_short)),
        (
            "mismatches".to_string(),
            Json::Arr(window.mismatches.iter().map(Json::str).collect()),
        ),
        ("detail".to_string(), Json::Obj(window.detail.clone())),
    ];
    Outcome {
        correct,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        document: document(options, sizes, body),
    }
}
