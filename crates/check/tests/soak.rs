//! The multi-tenant soak test — the server PR's headline artifact.
//!
//! Holds N tenants × M concurrent client streams at steady state against
//! a live `saga-server`, then proves three things:
//!
//! 1. **Admission control**: queue depth stays within each tenant's bound
//!    (sampled by a status poller for the whole run) and backpressure is
//!    actually exercised (`429`s observed, forced if the fleet was too
//!    fast to collide naturally).
//! 2. **Zero-diff replay**: every tenant's journal, replayed offline
//!    through `GraphOracle` and a from-scratch driver reference, matches
//!    the server's own `/edges` and `/values` dumps exactly (within the
//!    differential value tolerances) — across FS and INC tenants.
//! 3. **Reproducibility**: a single-stream tenant driven twice from the
//!    same seed produces byte-identical journals.
//!
//! Budget knobs (EXPERIMENTS.md §soak): `SAGA_SOAK_SECS` (steady-state
//! seconds, default 2), `SAGA_SOAK_TENANTS` (default 8),
//! `SAGA_SOAK_STREAMS` (default 4), `SAGA_SOAK_METRICS` (CSV artifact
//! path, default `target/soak-metrics.csv`).

use saga_check::loadgen::{create_tenant, drive_tenant, verify_tenant, DriveReport, TenantSpec};
use saga_server::{Client, Server, ServerConfig};
use saga_utils::parallel::ThreadPool;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};
use saga_utils::sync::Mutex;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Parses `queue_depth N` out of a `/status` document.
fn status_depth(status: &str) -> Option<usize> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("queue_depth "))
        .and_then(|v| v.trim().parse().ok())
}

/// Bursts heavy PageRank batches at a bound-1 tenant until the admission
/// controller pushes back, returning the number of `429`s observed.
/// Deterministic fallback for fleets that drained too fast to collide.
fn force_backpressure(addr: std::net::SocketAddr) -> usize {
    let mut client = Client::new(addr);
    let resp = client
        .post(
            "/tenants",
            "name=bp-probe\nstructure=as\nalgorithm=pr\nmodel=fs\ncapacity=48\nqueue_bound=1\nthreads=1\n",
        )
        .expect("create bp-probe");
    assert_eq!(resp.status, 201, "{}", resp.text());
    // A dense-ish body so each FS PageRank pass (tolerance 1e-11) costs
    // real time while submissions arrive back-to-back.
    let mut body = String::new();
    for s in 0..48u32 {
        for d in 0..6u32 {
            body.push_str(&format!("{s} {}\n", (s + d * 7 + 1) % 48));
        }
    }
    let mut rejections = 0;
    for _ in 0..2000 {
        let resp = client.post("/tenants/bp-probe/batches", &body).expect("submit");
        match resp.status {
            202 => {}
            429 => {
                rejections += 1;
                if rejections >= 3 {
                    break;
                }
            }
            other => panic!("bp-probe: unexpected status {other}: {}", resp.text()),
        }
    }
    let resp = client.delete("/tenants/bp-probe").expect("delete bp-probe");
    assert_eq!(resp.status, 204);
    rejections
}

#[test]
fn soak_multi_tenant_steady_state_with_zero_diff_replay() {
    let tenants = env_usize("SAGA_SOAK_TENANTS", 8);
    let streams = env_usize("SAGA_SOAK_STREAMS", 4);
    let secs = env_usize("SAGA_SOAK_SECS", 2);
    let metrics_path = std::env::var("SAGA_SOAK_METRICS")
        .unwrap_or_else(|_| "../../target/soak-metrics.csv".to_string());

    let server = Server::start(ServerConfig {
        workers: 8,
        accept_backlog: 64,
        ..ServerConfig::default()
    })
    .expect("bind soak server");
    let addr = server.addr();

    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            let mut spec = TenantSpec::nth(i, 0x5A6A_BE4C);
            spec.streams = streams;
            spec
        })
        .collect();
    for spec in &specs {
        create_tenant(addr, spec).expect("create tenant");
    }

    // Drive every tenant concurrently; worker 0 polls each tenant's
    // status for the whole steady state, checking the admission bound.
    let deadline = Instant::now() + Duration::from_secs(secs as u64);
    let remaining = AtomicUsize::new(tenants);
    let reports: Mutex<Vec<(usize, DriveReport)>> = Mutex::new(Vec::new());
    let max_depths: Mutex<Vec<usize>> = Mutex::new(vec![0; tenants]);
    let pool = ThreadPool::new(tenants + 1);
    pool.run_on_all(|worker| {
        if worker == 0 {
            // The poller: sample /status across the fleet until every
            // driver finishes.
            let mut client = Client::new(addr);
            while remaining.load(Ordering::Acquire) > 0 {
                for (i, spec) in specs.iter().enumerate() {
                    if let Ok(resp) = client.get(&format!("/tenants/{}/status", spec.name)) {
                        if resp.status == 200 {
                            if let Some(depth) = status_depth(&resp.text()) {
                                let mut depths = max_depths.lock();
                                depths[i] = depths[i].max(depth);
                            }
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        } else {
            let spec = &specs[worker - 1];
            let report = drive_tenant(addr, spec, deadline);
            reports.lock().push((worker - 1, report));
            remaining.fetch_sub(1, Ordering::Release);
        }
    });

    // 1a. Queue depths stayed within each tenant's admission bound — both
    // as sampled live and as reported by every 202.
    let depths = max_depths.into_inner();
    let reports = reports.into_inner();
    let mut total = DriveReport::default();
    for &(i, report) in &reports {
        let bound = specs[i].queue_bound;
        assert!(
            report.max_depth <= bound,
            "tenant {} reported depth {} over bound {bound}",
            specs[i].name,
            report.max_depth
        );
        assert!(
            depths[i] <= bound,
            "tenant {} sampled depth {} over bound {bound}",
            specs[i].name,
            depths[i]
        );
        assert!(report.accepted >= 1, "tenant {} accepted nothing", specs[i].name);
        total.merge(report);
    }

    // 1b. Backpressure was genuinely exercised somewhere in the run; if
    // the fleet drained too fast to collide, force it deterministically.
    let mut rejections = total.rejected_429;
    if rejections == 0 {
        rejections = force_backpressure(addr);
    }
    assert!(
        rejections > 0,
        "no 429 observed even under a bound-1 burst — admission control is not engaging"
    );

    // 2. Zero-diff journal replay for every tenant, FS and INC alike.
    for (i, spec) in specs.iter().enumerate() {
        let verify = verify_tenant(addr, spec).unwrap_or_else(|e| panic!("replay diverged: {e}"));
        let accepted = reports.iter().find(|(t, _)| *t == i).map(|(_, r)| r.accepted).unwrap();
        assert_eq!(
            verify.batches, accepted,
            "tenant {}: journal holds {} batches but {} were accepted",
            spec.name, verify.batches, accepted
        );
    }

    // 3. Same seed ⇒ byte-identical journal (single-stream tenants, one
    // round each so submission order is total).
    let mut client = Client::new(addr);
    let mut repro_journals = Vec::new();
    for name in ["repro-a", "repro-b"] {
        let mut spec = TenantSpec::nth(1, 0xD1FF);
        spec.name = name.to_string();
        spec.streams = 1;
        create_tenant(addr, &spec).expect("create repro tenant");
        let report = drive_tenant(addr, &spec, Instant::now());
        assert!(report.accepted >= 1);
        let resp = client.get(&format!("/tenants/{name}/journal")).expect("journal");
        assert_eq!(resp.status, 200);
        repro_journals.push(resp.text());
    }
    assert_eq!(
        repro_journals[0], repro_journals[1],
        "same seed must reproduce the same journal byte-for-byte"
    );

    // Metrics snapshot artifact for CI (the default `/metrics` body is
    // now Prometheus exposition; the CSV artifact rides the query flag).
    let resp = client.get("/metrics?format=csv").expect("metrics");
    assert_eq!(resp.status, 200);
    let csv = resp.text();
    assert!(csv.contains("server.request_ns"), "missing request latency metric:\n{csv}");
    assert!(csv.contains("server.queue_depth{tenant="), "missing queue depth gauges:\n{csv}");
    assert!(csv.contains("server.tenant_batch_ns{tenant="), "missing tenant batch histograms:\n{csv}");
    if let Err(e) = std::fs::write(&metrics_path, &csv) {
        // The artifact is best-effort outside CI (path may not exist).
        saga_trace::progress!("soak: could not write metrics artifact {metrics_path}: {e}");
    }

    server.shutdown();
}
