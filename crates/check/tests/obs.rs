//! End-to-end observability acceptance: request-scoped trace
//! propagation through the live server, flight-recorder capture over
//! HTTP, and Prometheus exposition — the PR's headline contract.
//!
//! One in-process `saga-server` hosts a serial tenant and a sharded-BSP
//! tenant. Each batch POST's `x-saga-trace-id` response header names a
//! trace; after a snapshot barrier proves the batches were applied, the
//! live capture must stitch (per trace id, via `saga_trace::analyze`)
//! into a *single* tree rooted at the `http_request` span with the
//! driver's compute work as descendants — per-shard BSP spans included
//! for the sharded tenant, across the thread-pool hop. The same trees
//! must survive the export → `decode_events` round trip on the
//! `/debug/flight` body, which is also written to
//! `$CARGO_TARGET_TMPDIR/obs-flight.trace.json` and validated like CI's
//! artifact.

use saga_check::tracecheck;
use saga_server::{Client, Server, ServerConfig};
use saga_trace::analyze::{critical_path, trace_trees, TraceTree};

/// Finds the stitched tree for a response's `x-saga-trace-id` header.
fn tree_for<'t>(trees: &'t [TraceTree], hex: &str) -> &'t TraceTree {
    let id = u64::from_str_radix(hex, 16).expect("trace id header is hex");
    let matching: Vec<&TraceTree> = trees.iter().filter(|t| t.trace_id == id).collect();
    assert_eq!(matching.len(), 1, "trace {hex}: exactly one stitched tree");
    matching[0]
}

/// True when some span named `name` exists anywhere in the tree.
fn contains_span(tree: &TraceTree, name: &str) -> bool {
    let mut found = false;
    tree.root.walk(&mut |n, _| found |= n.name == name);
    found
}

#[test]
fn batch_requests_export_single_stitched_trace_trees() {
    // Everything this test writes — the artifact below and any flight
    // auto-dump (a slow batch on a loaded host, a failing assert) — goes
    // under the build's target directory, wherever that is, never into the
    // source tree. This binary holds one test, so the env write cannot race.
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::env::set_var("SAGA_FLIGHT_DIR", tmp.join("flight"));
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::new(server.addr());

    // A serial tenant and a sharded one (same algorithm, so the only
    // difference in their trees is the execution layer).
    let resp = client
        .post("/tenants", "name=serial\nalgorithm=cc\nmodel=inc\ncapacity=32\n")
        .expect("create serial");
    assert_eq!(resp.status, 201, "{}", resp.text());
    let resp = client
        .post(
            "/tenants",
            "name=sharded\nalgorithm=cc\nmodel=inc\ncapacity=32\nshards=4\nthreads=4\n",
        )
        .expect("create sharded");
    assert_eq!(resp.status, 201, "{}", resp.text());

    let mut body = String::new();
    for s in 0..24u32 {
        body.push_str(&format!("{s} {}\n", (s + 1) % 24));
    }
    let resp = client.post("/tenants/serial/batches", &body).expect("serial batch");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let serial_trace = resp
        .header("x-saga-trace-id")
        .expect("every response carries a trace id")
        .to_string();
    let resp = client.post("/tenants/sharded/batches", &body).expect("sharded batch");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let sharded_trace = resp.header("x-saga-trace-id").unwrap().to_string();
    // Churn on the serial tenant: 31 takes its label from 30, then loses
    // that witness edge, so INC's deletion repair resets exactly vertex 31.
    for churn in ["30 31\n", "- 30 31\n"] {
        let resp = client.post("/tenants/serial/batches", churn).expect("churn batch");
        assert_eq!(resp.status, 202, "{}", resp.text());
    }

    // Snapshot barriers: both batches fully applied before we drain.
    assert_eq!(client.get("/tenants/serial/values").unwrap().status, 200);
    assert_eq!(client.get("/tenants/sharded/values").unwrap().status, 200);

    // The live capture stitches into one tree per request, rooted at
    // the HTTP span, with the async tenant batch (and everything the
    // driver did) attached beneath it.
    let trees = trace_trees(&saga_trace::drain());
    let serial = tree_for(&trees, &serial_trace);
    assert_eq!(serial.root.name, "http_request", "trace roots at the request span");
    assert!(contains_span(serial, "tenant_batch"), "queue hop preserved");
    assert!(contains_span(serial, "compute"), "driver compute leaf present");
    let path: Vec<String> = critical_path(&serial.root).into_iter().map(|(n, _)| n).collect();
    assert_eq!(path[0], "http_request");
    assert!(
        path.iter().any(|n| n == "tenant_batch"),
        "critical path crosses the queue hop: {path:?}"
    );

    let sharded = tree_for(&trees, &sharded_trace);
    assert_eq!(sharded.root.name, "http_request");
    assert!(
        contains_span(sharded, "bsp-scatter") || contains_span(sharded, "bsp-gather"),
        "per-shard BSP spans joined the request tree across the pool hop"
    );

    // `/debug/flight` serves the same capture as a Chrome trace; the
    // exported artifact must validate and decode back to trees with the
    // same roots (the CI smoke job replays exactly this path via
    // `cargo xtask check-trace` / `analyze-trace`).
    let flight = client.get("/debug/flight").expect("flight body").text();
    let stats = tracecheck::validate(&flight).expect("flight dump is a valid Chrome trace");
    assert!(stats.spans > 0, "{stats}");
    std::fs::write(tmp.join("obs-flight.trace.json"), &flight).unwrap();
    let decoded = tracecheck::decode_events(&flight).expect("flight dump decodes");
    let exported = trace_trees(&decoded);
    let serial_exported = tree_for(&exported, &serial_trace);
    assert_eq!(serial_exported.root.name, "http_request");
    assert!(contains_span(serial_exported, "tenant_batch"));

    // The default `/metrics` body is Prometheus exposition the in-tree
    // validator accepts, carrying build info and the request counters
    // this test just incremented.
    let metrics = client.get("/metrics").expect("metrics body").text();
    let families = saga_check::prom::parse_prometheus(&metrics).expect("valid exposition");
    let family = |name: &str| families.iter().find(|f| f.name == name);
    for required in ["saga_build_info", "saga_uptime_seconds", "server_requests"] {
        assert!(family(required).is_some(), "missing family {required}\n{metrics}");
    }
    // The repair the churn batch ran reaches the scrape, beside the
    // fallback counter (which no batch here trips).
    let total = |name: &str| {
        let f = family(name).unwrap_or_else(|| panic!("missing family {name}\n{metrics}"));
        f.samples.iter().map(|s| s.value).sum::<f64>()
    };
    assert_eq!(total("driver_repaired"), 1.0, "{metrics}");
    assert_eq!(total("driver_fs_fallbacks"), 0.0, "{metrics}");

    server.shutdown();
}
