//! Trace-overhead shape test: re-measures the disabled-path cost of the
//! span macros — now including the ctx-carrying `span_with_ctx!` used on
//! the server's request path — against a representative streaming
//! workload, and asserts the paper-adjacent bound: tracing compiled in but
//! disabled must cost under 2% of the workload's wall time. The workload
//! steps a `DriverSession`, the one batch loop every execution path
//! (interleaved, partitioned, pipelined, sharded) runs, so one test bounds
//! them all. It writes no file: `results/BENCH_trace_overhead.json` is a
//! recorded baseline, not a test output.
//!
//! The estimate is deliberately conservative: `per_call_ns` is the cost
//! of one *disabled span guard* (create + drop — two ring events' worth
//! of call sites), yet it is multiplied by the *event* count an enabled
//! run produces. Skipped under `SAGA_SKIP_SHAPE_TIMING=1`, like every
//! timing-based shape test.

use saga_core::driver::StreamDriver;
use saga_graph::DataStructureKind;
use saga_stream::{edge_weight, Edge};
use std::time::Instant;

/// A representative streaming run: 20 incremental CC batches of 64
/// inserts on a 256-vertex shared-adjacency graph — the same span
/// skeleton (`batch`/`update`/`ingest`/`compute` + instants) the live
/// server emits per tenant batch. Returns a sink value so the optimizer
/// keeps the work.
fn workload() -> u64 {
    let driver = StreamDriver::builder(DataStructureKind::AdjacencyShared, 256)
        .algorithm(saga_algorithms::AlgorithmKind::Cc)
        .compute_model(saga_algorithms::ComputeModelKind::Incremental)
        .threads(2)
        .build();
    let mut sess = driver.session(256, true, 0);
    let mut sink = 0u64;
    for b in 0..20u32 {
        let inserts: Vec<Edge> = (0..64u32)
            .map(|i| {
                let s = (b * 64 + i) % 256;
                let d = (s * 7 + 13) % 256;
                Edge::new(s, d, edge_weight(s, d, true))
            })
            .collect();
        let record = sess.step(&inserts, &[]);
        sink = sink.wrapping_add(record.inserted as u64);
    }
    sink
}

#[test]
fn disabled_tracing_overhead_stays_under_bound() {
    if std::env::var("SAGA_SKIP_SHAPE_TIMING").as_deref() == Ok("1") {
        eprintln!("[shape] SAGA_SKIP_SHAPE_TIMING=1: skipping trace-overhead measurement");
        return;
    }

    // Events one enabled run emits (includes every span's B/E pair).
    saga_trace::clear();
    saga_trace::set_enabled(true);
    std::hint::black_box(workload());
    let events_per_run = saga_trace::drain().len();
    saga_trace::set_enabled(false);
    saga_trace::clear();
    assert!(events_per_run > 0, "enabled run must emit events");

    // Disabled-path cost per span guard, ctx-carrying path included —
    // the exact macros the server's request path compiles in.
    const CALLS: u64 = 2_000_000;
    let ctx = saga_trace::TraceCtx::mint();
    let started = Instant::now();
    for i in 0..CALLS {
        let _root = saga_trace::span_with_ctx!("probe_root", ctx);
        let _leaf = saga_trace::span!("probe_leaf", i = i);
    }
    // Two guards per iteration.
    let per_call_ns = started.elapsed().as_secs_f64() * 1e9 / (2 * CALLS) as f64;

    // Workload wall time with tracing disabled (best of 3 — the bound
    // is about cost structure, not scheduler noise).
    let disabled_wall_secs = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(workload());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    let estimated_secs = per_call_ns * events_per_run as f64 / 1e9;
    let fraction = estimated_secs / disabled_wall_secs;
    const BOUND: f64 = 0.02;
    assert!(
        fraction < BOUND,
        "disabled tracing overhead {fraction:.6} (per_call {per_call_ns:.1}ns × \
         {events_per_run} events over {disabled_wall_secs:.6}s) exceeds the {BOUND} bound"
    );

    eprintln!(
        "[shape] trace overhead: {per_call_ns:.1}ns/call × {events_per_run} events = \
         {fraction:.6} of {disabled_wall_secs:.6}s (bound {BOUND})"
    );
}
