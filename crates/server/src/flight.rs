//! Flight-recorder triggers and dump writing.
//!
//! [`Server::start`](crate::Server::start) switches `saga-trace` into
//! wrapping flight-recorder mode, so the per-thread rings always hold
//! the most recent `RING_CAPACITY` events per thread. This module is the
//! *dump* side: when something goes wrong, the capture is written to
//! disk **before** the evidence scrolls out of the rings, together with
//! a metrics-snapshot sidecar. Three triggers fire automatically:
//!
//! - **panic** — a chained `std::panic` hook dumps on any panic;
//! - **sustained shedding** — [`note_shed`] counts consecutive 429/503
//!   rejections; a run of [`SHED_LIMIT`] without an intervening admission
//!   ([`note_admitted`]) dumps;
//! - **slow batch** — [`note_batch_latency`] dumps when a tenant batch
//!   exceeds [`LATENCY_NS`].
//!
//! The two automatic triggers stay quiet until [`init`] runs. Dumps are
//! rate-limited (one per [`MIN_DUMP_INTERVAL_NS`], at most [`MAX_DUMPS`]
//! per process) and written to `SAGA_FLIGHT_DIR` (default
//! `target/flight`) as
//! `flight-<seq>-<reason>.trace.json` (Chrome trace-event format,
//! validated by `cargo xtask check-trace`) plus
//! `flight-<seq>-<reason>.metrics.csv`. `GET /debug/flight` serves the
//! live capture over HTTP without touching disk; `?dump=1` also writes
//! an artifact. Every dump increments the `flight.dumps` counter, so
//! scrapes of `/metrics` notice post-mortem evidence exists.

use saga_utils::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::path::PathBuf;

/// Minimum spacing between dumps: a stuck tenant must not turn the dump
/// directory into a disk-filling loop.
pub const MIN_DUMP_INTERVAL_NS: u64 = 5_000_000_000;
/// Consecutive sheds that make a `shed` dump.
pub const SHED_LIMIT: u64 = 32;
/// Tenant batch latency above which a `slow-batch` dump is made (250 ms).
pub const LATENCY_NS: u64 = 250_000_000;
/// Dumps per process, all triggers together.
pub const MAX_DUMPS: u64 = 8;

/// Set by [`init`]: the panic hook is chained and the triggers are armed.
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Current run of consecutive sheds.
static SHED_RUN: AtomicU64 = AtomicU64::new(0);
/// Dumps written so far (also the artifact sequence number).
static DUMPS: AtomicU64 = AtomicU64::new(0);
/// `now_ns` of the last dump, for rate limiting.
static LAST_DUMP_NS: AtomicU64 = AtomicU64::new(0);

/// The dump directory (`SAGA_FLIGHT_DIR`, default `target/flight`).
pub fn dump_dir() -> PathBuf {
    PathBuf::from(std::env::var("SAGA_FLIGHT_DIR").unwrap_or_else(|_| "target/flight".to_string()))
}

/// Arms the triggers and chains a panic hook that dumps the rings before
/// the process report. Idempotent and process-global (the hook survives
/// the `Server` that installed it; a second server reuses it).
pub fn init() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Dump first: the previous hook may abort the process.
        let _ = dump("panic");
        previous(info);
    }));
}

/// Records one shed rejection (accept-backlog 503 or admission 429).
/// A sustained run — [`SHED_LIMIT`] sheds with no admission in between —
/// triggers a dump and restarts the count.
pub fn note_shed() {
    if !INSTALLED.load(Ordering::Relaxed) {
        return;
    }
    let run = SHED_RUN.fetch_add(1, Ordering::Relaxed) + 1;
    if run >= SHED_LIMIT {
        SHED_RUN.store(0, Ordering::Relaxed);
        let _ = dump("shed");
    }
}

/// Records a successful admission, breaking any shed run.
pub fn note_admitted() {
    SHED_RUN.store(0, Ordering::Relaxed);
}

/// Records one tenant batch's processing latency; exceeding the
/// threshold triggers a `slow-batch` dump.
pub fn note_batch_latency(elapsed_ns: u64) {
    if INSTALLED.load(Ordering::Relaxed) && elapsed_ns > LATENCY_NS {
        let _ = dump("slow-batch");
    }
}

/// Writes a flight dump (trace JSON + metrics CSV sidecar) named after
/// `reason`, subject to the rate limit and dump cap. Returns the trace
/// path, or `None` when suppressed or unwritable.
pub fn dump(reason: &str) -> Option<PathBuf> {
    // Rate limit: one CAS winner per interval; losers drop their dump
    // (the winner's capture covers the same window anyway).
    let now = saga_trace::now_ns();
    let last = LAST_DUMP_NS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < MIN_DUMP_INTERVAL_NS {
        return None;
    }
    if LAST_DUMP_NS
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return None;
    }
    let seq = DUMPS.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_DUMPS {
        DUMPS.store(MAX_DUMPS, Ordering::Relaxed);
        return None;
    }
    write_dump(&dump_dir(), seq, reason)
}

/// The unconditional write path (no rate limit — [`dump`] applies it).
fn write_dump(dir: &std::path::Path, seq: u64, reason: &str) -> Option<PathBuf> {
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let trace_path = dir.join(format!("flight-{seq:03}-{reason}.trace.json"));
    let metrics_path = dir.join(format!("flight-{seq:03}-{reason}.metrics.csv"));
    let trace = saga_trace::chrome_trace();
    let metrics = saga_trace::metrics::snapshot().to_csv();
    if let Err(e) = std::fs::write(&trace_path, trace).and_then(|()| std::fs::write(&metrics_path, metrics)) {
        saga_trace::progress!("flight: cannot write dump {}: {e}", trace_path.display());
        return None;
    }
    saga_trace::metrics::counter("flight.dumps").incr();
    saga_trace::progress!("flight: dumped {} ({reason})", trace_path.display());
    Some(trace_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trigger state is process-global; serialize the tests that move it.
    static LOCK: saga_utils::sync::Mutex<()> = saga_utils::sync::Mutex::new(());

    fn flight_test() -> saga_utils::sync::MutexGuard<'static, ()> {
        LOCK.lock()
    }

    #[test]
    fn write_dump_produces_trace_and_metrics_sidecar() {
        let _guard = flight_test();
        let dir = std::env::temp_dir().join(format!("saga-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_dump(&dir, 0, "unit").expect("dump written");
        assert!(path.ends_with("flight-000-unit.trace.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
        assert!(dir.join("flight-000-unit.metrics.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_runs_trigger_once_per_limit_and_reset_on_admission() {
        let _guard = flight_test();
        SHED_RUN.store(0, Ordering::Relaxed);
        // Rate-limit dump() into a no-op so the trigger logic is isolated.
        LAST_DUMP_NS.store(saga_trace::now_ns(), Ordering::Relaxed);
        // Armed without `init`, so no panic hook joins the test binary.
        let armed = INSTALLED.swap(true, Ordering::SeqCst);
        for _ in 0..3 {
            note_shed();
        }
        assert_eq!(SHED_RUN.load(Ordering::Relaxed), 3);
        note_admitted();
        assert_eq!(SHED_RUN.load(Ordering::Relaxed), 0);
        for _ in 0..SHED_LIMIT {
            note_shed();
        }
        // The last shed fired the (suppressed) dump and reset the run.
        assert_eq!(SHED_RUN.load(Ordering::Relaxed), 0);
        INSTALLED.store(armed, Ordering::SeqCst);
    }

    #[test]
    fn rate_limit_suppresses_back_to_back_dumps() {
        let _guard = flight_test();
        LAST_DUMP_NS.store(saga_trace::now_ns(), Ordering::Relaxed);
        assert!(dump("unit-rl").is_none(), "within the interval: suppressed");
        LAST_DUMP_NS.store(0, Ordering::Relaxed);
    }
}
