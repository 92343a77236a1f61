//! Architecture-level characterization substrate.
//!
//! The paper profiles streaming graph analytics on a dual-socket Xeon with
//! Intel Processor Counter Monitor (§IV-A, §VI). This crate substitutes a
//! simulator for those hardware counters:
//!
//! - [`cache`] — a trace-driven, set-associative model of the paper's
//!   L1/L2/LLC hierarchy with LRU replacement, replaying the memory
//!   accesses recorded by `saga_utils::probe` (Fig. 10's hit ratios and
//!   MPKI).
//! - [`numa`] — the dual-socket topology, thread pinning, and
//!   page-interleaved home-socket placement (QPI crossings).
//! - [`bandwidth`] — an analytic time model that converts replayed traffic
//!   into memory/QPI bandwidth utilization; phase time is the slowest
//!   thread's time, so workload imbalance shows up exactly as in Fig. 9.
//! - [`scaling`] — Fig. 9a scaling curves over modeled phase seconds.
//!
//! [`trace_phase`] is the entry point: run a phase under the probe and get
//! its trace back.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod cache;
pub mod numa;
pub mod scaling;

use saga_utils::parallel::ThreadPool;
use saga_utils::probe::{self, Trace};

/// Runs `phase` with memory tracing enabled and returns the recorded
/// trace. Worker buffers of `pool` are flushed before collection.
///
/// Tracing state is global: run one traced phase at a time.
///
/// # Examples
///
/// ```
/// use saga_perf::trace_phase;
/// use saga_utils::parallel::ThreadPool;
/// use saga_utils::probe;
///
/// let pool = ThreadPool::new(2);
/// let data = vec![1u64; 100];
/// let trace = trace_phase(&pool, || probe::slice_read(&data));
/// assert_eq!(trace.total_accesses, 1);
/// ```
pub fn trace_phase<F: FnOnce()>(pool: &ThreadPool, phase: F) -> Trace {
    // Drop anything a previous phase left behind.
    pool.run_on_all(|_| probe::flush_thread());
    let _ = probe::take_trace();
    probe::reset();
    probe::set_enabled(true);
    phase();
    probe::set_enabled(false);
    pool.run_on_all(|_| probe::flush_thread());
    probe::take_trace()
}

/// Convenience: replay a trace on the paper hierarchy (optionally scaled)
/// and return the report.
pub fn replay_on_paper_machine(trace: &Trace, scale_factor: usize) -> cache::CacheReport {
    let config = if scale_factor <= 1 {
        cache::HierarchyConfig::paper()
    } else {
        cache::HierarchyConfig::paper_scaled(scale_factor)
    };
    let threads = trace.thread_count().max(1);
    cache::MemoryHierarchy::new(config, threads).replay(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_phase_collects_only_inside_the_phase() {
        let pool = ThreadPool::new(2);
        let data = vec![0u8; 64];
        probe::slice_read(&data); // outside: probe disabled
        let trace = trace_phase(&pool, || {
            probe::slice_read(&data);
            probe::slice_read(&data);
        });
        assert_eq!(trace.total_accesses, 2);
        probe::slice_read(&data); // after: disabled again
        assert!(!probe::is_enabled());
    }

    #[test]
    fn replay_on_paper_machine_counts_lines() {
        let pool = ThreadPool::new(1);
        let data = vec![0u64; 64]; // 512 bytes = 8 lines
        let trace = trace_phase(&pool, || probe::slice_read(&data));
        let report = replay_on_paper_machine(&trace, 1);
        // 512 bytes span 8 lines (9 when the allocation straddles one).
        assert!((8..=9).contains(&report.accesses), "{}", report.accesses);
        assert_eq!(report.dram_lines, report.accesses, "cold cache: all lines miss");
        let report_scaled = replay_on_paper_machine(&trace, 8);
        assert_eq!(report_scaled.accesses, report.accesses);
    }
}
