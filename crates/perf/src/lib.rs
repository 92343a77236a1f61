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
//! [`trace_phase`] is the entry point: run a phase on a pool under one
//! probe recorder and get its trace back.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod cache;
pub mod numa;
pub mod scaling;

use saga_utils::parallel::ThreadPool;
use saga_utils::probe::{self, Recorder, Trace};

/// Runs `phase` with the caller and every worker of `pool` attached to one
/// fresh [`Recorder`] and returns its trace. Each block's `thread` is the
/// pool worker index (0 for the caller). Phases on different pools do not
/// see each other's accesses; every thread is detached even if `phase`
/// panics.
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
    struct DetachAll<'p>(&'p ThreadPool);
    impl Drop for DetachAll<'_> {
        fn drop(&mut self) {
            self.0.run_on_all(|_| probe::detach());
        }
    }
    let recorder = Recorder::default();
    let detach = DetachAll(pool);
    pool.run_on_all(|worker| probe::attach(&recorder, worker));
    phase();
    drop(detach);
    recorder.finish()
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
    fn overlapping_phases_on_two_pools_keep_their_own_accesses() {
        // Each pool's phase reads only its own vector, on every worker, both
        // before and after a barrier that holds both phases open at once.
        let both_open = std::sync::Barrier::new(2);
        let data = [vec![1u64; 8], vec![2u64; 16]];
        let traces: Vec<Trace> = std::thread::scope(|s| {
            let phases: Vec<_> = data
                .iter()
                .map(|d| {
                    let both_open = &both_open;
                    s.spawn(move || {
                        let pool = ThreadPool::new(2);
                        trace_phase(&pool, || {
                            pool.run_on_all(|_| probe::slice_read(d));
                            both_open.wait();
                            pool.run_on_all(|_| probe::slice_read(d));
                        })
                    })
                })
                .collect();
            phases.into_iter().map(|p| p.join().unwrap()).collect()
        });
        for (d, trace) in data.iter().zip(&traces) {
            assert_eq!(trace.total_accesses, 4);
            assert_eq!(trace.thread_count(), 2);
            for access in trace.blocks.iter().flat_map(|b| &b.accesses) {
                assert_eq!(access.addr, d.as_ptr() as u64, "an access of the other phase");
                assert_eq!(access.len as usize, std::mem::size_of_val(d.as_slice()));
            }
        }
    }

    #[test]
    fn a_panicking_phase_detaches_every_worker() {
        let pool = ThreadPool::new(2);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trace_phase(&pool, || pool.run_on_all(|_| panic!("phase failed")))
        }));
        assert!(failed.is_err());
        assert!(!probe::is_enabled());
        // Attaching a thread that is still attached panics, so this would too.
        let data = [0u8; 4];
        let trace = trace_phase(&pool, || pool.run_on_all(|_| probe::slice_read(&data)));
        assert_eq!(trace.total_accesses, 2);
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
