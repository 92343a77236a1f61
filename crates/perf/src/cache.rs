//! Trace-driven set-associative cache-hierarchy simulator.
//!
//! Substitutes for the Intel PCM counters of the paper's §VI: the memory
//! accesses recorded by `saga_utils::probe` are replayed through a model of
//! the paper's cache hierarchy — 32KB private L1, 1MB private L2 per
//! physical core, 22MB shared LLC per socket, 64-byte lines (§IV-A) — with
//! LRU replacement. Per-phase hit ratios and MPKI reproduce Fig. 10; DRAM
//! and remote-socket line counts feed the bandwidth model of Fig. 9(b–c).

use crate::numa::Topology;
use saga_utils::probe::Trace;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert!(lines >= self.ways, "cache smaller than one way");
        assert_eq!(lines % self.ways, 0, "capacity must divide into ways");
        lines / self.ways
    }
}

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Private per-core L1 data cache.
    pub l1: CacheConfig,
    /// Private per-core L2.
    pub l2: CacheConfig,
    /// Shared per-socket last-level cache.
    pub llc: CacheConfig,
    /// Machine topology.
    pub topology: Topology,
}

impl HierarchyConfig {
    /// The paper's Skylake hierarchy (§IV-A): 32KB 8-way L1, 1MB 16-way
    /// L2, 22MB 11-way LLC per socket, 64B lines.
    pub fn paper() -> Self {
        Self {
            l1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
            },
            llc: CacheConfig {
                size_bytes: 22 << 20,
                ways: 11,
                line_bytes: 64,
            },
            topology: Topology::paper(),
        }
    }

    /// The paper geometry with L2 and LLC capacities divided by `factor`
    /// (L1 kept), for runs on datasets scaled below the paper's sizes —
    /// working sets shrink with the dataset, and hit-ratio *contrasts* only
    /// show if the caches shrink proportionally. `factor` must be a power
    /// of two so set counts stay integral.
    pub fn paper_scaled(factor: usize) -> Self {
        assert!(factor.is_power_of_two(), "scale factor must be a power of two");
        let mut cfg = Self::paper();
        // Clamp so set counts stay integral powers of two (the LLC's 11
        // ways only divide evenly down to 1/16 of the paper capacity).
        cfg.l2.size_bytes /= factor.min(256);
        cfg.llc.size_bytes /= factor.min(16);
        cfg
    }
}

/// One set-associative, LRU cache instance.
#[derive(Debug, Clone)]
struct Cache {
    /// `sets[s]` holds up to `ways` tags, most-recently-used first.
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
}

impl Cache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets: vec![Vec::with_capacity(config.ways); sets],
            ways: config.ways,
            set_mask: sets as u64 - 1,
        }
    }

    /// Accesses a line; returns `true` on hit. Misses install the line.
    fn access(&mut self, line_addr: u64) -> bool {
        let set = &mut self.sets[(line_addr & self.set_mask) as usize];
        let tag = line_addr >> self.set_mask.trailing_ones();
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU.
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            false
        }
    }
}

/// Per-thread activity counters (used by the bandwidth/time model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Line-granular accesses issued by the thread.
    pub accesses: u64,
    /// Accesses that missed L1.
    pub l1_misses: u64,
    /// Accesses that missed L2.
    pub l2_misses: u64,
    /// Accesses that missed the socket LLC (DRAM fetches).
    pub llc_misses: u64,
    /// DRAM fetches whose home socket was remote (QPI crossings).
    pub remote_misses: u64,
}

/// Aggregate result of replaying one phase's trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheReport {
    /// Retired-instruction estimate carried over from the trace.
    pub instructions: u64,
    /// Line-granular accesses replayed.
    pub accesses: u64,
    /// Accesses the trace dropped past its budget, carried over from it:
    /// non-zero means only the phase's recorded prefix was replayed.
    pub dropped: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 lookups (= L1 misses).
    pub l2_lookups: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// LLC lookups (= L2 misses).
    pub llc_lookups: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// Lines fetched from DRAM.
    pub dram_lines: u64,
    /// DRAM lines fetched from the remote socket.
    pub remote_lines: u64,
    /// Largest per-lock serialized-cycle total observed in the trace
    /// (`saga_utils::probe::critical`); lower-bounds phase time under any
    /// thread count.
    pub max_lock_cycles: u64,
    /// Per-thread breakdown.
    pub threads: Vec<ThreadCounters>,
}

impl CacheReport {
    /// L2 hit ratio (hits / lookups), the paper's "Update/Compute L2"
    /// metric of Fig. 10(a).
    pub fn l2_hit_ratio(&self) -> f64 {
        ratio(self.l2_hits, self.l2_lookups)
    }

    /// LLC hit ratio, Fig. 10(a)'s "Update/Compute LLC".
    pub fn llc_hit_ratio(&self) -> f64 {
        ratio(self.llc_hits, self.llc_lookups)
    }

    /// L2 misses per kilo-instruction (Fig. 10b/c).
    pub fn l2_mpki(&self) -> f64 {
        mpki(self.llc_lookups, self.instructions)
    }

    /// LLC misses per kilo-instruction (Fig. 10b/c).
    pub fn llc_mpki(&self) -> f64 {
        mpki(self.dram_lines, self.instructions)
    }

    /// Bytes moved from DRAM.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_lines as f64 * 64.0
    }

    /// Bytes moved across the inter-socket links.
    pub fn qpi_bytes(&self) -> f64 {
        self.remote_lines as f64 * 64.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

/// The full multi-core hierarchy, replaying traces thread-by-thread.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Vec<Cache>,
}

impl MemoryHierarchy {
    /// Builds a hierarchy for up to `threads` hardware threads.
    pub fn new(config: HierarchyConfig, threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            config,
            l1: (0..threads).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..threads).map(|_| Cache::new(config.l2)).collect(),
            llc: (0..config.topology.sockets).map(|_| Cache::new(config.llc)).collect(),
        }
    }

    /// Replays a trace. Blocks are processed in flush order, which
    /// approximates the real cross-thread interleaving at 16K-access
    /// granularity; within a block the thread's program order is exact.
    ///
    /// # Panics
    ///
    /// Panics if a block's thread is not below the `threads` the hierarchy
    /// was built for.
    pub fn replay(&mut self, trace: &Trace) -> CacheReport {
        let mut report = CacheReport {
            instructions: trace.instructions,
            dropped: trace.dropped,
            threads: vec![ThreadCounters::default(); self.l1.len()],
            max_lock_cycles: trace.lock_cycles.values().copied().max().unwrap_or(0),
            ..CacheReport::default()
        };
        let line = self.config.l1.line_bytes as u64;
        for block in &trace.blocks {
            // A block's thread is its pool worker index, the same in every
            // phase of a pool, so a worker finds its own private L1/L2 (and
            // socket) warm from its previous phase.
            let thread = block.thread;
            let socket = self.config.topology.socket_of_thread(thread);
            for access in &block.accesses {
                let first = access.addr / line;
                let last = (access.addr + access.len.max(1) as u64 - 1) / line;
                for line_addr in first..=last {
                    let t = &mut report.threads[thread];
                    t.accesses += 1;
                    report.accesses += 1;
                    if self.l1[thread].access(line_addr) {
                        report.l1_hits += 1;
                        continue;
                    }
                    t.l1_misses += 1;
                    report.l2_lookups += 1;
                    if self.l2[thread].access(line_addr) {
                        report.l2_hits += 1;
                        continue;
                    }
                    t.l2_misses += 1;
                    report.llc_lookups += 1;
                    if self.llc[socket].access(line_addr) {
                        report.llc_hits += 1;
                        continue;
                    }
                    t.llc_misses += 1;
                    report.dram_lines += 1;
                    if self.config.topology.home_socket(line_addr) != socket {
                        t.remote_misses += 1;
                        report.remote_lines += 1;
                    }
                }
            }
        }
        // Mirror the phase's counters into the global metrics registry so
        // one `saga_trace::metrics::snapshot()` carries both software
        // timings (driver histograms) and simulated hardware counters —
        // the paper's two characterization axes in one artifact.
        saga_trace::instant!("cache-replay", accesses = report.accesses);
        saga_trace::metrics::counter("perf.cache.accesses").add(report.accesses);
        saga_trace::metrics::counter("perf.cache.l1_hits").add(report.l1_hits);
        saga_trace::metrics::counter("perf.cache.l2_hits").add(report.l2_hits);
        saga_trace::metrics::counter("perf.cache.llc_hits").add(report.llc_hits);
        saga_trace::metrics::counter("perf.cache.dram_lines").add(report.dram_lines);
        saga_trace::metrics::counter("perf.cache.remote_lines").add(report.remote_lines);
        saga_trace::metrics::counter("perf.cache.instructions").add(report.instructions);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_utils::probe::{MemAccess, TraceBlock};

    /// One read of `len` bytes at `addr` per `(addr, len)`, as one block.
    fn block(thread: usize, accesses: Vec<(u64, u32)>) -> TraceBlock {
        let accesses = accesses
            .into_iter()
            .map(|(addr, len)| MemAccess {
                addr,
                len,
                write: false,
            })
            .collect();
        TraceBlock { thread, accesses }
    }

    fn trace_from(blocks: Vec<TraceBlock>) -> Trace {
        let n = blocks.iter().map(|b| b.accesses.len() as u64).sum();
        Trace {
            blocks,
            instructions: n,
            total_accesses: n,
            dropped: 0,
            lock_cycles: Default::default(),
        }
    }

    fn trace_of(accesses: Vec<(u64, u32)>) -> Trace {
        trace_from(vec![block(0, accesses)])
    }

    fn tiny_config() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            }, // 4 sets
            l2: CacheConfig {
                size_bytes: 2048,
                ways: 4,
                line_bytes: 64,
            }, // 8 sets
            llc: CacheConfig {
                size_bytes: 8192,
                ways: 4,
                line_bytes: 64,
            },
            topology: Topology::paper(),
        }
    }

    #[test]
    fn repeated_access_hits_l1() {
        let mut h = MemoryHierarchy::new(tiny_config(), 1);
        let report = h.replay(&trace_of(vec![(0, 8), (0, 8), (0, 8)]));
        assert_eq!(report.accesses, 3);
        assert_eq!(report.l1_hits, 2);
        assert_eq!(report.dram_lines, 1);
    }

    #[test]
    fn a_cut_trace_reports_what_it_dropped() {
        let mut h = MemoryHierarchy::new(tiny_config(), 1);
        let report = h.replay(&Trace { dropped: 7, ..Default::default() });
        assert_eq!((report.dropped, report.accesses), (7, 0));
    }

    #[test]
    fn long_access_touches_every_line() {
        let mut h = MemoryHierarchy::new(tiny_config(), 1);
        // 256 bytes starting at 0 = lines 0..=3.
        let report = h.replay(&trace_of(vec![(0, 256)]));
        assert_eq!(report.accesses, 4);
        assert_eq!(report.dram_lines, 4);
    }

    #[test]
    fn eviction_respects_lru() {
        let cfg = tiny_config();
        let mut h = MemoryHierarchy::new(cfg, 1);
        // Three lines mapping to L1 set 0 (4 sets, 64B lines -> stride 256).
        // 2-way L1: A, B, A, C, A -> A stays (MRU), B evicted by C.
        let a = 0u64;
        let b = 256u64;
        let c = 512u64;
        let report = h.replay(&trace_of(vec![
            (a, 8),
            (b, 8),
            (a, 8),
            (c, 8),
            (a, 8),
        ]));
        // Hits: 3rd (A), 5th (A). B/C misses.
        assert_eq!(report.l1_hits, 2);
    }

    #[test]
    fn working_set_larger_than_l1_hits_l2() {
        let cfg = tiny_config(); // L1 512B = 8 lines; L2 2KB = 32 lines
        let mut h = MemoryHierarchy::new(cfg, 1);
        let pass: Vec<(u64, u32)> = (0..16).map(|i| (i * 64, 8)).collect();
        let mut accesses = pass.clone();
        accesses.extend(pass.clone());
        let report = h.replay(&trace_of(accesses));
        // Second pass: L1 too small (8 lines for 16-line set with round
        // robin mapping some hit), L2 holds all 16 lines.
        assert_eq!(report.dram_lines, 16, "only cold misses reach DRAM");
        assert!(report.l2_hits > 0, "second pass should hit L2");
    }

    #[test]
    fn hit_ratio_and_mpki_formulas() {
        let r = CacheReport {
            instructions: 2000,
            accesses: 100,
            dropped: 0,
            l1_hits: 50,
            l2_lookups: 50,
            l2_hits: 30,
            llc_lookups: 20,
            llc_hits: 10,
            dram_lines: 10,
            remote_lines: 4,
            max_lock_cycles: 0,
            threads: vec![],
        };
        assert!((r.l2_hit_ratio() - 0.6).abs() < 1e-12);
        assert!((r.llc_hit_ratio() - 0.5).abs() < 1e-12);
        assert!((r.l2_mpki() - 10.0).abs() < 1e-12); // 20 L2 misses / 2k inst
        assert!((r.llc_mpki() - 5.0).abs() < 1e-12);
        assert_eq!(r.dram_bytes(), 640.0);
        assert_eq!(r.qpi_bytes(), 256.0);
    }

    #[test]
    fn threads_have_private_l1_l2() {
        let cfg = tiny_config();
        let mut h = MemoryHierarchy::new(cfg, 2);
        let trace = trace_from(vec![block(0, vec![(0, 8)]), block(1, vec![(0, 8)])]);
        let report = h.replay(&trace);
        // Thread 1 misses its own private levels. Threads 0 and 1 sit on
        // different sockets (round-robin pinning), so the LLC misses too.
        assert_eq!(report.l1_hits, 0);
        assert_eq!(report.l2_hits, 0);
        assert_eq!(report.dram_lines, 2);
    }

    #[test]
    fn a_worker_keeps_its_slot_across_replays() {
        // Phase 1: worker 1 alone touches line 0. Phase 2: worker 0 flushes
        // first, then worker 1 reads line 0 again — from its own warm L1.
        let mut h = MemoryHierarchy::new(tiny_config(), 2);
        h.replay(&trace_from(vec![block(1, vec![(0, 8)])]));
        let report = h.replay(&trace_from(vec![block(0, vec![(4096, 8)]), block(1, vec![(0, 8)])]));
        assert_eq!(report.threads[1].accesses, 1);
        assert_eq!(report.threads[1].l1_misses, 0, "worker 1 must hit its own L1");
    }

    #[test]
    fn paper_config_geometry_is_valid() {
        let cfg = HierarchyConfig::paper();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 1024);
        assert_eq!(cfg.llc.sets(), 32768);
        let scaled = HierarchyConfig::paper_scaled(8);
        assert_eq!(scaled.l2.size_bytes, 128 << 10);
        assert!(scaled.llc.sets().is_power_of_two());
        let deep = HierarchyConfig::paper_scaled(64);
        assert!(deep.llc.sets().is_power_of_two());
        assert!(deep.l2.sets().is_power_of_two());
    }
}
