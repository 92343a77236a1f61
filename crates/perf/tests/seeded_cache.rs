//! Seeded property tests: invariants of the cache simulator.

use saga_perf::cache::{CacheConfig, HierarchyConfig, MemoryHierarchy};
use saga_perf::numa::Topology;
use saga_utils::probe::{MemAccess, Trace, TraceBlock};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..64;

fn tiny_hierarchy() -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        },
        l2: CacheConfig {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 64,
        },
        llc: CacheConfig {
            size_bytes: 8192,
            ways: 4,
            line_bytes: 64,
        },
        topology: Topology::paper(),
    }
}

/// 1..6 blocks of 1..200 accesses each, spread over `max_threads` threads.
fn arb_trace(rng: &mut Xoshiro256PlusPlus, max_threads: usize) -> Trace {
    let blocks: Vec<TraceBlock> = (0..rng.range(1, 5))
        .map(|_| TraceBlock {
            thread: rng.range(0, max_threads - 1),
            accesses: rng.vec(1, 199, |rng| MemAccess {
                addr: rng.range(0, (1 << 16) - 1) as u64,
                len: rng.range(1, 255) as u32,
                write: rng.chance(0.5),
            }),
        })
        .collect();
    let total: u64 = blocks.iter().map(|b| b.accesses.len() as u64).sum();
    Trace {
        blocks,
        instructions: total,
        total_accesses: total,
        dropped: 0,
        lock_cycles: Default::default(),
    }
}

#[test]
fn hit_miss_bookkeeping_balances() {
    for_each_seed(SEEDS, |rng| {
        let trace = arb_trace(rng, 4);
        let mut h = MemoryHierarchy::new(tiny_hierarchy(), 4);
        let r = h.replay(&trace);
        assert_eq!(r.accesses, r.l1_hits + r.l2_lookups);
        assert_eq!(r.l2_lookups, r.l2_hits + r.llc_lookups);
        assert_eq!(r.llc_lookups, r.llc_hits + r.dram_lines);
        assert!(r.remote_lines <= r.dram_lines);
        let thread_accesses: u64 = r.threads.iter().map(|t| t.accesses).sum();
        assert_eq!(thread_accesses, r.accesses);
        let thread_llc_misses: u64 = r.threads.iter().map(|t| t.llc_misses).sum();
        assert_eq!(thread_llc_misses, r.dram_lines);
    });
}

#[test]
fn replay_is_deterministic() {
    for_each_seed(SEEDS, |rng| {
        let trace = arb_trace(rng, 3);
        let r1 = MemoryHierarchy::new(tiny_hierarchy(), 3).replay(&trace);
        let r2 = MemoryHierarchy::new(tiny_hierarchy(), 3).replay(&trace);
        assert_eq!(r1, r2);
    });
}

#[test]
fn line_expansion_matches_access_geometry() {
    for_each_seed(SEEDS, |rng| {
        let trace = arb_trace(rng, 1);
        // Independent line count: sum over accesses of touched lines.
        let mut expected = 0u64;
        for b in &trace.blocks {
            for a in &b.accesses {
                let first = a.addr / 64;
                let last = (a.addr + a.len.max(1) as u64 - 1) / 64;
                expected += last - first + 1;
            }
        }
        let r = MemoryHierarchy::new(tiny_hierarchy(), 1).replay(&trace);
        assert_eq!(r.accesses, expected);
    });
}

#[test]
fn second_replay_of_same_trace_hits_more() {
    for_each_seed(SEEDS, |rng| {
        let trace = arb_trace(rng, 1);
        // Replaying a trace twice through one hierarchy can only raise the
        // combined hit count: the second pass starts warm.
        let mut cold = MemoryHierarchy::new(tiny_hierarchy(), 1);
        let first = cold.replay(&trace);
        let second = cold.replay(&trace);
        let hits = |r: &saga_perf::cache::CacheReport| r.l1_hits + r.l2_hits + r.llc_hits;
        assert!(
            hits(&second) >= hits(&first),
            "warm replay hits {} < cold replay hits {}",
            hits(&second),
            hits(&first)
        );
    });
}

#[test]
fn single_line_working_set_always_hits_after_first() {
    for_each_seed(SEEDS, |rng| {
        let addr = rng.range(0, (1 << 20) - 1) as u64;
        let trace = Trace {
            blocks: vec![TraceBlock {
                thread: 0,
                accesses: (0..50).map(|_| MemAccess { addr, len: 4, write: false }).collect(),
            }],
            instructions: 50,
            total_accesses: 50,
            dropped: 0,
            lock_cycles: Default::default(),
        };
        let r = MemoryHierarchy::new(tiny_hierarchy(), 1).replay(&trace);
        // An unaligned 4-byte access may straddle a line boundary.
        let lines = if addr % 64 + 4 > 64 { 2 } else { 1 };
        assert_eq!(r.l1_hits, 50 * lines - lines, "addr {addr}");
        assert_eq!(r.dram_lines, lines);
    });
}
