//! Shared primitives for the SAGA-Bench suite.
//!
//! This crate is the bottom layer of the workspace. It provides:
//!
//! - [`parallel`] — a scoped worker pool with OpenMP-style `parallel for`
//!   semantics (static and dynamic scheduling). The paper's C++ benchmark
//!   parallelizes both the update and the compute phases with
//!   `#pragma omp parallel for`; every multithreaded loop in this suite goes
//!   through [`parallel::ThreadPool`] instead.
//! - [`probe`] — a runtime-toggled memory-access probe. The graph data
//!   structures report the addresses they touch through these hooks, which
//!   feed the `saga-perf` memory-hierarchy simulator (the substitute for the
//!   Intel PCM hardware counters used in the paper).
//! - [`stats`] — mean / standard deviation / 95% confidence intervals, used
//!   for the P1/P2/P3 stage aggregation described in §IV-B of the paper.
//! - [`bitvec`] — an atomic bitvector with a compare-and-swap `set`, used by
//!   the incremental compute model's `visited` vector (Algorithm 1, line 14),
//!   plus generation-stamped marks for `O(1)`-reset batch scratch.
//! - [`partition`] — a reusable two-pass parallel counting-sort partitioner
//!   that groups a batch's edges by destination chunk in `O(batch)` key
//!   evaluations, replacing the per-chunk batch rescan in the update phase.
//! - [`frontier`] — a flat structure-of-arrays frontier (atomic bump cursor
//!   over contiguous storage) replacing the segment-queue next-level
//!   collectors in the BFS/SSSP/INC frontier loops.
//! - [`prefetch`] — safe software-prefetch wrappers; the only module
//!   allowed to touch the raw intrinsics (enforced by `cargo xtask lint`).
//! - [`timer`] — monotonic phase timers for the batch-latency metric (Eq. 1).
//! - [`hash`] — small deterministic hash functions for the degree-aware
//!   hashing data structure.
//! - [`barrier`] — a reusable superstep barrier whose last arriver runs the
//!   between-phase work before releasing, for the BSP execution layer's
//!   phase transitions (scatter → exchange → gather), model-checked under
//!   `--cfg loom`.
//! - [`sync`] — the synchronization facade: `std::sync` primitives behind
//!   poison-free wrappers normally, the `saga-loom` model checker's
//!   instrumented versions under `--cfg loom`. All other modules (and
//!   crates) take their atomics, locks, and thread spawns from here.
//! - [`rng`] — the one seeded generator (xoshiro256++) under every input
//!   stream, fuzz program and seeded property test.
//! - [`scan`] — the one text cursor under the edge-op, JSON and
//!   Prometheus readers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barrier;
pub mod bitvec;
pub mod frontier;
pub mod hash;
pub mod parallel;
pub mod partition;
pub mod prefetch;
pub mod probe;
pub mod queue;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod sync;
pub mod timer;

/// Parses `s`, case-insensitively, as one of the kinds in `all` — the
/// shared body of the kind enums' `FromStr` impls. `spellings` lists what
/// each kind accepts, its canonical lowercase key first; the error names
/// `what` was asked for and the canonical keys.
pub fn parse_kind<K: Copy>(
    what: &str,
    all: &[K],
    spellings: fn(&K) -> &'static [&'static str],
    s: &str,
) -> Result<K, String> {
    let s = s.to_ascii_lowercase();
    let found = all.iter().find(|k| spellings(k).contains(&s.as_str()));
    found.copied().ok_or_else(|| {
        let keys: Vec<&str> = all.iter().map(|k| spellings(k)[0]).collect();
        format!("unknown {what} {s:?} ({})", keys.join("|"))
    })
}

pub use bitvec::AtomicBitVec;
pub use parallel::ThreadPool;
pub use stats::Summary;
