//! What a timed window hands to the report, whatever system it drove.

use crate::json::Json;

/// Raw results of one workload's timed window plus its correctness gate.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Edge ops applied inside the window.
    pub ops: usize,
    /// Seconds `ops` take from the first batch handed over to the last
    /// result visible — set-up of fresh sessions between passes excluded,
    /// and at the rate of the window's quieter parts where the workload
    /// measures in passes or segments. `edges_per_s` is `ops ÷ busy_s`.
    pub busy_s: f64,
    /// Per-batch latency samples, ms, in time order: one list per stream
    /// (library configuration or server tenant).
    pub batch_ms: Vec<Vec<f64>>,
    /// Equal time-ordered segments each stream is summarised in (0 and 1
    /// both mean one).
    pub segments: usize,
    /// Value-read latency samples, ms.
    pub read_ms: Vec<f64>,
    /// Operations attempted: batches handed over, reads, and checks.
    pub attempted: usize,
    /// Operations that failed: refused or errored requests, time-outs, and
    /// verification mismatches.
    pub failed: usize,
    /// Verification mismatches, in words.
    pub mismatches: Vec<String>,
    /// Whether the guard cut the window short (a host much slower than the
    /// reference one).
    pub cut_short: bool,
    /// Workload-specific detail for the output document.
    pub detail: Vec<(String, Json)>,
}

impl Window {
    /// Records one verification check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(mismatch) = outcome {
            self.failed += 1;
            self.mismatches.push(mismatch);
        }
    }
}
