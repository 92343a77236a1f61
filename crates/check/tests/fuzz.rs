//! Differential fuzzing entry points.
//!
//! - `fuzz_quick` runs on every `cargo test`: a small seeded campaign over
//!   all profiles and algorithms.
//! - `fuzz_smoke` is the CI smoke job (`cargo test -p saga-check --
//!   --ignored fuzz_smoke`): ≥500 seeded programs, still deterministic.
//!   `SAGA_FUZZ_SEED` / `SAGA_FUZZ_COUNT` widen the campaign for the
//!   extended nightly-style matrix.
//! - `seeded_fault_is_caught_and_shrunk` proves the harness detects a
//!   deliberately injected bug (a structure that silently drops delete
//!   ops) and shrinks the trigger to a handful of ops.

use saga_algorithms::program::{GatherMode, VertexProgram};
use saga_algorithms::{with_program, AlgorithmKind, AlgorithmParams};
use saga_check::program::ProgramOp;
use saga_check::{
    check_program, fuzz_campaign, shrink, CheckConfig, Fault, FaultPlan, OpProgram,
    ProgramProfile,
};
use saga_graph::delta_csr::DeltaCsr;
use saga_graph::{DataStructureKind, DynamicGraph, Edge};
use saga_stream::EdgeOp;
use saga_utils::hash::mix64;
use saga_utils::parallel::ThreadPool;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Fast campaign that runs on every `cargo test`.
#[test]
fn fuzz_quick() {
    assert_eq!(fuzz_campaign(0, 60).checked, 60);
}

/// CI smoke campaign: ≥500 seeded programs, zero divergences expected.
/// Ignored by default; the `fuzz-smoke` CI job runs it explicitly.
///
/// INC == FS would also hold if INC recomputed every deletion batch from
/// scratch, so the campaign must also have *repaired* at least one
/// deletion batch of every algorithm that keeps a witness forest (every
/// one but PageRank, whose re-pull is its repair).
#[test]
#[ignore = "CI smoke budget; run with -- --ignored fuzz_smoke"]
fn fuzz_smoke() {
    let base = env_u64("SAGA_FUZZ_SEED", 1);
    let count = env_u64("SAGA_FUZZ_COUNT", 500);
    let report = fuzz_campaign(base, count);
    assert_eq!(report.checked, count);
    for (&kind, tally) in &report.repairs {
        eprintln!("{kind}: {tally:?}");
        let params = AlgorithmParams::default();
        let repairs = with_program!(kind, params, 1, p => p.gather_mode() == GatherMode::Fold);
        assert!(
            !repairs || tally.deletion_batches == 0 || tally.repaired > 0,
            "{kind} never repaired a deletion batch: {tally:?}"
        );
    }
}

/// A deliberately seeded bug — DAH silently dropping every third delete —
/// must be caught by the differential check and shrunk to a minimal
/// reproducer of at most 10 ops that renders as a paste-ready test.
#[test]
fn seeded_fault_is_caught_and_shrunk() {
    let config = CheckConfig {
        fault: Some(FaultPlan {
            structure: DataStructureKind::Dah,
            fault: Fault::DropEveryNthDelete(3),
        }),
        ..CheckConfig::quick()
    };
    // Scan delete-heavy seeds until one trips the fault: not every program
    // exercises the dropped delete (a delete whose edge never existed is
    // a no-op in both worlds only if its `missing` count also matches the
    // corrupted replay, which the checker verifies too — so in practice
    // the very first seeds diverge).
    let mut caught = None;
    for seed in 0..32u64 {
        let program = OpProgram::generate(seed, ProgramProfile::DeleteHeavy);
        if check_program(&program, &config).is_some() {
            caught = Some(program);
            break;
        }
    }
    let program = caught.expect("no delete-heavy seed in 0..32 tripped the seeded fault");

    let result = shrink(&program, |p| check_program(p, &config).is_some(), 400);
    assert!(
        check_program(&result.program, &config).is_some(),
        "shrunk program must still fail"
    );
    assert!(
        result.program.total_ops() <= 10,
        "shrunk reproducer has {} ops (started from {})",
        result.program.total_ops(),
        program.total_ops()
    );

    let snippet = result
        .program
        .to_test_snippet("dah_drops_deletes", "CheckConfig::quick()");
    assert!(snippet.contains("#[test]"), "snippet:\n{snippet}");
    assert!(snippet.contains("from_ops"), "snippet:\n{snippet}");
}

/// The delta-CSR column of the matrix is genuinely differential: a fault
/// routed to DeltaCsr's input stream (deletes replayed with reversed
/// endpoints) must surface as a divergence attributed to DeltaCsr.
#[test]
fn delta_csr_fault_is_caught() {
    let program = OpProgram::from_ops(
        4,
        true,
        &[&[
            (EdgeOp::Insert, 0, 1),
            (EdgeOp::Insert, 1, 2),
            (EdgeOp::Delete, 0, 1),
        ]],
    );
    let config = CheckConfig {
        fault: Some(FaultPlan {
            structure: DataStructureKind::DeltaCsr,
            fault: Fault::ReverseDeleteEndpoints,
        }),
        ..CheckConfig::quick()
    };
    let d = check_program(&program, &config).expect("fault must diverge");
    assert_eq!(d.structure, DataStructureKind::DeltaCsr);
}

/// A long mixed insert/delete program crosses DeltaCsr's default
/// compaction threshold several times; the differential replay (INC == FS
/// == oracle per batch) must stay clean straight through every snapshot
/// merge. A side replay on a bare `DeltaCsr` witnesses that the threshold
/// actually fired — otherwise this test would silently stop covering
/// compaction if the default floor were raised.
#[test]
fn delta_csr_replays_clean_through_compaction() {
    const CAP: usize = 48;
    let batches: Vec<Vec<(EdgeOp, u32, u32)>> = (0..8u64)
        .map(|b| {
            (0..90u64)
                .map(|i| {
                    let r = mix64(b * 1_000 + i + 1);
                    let src = ((r >> 8) % CAP as u64) as u32;
                    let dst = ((r >> 32) % CAP as u64) as u32;
                    let op = if r.is_multiple_of(5) {
                        EdgeOp::Delete
                    } else {
                        EdgeOp::Insert
                    };
                    (op, src, dst)
                })
                .collect()
        })
        .collect();
    let slices: Vec<&[(EdgeOp, u32, u32)]> = batches.iter().map(Vec::as_slice).collect();
    let program = OpProgram::from_ops(CAP, true, &slices);

    // Witness: the same op stream on a default-threshold DeltaCsr drains
    // the overlay at least once (pending ops stay far below the op count).
    let pool = ThreadPool::new(2);
    let witness = DeltaCsr::new(CAP, true, pool.threads());
    for batch in &batches {
        let inserts: Vec<Edge> = batch
            .iter()
            .filter(|&&(op, _, _)| op == EdgeOp::Insert)
            .map(|&(_, s, d)| Edge::new(s, d, saga_stream::edge_weight(s, d, true)))
            .collect();
        witness.update_batch(&inserts, &pool);
    }
    assert!(
        witness.pending_delta_ops() < 300,
        "program never crossed the compaction threshold (pending {})",
        witness.pending_delta_ops()
    );

    let got = check_program(&program, &CheckConfig::quick());
    assert!(got.is_none(), "{}", got.unwrap());
}

/// The corner cases of the graph shell's pass protocol (out / in copy,
/// undirected mirror, self-loop, which pass counts), as fixed programs over
/// every structure × every driver path, directed and undirected. Vertices 1
/// and 6 land in different chunks and buckets at every thread count the
/// checker uses. Program weights are a function of the endpoints, so the
/// two-weights variant of the in-batch duplicate lives in saga-graph's
/// `conflicting_weights_in_one_batch_stay_symmetric`.
#[test]
fn shell_protocol_corner_cases_replay_clean() {
    use EdgeOp::{Delete as D, Insert as I};
    let check = |name: &str, batches: &[&[ProgramOp]]| {
        for directed in [true, false] {
            let program = OpProgram::from_ops(8, directed, batches);
            let got = check_program(&program, &CheckConfig::quick());
            assert!(got.is_none(), "{name}, directed = {directed}: {}", got.unwrap());
        }
    };
    check("self-loop", &[&[(I, 2, 2), (I, 2, 2)], &[(D, 2, 2)], &[(I, 2, 2), (I, 1, 2)]]);
    check("reversed duplicate", &[&[(I, 1, 6), (I, 6, 1)], &[(D, 6, 1)]]);
    check("in-batch duplicate across chunks", &[&[(I, 1, 6), (I, 1, 6), (I, 6, 1), (I, 1, 6)]]);
    check("delete missing", &[&[(I, 0, 1)], &[(D, 2, 3), (D, 1, 0), (D, 4, 4)]]);
    check("double delete in one batch", &[&[(I, 0, 1), (I, 1, 6)], &[(D, 0, 1), (D, 0, 1)]]);
    check(
        "reinsert after delete",
        &[&[(I, 0, 1)], &[(D, 0, 1)], &[(I, 0, 1)], &[(I, 0, 1), (D, 0, 1)]],
    );
}

/// PageRank's out-degree cache is valid for one compute phase. A hub whose
/// out-degree goes 4 → 2 → 4 → 5 over insert / delete / re-insert batches,
/// beside a self-loop and a vertex that never appears, makes any degree
/// carried across a phase (or across the per-batch CSR objects of the
/// pipelined path) a rank error far above the 1e-6 the checker allows —
/// on every structure × driver path × FS/INC.
#[test]
fn pagerank_degrees_stay_fresh_across_insert_delete_reinsert() {
    use EdgeOp::{Delete as D, Insert as I};
    let batches: [&[ProgramOp]; 4] = [
        &[(I, 0, 1), (I, 0, 2), (I, 0, 3), (I, 0, 4), (I, 1, 2), (I, 2, 0), (I, 3, 3), (I, 5, 0)],
        &[(D, 0, 3), (D, 0, 4)],
        &[(I, 0, 3), (I, 0, 4), (I, 6, 1)],
        &[(I, 0, 6), (D, 6, 1), (I, 4, 5)],
    ];
    let config = CheckConfig { algorithm: AlgorithmKind::PageRank, ..CheckConfig::quick() };
    for directed in [true, false] {
        let program = OpProgram::from_ops(8, directed, &batches);
        let got = check_program(&program, &config);
        assert!(got.is_none(), "directed = {directed}: {}", got.unwrap());
    }
}

/// Every adversarial profile generates structurally valid programs whose
/// replay stays clean across the whole matrix (spot check, one seed per
/// profile — the campaigns above cover breadth).
#[test]
fn all_profiles_replay_clean() {
    for (i, profile) in ProgramProfile::ALL.into_iter().enumerate() {
        let program = OpProgram::generate(0xFACE + i as u64, profile);
        let config = CheckConfig::quick();
        let got = check_program(&program, &config);
        assert!(got.is_none(), "{profile:?}: {}", got.unwrap());
    }
}
