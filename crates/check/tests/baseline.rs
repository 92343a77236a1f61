//! Checked-baseline regression: `results/BENCH_compute.json` is a
//! committed artifact, and this test turns its headline claims into a
//! failing test, so regenerating the baseline on a machine where an
//! optimization regressed is caught at review time. Skip with
//! `SAGA_SKIP_BASELINE=1` when regenerating on hardware where the claims
//! are not expected to hold.

use saga_check::assert_ratio_within;
use saga_check::json::{parse, Json};

fn load_json(name: &str) -> Json {
    let path = format!(
        "{}/../../results/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read checked baseline {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn skip_baselines() -> bool {
    if std::env::var("SAGA_SKIP_BASELINE").as_deref() == Ok("1") {
        eprintln!("[baseline] SAGA_SKIP_BASELINE=1: skipping checked-baseline assertion");
        return true;
    }
    false
}

/// `results/BENCH_compute.json` carries the compute-phase claims of the
/// delta-CSR / direction-optimizing work: every one of the five structures
/// has a per-batch BFS row, the direction-optimizing kernel clears 1.5×
/// over classic top-down on the dense-frontier profile, and the simulated
/// neighbor-scan miss rate of compacted delta-CSR undercuts AS.
#[test]
fn baseline_compute_bfs_claims_hold() {
    if skip_baselines() {
        return;
    }
    let doc = load_json("BENCH_compute.json");
    let rows = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("baseline has a results array");
    let mut structures: Vec<String> = rows
        .iter()
        .map(|row| {
            let mean = row
                .get("mean_batch_seconds")
                .and_then(Json::as_f64)
                .expect("row has mean_batch_seconds");
            let total = row
                .get("total_seconds")
                .and_then(Json::as_f64)
                .expect("row has total_seconds");
            let batches = row
                .get("batches")
                .and_then(Json::as_usize)
                .expect("row has batches");
            assert!(mean > 0.0, "per-batch latency must be positive");
            // The recorded total must match mean × batches (rounding slack).
            assert_ratio_within!(
                "compute baseline: total vs mean × batches",
                total / (mean * batches as f64),
                0.95,
                1.05
            );
            row.get("structure")
                .and_then(Json::as_str)
                .expect("row has structure")
                .to_string()
        })
        .collect();
    structures.sort();
    assert_eq!(
        structures,
        ["AC", "AS", "DAH", "DeltaCSR", "Stinger"],
        "one row per structure, delta-CSR included"
    );

    let dirop = doc
        .get("direction_optimizing")
        .expect("baseline has a direction_optimizing record");
    let topdown = dirop
        .get("topdown_seconds")
        .and_then(Json::as_f64)
        .expect("record has topdown_seconds");
    let dirop_s = dirop
        .get("dirop_seconds")
        .and_then(Json::as_f64)
        .expect("record has dirop_seconds");
    let speedup = dirop
        .get("speedup")
        .and_then(Json::as_f64)
        .expect("record has speedup");
    assert_ratio_within!(
        "compute baseline: recorded dirop speedup vs recomputed",
        speedup / (topdown / dirop_s),
        0.95,
        1.05
    );
    assert_ratio_within!("compute baseline: dirop over top-down", speedup, 1.5, 1e3);
    let bottom_up = dirop
        .get("bottom_up_levels")
        .and_then(Json::as_usize)
        .expect("record has bottom_up_levels");
    assert!(bottom_up >= 1, "dense profile must trigger bottom-up levels");

    let cache = doc.get("cache").expect("baseline has a cache record");
    let as_miss = cache
        .get("as_miss_rate")
        .and_then(Json::as_f64)
        .expect("record has as_miss_rate");
    let delta_miss = cache
        .get("delta_miss_rate")
        .and_then(Json::as_f64)
        .expect("record has delta_miss_rate");
    assert!(
        0.0 < delta_miss && delta_miss < as_miss && as_miss <= 1.0,
        "delta-CSR neighbor scans must miss less than AS (delta {delta_miss}, as {as_miss})"
    );
}
