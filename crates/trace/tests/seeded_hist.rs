//! Seeded property tests for the log-bucketed histogram: every reported
//! quantile must land within one bucket (≤ 6.3% relative error) of the
//! exact sorted-sample quantile, across the full `u64` range — the
//! contract the module docs promise and `tail_sweep` relies on for its
//! p99 columns.

use saga_trace::metrics::{bucket_index, Histogram};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

/// The exact sorted-sample quantile at the same rank convention the
/// histogram uses: the sample of rank `ceil(q * n)`, 1-based.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// 1..300 samples spanning the exact linear buckets, the log range
/// timings live in, and the extremes of the `u64` domain — recorded, then
/// returned sorted.
fn recorded_samples(rng: &mut Xoshiro256PlusPlus, h: &Histogram) -> Vec<u64> {
    let mut vals = rng.vec(1, 299, |rng| match rng.range(0, 2) {
        0 => rng.range(0, 63) as u64,          // exact linear buckets
        1 => rng.range(64, 99_999_999) as u64, // the nanosecond-timing range
        _ => rng.next_u64(),                   // full range, including the top octave
    });
    for &v in &vals {
        h.record(v);
    }
    vals.sort_unstable();
    vals
}

#[test]
fn quantiles_within_one_bucket_of_exact() {
    for_each_seed(SEEDS, |rng| {
        let h = Histogram::new();
        let vals = recorded_samples(rng, &h);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&vals, q);
            let est = h.quantile(q);
            let (be, bi) = (bucket_index(exact), bucket_index(est));
            assert!(
                be.abs_diff(bi) <= 1,
                "q={q}: histogram {est} (bucket {bi}) vs exact {exact} (bucket {be})"
            );
        }
    });
}

#[test]
fn summary_tracks_exact_extremes_and_is_monotone() {
    for_each_seed(SEEDS, |rng| {
        let h = Histogram::new();
        let vals = recorded_samples(rng, &h);
        let s = h.summary();
        assert_eq!(s.count, vals.len() as u64);
        assert_eq!(s.min, vals[0]);
        assert_eq!(s.max, *vals.last().unwrap());
        assert!(s.min <= s.p50);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
    });
}
