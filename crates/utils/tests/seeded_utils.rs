//! Seeded property tests for the shared primitives.

use saga_utils::bitvec::AtomicBitVec;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};
use saga_utils::stats::Summary;
use saga_utils::sync::atomic::{AtomicUsize, Ordering};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..64;

/// `lo..=hi` samples, uniform in `[min, max)`.
fn samples(rng: &mut Xoshiro256PlusPlus, lo: usize, hi: usize, min: f64, max: f64) -> Vec<f64> {
    rng.vec(lo, hi, |rng| min + rng.next_f64() * (max - min))
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn summary_matches_naive_formulas() {
    for_each_seed(SEEDS, |rng| {
        let samples = samples(rng, 1, 199, -1e6, 1e6);
        let s = Summary::from_samples(&samples);
        let n = samples.len() as f64;
        let mean: f64 = samples.iter().sum::<f64>() / n;
        assert!((s.mean - mean).abs() < 1e-6 * (1.0 + mean.abs()), "mean {} vs {}", s.mean, mean);
        if samples.len() > 1 {
            let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            assert!((s.std_dev - var.sqrt()).abs() < 1e-4 * (1.0 + var.sqrt()));
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min, min);
        assert_eq!(s.max, max);
        assert!(s.ci_low() <= s.mean && s.mean <= s.ci_high());
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn competitive_is_symmetric_and_reflexive() {
    for_each_seed(SEEDS, |rng| {
        let sa = Summary::from_samples(&samples(rng, 2, 29, 0.0, 100.0));
        let sb = Summary::from_samples(&samples(rng, 2, 29, 0.0, 100.0));
        assert!(sa.competitive_with(&sa));
        assert_eq!(sa.competitive_with(&sb), sb.competitive_with(&sa));
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn nan_samples_cannot_fabricate_a_competitive_verdict() {
    for_each_seed(SEEDS, |rng| {
        // Poison one arbitrary slot of `a` with NaN: every statistic must
        // poison too, and the competitiveness verdict must be false in both
        // directions — a corrupted measurement can never be quietly
        // reported as "competitive" (Table III's criterion).
        let mut poisoned = samples(rng, 2, 39, -1e6, 1e6);
        let b = samples(rng, 2, 39, -1e6, 1e6);
        let idx = rng.range(0, poisoned.len() - 1);
        poisoned[idx] = f64::NAN;
        let sp = Summary::from_samples(&poisoned);
        let sb = Summary::from_samples(&b);
        assert!(sp.mean.is_nan() && sp.ci95.is_nan() && sp.min.is_nan() && sp.max.is_nan());
        assert!(!sp.competitive_with(&sb));
        assert!(!sb.competitive_with(&sp));
        assert!(!sp.competitive_with(&sp));
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn bitvec_matches_bool_vec_model() {
    for_each_seed(SEEDS, |rng| {
        let ops = rng.vec(0, 399, |rng| (rng.range(0, 199), rng.chance(0.5)));
        let bv = AtomicBitVec::new(200);
        let mut model = [false; 200];
        for &(i, use_try) in &ops {
            if use_try {
                let newly = bv.try_set(i);
                assert_eq!(newly, !model[i]);
            } else {
                bv.set(i);
            }
            model[i] = true;
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bv.get(i), m);
        }
        assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
    });
}

#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn parallel_for_touches_each_index_once() {
    for_each_seed(SEEDS, |rng| {
        let n = rng.range(0, 1999);
        let pool = ThreadPool::new(rng.range(1, 5));
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let schedule = if rng.chance(0.5) {
            Schedule::Dynamic(rng.range(1, 63))
        } else {
            Schedule::Static
        };
        pool.parallel_for(0..n, schedule, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    });
}
