//! Seeded property tests for the shared primitives.

use saga_utils::bitvec::AtomicBitVec;
use saga_utils::parallel::{Schedule, ThreadPool};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};
use saga_utils::scan::Cursor;
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

/// Bytes the text grammars care about, plus arbitrary ones (decoded
/// lossily, so invalid UTF-8 becomes U+FFFD).
fn scan_soup(rng: &mut Xoshiro256PlusPlus) -> String {
    const GRAMMAR: &[u8] = b" \t\n\r\"\\#%{}[]=,:+-.eE019aZ_u";
    let bytes = rng.vec(0, 48, |rng| match rng.range(0, 3) {
        0 => rng.next_u64() as u8,
        _ => GRAMMAR[rng.range(0, GRAMMAR.len() - 1)],
    });
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every cursor method returns on any text, never panics and never moves
/// the position backwards or past the end.
#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn cursor_is_total_and_monotone_on_arbitrary_text() {
    for_each_seed(0..512, |rng| {
        let text = scan_soup(rng);
        let mut c = Cursor::new(&text);
        // `rest()` slices at the read position, so it panics unless the
        // position is a char boundary within the text.
        let pos = |c: &Cursor<'_>| text.len() - c.rest().len();
        for _ in 0..rng.range(1, 24) {
            let before = pos(&c);
            match rng.range(0, 11) {
                0 => c.skip_ws(),
                1 => drop(c.token()),
                2 => drop(c.parse::<u64>()),
                3 => drop(c.parse::<f64>()),
                4 => drop(c.parse_while::<f32>(|ch| ch.is_ascii_digit() || ch == '.')),
                5 => drop(c.ident()),
                6 => drop(c.eat("\"")),
                7 => drop(c.expect("{")),
                8 => drop(c.end()),
                9 => drop(c.error("probe")),
                10 => drop(c.take_while(|ch| ch != '\n')),
                _ => drop(c.quoted(|e, c| if e == 'u' { c.parse::<u64>().map(|_| e) } else { Ok(e) })),
            }
            assert!(before <= pos(&c), "{text:?}: {before} -> {}", pos(&c));
            assert!(text.ends_with(c.rest()));
        }
    });
}

/// A float token reads back bit for bit: `Display` writes the shortest
/// round-tripping form and the cursor converts with std `FromStr`.
#[test]
#[cfg_attr(miri, ignore)] // case counts are not Miri-sized
fn cursor_float_tokens_round_trip_exactly() {
    let specials32 = [-0.0, f32::MIN_POSITIVE, f32::from_bits(1), f32::MAX, f32::MIN, f32::EPSILON];
    let specials64 = [-0.0, f64::MIN_POSITIVE, f64::from_bits(1), f64::MAX, f64::MIN, f64::EPSILON];
    let mut f32s = specials32.to_vec();
    let mut f64s = specials64.to_vec();
    let mut u64s = vec![0, u64::MAX];
    for_each_seed(SEEDS, |rng| {
        f32s.push(f32::from_bits(rng.next_u64() as u32));
        f64s.push(f64::from_bits(rng.next_u64()));
        u64s.push(rng.next_u64());
    });
    let same32 = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    let same64 = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    let text: String = (f32s.iter().map(|x| format!("{x} ")))
        .chain(f64s.iter().map(|x| format!("{x}\t")))
        .chain(u64s.iter().map(|x| format!("{x}\n")))
        .collect();
    let mut c = Cursor::new(&text);
    for &x in &f32s {
        let back: f32 = c.parse().unwrap();
        assert!(same32(x, back), "{x:e} read back as {back:e}");
    }
    for &x in &f64s {
        let back: f64 = c.parse().unwrap();
        assert!(same64(x, back), "{x:e} read back as {back:e}");
    }
    for &x in &u64s {
        assert_eq!(c.parse::<u64>(), Ok(x));
    }
    c.end().unwrap();
}
