//! The suite's one seeded generator: xoshiro256++ (Blackman & Vigna,
//! public domain) seeded through SplitMix64.
//!
//! The input streams are part of the benchmark definition (§IV-B: one
//! input file, shuffled once), so the generator lives in the repository
//! instead of behind a dependency's minor version. It is bit-identical to
//! `rand_xoshiro` 0.6's `Xoshiro256PlusPlus::seed_from_u64` and to `rand`
//! 0.8's `Standard` `f64` recipe, which the streams were first drawn
//! from: a seed names the stream it always named (pinned by the
//! known-answer tests in `saga-stream` and `saga-check`).

/// The xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use saga_utils::rng::Xoshiro256PlusPlus;
///
/// let mut a = Xoshiro256PlusPlus::seed_from_u64(7);
/// let mut b = Xoshiro256PlusPlus::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!((0.0..1.0).contains(&a.next_f64()));
/// assert!((3..=5).contains(&a.range(3, 5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands `seed` into a full generator state (SplitMix64).
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Self { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw from `[0, 1)`: 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from the inclusive range `[lo, hi]` (unbiased:
    /// the wrap-around remainder zone is rejected).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi, "inclusive range needs lo <= hi");
        let span = (hi - lo) as u64 + 1;
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (lo as u64 + x % span) as usize;
            }
        }
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A vector of `lo..=hi` items (length drawn first), each from `item`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.range(lo, hi)).map(|_| item(self)).collect()
    }
}

/// Runs `case` once per seed, each time on a generator seeded with it —
/// the loop under every seeded property test in the workspace. When a
/// case panics, the seed is printed after the panic message; to replay
/// it, add it to the test's seed list.
pub fn for_each_seed(
    seeds: impl IntoIterator<Item = u64>,
    mut case: impl FnMut(&mut Xoshiro256PlusPlus),
) {
    struct Report(u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                saga_trace::progress!("failing seed: {:#x}", self.0);
            }
        }
    }
    for seed in seeds {
        let _report = Report(seed);
        case(&mut Xoshiro256PlusPlus::seed_from_u64(seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_implementation() {
        // First outputs of the public-domain C reference seeded with
        // SplitMix64(0), as `rand_xoshiro` documents them.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 5987356902031041503);
    }

    #[test]
    fn range_covers_both_ends_and_nothing_else() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.range(2, 5) - 2] = true;
        }
        assert_eq!(seen, [true; 4]);
        assert_eq!(rng.range(9, 9), 9);
    }

    #[test]
    fn every_seed_gets_its_own_generator() {
        let mut firsts = Vec::new();
        for_each_seed([1, 2, 1], |rng| firsts.push(rng.next_u64()));
        assert_eq!(firsts[0], firsts[2]);
        assert_ne!(firsts[0], firsts[1]);
    }
}
