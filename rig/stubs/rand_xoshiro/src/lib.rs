//! Offline stand-in for `rand_xoshiro` 0.6: [`Xoshiro256PlusPlus`] and the
//! two `rand_core` traits the SAGA crates import through it. The generator
//! and its SplitMix64 seeding follow the public-domain reference
//! (Blackman & Vigna), so a seed names the same stream as upstream.

/// The `rand_core` subset re-exported the way the published crate does.
pub mod rand_core {
    /// A source of random words.
    pub trait RngCore {
        /// The next 64 random bits.
        fn next_u64(&mut self) -> u64;
        /// The next 32 random bits (upper half of a 64-bit word).
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }

    /// A generator that can be built from a small seed.
    pub trait SeedableRng: Sized {
        /// Expands `seed` into a full generator state.
        fn seed_from_u64(seed: u64) -> Self;
    }
}

/// The xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl rand_core::SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            // SplitMix64.
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        Self { s }
    }
}

impl rand_core::RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
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
}
