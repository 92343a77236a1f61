//! Offline stand-in for `rand` 0.8: only [`Rng::gen`] for the types the
//! SAGA crates draw (`f64`, `u64`, `u32`, `bool`), with the same bit
//! recipes as the published crate's `Standard` distribution.

pub use rand_xoshiro::rand_core::RngCore;

/// A type [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// Draws one uniformly distributed value.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
