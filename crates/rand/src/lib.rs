//! Vendored, dependency-free stand-in for the tiny subset of the `rand`
//! crate API this workspace uses (`StdRng::seed_from_u64` and
//! `Rng::gen::<f64>()`). The build environment has no network access to
//! crates.io, and the generators only need a deterministic, seedable,
//! well-mixed stream — not cryptographic quality.
//!
//! The engine is xoshiro256++ seeded through splitmix64, the same
//! construction the real `rand_xoshiro` crate uses. Sequences are stable
//! across platforms and releases; generated graphs are reproducible per
//! seed (which is all `ds-gen` promises).

#![forbid(unsafe_code)]

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Types samplable from the "standard" distribution of a random source.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (matches `rand`'s
    /// `Standard` distribution for `f64`).
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Sample a value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift
    /// (bias negligible at these bounds).
    fn gen_index(&mut self, bound: usize) -> usize
    where
        Self: Sized,
    {
        assert!(bound > 0, "gen_index bound must be positive");
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }
}

impl<R: RngCore> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (the workspace's `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // All-zero state would be a fixed point; splitmix64 cannot
            // produce four zeros from any seed, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..10).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mean = 0.0;
        for _ in 0..1000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            mean += x / 1000.0;
        }
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_index_within_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(rng.gen_index(7) < 7);
        }
    }
}
