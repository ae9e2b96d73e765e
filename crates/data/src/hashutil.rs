//! Deterministic hashing helpers.
//!
//! Both the data generator (teacher traits, idiosyncratic effects) and the
//! DHE encoder build on cheap, high-quality integer mixing. Centralizing the
//! mixer here keeps the "trait hash family" shared between the teacher and
//! DHE encoders (see [`crate::teacher::trait_seed`]) in one place.

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
///
/// # Examples
///
/// ```
/// use mprec_data::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`std::hash::Hasher`] built on [`splitmix64`]: one mixer round per
/// written word instead of SipHash's keyed rounds.
///
/// The serving hot path does several hash-map probes per embedding
/// lookup (cache shards, batch dedup indexes); those maps key on small
/// integers produced internally, so SipHash's DoS resistance buys
/// nothing and its latency is pure overhead. Use via
/// [`SplitMixBuildHasher`]:
///
/// ```
/// use mprec_data::SplitMixBuildHasher;
/// use std::collections::HashMap;
/// let mut m: HashMap<u64, u32, SplitMixBuildHasher> = HashMap::default();
/// m.insert(7, 1);
/// assert_eq!(m.get(&7), Some(&1));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SplitMixHasher {
    state: u64,
}

impl std::hash::Hasher for SplitMixHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.state = splitmix64(self.state ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.state = splitmix64(self.state ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` plugging [`SplitMixHasher`] into `HashMap`.
pub type SplitMixBuildHasher = std::hash::BuildHasherDefault<SplitMixHasher>;

/// Hashes `(seed, x)` to a uniform float in `[-1, 1]`.
///
/// This is the normalization used by DHE encoders (uniform variant) and by
/// the teacher's trait features, so a teacher trait with seed `s` is exactly
/// reproducible by a DHE encoder hash with the same seed.
pub fn uniform_hash_f32(seed: u64, x: u64) -> f32 {
    let h = splitmix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ x.wrapping_add(seed));
    // Take the top 24 bits for a clean f32 mantissa.
    let u = (h >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
    2.0 * u - 1.0
}

/// Hashes `(seed, x)` to an approximately standard-normal float via the
/// probit of the uniform hash (rational approximation of the inverse normal
/// CDF, Acklam's method — accurate to ~1e-9 which is far below f32 noise).
pub fn gaussian_hash_f32(seed: u64, x: u64) -> f32 {
    let u = (uniform_hash_f32(seed, x) + 1.0) * 0.5; // back to (0,1)
    let u = (u as f64).clamp(1e-9, 1.0 - 1e-9);
    inverse_normal_cdf(u) as f32
}

/// Acklam's rational approximation to the standard normal quantile.
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        // Consecutive inputs should differ in many bits.
        let d = (splitmix64(1) ^ splitmix64(2)).count_ones();
        assert!(d > 16, "only {d} differing bits");
    }

    #[test]
    fn uniform_hash_in_range_and_seed_sensitive() {
        for x in 0..1000u64 {
            let v = uniform_hash_f32(7, x);
            assert!((-1.0..=1.0).contains(&v));
        }
        assert_ne!(uniform_hash_f32(1, 5), uniform_hash_f32(2, 5));
    }

    #[test]
    fn uniform_hash_is_roughly_uniform() {
        let n = 20_000;
        let mean: f32 = (0..n).map(|x| uniform_hash_f32(3, x)).sum::<f32>() / n as f32;
        let var: f32 =
            (0..n).map(|x| uniform_hash_f32(3, x).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        // Var of U(-1,1) is 1/3.
        assert!((var - 1.0 / 3.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gaussian_hash_is_roughly_standard_normal() {
        let n = 20_000;
        let vals: Vec<f32> = (0..n).map(|x| gaussian_hash_f32(11, x)).collect();
        let mean: f32 = vals.iter().sum::<f32>() / n as f32;
        let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn inverse_cdf_hits_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
    }

    proptest! {
        #[test]
        fn uniform_hash_total_range(seed in any::<u64>(), x in any::<u64>()) {
            let v = uniform_hash_f32(seed, x);
            prop_assert!((-1.0..=1.0).contains(&v));
        }

        #[test]
        fn gaussian_hash_finite(seed in any::<u64>(), x in any::<u64>()) {
            prop_assert!(gaussian_hash_f32(seed, x).is_finite());
        }
    }
}
