//! Zipf-distributed ID sampling.

use rand::Rng;

/// A Zipf(`n`, `s`) sampler over ranks `0..n`: rank `r` has probability
/// proportional to `1 / (r+1)^s`.
///
/// Recommendation traces follow such power laws (paper §4.3, Fig. 16a:
/// "hot row IDs have 10K+ access counts while others are barely accessed").
/// Sampling inverts a precomputed CDF through a guide table (see
/// [`Zipf::sample`]), which is exact and fast for the scaled-down
/// cardinalities used in training; paper-scale *trace statistics* only
/// need the analytic mass functions exposed here.
///
/// # Examples
///
/// ```
/// use mprec_data::Zipf;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let z = Zipf::new(1000, 1.05);
/// let mut rng = StdRng::seed_from_u64(0);
/// let id = z.sample(&mut rng);
/// assert!(id < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    cdf: Vec<f64>,
    /// `guide[k]`: the first rank whose CDF entry `x` has `x * m >= k`.
    guide: Vec<u32>,
    /// The bucket count `m`.
    buckets: f64,
}

/// Guide entries one sampler may hold: the index adds at most 1 MiB.
const MAX_GUIDE: usize = (1 << 20) / std::mem::size_of::<u32>();

impl Zipf {
    /// Creates a sampler over `0..n` with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `n` ranks do not fit in `u32`, or if the
    /// exponent is negative or not finite (the CDF would overflow to NaN).
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and >= 0, got {exponent}"
        );
        let last = u32::try_from(n - 1).expect("zipf ranks must fit in u32");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        // ~2 ranks per bucket. `u` just below 1 can round into bucket `m`
        // itself, whose upper end is the sentinel `guide[m + 1]`.
        let m = (cdf.len() / 2).clamp(1, MAX_GUIDE - 2);
        let buckets = m as f64;
        let mut guide = Vec::with_capacity(m + 2);
        // One pass normalises and indexes: rank `i` opens every bucket its
        // CDF entry reaches that no lower rank reached.
        for (i, v) in cdf.iter_mut().enumerate() {
            *v /= total;
            while guide.len() as f64 <= *v * buckets {
                guide.push(i as u32);
            }
        }
        // The last entry is exactly 1.0, in bucket `m`: only the sentinel is left.
        guide.resize(m + 2, last);
        Zipf {
            n,
            exponent,
            cdf,
            guide,
            buckets,
        }
    }

    /// Support size.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one rank: the first `r` whose cumulative mass reaches a
    /// uniform `u` in `[0, 1)`, so the same `u` always gives the same rank.
    ///
    /// A guide table (cutpoint method) finds it: `u` falls in bucket
    /// `k = (u * m) as usize`, monotone in `u`. Ranks below `guide[k]`
    /// have CDF below `u`, the CDF at `guide[k + 1]` is above it, so the
    /// answer lies in `[guide[k], guide[k + 1]]`. At ~2 ranks per bucket a
    /// head rank owns whole buckets, both ends agree and the CDF is never
    /// read; otherwise a binary search covers that short window, not the
    /// cold middle of the whole CDF.
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let k = (u * self.buckets) as usize;
        let (lo, hi) = (self.guide[k] as usize, self.guide[k + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
    }

    /// Probability mass of rank `r`.
    pub fn pmf(&self, r: u64) -> f64 {
        if r >= self.n {
            return 0.0;
        }
        let prev = if r == 0 { 0.0 } else { self.cdf[(r - 1) as usize] };
        self.cdf[r as usize] - prev
    }

    /// Cumulative mass of the `k` most popular ranks — i.e. the expected hit
    /// rate of a cache that pins the top-`k` hottest IDs. This is the
    /// analytic backbone of the MP-Cache encoder model.
    pub fn top_k_mass(&self, k: u64) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[(k.min(self.n) - 1) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.9);
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(999));
    }

    #[test]
    fn empirical_matches_analytic_head() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let emp0 = counts[0] as f64 / n as f64;
        assert!(
            (emp0 - z.pmf(0)).abs() < 0.01,
            "empirical {emp0} vs analytic {}",
            z.pmf(0)
        );
    }

    #[test]
    fn top_k_mass_is_monotone_and_caps_at_one() {
        let z = Zipf::new(1000, 1.05);
        assert_eq!(z.top_k_mass(0), 0.0);
        assert!(z.top_k_mass(10) < z.top_k_mass(100));
        assert!((z.top_k_mass(1000) - 1.0).abs() < 1e-9);
        assert!((z.top_k_mass(5000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_exponent_concentrates_mass() {
        let light = Zipf::new(10_000, 0.6);
        let heavy = Zipf::new(10_000, 1.2);
        assert!(heavy.top_k_mass(100) > light.top_k_mass(100));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn nan_exponent_panics() {
        let _ = Zipf::new(10, f64::NAN);
    }

    proptest! {
        #[test]
        fn samples_in_support(n in 1u64..500, s in 0.1f64..2.0, seed in any::<u64>()) {
            let z = Zipf::new(n, s);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn pmf_is_decreasing(n in 2u64..200, s in 0.1f64..2.0) {
            let z = Zipf::new(n, s);
            for r in 0..n - 1 {
                prop_assert!(z.pmf(r) >= z.pmf(r + 1));
            }
        }
    }
}
