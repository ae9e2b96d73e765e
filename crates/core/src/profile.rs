//! Latency profiles: (representation, platform) latency as a function of
//! query size.
//!
//! Algorithm 1's last step profiles every selected mapping "against the
//! expected workload at different query sizes"; the online stage then
//! consults these profiles instead of re-running the hardware model per
//! query.

use mprec_hwsim::{ModelWorkload, Platform};

use crate::Result;

/// Query sizes at which mappings are profiled (log-spaced, covering the
/// paper's 1-4K query-size range).
pub const PROFILE_SIZES: [u64; 13] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
];

/// A latency-vs-query-size curve with log-linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProfile {
    sizes: Vec<u64>,
    latencies_us: Vec<f64>,
}

impl LatencyProfile {
    /// Profiles `workload` on `platform` across [`PROFILE_SIZES`].
    ///
    /// # Errors
    ///
    /// Propagates capacity errors from the hardware model.
    pub fn measure(platform: &Platform, workload: &ModelWorkload) -> Result<Self> {
        let mut latencies_us = Vec::with_capacity(PROFILE_SIZES.len());
        for &n in PROFILE_SIZES.iter() {
            latencies_us.push(platform.query_time_us(workload, n)?);
        }
        Ok(LatencyProfile {
            sizes: PROFILE_SIZES.to_vec(),
            latencies_us,
        })
    }

    /// Builds a profile from explicit points (used by MP-Cache-adjusted
    /// paths and tests).
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty, unequal length, or unsorted.
    pub fn from_points(sizes: Vec<u64>, latencies_us: Vec<f64>) -> Self {
        assert!(!sizes.is_empty(), "profile needs at least one point");
        assert_eq!(sizes.len(), latencies_us.len(), "length mismatch");
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes must increase");
        LatencyProfile {
            sizes,
            latencies_us,
        }
    }

    /// Interpolated latency (microseconds) for a query of `n` samples.
    /// Clamps below the first point; extrapolates linearly in `n` above
    /// the last. A one-point profile is flat.
    pub fn latency_us(&self, n: u64) -> f64 {
        let n = n.max(1);
        if n <= self.sizes[0] {
            return self.latencies_us[0];
        }
        let last = *self.sizes.last().expect("non-empty");
        if n >= last {
            let i = self.sizes.len() - 1;
            if i == 0 {
                return self.latencies_us[0];
            }
            // Linear extrapolation from the final segment's slope.
            let (n0, n1) = (self.sizes[i - 1] as f64, self.sizes[i] as f64);
            let (l0, l1) = (self.latencies_us[i - 1], self.latencies_us[i]);
            let slope = (l1 - l0) / (n1 - n0);
            return l1 + slope * (n as f64 - n1);
        }
        let i = self.sizes.partition_point(|&s| s < n);
        let (n0, n1) = (self.sizes[i - 1] as f64, self.sizes[i] as f64);
        let (l0, l1) = (self.latencies_us[i - 1], self.latencies_us[i]);
        l0 + (l1 - l0) * (n as f64 - n0) / (n1 - n0)
    }

    /// Sustainable throughput (samples/s) at query size `n`.
    pub fn throughput_sps(&self, n: u64) -> f64 {
        n as f64 / (self.latency_us(n) / 1e6)
    }

    /// Applies a multiplicative speedup factor (used when MP-Cache
    /// accelerates a path's embedding stage).
    pub fn scaled(&self, factor: f64) -> LatencyProfile {
        LatencyProfile {
            sizes: self.sizes.clone(),
            latencies_us: self.latencies_us.iter().map(|l| l / factor).collect(),
        }
    }

    /// Adds a per-sample latency penalty (`n × penalty_us` at each point),
    /// preserving the profile's shape and extrapolation slope. Used to
    /// charge MP-Cache *disk-tier* hits on a freshly warm-started node:
    /// the epoch right after a join prices the cold RAM tiers into the
    /// joiner's paths so Algorithm 2 can route around the cold tier.
    pub fn plus_per_sample(&self, penalty_us: f64) -> LatencyProfile {
        LatencyProfile {
            sizes: self.sizes.clone(),
            latencies_us: self
                .latencies_us
                .iter()
                .zip(&self.sizes)
                .map(|(l, &n)| l + n as f64 * penalty_us)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_hwsim::WorkloadBuilder;

    fn profile() -> LatencyProfile {
        LatencyProfile::from_points(vec![1, 10, 100], vec![10.0, 50.0, 400.0])
    }

    #[test]
    fn interpolates_between_points() {
        let p = profile();
        assert_eq!(p.latency_us(1), 10.0);
        assert_eq!(p.latency_us(10), 50.0);
        assert_eq!(p.latency_us(100), 400.0);
        let mid = p.latency_us(55);
        assert!(mid > 50.0 && mid < 400.0);
    }

    #[test]
    fn clamps_below_and_extrapolates_above() {
        let p = profile();
        assert_eq!(p.latency_us(0), 10.0);
        let above = p.latency_us(190);
        // Slope of last segment: 350/90 per sample.
        let expected = 400.0 + 350.0 / 90.0 * 90.0;
        assert!((above - expected).abs() < 1.0, "{above} vs {expected}");
    }

    #[test]
    fn one_point_profile_is_flat() {
        let p = LatencyProfile::from_points(vec![1], vec![10.0]);
        assert_eq!(p.latency_us(0), 10.0);
        assert_eq!(p.latency_us(1), 10.0);
        assert_eq!(p.latency_us(2), 10.0);
        assert_eq!(p.latency_us(4096), 10.0);
    }

    #[test]
    fn measured_profile_is_monotone_in_size() {
        let w = WorkloadBuilder::new("t", vec![10_000; 26], 13)
            .table(16)
            .unwrap();
        let p = LatencyProfile::measure(&mprec_hwsim::Platform::cpu(), &w).unwrap();
        for i in 1..PROFILE_SIZES.len() {
            assert!(
                p.latency_us(PROFILE_SIZES[i]) >= p.latency_us(PROFILE_SIZES[i - 1]),
                "latency not monotone at {}",
                PROFILE_SIZES[i]
            );
        }
    }

    #[test]
    fn scaled_divides_latency() {
        let p = profile().scaled(2.0);
        assert_eq!(p.latency_us(10), 25.0);
    }

    #[test]
    fn per_sample_penalty_grows_linearly_and_extrapolates() {
        let p = profile().plus_per_sample(2.0);
        assert_eq!(p.latency_us(1), 12.0);
        assert_eq!(p.latency_us(10), 70.0);
        assert_eq!(p.latency_us(100), 600.0);
        // Extrapolation keeps the penalized slope: base 350/90 + 2.0.
        let above = p.latency_us(190);
        let expected = 600.0 + (350.0 / 90.0 + 2.0) * 90.0;
        assert!((above - expected).abs() < 1e-6, "{above} vs {expected}");
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn unsorted_points_panic() {
        let _ = LatencyProfile::from_points(vec![10, 5], vec![1.0, 2.0]);
    }

    #[test]
    fn throughput_grows_with_batch_on_cpu() {
        let w = WorkloadBuilder::new("t", vec![10_000; 26], 13)
            .table(16)
            .unwrap();
        let p = LatencyProfile::measure(&mprec_hwsim::Platform::gpu(), &w).unwrap();
        assert!(p.throughput_sps(1024) > p.throughput_sps(8));
    }
}
