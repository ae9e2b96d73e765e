//! Streaming log-bucketed latency histogram.
//!
//! Workers record microsecond latencies into thread-local histograms that
//! merge exactly (bucket-wise addition) at the end of a run, so percentile
//! reporting needs no cross-thread synchronization on the hot path. The
//! buckets grow geometrically by `2^(1/16)` (16 sub-buckets per power of
//! two), bounding the relative quantile error at ~4.4% across a
//! `1 us .. ~2^40 us` range — the same trade HdrHistogram-style serving
//! telemetry makes.

/// Sub-buckets per power of two (`2^(1/16)` growth, ~4.4% relative
/// bucket width). One layout, so any two histograms merge exactly.
const SUBS_PER_OCTAVE: usize = 16;

/// Octaves covered: up to `2^40` us (~12.7 days).
const OCTAVES: usize = 40;

/// A mergeable log-bucketed histogram of latencies in microseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; OCTAVES * SUBS_PER_OCTAVE + 1],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }

    /// Multiplicative width of one bucket, `2^(1/16)` ≈ 1.044.
    pub fn growth_factor(&self) -> f64 {
        (2.0f64).powf(1.0 / SUBS_PER_OCTAVE as f64)
    }

    fn bucket_of(&self, us: f64) -> usize {
        if us <= 1.0 {
            return 0;
        }
        let idx = (us.log2() * SUBS_PER_OCTAVE as f64).ceil() as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Upper latency bound of bucket `i` in microseconds.
    fn upper_bound(&self, i: usize) -> f64 {
        (2.0f64).powf(i as f64 / SUBS_PER_OCTAVE as f64)
    }

    /// Records one latency observation (non-finite or negative values are
    /// clamped to 0).
    pub fn record(&mut self, latency_us: f64) {
        let us = if latency_us.is_finite() {
            latency_us.max(0.0)
        } else {
            0.0
        };
        let bucket = self.bucket_of(us);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Adds another histogram's counts into this one, bucket by bucket:
    /// the result equals recording both streams into one histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded latencies in microseconds (tracked
    /// outside the buckets, so it carries no quantization error) — what
    /// the retry-latency regression test pins against the replay
    /// simulator's virtual-time totals.
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Largest recorded latency in microseconds.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Smallest recorded latency in microseconds (0 when empty).
    pub fn min_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_us
        }
    }

    /// Approximate `q`-quantile (`q` in [0, 1]) in microseconds: the upper
    /// bound of the bucket holding the target order statistic, clamped to
    /// the exact observed maximum.
    ///
    /// Edge cases are exact, not bucket-quantized: an empty histogram
    /// reports 0 for every quantile, `q <= 0` (and non-finite `q`)
    /// returns the tracked minimum, and `q >= 1` returns the tracked
    /// maximum — so `quantile_us(0.0) <= quantile_us(q) <=
    /// quantile_us(1.0)` holds for all `q`, including after merges.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() { q.clamp(0.0, 1.0) } else { 0.0 };
        if q == 0.0 {
            // The 0-quantile is the smallest observation, tracked exactly
            // outside the buckets — not the first non-empty bucket's
            // (quantized) upper bound.
            return self.min_us;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return self.upper_bound(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Observations above `threshold_us`, over-approximated to bucket
    /// granularity: counts from the threshold's own bucket upward, so
    /// every observation strictly above the threshold is included (plus
    /// possibly some at or just below it that share the bucket).
    pub fn count_above(&self, threshold_us: f64) -> u64 {
        self.counts[self.bucket_of(threshold_us)..].iter().sum()
    }

    /// [`quantile_us`](Self::quantile_us) with the percentile spelled as
    /// a percentage: `percentile(95.0) == quantile_us(0.95)`. Benches
    /// use this instead of re-implementing quantile extraction. `p <= 0`
    /// is the exact minimum, `p >= 100` the exact maximum; out-of-range
    /// and non-finite `p` clamp rather than panic or alias into the
    /// bucket grid.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile_us(p / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.5), 0.0);
    }

    #[test]
    fn default_resolution_bounds_quantile_error_at_5_percent() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000 {
            h.record(us as f64);
        }
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert_eq!(h.min_us(), 1.0);
        assert_eq!(h.max_us(), 1000.0);
        assert!(h.growth_factor() < 1.05, "default growth {}", h.growth_factor());
        assert!((p50 / 500.0) > 0.95 && (p50 / 500.0) < 1.05, "p50 {p50}");
        assert!((p99 / 990.0) > 0.95 && (p99 / 990.0) < 1.05, "p99 {p99}");
        assert_eq!(h.quantile_us(1.0), 1000.0, "max is exact");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500 {
            let us = (i * 37 % 10_000) as f64;
            if i % 2 == 0 {
                a.record(us);
            } else {
                b.record(us);
            }
            whole.record(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean_us(), whole.mean_us());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile_us(q), whole.quantile_us(q));
        }
    }

    #[test]
    fn percentile_edge_cases_are_exact() {
        let empty = LatencyHistogram::new();
        for p in [0.0, 50.0, 100.0, -3.0, 400.0] {
            assert_eq!(empty.percentile(p), 0.0, "empty histogram reports 0");
        }

        let mut h = LatencyHistogram::new();
        for v in [3.0, 70.0, 900.0] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 3.0, "p0 is the exact minimum");
        assert_eq!(h.percentile(100.0), 900.0, "p100 is the exact maximum");
        assert_eq!(h.percentile(-5.0), 3.0, "negative p clamps to p0");
        assert_eq!(h.percentile(250.0), 900.0, "overshoot clamps to p100");
        assert_eq!(
            h.percentile(f64::NAN),
            3.0,
            "non-finite p clamps instead of aliasing into the bucket grid"
        );

        // Single-bucket histogram: every interior quantile stays inside
        // the observed [min, max] envelope.
        let mut one = LatencyHistogram::new();
        one.record(10.0);
        one.record(10.1);
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            let v = one.percentile(p);
            assert!(
                (10.0..=10.1).contains(&v),
                "p{p} = {v} escaped the single-bucket envelope"
            );
        }
    }

    #[test]
    fn count_above_is_conservative() {
        let mut h = LatencyHistogram::new();
        for us in [10.0, 100.0, 1000.0, 10_000.0] {
            h.record(us);
        }
        assert_eq!(h.count_above(20_000.0), 0);
        assert!(h.count_above(500.0) >= 2);
    }

    #[test]
    fn handles_degenerate_values() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile_us(0.5), 0.0);
    }

    #[test]
    fn huge_values_clamp_to_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1e30);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_us(), 1e30, "max stays exact");
        // The quantile saturates at the covered range's upper bound
        // (2^40 us) rather than extrapolating past the bucket grid.
        let q = h.quantile_us(0.5);
        assert!((1e12..=1.3e12).contains(&q), "saturated quantile {q}");
    }

    #[test]
    fn percentile_is_quantile_in_percent() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000 {
            h.record(us as f64);
        }
        for (p, q) in [(50.0, 0.5), (95.0, 0.95), (99.0, 0.99), (100.0, 1.0)] {
            assert_eq!(h.percentile(p), h.quantile_us(q));
        }
        // Bucket upper bounds over-approximate by at most one growth
        // factor (~4.4% at default resolution) on a uniform 1..=1000
        // distribution.
        let g = h.growth_factor();
        for (p, exact) in [(50.0, 500.0), (95.0, 950.0), (99.0, 990.0)] {
            let got = h.percentile(p);
            assert!(
                got >= exact && got <= exact * g * g,
                "p{p}: {got} vs exact {exact}"
            );
        }
    }
}
