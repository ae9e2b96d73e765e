//! Order statistics, regression-bound comparison and a continuous
//! quantile read from the runtime's bucketed histogram.

use mprec::runtime::LatencyHistogram;

/// Median, quartiles and extremes of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so a spread computed here equals the one the
/// benchmark's consumers compute. Fewer than two values: all three are
/// the value itself.
pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (min, max) = (
        v.first().copied().unwrap_or(0.0),
        v.last().copied().unwrap_or(0.0),
    );
    let cut = |i: usize| {
        if n < 2 {
            return min;
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Spread {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        min,
        max,
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// True when `new` is no worse than `base` by more than `bound` (a share
/// of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

/// The `q`-quantile of `h`, interpolated inside its bucket.
///
/// `LatencyHistogram::quantile_us` answers with a bucket's upper bound,
/// i.e. on a 4.4 % grid: repeated runs then read either exactly the same
/// value or one grid step apart, and neither says how far a latency
/// moved. The bucket's own count and the count below it are recovered
/// from the public `count_above`, and the target rank is placed linearly
/// between the bucket's bounds.
pub fn quantile_interp(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    let upper = h.quantile_us(q);
    if n == 0 || upper >= h.max_us() || upper <= 1.0 {
        return upper;
    }
    let g = h.growth_factor();
    // Probe the middle of this bucket and of the next one (in log space),
    // so that rounding at a bucket edge cannot pick the wrong bucket.
    let at_or_above = h.count_above(upper / g.sqrt());
    let above = h.count_above(upper * g.sqrt());
    let in_bucket = at_or_above.saturating_sub(above);
    if in_bucket == 0 {
        return upper;
    }
    let below = n - at_or_above;
    let target = (q * n as f64).ceil().max(1.0);
    let frac = ((target - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
    let lower = upper / g;
    (lower + frac * (upper - lower)).max(h.min_us())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = spread(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_sets_do_not_panic() {
        assert_eq!(spread(&[]).n, 0);
        let s = spread(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: +4 % passes a 5 % bound, +6 % does not.
        assert!(within_bound(100.0, 104.0, Better::Lower, 0.05));
        assert!(!within_bound(100.0, 106.0, Better::Lower, 0.05));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.0));
        // Higher is better: -4 % passes, -6 % does not, any gain passes.
        assert!(within_bound(100.0, 96.0, Better::Higher, 0.05));
        assert!(!within_bound(100.0, 94.0, Better::Higher, 0.05));
        assert!(within_bound(100.0, 400.0, Better::Higher, 0.0));
        // A zero bound accepts equality only.
        assert!(within_bound(3.0, 3.0, Better::Lower, 0.0));
        assert!(!within_bound(3.0, 3.000001, Better::Lower, 0.0));
        assert!((worsening(200.0, 220.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(200.0, 220.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantile_is_continuous_and_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000 {
            h.record(500.0 + i as f64 * 0.1);
        }
        let g = h.growth_factor();
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = 500.0 + q * 1000.0;
            let grid = h.quantile_us(q);
            let got = quantile_interp(&h, q);
            assert!(
                got <= grid && got >= grid / g,
                "q={q}: {got} outside its bucket"
            );
            // Uniform data: linear interpolation lands within 1 % where
            // the grid alone is up to 4.4 % off.
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
            assert!(got > prev, "quantiles must increase");
            prev = got;
        }
        // Moving a few samples moves the estimate, not just the grid.
        let before = quantile_interp(&h, 0.5);
        for _ in 0..200 {
            h.record(400.0);
        }
        assert!(quantile_interp(&h, 0.5) < before);
    }

    #[test]
    fn interpolated_quantile_handles_edges() {
        let h = LatencyHistogram::new();
        assert_eq!(quantile_interp(&h, 0.5), 0.0);
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        assert_eq!(quantile_interp(&h, 0.99), 42.0);
    }
}
