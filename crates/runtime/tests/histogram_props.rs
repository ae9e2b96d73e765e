//! Property tests for [`LatencyHistogram`]: `sum_us`, `count`, and the
//! `percentile` order statistics must stay mutually consistent across
//! arbitrary record sequences and `merge`s —
//! exact sums (tracked outside the buckets), exact min/max endpoints,
//! monotone quantiles, and every quantile inside the observed
//! `[min, max]` envelope.

use mprec_runtime::LatencyHistogram;
use proptest::prelude::*;

/// Builds a histogram from `values`.
fn hist(values: &[f64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sum_count_and_endpoints_are_exact(
        values in prop::collection::vec(0.0f64..1.0e7, 1..200),
    ) {
        let h = hist(&values);
        let exact_sum: f64 = values.iter().sum();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert!(
            (h.sum_us() - exact_sum).abs() <= 1e-9 * exact_sum.abs().max(1.0),
            "sum_us {} != exact {}",
            h.sum_us(),
            exact_sum
        );
        prop_assert_eq!(h.percentile(0.0), lo, "p0 is the exact minimum");
        prop_assert_eq!(h.percentile(100.0), hi, "p100 is the exact maximum");
    }

    #[test]
    fn percentiles_are_monotone_and_inside_the_envelope(
        values in prop::collection::vec(0.0f64..1.0e7, 1..200),
    ) {
        let h = hist(&values);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= prev, "p{} = {} < p-prev {}", p, v, prev);
            prop_assert!(
                v >= h.min_us() && v <= h.max_us(),
                "p{} = {} escaped [{}, {}]",
                p,
                v,
                h.min_us(),
                h.max_us()
            );
            prev = v;
        }
    }

    #[test]
    fn cross_resolution_merge_keeps_sum_and_percentiles_consistent(
        a_values in prop::collection::vec(0.0f64..1.0e7, 0..120),
        b_values in prop::collection::vec(0.0f64..1.0e7, 0..120),
    ) {
        // The aggregate must behave exactly like a histogram over the
        // concatenated observations — bucket for bucket, so every
        // quantile too — and obey the same consistency contract as an
        // un-merged histogram.
        let mut merged = hist(&a_values);
        merged.merge(&hist(&b_values));

        let all: Vec<f64> = a_values.iter().chain(b_values.iter()).cloned().collect();
        let whole = hist(&all);
        prop_assert_eq!(merged.count(), all.len() as u64);
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            prop_assert_eq!(merged.percentile(p), whole.percentile(p), "merged p{}", p);
        }
        let exact_sum: f64 = all.iter().sum();
        prop_assert!(
            (merged.sum_us() - exact_sum).abs() <= 1e-9 * exact_sum.abs().max(1.0),
            "merged sum_us {} != exact {}",
            merged.sum_us(),
            exact_sum
        );
        if all.is_empty() {
            prop_assert_eq!(merged.percentile(50.0), 0.0);
            return Ok(());
        }
        let lo = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = all.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(merged.percentile(0.0), lo, "merged p0 exact");
        prop_assert_eq!(merged.percentile(100.0), hi, "merged p100 exact");
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = merged.percentile(p);
            prop_assert!(v >= prev, "merged p{} not monotone", p);
            prop_assert!(v >= lo && v <= hi, "merged p{} escaped envelope", p);
            prev = v;
        }
        // The merge never loses mass: the p50 bucket rank the
        // merged histogram reports covers at least half the population.
        let p50 = merged.percentile(50.0);
        let at_or_below = all.iter().filter(|&&v| v <= p50).count();
        prop_assert!(
            2 * at_or_below >= all.len(),
            "p50 = {} covers only {}/{} observations",
            p50,
            at_or_below,
            all.len()
        );
    }
}
