//! Property tests for the log-linear histogram (ISSUE 9 satellite):
//! for arbitrary sample sets, recorded count/sum are exact, every
//! quantile estimate is bracketed by the bucket bounds of the true
//! rank-order statistic, and merging two snapshots equals recording
//! the union of both sample streams.

use proptest::collection::vec;
use proptest::prelude::*;
use snc_metrics::{Histogram, HistogramSnapshot};

/// Sample values spanning the interesting regimes: the exact unit
/// buckets, mid-range microsecond latencies, and huge outliers (the
/// shift folds `any::<u64>()` down by a value-dependent amount, so the
/// stream mixes all magnitudes up to `u64::MAX`).
fn sample_value() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..16, 16u64..100_000, any::<u64>()).prop_map(
        |(pick, small, mid, raw)| match pick {
            0 => small,
            1 => mid,
            _ => raw >> (raw % 40),
        },
    )
}

fn record_all(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The widest half-open bucket containing `v` spans at most one eighth
/// of an octave, so its bounds lie within `v ± max(v/8, 1)` (plus one
/// for the closed upper end). Bracketing the quantile estimate against
/// the *sorted true value* with that slack is exactly the "inside the
/// bucket holding the true rank" property.
fn bucket_slack(v: u64) -> (u64, u64) {
    let width = (v / 8).max(1);
    (v.saturating_sub(width), v.saturating_add(width))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_and_sum_are_exact(values in vec(sample_value(), 0..200)) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        // The histogram's sum atomics wrap on overflow, so the oracle
        // wraps the same way (huge outliers can overflow u64 here).
        let expected_sum: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(h.sum(), expected_sum);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum(), expected_sum);
    }

    #[test]
    fn quantiles_are_bracketed_by_bucket_bounds(
        mut values in vec(sample_value(), 1..200),
        q in 0.0f64..1.0,
    ) {
        let snap = record_all(&values).snapshot();
        values.sort_unstable();
        // The true rank-order statistic the estimate must bracket.
        let total = values.len() as u64;
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let truth = values[(rank - 1) as usize];
        let est = snap.quantile(q).expect("non-empty");
        let (lo, hi) = bucket_slack(truth);
        prop_assert!(
            est >= lo && est <= hi,
            "q={} est={} truth={} allowed=[{}, {}]", q, est, truth, lo, hi
        );
    }

    #[test]
    fn merge_equals_recording_the_union(
        a in vec(sample_value(), 0..100),
        b in vec(sample_value(), 0..100),
    ) {
        let mut merged = record_all(&a).snapshot();
        merged.merge(&record_all(&b).snapshot());
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, record_all(&union).snapshot());
    }

    #[test]
    fn merge_is_commutative_with_empty_identity(
        a in vec(sample_value(), 0..60),
        b in vec(sample_value(), 0..60),
    ) {
        let sa = record_all(&a).snapshot();
        let sb = record_all(&b).snapshot();
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut with_empty = sa.clone();
        with_empty.merge(&HistogramSnapshot::empty());
        prop_assert_eq!(with_empty, sa);
    }

    #[test]
    fn cumulative_below_is_monotone_and_total(
        values in vec(sample_value(), 0..150),
    ) {
        let snap = record_all(&values).snapshot();
        let mut prev = 0u64;
        for shift in 0..27u32 {
            let cur = snap.cumulative_below(1u64 << shift);
            prop_assert!(cur >= prev, "le=2^{} dropped {} -> {}", shift, prev, cur);
            // At power-of-two boundaries the cumulative count is the
            // exact number of observations strictly below the limit.
            let exact = values.iter().filter(|&&v| v < (1u64 << shift)).count() as u64;
            prop_assert_eq!(cur, exact);
            prev = cur;
        }
        prop_assert_eq!(snap.cumulative_below(u64::MAX), snap.count());
    }
}
