//! Latency summaries over exact samples, and number formatting.

/// Condensed latency summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Samples.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl Summary {
    /// Summarises every recorded sample (nanoseconds): nearest-rank
    /// percentiles of the sorted samples, so the figures are exact. Threads
    /// record into their own vectors; concatenate them before the call.
    /// Sorts `samples` in place; all zeros when there are none.
    pub fn from_samples(samples: &mut [u64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let at = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        Summary {
            count: n as u64,
            mean_ns: (sum / n as u128) as u64,
            p50_ns: at(0.50),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: samples[n - 1],
        }
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Formats an ops/sec figure compactly.
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}K", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_samples_summarise_to_zeros() {
        assert_eq!(Summary::from_samples(&mut []), Summary::default());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = Summary::from_samples(&mut [1000]);
        assert_eq!(
            s,
            Summary {
                count: 1,
                mean_ns: 1000,
                p50_ns: 1000,
                p99_ns: 1000,
                p999_ns: 1000,
                max_ns: 1000,
            }
        );
    }

    #[test]
    fn tail_percentiles_of_ten_samples_are_the_maximum() {
        let mut v: Vec<u64> = (1..=10).rev().map(|i| i * 100).collect();
        let s = Summary::from_samples(&mut v);
        assert_eq!(s.p50_ns, 500);
        assert_eq!((s.p99_ns, s.p999_ns, s.max_ns), (1000, 1000, 1000));
        assert_eq!(s.mean_ns, 550);
    }

    #[test]
    fn percentiles_are_exact_and_ordered() {
        let mut v: Vec<u64> = (1..=100_000u64).map(|i| i * 10).collect();
        let s = Summary::from_samples(&mut v);
        assert_eq!(s.p50_ns, 500_000);
        assert_eq!(s.p99_ns, 990_000);
        assert_eq!(s.p999_ns, 999_000);
        assert_eq!(s.max_ns, 1_000_000);
    }

    #[test]
    fn two_threads_samples_concatenated_equal_one_recording() {
        let (mut a, mut b, mut all) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..1000u64 {
            let v = (i * 7919) % 100_000 + 1;
            if i % 2 == 0 { &mut a } else { &mut b }.push(v);
            all.push(v);
        }
        a.extend(b);
        assert_eq!(
            Summary::from_samples(&mut a),
            Summary::from_samples(&mut all)
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ops(3_440_000.0), "3.44M");
        assert_eq!(fmt_ops(17_960.0), "18.0K");
    }

    proptest! {
        #[test]
        fn prop_count_max_and_order(values in proptest::collection::vec(1u64..10_000_000_000, 1..500)) {
            let mut v = values.clone();
            let s = Summary::from_samples(&mut v);
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.max_ns, *values.iter().max().unwrap());
            prop_assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
            // Nearest rank: at least half the samples are at or below p50.
            let at_or_below = values.iter().filter(|&&x| x <= s.p50_ns).count();
            prop_assert!(2 * at_or_below >= values.len());
        }
    }
}
