//! Exact-sample statistics: percentiles over every recorded sample, per-window
//! summaries, and the quartiles the A/A calibration and `compare` use.

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q3)` as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver computes spreads the same way.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Python: j = k*(n+1) // 4 clamped to [1, n-1]; delta = k*(n+1) - 4j
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One completed operation inside the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, nanoseconds after the window opened.
    pub end_ns: u64,
    /// Latency in nanoseconds.
    pub lat_ns: u64,
    /// Op kind (index into the workload's kind table).
    pub kind: u8,
}

/// Summary of one measured window. The gated numbers are over the whole
/// window; the window is also cut into fixed slices, whose figures are
/// diagnostics (they show a stall or a decay that a whole-window number
/// averages in).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Ops of every kind completed in the window ÷ the window's length.
    pub ops_per_s: f64,
    /// Primary-op latency percentiles over every sample of the window (ns).
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// Primary-op samples in the window.
    pub primary_samples: usize,
    /// Median over slices of (ops completed in the slice ÷ slice length).
    pub slice_ops_per_s_median: f64,
    /// Slowest slice's op count ÷ median slice's op count.
    pub min_share: f64,
    /// Ops of every kind completed in each slice, in time order.
    pub slice_ops: Vec<u64>,
}

/// Summarises the samples of the window `[0, slices × slice_ns)`; a sample
/// completing after it is ignored (the generator stops there).
pub fn summarize_window(
    samples: &[Sample],
    primary: u8,
    slice_ns: u64,
    slices: usize,
) -> WindowSummary {
    assert!(slices > 0 && slice_ns > 0);
    let mut counts = vec![0u64; slices];
    let mut lats = Vec::new();
    for s in samples {
        let i = (s.end_ns / slice_ns) as usize;
        if i >= slices {
            continue;
        }
        counts[i] += 1;
        if s.kind == primary {
            lats.push(s.lat_ns);
        }
    }
    assert!(!lats.is_empty(), "no primary-op sample in the window");
    lats.sort_unstable();
    let slice_s = slice_ns as f64 / 1e9;
    let total: u64 = counts.iter().sum();
    let median_count = median_f64(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>());
    let min_count = *counts.iter().min().expect("slices > 0") as f64;
    WindowSummary {
        ops_per_s: total as f64 / (slice_s * slices as f64),
        p50_ns: percentile(&lats, 50.0),
        p90_ns: percentile(&lats, 90.0),
        p95_ns: percentile(&lats, 95.0),
        p99_ns: percentile(&lats, 99.0),
        primary_samples: lats.len(),
        slice_ops_per_s_median: median_count / slice_s,
        min_share: if median_count > 0.0 {
            min_count / median_count
        } else {
            0.0
        },
        slice_ops: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_summary_on_known_samples() {
        // Three 1-s slices: 4, 2 and 4 ops; primary kind 0, one kind-1 op.
        let mk = |end_ms: u64, lat: u64, kind: u8| Sample {
            end_ns: end_ms * 1_000_000,
            lat_ns: lat,
            kind,
        };
        let samples = vec![
            mk(100, 10, 0),
            mk(200, 20, 0),
            mk(300, 30, 0),
            mk(400, 999, 1),
            mk(1100, 50, 0),
            mk(1900, 70, 0),
            mk(2100, 10, 0),
            mk(2200, 20, 0),
            mk(2300, 30, 0),
            mk(2400, 40, 0),
            mk(3500, 1, 0), // past the last slice: ignored
        ];
        let w = summarize_window(&samples, 0, 1_000_000_000, 3);
        // 10 ops in 3 s; a stalled slice lowers the gated number.
        assert_eq!(w.ops_per_s, 10.0 / 3.0);
        assert_eq!(w.slice_ops_per_s_median, 4.0);
        assert_eq!(w.min_share, 0.5);
        assert_eq!(w.slice_ops, [4, 2, 4]);
        // Primary latencies sorted: 10 10 20 20 30 30 40 50 70.
        assert_eq!(w.primary_samples, 9);
        assert_eq!(w.p50_ns, 30);
        assert_eq!(w.p90_ns, 70);
        assert_eq!(w.p95_ns, 70);
        assert_eq!(w.p99_ns, 70);
    }
}
