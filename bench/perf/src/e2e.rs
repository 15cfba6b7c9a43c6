//! The end-to-end pass: what a user of the file system sees. Tracing is off.

use std::time::Duration;

use crate::catalog;
use crate::report::{Metric, RunResult};
use crate::stats::{median_f64, summarize_window};
use crate::sut::{boot, generators, peak_rss_mb, run_window};
use crate::workloads::{Workload, KIND_NAMES};

/// Warm-up before the measured window: caches fill, leaders settle, the
/// first Raft snapshots have happened.
pub fn warmup_for(seconds: u64) -> Duration {
    Duration::from_millis((seconds * 100).clamp(500, 2000))
}

/// Slices the measured window is cut into, for the diagnostics.
pub const SLICE: Duration = Duration::from_secs(1);

/// Boots and populates `setups` clusters (reporting the median set-up time),
/// then measures `seconds` on the last one.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    setups: usize,
) -> Result<RunResult, String> {
    assert!(setups >= 1 && seconds >= 1);
    let mut setup_s = Vec::new();
    let mut sut = boot(workload)?;
    setup_s.push(sut.setup.as_secs_f64());
    for _ in 1..setups {
        // Stop the previous cluster's threads before timing the next boot.
        drop(sut);
        sut = boot(workload)?;
        setup_s.push(sut.setup.as_secs_f64());
    }

    let w = run_window(
        &sut,
        generators(workload, seed),
        warmup_for(seconds),
        Duration::from_secs(seconds),
        false,
    );
    let check = workload.check(&sut.clients[0], &w.gens, &sut.inos);
    let rss = peak_rss_mb()?;

    let primary = workload.primary();
    let s = summarize_window(
        &w.samples,
        primary as u8,
        SLICE.as_nanos() as u64,
        seconds as usize,
    );
    let mut result = RunResult::new(workload.name(), w.attempted, w.failed);
    if let Some(why) = &w.first_failure {
        result.fail(format!("op failed: {why}"));
    }
    if let Err(why) = check {
        result.fail(why);
    }
    result.metrics = vec![
        Metric::new("ops_per_s", s.ops_per_s, "1/s"),
        Metric::sampled(
            "p50_us",
            s.p50_ns as f64 / 1e3,
            "us",
            s.primary_samples as u64,
        ),
        Metric::sampled(
            "p95_us",
            s.p95_ns as f64 / 1e3,
            "us",
            s.primary_samples as u64,
        ),
        Metric::new("rss_mb", rss, "MiB"),
        Metric::new("setup_s", median_f64(&setup_s), "s"),
    ];
    catalog::check(&catalog::END_TO_END, &result.metrics)?;

    // Context for the reader; not gated.
    result.notes.push(format!(
        "primary op {}: p90 {:.1} us, p99 {:.1} us; {} slices of {} s: median slice {:.1} ops/s, \
         slowest slice / median slice {:.3}",
        KIND_NAMES[primary as usize],
        s.p90_ns as f64 / 1e3,
        s.p99_ns as f64 / 1e3,
        s.slice_ops.len(),
        SLICE.as_secs(),
        s.slice_ops_per_s_median,
        s.min_share,
    ));
    result
        .notes
        .push(format!("ops per slice: {:?}", s.slice_ops));
    result.notes.push(format!("set-up times {setup_s:?} s"));
    Ok(result)
}
