//! Generic multi-client measurement driver.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{fmt_ns, fmt_ops, Summary};

/// Result of a measurement window.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Completed operations.
    pub ops: u64,
    /// Failed operations (not counted in `ops`).
    pub errors: u64,
    /// Wall-clock duration of the window.
    pub wall: Duration,
    /// Latency summary over every completed operation.
    pub latency: Summary,
}

impl BenchResult {
    /// Aggregate throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.wall.as_secs_f64()
        }
    }

    /// One formatted report line.
    pub fn line(&self) -> String {
        let s = self.latency;
        format!(
            "{:>8} ops/s  avg {:>9}  p50 {:>9}  p99 {:>9}  p999 {:>9}  ({} ops, {} errs)",
            fmt_ops(self.throughput()),
            fmt_ns(s.mean_ns),
            fmt_ns(s.p50_ns),
            fmt_ns(s.p99_ns),
            fmt_ns(s.p999_ns),
            self.ops,
            self.errors,
        )
    }
}

/// Runs `clients` threads, each repeatedly invoking its closure until the
/// duration elapses (or `ops_per_client` completes, whichever first if both
/// given), measuring per-op latency.
///
/// `make_worker` is called once per client (with the client index) and must
/// return the per-iteration closure; per-client state (file system handles,
/// RNGs, counters) lives in that closure. The closure returns `Ok(true)` for
/// a counted op, `Ok(false)` to skip counting (e.g. setup), `Err` on failure.
pub fn run_clients<F, W>(
    clients: usize,
    duration: Option<Duration>,
    ops_per_client: Option<u64>,
    make_worker: F,
) -> BenchResult
where
    F: Fn(usize) -> W + Sync,
    W: FnMut(u64) -> Result<bool, cfs_types::FsError> + Send,
{
    assert!(duration.is_some() || ops_per_client.is_some());
    let stop = Arc::new(AtomicBool::new(false));
    let total_errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let mut worker = make_worker(c);
            let stop = Arc::clone(&stop);
            let total_errors = Arc::clone(&total_errors);
            handles.push(scope.spawn(move || {
                let mut samples: Vec<u64> = Vec::new();
                let mut iter = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if ops_per_client.is_some_and(|limit| samples.len() as u64 >= limit) {
                        break;
                    }
                    let t0 = Instant::now();
                    match worker(iter) {
                        Ok(true) => samples.push(t0.elapsed().as_nanos() as u64),
                        Ok(false) => {}
                        Err(_) => {
                            total_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    iter += 1;
                }
                samples
            }));
        }
        if let Some(d) = duration {
            // Watchdog: flip the stop flag when the window closes.
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                std::thread::sleep(d);
                stop.store(true, Ordering::Relaxed);
            });
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = results.concat();
    BenchResult {
        ops: samples.len() as u64,
        errors: total_errors.load(Ordering::Relaxed),
        wall: duration.map_or(wall, |d| wall.min(d + Duration::from_millis(200))),
        latency: Summary::from_samples(&mut samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_ops_per_client_mode() {
        let r = run_clients(4, None, Some(100), |_c| {
            move |_i| Ok::<bool, cfs_types::FsError>(true)
        });
        assert_eq!(r.ops, 400);
        assert_eq!(r.errors, 0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn duration_mode_stops() {
        let r = run_clients(2, Some(Duration::from_millis(100)), None, |_c| {
            move |_i| {
                std::thread::sleep(Duration::from_millis(1));
                Ok::<bool, cfs_types::FsError>(true)
            }
        });
        assert!(r.ops > 10, "some work done");
        assert!(r.wall < Duration::from_secs(2), "stopped promptly");
    }

    #[test]
    fn errors_are_counted_separately() {
        let r = run_clients(1, None, Some(10), |_c| {
            let mut n = 0u64;
            move |_i| {
                n += 1;
                if n.is_multiple_of(2) {
                    Err(cfs_types::FsError::NotFound)
                } else {
                    Ok(true)
                }
            }
        });
        assert_eq!(r.ops, 10);
        assert!(r.errors >= 9, "alternating errors counted: {}", r.errors);
    }
}
