//! Simulated latency injection.

use std::time::{Duration, Instant};

/// A latency model applied per network hop (and reusable for simulated disk
/// sync costs elsewhere).
///
/// Every wait — a call's hop, a one-way message's hop, a simulated fsync —
/// follows one rule ([`busy_wait`]): short waits yield-loop on a monotonic
/// clock, because `thread::sleep` is far too coarse on general-purpose kernels
/// to model microsecond datacenter RTTs; longer waits sleep most of the way, so
/// fault-injection tests with large delays do not burn CPU, and yield-loop
/// only the last stretch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLatency {
    /// Fixed base latency applied to every hop.
    pub base: Duration,
    /// Uniform random jitter in `[0, jitter]` added on top.
    pub jitter: Duration,
}

impl SimLatency {
    /// Zero-cost latency model (the default for throughput-oriented benches).
    pub const ZERO: SimLatency = SimLatency {
        base: Duration::ZERO,
        jitter: Duration::ZERO,
    };

    /// Creates a model with the given base latency and no jitter.
    pub fn fixed(base: Duration) -> SimLatency {
        SimLatency {
            base,
            jitter: Duration::ZERO,
        }
    }

    /// Creates a model with base latency and jitter.
    pub fn with_jitter(base: Duration, jitter: Duration) -> SimLatency {
        SimLatency { base, jitter }
    }

    /// Returns true when no wait would ever be applied.
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.jitter.is_zero()
    }

    /// Samples one hop delay. `entropy` should vary between calls (e.g. a
    /// cheap thread-local counter); it seeds the jitter fraction.
    pub fn sample(&self, entropy: u64) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        // SplitMix64 step over the entropy for a uniform fraction.
        let mut z = entropy.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let frac = (z % 1_000_000) as f64 / 1_000_000.0;
        self.base + self.jitter.mul_f64(frac)
    }

    /// Blocks the current thread for one sampled hop delay.
    pub fn wait(&self, entropy: u64) {
        let d = self.sample(entropy);
        busy_wait(d);
    }
}

impl Default for SimLatency {
    fn default() -> Self {
        SimLatency::ZERO
    }
}

/// Waits shorter than this yield-loop; longer ones sleep until this much is
/// left and yield-loop the rest.
pub(crate) const YIELD_THRESHOLD: Duration = Duration::from_micros(500);

/// The one delay rule, shared by [`busy_wait`] (synchronous calls, simulated
/// fsyncs) and the one-way delivery workers: how long a waiter whose deadline
/// is `left` away may sleep before it has to yield-loop. `None` inside the
/// last [`YIELD_THRESHOLD`] — `sleep` (and a timed condvar wait) overshoots
/// by more than a datacenter hop, so the last stretch is never slept.
pub(crate) fn sleepable(left: Duration) -> Option<Duration> {
    left.checked_sub(YIELD_THRESHOLD).filter(|d| !d.is_zero())
}

/// Blocks for `d`.
///
/// The last stretch loops on `thread::yield_now` rather than spinning or
/// sleeping: `sleep` has far coarser granularity than datacenter RTTs, and a
/// hot spin would starve the other simulated nodes on small machines — a
/// "waiting on the network" thread must donate its CPU to the rest of the
/// cluster, exactly as a blocked client does on real hardware.
pub fn busy_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let deadline = Instant::now() + d;
    if let Some(coarse) = sleepable(d) {
        std::thread::sleep(coarse);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_latency_never_waits() {
        let _turn = crate::test_turn::shared();
        let start = Instant::now();
        for i in 0..1000 {
            SimLatency::ZERO.wait(i);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn fixed_latency_waits_at_least_base() {
        let _turn = crate::test_turn::shared();
        let lat = SimLatency::fixed(Duration::from_micros(200));
        let start = Instant::now();
        lat.wait(1);
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn the_delay_rule_sleeps_only_outside_the_last_stretch() {
        let _turn = crate::test_turn::exclusive();
        assert_eq!(sleepable(YIELD_THRESHOLD / 2), None);
        assert_eq!(sleepable(YIELD_THRESHOLD), None);
        assert_eq!(
            sleepable(YIELD_THRESHOLD * 4),
            Some(YIELD_THRESHOLD * 3),
            "sleep until the threshold is left"
        );
        // A wait on the sleep branch still ends at its deadline, not after
        // the sleep's overshoot (median of a few, as the box may be busy).
        let d = YIELD_THRESHOLD * 4;
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                let start = Instant::now();
                busy_wait(d);
                start.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[0] >= d);
        assert!(took[2] < d + Duration::from_micros(50), "{took:?}");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let _turn = crate::test_turn::shared();
        let lat = SimLatency::with_jitter(Duration::from_micros(100), Duration::from_micros(50));
        for i in 0..200 {
            let d = lat.sample(i);
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_micros(150));
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let _turn = crate::test_turn::shared();
        let lat = SimLatency::with_jitter(Duration::ZERO, Duration::from_micros(100));
        let samples: std::collections::HashSet<Duration> = (0..64).map(|i| lat.sample(i)).collect();
        assert!(samples.len() > 8, "expected varied jitter, got {samples:?}");
    }
}
