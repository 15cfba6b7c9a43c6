//! QoS fair-share admission: per-tenant token buckets.
//!
//! Every volume gets its own bucket refilled at a configured rate, so a
//! noisy tenant saturating the metadata service drains only its own tokens
//! and the victim tenant's latency stays flat. Admission happens at the
//! client (`CfsClient`) *before* any RPC is issued — throttled work never
//! reaches the shards, which is what protects the shared Raft groups.
//!
//! Per-tenant counters are recorded in the cfs-obs registry of the node
//! whose thread built the limiter (a cluster builds its shared limiter
//! unattributed, so node 0), through handles each bucket resolves once:
//!
//! * `tenant.vol<N>.ops` — admitted operations,
//! * `tenant.vol<N>.throttle_waits` — admissions that had to wait,
//! * `tenant.vol<N>.rejects` — admissions that gave up (`FsError::Busy`),
//! * `tenant.vol<N>.wait_us` — histogram of admission wait time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_obs::metrics::{Counter, Histogram, Registry};
use cfs_types::{FsError, FsResult, VolumeId};
use parking_lot::Mutex;

/// Per-volume admission parameters.
#[derive(Clone, Copy, Debug)]
pub struct QosConfig {
    /// Sustained operations per second granted to the tenant.
    pub ops_per_sec: f64,
    /// Bucket capacity: how many operations may burst at once.
    pub burst: f64,
    /// How long an admission may wait for a token before failing `Busy`.
    pub max_wait: Duration,
}

impl Default for QosConfig {
    fn default() -> QosConfig {
        QosConfig {
            ops_per_sec: 2_000.0,
            burst: 100.0,
            max_wait: Duration::from_secs(2),
        }
    }
}

struct Bucket {
    tokens: f64,
    last_refill: Instant,
    cfg: QosConfig,
    ops: Arc<Counter>,
    throttle_waits: Arc<Counter>,
    rejects: Arc<Counter>,
    wait_us: Arc<Histogram>,
}

impl Bucket {
    /// A full bucket for `vol`, its `tenant.vol<N>.*` instruments resolved.
    fn new(vol: VolumeId, cfg: QosConfig, now: Instant, reg: &Registry) -> Bucket {
        let name = |suffix: &str| format!("tenant.vol{}.{suffix}", vol.0);
        Bucket {
            tokens: cfg.burst,
            last_refill: now,
            cfg,
            ops: reg.counter(&name("ops")),
            throttle_waits: reg.counter(&name("throttle_waits")),
            rejects: reg.counter(&name("rejects")),
            wait_us: reg.histogram(&name("wait_us")),
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.cfg.ops_per_sec).min(self.cfg.burst);
        self.last_refill = now;
    }
}

/// The fair-share limiter shared by every client of a cluster.
pub struct QosLimiter {
    default_cfg: QosConfig,
    buckets: Mutex<HashMap<u16, Bucket>>,
    registry: Arc<Registry>,
}

impl QosLimiter {
    /// Creates a limiter granting each volume `default_cfg`'s share.
    pub fn new(default_cfg: QosConfig) -> QosLimiter {
        QosLimiter {
            default_cfg,
            buckets: Mutex::new(HashMap::new()),
            registry: cfs_obs::metrics::local(),
        }
    }

    /// Overrides one volume's share.
    pub fn set_rate(&self, vol: VolumeId, cfg: QosConfig) {
        let bucket = Bucket::new(vol, cfg, Instant::now(), &self.registry);
        self.buckets.lock().insert(vol.0, bucket);
    }

    /// Admits one operation for `vol`, blocking until a token is available
    /// or the volume's `max_wait` elapses (then `FsError::Busy`).
    pub fn admit(&self, vol: VolumeId) -> FsResult<()> {
        let start = Instant::now();
        let mut waited = false;
        loop {
            let now = Instant::now();
            let sleep_for = {
                let mut buckets = self.buckets.lock();
                let b = buckets
                    .entry(vol.0)
                    .or_insert_with(|| Bucket::new(vol, self.default_cfg, now, &self.registry));
                b.refill(now);
                if b.tokens >= 1.0 {
                    b.tokens -= 1.0;
                    b.ops.inc();
                    b.wait_us.observe(start.elapsed().as_micros() as u64);
                    return Ok(());
                }
                // Time until one whole token has dripped in.
                let deficit = 1.0 - b.tokens;
                let need = Duration::from_secs_f64(deficit / b.cfg.ops_per_sec.max(1e-9));
                if now.duration_since(start) + need > b.cfg.max_wait {
                    b.rejects.inc();
                    return Err(FsError::Busy);
                }
                if !waited {
                    waited = true;
                    b.throttle_waits.inc();
                }
                need
            };
            std::thread::sleep(sleep_for.max(Duration::from_micros(100)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, burst: f64, max_wait_ms: u64) -> QosConfig {
        QosConfig {
            ops_per_sec: rate,
            burst,
            max_wait: Duration::from_millis(max_wait_ms),
        }
    }

    #[test]
    fn burst_admits_instantly_then_rate_limits() {
        let q = QosLimiter::new(cfg(100.0, 5.0, 1_000));
        let v = VolumeId(9);
        let t0 = Instant::now();
        for _ in 0..5 {
            q.admit(v).unwrap();
        }
        assert!(t0.elapsed() < Duration::from_millis(50), "burst is free");
        // The 6th token must drip in at ~10ms.
        q.admit(v).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5), "rate applies");
    }

    #[test]
    fn exhausted_bucket_rejects_with_busy() {
        let q = QosLimiter::new(cfg(0.001, 1.0, 20));
        let v = VolumeId(10);
        q.admit(v).unwrap();
        assert_eq!(q.admit(v).unwrap_err(), FsError::Busy);
    }

    #[test]
    fn volumes_do_not_share_buckets() {
        let q = QosLimiter::new(cfg(0.001, 1.0, 20));
        q.admit(VolumeId(11)).unwrap();
        // Volume 11 is drained; volume 12 still has its own burst.
        q.admit(VolumeId(12)).unwrap();
        assert_eq!(q.admit(VolumeId(11)).unwrap_err(), FsError::Busy);
    }

    #[test]
    fn per_volume_override_takes_effect() {
        let q = QosLimiter::new(cfg(0.001, 1.0, 20));
        let v = VolumeId(13);
        q.set_rate(v, cfg(1_000.0, 50.0, 1_000));
        for _ in 0..50 {
            q.admit(v).unwrap();
        }
    }

    #[test]
    fn admission_records_tenant_metrics() {
        let _scope = cfs_obs::trace::node_scope(880_001);
        let q = QosLimiter::new(cfg(1_000.0, 10.0, 1_000));
        let v = VolumeId(14);
        q.admit(v).unwrap();
        q.admit(v).unwrap();
        let reg = cfs_obs::metrics::node(880_001);
        assert_eq!(reg.counter("tenant.vol14.ops").get(), 2);
    }
}
