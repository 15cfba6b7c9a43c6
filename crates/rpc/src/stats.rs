//! Network traffic counters, backed by the `cfs-obs` metrics registry.
//!
//! [`NetStats`] used to carry its own ad-hoc `AtomicU64` fields; they are
//! now handles into a per-[`Network`] [`Registry`], making the registry the
//! single source of truth while keeping the [`NetSnapshot`] reporting
//! surface (and therefore every `BENCH_*.json` field) byte-compatible.
//! The registry is per-network, not process-global, because one test
//! process routinely boots several clusters whose traffic must not blend.
//!
//! [`Network`]: crate::network::Network

use cfs_obs::metrics::Counter;
use cfs_obs::Registry;
use std::sync::Arc;

/// Monotonic counters describing all traffic that crossed a [`Network`].
///
/// The harness snapshots these before and after a measurement window to
/// report per-operation hop counts (e.g. demonstrating that removing the
/// metadata proxy layer saves one round trip per request, paper §5.7).
///
/// [`Network`]: crate::network::Network
pub struct NetStats {
    registry: Arc<Registry>,
    /// Completed synchronous calls.
    pub(crate) calls: Arc<Counter>,
    /// One-way messages accepted for delivery.
    pub(crate) oneways: Arc<Counter>,
    /// One-way messages dropped by fault injection.
    pub(crate) dropped: Arc<Counter>,
    /// Calls that failed because the destination was dead or partitioned.
    pub(crate) unreachable: Arc<Counter>,
    /// Total payload bytes moved (requests + responses + one-ways).
    pub(crate) bytes: Arc<Counter>,
    /// Completed calls on the Raft channel ([`crate::mux::CH_RAFT`]).
    pub(crate) calls_raft: Arc<Counter>,
    /// Completed calls on the application channel ([`crate::mux::CH_APP`]).
    /// Application reads/resolves travel here, so a `calls_app` delta over a
    /// measurement window divided by the operation count is the hops-per-op
    /// figure the resolution benches report.
    pub(crate) calls_app: Arc<Counter>,
    /// Completed calls on the transaction channel ([`crate::mux::CH_TXN`]).
    pub(crate) calls_txn: Arc<Counter>,
}

impl std::fmt::Debug for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Default for NetStats {
    fn default() -> NetStats {
        let registry = Arc::new(Registry::new());
        NetStats {
            calls: registry.counter("net_calls"),
            oneways: registry.counter("net_oneways"),
            dropped: registry.counter("net_dropped"),
            unreachable: registry.counter("net_unreachable"),
            bytes: registry.counter("net_bytes"),
            calls_raft: registry.counter("net_calls_raft"),
            calls_app: registry.counter("net_calls_app"),
            calls_txn: registry.counter("net_calls_txn"),
            registry,
        }
    }
}

/// A point-in-time copy of [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSnapshot {
    /// Completed synchronous calls.
    pub calls: u64,
    /// One-way messages accepted for delivery.
    pub oneways: u64,
    /// One-way messages dropped by fault injection.
    pub dropped: u64,
    /// Unreachable-destination failures.
    pub unreachable: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Completed calls on the Raft channel.
    pub calls_raft: u64,
    /// Completed calls on the application channel.
    pub calls_app: u64,
    /// Completed calls on the transaction channel.
    pub calls_txn: u64,
}

impl NetStats {
    /// The registry holding these counters (names are `net_*`), for callers
    /// that want to serialize them alongside other observability output.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Takes a consistent-enough snapshot for reporting (individual loads
    /// are relaxed; exactness across counters is not required).
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            calls: self.calls.get(),
            oneways: self.oneways.get(),
            dropped: self.dropped.get(),
            unreachable: self.unreachable.get(),
            bytes: self.bytes.get(),
            calls_raft: self.calls_raft.get(),
            calls_app: self.calls_app.get(),
            calls_txn: self.calls_txn.get(),
        }
    }

    /// Credits one completed call to the per-channel counter selected by the
    /// mux channel byte leading `payload` (see [`crate::mux::frame`]).
    pub(crate) fn count_call_class(&self, payload: &[u8]) {
        match payload.first() {
            Some(&crate::mux::CH_RAFT) => self.calls_raft.inc(),
            Some(&crate::mux::CH_APP) => self.calls_app.inc(),
            Some(&crate::mux::CH_TXN) => self.calls_txn.inc(),
            _ => {}
        }
    }
}

impl NetSnapshot {
    /// Counter-wise difference `self - earlier`, for measurement windows.
    pub fn delta(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            calls: self.calls - earlier.calls,
            oneways: self.oneways - earlier.oneways,
            dropped: self.dropped - earlier.dropped,
            unreachable: self.unreachable - earlier.unreachable,
            bytes: self.bytes - earlier.bytes,
            calls_raft: self.calls_raft - earlier.calls_raft,
            calls_app: self.calls_app - earlier.calls_app,
            calls_txn: self.calls_txn - earlier.calls_txn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let _turn = crate::test_turn::shared();
        let stats = NetStats::default();
        stats.calls.add(10);
        stats.bytes.add(100);
        let a = stats.snapshot();
        stats.calls.add(5);
        stats.bytes.add(80);
        let b = stats.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.calls, 5);
        assert_eq!(d.bytes, 80);
        assert_eq!(d.oneways, 0);
    }

    #[test]
    fn per_class_counters_follow_the_channel_byte() {
        let _turn = crate::test_turn::shared();
        let stats = NetStats::default();
        stats.count_call_class(&[crate::mux::CH_APP, 1, 2]);
        stats.count_call_class(&[crate::mux::CH_APP]);
        stats.count_call_class(&[crate::mux::CH_RAFT, 9]);
        stats.count_call_class(&[crate::mux::CH_TXN, 9]);
        stats.count_call_class(&[0xff, 9]); // unknown channel: uncounted
        stats.count_call_class(&[]);
        let s = stats.snapshot();
        assert_eq!(s.calls_app, 2);
        assert_eq!(s.calls_raft, 1);
        assert_eq!(s.calls_txn, 1);
        let d = s.delta(&NetSnapshot::default());
        assert_eq!(d.calls_app, 2);
    }

    #[test]
    fn registry_is_the_source_of_truth() {
        let _turn = crate::test_turn::shared();
        let stats = NetStats::default();
        stats.calls.add(3);
        stats.count_call_class(&[crate::mux::CH_APP]);
        let text = stats.registry().snapshot().to_text();
        assert!(text.contains("\"net_calls\": 3"));
        assert!(text.contains("\"net_calls_app\": 1"));
    }
}
