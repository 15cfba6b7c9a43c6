//! In-process simulated cluster network.
//!
//! Every arrow in the paper's Figure 5 — client→TafDB, client→FileStore,
//! client→Renamer, proxy→shard, Raft peer traffic — travels through this
//! layer, so RPC hop counts and network costs are measurable and injectable.
//!
//! Two delivery modes are provided:
//!
//! * [`Network::call`] — synchronous request/response. The handler runs on the
//!   *caller's* thread after the simulated request latency, exactly as if the
//!   caller's request had been picked up by one of the server's worker
//!   threads. Server-side contention is therefore physically real (handlers
//!   lock the server's shared state), and the simulated server is
//!   multi-threaded like a production one — there is no artificial
//!   single-dispatcher bottleneck that would distort the scalability curves
//!   this reproduction exists to measure.
//! * [`Network::send`] — one-way asynchronous messages, delivered by a small
//!   background pool after the simulated latency. Raft election and
//!   replication traffic uses this mode, which also allows reordering and
//!   dropping messages for fault-injection tests.
//!
//! Fault injection: nodes can be killed/revived, links partitioned, and a
//! probabilistic drop rate applied to one-way traffic.

pub mod latency;
pub mod mux;
pub mod network;
pub mod rng;
pub mod stats;

pub use latency::SimLatency;
pub use mux::MuxService;
pub use network::{seed_from_env, NetConfig, Network, Service};
pub use rng::SimRng;
pub use stats::NetStats;

/// Turns for the lib's tests. The punctuality tests time real delays on a
/// shared machine, so each takes the lock exclusively and runs alone; every
/// other test holds it shared and runs beside its siblings only.
#[cfg(test)]
pub(crate) mod test_turn {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static TURN: RwLock<()> = RwLock::new(());

    /// A turn beside the other shared ones.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        TURN.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A turn with every other test of the lib held off.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        TURN.write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
