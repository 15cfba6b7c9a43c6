//! The host every replicated tier runs on: one Raft group of one state
//! machine, with the tier's RPC services mounted on each replica (the
//! paper's Fig. 5 deploys TafDB shards and FileStore nodes this way).

use std::sync::Arc;
use std::time::Duration;

use cfs_rpc::mux::MuxService;
use cfs_rpc::Network;
use cfs_types::{FsResult, NodeId};

use crate::group::RaftGroup;
use crate::node::{RaftConfig, RaftNode, StateMachine};

/// What a tier supplies to run on a [`ReplicaSet`]: its state machine and
/// the services it serves on each replica.
pub trait Hosted: StateMachine + Sized {
    /// An empty state machine for the replica at `node`; recovery or the
    /// leader's log fills it.
    fn empty(node: NodeId) -> Arc<Self>;

    /// Mounts the tier's services for `node` on its replica's `mux`.
    fn mount(node: &Arc<RaftNode<Self>>, mux: &Arc<MuxService>);
}

/// One replicated group of a tier: a [`RaftGroup`] of `S` replicas, each
/// writing through to its own in-memory storage and serving the tier's
/// services ([`Hosted::mount`]). The storage plays the disk: it survives a
/// crashed node and rebuilds it.
pub struct ReplicaSet<S: Hosted> {
    group: RaftGroup<S>,
}

impl<S: Hosted> ReplicaSet<S> {
    /// Spawns one replica per id in `ids`.
    pub fn spawn(net: &Arc<Network>, ids: &[NodeId], config: RaftConfig) -> ReplicaSet<S> {
        let group = RaftGroup::spawn(net, ids, config, |i| S::empty(ids[i]));
        for (i, node) in group.nodes().iter().enumerate() {
            S::mount(node, &group.mux(i));
        }
        ReplicaSet { group }
    }

    /// The underlying Raft group.
    pub fn raft(&self) -> &RaftGroup<S> {
        &self.group
    }
}

/// What a [`ReplicaSet`] does whatever its tier, so one list can hold the
/// groups of every tier for walks that act on replicas by address (fault
/// injection, healing, shutdown).
pub trait Replicas: Send + Sync {
    /// The replicas' addresses, in replica order.
    fn ids(&self) -> &[NodeId];

    /// Simulates kill −9 of replica `i` ([`RaftGroup::crash_replica`]).
    fn crash_replica(&self, i: usize);

    /// Rebuilds replica `i` after a crash: an empty state machine is
    /// restored from the persisted snapshot and log tail, the tier's
    /// services are mounted afresh, and the address rejoins the network.
    /// Everything in flight on the crashed node (proposals, ReadIndex
    /// rounds, staged lock waits) died with it.
    fn restart_replica(&self, i: usize);

    /// The simulated storage device under replica `i`'s log, for arming
    /// disk-full / torn-write / fsync / bit-rot faults.
    fn replica_faults(&self, i: usize) -> Arc<cfs_wal::FaultFs>;

    /// Extra latency on every replica's log fsync (the `slow_fsync` nemesis
    /// fault); `Duration::ZERO` clears it.
    fn set_fsync_latency(&self, extra: Duration);

    /// The longest Raft log among the replicas.
    fn max_log_len(&self) -> u64;

    /// Blocks until the group has a leader.
    fn wait_ready(&self, timeout: Duration) -> FsResult<()>;

    /// Blocks until one leader commits ([`RaftGroup::wait_quiescent`]).
    fn wait_quiescent(&self, timeout: Duration) -> FsResult<()>;

    /// Stops every replica.
    fn shutdown(&self);
}

impl<S: Hosted> Replicas for ReplicaSet<S> {
    fn ids(&self) -> &[NodeId] {
        self.group.ids()
    }

    fn crash_replica(&self, i: usize) {
        self.group.crash_replica(i);
    }

    fn restart_replica(&self, i: usize) {
        let sm = S::empty(self.group.ids()[i]);
        self.group.restart_replica(i, sm, S::mount);
    }

    fn replica_faults(&self, i: usize) -> Arc<cfs_wal::FaultFs> {
        Arc::clone(self.group.storage(i).faults())
    }

    fn set_fsync_latency(&self, extra: Duration) {
        for i in 0..self.group.ids().len() {
            self.group.storage(i).set_extra_sync_latency(extra);
        }
    }

    fn max_log_len(&self) -> u64 {
        self.group
            .nodes()
            .iter()
            .map(|n| n.log_len())
            .max()
            .unwrap_or(0)
    }

    fn wait_ready(&self, timeout: Duration) -> FsResult<()> {
        self.group.wait_for_leader(timeout).map(|_| ())
    }

    fn wait_quiescent(&self, timeout: Duration) -> FsResult<()> {
        self.group.wait_quiescent(timeout)
    }

    fn shutdown(&self) {
        self.group.shutdown();
    }
}
