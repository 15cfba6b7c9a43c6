//! Convenience wiring of a full Raft group over a simulated network.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_rpc::mux::{MuxService, CH_RAFT};
use cfs_rpc::Network;
use cfs_types::{FsError, FsResult, NodeId};
use parking_lot::RwLock;

use crate::node::{RaftConfig, RaftNode, Role, StateMachine};
use crate::storage::RaftStorage;

/// A set of [`RaftNode`]s forming one replication group.
///
/// Each node gets a [`MuxService`] registered at its address with the Raft
/// channel mounted; the owning component can mount additional channels
/// (application RPC handlers) via [`RaftGroup::mux`].
///
/// Every replica writes through to its own [`RaftStorage`], so every group
/// supports the crash-restart cycle: [`RaftGroup::crash_replica`] simulates
/// kill −9 (the node object is dropped; only its storage survives, playing
/// the disk) and [`RaftGroup::restart_replica`] builds a replacement node
/// that recovers from that storage and rejoins the group.
pub struct RaftGroup<S: StateMachine> {
    net: Arc<Network>,
    ids: Vec<NodeId>,
    config: RaftConfig,
    storages: Vec<Arc<RaftStorage>>,
    nodes: RwLock<Vec<Arc<RaftNode<S>>>>,
    muxes: RwLock<Vec<Arc<MuxService>>>,
}

impl<S: StateMachine> RaftGroup<S> {
    /// Spawns one node per id in `ids`, building each node's state machine
    /// with `make_sm`, each over a fresh in-memory [`RaftStorage`].
    pub fn spawn(
        net: &Arc<Network>,
        ids: &[NodeId],
        config: RaftConfig,
        make_sm: impl FnMut(usize) -> Arc<S>,
    ) -> RaftGroup<S> {
        let storages: Vec<_> = ids.iter().map(|_| RaftStorage::new_in_memory()).collect();
        Self::spawn_durable(net, ids, config, make_sm, &storages)
    }

    /// Like [`RaftGroup::spawn`], but over the given storages (one per id,
    /// in id order), which may already hold a replica's state.
    pub fn spawn_durable(
        net: &Arc<Network>,
        ids: &[NodeId],
        config: RaftConfig,
        mut make_sm: impl FnMut(usize) -> Arc<S>,
        storages: &[Arc<RaftStorage>],
    ) -> RaftGroup<S> {
        assert!(!ids.is_empty(), "a raft group needs at least one node");
        assert_eq!(storages.len(), ids.len(), "one storage per replica");
        let mut nodes = Vec::new();
        let mut muxes = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
            let node = RaftNode::spawn(
                Arc::clone(net),
                id,
                peers,
                make_sm(i),
                config.clone(),
                Arc::clone(&storages[i]),
            );
            let mux = MuxService::new();
            mux.mount(CH_RAFT, node.service());
            net.register(id, Arc::clone(&mux) as Arc<dyn cfs_rpc::Service>);
            nodes.push(node);
            muxes.push(mux);
        }
        RaftGroup {
            net: Arc::clone(net),
            ids: ids.to_vec(),
            config,
            storages: storages.to_vec(),
            nodes: RwLock::new(nodes),
            muxes: RwLock::new(muxes),
        }
    }

    /// The group's nodes, in id order (a snapshot: a concurrent restart may
    /// replace a slot after this returns).
    pub fn nodes(&self) -> Vec<Arc<RaftNode<S>>> {
        self.nodes.read().clone()
    }

    /// The replicas' addresses, in replica order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The mux registered for node `i`, for mounting application channels.
    pub fn mux(&self, i: usize) -> Arc<MuxService> {
        Arc::clone(&self.muxes.read()[i])
    }

    /// Replica `i`'s durable storage.
    pub fn storage(&self, i: usize) -> &Arc<RaftStorage> {
        &self.storages[i]
    }

    /// Simulates kill −9 of replica `i`: the node is stopped and marked dead
    /// on the network; every in-flight proposal and ReadIndex round it held
    /// is dropped on the floor. Only the replica's [`RaftStorage`] survives.
    pub fn crash_replica(&self, i: usize) {
        let node = Arc::clone(&self.nodes.read()[i]);
        self.net.kill(node.id());
        node.stop();
    }

    /// Rebuilds replica `i` from its storage after [`RaftGroup::crash_replica`]:
    /// spawns a fresh node (with a caller-built, empty state machine that
    /// recovery will restore) and a fresh mux with the Raft channel mounted,
    /// lets `mount` add the application channels, and only then registers
    /// the mux at the replica's address (which also revives it), so the
    /// replica never serves a request before its services exist.
    pub fn restart_replica(
        &self,
        i: usize,
        sm: Arc<S>,
        mount: impl FnOnce(&Arc<RaftNode<S>>, &Arc<MuxService>),
    ) -> Arc<RaftNode<S>> {
        let id = self.ids[i];
        let peers: Vec<NodeId> = self.ids.iter().copied().filter(|&p| p != id).collect();
        let node = RaftNode::spawn(
            Arc::clone(&self.net),
            id,
            peers,
            sm,
            self.config.clone(),
            Arc::clone(&self.storages[i]),
        );
        let mux = MuxService::new();
        mux.mount(CH_RAFT, node.service());
        mount(&node, &mux);
        self.nodes.write()[i] = Arc::clone(&node);
        self.muxes.write()[i] = Arc::clone(&mux);
        self.net.register(id, mux as Arc<dyn cfs_rpc::Service>);
        node
    }

    /// Whether replica `n` believes it leads and is running and reachable:
    /// a crashed or killed leader keeps its role until it hears a higher
    /// term, but serves nothing.
    fn live_leader(&self, n: &RaftNode<S>) -> bool {
        n.role() == Role::Leader && !n.is_stopped() && !self.net.is_dead(n.id())
    }

    /// Returns the current leader node, if any running, reachable member
    /// believes it leads.
    pub fn leader(&self) -> Option<Arc<RaftNode<S>>> {
        self.nodes
            .read()
            .iter()
            .find(|n| self.live_leader(n))
            .cloned()
    }

    /// Blocks until a leader has emerged or `timeout` expires.
    pub fn wait_for_leader(&self, timeout: Duration) -> FsResult<Arc<RaftNode<S>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(l) = self.leader() {
                return Ok(l);
            }
            if Instant::now() >= deadline {
                return Err(FsError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Proposes through whichever node currently leads, following redirect
    /// hints and retrying transient failures until `timeout`.
    pub fn propose(&self, cmd: Vec<u8>, timeout: Duration) -> FsResult<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut target = 0usize;
        loop {
            // Re-snapshot each attempt so a restarted replica is picked up.
            let nodes = self.nodes();
            let node = &nodes[target % nodes.len()];
            match node.propose(cmd.clone()) {
                Ok(resp) => return Ok(resp),
                Err(FsError::NotLeader(hint)) => {
                    if let Some(h) = hint.and_then(|h| nodes.iter().position(|n| n.id().0 == h)) {
                        target = h;
                    } else {
                        target += 1;
                    }
                }
                Err(e) if e.is_retryable() => target += 1,
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(FsError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Blocks until the group has converged on a *single* leader that can
    /// commit, by committing a no-op barrier and then requiring exactly one
    /// running, reachable node to claim the role. After a kill or partition
    /// heals, the deposed leader keeps claiming leadership — and serving
    /// stale leader-local reads — until a higher-term message reaches it;
    /// waiting out that window is what makes a subsequent read
    /// linearizable.
    pub fn wait_quiescent(&self, timeout: Duration) -> FsResult<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let step = deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(500));
            if self.propose(Vec::new(), step).is_ok() {
                let claimants = self
                    .nodes
                    .read()
                    .iter()
                    .filter(|n| self.live_leader(n))
                    .count();
                if claimants == 1 {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(FsError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops every node in the group.
    pub fn shutdown(&self) {
        for n in self.nodes.read().iter() {
            n.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_rpc::NetConfig;
    use parking_lot::Mutex;

    /// Test state machine: appends applied commands to a vector.
    struct RecorderSm {
        applied: Mutex<Vec<(u64, Vec<u8>)>>,
    }

    impl RecorderSm {
        fn new() -> Arc<RecorderSm> {
            Arc::new(RecorderSm {
                applied: Mutex::new(Vec::new()),
            })
        }
    }

    impl StateMachine for RecorderSm {
        fn apply(&self, index: u64, cmd: &[u8]) -> Vec<u8> {
            self.applied.lock().push((index, cmd.to_vec()));
            // Echo the command back as the response.
            cmd.to_vec()
        }
    }

    fn ids(base: u32, n: usize) -> Vec<NodeId> {
        (0..n as u32).map(|i| NodeId(base + i)).collect()
    }

    fn fast_config() -> RaftConfig {
        RaftConfig {
            election_timeout_min: Duration::from_millis(50),
            election_timeout_max: Duration::from_millis(120),
            heartbeat_interval: Duration::from_millis(15),
            ..Default::default()
        }
    }

    #[test]
    fn single_node_group_commits_immediately() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(10, 1), fast_config(), |_| RecorderSm::new());
        let leader = group.leader().expect("single node leads instantly");
        let resp = leader.propose(b"hello".to_vec()).unwrap();
        assert_eq!(resp, b"hello");
        group.shutdown();
    }

    #[test]
    fn three_node_group_elects_and_replicates() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(20, 3), fast_config(), |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        for i in 0..20u32 {
            let resp = leader.propose(i.to_be_bytes().to_vec()).unwrap();
            assert_eq!(resp, i.to_be_bytes().to_vec());
        }
        // All replicas converge on the same applied sequence.
        std::thread::sleep(Duration::from_millis(300));
        let logs: Vec<Vec<(u64, Vec<u8>)>> = group
            .nodes()
            .iter()
            .map(|n| n.state_machine().applied.lock().clone())
            .collect();
        for log in &logs {
            assert_eq!(log.len(), 20, "every replica applies all commands");
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        group.shutdown();
    }

    /// Snapshot-capable test state machine: counts applied commands and folds
    /// (index, cmd) into an order-sensitive digest, so two machines are
    /// replay-equivalent iff `(count, digest)` match. The snapshot is exactly
    /// that pair — tiny, but it exercises every code path a real image does.
    struct CountSm {
        state: Mutex<(u64, u64)>,
        /// Microseconds every apply takes: makes a replica slow on demand.
        apply_delay_us: std::sync::atomic::AtomicU64,
    }

    impl CountSm {
        fn new() -> Arc<CountSm> {
            Arc::new(CountSm {
                state: Mutex::new((0, 0)),
                apply_delay_us: std::sync::atomic::AtomicU64::new(0),
            })
        }

        fn count(&self) -> u64 {
            self.state.lock().0
        }

        fn digest(&self) -> u64 {
            self.state.lock().1
        }
    }

    impl StateMachine for CountSm {
        fn apply(&self, index: u64, cmd: &[u8]) -> Vec<u8> {
            let delay = self
                .apply_delay_us
                .load(std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(delay));
            let mut st = self.state.lock();
            st.0 += 1;
            let mut h = st.1 ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &b in cmd {
                h = h.wrapping_mul(1_099_511_628_211).wrapping_add(u64::from(b));
            }
            st.1 = h;
            h.to_be_bytes().to_vec()
        }

        fn snapshot(&self) -> Option<Vec<u8>> {
            let st = self.state.lock();
            let mut buf = st.0.to_be_bytes().to_vec();
            buf.extend_from_slice(&st.1.to_be_bytes());
            Some(buf)
        }

        fn restore(&self, snap: &[u8]) {
            let mut st = self.state.lock();
            st.0 = u64::from_be_bytes(snap[..8].try_into().unwrap());
            st.1 = u64::from_be_bytes(snap[8..16].try_into().unwrap());
        }
    }

    fn compacting_config(threshold: u64) -> RaftConfig {
        RaftConfig {
            snapshot_threshold: threshold,
            ..fast_config()
        }
    }

    #[test]
    fn log_compaction_bounds_growth_and_is_observable() {
        // With a snapshot-capable state machine and a threshold, the log is
        // truncated behind each snapshot: growth stays bounded and the
        // compactions are visible through accessors and exported metrics.
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(910, 1), compacting_config(10), |_| {
            CountSm::new()
        });
        let leader = group.leader().expect("single node leads instantly");
        for i in 0..50u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
            assert!(
                leader.log_len() <= 10,
                "log must stay bounded by the snapshot threshold"
            );
        }
        assert_eq!(leader.snapshot_index(), 50, "last compaction at applied=50");
        assert_eq!(leader.log_len(), 0);
        assert_eq!(leader.apply_lag(), 0, "single replica applies at commit");
        assert_eq!(leader.state_machine().count(), 50);

        let reg = cfs_obs::metrics::node(leader.id().0 as u64);
        assert_eq!(reg.gauge("raft_log_len").get(), 0);
        assert_eq!(reg.gauge("raft_apply_lag").get(), 0);
        assert_eq!(reg.counter("raft_log_truncations").get(), 5);
        assert_eq!(reg.histogram_snapshot("raft_snapshot_ns").count, 5);
        let propose = reg.histogram_snapshot("raft_propose_apply_ns");
        assert_eq!(propose.count, 50, "propose→apply latency recorded per op");
        assert!(propose.quantile(0.99) > 0);
        assert_eq!(reg.histogram_snapshot("raft_apply_ns").count, 50);
        group.shutdown();
    }

    #[test]
    fn truncation_never_drops_unapplied_entries() {
        // The compaction point is always the applied index, taken under the
        // same lock as apply — so no replica can ever truncate an entry it
        // has not applied, and all replicas converge to identical state.
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(920, 3), compacting_config(5), |_| CountSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        for i in 0..40u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
            for n in group.nodes() {
                assert!(
                    n.snapshot_index() <= n.applied_index(),
                    "node {:?} compacted past its applied index",
                    n.id()
                );
            }
        }
        std::thread::sleep(Duration::from_millis(300));
        let states: Vec<(u64, u64)> = group
            .nodes()
            .iter()
            .map(|n| (n.state_machine().count(), n.state_machine().digest()))
            .collect();
        for (count, _) in &states {
            assert_eq!(*count, 40, "every replica applies every command");
        }
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        for n in group.nodes() {
            assert!(n.snapshot_index() > 0, "compaction ran on {:?}", n.id());
            assert!(n.log_len() <= 5 + 1, "log stayed bounded on {:?}", n.id());
        }
        group.shutdown();
    }

    #[test]
    fn install_snapshot_converges_lagging_replica() {
        // A follower that misses enough traffic for the leader to compact
        // past it can no longer catch up entry-by-entry; the leader streams
        // its snapshot instead and resumes normal append behind it.
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(930, 3), compacting_config(5), |_| CountSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let lagger = group
            .nodes()
            .into_iter()
            .find(|n| n.id() != leader.id())
            .unwrap();
        net.kill(lagger.id());
        for i in 0..30u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        assert!(
            leader.snapshot_index() >= 25,
            "leader compacted while peer lagged"
        );
        net.revive(lagger.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        while lagger.state_machine().count() < 30 {
            assert!(Instant::now() < deadline, "lagging replica never converged");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            lagger.state_machine().digest(),
            leader.state_machine().digest()
        );
        assert!(
            lagger.snapshot_index() > 0,
            "catch-up went through InstallSnapshot, not replay from index 1"
        );
        group.shutdown();
    }

    #[test]
    fn fresh_empty_replica_converges_via_install_snapshot() {
        // A replica that crashes with empty storage and restarts after the
        // leader compacted rejoins with *nothing* — recovery finds no
        // snapshot and no log — and must be brought up by InstallSnapshot.
        let net = Network::new(NetConfig::default());
        let storages: Vec<_> = (0..3).map(|_| RaftStorage::new_in_memory()).collect();
        let group = RaftGroup::spawn_durable(
            &net,
            &ids(940, 3),
            compacting_config(5),
            |_| CountSm::new(),
            &storages,
        );
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let victim = group
            .nodes()
            .iter()
            .position(|n| n.id() != leader.id())
            .unwrap();
        group.crash_replica(victim);
        // Wipe the victim's disk: restart must behave like a brand-new node.
        storages[victim]
            .reset_to_snapshot(0, 0, Vec::new())
            .expect("wipe victim storage");
        storages[victim].truncate_from(1);
        for i in 0..30u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        let fresh = group.restart_replica(victim, CountSm::new(), |_, _| {});
        let deadline = Instant::now() + Duration::from_secs(10);
        while fresh.state_machine().count() < 30 {
            assert!(Instant::now() < deadline, "fresh replica never converged");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            fresh.state_machine().digest(),
            leader.state_machine().digest()
        );
        assert!(
            fresh.snapshot_index() >= 25,
            "state arrived via InstallSnapshot"
        );
        group.shutdown();
    }

    #[test]
    fn crash_restart_recovers_from_wal_and_snapshot() {
        // Single-node durable group: kill −9 drops the node, restart rebuilds
        // it from snapshot + WAL tail. The recovered machine must be
        // replay-equivalent to the pre-crash one (digest-identical), resume
        // at the same commit index, and keep serving proposals.
        let net = Network::new(NetConfig::default());
        let storages = vec![RaftStorage::new_in_memory()];
        let group = RaftGroup::spawn_durable(
            &net,
            &ids(950, 1),
            compacting_config(8),
            |_| CountSm::new(),
            &storages,
        );
        let leader = group.leader().expect("single node leads instantly");
        for i in 0..20u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        let digest = leader.state_machine().digest();
        let commit = leader.commit_index();
        assert_eq!(leader.snapshot_index(), 16, "snapshots at 8 and 16");
        group.crash_replica(0);

        let node = group.restart_replica(0, CountSm::new(), |_, _| {});
        assert_eq!(
            node.state_machine().count(),
            20,
            "snapshot + WAL tail replayed"
        );
        assert_eq!(
            node.state_machine().digest(),
            digest,
            "replay-equivalent state"
        );
        assert_eq!(node.commit_index(), commit, "commit floor recovered");
        assert_eq!(node.snapshot_index(), 16);
        assert_eq!(
            node.log_len(),
            4,
            "only the tail past the snapshot retained"
        );
        let reg = cfs_obs::metrics::node(node.id().0 as u64);
        assert_eq!(
            reg.gauge("raft_log_len").get(),
            4,
            "gauges re-derived at restart"
        );
        let resp = node.propose(b"after-restart".to_vec()).unwrap();
        assert!(!resp.is_empty());
        assert_eq!(node.state_machine().count(), 21);
        group.shutdown();
    }

    #[test]
    fn follower_crash_restart_rejoins_and_converges() {
        // Three-replica crash-restart: a follower is killed mid-stream,
        // restarts from its own storage, and re-learns the missed suffix
        // from the leader (by append or snapshot, whichever the leader's
        // compaction state requires).
        let net = Network::new(NetConfig::default());
        let storages: Vec<_> = (0..3).map(|_| RaftStorage::new_in_memory()).collect();
        let group = RaftGroup::spawn_durable(
            &net,
            &ids(960, 3),
            compacting_config(6),
            |_| CountSm::new(),
            &storages,
        );
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        for i in 0..10u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        let victim = group
            .nodes()
            .iter()
            .position(|n| n.id() != leader.id())
            .unwrap();
        group.crash_replica(victim);
        for i in 10..25u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        let node = group.restart_replica(victim, CountSm::new(), |_, _| {});
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.state_machine().count() < 25 {
            assert!(
                Instant::now() < deadline,
                "restarted follower never converged"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            node.state_machine().digest(),
            leader.state_machine().digest()
        );
        group.shutdown();
    }

    /// Durable 3-node group with one follower kill −9'd and the leader
    /// compacted well past it: the canonical setup for interrupting the
    /// `InstallSnapshot` catch-up at a chosen protocol step. Returns the
    /// group plus the leader's and the lagging follower's replica indexes.
    fn interrupted_snapshot_setup(base: u32) -> (RaftGroup<CountSm>, usize, usize) {
        let net = Network::new(NetConfig::default());
        let storages: Vec<_> = (0..3).map(|_| RaftStorage::new_in_memory()).collect();
        let group = RaftGroup::spawn_durable(
            &net,
            &ids(base, 3),
            compacting_config(5),
            |_| CountSm::new(),
            &storages,
        );
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let leader_idx = group
            .nodes()
            .iter()
            .position(|n| n.id() == leader.id())
            .unwrap();
        let victim_idx = (leader_idx + 1) % 3;
        group.crash_replica(victim_idx);
        for i in 0..30u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        assert!(
            leader.snapshot_index() >= 25,
            "leader compacted while the follower was down"
        );
        (group, leader_idx, victim_idx)
    }

    /// Blocks until every replica applied exactly `want` commands with
    /// identical digests — the "no lost entries" convergence oracle for the
    /// interruption tests.
    fn wait_converged(group: &RaftGroup<CountSm>, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let nodes = group.nodes();
            if nodes.iter().all(|n| n.state_machine().count() == want) {
                let d0 = nodes[0].state_machine().digest();
                for n in &nodes {
                    assert_eq!(
                        n.state_machine().digest(),
                        d0,
                        "replica {:?} diverged after the interruption",
                        n.id()
                    );
                }
                return;
            }
            assert!(
                Instant::now() < deadline,
                "group never converged to {want} applied commands (got {:?})",
                nodes
                    .iter()
                    .map(|n| n.state_machine().count())
                    .collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn install_snapshot_interrupted_before_send_converges() {
        // The leader dies before the lagging follower ever revives: the
        // interruption lands before any InstallSnapshot is sent, so the
        // catch-up must start from scratch under whichever leader emerges.
        let (group, leader_idx, victim_idx) = interrupted_snapshot_setup(600);
        group.crash_replica(leader_idx);
        group.restart_replica(leader_idx, CountSm::new(), |_, _| {});
        group.restart_replica(victim_idx, CountSm::new(), |_, _| {});
        group.wait_for_leader(Duration::from_secs(10)).unwrap();
        for i in 30..33u32 {
            group
                .propose(i.to_be_bytes().to_vec(), Duration::from_secs(10))
                .unwrap();
        }
        wait_converged(&group, 33);
        assert!(
            group.nodes()[victim_idx].snapshot_index() >= 25,
            "the lagging follower must have been caught up by InstallSnapshot"
        );
        group.shutdown();
    }

    #[test]
    fn install_snapshot_interrupted_mid_transfer_converges() {
        // The follower revives, the leader opens the catch-up, and is
        // kill −9'd a beat later: the snapshot message and/or its ack die in
        // flight. The restarted leader (or a successor) must finish the job.
        let (group, leader_idx, victim_idx) = interrupted_snapshot_setup(610);
        group.restart_replica(victim_idx, CountSm::new(), |_, _| {});
        std::thread::sleep(Duration::from_millis(10));
        group.crash_replica(leader_idx);
        std::thread::sleep(Duration::from_millis(30));
        group.restart_replica(leader_idx, CountSm::new(), |_, _| {});
        group.wait_for_leader(Duration::from_secs(10)).unwrap();
        for i in 30..33u32 {
            group
                .propose(i.to_be_bytes().to_vec(), Duration::from_secs(10))
                .unwrap();
        }
        wait_converged(&group, 33);
        assert!(
            group.nodes()[victim_idx].snapshot_index() >= 25,
            "the lagging follower must have been caught up by InstallSnapshot"
        );
        group.shutdown();
    }

    #[test]
    fn install_snapshot_interrupted_after_restore_before_ack_converges() {
        // The follower finishes restoring the image, and the leader dies at
        // that instant — the ack may be processed, in flight, or lost. The
        // restarted leader must re-probe the follower's progress and resume
        // plain appends without re-installing or double-applying.
        let (group, leader_idx, victim_idx) = interrupted_snapshot_setup(620);
        group.restart_replica(victim_idx, CountSm::new(), |_, _| {});
        let deadline = Instant::now() + Duration::from_secs(10);
        while group.nodes()[victim_idx].snapshot_index() < 25 {
            assert!(Instant::now() < deadline, "follower never restored");
            std::thread::sleep(Duration::from_millis(2));
        }
        group.crash_replica(leader_idx);
        std::thread::sleep(Duration::from_millis(30));
        group.restart_replica(leader_idx, CountSm::new(), |_, _| {});
        group.wait_for_leader(Duration::from_secs(10)).unwrap();
        for i in 30..33u32 {
            group
                .propose(i.to_be_bytes().to_vec(), Duration::from_secs(10))
                .unwrap();
        }
        wait_converged(&group, 33);
        group.shutdown();
    }

    /// State machine whose restore transits an observable mid-restore
    /// marker, modeling what a real image load (reset + bulk put) exposes:
    /// any reader whose closure overlaps the restore would see the marker.
    struct TornSm {
        val: std::sync::atomic::AtomicU64,
    }

    const TORN: u64 = u64::MAX;

    impl TornSm {
        fn new() -> Arc<TornSm> {
            Arc::new(TornSm {
                val: std::sync::atomic::AtomicU64::new(0),
            })
        }

        fn get(&self) -> u64 {
            self.val.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl StateMachine for TornSm {
        fn apply(&self, index: u64, _cmd: &[u8]) -> Vec<u8> {
            self.val.store(index, std::sync::atomic::Ordering::SeqCst);
            Vec::new()
        }

        fn snapshot(&self) -> Option<Vec<u8>> {
            Some(self.get().to_be_bytes().to_vec())
        }

        fn restore(&self, snap: &[u8]) {
            let v = u64::from_be_bytes(snap[..8].try_into().unwrap());
            self.val.store(TORN, std::sync::atomic::Ordering::SeqCst);
            // Widen the wipe-to-reload window the way a bulk reload does.
            std::thread::sleep(Duration::from_millis(2));
            self.val.store(v, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn readers_never_observe_a_torn_snapshot_restore() {
        // The divergence this pins down: a killed leader revives still
        // believing it leads, a leader-local read passes the role check,
        // and the new leader's InstallSnapshot restores the state machine
        // *while the reader's closure is running* — without the sm_gate the
        // reader observes the half-restored machine. Cycle leadership with
        // compaction enabled and hammer leader-local reads throughout; no
        // read may ever return the mid-restore marker.
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(980, 3), compacting_config(5), |_| TornSm::new());
        group.wait_for_leader(Duration::from_secs(5)).unwrap();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let nodes = group.nodes();
        std::thread::scope(|scope| {
            for node in &nodes {
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // The sleep inside the closure models a long resolve
                        // walk (and the OS preemption that widens the race).
                        if let Ok((a, b)) = node.read(|sm| {
                            let a = sm.get();
                            std::thread::sleep(Duration::from_millis(2));
                            (a, sm.get())
                        }) {
                            assert_ne!(a, TORN, "reader saw a half-restored machine");
                            assert_ne!(b, TORN, "reader saw a half-restored machine");
                        }
                    }
                });
            }

            for _ in 0..3 {
                let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
                net.kill(leader.id());
                let deadline = Instant::now() + Duration::from_secs(10);
                let successor = loop {
                    assert!(Instant::now() < deadline, "no successor elected");
                    if let Some(l) = nodes
                        .iter()
                        .find(|n| n.id() != leader.id() && n.role() == Role::Leader)
                    {
                        break l.clone();
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                // Outrun the dead leader by more than the snapshot threshold
                // so its revival is served by InstallSnapshot, then revive it
                // into the readers' crossfire.
                for i in 0..20u32 {
                    if successor.propose(i.to_be_bytes().to_vec()).is_err() {
                        // A re-election mid-burst is fine; the cycle only
                        // needs the group to compact past the dead leader.
                        break;
                    }
                }
                net.revive(leader.id());
                let deadline = Instant::now() + Duration::from_secs(10);
                while leader.snapshot_index() < successor.snapshot_index() {
                    assert!(Instant::now() < deadline, "revived leader never caught up");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        group.shutdown();
    }

    /// State machine whose one command writes two fields with a pause in
    /// between: a reader that overlaps an apply sees them differ.
    #[derive(Default)]
    struct TwoFieldSm {
        a: std::sync::atomic::AtomicU64,
        b: std::sync::atomic::AtomicU64,
    }

    impl StateMachine for TwoFieldSm {
        fn apply(&self, index: u64, _cmd: &[u8]) -> Vec<u8> {
            self.a.store(index, std::sync::atomic::Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            self.b.store(index, std::sync::atomic::Ordering::SeqCst);
            Vec::new()
        }
    }

    #[test]
    fn readers_never_observe_a_half_applied_command() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(1200, 1), fast_config(), |_| {
            Arc::new(TwoFieldSm::default())
        });
        let node = group.leader().unwrap();
        let (stop, reads) = (AtomicBool::new(false), AtomicU64::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(SeqCst) {
                    let (a, b) = node
                        .read(|sm| (sm.a.load(SeqCst), sm.b.load(SeqCst)))
                        .unwrap();
                    assert_eq!(a, b, "reader saw a half-applied command");
                    reads.fetch_add(1, SeqCst);
                }
            });
            for _ in 0..200 {
                node.propose(vec![1]).unwrap();
            }
            stop.store(true, SeqCst);
        });
        assert!(reads.load(SeqCst) > 0, "the reader ran beside the applies");
        group.shutdown();
    }

    #[test]
    fn follower_commits_only_what_the_append_verified() {
        // Raft's receiver rule 5. The follower holds [1:t1, 2:t1, 3:t1],
        // where entry 3 is a stale tail no leader of term 2 sent it. An
        // append that verifies entry 1 alone, carrying leader_commit 3,
        // commits through 1 — never the unverified tail.
        use crate::msg::{Envelope, LogEntry, RaftMsg};
        use cfs_types::codec::Encode;
        let entry = |cmd: &[u8]| LogEntry {
            term: 1,
            cmd: cmd.to_vec(),
        };
        let storage = RaftStorage::new_in_memory();
        storage
            .append(1, &[entry(b"one"), entry(b"two"), entry(b"stale")])
            .unwrap();
        storage.save_hard_state(1, None);
        let net = Network::new(NetConfig::default());
        let (leader, follower) = (NodeId(1210), NodeId(1211));
        let config = RaftConfig {
            election_timeout_min: Duration::from_secs(30),
            election_timeout_max: Duration::from_secs(60),
            ..fast_config()
        };
        let sm = RecorderSm::new();
        let node = RaftNode::spawn(
            net,
            follower,
            vec![leader],
            Arc::clone(&sm),
            config,
            storage,
        );
        let msg = RaftMsg::AppendEntries {
            term: 2,
            prev_index: 0,
            prev_term: 0,
            entries: vec![entry(b"one")],
            leader_commit: 3,
        };
        node.service()
            .handle(leader, &Envelope { from: leader, msg }.to_bytes());
        assert_eq!(node.commit_index(), 1);
        assert_eq!(*sm.applied.lock(), vec![(1, b"one".to_vec())]);
        node.stop();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Property: for any (threshold, op count), a compacting single-node
        /// group ends in exactly the state a non-compacting replay produces.
        #[test]
        fn compaction_is_replay_equivalent_to_full_replay(
            threshold in 1u64..12,
            ops in 1u64..60,
        ) {
            let reference = CountSm::new();
            for i in 0..ops {
                reference.apply(i + 1, &(i as u32).to_be_bytes());
            }
            let net = Network::new(NetConfig::default());
            let group =
                RaftGroup::spawn(&net, &ids(970, 1), compacting_config(threshold), |_| {
                    CountSm::new()
                });
            let leader = group.leader().unwrap();
            for i in 0..ops {
                leader.propose((i as u32).to_be_bytes().to_vec()).unwrap();
            }
            let sm = leader.state_machine();
            prop_assert_eq!(sm.count(), reference.count());
            prop_assert_eq!(sm.digest(), reference.digest());
            prop_assert!(leader.log_len() < threshold.max(1));
            group.shutdown();
        }
    }

    /// The network the benchmark and the figure benches run on: a 25 µs hop,
    /// four one-way workers.
    fn hop_net() -> Arc<Network> {
        Network::new(NetConfig {
            hop_latency: cfs_rpc::SimLatency::fixed(Duration::from_micros(25)),
            oneway_workers: 4,
            ..NetConfig::default()
        })
    }

    #[test]
    fn one_proposer_commits_in_four_messages() {
        // AppendEntries to two followers and their two acks — nothing is
        // shipped twice, even though the slower follower's ack usually finds
        // the next entry already appended. Heartbeats are rare enough here
        // (200 ms) to stay inside the tolerance.
        let net = hop_net();
        let config = RaftConfig {
            election_timeout_min: Duration::from_millis(600),
            election_timeout_max: Duration::from_millis(1200),
            heartbeat_interval: Duration::from_millis(200),
            ..Default::default()
        };
        let group = RaftGroup::spawn(&net, &ids(1100, 3), config, |_| CountSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(10)).unwrap();
        for _ in 0..20 {
            leader.propose(vec![0u8; 64]).unwrap();
        }
        let before = net.stats().snapshot();
        let commits = 2000;
        for _ in 0..commits {
            leader.propose(vec![0u8; 64]).unwrap();
        }
        let d = net.stats().snapshot().delta(&before);
        let per_commit = (d.calls + d.oneways) as f64 / commits as f64;
        assert!(
            (3.9..=4.1).contains(&per_commit),
            "{per_commit:.2} messages per commit"
        );
        group.shutdown();
    }

    #[test]
    fn lossy_network_commits_every_proposal() {
        // An ack never re-ships anything, so a lost AppendEntries (or a lost
        // ack) is recovered by the heartbeat alone: with one message in five
        // dropped, every proposal still has to commit.
        let net = hop_net();
        let config = RaftConfig {
            heartbeat_interval: Duration::from_millis(5),
            ..Default::default()
        };
        let group = RaftGroup::spawn(&net, &ids(1110, 3), config, |_| CountSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        net.set_drop_rate(0.2);
        for i in 0..500u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        assert!(net.stats().snapshot().dropped > 100, "messages were lost");
        net.set_drop_rate(0.0);
        wait_converged(&group, 500);
        group.shutdown();
    }

    #[test]
    fn compaction_overtaking_in_flight_entries_falls_back_to_snapshot() {
        // One follower applies slowly, so its acks lag while the leader
        // commits through the other one and compacts every four entries: by
        // the time an ack arrives, the entries that would follow it are
        // behind the leader's snapshot. The leader must stream the snapshot,
        // not build an AppendEntries whose previous entry is gone.
        let net = hop_net();
        let group = RaftGroup::spawn(&net, &ids(1120, 3), compacting_config(4), |_| {
            CountSm::new()
        });
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let slow = group
            .nodes()
            .into_iter()
            .find(|n| n.id() != leader.id())
            .unwrap();
        slow.state_machine()
            .apply_delay_us
            .store(3_000, std::sync::atomic::Ordering::Relaxed);
        for i in 0..60u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        slow.state_machine()
            .apply_delay_us
            .store(0, std::sync::atomic::Ordering::Relaxed);
        wait_converged(&group, 60);
        let restores = cfs_obs::metrics::node(slow.id().0 as u64)
            .histogram("raft_restore_ns")
            .count();
        assert!(restores > 0, "the slow follower caught up by snapshot");
        group.shutdown();
    }

    #[test]
    fn follower_less_than_a_threshold_behind_catches_up_by_append() {
        // A follower misses a few entries just as the leader reaches its
        // snapshot threshold. Compacting under it would turn those entries
        // into a whole-state transfer (and skip their applies on it); the
        // leader holds the compaction until the follower has them.
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(1140, 3), compacting_config(10), |_| {
            CountSm::new()
        });
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let lagger = group
            .nodes()
            .into_iter()
            .find(|n| n.id() != leader.id())
            .unwrap();
        for i in 0..5u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        net.kill(lagger.id());
        for i in 5..15u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        assert_eq!(leader.snapshot_index(), 0, "compaction is on hold");
        net.revive(lagger.id());
        wait_converged(&group, 15);
        let restores = cfs_obs::metrics::node(lagger.id().0 as u64)
            .histogram("raft_restore_ns")
            .count();
        assert_eq!(restores, 0, "the follower was sent a snapshot");
        // Its ack ends the wait.
        let deadline = Instant::now() + Duration::from_secs(5);
        while leader.snapshot_index() < 10 {
            assert!(Instant::now() < deadline, "leader never compacted");
            std::thread::sleep(Duration::from_millis(5));
        }
        group.shutdown();
    }

    #[test]
    fn deposed_leader_inline_sends_are_harmless() {
        // A leader cut off from its group keeps its role until it hears a
        // higher term. Healed, its next `propose` ships AppendEntries of the
        // stale term straight from the proposing thread; followers must nack
        // them, the proposal must fail, and the entry must never apply.
        let net = hop_net();
        let config = RaftConfig {
            election_timeout_min: Duration::from_millis(300),
            election_timeout_max: Duration::from_millis(600),
            heartbeat_interval: Duration::from_millis(100),
            ..Default::default()
        };
        let group = RaftGroup::spawn(&net, &ids(1130, 3), config, |_| CountSm::new());
        let old = group.wait_for_leader(Duration::from_secs(10)).unwrap();
        for i in 0..3u32 {
            old.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        let rest: Vec<NodeId> = ids(1130, 3)
            .into_iter()
            .filter(|&n| n != old.id())
            .collect();
        net.partition(vec![vec![old.id()], rest]);
        let deadline = Instant::now() + Duration::from_secs(10);
        let new = loop {
            let claimant = group
                .nodes()
                .into_iter()
                .find(|n| n.id() != old.id() && n.role() == Role::Leader);
            if let Some(n) = claimant {
                break n;
            }
            assert!(Instant::now() < deadline, "majority side never elected");
            std::thread::sleep(Duration::from_millis(5));
        };
        for i in 3..6u32 {
            new.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        assert_eq!(old.role(), Role::Leader, "deposed, but not told yet");
        net.heal();
        let stale = old.propose(b"stale".to_vec());
        assert!(
            matches!(stale, Err(FsError::NotLeader(_))),
            "stale-term proposal must fail, got {stale:?}"
        );
        // Exactly the six committed commands everywhere: the stale entry was
        // overwritten, not applied.
        wait_converged(&group, 6);
        assert_eq!(old.role(), Role::Follower);
        group.shutdown();
    }

    #[test]
    fn leader_failover_preserves_committed_entries() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(30, 3), fast_config(), |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        for i in 0..5u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        // Kill the leader; a new one must emerge and accept proposals.
        net.kill(leader.id());
        let deadline = Instant::now() + Duration::from_secs(10);
        let new_leader = loop {
            if let Some(l) = group
                .nodes()
                .iter()
                .find(|n| n.id() != leader.id() && n.role() == Role::Leader)
            {
                break l.clone();
            }
            assert!(Instant::now() < deadline, "no new leader elected");
            std::thread::sleep(Duration::from_millis(10));
        };
        let resp = new_leader.propose(b"after-failover".to_vec()).unwrap();
        assert_eq!(resp, b"after-failover");
        // The new leader's applied log contains all five old entries first.
        let applied = new_leader.state_machine().applied.lock().clone();
        let cmds: Vec<Vec<u8>> = applied.iter().map(|(_, c)| c.clone()).collect();
        for i in 0..5u32 {
            assert!(
                cmds.contains(&i.to_be_bytes().to_vec()),
                "committed entry {i} lost in failover"
            );
        }
        group.shutdown();
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(40, 3), fast_config(), |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        // Isolate the leader alone; its proposals must not commit.
        let others: Vec<NodeId> = group
            .nodes()
            .iter()
            .map(|n| n.id())
            .filter(|&n| n != leader.id())
            .collect();
        net.partition(vec![vec![leader.id()], others.clone()]);
        let quick = RaftConfig {
            propose_timeout: Duration::from_millis(300),
            ..fast_config()
        };
        let _ = quick; // The old leader still uses its original timeout.
        let res = leader.propose(b"doomed".to_vec());
        assert!(
            res.is_err(),
            "proposal in minority partition must not commit"
        );
        // Majority side elects a new leader and commits.
        let deadline = Instant::now() + Duration::from_secs(10);
        let new_leader = loop {
            if let Some(l) = group
                .nodes()
                .iter()
                .find(|n| others.contains(&n.id()) && n.role() == Role::Leader)
            {
                break l.clone();
            }
            assert!(Instant::now() < deadline, "majority side failed to elect");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(new_leader.propose(b"works".to_vec()).is_ok());
        // After healing, the old leader steps down and converges.
        net.heal();
        std::thread::sleep(Duration::from_millis(500));
        let applied = leader.state_machine().applied.lock().clone();
        assert!(
            applied.iter().any(|(_, c)| c == b"works"),
            "healed node must catch up with majority history"
        );
        assert!(
            !applied.iter().any(|(_, c)| c == b"doomed"),
            "uncommitted minority entry must be discarded"
        );
        group.shutdown();
    }

    #[test]
    fn follower_read_index_sees_committed_writes() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(70, 3), fast_config(), |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        for i in 0..5u32 {
            leader.propose(i.to_be_bytes().to_vec()).unwrap();
        }
        // Every replica — follower or leader — serves the full committed
        // prefix through read_index, with no settle-down sleep: the protocol
        // itself waits for the local apply to pass the leader's commit index.
        for node in group.nodes() {
            let seen = node
                .read_index(|sm| sm.applied.lock().len())
                .expect("read_index on a healthy group");
            assert_eq!(seen, 5, "node {:?} served a stale read", node.id());
        }
        group.shutdown();
    }

    #[test]
    fn single_node_read_index_completes_immediately() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(80, 1), fast_config(), |_| RecorderSm::new());
        let leader = group.leader().expect("single node leads instantly");
        leader.propose(b"x".to_vec()).unwrap();
        let n = leader.read_index(|sm| sm.applied.lock().len()).unwrap();
        assert_eq!(n, 1);
        group.shutdown();
    }

    #[test]
    fn deposed_leader_read_index_fails_instead_of_serving_stale() {
        let net = Network::new(NetConfig::default());
        let config = RaftConfig {
            // Keep the reproduction fast: the deposed leader's confirmation
            // round gives up after this long.
            propose_timeout: Duration::from_millis(400),
            ..fast_config()
        };
        let group = RaftGroup::spawn(&net, &ids(90, 3), config, |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        leader.propose(b"old".to_vec()).unwrap();
        // Isolate the old leader; the majority side moves on and commits.
        let others: Vec<NodeId> = group
            .nodes()
            .iter()
            .map(|n| n.id())
            .filter(|&n| n != leader.id())
            .collect();
        net.partition(vec![vec![leader.id()], others.clone()]);
        let deadline = Instant::now() + Duration::from_secs(10);
        let new_leader = loop {
            if let Some(l) = group
                .nodes()
                .iter()
                .find(|n| others.contains(&n.id()) && n.role() == Role::Leader)
            {
                break l.clone();
            }
            assert!(Instant::now() < deadline, "majority side failed to elect");
            std::thread::sleep(Duration::from_millis(10));
        };
        new_leader.propose(b"new".to_vec()).unwrap();
        // The old leader still *claims* the role (its lease-free `read` would
        // happily serve a stale view missing "new")...
        assert_eq!(leader.role(), Role::Leader);
        assert!(leader.read(|sm| sm.applied.lock().len()).is_ok());
        // ...but its ReadIndex heartbeat round cannot reach a majority, so
        // the protocol refuses with NotLeader rather than serving stale data.
        let res = leader.read_index(|sm| sm.applied.lock().len());
        assert!(
            matches!(res, Err(FsError::NotLeader(_))),
            "deposed leader must fail the confirmation round, got {res:?}"
        );
        // The healthy majority keeps serving ReadIndex reads, leader or not.
        for node in group.nodes().iter().filter(|n| others.contains(&n.id())) {
            let seen = node.read_index(|sm| sm.applied.lock().len()).unwrap();
            assert_eq!(seen, 2, "majority-side replica missed a committed write");
        }
        group.shutdown();
    }

    #[test]
    fn read_index_round_completes_after_its_probe_is_lost() {
        let net = Network::new(NetConfig::default());
        let config = RaftConfig {
            // Elections slow enough that the brief partition below cannot
            // depose the leader; a round that is never re-probed gives up
            // after this long.
            election_timeout_min: Duration::from_millis(400),
            election_timeout_max: Duration::from_millis(600),
            heartbeat_interval: Duration::from_millis(15),
            propose_timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let group = RaftGroup::spawn(&net, &ids(100, 3), config, |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        leader.propose(b"x".to_vec()).unwrap();
        let others: Vec<NodeId> = group
            .nodes()
            .iter()
            .map(|n| n.id())
            .filter(|&n| n != leader.id())
            .collect();
        // The round's probe leaves into a partition and is lost.
        net.partition(vec![vec![leader.id()], others]);
        let reader = {
            let leader = Arc::clone(&leader);
            std::thread::spawn(move || leader.read_index(|sm| sm.applied.lock().len()))
        };
        std::thread::sleep(Duration::from_millis(30));
        net.heal();
        // The next heartbeat re-probes the open round instead of leaving it,
        // and every read queued behind it, open until leadership changes.
        let started = Instant::now();
        assert_eq!(reader.join().unwrap(), Ok(1));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(leader.read_index(|sm| sm.applied.lock().len()), Ok(1));
        group.shutdown();
    }

    #[test]
    fn follower_read_index_survives_a_lost_request() {
        let net = Network::new(NetConfig::default());
        let config = RaftConfig {
            // Elections slow enough that the brief partition below cannot
            // start one; a request that is never re-sent gives up after
            // this long.
            election_timeout_min: Duration::from_millis(400),
            election_timeout_max: Duration::from_millis(600),
            heartbeat_interval: Duration::from_millis(15),
            propose_timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let group = RaftGroup::spawn(&net, &ids(1150, 3), config, |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        leader.propose(b"x".to_vec()).unwrap();
        let follower = group
            .nodes()
            .into_iter()
            .find(|n| n.id() != leader.id())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while follower.leader_hint() != Some(leader.id()) || follower.applied_index() == 0 {
            assert!(Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(Duration::from_millis(5));
        }
        let rest: Vec<NodeId> = group
            .nodes()
            .iter()
            .map(|n| n.id())
            .filter(|&n| n != follower.id())
            .collect();
        // The follower's ReadIndexReq leaves into a partition and is lost.
        net.partition(vec![vec![follower.id()], rest]);
        let reader = {
            let follower = Arc::clone(&follower);
            std::thread::spawn(move || follower.read_index(|sm| sm.applied.lock().len()))
        };
        std::thread::sleep(Duration::from_millis(30));
        net.heal();
        // The follower re-sends the request every heartbeat interval instead
        // of waiting out the whole propose timeout.
        let started = Instant::now();
        assert_eq!(reader.join().unwrap(), Ok(1));
        assert!(started.elapsed() < Duration::from_secs(1));
        group.shutdown();
    }

    #[test]
    fn a_crashed_leader_is_not_reported_as_leader() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(1160, 3), fast_config(), |_| RecorderSm::new());
        let old = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let i = group
            .nodes()
            .iter()
            .position(|n| n.id() == old.id())
            .unwrap();
        group.crash_replica(i);
        // Stopped, the crashed replica keeps claiming the role it had.
        assert_eq!(old.role(), Role::Leader);
        let new = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        assert_ne!(new.id(), old.id(), "the crashed leader was returned");
        assert_ne!(group.leader().map(|n| n.id()), Some(old.id()));
        // One live claimant is quiescent, whatever the dead one claims.
        group.wait_quiescent(Duration::from_secs(5)).unwrap();
        group.shutdown();
    }

    #[test]
    fn group_propose_follows_redirects() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(50, 3), fast_config(), |_| RecorderSm::new());
        group.wait_for_leader(Duration::from_secs(5)).unwrap();
        // Propose through the group helper without knowing the leader.
        let resp = group
            .propose(b"routed".to_vec(), Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp, b"routed");
        group.shutdown();
    }

    #[test]
    fn concurrent_proposals_all_commit_in_total_order() {
        let net = Network::new(NetConfig::default());
        let group = RaftGroup::spawn(&net, &ids(60, 3), fast_config(), |_| RecorderSm::new());
        let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let leader = Arc::clone(&leader);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let cmd = (t * 1000 + i).to_be_bytes().to_vec();
                    leader.propose(cmd).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let applied = leader.state_machine().applied.lock().clone();
        assert_eq!(applied.len(), 100);
        // Indexes are strictly increasing (apply order == log order).
        assert!(applied.windows(2).all(|w| w[0].0 < w[1].0));
        group.shutdown();
    }
}
