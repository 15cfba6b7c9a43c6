//! The Raft node: roles, election, replication, commit, apply.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_obs::metrics::{Counter, Gauge, Histogram};
use cfs_obs::{metrics, trace};
use cfs_rpc::mux::{frame, CH_RAFT};
use cfs_rpc::{Network, Service};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{FsError, FsResult, NodeId};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::msg::{Envelope, LogEntry, RaftMsg};
use crate::storage::RaftStorage;

/// The state machine replicated by a Raft group.
///
/// `apply` is invoked exactly once per committed entry, in log order, across
/// the node's lifetime. It takes `&self` so the owning component can serve
/// reads against the same state; [`RaftNode::read`] and
/// [`RaftNode::read_index`] closures never overlap an `apply` or a
/// `restore` (the node's state-machine gate), so a reader sees whole
/// commands only.
pub trait StateMachine: Send + Sync + 'static {
    /// Applies one committed command and returns the response payload that
    /// the proposing client will receive.
    fn apply(&self, index: u64, cmd: &[u8]) -> Vec<u8>;

    /// Serializes the full state as of the last applied entry, or `None` if
    /// this machine does not support snapshots (its group then never compacts
    /// its log). Called under the Raft state lock immediately after an apply,
    /// so the image is exactly the prefix through `applied`.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces the entire state with a [`StateMachine::snapshot`] image
    /// (InstallSnapshot on a lagging replica, or recovery at restart).
    fn restore(&self, _snap: &[u8]) {}
}

/// A node's current role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// Serving proposals.
    Leader,
}

/// Timing and batching knobs.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Minimum randomized election timeout.
    pub election_timeout_min: Duration,
    /// Maximum randomized election timeout.
    pub election_timeout_max: Duration,
    /// Leader heartbeat interval.
    pub heartbeat_interval: Duration,
    /// Maximum entries shipped per AppendEntries.
    pub max_batch: usize,
    /// How long a proposer waits for commit before timing out.
    pub propose_timeout: Duration,
    /// Once `applied - snapshot_index` reaches this, take a state-machine
    /// snapshot and truncate the log behind it. `0` disables compaction, and
    /// state machines whose [`StateMachine::snapshot`] returns `None` never
    /// compact regardless.
    pub snapshot_threshold: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: Duration::from_millis(150),
            election_timeout_max: Duration::from_millis(300),
            heartbeat_interval: Duration::from_millis(40),
            max_batch: 512,
            propose_timeout: Duration::from_secs(5),
            snapshot_threshold: 0,
        }
    }
}

/// A proposal waiting for commit: the term it was proposed in, and the
/// channel its result is delivered on.
type Waiter = (u64, Sender<FsResult<Vec<u8>>>);

/// A ReadIndex request the leader is holding until a confirmation round
/// started at-or-after its arrival reaches a majority.
struct RiPending {
    /// Requester-local read id (echoed back).
    id: u64,
    /// The requesting node (may be this node itself).
    from: NodeId,
    /// The leader's commit index captured at request arrival.
    index: u64,
    /// The confirmation round whose completion releases this read.
    round: u64,
}

struct NodeState {
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    /// In-memory log suffix: entry at Raft index `i` lives at
    /// `log[i - snap_index - 1]`. Entries at or below `snap_index` are
    /// covered by the snapshot and gone.
    log: Vec<LogEntry>,
    /// Last log index covered by the latest snapshot (0 = none).
    snap_index: u64,
    /// Term of the entry at `snap_index`.
    snap_term: u64,
    commit: u64,
    applied: u64,
    votes: HashSet<NodeId>,
    next_index: HashMap<NodeId, u64>,
    match_index: HashMap<NodeId, u64>,
    /// Highest log index already shipped to each peer. At or past the
    /// peer's `next_index` it means a batch the peer has not answered is in
    /// flight; an ack never lowers it, only a nack does.
    sent_to: HashMap<NodeId, u64>,
    election_deadline: Instant,
    next_heartbeat: Instant,
    leader_hint: Option<NodeId>,
    waiters: HashMap<u64, Waiter>,
    /// Requester-side ReadIndex waiters keyed by read id, completed with the
    /// confirmed read index (or `NotLeader` when confirmation failed).
    ri_waiters: HashMap<u64, Sender<FsResult<u64>>>,
    /// Next requester-local ReadIndex id.
    ri_next_id: u64,
    /// Leader-side: highest confirmation round started.
    ri_round: u64,
    /// Leader-side: the in-flight confirmation round and the peers that
    /// acked it. At most one round is in flight, so a burst of concurrent
    /// reads shares a single heartbeat broadcast.
    ri_inflight: Option<(u64, HashSet<NodeId>)>,
    /// Leader-side: reads awaiting their confirmation round.
    ri_pending: Vec<RiPending>,
    stopped: bool,
}

/// A single Raft participant.
///
/// Create with [`RaftNode::spawn`]; mount [`RaftNode::service`] at the
/// [`CH_RAFT`] channel of the owning server's mux so peer traffic reaches it.
pub struct RaftNode<S: StateMachine> {
    id: NodeId,
    peers: Vec<NodeId>,
    net: Arc<Network>,
    sm: Arc<S>,
    st: Mutex<NodeState>,
    /// Wakes the pump: a role change moved its deadline, or the node stopped.
    wake: Condvar,
    /// Signalled whenever `applied` advances (ReadIndex readers wait on it).
    applied_cv: Condvar,
    config: RaftConfig,
    obs: Obs,
    /// Durable state written through before replies are sent. It also holds
    /// the latest snapshot image, which the leader streams from there.
    storage: Arc<RaftStorage>,
    /// Set while the replica's durable writes are failing (disk full, torn
    /// write, wedged device). A degraded replica keeps serving reads and
    /// keeps its role, but proposals fail with the storage error until the
    /// volume heals; the flag drives the `raft_storage_degraded` gauge.
    degraded: AtomicBool,
    /// The replica's one rule for state-machine concurrency: a reader
    /// closure runs entirely between two whole applied commands. Every
    /// `StateMachine::apply` and every `restore` holds this exclusively;
    /// `read` and `read_index` hold it shared for the whole closure. A
    /// command that spans several keys or tables (a primitive's insert plus
    /// its parent update, a directory generation plus its entry) is
    /// therefore never seen half-applied, and neither is a restore's wipe
    /// and reload.
    sm_gate: RwLock<()>,
}

/// Cached handles into this node's metrics registry (handle creation takes
/// the registry lock; recording through a cached handle does not).
struct Obs {
    /// Proposal latency from entry append to state-machine apply.
    propose_apply_ns: Arc<Histogram>,
    /// Duration of each `StateMachine::apply` call.
    apply_ns: Arc<Histogram>,
    /// Current in-memory log length (the suffix past the latest snapshot).
    /// With `snapshot_threshold` set and a snapshot-capable state machine
    /// this stays bounded by roughly `threshold + max_batch`.
    log_len: Arc<Gauge>,
    /// `commit - applied`: how far the apply loop trails the commit point.
    apply_lag: Arc<Gauge>,
    /// Duration of taking a snapshot (serialize + persist + truncate).
    snapshot_ns: Arc<Histogram>,
    /// Duration of installing a leader-streamed snapshot.
    restore_ns: Arc<Histogram>,
    /// Log compactions performed (snapshots taken).
    truncations: Arc<Counter>,
    /// 1 while the replica's storage is rejecting writes (ENOSPC / wedged
    /// device), 0 once a durable write succeeds again.
    storage_degraded: Arc<Gauge>,
}

impl Obs {
    fn for_node(id: NodeId) -> Obs {
        let reg = metrics::node(id.0 as u64);
        Obs {
            propose_apply_ns: reg.histogram("raft_propose_apply_ns"),
            apply_ns: reg.histogram("raft_apply_ns"),
            log_len: reg.gauge("raft_log_len"),
            apply_lag: reg.gauge("raft_apply_lag"),
            snapshot_ns: reg.histogram("raft_snapshot_ns"),
            restore_ns: reg.histogram("raft_restore_ns"),
            truncations: reg.counter("raft_log_truncations"),
            storage_degraded: reg.gauge("raft_storage_degraded"),
        }
    }
}

impl<S: StateMachine> RaftNode<S> {
    /// Creates the node over `storage` and starts its background pump
    /// thread.
    ///
    /// `peers` must not contain `id`. A node with no peers becomes leader
    /// immediately (single-replica group).
    ///
    /// Every log append, term/vote change, and snapshot is written through to
    /// `storage` before the corresponding reply leaves the node. At spawn the
    /// node *recovers* from whatever the storage holds: the state machine is
    /// restored from the latest snapshot, the log tail is reloaded behind it,
    /// and `commit`/`applied` restart at the snapshot index — committed
    /// entries past it are re-learned from the group (or, for a single-node
    /// group, re-applied immediately, which is safe because every persisted
    /// entry of a single-node group is committed).
    pub fn spawn(
        net: Arc<Network>,
        id: NodeId,
        peers: Vec<NodeId>,
        sm: Arc<S>,
        config: RaftConfig,
        storage: Arc<RaftStorage>,
    ) -> Arc<RaftNode<S>> {
        assert!(!peers.contains(&id), "peer list must exclude self");
        let single = peers.is_empty();
        let now = Instant::now();
        let rec = storage.recover();
        let term = rec.hard.term.max(u64::from(single));
        let (mut snap_index, mut snap_term) = (0, 0);
        if let Some(snap) = rec.snapshot.filter(|s| s.index > 0) {
            // Restore before any apply so replayed entries land on the state
            // the snapshot captured.
            sm.restore(&snap.data);
            snap_index = snap.index;
            snap_term = snap.term;
        }
        let node = Arc::new(RaftNode {
            id,
            peers,
            net,
            sm,
            st: Mutex::new(NodeState {
                role: if single { Role::Leader } else { Role::Follower },
                term,
                voted_for: rec.hard.voted_for,
                log: rec.entries,
                snap_index,
                snap_term,
                commit: snap_index,
                applied: snap_index,
                votes: HashSet::new(),
                next_index: HashMap::new(),
                match_index: HashMap::new(),
                sent_to: HashMap::new(),
                election_deadline: now + rand_timeout(&config),
                next_heartbeat: now,
                leader_hint: single.then_some(id),
                waiters: HashMap::new(),
                ri_waiters: HashMap::new(),
                ri_next_id: 0,
                ri_round: 0,
                ri_inflight: None,
                ri_pending: Vec::new(),
                stopped: false,
            }),
            wake: Condvar::new(),
            applied_cv: Condvar::new(),
            config,
            obs: Obs::for_node(id),
            storage,
            degraded: AtomicBool::new(false),
            sm_gate: RwLock::new(()),
        });
        {
            // Re-derive the registry gauges from recovered state (a restarted
            // node must not inherit its predecessor's readings).
            let mut st = node.st.lock();
            if single {
                // A single-node group's persisted log is entirely committed.
                st.commit = last_index(&st);
                node.apply_committed(&mut st);
            }
            node.obs.log_len.set(st.log.len() as i64);
            node.obs.apply_lag.set((st.commit - st.applied) as i64);
        }
        if !single {
            let pump = Arc::clone(&node);
            std::thread::Builder::new()
                .name(format!("raft-{}", id.0))
                .spawn(move || pump.run())
                .expect("spawn raft pump");
        }
        node
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The replicated state machine.
    pub fn state_machine(&self) -> &Arc<S> {
        &self.sm
    }

    /// Returns the node's current role.
    pub fn role(&self) -> Role {
        self.st.lock().role
    }

    /// Returns the current term.
    pub fn term(&self) -> u64 {
        self.st.lock().term
    }

    /// Returns the last committed log index.
    pub fn commit_index(&self) -> u64 {
        self.st.lock().commit
    }

    /// Who this node believes is leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.st.lock().leader_hint
    }

    /// Current length of the in-memory log suffix past the latest snapshot
    /// (also exported as the `raft_log_len` gauge of this node's metrics
    /// registry). Bounded when compaction is enabled.
    pub fn log_len(&self) -> u64 {
        self.st.lock().log.len() as u64
    }

    /// Last log index covered by the latest snapshot (0 when none).
    pub fn snapshot_index(&self) -> u64 {
        self.st.lock().snap_index
    }

    /// Last applied log index.
    pub fn applied_index(&self) -> u64 {
        self.st.lock().applied
    }

    /// The durable storage backing this node.
    pub fn storage(&self) -> &Arc<RaftStorage> {
        &self.storage
    }

    /// How far apply trails commit (also the `raft_apply_lag` gauge).
    pub fn apply_lag(&self) -> u64 {
        let st = self.st.lock();
        st.commit - st.applied
    }

    /// Whether [`RaftNode::stop`] has run. A stopped node keeps the role it
    /// had, so a crashed leader still reports [`Role::Leader`].
    pub fn is_stopped(&self) -> bool {
        self.st.lock().stopped
    }

    /// Stops the pump thread; the node no longer participates.
    pub fn stop(&self) {
        let mut st = self.st.lock();
        st.stopped = true;
        for (_, (_, tx)) in st.waiters.drain() {
            let _ = tx.send(Err(FsError::Timeout));
        }
        for (_, tx) in st.ri_waiters.drain() {
            let _ = tx.send(Err(FsError::Timeout));
        }
        drop(st);
        self.wake.notify_all();
        self.applied_cv.notify_all();
    }

    /// Proposes a command, blocking until it commits and applies, and returns
    /// the state machine's response.
    ///
    /// Fails with [`FsError::NotLeader`] (carrying a redirect hint) when this
    /// node is not the leader.
    pub fn propose(&self, cmd: Vec<u8>) -> FsResult<Vec<u8>> {
        let _span = trace::span("raft.propose");
        let started = Instant::now();
        let (tx, rx) = bounded(1);
        {
            let mut st = self.st.lock();
            if st.stopped {
                return Err(FsError::Timeout);
            }
            if st.role != Role::Leader {
                return Err(FsError::NotLeader(st.leader_hint.map(|n| n.0)));
            }
            let term = st.term;
            let entry = LogEntry { term, cmd };
            st.log.push(entry.clone());
            let index = last_index(&st);
            if let Err(e) = self.storage.append(index, &[entry]) {
                // Graceful ENOSPC degradation: the entry was never made
                // durable, so it was never replicated — drop it and fail the
                // proposal with the (retryable) storage error. The node keeps
                // its role and keeps serving reads.
                st.log.pop();
                self.obs.log_len.set(st.log.len() as i64);
                self.mark_storage(true);
                return Err(e);
            }
            self.mark_storage(false);
            st.waiters.insert(index, (term, tx));
            self.obs.log_len.set(st.log.len() as i64);
            self.advance_commit(&mut st);
            self.apply_committed(&mut st);
            for &peer in &self.peers {
                self.replicate(&mut st, peer);
            }
        }
        let result = rx
            .recv_timeout(self.config.propose_timeout)
            .map_err(|_| FsError::Timeout)?;
        if result.is_ok() {
            self.obs
                .propose_apply_ns
                .observe(started.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Runs a read closure against the state machine iff this node currently
    /// believes it is leader.
    ///
    /// This is lease-free leader-local reading: a deposed leader may serve a
    /// stale read during the failover window, matching the consistency level
    /// the paper's metadata read path provides (reads are not ordered through
    /// the WAL).
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> FsResult<R> {
        {
            let st = self.st.lock();
            if st.role != Role::Leader {
                return Err(FsError::NotLeader(st.leader_hint.map(|n| n.0)));
            }
        }
        let _gate = self.sm_gate.read();
        Ok(f(&self.sm))
    }

    /// Serves a linearizable read from *this* replica — leader or follower —
    /// via the ReadIndex protocol.
    ///
    /// The replica asks the leader (itself, when leading) for its commit
    /// index; the leader answers only after a heartbeat round proves a
    /// majority still follows it, which is what makes this safe where
    /// [`RaftNode::read`] is not: a deposed leader's round never completes,
    /// so it returns [`FsError::NotLeader`] instead of a stale read. Once
    /// the confirmed index is applied locally, `f` runs against the state
    /// machine.
    pub fn read_index<R>(&self, f: impl FnOnce(&S) -> R) -> FsResult<R> {
        let deadline = Instant::now() + self.config.propose_timeout;
        let (tx, rx) = bounded(1);
        let (id, target) = {
            let mut st = self.st.lock();
            if st.stopped {
                return Err(FsError::Timeout);
            }
            let target = if st.role == Role::Leader {
                self.id
            } else {
                match st.leader_hint {
                    Some(l) => l,
                    None => return Err(FsError::NotLeader(None)),
                }
            };
            st.ri_next_id += 1;
            let id = st.ri_next_id;
            st.ri_waiters.insert(id, tx);
            (id, target)
        };
        // A lost request or response is re-sent, under the same id, every
        // heartbeat interval — to whoever leads by then — until one answer
        // arrives; the rest find no waiter and are ignored.
        let mut target = Some(target);
        let index = loop {
            match target {
                Some(t) if t == self.id => self.handle(self.id, RaftMsg::ReadIndexReq { id }),
                Some(t) => self.send_one(t, RaftMsg::ReadIndexReq { id }),
                None => {}
            }
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .min(self.config.heartbeat_interval);
            match rx.recv_timeout(wait) {
                Ok(res) => break res?,
                Err(_) if Instant::now() < deadline => {
                    // (Stopping the node answers the waiter with `Timeout`.)
                    let st = self.st.lock();
                    target = if st.role == Role::Leader {
                        Some(self.id)
                    } else {
                        st.leader_hint
                    };
                }
                Err(_) => {
                    // The confirmation round never completed: leadership
                    // (ours, or the leader's we asked) could not be
                    // confirmed.
                    let mut st = self.st.lock();
                    st.ri_waiters.remove(&id);
                    let hint = st.leader_hint.filter(|&l| l != self.id).map(|n| n.0);
                    return Err(FsError::NotLeader(hint));
                }
            }
        };
        // Wait until the local apply catches up with the read index.
        let mut st = self.st.lock();
        while st.applied < index {
            if st.stopped {
                return Err(FsError::Timeout);
            }
            let timed_out = self.applied_cv.wait_until(&mut st, deadline).timed_out();
            if timed_out && st.applied < index {
                return Err(FsError::Timeout);
            }
        }
        drop(st);
        let _gate = self.sm_gate.read();
        Ok(f(&self.sm))
    }

    /// Adapter mountable at [`CH_RAFT`] in a [`cfs_rpc::MuxService`].
    pub fn service(self: &Arc<Self>) -> Arc<dyn Service> {
        Arc::new(RaftService {
            node: Arc::clone(self),
        })
    }

    fn run(self: Arc<Self>) {
        // Attribute everything the pump does (appends applied on followers,
        // state-machine work) to this node's registry.
        let _scope = trace::node_scope(self.id.0 as u64);
        loop {
            let mut st = self.st.lock();
            if st.stopped {
                return;
            }
            let now = Instant::now();
            match st.role {
                Role::Leader => {
                    // New entries leave with `propose` and with the acks
                    // ([`Self::replicate`]); the heartbeat resends from
                    // `next_index` whatever is in flight, which makes it the
                    // retransmission of every lost message.
                    if now >= st.next_heartbeat {
                        st.next_heartbeat = now + self.config.heartbeat_interval;
                        for &peer in &self.peers {
                            self.send_append(&mut st, peer);
                        }
                        // Likewise for the in-flight ReadIndex round: a lost
                        // probe or ack would otherwise hold it, and every
                        // read queued behind it, open until leadership
                        // changes. Acks to a re-sent probe still postdate
                        // the round's start, so they confirm it as well.
                        if let Some((round, _)) = st.ri_inflight {
                            let term = st.term;
                            self.broadcast(RaftMsg::ReadIndexHeartbeat { term, round });
                        }
                    }
                }
                Role::Follower | Role::Candidate => {
                    if now >= st.election_deadline {
                        self.start_election(&mut st, now);
                    }
                }
            }
            let deadline = match st.role {
                Role::Leader => st.next_heartbeat,
                _ => st.election_deadline,
            };
            self.wake.wait_until(&mut st, deadline);
        }
    }

    /// Writes the current term and vote through to storage. Must run before
    /// any reply that promises them (handlers run to completion before the
    /// RPC response is sent, so calling this anywhere in the handler
    /// suffices).
    fn persist_hard(&self, st: &NodeState) {
        self.storage.save_hard_state(st.term, st.voted_for);
    }

    fn start_election(&self, st: &mut NodeState, now: Instant) {
        st.role = Role::Candidate;
        st.term += 1;
        st.voted_for = Some(self.id);
        self.persist_hard(st);
        st.votes.clear();
        st.votes.insert(self.id);
        st.election_deadline = now + rand_timeout(&self.config);
        st.leader_hint = None;
        let (lli, llt) = last_log(st);
        let msg = RaftMsg::RequestVote {
            term: st.term,
            last_log_index: lli,
            last_log_term: llt,
        };
        self.broadcast(msg);
        // A one-node "majority" can already win (defensive; spawn handles the
        // single-node case directly).
        self.maybe_win(st, now);
    }

    fn maybe_win(&self, st: &mut NodeState, now: Instant) {
        let cluster = self.peers.len() + 1;
        if st.role == Role::Candidate && st.votes.len() * 2 > cluster {
            st.role = Role::Leader;
            st.leader_hint = Some(self.id);
            let next = last_index(st) + 1;
            for &p in &self.peers {
                st.next_index.insert(p, next);
                st.match_index.insert(p, 0);
            }
            st.sent_to.clear();
            // Commit a no-op from the new term to learn the commit index.
            let term = st.term;
            let entry = LogEntry {
                term,
                cmd: Vec::new(),
            };
            st.log.push(entry.clone());
            if let Err(_e) = self.storage.append(last_index(st), &[entry]) {
                // Degraded volume: leadership stands, but the no-op barrier
                // can't persist. Drop it; commit advances once a later
                // append succeeds in this term.
                st.log.pop();
                self.mark_storage(true);
            } else {
                self.mark_storage(false);
            }
            st.next_heartbeat = now;
        }
    }

    /// Tracks transitions in and out of the storage-degraded state and
    /// mirrors them onto the `raft_storage_degraded` gauge.
    fn mark_storage(&self, failed: bool) {
        if self.degraded.swap(failed, Ordering::Relaxed) != failed {
            self.obs.storage_degraded.set(i64::from(failed));
        }
    }

    /// True while the replica's durable writes are failing.
    pub fn storage_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn broadcast(&self, msg: RaftMsg) {
        let env = Envelope { from: self.id, msg };
        let payload = frame(CH_RAFT, &env.to_bytes());
        for &peer in &self.peers {
            self.net.send(self.id, peer, payload.clone());
        }
    }

    fn send_one(&self, to: NodeId, msg: RaftMsg) {
        let env = Envelope { from: self.id, msg };
        self.net.send(self.id, to, frame(CH_RAFT, &env.to_bytes()));
    }

    /// Ships `peer` the entries past what it has answered for, unless a batch
    /// it has not answered is still in flight: its ack (or nack) ships the
    /// next one, so entries proposed meanwhile ride one AppendEntries, and an
    /// ack that finds newer entries never re-ships what is already under way.
    fn replicate(&self, st: &mut NodeState, peer: NodeId) {
        let next = *st.next_index.get(&peer).unwrap_or(&1);
        let sent = *st.sent_to.get(&peer).unwrap_or(&0);
        if sent < next && next <= last_index(st) {
            self.send_append(st, peer);
        }
    }

    /// Sends `peer` everything from its `next_index` on (one batch at most;
    /// nothing but the commit index when it is caught up), or the snapshot
    /// when that entry is compacted away.
    fn send_append(&self, st: &mut NodeState, peer: NodeId) {
        // A batch carries whatever was proposed since the last one, whoever
        // happens to ship it: it belongs to no single operation's trace.
        let _untraced = trace::ctx_scope(None);
        let next = *st.next_index.get(&peer).unwrap_or(&1);
        if next <= st.snap_index {
            // The entry the peer needs was compacted away: stream the
            // snapshot instead; append resumes past it on the response.
            // Compaction and install update the storage's image together
            // with `snap_index`, so it is the image of exactly that index.
            let Some(snap) = self.storage.snapshot() else {
                return;
            };
            st.sent_to.insert(peer, st.snap_index);
            self.send_one(
                peer,
                RaftMsg::InstallSnapshot {
                    term: st.term,
                    index: snap.index,
                    snap_term: snap.term,
                    data: snap.data.clone(),
                },
            );
            return;
        }
        let prev_index = next - 1;
        let prev_term = term_at(st, prev_index);
        let from = (next - 1 - st.snap_index) as usize;
        let to = st.log.len().min(from + self.config.max_batch);
        let entries = st.log[from..to].to_vec();
        st.sent_to.insert(peer, st.snap_index + to as u64);
        self.send_one(
            peer,
            RaftMsg::AppendEntries {
                term: st.term,
                prev_index,
                prev_term,
                entries,
                leader_commit: st.commit,
            },
        );
    }

    fn become_follower(&self, st: &mut NodeState, term: u64, leader: Option<NodeId>) {
        let was_leader = st.role == Role::Leader;
        st.role = Role::Follower;
        if term > st.term {
            st.term = term;
            st.voted_for = None;
            self.persist_hard(st);
        }
        if leader.is_some() {
            st.leader_hint = leader;
        }
        st.votes.clear();
        st.election_deadline = Instant::now() + rand_timeout(&self.config);
        if was_leader {
            // Proposals in flight will never get a commit notification from
            // this node; fail them so clients retry against the new leader.
            for (_, (_, tx)) in st.waiters.drain() {
                let _ = tx.send(Err(FsError::NotLeader(st.leader_hint.map(|n| n.0))));
            }
            // Pending ReadIndex confirmations can likewise never complete.
            st.ri_inflight = None;
            let hint = st.leader_hint.map(|n| n.0);
            for p in std::mem::take(&mut st.ri_pending) {
                self.ri_fail(st, p, hint);
            }
        }
    }

    /// Answers one pending ReadIndex read with `NotLeader`.
    fn ri_fail(&self, st: &mut NodeState, p: RiPending, hint: Option<u32>) {
        if p.from == self.id {
            if let Some(tx) = st.ri_waiters.remove(&p.id) {
                let _ = tx.send(Err(FsError::NotLeader(hint)));
            }
        } else {
            self.send_one(
                p.from,
                RaftMsg::ReadIndexResp {
                    id: p.id,
                    index: 0,
                    ok: false,
                    hint,
                },
            );
        }
    }

    /// Starts a fresh ReadIndex confirmation round: broadcasts the probe and
    /// (for single-node groups) completes immediately.
    fn ri_start_round(&self, st: &mut NodeState) {
        st.ri_round += 1;
        let round = st.ri_round;
        st.ri_inflight = Some((round, HashSet::new()));
        let term = st.term;
        self.broadcast(RaftMsg::ReadIndexHeartbeat { term, round });
        self.ri_try_complete(st);
    }

    /// Releases every pending read covered by the in-flight round once a
    /// majority has acked it, then starts the next round if reads queued up
    /// behind this one.
    fn ri_try_complete(&self, st: &mut NodeState) {
        let Some((round, acks)) = &st.ri_inflight else {
            return;
        };
        let cluster = self.peers.len() + 1;
        if (acks.len() + 1) * 2 <= cluster {
            return;
        }
        let round = *round;
        st.ri_inflight = None;
        let mut pending = std::mem::take(&mut st.ri_pending);
        let mut later = Vec::new();
        for p in pending.drain(..) {
            if p.round > round {
                later.push(p);
                continue;
            }
            if p.from == self.id {
                if let Some(tx) = st.ri_waiters.remove(&p.id) {
                    let _ = tx.send(Ok(p.index));
                }
            } else {
                self.send_one(
                    p.from,
                    RaftMsg::ReadIndexResp {
                        id: p.id,
                        index: p.index,
                        ok: true,
                        hint: None,
                    },
                );
            }
        }
        st.ri_pending = later;
        if !st.ri_pending.is_empty() {
            self.ri_start_round(st);
        }
    }

    fn handle(&self, from: NodeId, msg: RaftMsg) {
        let mut st = self.st.lock();
        if st.stopped {
            return;
        }
        let now = Instant::now();
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term > st.term {
                    self.become_follower(&mut st, term, None);
                }
                let (lli, llt) = last_log(&st);
                let up_to_date =
                    last_log_term > llt || (last_log_term == llt && last_log_index >= lli);
                let granted = term == st.term
                    && up_to_date
                    && (st.voted_for.is_none() || st.voted_for == Some(from))
                    && st.role != Role::Leader;
                if granted {
                    st.voted_for = Some(from);
                    self.persist_hard(&st);
                    st.election_deadline = now + rand_timeout(&self.config);
                }
                self.send_one(
                    from,
                    RaftMsg::VoteResp {
                        term: st.term,
                        granted,
                    },
                );
            }
            RaftMsg::VoteResp { term, granted } => {
                if term > st.term {
                    self.become_follower(&mut st, term, None);
                } else if st.role == Role::Candidate && term == st.term && granted {
                    st.votes.insert(from);
                    self.maybe_win(&mut st, now);
                    if st.role == Role::Leader {
                        drop(st);
                        self.wake.notify_all();
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < st.term {
                    self.send_one(
                        from,
                        RaftMsg::AppendResp {
                            term: st.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                self.become_follower(&mut st, term, Some(from));
                let last = last_index(&st);
                if prev_index > last {
                    self.send_one(
                        from,
                        RaftMsg::AppendResp {
                            term: st.term,
                            success: false,
                            match_index: last,
                        },
                    );
                    return;
                }
                if prev_index > st.snap_index && term_at(&st, prev_index) != prev_term {
                    // Conflicting history: ask the leader to back up.
                    self.send_one(
                        from,
                        RaftMsg::AppendResp {
                            term: st.term,
                            success: false,
                            match_index: prev_index - 1,
                        },
                    );
                    return;
                }
                // `prev_index <= snap_index` needs no term check: everything
                // at or below the snapshot is committed, so it matches any
                // leader's log by leader completeness.
                let mut idx = prev_index;
                let mut fresh: Vec<LogEntry> = Vec::new();
                let mut fresh_from = 0;
                for entry in entries {
                    idx += 1;
                    if idx <= st.snap_index {
                        // Covered by our snapshot; already committed here.
                        continue;
                    }
                    let pos = (idx - st.snap_index - 1) as usize;
                    if pos < st.log.len() {
                        if st.log[pos].term != entry.term {
                            st.log.truncate(pos);
                            if fresh.is_empty() {
                                fresh_from = idx;
                            }
                            fresh.push(entry.clone());
                            st.log.push(entry);
                        }
                        // Same term at same index: identical entry, skip.
                    } else {
                        if fresh.is_empty() {
                            fresh_from = idx;
                        }
                        fresh.push(entry.clone());
                        st.log.push(entry);
                    }
                }
                if !fresh.is_empty() {
                    // The first fresh entry either extends the tail or
                    // overwrote a conflict; truncate-then-append covers both,
                    // and the sync lands before the response.
                    self.storage.truncate_from(fresh_from);
                    if let Err(_e) = self.storage.append(fresh_from, &fresh) {
                        // The fresh suffix (or part of it) never became
                        // durable: roll the in-memory log back to what we can
                        // honestly ack and nack so the leader backs up and
                        // retries once the volume heals.
                        self.mark_storage(true);
                        let keep = (fresh_from - 1 - st.snap_index) as usize;
                        st.log.truncate(keep);
                        self.obs.log_len.set(st.log.len() as i64);
                        let match_index = fresh_from - 1;
                        self.follow_commit(&mut st, leader_commit, match_index);
                        self.send_one(
                            from,
                            RaftMsg::AppendResp {
                                term: st.term,
                                success: false,
                                match_index,
                            },
                        );
                        return;
                    }
                    self.mark_storage(false);
                }
                let match_index = idx.max(st.snap_index);
                self.follow_commit(&mut st, leader_commit, match_index);
                self.send_one(
                    from,
                    RaftMsg::AppendResp {
                        term: st.term,
                        success: true,
                        match_index,
                    },
                );
            }
            RaftMsg::AppendResp {
                term,
                success,
                match_index,
            } => {
                if term > st.term {
                    self.become_follower(&mut st, term, None);
                    return;
                }
                if st.role != Role::Leader || term != st.term {
                    return;
                }
                if success {
                    self.peer_acked(&mut st, from, match_index);
                } else {
                    // The peer's log ends or diverges before `next_index`:
                    // back up and retransmit from there (which also resets
                    // `sent_to` to the end of the retransmitted batch).
                    let next = st.next_index.entry(from).or_insert(1);
                    *next = (match_index + 1).max(1).min((*next).max(2) - 1).max(1);
                    self.send_append(&mut st, from);
                }
            }
            RaftMsg::ReadIndexReq { id } => {
                if st.role != Role::Leader {
                    let hint = st.leader_hint.map(|n| n.0);
                    let p = RiPending {
                        id,
                        from,
                        index: 0,
                        round: 0,
                    };
                    self.ri_fail(&mut st, p, hint);
                    return;
                }
                let index = st.commit;
                match &st.ri_inflight {
                    Some((r, _)) => {
                        // A round is already being confirmed, but it started
                        // before this read arrived; queue for the next one.
                        let round = r + 1;
                        st.ri_pending.push(RiPending {
                            id,
                            from,
                            index,
                            round,
                        });
                    }
                    None => {
                        let round = st.ri_round + 1;
                        st.ri_pending.push(RiPending {
                            id,
                            from,
                            index,
                            round,
                        });
                        self.ri_start_round(&mut st);
                    }
                }
            }
            RaftMsg::ReadIndexResp {
                id,
                index,
                ok,
                hint,
            } => {
                if let Some(tx) = st.ri_waiters.remove(&id) {
                    let _ = tx.send(if ok {
                        Ok(index)
                    } else {
                        Err(FsError::NotLeader(hint))
                    });
                }
            }
            RaftMsg::ReadIndexHeartbeat { term, round } => {
                if term > st.term || (term == st.term && st.role == Role::Candidate) {
                    self.become_follower(&mut st, term, Some(from));
                }
                let ok = term == st.term && st.role != Role::Leader;
                if ok {
                    st.leader_hint = Some(from);
                    st.election_deadline = now + rand_timeout(&self.config);
                }
                self.send_one(
                    from,
                    RaftMsg::ReadIndexAck {
                        term: st.term,
                        round,
                        ok,
                    },
                );
            }
            RaftMsg::ReadIndexAck { term, round, ok } => {
                if term > st.term {
                    self.become_follower(&mut st, term, None);
                    return;
                }
                if !ok || st.role != Role::Leader || term != st.term {
                    return;
                }
                let mut hit = false;
                if let Some((r, acks)) = &mut st.ri_inflight {
                    if *r == round {
                        acks.insert(from);
                        hit = true;
                    }
                }
                if hit {
                    self.ri_try_complete(&mut st);
                }
            }
            RaftMsg::InstallSnapshot {
                term,
                index,
                snap_term,
                data,
            } => {
                if term < st.term {
                    self.send_one(
                        from,
                        RaftMsg::InstallSnapshotResp {
                            term: st.term,
                            index: 0,
                        },
                    );
                    return;
                }
                self.become_follower(&mut st, term, Some(from));
                if index > st.applied {
                    // Make the image durable *before* adopting it: a failed
                    // sidecar write (disk full / wedged volume) must leave
                    // both the state machine and our ack untouched, so the
                    // leader retries the transfer once the volume heals.
                    let snap = match self.storage.reset_to_snapshot(index, snap_term, data) {
                        Ok(snap) => snap,
                        Err(_e) => {
                            self.mark_storage(true);
                            self.send_one(
                                from,
                                RaftMsg::InstallSnapshotResp {
                                    term: st.term,
                                    index: st.applied,
                                },
                            );
                            return;
                        }
                    };
                    self.mark_storage(false);
                    let started = Instant::now();
                    {
                        // Readers that passed their role/applied check but
                        // have not finished their closure must not overlap
                        // the wipe-and-reload; see `sm_gate`.
                        let _gate = self.sm_gate.write();
                        self.sm.restore(&snap.data);
                    }
                    // The snapshot replaces our entire history: entries past
                    // it (if any) came from an abandoned divergent tail.
                    st.log.clear();
                    st.snap_index = index;
                    st.snap_term = snap_term;
                    st.commit = index;
                    st.applied = index;
                    self.obs
                        .restore_ns
                        .observe(started.elapsed().as_nanos() as u64);
                    self.obs.log_len.set(0);
                    self.obs.apply_lag.set(0);
                    // ReadIndex readers block on the applied index.
                    self.applied_cv.notify_all();
                }
                // Stale snapshots (index <= applied) are acked with our real
                // applied index: the applied prefix is committed, hence
                // present verbatim in the leader's log.
                self.send_one(
                    from,
                    RaftMsg::InstallSnapshotResp {
                        term: st.term,
                        index: st.applied,
                    },
                );
            }
            RaftMsg::InstallSnapshotResp { term, index } => {
                if term > st.term {
                    self.become_follower(&mut st, term, None);
                    return;
                }
                if st.role != Role::Leader || term != st.term || index == 0 {
                    return;
                }
                // Normal append resumes for the tail past the snapshot.
                self.peer_acked(&mut st, from, index);
            }
        }
    }

    /// `peer` holds the leader's log through `index`: records it (stale and
    /// reordered acks never move anything backwards), commits and applies
    /// what that allows, and ships the peer its next batch.
    fn peer_acked(&self, st: &mut NodeState, peer: NodeId, index: u64) {
        let m = st.match_index.entry(peer).or_insert(0);
        *m = (*m).max(index);
        let next = st.next_index.entry(peer).or_insert(1);
        *next = (*next).max(index + 1);
        self.advance_commit(st);
        self.apply_committed(st);
        self.replicate(st, peer);
    }

    /// Follower side: commits and applies up to `leader_commit`, but never
    /// past `verified`, the last index the current AppendEntries proved
    /// matches the leader's log (Raft's receiver rule 5). Entries beyond it
    /// may be a stale tail from an older term that this leader never sent.
    fn follow_commit(&self, st: &mut NodeState, leader_commit: u64, verified: u64) {
        let commit = leader_commit.min(verified);
        if commit > st.commit {
            st.commit = commit;
            self.apply_committed(st);
        }
    }

    fn advance_commit(&self, st: &mut NodeState) {
        if st.role != Role::Leader {
            return;
        }
        let cluster = self.peers.len() + 1;
        let last = last_index(st);
        let mut n = last;
        while n > st.commit {
            if term_at(st, n) == st.term {
                let replicas = 1 + self
                    .peers
                    .iter()
                    .filter(|p| st.match_index.get(p).copied().unwrap_or(0) >= n)
                    .count();
                if replicas * 2 > cluster {
                    st.commit = n;
                    break;
                }
            }
            n -= 1;
        }
    }

    fn apply_committed(&self, st: &mut NodeState) {
        let applied_before = st.applied;
        while st.applied < st.commit {
            st.applied += 1;
            let index = st.applied;
            let entry = st.log[(index - st.snap_index - 1) as usize].clone();
            let resp = if entry.cmd.is_empty() {
                Vec::new()
            } else {
                let apply_started = Instant::now();
                let resp = {
                    let _gate = self.sm_gate.write();
                    self.sm.apply(index, &entry.cmd)
                };
                self.obs
                    .apply_ns
                    .observe(apply_started.elapsed().as_nanos() as u64);
                resp
            };
            if let Some((term, tx)) = st.waiters.remove(&index) {
                let result = if term == entry.term {
                    Ok(resp)
                } else {
                    Err(FsError::NotLeader(st.leader_hint.map(|n| n.0)))
                };
                let _ = tx.send(result);
            }
        }
        // Also when nothing applied: the ack that brings the last follower up
        // to date is what ends a deferred compaction's wait.
        self.maybe_compact(st);
        self.obs.log_len.set(st.log.len() as i64);
        self.obs.apply_lag.set((st.commit - st.applied) as i64);
        if st.applied > applied_before {
            // ReadIndex readers block on the applied index; wake them.
            self.applied_cv.notify_all();
        }
    }

    /// Takes a snapshot and truncates the log behind it once enough entries
    /// have applied since the last one. Runs under the state lock right
    /// after apply, so the image is exactly the prefix through `applied` —
    /// no concurrent apply can slip in between serialize and truncate.
    ///
    /// A leader waits — for at most another threshold's worth of entries —
    /// while a follower that is keeping up (it has acknowledged past the last
    /// snapshot) is still short of `applied`: truncating under it would cost
    /// a whole-state InstallSnapshot for want of a few entries.
    fn maybe_compact(&self, st: &mut NodeState) {
        let threshold = self.config.snapshot_threshold;
        let backlog = st.applied - st.snap_index;
        if threshold == 0 || backlog < threshold {
            return;
        }
        let catching_up = |p: &NodeId| {
            let matched = st.match_index.get(p).copied().unwrap_or(0);
            (st.snap_index..st.applied).contains(&matched)
        };
        if st.role == Role::Leader && backlog < 2 * threshold && self.peers.iter().any(catching_up)
        {
            return;
        }
        let started = Instant::now();
        let Some(data) = self.sm.snapshot() else {
            return;
        };
        let applied = st.applied;
        let term = term_at(st, applied);
        // Persist the sidecar before truncating anything: a failed write
        // (disk full) skips this compaction attempt entirely — the log keeps
        // growing until the volume heals, which the next apply retries,
        // rather than losing the only copy of the prefix.
        if let Err(_e) = self.storage.save_snapshot(applied, term, data) {
            self.mark_storage(true);
            return;
        }
        self.mark_storage(false);
        let drop_n = (applied - st.snap_index) as usize;
        st.log.drain(..drop_n);
        st.snap_index = applied;
        st.snap_term = term;
        self.obs.truncations.add(1);
        self.obs
            .snapshot_ns
            .observe(started.elapsed().as_nanos() as u64);
    }
}

struct RaftService<S: StateMachine> {
    node: Arc<RaftNode<S>>,
}

impl<S: StateMachine> Service for RaftService<S> {
    fn handle(&self, from: NodeId, payload: &[u8]) -> Vec<u8> {
        if let Ok(env) = Envelope::from_bytes(payload) {
            // Trust the envelope's `from`, which equals the transport sender
            // in all legitimate traffic; `from` parameter kept for symmetry.
            let _ = from;
            self.node.handle(env.from, env.msg);
        }
        Vec::new()
    }
}

/// Highest log index, counting entries compacted into the snapshot.
fn last_index(st: &NodeState) -> u64 {
    st.snap_index + st.log.len() as u64
}

fn last_log(st: &NodeState) -> (u64, u64) {
    let lli = last_index(st);
    (lli, term_at(st, lli))
}

/// Term of the entry at `index`; `snap_term` at the snapshot boundary.
/// Callers never ask below the snapshot (those entries are gone).
fn term_at(st: &NodeState, index: u64) -> u64 {
    if index <= st.snap_index {
        if index == st.snap_index {
            st.snap_term
        } else {
            0
        }
    } else {
        st.log[(index - st.snap_index - 1) as usize].term
    }
}

fn rand_timeout(config: &RaftConfig) -> Duration {
    use rand::RngExt;
    let min = config.election_timeout_min;
    let max = config.election_timeout_max;
    if max <= min {
        return min;
    }
    let span = (max - min).as_micros() as u64;
    let off = rand::rng().random_range(0..=span);
    min + Duration::from_micros(off)
}
