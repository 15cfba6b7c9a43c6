//! The conventional lock-based transaction engine (baselines and CFS-base).
//!
//! This is the execution model of the paper's Figures 2–3: the coordinator
//! (metadata proxy or client) acquires exclusive row locks via RPC, reads and
//! writes records statement by statement across network round trips while the
//! locks are held, and finally commits (optionally via two-phase commit for
//! cross-shard transactions). Lock wait and hold times are recorded in the
//! replica's cfs-obs registry (`lock_wait_ns`, `lock_hold_ns`) — that
//! instrumentation regenerates the Figure 4 breakdown showing locking at
//! 52.91–93.86% of request time.
//!
//! Deadlock avoidance follows the baselines' practice of acquiring locks in a
//! deterministic global key order; [`sort_lock_keys`] provides the order and
//! the coordinator helpers in `cfs-baselines` use it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_obs::metrics::{Counter, Histogram};
use cfs_obs::{metrics as obs_metrics, trace};
use cfs_rpc::Service;
use cfs_types::codec::{Decode, Encode};
use cfs_types::{FsError, FsResult, Key, NodeId};
use parking_lot::{Condvar, Mutex};

use crate::api::{ShardCmd, TxnRequest, TxnResponse};
use crate::shard::TafShard;

/// Sorts keys into the global lock-acquisition order (by `kID`, then by the
/// string component, attribute records first).
pub fn sort_lock_keys(keys: &mut [Key]) {
    keys.sort();
}

struct LockTable {
    /// Row → owning transaction.
    owners: HashMap<Key, u64>,
    /// Rows held by each transaction (for release).
    held: HashMap<u64, Vec<Key>>,
}

/// Per-shard exclusive row-lock manager (lives on the shard leader, like NDB
/// row locks; leader failover drops all locks and aborts their transactions).
pub struct LockManager {
    table: Mutex<LockTable>,
    released: Condvar,
    /// Row locks granted (`lock_acquisitions`), and how many of them had to
    /// wait for another transaction first (`lock_contentions`).
    acquisitions: Arc<Counter>,
    contentions: Arc<Counter>,
    /// Per-acquisition wait-time distribution (`lock_wait_ns`); its `sum`
    /// is the total time spent waiting for row locks.
    wait_hist: Arc<Histogram>,
    /// Per-transaction hold-time distribution (`lock_hold_ns`).
    hold_hist: Arc<Histogram>,
    /// Give up on a lock after this long (a deadlock-safety net; the ordered
    /// acquisition protocol should never hit it).
    pub wait_timeout: Duration,
}

impl LockManager {
    /// Creates a lock manager reporting into `node`'s registry (the shard
    /// replica the manager lives on).
    pub fn new(node: u64) -> LockManager {
        let reg = obs_metrics::node(node);
        LockManager {
            table: Mutex::new(LockTable {
                owners: HashMap::new(),
                held: HashMap::new(),
            }),
            released: Condvar::new(),
            acquisitions: reg.counter("lock_acquisitions"),
            contentions: reg.counter("lock_contentions"),
            wait_hist: reg.histogram("lock_wait_ns"),
            hold_hist: reg.histogram("lock_hold_ns"),
            wait_timeout: Duration::from_secs(10),
        }
    }

    /// Acquires the exclusive lock on `key` for `txn`, blocking while another
    /// transaction holds it. Re-acquisition by the owner is a no-op.
    ///
    /// Contended waiters sleep on the condvar until [`Self::release_all`]
    /// notifies them (or the deadline passes) — no polling slices, so a
    /// release wakes its waiters immediately instead of after a fraction of
    /// the timeout.
    pub fn acquire(&self, txn: u64, key: &Key) -> FsResult<()> {
        let start = Instant::now();
        let deadline = start + self.wait_timeout;
        let mut table = self.table.lock();
        let mut contended = false;
        loop {
            match table.owners.get(key) {
                None => {
                    table.owners.insert(key.clone(), txn);
                    table.held.entry(txn).or_default().push(key.clone());
                    self.acquisitions.inc();
                    if contended {
                        self.contentions.inc();
                    }
                    self.record_wait(start);
                    return Ok(());
                }
                Some(&owner) if owner == txn => {
                    self.record_wait(start);
                    return Ok(());
                }
                Some(_) => {
                    contended = true;
                    if Instant::now() >= deadline {
                        self.record_wait(start);
                        return Err(FsError::Busy);
                    }
                    self.released.wait_until(&mut table, deadline);
                }
            }
        }
    }

    fn record_wait(&self, start: Instant) {
        self.wait_hist.observe(start.elapsed().as_nanos() as u64);
    }

    /// Releases every lock held by `txn` and credits the hold time.
    pub fn release_all(&self, txn: u64, held_since: Option<Instant>) {
        let mut table = self.table.lock();
        if let Some(keys) = table.held.remove(&txn) {
            for key in keys {
                if table.owners.get(&key) == Some(&txn) {
                    table.owners.remove(&key);
                }
            }
        }
        drop(table);
        if let Some(since) = held_since {
            self.hold_hist.observe(since.elapsed().as_nanos() as u64);
        }
        self.released.notify_all();
    }

    /// Number of currently locked rows (test helper).
    pub fn locked_rows(&self) -> usize {
        self.table.lock().owners.len()
    }

    /// Blocks until none of `keys` is row-locked by any transaction.
    ///
    /// This is how single-shard atomic primitives stay isolated from ongoing
    /// distributed transactions (paper §4.3: "CFS offers the strong isolation
    /// between single-shard atomic primitives used by fast-path rename and
    /// the conventional distributed transactions"): a primitive touching a
    /// row that a Renamer 2PC currently holds waits for the transaction to
    /// finish. With no distributed transaction in flight — the common case —
    /// this is a single uncontended map probe.
    pub fn wait_until_free(&self, keys: &[Key]) -> FsResult<()> {
        let deadline = Instant::now() + self.wait_timeout;
        let mut table = self.table.lock();
        loop {
            if keys.iter().all(|k| !table.owners.contains_key(k)) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(FsError::Busy);
            }
            self.released.wait_until(&mut table, deadline);
        }
    }
}

/// The `CH_TXN` service of a shard replica: interactive lock-based
/// transactions against the local shard, with writes replicated through the
/// shard's Raft node.
pub struct TxnService {
    node: Arc<cfs_raft::RaftNode<TafShard>>,
    locks: Arc<LockManager>,
    /// Lock acquisition time per transaction, for hold-time accounting.
    txn_starts: Mutex<HashMap<u64, Instant>>,
    /// 2PC phase duration histograms (this replica's registry).
    lock_phase_ns: Arc<Histogram>,
    prepare_phase_ns: Arc<Histogram>,
    commit_phase_ns: Arc<Histogram>,
}

impl TxnService {
    /// Creates the transaction service for one shard replica.
    pub fn new(node: Arc<cfs_raft::RaftNode<TafShard>>, locks: Arc<LockManager>) -> TxnService {
        let reg = obs_metrics::node(node.id().0 as u64);
        TxnService {
            node,
            locks,
            txn_starts: Mutex::new(HashMap::new()),
            lock_phase_ns: reg.histogram("txn_lock_ns"),
            prepare_phase_ns: reg.histogram("txn_prepare_ns"),
            commit_phase_ns: reg.histogram("txn_commit_ns"),
        }
    }

    fn note_txn(&self, txn: u64) {
        self.txn_starts
            .lock()
            .entry(txn)
            .or_insert_with(Instant::now);
    }

    fn finish_txn(&self, txn: u64) -> Option<Instant> {
        self.txn_starts.lock().remove(&txn)
    }

    fn propose(&self, cmd: ShardCmd) -> FsResult<()> {
        let resp = self.node.propose(cmd.to_bytes())?;
        match crate::api::TafResponse::from_bytes(&resp)? {
            crate::api::TafResponse::Err(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Takes `key`'s row lock for `txn`. Row locks live on the leader only:
    /// the leader check is `RaftNode::read`'s own.
    fn lock(&self, txn: u64, key: &Key) -> FsResult<()> {
        self.node.read(|_| ())?;
        let _span = trace::span("txn.lock");
        let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.lock_phase_ns));
        self.note_txn(txn);
        self.locks.acquire(txn, key)
    }

    fn process(&self, req: TxnRequest) -> TxnResponse {
        match req {
            TxnRequest::LockAndRead { txn, key } => match self
                .lock(txn, &key)
                .and_then(|()| self.node.read(|sm| sm.get(&key)))
            {
                Ok(rec) => TxnResponse::Locked(rec),
                Err(e) => TxnResponse::Err(e),
            },
            TxnRequest::Lock { txn, key } => match self.lock(txn, &key) {
                Ok(()) => TxnResponse::Ok,
                Err(e) => TxnResponse::Err(e),
            },
            TxnRequest::Prepare { txn, writes } => {
                let _span = trace::span("txn.prepare");
                let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.prepare_phase_ns));
                match self.propose(ShardCmd::Prepare { txn, writes }) {
                    Ok(()) => TxnResponse::Ok,
                    Err(e) => TxnResponse::Err(e),
                }
            }
            TxnRequest::PreparePrim { txn, prim } => {
                let _span = trace::span("txn.prepare");
                let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.prepare_phase_ns));
                match self.propose(ShardCmd::PreparePrim { txn, prim }) {
                    Ok(()) => TxnResponse::Ok,
                    Err(e) => TxnResponse::Err(e),
                }
            }
            TxnRequest::CommitPrepared { txn } => {
                let _span = trace::span("txn.commit");
                let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.commit_phase_ns));
                let res = self.propose(ShardCmd::CommitPrepared { txn });
                let since = self.finish_txn(txn);
                self.locks.release_all(txn, since);
                match res {
                    Ok(()) => TxnResponse::Ok,
                    Err(e) => TxnResponse::Err(e),
                }
            }
            TxnRequest::Commit { txn, writes } => {
                let _span = trace::span("txn.commit");
                let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.commit_phase_ns));
                let res = self.propose(ShardCmd::CommitWrites { writes });
                let since = self.finish_txn(txn);
                self.locks.release_all(txn, since);
                match res {
                    Ok(()) => TxnResponse::Ok,
                    Err(e) => TxnResponse::Err(e),
                }
            }
            TxnRequest::Abort { txn } => {
                let _span = trace::span("txn.abort");
                let _ = self.propose(ShardCmd::Abort { txn });
                let since = self.finish_txn(txn);
                self.locks.release_all(txn, since);
                TxnResponse::Ok
            }
        }
    }
}

impl Service for TxnService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match TxnRequest::from_bytes(payload) {
            Ok(req) => self.process(req),
            Err(e) => TxnResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::InodeId;

    #[test]
    fn lock_conflict_blocks_until_release() {
        // A node id of its own: the hub is process-global and the other
        // tests' managers share node 0.
        let lm = Arc::new(LockManager::new(770_101));
        let key = Key::attr(InodeId(1));
        lm.acquire(1, &key).unwrap();
        let lm2 = Arc::clone(&lm);
        let key2 = key.clone();
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            lm2.acquire(2, &key2).unwrap();
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        lm.release_all(1, Some(Instant::now()));
        let waited = waiter.join().unwrap();
        assert!(
            waited >= Duration::from_millis(40),
            "waiter must block: {waited:?}"
        );
        let reg = obs_metrics::node(770_101);
        assert_eq!(reg.counter("lock_contentions").get(), 1);
        assert_eq!(reg.counter("lock_acquisitions").get(), 2);
        assert!(reg.histogram_snapshot("lock_wait_ns").sum > 30_000_000);
        assert_eq!(reg.histogram_snapshot("lock_hold_ns").count, 1);
    }

    #[test]
    fn reentrant_acquire_by_owner_is_noop() {
        let lm = LockManager::new(0);
        let key = Key::attr(InodeId(1));
        lm.acquire(7, &key).unwrap();
        lm.acquire(7, &key).unwrap();
        assert_eq!(lm.locked_rows(), 1);
    }

    #[test]
    fn release_all_frees_every_row_of_txn() {
        let lm = LockManager::new(0);
        lm.acquire(1, &Key::attr(InodeId(1))).unwrap();
        lm.acquire(1, &Key::entry(InodeId(1), "a")).unwrap();
        lm.acquire(2, &Key::attr(InodeId(2))).unwrap();
        assert_eq!(lm.locked_rows(), 3);
        lm.release_all(1, None);
        assert_eq!(lm.locked_rows(), 1);
        // Txn 3 can now take txn 1's old rows.
        lm.acquire(3, &Key::attr(InodeId(1))).unwrap();
    }

    #[test]
    fn release_wakes_contended_waiter_promptly() {
        let lm = Arc::new(LockManager::new(0));
        let key = Key::attr(InodeId(3));
        lm.acquire(1, &key).unwrap();
        let lm2 = Arc::clone(&lm);
        let k2 = key.clone();
        let waiter = std::thread::spawn(move || {
            lm2.acquire(2, &k2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(40));
        let released_at = Instant::now();
        lm.release_all(1, None);
        waiter.join().unwrap();
        // The condvar notify must hand the lock over immediately — far
        // sooner than any slice of the 10s default timeout.
        assert!(
            released_at.elapsed() < Duration::from_millis(100),
            "wake-up took {:?}",
            released_at.elapsed()
        );
    }

    #[test]
    fn lock_timeout_returns_busy() {
        let mut lm = LockManager::new(0);
        lm.wait_timeout = Duration::from_millis(30);
        let lm = Arc::new(lm);
        let key = Key::attr(InodeId(9));
        lm.acquire(1, &key).unwrap();
        assert_eq!(lm.acquire(2, &key).unwrap_err(), FsError::Busy);
    }

    #[test]
    fn ordered_lock_keys_prevent_deadlock_pattern() {
        let mut a = vec![Key::entry(InodeId(2), "x"), Key::attr(InodeId(1))];
        let mut b = vec![Key::attr(InodeId(1)), Key::entry(InodeId(2), "x")];
        sort_lock_keys(&mut a);
        sort_lock_keys(&mut b);
        assert_eq!(a, b, "both transactions acquire in the same global order");
        assert!(a[0].is_attr());
    }
}
