//! Client-side access to TafDB: routing, leader discovery, retries.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_raft::{Mode, Reply, RETRY_TIMEOUT};
use cfs_rpc::mux::{frame, CH_APP, CH_TXN};
use cfs_rpc::Network;
use cfs_types::codec::Encode;
use cfs_types::{FsError, FsResult, InodeId, Key, NodeId, PendingRow, Record, ShardId};

use crate::api::{DirEntry, Resolved, TafRequest, TafResponse, TxnRequest, TxnResponse};
use crate::primitive::{PrimResult, Primitive};
use crate::router::{MapSource, PartitionMap};

/// Which replicas may serve this client's reads (resolves, gets, scans).
/// Writes always go through the shard leader regardless.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReadConsistency {
    /// Reads go to the shard leader and are served from its local state
    /// (the seed behavior).
    #[default]
    LeaderOnly,
    /// Reads round-robin over all replicas; each replica confirms the
    /// leader's commit index through a ReadIndex round and waits until it
    /// has applied that far before answering. Linearizable, and the read
    /// CPU/IO cost spreads over the whole group.
    ReadIndex,
}

/// A TafDB client handle: routes requests to the owning shard's leader using
/// the cached partition map (part of *client-side metadata resolving*,
/// paper §3.1 — no proxy hop). A `WrongShard` redirect makes the client
/// refresh its cached map through the configured [`MapSource`] and re-route.
pub struct TafDbClient {
    net: Arc<Network>,
    me: NodeId,
    pmap: Arc<PartitionMap>,
    /// Where to fetch newer map versions after a redirect (`None` = static
    /// layout, redirects surface to the caller).
    map_source: Option<Arc<dyn MapSource>>,
    /// Which replicas serve this client's reads.
    consistency: ReadConsistency,
}

impl Reply for TafResponse {
    fn in_band(&self) -> Option<&FsError> {
        match self {
            TafResponse::Err(e) => Some(e),
            _ => None,
        }
    }
}

impl Reply for TxnResponse {
    fn in_band(&self) -> Option<&FsError> {
        match self {
            TxnResponse::Err(e) => Some(e),
            _ => None,
        }
    }
}

impl TafDbClient {
    /// The node id this client sends as (observability attributes client
    /// spans to it).
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Creates a client identified as `me` on the network.
    pub fn new(net: Arc<Network>, me: NodeId, pmap: Arc<PartitionMap>) -> TafDbClient {
        TafDbClient {
            net,
            me,
            pmap,
            map_source: None,
            consistency: ReadConsistency::default(),
        }
    }

    /// Configures where the client refreshes its partition map after a
    /// `WrongShard` redirect.
    pub fn with_map_source(mut self, source: Arc<dyn MapSource>) -> TafDbClient {
        self.map_source = Some(source);
        self
    }

    /// Selects which replicas serve this client's reads.
    pub fn with_consistency(mut self, consistency: ReadConsistency) -> TafDbClient {
        self.consistency = consistency;
        self
    }

    /// The configured read consistency.
    pub fn consistency(&self) -> ReadConsistency {
        self.consistency
    }

    /// The partition map (shared with other client components).
    pub fn partition_map(&self) -> &Arc<PartitionMap> {
        &self.pmap
    }

    /// Refreshes the cached map after a `WrongShard` carrying `hint_epoch`.
    /// Returns true when routing may already have changed (newer version
    /// installed, or the cache is already past the hinted epoch).
    fn refresh_map(&self, hint_epoch: u64) -> bool {
        let have = self.pmap.epoch();
        if hint_epoch > 0 && have >= hint_epoch {
            // The redirect chased an epoch this cache already knows; the
            // recomputed route will differ from the stale one.
            return true;
        }
        let Some(src) = &self.map_source else {
            return false;
        };
        match src.fetch_newer(have) {
            Ok(Some(v)) => self.pmap.install(v),
            _ => false,
        }
    }

    /// Routes `op` by `kid`, refreshing the map and re-routing whenever the
    /// contacted shard answers `WrongShard` (lazy client-side catch-up;
    /// during the cutover freeze the shard answers `WrongShard(0)` and the
    /// client polls until the new map is published).
    fn with_routing<T>(
        &self,
        kid: InodeId,
        op: impl Fn(&Self, ShardId) -> FsResult<T>,
    ) -> FsResult<T> {
        let deadline = Instant::now() + RETRY_TIMEOUT;
        loop {
            let shard = self.pmap.shard_for(kid);
            match op(self, shard) {
                Err(FsError::WrongShard(epoch)) => {
                    if !self.refresh_map(epoch) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    if Instant::now() >= deadline {
                        return Err(FsError::Timeout);
                    }
                }
                other => return other,
            }
        }
    }

    /// Issues `req` to the leader of `shard` ([`Mode::Leader`]). The reply's
    /// own error, `WrongShard` included, comes back inside it.
    pub fn request(&self, shard: ShardId, req: &TafRequest) -> FsResult<TafResponse> {
        let payload = frame(CH_APP, &req.to_bytes());
        self.pmap
            .route(shard)
            .call(&self.net, self.me, &payload, Mode::Leader)
    }

    /// Issues the read-only `req` to `shard` under the configured
    /// consistency: `LeaderOnly` goes to the leader, while `ReadIndex` wraps
    /// the request and round-robins it over all replicas (each replica
    /// proves freshness against the leader before answering).
    pub fn read_request(&self, shard: ShardId, req: &TafRequest) -> FsResult<TafResponse> {
        match self.consistency {
            ReadConsistency::LeaderOnly => self.request(shard, req),
            ReadConsistency::ReadIndex => {
                let wrapped = TafRequest::ReadIndex(Box::new(req.clone()));
                let payload = frame(CH_APP, &wrapped.to_bytes());
                self.pmap
                    .route(shard)
                    .call(&self.net, self.me, &payload, Mode::Spread)
            }
        }
    }

    /// Issues an interactive-transaction request to the leader of `shard`
    /// ([`Mode::Txn`]: every error but a redirect comes back in the reply).
    pub fn txn_request(&self, shard: ShardId, req: &TxnRequest) -> FsResult<TxnResponse> {
        let payload = frame(CH_TXN, &req.to_bytes());
        self.pmap
            .route(shard)
            .call(&self.net, self.me, &payload, Mode::Txn)
    }

    /// Point read of one record.
    pub fn get(&self, key: &Key) -> FsResult<Option<Record>> {
        self.with_routing(key.kid, |c, shard| {
            match c.read_request(shard, &TafRequest::Get(key.clone()))? {
                TafResponse::Record(rec) => Ok(rec),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Ordered listing of a directory's children.
    pub fn scan(&self, dir: InodeId, after: Option<String>, limit: u32) -> FsResult<Vec<DirEntry>> {
        self.with_routing(dir, |c, shard| {
            match c.read_request(
                shard,
                &TafRequest::Scan {
                    dir,
                    after: after.clone(),
                    limit,
                },
            )? {
                TafResponse::Entries(es) => Ok(es),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Batched path walk: resolves the longest prefix of `comps` that the
    /// shard owning `start` holds, in a single RPC. The caller inspects the
    /// returned [`Resolved`] to continue on the next shard (see
    /// [`crate::api::ResolveEnd::Continue`]).
    pub fn resolve_prefix(&self, start: InodeId, comps: &[String]) -> FsResult<Resolved> {
        self.with_routing(start, |c, shard| {
            let (lo, hi) = c.pmap.range_of(shard);
            match c.read_request(
                shard,
                &TafRequest::ResolvePrefix {
                    start,
                    comps: comps.to_vec(),
                    lo,
                    hi,
                },
            )? {
                TafResponse::Resolved(r) => Ok(r),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Executes a single-shard atomic primitive.
    ///
    /// # Panics
    ///
    /// Debug builds assert the primitive touches exactly one shard — by
    /// construction of the metadata organization this always holds (§4.1).
    pub fn execute(&self, prim: Primitive) -> FsResult<PrimResult> {
        let kids = prim.touched_kids();
        debug_assert!(!kids.is_empty(), "primitive touches no record");
        debug_assert!(
            kids.iter()
                .all(|&k| self.pmap.shard_for(k) == self.pmap.shard_for(kids[0])),
            "single-shard primitive spans shards: {kids:?}"
        );
        self.with_routing(kids[0], |c, shard| {
            match c.request(shard, &TafRequest::Execute(prim.clone()))? {
                TafResponse::Executed(res) => Ok(res),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Upserts one record (directory `/_ATTR` creation, GC repair).
    pub fn put(&self, key: Key, rec: Record) -> FsResult<()> {
        self.with_routing(key.kid, |c, shard| {
            match c.request(shard, &TafRequest::Put(key.clone(), rec.clone()))? {
                TafResponse::Ok => Ok(()),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Deletes one record (GC cleanup).
    pub fn delete(&self, key: Key) -> FsResult<()> {
        self.with_routing(key.kid, |c, shard| {
            match c.request(shard, &TafRequest::Delete(key.clone()))? {
                TafResponse::Ok => Ok(()),
                TafResponse::Err(e) => Err(e),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Reads the GC pending table of `shard`. Rows stay on the group that
    /// applied them, so this is addressed by shard, not routed by key.
    pub fn pending(&self, shard: ShardId) -> FsResult<Vec<PendingRow>> {
        match self.read_request(shard, &TafRequest::Pending)? {
            TafResponse::Pending(rows) => Ok(rows),
            TafResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Drops the listed rows of `shard`'s pending table that are still
    /// unchanged (replicated).
    pub fn gc_trim(&self, shard: ShardId, rows: Vec<PendingRow>) -> FsResult<()> {
        match self.request(shard, &TafRequest::GcTrim(rows))? {
            TafResponse::Ok => Ok(()),
            TafResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: TafResponse) -> FsError {
    FsError::Corrupted(format!("unexpected response variant: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::UpdateSpec;
    use crate::router::ShardInfo;
    use crate::shard::TafShard;
    use cfs_raft::{RaftConfig, ReplicaSet, Replicas};
    use cfs_rpc::NetConfig;
    use cfs_types::{Cond, FieldAssign, FileType, NumField, Pred, Timestamp, ROOT_INODE};

    fn fast_raft() -> RaftConfig {
        RaftConfig {
            election_timeout_min: Duration::from_millis(50),
            election_timeout_max: Duration::from_millis(120),
            heartbeat_interval: Duration::from_millis(15),
            ..Default::default()
        }
    }

    /// Boots a 2-shard TafDB, each shard a 3-replica Raft group.
    fn boot() -> (Arc<Network>, Vec<ReplicaSet<TafShard>>, TafDbClient) {
        let net = Network::new(NetConfig::default());
        let mut shards = Vec::new();
        let mut groups = Vec::new();
        for s in 0..2u32 {
            let ids: Vec<NodeId> = (0..3).map(|i| NodeId(s * 10 + i)).collect();
            shards.push(ShardInfo {
                id: ShardId(s),
                replicas: ids.clone(),
            });
            groups.push(ReplicaSet::spawn(&net, &ids, fast_raft()));
        }
        for g in &groups {
            g.wait_ready(Duration::from_secs(5)).unwrap();
        }
        let pmap = Arc::new(PartitionMap::new(shards));
        let client = TafDbClient::new(Arc::clone(&net), NodeId(999), pmap);
        // Seed the root directory attribute record.
        client
            .put(
                Key::attr(ROOT_INODE),
                Record::dir_attr_record(0, Timestamp(1)),
            )
            .unwrap();
        (net, groups, client)
    }

    fn create_prim(parent: InodeId, name: &str, ino: u64) -> Primitive {
        Primitive::insert_with_update(
            Key::entry(parent, name),
            Record::id_record(InodeId(ino), FileType::File),
            UpdateSpec {
                cond: Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
                assigns: vec![FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                }],
                per_deleted: Vec::new(),
                set_id: None,
            },
        )
    }

    #[test]
    fn end_to_end_execute_and_read() {
        let (_net, groups, client) = boot();
        client
            .execute(create_prim(ROOT_INODE, "hello", 500))
            .unwrap();
        let rec = client
            .get(&Key::entry(ROOT_INODE, "hello"))
            .unwrap()
            .unwrap();
        assert_eq!(rec.id, Some(InodeId(500)));
        let attr = client.get(&Key::attr(ROOT_INODE)).unwrap().unwrap();
        assert_eq!(attr.children, Some(1));
        let entries = client.scan(ROOT_INODE, None, 10).unwrap();
        assert_eq!(entries.len(), 1);
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn duplicate_create_surfaces_already_exists() {
        let (_net, groups, client) = boot();
        client.execute(create_prim(ROOT_INODE, "x", 1)).unwrap();
        assert_eq!(
            client.execute(create_prim(ROOT_INODE, "x", 2)).unwrap_err(),
            FsError::AlreadyExists
        );
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn failed_id_check_answers_conflict_at_once() {
        let (net, groups, client) = boot();
        client.execute(create_prim(ROOT_INODE, "x", 1)).unwrap();
        // Unlink "x" only if it names inode 2: it names 1, so the check
        // fails. Every replica would fail it, so no retry can help.
        let guarded = Primitive::delete_with_update(
            Cond::require(Key::entry(ROOT_INODE, "x"), vec![Pred::IdEq(InodeId(2))]),
            UpdateSpec::new(
                Cond::require(Key::attr(ROOT_INODE), vec![Pred::TypeIs(FileType::Dir)]),
                vec![FieldAssign::Delta {
                    field: NumField::Children,
                    delta: -1,
                }],
            ),
        );
        let calls_before = net.stats().snapshot().calls;
        let started = Instant::now();
        assert_eq!(client.execute(guarded).unwrap_err(), FsError::Conflict);
        let took = started.elapsed();
        let calls = net.stats().snapshot().calls - calls_before;
        assert!(took < Duration::from_millis(100), "took {took:?}");
        assert!(calls <= 4, "{calls} calls");
        assert!(client.get(&Key::entry(ROOT_INODE, "x")).unwrap().is_some());
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn client_survives_shard_leader_failover() {
        let (net, groups, client) = boot();
        client
            .execute(create_prim(ROOT_INODE, "before", 1))
            .unwrap();
        // Kill shard 0's current leader.
        let leader = groups[0].raft().leader().expect("has leader");
        net.kill(leader.id());
        // The client retries until the new leader answers.
        client.execute(create_prim(ROOT_INODE, "after", 2)).unwrap();
        let rec = client.get(&Key::entry(ROOT_INODE, "after")).unwrap();
        assert!(rec.is_some());
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn interactive_txn_with_locks_commits() {
        let (_net, groups, client) = boot();
        let shard = client.partition_map().shard_for(ROOT_INODE);
        let txn = 42u64;
        // Lock-and-read the root attr (Figure 3 step 2).
        let resp = client
            .txn_request(
                shard,
                &TxnRequest::LockAndRead {
                    txn,
                    key: Key::attr(ROOT_INODE),
                },
            )
            .unwrap();
        let mut attr = match resp {
            TxnResponse::Locked(Some(rec)) => rec,
            other => panic!("unexpected {other:?}"),
        };
        // Mutate and commit with the new child insert.
        attr.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: 1,
        });
        let writes = vec![
            (Key::attr(ROOT_INODE), Some(attr)),
            (
                Key::entry(ROOT_INODE, "via-txn"),
                Some(Record::id_record(InodeId(77), FileType::File)),
            ),
        ];
        let resp = client
            .txn_request(shard, &TxnRequest::Commit { txn, writes })
            .unwrap();
        assert_eq!(resp, TxnResponse::Ok);
        let rec = client.get(&Key::entry(ROOT_INODE, "via-txn")).unwrap();
        assert!(rec.is_some());
        // Locks are released: a second txn can lock the same row.
        let resp = client
            .txn_request(
                shard,
                &TxnRequest::LockAndRead {
                    txn: 43,
                    key: Key::attr(ROOT_INODE),
                },
            )
            .unwrap();
        assert!(matches!(resp, TxnResponse::Locked(Some(_))));
        client
            .txn_request(shard, &TxnRequest::Abort { txn: 43 })
            .unwrap();
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn resolve_prefix_crosses_shards_with_cursor() {
        let (_net, groups, client) = boot();
        // Directory "a" gets an id in shard 1's range; its child file "f"
        // has its id record under dir `a`, so it also lives on shard 1.
        let big = u64::MAX / 2 + 10;
        client
            .put(
                Key::entry(ROOT_INODE, "a"),
                Record::id_record(InodeId(big), FileType::Dir),
            )
            .unwrap();
        client
            .put(
                Key::attr(InodeId(big)),
                Record::dir_attr_record(0, Timestamp(2)),
            )
            .unwrap();
        client
            .put(
                Key::entry(InodeId(big), "f"),
                Record::id_record(InodeId(7), FileType::File),
            )
            .unwrap();
        let comps = vec!["a".to_string(), "f".to_string()];
        // Hop 1: shard 0 resolves "a" and hands back a cursor.
        let r = client.resolve_prefix(ROOT_INODE, &comps).unwrap();
        assert_eq!(r.steps.len(), 1);
        assert_eq!(r.steps[0].ino, InodeId(big));
        assert_eq!(r.end, crate::api::ResolveEnd::Continue);
        // Hop 2: shard 1 finishes the walk.
        let r2 = client.resolve_prefix(InodeId(big), &comps[1..]).unwrap();
        assert_eq!(r2.steps.len(), 1);
        assert_eq!(r2.steps[0].ino, InodeId(7));
        assert_eq!(r2.end, crate::api::ResolveEnd::Done);
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn read_index_client_reads_its_own_writes_from_any_replica() {
        let (net, groups, client) = boot();
        client.execute(create_prim(ROOT_INODE, "fresh", 9)).unwrap();
        let reader = TafDbClient::new(
            Arc::clone(&net),
            NodeId(998),
            Arc::clone(client.partition_map()),
        )
        .with_consistency(ReadConsistency::ReadIndex);
        // Reads rotate over all three replicas; every one of them must see
        // the committed write thanks to the ReadIndex confirmation.
        for _ in 0..6 {
            let rec = reader.get(&Key::entry(ROOT_INODE, "fresh")).unwrap();
            assert_eq!(rec.unwrap().id, Some(InodeId(9)));
        }
        let entries = reader.scan(ROOT_INODE, None, 10).unwrap();
        assert_eq!(entries.len(), 1);
        let r = reader
            .resolve_prefix(ROOT_INODE, &["fresh".to_string()])
            .unwrap();
        assert_eq!(r.end, crate::api::ResolveEnd::Done);
        assert_eq!(r.steps[0].ino, InodeId(9));
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn metrics_report_lock_activity() {
        let (_net, groups, client) = boot();
        let shard = client.partition_map().shard_for(ROOT_INODE);
        // Row locks live on the leader, whichever replica that is; the hub
        // is process-global, so compare against the count before.
        let acquisitions = || -> u64 {
            groups[shard.0 as usize]
                .raft()
                .nodes()
                .iter()
                .map(|n| {
                    cfs_obs::metrics::node(n.id().0 as u64)
                        .counter("lock_acquisitions")
                        .get()
                })
                .sum()
        };
        let before = acquisitions();
        client
            .txn_request(
                shard,
                &TxnRequest::LockAndRead {
                    txn: 1,
                    key: Key::attr(ROOT_INODE),
                },
            )
            .unwrap();
        client
            .txn_request(shard, &TxnRequest::Abort { txn: 1 })
            .unwrap();
        assert!(acquisitions() > before);
        for g in &groups {
            g.shutdown();
        }
    }
}
