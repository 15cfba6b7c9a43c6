//! The placement driver: elastic scale-out for TafDB.
//!
//! CFS keeps the metadata service scalable by adding `inode_table` shards;
//! this crate supplies the control plane that makes that an *online*
//! operation. The driver owns the authoritative, epoch-stamped
//! [`MapVersion`] and orchestrates splits:
//!
//! 1. `MigStart` on the donor — the shard keeps serving the moving range but
//!    records every write to it in a replicated tail, and refuses new 2PC
//!    prepares that touch it.
//! 2. Fuzzy export — pages of the range are read leader-locally
//!    (`MigExport`) and replicated into the fresh receiver shard
//!    (`MigIngest`); concurrent writes are fine, the tail catches them.
//! 3. `MigFreeze` — the donor seals the range (in-range requests answer
//!    `WrongShard`) and hands back the tail, which is replayed on the
//!    receiver. The freeze waits for prepared transactions to drain.
//! 4. Cutover — the driver installs the next map epoch and `MigFinish`
//!    tells the donor to purge the moved keys and redirect stragglers with
//!    the new epoch.
//!
//! Clients notice nothing until a `WrongShard` redirect arrives, then
//! refresh their cached map through [`PlacementClient`] (a
//! [`MapSource`]) and re-route — the lazy, client-side half of the
//! protocol.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_rpc::mux::{frame, CH_APP};
use cfs_rpc::{MuxService, Network, Service};
use cfs_tafdb::api::{ShardCmd, TafRequest, TafResponse};
use cfs_tafdb::router::{MapSource, MapVersion, PartitionMap, ShardInfo};
use cfs_tafdb::TafDbClient;
use cfs_types::codec::{Decode, Encode};
use cfs_types::{wire, FsError, FsResult, NodeId, ShardId};
use parking_lot::Mutex;

/// Entries per `MigExport` page.
const EXPORT_PAGE: u32 = 256;
/// How long the driver keeps retrying a freeze blocked by prepared 2PC
/// transactions before aborting the split.
const FREEZE_TIMEOUT: Duration = Duration::from_secs(10);

/// Wire requests served by the driver node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlacementRequest {
    /// Return a map version newer than `have_epoch`, if one exists.
    FetchMap {
        /// The caller's cached epoch.
        have_epoch: u64,
    },
}

wire!(enum PlacementRequest { 0 => FetchMap { have_epoch } });

/// Wire responses of the driver node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlacementResponse {
    /// A newer map, or `None` when the caller is up to date.
    Map(Option<MapVersion>),
    /// The request failed.
    Err(FsError),
}

wire!(enum PlacementResponse { 0 => Map(map), 1 => Err(err) });

/// Outcome of one completed split.
#[derive(Clone, Copy, Debug)]
pub struct SplitStats {
    /// First kid that moved to the new shard.
    pub split_at: u64,
    /// The donated range (inclusive bounds).
    pub moved: (u64, u64),
    /// Entries streamed in export pages.
    pub keys_streamed: u64,
    /// Writes replayed from the freeze tail.
    pub tail_len: u64,
    /// The map epoch that made the split visible.
    pub epoch: u64,
    /// Wall-clock length of the freeze window (donor sealed → new map
    /// live + donor finished).
    pub freeze: Duration,
}

/// The placement driver: authoritative map owner and split orchestrator.
///
/// Runs as a service on the simulated network; clients fetch map versions
/// from it through [`PlacementClient`].
pub struct PlacementDriver {
    net: Arc<Network>,
    /// The driver's own address (where `FetchMap` is served).
    node: NodeId,
    /// Source address the driver's shard-control RPCs are sent from.
    ctl_node: NodeId,
    /// Authoritative map, shared with server-side components so cutover is
    /// instant for them.
    pmap: Arc<PartitionMap>,
    /// Serializes split operations (one migration at a time).
    mig_lock: Mutex<()>,
}

impl PlacementDriver {
    /// Creates the driver over the authoritative `pmap` and registers its
    /// `FetchMap` service at `node`. `ctl_node` is the address its control
    /// RPCs originate from.
    pub fn new(
        net: Arc<Network>,
        node: NodeId,
        ctl_node: NodeId,
        pmap: Arc<PartitionMap>,
    ) -> Arc<PlacementDriver> {
        let driver = Arc::new(PlacementDriver {
            net: Arc::clone(&net),
            node,
            ctl_node,
            pmap,
            mig_lock: Mutex::new(()),
        });
        let mux = MuxService::new();
        mux.mount(
            CH_APP,
            Arc::new(FetchMapService {
                driver: Arc::clone(&driver),
            }) as Arc<dyn Service>,
        );
        net.register(node, mux);
        driver
    }

    /// The node the driver serves `FetchMap` on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The authoritative map.
    pub fn partition_map(&self) -> &Arc<PartitionMap> {
        &self.pmap
    }

    /// The current authoritative map version.
    pub fn current_version(&self) -> MapVersion {
        self.pmap.current_version()
    }

    /// Splits `src`, moving the upper part of its range onto `new_shard`
    /// (which must be a freshly spawned, empty Raft group already serving
    /// on the network). `at` picks the first kid that moves; `None` asks the
    /// donor for its median occupied kid so the split moves real load.
    ///
    /// Returns after the cutover: the new map epoch is installed in the
    /// authoritative map and the donor redirects stragglers. On error the
    /// migration is aborted and the donor resumes normal service; the
    /// receiver may hold a partial copy and must be discarded, not reused.
    pub fn split(
        &self,
        src: ShardId,
        at: Option<u64>,
        new_shard: ShardInfo,
    ) -> FsResult<SplitStats> {
        let _guard = self.mig_lock.lock();
        let v0 = self.pmap.current_version();

        let (lo, hi) = v0
            .shards
            .iter()
            .find(|r| r.info.id == src)
            .map(|r| (r.start, r.end))
            .ok_or_else(|| FsError::Invalid(format!("unknown shard {src:?}")))?;

        // A private map that already includes the receiver lets one client
        // route to both sides before the public cutover.
        let v1 = {
            // Resolve the split point first if the caller left it open.
            let probe = TafDbClient::new(
                Arc::clone(&self.net),
                self.ctl_node,
                Arc::new(PartitionMap::from_version(v0.clone())),
            );
            let at = match at {
                Some(a) => a,
                None => match probe.request(src, &TafRequest::SplitPoint { lo, hi })? {
                    TafResponse::SplitAt(Some(a)) => a,
                    TafResponse::SplitAt(None) => {
                        return Err(FsError::Invalid(format!(
                            "shard {src:?} holds too few keys to split"
                        )))
                    }
                    TafResponse::Err(e) => return Err(e),
                    other => {
                        return Err(FsError::Corrupted(format!("unexpected response {other:?}")))
                    }
                },
            };
            v0.split(src, at, new_shard.clone())?
        };
        let at = v1
            .shards
            .iter()
            .find(|r| r.info.id == new_shard.id)
            .expect("new shard in split map")
            .start;
        let taf = TafDbClient::new(
            Arc::clone(&self.net),
            self.ctl_node,
            Arc::new(PartitionMap::from_version(v1.clone())),
        );

        match self.migrate(&taf, src, at, hi, &new_shard, &v1) {
            Ok(stats) => Ok(stats),
            Err(e) => {
                // Resume normal service of the range on the donor. If even
                // the abort fails the donor replicas still agree among
                // themselves, so a later retry (or operator action) sees a
                // consistent state.
                let _ = taf.request(src, &TafRequest::MigCtl(ShardCmd::MigAbort { lo: at, hi }));
                Err(e)
            }
        }
    }

    /// The data-plane half of [`PlacementDriver::split`], with the abort
    /// handled by the caller.
    fn migrate(
        &self,
        taf: &TafDbClient,
        src: ShardId,
        at: u64,
        hi: u64,
        new_shard: &ShardInfo,
        v1: &MapVersion,
    ) -> FsResult<SplitStats> {
        ctl(taf, src, ShardCmd::MigStart { lo: at, hi })?;

        // Stream the bulk of the range while it keeps serving.
        let mut after: Option<Vec<u8>> = None;
        let mut keys_streamed = 0u64;
        loop {
            let page = taf.request(
                src,
                &TafRequest::MigExport {
                    lo: at,
                    hi,
                    after: after.clone(),
                    limit: EXPORT_PAGE,
                },
            )?;
            let (ops, done) = match page {
                TafResponse::Exported { ops, done } => (ops, done),
                TafResponse::Err(e) => return Err(e),
                other => return Err(FsError::Corrupted(format!("unexpected response {other:?}"))),
            };
            keys_streamed += ops.len() as u64;
            if let Some(last) = ops.last() {
                after = Some(match last {
                    cfs_kvstore::WriteOp::Put(k, _) | cfs_kvstore::WriteOp::Delete(k) => k.clone(),
                });
            }
            if !ops.is_empty() {
                ingest(taf, new_shard.id, ops)?;
            }
            if done {
                break;
            }
        }

        // Seal the range. Busy means prepared 2PC transactions still
        // intersect it — retry until they drain.
        let freeze_started = Instant::now();
        let deadline = freeze_started + FREEZE_TIMEOUT;
        let tail = loop {
            match ctl(taf, src, ShardCmd::MigFreeze { lo: at, hi }) {
                Ok(TafResponse::Tail(tail)) => break tail,
                Ok(other) => {
                    return Err(FsError::Corrupted(format!("unexpected response {other:?}")))
                }
                Err(FsError::Busy) | Err(FsError::Timeout) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };

        // Replay the tail: the receiver now holds the complete range.
        let tail_len = tail.len() as u64;
        if !tail.is_empty() {
            ingest(taf, new_shard.id, tail)?;
        }
        ctl(taf, new_shard.id, ShardCmd::MigAccept { lo: at, hi })?;

        // Cutover: publish the next epoch, then let the donor purge and
        // redirect with it. Server-side holders of the shared map switch
        // instantly; clients catch up on their next redirect.
        if !self.pmap.install(v1.clone()) {
            return Err(FsError::Conflict);
        }
        ctl(
            taf,
            src,
            ShardCmd::MigFinish {
                lo: at,
                hi,
                epoch: v1.epoch,
            },
        )?;
        Ok(SplitStats {
            split_at: at,
            moved: (at, hi),
            keys_streamed,
            tail_len,
            epoch: v1.epoch,
            freeze: freeze_started.elapsed(),
        })
    }
}

/// Sends a migration control command and surfaces shard errors as `Err`.
fn ctl(taf: &TafDbClient, shard: ShardId, cmd: ShardCmd) -> FsResult<TafResponse> {
    match taf.request(shard, &TafRequest::MigCtl(cmd))? {
        TafResponse::Err(e) => Err(e),
        resp => Ok(resp),
    }
}

/// Replicates one batch of streamed entries into the receiver.
fn ingest(taf: &TafDbClient, shard: ShardId, ops: Vec<cfs_kvstore::WriteOp>) -> FsResult<()> {
    match taf.request(shard, &TafRequest::MigIngest { ops })? {
        TafResponse::Ok => Ok(()),
        TafResponse::Err(e) => Err(e),
        other => Err(FsError::Corrupted(format!("unexpected response {other:?}"))),
    }
}

/// The driver's `FetchMap` RPC endpoint.
struct FetchMapService {
    driver: Arc<PlacementDriver>,
}

impl Service for FetchMapService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match PlacementRequest::from_bytes(payload) {
            Ok(PlacementRequest::FetchMap { have_epoch }) => {
                let v = self.driver.pmap.current_version();
                PlacementResponse::Map((v.epoch > have_epoch).then_some(v))
            }
            Err(e) => PlacementResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

/// Client-side handle to the driver: a [`MapSource`] that fetches newer map
/// versions over the network after a `WrongShard` redirect.
pub struct PlacementClient {
    net: Arc<Network>,
    me: NodeId,
    driver: NodeId,
}

impl PlacementClient {
    /// Creates a handle sending from `me` to the driver at `driver`.
    pub fn new(net: Arc<Network>, me: NodeId, driver: NodeId) -> PlacementClient {
        PlacementClient { net, me, driver }
    }
}

impl MapSource for PlacementClient {
    fn fetch_newer(&self, have_epoch: u64) -> FsResult<Option<MapVersion>> {
        let payload = frame(
            CH_APP,
            &PlacementRequest::FetchMap { have_epoch }.to_bytes(),
        );
        let bytes = self.net.call(self.me, self.driver, &payload)?;
        match PlacementResponse::from_bytes(&bytes)? {
            PlacementResponse::Map(v) => Ok(v),
            PlacementResponse::Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_raft::RaftConfig;
    use cfs_raft::{ReplicaSet, Replicas};
    use cfs_rpc::NetConfig;
    use cfs_tafdb::primitive::{Primitive, UpdateSpec};
    use cfs_tafdb::TafShard;
    use cfs_types::{
        Cond, FieldAssign, FileType, InodeId, Key, NumField, Pred, Record, Timestamp, ROOT_INODE,
    };

    fn fast_raft() -> RaftConfig {
        RaftConfig {
            election_timeout_min: Duration::from_millis(50),
            election_timeout_max: Duration::from_millis(120),
            heartbeat_interval: Duration::from_millis(15),
            ..Default::default()
        }
    }

    fn spawn_group(net: &Arc<Network>, id: u32, base: u32) -> (ShardInfo, ReplicaSet<TafShard>) {
        let ids: Vec<NodeId> = (0..3).map(|i| NodeId(base + i)).collect();
        let info = ShardInfo {
            id: ShardId(id),
            replicas: ids.clone(),
        };
        let group = ReplicaSet::spawn(net, &ids, fast_raft());
        group.wait_ready(Duration::from_secs(5)).unwrap();
        (info, group)
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

    /// Boots one shard owning everything, seeds directories, splits it
    /// online, and checks data lands on the right sides with clients
    /// following redirects transparently.
    #[test]
    fn online_split_moves_data_and_redirects_clients() {
        let net = Network::new(NetConfig::default());
        // Node ids of this test's own: the registry hub is process-global
        // and the migration counters below are asserted exactly.
        let (info0, group0) = spawn_group(&net, 0, 7010);
        let pmap = Arc::new(PartitionMap::new(vec![info0]));
        let driver =
            PlacementDriver::new(Arc::clone(&net), NodeId(3), NodeId(4), Arc::clone(&pmap));

        // A stale client with its own private map copy, refreshed through
        // the driver.
        let client_map = Arc::new(PartitionMap::from_version(pmap.current_version()));
        let client =
            TafDbClient::new(Arc::clone(&net), NodeId(999), client_map).with_map_source(Arc::new(
                PlacementClient::new(Arc::clone(&net), NodeId(999), NodeId(3)),
            ));

        // Seed root plus a batch of directories spread over the id space.
        client
            .put(
                Key::attr(ROOT_INODE),
                Record::dir_attr_record(0, Timestamp(1)),
            )
            .unwrap();
        for i in 0..16u64 {
            let dir = InodeId(100 + i * 1000);
            client
                .put(Key::attr(dir), Record::dir_attr_record(0, Timestamp(1)))
                .unwrap();
            client.execute(create_prim(dir, "child", 5000 + i)).unwrap();
        }

        // Split at the donor's median occupied kid onto a fresh group.
        let (info1, group1) = spawn_group(&net, 1, 7020);
        let stats = driver.split(ShardId(0), None, info1).unwrap();
        assert_eq!(stats.epoch, 2);
        assert!(stats.keys_streamed > 0, "data moved: {stats:?}");
        assert_eq!(driver.current_version().epoch, 2);

        // The stale client keeps working across the cutover: reads of moved
        // and kept kids both succeed after transparent refresh.
        for i in 0..16u64 {
            let dir = InodeId(100 + i * 1000);
            let attr = client.get(&Key::attr(dir)).unwrap();
            assert!(attr.is_some(), "dir {dir:?} readable after split");
            let entries = client.scan(dir, None, 10).unwrap();
            assert_eq!(entries.len(), 1, "children of {dir:?} survive the move");
        }
        // Writes route correctly too.
        let moved_dir = InodeId(stats.split_at);
        client
            .put(
                Key::attr(moved_dir),
                Record::dir_attr_record(0, Timestamp(2)),
            )
            .unwrap();

        // The donor purged and redirects; the receiver owns the moved keys.
        // Every replica counts the replicated migration commands; the
        // leader has applied all of them.
        let leader_registry = |g: &ReplicaSet<TafShard>| {
            cfs_obs::metrics::node(g.raft().leader().expect("leader").id().0 as u64)
        };
        let receiver = leader_registry(&group1);
        assert!(receiver.counter("shard_keys_streamed").get() >= stats.keys_streamed);
        assert_eq!(receiver.counter("shard_ranges_received").get(), 1);
        assert_eq!(
            leader_registry(&group0)
                .counter("shard_ranges_donated")
                .get(),
            1
        );

        group0.shutdown();
        group1.shutdown();
    }

    /// Splitting under concurrent writer load loses nothing: every create
    /// acknowledged before, during, or after the split is readable after it.
    #[test]
    fn split_under_load_loses_no_acknowledged_write() {
        let net = Network::new(NetConfig::default());
        let (info0, group0) = spawn_group(&net, 0, 10);
        let pmap = Arc::new(PartitionMap::new(vec![info0]));
        let driver =
            PlacementDriver::new(Arc::clone(&net), NodeId(3), NodeId(4), Arc::clone(&pmap));

        let mk_client = |me: u32| {
            TafDbClient::new(
                Arc::clone(&net),
                NodeId(me),
                Arc::new(PartitionMap::from_version(pmap.current_version())),
            )
            .with_map_source(Arc::new(PlacementClient::new(
                Arc::clone(&net),
                NodeId(me),
                NodeId(3),
            )))
        };
        let seeder = mk_client(999);
        seeder
            .put(
                Key::attr(ROOT_INODE),
                Record::dir_attr_record(0, Timestamp(1)),
            )
            .unwrap();
        for d in 0..8u64 {
            seeder
                .put(
                    Key::attr(InodeId(10 + d * 500)),
                    Record::dir_attr_record(0, Timestamp(1)),
                )
                .unwrap();
        }

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let acked: Arc<Mutex<Vec<(InodeId, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut writers = Vec::new();
        for w in 0..2u32 {
            let client = mk_client(1000 + w);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            writers.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let dir = InodeId(10 + (i % 8) * 500);
                    let name = format!("w{w}-{i}");
                    if client
                        .execute(create_prim(
                            dir,
                            &name,
                            1_000_000 + u64::from(w) * 100_000 + i,
                        ))
                        .is_ok()
                    {
                        acked.lock().push((dir, name));
                    }
                    i += 1;
                }
            }));
        }

        // Let load build, split mid-stream, then stop the writers.
        std::thread::sleep(Duration::from_millis(150));
        let (info1, group1) = spawn_group(&net, 1, 20);
        let stats = driver.split(ShardId(0), None, info1).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in writers {
            t.join().unwrap();
        }

        // Every acknowledged create must be readable through a fresh client.
        let reader = mk_client(2000);
        let acked = acked.lock();
        assert!(!acked.is_empty(), "writers made progress");
        for (dir, name) in acked.iter() {
            let rec = reader.get(&Key::entry(*dir, name)).unwrap();
            assert!(rec.is_some(), "acked create {dir:?}/{name} lost by split");
        }
        assert!(stats.keys_streamed > 0);

        group0.shutdown();
        group1.shutdown();
    }

    #[test]
    fn placement_wire_round_trips() {
        let req = PlacementRequest::FetchMap { have_epoch: 7 };
        assert_eq!(PlacementRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        let v = MapVersion::equal_ranges(vec![ShardInfo {
            id: ShardId(0),
            replicas: vec![NodeId(1)],
        }]);
        for resp in [
            PlacementResponse::Map(Some(v)),
            PlacementResponse::Map(None),
            PlacementResponse::Err(FsError::Timeout),
        ] {
            assert_eq!(
                PlacementResponse::from_bytes(&resp.to_bytes()).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn fetch_map_returns_only_newer_versions() {
        let net = Network::new(NetConfig::default());
        let pmap = Arc::new(PartitionMap::new(vec![ShardInfo {
            id: ShardId(0),
            replicas: vec![NodeId(10)],
        }]));
        let _driver = PlacementDriver::new(Arc::clone(&net), NodeId(3), NodeId(4), pmap);
        let src = PlacementClient::new(Arc::clone(&net), NodeId(999), NodeId(3));
        assert!(src.fetch_newer(0).unwrap().is_some());
        assert!(src.fetch_newer(1).unwrap().is_none());
        assert!(src.fetch_newer(9).unwrap().is_none());
    }
}
