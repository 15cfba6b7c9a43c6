//! Full-cluster assembly: one call boots the whole Figure 5 deployment.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cfs_filestore::{FileStoreClient, FileStoreLayout, FileStoreNode};
use cfs_placement::{PlacementClient, PlacementDriver, SplitStats};
use cfs_raft::{RaftConfig, ReplicaSet, Replicas};
use cfs_renamer::{RenamerClient, RenamerService};
use cfs_rpc::{NetConfig, Network};
use cfs_tafdb::router::{PartitionMap, ShardInfo};
use cfs_tafdb::{ReadConsistency, TafDbClient, TafShard, TimeService, TsClient};
use cfs_types::{FsError, FsResult, NodeId, Record, ShardId, Timestamp, VolumeId, ROOT_INODE};
use cfs_volume::{QosConfig, QosLimiter, VolumeRegistry};
use parking_lot::RwLock;

use crate::client::CfsClient;
use crate::gc::GarbageCollector;

/// Node-id layout of the simulated cluster.
const TS_NODE: NodeId = NodeId(1);
const RENAMER_NODE: NodeId = NodeId(2);
/// The placement driver's service address (map fetches).
const PLACEMENT_NODE: NodeId = NodeId(3);
/// Source address of the driver's shard-control RPCs.
const PLACEMENT_CTL_NODE: NodeId = NodeId(4);
const TAF_BASE: u32 = 100;
const FS_BASE: u32 = 10_000;
const CLIENT_BASE: u32 = 1_000_000;

/// Deployment configuration.
#[derive(Clone, Debug)]
pub struct CfsConfig {
    /// Number of TafDB shards (each a Raft group).
    pub taf_shards: usize,
    /// Number of logical FileStore nodes (each a Raft group).
    pub filestore_nodes: usize,
    /// Replication degree of every group (the paper deploys 3).
    pub replication: usize,
    /// Raft timing.
    pub raft: RaftConfig,
    /// Network simulation parameters.
    pub net: NetConfig,
    /// Which replicas serve client reads: the leader only (default), or any
    /// replica after a ReadIndex freshness proof.
    pub read_consistency: ReadConsistency,
    /// Data block size in bytes.
    pub block_size: u64,
    /// Timestamp block fetched per TS RPC.
    pub ts_block: u32,
    /// Inode-id block fetched per TS RPC.
    pub id_block: u32,
}

impl Default for CfsConfig {
    fn default() -> Self {
        CfsConfig {
            taf_shards: 4,
            filestore_nodes: 4,
            replication: 3,
            raft: RaftConfig {
                election_timeout_min: Duration::from_millis(100),
                election_timeout_max: Duration::from_millis(250),
                heartbeat_interval: Duration::from_millis(25),
                snapshot_threshold: 256,
                ..Default::default()
            },
            net: NetConfig::default(),
            read_consistency: ReadConsistency::default(),
            block_size: 64 * 1024,
            ts_block: 1,
            id_block: 64,
        }
    }
}

impl CfsConfig {
    /// A small, fast-booting configuration for tests.
    pub fn test_small() -> CfsConfig {
        CfsConfig {
            taf_shards: 2,
            filestore_nodes: 2,
            replication: 3,
            raft: RaftConfig {
                election_timeout_min: Duration::from_millis(50),
                election_timeout_max: Duration::from_millis(120),
                heartbeat_interval: Duration::from_millis(15),
                // Low enough that nemesis-length runs actually compact.
                snapshot_threshold: 48,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// The TS, TafDB and FileStore tiers of one deployment on a network of its
/// own, booted and elected: the part [`CfsCluster`] and the baseline systems
/// share. Dropping it shuts the tiers down and frees the network.
pub struct Tiers {
    /// The deployment's network.
    pub net: Arc<Network>,
    /// The authoritative partition map of the TafDB shards.
    pub pmap: Arc<PartitionMap>,
    /// The FileStore nodes' replica addresses.
    pub fs_layout: Arc<FileStoreLayout>,
    taf_groups: RwLock<Vec<Arc<ReplicaSet<TafShard>>>>,
    fs_groups: Vec<Arc<ReplicaSet<FileStoreNode>>>,
    _time_service: Arc<TimeService>,
}

impl Tiers {
    /// Boots the tiers `config` describes, the TS at `ts` and replica `r` of
    /// TafDB shard (FileStore node) `g` at `taf_base` (`fs_base`)
    /// `+ g × replication + r`, and waits for every group to elect.
    pub fn start(config: &CfsConfig, ts: NodeId, taf_base: u32, fs_base: u32) -> FsResult<Tiers> {
        let net = Network::new(config.net.clone());
        let replicas = |base: u32, g: usize| -> Vec<NodeId> {
            (0..config.replication)
                .map(|r| NodeId(base + (g * config.replication + r) as u32))
                .collect()
        };
        let shard_infos: Vec<ShardInfo> = (0..config.taf_shards)
            .map(|s| ShardInfo {
                id: ShardId(s as u32),
                replicas: replicas(taf_base, s),
            })
            .collect();
        let fs_nodes: Vec<Vec<NodeId>> = (0..config.filestore_nodes)
            .map(|n| replicas(fs_base, n))
            .collect();
        let pmap = Arc::new(PartitionMap::new(shard_infos.clone()));
        let time_service = TimeService::new(Arc::clone(&pmap));
        time_service.register(&net, ts);
        let taf_groups = shard_infos
            .iter()
            .map(|info| Arc::new(ReplicaSet::spawn(&net, &info.replicas, config.raft.clone())))
            .collect();
        let fs_groups = fs_nodes
            .iter()
            .map(|ids| Arc::new(ReplicaSet::spawn(&net, ids, config.raft.clone())))
            .collect();
        let tiers = Tiers {
            pmap,
            fs_layout: Arc::new(FileStoreLayout::new(fs_nodes)),
            taf_groups: RwLock::new(taf_groups),
            fs_groups,
            _time_service: time_service,
            net,
        };
        for g in tiers.replica_sets() {
            g.wait_ready(Duration::from_secs(30))?;
        }
        Ok(tiers)
    }

    /// The TafDB shard groups, split receivers included (a snapshot: the
    /// set grows when a split lands).
    pub fn taf_groups(&self) -> Vec<Arc<ReplicaSet<TafShard>>> {
        self.taf_groups.read().clone()
    }

    /// Every group of both tiers, TafDB first.
    fn replica_sets(&self) -> Vec<Arc<dyn Replicas>> {
        let taf = self
            .taf_groups()
            .into_iter()
            .map(|g| g as Arc<dyn Replicas>);
        let fs = self
            .fs_groups
            .iter()
            .map(|g| Arc::clone(g) as Arc<dyn Replicas>);
        taf.chain(fs).collect()
    }

    /// The group serving the replica at `id`, and the replica's index in it.
    fn replica(&self, id: NodeId) -> FsResult<(Arc<dyn Replicas>, usize)> {
        self.replica_sets()
            .into_iter()
            .find_map(|g| {
                let i = g.ids().iter().position(|&n| n == id)?;
                Some((g, i))
            })
            .ok_or_else(|| FsError::Invalid(format!("no replica at node {}", id.0)))
    }

    /// Stops every group and unregisters every service on the network,
    /// which breaks the services → nodes → network cycle so the network
    /// and its workers are freed once the last handle goes.
    pub fn shutdown(&self) {
        for g in self.replica_sets() {
            g.shutdown();
        }
        self.net.unregister_all();
    }
}

impl Drop for Tiers {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A fully wired CFS deployment on a simulated network.
pub struct CfsCluster {
    config: CfsConfig,
    tiers: Tiers,
    driver: Arc<PlacementDriver>,
    qos: Arc<QosLimiter>,
    _renamer: Arc<RenamerService>,
    next_client: AtomicU32,
    /// First unused TafDB replica node id (split receivers allocate here).
    next_taf_node: AtomicU32,
    /// First unused shard id.
    next_shard_id: AtomicU32,
}

impl CfsCluster {
    /// Boots the whole deployment and waits for every group to elect.
    pub fn start(config: CfsConfig) -> FsResult<CfsCluster> {
        let tiers = Tiers::start(&config, TS_NODE, TAF_BASE, FS_BASE)?;
        let net = &tiers.net;

        // Placement driver: owns the authoritative map and serves it to
        // clients chasing `WrongShard` redirects.
        let driver = PlacementDriver::new(
            Arc::clone(net),
            PLACEMENT_NODE,
            PLACEMENT_CTL_NODE,
            Arc::clone(&tiers.pmap),
        );

        // Seed the root directory (parent pointer = itself).
        let boot_taf = TafDbClient::new(Arc::clone(net), NodeId(90), Arc::clone(&tiers.pmap));
        let mut root = Record::dir_attr_record(0, Timestamp(0));
        root.id = Some(ROOT_INODE);
        boot_taf.put(cfs_types::Key::attr(ROOT_INODE), root)?;
        // Seed the volume registry's counter record (kid 0 on shard 0) so
        // concurrent `create` calls race only on the CAS, never on init.
        VolumeRegistry::new(boot_taf).ensure_init()?;

        // Renamer coordinator with its own component clients.
        let renamer = RenamerService::new(
            TafDbClient::new(Arc::clone(net), NodeId(91), Arc::clone(&tiers.pmap)),
            FileStoreClient::new(Arc::clone(net), NodeId(92), Arc::clone(&tiers.fs_layout)),
            TsClient::new(
                Arc::clone(net),
                NodeId(93),
                TS_NODE,
                config.ts_block,
                config.id_block,
            ),
        );
        renamer.register(net, RENAMER_NODE);

        let next_taf_node =
            AtomicU32::new(TAF_BASE + (config.taf_shards * config.replication) as u32);
        let next_shard_id = AtomicU32::new(config.taf_shards as u32);
        Ok(CfsCluster {
            config,
            tiers,
            driver,
            qos: Arc::new(QosLimiter::new(QosConfig::default())),
            _renamer: renamer,
            next_client: AtomicU32::new(CLIENT_BASE),
            next_taf_node,
            next_shard_id,
        })
    }

    /// The simulated network (fault injection, stats).
    pub fn network(&self) -> &Arc<Network> {
        &self.tiers.net
    }

    /// The deployment configuration.
    pub fn config(&self) -> &CfsConfig {
        &self.config
    }

    /// The TafDB backend groups (metrics, fault injection). The set grows
    /// when [`CfsCluster::split_shard`] adds receivers, so a snapshot is
    /// returned rather than a borrow.
    pub fn taf_groups(&self) -> Vec<Arc<ReplicaSet<TafShard>>> {
        self.tiers.taf_groups()
    }

    /// The FileStore groups.
    pub fn fs_groups(&self) -> &[Arc<ReplicaSet<FileStoreNode>>] {
        &self.tiers.fs_groups
    }

    /// Every group of both tiers, TafDB first, split receivers included.
    pub fn replica_sets(&self) -> Vec<Arc<dyn Replicas>> {
        self.tiers.replica_sets()
    }

    /// The placement driver (authoritative map, split orchestration).
    pub fn placement(&self) -> &Arc<PlacementDriver> {
        &self.driver
    }

    /// Splits `src` online at its median occupied kid: spawns a fresh Raft
    /// group on new node ids, streams the upper half of the range into it
    /// under live load, and cuts the partition map over to the next epoch.
    /// On failure the donor resumes normal service and the partial receiver
    /// is torn down.
    pub fn split_shard(&self, src: ShardId) -> FsResult<SplitStats> {
        self.split_shard_inner(src, None)
    }

    /// Like [`CfsCluster::split_shard`] but at an explicit key. Splitting a
    /// shard at [`VolumeId::band_start`] gives that volume its own Raft
    /// group — the scale-out lever for a hot tenant.
    pub fn split_shard_at(&self, src: ShardId, at: u64) -> FsResult<SplitStats> {
        self.split_shard_inner(src, Some(at))
    }

    fn split_shard_inner(&self, src: ShardId, at: Option<u64>) -> FsResult<SplitStats> {
        let id = ShardId(self.next_shard_id.fetch_add(1, Ordering::Relaxed));
        let base = self
            .next_taf_node
            .fetch_add(self.config.replication as u32, Ordering::Relaxed);
        assert!(
            base + self.config.replication as u32 <= FS_BASE,
            "TafDB node ids exhausted"
        );
        let replicas: Vec<NodeId> = (0..self.config.replication as u32)
            .map(|r| NodeId(base + r))
            .collect();
        let group = Arc::new(ReplicaSet::<TafShard>::spawn(
            self.network(),
            &replicas,
            self.config.raft.clone(),
        ));
        group.wait_ready(Duration::from_secs(30))?;
        match self.driver.split(src, at, ShardInfo { id, replicas }) {
            Ok(stats) => {
                self.tiers.taf_groups.write().push(group);
                Ok(stats)
            }
            Err(e) => {
                // The receiver may hold a partial copy: discard it.
                group.shutdown();
                Err(e)
            }
        }
    }

    /// Simulates kill −9 of the TafDB or FileStore replica at `id`: the node
    /// object and every piece of in-flight state it held (proposals,
    /// ReadIndex rounds, lock-manager waits) are dropped; only its durable
    /// [`cfs_raft::RaftStorage`] survives, playing the disk.
    pub fn crash_node(&self, id: NodeId) -> FsResult<()> {
        let (g, i) = self.tiers.replica(id)?;
        g.crash_replica(i);
        Ok(())
    }

    /// Brings a crashed replica back from WAL + snapshot: a fresh state
    /// machine is restored from the persisted image and log tail, registry
    /// gauges are re-derived, services are remounted, and the replica
    /// rejoins its Raft group.
    pub fn restart_node(&self, id: NodeId) -> FsResult<()> {
        let (g, i) = self.tiers.replica(id)?;
        g.restart_replica(i);
        Ok(())
    }

    /// Caps the bytes the replica at `id` (TafDB or FileStore) can still
    /// write to its log volume before `ENOSPC` (`None` lifts the cap): the
    /// `disk_full` nemesis fault.
    pub fn set_disk_budget(&self, id: NodeId, budget: Option<u64>) -> FsResult<()> {
        self.replica_faults(id)?.set_byte_budget(budget);
        Ok(())
    }

    /// Arms a one-shot torn write on the replica at `id`'s log volume
    /// (the device wedges after the tear; pair with [`CfsCluster::crash_node`]).
    pub fn arm_torn_write(&self, id: NodeId, ppm: u32) -> FsResult<()> {
        self.replica_faults(id)?.arm_torn_write(ppm);
        Ok(())
    }

    /// Heals the replica at `id`'s simulated log volume (lifts the byte
    /// budget, disarms tears and bit-rot, un-wedges).
    pub fn clear_storage_faults(&self, id: NodeId) -> FsResult<()> {
        self.replica_faults(id)?.clear();
        Ok(())
    }

    /// The simulated storage device under the replica at `id`'s log volume,
    /// looked up across TafDB and FileStore groups alike.
    pub fn replica_faults(&self, id: NodeId) -> FsResult<Arc<cfs_wal::FaultFs>> {
        let (g, i) = self.tiers.replica(id)?;
        Ok(g.replica_faults(i))
    }

    /// Creates a new client with a unique address. Each client caches its
    /// own copy of the partition map and refreshes it from the placement
    /// driver when a shard answers `WrongShard` — the lazy client-side half
    /// of the scale-out protocol.
    pub fn client(&self) -> CfsClient {
        self.client_with_consistency(self.config.read_consistency)
    }

    /// Like [`CfsCluster::client`], but with an explicit read consistency —
    /// benches compare `LeaderOnly` and `ReadIndex` clients side by side on
    /// one cluster.
    pub fn client_with_consistency(&self, consistency: ReadConsistency) -> CfsClient {
        let me = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let client_map = Arc::new(PartitionMap::from_version(
            self.tiers.pmap.current_version(),
        ));
        let taf = TafDbClient::new(Arc::clone(self.network()), me, client_map)
            .with_consistency(consistency)
            .with_map_source(Arc::new(PlacementClient::new(
                Arc::clone(self.network()),
                me,
                PLACEMENT_NODE,
            )));
        CfsClient::new(
            taf,
            FileStoreClient::new(
                Arc::clone(self.network()),
                me,
                Arc::clone(&self.tiers.fs_layout),
            ),
            TsClient::new(
                Arc::clone(self.network()),
                me,
                TS_NODE,
                self.config.ts_block,
                self.config.id_block,
            ),
            RenamerClient::new(Arc::clone(self.network()), me, RENAMER_NODE),
            self.config.block_size,
        )
    }

    /// The cluster-wide QoS fair-share limiter shared by every client built
    /// through [`CfsCluster::client_for_volume`]. Override a tenant's share
    /// with [`QosLimiter::set_rate`].
    pub fn qos(&self) -> &Arc<QosLimiter> {
        &self.qos
    }

    /// A handle on the volume registry: create/list/delete volumes and
    /// inspect per-tenant quota usage.
    pub fn volumes(&self) -> VolumeRegistry {
        let me = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        VolumeRegistry::new(TafDbClient::new(
            Arc::clone(self.network()),
            me,
            Arc::clone(&self.tiers.pmap),
        ))
    }

    /// A client mounted on `vol`: paths resolve from the volume root, new
    /// inodes land in the volume's id band, quota charges apply, and every
    /// operation passes the shared QoS limiter.
    pub fn client_for_volume(&self, vol: VolumeId) -> CfsClient {
        self.client_with_consistency(self.config.read_consistency)
            .with_volume(vol)
            .with_qos(Arc::clone(&self.qos))
    }

    /// Like [`CfsCluster::client_for_volume`] but without QoS admission —
    /// the "QoS off" arm of the tenant-interference experiment.
    pub fn client_for_volume_unlimited(&self, vol: VolumeId) -> CfsClient {
        self.client_with_consistency(self.config.read_consistency)
            .with_volume(vol)
    }

    /// Builds the garbage collector: each cycle it reads the pending tables
    /// of every TafDB shard in the authoritative partition map and of every
    /// FileStore node, so groups added by [`CfsCluster::split_shard`] later
    /// are covered too. Its reads are ReadIndex-confirmed, so a deposed
    /// leader cannot feed it stale rows. Rows stay on the group that applied
    /// them, so a cluster that never runs a collector keeps only its
    /// unbalanced rows.
    pub fn garbage_collector(&self, grace: Duration) -> GarbageCollector {
        let me = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        GarbageCollector::new(
            TafDbClient::new(Arc::clone(self.network()), me, Arc::clone(&self.tiers.pmap))
                .with_consistency(ReadConsistency::ReadIndex),
            FileStoreClient::new(
                Arc::clone(self.network()),
                me,
                Arc::clone(&self.tiers.fs_layout),
            ),
            grace,
        )
    }

    /// Stops every Raft group and unregisters every service.
    pub fn shutdown(&self) {
        self.tiers.shutdown();
    }
}
