//! Generic baseline cluster assembly, parameterized over the paper's axes.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cfs_core::{CfsConfig, Tiers};
use cfs_filestore::FileStoreClient;
use cfs_raft::ReplicaSet;
use cfs_rpc::Network;
use cfs_tafdb::{TafDbClient, TafShard, TsClient};
use cfs_types::{FsResult, NodeId};

use crate::engine::{AttrSchema, EngineConfig, EntryCache, InodeLocks, MetaEngine, Placement};
use crate::proxy::{BaselineFs, ProxyService};

/// The systems and ablation variants of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// HopsFS-like: hash partitioning, inline attrs, locking, proxy,
    /// subtree-locked renames.
    HopsFs,
    /// InfiniFS-like: parent-grouped partitioning, file attrs grouped with
    /// parent, locking, proxy.
    InfiniFs,
    /// Figure 13 "CFS-base": all metadata range-partitioned in TafDB,
    /// locking engine, proxy layer.
    CfsBase,
    /// Figure 13 "+new-org": CFS-base with file attributes offloaded to
    /// FileStore.
    NewOrg,
    /// Figure 13 "+primitives": +new-org with single-shard atomic
    /// primitives.
    Primitives,
    /// Figure 13 "+no-proxy": the full CFS configuration expressed through
    /// the same machinery (client-side resolving).
    NoProxy,
}

impl Variant {
    /// The engine configuration for this variant.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            Variant::HopsFs => EngineConfig {
                name: "HopsFS".into(),
                placement: Placement::KidHash,
                schema: AttrSchema::Inline,
                use_primitives: false,
            },
            Variant::InfiniFs => EngineConfig {
                name: "InfiniFS".into(),
                placement: Placement::KidRange,
                schema: AttrSchema::SplitWithParent,
                use_primitives: false,
            },
            Variant::CfsBase => EngineConfig {
                name: "CFS-base".into(),
                placement: Placement::KidRange,
                schema: AttrSchema::SplitByIno,
                use_primitives: false,
            },
            Variant::NewOrg => EngineConfig {
                name: "+new-org".into(),
                placement: Placement::KidRange,
                schema: AttrSchema::SplitFileStore,
                use_primitives: false,
            },
            Variant::Primitives | Variant::NoProxy => EngineConfig {
                name: if self == Variant::Primitives {
                    "+primitives"
                } else {
                    "+no-proxy"
                }
                .into(),
                placement: Placement::KidRange,
                schema: AttrSchema::SplitFileStore,
                use_primitives: true,
            },
        }
    }

    /// Whether clients go through the proxy layer.
    pub fn uses_proxy(self) -> bool {
        !matches!(self, Variant::NoProxy)
    }
}

/// Node-id layout (disjoint from the CFS cluster's).
const TS_NODE: NodeId = NodeId(50);
const TAF_BASE: u32 = 200_000;
const FS_BASE: u32 = 300_000;
const PROXY_BASE: u32 = 400_000;
const CLIENT_BASE: u32 = 2_000_000;

/// A deployed baseline system.
pub struct BaselineCluster {
    variant: Variant,
    config: CfsConfig,
    tiers: Tiers,
    proxies: Vec<NodeId>,
    proxy_engines: Vec<Arc<MetaEngine>>,
    coord: Arc<InodeLocks>,
    cache: Arc<EntryCache>,
    next_client: AtomicU32,
    next_engine: AtomicU32,
}

impl BaselineCluster {
    /// Boots a baseline deployment. `proxies` controls how many proxy nodes
    /// serve clients (ignored for [`Variant::NoProxy`]).
    pub fn start(variant: Variant, config: CfsConfig, proxies: usize) -> FsResult<BaselineCluster> {
        let tiers = Tiers::start(&config, TS_NODE, TAF_BASE, FS_BASE)?;
        let coord = Arc::new(InodeLocks::default());
        let cache = Arc::new(EntryCache::default());
        let mut cluster = BaselineCluster {
            variant,
            config,
            tiers,
            proxies: Vec::new(),
            proxy_engines: Vec::new(),
            coord,
            cache,
            next_client: AtomicU32::new(CLIENT_BASE),
            next_engine: AtomicU32::new(1),
        };

        // Bootstrap the root through a throwaway engine.
        cluster.make_engine(NodeId(99)).bootstrap_root()?;

        // Proxy layer.
        if variant.uses_proxy() {
            for i in 0..proxies.max(1) {
                let node = NodeId(PROXY_BASE + i as u32);
                let engine = Arc::new(cluster.make_engine(node));
                let svc = ProxyService::new(Arc::clone(&engine));
                let mux = cfs_rpc::MuxService::new();
                mux.mount(cfs_rpc::mux::CH_APP, svc as Arc<dyn cfs_rpc::Service>);
                cluster.network().register(node, mux);
                cluster.proxies.push(node);
                cluster.proxy_engines.push(engine);
            }
        }
        Ok(cluster)
    }

    fn make_engine(&self, me: NodeId) -> MetaEngine {
        let instance = u64::from(self.next_engine.fetch_add(1, Ordering::Relaxed));
        MetaEngine::new(
            self.variant.engine_config(),
            TafDbClient::new(Arc::clone(self.network()), me, Arc::clone(&self.tiers.pmap)),
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
            Arc::clone(&self.coord),
            Arc::clone(&self.cache),
            instance,
            self.config.block_size,
        )
    }

    /// The variant deployed here.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The simulated network.
    pub fn network(&self) -> &Arc<Network> {
        &self.tiers.net
    }

    /// The TafDB backend groups.
    pub fn taf_groups(&self) -> Vec<Arc<ReplicaSet<TafShard>>> {
        self.tiers.taf_groups()
    }

    /// Creates a file system handle for a new client.
    pub fn client(&self) -> BaselineFs {
        let me = NodeId(self.next_client.fetch_add(1, Ordering::Relaxed));
        if self.variant.uses_proxy() {
            BaselineFs::via_proxy(Arc::clone(self.network()), me, self.proxies.clone())
        } else {
            BaselineFs::direct(Arc::new(self.make_engine(me)))
        }
    }
}
