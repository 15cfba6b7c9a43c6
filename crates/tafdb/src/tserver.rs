//! The time server (TS) group: timestamps and inode id allocation.
//!
//! Paper §3.2: "a group of time servers (TS) assigning monotonically
//! increasing timestamps to order metadata transactions". We co-locate inode
//! id allocation on the same service: ids are handed out round-robin across
//! the shard ranges of the partition map so that new directories spread
//! evenly over shards while range partitioning keeps each directory's records
//! together (see [`crate::router`]).
//!
//! Clients fetch timestamps and ids in small blocks to amortize the RPC.
//! Blocks are disjoint, so timestamps still form a global total order (what
//! last-writer-wins needs); within a block a client consumes them
//! monotonically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfs_rpc::mux::{frame, CH_APP};
use cfs_rpc::{Network, Service};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{wire, FsError, FsResult, InodeId, NodeId, Timestamp, VolumeId};
use parking_lot::Mutex;

use crate::router::PartitionMap;

/// Wire requests understood by the TS service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TsRequest {
    /// Allocate `count` timestamps; response is the first of a contiguous
    /// block.
    Timestamps {
        /// Block size.
        count: u32,
    },
    /// Allocate `count` inode ids, spread round-robin across shard ranges.
    Ids {
        /// Number of ids.
        count: u32,
    },
    /// Allocate `count` inode ids inside `vol`'s key band. Non-default
    /// volumes get a per-volume bump allocator starting at local id 2
    /// (local 0 is the quota record, local 1 the volume root).
    IdsIn {
        /// The owning volume.
        vol: VolumeId,
        /// Number of ids.
        count: u32,
    },
}

wire!(enum TsRequest {
    0 => Timestamps { count },
    1 => Ids { count },
    2 => IdsIn { vol, count },
});

/// Wire responses of the TS service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TsResponse {
    /// First timestamp of a contiguous block.
    Timestamps {
        /// Block start.
        start: u64,
        /// Block size.
        count: u32,
    },
    /// Allocated ids (not necessarily contiguous — they stripe over shards).
    Ids(Vec<u64>),
}

wire!(enum TsResponse { 0 => Timestamps { start, count }, 1 => Ids(ids) });

/// The TS service: a single logical oracle (the paper replicates it in a Raft
/// group; here monotonicity across restarts is provided by
/// [`cfs_types::time::TimestampOracle::advance_past`] at recovery).
pub struct TimeService {
    next_ts: AtomicU64,
    /// Per-shard next id offset within the shard's range.
    per_shard_next: Vec<AtomicU64>,
    round_robin: AtomicU64,
    /// Per-volume next local id for non-default volumes (bump allocator;
    /// the volume's whole band starts on one shard so striping buys
    /// nothing until the band is split).
    per_volume_next: Mutex<HashMap<u16, u64>>,
    pmap: Arc<PartitionMap>,
}

impl TimeService {
    /// Creates the service over the cluster's partition map.
    pub fn new(pmap: Arc<PartitionMap>) -> Arc<TimeService> {
        let per_shard_next = pmap
            .shards()
            .iter()
            .map(|s| {
                let (start, _) = pmap.range_of(s.id);
                // Skip ids 0 (null) and 1 (root) in the first range.
                AtomicU64::new(if start == 0 { 2 } else { start })
            })
            .collect();
        Arc::new(TimeService {
            next_ts: AtomicU64::new(1),
            per_shard_next,
            round_robin: AtomicU64::new(0),
            per_volume_next: Mutex::new(HashMap::new()),
            pmap,
        })
    }

    /// Registers the service on the network at `node` behind a fresh mux.
    pub fn register(self: &Arc<Self>, net: &Arc<Network>, node: NodeId) {
        let mux = cfs_rpc::MuxService::new();
        mux.mount(CH_APP, Arc::clone(self) as Arc<dyn Service>);
        net.register(node, mux);
    }

    fn alloc_ids(&self, count: u32) -> Vec<u64> {
        let shards = self.per_shard_next.len() as u64;
        (0..count)
            .map(|_| {
                let s = (self.round_robin.fetch_add(1, Ordering::Relaxed) % shards) as usize;
                self.per_shard_next[s].fetch_add(1, Ordering::Relaxed)
            })
            .collect()
    }

    fn alloc_ids_in(&self, vol: VolumeId, count: u32) -> Vec<u64> {
        if vol == VolumeId::DEFAULT {
            // The default volume keeps the shard-striped allocator: its band
            // is the one sliced across the boot shards.
            return self.alloc_ids(count);
        }
        let mut next = self.per_volume_next.lock();
        let local = next.entry(vol.0).or_insert(2);
        (0..count)
            .map(|_| {
                let id = InodeId::compose(vol, *local);
                *local += 1;
                id.raw()
            })
            .collect()
    }
}

impl Service for TimeService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let Ok(req) = TsRequest::from_bytes(payload) else {
            return Vec::new();
        };
        let resp = match req {
            TsRequest::Timestamps { count } => {
                let count = count.max(1);
                let start = self.next_ts.fetch_add(u64::from(count), Ordering::Relaxed);
                TsResponse::Timestamps { start, count }
            }
            TsRequest::Ids { count } => TsResponse::Ids(self.alloc_ids(count.max(1))),
            TsRequest::IdsIn { vol, count } => {
                TsResponse::Ids(self.alloc_ids_in(vol, count.max(1)))
            }
        };
        let _ = &self.pmap;
        resp.to_bytes()
    }
}

/// Client-side cache of timestamp and id blocks.
pub struct TsClient {
    net: Arc<Network>,
    me: NodeId,
    ts_node: NodeId,
    ts_block: u32,
    id_block: u32,
    cache: Mutex<TsCache>,
}

#[derive(Default)]
struct TsCache {
    ts_next: u64,
    ts_end: u64,
    ids: Vec<u64>,
    /// Cached id blocks per non-default volume.
    vol_ids: HashMap<u16, Vec<u64>>,
}

impl TsClient {
    /// Creates a client fetching blocks of the given sizes.
    pub fn new(
        net: Arc<Network>,
        me: NodeId,
        ts_node: NodeId,
        ts_block: u32,
        id_block: u32,
    ) -> TsClient {
        TsClient {
            net,
            me,
            ts_node,
            ts_block: ts_block.max(1),
            id_block: id_block.max(1),
            cache: Mutex::new(TsCache::default()),
        }
    }

    fn rpc(&self, req: TsRequest) -> FsResult<TsResponse> {
        let resp = self
            .net
            .call(self.me, self.ts_node, &frame(CH_APP, &req.to_bytes()))?;
        TsResponse::from_bytes(&resp).map_err(FsError::from)
    }

    /// Returns the next timestamp, fetching a fresh block when exhausted.
    pub fn timestamp(&self) -> FsResult<Timestamp> {
        let mut cache = self.cache.lock();
        if cache.ts_next >= cache.ts_end {
            match self.rpc(TsRequest::Timestamps {
                count: self.ts_block,
            })? {
                TsResponse::Timestamps { start, count } => {
                    cache.ts_next = start;
                    cache.ts_end = start + u64::from(count);
                }
                other => {
                    return Err(FsError::Corrupted(format!(
                        "unexpected ts response {other:?}"
                    )))
                }
            }
        }
        let ts = cache.ts_next;
        cache.ts_next += 1;
        Ok(Timestamp(ts))
    }

    /// Returns a fresh inode id.
    pub fn alloc_id(&self) -> FsResult<InodeId> {
        let mut cache = self.cache.lock();
        if cache.ids.is_empty() {
            match self.rpc(TsRequest::Ids {
                count: self.id_block,
            })? {
                TsResponse::Ids(ids) => cache.ids = ids,
                other => {
                    return Err(FsError::Corrupted(format!(
                        "unexpected id response {other:?}"
                    )))
                }
            }
        }
        Ok(InodeId(cache.ids.pop().expect("block non-empty")))
    }

    /// Returns a fresh inode id inside `vol`'s key band.
    pub fn alloc_id_in(&self, vol: VolumeId) -> FsResult<InodeId> {
        if vol == VolumeId::DEFAULT {
            return self.alloc_id();
        }
        let mut cache = self.cache.lock();
        let block = cache.vol_ids.entry(vol.0).or_default();
        if block.is_empty() {
            match self.rpc(TsRequest::IdsIn {
                vol,
                count: self.id_block,
            })? {
                TsResponse::Ids(ids) => *block = ids,
                other => {
                    return Err(FsError::Corrupted(format!(
                        "unexpected id response {other:?}"
                    )))
                }
            }
        }
        Ok(InodeId(block.pop().expect("block non-empty")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardInfo;
    use cfs_rpc::NetConfig;
    use cfs_types::ShardId;

    fn pmap(n: u32) -> Arc<PartitionMap> {
        Arc::new(PartitionMap::new(
            (0..n)
                .map(|i| ShardInfo {
                    id: ShardId(i),
                    replicas: vec![NodeId(100 + i)],
                })
                .collect(),
        ))
    }

    #[test]
    fn timestamps_are_globally_unique_across_clients() {
        let net = Network::new(NetConfig::default());
        let ts = TimeService::new(pmap(2));
        ts.register(&net, NodeId(1));
        let c1 = TsClient::new(Arc::clone(&net), NodeId(50), NodeId(1), 4, 4);
        let c2 = TsClient::new(Arc::clone(&net), NodeId(51), NodeId(1), 4, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            assert!(seen.insert(c1.timestamp().unwrap()));
            assert!(seen.insert(c2.timestamp().unwrap()));
        }
    }

    #[test]
    fn ids_spread_across_shard_ranges() {
        let net = Network::new(NetConfig::default());
        let map = pmap(4);
        let ts = TimeService::new(Arc::clone(&map));
        ts.register(&net, NodeId(1));
        let c = TsClient::new(Arc::clone(&net), NodeId(50), NodeId(1), 4, 16);
        let mut per_shard = [0usize; 4];
        for _ in 0..64 {
            let id = c.alloc_id().unwrap();
            per_shard[map.shard_for(id).0 as usize] += 1;
        }
        for (s, n) in per_shard.iter().enumerate() {
            assert_eq!(*n, 16, "shard {s} should receive an equal share");
        }
    }

    #[test]
    fn volume_ids_stay_inside_the_volume_band() {
        let net = Network::new(NetConfig::default());
        let ts = TimeService::new(pmap(2));
        ts.register(&net, NodeId(1));
        let c = TsClient::new(Arc::clone(&net), NodeId(50), NodeId(1), 4, 8);
        let v = VolumeId(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let id = c.alloc_id_in(v).unwrap();
            assert_eq!(id.volume(), v, "id carries the volume prefix");
            assert!(id.local() >= 2, "locals 0 (quota) and 1 (root) reserved");
            assert!(seen.insert(id), "id reuse detected");
        }
        // Default-volume allocation through the same entry point keeps the
        // classic striped allocator.
        let d = c.alloc_id_in(VolumeId::DEFAULT).unwrap();
        assert_eq!(d.volume(), VolumeId::DEFAULT);
        // Two volumes never share ids even with interleaved allocation.
        let w = VolumeId(6);
        let from_w = c.alloc_id_in(w).unwrap();
        assert_eq!(from_w.volume(), w);
        assert!(!seen.contains(&from_w));
    }

    #[test]
    fn allocated_ids_never_collide_with_root() {
        let net = Network::new(NetConfig::default());
        let ts = TimeService::new(pmap(1));
        ts.register(&net, NodeId(1));
        let c = TsClient::new(Arc::clone(&net), NodeId(50), NodeId(1), 4, 8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let id = c.alloc_id().unwrap();
            assert!(id.raw() > 1, "ids 0 and 1 are reserved");
            assert!(seen.insert(id), "id reuse detected");
        }
    }
}
