//! FileStore — the flat, distributed object store of CFS (paper §3.2, §4.1).
//!
//! FileStore holds file *data blocks* and, "close to their data", the file
//! *attribute* key-value pairs in a per-node RocksDB-style store (our
//! [`cfs_kvstore`]). Attributes and blocks are **hash-partitioned** by inode
//! id across nodes — the opposite partitioning choice from TafDB's range
//! scheme — which is what lets CFS serve `getattr`/`setattr` for files in a
//! shared directory from *all* FileStore nodes in parallel while the
//! baselines hotspot on one metadata shard (paper §5.5).
//!
//! Each logical node is a Raft group (three-way replication by default).
//! Every node keeps the attribute puts and deletes nothing has balanced yet
//! in a replicated pending table that the garbage collector pairs against
//! TafDB's (§4.4).

pub mod api;
pub mod client;
pub mod node;

pub use api::{FileStoreRequest, FileStoreResponse, SetAttrPatch};
pub use client::{FileStoreClient, FileStoreLayout};
pub use node::FileStoreNode;

/// Hash used to place an inode's attributes and blocks on a node
/// (SplitMix64 finalizer — well distributed, stable across the codebase).
pub fn placement_hash(ino: cfs_types::InodeId) -> u64 {
    let mut z = ino.raw().wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}
