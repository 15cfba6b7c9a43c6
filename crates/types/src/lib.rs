//! Common types shared by every component of the CFS reproduction.
//!
//! This crate defines the vocabulary of the whole system: inode identifiers,
//! the `<kID, kStr>` composite key of TafDB's `inode_table` (paper §4.1),
//! attribute records, errno-style errors, logical timestamps handed out by the
//! timestamp server, the garbage collector's `pending` table that TafDB shards
//! and FileStore nodes keep as replicated state, and a compact hand-rolled
//! binary codec used for WAL entries, snapshot images and RPC payloads.
//!
//! Nothing in here knows about sharding, networking, or storage — those live
//! in the crates layered on top.

pub mod attr;
pub mod codec;
pub mod error;
pub mod id;
pub mod key;
pub mod pending;
pub mod record;
pub mod time;

pub use attr::{Attr, FileType};
pub use codec::{Decode, DecodeError, Encode};
pub use error::{FsError, FsResult, StorageError};
pub use id::{BlockId, InodeId, NodeId, ShardId, VolumeId, ROOT_INODE, VOLUME_SHIFT};
pub use key::{KStr, Key};
pub use pending::{PendingEvent, PendingRow, PendingTable};
pub use record::{Cond, FieldAssign, LwwField, NumField, Pred, Record};
pub use time::Timestamp;
