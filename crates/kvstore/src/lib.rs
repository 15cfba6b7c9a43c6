//! An ordered in-memory key-value map with a write-ahead log and a
//! checkpoint sidecar.
//!
//! This is the reproduction's stand-in for RocksDB: the paper runs "a local
//! RocksDB" on every FileStore node to keep file attributes (§3.2), and we
//! also use it as the storage engine inside each TafDB backend shard. Those
//! roles need an ordered KV with atomic batches and nothing more, and every
//! byte of it lives in memory, so the store is one `BTreeMap` behind a
//! reader-writer lock:
//!
//! * ordered byte-string keys with `get`/`put`/`delete`,
//! * atomic multi-key write batches (the shard executor commits a primitive's
//!   mutations as one batch),
//! * bounded and unbounded range scans (`readdir`) and owning range
//!   snapshots (migration export, state-machine images),
//! * write-ahead logging with crash recovery,
//! * an atomically installed, CRC-protected checkpoint sidecar that bounds
//!   WAL replay at restart.
//!
//! The store is thread-safe; all operations take `&self`.

pub mod store;

pub use store::{CheckpointInfo, KvConfig, KvStore, WriteOp};
