//! CFS core — the client library, cluster assembly, and garbage collector.
//!
//! This crate is the paper's primary contribution assembled into a usable
//! file system:
//!
//! * [`client::CfsClient`] — **ClientLib** (paper §3.2): client-side metadata
//!   resolving with a cached partition map and entry cache, direct paths to
//!   TafDB / FileStore / Renamer (no metadata proxy layer), the cross-tier
//!   execution order of Figure 7 (with `create`'s two writes overlapped),
//!   and fast-path vs normal-path rename dispatch.
//! * [`cluster::CfsCluster`] — spins up a full simulated deployment: the TS
//!   group, range-partitioned Raft-replicated TafDB shards, hash-partitioned
//!   Raft-replicated FileStore nodes, and the Renamer coordinator.
//! * [`gc::GarbageCollector`] — the background pairing analysis of §4.4 over
//!   the TafDB and FileStore pending tables.
//! * [`fsapi::FileSystem`] — the POSIX-style trait all three systems (CFS,
//!   HopsFS-like, InfiniFS-like) implement, so the harness drives them
//!   identically.

pub mod client;
pub mod cluster;
pub mod dcache;
pub mod fsapi;
pub mod gc;
pub mod path;

pub use cfs_tafdb::ReadConsistency;
pub use client::CfsClient;
pub use cluster::{CfsCluster, CfsConfig, Tiers};
pub use dcache::DentryCache;
pub use fsapi::{DirEntryInfo, FileSystem};
pub use gc::GarbageCollector;
