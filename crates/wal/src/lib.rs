//! Write-ahead log.
//!
//! Both TafDB backends and FileStore nodes persist every metadata mutation to
//! a WAL before applying it (paper §3.2): each replica's Raft log and the
//! kvstore's own log are a [`Wal`] on a simulated storage device
//! ([`FaultFs`]).
//!
//! Entries are CRC-protected; recovery of a file-backed log stops at the
//! first torn or corrupt entry, discarding the unsynced tail like production
//! logs do.

pub mod crc32;
pub mod fault;
pub mod log;

pub use fault::{FaultFs, SyncVerdict, WriteVerdict};
pub use log::{Wal, WalConfig, WalEntry};
