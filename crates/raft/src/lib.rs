//! Raft consensus for replicated shard groups.
//!
//! The paper replicates every stateful component in groups "managed and
//! coordinated via the Raft consensus protocol" (§3.2): TafDB backend shards,
//! FileStore nodes, and the Renamer. This crate provides that substrate: a
//! from-scratch Raft implementation with leader election, log replication
//! with natural batching under load, commit/apply tracking, and proposal
//! waiters, speaking over the [`cfs_rpc`] simulated network's one-way
//! message mode so that elections and replication survive (and are testable
//! under) partitions, drops, and node kills.
//!
//! Scope notes: membership is static per group (matching the paper's fixed
//! three-way replication). State-machine snapshots bound the log: once
//! [`RaftConfig::snapshot_threshold`] entries have applied since the last
//! snapshot, the node serializes the machine ([`StateMachine::snapshot`]),
//! truncates the log behind it, and streams `InstallSnapshot` to any peer
//! whose next needed entry was compacted away. Every replica is backed by
//! a [`RaftStorage`] — a write-through log WAL plus hard state and snapshot
//! — that survives a (simulated) kill −9 and drives crash-restart recovery.
//! [`ReplicaSet`] is the host both replicated tiers run on: a durable group
//! of one state machine with the tier's services mounted on every replica,
//! and [`Route::call`] is the one way a client reaches such a group's
//! leader.

pub mod group;
pub mod msg;
pub mod node;
pub mod replica;
pub mod route;
pub mod storage;

pub use group::RaftGroup;
pub use msg::{LogEntry, RaftMsg};
pub use node::{RaftConfig, RaftNode, Role, StateMachine};
pub use replica::{Hosted, ReplicaSet, Replicas};
pub use route::{Mode, Reply, Route, RETRY_TIMEOUT};
pub use storage::{HardState, RaftStorage, Recovered, SnapshotBlob};
