//! TafDB — the namespace store layer of CFS (paper §3.2, §4.1, §4.2).
//!
//! TafDB manages all namespace metadata except file attributes in one unified
//! `inode_table`, range-partitioned on the `kID` component of the composite
//! key so that a directory's attribute record and all of its children's id
//! records land on a single shard. Each shard is a Raft group of backend
//! servers (BEs); a group of time servers (TS) issues the monotonically
//! increasing timestamps that order last-writer-wins merges.
//!
//! Two execution engines are provided over the same shard substrate:
//!
//! * [`primitive`] — the paper's contribution: the three *single-shard atomic
//!   primitives* of Table 2 (`insert_with_update`, `delete_with_update`,
//!   `insert_and_delete_with_update`). A primitive carries its conditional
//!   checks, inserts, deletes, and merge-based updates in **one command**
//!   that executes at once inside the shard, with *delta-apply* and
//!   *last-writer-wins* reconciliation removing spurious conflicts — no row
//!   locks, no multi-round-trip critical section.
//! * [`locking`] — the conventional engine the baselines (and the CFS-base
//!   ablation) use: interactive transactions that acquire row locks via RPC,
//!   execute statements one by one across client↔shard round trips while
//!   holding the locks, and commit through (optionally two-phase) commit.
//!   Lock wait and hold times are instrumented for the paper's Figure 4
//!   breakdown.

pub mod api;
mod backend;
pub mod client;
pub mod locking;
pub mod primitive;
pub mod router;
pub mod shard;
pub mod tserver;

/// How long a TafDB request may chase its shard's leader before it answers
/// `Timeout`.
pub use cfs_raft::RETRY_TIMEOUT;

pub use api::{ResolveEnd, ResolveStep, Resolved, TafRequest, TafResponse};
pub use client::{ReadConsistency, TafDbClient};
pub use primitive::{PrimResult, Primitive, UpdateSpec};
pub use router::PartitionMap;
pub use shard::TafShard;
pub use tserver::{TimeService, TsClient};
