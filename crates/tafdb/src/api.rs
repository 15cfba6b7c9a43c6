//! Wire protocol of a TafDB shard: client requests, raft commands,
//! transaction-engine requests, and responses.

use cfs_kvstore::WriteOp;
use cfs_types::{wire, FsError, InodeId, Key, PendingRow, Record};

use crate::primitive::{PrimResult, Primitive};

/// Client-facing requests served on the `CH_APP` channel of a shard replica.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TafRequest {
    /// Point read of one record (leader-local).
    Get(Key),
    /// Ordered scan of a directory's children id records, starting strictly
    /// after `after` (pagination), up to `limit` entries.
    Scan {
        /// Directory whose children to list.
        dir: InodeId,
        /// Resume point (exclusive), `None` for the beginning.
        after: Option<String>,
        /// Maximum entries returned.
        limit: u32,
    },
    /// Execute a single-shard atomic primitive (replicated through Raft).
    Execute(Primitive),
    /// Upsert one record (replicated). Used to create a new directory's
    /// `/_ATTR` record on its home shard, and by GC repair.
    Put(Key, Record),
    /// Delete one record (replicated). Used by GC cleanup.
    Delete(Key),
    /// Migration: export one page of live entries whose kid lies in
    /// `[lo, hi]`, starting strictly after the raw kv key `after`
    /// (leader-local fuzzy read; the range stays writable while pages
    /// stream).
    MigExport {
        /// First kid of the migrating range (inclusive).
        lo: u64,
        /// Last kid of the migrating range (inclusive).
        hi: u64,
        /// Resume point (exclusive raw kv key), `None` for the beginning.
        after: Option<Vec<u8>>,
        /// Maximum entries per page.
        limit: u32,
    },
    /// Migration: apply a streamed batch on the receiving shard (replicated).
    MigIngest {
        /// Raw kv writes copied from the donor.
        ops: Vec<WriteOp>,
    },
    /// Migration: ask the shard leader for a balanced split point of
    /// `[lo, hi]` — the median occupied kid (leader-local read).
    SplitPoint {
        /// First kid considered (inclusive).
        lo: u64,
        /// Last kid considered (inclusive).
        hi: u64,
    },
    /// Migration control: replicate the inner command (must be one of the
    /// `Mig*` [`ShardCmd`]s) through the shard's Raft group.
    MigCtl(ShardCmd),
    /// Batched path resolution: starting at directory `start`, walk as many
    /// of `comps` as this shard owns in one RPC. The response reports the
    /// steps resolved plus either completion or a cursor for the caller to
    /// continue on the next shard (paper §4.2's pruned lookup path: one
    /// critical-section entry per shard instead of one per component).
    ResolvePrefix {
        /// Directory the first component is looked up in.
        start: InodeId,
        /// Remaining path components, first one resolved against `start`.
        comps: Vec<String>,
        /// First id of the range the client believes this shard owns
        /// (inclusive). Shards have no authoritative copy of the partition
        /// map, so the walk trusts the client's view and stops with a
        /// `Continue` cursor once it steps outside `[lo, hi]`; ranges the
        /// shard donated away are still refused server-side.
        lo: u64,
        /// Last believed-owned id (inclusive).
        hi: u64,
    },
    /// Serve the wrapped read (`Get`/`Scan`/`ResolvePrefix`/`Pending`) on
    /// whichever replica receives it, after a ReadIndex confirmation round
    /// with the group's leader (linearizable follower read).
    ReadIndex(Box<TafRequest>),
    /// Read the shard's GC pending table (the garbage collector's input).
    Pending,
    /// Drop the listed pending rows that are still unchanged (replicated).
    GcTrim(Vec<PendingRow>),
}

wire!(enum TafRequest {
    0 => Get(key),
    1 => Scan { dir, after, limit },
    2 => Execute(prim),
    3 => Put(key, record),
    4 => Delete(key),
    6 => MigExport { lo, hi, after, limit },
    7 => MigIngest { ops },
    8 => SplitPoint { lo, hi },
    9 => MigCtl(cmd),
    10 => ResolvePrefix { start, comps, lo, hi },
    11 => ReadIndex(inner),
    12 => Pending,
    13 => GcTrim(rows),
} retired 5);

/// One scan result entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// The id record.
    pub record: Record,
}

wire!(struct DirEntry { name, record });

/// One resolved component of a [`TafRequest::ResolvePrefix`] walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolveStep {
    /// Inode the component resolved to.
    pub ino: InodeId,
    /// Its file type.
    pub ftype: cfs_types::FileType,
    /// Generation of the *parent* directory the component was looked up in,
    /// at lookup time. Clients key dentry-cache entries on this so a later
    /// mutation of the directory (which bumps its generation) invalidates
    /// exactly that directory's cached entries.
    pub gen: u64,
}

wire!(struct ResolveStep { ino, ftype, gen });

/// How a [`TafRequest::ResolvePrefix`] walk ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResolveEnd {
    /// Every component resolved; the last element of `steps` is the target.
    Done,
    /// The walk left this shard's key range: the caller continues with the
    /// unresolved suffix of its component list (starting after `steps.len()`
    /// resolved components) at the last resolved inode — or at `start`
    /// itself when the first component's directory already lives elsewhere.
    Continue,
    /// The walk failed at component `steps.len()`.
    Err {
        /// Why it failed (`NotFound` for a missing entry, `NotDir` for a
        /// non-directory with components left to walk).
        err: FsError,
        /// Generation of the directory the failing component was looked up
        /// in (supports negative dentry caching on `NotFound`).
        gen: u64,
    },
}

wire!(enum ResolveEnd { 0 => Done, 1 => Continue, 2 => Err { err, gen } });

/// Result of a [`TafRequest::ResolvePrefix`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Resolved {
    /// One entry per component resolved on this shard, in walk order.
    pub steps: Vec<ResolveStep>,
    /// Why the walk stopped.
    pub end: ResolveEnd,
}

wire!(struct Resolved { steps, end });

/// Responses to [`TafRequest`]s.
// `Record` is every point read's reply, so its payload stays inline rather
// than costing a heap allocation per get.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TafResponse {
    /// Result of a `Get`.
    Record(Option<Record>),
    /// Result of a `Scan`.
    Entries(Vec<DirEntry>),
    /// Result of an `Execute`.
    Executed(PrimResult),
    /// Generic success (Put/Delete).
    Ok,
    /// The request failed.
    Err(FsError),
    /// One page of a migration export; `done` means no further page exists.
    Exported {
        /// Live entries of the page, in key order.
        ops: Vec<WriteOp>,
        /// Whether the donor has no entries past this page.
        done: bool,
    },
    /// The write tail recorded between `MigStart` and `MigFreeze`.
    Tail(Vec<WriteOp>),
    /// A balanced split point, `None` when the range holds too few keys to
    /// split.
    SplitAt(Option<u64>),
    /// Result of a `ResolvePrefix`.
    Resolved(Resolved),
    /// Result of a `Pending` read.
    Pending(Vec<PendingRow>),
}

wire!(enum TafResponse {
    0 => Record(record),
    1 => Entries(entries),
    2 => Executed(result),
    3 => Ok,
    5 => Err(err),
    6 => Exported { ops, done },
    7 => Tail(ops),
    8 => SplitAt(at),
    9 => Resolved(resolved),
    10 => Pending(rows),
} retired 4);

/// Raft-replicated shard commands (the shard state machine's input).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardCmd {
    /// Execute a primitive atomically.
    Execute(Primitive),
    /// Upsert a record.
    Put(Key, Record),
    /// Delete a record.
    Delete(Key),
    /// Stage the writes of a prepared (2PC) transaction.
    Prepare {
        /// Transaction id.
        txn: u64,
        /// Staged writes: `Some` = put, `None` = delete.
        writes: Vec<(Key, Option<Record>)>,
    },
    /// Stage a primitive as a 2PC participant (used by the Renamer so that
    /// each shard's share of a cross-shard rename still applies with merge
    /// semantics instead of absolute overwrites).
    PreparePrim {
        /// Transaction id.
        txn: u64,
        /// The staged primitive, executed at commit.
        prim: Primitive,
    },
    /// Apply a previously prepared transaction.
    CommitPrepared {
        /// Transaction id.
        txn: u64,
    },
    /// Discard a previously prepared transaction.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Apply a single-shard locking transaction's writes directly.
    CommitWrites {
        /// Writes to apply.
        writes: Vec<(Key, Option<Record>)>,
    },
    /// Migration phase 1: start donating `[lo, hi]`. The shard keeps serving
    /// the range but records every write to it in a tail; new 2PC prepares
    /// touching the range are refused with `Busy`.
    MigStart {
        /// First donated kid (inclusive).
        lo: u64,
        /// Last donated kid (inclusive).
        hi: u64,
    },
    /// Migration phase 2: freeze `[lo, hi]` — from here the donor answers
    /// `WrongShard` for the range. The command's response carries the
    /// recorded tail; it fails with `Busy` while prepared transactions still
    /// intersect the range.
    MigFreeze {
        /// First donated kid (inclusive).
        lo: u64,
        /// Last donated kid (inclusive).
        hi: u64,
    },
    /// Migration phase 3: the new map (at `epoch`) is live; drop the moved
    /// keys and remember the donation so late clients get redirected with
    /// the epoch to catch up to.
    MigFinish {
        /// First donated kid (inclusive).
        lo: u64,
        /// Last donated kid (inclusive).
        hi: u64,
        /// Map epoch at which ownership moved.
        epoch: u64,
    },
    /// Cancel an in-flight migration and resume normal service of the range.
    MigAbort {
        /// First donated kid (inclusive).
        lo: u64,
        /// Last donated kid (inclusive).
        hi: u64,
    },
    /// Receiving side: apply one streamed page of raw kv writes.
    MigIngest {
        /// Raw kv writes copied from the donor.
        ops: Vec<WriteOp>,
    },
    /// Receiving side: the transfer of `[lo, hi]` is complete (counted in
    /// the shard's migration metrics).
    MigAccept {
        /// First received kid (inclusive).
        lo: u64,
        /// Last received kid (inclusive).
        hi: u64,
    },
    /// Drop the listed GC pending rows that are still unchanged: the
    /// collector settled them.
    GcTrim(Vec<PendingRow>),
}

wire!(enum ShardCmd {
    0 => Execute(prim),
    1 => Put(key, record),
    2 => Delete(key),
    3 => Prepare { txn, writes },
    4 => CommitPrepared { txn },
    5 => Abort { txn },
    6 => CommitWrites { writes },
    7 => PreparePrim { txn, prim },
    8 => MigStart { lo, hi },
    9 => MigFreeze { lo, hi },
    10 => MigFinish { lo, hi, epoch },
    11 => MigAbort { lo, hi },
    12 => MigIngest { ops },
    13 => MigAccept { lo, hi },
    14 => GcTrim(rows),
});

/// Interactive transaction requests served on `CH_TXN` (baseline engines).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxnRequest {
    /// Acquire an exclusive row lock and read the record (SELECT ... FOR
    /// UPDATE, paper Figure 3 step ②).
    LockAndRead {
        /// Transaction id (globally unique, allocated by the coordinator).
        txn: u64,
        /// Row to lock and read.
        key: Key,
    },
    /// Acquire an exclusive row lock without reading.
    Lock {
        /// Transaction id.
        txn: u64,
        /// Row to lock.
        key: Key,
    },
    /// Stage writes for two-phase commit (phase 1).
    Prepare {
        /// Transaction id.
        txn: u64,
        /// Staged writes.
        writes: Vec<(Key, Option<Record>)>,
    },
    /// Stage a primitive for two-phase commit (Renamer's per-shard share).
    PreparePrim {
        /// Transaction id.
        txn: u64,
        /// Primitive to execute at commit.
        prim: crate::primitive::Primitive,
    },
    /// Apply staged writes (phase 2) and release the transaction's locks.
    CommitPrepared {
        /// Transaction id.
        txn: u64,
    },
    /// Single-shard commit: apply writes and release locks in one step.
    Commit {
        /// Transaction id.
        txn: u64,
        /// Writes to apply.
        writes: Vec<(Key, Option<Record>)>,
    },
    /// Abort: discard staged writes and release locks.
    Abort {
        /// Transaction id.
        txn: u64,
    },
}

wire!(enum TxnRequest {
    0 => LockAndRead { txn, key },
    1 => Lock { txn, key },
    2 => Prepare { txn, writes },
    3 => CommitPrepared { txn },
    4 => Commit { txn, writes },
    5 => Abort { txn },
    6 => PreparePrim { txn, prim },
});

/// Responses to [`TxnRequest`]s.
// `Locked` dominates the wire traffic, so its payload stays inline rather
// than costing a heap allocation per lock-and-read.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxnResponse {
    /// Lock acquired; carries the read record for `LockAndRead`.
    Locked(Option<Record>),
    /// Operation succeeded.
    Ok,
    /// Operation failed.
    Err(FsError),
}

wire!(enum TxnResponse { 0 => Locked(record), 1 => Ok, 2 => Err(err) });

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::{Decode, Encode};
    use cfs_types::{FileType, PendingEvent, Timestamp};

    fn row() -> PendingRow {
        PendingRow {
            key: Key::entry(InodeId(1), "f").to_sortable_bytes(),
            ino: InodeId(2),
            event: PendingEvent::Linked,
        }
    }

    #[test]
    fn taf_request_round_trip() {
        let reqs = vec![
            TafRequest::Get(Key::attr(InodeId(3))),
            TafRequest::Scan {
                dir: InodeId(3),
                after: Some("m".into()),
                limit: 100,
            },
            TafRequest::Put(
                Key::attr(InodeId(4)),
                Record::dir_attr_record(9, Timestamp(2)),
            ),
            TafRequest::Delete(Key::entry(InodeId(4), "x")),
            TafRequest::MigExport {
                lo: 5,
                hi: u64::MAX,
                after: Some(vec![0xAB, 0xCD]),
                limit: 256,
            },
            TafRequest::MigIngest {
                ops: vec![WriteOp::Put(vec![1, 2], vec![3]), WriteOp::Delete(vec![4])],
            },
            TafRequest::SplitPoint { lo: 0, hi: 99 },
            TafRequest::MigCtl(ShardCmd::MigStart { lo: 10, hi: 20 }),
            TafRequest::ResolvePrefix {
                start: InodeId(1),
                comps: vec!["usr".into(), "lib".into(), "libc.so".into()],
                lo: 0,
                hi: u64::MAX,
            },
            TafRequest::ResolvePrefix {
                start: InodeId(77),
                comps: vec![],
                lo: 50,
                hi: 99,
            },
            TafRequest::ReadIndex(Box::new(TafRequest::Get(Key::attr(InodeId(6))))),
            TafRequest::ReadIndex(Box::new(TafRequest::ResolvePrefix {
                start: InodeId(1),
                comps: vec!["etc".into()],
                lo: 0,
                hi: 7,
            })),
            TafRequest::Pending,
            TafRequest::GcTrim(vec![row()]),
        ];
        for r in reqs {
            assert_eq!(TafRequest::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn resolve_messages_round_trip() {
        let resps = vec![
            TafResponse::Resolved(Resolved {
                steps: vec![
                    ResolveStep {
                        ino: InodeId(2),
                        ftype: FileType::Dir,
                        gen: 3,
                    },
                    ResolveStep {
                        ino: InodeId(9),
                        ftype: FileType::File,
                        gen: 0,
                    },
                ],
                end: ResolveEnd::Done,
            }),
            TafResponse::Resolved(Resolved {
                steps: vec![ResolveStep {
                    ino: InodeId(4),
                    ftype: FileType::Dir,
                    gen: 11,
                }],
                end: ResolveEnd::Continue,
            }),
            TafResponse::Resolved(Resolved {
                steps: vec![],
                end: ResolveEnd::Err {
                    err: FsError::NotFound,
                    gen: 7,
                },
            }),
        ];
        for r in resps {
            assert_eq!(TafResponse::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn migration_responses_round_trip() {
        let resps = vec![
            TafResponse::Exported {
                ops: vec![WriteOp::Put(vec![9], vec![8, 7])],
                done: true,
            },
            TafResponse::Exported {
                ops: vec![],
                done: false,
            },
            TafResponse::Tail(vec![WriteOp::Delete(vec![0xFF; 9])]),
            TafResponse::SplitAt(Some(42)),
            TafResponse::SplitAt(None),
            TafResponse::Err(FsError::WrongShard(3)),
            TafResponse::Pending(vec![row()]),
            TafResponse::Pending(vec![]),
        ];
        for r in resps {
            assert_eq!(TafResponse::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn shard_cmd_round_trip() {
        let cmds = vec![
            ShardCmd::Put(
                Key::attr(InodeId(1)),
                Record::dir_attr_record(1, Timestamp(1)),
            ),
            ShardCmd::Delete(Key::entry(InodeId(1), "f")),
            ShardCmd::Prepare {
                txn: 77,
                writes: vec![
                    (
                        Key::entry(InodeId(1), "a"),
                        Some(Record::id_record(InodeId(2), FileType::File)),
                    ),
                    (Key::entry(InodeId(1), "b"), None),
                ],
            },
            ShardCmd::CommitPrepared { txn: 77 },
            ShardCmd::Abort { txn: 78 },
            ShardCmd::CommitWrites { writes: vec![] },
            ShardCmd::MigStart { lo: 1, hi: 2 },
            ShardCmd::MigFreeze { lo: 1, hi: 2 },
            ShardCmd::MigFinish {
                lo: 1,
                hi: u64::MAX,
                epoch: 4,
            },
            ShardCmd::MigAbort { lo: 0, hi: 7 },
            ShardCmd::MigIngest {
                ops: vec![WriteOp::Put(vec![5], vec![6])],
            },
            ShardCmd::MigAccept { lo: 3, hi: 9 },
            ShardCmd::GcTrim(vec![row()]),
        ];
        for c in cmds {
            assert_eq!(ShardCmd::from_bytes(&c.to_bytes()).unwrap(), c);
        }
    }

    #[test]
    fn txn_messages_round_trip() {
        let reqs = vec![
            TxnRequest::LockAndRead {
                txn: 1,
                key: Key::attr(InodeId(9)),
            },
            TxnRequest::Lock {
                txn: 1,
                key: Key::entry(InodeId(9), "n"),
            },
            TxnRequest::CommitPrepared { txn: 1 },
            TxnRequest::Abort { txn: 1 },
        ];
        for r in reqs {
            assert_eq!(TxnRequest::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        let resps = vec![
            TxnResponse::Locked(Some(Record::id_record(InodeId(5), FileType::Dir))),
            TxnResponse::Ok,
            TxnResponse::Err(FsError::Busy),
        ];
        for r in resps {
            assert_eq!(TxnResponse::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }
}
