//! Wire protocol of a TafDB shard: client requests, raft commands,
//! transaction-engine requests, and responses.

use cfs_kvstore::WriteOp;
use cfs_types::codec::{Decode, DecodeError, Encode, EncodeListItem};
use cfs_types::{FsError, InodeId, Key, PendingRow, Record};

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

impl Encode for TafRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TafRequest::Get(k) => {
                buf.push(0);
                k.encode(buf);
            }
            TafRequest::Scan { dir, after, limit } => {
                buf.push(1);
                dir.encode(buf);
                after.encode(buf);
                limit.encode(buf);
            }
            TafRequest::Execute(p) => {
                buf.push(2);
                p.encode(buf);
            }
            TafRequest::Put(k, r) => {
                buf.push(3);
                k.encode(buf);
                r.encode(buf);
            }
            TafRequest::Delete(k) => {
                buf.push(4);
                k.encode(buf);
            }
            // Tag 5 is retired; do not reuse it.
            TafRequest::MigExport {
                lo,
                hi,
                after,
                limit,
            } => {
                buf.push(6);
                lo.encode(buf);
                hi.encode(buf);
                after.encode(buf);
                limit.encode(buf);
            }
            TafRequest::MigIngest { ops } => {
                buf.push(7);
                ops.encode(buf);
            }
            TafRequest::SplitPoint { lo, hi } => {
                buf.push(8);
                lo.encode(buf);
                hi.encode(buf);
            }
            TafRequest::MigCtl(cmd) => {
                buf.push(9);
                cmd.encode(buf);
            }
            TafRequest::ResolvePrefix {
                start,
                comps,
                lo,
                hi,
            } => {
                buf.push(10);
                start.encode(buf);
                comps.encode(buf);
                lo.encode(buf);
                hi.encode(buf);
            }
            TafRequest::ReadIndex(inner) => {
                buf.push(11);
                inner.encode(buf);
            }
            TafRequest::Pending => buf.push(12),
            TafRequest::GcTrim(rows) => {
                buf.push(13);
                rows.encode(buf);
            }
        }
    }
}

impl Decode for TafRequest {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => TafRequest::Get(Key::decode(input)?),
            1 => TafRequest::Scan {
                dir: InodeId::decode(input)?,
                after: Option::<String>::decode(input)?,
                limit: u32::decode(input)?,
            },
            2 => TafRequest::Execute(Primitive::decode(input)?),
            3 => TafRequest::Put(Key::decode(input)?, Record::decode(input)?),
            4 => TafRequest::Delete(Key::decode(input)?),
            6 => TafRequest::MigExport {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
                after: Option::<Vec<u8>>::decode(input)?,
                limit: u32::decode(input)?,
            },
            7 => TafRequest::MigIngest {
                ops: Vec::<WriteOp>::decode(input)?,
            },
            8 => TafRequest::SplitPoint {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            9 => TafRequest::MigCtl(ShardCmd::decode(input)?),
            10 => TafRequest::ResolvePrefix {
                start: InodeId::decode(input)?,
                comps: Vec::<String>::decode(input)?,
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            11 => TafRequest::ReadIndex(Box::new(TafRequest::decode(input)?)),
            12 => TafRequest::Pending,
            13 => TafRequest::GcTrim(Vec::<PendingRow>::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

/// One scan result entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// The id record.
    pub record: Record,
}

impl EncodeListItem for DirEntry {}

impl Encode for DirEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.record.encode(buf);
    }
}

impl Decode for DirEntry {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(DirEntry {
            name: String::decode(input)?,
            record: Record::decode(input)?,
        })
    }
}

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

impl EncodeListItem for ResolveStep {}

impl Encode for ResolveStep {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.ino.encode(buf);
        self.ftype.encode(buf);
        self.gen.encode(buf);
    }
}

impl Decode for ResolveStep {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(ResolveStep {
            ino: InodeId::decode(input)?,
            ftype: cfs_types::FileType::decode(input)?,
            gen: u64::decode(input)?,
        })
    }
}

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

impl Encode for ResolveEnd {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ResolveEnd::Done => buf.push(0),
            ResolveEnd::Continue => buf.push(1),
            ResolveEnd::Err { err, gen } => {
                buf.push(2);
                err.encode(buf);
                gen.encode(buf);
            }
        }
    }
}

impl Decode for ResolveEnd {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => ResolveEnd::Done,
            1 => ResolveEnd::Continue,
            2 => ResolveEnd::Err {
                err: FsError::decode(input)?,
                gen: u64::decode(input)?,
            },
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

/// Result of a [`TafRequest::ResolvePrefix`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Resolved {
    /// One entry per component resolved on this shard, in walk order.
    pub steps: Vec<ResolveStep>,
    /// Why the walk stopped.
    pub end: ResolveEnd,
}

impl Encode for Resolved {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.steps.encode(buf);
        self.end.encode(buf);
    }
}

impl Decode for Resolved {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Resolved {
            steps: Vec::<ResolveStep>::decode(input)?,
            end: ResolveEnd::decode(input)?,
        })
    }
}

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

impl Encode for TafResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TafResponse::Record(r) => {
                buf.push(0);
                r.encode(buf);
            }
            TafResponse::Entries(es) => {
                buf.push(1);
                es.encode(buf);
            }
            TafResponse::Executed(r) => {
                buf.push(2);
                r.encode(buf);
            }
            TafResponse::Ok => buf.push(3),
            // Tag 4 is retired; do not reuse it.
            TafResponse::Err(e) => {
                buf.push(5);
                e.encode(buf);
            }
            TafResponse::Exported { ops, done } => {
                buf.push(6);
                ops.encode(buf);
                done.encode(buf);
            }
            TafResponse::Tail(ops) => {
                buf.push(7);
                ops.encode(buf);
            }
            TafResponse::SplitAt(at) => {
                buf.push(8);
                at.encode(buf);
            }
            TafResponse::Resolved(r) => {
                buf.push(9);
                r.encode(buf);
            }
            TafResponse::Pending(rows) => {
                buf.push(10);
                rows.encode(buf);
            }
        }
    }
}

impl Decode for TafResponse {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => TafResponse::Record(Option::<Record>::decode(input)?),
            1 => TafResponse::Entries(Vec::<DirEntry>::decode(input)?),
            2 => TafResponse::Executed(PrimResult::decode(input)?),
            3 => TafResponse::Ok,
            5 => TafResponse::Err(FsError::decode(input)?),
            6 => TafResponse::Exported {
                ops: Vec::<WriteOp>::decode(input)?,
                done: bool::decode(input)?,
            },
            7 => TafResponse::Tail(Vec::<WriteOp>::decode(input)?),
            8 => TafResponse::SplitAt(Option::<u64>::decode(input)?),
            9 => TafResponse::Resolved(Resolved::decode(input)?),
            10 => TafResponse::Pending(Vec::<PendingRow>::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

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

fn encode_writes(writes: &[(Key, Option<Record>)], buf: &mut Vec<u8>) {
    (writes.len() as u64).encode(buf);
    for (k, r) in writes {
        k.encode(buf);
        r.encode(buf);
    }
}

fn decode_writes(input: &mut &[u8]) -> Result<Vec<(Key, Option<Record>)>, DecodeError> {
    let n = u64::decode(input)?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push((Key::decode(input)?, Option::<Record>::decode(input)?));
    }
    Ok(out)
}

impl Encode for ShardCmd {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ShardCmd::Execute(p) => {
                buf.push(0);
                p.encode(buf);
            }
            ShardCmd::Put(k, r) => {
                buf.push(1);
                k.encode(buf);
                r.encode(buf);
            }
            ShardCmd::Delete(k) => {
                buf.push(2);
                k.encode(buf);
            }
            ShardCmd::Prepare { txn, writes } => {
                buf.push(3);
                txn.encode(buf);
                encode_writes(writes, buf);
            }
            ShardCmd::PreparePrim { txn, prim } => {
                buf.push(7);
                txn.encode(buf);
                prim.encode(buf);
            }
            ShardCmd::CommitPrepared { txn } => {
                buf.push(4);
                txn.encode(buf);
            }
            ShardCmd::Abort { txn } => {
                buf.push(5);
                txn.encode(buf);
            }
            ShardCmd::CommitWrites { writes } => {
                buf.push(6);
                encode_writes(writes, buf);
            }
            ShardCmd::MigStart { lo, hi } => {
                buf.push(8);
                lo.encode(buf);
                hi.encode(buf);
            }
            ShardCmd::MigFreeze { lo, hi } => {
                buf.push(9);
                lo.encode(buf);
                hi.encode(buf);
            }
            ShardCmd::MigFinish { lo, hi, epoch } => {
                buf.push(10);
                lo.encode(buf);
                hi.encode(buf);
                epoch.encode(buf);
            }
            ShardCmd::MigAbort { lo, hi } => {
                buf.push(11);
                lo.encode(buf);
                hi.encode(buf);
            }
            ShardCmd::MigIngest { ops } => {
                buf.push(12);
                ops.encode(buf);
            }
            ShardCmd::MigAccept { lo, hi } => {
                buf.push(13);
                lo.encode(buf);
                hi.encode(buf);
            }
            ShardCmd::GcTrim(rows) => {
                buf.push(14);
                rows.encode(buf);
            }
        }
    }
}

impl Decode for ShardCmd {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => ShardCmd::Execute(Primitive::decode(input)?),
            1 => ShardCmd::Put(Key::decode(input)?, Record::decode(input)?),
            2 => ShardCmd::Delete(Key::decode(input)?),
            3 => ShardCmd::Prepare {
                txn: u64::decode(input)?,
                writes: decode_writes(input)?,
            },
            4 => ShardCmd::CommitPrepared {
                txn: u64::decode(input)?,
            },
            5 => ShardCmd::Abort {
                txn: u64::decode(input)?,
            },
            6 => ShardCmd::CommitWrites {
                writes: decode_writes(input)?,
            },
            7 => ShardCmd::PreparePrim {
                txn: u64::decode(input)?,
                prim: Primitive::decode(input)?,
            },
            8 => ShardCmd::MigStart {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            9 => ShardCmd::MigFreeze {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            10 => ShardCmd::MigFinish {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
                epoch: u64::decode(input)?,
            },
            11 => ShardCmd::MigAbort {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            12 => ShardCmd::MigIngest {
                ops: Vec::<WriteOp>::decode(input)?,
            },
            13 => ShardCmd::MigAccept {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
            },
            14 => ShardCmd::GcTrim(Vec::<PendingRow>::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

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

impl Encode for TxnRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TxnRequest::LockAndRead { txn, key } => {
                buf.push(0);
                txn.encode(buf);
                key.encode(buf);
            }
            TxnRequest::Lock { txn, key } => {
                buf.push(1);
                txn.encode(buf);
                key.encode(buf);
            }
            TxnRequest::Prepare { txn, writes } => {
                buf.push(2);
                txn.encode(buf);
                encode_writes(writes, buf);
            }
            TxnRequest::PreparePrim { txn, prim } => {
                buf.push(6);
                txn.encode(buf);
                prim.encode(buf);
            }
            TxnRequest::CommitPrepared { txn } => {
                buf.push(3);
                txn.encode(buf);
            }
            TxnRequest::Commit { txn, writes } => {
                buf.push(4);
                txn.encode(buf);
                encode_writes(writes, buf);
            }
            TxnRequest::Abort { txn } => {
                buf.push(5);
                txn.encode(buf);
            }
        }
    }
}

impl Decode for TxnRequest {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => TxnRequest::LockAndRead {
                txn: u64::decode(input)?,
                key: Key::decode(input)?,
            },
            1 => TxnRequest::Lock {
                txn: u64::decode(input)?,
                key: Key::decode(input)?,
            },
            2 => TxnRequest::Prepare {
                txn: u64::decode(input)?,
                writes: decode_writes(input)?,
            },
            3 => TxnRequest::CommitPrepared {
                txn: u64::decode(input)?,
            },
            4 => TxnRequest::Commit {
                txn: u64::decode(input)?,
                writes: decode_writes(input)?,
            },
            5 => TxnRequest::Abort {
                txn: u64::decode(input)?,
            },
            6 => TxnRequest::PreparePrim {
                txn: u64::decode(input)?,
                prim: crate::primitive::Primitive::decode(input)?,
            },
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

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

impl Encode for TxnResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TxnResponse::Locked(r) => {
                buf.push(0);
                r.encode(buf);
            }
            TxnResponse::Ok => buf.push(1),
            TxnResponse::Err(e) => {
                buf.push(2);
                e.encode(buf);
            }
        }
    }
}

impl Decode for TxnResponse {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => TxnResponse::Locked(Option::<Record>::decode(input)?),
            1 => TxnResponse::Ok,
            2 => TxnResponse::Err(FsError::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
