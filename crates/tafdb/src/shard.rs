//! The shard state machine: one range of the `inode_table` over an ordered
//! in-memory store (`cfs-kvstore`: one map + WAL + checkpoint).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cfs_kvstore::{KvConfig, KvStore, WriteOp};
use cfs_obs::metrics::{Counter, Histogram, Registry};
use cfs_raft::StateMachine;
use cfs_types::codec::{read_tag, Decode, DecodeError, Encode};
use cfs_types::{
    wire, FsError, FsResult, InodeId, Key, PendingEvent, PendingRow, PendingTable, Record,
};
use parking_lot::RwLock;

use crate::api::{DirEntry, ResolveEnd, ResolveStep, Resolved, ShardCmd, TafResponse};
use crate::primitive::{self, PrimResult, Primitive, RecordStore};
use cfs_types::FileType;

/// One replica's instruments in its node's cfs-obs registry, resolved once
/// when the shard is built. The counters are bumped inside replicated apply,
/// so every replica of a shard reaches the same values: read one replica's,
/// do not sum across the group.
struct Instruments {
    primitives: Arc<Counter>,
    /// Primitives whose checks failed.
    primitive_failures: Arc<Counter>,
    txn_commits: Arc<Counter>,
    txn_aborts: Arc<Counter>,
    ranges_donated: Arc<Counter>,
    ranges_received: Arc<Counter>,
    /// Raw kv entries ingested from migration streams.
    keys_streamed: Arc<Counter>,
    /// Nanoseconds spent with a range frozen for cutover (in-range requests
    /// refused).
    freeze_ns: Arc<Counter>,
    /// How long each applied primitive held the shard: the pruned critical
    /// section the paper contrasts with baseline lock-hold times.
    prim_hold_ns: Arc<Histogram>,
}

impl Instruments {
    fn resolve(reg: &Registry) -> Instruments {
        Instruments {
            primitives: reg.counter("shard_primitives"),
            primitive_failures: reg.counter("shard_primitive_failures"),
            txn_commits: reg.counter("shard_txn_commits"),
            txn_aborts: reg.counter("shard_txn_aborts"),
            ranges_donated: reg.counter("shard_ranges_donated"),
            ranges_received: reg.counter("shard_ranges_received"),
            keys_streamed: reg.counter("shard_keys_streamed"),
            freeze_ns: reg.counter("shard_freeze_ns"),
            prim_hold_ns: reg.histogram("prim_hold_ns"),
        }
    }
}

/// A transaction staged by 2PC prepare, awaiting commit or abort.
enum Staged {
    /// Raw writes (baseline locking engine).
    Writes(Vec<(Key, Option<Record>)>),
    /// A primitive executed with merge semantics at commit (Renamer).
    Prim(Primitive),
}

wire!(enum Staged { 0 => Writes(writes), 1 => Prim(prim) });

/// Phase of an in-flight outbound range migration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MigPhase {
    /// Pages are streaming out; the range still serves reads and writes,
    /// with every write also recorded in the tail.
    Streaming,
    /// The range is sealed for cutover: in-range requests answer
    /// `WrongShard` until the driver finishes or aborts.
    Frozen,
}

wire!(enum MigPhase { 0 => Streaming, 1 => Frozen });

/// The in-flight outbound migration (at most one per shard).
struct ActiveMigration {
    lo: u64,
    hi: u64,
    phase: MigPhase,
    /// In-range writes applied since `MigStart`, replayed on the receiver
    /// after the export pages.
    tail: Vec<WriteOp>,
    /// Wall-clock start of the freeze window (metrics only).
    frozen_at: Option<Instant>,
}

/// The kid prefix of a raw kv key (keys are 8-byte big-endian kid followed
/// by the record discriminator; see `Key::to_sortable_bytes`).
fn kid_of(raw: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = raw.len().min(8);
    b[..n].copy_from_slice(&raw[..n]);
    u64::from_be_bytes(b)
}

/// Every kid a primitive touches.
fn prim_kids(prim: &Primitive) -> impl Iterator<Item = u64> + '_ {
    prim.checks
        .iter()
        .map(|c| c.key.kid.raw())
        .chain(prim.inserts.iter().map(|(k, _)| k.kid.raw()))
        .chain(prim.deletes.iter().map(|c| c.key.kid.raw()))
        .chain(prim.update.iter().map(|u| u.cond.key.kid.raw()))
}

/// Everything a replicated command changes besides the kv map. It sits
/// behind the shard's one lock, which an applied command holds from its
/// first ownership check to its last kv write, so a reader that takes the
/// lock sees whole commands only.
#[derive(Default)]
struct ShardState {
    /// Items staged by prepared 2PC transactions, applied in order on
    /// commit. One transaction may stage several shares on the same shard
    /// (e.g. a directory rename whose source parent and moved directory both
    /// live here).
    prepared: BTreeMap<u64, Vec<Staged>>,
    /// The garbage collector's pairing input (§4.4): the id-record and
    /// directory-attribute events this shard applied that nothing has
    /// balanced or trimmed yet. Splits move none of it.
    pending: PendingTable,
    /// The in-flight outbound migration (at most one per shard).
    migrating: Option<ActiveMigration>,
    /// Ranges donated away, with the map epoch at which each one moved —
    /// the epoch is handed to stale clients in `WrongShard` redirects.
    moved: Vec<(u64, u64, u64)>,
    /// Per-directory generation numbers, bumped whenever a replicated write
    /// touches the directory's entry keys ([`TafShard::commit_batch`]), so
    /// every replica derives the same sequence. Piggybacked on resolve
    /// responses so clients can invalidate exactly the stale directory's
    /// dentries.
    dir_gens: HashMap<u64, u64>,
    /// Raft index of the last applied command; tags snapshot images with the
    /// log position they cover.
    applied_index: u64,
}

impl ShardState {
    /// Returns an error when this shard no longer serves `kid`: the range
    /// was donated away (`WrongShard` with the epoch to catch up to) or is
    /// frozen for cutover (`WrongShard(0)` — retry until the new map lands).
    fn check_owner(&self, kid: u64) -> FsResult<()> {
        if let Some(&(_, _, epoch)) = self.moved.iter().find(|m| (m.0..=m.1).contains(&kid)) {
            return Err(FsError::WrongShard(epoch));
        }
        match &self.migrating {
            Some(m) if m.phase == MigPhase::Frozen && (m.lo..=m.hi).contains(&kid) => {
                Err(FsError::WrongShard(0))
            }
            _ => Ok(()),
        }
    }

    /// Why a new 2PC prepare touching `kid` must be refused, if it must:
    /// moved or frozen ranges redirect, and any in-flight migration refuses
    /// new prepares (`Busy`) so the freeze is never blocked indefinitely.
    fn rejects_prepare(&self, kid: u64) -> Option<FsError> {
        match (self.check_owner(kid), &self.migrating) {
            (Err(e), _) => Some(e),
            (Ok(()), Some(m)) if (m.lo..=m.hi).contains(&kid) => Some(FsError::Busy),
            _ => None,
        }
    }

    /// True when any staged 2PC transaction touches `[lo, hi]` (the freeze
    /// must wait for their commit or abort).
    fn prepared_intersects(&self, lo: u64, hi: u64) -> bool {
        self.prepared.values().flatten().any(|item| match item {
            Staged::Writes(ws) => ws.iter().any(|(k, _)| (lo..=hi).contains(&k.kid.raw())),
            Staged::Prim(p) => prim_kids(p).any(|kid| (lo..=hi).contains(&kid)),
        })
    }

    fn epoch(&self) -> u64 {
        self.moved.iter().map(|&(_, _, e)| e).max().unwrap_or(0)
    }

    fn gen_of(&self, kid: u64) -> u64 {
        self.dir_gens.get(&kid).copied().unwrap_or(0)
    }

    /// Records the structural events of one committed write of `key`,
    /// judged against the record it replaced: an id record appearing or
    /// changing target links its inode, one disappearing unlinks it, and a
    /// directory attribute record appearing or disappearing is a put or a
    /// delete. Field updates of an existing record are not structural.
    fn record_write(&mut self, key: &Key, prior: Option<&Record>, new: Option<&Record>) {
        if key.is_attr() {
            let event = match (prior, new) {
                (None, Some(_)) => PendingEvent::DirAttrPut,
                (Some(_), None) => PendingEvent::DirAttrDeleted,
                _ => return,
            };
            self.pending.record(Vec::new(), key.kid, event);
            return;
        }
        let old = prior.and_then(|r| r.id);
        let new = new.and_then(|r| r.id);
        if old == new {
            return;
        }
        if let Some(ino) = old {
            self.pending
                .record(key.to_sortable_bytes(), ino, PendingEvent::Unlinked);
        }
        if let Some(ino) = new {
            self.pending
                .record(key.to_sortable_bytes(), ino, PendingEvent::Linked);
        }
    }
}

/// The snapshot image's bookkeeping part (everything but the applied index,
/// which heads the image, and the kv entries). Maps are written sorted, so
/// equal state yields equal bytes.
impl Encode for ShardState {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut gens: Vec<(u64, u64)> = self.dir_gens.iter().map(|(&k, &g)| (k, g)).collect();
        gens.sort_unstable();
        gens.encode(buf);
        self.moved.encode(buf);
        // The migration, as an `Option`: its wall-clock anchor stays local.
        match &self.migrating {
            None => buf.push(0),
            Some(m) => {
                buf.push(1);
                m.lo.encode(buf);
                m.hi.encode(buf);
                m.phase.encode(buf);
                m.tail.encode(buf);
            }
        }
        (self.prepared.len() as u64).encode(buf);
        for (txn, items) in &self.prepared {
            txn.encode(buf);
            items.encode(buf);
        }
        self.pending.encode(buf);
    }
}

impl Decode for ShardState {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let dir_gens = Vec::<(u64, u64)>::decode(input)?.into_iter().collect();
        let moved = Vec::decode(input)?;
        let migrating = match read_tag(input)? {
            0 => None,
            1 => Some(ActiveMigration {
                lo: u64::decode(input)?,
                hi: u64::decode(input)?,
                phase: MigPhase::decode(input)?,
                tail: Vec::decode(input)?,
                // The wall-clock freeze anchor is a local metrics aid; a
                // restored replica simply stops charging freeze_ns for the
                // window that predates it.
                frozen_at: None,
            }),
            tag => {
                return Err(DecodeError::InvalidTag {
                    ty: "Option<ActiveMigration>",
                    tag,
                })
            }
        };
        Ok(ShardState {
            prepared: Vec::<(u64, Vec<Staged>)>::decode(input)?
                .into_iter()
                .collect(),
            pending: PendingTable::decode(input)?,
            migrating,
            moved,
            dir_gens,
            applied_index: 0,
        })
    }
}

/// One shard of the `inode_table`: the Raft-replicated state machine.
///
/// The kv map and [`ShardState`] change only inside an applied command,
/// which holds `state` for writing throughout; readers that need the
/// bookkeeping take it shared.
pub struct TafShard {
    kv: KvStore,
    obs: Instruments,
    state: RwLock<ShardState>,
}

impl TafShard {
    /// Creates a shard over a store with the given config. It reports into
    /// the registry of the node the calling thread is attributed to
    /// (`cfs_obs::trace::node_scope`).
    pub fn new(kv_config: KvConfig) -> FsResult<TafShard> {
        Ok(TafShard {
            kv: KvStore::with_config(kv_config)?,
            obs: Instruments::resolve(&cfs_obs::metrics::local()),
            state: RwLock::new(ShardState::default()),
        })
    }

    /// Raft index of the last command applied to this shard (0 before any).
    pub fn applied_index(&self) -> u64 {
        self.state.read().applied_index
    }

    /// The shard's partition-map epoch: the highest epoch at which one of
    /// its ranges was donated away, or 0 before any migration completes.
    pub fn epoch(&self) -> u64 {
        self.state.read().epoch()
    }

    /// The rows of the GC pending table, in key order.
    pub fn pending_rows(&self) -> Vec<PendingRow> {
        self.state.read().pending.rows()
    }

    /// Leader-local point read.
    pub fn get(&self, key: &Key) -> Option<Record> {
        self.kv
            .get(&key.to_sortable_bytes())
            .and_then(|v| Record::from_bytes(&v).ok())
    }

    /// Leader-local ordered scan of a directory's children (excluding the
    /// `/_ATTR` record), resuming strictly after `after`.
    pub fn scan(&self, dir: InodeId, after: Option<&str>, limit: usize) -> Vec<DirEntry> {
        let start = match after {
            // 0x01-prefixed name keys sort after the attr record; appending a
            // zero byte makes the bound exclusive of `after` itself.
            Some(name) => {
                let mut k = Key::entry(dir, name).to_sortable_bytes();
                k.push(0);
                k
            }
            None => Key::dir_range_start(dir),
        };
        let end = Key::dir_range_end(dir);
        self.kv
            .scan(&start, &end, limit + 1)
            .into_iter()
            .filter_map(|(kb, vb)| {
                let key = Key::from_sortable_bytes(&kb).ok()?;
                let name = key.kstr.name()?.to_string();
                let record = Record::from_bytes(&vb).ok()?;
                Some(DirEntry { name, record })
            })
            .take(limit)
            .collect()
    }

    /// Batched path walk (leader-local or ReadIndex-confirmed): resolves as
    /// many leading components of `comps` as this shard owns, starting at
    /// directory `start`. This is the pruned read path — one RPC (and one
    /// critical-section entry) per shard instead of one per component.
    ///
    /// Ownership of the *directory being searched* decides how far the walk
    /// goes. The shard holds no authoritative partition map, so `[lo, hi]`
    /// is the client's view of this shard's owned range: a component whose
    /// parent falls outside it ends the walk with [`ResolveEnd::Continue`]
    /// (the caller resumes there). Ranges this shard donated away are
    /// refused server-side ([`Self::check_owner`]) — at step 0 the request
    /// was mis-routed outright and the error propagates so the client
    /// refreshes its map.
    pub fn resolve_prefix(
        &self,
        start: InodeId,
        comps: &[String],
        lo: u64,
        hi: u64,
    ) -> FsResult<Resolved> {
        let st = self.state.read();
        let mut steps: Vec<ResolveStep> = Vec::with_capacity(comps.len());
        let mut cur = start;
        for (i, comp) in comps.iter().enumerate() {
            if !(lo <= cur.raw() && cur.raw() <= hi) {
                if i == 0 {
                    // The client routed `start` here but its stated range
                    // disagrees (a map install raced the request). Redirect
                    // so it re-reads its map and retries coherently.
                    return Err(FsError::WrongShard(0));
                }
                return Ok(Resolved {
                    steps,
                    end: ResolveEnd::Continue,
                });
            }
            match st.check_owner(cur.raw()) {
                Ok(()) => {}
                Err(e) if i == 0 => return Err(e),
                Err(_) => {
                    return Ok(Resolved {
                        steps,
                        end: ResolveEnd::Continue,
                    })
                }
            }
            let gen = st.gen_of(cur.raw());
            let rec = match self.get(&Key::entry(cur, comp)) {
                Some(rec) => rec,
                None => {
                    return Ok(Resolved {
                        steps,
                        end: ResolveEnd::Err {
                            err: FsError::NotFound,
                            gen,
                        },
                    })
                }
            };
            let (ino, ftype) = match (rec.id, rec.ftype) {
                (Some(ino), Some(ftype)) => (ino, ftype),
                _ => {
                    return Ok(Resolved {
                        steps,
                        end: ResolveEnd::Err {
                            err: FsError::Corrupted(format!("entry {comp:?} has no id record")),
                            gen,
                        },
                    })
                }
            };
            steps.push(ResolveStep { ino, ftype, gen });
            if i + 1 < comps.len() {
                if ftype != FileType::Dir {
                    return Ok(Resolved {
                        steps,
                        end: ResolveEnd::Err {
                            err: FsError::NotDir,
                            gen,
                        },
                    });
                }
                cur = ino;
            }
        }
        Ok(Resolved {
            steps,
            end: ResolveEnd::Done,
        })
    }

    /// Returns an error when this shard no longer serves `kid`: the range
    /// was donated away (`WrongShard` with the epoch to catch up to) or is
    /// frozen for cutover (`WrongShard(0)` — retry until the new map lands).
    pub fn check_owner(&self, kid: u64) -> FsResult<()> {
        self.state.read().check_owner(kid)
    }

    /// Current generation of directory `kid` (0 until its first entry write).
    pub fn gen_of(&self, kid: u64) -> u64 {
        self.state.read().gen_of(kid)
    }

    /// Commits a batch in one pass over its ops: bumps the generation of
    /// every directory whose entry keys it touches and, while an outbound
    /// migration is streaming, records its in-range writes in the tail.
    fn commit_batch(&self, st: &mut ShardState, ops: Vec<WriteOp>) -> FsResult<()> {
        let mut streaming = st
            .migrating
            .as_mut()
            .filter(|m| m.phase == MigPhase::Streaming);
        for op in &ops {
            let (WriteOp::Put(k, _) | WriteOp::Delete(k)) = op;
            let kid = kid_of(k);
            // An entry (name) key is the 8-byte kid followed by the 0x01
            // discriminator (see `Key::to_sortable_bytes`); attr-record
            // writes do not change what names resolve to, so they leave the
            // generation alone.
            if k.get(8) == Some(&0x01) {
                *st.dir_gens.entry(kid).or_insert(0) += 1;
            }
            if let Some(m) = streaming.as_mut() {
                if (m.lo..=m.hi).contains(&kid) {
                    m.tail.push(op.clone());
                }
            }
        }
        self.kv.write_batch(ops)
    }

    /// One fuzzy page of the migrating range `[lo, hi]` (leader-local read;
    /// the range stays writable — later writes are caught by the tail).
    /// Resumes strictly after raw kv key `after`; the returned flag is true
    /// when no further page exists.
    pub fn export_page(
        &self,
        lo: u64,
        hi: u64,
        after: Option<&[u8]>,
        limit: usize,
    ) -> (Vec<WriteOp>, bool) {
        let start = match after {
            // Appending a zero byte makes the bound exclusive of `after`.
            Some(k) => {
                let mut s = k.to_vec();
                s.push(0);
                s
            }
            None => lo.to_be_bytes().to_vec(),
        };
        let end = hi.checked_add(1).map(|e| e.to_be_bytes().to_vec());
        let mut page = self.kv.scan_from(&start, end.as_deref(), limit + 1);
        let done = page.len() <= limit;
        page.truncate(limit);
        (
            page.into_iter().map(|(k, v)| WriteOp::Put(k, v)).collect(),
            done,
        )
    }

    /// A balanced split point for `[lo, hi]`: the kid of the median occupied
    /// key, or `None` when every key sits at `lo` (nothing to split). The
    /// returned point always satisfies `lo < at <= hi`, and directories are
    /// never torn apart because points are kid boundaries.
    pub fn split_point(&self, lo: u64, hi: u64) -> Option<u64> {
        let start = lo.to_be_bytes().to_vec();
        let end = hi.checked_add(1).map(|e| e.to_be_bytes().to_vec());
        let entries = self.kv.scan_from(&start, end.as_deref(), usize::MAX);
        if entries.is_empty() {
            return None;
        }
        let mid = kid_of(&entries[entries.len() / 2].0);
        if mid > lo {
            return Some(mid);
        }
        // The lower half all shares kid `lo`; fall forward to the first
        // occupied kid above it.
        entries.iter().map(|(k, _)| kid_of(k)).find(|&k| k > lo)
    }

    /// Drops every key of a donated range from the local store (no pending
    /// rows: the records moved, they were not logically deleted).
    fn purge_range(&self, lo: u64, hi: u64) -> FsResult<()> {
        let start = lo.to_be_bytes().to_vec();
        let end = hi.checked_add(1).map(|e| e.to_be_bytes().to_vec());
        let dels = self
            .kv
            .scan_from(&start, end.as_deref(), usize::MAX)
            .into_iter()
            .map(|(k, _)| WriteOp::Delete(k))
            .collect();
        self.kv.write_batch(dels)
    }

    /// Applies one replicated command, returning the response to encode.
    pub fn apply_cmd(&self, cmd: ShardCmd) -> TafResponse {
        self.apply_locked(&mut self.state.write(), cmd)
    }

    /// [`Self::apply_cmd`] under the shard's lock, which the caller holds.
    fn apply_locked(&self, st: &mut ShardState, cmd: ShardCmd) -> TafResponse {
        let done = |res: FsResult<()>| match res {
            Ok(()) => TafResponse::Ok,
            Err(e) => TafResponse::Err(e),
        };
        match cmd {
            ShardCmd::Execute(prim) => {
                if let Some(e) = prim_kids(&prim).find_map(|kid| st.check_owner(kid).err()) {
                    return TafResponse::Err(e);
                }
                // The primitive executes atomically inside the state machine
                // — this duration IS the pruned critical section the paper
                // contrasts with baseline lock-hold times.
                let hold_started = std::time::Instant::now();
                let result = self.execute_primitive(st, &prim);
                self.obs
                    .prim_hold_ns
                    .observe(hold_started.elapsed().as_nanos() as u64);
                match result {
                    Ok(res) => {
                        self.obs.primitives.inc();
                        TafResponse::Executed(res)
                    }
                    Err(e) => {
                        self.obs.primitive_failures.inc();
                        TafResponse::Err(e)
                    }
                }
            }
            ShardCmd::Put(key, rec) => done(
                st.check_owner(key.kid.raw())
                    .and_then(|()| self.apply_writes(st, vec![(key, Some(rec))])),
            ),
            ShardCmd::Delete(key) => done(
                st.check_owner(key.kid.raw())
                    .and_then(|()| self.apply_writes(st, vec![(key, None)])),
            ),
            ShardCmd::Prepare { txn, writes } => {
                if let Some(e) = writes
                    .iter()
                    .find_map(|(k, _)| st.rejects_prepare(k.kid.raw()))
                {
                    return TafResponse::Err(e);
                }
                st.prepared
                    .entry(txn)
                    .or_default()
                    .push(Staged::Writes(writes));
                TafResponse::Ok
            }
            ShardCmd::PreparePrim { txn, prim } => {
                if let Some(e) = prim_kids(&prim).find_map(|kid| st.rejects_prepare(kid)) {
                    return TafResponse::Err(e);
                }
                st.prepared.entry(txn).or_default().push(Staged::Prim(prim));
                TafResponse::Ok
            }
            ShardCmd::CommitPrepared { txn } => {
                let Some(items) = st.prepared.remove(&txn) else {
                    return TafResponse::Err(FsError::Invalid(format!(
                        "commit of unprepared txn {txn}"
                    )));
                };
                self.obs.txn_commits.inc();
                let mut result = PrimResult::default();
                for item in items {
                    let res = match item {
                        Staged::Writes(writes) => self.apply_writes(st, writes),
                        Staged::Prim(prim) => self
                            .execute_primitive(st, &prim)
                            .map(|r| result.deleted.extend(r.deleted)),
                    };
                    if let Err(e) = res {
                        return TafResponse::Err(e);
                    }
                }
                TafResponse::Executed(result)
            }
            ShardCmd::Abort { txn } => {
                st.prepared.remove(&txn);
                self.obs.txn_aborts.inc();
                TafResponse::Ok
            }
            ShardCmd::CommitWrites { writes } => {
                if let Some(e) = writes
                    .iter()
                    .find_map(|(k, _)| st.check_owner(k.kid.raw()).err())
                {
                    return TafResponse::Err(e);
                }
                self.obs.txn_commits.inc();
                done(self.apply_writes(st, writes))
            }
            ShardCmd::MigStart { lo, hi } => match &st.migrating {
                // Idempotent: a retried start of the same range is fine.
                Some(m) if m.lo == lo && m.hi == hi => TafResponse::Ok,
                Some(_) => TafResponse::Err(FsError::Busy),
                None => {
                    st.migrating = Some(ActiveMigration {
                        lo,
                        hi,
                        phase: MigPhase::Streaming,
                        tail: Vec::new(),
                        frozen_at: None,
                    });
                    TafResponse::Ok
                }
            },
            ShardCmd::MigFreeze { lo, hi } => {
                // The tail must be final at freeze: refuse while staged 2PC
                // transactions could still commit writes into the range.
                if st.prepared_intersects(lo, hi) {
                    return TafResponse::Err(FsError::Busy);
                }
                match &mut st.migrating {
                    Some(m) if m.lo == lo && m.hi == hi => {
                        if m.phase == MigPhase::Streaming {
                            m.phase = MigPhase::Frozen;
                            m.frozen_at = Some(Instant::now());
                        }
                        // The tail is kept (not drained) so a retried freeze
                        // returns the same data.
                        TafResponse::Tail(m.tail.clone())
                    }
                    _ => TafResponse::Err(FsError::Invalid(
                        "freeze without matching migration".into(),
                    )),
                }
            }
            ShardCmd::MigFinish { lo, hi, epoch } => match &st.migrating {
                Some(m) if m.lo == lo && m.hi == hi => {
                    if let Some(t0) = m.frozen_at {
                        self.obs.freeze_ns.add(t0.elapsed().as_nanos() as u64);
                    }
                    st.migrating = None;
                    st.moved.push((lo, hi, epoch));
                    self.obs.ranges_donated.inc();
                    done(self.purge_range(lo, hi))
                }
                // Idempotent: the donation may already be recorded.
                _ if st.moved.contains(&(lo, hi, epoch)) => TafResponse::Ok,
                _ => TafResponse::Err(FsError::Invalid("finish without matching migration".into())),
            },
            ShardCmd::MigAbort { lo, hi } => {
                if matches!(&st.migrating, Some(m) if m.lo == lo && m.hi == hi) {
                    st.migrating = None;
                }
                TafResponse::Ok
            }
            ShardCmd::MigIngest { ops } => {
                let n = ops.len() as u64;
                let res = self.commit_batch(st, ops);
                if res.is_ok() {
                    self.obs.keys_streamed.add(n);
                }
                done(res)
            }
            ShardCmd::MigAccept { lo: _, hi: _ } => {
                self.obs.ranges_received.inc();
                TafResponse::Ok
            }
            ShardCmd::GcTrim(rows) => {
                st.pending.trim(&rows);
                TafResponse::Ok
            }
        }
    }

    /// Commits raw record writes, recording each one's structural events
    /// against the record it replaced.
    fn apply_writes(
        &self,
        st: &mut ShardState,
        writes: Vec<(Key, Option<Record>)>,
    ) -> FsResult<()> {
        let priors: Vec<Option<Record>> = writes.iter().map(|(k, _)| self.get(k)).collect();
        let ops = writes
            .iter()
            .map(|(k, r)| match r {
                Some(rec) => WriteOp::Put(k.to_sortable_bytes(), rec.to_bytes()),
                None => WriteOp::Delete(k.to_sortable_bytes()),
            })
            .collect();
        self.commit_batch(st, ops)?;
        for ((k, r), prior) in writes.iter().zip(&priors) {
            st.record_write(k, prior.as_ref(), r.as_ref());
        }
        Ok(())
    }

    /// Serializes the shard's full replicated state: the applied index and
    /// partition-map epoch, the live kv entries, then [`ShardState`].
    fn encode_image(&self) -> Vec<u8> {
        let st = self.state.read();
        let mut buf = Vec::new();
        st.applied_index.encode(&mut buf);
        st.epoch().encode(&mut buf);
        // Live kv entries in key order (tombstones already resolved).
        let entries: Vec<(Vec<u8>, Vec<u8>)> = self.kv.range_snapshot(&[], None).collect();
        entries.encode(&mut buf);
        st.encode(&mut buf);
        buf
    }

    /// Replaces the shard's state wholesale with a decoded image. Everything
    /// is decoded before anything is mutated, so a corrupt image leaves the
    /// shard untouched.
    fn restore_image(&self, mut input: &[u8]) -> FsResult<()> {
        let input = &mut input;
        let applied_index = u64::decode(input)?;
        // The epoch header is a tag for checkpoint tooling; the authoritative
        // copy rides in `moved`.
        let _epoch = u64::decode(input)?;
        let entries = Vec::<(Vec<u8>, Vec<u8>)>::decode(input)?;
        let restored = ShardState {
            applied_index,
            ..ShardState::decode(input)?
        };

        let mut st = self.state.write();
        self.kv.reset();
        self.kv.write_batch(
            entries
                .into_iter()
                .map(|(k, v)| WriteOp::Put(k, v))
                .collect(),
        )?;
        *st = restored;
        Ok(())
    }

    fn execute_primitive(&self, st: &mut ShardState, prim: &Primitive) -> FsResult<PrimResult> {
        let mut staging = StagingStore {
            kv: &self.kv,
            staged: Vec::new(),
        };
        let result = primitive::execute(&mut staging, prim)?;
        let staged = std::mem::take(&mut staging.staged);
        self.commit_batch(st, staged)?;
        // An insert replaces nothing: a record this primitive deleted under
        // the same key counts as its own delete.
        for (key, rec) in &result.deleted {
            st.record_write(key, Some(rec), None);
        }
        for (key, rec) in &prim.inserts {
            st.record_write(key, None, Some(rec));
        }
        Ok(result)
    }
}

/// Adapter: primitive execution stages into a kvstore batch.
struct StagingStore<'a> {
    kv: &'a KvStore,
    staged: Vec<WriteOp>,
}

impl RecordStore for StagingStore<'_> {
    fn load(&self, key: &Key) -> Option<Record> {
        self.kv
            .get(&key.to_sortable_bytes())
            .and_then(|v| Record::from_bytes(&v).ok())
    }

    fn stage_put(&mut self, key: Key, rec: Record) {
        self.staged
            .push(WriteOp::Put(key.to_sortable_bytes(), rec.to_bytes()));
    }

    fn stage_delete(&mut self, key: Key) {
        self.staged.push(WriteOp::Delete(key.to_sortable_bytes()));
    }
}

impl StateMachine for TafShard {
    fn apply(&self, index: u64, cmd: &[u8]) -> Vec<u8> {
        let mut st = self.state.write();
        let resp = match ShardCmd::from_bytes(cmd) {
            Ok(cmd) => self.apply_locked(&mut st, cmd),
            Err(e) => TafResponse::Err(FsError::from(e)),
        };
        st.applied_index = index;
        resp.to_bytes()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.encode_image())
    }

    fn restore(&self, snap: &[u8]) {
        // An undecodable image means the replication layer handed over a
        // corrupt blob — there is no state to fall back to.
        self.restore_image(snap)
            .expect("valid shard snapshot image");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::UpdateSpec;
    use cfs_types::{Cond, FieldAssign, FileType, NumField, Pred, Timestamp};

    fn shard_with_root() -> TafShard {
        let shard = TafShard::new(KvConfig::default()).unwrap();
        let resp = shard.apply_cmd(ShardCmd::Put(
            Key::attr(cfs_types::ROOT_INODE),
            Record::dir_attr_record(0, Timestamp(1)),
        ));
        assert_eq!(resp, TafResponse::Ok);
        shard
    }

    fn create(shard: &TafShard, parent: InodeId, name: &str, ino: u64) -> TafResponse {
        shard.apply_cmd(ShardCmd::Execute(Primitive::insert_with_update(
            Key::entry(parent, name),
            Record::id_record(InodeId(ino), FileType::File),
            UpdateSpec {
                cond: Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
                assigns: vec![FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                }],
                per_deleted: Vec::new(),
                set_id: None,
            },
        )))
    }

    #[test]
    fn execute_then_read_back() {
        let shard = shard_with_root();
        assert!(matches!(
            create(&shard, cfs_types::ROOT_INODE, "f1", 100),
            TafResponse::Executed(_)
        ));
        let rec = shard.get(&Key::entry(cfs_types::ROOT_INODE, "f1")).unwrap();
        assert_eq!(rec.id, Some(InodeId(100)));
        let attr = shard.get(&Key::attr(cfs_types::ROOT_INODE)).unwrap();
        assert_eq!(attr.children, Some(1));
    }

    #[test]
    fn scan_lists_children_in_name_order_excluding_attr() {
        let shard = shard_with_root();
        for (i, name) in ["zeta", "alpha", "mid"].iter().enumerate() {
            create(&shard, cfs_types::ROOT_INODE, name, 100 + i as u64);
        }
        let entries = shard.scan(cfs_types::ROOT_INODE, None, 10);
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn scan_pagination_resumes_after_cursor() {
        let shard = shard_with_root();
        for i in 0..10 {
            create(&shard, cfs_types::ROOT_INODE, &format!("f{i:02}"), 100 + i);
        }
        let page1 = shard.scan(cfs_types::ROOT_INODE, None, 4);
        assert_eq!(page1.len(), 4);
        let page2 = shard.scan(cfs_types::ROOT_INODE, Some(&page1[3].name), 4);
        assert_eq!(page2.len(), 4);
        assert_eq!(page2[0].name, "f04");
        let page3 = shard.scan(cfs_types::ROOT_INODE, Some(&page2[3].name), 4);
        assert_eq!(page3.len(), 2);
    }

    #[test]
    fn prepare_commit_applies_staged_writes() {
        let shard = shard_with_root();
        let writes = vec![(
            Key::entry(cfs_types::ROOT_INODE, "staged"),
            Some(Record::id_record(InodeId(5), FileType::File)),
        )];
        shard.apply_cmd(ShardCmd::Prepare { txn: 1, writes });
        // Not visible before commit.
        assert!(shard
            .get(&Key::entry(cfs_types::ROOT_INODE, "staged"))
            .is_none());
        assert!(matches!(
            shard.apply_cmd(ShardCmd::CommitPrepared { txn: 1 }),
            TafResponse::Executed(_)
        ));
        assert!(shard
            .get(&Key::entry(cfs_types::ROOT_INODE, "staged"))
            .is_some());
    }

    #[test]
    fn abort_discards_staged_writes() {
        let shard = shard_with_root();
        let writes = vec![(
            Key::entry(cfs_types::ROOT_INODE, "doomed"),
            Some(Record::id_record(InodeId(5), FileType::File)),
        )];
        shard.apply_cmd(ShardCmd::Prepare { txn: 2, writes });
        shard.apply_cmd(ShardCmd::Abort { txn: 2 });
        assert!(matches!(
            shard.apply_cmd(ShardCmd::CommitPrepared { txn: 2 }),
            TafResponse::Err(_)
        ));
        assert!(shard
            .get(&Key::entry(cfs_types::ROOT_INODE, "doomed"))
            .is_none());
    }

    #[test]
    fn failed_primitive_counts_in_metrics() {
        // The hub is process-global: a node id of its own keeps the counts
        // exact beside the other tests' shards.
        let _scope = cfs_obs::trace::node_scope(770_001);
        let shard = shard_with_root();
        create(&shard, cfs_types::ROOT_INODE, "dup", 1);
        let resp = create(&shard, cfs_types::ROOT_INODE, "dup", 2);
        assert_eq!(resp, TafResponse::Err(FsError::AlreadyExists));
        let reg = cfs_obs::metrics::node(770_001);
        assert_eq!(reg.counter("shard_primitives").get(), 1);
        assert_eq!(reg.counter("shard_primitive_failures").get(), 1);
        assert_eq!(reg.histogram_snapshot("prim_hold_ns").count, 2);
    }

    #[test]
    fn migration_records_tail_then_freezes_and_redirects() {
        let _scope = cfs_obs::trace::node_scope(770_002);
        let shard = shard_with_root();
        create(&shard, cfs_types::ROOT_INODE, "before", 100);
        // Start donating the whole root range.
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigStart { lo: 0, hi: 50 }),
            TafResponse::Ok
        );
        // Writes during streaming still succeed and land in the tail.
        assert!(matches!(
            create(&shard, cfs_types::ROOT_INODE, "during", 101),
            TafResponse::Executed(_)
        ));
        let tail = match shard.apply_cmd(ShardCmd::MigFreeze { lo: 0, hi: 50 }) {
            TafResponse::Tail(t) => t,
            other => panic!("expected tail, got {other:?}"),
        };
        // The "during" create staged two writes (id record + attr update).
        assert!(tail.len() >= 2, "tail has the racing writes: {tail:?}");
        // A retried freeze returns the same tail, not an empty one.
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigFreeze { lo: 0, hi: 50 }),
            TafResponse::Tail(tail.clone())
        );
        // Frozen range refuses reads and writes.
        assert_eq!(shard.check_owner(3), Err(FsError::WrongShard(0)));
        assert_eq!(
            create(&shard, cfs_types::ROOT_INODE, "late", 102),
            TafResponse::Err(FsError::WrongShard(0))
        );
        // Finish at epoch 2: the range now redirects with the epoch, and the
        // local copy is purged.
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigFinish {
                lo: 0,
                hi: 50,
                epoch: 2
            }),
            TafResponse::Ok
        );
        assert_eq!(shard.check_owner(1), Err(FsError::WrongShard(2)));
        assert!(shard.check_owner(51).is_ok());
        assert!(shard.get(&Key::attr(cfs_types::ROOT_INODE)).is_none());
        // Finish retry stays Ok.
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigFinish {
                lo: 0,
                hi: 50,
                epoch: 2
            }),
            TafResponse::Ok
        );
        let reg = cfs_obs::metrics::node(770_002);
        assert_eq!(reg.counter("shard_ranges_donated").get(), 1);
    }

    #[test]
    fn migration_abort_restores_service() {
        let shard = shard_with_root();
        shard.apply_cmd(ShardCmd::MigStart { lo: 0, hi: 10 });
        shard.apply_cmd(ShardCmd::MigFreeze { lo: 0, hi: 10 });
        assert_eq!(shard.check_owner(1), Err(FsError::WrongShard(0)));
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigAbort { lo: 0, hi: 10 }),
            TafResponse::Ok
        );
        assert!(shard.check_owner(1).is_ok());
        assert!(matches!(
            create(&shard, cfs_types::ROOT_INODE, "f", 100),
            TafResponse::Executed(_)
        ));
    }

    #[test]
    fn freeze_waits_for_intersecting_prepared_txns() {
        let shard = shard_with_root();
        shard.apply_cmd(ShardCmd::MigStart { lo: 0, hi: 10 });
        // A 2PC transaction prepared before MigStart is still pending.
        // (Prepares arriving after MigStart are refused outright.)
        assert_eq!(
            shard.apply_cmd(ShardCmd::Prepare {
                txn: 9,
                writes: vec![(
                    Key::entry(cfs_types::ROOT_INODE, "x"),
                    Some(Record::id_record(InodeId(5), FileType::File)),
                )],
            }),
            TafResponse::Err(FsError::Busy)
        );
        // Simulate one staged earlier by aborting the migration, preparing,
        // then restarting it.
        shard.apply_cmd(ShardCmd::MigAbort { lo: 0, hi: 10 });
        shard.apply_cmd(ShardCmd::Prepare {
            txn: 9,
            writes: vec![(
                Key::entry(cfs_types::ROOT_INODE, "x"),
                Some(Record::id_record(InodeId(5), FileType::File)),
            )],
        });
        shard.apply_cmd(ShardCmd::MigStart { lo: 0, hi: 10 });
        assert_eq!(
            shard.apply_cmd(ShardCmd::MigFreeze { lo: 0, hi: 10 }),
            TafResponse::Err(FsError::Busy)
        );
        // Once the transaction commits, the freeze goes through and its tail
        // carries the committed writes.
        shard.apply_cmd(ShardCmd::CommitPrepared { txn: 9 });
        match shard.apply_cmd(ShardCmd::MigFreeze { lo: 0, hi: 10 }) {
            TafResponse::Tail(tail) => assert!(!tail.is_empty()),
            other => panic!("expected tail, got {other:?}"),
        }
    }

    #[test]
    fn export_pages_cover_range_and_split_point_balances() {
        let shard = shard_with_root();
        for i in 0..20 {
            shard.apply_cmd(ShardCmd::Put(
                Key::attr(InodeId(10 + i)),
                Record::dir_attr_record(0, Timestamp(1)),
            ));
        }
        // Page through [10, 29] with small pages.
        let mut got = Vec::new();
        let mut after: Option<Vec<u8>> = None;
        loop {
            let (ops, done) = shard.export_page(10, 29, after.as_deref(), 7);
            for op in &ops {
                match op {
                    WriteOp::Put(k, _) => got.push(k.clone()),
                    WriteOp::Delete(_) => panic!("exports are puts"),
                }
            }
            if done {
                break;
            }
            after = got.last().cloned();
        }
        assert_eq!(got.len(), 20);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "pages are ordered");
        // The split point lands strictly inside the range.
        let at = shard.split_point(10, 29).unwrap();
        assert!(10 < at && at <= 29, "split at {at}");
        // An empty range cannot be split.
        assert_eq!(shard.split_point(1000, 2000), None);
    }

    #[test]
    fn ingest_applies_raw_ops_and_counts_keys() {
        let donor = shard_with_root();
        let _scope = cfs_obs::trace::node_scope(770_003);
        let receiver = TafShard::new(KvConfig::default()).unwrap();
        let (ops, done) = donor.export_page(0, u64::MAX, None, 100);
        assert!(done);
        let n = ops.len() as u64;
        assert!(n > 0);
        assert_eq!(
            receiver.apply_cmd(ShardCmd::MigIngest { ops }),
            TafResponse::Ok
        );
        assert_eq!(
            receiver.apply_cmd(ShardCmd::MigAccept {
                lo: 0,
                hi: u64::MAX
            }),
            TafResponse::Ok
        );
        assert!(receiver.get(&Key::attr(cfs_types::ROOT_INODE)).is_some());
        let reg = cfs_obs::metrics::node(770_003);
        assert_eq!(reg.counter("shard_keys_streamed").get(), n);
        assert_eq!(reg.counter("shard_ranges_received").get(), 1);
    }

    /// Writes the id record of one directory entry (and, for directories,
    /// the child's attr record) straight through the replicated funnel.
    fn put_entry(shard: &TafShard, parent: InodeId, name: &str, ino: u64, ftype: FileType) {
        assert_eq!(
            shard.apply_cmd(ShardCmd::Put(
                Key::entry(parent, name),
                Record::id_record(InodeId(ino), ftype),
            )),
            TafResponse::Ok
        );
        if ftype == FileType::Dir {
            assert_eq!(
                shard.apply_cmd(ShardCmd::Put(
                    Key::attr(InodeId(ino)),
                    Record::dir_attr_record(0, Timestamp(1)),
                )),
                TafResponse::Ok
            );
        }
    }

    fn chain_shard() -> TafShard {
        let shard = shard_with_root();
        put_entry(&shard, cfs_types::ROOT_INODE, "a", 10, FileType::Dir);
        put_entry(&shard, InodeId(10), "b", 20, FileType::Dir);
        put_entry(&shard, InodeId(20), "f", 30, FileType::File);
        shard
    }

    #[test]
    fn resolve_prefix_walks_whole_chain_in_one_call() {
        let shard = chain_shard();
        let comps = vec!["a".to_string(), "b".to_string(), "f".to_string()];
        let r = shard
            .resolve_prefix(cfs_types::ROOT_INODE, &comps, 0, u64::MAX)
            .unwrap();
        assert_eq!(r.end, ResolveEnd::Done);
        let inos: Vec<u64> = r.steps.iter().map(|s| s.ino.raw()).collect();
        assert_eq!(inos, vec![10, 20, 30]);
        assert_eq!(r.steps[0].ftype, FileType::Dir);
        assert_eq!(r.steps[2].ftype, FileType::File);
        // Each step reports the generation of the directory searched.
        assert_eq!(r.steps[0].gen, shard.gen_of(cfs_types::ROOT_INODE.raw()));
        assert_eq!(r.steps[1].gen, shard.gen_of(10));
    }

    #[test]
    fn resolve_prefix_reports_not_found_with_parent_gen() {
        let shard = chain_shard();
        let comps = vec!["a".to_string(), "nope".to_string(), "x".to_string()];
        let r = shard
            .resolve_prefix(cfs_types::ROOT_INODE, &comps, 0, u64::MAX)
            .unwrap();
        assert_eq!(r.steps.len(), 1);
        assert_eq!(
            r.end,
            ResolveEnd::Err {
                err: FsError::NotFound,
                gen: shard.gen_of(10),
            }
        );
    }

    #[test]
    fn resolve_prefix_rejects_walking_through_a_file() {
        let shard = chain_shard();
        let comps: Vec<String> = ["a", "b", "f", "deeper"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let r = shard
            .resolve_prefix(cfs_types::ROOT_INODE, &comps, 0, u64::MAX)
            .unwrap();
        assert_eq!(r.steps.len(), 3);
        assert!(matches!(
            r.end,
            ResolveEnd::Err {
                err: FsError::NotDir,
                ..
            }
        ));
    }

    #[test]
    fn resolve_prefix_continues_at_shard_boundary_and_propagates_misroute() {
        let shard = chain_shard();
        // Donate the range holding dir 20 away; the walk must stop in front
        // of it with a cursor instead of failing.
        shard.apply_cmd(ShardCmd::MigStart { lo: 20, hi: 20 });
        shard.apply_cmd(ShardCmd::MigFreeze { lo: 20, hi: 20 });
        shard.apply_cmd(ShardCmd::MigFinish {
            lo: 20,
            hi: 20,
            epoch: 2,
        });
        let comps = vec!["a".to_string(), "b".to_string(), "f".to_string()];
        let r = shard
            .resolve_prefix(cfs_types::ROOT_INODE, &comps, 0, u64::MAX)
            .unwrap();
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.end, ResolveEnd::Continue);
        // A walk *starting* in the moved range is a routing error.
        assert_eq!(
            shard.resolve_prefix(InodeId(20), &comps[2..], 0, u64::MAX),
            Err(FsError::WrongShard(2))
        );
    }

    #[test]
    fn resolve_prefix_stops_at_the_clients_stated_range() {
        let shard = chain_shard();
        let comps = vec!["a".to_string(), "b".to_string(), "f".to_string()];
        // The client believes this shard owns [0, 15]: dir 20 is elsewhere,
        // so the walk yields a cursor after resolving "a" and "b".
        let r = shard
            .resolve_prefix(cfs_types::ROOT_INODE, &comps, 0, 15)
            .unwrap();
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.end, ResolveEnd::Continue);
        // A start outside the stated range means the client's map raced its
        // own routing decision; redirect instead of guessing.
        assert_eq!(
            shard.resolve_prefix(InodeId(20), &comps[2..], 0, 15),
            Err(FsError::WrongShard(0))
        );
    }

    #[test]
    fn entry_writes_bump_parent_gen_but_attr_writes_do_not() {
        let shard = shard_with_root();
        let g0 = shard.gen_of(cfs_types::ROOT_INODE.raw());
        put_entry(&shard, cfs_types::ROOT_INODE, "x", 40, FileType::File);
        let g1 = shard.gen_of(cfs_types::ROOT_INODE.raw());
        assert!(g1 > g0, "entry write must bump the parent's generation");
        // Rewriting the directory's own attr record is not a namespace
        // change and must leave the generation alone.
        shard.apply_cmd(ShardCmd::Put(
            Key::attr(cfs_types::ROOT_INODE),
            Record::dir_attr_record(1, Timestamp(9)),
        ));
        assert_eq!(shard.gen_of(cfs_types::ROOT_INODE.raw()), g1);
        // Deleting the entry bumps again.
        shard.apply_cmd(ShardCmd::Delete(Key::entry(cfs_types::ROOT_INODE, "x")));
        assert!(shard.gen_of(cfs_types::ROOT_INODE.raw()) > g1);
    }

    #[test]
    fn snapshot_restore_round_trips_full_state() {
        let shard = chain_shard();
        // Stage a 2PC transaction, leave a migration streaming with a tail,
        // and record a donated range — all of it must survive the image.
        // Donate an (empty) range at epoch 3, then leave a second migration
        // streaming with a tail and a staged 2PC transaction outside it.
        shard.apply_cmd(ShardCmd::MigStart { lo: 200, hi: 210 });
        shard.apply_cmd(ShardCmd::MigFreeze { lo: 200, hi: 210 });
        shard.apply_cmd(ShardCmd::MigFinish {
            lo: 200,
            hi: 210,
            epoch: 3,
        });
        shard.apply(42, &ShardCmd::MigStart { lo: 20, hi: 25 }.to_bytes());
        put_entry(&shard, InodeId(20), "tailme", 90, FileType::File);
        shard.apply_cmd(ShardCmd::Prepare {
            txn: 7,
            writes: vec![(
                Key::entry(InodeId(10), "staged"),
                Some(Record::id_record(InodeId(70), FileType::File)),
            )],
        });
        assert_eq!(shard.epoch(), 3);
        assert_eq!(shard.applied_index(), 42);

        let image = shard.snapshot().expect("taf shards are snapshottable");
        let fresh = TafShard::new(KvConfig::default()).unwrap();
        fresh.restore(&image);

        assert_eq!(fresh.applied_index(), 42);
        assert!(!shard.pending_rows().is_empty());
        assert_eq!(fresh.pending_rows(), shard.pending_rows());
        assert_eq!(fresh.epoch(), 3);
        // Kv contents and directory generations carried over.
        let r = fresh
            .resolve_prefix(
                cfs_types::ROOT_INODE,
                &["a".into(), "b".into(), "f".into()],
                0,
                u64::MAX,
            )
            .unwrap();
        assert_eq!(r.end, ResolveEnd::Done);
        assert_eq!(
            fresh.gen_of(cfs_types::ROOT_INODE.raw()),
            shard.gen_of(cfs_types::ROOT_INODE.raw())
        );
        // Donated ranges still redirect with their epoch.
        assert_eq!(fresh.check_owner(205), Err(FsError::WrongShard(3)));
        // The streaming migration survived, tail included: freezing the
        // restored replica returns the same tail as the original.
        let (orig, restored) = (
            shard.apply_cmd(ShardCmd::MigFreeze { lo: 20, hi: 25 }),
            fresh.apply_cmd(ShardCmd::MigFreeze { lo: 20, hi: 25 }),
        );
        assert!(matches!(&orig, TafResponse::Tail(t) if !t.is_empty()));
        assert_eq!(orig, restored);
        // The staged transaction commits on the restored replica.
        assert!(matches!(
            fresh.apply_cmd(ShardCmd::CommitPrepared { txn: 7 }),
            TafResponse::Executed(_)
        ));
        assert!(fresh.get(&Key::entry(InodeId(10), "staged")).is_some());
    }

    #[test]
    fn restore_replaces_rather_than_merges() {
        let shard = shard_with_root();
        let image = shard.snapshot().unwrap();
        let other = TafShard::new(KvConfig::default()).unwrap();
        put_entry(&other, cfs_types::ROOT_INODE, "stale", 99, FileType::File);
        other.apply_cmd(ShardCmd::Prepare {
            txn: 1,
            writes: Vec::new(),
        });
        other.restore(&image);
        // Pre-restore state is gone, not merged under the image.
        assert!(other
            .get(&Key::entry(cfs_types::ROOT_INODE, "stale"))
            .is_none());
        assert!(matches!(
            other.apply_cmd(ShardCmd::CommitPrepared { txn: 1 }),
            TafResponse::Err(_)
        ));
        assert_eq!(other.gen_of(cfs_types::ROOT_INODE.raw()), 0);
        assert_eq!(other.pending_rows(), shard.pending_rows());
    }

    #[test]
    fn pending_table_keeps_only_unbalanced_structural_events() {
        let root = cfs_types::ROOT_INODE;
        let shard = shard_with_root();
        let base = shard.pending_rows();
        assert_eq!(base.len(), 1, "the root attribute record was put");
        create(&shard, root, "f", 100);
        let unlink = |name: &str| {
            shard.apply_cmd(ShardCmd::Execute(Primitive::delete_with_update(
                Cond::require(Key::entry(root, name), Vec::new()),
                UpdateSpec::new(
                    Cond::require(Key::attr(root), Vec::new()),
                    vec![FieldAssign::Delta {
                        field: NumField::Children,
                        delta: -1,
                    }],
                ),
            )))
        };
        assert!(matches!(unlink("f"), TafResponse::Executed(_)));
        assert_eq!(shard.pending_rows(), base, "the unlink balances the create");
        // Neither a field update of an existing record nor migrated-in keys
        // are structural events of this group.
        shard.apply_cmd(ShardCmd::Put(
            Key::attr(root),
            Record::dir_attr_record(3, Timestamp(2)),
        ));
        shard.apply_cmd(ShardCmd::MigIngest {
            ops: vec![WriteOp::Put(
                Key::entry(InodeId(7), "m").to_sortable_bytes(),
                Record::id_record(InodeId(8), FileType::File).to_bytes(),
            )],
        });
        assert_eq!(shard.pending_rows(), base);
        // Once trimmed, a link no longer balances its unlink.
        create(&shard, root, "g", 101);
        let linked = PendingRow {
            key: Key::entry(root, "g").to_sortable_bytes(),
            ino: InodeId(101),
            event: PendingEvent::Linked,
        };
        assert_eq!(
            shard.pending_rows(),
            [base.clone(), vec![linked.clone()]].concat()
        );
        shard.apply_cmd(ShardCmd::GcTrim(vec![linked.clone()]));
        assert_eq!(shard.pending_rows(), base);
        shard.apply_cmd(ShardCmd::Delete(Key::entry(root, "g")));
        let unlinked = PendingRow {
            event: PendingEvent::Unlinked,
            ..linked
        };
        assert_eq!(shard.pending_rows(), [base, vec![unlinked]].concat());
    }

    #[test]
    fn corrupt_image_is_rejected_without_mutation() {
        let shard = shard_with_root();
        let mut image = shard.snapshot().unwrap();
        put_entry(&shard, cfs_types::ROOT_INODE, "keep", 50, FileType::File);
        image.truncate(image.len() / 2);
        assert!(shard.restore_image(&image).is_err());
        // The failed restore left current state alone.
        assert!(shard
            .get(&Key::entry(cfs_types::ROOT_INODE, "keep"))
            .is_some());
    }

    #[test]
    fn apply_tracks_the_raft_index() {
        let shard = shard_with_root();
        assert_eq!(shard.applied_index(), 0);
        let cmd = ShardCmd::Put(
            Key::attr(InodeId(9)),
            Record::dir_attr_record(0, Timestamp(1)),
        );
        shard.apply(17, &cmd.to_bytes());
        assert_eq!(shard.applied_index(), 17);
    }

    #[test]
    fn replicated_readers_see_generations_that_match_the_entries() {
        // A create bumps the parent's generation and writes its entry in one
        // command; a reader inside one `read` closure must never see the
        // one without the other.
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        let net = cfs_rpc::Network::new(cfs_rpc::NetConfig::default());
        let group = cfs_raft::RaftGroup::spawn(
            &net,
            &[cfs_types::NodeId(770_200)],
            cfs_raft::RaftConfig::default(),
            |_| Arc::new(TafShard::new(KvConfig::default()).unwrap()),
        );
        let node = group.leader().unwrap();
        let root = cfs_types::ROOT_INODE;
        let propose = |cmd: ShardCmd| {
            let resp = node.propose(cmd.to_bytes()).unwrap();
            TafResponse::from_bytes(&resp).unwrap()
        };
        propose(ShardCmd::Put(
            Key::attr(root),
            Record::dir_attr_record(0, Timestamp(1)),
        ));
        let (stop, reads) = (AtomicBool::new(false), AtomicU64::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(SeqCst) {
                    let (gen, entries, children) = node
                        .read(|sm| {
                            let attr = sm.get(&Key::attr(root)).unwrap();
                            (
                                sm.gen_of(root.raw()),
                                sm.scan(root, None, 1 << 20).len(),
                                attr.children,
                            )
                        })
                        .unwrap();
                    assert_eq!(
                        gen, entries as u64,
                        "generation ahead of or behind the entries"
                    );
                    assert_eq!(children, Some(entries as i64));
                    reads.fetch_add(1, SeqCst);
                }
            });
            // Start the creates only once the reader is running beside them.
            while reads.load(SeqCst) == 0 {
                std::thread::yield_now();
            }
            for i in 0..200u64 {
                let prim = Primitive::insert_with_update(
                    Key::entry(root, format!("f{i}")),
                    Record::id_record(InodeId(100 + i), FileType::File),
                    UpdateSpec::new(
                        Cond::require(Key::attr(root), vec![Pred::TypeIs(FileType::Dir)]),
                        vec![FieldAssign::Delta {
                            field: NumField::Children,
                            delta: 1,
                        }],
                    ),
                );
                assert!(matches!(
                    propose(ShardCmd::Execute(prim)),
                    TafResponse::Executed(_)
                ));
            }
            stop.store(true, SeqCst);
        });
        assert!(reads.load(SeqCst) > 0, "the reader ran beside the creates");
        group.shutdown();
    }

    #[test]
    fn state_machine_trait_round_trips_bytes() {
        let shard = shard_with_root();
        let cmd = ShardCmd::Put(
            Key::attr(InodeId(9)),
            Record::dir_attr_record(5, Timestamp(3)),
        );
        let resp_bytes = shard.apply(1, &cmd.to_bytes());
        assert_eq!(
            TafResponse::from_bytes(&resp_bytes).unwrap(),
            TafResponse::Ok
        );
        // Garbage input produces an error response, not a panic.
        let resp_bytes = shard.apply(2, &[0xFF, 0x00, 0x13]);
        assert!(matches!(
            TafResponse::from_bytes(&resp_bytes).unwrap(),
            TafResponse::Err(FsError::Corrupted(_))
        ));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The image's private types keep their bytes (their public parts are
    /// pinned in the root package's `tests/wire_golden.rs`): each sample
    /// encodes to its golden bytes, decodes and re-encodes to the same, and
    /// refuses every strict prefix.
    #[test]
    fn image_types_keep_their_golden_bytes() {
        fn check<T: Encode + Decode>(value: &T, want: &str) {
            let bytes = value.to_bytes();
            assert_eq!(hex(&bytes), want);
            assert_eq!(T::from_bytes(&bytes).unwrap().to_bytes(), bytes);
            for n in 0..bytes.len() {
                assert!(T::from_bytes(&bytes[..n]).is_err(), "{n}-byte prefix");
            }
        }
        let writes = Staged::Writes(vec![
            (
                Key::entry(InodeId(7), "f"),
                Some(Record::id_record(InodeId(9), FileType::File)),
            ),
            (Key::attr(InodeId(7)), None),
        ]);
        check(
            &writes,
            "000207010166010109010000000000000000000000000000070000",
        );
        check(&Staged::Prim(Primitive::default()), "010000000000");
        assert!(Staged::from_bytes(&[2]).is_err());

        let mut pending = PendingTable::default();
        pending.record(Vec::new(), InodeId(7), PendingEvent::DirAttrPut);
        let state = ShardState {
            prepared: [(7, vec![writes, Staged::Prim(Primitive::default())])].into(),
            pending,
            migrating: Some(ActiveMigration {
                lo: 20,
                hi: 25,
                phase: MigPhase::Frozen,
                tail: vec![WriteOp::Delete(vec![1])],
                frozen_at: None,
            }),
            moved: vec![(200, 210, 3), (300, 310, 4)],
            dir_gens: [(5, 2), (3, 1)].into(),
            applied_index: 0,
        };
        check(&state, "020301050202c801d20103ac02b60204011419010101010101070200020701016601010901000000000000000000000000000007000001000000000001000702");
        check(&ShardState::default(), "0000000000");
    }
}
