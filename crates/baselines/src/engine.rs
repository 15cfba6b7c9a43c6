//! The conventional metadata engine: interactive lock-based transactions.
//!
//! This engine reproduces the execution model of the paper's Figures 2–3:
//! the coordinator (proxy or client) **acquires exclusive row locks via RPC**
//! (`SELECT ... FOR UPDATE`), computes the mutation client-side while the
//! locks are held across network round trips, and commits through single-
//! shard commit or two-phase commit. Every lock wait, lock hold interval, and
//! extra round trip is physically real, which is what regenerates the
//! lock-overhead breakdown of Figure 4.
//!
//! [`EngineConfig`] selects the schema/partitioning/engine axes that
//! distinguish HopsFS-like, InfiniFS-like, and the CFS ablation variants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_filestore::{placement_hash, FileStoreClient, SetAttrPatch};
use cfs_tafdb::api::{TafRequest, TafResponse, TxnRequest, TxnResponse};
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::{TafDbClient, TsClient};
use cfs_types::record::{FieldAssign, LwwField, NumField, Pred};
use cfs_types::{
    Attr, BlockId, Cond, FileType, FsError, FsResult, InodeId, Key, Record, ShardId, Timestamp,
    ROOT_INODE,
};
use parking_lot::{Condvar, Mutex, RwLock};

/// Reserved name prefix of InfiniFS-style file-attribute rows, grouped with
/// the parent's children ("content" metadata grouped with the directory).
pub const FATTR_PREFIX: &str = "\u{1}fattr\u{1}";

/// How records are spread over shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// NDB-style hash partitioning on the row's `kID` (HopsFS): all rows
    /// keyed by the same parent stay together, but a directory's own row
    /// lives on its *grandparent's* shard — `create` becomes cross-shard.
    KidHash,
    /// Range partitioning on `kID` (InfiniFS grouping / CFS): a directory's
    /// attribute record and its children's rows co-locate.
    KidRange,
}

/// Where attributes live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrSchema {
    /// Attributes inline in the inode row (HopsFS `inodes` table).
    Inline,
    /// Decoupled records; file attributes in rows grouped with the parent
    /// (InfiniFS access/content grouping).
    SplitWithParent,
    /// Decoupled records; file attributes in rows placed by the file's own
    /// id (CFS-base: everything range-partitioned in TafDB).
    SplitByIno,
    /// Decoupled records; file attributes offloaded to FileStore
    /// (+new-org and beyond).
    SplitFileStore,
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Display name used in benchmark output.
    pub name: String,
    /// Partitioning axis.
    pub placement: Placement,
    /// Attribute schema axis.
    pub schema: AttrSchema,
    /// When set, mutations use CFS' single-shard atomic primitives instead
    /// of interactive lock-based transactions (+primitives ablation).
    pub use_primitives: bool,
}

/// The engine: all metadata operations against the shard tier.
pub struct MetaEngine {
    pub(crate) config: EngineConfig,
    pub(crate) taf: TafDbClient,
    pub(crate) fs: FileStoreClient,
    pub(crate) ts: TsClient,
    txn_counter: AtomicU64,
    /// Shared entry resolution cache: `(parent, name) → (ino, type)`.
    cache: Arc<EntryCache>,
    /// Coordinator-level locks shared across all proxies of a deployment
    /// (HopsFS subtree locks / InfiniFS rename coordination).
    pub(crate) coord: Arc<InodeLocks>,
    /// Data block size.
    pub block_size: u64,
    /// Time a coordinator spends acquiring remote row locks (the lock phase
    /// of Figure 3's interactive transaction).
    coord_lock_ns: Arc<cfs_obs::metrics::Histogram>,
    /// Time a coordinator spends in commit (single-shard or 2PC).
    coord_commit_ns: Arc<cfs_obs::metrics::Histogram>,
}

/// Maximum cached resolutions before clearing.
const CACHE_CAP: usize = 65_536;

/// A coherent resolution cache shared by every proxy/engine instance of one
/// deployment: invalidations from any coordinator are visible to all, like
/// the consistency-checked path caches of the real systems.
#[derive(Default)]
pub struct EntryCache {
    map: RwLock<HashMap<(InodeId, String), (InodeId, FileType)>>,
}

impl MetaEngine {
    /// Builds an engine over the component clients.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: EngineConfig,
        taf: TafDbClient,
        fs: FileStoreClient,
        ts: TsClient,
        coord: Arc<InodeLocks>,
        cache: Arc<EntryCache>,
        instance: u64,
        block_size: u64,
    ) -> MetaEngine {
        let reg = cfs_obs::metrics::node(taf.node().0 as u64);
        MetaEngine {
            config,
            taf,
            fs,
            ts,
            txn_counter: AtomicU64::new(instance << 32),
            cache,
            coord,
            block_size,
            coord_lock_ns: reg.histogram("coord_lock_ns"),
            coord_commit_ns: reg.histogram("coord_commit_ns"),
        }
    }

    fn next_txn(&self) -> u64 {
        self.txn_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The shard owning records with id component `kid`. Resolved against
    /// the live partition map on every call so installed map epochs are
    /// honored immediately.
    pub fn shard_of(&self, kid: InodeId) -> ShardId {
        match self.config.placement {
            Placement::KidHash => {
                let num_shards = self.taf.partition_map().num_shards() as u64;
                ShardId((placement_hash(kid) % num_shards) as u32)
            }
            Placement::KidRange => self.taf.partition_map().shard_for(kid),
        }
    }

    /// Issues `req` to the shard owning `kid`, re-resolving against the live
    /// partition map and retrying when the shard answers `WrongShard` after
    /// a split's epoch bump (the proxy shares the deployment map, so the
    /// recomputed route is fresh once the new epoch is installed).
    fn routed(&self, kid: InodeId, req: &TafRequest) -> FsResult<TafResponse> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.taf.request(self.shard_of(kid), req) {
                Ok(TafResponse::Err(FsError::WrongShard(_))) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => return other,
            }
        }
    }

    fn get_row(&self, key: &Key) -> FsResult<Option<Record>> {
        match self.routed(key.kid, &TafRequest::Get(key.clone()))? {
            TafResponse::Record(r) => Ok(r),
            TafResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn put_row(&self, key: Key, rec: Record) -> FsResult<()> {
        let kid = key.kid;
        match self.routed(kid, &TafRequest::Put(key, rec))? {
            TafResponse::Ok => Ok(()),
            TafResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn execute_prim_at(&self, kid: InodeId, prim: Primitive) -> FsResult<()> {
        match self.routed(kid, &TafRequest::Execute(prim))? {
            TafResponse::Executed(_) => Ok(()),
            TafResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    // ---- resolution -------------------------------------------------------

    fn cache_get(&self, parent: InodeId, name: &str) -> Option<(InodeId, FileType)> {
        self.cache
            .map
            .read()
            .get(&(parent, name.to_string()))
            .copied()
    }

    fn cache_put(&self, parent: InodeId, name: &str, v: (InodeId, FileType)) {
        // Directory entries only — same policy as the CFS client, so lookup
        // comparisons measure the metadata path, not cache luck.
        if v.1 != FileType::Dir {
            return;
        }
        let mut c = self.cache.map.write();
        if c.len() >= CACHE_CAP {
            c.clear();
        }
        c.insert((parent, name.to_string()), v);
    }

    fn cache_forget(&self, parent: InodeId, name: &str) {
        self.cache.map.write().remove(&(parent, name.to_string()));
    }

    /// Resolves one component.
    fn resolve_entry(&self, parent: InodeId, name: &str) -> FsResult<(InodeId, FileType)> {
        if let Some(hit) = self.cache_get(parent, name) {
            return Ok(hit);
        }
        let rec = self
            .get_row(&Key::entry(parent, name))?
            .ok_or(FsError::NotFound)?;
        let ino = rec.id.ok_or(FsError::Corrupted("row lacks id".into()))?;
        let ftype = rec
            .ftype
            .ok_or(FsError::Corrupted("row lacks type".into()))?;
        self.cache_put(parent, name, (ino, ftype));
        Ok((ino, ftype))
    }

    /// Walks to the directory containing the last component.
    fn resolve_dir(&self, comps: &[&str]) -> FsResult<InodeId> {
        let mut cur = ROOT_INODE;
        for c in comps {
            let (ino, ftype) = self.resolve_entry(cur, c)?;
            if ftype != FileType::Dir {
                return Err(FsError::NotDir);
            }
            cur = ino;
        }
        Ok(cur)
    }

    fn resolve_parent_of(&self, p: &str) -> FsResult<(InodeId, String)> {
        let (comps, name) = cfs_core::path::split_parent(p)?;
        Ok((self.resolve_dir(&comps)?, name.to_string()))
    }

    /// Key of the row carrying a directory's mutable metadata (the row the
    /// create/unlink transactions lock).
    fn dir_meta_key(&self, dir: InodeId) -> Key {
        // Every schema keeps an `/_ATTR` record per directory (for Inline it
        // doubles as the parent-pointer record and counter row).
        Key::attr(dir)
    }

    /// Key of a file's attribute row (schemas that keep it in the DB).
    fn fattr_key(&self, parent: InodeId, name: &str, ino: InodeId) -> Key {
        match self.config.schema {
            AttrSchema::SplitWithParent => Key::entry(parent, format!("{FATTR_PREFIX}{name}")),
            _ => Key::attr(ino),
        }
    }

    // ---- interactive transactions ----------------------------------------

    fn lock_and_read(&self, txn: u64, key: &Key) -> FsResult<Option<Record>> {
        let _span = cfs_obs::trace::span("bl.lock_and_read");
        let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.coord_lock_ns));
        match self.taf.txn_request(
            self.shard_of(key.kid),
            &TxnRequest::LockAndRead {
                txn,
                key: key.clone(),
            },
        )? {
            TxnResponse::Locked(r) => Ok(r),
            TxnResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    /// Commits buffered writes: single-shard fast commit, or 2PC when the
    /// writes span shards. `locked_shards` also get aborts on failure.
    fn commit_txn(
        &self,
        txn: u64,
        writes: Vec<(Key, Option<Record>)>,
        locked_shards: &[ShardId],
    ) -> FsResult<()> {
        let _span = cfs_obs::trace::span("bl.commit");
        let _sw = cfs_obs::Stopwatch::start(Arc::clone(&self.coord_commit_ns));
        let mut by_shard: HashMap<ShardId, Vec<(Key, Option<Record>)>> = HashMap::new();
        for (k, r) in writes {
            by_shard
                .entry(self.shard_of(k.kid))
                .or_default()
                .push((k, r));
        }
        let mut all_shards: Vec<ShardId> = by_shard
            .keys()
            .copied()
            .chain(locked_shards.iter().copied())
            .collect();
        all_shards.sort_by_key(|s| s.0);
        all_shards.dedup();
        let result = if by_shard.len() <= 1 && all_shards.len() <= 1 {
            // Single-shard: one commit round trip.
            let shard = all_shards.first().copied().unwrap_or(ShardId(0));
            let writes = by_shard.into_values().next().unwrap_or_default();
            match self
                .taf
                .txn_request(shard, &TxnRequest::Commit { txn, writes })?
            {
                TxnResponse::Ok => Ok(()),
                TxnResponse::Err(e) => Err(e),
                other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
            }
        } else {
            // Two-phase commit across every involved shard.
            let mut prepared = Vec::new();
            let mut fail: Option<FsError> = None;
            for (&shard, w) in &by_shard {
                match self.taf.txn_request(
                    shard,
                    &TxnRequest::Prepare {
                        txn,
                        writes: w.clone(),
                    },
                ) {
                    Ok(TxnResponse::Ok) => prepared.push(shard),
                    Ok(TxnResponse::Err(e)) => {
                        fail = Some(e);
                        break;
                    }
                    Ok(other) => {
                        fail = Some(FsError::Corrupted(format!("unexpected {other:?}")));
                        break;
                    }
                    Err(e) => {
                        fail = Some(e);
                        break;
                    }
                }
            }
            match fail {
                Some(e) => {
                    for shard in &all_shards {
                        let _ = self.taf.txn_request(*shard, &TxnRequest::Abort { txn });
                    }
                    return Err(e);
                }
                None => {
                    for shard in &all_shards {
                        if prepared.contains(shard) {
                            match self
                                .taf
                                .txn_request(*shard, &TxnRequest::CommitPrepared { txn })
                            {
                                Ok(TxnResponse::Err(e)) => return Err(e),
                                Ok(_) => {}
                                Err(e) => return Err(e),
                            }
                        } else {
                            // Lock-only shard: release via abort.
                            let _ = self.taf.txn_request(*shard, &TxnRequest::Abort { txn });
                        }
                    }
                    Ok(())
                }
            }
        };
        result
    }

    fn abort_txn(&self, txn: u64, shards: &[ShardId]) {
        let mut s: Vec<ShardId> = shards.to_vec();
        s.sort_by_key(|s| s.0);
        s.dedup();
        for shard in s {
            let _ = self.taf.txn_request(shard, &TxnRequest::Abort { txn });
        }
    }

    // ---- metadata operations ----------------------------------------------

    /// `create` / `mkdir` / `symlink` shared implementation.
    fn create_node(&self, p: &str, ftype: FileType, symlink: Option<String>) -> FsResult<InodeId> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let ino = self.ts.alloc_id()?;
        let ts = self.ts.timestamp()?;
        let now = ts.raw();
        if self.config.use_primitives {
            return self.create_node_primitives(parent, &name, ino, ftype, symlink, ts);
        }

        let txn = self.next_txn();
        let pkey = self.dir_meta_key(parent);
        let locked_shard = self.shard_of(pkey.kid);
        // Figure 3 step ②: read + write-lock the parent directory's row.
        let parent_row = match self.lock_and_read(txn, &pkey) {
            Ok(Some(r)) => r,
            Ok(None) => {
                self.abort_txn(txn, &[locked_shard]);
                return Err(FsError::NotFound);
            }
            Err(e) => {
                self.abort_txn(txn, &[locked_shard]);
                return Err(e);
            }
        };
        if parent_row.ftype != Some(FileType::Dir) {
            self.abort_txn(txn, &[locked_shard]);
            return Err(FsError::NotDir);
        }
        // Existence check of the new name (read, no lock needed: the insert
        // races are resolved by the parent row lock in this engine).
        match self.get_row(&Key::entry(parent, &name)) {
            Ok(Some(_)) => {
                self.abort_txn(txn, &[locked_shard]);
                return Err(FsError::AlreadyExists);
            }
            Ok(None) => {}
            Err(e) => {
                self.abort_txn(txn, &[locked_shard]);
                return Err(e);
            }
        }

        // Compose the writes.
        let mut writes: Vec<(Key, Option<Record>)> = Vec::new();
        let mut child = match self.config.schema {
            AttrSchema::Inline => full_record(ino, ftype, now, ts, Some(parent)),
            _ => Record::id_record(ino, ftype),
        };
        child.symlink_target = symlink.clone();
        writes.push((Key::entry(parent, &name), Some(child)));
        let mut updated_parent = parent_row.clone();
        updated_parent.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: 1,
        });
        if ftype == FileType::Dir {
            updated_parent.apply(&FieldAssign::Delta {
                field: NumField::Links,
                delta: 1,
            });
        }
        updated_parent.apply(&FieldAssign::Set {
            field: LwwField::Mtime,
            value: now,
            ts,
        });
        writes.push((pkey, Some(updated_parent)));
        // Attribute record per schema.
        match (self.config.schema, ftype) {
            (AttrSchema::Inline, FileType::Dir) => {
                // Parent-pointer + counter record for the new directory.
                let mut attr = Record::dir_attr_record(now, ts);
                attr.id = Some(parent);
                writes.push((Key::attr(ino), Some(attr)));
            }
            (AttrSchema::Inline, _) => {}
            (_, FileType::Dir) => {
                let mut attr = Record::dir_attr_record(now, ts);
                attr.id = Some(parent);
                writes.push((Key::attr(ino), Some(attr)));
            }
            (AttrSchema::SplitWithParent, _) => {
                writes.push((
                    self.fattr_key(parent, &name, ino),
                    Some(full_record(ino, ftype, now, ts, Some(parent))),
                ));
            }
            (AttrSchema::SplitByIno, _) => {
                writes.push((
                    Key::attr(ino),
                    Some(full_record(ino, ftype, now, ts, Some(parent))),
                ));
            }
            (AttrSchema::SplitFileStore, _) => {
                // Offloaded: write the FileStore attribute before linking.
                let mut attr = match ftype {
                    FileType::Symlink => {
                        Attr::new_symlink(ino, now, symlink.clone().unwrap_or_default())
                    }
                    _ => Attr::new_file(ino, now),
                };
                attr.lww_ts = ts;
                if let Err(e) = self.fs.put_attr(attr) {
                    self.abort_txn(txn, &[locked_shard]);
                    return Err(e);
                }
            }
        }
        match self.commit_txn(txn, writes, &[locked_shard]) {
            Ok(()) => {
                self.cache_put(parent, &name, (ino, ftype));
                Ok(ino)
            }
            Err(e) => Err(e),
        }
    }

    /// CFS-style primitive path for the ablation variants.
    fn create_node_primitives(
        &self,
        parent: InodeId,
        name: &str,
        ino: InodeId,
        ftype: FileType,
        symlink: Option<String>,
        ts: Timestamp,
    ) -> FsResult<InodeId> {
        let now = ts.raw();
        // Attribute first (deterministic order), then the namespace link.
        match (self.config.schema, ftype) {
            (_, FileType::Dir) => {
                let mut attr = Record::dir_attr_record(now, ts);
                attr.id = Some(parent);
                self.put_row(Key::attr(ino), attr)?;
            }
            (AttrSchema::SplitFileStore, _) => {
                let mut attr = match ftype {
                    FileType::Symlink => {
                        Attr::new_symlink(ino, now, symlink.clone().unwrap_or_default())
                    }
                    _ => Attr::new_file(ino, now),
                };
                attr.lww_ts = ts;
                self.fs.put_attr(attr)?;
            }
            _ => {
                self.put_row(
                    self.fattr_key(parent, name, ino),
                    full_record(ino, ftype, now, ts, Some(parent)),
                )?;
            }
        }
        let mut child = Record::id_record(ino, ftype);
        child.symlink_target = symlink;
        let links_delta = i64::from(ftype == FileType::Dir);
        let prim = Primitive::insert_with_update(
            Key::entry(parent, name),
            child,
            UpdateSpec::new(
                Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
                vec![
                    FieldAssign::Delta {
                        field: NumField::Children,
                        delta: 1,
                    },
                    FieldAssign::Delta {
                        field: NumField::Links,
                        delta: links_delta,
                    },
                    FieldAssign::Set {
                        field: LwwField::Mtime,
                        value: now,
                        ts,
                    },
                ],
            ),
        );
        self.execute_prim_at(parent, prim)?;
        self.cache_put(parent, name, (ino, ftype));
        Ok(ino)
    }

    /// `unlink` / `rmdir` shared implementation.
    fn remove_node(&self, p: &str, dir: bool) -> FsResult<()> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        match (dir, ftype) {
            (true, FileType::Dir) | (false, FileType::File) | (false, FileType::Symlink) => {}
            (true, _) => return Err(FsError::NotDir),
            (false, FileType::Dir) => return Err(FsError::IsDir),
        }
        let ts = self.ts.timestamp()?;
        if self.config.use_primitives {
            return self.remove_node_primitives(parent, &name, ino, ftype, ts);
        }
        let txn = self.next_txn();
        let pkey = self.dir_meta_key(parent);
        let mut locked = vec![self.shard_of(pkey.kid)];
        let parent_row = match self.lock_and_read(txn, &pkey) {
            Ok(Some(r)) => r,
            Ok(None) => {
                self.abort_txn(txn, &locked);
                return Err(FsError::NotFound);
            }
            Err(e) => {
                self.abort_txn(txn, &locked);
                return Err(e);
            }
        };
        // Lock and check the victim's row(s).
        let entry_key = Key::entry(parent, &name);
        locked.push(self.shard_of(entry_key.kid));
        let victim = match self.lock_and_read(txn, &entry_key) {
            Ok(Some(r)) => r,
            Ok(None) => {
                self.abort_txn(txn, &locked);
                self.cache_forget(parent, &name);
                return Err(FsError::NotFound);
            }
            Err(e) => {
                self.abort_txn(txn, &locked);
                return Err(e);
            }
        };
        if victim.id != Some(ino) {
            self.abort_txn(txn, &locked);
            self.cache_forget(parent, &name);
            return Err(FsError::Conflict);
        }
        let mut writes: Vec<(Key, Option<Record>)> = Vec::new();
        if dir {
            // Emptiness check on the directory's own counter row.
            let dkey = Key::attr(ino);
            locked.push(self.shard_of(dkey.kid));
            match self.lock_and_read(txn, &dkey) {
                Ok(Some(r)) => {
                    if r.children.unwrap_or(0) > 0 {
                        self.abort_txn(txn, &locked);
                        return Err(FsError::NotEmpty);
                    }
                    writes.push((dkey, None));
                }
                Ok(None) => {
                    self.abort_txn(txn, &locked);
                    return Err(FsError::Corrupted("dir lacks attr row".into()));
                }
                Err(e) => {
                    self.abort_txn(txn, &locked);
                    return Err(e);
                }
            }
        }
        writes.push((entry_key, None));
        match self.config.schema {
            AttrSchema::SplitWithParent if !dir => {
                writes.push((self.fattr_key(parent, &name, ino), None));
            }
            AttrSchema::SplitByIno if !dir => {
                let k = Key::attr(ino);
                locked.push(self.shard_of(k.kid));
                writes.push((k, None));
            }
            _ => {}
        }
        let mut updated_parent = parent_row;
        updated_parent.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: -1,
        });
        if dir {
            updated_parent.apply(&FieldAssign::Delta {
                field: NumField::Links,
                delta: -1,
            });
        }
        updated_parent.apply(&FieldAssign::Set {
            field: LwwField::Mtime,
            value: ts.raw(),
            ts,
        });
        writes.push((pkey, Some(updated_parent)));
        self.commit_txn(txn, writes, &locked)?;
        self.cache_forget(parent, &name);
        if self.config.schema == AttrSchema::SplitFileStore && !dir {
            let _ = self.fs.delete_file(ino);
        }
        Ok(())
    }

    fn remove_node_primitives(
        &self,
        parent: InodeId,
        name: &str,
        ino: InodeId,
        ftype: FileType,
        ts: Timestamp,
    ) -> FsResult<()> {
        let dir = ftype == FileType::Dir;
        if dir {
            let purge = Primitive {
                deletes: vec![Cond::require(
                    Key::attr(ino),
                    vec![Pred::TypeIs(FileType::Dir), Pred::ChildrenEq(0)],
                )],
                ..Primitive::default()
            };
            self.execute_prim_at(ino, purge)?;
        }
        let links_delta = if dir { -1 } else { 0 };
        let mut deletes = vec![Cond::require(
            Key::entry(parent, name),
            vec![Pred::IdEq(ino)],
        )];
        if self.config.schema == AttrSchema::SplitWithParent && !dir {
            deletes.push(Cond::if_exist(
                self.fattr_key(parent, name, ino),
                Vec::new(),
            ));
        }
        let prim = Primitive {
            deletes,
            update: Some(UpdateSpec::new(
                Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
                vec![
                    FieldAssign::Delta {
                        field: NumField::Children,
                        delta: -1,
                    },
                    FieldAssign::Delta {
                        field: NumField::Links,
                        delta: links_delta,
                    },
                    FieldAssign::Set {
                        field: LwwField::Mtime,
                        value: ts.raw(),
                        ts,
                    },
                ],
            )),
            ..Primitive::default()
        };
        self.execute_prim_at(parent, prim)?;
        self.cache_forget(parent, name);
        match self.config.schema {
            AttrSchema::SplitByIno if !dir => {
                let _ = self.routed(ino, &TafRequest::Delete(Key::attr(ino)));
            }
            AttrSchema::SplitFileStore if !dir => {
                let _ = self.fs.delete_file(ino);
            }
            _ => {}
        }
        Ok(())
    }

    // ---- public operations -------------------------------------------------

    /// Creates a regular file.
    pub fn create(&self, p: &str) -> FsResult<InodeId> {
        self.create_node(p, FileType::File, None)
    }

    /// Creates a directory.
    pub fn mkdir(&self, p: &str) -> FsResult<InodeId> {
        self.create_node(p, FileType::Dir, None)
    }

    /// Creates a symlink.
    pub fn symlink(&self, target: &str, linkpath: &str) -> FsResult<InodeId> {
        self.create_node(linkpath, FileType::Symlink, Some(target.to_string()))
    }

    /// Removes a file or symlink.
    pub fn unlink(&self, p: &str) -> FsResult<()> {
        self.remove_node(p, false)
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, p: &str) -> FsResult<()> {
        self.remove_node(p, true)
    }

    /// Resolves a path.
    pub fn lookup(&self, p: &str) -> FsResult<InodeId> {
        let comps = cfs_core::path::split(p)?;
        if comps.is_empty() {
            return Ok(ROOT_INODE);
        }
        let parent = self.resolve_dir(&comps[..comps.len() - 1])?;
        Ok(self.resolve_entry(parent, comps[comps.len() - 1])?.0)
    }

    /// Reads a symlink target.
    pub fn readlink(&self, p: &str) -> FsResult<String> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let rec = self
            .get_row(&Key::entry(parent, &name))?
            .ok_or(FsError::NotFound)?;
        if rec.ftype != Some(FileType::Symlink) {
            return Err(FsError::Invalid("not a symlink".into()));
        }
        rec.symlink_target
            .ok_or(FsError::Corrupted("symlink lacks target".into()))
    }

    /// Full attribute fetch.
    pub fn getattr(&self, p: &str) -> FsResult<Attr> {
        let comps = cfs_core::path::split(p)?;
        if comps.is_empty() {
            let rec = self
                .get_row(&Key::attr(ROOT_INODE))?
                .ok_or(FsError::NotFound)?;
            return rec.to_dir_attr(ROOT_INODE);
        }
        let parent = self.resolve_dir(&comps[..comps.len() - 1])?;
        let name = comps[comps.len() - 1];
        let (ino, ftype) = self.resolve_entry(parent, name)?;
        match (self.config.schema, ftype) {
            (_, FileType::Dir) => {
                let rec = self.get_row(&Key::attr(ino))?.ok_or(FsError::NotFound)?;
                rec.to_dir_attr(ino)
            }
            (AttrSchema::Inline, _) => {
                let rec = self
                    .get_row(&Key::entry(parent, name))?
                    .ok_or(FsError::NotFound)?;
                record_to_attr(&rec, ino)
            }
            (AttrSchema::SplitFileStore, _) => self.fs.get_attr(ino)?.ok_or(FsError::NotFound),
            _ => {
                let rec = self
                    .get_row(&self.fattr_key(parent, name, ino))?
                    .ok_or(FsError::NotFound)?;
                record_to_attr(&rec, ino)
            }
        }
    }

    /// Partial attribute update.
    pub fn setattr(&self, p: &str, patch: SetAttrPatch) -> FsResult<()> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        let ts = self.ts.timestamp()?;
        if self.config.schema == AttrSchema::SplitFileStore && ftype != FileType::Dir {
            return self.fs.set_attr(ino, patch, ts);
        }
        let key = match (self.config.schema, ftype) {
            (_, FileType::Dir) => Key::attr(ino),
            (AttrSchema::Inline, _) => Key::entry(parent, &name),
            _ => self.fattr_key(parent, &name, ino),
        };
        if self.config.use_primitives {
            let mut assigns = Vec::new();
            if let Some(m) = patch.mode {
                assigns.push(FieldAssign::Set {
                    field: LwwField::Mode,
                    value: u64::from(m),
                    ts,
                });
            }
            if let Some(t) = patch.mtime {
                assigns.push(FieldAssign::Set {
                    field: LwwField::Mtime,
                    value: t,
                    ts,
                });
            }
            if let Some(t) = patch.atime {
                assigns.push(FieldAssign::Set {
                    field: LwwField::Atime,
                    value: t,
                    ts,
                });
            }
            if let Some(u) = patch.uid {
                assigns.push(FieldAssign::Set {
                    field: LwwField::Uid,
                    value: u64::from(u),
                    ts,
                });
            }
            if let Some(g) = patch.gid {
                assigns.push(FieldAssign::Set {
                    field: LwwField::Gid,
                    value: u64::from(g),
                    ts,
                });
            }
            let prim = Primitive {
                update: Some(UpdateSpec::new(
                    Cond::require(key.clone(), Vec::new()),
                    assigns,
                )),
                ..Primitive::default()
            };
            return self.execute_prim_at(key.kid, prim);
        }
        // Locking path: read + lock, modify, commit.
        let txn = self.next_txn();
        let shard = self.shard_of(key.kid);
        let mut rec = match self.lock_and_read(txn, &key) {
            Ok(Some(r)) => r,
            Ok(None) => {
                self.abort_txn(txn, &[shard]);
                return Err(FsError::NotFound);
            }
            Err(e) => {
                self.abort_txn(txn, &[shard]);
                return Err(e);
            }
        };
        if let Some(m) = patch.mode {
            rec.apply(&FieldAssign::Set {
                field: LwwField::Mode,
                value: u64::from(m),
                ts,
            });
        }
        if let Some(t) = patch.mtime {
            rec.apply(&FieldAssign::Set {
                field: LwwField::Mtime,
                value: t,
                ts,
            });
        }
        if let Some(t) = patch.atime {
            rec.apply(&FieldAssign::Set {
                field: LwwField::Atime,
                value: t,
                ts,
            });
        }
        if let Some(u) = patch.uid {
            rec.apply(&FieldAssign::Set {
                field: LwwField::Uid,
                value: u64::from(u),
                ts,
            });
        }
        if let Some(g) = patch.gid {
            rec.apply(&FieldAssign::Set {
                field: LwwField::Gid,
                value: u64::from(g),
                ts,
            });
        }
        if let Some(s) = patch.size {
            let cur = rec.size.unwrap_or(0);
            rec.apply(&FieldAssign::Delta {
                field: NumField::Size,
                delta: s as i64 - cur,
            });
        }
        self.commit_txn(txn, vec![(key, Some(rec))], &[shard])
    }

    /// Directory listing.
    pub fn readdir(&self, p: &str) -> FsResult<Vec<cfs_core::DirEntryInfo>> {
        let comps = cfs_core::path::split(p)?;
        let dir = self.resolve_dir(&comps)?;
        let mut out = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let resp = self.routed(
                dir,
                &TafRequest::Scan {
                    dir,
                    after: after.clone(),
                    limit: 1024,
                },
            )?;
            let page = match resp {
                TafResponse::Entries(es) => es,
                TafResponse::Err(e) => return Err(e),
                other => return Err(FsError::Corrupted(format!("unexpected {other:?}"))),
            };
            let done = page.len() < 1024;
            after = page.last().map(|e| e.name.clone());
            for e in page {
                if e.name.starts_with(FATTR_PREFIX) {
                    continue;
                }
                let ino = e
                    .record
                    .id
                    .ok_or(FsError::Corrupted("row lacks id".into()))?;
                let ftype = e
                    .record
                    .ftype
                    .ok_or(FsError::Corrupted("row lacks type".into()))?;
                out.push(cfs_core::DirEntryInfo {
                    name: e.name,
                    ino,
                    ftype,
                });
            }
            if done {
                break;
            }
        }
        Ok(out)
    }

    // ---- data path ----------------------------------------------------------

    /// Writes file data; block storage in FileStore, size/mtime maintenance
    /// per schema.
    pub fn write(&self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        if ftype == FileType::Dir {
            return Err(FsError::IsDir);
        }
        let ts = self.ts.timestamp()?;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let idx = (abs / self.block_size) as u32;
            let within = (abs % self.block_size) as usize;
            let take = (self.block_size as usize - within).min(data.len() - pos);
            let block = BlockId { ino, index: idx };
            let payload = if within == 0 && take as u64 == self.block_size {
                data[pos..pos + take].to_vec()
            } else {
                let mut existing = self.fs.read_block(block)?.unwrap_or_default();
                if existing.len() < within + take {
                    existing.resize(within + take, 0);
                }
                existing[within..within + take].copy_from_slice(&data[pos..pos + take]);
                existing
            };
            self.fs
                .write_block(block, abs - within as u64, payload, ts)?;
            pos += take;
        }
        // Size/mtime maintenance: FileStore schemas get it piggybacked on the
        // block write; DB schemas pay a metadata transaction.
        if self.config.schema != AttrSchema::SplitFileStore {
            let end = offset + data.len() as u64;
            let cur = self.getattr(p)?;
            if end > cur.size {
                self.setattr(
                    p,
                    SetAttrPatch {
                        size: Some(end),
                        mtime: Some(ts.raw()),
                        ..Default::default()
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Reads file data.
    pub fn read(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        if ftype == FileType::Dir {
            return Err(FsError::IsDir);
        }
        let attr = self.getattr(p)?;
        if offset >= attr.size {
            return Ok(Vec::new());
        }
        let len = len.min((attr.size - offset) as usize);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let abs = offset + out.len() as u64;
            let idx = (abs / self.block_size) as u32;
            let within = (abs % self.block_size) as usize;
            let take = (self.block_size as usize - within).min(len - out.len());
            let block = self
                .fs
                .read_block(BlockId { ino, index: idx })?
                .unwrap_or_default();
            let end = (within + take).min(block.len());
            if within < block.len() {
                out.extend_from_slice(&block[within..end]);
            }
            let copied = end.saturating_sub(within);
            out.resize(out.len() + take - copied, 0);
        }
        Ok(out)
    }

    /// Rename: always the conventional path (no fast path in the baselines —
    /// HopsFS takes subtree locks, InfiniFS routes every rename through its
    /// coordinator).
    pub fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let (src_parent, src_name) = self.resolve_parent_of(src)?;
        let (dst_parent, dst_name) = self.resolve_parent_of(dst)?;
        if src_parent == dst_parent && src_name == dst_name {
            return match self.get_row(&Key::entry(src_parent, &src_name))? {
                Some(_) => Ok(()),
                None => Err(FsError::NotFound),
            };
        }
        let (src_ino, src_type) = self.resolve_entry(src_parent, &src_name)?;

        // Coordinator-level locks: HopsFS-style subtree locking serializes on
        // the parents and the moved inode.
        let _guard = self.coord.lock(vec![src_parent, dst_parent, src_ino]);

        // Loop check for directory moves via the parent-pointer records.
        if src_type == FileType::Dir {
            let mut cur = dst_parent;
            for _ in 0..4096 {
                if cur == src_ino {
                    return Err(FsError::Loop);
                }
                if cur == ROOT_INODE {
                    break;
                }
                let rec = self
                    .get_row(&Key::attr(cur))?
                    .ok_or(FsError::Corrupted("missing parent pointer".into()))?;
                cur = rec
                    .id
                    .ok_or(FsError::Corrupted("attr lacks parent".into()))?;
            }
        }

        let ts = self.ts.timestamp()?;
        let now = ts.raw();
        let txn = self.next_txn();
        let mut locked: Vec<ShardId> = Vec::new();
        let fail = |e: FsError, engine: &Self, locked: &[ShardId]| -> FsResult<()> {
            engine.abort_txn(txn, locked);
            Err(e)
        };

        // Lock all rows in global key order.
        let src_pkey = self.dir_meta_key(src_parent);
        let dst_pkey = self.dir_meta_key(dst_parent);
        let src_ekey = Key::entry(src_parent, &src_name);
        let dst_ekey = Key::entry(dst_parent, &dst_name);
        let mut lock_keys = vec![
            src_pkey.clone(),
            dst_pkey.clone(),
            src_ekey.clone(),
            dst_ekey.clone(),
        ];
        cfs_tafdb::locking::sort_lock_keys(&mut lock_keys);
        lock_keys.dedup();
        let mut rows: HashMap<Key, Option<Record>> = HashMap::new();
        for k in &lock_keys {
            locked.push(self.shard_of(k.kid));
            match self.lock_and_read(txn, k) {
                Ok(r) => {
                    rows.insert(k.clone(), r);
                }
                Err(e) => return fail(e, self, &locked),
            }
        }
        let src_prow = match rows.get(&src_pkey).cloned().flatten() {
            Some(r) => r,
            None => return fail(FsError::NotFound, self, &locked),
        };
        let dst_prow = match rows.get(&dst_pkey).cloned().flatten() {
            Some(r) => r,
            None => return fail(FsError::NotFound, self, &locked),
        };
        let src_row = match rows.get(&src_ekey).cloned().flatten() {
            Some(r) => r,
            None => {
                self.cache_forget(src_parent, &src_name);
                return fail(FsError::NotFound, self, &locked);
            }
        };
        if src_row.id != Some(src_ino) {
            self.cache_forget(src_parent, &src_name);
            return fail(FsError::Conflict, self, &locked);
        }
        let dst_row = rows.get(&dst_ekey).cloned().flatten();
        let mut replaced: Option<(InodeId, FileType)> = None;
        if let Some(d) = &dst_row {
            let d_ino = match d.id {
                Some(i) => i,
                None => return fail(FsError::Corrupted("dst lacks id".into()), self, &locked),
            };
            if d_ino == src_ino {
                self.abort_txn(txn, &locked);
                return Ok(());
            }
            match (src_type, d.ftype) {
                (FileType::Dir, Some(FileType::Dir)) => {
                    let dattr = match self.get_row(&Key::attr(d_ino)) {
                        Ok(Some(r)) => r,
                        Ok(None) => {
                            return fail(
                                FsError::Corrupted("dst dir lacks attr".into()),
                                self,
                                &locked,
                            )
                        }
                        Err(e) => return fail(e, self, &locked),
                    };
                    if dattr.children.unwrap_or(0) > 0 {
                        return fail(FsError::NotEmpty, self, &locked);
                    }
                    replaced = Some((d_ino, FileType::Dir));
                }
                (FileType::Dir, _) => return fail(FsError::NotDir, self, &locked),
                (_, Some(FileType::Dir)) => return fail(FsError::IsDir, self, &locked),
                (_, t) => replaced = Some((d_ino, t.unwrap_or(FileType::File))),
            }
        }

        // Compose writes.
        let mut writes: Vec<(Key, Option<Record>)> = Vec::new();
        let mut moved = src_row.clone();
        moved.parent = Some(dst_parent);
        writes.push((dst_ekey.clone(), Some(moved)));
        writes.push((src_ekey.clone(), None));
        let same_parent = src_parent == dst_parent;
        if same_parent {
            let mut prow = src_prow;
            if replaced.is_some() {
                prow.apply(&FieldAssign::Delta {
                    field: NumField::Children,
                    delta: -1,
                });
            }
            prow.apply(&FieldAssign::Set {
                field: LwwField::Mtime,
                value: now,
                ts,
            });
            writes.push((src_pkey.clone(), Some(prow)));
        } else {
            let mut sp = src_prow;
            sp.apply(&FieldAssign::Delta {
                field: NumField::Children,
                delta: -1,
            });
            if src_type == FileType::Dir {
                sp.apply(&FieldAssign::Delta {
                    field: NumField::Links,
                    delta: -1,
                });
            }
            sp.apply(&FieldAssign::Set {
                field: LwwField::Mtime,
                value: now,
                ts,
            });
            writes.push((src_pkey.clone(), Some(sp)));
            let mut dp = dst_prow;
            if replaced.is_none() {
                dp.apply(&FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                });
            }
            if src_type == FileType::Dir {
                dp.apply(&FieldAssign::Delta {
                    field: NumField::Links,
                    delta: 1,
                });
            }
            dp.apply(&FieldAssign::Set {
                field: LwwField::Mtime,
                value: now,
                ts,
            });
            writes.push((dst_pkey.clone(), Some(dp)));
        }
        // Move schema-specific attribute rows.
        match self.config.schema {
            AttrSchema::SplitWithParent if src_type != FileType::Dir => {
                let old_fk = self.fattr_key(src_parent, &src_name, src_ino);
                if let Ok(Some(fattr)) = self.get_row(&old_fk) {
                    writes.push((old_fk, None));
                    writes.push((self.fattr_key(dst_parent, &dst_name, src_ino), Some(fattr)));
                }
            }
            _ => {}
        }
        if src_type == FileType::Dir && !same_parent {
            if let Ok(Some(mut attr)) = self.get_row(&Key::attr(src_ino)) {
                attr.id = Some(dst_parent);
                writes.push((Key::attr(src_ino), Some(attr)));
            }
        }
        if let Some((d_ino, d_type)) = replaced {
            match self.config.schema {
                AttrSchema::SplitWithParent if d_type != FileType::Dir => {
                    // The destination fattr row is overwritten by the moved
                    // one only if names collide; delete explicitly.
                    let k = self.fattr_key(dst_parent, &dst_name, d_ino);
                    if !writes.iter().any(|(wk, r)| wk == &k && r.is_some()) {
                        writes.push((k, None));
                    }
                }
                AttrSchema::SplitByIno if d_type != FileType::Dir => {
                    writes.push((Key::attr(d_ino), None));
                }
                _ => {}
            }
            if d_type == FileType::Dir {
                writes.push((Key::attr(d_ino), None));
            }
        }

        self.commit_txn(txn, writes, &locked)?;
        self.cache_forget(src_parent, &src_name);
        self.cache_forget(dst_parent, &dst_name);
        if let Some((d_ino, d_type)) = replaced {
            if d_type != FileType::Dir && self.config.schema == AttrSchema::SplitFileStore {
                let _ = self.fs.delete_file(d_ino);
            }
        }
        Ok(())
    }

    /// Seeds the root directory rows for this engine's schema.
    pub fn bootstrap_root(&self) -> FsResult<()> {
        let mut root = Record::dir_attr_record(0, Timestamp(0));
        root.id = Some(ROOT_INODE);
        self.put_row(Key::attr(ROOT_INODE), root)
    }
}

/// Builds an attribute-bearing record (inline rows, fattr rows).
fn full_record(
    ino: InodeId,
    ftype: FileType,
    now: u64,
    ts: Timestamp,
    parent: Option<InodeId>,
) -> Record {
    use cfs_types::record::Lww;
    Record {
        id: Some(ino),
        ftype: Some(ftype),
        links: Some(if ftype == FileType::Dir { 2 } else { 1 }),
        children: Some(0),
        size: Some(0),
        mtime: Some(Lww::new(now, ts)),
        ctime: Some(Lww::new(now, ts)),
        atime: Some(Lww::new(now, ts)),
        mode: Some(Lww::new(
            u64::from(if ftype == FileType::Dir {
                cfs_types::attr::DEFAULT_DIR_MODE
            } else {
                cfs_types::attr::DEFAULT_FILE_MODE
            }),
            ts,
        )),
        uid: Some(Lww::new(0, ts)),
        gid: Some(Lww::new(0, ts)),
        symlink_target: None,
        parent,
        inode_limit: None,
        byte_limit: None,
    }
}

/// Materializes an attribute-bearing record into an [`Attr`].
fn record_to_attr(rec: &Record, ino: InodeId) -> FsResult<Attr> {
    rec.to_dir_attr(ino)
}

/// Blocking inode-level coordinator locks (subtree locks / rename locks).
pub struct InodeLocks {
    held: Mutex<std::collections::HashSet<InodeId>>,
    released: Condvar,
}

impl Default for InodeLocks {
    fn default() -> Self {
        InodeLocks {
            held: Mutex::new(std::collections::HashSet::new()),
            released: Condvar::new(),
        }
    }
}

impl InodeLocks {
    /// Acquires all `inos` atomically, blocking until available.
    pub fn lock(&self, mut inos: Vec<InodeId>) -> InodeLockGuard<'_> {
        inos.sort_unstable();
        inos.dedup();
        let mut held = self.held.lock();
        loop {
            if inos.iter().all(|i| !held.contains(i)) {
                for i in &inos {
                    held.insert(*i);
                }
                return InodeLockGuard { locks: self, inos };
            }
            self.released.wait(&mut held);
        }
    }
}

/// RAII guard of [`InodeLocks::lock`].
pub struct InodeLockGuard<'a> {
    locks: &'a InodeLocks,
    inos: Vec<InodeId>,
}

impl Drop for InodeLockGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.locks.held.lock();
        for i in &self.inos {
            held.remove(i);
        }
        drop(held);
        self.locks.released.notify_all();
    }
}
