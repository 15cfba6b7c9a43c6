//! ClientLib — CFS' client library with client-side metadata resolving.
//!
//! Paper §3.2: "the entrance to CFS is ClientLib ... As ClientLib caches the
//! partition information of TafDB and FileStore, it implements a client-side
//! metadata resolving, and directly interacts with the different components
//! of CFS ... there are three paths from ClientLib to the rest of CFS: file
//! data and attribute requests sent to FileStore, complex rename requests
//! forwarded to Renamer, and the remaining ones posted to TafDB."

use std::sync::Arc;

use cfs_filestore::{FileStoreClient, SetAttrPatch};
use cfs_renamer::{RenameRequest, RenamerClient};
use cfs_tafdb::primitive::{PrimResult, Primitive, UpdateSpec};
use cfs_tafdb::{ResolveEnd, TafDbClient, TsClient};
use cfs_types::record::{LwwField, NumField, Pred};
use cfs_types::{
    Attr, BlockId, Cond, FieldAssign, FileType, FsError, FsResult, InodeId, Key, Record, Timestamp,
    VolumeId, ROOT_INODE,
};
use cfs_volume::QosLimiter;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use cfs_obs::metrics::Gauge;
use cfs_obs::trace;

use crate::dcache::{CacheLookup, DentryCache};
use crate::fsapi::{DirEntryInfo, FileSystem};
use crate::path;

/// Page size used by `readdir` scans.
const READDIR_PAGE: u32 = 1024;

/// A job run on one of the client's background threads.
type Job = Box<dyn FnOnce() + Send>;

/// A named background thread that runs its jobs in order; dropping it lets
/// the queued jobs finish and joins the thread.
struct Worker {
    tx: Option<Sender<Job>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn spawn(name: &str) -> Worker {
        let (tx, rx) = unbounded::<Job>();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("spawn client worker thread");
        Worker {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn run(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Box::new(job));
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The CFS client: implements [`FileSystem`] against a running cluster.
pub struct CfsClient {
    taf: TafDbClient,
    fs: Arc<FileStoreClient>,
    ts: TsClient,
    renamer: RenamerClient,
    /// Versioned dentry cache: positive and negative `(parent, name)`
    /// results, invalidated by per-directory generations piggybacked on
    /// resolve responses.
    dcache: DentryCache,
    block_size: u64,
    /// The volume this client operates in; paths are volume-relative and
    /// resolution starts at the volume's root inode.
    volume: VolumeId,
    root: InodeId,
    /// This client's `tenant.vol<N>.quota_inodes` / `.quota_bytes` gauges in
    /// its node's registry: the deltas it has applied to a metered volume's
    /// usage. `None` in the unmetered default volume.
    usage: Option<(Arc<Gauge>, Arc<Gauge>)>,
    /// Per-tenant fair-share admission, shared by every client of a cluster.
    /// `None` = QoS off (no admission control).
    qos: Option<Arc<QosLimiter>>,
    /// Asynchronous write-back (paper §5.2: unlink's FileStore deletion is
    /// asynchronous, hiding its latency).
    writeback: Worker,
    /// Writes a new file's FileStore attribute while the creating thread
    /// links it into TafDB, so a `create` waits on the two replicated
    /// commits at once rather than one after the other.
    attr_writer: Worker,
}

impl CfsClient {
    /// Assembles a client from component handles (normally via
    /// [`crate::cluster::CfsCluster::client`]).
    pub fn new(
        taf: TafDbClient,
        fs: FileStoreClient,
        ts: TsClient,
        renamer: RenamerClient,
        block_size: u64,
    ) -> CfsClient {
        CfsClient {
            taf,
            fs: Arc::new(fs),
            ts,
            renamer,
            dcache: DentryCache::new(crate::dcache::DEFAULT_CAPACITY),
            block_size,
            volume: VolumeId::DEFAULT,
            root: ROOT_INODE,
            usage: None,
            qos: None,
            writeback: Worker::spawn("cfs-writeback"),
            attr_writer: Worker::spawn("cfs-attr-writer"),
        }
    }

    /// Scopes this client to `vol`: paths resolve from the volume's root,
    /// new inodes are allocated inside the volume's id band, and namespace
    /// mutations charge the volume's quota record.
    pub fn with_volume(mut self, vol: VolumeId) -> CfsClient {
        self.volume = vol;
        self.root = vol.root_inode();
        self.usage = self.metered().then(|| {
            let reg = cfs_obs::metrics::node(self.taf.node().0 as u64);
            let gauge = |what: &str| reg.gauge(&format!("tenant.vol{}.quota_{what}", vol.0));
            (gauge("inodes"), gauge("bytes"))
        });
        self
    }

    /// Attaches the cluster-shared QoS limiter: every operation passes
    /// fair-share admission for this client's volume before issuing RPCs.
    pub fn with_qos(mut self, qos: Arc<QosLimiter>) -> CfsClient {
        self.qos = Some(qos);
        self
    }

    /// The volume this client operates in.
    pub fn volume(&self) -> VolumeId {
        self.volume
    }

    /// QoS fair-share admission for one operation (no-op with QoS off).
    fn admit(&self) -> FsResult<()> {
        match &self.qos {
            Some(q) => q.admit(self.volume),
            None => Ok(()),
        }
    }

    /// Direct access to the TafDB client (GC, tests).
    pub fn taf(&self) -> &TafDbClient {
        &self.taf
    }

    /// Direct access to the FileStore client (GC, tests).
    pub fn filestore(&self) -> &FileStoreClient {
        &self.fs
    }

    /// Direct access to the TS client.
    pub fn ts(&self) -> &TsClient {
        &self.ts
    }

    /// Opens the observability scope for one [`FileSystem`] operation: a
    /// fresh trace rooted at this client's node. Every hop the operation
    /// takes (TafDB shard, Raft commit, FileStore) nests under it via the
    /// rpc-envelope context propagation.
    fn op_scope(&self, name: &'static str) -> (trace::NodeScope, trace::SpanGuard) {
        let node = trace::node_scope(self.taf.node().0 as u64);
        let span = trace::root_span(name);
        (node, span)
    }

    // ---- resolution -----------------------------------------------------

    fn cache_forget(&self, parent: InodeId, name: &str) {
        self.dcache.forget(parent, name);
    }

    /// The dentry cache (tests).
    #[doc(hidden)]
    pub fn dcache(&self) -> &DentryCache {
        &self.dcache
    }

    /// Resolves `comps` starting at directory `start`: the pruned read path.
    ///
    /// The longest cached prefix is walked locally, then the remainder is
    /// resolved with one batched `ResolvePrefix` RPC per shard touched — the
    /// server walks every component resident on it in a single call and
    /// hands back a cursor when the chain leaves its range. Every response
    /// piggybacks the visited directories' generations, which both fills the
    /// dentry cache and invalidates it when another client mutated a
    /// directory on the way.
    ///
    /// Returns the final component's `(ino, type)`; intermediate components
    /// must be directories, the final one may be anything.
    fn walk(&self, start: InodeId, comps: &[&str]) -> FsResult<(InodeId, FileType)> {
        let mut cur = start;
        let mut cur_type = FileType::Dir;
        let mut i = 0;
        // Greedy local walk over the cached prefix.
        while i < comps.len() {
            match self.dcache.lookup(cur, comps[i]) {
                CacheLookup::Hit(ino, ftype) => {
                    if i + 1 < comps.len() && ftype != FileType::Dir {
                        return Err(FsError::NotDir);
                    }
                    cur = ino;
                    cur_type = ftype;
                    i += 1;
                }
                CacheLookup::Negative => return Err(FsError::NotFound),
                CacheLookup::Miss => break,
            }
        }
        // Server walk: one RPC per shard holding a run of the chain.
        while i < comps.len() {
            let rest: Vec<String> = comps[i..].iter().map(|c| (*c).to_string()).collect();
            let resolved = self.taf.resolve_prefix(cur, &rest)?;
            let made_progress = !resolved.steps.is_empty();
            for step in &resolved.steps {
                self.dcache.observe_gen(cur, step.gen);
                if step.ftype == FileType::Dir {
                    self.dcache
                        .insert(cur, comps[i], step.gen, Some((step.ino, step.ftype)));
                }
                cur = step.ino;
                cur_type = step.ftype;
                i += 1;
            }
            match resolved.end {
                ResolveEnd::Done => {}
                ResolveEnd::Continue => {
                    // The shard guarantees at least one step before a
                    // cursor; guard against a lying server rather than spin.
                    if !made_progress {
                        return Err(FsError::Corrupted("resolve cursor made no progress".into()));
                    }
                }
                ResolveEnd::Err { err, gen } => {
                    // `cur` is the directory the failing component was
                    // searched in (for `NotDir` it is the offending
                    // non-directory itself, whose entries we never cache).
                    if matches!(err, FsError::NotFound) {
                        self.dcache.observe_gen(cur, gen);
                        self.dcache.insert(cur, comps[i], gen, None);
                    }
                    return Err(err);
                }
            }
        }
        Ok((cur, cur_type))
    }

    /// Resolves one entry, consulting the cache first.
    fn resolve_entry(&self, parent: InodeId, name: &str) -> FsResult<(InodeId, FileType)> {
        self.walk(parent, &[name])
    }

    /// Resolves a full path to its final `(ino, type)`. Paths are relative
    /// to this client's volume root.
    fn resolve_path(&self, comps: &[&str]) -> FsResult<(InodeId, FileType)> {
        self.walk(self.root, comps)
    }

    /// Walks directory components to the containing directory's inode.
    fn resolve_dir(&self, comps: &[&str]) -> FsResult<InodeId> {
        let (ino, ftype) = self.walk(self.root, comps)?;
        if ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        Ok(ino)
    }

    fn resolve_parent_of(&self, p: &str) -> FsResult<(InodeId, String)> {
        let (parents, name) = path::split_parent(p)?;
        Ok((self.resolve_dir(&parents)?, name.to_string()))
    }

    // ---- primitive builders ----------------------------------------------

    fn parent_update(
        parent: InodeId,
        children_delta: i64,
        links_delta: i64,
        now: u64,
        ts: Timestamp,
    ) -> UpdateSpec {
        let mut assigns = vec![
            FieldAssign::Set {
                field: LwwField::Mtime,
                value: now,
                ts,
            },
            FieldAssign::Set {
                field: LwwField::Ctime,
                value: now,
                ts,
            },
        ];
        if children_delta != 0 {
            assigns.push(FieldAssign::Delta {
                field: NumField::Children,
                delta: children_delta,
            });
        }
        if links_delta != 0 {
            assigns.push(FieldAssign::Delta {
                field: NumField::Links,
                delta: links_delta,
            });
        }
        UpdateSpec::new(
            Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
            assigns,
        )
    }

    fn insert_entry_prim(
        parent: InodeId,
        name: &str,
        rec: Record,
        links_delta: i64,
        now: u64,
        ts: Timestamp,
    ) -> Primitive {
        Primitive::insert_with_update(
            Key::entry(parent, name),
            rec,
            Self::parent_update(parent, 1, links_delta, now, ts),
        )
    }

    // ---- creation ---------------------------------------------------------

    /// Figure 7's two writes of a new file or symlink, issued at once: the
    /// FileStore attribute on the attribute writer, the namespace link on
    /// the calling thread. Acks once both have committed.
    ///
    /// An abandoned create leaves nothing, an orphaned attribute, a link
    /// whose attribute is missing, or both. The collector reclaims an
    /// orphaned attribute; a link whose attribute write failed is removed
    /// here, and if that removal fails as well, by the collector.
    fn link_new_inode(
        &self,
        parent: InodeId,
        name: &str,
        attr: Attr,
        rec: Record,
        ts: Timestamp,
    ) -> FsResult<InodeId> {
        let ino = attr.ino;
        let put = self.put_attr_async(attr);
        let prim = Self::insert_entry_prim(parent, name, rec, 0, ts.raw(), ts);
        let linked = self.execute_charged(prim, parent, 1, 0);
        let put = put
            .recv()
            .unwrap_or_else(|_| Err(FsError::Io("attribute writer stopped".into())));
        match (linked, put) {
            (Ok(_), Ok(())) => {
                // The create bumped the parent's generation server-side; a
                // cached negative for this name is now stale.
                self.cache_forget(parent, name);
                Ok(ino)
            }
            (Ok(_), Err(e)) => {
                self.unlink_failed_create(parent, name, ino, ts);
                Err(e)
            }
            // Whatever became of the attribute, the namespace shows no new
            // name (or not yet, for an indeterminate error); an orphaned
            // attribute is the collector's.
            (Err(e), _) => Err(e),
        }
    }

    /// Hands `attr`'s FileStore write to the attribute writer, under the
    /// calling op's trace context and node, and returns where its result
    /// arrives.
    fn put_attr_async(&self, attr: Attr) -> Receiver<FsResult<()>> {
        let (tx, rx) = bounded(1);
        let fs = Arc::clone(&self.fs);
        let ctx = trace::current();
        let node = trace::current_node();
        self.attr_writer.run(move || {
            let _ctx = trace::ctx_scope(ctx);
            let _node = trace::node_scope(node);
            let _ = tx.send(fs.put_attr(attr));
        });
        rx
    }

    /// Best-effort removal of the link of a create whose attribute write
    /// failed. The inode-id guard keeps it from removing anything another
    /// op has put under the name since.
    fn unlink_failed_create(&self, parent: InodeId, name: &str, ino: InodeId, ts: Timestamp) {
        let prim = Primitive::delete_with_update(
            Cond::require(Key::entry(parent, name), vec![Pred::IdEq(ino)]),
            Self::parent_update(parent, -1, 0, ts.raw(), ts),
        );
        if self.taf.execute(prim).is_ok() {
            self.quota_release(1, 0);
        }
        self.cache_forget(parent, name);
    }

    /// Queues the deletion of an unlinked file's FileStore attribute and
    /// data blocks on the write-back thread.
    fn delete_file_async(&self, ino: InodeId) {
        let fs = Arc::clone(&self.fs);
        self.writeback.run(move || {
            let _ = fs.delete_file(ino);
        });
    }

    // ---- volume quota ----------------------------------------------------

    /// Whether namespace mutations are metered against a quota record.
    /// The default volume is unmetered (no quota record is seeded for it).
    fn metered(&self) -> bool {
        self.volume != VolumeId::DEFAULT
    }

    /// The quota clause charging (positive) or releasing (negative) usage.
    /// Charges carry the admission predicate so the shard rejects the whole
    /// primitive with `QuotaExceeded` when the volume is out of room;
    /// releases apply unconditionally. `if_exist` makes a missing quota
    /// record mean "unmetered".
    fn quota_spec(&self, inodes: i64, bytes: i64) -> UpdateSpec {
        let quota_key = Key::attr(self.volume.quota_kid());
        let preds = if inodes > 0 || bytes > 0 {
            vec![Pred::QuotaHasRoom { inodes, bytes }]
        } else {
            Vec::new()
        };
        let mut assigns = Vec::new();
        if inodes != 0 {
            assigns.push(FieldAssign::Delta {
                field: NumField::Links,
                delta: inodes,
            });
        }
        if bytes != 0 {
            assigns.push(FieldAssign::Delta {
                field: NumField::Size,
                delta: bytes,
            });
        }
        UpdateSpec::new(Cond::if_exist(quota_key, preds), assigns)
    }

    /// Applies a quota delta as its own single-shard primitive on the quota
    /// record's home shard (reservation / release / compensation).
    fn quota_apply(&self, inodes: i64, bytes: i64) -> FsResult<()> {
        let prim = Primitive::default().with_quota(self.quota_spec(inodes, bytes));
        self.taf.execute(prim)?;
        self.note_usage(inodes, bytes);
        Ok(())
    }

    /// Mirrors applied deltas on this client's per-tenant usage gauges.
    fn note_usage(&self, inodes: i64, bytes: i64) {
        if let Some((quota_inodes, quota_bytes)) = &self.usage {
            quota_inodes.add(inodes);
            quota_bytes.add(bytes);
        }
    }

    /// Executes a namespace primitive whose keys live on `target_kid`'s
    /// shard, charging `inodes`/`bytes` against the volume quota.
    ///
    /// Co-located quota record: the charge rides inside the primitive — one
    /// atomic replicated command, enforcement exactly as deterministic as
    /// the delta-apply merge itself. Cross-shard (the volume spans shards
    /// after a split): reserve on the quota shard first, compensate if the
    /// namespace op then fails. The deltas commute, so a client crash
    /// between the two steps can only leak a reservation — quota then
    /// over-restricts, never under-enforces, and namespace isolation (what
    /// the oracle checks) is unaffected.
    fn execute_charged(
        &self,
        prim: Primitive,
        target_kid: InodeId,
        inodes: i64,
        bytes: i64,
    ) -> FsResult<PrimResult> {
        if !self.metered() || (inodes == 0 && bytes == 0) {
            return self.taf.execute(prim);
        }
        debug_assert!(inodes >= 0 && bytes >= 0, "releases go through quota_apply");
        let pm = self.taf.partition_map();
        if pm.shard_for(self.volume.quota_kid()) == pm.shard_for(target_kid) {
            let res = self
                .taf
                .execute(prim.with_quota(self.quota_spec(inodes, bytes)))?;
            self.note_usage(inodes, bytes);
            return Ok(res);
        }
        self.quota_apply(inodes, bytes)?;
        match self.taf.execute(prim) {
            Ok(res) => Ok(res),
            Err(e) => {
                let _ = self.quota_apply(-inodes, -bytes);
                Err(e)
            }
        }
    }

    /// Best-effort post-op release (unlink/rmdir/overwriting rename).
    fn quota_release(&self, inodes: i64, bytes: i64) {
        if self.metered() && (inodes != 0 || bytes != 0) {
            let _ = self.quota_apply(-inodes, -bytes);
        }
    }

    /// The logical size of `ino`'s FileStore attribute (0 when absent or
    /// unreadable); used to size quota releases before deletion.
    fn file_size_of(&self, ino: InodeId) -> i64 {
        match self.fs.get_attr(ino) {
            Ok(Some(a)) => a.size as i64,
            _ => 0,
        }
    }

    // ---- internal op used by tests to model a crashed client -------------

    /// The FileStore half of `create` only: writes the attribute but never
    /// links it into TafDB. Models a client crash while a create's two
    /// writes are in flight, after the attribute landed; the garbage
    /// collector must delete the orphaned attribute.
    #[doc(hidden)]
    pub fn create_crash_before_link(&self, p: &str) -> FsResult<InodeId> {
        let (_parent, _name) = self.resolve_parent_of(p)?;
        let ino = self.ts.alloc_id_in(self.volume)?;
        let now = self.ts.timestamp()?;
        self.fs.put_attr(Attr::new_file(ino, now.raw()))?;
        Ok(ino)
    }

    /// The TafDB half of `create` only: links a new file into the namespace
    /// but never writes its FileStore attribute. Models a client crash
    /// while a create's two writes are in flight, after the link landed;
    /// the garbage collector must remove the dangling link.
    #[doc(hidden)]
    pub fn create_crash_before_attr(&self, p: &str) -> FsResult<InodeId> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let ino = self.ts.alloc_id_in(self.volume)?;
        let ts = self.ts.timestamp()?;
        let rec = Record::id_record(ino, FileType::File);
        let prim = Self::insert_entry_prim(parent, &name, rec, 0, ts.raw(), ts);
        self.execute_charged(prim, parent, 1, 0)?;
        self.cache_forget(parent, &name);
        Ok(ino)
    }

    /// First phase of `unlink` only (unlink from parent), never deleting the
    /// file's FileStore attribute. Models the crash whose leftover attribute
    /// the garbage collector deletes.
    #[doc(hidden)]
    pub fn unlink_crash_before_filestore(&self, p: &str) -> FsResult<InodeId> {
        let (parent, name) = self.resolve_parent_of(p)?;
        let now = self.ts.timestamp()?;
        let prim = Primitive::delete_with_update(
            Cond::require(
                Key::entry(parent, &name),
                vec![Pred::TypeIsNot(FileType::Dir)],
            ),
            Self::parent_update(parent, -1, 0, now.raw(), now),
        );
        let res = self.taf.execute(prim)?;
        self.cache_forget(parent, &name);
        let ino = res.deleted[0]
            .1
            .id
            .ok_or(FsError::Corrupted("deleted entry lacks id".into()))?;
        Ok(ino)
    }
}

impl FileSystem for CfsClient {
    fn create(&self, p: &str) -> FsResult<InodeId> {
        let _op = self.op_scope("fs.create");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let ino = self.ts.alloc_id_in(self.volume)?;
        let ts = self.ts.timestamp()?;
        let attr = Attr::new_file(ino, ts.raw());
        let rec = Record::id_record(ino, FileType::File);
        self.link_new_inode(parent, &name, attr, rec, ts)
    }

    fn mkdir(&self, p: &str) -> FsResult<InodeId> {
        let _op = self.op_scope("fs.mkdir");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let ino = self.ts.alloc_id_in(self.volume)?;
        let ts = self.ts.timestamp()?;
        let now = ts.raw();
        // Same deterministic order inside TafDB: the new directory's /_ATTR
        // record (on its home shard) first, the namespace link last.
        let mut attr_rec = Record::dir_attr_record(now, ts);
        attr_rec.id = Some(parent); // parent pointer, used by rename loop checks
        self.taf.put(Key::attr(ino), attr_rec)?;
        let prim = Self::insert_entry_prim(
            parent,
            &name,
            Record::id_record(ino, FileType::Dir),
            1, // child directory adds a link to the parent
            now,
            ts,
        );
        match self.execute_charged(prim, parent, 1, 0) {
            Ok(_) => {
                self.cache_forget(parent, &name);
                Ok(ino)
            }
            Err(e) => Err(e),
        }
    }

    fn unlink(&self, p: &str) -> FsResult<()> {
        let _op = self.op_scope("fs.unlink");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let ts = self.ts.timestamp()?;
        // Figure 7: deletion unlinks from the namespace first, then removes
        // the FileStore attribute (asynchronously; latency hidden).
        let prim = Primitive::delete_with_update(
            Cond::require(
                Key::entry(parent, &name),
                vec![Pred::TypeIsNot(FileType::Dir)],
            ),
            Self::parent_update(parent, -1, 0, ts.raw(), ts),
        );
        let res = self.taf.execute(prim)?;
        self.cache_forget(parent, &name);
        if let Some(ino) = res.deleted.first().and_then(|(_, r)| r.id) {
            // Size the quota release off the attribute before it is deleted.
            let bytes = if self.metered() {
                self.file_size_of(ino)
            } else {
                0
            };
            self.delete_file_async(ino);
            self.quota_release(1, bytes);
        }
        Ok(())
    }

    fn rmdir(&self, p: &str) -> FsResult<()> {
        let _op = self.op_scope("fs.rmdir");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        if ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        let ts = self.ts.timestamp()?;
        // Namespace unlink first (with the id guard against stale cache),
        // then the directory's own /_ATTR record with the atomic emptiness
        // check on its home shard.
        //
        // The emptiness check runs on the attr shard; deleting the parent
        // link first would orphan a non-empty directory, so the attr record
        // (and its emptiness check) must go first here: the orphan left by a
        // crash in between is the *link* (dangling id record): `getattr`
        // reports it NotFound, and the collector removes it while the
        // directory's `Linked` row is still pending (§4.4).
        let purge = Primitive {
            deletes: vec![Cond::require(
                Key::attr(ino),
                vec![Pred::TypeIs(FileType::Dir), Pred::ChildrenEq(0)],
            )],
            ..Primitive::default()
        };
        self.taf.execute(purge)?;
        let unlink = Primitive::delete_with_update(
            Cond::require(Key::entry(parent, &name), vec![Pred::IdEq(ino)]),
            Self::parent_update(parent, -1, -1, ts.raw(), ts),
        );
        // The directory is gone whatever the unlink answers (`Conflict`: the
        // name was re-pointed meanwhile); drop everything cached under it.
        let unlinked = self.taf.execute(unlink);
        self.cache_forget(parent, &name);
        self.dcache.forget_dir(ino);
        unlinked?;
        self.quota_release(1, 0);
        Ok(())
    }

    fn lookup(&self, p: &str) -> FsResult<InodeId> {
        let _op = self.op_scope("fs.lookup");
        self.admit()?;
        let comps = path::split(p)?;
        Ok(self.resolve_path(&comps)?.0)
    }

    fn getattr(&self, p: &str) -> FsResult<Attr> {
        let _op = self.op_scope("fs.getattr");
        self.admit()?;
        let comps = path::split(p)?;
        let (ino, ftype) = self.resolve_path(&comps)?;
        match ftype {
            FileType::Dir => {
                let rec = self.taf.get(&Key::attr(ino))?.ok_or(FsError::NotFound)?;
                rec.to_dir_attr(ino)
            }
            // A link whose attribute is missing belongs to a create still in
            // flight (its two writes run at once) or to one a crash
            // abandoned; the collector, not a reader, tells the two apart.
            FileType::File | FileType::Symlink => self.fs.get_attr(ino)?.ok_or(FsError::NotFound),
        }
    }

    fn setattr(&self, p: &str, patch: SetAttrPatch) -> FsResult<()> {
        let _op = self.op_scope("fs.setattr");
        self.admit()?;
        let comps = path::split(p)?;
        let (ino, ftype) = self.resolve_path(&comps)?;
        let ts = self.ts.timestamp()?;
        match ftype {
            FileType::Dir => {
                let mut assigns = Vec::new();
                if let Some(m) = patch.mode {
                    assigns.push(FieldAssign::Set {
                        field: LwwField::Mode,
                        value: u64::from(m),
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
                let prim = Primitive {
                    update: Some(UpdateSpec::new(
                        Cond::require(Key::attr(ino), vec![Pred::TypeIs(FileType::Dir)]),
                        assigns,
                    )),
                    ..Primitive::default()
                };
                self.taf.execute(prim).map(|_| ())
            }
            _ => self.fs.set_attr(ino, patch, ts),
        }
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntryInfo>> {
        let _op = self.op_scope("fs.readdir");
        self.admit()?;
        let comps = path::split(p)?;
        let dir = self.resolve_dir(&comps)?;
        // Confirm it exists as a directory (root always does).
        if dir != ROOT_INODE || !comps.is_empty() {
            // resolve_dir already type-checked each component.
        }
        let mut out = Vec::new();
        let mut after: Option<String> = None;
        loop {
            let page = self.taf.scan(dir, after.clone(), READDIR_PAGE)?;
            let done = page.len() < READDIR_PAGE as usize;
            for e in &page {
                let ino = e
                    .record
                    .id
                    .ok_or(FsError::Corrupted("entry lacks id".into()))?;
                let ftype = e
                    .record
                    .ftype
                    .ok_or(FsError::Corrupted("entry lacks type".into()))?;
                out.push(DirEntryInfo {
                    name: e.name.clone(),
                    ino,
                    ftype,
                });
            }
            if done {
                break;
            }
            after = page.last().map(|e| e.name.clone());
        }
        Ok(out)
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        let _op = self.op_scope("fs.rename");
        self.admit()?;
        let (src_parent, src_name) = self.resolve_parent_of(src)?;
        let (dst_parent, dst_name) = self.resolve_parent_of(dst)?;
        if src_parent == dst_parent && src_name == dst_name {
            // POSIX: renaming a path onto itself succeeds iff it exists.
            return self.resolve_entry(src_parent, &src_name).map(|_| ());
        }
        // The lookups that preceded a POSIX rename cached the entry types;
        // fast path iff both ends are files in the same directory (§4.3).
        let (src_ino, src_type) = self.resolve_entry(src_parent, &src_name)?;
        let dst_hit = match self.resolve_entry(dst_parent, &dst_name) {
            Ok(hit) => Some(hit),
            Err(FsError::NotFound) => None,
            Err(e) => return Err(e),
        };
        let fast = src_parent == dst_parent
            && src_type != FileType::Dir
            && dst_hit.is_none_or(|(_, t)| t != FileType::Dir);
        if fast {
            let ts = self.ts.timestamp()?;
            // Figure 8(c): one insert_and_delete_with_update primitive.
            let prim = Primitive::insert_and_delete_with_update(
                Key::entry(dst_parent, &dst_name),
                Record::id_record(src_ino, src_type),
                vec![
                    Cond::require(
                        Key::entry(src_parent, &src_name),
                        vec![Pred::TypeIsNot(FileType::Dir), Pred::IdEq(src_ino)],
                    ),
                    Cond::if_exist(
                        Key::entry(dst_parent, &dst_name),
                        vec![Pred::TypeIsNot(FileType::Dir)],
                    ),
                ],
                UpdateSpec::new(
                    Cond::require(Key::attr(src_parent), vec![Pred::TypeIs(FileType::Dir)]),
                    vec![
                        FieldAssign::Delta {
                            field: NumField::Children,
                            delta: 1,
                        },
                        FieldAssign::Set {
                            field: LwwField::Mtime,
                            value: ts.raw(),
                            ts,
                        },
                    ],
                )
                .with_per_deleted(vec![(NumField::Children, -1)]),
            );
            match self.taf.execute(prim) {
                Ok(res) => {
                    self.cache_forget(src_parent, &src_name);
                    self.cache_forget(dst_parent, &dst_name);
                    // Delete the overwritten destination's attribute, if any.
                    for (key, rec) in res.deleted {
                        if key == Key::entry(dst_parent, &dst_name) {
                            if let Some(ino) = rec.id {
                                let bytes = if self.metered() {
                                    self.file_size_of(ino)
                                } else {
                                    0
                                };
                                self.delete_file_async(ino);
                                if self.metered() {
                                    self.quota_release(1, bytes);
                                }
                            }
                        }
                    }
                    Ok(())
                }
                Err(FsError::Conflict) => {
                    // Stale cache: refresh and retry through the normal path.
                    self.cache_forget(src_parent, &src_name);
                    self.cache_forget(dst_parent, &dst_name);
                    self.renamer.rename(&RenameRequest {
                        src_parent,
                        src_name,
                        dst_parent,
                        dst_name,
                    })
                }
                Err(e) => Err(e),
            }
        } else {
            let res = self.renamer.rename(&RenameRequest {
                src_parent,
                src_name: src_name.clone(),
                dst_parent,
                dst_name: dst_name.clone(),
            });
            self.cache_forget(src_parent, &src_name);
            self.cache_forget(dst_parent, &dst_name);
            res
        }
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<InodeId> {
        let _op = self.op_scope("fs.symlink");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(linkpath)?;
        let ino = self.ts.alloc_id_in(self.volume)?;
        let ts = self.ts.timestamp()?;
        let attr = Attr::new_symlink(ino, ts.raw(), target);
        let mut rec = Record::id_record(ino, FileType::Symlink);
        rec.symlink_target = Some(target.to_string());
        self.link_new_inode(parent, &name, attr, rec, ts)
    }

    fn readlink(&self, p: &str) -> FsResult<String> {
        let _op = self.op_scope("fs.readlink");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let rec = self
            .taf
            .get(&Key::entry(parent, &name))?
            .ok_or(FsError::NotFound)?;
        if rec.ftype != Some(FileType::Symlink) {
            return Err(FsError::Invalid("not a symlink".into()));
        }
        rec.symlink_target
            .ok_or(FsError::Corrupted("symlink lacks target".into()))
    }

    fn write(&self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let _op = self.op_scope("fs.write");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        if ftype == FileType::Dir {
            return Err(FsError::IsDir);
        }
        // Charge the byte extension against the volume quota before any
        // block lands; overwrites inside the current size are free.
        if self.metered() && !data.is_empty() {
            let size = self.fs.get_attr(ino)?.map(|a| a.size).unwrap_or(0);
            let new_end = offset + data.len() as u64;
            if new_end > size {
                self.quota_apply(0, (new_end - size) as i64)?;
            }
        }
        let ts = self.ts.timestamp()?;
        // Split the write into block-aligned chunks.
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let block_idx = (abs / self.block_size) as u32;
            let within = abs % self.block_size;
            let take = ((self.block_size - within) as usize).min(data.len() - pos);
            // Read-modify-write for partial blocks.
            let block = BlockId {
                ino,
                index: block_idx,
            };
            let payload = if within == 0 && take as u64 == self.block_size {
                data[pos..pos + take].to_vec()
            } else {
                let mut existing = self.fs.read_block(block)?.unwrap_or_default();
                if existing.len() < (within as usize + take) {
                    existing.resize(within as usize + take, 0);
                }
                existing[within as usize..within as usize + take]
                    .copy_from_slice(&data[pos..pos + take]);
                existing
            };
            self.fs.write_block(block, abs - within, payload, ts)?;
            pos += take;
        }
        Ok(())
    }

    fn read(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let _op = self.op_scope("fs.read");
        self.admit()?;
        let (parent, name) = self.resolve_parent_of(p)?;
        let (ino, ftype) = self.resolve_entry(parent, &name)?;
        if ftype == FileType::Dir {
            return Err(FsError::IsDir);
        }
        // POSIX read: getattr to learn the size, then fetch blocks.
        let attr = self.fs.get_attr(ino)?.ok_or(FsError::NotFound)?;
        if offset >= attr.size {
            return Ok(Vec::new());
        }
        let len = len.min((attr.size - offset) as usize);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let abs = offset + out.len() as u64;
            let block_idx = (abs / self.block_size) as u32;
            let within = abs as usize % self.block_size as usize;
            let take = (self.block_size as usize - within).min(len - out.len());
            let block = self
                .fs
                .read_block(BlockId {
                    ino,
                    index: block_idx,
                })?
                .unwrap_or_default();
            let end = (within + take).min(block.len());
            if within < block.len() {
                out.extend_from_slice(&block[within..end]);
            }
            // Holes read back as zeros.
            let copied = end.saturating_sub(within);
            out.resize(out.len() + take - copied, 0);
        }
        Ok(out)
    }
}
