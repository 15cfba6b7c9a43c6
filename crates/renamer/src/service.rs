//! The rename coordinator implementation.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_filestore::FileStoreClient;
use cfs_rpc::mux::{frame, CH_APP};
use cfs_rpc::{Network, Service};
use cfs_tafdb::api::{TxnRequest, TxnResponse};
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::{TafDbClient, TsClient, RETRY_TIMEOUT};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{
    key::validate_name, Cond, FieldAssign, FileType, FsError, FsResult, InodeId, Key, LwwField,
    NodeId, NumField, Pred, Record, ShardId,
};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::api::{RenameRequest, RenameResponse};

/// Base of the Renamer's transaction-id space, disjoint from the baselines'
/// coordinator ids.
const RENAMER_TXN_BASE: u64 = 1 << 48;

/// Maximum directory depth walked during the orphan-loop check.
const MAX_DEPTH: usize = 4096;

/// Pause before re-running a rename whose attempt raced another op.
const RACE_BACKOFF: Duration = Duration::from_millis(1);

/// The normal-path rename coordinator.
pub struct RenamerService {
    taf: TafDbClient,
    fs: FileStoreClient,
    ts: TsClient,
    /// Per-inode coordination locks serializing conflicting renames.
    inode_locks: Mutex<HashSet<InodeId>>,
    lock_released: Condvar,
    /// Directory-topology lock: directory moves take it exclusively so the
    /// ancestor walk of the loop check sees a stable hierarchy.
    topo: RwLock<()>,
    txn_counter: AtomicU64,
}

impl RenamerService {
    /// Creates the coordinator over existing TafDB/FileStore/TS clients.
    pub fn new(taf: TafDbClient, fs: FileStoreClient, ts: TsClient) -> Arc<RenamerService> {
        Arc::new(RenamerService {
            taf,
            fs,
            ts,
            inode_locks: Mutex::new(HashSet::new()),
            lock_released: Condvar::new(),
            topo: RwLock::new(()),
            txn_counter: AtomicU64::new(RENAMER_TXN_BASE),
        })
    }

    /// Registers the coordinator at `node` on the network.
    pub fn register(self: &Arc<Self>, net: &Arc<Network>, node: NodeId) {
        let mux = cfs_rpc::MuxService::new();
        mux.mount(CH_APP, Arc::clone(self) as Arc<dyn Service>);
        net.register(node, mux);
    }

    fn lock_inodes(&self, mut inos: Vec<InodeId>) -> InodeLockGuard<'_> {
        inos.sort_unstable();
        inos.dedup();
        let mut held = self.inode_locks.lock();
        loop {
            if inos.iter().all(|i| !held.contains(i)) {
                for i in &inos {
                    held.insert(*i);
                }
                return InodeLockGuard { svc: self, inos };
            }
            self.lock_released.wait(&mut held);
        }
    }

    /// Walks `from`'s ancestor chain; errors with [`FsError::Loop`] when
    /// `forbidden` appears (the moved directory would become its own
    /// ancestor).
    fn check_loop_free(&self, forbidden: InodeId, from: InodeId) -> FsResult<()> {
        let mut cur = from;
        for _ in 0..MAX_DEPTH {
            if cur == forbidden {
                return Err(FsError::Loop);
            }
            if cur == cfs_types::ROOT_INODE {
                return Ok(());
            }
            let attr = self
                .taf
                .get(&Key::attr(cur))?
                .ok_or_else(|| FsError::Corrupted(format!("missing attr record for {cur:?}")))?;
            cur = attr
                .id
                .ok_or_else(|| FsError::Corrupted(format!("attr of {cur:?} lacks parent")))?;
        }
        Err(FsError::Loop)
    }

    /// Executes one rename request end to end.
    pub fn process(&self, req: &RenameRequest) -> FsResult<()> {
        self.process_racing(req, &mut || {})
    }

    /// [`Self::process`], running `between` after each attempt's validation
    /// and before it locks a row: the window in which ops that take no
    /// renamer lock (`create`, `mkdir`, `unlink`, fast-path renames) can
    /// change the source or destination it read.
    ///
    /// An attempt whose prepare finds either end changed since its
    /// validation read, or whose destination directory has no attribute
    /// record yet (a `mkdir` in flight), aborts, and the request runs again
    /// from its first read until [`RETRY_TIMEOUT`] has passed.
    #[doc(hidden)]
    pub fn process_racing(&self, req: &RenameRequest, between: &mut dyn FnMut()) -> FsResult<()> {
        validate_name(&req.src_name)?;
        validate_name(&req.dst_name)?;
        if req.src_parent == req.dst_parent && req.src_name == req.dst_name {
            // POSIX: renaming a path onto itself succeeds iff it exists.
            return match self.taf.get(&Key::entry(req.src_parent, &req.src_name))? {
                Some(_) => Ok(()),
                None => Err(FsError::NotFound),
            };
        }
        let deadline = Instant::now() + RETRY_TIMEOUT;
        loop {
            match self.attempt(req, between)? {
                Attempt::Done => return Ok(()),
                Attempt::Raced if Instant::now() >= deadline => return Err(FsError::Timeout),
                Attempt::Raced => std::thread::sleep(RACE_BACKOFF),
            }
        }
    }

    /// One validate, lock, prepare and commit pass over `req`.
    fn attempt(&self, req: &RenameRequest, between: &mut dyn FnMut()) -> FsResult<Attempt> {
        // Peek at the source type to decide whether the directory-topology
        // lock is needed; the actual validation re-reads under locks.
        let peek = self
            .taf
            .get(&Key::entry(req.src_parent, &req.src_name))?
            .ok_or(FsError::NotFound)?;
        let is_dir_move = peek.ftype == Some(FileType::Dir);

        let _topo_guard: TopoGuard<'_> = if is_dir_move {
            TopoGuard::Write(self.topo.write())
        } else {
            TopoGuard::Read(self.topo.read())
        };
        let _inode_guard = self.lock_inodes(vec![req.src_parent, req.dst_parent]);

        // Re-read and validate under locks.
        let src_rec = self
            .taf
            .get(&Key::entry(req.src_parent, &req.src_name))?
            .ok_or(FsError::NotFound)?;
        let src_id = src_rec
            .id
            .ok_or(FsError::Corrupted("src entry lacks id".into()))?;
        let src_type = src_rec
            .ftype
            .ok_or(FsError::Corrupted("src entry lacks type".into()))?;
        let dst_rec = self.taf.get(&Key::entry(req.dst_parent, &req.dst_name))?;
        let dst_parent_attr = self
            .taf
            .get(&Key::attr(req.dst_parent))?
            .ok_or(FsError::NotFound)?;
        if dst_parent_attr.ftype != Some(FileType::Dir) {
            return Err(FsError::NotDir);
        }
        let mut replaced_file: Option<InodeId> = None;
        let mut replaced_dir: Option<InodeId> = None;
        if let Some(dst) = &dst_rec {
            let dst_id = dst
                .id
                .ok_or(FsError::Corrupted("dst entry lacks id".into()))?;
            if dst_id == src_id {
                // Hard links to the same inode: POSIX rename is a no-op.
                return Ok(Attempt::Done);
            }
            match (src_type, dst.ftype) {
                (FileType::Dir, Some(FileType::Dir)) => {
                    // Destination directory must be empty. No attribute yet
                    // is a mkdir whose two writes are still in flight.
                    let Some(dst_attr) = self.taf.get(&Key::attr(dst_id))? else {
                        return Ok(Attempt::Raced);
                    };
                    if dst_attr.children.unwrap_or(0) > 0 {
                        return Err(FsError::NotEmpty);
                    }
                    replaced_dir = Some(dst_id);
                }
                (FileType::Dir, _) => return Err(FsError::NotDir),
                (_, Some(FileType::Dir)) => return Err(FsError::IsDir),
                _ => replaced_file = Some(dst_id),
            }
        }
        if src_type == FileType::Dir {
            // The moved directory must not be an ancestor of (or equal to)
            // the destination parent.
            self.check_loop_free(src_id, req.dst_parent)?;
        }
        between();

        // Build the per-shard primitive shares.
        let pmap = self.taf.partition_map();
        let now = self.ts.timestamp()?;
        let mtime = now.raw();
        let same_parent = req.src_parent == req.dst_parent;
        let cross_parent_dir = src_type == FileType::Dir && !same_parent;

        let mut shares: Vec<(ShardId, Primitive)> = Vec::new();
        let dst_update = {
            let mut assigns = vec![
                FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                },
                FieldAssign::Set {
                    field: LwwField::Mtime,
                    value: mtime,
                    ts: now,
                },
            ];
            if cross_parent_dir {
                assigns.push(FieldAssign::Delta {
                    field: NumField::Links,
                    delta: 1,
                });
            }
            UpdateSpec::new(
                Cond::require(Key::attr(req.dst_parent), vec![Pred::TypeIs(FileType::Dir)]),
                assigns,
            )
            .with_per_deleted(vec![(NumField::Children, -1)])
        };
        // The destination is replaced only if it still names what was
        // validated; an absent one is left to the insert's existence check.
        let dst_delete = replaced_file.or(replaced_dir).map(|id| {
            Cond::require(
                Key::entry(req.dst_parent, &req.dst_name),
                vec![Pred::IdEq(id)],
            )
        });
        let mut dst_prim = Primitive::insert_and_delete_with_update(
            Key::entry(req.dst_parent, &req.dst_name),
            Record::id_record(src_id, src_type),
            dst_delete.into_iter().collect(),
            dst_update,
        );
        if same_parent {
            // Fold the source deletion into the same share.
            dst_prim.deletes.push(Cond::require(
                Key::entry(req.src_parent, &req.src_name),
                vec![Pred::IdEq(src_id)],
            ));
            shares.push((pmap.shard_for(req.dst_parent), dst_prim));
        } else {
            shares.push((pmap.shard_for(req.dst_parent), dst_prim));
            let mut src_assigns = vec![FieldAssign::Set {
                field: LwwField::Mtime,
                value: mtime,
                ts: now,
            }];
            if cross_parent_dir {
                src_assigns.push(FieldAssign::Delta {
                    field: NumField::Links,
                    delta: -1,
                });
            }
            let src_prim = Primitive::delete_with_update(
                Cond::require(
                    Key::entry(req.src_parent, &req.src_name),
                    vec![Pred::IdEq(src_id)],
                ),
                UpdateSpec::new(
                    Cond::require(Key::attr(req.src_parent), vec![Pred::TypeIs(FileType::Dir)]),
                    src_assigns,
                )
                .with_per_deleted(vec![(NumField::Children, -1)]),
            );
            shares.push((pmap.shard_for(req.src_parent), src_prim));
        }
        if cross_parent_dir {
            // Repoint the moved directory's parent pointer.
            let repoint = Primitive {
                update: Some(
                    UpdateSpec::new(Cond::require(Key::attr(src_id), Vec::new()), Vec::new())
                        .with_set_id(req.dst_parent),
                ),
                ..Primitive::default()
            };
            shares.push((pmap.shard_for(src_id), repoint));
        }
        if let Some(dir) = replaced_dir {
            // Remove the replaced empty directory's attr record, re-checking
            // emptiness atomically inside the shard.
            let purge = Primitive {
                deletes: vec![Cond::require(Key::attr(dir), vec![Pred::ChildrenEq(0)])],
                ..Primitive::default()
            };
            shares.push((pmap.shard_for(dir), purge));
        }

        // Row-lock every touched key (global key order across shards) so
        // concurrent single-shard primitives wait out this transaction.
        let txn = self.txn_counter.fetch_add(1, Ordering::Relaxed);
        let mut lock_keys: Vec<Key> = shares
            .iter()
            .flat_map(|(_, p)| {
                p.inserts
                    .iter()
                    .map(|(k, _)| k.clone())
                    .chain(p.deletes.iter().map(|c| c.key.clone()))
                    .chain(p.update.iter().map(|u| u.cond.key.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        cfs_tafdb::locking::sort_lock_keys(&mut lock_keys);
        lock_keys.dedup();
        let locked_shards: Vec<ShardId> = {
            let mut s: Vec<ShardId> = lock_keys.iter().map(|k| pmap.shard_for(k.kid)).collect();
            s.sort_by_key(|s| s.0);
            s.dedup();
            s
        };
        for key in &lock_keys {
            let shard = pmap.shard_for(key.kid);
            match self.taf.txn_request(
                shard,
                &TxnRequest::Lock {
                    txn,
                    key: key.clone(),
                },
            )? {
                TxnResponse::Ok => {}
                TxnResponse::Err(e) => {
                    self.abort(txn, &locked_shards);
                    return Err(e);
                }
                other => {
                    self.abort(txn, &locked_shards);
                    return Err(FsError::Corrupted(format!(
                        "unexpected lock resp {other:?}"
                    )));
                }
            }
        }

        // Two-phase commit: prepare every share, then commit.
        let mut participants: Vec<ShardId> = shares.iter().map(|(s, _)| *s).collect();
        participants.sort_by_key(|s| s.0);
        participants.dedup();
        for (shard, prim) in &shares {
            match self.taf.txn_request(
                *shard,
                &TxnRequest::PreparePrim {
                    txn,
                    prim: prim.clone(),
                },
            ) {
                Ok(TxnResponse::Ok) => {}
                Ok(TxnResponse::Err(e)) => {
                    self.abort(txn, &locked_shards);
                    // A failed row check: an end changed since validation.
                    return match e {
                        FsError::NotFound
                        | FsError::Conflict
                        | FsError::AlreadyExists
                        | FsError::NotEmpty => Ok(Attempt::Raced),
                        e => Err(e),
                    };
                }
                Ok(other) => {
                    self.abort(txn, &locked_shards);
                    return Err(FsError::Corrupted(format!(
                        "unexpected prepare resp {other:?}"
                    )));
                }
                Err(e) => {
                    self.abort(txn, &locked_shards);
                    return Err(e);
                }
            }
        }
        let mut commit_err: Option<FsError> = None;
        for shard in &participants {
            match self
                .taf
                .txn_request(*shard, &TxnRequest::CommitPrepared { txn })
            {
                Ok(TxnResponse::Ok) | Ok(TxnResponse::Locked(_)) => {}
                Ok(TxnResponse::Err(e)) => commit_err = Some(e),
                Err(e) => commit_err = Some(e),
            }
        }
        // Release row locks on shards that were locked but had no share
        // (never happens today: every locked key belongs to a share's shard,
        // and CommitPrepared released those).
        for shard in locked_shards.iter().filter(|s| !participants.contains(s)) {
            let _ = self.taf.txn_request(*shard, &TxnRequest::Abort { txn });
        }
        if let Some(e) = commit_err {
            return Err(e);
        }

        // FileStore phase: delete the overwritten destination file's
        // attribute and blocks (deletion order TafDB → FileStore, Figure 7).
        if let Some(ino) = replaced_file {
            self.fs.delete_file(ino)?;
        }
        Ok(Attempt::Done)
    }

    fn abort(&self, txn: u64, shards: &[ShardId]) {
        for shard in shards {
            let _ = self.taf.txn_request(*shard, &TxnRequest::Abort { txn });
        }
    }
}

/// How an attempt at a rename ended, when it did not fail.
enum Attempt {
    Done,
    /// Another op changed what the attempt validated; run it again.
    Raced,
}

/// RAII holder for either flavor of the topology lock; only its drop matters.
enum TopoGuard<'a> {
    Read(#[allow(dead_code)] parking_lot::RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] parking_lot::RwLockWriteGuard<'a, ()>),
}

struct InodeLockGuard<'a> {
    svc: &'a RenamerService,
    inos: Vec<InodeId>,
}

impl Drop for InodeLockGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.svc.inode_locks.lock();
        for i in &self.inos {
            held.remove(i);
        }
        drop(held);
        self.svc.lock_released.notify_all();
    }
}

impl Service for RenamerService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match RenameRequest::from_bytes(payload) {
            Ok(req) => match self.process(&req) {
                Ok(()) => RenameResponse::Ok,
                Err(e) => RenameResponse::Err(e),
            },
            Err(e) => RenameResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

/// Client handle for the Renamer service.
pub struct RenamerClient {
    net: Arc<Network>,
    me: NodeId,
    renamer: NodeId,
}

impl RenamerClient {
    /// Creates a client targeting the coordinator at `renamer`.
    pub fn new(net: Arc<Network>, me: NodeId, renamer: NodeId) -> RenamerClient {
        RenamerClient { net, me, renamer }
    }

    /// Executes a normal-path rename through the coordinator.
    pub fn rename(&self, req: &RenameRequest) -> FsResult<()> {
        let resp = self
            .net
            .call(self.me, self.renamer, &frame(CH_APP, &req.to_bytes()))?;
        match RenameResponse::from_bytes(&resp)? {
            RenameResponse::Ok => Ok(()),
            RenameResponse::Err(e) => Err(e),
        }
    }
}
