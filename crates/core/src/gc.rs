//! The garbage collector (paper §4.4).
//!
//! Because both TafDB and FileStore are Raft-protected, inconsistencies only
//! arise when a *client* crashes (or is partitioned away) between the two
//! phases of a metadata request. The collector watches the logical change
//! streams both tiers publish alongside their WALs and performs the paper's
//! *pairing analysis*:
//!
//! * a FileStore `AttrPut` with no paired TafDB id-record insert after the
//!   grace period is a crashed `create` — the orphaned attribute is deleted;
//! * a TafDB id-record delete with no paired FileStore `AttrDeleted` (and no
//!   re-insert, which is what a rename looks like) is a crashed
//!   `unlink`/`rename` — the leftover attribute and blocks are deleted;
//! * on-demand mode ([`repair_dangling_entry`]) handles the dangling id
//!   records a crashed `rmdir`/`unlink` leaves behind, triggered when
//!   `getattr`/`readdir` fail to fetch attribute records.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_filestore::FileStoreClient;
use cfs_obs::metrics::Counter;
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::TafDbClient;
use cfs_types::codec::Decode;
use cfs_types::record::{FieldAssign, NumField, Pred};
use cfs_types::{CdcEvent, Cond, FileType, FsResult, InodeId, Key};
use cfs_wal::WalWatcher;
use parking_lot::Mutex;

/// Per-inode pairing state.
#[derive(Debug, Default)]
struct InoState {
    inserts: u32,
    deletes: u32,
    attr_put: bool,
    attr_deleted: bool,
    /// True when the inode is a directory (its attribute lives in TafDB).
    dir_attr_put: bool,
    dir_attr_deleted: bool,
    last_event: Option<Instant>,
}

/// The background collector.
pub struct GarbageCollector {
    taf_watchers: Mutex<Vec<WalWatcher>>,
    fs_watchers: Mutex<Vec<WalWatcher>>,
    taf: TafDbClient,
    fs: FileStoreClient,
    state: Mutex<HashMap<InodeId, InoState>>,
    /// Counters in the registry of the collector's own node (its TafDB
    /// client's address): `gc_events_processed`, `gc_orphan_attrs_removed`
    /// (crashed creates) and `gc_stale_attrs_removed` (crashed unlinks).
    events_processed: Arc<Counter>,
    orphan_attrs_removed: Arc<Counter>,
    stale_attrs_removed: Arc<Counter>,
    /// How long an unpaired event must stay unpaired before being treated as
    /// an orphan.
    pub grace: Duration,
}

impl GarbageCollector {
    /// Creates a collector over the given change-stream watchers and repair
    /// clients.
    pub fn new(
        taf_watchers: Vec<WalWatcher>,
        fs_watchers: Vec<WalWatcher>,
        taf: TafDbClient,
        fs: FileStoreClient,
        grace: Duration,
    ) -> GarbageCollector {
        let reg = cfs_obs::metrics::node(taf.node().0 as u64);
        GarbageCollector {
            taf_watchers: Mutex::new(taf_watchers),
            fs_watchers: Mutex::new(fs_watchers),
            taf,
            fs,
            state: Mutex::new(HashMap::new()),
            events_processed: reg.counter("gc_events_processed"),
            orphan_attrs_removed: reg.counter("gc_orphan_attrs_removed"),
            stale_attrs_removed: reg.counter("gc_stale_attrs_removed"),
            grace,
        }
    }

    /// The node whose registry holds the collector's `gc_*` counters.
    pub fn node(&self) -> cfs_types::NodeId {
        self.taf.node()
    }

    fn ingest(&self) {
        let now = Instant::now();
        let mut events = Vec::new();
        for watchers in [&self.taf_watchers, &self.fs_watchers] {
            for w in watchers.lock().iter_mut() {
                for entry in w.poll() {
                    if let Ok(e) = CdcEvent::from_bytes(&entry.payload) {
                        events.push(e);
                    }
                }
                // The collector is the stream's one consumer: what it has
                // ingested lives on in `state`, so the stream may forget it.
                w.release_consumed();
            }
        }
        let mut state = self.state.lock();
        for e in events {
            self.events_processed.inc();
            let s = state.entry(e.ino()).or_default();
            s.last_event = Some(now);
            match e {
                CdcEvent::TafInsertedId { .. } => s.inserts += 1,
                CdcEvent::TafDeletedId { .. } => s.deletes += 1,
                CdcEvent::TafPutDirAttr { .. } => s.dir_attr_put = true,
                CdcEvent::TafDeletedDirAttr { .. } => s.dir_attr_deleted = true,
                CdcEvent::AttrPut { .. } => s.attr_put = true,
                CdcEvent::AttrDeleted { .. } => s.attr_deleted = true,
            }
        }
    }

    /// Runs one collection cycle: ingest fresh events, then sweep pairing
    /// state that has been quiet for longer than the grace period.
    pub fn run_once(&self) -> FsResult<()> {
        self.ingest();
        let now = Instant::now();
        let expired: Vec<(InodeId, InoState)> = {
            let mut state = self.state.lock();
            let keys: Vec<InodeId> = state
                .iter()
                .filter(|(_, s)| {
                    s.last_event
                        .is_some_and(|t| now.duration_since(t) >= self.grace)
                })
                .map(|(k, _)| *k)
                .collect();
            keys.into_iter()
                .filter_map(|k| state.remove(&k).map(|s| (k, s)))
                .collect()
        };
        for (ino, s) in expired {
            let net = i64::from(s.inserts) - i64::from(s.deletes);
            if s.attr_put && s.inserts == 0 && !s.attr_deleted {
                // Crashed create: the attribute was written but never linked.
                self.fs.delete_file(ino)?;
                self.orphan_attrs_removed.inc();
            } else if net < 0 {
                // Crashed unlink / rename: the link is gone, attribute state
                // may linger in either tier. All deletions are idempotent.
                if !s.attr_deleted {
                    self.fs.delete_file(ino)?;
                }
                if s.dir_attr_put && !s.dir_attr_deleted {
                    self.taf.delete(Key::attr(ino))?;
                }
                self.stale_attrs_removed.inc();
            }
        }
        Ok(())
    }

    /// Starts the interval mode in a background thread.
    pub fn start(self: Arc<Self>, interval: Duration) -> GcHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cfs-gc".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    let _ = self.run_once();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn gc thread");
        GcHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle stopping a background collector on drop.
pub struct GcHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for GcHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// On-demand repair of a dangling id record: called when `getattr` finds an
/// id record whose attribute no longer exists anywhere (crashed `rmdir` or a
/// crash between the id-record removal and attribute cleanup).
///
/// Verifies the attribute truly is gone from TafDB before unlinking the
/// record — a merely-slow create is left alone because its id record points
/// at an attribute that exists. A repair counts in `gc_dangling_entries_repaired`
/// of the calling client's node.
pub fn repair_dangling_entry(
    taf: &TafDbClient,
    parent: InodeId,
    name: &str,
    ino: InodeId,
) -> FsResult<bool> {
    // A directory's attribute record lives in TafDB.
    if taf.get(&Key::attr(ino))?.is_some() {
        return Ok(false);
    }
    let prim = Primitive::delete_with_update(
        Cond::require(Key::entry(parent, name), vec![Pred::IdEq(ino)]),
        UpdateSpec::new(
            Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
            vec![FieldAssign::Delta {
                field: NumField::Children,
                delta: -1,
            }],
        ),
    );
    match taf.execute(prim) {
        Ok(_) => {
            // A rare repair path: the one lookup per repair is not worth a
            // cached handle in every client.
            cfs_obs::metrics::node(taf.node().0 as u64)
                .counter("gc_dangling_entries_repaired")
                .inc();
            Ok(true)
        }
        Err(cfs_types::FsError::NotFound) | Err(cfs_types::FsError::Conflict) => Ok(false),
        Err(e) => Err(e),
    }
}
