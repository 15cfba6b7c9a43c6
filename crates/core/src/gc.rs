//! The garbage collector (paper §4.4).
//!
//! Because both TafDB and FileStore are Raft-protected, inconsistencies only
//! arise when a *client* crashes (or is partitioned away) between the two
//! phases of a metadata request. The paper's collector watches both tiers'
//! WALs and pairs their mutations. Here each TafDB shard and each FileStore
//! node keeps the mutations nothing has paired yet as replicated state, its
//! pending table ([`cfs_types::pending`]); the collector reads every current
//! group's rows (ReadIndex-confirmed, so never from a deposed leader), merges
//! them per inode, and performs the paper's *pairing analysis* on an inode
//! once its merged rows have stayed unchanged for the grace period:
//!
//! * a FileStore attribute put with no TafDB link is a crashed `create` —
//!   the orphaned attribute is deleted;
//! * more TafDB unlinks than links (a rename unlinks and links once each) is
//!   a crashed `unlink`/`rename` — the attribute the link left behind is
//!   deleted: the file's in FileStore, with its blocks, or the directory's
//!   in TafDB;
//! * more TafDB links than unlinks with no attribute put is a crashed
//!   `create` whose link landed but whose attribute did not (a create
//!   writes the two at once), or a crashed `rmdir` — if the attribute is
//!   absent from both FileStore and TafDB when read back, each entry the
//!   inode's `Linked` rows name is unlinked. The read-back is what keeps a
//!   live inode whose attribute row was trimmed before its link row safe.
//!
//! Readers never repair: `getattr` on a link whose attribute is missing
//! reports `NotFound` and leaves the link alone, since it cannot tell a
//! crashed create from one still in flight. Grace is what tells them apart
//! here — a create whose attribute write stalls past it loses its link, as
//! one whose link stalls past it loses its attribute.
//!
//! Only once an inode's repair has succeeded does the collector drop its
//! rows, with replicated trims per group that remove exactly the rows it read
//! if they are still unchanged; a failed repair leaves them for the next
//! cycle. A live file keeps its rows until they are trimmed, and the
//! opposite event cancels a row, so no history is needed to tell a live
//! file from an orphan — a replica that caught up by snapshot holds the same
//! rows as one that applied every entry.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_filestore::FileStoreClient;
use cfs_obs::metrics::Counter;
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::TafDbClient;
use cfs_types::record::{FieldAssign, NumField, Pred};
use cfs_types::{
    Cond, FileType, FsError, FsResult, InodeId, Key, PendingEvent, PendingRow, ShardId,
};
use parking_lot::Mutex;

/// The replicated group a pending row was read from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Group {
    Taf(ShardId),
    /// A FileStore logical node, by index in the layout.
    Fs(usize),
}

/// One inode's merged rows, as last read.
type Rows = Vec<(Group, PendingRow)>;

/// An inode's rows and when they last changed.
struct Seen {
    rows: Rows,
    since: Instant,
}

/// The background collector.
pub struct GarbageCollector {
    taf: TafDbClient,
    fs: FileStoreClient,
    seen: Mutex<HashMap<InodeId, Seen>>,
    /// Counters in the registry of the collector's own node (its TafDB
    /// client's address): `gc_rows_trimmed`, `gc_orphan_attrs_removed`
    /// (crashed creates), `gc_stale_attrs_removed` (crashed unlinks) and
    /// `gc_dangling_entries_repaired` (links left without an attribute).
    rows_trimmed: Arc<Counter>,
    orphan_attrs_removed: Arc<Counter>,
    stale_attrs_removed: Arc<Counter>,
    dangling_entries_repaired: Arc<Counter>,
    /// How long an inode's rows must stay unchanged before they are paired.
    pub grace: Duration,
}

impl GarbageCollector {
    /// Creates a collector that reads pending rows and repairs through the
    /// given clients: every shard of the TafDB client's partition map and
    /// every node of the FileStore client's layout, as they are at each
    /// cycle.
    pub fn new(taf: TafDbClient, fs: FileStoreClient, grace: Duration) -> GarbageCollector {
        let reg = cfs_obs::metrics::node(taf.node().0 as u64);
        GarbageCollector {
            taf,
            fs,
            seen: Mutex::new(HashMap::new()),
            rows_trimmed: reg.counter("gc_rows_trimmed"),
            orphan_attrs_removed: reg.counter("gc_orphan_attrs_removed"),
            stale_attrs_removed: reg.counter("gc_stale_attrs_removed"),
            dangling_entries_repaired: reg.counter("gc_dangling_entries_repaired"),
            grace,
        }
    }

    /// The node whose registry holds the collector's `gc_*` counters.
    pub fn node(&self) -> cfs_types::NodeId {
        self.taf.node()
    }

    /// Every current group's rows, read under a ReadIndex confirmation and
    /// merged per inode. Fails if any group cannot be read: pairing half the
    /// rows could take a live file for an orphan.
    fn read_rows(&self) -> FsResult<BTreeMap<InodeId, Rows>> {
        let mut shards: Vec<ShardId> = self
            .taf
            .partition_map()
            .shards()
            .into_iter()
            .map(|s| s.id)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        let mut merged: BTreeMap<InodeId, Rows> = BTreeMap::new();
        let mut add = |group: Group, rows: Vec<PendingRow>| {
            for row in rows {
                merged.entry(row.ino).or_default().push((group, row));
            }
        };
        for shard in shards {
            add(Group::Taf(shard), self.taf.pending(shard)?);
        }
        for node in 0..self.fs.layout().num_nodes() {
            add(Group::Fs(node), self.fs.pending(node)?);
        }
        Ok(merged)
    }

    /// Runs one collection cycle: read every group's rows, restart the grace
    /// clock of every inode whose rows changed, repair the inodes whose rows
    /// outlived the grace period, and trim the rows of those repaired. The
    /// first error is returned after the rest of the cycle has run.
    pub fn run_once(&self) -> FsResult<()> {
        let merged = self.read_rows()?;
        let now = Instant::now();
        let settled: Vec<(InodeId, Rows)> = {
            let mut seen = self.seen.lock();
            seen.retain(|ino, _| merged.contains_key(ino));
            let mut settled = Vec::new();
            for (ino, rows) in merged {
                match seen.get(&ino) {
                    Some(s) if s.rows == rows => {
                        if now.duration_since(s.since) >= self.grace {
                            settled.push((ino, rows));
                        }
                    }
                    _ => {
                        seen.insert(ino, Seen { rows, since: now });
                    }
                }
            }
            settled
        };
        let mut first_err = None;
        let mut repaired = Vec::new();
        for (ino, rows) in settled {
            match self.repair(ino, &rows) {
                Ok(()) => repaired.push((ino, rows)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        // A row whose partner is trimmed first can pass for a crash on its
        // own: an attribute put or an unlink whose link is gone. So those
        // rows, and directory-attribute puts, are trimmed first, and the
        // rest of an inode's rows only once all of its first trims succeeded.
        let first = |e| {
            matches!(
                e,
                PendingEvent::AttrPut | PendingEvent::Unlinked | PendingEvent::DirAttrPut
            )
        };
        let mut unsettled = HashSet::new();
        for phase in [true, false] {
            let mut trims: BTreeMap<Group, Vec<PendingRow>> = BTreeMap::new();
            for (ino, rows) in &repaired {
                if unsettled.contains(ino) {
                    continue;
                }
                for (group, row) in rows.iter().filter(|(_, r)| first(r.event) == phase) {
                    trims.entry(*group).or_default().push(row.clone());
                }
            }
            for (group, rows) in trims {
                let inos: Vec<InodeId> = rows.iter().map(|r| r.ino).collect();
                let n = rows.len() as u64;
                let trimmed = match group {
                    Group::Taf(shard) => self.taf.gc_trim(shard, rows),
                    Group::Fs(node) => self.fs.gc_trim(node, rows),
                };
                match trimmed {
                    Ok(()) => self.rows_trimmed.add(n),
                    Err(e) => {
                        unsettled.extend(inos);
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Applies the pairing rules to one inode's settled rows. Deletions are
    /// idempotent, so a repair retried after a failed trim is harmless.
    fn repair(&self, ino: InodeId, rows: &Rows) -> FsResult<()> {
        let has = |event| rows.iter().any(|(_, r)| r.event == event);
        let count = |event| rows.iter().filter(|(_, r)| r.event == event).count();
        let links = count(PendingEvent::Linked);
        let unlinks = count(PendingEvent::Unlinked);
        if has(PendingEvent::AttrPut) && links == 0 {
            // Crashed create: the attribute was written but never linked.
            self.fs.delete_file(ino)?;
            self.orphan_attrs_removed.inc();
        } else if unlinks > links {
            // Crashed unlink / rename: the link is gone, its attribute may
            // linger. A deleted attribute record means nothing lingers.
            if has(PendingEvent::DirAttrPut) {
                self.taf.delete(Key::attr(ino))?;
                self.stale_attrs_removed.inc();
            } else if !has(PendingEvent::AttrDeleted) && !has(PendingEvent::DirAttrDeleted) {
                self.fs.delete_file(ino)?;
                self.stale_attrs_removed.inc();
            }
        } else if links > unlinks
            && !has(PendingEvent::AttrPut)
            && !has(PendingEvent::DirAttrPut)
            && self.fs.get_attr(ino)?.is_none()
            && self.taf.get(&Key::attr(ino))?.is_none()
        {
            // Crashed create (link without attribute) or rmdir (attribute
            // deleted, link kept): every entry still naming the inode dangles.
            for (_, row) in rows.iter().filter(|(_, r)| r.event == PendingEvent::Linked) {
                let entry = Key::from_sortable_bytes(&row.key)
                    .map_err(|e| FsError::Corrupted(format!("pending link key: {e:?}")))?;
                if self.unlink_dangling(entry, ino)? {
                    self.dangling_entries_repaired.inc();
                }
            }
        }
        Ok(())
    }

    /// Unlinks the entry at `entry` if it still names `ino`; false when it
    /// is already gone or names another inode.
    fn unlink_dangling(&self, entry: Key, ino: InodeId) -> FsResult<bool> {
        let Some(rec) = self.taf.get(&entry)?.filter(|r| r.id == Some(ino)) else {
            return Ok(false);
        };
        self.unlink_guarded(entry, ino, rec.ftype)
    }

    /// Removes the entry at `entry`, and its share of the parent's counts,
    /// only if it names `ino` (of type `ftype`); false when it is gone or has
    /// been re-pointed at another inode since it was read, which leaves
    /// nothing of `ino`'s to remove.
    fn unlink_guarded(&self, entry: Key, ino: InodeId, ftype: Option<FileType>) -> FsResult<bool> {
        let parent = entry.kid;
        let mut assigns = vec![FieldAssign::Delta {
            field: NumField::Children,
            delta: -1,
        }];
        if ftype == Some(FileType::Dir) {
            // A child directory holds a link on its parent.
            assigns.push(FieldAssign::Delta {
                field: NumField::Links,
                delta: -1,
            });
        }
        let prim = Primitive::delete_with_update(
            Cond::require(entry, vec![Pred::IdEq(ino)]),
            UpdateSpec::new(
                Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
                assigns,
            ),
        );
        match self.taf.execute(prim) {
            Ok(_) => Ok(true),
            Err(FsError::NotFound | FsError::Conflict) => Ok(false),
            Err(e) => Err(e),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CfsCluster, CfsConfig, FileSystem};

    #[test]
    fn guarded_unlink_of_a_repointed_entry_removes_nothing() {
        let c = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
        let fs = c.client();
        fs.mkdir("/d").unwrap();
        let live = fs.create("/d/f").unwrap();
        let entry = Key::entry(fs.lookup("/d").unwrap(), "f");
        let gc = c.garbage_collector(Duration::from_millis(100));
        // The collector read the entry naming a dead inode; it has named
        // `live` since, so the guard fails and nothing is removed.
        let dead = InodeId(live.raw() + 1_000_000);
        let started = Instant::now();
        assert_eq!(
            gc.unlink_guarded(entry, dead, Some(FileType::File)),
            Ok(false)
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a failed guard answers at once, not at the retry deadline: {:?}",
            started.elapsed()
        );
        assert_eq!(fs.getattr("/d/f").unwrap().ino, live);
        assert_eq!(fs.getattr("/d").unwrap().children, 1);
        gc.run_once().unwrap();
    }
}
