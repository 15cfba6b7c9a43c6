//! Durable per-replica Raft state: the log WAL, hard state, and the latest
//! snapshot.
//!
//! A [`RaftStorage`] is "the disk" of one replica. It is created *outside*
//! the [`crate::RaftNode`] and handed in at spawn, so it survives the node:
//! a simulated kill −9 drops the node (in-flight proposals, role, commit
//! knowledge, ReadIndex rounds) while the storage `Arc` — like a disk —
//! persists. Restart spawns a fresh node from the same storage, which
//! restores the state machine from the snapshot, reloads the log tail, and
//! rejoins the group.
//!
//! Every mutation is written through synchronously ([`Wal::sync`] after each
//! append), so an acked entry, a granted vote, or a bumped term is never
//! forgotten across a crash — the property Raft's safety argument assumes of
//! stable storage. The WAL sequence number *is* the Raft log index.

use std::sync::Arc;

use cfs_types::codec::{Decode, Encode};
use cfs_types::{FsResult, NodeId};
use cfs_wal::{FaultFs, Wal, WalConfig, WriteVerdict};
use parking_lot::Mutex;

use crate::msg::LogEntry;

/// Term and vote — the state a replica must never roll back.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HardState {
    /// Highest term seen.
    pub term: u64,
    /// Vote cast in `term`, if any.
    pub voted_for: Option<NodeId>,
}

/// The latest durable snapshot: a state-machine image and the log position
/// it covers. The storage holds the replica's only copy of the image, shared
/// out by `Arc` to recovery, install and InstallSnapshot streaming.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotBlob {
    /// Last log index the image covers.
    pub index: u64,
    /// Term of the entry at `index`.
    pub term: u64,
    /// Serialized state-machine image.
    pub data: Vec<u8>,
}

/// Everything recovered from a [`RaftStorage`] at node spawn.
pub struct Recovered {
    /// Persisted term and vote.
    pub hard: HardState,
    /// Latest snapshot, if one was ever taken.
    pub snapshot: Option<Arc<SnapshotBlob>>,
    /// Log entries after the snapshot, contiguous from
    /// `snapshot.index + 1` (or from 1 without a snapshot).
    pub entries: Vec<LogEntry>,
}

/// Durable state of one Raft replica (log + hard state + snapshot).
pub struct RaftStorage {
    wal: Wal,
    hard: Mutex<HardState>,
    snap: Mutex<Option<Arc<SnapshotBlob>>>,
}

impl RaftStorage {
    /// Creates storage whose log lives in memory. This is still "durable"
    /// under the harness's simulated kill −9 — the storage `Arc` plays the
    /// role of the disk and outlives the node — while staying deterministic
    /// and fast for the seeded simulation.
    pub fn new_in_memory() -> Arc<RaftStorage> {
        Arc::new(RaftStorage {
            wal: Wal::new_in_memory(),
            hard: Mutex::new(HardState::default()),
            snap: Mutex::new(None),
        })
    }

    /// Creates storage over a file-backed WAL (the log survives process
    /// death; hard state and snapshots survive the simulated kill only —
    /// full-process snapshot durability is the kvstore checkpoint's job).
    pub fn with_wal_config(config: WalConfig) -> cfs_types::FsResult<Arc<RaftStorage>> {
        Ok(Arc::new(RaftStorage {
            wal: Wal::with_config(config)?,
            hard: Mutex::new(HardState::default()),
            snap: Mutex::new(None),
        }))
    }

    /// Reads everything back at node spawn. Entries below the snapshot index
    /// are skipped; a gap or an undecodable record (a torn write) truncates
    /// recovery there — and physically truncates the unreachable suffix, the
    /// way reopening a file-backed log cuts its torn tail — so the leader
    /// re-replicates the missing entries onto a clean log.
    pub fn recover(&self) -> Recovered {
        let hard = *self.hard.lock();
        let snapshot = self.snap.lock().clone();
        let base = snapshot.as_ref().map_or(0, |s| s.index);
        let mut entries = Vec::new();
        let mut next = base + 1;
        for (expect, we) in (base + 1..).zip(self.wal.read_from(base + 1)) {
            if we.seq != expect {
                break;
            }
            let Ok(entry) = LogEntry::from_bytes(&we.payload) else {
                break;
            };
            entries.push(entry);
            next = expect + 1;
        }
        if self.wal.last_seq() >= next {
            self.wal.truncate_suffix(next);
        }
        Recovered {
            hard,
            snapshot,
            entries,
        }
    }

    /// Appends `entries` at `first_index` (contiguous with the retained log)
    /// and syncs. The sync is where an injected `slow_fsync` stall bites;
    /// disk-full and torn-write faults surface here as typed errors the node
    /// degrades on instead of panicking.
    pub fn append(&self, first_index: u64, entries: &[LogEntry]) -> FsResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        debug_assert_eq!(self.wal.last_seq().max(first_index - 1), first_index - 1);
        self.wal
            .append_batch(entries.iter().map(Encode::to_bytes))?;
        self.wal.sync()
    }

    /// Drops persisted entries with index `>= from` (conflict resolution).
    pub fn truncate_from(&self, from: u64) {
        self.wal.truncate_suffix(from);
    }

    /// Persists the current term and vote (before any reply that promises
    /// them).
    pub fn save_hard_state(&self, term: u64, voted_for: Option<NodeId>) {
        *self.hard.lock() = HardState { term, voted_for };
    }

    /// Charges a snapshot image of `len` bytes against the simulated volume.
    /// Snapshot sidecars are written atomically (temp + rename in the real
    /// deployment), so any injected fault leaves the previous snapshot in
    /// place: the image is either fully durable or not written at all.
    fn charge_snapshot(&self, len: u64) -> FsResult<()> {
        match self.wal.faults().before_write(len) {
            WriteVerdict::Ok => Ok(()),
            WriteVerdict::NoSpace => Err(cfs_types::FsError::NoSpace),
            WriteVerdict::Torn(_) | WriteVerdict::Wedged => Err(cfs_types::FsError::Io(
                "simulated fault while writing snapshot sidecar".into(),
            )),
        }
    }

    /// Records a snapshot taken locally at `index` and prefix-truncates the
    /// persisted log behind it (leader/follower compaction: the tail after
    /// `index` is kept). On an injected storage fault nothing changes — the
    /// caller skips compaction and retries after the next applies.
    pub fn save_snapshot(&self, index: u64, term: u64, data: Vec<u8>) -> FsResult<()> {
        self.charge_snapshot(data.len() as u64)?;
        *self.snap.lock() = Some(Arc::new(SnapshotBlob { index, term, data }));
        self.wal.truncate_prefix(index);
        Ok(())
    }

    /// Installs a snapshot streamed from the leader: the entire retained log
    /// is discarded (InstallSnapshot replaces the replica's history
    /// wholesale). Returns the installed snapshot, for the caller to restore
    /// its state machine from. On an injected storage fault nothing is
    /// installed.
    pub fn reset_to_snapshot(
        &self,
        index: u64,
        term: u64,
        data: Vec<u8>,
    ) -> FsResult<Arc<SnapshotBlob>> {
        self.charge_snapshot(data.len() as u64)?;
        let snap = Arc::new(SnapshotBlob { index, term, data });
        *self.snap.lock() = Some(Arc::clone(&snap));
        self.wal.reset_to(index);
        Ok(snap)
    }

    /// The latest snapshot, if any.
    pub fn snapshot(&self) -> Option<Arc<SnapshotBlob>> {
        self.snap.lock().clone()
    }

    /// Highest persisted log index (0 when empty or fully compacted).
    pub fn last_index(&self) -> u64 {
        let last = self.wal.last_seq();
        let snap = self.snap.lock().as_ref().map_or(0, |s| s.index);
        last.max(snap)
    }

    /// Injects extra per-sync latency into the log WAL (the `slow_fsync`
    /// nemesis fault); [`std::time::Duration::ZERO`] clears it.
    pub fn set_extra_sync_latency(&self, extra: std::time::Duration) {
        self.wal.set_extra_sync_latency(extra);
    }

    /// The simulated device under this replica's log, for arming disk-full,
    /// torn-write, and fsync faults.
    pub fn faults(&self) -> &Arc<FaultFs> {
        self.wal.faults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(term: u64, b: u8) -> LogEntry {
        LogEntry { term, cmd: vec![b] }
    }

    #[test]
    fn append_and_recover_round_trip() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2)]).unwrap();
        s.append(3, &[e(2, 3)]).unwrap();
        s.save_hard_state(2, Some(NodeId(7)));
        let r = s.recover();
        assert_eq!(
            r.hard,
            HardState {
                term: 2,
                voted_for: Some(NodeId(7))
            }
        );
        assert!(r.snapshot.is_none());
        assert_eq!(r.entries, vec![e(1, 1), e(1, 2), e(2, 3)]);
    }

    #[test]
    fn conflict_truncation_rewrites_the_tail() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2), e(1, 3)]).unwrap();
        s.truncate_from(2);
        s.append(2, &[e(2, 9)]).unwrap();
        let r = s.recover();
        assert_eq!(r.entries, vec![e(1, 1), e(2, 9)]);
    }

    #[test]
    fn snapshot_compacts_the_recovered_prefix() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2), e(1, 3), e(1, 4)]).unwrap();
        s.save_snapshot(3, 1, b"image".to_vec()).unwrap();
        let r = s.recover();
        let snap = r.snapshot.unwrap();
        assert_eq!((snap.index, snap.term), (3, 1));
        assert_eq!(snap.data, b"image");
        assert_eq!(r.entries, vec![e(1, 4)], "only the tail past the snapshot");
        assert_eq!(s.last_index(), 4);
    }

    #[test]
    fn install_discards_the_whole_log() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2), e(1, 3)]).unwrap();
        s.reset_to_snapshot(10, 2, b"img".to_vec()).unwrap();
        let r = s.recover();
        assert_eq!(r.snapshot.unwrap().index, 10);
        assert!(r.entries.is_empty());
        assert_eq!(s.last_index(), 10);
        // Appends resume after the snapshot index.
        s.append(11, &[e(3, 9)]).unwrap();
        assert_eq!(s.recover().entries, vec![e(3, 9)]);
    }

    #[test]
    fn enospc_append_is_a_typed_error_and_heals_when_space_returns() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1)]).unwrap();
        s.faults().set_byte_budget(Some(0));
        assert_eq!(s.append(2, &[e(1, 2)]), Err(cfs_types::FsError::NoSpace));
        assert_eq!(s.last_index(), 1, "rejected entry must not be persisted");
        s.faults().clear();
        s.append(2, &[e(1, 2)]).unwrap();
        assert_eq!(s.recover().entries, vec![e(1, 1), e(1, 2)]);
    }

    #[test]
    fn enospc_snapshot_leaves_the_previous_snapshot_intact() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2), e(1, 3)]).unwrap();
        s.save_snapshot(2, 1, b"old".to_vec()).unwrap();
        s.faults().set_byte_budget(Some(1));
        assert_eq!(
            s.save_snapshot(3, 1, b"new-image".to_vec()),
            Err(cfs_types::FsError::NoSpace)
        );
        assert_eq!(s.snapshot().unwrap().data, b"old");
        assert_eq!(
            s.recover().entries,
            vec![e(1, 3)],
            "log behind the failed snapshot must not be truncated"
        );
    }

    #[test]
    fn torn_append_keeps_the_batch_prefix_and_recovery_resumes_cleanly() {
        let s = RaftStorage::new_in_memory();
        s.append(1, &[e(1, 1), e(1, 2)]).unwrap();
        // Tear the next write mid-batch; the device wedges afterwards, like a
        // disk that died between the torn write(2) and the process kill.
        s.faults().arm_torn_write(500_000);
        assert!(s.append(3, &[e(1, 3), e(1, 4), e(1, 5)]).is_err());
        assert!(s.append(6, &[e(1, 6)]).is_err(), "wedged until healed");
        // "Restart": heal the device and recover. Whatever whole records
        // landed before the tear survive; the rest is truncated so the log
        // stays contiguous and the leader re-replicates the missing suffix.
        s.faults().clear();
        let r = s.recover();
        assert!(r.entries.len() >= 2, "synced prefix must survive");
        assert!(r.entries.len() < 5, "the tear must lose a suffix");
        assert_eq!(r.entries[..2], [e(1, 1), e(1, 2)]);
        let next = r.entries.len() as u64 + 1;
        assert_eq!(s.last_index(), next - 1);
        s.append(next, &[e(2, 9)]).unwrap();
        let r2 = s.recover();
        assert_eq!(*r2.entries.last().unwrap(), e(2, 9));
        assert_eq!(r2.entries.len() as u64, next);
    }
}
