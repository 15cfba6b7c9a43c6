//! The write-ahead log implementation.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cfs_types::{FsError, FsResult};
use parking_lot::Mutex;

use crate::crc32::crc32;
use crate::fault::{FaultFs, SyncVerdict, WriteVerdict};

/// One appended log entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalEntry {
    /// Sequence number, contiguous from 1 within a log.
    pub seq: u64,
    /// Opaque payload, encoded by the owning component.
    pub payload: Vec<u8>,
}

/// Configuration of a [`Wal`].
#[derive(Clone, Debug, Default)]
pub struct WalConfig {
    /// Backing file. `None` keeps the log purely in memory (the default for
    /// benches, where replication already provides durability in the model).
    pub path: Option<PathBuf>,
    /// Simulated device sync cost added to every [`Wal::sync`], modelling the
    /// NVMe-SSD flush of the paper's deployment.
    pub sync_latency: Duration,
    /// The simulated device under this log. `None` gives the log a private
    /// healthy [`FaultFs`]; pass a shared handle to put several logs (e.g. a
    /// store's WAL and its checkpoint sidecar) on the same faulty volume.
    pub faults: Option<Arc<FaultFs>>,
}

struct State {
    /// Retained entries; the front has sequence `first_seq`.
    entries: VecDeque<WalEntry>,
    /// Sequence of the first retained entry (prefix-truncated entries are
    /// gone from memory but their sequence numbers are never reused).
    first_seq: u64,
    /// Highest appended sequence, 0 when empty.
    last_seq: u64,
    /// Highest sequence known to be durable.
    synced_seq: u64,
    writer: Option<BufWriter<File>>,
}

struct Inner {
    state: Mutex<State>,
    config: WalConfig,
    /// Runtime-adjustable *extra* sync latency in nanoseconds, added on top
    /// of [`WalConfig::sync_latency`]. The `slow_fsync` nemesis fault raises
    /// it for a window to model a device whose flushes suddenly stall.
    extra_sync_ns: AtomicU64,
    /// The simulated device: disk-full, torn-write, and fsync faults.
    faults: Arc<FaultFs>,
}

/// An append-only, CRC-protected write-ahead log.
///
/// Cloning is cheap and shares the underlying log (the clone is another
/// handle to the same device, entries, and cursors).
#[derive(Clone)]
pub struct Wal {
    inner: Arc<Inner>,
}

impl Wal {
    /// Creates an in-memory log (no file persistence).
    pub fn new_in_memory() -> Wal {
        Wal::with_config(WalConfig::default()).expect("in-memory wal cannot fail")
    }

    /// Opens or creates a log with the given configuration, replaying any
    /// existing file content. A corrupt or torn tail is truncated, mirroring
    /// crash recovery of production logs — except when the simulated device
    /// itself rotted the read ([`FaultFs::arm_bit_rot`]): a CRC mismatch on
    /// a bit-rotted replay surfaces as a typed
    /// [`cfs_types::StorageError::Corrupt`] error instead, so the replica
    /// fails loudly rather than silently discarding durable history.
    pub fn with_config(config: WalConfig) -> FsResult<Wal> {
        let faults = config.faults.clone().unwrap_or_default();
        let mut entries = VecDeque::new();
        let mut last_seq = 0u64;
        let mut writer = None;
        if let Some(path) = &config.path {
            let mut valid_len = 0u64;
            if path.exists() {
                let mut buf = Vec::new();
                File::open(path)?.read_to_end(&mut buf)?;
                let rotted = faults.corrupt_read(&mut buf);
                let mut pos = 0usize;
                loop {
                    match decode_entry(&buf, pos) {
                        Decoded::Entry(entry, next) => {
                            // Sequence numbers must be contiguous; a gap
                            // means the file was corrupted in the middle —
                            // stop there.
                            if last_seq != 0 && entry.seq != last_seq + 1 {
                                break;
                            }
                            last_seq = entry.seq;
                            entries.push_back(entry);
                            valid_len = next as u64;
                            pos = next;
                        }
                        Decoded::BadCrc if rotted > 0 => {
                            return Err(cfs_types::StorageError::Corrupt(format!(
                                "wal {}: crc mismatch at offset {pos} on a \
                                 bit-rotted read ({rotted} corrupted bytes)",
                                path.display()
                            ))
                            .into());
                        }
                        // An un-rotted CRC mismatch or a short tail is crash
                        // garbage: truncate and move on, as before.
                        Decoded::BadCrc | Decoded::Truncated => break,
                    }
                }
            }
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            // Drop any torn tail so future appends start at a clean offset.
            if path.metadata()?.len() > valid_len {
                file.set_len(valid_len)?;
            }
            writer = Some(BufWriter::new(file));
        }
        let first_seq = entries.front().map_or(last_seq + 1, |e| e.seq);
        Ok(Wal {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    entries,
                    first_seq,
                    last_seq,
                    synced_seq: last_seq,
                    writer,
                }),
                config,
                extra_sync_ns: AtomicU64::new(0),
                faults,
            }),
        })
    }

    /// The simulated device under this log, for arming storage faults.
    pub fn faults(&self) -> &Arc<FaultFs> {
        &self.inner.faults
    }

    /// Appends one payload, returning its sequence number.
    pub fn append(&self, payload: Vec<u8>) -> FsResult<u64> {
        Ok(self.append_batch(std::iter::once(payload))?.1)
    }

    /// Appends a batch atomically, returning the `(first, last)` sequence
    /// numbers assigned. Group commit: one lock acquisition, one buffered
    /// write per batch.
    ///
    /// Injected storage faults surface here: a volume over its byte budget
    /// rejects the whole batch with [`FsError::NoSpace`] (nothing is
    /// appended), and an armed torn write persists only the records that fit
    /// before the tear, fails the call, and wedges the device — exactly the
    /// state a crash mid-`write(2)` leaves behind.
    pub fn append_batch(
        &self,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) -> FsResult<(u64, u64)> {
        let payloads: Vec<Vec<u8>> = payloads.into_iter().collect();
        if payloads.is_empty() {
            return Err(FsError::Invalid("empty wal batch".into()));
        }
        let total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let mut st = self.inner.state.lock();
        let verdict = self.inner.faults.before_write(total);
        let keep = match verdict {
            WriteVerdict::Ok => None,
            WriteVerdict::NoSpace => return Err(FsError::NoSpace),
            WriteVerdict::Wedged => {
                return Err(FsError::Io("simulated storage device is wedged".into()))
            }
            WriteVerdict::Torn(keep) => Some(keep as u64),
        };
        let first = st.last_seq + 1;
        let mut seq = st.last_seq;
        let mut file_buf = Vec::new();
        let mut written = 0u64;
        for payload in payloads {
            if let Some(keep) = keep {
                if written + payload.len() as u64 > keep {
                    // The tear lands inside this record: the file gets the
                    // record's torn prefix (discarded as garbage at reopen),
                    // memory gets nothing, and the rest of the batch is lost.
                    if st.writer.is_some() {
                        let mut torn = Vec::new();
                        encode_entry(seq + 1, &payload, &mut torn);
                        torn.truncate((keep - written) as usize);
                        file_buf.extend_from_slice(&torn);
                    }
                    break;
                }
            }
            seq += 1;
            written += payload.len() as u64;
            if st.writer.is_some() {
                encode_entry(seq, &payload, &mut file_buf);
            }
            st.entries.push_back(WalEntry { seq, payload });
        }
        st.last_seq = seq;
        if let Some(w) = st.writer.as_mut() {
            w.write_all(&file_buf)?;
        }
        drop(st);
        if keep.is_some() {
            return Err(FsError::Io("simulated torn write".into()));
        }
        Ok((first, seq))
    }

    /// Forces durability of everything appended so far.
    ///
    /// A wedged device (post-tear) fails the sync; a lying device
    /// ([`FaultFs::set_drop_syncs`]) reports success without flushing.
    pub fn sync(&self) -> FsResult<()> {
        let mut st = self.inner.state.lock();
        match self.inner.faults.before_sync() {
            SyncVerdict::Ok => {
                if let Some(w) = st.writer.as_mut() {
                    w.flush()?;
                    w.get_ref().sync_data()?;
                }
            }
            SyncVerdict::Drop => {}
            SyncVerdict::Wedged => {
                return Err(FsError::Io("simulated storage device is wedged".into()))
            }
        }
        st.synced_seq = st.last_seq;
        let lat = self.inner.config.sync_latency
            + Duration::from_nanos(self.inner.extra_sync_ns.load(Ordering::Relaxed));
        drop(st);
        if !lat.is_zero() {
            cfs_rpc::latency::busy_wait(lat);
        }
        Ok(())
    }

    /// Sets the *extra* per-[`Wal::sync`] latency injected on top of the
    /// configured [`WalConfig::sync_latency`]. Fault injection uses this to
    /// open and close `slow_fsync` windows at run time; pass
    /// [`Duration::ZERO`] to close the window.
    pub fn set_extra_sync_latency(&self, extra: Duration) {
        self.inner
            .extra_sync_ns
            .store(extra.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Highest appended sequence (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.inner.state.lock().last_seq
    }

    /// Highest durable sequence.
    pub fn synced_seq(&self) -> u64 {
        self.inner.state.lock().synced_seq
    }

    /// Returns the retained entries with `seq >= from`, in order.
    pub fn read_from(&self, from: u64) -> Vec<WalEntry> {
        let st = self.inner.state.lock();
        st.entries
            .iter()
            .filter(|e| e.seq >= from)
            .cloned()
            .collect()
    }

    /// Returns the entry with exactly sequence `seq`, if retained.
    pub fn get(&self, seq: u64) -> Option<WalEntry> {
        let st = self.inner.state.lock();
        if seq < st.first_seq || seq > st.last_seq {
            return None;
        }
        let idx = (seq - st.first_seq) as usize;
        st.entries.get(idx).cloned()
    }

    /// Drops retained entries with `seq <= up_to` (log compaction). The file
    /// is not rewritten — compaction of the backing file is the snapshotting
    /// layer's job.
    pub fn truncate_prefix(&self, up_to: u64) {
        let mut st = self.inner.state.lock();
        while st.entries.front().is_some_and(|e| e.seq <= up_to) {
            st.entries.pop_front();
        }
        st.first_seq = st.entries.front().map_or(st.last_seq + 1, |e| e.seq);
    }

    /// Discards every retained entry and repositions the log so the next
    /// append is assigned `seq + 1`. This is snapshot installation: the
    /// replica's entire history is replaced by an image covering everything
    /// through `seq`, and the log resumes behind it.
    pub fn reset_to(&self, seq: u64) {
        let mut st = self.inner.state.lock();
        st.entries.clear();
        st.last_seq = seq;
        st.first_seq = seq + 1;
        st.synced_seq = seq;
        // A file-backed log must not replay the discarded history on reopen.
        // (The on-disk format records no base sequence, so the reopened log
        // restarts at 1; the snapshotting layer owns cross-process recovery.)
        if let Some(w) = st.writer.as_mut() {
            let _ = w.flush();
            let _ = w.get_ref().set_len(0);
        }
    }

    /// Removes entries with `seq >= from` (Raft conflict resolution). Returns
    /// the number of removed entries.
    pub fn truncate_suffix(&self, from: u64) -> usize {
        let mut st = self.inner.state.lock();
        let mut removed = 0;
        while st.entries.back().is_some_and(|e| e.seq >= from) {
            st.entries.pop_back();
            removed += 1;
        }
        st.last_seq = st
            .entries
            .back()
            .map_or(st.first_seq.saturating_sub(1), |e| e.seq);
        st.synced_seq = st.synced_seq.min(st.last_seq);
        removed
    }
}

/// On-disk entry layout: `len(varint) seq(varint) crc(4 bytes LE) payload`.
/// `len` counts the payload bytes only.
fn encode_entry(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    cfs_types::codec::write_varint(payload.len() as u64, out);
    cfs_types::codec::write_varint(seq, out);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Outcome of decoding one on-disk record.
enum Decoded {
    /// A valid entry and the offset of the next one.
    Entry(WalEntry, usize),
    /// The data ends before a whole record (a torn tail or an unreadable
    /// header — indistinguishable from a crash mid-write).
    Truncated,
    /// A structurally complete record whose payload fails its CRC.
    BadCrc,
}

/// Decodes the entry starting at `pos`, classifying failures so recovery can
/// tell a torn tail from in-place payload corruption.
fn decode_entry(buf: &[u8], pos: usize) -> Decoded {
    let mut slice = &buf[pos.min(buf.len())..];
    let before = slice.len();
    let Ok(len) = cfs_types::codec::read_varint(&mut slice) else {
        return Decoded::Truncated;
    };
    let len = len as usize;
    let Ok(seq) = cfs_types::codec::read_varint(&mut slice) else {
        return Decoded::Truncated;
    };
    if slice.len() < 4 + len {
        return Decoded::Truncated;
    }
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&slice[..4]);
    let expect = u32::from_le_bytes(crc_bytes);
    let payload = &slice[4..4 + len];
    if crc32(payload) != expect {
        return Decoded::BadCrc;
    }
    let consumed = (before - slice.len()) + 4 + len;
    Decoded::Entry(
        WalEntry {
            seq,
            payload: payload.to_vec(),
        },
        pos + consumed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cfs-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn sequences_are_contiguous_from_one() {
        let wal = Wal::new_in_memory();
        assert_eq!(wal.append(vec![1]).unwrap(), 1);
        assert_eq!(wal.append(vec![2]).unwrap(), 2);
        let (first, last) = wal.append_batch(vec![vec![3], vec![4], vec![5]]).unwrap();
        assert_eq!((first, last), (3, 5));
        assert_eq!(wal.last_seq(), 5);
    }

    #[test]
    fn read_from_filters_by_sequence() {
        let wal = Wal::new_in_memory();
        for i in 0..10u8 {
            wal.append(vec![i]).unwrap();
        }
        let tail = wal.read_from(8);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 8);
    }

    #[test]
    fn truncate_prefix_retains_later_entries() {
        let wal = Wal::new_in_memory();
        for i in 0..10u8 {
            wal.append(vec![i]).unwrap();
        }
        wal.truncate_prefix(7);
        assert!(wal.get(7).is_none());
        assert_eq!(wal.get(8).unwrap().payload, vec![7]);
        // New appends continue the sequence.
        assert_eq!(wal.append(vec![99]).unwrap(), 11);
    }

    #[test]
    fn truncate_suffix_for_raft_conflicts() {
        let wal = Wal::new_in_memory();
        for i in 0..10u8 {
            wal.append(vec![i]).unwrap();
        }
        assert_eq!(wal.truncate_suffix(6), 5);
        assert_eq!(wal.last_seq(), 5);
        assert_eq!(wal.append(vec![42]).unwrap(), 6);
        assert_eq!(wal.get(6).unwrap().payload, vec![42]);
    }

    #[test]
    fn file_backed_log_recovers_after_reopen() {
        let path = tmp("recover");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append(b"alpha".to_vec()).unwrap();
            wal.append(b"beta".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(wal.get(1).unwrap().payload, b"alpha");
        assert_eq!(wal.get(2).unwrap().payload, b"beta");
        // Appends continue where the log left off.
        assert_eq!(wal.append(b"gamma".to_vec()).unwrap(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_on_recovery() {
        let path = tmp("torn");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append(b"good".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a torn write: append garbage bytes to the file.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x05, 0x02, 0xde, 0xad]).unwrap();
        }
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 1);
        assert_eq!(wal.get(1).unwrap().payload, b"good");
        // The torn bytes were truncated, so new appends recover cleanly.
        wal.append(b"after".to_vec()).unwrap();
        wal.sync().unwrap();
        let wal2 = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal2.last_seq(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_payload_detected_by_crc() {
        let path = tmp("crc");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append(b"sensitive".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        // Flip one payload byte in place.
        {
            let data = std::fs::read(&path).unwrap();
            let mut data = data;
            let n = data.len();
            data[n - 1] ^= 0xFF;
            std::fs::write(&path, data).unwrap();
        }
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 0, "corrupt entry must not replay");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_drops_only_the_cut_entry() {
        let path = tmp("trunc-tail");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            for i in 0..5u8 {
                wal.append(vec![b'e', i]).unwrap();
            }
            wal.sync().unwrap();
        }
        // Crash mid-write: cut the file inside the last entry.
        let full = std::fs::read(&path).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full.len() as u64 - 3).unwrap();
        drop(f);
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 4, "only the cut entry may be lost");
        for i in 0..4u8 {
            assert_eq!(wal.get(i as u64 + 1).unwrap().payload, vec![b'e', i]);
        }
        // Appends continue cleanly and survive another reopen.
        assert_eq!(wal.append(b"post".to_vec()).unwrap(), 5);
        wal.sync().unwrap();
        drop(wal);
        let wal2 = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal2.last_seq(), 5);
        assert_eq!(wal2.get(5).unwrap().payload, b"post");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn single_bit_flip_mid_log_drops_only_the_corrupt_suffix() {
        let path = tmp("bitflip");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            for i in 1..=5u8 {
                wal.append(format!("entry-{i}").into_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip a single bit inside entry 3's payload.
        let mut data = std::fs::read(&path).unwrap();
        let off = data
            .windows(7)
            .position(|w| w == b"entry-3")
            .expect("payload present in file");
        data[off] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        // The CRC rejects entry 3; everything before it survives, everything
        // after it (an unreachable suffix) is dropped.
        assert_eq!(wal.last_seq(), 2);
        assert_eq!(wal.get(1).unwrap().payload, b"entry-1");
        assert_eq!(wal.get(2).unwrap().payload, b"entry-2");
        assert!(wal.get(3).is_none());
        // The file was truncated at the corruption point, so the log heals.
        assert_eq!(wal.append(b"entry-3b".to_vec()).unwrap(), 3);
        wal.sync().unwrap();
        drop(wal);
        let wal2 = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal2.last_seq(), 3);
        assert_eq!(wal2.get(3).unwrap().payload, b"entry-3b");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_rotted_replay_surfaces_typed_corruption_instead_of_truncating() {
        let path = tmp("bitrot-typed");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            for i in 1..=8u8 {
                wal.append(format!("durable-{i}").into_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Reopen on a rotting device: every byte of the replay read flips a
        // bit, so the first record's CRC must fail — and because the device
        // (not a crash) caused it, recovery must refuse to silently truncate
        // away durable history.
        let faults = Arc::new(crate::FaultFs::new());
        faults.arm_bit_rot(7, 1_000_000);
        let err = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            faults: Some(Arc::clone(&faults)),
            ..Default::default()
        })
        .map(|w| w.last_seq())
        .expect_err("bit-rotted replay must fail loudly");
        match err {
            FsError::Corrupted(d) => {
                assert!(d.contains("bit rot"), "typed as device corruption: {d}")
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
        assert!(faults.rotted_reads() > 0);

        // The file itself is untouched: healing the device recovers all of
        // it (contrast with the silent-truncate path, which would have cut
        // the file down to the valid prefix).
        faults.clear();
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            faults: Some(faults),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 8);
        assert_eq!(wal.get(1).unwrap().payload, b"durable-1");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn armed_but_lucky_bit_rot_replays_normally() {
        // ppm 0: the rot stream is armed but never fires; replay must be
        // byte-identical to a healthy open.
        let path = tmp("bitrot-lucky");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append(b"keep".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        let faults = Arc::new(crate::FaultFs::new());
        faults.arm_bit_rot(3, 0);
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            faults: Some(faults),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 1);
        assert_eq!(wal.get(1).unwrap().payload, b"keep");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_group_commit_replays_only_the_complete_prefix() {
        let path = tmp("torn-batch");
        let batch2_start;
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append_batch(vec![b"a1".to_vec(), b"a2".to_vec()])
                .unwrap();
            wal.sync().unwrap();
            batch2_start = path.metadata().unwrap().len();
            wal.append_batch(vec![b"b1".to_vec(), b"b2".to_vec(), b"b3".to_vec()])
                .unwrap();
            wal.sync().unwrap();
        }
        // Crash mid-group-commit: the second batch's write was torn inside
        // its middle entry.
        let full = path.metadata().unwrap().len();
        let per_entry = (full - batch2_start) / 3;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(batch2_start + per_entry + 1).unwrap();
        drop(f);
        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        // Every fully-written record before the tear survives: the first
        // batch and the second batch's first entry.
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(wal.get(1).unwrap().payload, b"a1");
        assert_eq!(wal.get(2).unwrap().payload, b"a2");
        assert_eq!(wal.get(3).unwrap().payload, b"b1");
        assert!(wal.get(4).is_none());
        assert_eq!(wal.append(b"b2-retry".to_vec()).unwrap(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_get_unique_sequences() {
        let wal = Arc::new(Wal::new_in_memory());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|_| wal.append(vec![0]).unwrap())
                    .collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
        assert_eq!(wal.last_seq(), 4000);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let wal = Wal::new_in_memory();
        assert!(wal.append_batch(Vec::<Vec<u8>>::new()).is_err());
    }

    #[test]
    fn extra_sync_latency_is_injectable_and_clearable() {
        let wal = Wal::new_in_memory();
        wal.append(vec![1]).unwrap();
        let base = Instant::now();
        wal.sync().unwrap();
        let unhindered = base.elapsed();

        wal.set_extra_sync_latency(Duration::from_millis(5));
        let slow = Instant::now();
        wal.sync().unwrap();
        assert!(
            slow.elapsed() >= Duration::from_millis(5),
            "injected fsync stall must be observable"
        );

        wal.set_extra_sync_latency(Duration::ZERO);
        let healed = Instant::now();
        wal.sync().unwrap();
        // Not a strict timing assertion — just that clearing the knob
        // returns sync to the same code path as before injection.
        assert!(
            healed.elapsed() < Duration::from_millis(5) || unhindered >= Duration::from_millis(5)
        );
    }

    #[test]
    fn torn_tail_sequence_is_reused_by_the_retried_append() {
        // The tail entry is torn and recovery truncates it. Reading from the
        // first sequence past the surviving prefix must deliver the
        // *re-written* entry at the reused sequence, not skip it.
        let path = tmp("seq-torn");
        {
            let wal = Wal::with_config(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            })
            .unwrap();
            wal.append(b"one".to_vec()).unwrap();
            wal.append(b"two".to_vec()).unwrap();
            wal.append(b"three-torn".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        // Tear the last entry.
        let full = path.metadata().unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 2).unwrap();
        drop(f);

        let wal = Wal::with_config(WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(wal.last_seq(), 2, "torn entry truncated on recovery");
        // The writer retries; sequence 3 is reused for different content.
        assert_eq!(wal.append(b"three-retry".to_vec()).unwrap(), 3);
        let resumed = wal.read_from(3);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].seq, 3);
        assert_eq!(
            resumed[0].payload, b"three-retry",
            "a reader must see the surviving write at the reused seq"
        );
        assert_eq!(wal.last_seq(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
