//! The store: one ordered map, a write-ahead log, a checkpoint sidecar.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::Arc;

use cfs_types::codec::{Decode, Encode};
use cfs_types::{wire, FsError, FsResult};
use cfs_wal::{Wal, WalConfig};
use parking_lot::RwLock;

/// One mutation in a write batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WriteOp {
    /// Insert or overwrite a key.
    Put(Vec<u8>, Vec<u8>),
    /// Delete a key.
    Delete(Vec<u8>),
}

wire!(enum WriteOp { 0 => Put(key, value), 1 => Delete(key) });

/// Durability configuration of a [`KvStore`].
#[derive(Clone, Debug, Default)]
pub struct KvConfig {
    /// Optional WAL configuration; `None` disables logging entirely.
    pub wal: Option<WalConfig>,
}

/// Metadata of a durable checkpoint (the sidecar file a file-backed store
/// writes next to its WAL). Recovery loads the newest valid checkpoint and
/// replays only WAL entries *after* [`CheckpointInfo::wal_cursor`], so
/// restart cost is bounded by the data written since the last checkpoint —
/// not by the full history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointInfo {
    /// The last applied Raft index the owning state machine tagged the
    /// checkpoint with (0 when unreplicated).
    pub applied_index: u64,
    /// The shard's partition-map epoch at checkpoint time (0 when the store
    /// backs no shard).
    pub epoch: u64,
    /// Highest WAL sequence whose effects the checkpoint contains.
    pub wal_cursor: u64,
    /// Live entries serialized into the checkpoint.
    pub entries: u64,
}

/// Simulated kill −9 points inside [`KvStore::checkpoint`], used by the
/// crash-point matrix test: whichever step the crash lands on, a reopen must
/// observe either the previous checkpoint or the new one — never a torn mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CrashPoint {
    /// Crash before any checkpoint byte reaches the temp file.
    BeforeTmpWrite,
    /// Crash mid-write: the temp file holds a torn prefix.
    TornTmpWrite,
    /// Crash after the temp file is complete but before the atomic rename.
    BeforeRename,
    /// Crash immediately after the rename and the directory fsync (the
    /// checkpoint is installed).
    AfterRename,
}

const CKPT_MAGIC: &[u8; 4] = b"CFSC";
const CKPT_VERSION: u8 = 1;

/// A thread-safe ordered key-value store.
pub struct KvStore {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
    wal: Option<Wal>,
    config: KvConfig,
    /// Checkpoint loaded at open (if any); updated by [`KvStore::checkpoint`].
    last_checkpoint: RwLock<Option<CheckpointInfo>>,
    /// WAL entries replayed at open — the count-based (timing-insensitive)
    /// witness that recovery honored the checkpoint cursor instead of
    /// replaying from offset 0.
    recovered_entries: usize,
    /// `kv_checkpoint_ns` in the registry of the node that opened the store.
    checkpoint_ns: Arc<cfs_obs::metrics::Histogram>,
}

fn apply(map: &mut BTreeMap<Vec<u8>, Vec<u8>>, batch: Vec<WriteOp>) {
    for op in batch {
        match op {
            WriteOp::Put(k, v) => {
                map.insert(k, v);
            }
            WriteOp::Delete(k) => {
                map.remove(&k);
            }
        }
    }
}

impl KvStore {
    /// Creates a store with default config and no WAL.
    pub fn new_in_memory() -> KvStore {
        KvStore::with_config(KvConfig::default()).expect("in-memory store cannot fail")
    }

    /// Creates a store, recovering durable state if a file-backed WAL is
    /// configured: the newest valid checkpoint sidecar is loaded first, then
    /// the WAL is replayed strictly *after* the checkpoint's cursor. A
    /// missing, torn, or corrupt checkpoint falls back to full WAL replay,
    /// so a crash at any point of checkpoint creation leaves the store
    /// recoverable to the pre-checkpoint state.
    pub fn with_config(config: KvConfig) -> FsResult<KvStore> {
        let wal = match &config.wal {
            Some(wal_cfg) => Some(Wal::with_config(wal_cfg.clone())?),
            None => None,
        };
        let mut map = BTreeMap::new();
        let mut loaded_ckpt = None;
        let mut replay_from = 1u64;
        if let Some(path) = Self::checkpoint_path(&config) {
            // A stale temp file is a crashed checkpoint attempt that never
            // got installed; it must not influence recovery.
            let _ = std::fs::remove_file(Self::tmp_path(&path));
            // The sidecar sits on the same simulated volume as the WAL, so
            // its reads pass through the same device: armed bit-rot turns a
            // CRC failure into a typed error instead of a silent fallback.
            let faults = wal.as_ref().map(|w| Arc::clone(w.faults()));
            if let Some((info, entries)) = load_checkpoint_on(&path, faults.as_deref())? {
                map.extend(entries);
                replay_from = info.wal_cursor + 1;
                loaded_ckpt = Some(info);
            }
        }
        let mut recovered_entries = 0usize;
        if let Some(wal) = &wal {
            for entry in wal.read_from(replay_from) {
                apply(&mut map, Vec::<WriteOp>::from_bytes(&entry.payload)?);
                recovered_entries += 1;
            }
        }
        Ok(KvStore {
            map: RwLock::new(map),
            wal,
            config,
            last_checkpoint: RwLock::new(loaded_ckpt),
            recovered_entries,
            checkpoint_ns: cfs_obs::metrics::local().histogram("kv_checkpoint_ns"),
        })
    }

    fn checkpoint_path(config: &KvConfig) -> Option<PathBuf> {
        let wal_path = config.wal.as_ref()?.path.as_ref()?;
        let mut os = wal_path.clone().into_os_string();
        os.push(".ckpt");
        Some(PathBuf::from(os))
    }

    fn tmp_path(ckpt: &std::path::Path) -> PathBuf {
        let mut os = ckpt.to_path_buf().into_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    }

    /// Writes a durable checkpoint tagged with the owning state machine's
    /// last applied Raft index and partition-map epoch.
    ///
    /// The live entries are copied under one read lock and serialized to a
    /// sidecar written atomically (temp file + rename). Requires a
    /// file-backed WAL; the WAL cursor recorded in the sidecar is where the
    /// next recovery resumes replay.
    pub fn checkpoint(&self, applied_index: u64, epoch: u64) -> FsResult<CheckpointInfo> {
        self.checkpoint_at(applied_index, epoch, None)
    }

    fn checkpoint_at(
        &self,
        applied_index: u64,
        epoch: u64,
        crash: Option<CrashPoint>,
    ) -> FsResult<CheckpointInfo> {
        let Some(path) = Self::checkpoint_path(&self.config) else {
            return Err(FsError::Invalid(
                "checkpoint requires a file-backed WAL".into(),
            ));
        };
        // `checkpoint_path` returning `Some` implies a WAL was configured,
        // but an injected fault must surface as a typed error, never a panic.
        let Some(wal) = self.wal.as_ref() else {
            return Err(FsError::Invalid(
                "checkpoint requires a file-backed WAL".into(),
            ));
        };
        // Cursor and copy under one read guard: `write_batch` appends and
        // applies under the write guard, so the copy holds exactly the
        // batches at or below the cursor and recovery replays exactly the
        // rest.
        let (wal_cursor, entries) = {
            let map = self.map.read();
            let entries: Vec<_> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            (wal.last_seq(), entries)
        };
        let info = CheckpointInfo {
            applied_index,
            epoch,
            wal_cursor,
            entries: entries.len() as u64,
        };

        let crashed = |p: CrashPoint| -> FsResult<()> {
            if crash == Some(p) {
                return Err(FsError::Corrupted(format!("simulated crash at {p:?}")));
            }
            Ok(())
        };

        let started = std::time::Instant::now();
        let body = encode_checkpoint(&info, &entries);
        let tmp = Self::tmp_path(&path);
        crashed(CrashPoint::BeforeTmpWrite)?;
        // The sidecar lives on the same simulated volume as the WAL: charge
        // its bytes against the injected device before writing. A fault here
        // leaves the previous checkpoint installed (the rename never runs);
        // a torn verdict additionally leaves a partial temp file behind, the
        // same debris `CrashPoint::TornTmpWrite` models.
        let torn_at = match wal.faults().before_write(body.len() as u64) {
            cfs_wal::WriteVerdict::Ok => None,
            cfs_wal::WriteVerdict::NoSpace => return Err(FsError::NoSpace),
            cfs_wal::WriteVerdict::Wedged => {
                return Err(FsError::Io("simulated storage device is wedged".into()))
            }
            cfs_wal::WriteVerdict::Torn(keep) => Some(keep.min(body.len())),
        };
        {
            let mut f = std::fs::File::create(&tmp)?;
            if crash == Some(CrashPoint::TornTmpWrite) {
                f.write_all(&body[..body.len() / 2])?;
                f.sync_data()?;
                return Err(FsError::Corrupted("simulated crash at TornTmpWrite".into()));
            }
            if let Some(keep) = torn_at {
                f.write_all(&body[..keep])?;
                f.sync_data()?;
                return Err(FsError::Io("simulated torn checkpoint write".into()));
            }
            f.write_all(&body)?;
            f.sync_data()?;
        }
        crashed(CrashPoint::BeforeRename)?;
        std::fs::rename(&tmp, &path)?;
        // A rename is durable only once the directory entry is: until the
        // parent directory is fsynced, a crash may still recover the old
        // checkpoint (or none) on a real filesystem.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
        // The install point: everything before the rename recovers to the
        // old checkpoint, everything after the directory fsync to the new
        // one.
        let result = crashed(CrashPoint::AfterRename);
        // Entries at or below the cursor are now covered by the checkpoint;
        // drop them from WAL memory (the file is append-only — bounding
        // *replay* is the cursor's job, bounding memory is this one's).
        wal.truncate_prefix(wal_cursor);
        *self.last_checkpoint.write() = Some(info);
        self.checkpoint_ns
            .observe(started.elapsed().as_nanos() as u64);
        result?;
        Ok(info)
    }

    /// The newest checkpoint this store loaded at open or wrote since.
    pub fn last_checkpoint(&self) -> Option<CheckpointInfo> {
        *self.last_checkpoint.read()
    }

    /// WAL entries replayed when this store was opened. With a checkpoint at
    /// cursor `c` and `n` batches appended after it, recovery replays exactly
    /// `n` entries — the regression guard against replay-from-offset-0.
    pub fn recovered_entries(&self) -> usize {
        self.recovered_entries
    }

    /// Discards all in-memory state, returning the store to empty. Snapshot
    /// installation uses this to replace contents wholesale; durability of
    /// the new contents is the caller's concern (a Raft snapshot subsumes the
    /// replaced log).
    pub fn reset(&self) {
        self.map.write().clear();
    }

    /// Returns the WAL, if configured.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Looks up the current value of `key`.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.read().get(key).cloned()
    }

    /// Inserts or overwrites a single key.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> FsResult<()> {
        self.write_batch(vec![WriteOp::Put(key, value)])
    }

    /// Deletes a single key (idempotent).
    pub fn delete(&self, key: Vec<u8>) -> FsResult<()> {
        self.write_batch(vec![WriteOp::Delete(key)])
    }

    /// Applies a batch atomically: readers see all or none of its effects,
    /// and the batch occupies one WAL entry.
    pub fn write_batch(&self, batch: Vec<WriteOp>) -> FsResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Logged and applied under one write guard, so that a checkpoint
        // never sees the log ahead of the map (see `checkpoint_at`).
        let mut map = self.map.write();
        if let Some(wal) = &self.wal {
            wal.append(batch.to_bytes())?;
        }
        apply(&mut map, batch);
        Ok(())
    }

    /// Returns up to `limit` entries with keys in `[start, end)`, in
    /// ascending key order. Cost is proportional to the entries returned,
    /// not to the size of the range — paging through a million-entry
    /// directory stays O(page) per call.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.scan_from(start, Some(end), limit)
    }

    /// Like [`KvStore::scan`], but the exclusive upper bound is optional:
    /// `None` scans to the very top of the key space. A hard-coded upper
    /// bound used to fake an unbounded scan silently misses keys sorting
    /// above it; this is the real thing.
    pub fn scan_from(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let upper = end.map_or(Bound::Unbounded, Bound::Excluded);
        self.map
            .read()
            .range::<[u8], _>((Bound::Included(start), upper))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Makes the configured WAL durable.
    pub fn sync(&self) -> FsResult<()> {
        if let Some(wal) = &self.wal {
            wal.sync()?;
        }
        Ok(())
    }

    /// Number of immutable sorted runs behind the map: always 0, there are
    /// none. Kept because the repo's benchmark (`bench/perf`) reports it.
    pub fn table_count(&self) -> usize {
        0
    }

    /// Copies the entries with keys in `[start, end)` (`end = None` for
    /// unbounded) under one read lock and returns an iterator that owns the
    /// copy, so iteration is isolated from concurrent writes — this is what
    /// live range migration streams from while the source shard keeps
    /// serving.
    pub fn range_snapshot(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> {
        self.scan_from(start, end, usize::MAX).into_iter()
    }
}

/// Serializes a checkpoint sidecar: magic, version, tags, cursor, entries,
/// then a trailing CRC over everything after the magic. The CRC is what
/// makes a torn sidecar (crash mid-write, cut file) detectably invalid
/// rather than silently half-loaded.
fn encode_checkpoint(info: &CheckpointInfo, entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(CKPT_MAGIC);
    body.push(CKPT_VERSION);
    (info.applied_index, info.epoch, info.wal_cursor).encode(&mut body);
    entries.encode(&mut body);
    let crc = cfs_wal::crc32::crc32(&body[CKPT_MAGIC.len()..]);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Loads and validates a checkpoint sidecar; `None` on missing, torn, or
/// corrupt files (recovery then falls back to full WAL replay).
#[cfg(test)]
#[allow(clippy::type_complexity)]
fn load_checkpoint(path: &std::path::Path) -> Option<(CheckpointInfo, Vec<(Vec<u8>, Vec<u8>)>)> {
    load_checkpoint_on(path, None).ok().flatten()
}

/// [`load_checkpoint`] with the read routed through the simulated device:
/// when armed bit-rot corrupts the sidecar bytes and the trailing CRC then
/// fails, the result is a typed [`cfs_types::StorageError::Corrupt`] error
/// rather than the silent fall-back-to-WAL-replay of an (un-rotted) torn
/// file — a decaying device must fail loudly, not quietly drop a valid
/// checkpoint.
#[allow(clippy::type_complexity)]
fn load_checkpoint_on(
    path: &std::path::Path,
    faults: Option<&cfs_wal::FaultFs>,
) -> FsResult<Option<(CheckpointInfo, Vec<(Vec<u8>, Vec<u8>)>)>> {
    let Ok(mut data) = std::fs::read(path) else {
        return Ok(None);
    };
    let rotted = faults.map_or(0, |f| f.corrupt_read(&mut data));
    match parse_checkpoint(&data) {
        Some(parsed) => Ok(Some(parsed)),
        None if rotted > 0 => Err(cfs_types::StorageError::Corrupt(format!(
            "checkpoint {}: invalid after a bit-rotted read ({rotted} corrupted bytes)",
            path.display()
        ))
        .into()),
        None => Ok(None),
    }
}

#[allow(clippy::type_complexity)]
fn parse_checkpoint(data: &[u8]) -> Option<(CheckpointInfo, Vec<(Vec<u8>, Vec<u8>)>)> {
    let rest = data.strip_prefix(CKPT_MAGIC.as_slice())?;
    if rest.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = rest.split_at(rest.len() - 4);
    let expect = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if cfs_wal::crc32::crc32(body) != expect {
        return None;
    }
    let mut input = body.strip_prefix(&[CKPT_VERSION])?;
    let (applied_index, epoch, wal_cursor) = Decode::decode(&mut input).ok()?;
    let entries = Vec::<(Vec<u8>, Vec<u8>)>::decode(&mut input).ok()?;
    Some((
        CheckpointInfo {
            applied_index,
            epoch,
            wal_cursor,
            entries: entries.len() as u64,
        },
        entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl KvStore {
        fn live_entries(&self) -> usize {
            self.map.read().len()
        }
    }

    #[test]
    fn get_put_delete_round_trip() {
        let kv = KvStore::new_in_memory();
        kv.put(b"k1".to_vec(), b"v1".to_vec()).unwrap();
        assert_eq!(kv.get(b"k1"), Some(b"v1".to_vec()));
        kv.delete(b"k1".to_vec()).unwrap();
        assert_eq!(kv.get(b"k1"), None);
    }

    #[test]
    fn deleted_key_stays_deleted() {
        let kv = KvStore::new_in_memory();
        kv.put(b"k".to_vec(), b"old".to_vec()).unwrap();
        kv.put(b"other".to_vec(), b"o".to_vec()).unwrap();
        kv.delete(b"k".to_vec()).unwrap();
        // Deleting again, or a key that never existed, changes nothing.
        kv.delete(b"k".to_vec()).unwrap();
        kv.delete(b"ghost".to_vec()).unwrap();
        assert_eq!(kv.get(b"k"), None);
        assert_eq!(
            kv.scan(b"a", b"z", 10),
            vec![(b"other".to_vec(), b"o".to_vec())]
        );
        // A later put brings the key back.
        kv.put(b"k".to_vec(), b"new".to_vec()).unwrap();
        assert_eq!(kv.get(b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn scan_sees_the_newest_value_of_an_overwritten_key() {
        let kv = KvStore::new_in_memory();
        kv.put(b"a".to_vec(), b"old-a".to_vec()).unwrap();
        kv.put(b"b".to_vec(), b"b".to_vec()).unwrap();
        kv.put(b"a".to_vec(), b"new-a".to_vec()).unwrap();
        kv.put(b"c".to_vec(), b"c".to_vec()).unwrap();
        let got = kv.scan(b"a", b"z", 10);
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"new-a".to_vec()),
                (b"b".to_vec(), b"b".to_vec()),
                (b"c".to_vec(), b"c".to_vec()),
            ]
        );
    }

    #[test]
    fn scan_respects_bounds_and_limit() {
        let kv = KvStore::new_in_memory();
        for i in 0..10u8 {
            kv.put(vec![i], vec![i]).unwrap();
        }
        let got = kv.scan(&[2], &[7], 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, vec![2]);
        assert_eq!(got[2].0, vec![4]);
    }

    #[test]
    fn unbounded_scan_reaches_top_of_key_space() {
        let kv = KvStore::new_in_memory();
        // Keys that the old hard-coded `[0xFF; 16]` bound silently missed:
        // at the bound, above it, and longer than 16 bytes.
        kv.put(vec![0xFFu8; 16], b"at-bound".to_vec()).unwrap();
        kv.put(vec![0xFFu8; 24], b"long".to_vec()).unwrap();
        kv.put(vec![0x01], b"low".to_vec()).unwrap();
        kv.put(vec![0xFFu8; 17], b"above".to_vec()).unwrap();
        assert_eq!(kv.scan_from(&[], None, usize::MAX).len(), 4);
        assert_eq!(kv.live_entries(), 4);
        // Bounded scan still excludes the high keys.
        assert_eq!(kv.scan(&[], &[0xFFu8; 16], usize::MAX).len(), 1);
        // Unbounded tail scan starting above the old bound.
        let tail = kv.scan_from(&[0xFFu8; 16], None, usize::MAX);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].1, b"at-bound");
    }

    #[test]
    fn range_snapshot_skips_deleted_keys_and_respects_bounds() {
        let kv = KvStore::new_in_memory();
        kv.put(b"a".to_vec(), b"old-a".to_vec()).unwrap();
        kv.put(b"b".to_vec(), b"b".to_vec()).unwrap();
        kv.put(b"dead".to_vec(), b"x".to_vec()).unwrap();
        kv.put(b"a".to_vec(), b"new-a".to_vec()).unwrap();
        kv.delete(b"dead".to_vec()).unwrap();
        kv.put(b"c".to_vec(), b"c".to_vec()).unwrap();
        let got: Vec<_> = kv.range_snapshot(&[], None).collect();
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"new-a".to_vec()),
                (b"b".to_vec(), b"b".to_vec()),
                (b"c".to_vec(), b"c".to_vec()),
            ]
        );
        // Bounded snapshot.
        let got: Vec<_> = kv.range_snapshot(b"b", Some(b"c")).collect();
        assert_eq!(got, vec![(b"b".to_vec(), b"b".to_vec())]);
    }

    #[test]
    fn range_snapshot_is_isolated_from_later_writes() {
        let kv = KvStore::new_in_memory();
        for i in 0..20u8 {
            kv.put(vec![i], vec![i]).unwrap();
        }
        let snap = kv.range_snapshot(&[], None);
        // Mutate after the snapshot: overwrite, delete, insert.
        kv.put(vec![0], b"changed".to_vec()).unwrap();
        kv.delete(vec![5]).unwrap();
        kv.put(vec![200], b"new".to_vec()).unwrap();
        let got: Vec<_> = snap.collect();
        assert_eq!(got.len(), 20);
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(k, &vec![i as u8]);
            assert_eq!(v, &vec![i as u8]);
        }
    }

    #[test]
    fn wal_recovery_restores_state() {
        let dir = std::env::temp_dir().join("cfs-kv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("recover-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = KvConfig {
            wal: Some(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            }),
        };
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            kv.put(b"persist".to_vec(), b"me".to_vec()).unwrap();
            kv.delete(b"gone".to_vec()).unwrap();
            kv.sync().unwrap();
        }
        let kv = KvStore::with_config(cfg).unwrap();
        assert_eq!(kv.get(b"persist"), Some(b"me".to_vec()));
        assert_eq!(kv.get(b"gone"), None);
        let _ = std::fs::remove_file(&path);
    }

    fn file_cfg(name: &str) -> (KvConfig, PathBuf) {
        let dir = std::env::temp_dir().join("cfs-kv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = KvConfig {
            wal: Some(WalConfig {
                path: Some(path.clone()),
                ..Default::default()
            }),
        };
        let _ = std::fs::remove_file(KvStore::checkpoint_path(&cfg).unwrap());
        (cfg, path)
    }

    fn cleanup(path: &PathBuf) {
        let _ = std::fs::remove_file(path);
        let mut ckpt = path.clone().into_os_string();
        ckpt.push(".ckpt");
        let _ = std::fs::remove_file(PathBuf::from(ckpt.clone()));
        ckpt.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(ckpt));
    }

    #[test]
    fn recovery_replays_only_entries_after_the_checkpoint_cursor() {
        let (cfg, path) = file_cfg("ckpt-cursor");
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            for i in 0..100u32 {
                kv.put(i.to_be_bytes().to_vec(), vec![1]).unwrap();
            }
            kv.sync().unwrap();
            let info = kv.checkpoint(7, 3).unwrap();
            assert_eq!(info.wal_cursor, 100);
            assert_eq!((info.applied_index, info.epoch), (7, 3));
            // Five more batches after the checkpoint.
            for i in 100..105u32 {
                kv.put(i.to_be_bytes().to_vec(), vec![2]).unwrap();
            }
            kv.sync().unwrap();
        }
        let kv = KvStore::with_config(cfg).unwrap();
        // The count-based regression guard: replay must cover exactly the
        // post-checkpoint suffix, not the full 105-entry history.
        assert_eq!(kv.recovered_entries(), 5);
        assert_eq!(kv.last_checkpoint().unwrap().wal_cursor, 100);
        assert_eq!(kv.live_entries(), 105);
        assert_eq!(kv.get(&0u32.to_be_bytes()), Some(vec![1]));
        assert_eq!(kv.get(&104u32.to_be_bytes()), Some(vec![2]));
        cleanup(&path);
    }

    #[test]
    fn recovery_without_checkpoint_replays_everything() {
        let (cfg, path) = file_cfg("ckpt-none");
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            for i in 0..10u32 {
                kv.put(i.to_be_bytes().to_vec(), vec![1]).unwrap();
            }
            kv.sync().unwrap();
        }
        let kv = KvStore::with_config(cfg).unwrap();
        assert_eq!(kv.recovered_entries(), 10);
        assert!(kv.last_checkpoint().is_none());
        cleanup(&path);
    }

    #[test]
    fn checkpoint_deletes_survive_recovery() {
        // A delete recorded *before* the checkpoint must not resurrect: the
        // checkpoint serializes live entries only, and replay starts after
        // its cursor.
        let (cfg, path) = file_cfg("ckpt-del");
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            kv.put(b"keep".to_vec(), b"v".to_vec()).unwrap();
            kv.put(b"gone".to_vec(), b"v".to_vec()).unwrap();
            kv.delete(b"gone".to_vec()).unwrap();
            kv.sync().unwrap();
            kv.checkpoint(1, 0).unwrap();
            kv.delete(b"keep2-not-there".to_vec()).unwrap();
            kv.sync().unwrap();
        }
        let kv = KvStore::with_config(cfg).unwrap();
        assert_eq!(kv.get(b"keep"), Some(b"v".to_vec()));
        assert_eq!(kv.get(b"gone"), None);
        assert_eq!(kv.recovered_entries(), 1);
        cleanup(&path);
    }

    #[test]
    fn checkpoints_racing_a_writer_never_skip_a_batch_on_recovery() {
        // A checkpoint's cursor must cover exactly the batches its copy of
        // the map holds: a cursor ahead of the copy makes recovery skip the
        // batch in between. The interleaving sits inside `write_batch`, so
        // the test races many checkpoints against a writer that never
        // pauses instead of forcing one.
        use std::sync::atomic::{AtomicBool, Ordering};
        let (cfg, path) = file_cfg("ckpt-race");
        // Overwrites and deletes, so a skipped batch of either kind shows.
        let op = |i: u32| {
            let key = (i % 64).to_be_bytes().to_vec();
            if i % 5 == 4 {
                WriteOp::Delete(key)
            } else {
                WriteOp::Put(key, i.to_be_bytes().to_vec())
            }
        };
        let mut model = BTreeMap::new();
        let mut written = 0u32;
        for round in 0..40u64 {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            assert_eq!(
                kv.scan_from(&[], None, usize::MAX),
                model.clone().into_iter().collect::<Vec<_>>(),
                "reopen {round} lost or invented a batch"
            );
            let done = AtomicBool::new(false);
            let until = std::thread::scope(|s| {
                let writer = s.spawn(|| {
                    let mut i = written;
                    while !done.load(Ordering::Relaxed) {
                        kv.write_batch(vec![op(i)]).unwrap();
                        i += 1;
                    }
                    i
                });
                for _ in 0..8 {
                    kv.checkpoint(round, 0).unwrap();
                }
                done.store(true, Ordering::Relaxed);
                writer.join().unwrap()
            });
            apply(&mut model, (written..until).map(op).collect());
            written = until;
            kv.sync().unwrap();
        }
        cleanup(&path);
    }

    #[test]
    fn crash_point_matrix_recovers_old_or_new_checkpoint_never_torn() {
        // Simulated kill −9 at every step of checkpoint creation and
        // installation. The invariant at each point: reopening recovers the
        // exact logical state (old checkpoint + WAL tail, or new
        // checkpoint), never a torn mix and never data loss.
        for crash in [
            CrashPoint::BeforeTmpWrite,
            CrashPoint::TornTmpWrite,
            CrashPoint::BeforeRename,
            CrashPoint::AfterRename,
        ] {
            let (cfg, path) = file_cfg(&format!("ckpt-crash-{crash:?}"));
            {
                let kv = KvStore::with_config(cfg.clone()).unwrap();
                // An initial installed checkpoint (the "old" one).
                for i in 0..20u32 {
                    kv.put(i.to_be_bytes().to_vec(), b"old".to_vec()).unwrap();
                }
                kv.sync().unwrap();
                kv.checkpoint(1, 0).unwrap();
                // More writes, then a checkpoint attempt that crashes.
                for i in 20..30u32 {
                    kv.put(i.to_be_bytes().to_vec(), b"new".to_vec()).unwrap();
                }
                kv.sync().unwrap();
                let err = kv.checkpoint_at(2, 0, Some(crash)).unwrap_err();
                assert!(
                    format!("{err:?}").contains("simulated crash"),
                    "{crash:?} must surface the injected crash, got {err:?}"
                );
            }
            let kv = KvStore::with_config(cfg).unwrap();
            let ckpt = kv.last_checkpoint().expect("some checkpoint survives");
            match crash {
                CrashPoint::AfterRename => {
                    // The rename happened: recovery sees the new checkpoint.
                    assert_eq!(ckpt.applied_index, 2, "{crash:?}");
                    assert_eq!(kv.recovered_entries(), 0, "{crash:?}");
                }
                _ => {
                    // The rename never happened: the old checkpoint plus WAL
                    // tail reconstruct the state.
                    assert_eq!(ckpt.applied_index, 1, "{crash:?}");
                    assert_eq!(kv.recovered_entries(), 10, "{crash:?}");
                }
            }
            // Either way the logical state is complete.
            assert_eq!(kv.live_entries(), 30, "{crash:?}");
            for i in 0..30u32 {
                let want = if i < 20 {
                    b"old".to_vec()
                } else {
                    b"new".to_vec()
                };
                assert_eq!(kv.get(&i.to_be_bytes()), Some(want), "{crash:?} key {i}");
            }
            cleanup(&path);
        }
    }

    #[test]
    fn torn_checkpoint_sidecar_is_rejected_and_wal_replay_covers() {
        // Extension of the WAL torn-tail tests to the snapshot boundary: a
        // checkpoint file cut mid-entry (or bit-flipped) must fail its CRC
        // and recovery must fall back to full WAL replay.
        let (cfg, path) = file_cfg("ckpt-torn");
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            for i in 0..25u32 {
                kv.put(i.to_be_bytes().to_vec(), vec![9]).unwrap();
            }
            kv.sync().unwrap();
            kv.checkpoint(1, 0).unwrap();
        }
        let ckpt_path = KvStore::checkpoint_path(&cfg).unwrap();
        let full = std::fs::read(&ckpt_path).unwrap();
        // Torn: cut the file mid-body.
        std::fs::write(&ckpt_path, &full[..full.len() / 2]).unwrap();
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            assert!(kv.last_checkpoint().is_none(), "torn sidecar must not load");
            assert_eq!(kv.recovered_entries(), 25, "full replay must cover");
            assert_eq!(kv.live_entries(), 25);
        }
        // Corrupt: flip one byte in the middle.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&ckpt_path, &flipped).unwrap();
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            assert!(
                kv.last_checkpoint().is_none(),
                "corrupt sidecar must not load"
            );
            assert_eq!(kv.live_entries(), 25);
        }
        cleanup(&path);
    }

    #[test]
    fn bit_rotted_checkpoint_read_is_a_typed_error_not_a_silent_fallback() {
        // A torn/corrupt sidecar silently falls back to WAL replay (pinned
        // above); a sidecar corrupted by the *device* on read must not — the
        // checkpoint on disk is valid, so quietly replaying from offset 0
        // would mask real hardware decay. Recovery fails typed instead.
        let (mut cfg, path) = file_cfg("ckpt-bitrot");
        let faults = Arc::new(cfs_wal::FaultFs::new());
        cfg.wal.as_mut().unwrap().faults = Some(Arc::clone(&faults));
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            for i in 0..25u32 {
                kv.put(i.to_be_bytes().to_vec(), vec![3]).unwrap();
            }
            kv.sync().unwrap();
            kv.checkpoint(1, 0).unwrap();
        }
        faults.arm_bit_rot(11, 1_000_000);
        let err = KvStore::with_config(cfg.clone())
            .map(|_| ())
            .expect_err("rotted checkpoint must fail recovery");
        assert!(
            matches!(&err, FsError::Corrupted(d) if d.contains("bit rot")),
            "expected typed device corruption, got {err:?}"
        );
        assert!(faults.rotted_reads() > 0);
        // The sidecar reader itself (not just the WAL replay that precedes
        // it in recovery) classifies a rotted read as typed corruption.
        let ckpt_path = KvStore::checkpoint_path(&cfg).unwrap();
        let err = load_checkpoint_on(&ckpt_path, Some(&faults))
            .expect_err("rotted sidecar read must be typed");
        assert!(matches!(&err, FsError::Corrupted(d) if d.contains("bit rot")));
        // An un-rotted device keeps the silent-fallback contract.
        assert!(load_checkpoint_on(&ckpt_path, None).unwrap().is_some());
        // Healing the device recovers the intact checkpoint.
        faults.clear();
        let kv = KvStore::with_config(cfg.clone()).unwrap();
        assert_eq!(kv.last_checkpoint().unwrap().applied_index, 1);
        assert_eq!(kv.live_entries(), 25);
        cleanup(&path);
    }

    #[test]
    fn injected_checkpoint_faults_are_typed_errors_and_keep_the_old_checkpoint() {
        // The FaultFs analogue of the crash-point matrix: a checkpoint that
        // hits a full or torn simulated volume must fail with a typed error
        // (never a panic), leave the previously installed checkpoint in
        // place, and succeed once the volume heals.
        let (cfg, path) = file_cfg("ckpt-fault");
        {
            let kv = KvStore::with_config(cfg.clone()).unwrap();
            for i in 0..20u32 {
                kv.put(i.to_be_bytes().to_vec(), b"old".to_vec()).unwrap();
            }
            kv.sync().unwrap();
            kv.checkpoint(1, 0).unwrap();
            for i in 20..30u32 {
                kv.put(i.to_be_bytes().to_vec(), b"new".to_vec()).unwrap();
            }
            kv.sync().unwrap();
            let faults = kv.wal().unwrap().faults().clone();
            faults.set_byte_budget(Some(0));
            assert!(matches!(kv.checkpoint(2, 0), Err(FsError::NoSpace)));
            faults.clear();
            faults.arm_torn_write(400_000);
            assert!(matches!(kv.checkpoint(2, 0), Err(FsError::Io(_))));
            assert_eq!(
                kv.last_checkpoint().unwrap().applied_index,
                1,
                "failed attempts must not install"
            );
            // Space returns (and the wedged device is replaced): full service.
            faults.clear();
            kv.checkpoint(3, 0).unwrap();
        }
        let kv = KvStore::with_config(cfg).unwrap();
        assert_eq!(kv.last_checkpoint().unwrap().applied_index, 3);
        assert_eq!(kv.live_entries(), 30);
        for i in 0..30u32 {
            assert!(kv.get(&i.to_be_bytes()).is_some(), "key {i}");
        }
        cleanup(&path);
    }

    #[test]
    fn checkpoint_round_trip_preserves_tags_and_entries() {
        let entries = vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"bb".to_vec(), Vec::new()),
            (Vec::new(), b"root".to_vec()),
        ];
        let info = CheckpointInfo {
            applied_index: 42,
            epoch: 7,
            wal_cursor: 99,
            entries: entries.len() as u64,
        };
        let body = encode_checkpoint(&info, &entries);
        let dir = std::env::temp_dir().join("cfs-kv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("ckpt-rt-{}", std::process::id()));
        std::fs::write(&p, &body).unwrap();
        let (got_info, got_entries) = load_checkpoint(&p).unwrap();
        assert_eq!(got_info, info);
        assert_eq!(got_entries, entries);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn write_batch_is_atomic_to_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let kv = Arc::new(KvStore::new_in_memory());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let kv = Arc::clone(&kv);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let got = kv.scan(b"x", b"z", 2);
                    // Both keys are always written together in one batch, so a
                    // reader of both must never observe them disagreeing.
                    assert!(
                        got.is_empty() || (got.len() == 2 && got[0].1 == got[1].1),
                        "batch atomicity violated: {got:?}"
                    );
                }
            })
        };
        for i in 0..2000u32 {
            let v = i.to_be_bytes().to_vec();
            kv.write_batch(vec![
                WriteOp::Put(b"x".to_vec(), v.clone()),
                WriteOp::Put(b"y".to_vec(), v),
            ])
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_store_matches_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..16, proptest::collection::vec(0u8..8, 1..4), any::<u8>()),
                1..300,
            )
        ) {
            // A file-backed store driven through puts, deletes, checkpoints
            // and drop-and-reopen steps: whatever was recovered from the
            // newest checkpoint plus the WAL tail must equal the model.
            let (cfg, path) = file_cfg("prop-model");
            let mut kv = KvStore::with_config(cfg.clone()).unwrap();
            let mut model = std::collections::BTreeMap::new();
            let mut batches_since_checkpoint = 0usize;
            for (step, key, val) in ops {
                match step {
                    0..=8 => {
                        kv.put(key.clone(), vec![val]).unwrap();
                        model.insert(key, vec![val]);
                        batches_since_checkpoint += 1;
                    }
                    9..=13 => {
                        kv.delete(key.clone()).unwrap();
                        model.remove(&key);
                        batches_since_checkpoint += 1;
                    }
                    14 => {
                        let info = kv.checkpoint(u64::from(val), 0).unwrap();
                        prop_assert_eq!(info.entries, model.len() as u64);
                        batches_since_checkpoint = 0;
                    }
                    _ => {
                        kv.sync().unwrap();
                        drop(kv);
                        kv = KvStore::with_config(cfg.clone()).unwrap();
                        prop_assert_eq!(kv.recovered_entries(), batches_since_checkpoint);
                        let recovered = kv.scan_from(&[], None, usize::MAX);
                        let expect: Vec<(Vec<u8>, Vec<u8>)> =
                            model.clone().into_iter().collect();
                        prop_assert_eq!(recovered, expect);
                    }
                }
            }
            // Point reads agree.
            for (k, v) in &model {
                prop_assert_eq!(kv.get(k), Some(v.clone()));
            }
            // Full scan agrees.
            let scan = kv.scan(&[], &[255u8; 8], usize::MAX);
            let expect: Vec<(Vec<u8>, Vec<u8>)> =
                model.into_iter().collect();
            prop_assert_eq!(scan, expect);
            cleanup(&path);
        }
    }
}
