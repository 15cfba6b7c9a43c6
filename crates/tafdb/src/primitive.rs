//! The single-shard atomic primitives of paper Table 2.
//!
//! A [`Primitive`] is a parameterized function instantiated per metadata
//! request: it groups conditional checks, id-record inserts, record deletes,
//! and a merge-based attribute update into **one command** executed at once
//! inside a single shard. Figure 8 of the paper shows the three
//! instantiations (`create`, `unlink`, intra-directory file `rename`) that
//! [`Primitive::insert_with_update`], [`Primitive::delete_with_update`], and
//! [`Primitive::insert_and_delete_with_update`] mirror.
//!
//! Execution semantics ([`execute`]):
//!
//! 1. evaluate every condition (existence, `NotExists`, type, emptiness,
//!    id-match) against the shard's current records — all-or-nothing;
//! 2. apply deletions (`if_exist` deletions of absent records are skipped and
//!    do not count toward per-deleted scaling);
//! 3. apply inserts (implicit `NotExists` check);
//! 4. apply the update's assignment list with *delta apply* merging for
//!    numeric fields and *last-writer-wins* merging for overwrite fields —
//!    this is what removes the spurious conflicts of §4.2.
//!
//! The mutation set is returned as one atomic batch for the shard to commit.

use cfs_types::{wire, Cond, FieldAssign, FsError, FsResult, Key, NumField, Record};

/// The merge-based update clause (`WITH UPDATE ... SET ... WHERE ...`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateSpec {
    /// Target record and the predicates it must satisfy.
    pub cond: Cond,
    /// Constant assignments (deltas and LWW sets).
    pub assigns: Vec<FieldAssign>,
    /// Assignments applied once per *actually deleted* record. Used by the
    /// rename primitive where the parent's `children` delta "is determined by
    /// TafDB internal, and can be either 0 if one of the files does not
    /// exist, or -1 if both existed" (paper §4.3).
    pub per_deleted: Vec<(NumField, i64)>,
    /// Overwrite the record's `id` field. Cross-directory directory renames
    /// use this to repoint the moved directory's parent pointer (stored in
    /// the `id` field of its `/_ATTR` record).
    pub set_id: Option<cfs_types::InodeId>,
}

impl UpdateSpec {
    /// Builds an update with constant assignments only.
    pub fn new(cond: Cond, assigns: Vec<FieldAssign>) -> UpdateSpec {
        UpdateSpec {
            cond,
            assigns,
            per_deleted: Vec::new(),
            set_id: None,
        }
    }

    /// Adds per-deleted-record scaled assignments.
    pub fn with_per_deleted(mut self, per_deleted: Vec<(NumField, i64)>) -> UpdateSpec {
        self.per_deleted = per_deleted;
        self
    }

    /// Adds an `id`-field overwrite.
    pub fn with_set_id(mut self, id: cfs_types::InodeId) -> UpdateSpec {
        self.set_id = Some(id);
        self
    }
}

wire!(struct UpdateSpec { cond, assigns, per_deleted, set_id });

/// One single-shard atomic primitive instance.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Primitive {
    /// Pure conditions (no mutation attached), e.g. "parent dir exists".
    pub checks: Vec<Cond>,
    /// Id records to insert; fails with `AlreadyExists` if present.
    pub inserts: Vec<(Key, Record)>,
    /// Records to delete, each guarded by its own predicates.
    pub deletes: Vec<Cond>,
    /// The merge-based update clause.
    pub update: Option<UpdateSpec>,
    /// Optional volume-quota clause, applied to the volume's quota record
    /// (kid = band start, local id 0) in the same atomic batch. Admission
    /// predicates ([`cfs_types::Pred::QuotaHasRoom`]) and usage deltas run
    /// inside the replicated apply funnel, so enforcement is deterministic
    /// across replicas. Only legal when the quota record shares the
    /// primitive's shard; cross-shard callers reserve against the quota
    /// record with a separate primitive first.
    pub quota: Option<Box<UpdateSpec>>,
}

impl Primitive {
    /// `INSERT (value_list) WITH UPDATE ... WHERE ...` — used by `create`,
    /// `mkdir`, `symlink`, `link` (paper Table 2 row 1).
    pub fn insert_with_update(
        insert_key: Key,
        insert_rec: Record,
        update: UpdateSpec,
    ) -> Primitive {
        Primitive {
            checks: Vec::new(),
            inserts: vec![(insert_key, insert_rec)],
            deletes: Vec::new(),
            update: Some(update),
            quota: None,
        }
    }

    /// `DELETE (delete_cond) WITH UPDATE ... WHERE ...` — used by `unlink`
    /// and `rmdir` (paper Table 2 row 2).
    pub fn delete_with_update(delete: Cond, update: UpdateSpec) -> Primitive {
        Primitive {
            checks: Vec::new(),
            inserts: Vec::new(),
            deletes: vec![delete],
            update: Some(update),
            quota: None,
        }
    }

    /// `INSERT ... WITH DELETE (delete_cond_list) WITH UPDATE ...` — used by
    /// intra-directory file rename (paper Table 2 row 3, Figure 8c).
    pub fn insert_and_delete_with_update(
        insert_key: Key,
        insert_rec: Record,
        deletes: Vec<Cond>,
        update: UpdateSpec,
    ) -> Primitive {
        Primitive {
            checks: Vec::new(),
            inserts: vec![(insert_key, insert_rec)],
            deletes,
            update: Some(update),
            quota: None,
        }
    }

    /// Attaches a volume-quota clause (admission predicate + usage deltas)
    /// to this primitive. The quota record must live on the same shard.
    pub fn with_quota(mut self, quota: UpdateSpec) -> Primitive {
        self.quota = Some(Box::new(quota));
        self
    }

    /// Every key this primitive touches (used by shard routing assertions:
    /// all keys must share one shard).
    pub fn touched_kids(&self) -> Vec<cfs_types::InodeId> {
        let mut kids: Vec<_> = self
            .checks
            .iter()
            .map(|c| c.key.kid)
            .chain(self.inserts.iter().map(|(k, _)| k.kid))
            .chain(self.deletes.iter().map(|c| c.key.kid))
            .chain(self.update.iter().map(|u| u.cond.key.kid))
            .chain(self.quota.iter().map(|u| u.cond.key.kid))
            .collect();
        kids.sort_unstable();
        kids.dedup();
        kids
    }
}

wire!(struct Primitive { checks, inserts, deletes, update, quota });

/// Result of a successfully executed primitive.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PrimResult {
    /// The records that were actually deleted (key + prior value). The client
    /// uses these to drive the FileStore phase (e.g. delete B's attribute
    /// after a fast-path rename) and the GC uses them for pairing analysis.
    pub deleted: Vec<(Key, Record)>,
}

wire!(struct PrimResult { deleted });

/// Read/write access to one shard's slice of the `inode_table`, implemented
/// by the shard state machine over its kvstore.
pub trait RecordStore {
    /// Reads the record at `key`.
    fn load(&self, key: &Key) -> Option<Record>;
    /// Stages an upsert; mutations become visible atomically when the caller
    /// commits the batch.
    fn stage_put(&mut self, key: Key, rec: Record);
    /// Stages a deletion.
    fn stage_delete(&mut self, key: Key);
}

/// Executes `prim` against `store`, staging mutations on success.
///
/// All conditions are evaluated before any mutation is staged, so a failed
/// primitive has no effect. The returned [`PrimResult`] lists the deletions
/// that actually happened.
pub fn execute(store: &mut dyn RecordStore, prim: &Primitive) -> FsResult<PrimResult> {
    // Phase 1: validate every clause against the current state.
    for cond in &prim.checks {
        check_cond(store, cond)?;
    }
    let mut deleted: Vec<(Key, Record)> = Vec::new();
    for cond in &prim.deletes {
        // A key can appear in multiple delete conditions (e.g. a rename onto
        // itself); it is validated each time but deleted — and counted for
        // per-deleted scaling — only once.
        if deleted.iter().any(|(k, _)| k == &cond.key) {
            continue;
        }
        match store.load(&cond.key) {
            Some(rec) => {
                for pred in &cond.preds {
                    rec.check(pred)?;
                }
                deleted.push((cond.key.clone(), rec));
            }
            None if cond.if_exist => {}
            None => return Err(FsError::NotFound),
        }
    }
    for (key, _) in &prim.inserts {
        // Implicit existence check of INSERT — unless this same primitive
        // deletes the record first (rename overwriting the destination).
        let shadowed = deleted.iter().any(|(dk, _)| dk == key);
        if !shadowed && store.load(key).is_some() {
            return Err(FsError::AlreadyExists);
        }
    }
    let mut updated: Option<(Key, Record)> = None;
    if let Some(update) = &prim.update {
        match store.load(&update.cond.key) {
            Some(mut rec) => {
                for pred in &update.cond.preds {
                    rec.check(pred)?;
                }
                for assign in &update.assigns {
                    rec.apply(assign);
                }
                for (field, delta) in &update.per_deleted {
                    let scaled = FieldAssign::Delta {
                        field: *field,
                        delta: delta * deleted.len() as i64,
                    };
                    rec.apply(&scaled);
                }
                if let Some(id) = update.set_id {
                    rec.id = Some(id);
                }
                updated = Some((update.cond.key.clone(), rec));
            }
            None if update.cond.if_exist => {}
            None => return Err(FsError::NotFound),
        }
    }
    let mut quota_updated: Option<(Key, Record)> = None;
    if let Some(quota) = &prim.quota {
        match store.load(&quota.cond.key) {
            Some(mut rec) => {
                // QuotaHasRoom admission runs here, against the replicated
                // quota record, before anything is staged — deterministic
                // across replicas and all-or-nothing with the namespace op.
                for pred in &quota.cond.preds {
                    rec.check(pred)?;
                }
                for assign in &quota.assigns {
                    rec.apply(assign);
                }
                for (field, delta) in &quota.per_deleted {
                    let scaled = FieldAssign::Delta {
                        field: *field,
                        delta: delta * deleted.len() as i64,
                    };
                    rec.apply(&scaled);
                }
                quota_updated = Some((quota.cond.key.clone(), rec));
            }
            // A missing quota record means the volume is unmetered (the
            // default volume unless an operator creates one).
            None if quota.cond.if_exist => {}
            None => return Err(FsError::NotFound),
        }
    }
    // Phase 2: stage all mutations (the shard commits them as one batch).
    for (key, _) in &deleted {
        store.stage_delete(key.clone());
    }
    for (key, rec) in &prim.inserts {
        store.stage_put(key.clone(), rec.clone());
    }
    if let Some((key, rec)) = updated {
        store.stage_put(key, rec);
    }
    if let Some((key, rec)) = quota_updated {
        store.stage_put(key, rec);
    }
    Ok(PrimResult { deleted })
}

fn check_cond(store: &dyn RecordStore, cond: &Cond) -> FsResult<()> {
    match store.load(&cond.key) {
        Some(rec) => {
            for pred in &cond.preds {
                rec.check(pred)?;
            }
            Ok(())
        }
        None => {
            if cond.if_exist || cond.preds.contains(&cfs_types::Pred::NotExists) {
                Ok(())
            } else {
                Err(FsError::NotFound)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::{Decode, Encode};
    use cfs_types::{FileType, InodeId, LwwField, Pred, Timestamp};
    use std::collections::BTreeMap;

    /// In-memory record store for unit-testing primitive semantics.
    #[derive(Default)]
    struct MemStore {
        records: BTreeMap<Key, Record>,
        staged: Vec<(Key, Option<Record>)>,
    }

    impl MemStore {
        fn commit(&mut self) {
            for (k, v) in self.staged.drain(..) {
                match v {
                    Some(rec) => {
                        self.records.insert(k, rec);
                    }
                    None => {
                        self.records.remove(&k);
                    }
                }
            }
        }
    }

    impl RecordStore for MemStore {
        fn load(&self, key: &Key) -> Option<Record> {
            self.records.get(key).cloned()
        }
        fn stage_put(&mut self, key: Key, rec: Record) {
            self.staged.push((key, Some(rec)));
        }
        fn stage_delete(&mut self, key: Key) {
            self.staged.push((key, None));
        }
    }

    const DIR: InodeId = InodeId(10);

    fn store_with_dir() -> MemStore {
        let mut s = MemStore::default();
        s.records
            .insert(Key::attr(DIR), Record::dir_attr_record(100, Timestamp(1)));
        s
    }

    fn create_prim(name: &str, ino: u64, ts: u64) -> Primitive {
        Primitive::insert_with_update(
            Key::entry(DIR, name),
            Record::id_record(InodeId(ino), FileType::File),
            UpdateSpec {
                cond: Cond::require(
                    Key::attr(DIR),
                    vec![Pred::Exists, Pred::TypeIs(FileType::Dir)],
                ),
                assigns: vec![
                    FieldAssign::Delta {
                        field: NumField::Children,
                        delta: 1,
                    },
                    FieldAssign::Set {
                        field: LwwField::Mtime,
                        value: ts,
                        ts: Timestamp(ts),
                    },
                ],
                per_deleted: Vec::new(),
                set_id: None,
            },
        )
    }

    #[test]
    fn create_inserts_child_and_bumps_parent() {
        let mut s = store_with_dir();
        let res = execute(&mut s, &create_prim("a.txt", 42, 200)).unwrap();
        assert!(res.deleted.is_empty());
        s.commit();
        let child = s.records.get(&Key::entry(DIR, "a.txt")).unwrap();
        assert_eq!(child.id, Some(InodeId(42)));
        let parent = s.records.get(&Key::attr(DIR)).unwrap();
        assert_eq!(parent.children, Some(1));
        assert_eq!(parent.mtime.unwrap().val, 200);
    }

    #[test]
    fn create_fails_when_parent_missing_and_stages_nothing() {
        let mut s = MemStore::default();
        let err = execute(&mut s, &create_prim("a", 42, 200)).unwrap_err();
        assert_eq!(err, FsError::NotFound);
        assert!(s.staged.is_empty(), "failed primitive must stage nothing");
    }

    #[test]
    fn create_fails_on_duplicate_name() {
        let mut s = store_with_dir();
        execute(&mut s, &create_prim("dup", 1, 200)).unwrap();
        s.commit();
        let err = execute(&mut s, &create_prim("dup", 2, 201)).unwrap_err();
        assert_eq!(err, FsError::AlreadyExists);
    }

    fn unlink_prim(name: &str, ts: u64) -> Primitive {
        Primitive::delete_with_update(
            Cond::require(Key::entry(DIR, name), vec![Pred::TypeIs(FileType::File)]),
            UpdateSpec {
                cond: Cond::require(Key::attr(DIR), vec![Pred::TypeIs(FileType::Dir)]),
                assigns: vec![
                    FieldAssign::Delta {
                        field: NumField::Children,
                        delta: -1,
                    },
                    FieldAssign::Set {
                        field: LwwField::Mtime,
                        value: ts,
                        ts: Timestamp(ts),
                    },
                ],
                per_deleted: Vec::new(),
                set_id: None,
            },
        )
    }

    #[test]
    fn unlink_removes_child_and_returns_prior_record() {
        let mut s = store_with_dir();
        execute(&mut s, &create_prim("f", 7, 200)).unwrap();
        s.commit();
        let res = execute(&mut s, &unlink_prim("f", 300)).unwrap();
        assert_eq!(res.deleted.len(), 1);
        assert_eq!(res.deleted[0].1.id, Some(InodeId(7)));
        s.commit();
        assert!(!s.records.contains_key(&Key::entry(DIR, "f")));
        assert_eq!(s.records.get(&Key::attr(DIR)).unwrap().children, Some(0));
    }

    #[test]
    fn unlink_of_missing_file_fails() {
        let mut s = store_with_dir();
        assert_eq!(
            execute(&mut s, &unlink_prim("ghost", 1)).unwrap_err(),
            FsError::NotFound
        );
    }

    #[test]
    fn unlink_of_directory_fails_with_isdir() {
        let mut s = store_with_dir();
        s.records.insert(
            Key::entry(DIR, "subdir"),
            Record::id_record(InodeId(20), FileType::Dir),
        );
        assert_eq!(
            execute(&mut s, &unlink_prim("subdir", 1)).unwrap_err(),
            FsError::IsDir
        );
    }

    #[test]
    fn rmdir_emptiness_check_blocks_nonempty_dir() {
        let mut s = store_with_dir();
        // rmdir's emptiness check targets the child's own attr record.
        let sub = InodeId(20);
        let mut attr = Record::dir_attr_record(0, Timestamp(1));
        attr.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: 2,
        });
        s.records.insert(Key::attr(sub), attr);
        let prim = Primitive {
            checks: vec![Cond::require(Key::attr(sub), vec![Pred::ChildrenEq(0)])],
            ..Default::default()
        };
        assert_eq!(execute(&mut s, &prim).unwrap_err(), FsError::NotEmpty);
    }

    fn rename_prim(src: &str, dst: &str, src_ino: u64, ts: u64) -> Primitive {
        // Figure 8(c): move A to B within one directory.
        Primitive::insert_and_delete_with_update(
            Key::entry(DIR, dst),
            Record::id_record(InodeId(src_ino), FileType::File),
            vec![
                Cond::require(Key::entry(DIR, src), vec![Pred::TypeIs(FileType::File)]),
                Cond::if_exist(Key::entry(DIR, dst), vec![Pred::TypeIs(FileType::File)]),
            ],
            UpdateSpec {
                cond: Cond::require(Key::attr(DIR), vec![Pred::TypeIs(FileType::Dir)]),
                assigns: vec![
                    // +1 for the inserted destination entry.
                    FieldAssign::Delta {
                        field: NumField::Children,
                        delta: 1,
                    },
                    FieldAssign::Set {
                        field: LwwField::Mtime,
                        value: ts,
                        ts: Timestamp(ts),
                    },
                ],
                // -1 per record actually deleted (source always; dest iff it
                // existed) — net 0 or -1, "determined by TafDB internal".
                per_deleted: vec![(NumField::Children, -1)],
                set_id: None,
            },
        )
    }

    #[test]
    fn rename_without_destination_keeps_children_count() {
        let mut s = store_with_dir();
        execute(&mut s, &create_prim("a", 1, 100)).unwrap();
        s.commit();
        let res = execute(&mut s, &rename_prim("a", "b", 1, 300)).unwrap();
        assert_eq!(res.deleted.len(), 1, "only the source entry deleted");
        s.commit();
        assert!(!s.records.contains_key(&Key::entry(DIR, "a")));
        assert_eq!(
            s.records.get(&Key::entry(DIR, "b")).unwrap().id,
            Some(InodeId(1))
        );
        assert_eq!(s.records.get(&Key::attr(DIR)).unwrap().children, Some(1));
    }

    #[test]
    fn rename_over_existing_destination_decrements_children() {
        let mut s = store_with_dir();
        execute(&mut s, &create_prim("a", 1, 100)).unwrap();
        s.commit();
        execute(&mut s, &create_prim("b", 2, 101)).unwrap();
        s.commit();
        let res = execute(&mut s, &rename_prim("a", "b", 1, 300)).unwrap();
        assert_eq!(res.deleted.len(), 2, "source and destination both deleted");
        // The overwritten destination's record is surfaced so the client can
        // delete its FileStore attribute.
        assert!(res.deleted.iter().any(|(_, r)| r.id == Some(InodeId(2))));
        s.commit();
        assert_eq!(
            s.records.get(&Key::entry(DIR, "b")).unwrap().id,
            Some(InodeId(1))
        );
        assert_eq!(s.records.get(&Key::attr(DIR)).unwrap().children, Some(1));
    }

    #[test]
    fn rename_missing_source_fails() {
        let mut s = store_with_dir();
        assert_eq!(
            execute(&mut s, &rename_prim("ghost", "b", 1, 300)).unwrap_err(),
            FsError::NotFound
        );
    }

    #[test]
    fn rename_onto_directory_fails() {
        let mut s = store_with_dir();
        execute(&mut s, &create_prim("a", 1, 100)).unwrap();
        s.commit();
        s.records.insert(
            Key::entry(DIR, "d"),
            Record::id_record(InodeId(9), FileType::Dir),
        );
        assert_eq!(
            execute(&mut s, &rename_prim("a", "d", 1, 300)).unwrap_err(),
            FsError::IsDir
        );
    }

    #[test]
    fn concurrent_creates_merge_without_loss() {
        // The lost-update anomaly of §3.1: two creates under one parent both
        // update `children`. With delta merging, applying both primitives in
        // either order yields children = 2, never 1.
        let mut s1 = store_with_dir();
        execute(&mut s1, &create_prim("x", 1, 100)).unwrap();
        s1.commit();
        execute(&mut s1, &create_prim("y", 2, 101)).unwrap();
        s1.commit();
        let mut s2 = store_with_dir();
        execute(&mut s2, &create_prim("y", 2, 101)).unwrap();
        s2.commit();
        execute(&mut s2, &create_prim("x", 1, 100)).unwrap();
        s2.commit();
        assert_eq!(s1.records.get(&Key::attr(DIR)).unwrap().children, Some(2));
        assert_eq!(
            s1.records.get(&Key::attr(DIR)).unwrap().children,
            s2.records.get(&Key::attr(DIR)).unwrap().children
        );
        // mtime converges to the larger timestamp in both orders.
        assert_eq!(
            s1.records.get(&Key::attr(DIR)).unwrap().mtime,
            s2.records.get(&Key::attr(DIR)).unwrap().mtime
        );
    }

    #[test]
    fn touched_kids_single_shard_for_intra_dir_ops() {
        let prim = rename_prim("a", "b", 1, 1);
        assert_eq!(prim.touched_kids(), vec![DIR]);
    }

    const QUOTA: InodeId = InodeId(0);

    fn quota_charge(inodes: i64, bytes: i64) -> UpdateSpec {
        UpdateSpec::new(
            Cond::if_exist(Key::attr(QUOTA), vec![Pred::QuotaHasRoom { inodes, bytes }]),
            vec![
                FieldAssign::Delta {
                    field: NumField::Links,
                    delta: inodes,
                },
                FieldAssign::Delta {
                    field: NumField::Size,
                    delta: bytes,
                },
            ],
        )
    }

    #[test]
    fn quota_clause_admits_charges_and_rejects_past_the_limit() {
        let mut s = store_with_dir();
        s.records
            .insert(Key::attr(QUOTA), Record::quota_record(Some(2), None));
        execute(
            &mut s,
            &create_prim("a", 1, 100).with_quota(quota_charge(1, 0)),
        )
        .unwrap();
        s.commit();
        execute(
            &mut s,
            &create_prim("b", 2, 101).with_quota(quota_charge(1, 0)),
        )
        .unwrap();
        s.commit();
        assert_eq!(s.records.get(&Key::attr(QUOTA)).unwrap().links, Some(2));
        // Third create is over the inode limit: rejected atomically, so
        // neither the entry insert nor the parent update lands.
        let err = execute(
            &mut s,
            &create_prim("c", 3, 102).with_quota(quota_charge(1, 0)),
        )
        .unwrap_err();
        assert_eq!(err, FsError::QuotaExceeded);
        assert!(s.staged.is_empty(), "rejected primitive stages nothing");
        assert!(!s.records.contains_key(&Key::entry(DIR, "c")));
        // Releasing via a negative delta (unlink) makes room again.
        execute(
            &mut s,
            &unlink_prim("a", 200).with_quota(quota_charge(-1, 0)),
        )
        .unwrap();
        s.commit();
        execute(
            &mut s,
            &create_prim("c", 3, 300).with_quota(quota_charge(1, 0)),
        )
        .unwrap();
        s.commit();
        assert_eq!(s.records.get(&Key::attr(QUOTA)).unwrap().links, Some(2));
    }

    #[test]
    fn missing_quota_record_means_unmetered() {
        let mut s = store_with_dir();
        execute(
            &mut s,
            &create_prim("a", 1, 100).with_quota(quota_charge(1, 0)),
        )
        .unwrap();
        s.commit();
        assert!(s.records.contains_key(&Key::entry(DIR, "a")));
        assert!(!s.records.contains_key(&Key::attr(QUOTA)));
    }

    #[test]
    fn touched_kids_includes_the_quota_record() {
        let prim = create_prim("a", 1, 1).with_quota(quota_charge(1, 0));
        assert_eq!(prim.touched_kids(), vec![QUOTA, DIR]);
    }

    #[test]
    fn primitive_codec_round_trip() {
        let prims = vec![
            create_prim("file", 3, 50),
            unlink_prim("file", 60),
            rename_prim("a", "b", 3, 70),
            create_prim("file", 3, 50).with_quota(quota_charge(1, 4096)),
        ];
        for p in prims {
            let buf = p.to_bytes();
            assert_eq!(Primitive::from_bytes(&buf).unwrap(), p);
        }
    }

    #[test]
    fn prim_result_codec_round_trip() {
        let r = PrimResult {
            deleted: vec![(
                Key::entry(DIR, "x"),
                Record::id_record(InodeId(5), FileType::File),
            )],
        };
        let buf = r.to_bytes();
        assert_eq!(PrimResult::from_bytes(&buf).unwrap(), r);
    }
}
