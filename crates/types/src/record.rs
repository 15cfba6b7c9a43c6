//! Rows of TafDB's `inode_table` and the update/condition algebra the
//! single-shard atomic primitives operate on.
//!
//! Paper §4.1 organizes all namespace metadata (except file attributes) into
//! one table whose records carry "a list of optional fields, such as id, type,
//! children, links, size, time, etc, with the unused fields set to NULL".
//! [`Record`] mirrors that: id records populate `id`/`ftype`, directory
//! attribute records populate the counter and time fields.
//!
//! Paper §4.2 distinguishes two merge classes for concurrent updates:
//!
//! * **delta apply** — `links`, `children`, `size` are numeric and mutated by
//!   commutative increments/decrements, so concurrent deltas merge in any
//!   order ([`FieldAssign::Delta`]);
//! * **last-writer-wins** — `mtime`, `mode`, owner fields are overwritten, and
//!   the value carrying the largest timestamp issued by the TS group wins
//!   ([`FieldAssign::Set`]).

use crate::attr::{Attr, FileType};
use crate::error::FsError;
use crate::id::InodeId;
use crate::key::Key;
use crate::time::Timestamp;
use crate::wire;

/// A value governed by last-writer-wins merging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lww {
    /// Current value.
    pub val: u64,
    /// Timestamp of the write that produced `val`.
    pub ts: Timestamp,
}

impl Lww {
    /// Creates an LWW cell holding `val` written at `ts`.
    pub fn new(val: u64, ts: Timestamp) -> Lww {
        Lww { val, ts }
    }

    /// Merges a concurrent write: the larger timestamp wins; ties resolve to
    /// the incoming value so replays are idempotent.
    pub fn merge(&mut self, val: u64, ts: Timestamp) {
        if ts >= self.ts {
            self.val = val;
            self.ts = ts;
        }
    }
}

wire!(struct Lww { val, ts });

/// Numeric fields mutated via commutative deltas.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NumField {
    /// Hard link count.
    Links,
    /// Number of directory entries.
    Children,
    /// Object size in bytes.
    Size,
}

/// Overwrite fields merged last-writer-wins.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LwwField {
    /// Modification time.
    Mtime,
    /// Status change time.
    Ctime,
    /// Access time.
    Atime,
    /// Permission bits.
    Mode,
    /// Owning user.
    Uid,
    /// Owning group.
    Gid,
}

/// One entry of an `assignment_list` (paper Table 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FieldAssign {
    /// `field += delta` — commutative, lock-free mergeable.
    Delta {
        /// Target counter field.
        field: NumField,
        /// Signed increment.
        delta: i64,
    },
    /// `field = value` at timestamp `ts` — merged last-writer-wins.
    Set {
        /// Target overwrite field.
        field: LwwField,
        /// New value.
        value: u64,
        /// Timestamp assigned by the TS group, deciding the winner.
        ts: Timestamp,
    },
}

wire!(enum NumField { 0 => Links, 1 => Children, 2 => Size });

wire!(enum LwwField {
    0 => Mtime,
    1 => Ctime,
    2 => Atime,
    3 => Mode,
    4 => Uid,
    5 => Gid,
});

wire!(enum FieldAssign {
    0 => Delta { field, delta },
    1 => Set { field, value, ts },
});

/// A predicate evaluated against one record inside a primitive's critical
/// section (the `WHERE` / condition clauses of paper Table 2 and Figure 8).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pred {
    /// The record must exist.
    Exists,
    /// The record must not exist (implicit check of `INSERT`).
    NotExists,
    /// The record's `type` field must equal the given type.
    TypeIs(FileType),
    /// The record's `type` field must differ from the given type (e.g.
    /// `unlink` accepts files and symlinks but not directories).
    TypeIsNot(FileType),
    /// The record's `children` counter must equal the given value (directory
    /// emptiness check: `children = 0`).
    ChildrenEq(i64),
    /// The record's `id` field must equal the given inode id (used by rename
    /// to guard against the entry changing under the cached resolution).
    IdEq(InodeId),
    /// Quota admission on a volume's quota record: after charging `inodes`
    /// more inodes and `bytes` more logical bytes, usage (`links` counts
    /// inodes, `size` counts bytes) must stay within the record's limits
    /// (`inode_limit` / `byte_limit`; an unset limit is unlimited).
    ///
    /// Evaluated inside the replicated apply funnel like every predicate, so
    /// enforcement is deterministic: whichever create commits first under
    /// Raft takes the last slot, on every replica identically.
    QuotaHasRoom {
        /// Inodes about to be charged.
        inodes: i64,
        /// Logical bytes about to be charged.
        bytes: i64,
    },
}

wire!(enum Pred {
    0 => Exists,
    1 => NotExists,
    2 => TypeIs(t),
    3 => ChildrenEq(n),
    4 => IdEq(id),
    5 => TypeIsNot(t),
    6 => QuotaHasRoom { inodes, bytes },
});

/// A keyed condition: all `preds` must hold on the record at `key`.
///
/// `if_exist` marks deletions that are allowed to find nothing (the `ifexist`
/// keyword of Figure 8(c)): when the record is absent the deletion is skipped
/// instead of failing the whole primitive.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cond {
    /// Record the predicates apply to.
    pub key: Key,
    /// Conjunction of predicates.
    pub preds: Vec<Pred>,
    /// Tolerate absence (skip rather than abort).
    pub if_exist: bool,
}

impl Cond {
    /// Condition requiring the record at `key` to exist with all `preds`.
    pub fn require(key: Key, preds: Vec<Pred>) -> Cond {
        Cond {
            key,
            preds,
            if_exist: false,
        }
    }

    /// Condition tolerating absence of the record at `key`.
    pub fn if_exist(key: Key, preds: Vec<Pred>) -> Cond {
        Cond {
            key,
            preds,
            if_exist: true,
        }
    }
}

wire!(struct Cond { key, preds, if_exist });

/// One row of the `inode_table`: all fields optional, unused fields `None`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Record {
    /// Inode id pointed to by an id record.
    pub id: Option<InodeId>,
    /// Inode type.
    pub ftype: Option<FileType>,
    /// Hard link count (attribute records).
    pub links: Option<i64>,
    /// Child entry count (directory attribute records).
    pub children: Option<i64>,
    /// Size in bytes (attribute records).
    pub size: Option<i64>,
    /// Modification time, LWW-merged.
    pub mtime: Option<Lww>,
    /// Status change time, LWW-merged.
    pub ctime: Option<Lww>,
    /// Access time, LWW-merged.
    pub atime: Option<Lww>,
    /// Permission bits, LWW-merged.
    pub mode: Option<Lww>,
    /// Owning user, LWW-merged.
    pub uid: Option<Lww>,
    /// Owning group, LWW-merged.
    pub gid: Option<Lww>,
    /// Symlink target for symlink id records.
    pub symlink_target: Option<String>,
    /// Parent directory pointer (baseline inline-attribute rows; CFS stores
    /// the parent in the `id` field of `/_ATTR` records instead).
    pub parent: Option<InodeId>,
    /// Inode-count quota limit (volume quota records only; `None` on a quota
    /// record means unlimited). Usage is tracked in `links` via deltas.
    pub inode_limit: Option<i64>,
    /// Logical-byte quota limit (volume quota records only). Usage is
    /// tracked in `size` via deltas.
    pub byte_limit: Option<i64>,
}

impl Record {
    /// Builds an id record pointing at `id` with type `ftype`.
    pub fn id_record(id: InodeId, ftype: FileType) -> Record {
        Record {
            id: Some(id),
            ftype: Some(ftype),
            ..Record::default()
        }
    }

    /// Builds the `/_ATTR` record of a new directory.
    pub fn dir_attr_record(now: u64, ts: Timestamp) -> Record {
        Record {
            ftype: Some(FileType::Dir),
            links: Some(2),
            children: Some(0),
            size: Some(0),
            mtime: Some(Lww::new(now, ts)),
            ctime: Some(Lww::new(now, ts)),
            atime: Some(Lww::new(now, ts)),
            mode: Some(Lww::new(u64::from(crate::attr::DEFAULT_DIR_MODE), ts)),
            uid: Some(Lww::new(0, ts)),
            gid: Some(Lww::new(0, ts)),
            ..Record::default()
        }
    }

    /// Builds a volume quota record: usage counters start at zero (`links`
    /// tracks inodes, `size` tracks logical bytes, both delta-applied), with
    /// the given limits (`None` = unlimited).
    pub fn quota_record(inode_limit: Option<i64>, byte_limit: Option<i64>) -> Record {
        Record {
            links: Some(0),
            size: Some(0),
            inode_limit,
            byte_limit,
            ..Record::default()
        }
    }

    /// Evaluates a single predicate against this record.
    pub fn check(&self, pred: &Pred) -> Result<(), FsError> {
        match pred {
            Pred::Exists => Ok(()),
            Pred::NotExists => Err(FsError::AlreadyExists),
            Pred::TypeIs(t) => {
                let actual = self
                    .ftype
                    .ok_or(FsError::Corrupted("record lacks type".into()))?;
                if actual == *t {
                    Ok(())
                } else if *t == FileType::Dir {
                    Err(FsError::NotDir)
                } else {
                    Err(FsError::IsDir)
                }
            }
            Pred::TypeIsNot(t) => {
                let actual = self
                    .ftype
                    .ok_or(FsError::Corrupted("record lacks type".into()))?;
                if actual != *t {
                    Ok(())
                } else if *t == FileType::Dir {
                    Err(FsError::IsDir)
                } else {
                    Err(FsError::NotDir)
                }
            }
            Pred::ChildrenEq(n) => {
                let actual = self.children.unwrap_or(0);
                if actual == *n {
                    Ok(())
                } else {
                    Err(FsError::NotEmpty)
                }
            }
            Pred::IdEq(id) => {
                if self.id == Some(*id) {
                    Ok(())
                } else {
                    Err(FsError::Conflict)
                }
            }
            Pred::QuotaHasRoom { inodes, bytes } => {
                let inode_ok = self
                    .inode_limit
                    .is_none_or(|lim| self.links.unwrap_or(0).saturating_add(*inodes) <= lim);
                let byte_ok = self
                    .byte_limit
                    .is_none_or(|lim| self.size.unwrap_or(0).saturating_add(*bytes) <= lim);
                if inode_ok && byte_ok {
                    Ok(())
                } else {
                    Err(FsError::QuotaExceeded)
                }
            }
        }
    }

    /// Applies one assignment with the merge semantics of paper §4.2.
    ///
    /// Counter deltas are plain signed additions, so concurrent deltas commute
    /// exactly regardless of application order; transiently negative values
    /// are permitted internally and clamped only when materializing an
    /// [`Attr`] snapshot. LWW sets keep the value with the largest timestamp.
    pub fn apply(&mut self, assign: &FieldAssign) {
        match assign {
            FieldAssign::Delta { field, delta } => {
                let slot = match field {
                    NumField::Links => &mut self.links,
                    NumField::Children => &mut self.children,
                    NumField::Size => &mut self.size,
                };
                let cur = slot.unwrap_or(0);
                *slot = Some(cur.wrapping_add(*delta));
            }
            FieldAssign::Set { field, value, ts } => {
                let slot = match field {
                    LwwField::Mtime => &mut self.mtime,
                    LwwField::Ctime => &mut self.ctime,
                    LwwField::Atime => &mut self.atime,
                    LwwField::Mode => &mut self.mode,
                    LwwField::Uid => &mut self.uid,
                    LwwField::Gid => &mut self.gid,
                };
                match slot {
                    Some(cell) => cell.merge(*value, *ts),
                    None => *slot = Some(Lww::new(*value, *ts)),
                }
            }
        }
    }

    /// Materializes a directory attribute record into a client-facing
    /// [`Attr`] snapshot for directory inode `ino`.
    pub fn to_dir_attr(&self, ino: InodeId) -> Result<Attr, FsError> {
        Ok(Attr {
            ino,
            ftype: self
                .ftype
                .ok_or(FsError::Corrupted("attr record lacks type".into()))?,
            links: self.links.unwrap_or(0).max(0) as u64,
            children: self.children.unwrap_or(0).max(0) as u64,
            size: self.size.unwrap_or(0).max(0) as u64,
            mtime: self.mtime.map_or(0, |l| l.val),
            ctime: self.ctime.map_or(0, |l| l.val),
            atime: self.atime.map_or(0, |l| l.val),
            mode: self.mode.map_or(0, |l| l.val) as u32,
            uid: self.uid.map_or(0, |l| l.val) as u32,
            gid: self.gid.map_or(0, |l| l.val) as u32,
            symlink_target: self.symlink_target.clone(),
            lww_ts: self.mtime.map_or(Timestamp::ZERO, |l| l.ts),
        })
    }
}

wire!(struct Record {
    id,
    ftype,
    links,
    children,
    size,
    mtime,
    ctime,
    atime,
    mode,
    uid,
    gid,
    symlink_target,
    parent,
    inode_limit,
    byte_limit,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use proptest::prelude::*;

    #[test]
    fn delta_apply_is_commutative() {
        let mut a = Record::dir_attr_record(0, Timestamp(1));
        let mut b = a.clone();
        let d1 = FieldAssign::Delta {
            field: NumField::Children,
            delta: 3,
        };
        let d2 = FieldAssign::Delta {
            field: NumField::Children,
            delta: -1,
        };
        a.apply(&d1);
        a.apply(&d2);
        b.apply(&d2);
        b.apply(&d1);
        assert_eq!(a.children, b.children);
        assert_eq!(a.children, Some(2));
    }

    #[test]
    fn negative_counters_clamp_in_attr_snapshot() {
        let mut r = Record::dir_attr_record(0, Timestamp(1));
        r.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: -5,
        });
        // Internally the delta sum is preserved (commutativity)...
        assert_eq!(r.children, Some(-5));
        // ...but the client-visible snapshot clamps to zero.
        let attr = r.to_dir_attr(InodeId(1)).unwrap();
        assert_eq!(attr.children, 0);
    }

    #[test]
    fn lww_keeps_largest_timestamp() {
        let mut r = Record::dir_attr_record(0, Timestamp(1));
        r.apply(&FieldAssign::Set {
            field: LwwField::Mtime,
            value: 50,
            ts: Timestamp(10),
        });
        r.apply(&FieldAssign::Set {
            field: LwwField::Mtime,
            value: 40,
            ts: Timestamp(5),
        });
        assert_eq!(
            r.mtime.unwrap().val,
            50,
            "older write must not clobber newer one"
        );
    }

    #[test]
    fn predicate_type_mismatch_maps_to_posix_errors() {
        let file = Record::id_record(InodeId(2), FileType::File);
        assert_eq!(
            file.check(&Pred::TypeIs(FileType::Dir)),
            Err(FsError::NotDir)
        );
        let dir = Record::id_record(InodeId(3), FileType::Dir);
        assert_eq!(
            dir.check(&Pred::TypeIs(FileType::File)),
            Err(FsError::IsDir)
        );
    }

    #[test]
    fn emptiness_check() {
        let mut r = Record::dir_attr_record(0, Timestamp(1));
        assert!(r.check(&Pred::ChildrenEq(0)).is_ok());
        r.apply(&FieldAssign::Delta {
            field: NumField::Children,
            delta: 1,
        });
        assert_eq!(r.check(&Pred::ChildrenEq(0)), Err(FsError::NotEmpty));
    }

    #[test]
    fn record_codec_round_trip() {
        let r = Record::dir_attr_record(123, Timestamp(9));
        let buf = r.to_bytes();
        assert_eq!(Record::from_bytes(&buf).unwrap(), r);
        let id = Record::id_record(InodeId(77), FileType::Symlink);
        let buf = id.to_bytes();
        assert_eq!(Record::from_bytes(&buf).unwrap(), id);
        let q = Record::quota_record(Some(100), None);
        let buf = q.to_bytes();
        assert_eq!(Record::from_bytes(&buf).unwrap(), q);
    }

    #[test]
    fn quota_predicate_admits_exactly_to_the_limit() {
        let mut q = Record::quota_record(Some(2), Some(1000));
        // Empty volume: one inode of 600 bytes fits.
        let want = Pred::QuotaHasRoom {
            inodes: 1,
            bytes: 600,
        };
        assert!(q.check(&want).is_ok());
        q.apply(&FieldAssign::Delta {
            field: NumField::Links,
            delta: 1,
        });
        q.apply(&FieldAssign::Delta {
            field: NumField::Size,
            delta: 600,
        });
        // Create-at-exact-limit: the second inode lands exactly on the inode
        // limit and 400 more bytes exactly on the byte limit — admitted.
        assert!(q
            .check(&Pred::QuotaHasRoom {
                inodes: 1,
                bytes: 400,
            })
            .is_ok());
        // One byte or one inode over is rejected with the typed error.
        assert_eq!(
            q.check(&Pred::QuotaHasRoom {
                inodes: 1,
                bytes: 401,
            }),
            Err(FsError::QuotaExceeded)
        );
        q.apply(&FieldAssign::Delta {
            field: NumField::Links,
            delta: 1,
        });
        assert_eq!(
            q.check(&Pred::QuotaHasRoom {
                inodes: 1,
                bytes: 0,
            }),
            Err(FsError::QuotaExceeded)
        );
        // Releases (negative deltas) always pass.
        assert!(q
            .check(&Pred::QuotaHasRoom {
                inodes: -1,
                bytes: -600,
            })
            .is_ok());
    }

    #[test]
    fn unlimited_quota_record_admits_everything() {
        let q = Record::quota_record(None, None);
        assert!(q
            .check(&Pred::QuotaHasRoom {
                inodes: i64::MAX / 2,
                bytes: i64::MAX / 2,
            })
            .is_ok());
    }

    #[test]
    fn quota_pred_codec_round_trip() {
        let p = Pred::QuotaHasRoom {
            inodes: 1,
            bytes: -42,
        };
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(Pred::decode(&mut input).unwrap(), p);
    }

    fn arb_delta() -> impl Strategy<Value = FieldAssign> {
        (0..3u8, -4i64..8).prop_map(|(f, d)| FieldAssign::Delta {
            field: match f {
                0 => NumField::Links,
                1 => NumField::Children,
                _ => NumField::Size,
            },
            delta: d,
        })
    }

    proptest! {
        #[test]
        fn prop_delta_merge_order_independent(
            deltas in proptest::collection::vec(arb_delta(), 1..24),
            seed: u64,
        ) {
            // Delta application must commute exactly: this is the property
            // that lets TafDB drop locks around spurious conflicts (§4.2).
            let base = Record::dir_attr_record(0, Timestamp(1));

            let mut in_order = base.clone();
            for d in &deltas { in_order.apply(d); }

            // Shuffle deterministically from the seed.
            let mut shuffled = deltas.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            let mut reordered = base.clone();
            for d in &shuffled { reordered.apply(d); }
            prop_assert_eq!(in_order, reordered);
        }

        #[test]
        fn prop_lww_converges_regardless_of_order(
            writes in proptest::collection::vec((0u64..1000, 1u64..1000), 1..16),
        ) {
            let mut forward = Record::default();
            let mut backward = Record::default();
            for (v, ts) in &writes {
                forward.apply(&FieldAssign::Set {
                    field: LwwField::Mtime, value: *v, ts: Timestamp(*ts),
                });
            }
            for (v, ts) in writes.iter().rev() {
                backward.apply(&FieldAssign::Set {
                    field: LwwField::Mtime, value: *v, ts: Timestamp(*ts),
                });
            }
            // Both orders must agree on the winning timestamp.
            prop_assert_eq!(
                forward.mtime.unwrap().ts,
                backward.mtime.unwrap().ts
            );
        }

        #[test]
        fn prop_record_codec_round_trip(
            id: Option<u64>, links: Option<i64>, children: Option<i64>,
            mt in proptest::option::of((0u64..u64::MAX, 0u64..u64::MAX)),
        ) {
            let r = Record {
                id: id.map(InodeId),
                ftype: Some(FileType::Dir),
                links,
                children,
                mtime: mt.map(|(v, t)| Lww::new(v, Timestamp(t))),
                ..Record::default()
            };
            let buf = r.to_bytes();
            prop_assert_eq!(Record::from_bytes(&buf).unwrap(), r);
        }
    }
}
