//! The garbage collector's pairing input: the `pending` table (paper §4.4).
//!
//! The paper's collector "watches the write ahead logs of TafDB and
//! FileStore to learn recent metadata mutations ... and performs a pairing
//! analysis ... to find unmatched/orphaned records". Here every TafDB shard
//! and every FileStore node keeps the unpaired part of that history as
//! replicated state: each replica records the structural events it applies
//! into a [`PendingTable`], and the table travels in the snapshot image with
//! the rest of the state machine. There is one row per `(record key, ino)`
//! (an attribute record's key is its inode's, so its rows leave it empty);
//! the opposite event on the same row cancels it instead of adding one, so
//! the table holds only unbalanced rows — bounded by the live namespace, not
//! by history, whether or not a collector runs. The collector reads the rows,
//! pairs them per inode, repairs what a crashed client left behind, and then
//! drops the rows it settled with a replicated trim.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::codec::{read_tag, write_varint, Decode, DecodeError, Encode, EncodeListItem};
use crate::id::InodeId;

/// A structural change to one record: it came into existence or went away.
/// Opposite events are adjacent, so a discriminant's low bit flips one into
/// the other.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PendingEvent {
    /// TafDB inserted an id record pointing at the inode (create, mkdir,
    /// rename destination).
    Linked,
    /// TafDB deleted an id record that pointed at the inode (unlink, rmdir,
    /// rename source).
    Unlinked,
    /// TafDB created the directory attribute record of the inode.
    DirAttrPut,
    /// TafDB deleted the directory attribute record of the inode.
    DirAttrDeleted,
    /// FileStore created the attribute record of the file.
    AttrPut,
    /// FileStore deleted the attribute record of the file.
    AttrDeleted,
}

impl PendingEvent {
    /// Every event, indexed by its discriminant (the wire tag).
    const ALL: [PendingEvent; 6] = [
        PendingEvent::Linked,
        PendingEvent::Unlinked,
        PendingEvent::DirAttrPut,
        PendingEvent::DirAttrDeleted,
        PendingEvent::AttrPut,
        PendingEvent::AttrDeleted,
    ];

    /// The event that cancels this one on the same row.
    fn opposite(self) -> PendingEvent {
        PendingEvent::ALL[self as usize ^ 1]
    }
}

/// One unbalanced row of a pending table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PendingRow {
    /// The id record's key, for a link or an unlink; empty for an attribute
    /// record, which the inode alone names (so an attribute row costs no key
    /// allocation).
    pub key: Vec<u8>,
    /// The inode the record belongs to (an id record's target).
    pub ino: InodeId,
    /// What happened to the record.
    pub event: PendingEvent,
}

/// The unbalanced structural events one replicated group has applied.
#[derive(Default, Debug)]
pub struct PendingTable {
    rows: BTreeMap<(Box<[u8]>, InodeId), PendingEvent>,
}

impl PendingTable {
    /// Records `event` on the row `(key, ino)`: the opposite event cancels
    /// the row, a repeat of the same event leaves it as it is.
    pub fn record(&mut self, key: Vec<u8>, ino: InodeId, event: PendingEvent) {
        match self.rows.entry((key.into_boxed_slice(), ino)) {
            Entry::Occupied(row) if *row.get() == event.opposite() => {
                row.remove();
            }
            Entry::Occupied(_) => {}
            Entry::Vacant(row) => {
                row.insert(event);
            }
        }
    }

    /// Every row, in key order.
    pub fn rows(&self) -> Vec<PendingRow> {
        self.rows
            .iter()
            .map(|((key, ino), &event)| PendingRow {
                key: key.to_vec(),
                ino: *ino,
                event,
            })
            .collect()
    }

    /// Drops each of `rows` that the table still holds unchanged.
    pub fn trim(&mut self, rows: &[PendingRow]) {
        for r in rows {
            let id = (r.key.clone().into_boxed_slice(), r.ino);
            if self.rows.get(&id) == Some(&r.event) {
                self.rows.remove(&id);
            }
        }
    }
}

/// A row's wire form (the key as a `Vec<u8>` encodes), shared by
/// [`PendingRow`] and the table's image so that a snapshot copies no row.
fn encode_row(key: &[u8], ino: InodeId, event: PendingEvent, buf: &mut Vec<u8>) {
    write_varint(key.len() as u64, buf);
    buf.extend_from_slice(key);
    ino.encode(buf);
    buf.push(event as u8);
}

impl EncodeListItem for PendingRow {}

impl Encode for PendingRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_row(&self.key, self.ino, self.event, buf);
    }
}

impl Decode for PendingRow {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let key = Vec::<u8>::decode(input)?;
        let ino = InodeId::decode(input)?;
        let tag = read_tag(input)?;
        let event = *PendingEvent::ALL
            .get(usize::from(tag))
            .ok_or(DecodeError::InvalidTag {
                ty: "PendingEvent",
                tag,
            })?;
        Ok(PendingRow { key, ino, event })
    }
}

/// The snapshot-image form: the rows in key order, so equal tables encode
/// to equal bytes.
impl Encode for PendingTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.rows.len() as u64, buf);
        for ((key, ino), &event) in &self.rows {
            encode_row(key, *ino, event, buf);
        }
    }
}

impl Decode for PendingTable {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let rows = Vec::<PendingRow>::decode(input)?;
        Ok(PendingTable {
            rows: rows
                .into_iter()
                .map(|r| ((r.key.into_boxed_slice(), r.ino), r.event))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tags_index_the_event_table() {
        for (tag, event) in PendingEvent::ALL.into_iter().enumerate() {
            assert_eq!(event as usize, tag);
            assert_eq!(event.opposite().opposite(), event);
            assert_ne!(event.opposite(), event);
        }
    }

    #[test]
    fn opposite_events_cancel_and_repeats_do_not_stack() {
        let mut t = PendingTable::default();
        t.record(b"a".to_vec(), InodeId(1), PendingEvent::Linked);
        t.record(b"a".to_vec(), InodeId(1), PendingEvent::Linked);
        t.record(b"b".to_vec(), InodeId(1), PendingEvent::Unlinked);
        assert_eq!(t.rows().len(), 2);
        t.record(b"a".to_vec(), InodeId(1), PendingEvent::Unlinked);
        t.record(b"b".to_vec(), InodeId(1), PendingEvent::Linked);
        assert!(t.rows().is_empty());
        // The same key pointing at another inode is another row.
        t.record(b"a".to_vec(), InodeId(1), PendingEvent::Unlinked);
        t.record(b"a".to_vec(), InodeId(2), PendingEvent::Linked);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn trim_drops_only_rows_still_unchanged() {
        let mut t = PendingTable::default();
        t.record(b"a".to_vec(), InodeId(1), PendingEvent::AttrPut);
        t.record(b"b".to_vec(), InodeId(2), PendingEvent::AttrPut);
        let read = t.rows();
        // Row b flips after the read: cancelled, then deleted again.
        t.record(b"b".to_vec(), InodeId(2), PendingEvent::AttrDeleted);
        t.record(b"b".to_vec(), InodeId(2), PendingEvent::AttrDeleted);
        t.trim(&read);
        assert_eq!(
            t.rows(),
            vec![PendingRow {
                key: b"b".to_vec(),
                ino: InodeId(2),
                event: PendingEvent::AttrDeleted,
            }]
        );
    }

    #[test]
    fn table_round_trips_in_key_order() {
        let mut t = PendingTable::default();
        for (key, ino, event) in [
            (b"z".to_vec(), 3, PendingEvent::DirAttrDeleted),
            (b"a".to_vec(), 1, PendingEvent::Linked),
            (b"m".to_vec(), 2, PendingEvent::AttrPut),
        ] {
            t.record(key, InodeId(ino), event);
        }
        let bytes = t.to_bytes();
        // The image is the row list's wire form, written without copying it.
        assert_eq!(bytes, t.rows().to_bytes());
        let back = PendingTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(t.rows()[0].key, b"a".to_vec());
        assert!(PendingTable::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
