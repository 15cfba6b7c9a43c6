//! The `<kID, kStr>` composite primary key of TafDB's `inode_table`.
//!
//! Paper §4.1: every record in the unified `inode_table` is addressed by a
//! pair of the *inode id* component `kID` and a *string* component `kStr`.
//! For directory/file **id records**, `kID` is the parent's inode id and
//! `kStr` is the entry name; for directory **attribute records**, `kID` is the
//! directory's own inode id and `kStr` is the reserved keyword `/_ATTR`.
//!
//! The byte encoding is order-preserving: sorting encoded keys
//! lexicographically equals sorting `(kID, kStr)` pairs, with the attribute
//! record ordered before all child entries of the same directory. This is what
//! lets range partitioning on `kID` co-locate a directory's attribute record
//! with all of its children's id records on one shard.

use std::fmt;

use crate::codec::DecodeError;
use crate::id::InodeId;
use crate::wire;

/// The string component of the composite key.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KStr {
    /// The reserved `/_ATTR` keyword selecting a directory's attribute record.
    Attr,
    /// A directory entry name selecting a child's id record.
    Name(String),
}

impl KStr {
    /// Returns the entry name, or `None` for the attribute keyword.
    pub fn name(&self) -> Option<&str> {
        match self {
            KStr::Attr => None,
            KStr::Name(n) => Some(n),
        }
    }
}

impl fmt::Debug for KStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KStr::Attr => write!(f, "/_ATTR"),
            KStr::Name(n) => write!(f, "{n:?}"),
        }
    }
}

/// Composite primary key `<kID, kStr>` of the `inode_table`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Inode id component: the parent directory for id records, the directory
    /// itself for attribute records.
    pub kid: InodeId,
    /// String component: entry name or the `/_ATTR` keyword.
    pub kstr: KStr,
}

impl Key {
    /// Key of the attribute record of directory `dir`.
    pub fn attr(dir: InodeId) -> Key {
        Key {
            kid: dir,
            kstr: KStr::Attr,
        }
    }

    /// Key of the id record of entry `name` under directory `parent`.
    pub fn entry(parent: InodeId, name: impl Into<String>) -> Key {
        Key {
            kid: parent,
            kstr: KStr::Name(name.into()),
        }
    }

    /// Returns true if this key addresses an attribute record.
    pub fn is_attr(&self) -> bool {
        matches!(self.kstr, KStr::Attr)
    }

    /// Order-preserving byte encoding used as the kvstore key.
    ///
    /// Layout: 8-byte big-endian `kID`, then a tag byte (`0x00` for `/_ATTR`,
    /// `0x01` for names) followed by the raw name bytes. Because the tag byte
    /// precedes the name, the attribute record of a directory sorts before all
    /// of its children, and all keys of one `kID` are contiguous.
    pub fn to_sortable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.kstr.name().map_or(0, str::len));
        out.extend_from_slice(&self.kid.raw().to_be_bytes());
        match &self.kstr {
            KStr::Attr => out.push(0x00),
            KStr::Name(n) => {
                out.push(0x01);
                out.extend_from_slice(n.as_bytes());
            }
        }
        out
    }

    /// Decodes a key previously produced by [`Key::to_sortable_bytes`].
    pub fn from_sortable_bytes(bytes: &[u8]) -> Result<Key, DecodeError> {
        if bytes.len() < 9 {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut kid = [0u8; 8];
        kid.copy_from_slice(&bytes[..8]);
        let kid = InodeId(u64::from_be_bytes(kid));
        match bytes[8] {
            0x00 if bytes.len() == 9 => Ok(Key {
                kid,
                kstr: KStr::Attr,
            }),
            0x00 => Err(DecodeError::InvalidTag { ty: "Key", tag: 0 }),
            0x01 => {
                let name =
                    std::str::from_utf8(&bytes[9..]).map_err(|_| DecodeError::InvalidUtf8)?;
                Ok(Key::entry(kid, name))
            }
            tag => Err(DecodeError::InvalidTag { ty: "Key", tag }),
        }
    }

    /// Inclusive lower bound of the byte range holding every record whose
    /// `kID` equals `dir` (the attribute record plus all children).
    pub fn dir_range_start(dir: InodeId) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&dir.raw().to_be_bytes());
        out
    }

    /// Exclusive upper bound of the byte range of [`Key::dir_range_start`].
    pub fn dir_range_end(dir: InodeId) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&(dir.raw() + 1).to_be_bytes());
        out
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:?},{:?}>", self.kid, self.kstr)
    }
}

wire!(enum KStr { 0 => Attr, 1 => Name(name) });

wire!(struct Key { kid, kstr });

/// Validates a directory entry name per POSIX rules enforced by CFS.
///
/// Rejects empty names, `.` and `..`, embedded `/` and NUL, and names longer
/// than 255 bytes (`NAME_MAX`).
pub fn validate_name(name: &str) -> Result<(), crate::error::FsError> {
    use crate::error::FsError;
    if name.is_empty() {
        return Err(FsError::Invalid("empty name".into()));
    }
    if name == "." || name == ".." {
        return Err(FsError::Invalid(format!("reserved name {name:?}")));
    }
    if name.contains('/') || name.contains('\0') {
        return Err(FsError::Invalid("name contains '/' or NUL".into()));
    }
    if name.len() > 255 {
        return Err(FsError::Invalid("name exceeds NAME_MAX".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use proptest::prelude::*;

    #[test]
    fn attr_sorts_before_children() {
        let attr = Key::attr(InodeId(7)).to_sortable_bytes();
        let child = Key::entry(InodeId(7), "a").to_sortable_bytes();
        assert!(attr < child);
    }

    #[test]
    fn different_dirs_do_not_interleave() {
        let last_of_7 = Key::entry(InodeId(7), "\u{10FFFF}zzzz").to_sortable_bytes();
        let attr_of_8 = Key::attr(InodeId(8)).to_sortable_bytes();
        assert!(last_of_7 < attr_of_8);
    }

    #[test]
    fn dir_range_covers_exactly_one_kid() {
        let lo = Key::dir_range_start(InodeId(9));
        let hi = Key::dir_range_end(InodeId(9));
        let attr = Key::attr(InodeId(9)).to_sortable_bytes();
        let child = Key::entry(InodeId(9), "zz").to_sortable_bytes();
        let other = Key::attr(InodeId(10)).to_sortable_bytes();
        assert!(lo <= attr && attr < hi);
        assert!(lo <= child && child < hi);
        assert!(other >= hi);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("hello.txt").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".").is_err());
        assert!(validate_name("..").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(&"x".repeat(256)).is_err());
        assert!(validate_name(&"x".repeat(255)).is_ok());
    }

    proptest! {
        #[test]
        fn prop_sortable_round_trip(kid: u64, name in "[^/\0]{1,40}") {
            let k = Key::entry(InodeId(kid), name);
            let bytes = k.to_sortable_bytes();
            prop_assert_eq!(Key::from_sortable_bytes(&bytes).unwrap(), k);
        }

        #[test]
        fn prop_sortable_order_matches_logical_order(
            kid1: u64, kid2: u64, n1 in "[^/\0]{1,16}", n2 in "[^/\0]{1,16}"
        ) {
            let k1 = Key::entry(InodeId(kid1), n1);
            let k2 = Key::entry(InodeId(kid2), n2);
            let byte_order = k1.to_sortable_bytes().cmp(&k2.to_sortable_bytes());
            let logical = k1.kid.cmp(&k2.kid).then_with(|| {
                k1.kstr.name().unwrap().as_bytes().cmp(k2.kstr.name().unwrap().as_bytes())
            });
            prop_assert_eq!(byte_order, logical);
        }

        #[test]
        fn prop_codec_round_trip(kid: u64, name in "[^/\0]{0,40}") {
            let k = if name.is_empty() {
                Key::attr(InodeId(kid))
            } else {
                Key::entry(InodeId(kid), name)
            };
            let buf = k.to_bytes();
            prop_assert_eq!(Key::from_bytes(&buf).unwrap(), k);
        }
    }
}
