//! Identifier newtypes used across the system.

use std::fmt;

use crate::wire;

/// Identifier of a file or directory inode.
///
/// Inode ids are allocated by the metadata service and are unique for the
/// lifetime of a file system instance. The root directory always has
/// [`ROOT_INODE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InodeId(pub u64);

/// The fixed inode id of the file system root directory.
///
/// With the volume-prefixed id layout this is the root of the *default
/// volume* ([`VolumeId::DEFAULT`]): volume 0, local id 1.
pub const ROOT_INODE: InodeId = InodeId(1);

/// Bits of an [`InodeId`] reserved for the owning volume (tenant) id.
///
/// The volume id occupies the *top* 16 bits of the 64-bit inode id. Because
/// TafDB's sortable key encoding leads with the 8-byte big-endian `kID`,
/// the volume id is literally a byte prefix of the key schema: every record
/// of a volume sorts into one contiguous key band, so range partitioning,
/// shard splits, and migrations are tenant-aware with no kv-layer changes.
pub const VOLUME_SHIFT: u32 = 48;

/// Identifier of a volume (tenant namespace). Volume 0 is the default
/// volume whose root is the classic [`ROOT_INODE`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VolumeId(pub u16);

impl VolumeId {
    /// The default volume: the namespace every pre-volume client lives in.
    pub const DEFAULT: VolumeId = VolumeId(0);

    /// First inode id of this volume's key band (`v << 48`). The band-start
    /// id has local id 0 — never allocated to a file — and hosts the
    /// volume's quota record.
    pub fn band_start(self) -> InodeId {
        InodeId((self.0 as u64) << VOLUME_SHIFT)
    }

    /// Last inode id of this volume's key band (inclusive).
    pub fn band_end(self) -> InodeId {
        InodeId(((self.0 as u64) << VOLUME_SHIFT) | ((1u64 << VOLUME_SHIFT) - 1))
    }

    /// The reserved kid holding this volume's quota record (local id 0).
    pub fn quota_kid(self) -> InodeId {
        self.band_start()
    }

    /// This volume's root directory inode (local id 1).
    pub fn root_inode(self) -> InodeId {
        InodeId::compose(self, 1)
    }
}

impl fmt::Debug for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol#{}", self.0)
    }
}

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

wire!(struct VolumeId(raw));

impl InodeId {
    /// Returns the raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns true for the reserved "no inode" sentinel (id 0).
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Builds an inode id from a volume and a 48-bit volume-local id.
    pub fn compose(vol: VolumeId, local: u64) -> InodeId {
        debug_assert!(local < (1u64 << VOLUME_SHIFT), "local id overflows band");
        InodeId(((vol.0 as u64) << VOLUME_SHIFT) | local)
    }

    /// The volume (tenant) this inode belongs to, from the id's top bits.
    pub fn volume(self) -> VolumeId {
        VolumeId((self.0 >> VOLUME_SHIFT) as u16)
    }

    /// The 48-bit volume-local part of the id.
    pub fn local(self) -> u64 {
        self.0 & ((1u64 << VOLUME_SHIFT) - 1)
    }
}

impl fmt::Debug for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino#{}", self.0)
    }
}

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a node (server process) in the simulated cluster.
///
/// Every addressable endpoint in the [`cfs-rpc`] network — TafDB backends,
/// FileStore nodes, Renamer replicas, time servers, metadata proxies — gets a
/// distinct `NodeId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a metadata shard within TafDB (a contiguous `kID` range).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

/// Identifier of a file data block stored in FileStore.
///
/// A block id is the pair of the owning file's inode id and the block index
/// within the file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId {
    /// The file this block belongs to.
    pub ino: InodeId,
    /// Zero-based index of the block within the file.
    pub index: u32,
}

wire!(struct InodeId(raw));

wire!(struct NodeId(raw));

wire!(struct ShardId(raw));

wire!(struct BlockId { ino, index });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};

    #[test]
    fn root_inode_is_one() {
        assert_eq!(ROOT_INODE.raw(), 1);
        assert!(!ROOT_INODE.is_null());
        assert!(InodeId(0).is_null());
    }

    #[test]
    fn inode_id_orders_numerically() {
        assert!(InodeId(2) < InodeId(10));
        assert!(InodeId(10) > ROOT_INODE);
    }

    #[test]
    fn volume_prefix_occupies_the_top_bits() {
        assert_eq!(ROOT_INODE.volume(), VolumeId::DEFAULT);
        assert_eq!(VolumeId::DEFAULT.root_inode(), ROOT_INODE);
        let v = VolumeId(3);
        let ino = InodeId::compose(v, 42);
        assert_eq!(ino.volume(), v);
        assert_eq!(ino.local(), 42);
        assert_eq!(v.band_start().raw(), 3u64 << 48);
        assert_eq!(v.band_end().raw(), (4u64 << 48) - 1);
        assert_eq!(v.quota_kid(), v.band_start());
        assert_eq!(v.root_inode().raw(), (3u64 << 48) | 1);
        // Bands are disjoint and ordered: every id of volume 3 sorts
        // strictly between volume 2's and volume 4's bands.
        assert!(VolumeId(2).band_end() < v.band_start());
        assert!(v.band_end() < VolumeId(4).band_start());
    }

    #[test]
    fn id_codec_round_trip() {
        let mut buf = Vec::new();
        InodeId(42).encode(&mut buf);
        NodeId(7).encode(&mut buf);
        ShardId(3).encode(&mut buf);
        BlockId {
            ino: InodeId(9),
            index: 4,
        }
        .encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(InodeId::decode(&mut input).unwrap(), InodeId(42));
        assert_eq!(NodeId::decode(&mut input).unwrap(), NodeId(7));
        assert_eq!(ShardId::decode(&mut input).unwrap(), ShardId(3));
        assert_eq!(
            BlockId::decode(&mut input).unwrap(),
            BlockId {
                ino: InodeId(9),
                index: 4
            }
        );
        assert!(input.is_empty());
    }
}
