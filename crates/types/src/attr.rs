//! File and directory attributes as exposed to clients (`stat`-style).

use crate::id::InodeId;
use crate::time::Timestamp;
use crate::wire;

/// The type of an inode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FileType {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

wire!(enum FileType { 0 => File, 1 => Dir, 2 => Symlink });

/// A full attribute snapshot of an inode, the result of `getattr`.
///
/// For files these key-value pairs live in FileStore's per-node RocksDB-style
/// store (paper §4.1, "keys are inode ids while values are byte streams
/// encoded by file attributes"); for directories they are materialized from
/// the `/_ATTR` record in TafDB's `inode_table`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attr {
    /// Inode id of the object itself.
    pub ino: InodeId,
    /// File, directory, or symlink.
    pub ftype: FileType,
    /// Hard link count. Directories count `.`/`..`-style links: 2 + number of
    /// child directories, as in ext4.
    pub links: u64,
    /// Number of directory entries (0 for files).
    pub children: u64,
    /// Size in bytes (for directories: a nominal entry-count-scaled size).
    pub size: u64,
    /// Last modification time (logical microseconds).
    pub mtime: u64,
    /// Last status change time.
    pub ctime: u64,
    /// Last access time.
    pub atime: u64,
    /// Permission bits.
    pub mode: u32,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
    /// Symlink target, when `ftype` is [`FileType::Symlink`].
    pub symlink_target: Option<String>,
    /// Timestamp of the last last-writer-wins mutation, used by the merge
    /// procedures of paper §4.2.
    pub lww_ts: Timestamp,
}

/// Default permission bits for new files (`rw-r--r--`).
pub const DEFAULT_FILE_MODE: u32 = 0o644;
/// Default permission bits for new directories (`rwxr-xr-x`).
pub const DEFAULT_DIR_MODE: u32 = 0o755;

impl Attr {
    /// Builds the attribute record of a freshly created regular file.
    pub fn new_file(ino: InodeId, now: u64) -> Attr {
        Attr {
            ino,
            ftype: FileType::File,
            links: 1,
            children: 0,
            size: 0,
            mtime: now,
            ctime: now,
            atime: now,
            mode: DEFAULT_FILE_MODE,
            uid: 0,
            gid: 0,
            symlink_target: None,
            lww_ts: Timestamp::ZERO,
        }
    }

    /// Builds the attribute record of a freshly created directory.
    pub fn new_dir(ino: InodeId, now: u64) -> Attr {
        Attr {
            ino,
            ftype: FileType::Dir,
            links: 2,
            children: 0,
            size: 0,
            mtime: now,
            ctime: now,
            atime: now,
            mode: DEFAULT_DIR_MODE,
            uid: 0,
            gid: 0,
            symlink_target: None,
            lww_ts: Timestamp::ZERO,
        }
    }

    /// Builds the attribute record of a freshly created symlink.
    pub fn new_symlink(ino: InodeId, now: u64, target: impl Into<String>) -> Attr {
        Attr {
            ino,
            ftype: FileType::Symlink,
            links: 1,
            children: 0,
            size: 0,
            mtime: now,
            ctime: now,
            atime: now,
            mode: 0o777,
            uid: 0,
            gid: 0,
            symlink_target: Some(target.into()),
            lww_ts: Timestamp::ZERO,
        }
    }

    /// Returns true for directories.
    pub fn is_dir(&self) -> bool {
        self.ftype == FileType::Dir
    }
}

wire!(struct Attr {
    ino,
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
    lww_ts,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};

    #[test]
    fn new_file_defaults() {
        let a = Attr::new_file(InodeId(5), 1000);
        assert_eq!(a.links, 1);
        assert_eq!(a.children, 0);
        assert_eq!(a.mode, DEFAULT_FILE_MODE);
        assert!(!a.is_dir());
    }

    #[test]
    fn new_dir_defaults() {
        let a = Attr::new_dir(InodeId(6), 1000);
        assert_eq!(a.links, 2);
        assert!(a.is_dir());
        assert_eq!(a.mode, DEFAULT_DIR_MODE);
    }

    #[test]
    fn attr_codec_round_trip() {
        let mut a = Attr::new_symlink(InodeId(9), 777, "/target/path");
        a.size = 12345;
        a.lww_ts = Timestamp(42);
        let buf = a.to_bytes();
        assert_eq!(Attr::from_bytes(&buf).unwrap(), a);
    }

    #[test]
    fn attr_value_is_compact() {
        // Paper §4.1: each file attribute record consumes ~0.2 KB; our encoded
        // form must stay well under that.
        let a = Attr::new_file(InodeId(u64::MAX), u64::MAX);
        assert!(a.to_bytes().len() < 200);
    }
}
