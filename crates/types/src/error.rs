//! Errno-style error type shared across the file system.

use std::fmt;

use crate::codec::DecodeError;
use crate::wire;

/// Result alias used throughout the CFS crates.
pub type FsResult<T> = Result<T, FsError>;

/// File system error, modelled after the POSIX errno values the paper's
/// metadata operations can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// ENOENT: path component or inode does not exist.
    NotFound,
    /// EEXIST: target name already exists.
    AlreadyExists,
    /// ENOTDIR: a non-directory appeared where a directory was required.
    NotDir,
    /// EISDIR: a directory appeared where a file was required.
    IsDir,
    /// ENOTEMPTY: directory removal attempted on a non-empty directory.
    NotEmpty,
    /// EINVAL: malformed argument (empty name, `.`/`..`, embedded `/`, ...).
    Invalid(String),
    /// ELOOP-style violation: the rename would create an orphaned loop.
    Loop,
    /// EBUSY: resource locked by a conflicting operation (baselines only
    /// surface this on lock timeouts).
    Busy,
    /// A transaction was aborted due to a conflicting concurrent transaction.
    Conflict,
    /// The request timed out (network partition, dead node).
    Timeout,
    /// ENOSPC-style failure from the storage layer.
    NoSpace,
    /// EIO: underlying storage failure with detail.
    Io(String),
    /// Internal invariant violation detected (corruption); carries detail.
    Corrupted(String),
    /// The contacted node is not the leader / not responsible for the shard;
    /// carries an optional redirect hint (raw node id).
    NotLeader(Option<u32>),
    /// The operation is not supported by this system variant.
    Unsupported(String),
    /// The contacted shard no longer owns (or is migrating away) the key
    /// range; carries the partition-map epoch at which ownership changed
    /// (0 while a migration is still in flight). Clients refresh their
    /// cached map from the placement driver and retry.
    WrongShard(u64),
    /// EDQUOT: the operation would push the volume past its inode or byte
    /// quota. Not retryable — the tenant must free space first.
    QuotaExceeded,
}

impl FsError {
    /// Returns true when retrying the same request against the same service
    /// may succeed (leadership changes, timeouts, transient conflicts, and a
    /// shard degraded by a full log volume that may be freed).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FsError::Timeout
                | FsError::NotLeader(_)
                | FsError::Conflict
                | FsError::Busy
                | FsError::WrongShard(_)
                | FsError::NoSpace
        )
    }
}

/// Typed storage-layer failure, surfaced by WAL and snapshot readers.
///
/// Distinguishes the faults a durable device can inflict: running out of
/// space, wedging after a torn write, and — the bit-rot case — returning
/// data whose checksum no longer matches what was written. Readers must
/// surface [`StorageError::Corrupt`] instead of panicking so a replica with
/// a rotten disk can be rebuilt from its peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The device is out of space.
    NoSpace,
    /// The device wedged after a torn write; everything fails until healed.
    Wedged,
    /// Read-back data failed its checksum (bit rot / misdirected write).
    Corrupt(String),
    /// Other I/O failure.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace => write!(f, "no space left on device"),
            StorageError::Wedged => write!(f, "storage device is wedged"),
            StorageError::Corrupt(d) => write!(f, "storage corruption detected: {d}"),
            StorageError::Io(d) => write!(f, "storage i/o error: {d}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for FsError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::NoSpace => FsError::NoSpace,
            StorageError::Wedged => FsError::Io("storage device is wedged".into()),
            StorageError::Corrupt(d) => FsError::Corrupted(format!("storage bit rot: {d}")),
            StorageError::Io(d) => FsError::Io(d),
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::Invalid(d) => write!(f, "invalid argument: {d}"),
            FsError::Loop => write!(f, "rename would create an orphaned loop"),
            FsError::Busy => write!(f, "resource busy"),
            FsError::Conflict => write!(f, "transaction conflict"),
            FsError::Timeout => write!(f, "request timed out"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::Io(d) => write!(f, "i/o error: {d}"),
            FsError::Corrupted(d) => write!(f, "metadata corruption detected: {d}"),
            FsError::NotLeader(hint) => match hint {
                Some(n) => write!(f, "not leader; try node {n}"),
                None => write!(f, "not leader"),
            },
            FsError::Unsupported(d) => write!(f, "operation not supported: {d}"),
            FsError::WrongShard(epoch) => {
                write!(f, "shard no longer owns the range (map epoch {epoch})")
            }
            FsError::QuotaExceeded => write!(f, "volume quota exceeded"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<DecodeError> for FsError {
    fn from(e: DecodeError) -> Self {
        FsError::Corrupted(format!("decode failure: {e}"))
    }
}

impl From<std::io::Error> for FsError {
    fn from(e: std::io::Error) -> Self {
        FsError::Io(e.to_string())
    }
}

wire!(enum FsError {
    0 => NotFound,
    1 => AlreadyExists,
    2 => NotDir,
    3 => IsDir,
    4 => NotEmpty,
    5 => Invalid(detail),
    6 => Loop,
    7 => Busy,
    8 => Conflict,
    9 => Timeout,
    10 => NoSpace,
    11 => Io(detail),
    12 => Corrupted(detail),
    13 => NotLeader(hint),
    14 => Unsupported(detail),
    15 => WrongShard(epoch),
    16 => QuotaExceeded,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};

    #[test]
    fn retryability_classification() {
        assert!(FsError::Timeout.is_retryable());
        assert!(FsError::NotLeader(Some(3)).is_retryable());
        assert!(FsError::Conflict.is_retryable());
        assert!(FsError::WrongShard(3).is_retryable());
        assert!(
            FsError::NoSpace.is_retryable(),
            "a full shard volume is a degraded state clients back off on"
        );
        assert!(!FsError::NotFound.is_retryable());
        assert!(!FsError::AlreadyExists.is_retryable());
        assert!(!FsError::Io("torn".into()).is_retryable());
        assert!(
            !FsError::QuotaExceeded.is_retryable(),
            "quota rejection only clears when the tenant frees space"
        );
    }

    #[test]
    fn storage_error_maps_to_fs_error() {
        assert_eq!(FsError::from(StorageError::NoSpace), FsError::NoSpace);
        assert!(matches!(
            FsError::from(StorageError::Corrupt("crc mismatch at seq 3".into())),
            FsError::Corrupted(d) if d.contains("bit rot")
        ));
        assert!(matches!(
            FsError::from(StorageError::Wedged),
            FsError::Io(_)
        ));
    }

    #[test]
    fn error_codec_round_trip() {
        let cases = vec![
            FsError::NotFound,
            FsError::AlreadyExists,
            FsError::Invalid("bad name".into()),
            FsError::NotLeader(Some(9)),
            FsError::NotLeader(None),
            FsError::Corrupted("wal seq gap".into()),
            FsError::Loop,
            FsError::WrongShard(0),
            FsError::WrongShard(42),
            FsError::QuotaExceeded,
        ];
        for e in cases {
            let buf = e.to_bytes();
            assert_eq!(FsError::from_bytes(&buf).unwrap(), e);
        }
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert!(FsError::NotLeader(Some(2)).to_string().contains("node 2"));
    }
}
