//! Wire protocol of a FileStore node.

use cfs_types::{wire, Attr, BlockId, FsError, InodeId, PendingRow, Timestamp};

/// A partial attribute update (`setattr`), merged last-writer-wins using the
/// TS-issued timestamp (paper §4.2's overwrite-attribute rule applied to file
/// attributes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SetAttrPatch {
    /// New permission bits.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New modification time.
    pub mtime: Option<u64>,
    /// New access time.
    pub atime: Option<u64>,
    /// Truncate/extend to this size.
    pub size: Option<u64>,
}

wire!(struct SetAttrPatch { mode, uid, gid, mtime, atime, size });

/// Requests served on a FileStore node's `CH_APP` channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileStoreRequest {
    /// Insert or overwrite a file's attribute record (replicated).
    PutAttr(Attr),
    /// Read a file's attribute record (leader-local).
    GetAttr(InodeId),
    /// Apply a partial attribute update with LWW merging (replicated).
    SetAttr {
        /// Target file.
        ino: InodeId,
        /// Fields to change.
        patch: SetAttrPatch,
        /// Ordering timestamp from the TS group.
        ts: Timestamp,
    },
    /// Delete a file's attribute record (replicated, idempotent).
    DeleteAttr(InodeId),
    /// Write one data block, updating size/mtime piggybacked (replicated).
    WriteBlock {
        /// Block address.
        block: BlockId,
        /// Byte offset of this block within the file.
        offset: u64,
        /// Block payload.
        data: Vec<u8>,
        /// Ordering timestamp.
        ts: Timestamp,
    },
    /// Read one data block (leader-local).
    ReadBlock(BlockId),
    /// Delete all blocks of a file (replicated; data GC after unlink).
    DeleteBlocks(InodeId),
    /// Delete a file's attribute record and all of its blocks in one
    /// replicated command (the write-back of `unlink`).
    DeleteFile(InodeId),
    /// Read the node's GC pending table (leader-local).
    Pending,
    /// Drop the listed pending rows that are still unchanged (replicated).
    GcTrim(Vec<PendingRow>),
}

wire!(enum FileStoreRequest {
    0 => PutAttr(attr),
    1 => GetAttr(ino),
    2 => SetAttr { ino, patch, ts },
    3 => DeleteAttr(ino),
    4 => WriteBlock { block, offset, data, ts },
    5 => ReadBlock(block),
    6 => DeleteBlocks(ino),
    7 => DeleteFile(ino),
    8 => Pending,
    9 => GcTrim(rows),
});

/// Responses of a FileStore node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FileStoreResponse {
    /// Success without payload.
    Ok,
    /// Attribute record (or `None`).
    Attr(Option<Attr>),
    /// Block payload (or `None` when unwritten).
    Block(Option<Vec<u8>>),
    /// Failure.
    Err(FsError),
    /// The node's GC pending table.
    Pending(Vec<PendingRow>),
}

wire!(enum FileStoreResponse {
    0 => Ok,
    1 => Attr(attr),
    2 => Block(data),
    3 => Err(err),
    4 => Pending(rows),
});

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::{Decode, Encode};

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            FileStoreRequest::PutAttr(Attr::new_file(InodeId(5), 100)),
            FileStoreRequest::GetAttr(InodeId(5)),
            FileStoreRequest::SetAttr {
                ino: InodeId(5),
                patch: SetAttrPatch {
                    mode: Some(0o600),
                    size: Some(4096),
                    ..Default::default()
                },
                ts: Timestamp(9),
            },
            FileStoreRequest::DeleteAttr(InodeId(5)),
            FileStoreRequest::WriteBlock {
                block: BlockId {
                    ino: InodeId(5),
                    index: 2,
                },
                offset: 8192,
                data: vec![1, 2, 3],
                ts: Timestamp(10),
            },
            FileStoreRequest::ReadBlock(BlockId {
                ino: InodeId(5),
                index: 2,
            }),
            FileStoreRequest::DeleteBlocks(InodeId(5)),
            FileStoreRequest::Pending,
            FileStoreRequest::GcTrim(vec![PendingRow {
                key: vec![0, 5],
                ino: InodeId(5),
                event: cfs_types::PendingEvent::AttrPut,
            }]),
        ];
        for r in reqs {
            assert_eq!(FileStoreRequest::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn response_round_trip() {
        let resps = vec![
            FileStoreResponse::Ok,
            FileStoreResponse::Attr(Some(Attr::new_file(InodeId(1), 5))),
            FileStoreResponse::Attr(None),
            FileStoreResponse::Block(Some(vec![9; 100])),
            FileStoreResponse::Err(FsError::NotFound),
            FileStoreResponse::Pending(vec![PendingRow {
                key: vec![0, 5],
                ino: InodeId(5),
                event: cfs_types::PendingEvent::AttrDeleted,
            }]),
        ];
        for r in resps {
            assert_eq!(FileStoreResponse::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }
}
