//! Wire protocol of a FileStore node.

use cfs_types::codec::{Decode, DecodeError, Encode};
use cfs_types::{Attr, BlockId, FsError, InodeId, PendingRow, Timestamp};

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

impl Encode for SetAttrPatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.mode.encode(buf);
        self.uid.encode(buf);
        self.gid.encode(buf);
        self.mtime.encode(buf);
        self.atime.encode(buf);
        self.size.encode(buf);
    }
}

impl Decode for SetAttrPatch {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(SetAttrPatch {
            mode: Option::<u32>::decode(input)?,
            uid: Option::<u32>::decode(input)?,
            gid: Option::<u32>::decode(input)?,
            mtime: Option::<u64>::decode(input)?,
            atime: Option::<u64>::decode(input)?,
            size: Option::<u64>::decode(input)?,
        })
    }
}

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

impl Encode for FileStoreRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FileStoreRequest::PutAttr(a) => {
                buf.push(0);
                a.encode(buf);
            }
            FileStoreRequest::GetAttr(i) => {
                buf.push(1);
                i.encode(buf);
            }
            FileStoreRequest::SetAttr { ino, patch, ts } => {
                buf.push(2);
                ino.encode(buf);
                patch.encode(buf);
                ts.encode(buf);
            }
            FileStoreRequest::DeleteAttr(i) => {
                buf.push(3);
                i.encode(buf);
            }
            FileStoreRequest::WriteBlock {
                block,
                offset,
                data,
                ts,
            } => {
                buf.push(4);
                block.encode(buf);
                offset.encode(buf);
                data.encode(buf);
                ts.encode(buf);
            }
            FileStoreRequest::ReadBlock(b) => {
                buf.push(5);
                b.encode(buf);
            }
            FileStoreRequest::DeleteBlocks(i) => {
                buf.push(6);
                i.encode(buf);
            }
            FileStoreRequest::DeleteFile(i) => {
                buf.push(7);
                i.encode(buf);
            }
            FileStoreRequest::Pending => buf.push(8),
            FileStoreRequest::GcTrim(rows) => {
                buf.push(9);
                rows.encode(buf);
            }
        }
    }
}

impl Decode for FileStoreRequest {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => FileStoreRequest::PutAttr(Attr::decode(input)?),
            1 => FileStoreRequest::GetAttr(InodeId::decode(input)?),
            2 => FileStoreRequest::SetAttr {
                ino: InodeId::decode(input)?,
                patch: SetAttrPatch::decode(input)?,
                ts: Timestamp::decode(input)?,
            },
            3 => FileStoreRequest::DeleteAttr(InodeId::decode(input)?),
            4 => FileStoreRequest::WriteBlock {
                block: BlockId::decode(input)?,
                offset: u64::decode(input)?,
                data: Vec::<u8>::decode(input)?,
                ts: Timestamp::decode(input)?,
            },
            5 => FileStoreRequest::ReadBlock(BlockId::decode(input)?),
            6 => FileStoreRequest::DeleteBlocks(InodeId::decode(input)?),
            7 => FileStoreRequest::DeleteFile(InodeId::decode(input)?),
            8 => FileStoreRequest::Pending,
            9 => FileStoreRequest::GcTrim(Vec::<PendingRow>::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

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

impl Encode for FileStoreResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            FileStoreResponse::Ok => buf.push(0),
            FileStoreResponse::Attr(a) => {
                buf.push(1);
                a.encode(buf);
            }
            FileStoreResponse::Block(b) => {
                buf.push(2);
                b.encode(buf);
            }
            FileStoreResponse::Err(e) => {
                buf.push(3);
                e.encode(buf);
            }
            FileStoreResponse::Pending(rows) => {
                buf.push(4);
                rows.encode(buf);
            }
        }
    }
}

impl Decode for FileStoreResponse {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => FileStoreResponse::Ok,
            1 => FileStoreResponse::Attr(Option::<Attr>::decode(input)?),
            2 => FileStoreResponse::Block(Option::<Vec<u8>>::decode(input)?),
            3 => FileStoreResponse::Err(FsError::decode(input)?),
            4 => FileStoreResponse::Pending(Vec::<PendingRow>::decode(input)?),
            t => return Err(DecodeError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
