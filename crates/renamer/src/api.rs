//! Wire protocol of the Renamer service.

use cfs_types::{wire, FsError, InodeId};

/// A normal-path rename request, with the path components already resolved to
/// parent inode ids by the client library.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RenameRequest {
    /// Source parent directory.
    pub src_parent: InodeId,
    /// Source entry name.
    pub src_name: String,
    /// Destination parent directory.
    pub dst_parent: InodeId,
    /// Destination entry name.
    pub dst_name: String,
}

wire!(struct RenameRequest { src_parent, src_name, dst_parent, dst_name });

/// Response of the Renamer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RenameResponse {
    /// The rename committed.
    Ok,
    /// The rename failed.
    Err(FsError),
}

wire!(enum RenameResponse { 0 => Ok, 1 => Err(err) });

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::codec::{Decode, Encode};

    #[test]
    fn rename_messages_round_trip() {
        let req = RenameRequest {
            src_parent: InodeId(4),
            src_name: "old".into(),
            dst_parent: InodeId(9),
            dst_name: "new".into(),
        };
        assert_eq!(RenameRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        for resp in [RenameResponse::Ok, RenameResponse::Err(FsError::Loop)] {
            assert_eq!(RenameResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }
}
