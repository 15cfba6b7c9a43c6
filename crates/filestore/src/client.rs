//! Client-side access to the hash-partitioned FileStore.

use std::sync::Arc;

use cfs_raft::{Mode, Reply, Route};
use cfs_rpc::mux::{frame, CH_APP};
use cfs_rpc::Network;
use cfs_types::codec::Encode;
use cfs_types::{Attr, BlockId, FsError, FsResult, InodeId, NodeId, PendingRow, Timestamp};

use crate::api::{FileStoreRequest, FileStoreResponse, SetAttrPatch};
use crate::placement_hash;

/// Static layout of the FileStore tier: one [`Route`] per logical node,
/// shared by all clients of the deployment so one leader discovery serves
/// everyone (client-side metadata resolving).
pub struct FileStoreLayout {
    routes: Vec<Route>,
}

impl FileStoreLayout {
    /// Builds a layout over the given replica sets.
    pub fn new(nodes: Vec<Vec<NodeId>>) -> FileStoreLayout {
        FileStoreLayout {
            routes: nodes.into_iter().map(Route::new).collect(),
        }
    }

    /// Number of logical nodes.
    pub fn num_nodes(&self) -> usize {
        self.routes.len()
    }

    /// The logical node owning `ino`'s attributes and blocks.
    pub fn node_for(&self, ino: InodeId) -> usize {
        (placement_hash(ino) % self.routes.len() as u64) as usize
    }
}

impl Reply for FileStoreResponse {
    fn in_band(&self) -> Option<&FsError> {
        match self {
            FileStoreResponse::Err(e) => Some(e),
            _ => None,
        }
    }
}

/// FileStore client: routes by inode hash, follows leader redirects.
pub struct FileStoreClient {
    net: Arc<Network>,
    me: NodeId,
    layout: Arc<FileStoreLayout>,
}

impl FileStoreClient {
    /// Creates a client identified as `me`.
    pub fn new(net: Arc<Network>, me: NodeId, layout: Arc<FileStoreLayout>) -> FileStoreClient {
        FileStoreClient { net, me, layout }
    }

    /// The layout (shared with the GC).
    pub fn layout(&self) -> &Arc<FileStoreLayout> {
        &self.layout
    }

    fn request(&self, ino: InodeId, req: &FileStoreRequest) -> FsResult<FileStoreResponse> {
        self.request_node(self.layout.node_for(ino), req)
    }

    /// Issues `req` to the leader of logical node `node_idx`.
    fn request_node(&self, node_idx: usize, req: &FileStoreRequest) -> FsResult<FileStoreResponse> {
        let payload = frame(CH_APP, &req.to_bytes());
        self.layout.routes[node_idx].call(&self.net, self.me, &payload, Mode::Leader)
    }

    /// Writes a file's attribute record.
    pub fn put_attr(&self, attr: Attr) -> FsResult<()> {
        let ino = attr.ino;
        match self.request(ino, &FileStoreRequest::PutAttr(attr))? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Reads a file's attribute record.
    pub fn get_attr(&self, ino: InodeId) -> FsResult<Option<Attr>> {
        match self.request(ino, &FileStoreRequest::GetAttr(ino))? {
            FileStoreResponse::Attr(a) => Ok(a),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Applies a partial attribute update.
    pub fn set_attr(&self, ino: InodeId, patch: SetAttrPatch, ts: Timestamp) -> FsResult<()> {
        match self.request(ino, &FileStoreRequest::SetAttr { ino, patch, ts })? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes a file's attribute record (idempotent).
    pub fn delete_attr(&self, ino: InodeId) -> FsResult<()> {
        match self.request(ino, &FileStoreRequest::DeleteAttr(ino))? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Writes one data block.
    pub fn write_block(
        &self,
        block: BlockId,
        offset: u64,
        data: Vec<u8>,
        ts: Timestamp,
    ) -> FsResult<()> {
        match self.request(
            block.ino,
            &FileStoreRequest::WriteBlock {
                block,
                offset,
                data,
                ts,
            },
        )? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Reads one data block.
    pub fn read_block(&self, block: BlockId) -> FsResult<Option<Vec<u8>>> {
        match self.request(block.ino, &FileStoreRequest::ReadBlock(block))? {
            FileStoreResponse::Block(b) => Ok(b),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes a file's attribute record and blocks in one command.
    pub fn delete_file(&self, ino: InodeId) -> FsResult<()> {
        match self.request(ino, &FileStoreRequest::DeleteFile(ino))? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes all blocks of a file.
    pub fn delete_blocks(&self, ino: InodeId) -> FsResult<()> {
        match self.request(ino, &FileStoreRequest::DeleteBlocks(ino))? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Reads the GC pending table of logical node `node_idx` from its
    /// leader.
    pub fn pending(&self, node_idx: usize) -> FsResult<Vec<PendingRow>> {
        match self.request_node(node_idx, &FileStoreRequest::Pending)? {
            FileStoreResponse::Pending(rows) => Ok(rows),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }

    /// Drops the listed rows of node `node_idx`'s pending table that are
    /// still unchanged (replicated).
    pub fn gc_trim(&self, node_idx: usize, rows: Vec<PendingRow>) -> FsResult<()> {
        match self.request_node(node_idx, &FileStoreRequest::GcTrim(rows))? {
            FileStoreResponse::Ok => Ok(()),
            FileStoreResponse::Err(e) => Err(e),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: FileStoreResponse) -> FsError {
    FsError::Corrupted(format!("unexpected filestore response: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FileStoreNode;
    use cfs_raft::{RaftConfig, ReplicaSet, Replicas};
    use cfs_rpc::NetConfig;
    use std::time::Duration;

    fn fast_raft() -> RaftConfig {
        RaftConfig {
            election_timeout_min: Duration::from_millis(50),
            election_timeout_max: Duration::from_millis(120),
            heartbeat_interval: Duration::from_millis(15),
            ..Default::default()
        }
    }

    fn boot(
        n_nodes: u32,
    ) -> (
        Arc<Network>,
        Vec<ReplicaSet<FileStoreNode>>,
        FileStoreClient,
    ) {
        let net = Network::new(NetConfig::default());
        let mut groups = Vec::new();
        let mut layout_nodes = Vec::new();
        for n in 0..n_nodes {
            let ids: Vec<NodeId> = (0..3).map(|i| NodeId(100 + n * 10 + i)).collect();
            layout_nodes.push(ids.clone());
            groups.push(ReplicaSet::spawn(&net, &ids, fast_raft()));
        }
        for g in &groups {
            g.wait_ready(Duration::from_secs(5)).unwrap();
        }
        let layout = Arc::new(FileStoreLayout::new(layout_nodes));
        let client = FileStoreClient::new(Arc::clone(&net), NodeId(999), layout);
        (net, groups, client)
    }

    #[test]
    fn attr_round_trip_through_cluster() {
        let (_net, groups, client) = boot(2);
        let attr = Attr::new_file(InodeId(42), 100);
        client.put_attr(attr.clone()).unwrap();
        assert_eq!(client.get_attr(InodeId(42)).unwrap(), Some(attr));
        client.delete_attr(InodeId(42)).unwrap();
        assert_eq!(client.get_attr(InodeId(42)).unwrap(), None);
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn block_io_and_size_propagation() {
        let (_net, groups, client) = boot(2);
        client.put_attr(Attr::new_file(InodeId(7), 100)).unwrap();
        let block = BlockId {
            ino: InodeId(7),
            index: 0,
        };
        client
            .write_block(block, 0, vec![5u8; 1000], Timestamp(3))
            .unwrap();
        assert_eq!(client.read_block(block).unwrap().unwrap().len(), 1000);
        assert_eq!(client.get_attr(InodeId(7)).unwrap().unwrap().size, 1000);
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn client_survives_node_failover() {
        let (net, groups, client) = boot(1);
        client.put_attr(Attr::new_file(InodeId(1), 100)).unwrap();
        let leader = groups[0].raft().leader().unwrap();
        net.kill(leader.id());
        // Retry logic must find the new leader.
        client.put_attr(Attr::new_file(InodeId(2), 100)).unwrap();
        assert!(client.get_attr(InodeId(2)).unwrap().is_some());
        for g in &groups {
            g.shutdown();
        }
    }

    #[test]
    fn attrs_distribute_across_nodes() {
        let (_net, groups, client) = boot(4);
        for i in 0..40u64 {
            client
                .put_attr(Attr::new_file(InodeId(1000 + i), 1))
                .unwrap();
        }
        // Each group leader should hold roughly a quarter of the attrs.
        let mut total = 0usize;
        for g in &groups {
            let leader = g.raft().leader().unwrap();
            let n = leader.state_machine().list_attr_inos().len();
            assert!(n > 0, "every node should receive some attributes");
            total += n;
        }
        assert_eq!(total, 40);
        for g in &groups {
            g.shutdown();
        }
    }
}
