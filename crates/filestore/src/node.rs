//! The FileStore node state machine and its replicated deployment.

use std::sync::Arc;

use cfs_kvstore::{KvStore, WriteOp};
use cfs_raft::{RaftConfig, RaftGroup, RaftNode, StateMachine};
use cfs_rpc::mux::CH_APP;
use cfs_rpc::{Network, Service};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{Attr, BlockId, CdcEvent, FsError, FsResult, InodeId, NodeId};
use cfs_wal::Wal;

use crate::api::{FileStoreRequest, FileStoreResponse, SetAttrPatch};

fn attr_key(ino: InodeId) -> Vec<u8> {
    ino.raw().to_be_bytes().to_vec()
}

fn block_key(block: BlockId) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    k.extend_from_slice(&block.ino.raw().to_be_bytes());
    k.extend_from_slice(&block.index.to_be_bytes());
    k
}

/// One FileStore node's state: a local attribute store ("a local RocksDB to
/// keep the attribute metadata of the corresponding files", §3.2) plus block
/// storage, and the logical CDC stream for the GC.
pub struct FileStoreNode {
    attrs: KvStore,
    blocks: KvStore,
    cdc: Wal,
}

impl Default for FileStoreNode {
    fn default() -> FileStoreNode {
        FileStoreNode {
            attrs: KvStore::new_in_memory(),
            blocks: KvStore::new_in_memory(),
            cdc: Wal::new_in_memory(),
        }
    }
}

impl FileStoreNode {
    /// The node's logical change stream (watched by the GC).
    pub fn cdc(&self) -> &Wal {
        &self.cdc
    }

    /// Leader-local attribute read.
    pub fn get_attr(&self, ino: InodeId) -> Option<Attr> {
        self.attrs
            .get(&attr_key(ino))
            .and_then(|v| Attr::from_bytes(&v).ok())
    }

    /// Leader-local block read.
    pub fn read_block(&self, block: BlockId) -> Option<Vec<u8>> {
        self.blocks.get(&block_key(block))
    }

    /// Lists all attribute inode ids currently stored (GC full-scan mode and
    /// tests).
    pub fn list_attr_inos(&self) -> Vec<InodeId> {
        self.attrs
            .scan_from(&[], None, usize::MAX)
            .into_iter()
            .filter_map(|(k, _)| {
                let bytes: [u8; 8] = k.as_slice().try_into().ok()?;
                Some(InodeId(u64::from_be_bytes(bytes)))
            })
            .collect()
    }

    fn delete_blocks_of(&self, ino: InodeId) -> cfs_types::FsResult<()> {
        let start = ino.raw().to_be_bytes().to_vec();
        let end = (ino.raw() + 1).to_be_bytes().to_vec();
        let keys: Vec<Vec<u8>> = self
            .blocks
            .scan(&start, &end, usize::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let ops = keys.into_iter().map(WriteOp::Delete).collect();
        self.blocks.write_batch(ops)
    }

    fn apply_req(&self, req: FileStoreRequest) -> FileStoreResponse {
        match req {
            FileStoreRequest::PutAttr(attr) => {
                let ino = attr.ino;
                match self.attrs.put(attr_key(ino), attr.to_bytes()) {
                    Ok(()) => {
                        let _ = self.cdc.append(CdcEvent::AttrPut { ino }.to_bytes());
                        FileStoreResponse::Ok
                    }
                    Err(e) => FileStoreResponse::Err(e),
                }
            }
            FileStoreRequest::SetAttr { ino, patch, ts } => match self.get_attr(ino) {
                Some(mut attr) => {
                    // Last-writer-wins on the whole overwrite group: the
                    // patch with the larger TS timestamp prevails (§4.2).
                    if ts >= attr.lww_ts {
                        apply_patch(&mut attr, &patch);
                        attr.lww_ts = ts;
                        match self.attrs.put(attr_key(ino), attr.to_bytes()) {
                            Ok(()) => FileStoreResponse::Ok,
                            Err(e) => FileStoreResponse::Err(e),
                        }
                    } else {
                        FileStoreResponse::Ok
                    }
                }
                None => FileStoreResponse::Err(FsError::NotFound),
            },
            FileStoreRequest::DeleteAttr(ino) => match self.attrs.delete(attr_key(ino)) {
                Ok(()) => {
                    let _ = self.cdc.append(CdcEvent::AttrDeleted { ino }.to_bytes());
                    FileStoreResponse::Ok
                }
                Err(e) => FileStoreResponse::Err(e),
            },
            FileStoreRequest::WriteBlock {
                block,
                offset,
                data,
                ts,
            } => {
                let end = offset + data.len() as u64;
                if let Err(e) = self.blocks.put(block_key(block), data) {
                    return FileStoreResponse::Err(e);
                }
                // Piggyback size/mtime maintenance on the data write
                // (paper §5.7: create's attribute write piggybacks on block
                // creation).
                if let Some(mut attr) = self.get_attr(block.ino) {
                    attr.size = attr.size.max(end);
                    if ts >= attr.lww_ts {
                        attr.mtime = ts.raw();
                        attr.lww_ts = ts;
                    }
                    if let Err(e) = self.attrs.put(attr_key(block.ino), attr.to_bytes()) {
                        return FileStoreResponse::Err(e);
                    }
                }
                FileStoreResponse::Ok
            }
            FileStoreRequest::DeleteBlocks(ino) => match self.delete_blocks_of(ino) {
                Ok(()) => FileStoreResponse::Ok,
                Err(e) => FileStoreResponse::Err(e),
            },
            FileStoreRequest::DeleteFile(ino) => {
                if let Err(e) = self.delete_blocks_of(ino) {
                    return FileStoreResponse::Err(e);
                }
                match self.attrs.delete(attr_key(ino)) {
                    Ok(()) => {
                        let _ = self.cdc.append(CdcEvent::AttrDeleted { ino }.to_bytes());
                        FileStoreResponse::Ok
                    }
                    Err(e) => FileStoreResponse::Err(e),
                }
            }
            // Reads are not replicated; they never reach apply.
            FileStoreRequest::GetAttr(_) | FileStoreRequest::ReadBlock(_) => {
                FileStoreResponse::Err(FsError::Invalid("read in replicated path".into()))
            }
        }
    }
}

fn apply_patch(attr: &mut Attr, patch: &SetAttrPatch) {
    if let Some(m) = patch.mode {
        attr.mode = m;
    }
    if let Some(u) = patch.uid {
        attr.uid = u;
    }
    if let Some(g) = patch.gid {
        attr.gid = g;
    }
    if let Some(t) = patch.mtime {
        attr.mtime = t;
    }
    if let Some(t) = patch.atime {
        attr.atime = t;
    }
    if let Some(s) = patch.size {
        attr.size = s;
    }
}

impl StateMachine for FileStoreNode {
    fn apply(&self, _index: u64, cmd: &[u8]) -> Vec<u8> {
        let resp = match FileStoreRequest::from_bytes(cmd) {
            Ok(req) => self.apply_req(req),
            Err(e) => FileStoreResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

/// One logical FileStore node as deployed: a Raft group of replicas with the
/// request service mounted.
///
/// Every replica writes through a [`cfs_raft::RaftStorage`], so the same
/// simulated storage device ([`cfs_wal::FaultFs`]) that covers TafDB volumes
/// sits under the FileStore path too: disk-full, torn-write, fsync, and
/// bit-rot faults can be armed per replica.
pub struct FileStoreGroup {
    group: RaftGroup<FileStoreNode>,
}

impl FileStoreGroup {
    /// Spawns the replicated node on `node_ids`.
    pub fn spawn(
        net: &Arc<Network>,
        node_ids: &[NodeId],
        raft_config: RaftConfig,
    ) -> FileStoreGroup {
        let storages: Vec<_> = node_ids
            .iter()
            .map(|_| cfs_raft::RaftStorage::new_in_memory())
            .collect();
        let group = RaftGroup::spawn_durable(
            net,
            node_ids,
            raft_config,
            |_| Arc::new(FileStoreNode::default()),
            &storages,
        );
        for (i, node) in group.nodes().iter().enumerate() {
            let svc = Arc::new(FileStoreService {
                node: Arc::clone(node),
            });
            group.mux(i).mount(CH_APP, svc as Arc<dyn Service>);
        }
        FileStoreGroup { group }
    }

    /// The underlying Raft group.
    pub fn raft(&self) -> &RaftGroup<FileStoreNode> {
        &self.group
    }

    /// Injects extra per-fsync latency into every replica's Raft log WAL
    /// (the `slow_fsync` nemesis fault); `Duration::ZERO` clears it.
    pub fn set_fsync_latency(&self, extra: std::time::Duration) {
        for i in 0..self.group.nodes().len() {
            if let Some(s) = self.group.storage(i) {
                s.set_extra_sync_latency(extra);
            }
        }
    }

    /// The simulated storage device under replica `i`'s log, for arming
    /// disk-full / torn-write / fsync / bit-rot faults (`None` for
    /// memory-only nodes).
    pub fn replica_faults(&self, i: usize) -> Option<Arc<cfs_wal::FaultFs>> {
        self.group.storage(i).map(|s| Arc::clone(s.faults()))
    }

    /// Blocks until the group has a leader.
    pub fn wait_ready(&self, timeout: std::time::Duration) -> FsResult<()> {
        self.group.wait_for_leader(timeout).map(|_| ())
    }

    /// Stops the group.
    pub fn shutdown(&self) {
        self.group.shutdown();
    }
}

struct FileStoreService {
    node: Arc<RaftNode<FileStoreNode>>,
}

impl FileStoreService {
    fn process(&self, req: FileStoreRequest) -> FileStoreResponse {
        match req {
            FileStoreRequest::GetAttr(ino) => match self.node.read(|sm| sm.get_attr(ino)) {
                Ok(a) => FileStoreResponse::Attr(a),
                Err(e) => FileStoreResponse::Err(e),
            },
            FileStoreRequest::ReadBlock(b) => match self.node.read(|sm| sm.read_block(b)) {
                Ok(d) => FileStoreResponse::Block(d),
                Err(e) => FileStoreResponse::Err(e),
            },
            write => match self.node.propose(write.to_bytes()) {
                Ok(bytes) => FileStoreResponse::from_bytes(&bytes)
                    .unwrap_or_else(|e| FileStoreResponse::Err(FsError::from(e))),
                Err(e) => FileStoreResponse::Err(e),
            },
        }
    }
}

impl Service for FileStoreService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match FileStoreRequest::from_bytes(payload) {
            Ok(req) => self.process(req),
            Err(e) => FileStoreResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_types::Timestamp;

    fn node() -> FileStoreNode {
        FileStoreNode::default()
    }

    #[test]
    fn put_get_delete_attr() {
        let n = node();
        let attr = Attr::new_file(InodeId(9), 100);
        assert_eq!(
            n.apply_req(FileStoreRequest::PutAttr(attr.clone())),
            FileStoreResponse::Ok
        );
        assert_eq!(n.get_attr(InodeId(9)), Some(attr));
        assert_eq!(
            n.apply_req(FileStoreRequest::DeleteAttr(InodeId(9))),
            FileStoreResponse::Ok
        );
        assert_eq!(n.get_attr(InodeId(9)), None);
    }

    #[test]
    fn setattr_merges_lww() {
        let n = node();
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(9), 100)));
        // Newer write first.
        n.apply_req(FileStoreRequest::SetAttr {
            ino: InodeId(9),
            patch: SetAttrPatch {
                mode: Some(0o700),
                ..Default::default()
            },
            ts: Timestamp(10),
        });
        // Older concurrent write must lose.
        n.apply_req(FileStoreRequest::SetAttr {
            ino: InodeId(9),
            patch: SetAttrPatch {
                mode: Some(0o600),
                ..Default::default()
            },
            ts: Timestamp(5),
        });
        assert_eq!(n.get_attr(InodeId(9)).unwrap().mode, 0o700);
    }

    #[test]
    fn setattr_on_missing_file_is_not_found() {
        let n = node();
        assert_eq!(
            n.apply_req(FileStoreRequest::SetAttr {
                ino: InodeId(1),
                patch: SetAttrPatch::default(),
                ts: Timestamp(1),
            }),
            FileStoreResponse::Err(FsError::NotFound)
        );
    }

    #[test]
    fn write_block_updates_size_and_reads_back() {
        let n = node();
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(3), 100)));
        let block = BlockId {
            ino: InodeId(3),
            index: 0,
        };
        n.apply_req(FileStoreRequest::WriteBlock {
            block,
            offset: 0,
            data: vec![7; 4096],
            ts: Timestamp(2),
        });
        assert_eq!(n.read_block(block).unwrap().len(), 4096);
        assert_eq!(n.get_attr(InodeId(3)).unwrap().size, 4096);
    }

    #[test]
    fn delete_blocks_removes_only_that_file() {
        let n = node();
        for ino in [3u64, 4] {
            for idx in 0..3u32 {
                n.apply_req(FileStoreRequest::WriteBlock {
                    block: BlockId {
                        ino: InodeId(ino),
                        index: idx,
                    },
                    offset: u64::from(idx) * 4096,
                    data: vec![1],
                    ts: Timestamp(1),
                });
            }
        }
        n.apply_req(FileStoreRequest::DeleteBlocks(InodeId(3)));
        assert!(n
            .read_block(BlockId {
                ino: InodeId(3),
                index: 0
            })
            .is_none());
        assert!(n
            .read_block(BlockId {
                ino: InodeId(4),
                index: 0
            })
            .is_some());
    }

    #[test]
    fn cdc_records_attr_lifecycle() {
        let n = node();
        let mut watcher = n.cdc().watch();
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(5), 1)));
        n.apply_req(FileStoreRequest::DeleteAttr(InodeId(5)));
        let events: Vec<CdcEvent> = watcher
            .poll()
            .iter()
            .map(|e| CdcEvent::from_bytes(&e.payload).unwrap())
            .collect();
        assert_eq!(
            events,
            vec![
                CdcEvent::AttrPut { ino: InodeId(5) },
                CdcEvent::AttrDeleted { ino: InodeId(5) },
            ]
        );
    }

    #[test]
    fn placement_hash_spreads_inodes() {
        let n_nodes = 8u64;
        let mut counts = vec![0usize; n_nodes as usize];
        for i in 0..8000u64 {
            let h = crate::placement_hash(InodeId(i));
            counts[(h % n_nodes) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(c),
                "node {i} got {c} of 8000 — distribution too skewed"
            );
        }
    }
}
