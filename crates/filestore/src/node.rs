//! The FileStore node state machine and the services a
//! [`cfs_raft::ReplicaSet`] mounts on each of its replicas.

use std::sync::Arc;

use cfs_kvstore::{KvStore, WriteOp};
use cfs_raft::{Hosted, RaftNode, StateMachine};
use cfs_rpc::mux::{MuxService, CH_APP};
use cfs_rpc::Service;
use cfs_types::codec::{Decode, Encode};
use cfs_types::{
    Attr, BlockId, FsError, FsResult, InodeId, NodeId, PendingEvent, PendingRow, PendingTable,
};
use parking_lot::Mutex;

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
/// storage, and the GC pending table of attribute puts and deletes.
pub struct FileStoreNode {
    attrs: KvStore,
    blocks: KvStore,
    /// The garbage collector's pairing input (§4.4): attribute records this
    /// node created or deleted that nothing has balanced or trimmed yet.
    /// Written in apply on every replica and carried in the snapshot image.
    pending: Mutex<PendingTable>,
}

impl Default for FileStoreNode {
    fn default() -> FileStoreNode {
        FileStoreNode {
            attrs: KvStore::new_in_memory(),
            blocks: KvStore::new_in_memory(),
            pending: Mutex::new(PendingTable::default()),
        }
    }
}

impl FileStoreNode {
    /// The rows of the GC pending table, in key order.
    pub fn pending_rows(&self) -> Vec<PendingRow> {
        self.pending.lock().rows()
    }

    /// Deletes `ino`'s attribute record, recording the delete when there was
    /// one to delete.
    fn delete_attr(&self, ino: InodeId) -> FsResult<()> {
        let existed = self.attrs.get(&attr_key(ino)).is_some();
        self.attrs.delete(attr_key(ino))?;
        if existed {
            self.pending
                .lock()
                .record(Vec::new(), ino, PendingEvent::AttrDeleted);
        }
        Ok(())
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

    /// Lists all attribute inode ids currently stored (tests and benches).
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
                let existed = self.attrs.get(&attr_key(ino)).is_some();
                match self.attrs.put(attr_key(ino), attr.to_bytes()) {
                    Ok(()) => {
                        if !existed {
                            self.pending
                                .lock()
                                .record(Vec::new(), ino, PendingEvent::AttrPut);
                        }
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
            FileStoreRequest::DeleteAttr(ino) => match self.delete_attr(ino) {
                Ok(()) => FileStoreResponse::Ok,
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
                match self.delete_attr(ino) {
                    Ok(()) => FileStoreResponse::Ok,
                    Err(e) => FileStoreResponse::Err(e),
                }
            }
            FileStoreRequest::GcTrim(rows) => {
                self.pending.lock().trim(&rows);
                FileStoreResponse::Ok
            }
            // Reads are not replicated; they never reach apply.
            FileStoreRequest::GetAttr(_)
            | FileStoreRequest::ReadBlock(_)
            | FileStoreRequest::Pending => {
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

impl FileStoreNode {
    /// The snapshot image: attributes, then blocks, each in key order, then
    /// the pending table, so equal state yields equal bytes.
    fn encode_image(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for store in [&self.attrs, &self.blocks] {
            store.scan_from(&[], None, usize::MAX).encode(&mut buf);
        }
        self.pending.lock().encode(&mut buf);
        buf
    }

    /// Replaces the node's state with a decoded image. Everything is decoded
    /// before anything is mutated, so a corrupt image leaves the node
    /// untouched.
    fn restore_image(&self, mut input: &[u8]) -> FsResult<()> {
        let input = &mut input;
        let attrs = Vec::<(Vec<u8>, Vec<u8>)>::decode(input)?;
        let blocks = Vec::<(Vec<u8>, Vec<u8>)>::decode(input)?;
        let pending = PendingTable::decode(input)?;
        for (store, entries) in [(&self.attrs, attrs), (&self.blocks, blocks)] {
            store.reset();
            store.write_batch(
                entries
                    .into_iter()
                    .map(|(k, v)| WriteOp::Put(k, v))
                    .collect(),
            )?;
        }
        *self.pending.lock() = pending;
        Ok(())
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

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.encode_image())
    }

    fn restore(&self, snap: &[u8]) {
        // An undecodable image means the replication layer handed over a
        // corrupt blob — there is no state to fall back to.
        self.restore_image(snap)
            .expect("valid filestore snapshot image");
    }
}

/// A logical FileStore node is hosted on a [`cfs_raft::ReplicaSet`]: every
/// replica writes through a [`cfs_raft::RaftStorage`], so the same simulated
/// storage device ([`cfs_wal::FaultFs`]) that covers TafDB volumes sits under
/// the FileStore path too: disk-full, torn-write, fsync, and bit-rot faults
/// can be armed per replica.
impl Hosted for FileStoreNode {
    fn empty(_node: NodeId) -> Arc<FileStoreNode> {
        Arc::new(FileStoreNode::default())
    }

    fn mount(node: &Arc<RaftNode<FileStoreNode>>, mux: &Arc<MuxService>) {
        let svc = Arc::new(FileStoreService {
            node: Arc::clone(node),
        });
        mux.mount(CH_APP, svc as Arc<dyn Service>);
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
            // The collector acts on what it reads: confirm leadership first.
            FileStoreRequest::Pending => match self.node.read_index(|sm| sm.pending_rows()) {
                Ok(rows) => FileStoreResponse::Pending(rows),
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
    use cfs_raft::{RaftConfig, ReplicaSet, Replicas};
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
    fn pending_table_records_only_attr_lifecycle_changes() {
        let n = node();
        let row = |event| PendingRow {
            key: Vec::new(),
            ino: InodeId(5),
            event,
        };
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(5), 1)));
        // Overwrites and deletes of a missing record change nothing.
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(5), 2)));
        n.apply_req(FileStoreRequest::DeleteAttr(InodeId(6)));
        assert_eq!(n.pending_rows(), vec![row(PendingEvent::AttrPut)]);
        // The delete balances the put: nothing is left to pair.
        n.apply_req(FileStoreRequest::DeleteFile(InodeId(5)));
        assert!(n.pending_rows().is_empty());
        // Once trimmed, the put no longer balances a later delete.
        n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(5), 1)));
        n.apply_req(FileStoreRequest::GcTrim(vec![row(PendingEvent::AttrPut)]));
        assert!(n.pending_rows().is_empty());
        n.apply_req(FileStoreRequest::DeleteAttr(InodeId(5)));
        assert_eq!(n.pending_rows(), vec![row(PendingEvent::AttrDeleted)]);
    }

    fn block_of(ino: u64, index: u32) -> BlockId {
        BlockId {
            ino: InodeId(ino),
            index,
        }
    }

    /// A node with a few attributes and blocks, written in `order`.
    fn populated(order: &[u64]) -> FileStoreNode {
        let n = node();
        for &ino in order {
            n.apply_req(FileStoreRequest::PutAttr(Attr::new_file(InodeId(ino), 7)));
            n.apply_req(FileStoreRequest::WriteBlock {
                block: block_of(ino, 0),
                offset: 0,
                data: vec![ino as u8; 100],
                ts: Timestamp(ino),
            });
        }
        n
    }

    #[test]
    fn snapshot_image_round_trips_attrs_and_blocks() {
        let n = populated(&[3, 1, 2]);
        let image = n.snapshot().expect("filestore nodes are snapshottable");
        // The image is a function of the state, not of how it came about.
        assert_eq!(populated(&[1, 2, 3]).snapshot().unwrap(), image);

        // Restore replaces, it does not merge.
        let fresh = populated(&[9]);
        fresh.restore(&image);
        assert_eq!(fresh.list_attr_inos(), n.list_attr_inos());
        for ino in 1..=3u64 {
            assert_eq!(fresh.get_attr(InodeId(ino)), n.get_attr(InodeId(ino)));
            assert_eq!(
                fresh.read_block(block_of(ino, 0)),
                Some(vec![ino as u8; 100])
            );
        }
        assert_eq!(fresh.read_block(block_of(9, 0)), None);
        assert_eq!(fresh.pending_rows().len(), 3);
        assert_eq!(fresh.pending_rows(), n.pending_rows());
        assert_eq!(fresh.snapshot().unwrap(), image);

        // A truncated image is rejected before anything is touched.
        assert!(fresh.restore_image(&image[..image.len() / 2]).is_err());
        assert_eq!(fresh.snapshot().unwrap(), image);
    }

    #[test]
    fn install_snapshot_reseeds_an_empty_replica() {
        // A replica that lost its disk rejoins after the leader compacted:
        // only InstallSnapshot can bring its attributes and blocks back.
        let net = cfs_rpc::Network::new(cfs_rpc::NetConfig::default());
        let ids = [NodeId(7001), NodeId(7002), NodeId(7003)];
        let config = RaftConfig {
            election_timeout_min: std::time::Duration::from_millis(50),
            election_timeout_max: std::time::Duration::from_millis(120),
            heartbeat_interval: std::time::Duration::from_millis(15),
            snapshot_threshold: 8,
            ..Default::default()
        };
        let fs = ReplicaSet::<FileStoreNode>::spawn(&net, &ids, config);
        let timeout = std::time::Duration::from_secs(10);
        let leader = fs.raft().wait_for_leader(timeout).unwrap();
        let victim = fs
            .raft()
            .nodes()
            .iter()
            .position(|n| n.id() != leader.id())
            .unwrap();
        fs.raft().crash_replica(victim);
        let disk = fs.raft().storage(victim);
        disk.reset_to_snapshot(0, 0, Vec::new()).expect("wipe");
        disk.truncate_from(1);
        for ino in 1..=20u64 {
            for req in [
                FileStoreRequest::PutAttr(Attr::new_file(InodeId(ino), 7)),
                FileStoreRequest::WriteBlock {
                    block: block_of(ino, 0),
                    offset: 0,
                    data: vec![ino as u8; 64],
                    ts: Timestamp(ino),
                },
            ] {
                fs.raft().propose(req.to_bytes(), timeout).unwrap();
            }
        }
        // What the victim needs first is gone from the leader's log, so
        // whatever it ends up holding came by snapshot.
        assert!(leader.snapshot_index() >= 32, "leader compacted");
        fs.restart_replica(victim);
        let fresh = Arc::clone(&fs.raft().nodes()[victim]);
        let deadline = std::time::Instant::now() + timeout;
        while fresh.applied_index() < leader.commit_index() {
            assert!(std::time::Instant::now() < deadline, "never converged");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let sm = fresh.state_machine();
        assert_eq!(sm.list_attr_inos().len(), 20);
        for ino in 1..=20u64 {
            assert_eq!(sm.read_block(block_of(ino, 0)), Some(vec![ino as u8; 64]));
        }
        assert!(
            fresh.log_len() < 2 * 8,
            "the replica's own log compacts too: {}",
            fresh.log_len()
        );
        fs.shutdown();
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
