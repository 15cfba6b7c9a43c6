//! A backend (BE) group: one shard's replicas as the TafDB tier hosts them
//! on a [`cfs_raft::ReplicaSet`] — each replica a [`TafShard`] with the
//! client (`CH_APP`) and transaction (`CH_TXN`) services on its mux.

use std::sync::Arc;

use cfs_kvstore::KvConfig;
use cfs_raft::{Hosted, RaftNode};
use cfs_rpc::mux::{MuxService, CH_APP, CH_TXN};
use cfs_rpc::Service;
use cfs_types::codec::{Decode, Encode};
use cfs_types::{FsError, NodeId};

use crate::api::{ShardCmd, TafRequest, TafResponse};
use crate::locking::{LockManager, TxnService};
use crate::shard::TafShard;

impl Hosted for TafShard {
    /// Builds the shard under the replica's node scope, so its registry
    /// gauges report into that node's registry.
    fn empty(node: NodeId) -> Arc<TafShard> {
        let _scope = cfs_obs::trace::node_scope(node.0 as u64);
        Arc::new(TafShard::new(KvConfig::default()).expect("shard init"))
    }

    /// Mounts a fresh lock manager with the app and txn services: a
    /// restarted replica's staged lock waits died with the crashed node.
    fn mount(node: &Arc<RaftNode<TafShard>>, mux: &Arc<MuxService>) {
        let lm = Arc::new(LockManager::new(node.id().0 as u64));
        let app = Arc::new(AppService {
            node: Arc::clone(node),
            locks: Arc::clone(&lm),
            prim_wait_ns: cfs_obs::metrics::node(node.id().0 as u64).histogram("prim_wait_ns"),
        });
        let txn = Arc::new(TxnService::new(Arc::clone(node), lm));
        mux.mount(CH_APP, app as Arc<dyn Service>);
        mux.mount(CH_TXN, txn as Arc<dyn Service>);
    }
}

/// The `CH_APP` handler of one replica: reads are served leader-locally,
/// mutations are proposed through Raft.
struct AppService {
    node: Arc<RaftNode<TafShard>>,
    locks: Arc<LockManager>,
    /// How long Execute primitives wait for in-flight distributed
    /// transactions before entering the Raft log — the "wait" side of CFS's
    /// pruned critical section (the "hold" side is `prim_hold_ns`, recorded
    /// around the applied primitive in the shard state machine).
    prim_wait_ns: Arc<cfs_obs::metrics::Histogram>,
}

/// Evaluates one read-only request against the shard state machine. Shared
/// by the leader-local read path and the ReadIndex follower-read path so
/// both enforce the same ownership checks.
fn serve_read(sm: &TafShard, req: &TafRequest) -> TafResponse {
    match req {
        TafRequest::Get(key) => match sm.check_owner(key.kid.raw()) {
            Ok(()) => TafResponse::Record(sm.get(key)),
            Err(e) => TafResponse::Err(e),
        },
        TafRequest::Scan { dir, after, limit } => match sm.check_owner(dir.raw()) {
            Ok(()) => TafResponse::Entries(sm.scan(*dir, after.as_deref(), *limit as usize)),
            Err(e) => TafResponse::Err(e),
        },
        TafRequest::ResolvePrefix {
            start,
            comps,
            lo,
            hi,
        } => match sm.resolve_prefix(*start, comps, *lo, *hi) {
            Ok(r) => TafResponse::Resolved(r),
            Err(e) => TafResponse::Err(e),
        },
        TafRequest::Pending => TafResponse::Pending(sm.pending_rows()),
        _ => TafResponse::Err(FsError::Invalid(
            "ReadIndex wraps only Get/Scan/ResolvePrefix/Pending".into(),
        )),
    }
}

impl AppService {
    fn process(&self, req: TafRequest) -> TafResponse {
        match req {
            req @ (TafRequest::Get(_)
            | TafRequest::Scan { .. }
            | TafRequest::ResolvePrefix { .. }
            | TafRequest::Pending) => match self.node.read(|sm| serve_read(sm, &req)) {
                Ok(resp) => resp,
                Err(e) => TafResponse::Err(e),
            },
            TafRequest::ReadIndex(inner) => {
                // Any replica may serve this: the node first obtains the
                // leader's commit index through a confirmation round, waits
                // until it has applied that far, then reads locally.
                match self.node.read_index(|sm| serve_read(sm, &inner)) {
                    Ok(resp) => resp,
                    Err(e) => TafResponse::Err(e),
                }
            }
            TafRequest::Execute(prim) => {
                // Isolation between primitives and in-flight distributed
                // transactions (§4.3): wait for row locks on touched keys.
                let mut keys: Vec<cfs_types::Key> = prim
                    .checks
                    .iter()
                    .map(|c| c.key.clone())
                    .chain(prim.inserts.iter().map(|(k, _)| k.clone()))
                    .chain(prim.deletes.iter().map(|c| c.key.clone()))
                    .chain(prim.update.iter().map(|u| u.cond.key.clone()))
                    .collect();
                keys.sort();
                keys.dedup();
                let _span = cfs_obs::trace::span("taf.execute");
                let wait_started = std::time::Instant::now();
                if let Err(e) = self.locks.wait_until_free(&keys) {
                    self.prim_wait_ns
                        .observe(wait_started.elapsed().as_nanos() as u64);
                    return TafResponse::Err(e);
                }
                self.prim_wait_ns
                    .observe(wait_started.elapsed().as_nanos() as u64);
                self.propose(ShardCmd::Execute(prim))
            }
            TafRequest::Put(key, rec) => self.propose(ShardCmd::Put(key, rec)),
            TafRequest::Delete(key) => self.propose(ShardCmd::Delete(key)),
            TafRequest::GcTrim(rows) => self.propose(ShardCmd::GcTrim(rows)),
            TafRequest::MigExport {
                lo,
                hi,
                after,
                limit,
            } => {
                // Fuzzy leader-local read: the range keeps serving while it
                // streams; the write tail recorded since `MigStart` covers
                // anything this page export races with.
                match self
                    .node
                    .read(|sm| sm.export_page(lo, hi, after.as_deref(), limit as usize))
                {
                    Ok((ops, done)) => TafResponse::Exported { ops, done },
                    Err(e) => TafResponse::Err(e),
                }
            }
            TafRequest::MigIngest { ops } => self.propose(ShardCmd::MigIngest { ops }),
            TafRequest::SplitPoint { lo, hi } => {
                match self.node.read(|sm| sm.split_point(lo, hi)) {
                    Ok(at) => TafResponse::SplitAt(at),
                    Err(e) => TafResponse::Err(e),
                }
            }
            TafRequest::MigCtl(cmd) => {
                if !matches!(
                    cmd,
                    ShardCmd::MigStart { .. }
                        | ShardCmd::MigFreeze { .. }
                        | ShardCmd::MigFinish { .. }
                        | ShardCmd::MigAbort { .. }
                        | ShardCmd::MigAccept { .. }
                ) {
                    return TafResponse::Err(FsError::Invalid(
                        "MigCtl accepts only migration commands".into(),
                    ));
                }
                self.propose(cmd)
            }
        }
    }

    fn propose(&self, cmd: ShardCmd) -> TafResponse {
        match self.node.propose(cmd.to_bytes()) {
            Ok(resp_bytes) => match TafResponse::from_bytes(&resp_bytes) {
                Ok(resp) => resp,
                Err(e) => TafResponse::Err(FsError::from(e)),
            },
            Err(e) => TafResponse::Err(e),
        }
    }
}

impl Service for AppService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match TafRequest::from_bytes(payload) {
            Ok(req) => self.process(req),
            Err(e) => TafResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}
