//! The metadata proxy layer (namenode / MDS) of the baseline systems.
//!
//! Clients of the baselines send whole metadata operations to a proxy node,
//! which coordinates the transaction against the shard tier (paper Figure 1
//! and Figure 3 step ①). The extra client↔proxy round trip — and the fact
//! that the proxy, not the client, holds the resolution cache — is the cost
//! CFS removes with client-side metadata resolving; the `+no-proxy` ablation
//! of Figure 13 measures exactly this hop.

use std::sync::Arc;

use cfs_core::{DirEntryInfo, FileSystem};
use cfs_filestore::SetAttrPatch;
use cfs_rpc::mux::{frame, CH_APP};
use cfs_rpc::{Network, Service};
use cfs_types::codec::{Decode, Encode};
use cfs_types::{wire, Attr, FileType, FsError, FsResult, InodeId, NodeId};

use crate::engine::MetaEngine;

/// One metadata/data operation shipped to a proxy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProxyRequest {
    /// `create(path)`.
    Create(String),
    /// `mkdir(path)`.
    Mkdir(String),
    /// `unlink(path)`.
    Unlink(String),
    /// `rmdir(path)`.
    Rmdir(String),
    /// `lookup(path)`.
    Lookup(String),
    /// `getattr(path)`.
    Getattr(String),
    /// `setattr(path, patch)`.
    Setattr(String, SetAttrPatch),
    /// `readdir(path)`.
    Readdir(String),
    /// `rename(src, dst)`.
    Rename(String, String),
    /// `symlink(target, linkpath)`.
    Symlink(String, String),
    /// `readlink(path)`.
    Readlink(String),
    /// `write(path, offset, data)`.
    Write(String, u64, Vec<u8>),
    /// `read(path, offset, len)`.
    Read(String, u64, u64),
}

impl ProxyRequest {
    /// Span name for the root span a baseline client opens per operation
    /// (mirrors the `fs.*` roots of the CFS client).
    fn span_name(&self) -> &'static str {
        match self {
            ProxyRequest::Create(_) => "bl.create",
            ProxyRequest::Mkdir(_) => "bl.mkdir",
            ProxyRequest::Unlink(_) => "bl.unlink",
            ProxyRequest::Rmdir(_) => "bl.rmdir",
            ProxyRequest::Lookup(_) => "bl.lookup",
            ProxyRequest::Getattr(_) => "bl.getattr",
            ProxyRequest::Setattr(_, _) => "bl.setattr",
            ProxyRequest::Readdir(_) => "bl.readdir",
            ProxyRequest::Rename(_, _) => "bl.rename",
            ProxyRequest::Symlink(_, _) => "bl.symlink",
            ProxyRequest::Readlink(_) => "bl.readlink",
            ProxyRequest::Write(_, _, _) => "bl.write",
            ProxyRequest::Read(_, _, _) => "bl.read",
        }
    }
}

wire!(enum ProxyRequest {
    0 => Create(path),
    1 => Mkdir(path),
    2 => Unlink(path),
    3 => Rmdir(path),
    4 => Lookup(path),
    5 => Getattr(path),
    6 => Setattr(path, patch),
    7 => Readdir(path),
    8 => Rename(src, dst),
    9 => Symlink(target, path),
    10 => Readlink(path),
    11 => Write(path, offset, data),
    12 => Read(path, offset, len),
});

/// A wire-encodable directory entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireEntry {
    /// Entry name.
    pub name: String,
    /// Inode id.
    pub ino: InodeId,
    /// Type.
    pub ftype: FileType,
}

wire!(struct WireEntry { name, ino, ftype });

/// Proxy responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProxyResponse {
    /// Success without payload.
    Ok,
    /// An inode id.
    Ino(InodeId),
    /// An attribute record.
    Attr(Attr),
    /// Directory entries.
    Entries(Vec<WireEntry>),
    /// A string payload (readlink).
    Text(String),
    /// Data bytes.
    Data(Vec<u8>),
    /// Failure.
    Err(FsError),
}

wire!(enum ProxyResponse {
    0 => Ok,
    1 => Ino(ino),
    2 => Attr(attr),
    3 => Entries(entries),
    4 => Text(text),
    5 => Data(data),
    6 => Err(err),
});

/// The proxy service: runs the engine server-side.
pub struct ProxyService {
    engine: Arc<MetaEngine>,
}

impl ProxyService {
    /// Wraps an engine.
    pub fn new(engine: Arc<MetaEngine>) -> Arc<ProxyService> {
        Arc::new(ProxyService { engine })
    }

    fn process(&self, req: ProxyRequest) -> ProxyResponse {
        let e = &self.engine;
        let to_resp = |r: FsResult<()>| match r {
            Ok(()) => ProxyResponse::Ok,
            Err(err) => ProxyResponse::Err(err),
        };
        match req {
            ProxyRequest::Create(p) => match e.create(&p) {
                Ok(i) => ProxyResponse::Ino(i),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Mkdir(p) => match e.mkdir(&p) {
                Ok(i) => ProxyResponse::Ino(i),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Unlink(p) => to_resp(e.unlink(&p)),
            ProxyRequest::Rmdir(p) => to_resp(e.rmdir(&p)),
            ProxyRequest::Lookup(p) => match e.lookup(&p) {
                Ok(i) => ProxyResponse::Ino(i),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Getattr(p) => match e.getattr(&p) {
                Ok(a) => ProxyResponse::Attr(a),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Setattr(p, patch) => to_resp(e.setattr(&p, patch)),
            ProxyRequest::Readdir(p) => match e.readdir(&p) {
                Ok(es) => ProxyResponse::Entries(
                    es.into_iter()
                        .map(|d| WireEntry {
                            name: d.name,
                            ino: d.ino,
                            ftype: d.ftype,
                        })
                        .collect(),
                ),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Rename(a, b) => to_resp(e.rename(&a, &b)),
            ProxyRequest::Symlink(t, l) => match e.symlink(&t, &l) {
                Ok(i) => ProxyResponse::Ino(i),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Readlink(p) => match e.readlink(&p) {
                Ok(s) => ProxyResponse::Text(s),
                Err(err) => ProxyResponse::Err(err),
            },
            ProxyRequest::Write(p, off, data) => to_resp(e.write(&p, off, &data)),
            ProxyRequest::Read(p, off, len) => match e.read(&p, off, len as usize) {
                Ok(d) => ProxyResponse::Data(d),
                Err(err) => ProxyResponse::Err(err),
            },
        }
    }
}

impl Service for ProxyService {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        let resp = match ProxyRequest::from_bytes(payload) {
            Ok(req) => self.process(req),
            Err(e) => ProxyResponse::Err(FsError::from(e)),
        };
        resp.to_bytes()
    }
}

/// How a baseline client reaches the metadata service.
pub enum FrontEnd {
    /// Through the proxy layer: the client round-robins proxy nodes.
    Proxy {
        /// The simulated network.
        net: Arc<Network>,
        /// This client's address.
        me: NodeId,
        /// Proxy node addresses.
        proxies: Vec<NodeId>,
        /// Round-robin cursor.
        next: std::sync::atomic::AtomicUsize,
    },
    /// Directly against an engine instance (no proxy hop; the `+no-proxy`
    /// ablation).
    Direct(Arc<MetaEngine>),
}

/// A baseline file system handle.
pub struct BaselineFs {
    front: FrontEnd,
}

impl BaselineFs {
    /// Client reaching the service through proxies.
    pub fn via_proxy(net: Arc<Network>, me: NodeId, proxies: Vec<NodeId>) -> BaselineFs {
        BaselineFs {
            front: FrontEnd::Proxy {
                net,
                me,
                proxies,
                next: std::sync::atomic::AtomicUsize::new(0),
            },
        }
    }

    /// Client embedding the engine (client-side resolving).
    pub fn direct(engine: Arc<MetaEngine>) -> BaselineFs {
        BaselineFs {
            front: FrontEnd::Direct(engine),
        }
    }

    fn call(&self, req: ProxyRequest) -> FsResult<ProxyResponse> {
        match &self.front {
            FrontEnd::Proxy {
                net,
                me,
                proxies,
                next,
            } => {
                let _node = cfs_obs::trace::node_scope(me.0 as u64);
                let _op = cfs_obs::trace::root_span(req.span_name());
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let target = proxies[i % proxies.len()];
                let resp = net.call(*me, target, &frame(CH_APP, &req.to_bytes()))?;
                Ok(ProxyResponse::from_bytes(&resp)?)
            }
            FrontEnd::Direct(engine) => {
                let _node = cfs_obs::trace::node_scope(engine.taf.node().0 as u64);
                let _op = cfs_obs::trace::root_span(req.span_name());
                let svc = ProxyService {
                    engine: Arc::clone(engine),
                };
                Ok(svc.process(req))
            }
        }
    }

    fn expect_ino(&self, req: ProxyRequest) -> FsResult<InodeId> {
        match self.call(req)? {
            ProxyResponse::Ino(i) => Ok(i),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn expect_ok(&self, req: ProxyRequest) -> FsResult<()> {
        match self.call(req)? {
            ProxyResponse::Ok => Ok(()),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }
}

impl FileSystem for BaselineFs {
    fn create(&self, path: &str) -> FsResult<InodeId> {
        self.expect_ino(ProxyRequest::Create(path.to_string()))
    }

    fn mkdir(&self, path: &str) -> FsResult<InodeId> {
        self.expect_ino(ProxyRequest::Mkdir(path.to_string()))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.expect_ok(ProxyRequest::Unlink(path.to_string()))
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.expect_ok(ProxyRequest::Rmdir(path.to_string()))
    }

    fn lookup(&self, path: &str) -> FsResult<InodeId> {
        self.expect_ino(ProxyRequest::Lookup(path.to_string()))
    }

    fn getattr(&self, path: &str) -> FsResult<Attr> {
        match self.call(ProxyRequest::Getattr(path.to_string()))? {
            ProxyResponse::Attr(a) => Ok(a),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn setattr(&self, path: &str, patch: SetAttrPatch) -> FsResult<()> {
        self.expect_ok(ProxyRequest::Setattr(path.to_string(), patch))
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntryInfo>> {
        match self.call(ProxyRequest::Readdir(path.to_string()))? {
            ProxyResponse::Entries(es) => Ok(es
                .into_iter()
                .map(|e| DirEntryInfo {
                    name: e.name,
                    ino: e.ino,
                    ftype: e.ftype,
                })
                .collect()),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.expect_ok(ProxyRequest::Rename(src.to_string(), dst.to_string()))
    }

    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<InodeId> {
        self.expect_ino(ProxyRequest::Symlink(
            target.to_string(),
            linkpath.to_string(),
        ))
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        match self.call(ProxyRequest::Readlink(path.to_string()))? {
            ProxyResponse::Text(s) => Ok(s),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        self.expect_ok(ProxyRequest::Write(path.to_string(), offset, data.to_vec()))
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        match self.call(ProxyRequest::Read(path.to_string(), offset, len as u64))? {
            ProxyResponse::Data(d) => Ok(d),
            ProxyResponse::Err(e) => Err(e),
            other => Err(FsError::Corrupted(format!("unexpected {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_messages_round_trip() {
        let reqs = vec![
            ProxyRequest::Create("/a".into()),
            ProxyRequest::Setattr(
                "/b".into(),
                SetAttrPatch {
                    mode: Some(0o700),
                    ..Default::default()
                },
            ),
            ProxyRequest::Rename("/x".into(), "/y".into()),
            ProxyRequest::Write("/f".into(), 4096, vec![1, 2, 3]),
            ProxyRequest::Read("/f".into(), 0, 100),
        ];
        for r in reqs {
            assert_eq!(ProxyRequest::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        let resps = vec![
            ProxyResponse::Ok,
            ProxyResponse::Ino(InodeId(7)),
            ProxyResponse::Entries(vec![WireEntry {
                name: "x".into(),
                ino: InodeId(3),
                ftype: FileType::File,
            }]),
            ProxyResponse::Err(FsError::NotEmpty),
        ];
        for r in resps {
            assert_eq!(ProxyResponse::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }
}
