//! Channel multiplexing: several logical services behind one node address.
//!
//! A deployed server process hosts multiple protocols on one endpoint — e.g.
//! a TafDB backend accepts client primitives *and* Raft replication traffic.
//! [`MuxService`] dispatches on a one-byte channel prefix.

use std::collections::HashMap;
use std::sync::Arc;

use cfs_types::NodeId;
use parking_lot::RwLock;

use crate::network::Service;

/// Raft replication traffic.
pub const CH_RAFT: u8 = 0;
/// Application request/response traffic.
pub const CH_APP: u8 = 1;
/// Interactive transaction traffic (baseline locking engine).
pub const CH_TXN: u8 = 2;

/// Prepends the channel byte to a payload.
pub fn frame(channel: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(channel);
    out.extend_from_slice(payload);
    out
}

/// A [`Service`] that dispatches to per-channel handlers.
#[derive(Default)]
pub struct MuxService {
    handlers: RwLock<HashMap<u8, Arc<dyn Service>>>,
}

impl MuxService {
    /// Creates an empty mux.
    pub fn new() -> Arc<MuxService> {
        Arc::new(MuxService::default())
    }

    /// Mounts `svc` at `channel`, replacing any previous handler.
    pub fn mount(&self, channel: u8, svc: Arc<dyn Service>) {
        self.handlers.write().insert(channel, svc);
    }

    /// The handler mounted at `channel`, if any.
    pub fn handler(&self, channel: u8) -> Option<Arc<dyn Service>> {
        self.handlers.read().get(&channel).cloned()
    }
}

impl Service for MuxService {
    fn handle(&self, from: NodeId, payload: &[u8]) -> Vec<u8> {
        let Some((&ch, rest)) = payload.split_first() else {
            return Vec::new();
        };
        match self.handler(ch) {
            Some(h) => h.handle(from, rest),
            None => Vec::new(),
        }
    }

    fn handle_oneway(&self, from: NodeId, payload: &[u8]) {
        let Some((&ch, rest)) = payload.split_first() else {
            return;
        };
        if let Some(h) = self.handler(ch) {
            h.handle_oneway(from, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetConfig, Network};

    struct Tagger(u8);

    impl Service for Tagger {
        fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
            let mut out = vec![self.0];
            out.extend_from_slice(payload);
            out
        }
    }

    #[test]
    fn dispatches_by_channel() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        let mux = MuxService::new();
        mux.mount(CH_RAFT, Arc::new(Tagger(b'r')));
        mux.mount(CH_APP, Arc::new(Tagger(b'a')));
        net.register(NodeId(1), mux);
        let r = net
            .call(NodeId(0), NodeId(1), &frame(CH_RAFT, b"x"))
            .unwrap();
        assert_eq!(r, b"rx");
        let a = net
            .call(NodeId(0), NodeId(1), &frame(CH_APP, b"y"))
            .unwrap();
        assert_eq!(a, b"ay");
    }

    #[test]
    fn unknown_channel_returns_empty() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(1), MuxService::new());
        let resp = net.call(NodeId(0), NodeId(1), &frame(9, b"z")).unwrap();
        assert!(resp.is_empty());
    }
}
