//! One way to reach a replicated group from outside it.
//!
//! Clients talk straight to each TafDB shard's and FileStore node's Raft
//! leader (the paper's ClientLib, Fig. 5): a [`Route`] caches where one
//! group's leader is, and [`Route::call`] is the one loop that sends a
//! request there, follows `NotLeader` redirects, rotates past replicas that
//! do not answer and gives up at [`RETRY_TIMEOUT`]. The loop routes only:
//! every other error a reply carries goes back to the caller, so a failed
//! check (`Conflict`) or a redirect to another shard (`WrongShard`) is
//! answered at once instead of being re-proposed until the deadline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cfs_rpc::Network;
use cfs_types::codec::Decode;
use cfs_types::{FsError, FsResult, NodeId};

/// How long one request may chase a group's leader before it answers
/// `Timeout`.
pub const RETRY_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause before an attempt that has no fresh routing information.
const BACKOFF: Duration = Duration::from_millis(2);

/// A reply the loop can route on.
pub trait Reply: Decode {
    /// The error the reply carries in band, if any.
    fn in_band(&self) -> Option<&FsError>;
}

/// Which replica an attempt goes to, and which in-band errors the loop
/// retries rather than returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The leader. In-band `Timeout`, `Busy` and `NoSpace` (a proposal that
    /// timed out, a busy row, a full log volume) rotate and back off.
    Leader,
    /// Round-robin over every replica (ReadIndex reads, which any replica
    /// serves after confirming against the leader); in-band transients are
    /// retried as under `Leader`.
    Spread,
    /// The leader, for the transaction channel: every in-band error but
    /// `NotLeader` goes back to the caller. A lock `Busy` must reach the
    /// renamer, which aborts and releases the locks it holds instead of
    /// spinning here while it holds them.
    Txn,
}

/// How to reach one replicated group: its replicas, the cached leader and
/// the read cursor. Shared by every client of the deployment, so one
/// discovery serves all of them.
pub struct Route {
    replicas: Vec<NodeId>,
    /// Index into `replicas` of the likely leader.
    leader: AtomicUsize,
    /// Round-robin cursor for [`Mode::Spread`].
    read_rr: AtomicUsize,
}

impl Route {
    /// A route over `replicas` (in group order) guessing the first is leader.
    pub fn new(replicas: Vec<NodeId>) -> Route {
        assert!(!replicas.is_empty(), "a route needs a replica");
        Route {
            replicas,
            leader: AtomicUsize::new(0),
            read_rr: AtomicUsize::new(0),
        }
    }

    /// The group's replicas, in group order.
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Sends the framed `payload` to the group as `me` and returns the first
    /// reply that is not a routing answer (see [`Mode`]):
    /// - `NotLeader` naming a replica of the group: retry it at once;
    /// - `NotLeader` without a usable hint, or a transport timeout: move to
    ///   the next replica and back off;
    /// - an in-band transient under `Leader`/`Spread`: the same;
    /// - anything else: returned, and under `Leader`/`Txn` the replica that
    ///   answered is recorded as leader.
    ///
    /// Fails with `Timeout` once [`RETRY_TIMEOUT`] has passed.
    pub fn call<R: Reply>(
        &self,
        net: &Network,
        me: NodeId,
        payload: &[u8],
        mode: Mode,
    ) -> FsResult<R> {
        let n = self.replicas.len();
        let deadline = Instant::now() + RETRY_TIMEOUT;
        loop {
            let i = match mode {
                Mode::Spread => self.read_rr.fetch_add(1, Ordering::Relaxed) % n,
                Mode::Leader | Mode::Txn => self.leader.load(Ordering::Relaxed),
            };
            let mut backoff = true;
            match net.call(me, self.replicas[i], payload) {
                Ok(bytes) => {
                    let reply = R::from_bytes(&bytes)?;
                    match reply.in_band() {
                        Some(FsError::NotLeader(hint)) => {
                            let known =
                                hint.and_then(|h| self.replicas.iter().position(|r| r.0 == h));
                            if let Some(h) = known {
                                self.leader.store(h, Ordering::Relaxed);
                                backoff = false;
                            } else {
                                self.rotate(i, mode);
                            }
                        }
                        Some(FsError::Timeout | FsError::Busy | FsError::NoSpace)
                            if mode != Mode::Txn =>
                        {
                            self.rotate(i, mode)
                        }
                        _ => {
                            if mode != Mode::Spread {
                                self.leader.store(i, Ordering::Relaxed);
                            }
                            return Ok(reply);
                        }
                    }
                }
                Err(FsError::Timeout) => self.rotate(i, mode),
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(FsError::Timeout);
            }
            if backoff {
                std::thread::sleep(BACKOFF);
            }
        }
    }

    /// Moves the cached leader past replica `i`, unless a concurrent caller
    /// already moved it (the read cursor moves on its own).
    fn rotate(&self, i: usize, mode: Mode) {
        if mode != Mode::Spread {
            let next = (i + 1) % self.replicas.len();
            let _ = self
                .leader
                .compare_exchange(i, next, Ordering::Relaxed, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_rpc::{NetConfig, Service};
    use cfs_types::codec::Encode;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    /// A reply that is either plain success or one in-band error.
    #[derive(Debug, PartialEq)]
    struct TestReply(Option<FsError>);

    cfs_types::wire!(struct TestReply(err));

    impl Reply for TestReply {
        fn in_band(&self) -> Option<&FsError> {
            self.0.as_ref()
        }
    }

    /// A replica that answers its `calls`-th request with `answer(calls)`.
    struct Stub {
        calls: AtomicU32,
        answer: Box<dyn Fn(u32) -> Option<FsError> + Send + Sync>,
    }

    impl Service for Stub {
        fn handle(&self, _from: NodeId, _payload: &[u8]) -> Vec<u8> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            TestReply((self.answer)(n)).to_bytes()
        }
    }

    const ME: NodeId = NodeId(999);

    /// Registers one stub per answer function at nodes 1, 2, 3, …
    fn group(
        answers: Vec<Box<dyn Fn(u32) -> Option<FsError> + Send + Sync>>,
    ) -> (Arc<Network>, Vec<Arc<Stub>>, Route) {
        let net = Network::new(NetConfig::default());
        let mut stubs = Vec::new();
        let mut ids = Vec::new();
        for (i, answer) in answers.into_iter().enumerate() {
            let id = NodeId(i as u32 + 1);
            let stub = Arc::new(Stub {
                calls: AtomicU32::new(0),
                answer,
            });
            net.register(id, Arc::clone(&stub) as Arc<dyn Service>);
            stubs.push(stub);
            ids.push(id);
        }
        (net, stubs, Route::new(ids))
    }

    /// The replica `route` currently believes leads.
    fn leader(route: &Route) -> NodeId {
        route.replicas[route.leader.load(Ordering::Relaxed)]
    }

    fn calls(stubs: &[Arc<Stub>]) -> Vec<u32> {
        stubs
            .iter()
            .map(|s| s.calls.load(Ordering::Relaxed))
            .collect()
    }

    fn call(net: &Network, route: &Route, mode: Mode) -> (FsResult<TestReply>, Duration) {
        let started = Instant::now();
        let r = route.call::<TestReply>(net, ME, b"req", mode);
        (r, started.elapsed())
    }

    #[test]
    fn known_hint_is_followed_at_once_and_the_answerer_recorded() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| Some(FsError::NotLeader(Some(3)))),
            Box::new(|_| Some(FsError::NotLeader(Some(3)))),
            Box::new(|_| None),
        ]);
        let (r, took) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(None));
        assert_eq!(calls(&stubs), vec![1, 0, 1], "straight to the hint");
        assert!(took < BACKOFF, "no backoff on a usable hint: {took:?}");
        assert_eq!(leader(&route), NodeId(3));
        // The next request goes straight to the recorded leader.
        call(&net, &route, Mode::Leader).0.unwrap();
        assert_eq!(calls(&stubs), vec![1, 0, 2]);
    }

    #[test]
    fn unknown_or_missing_hint_rotates_and_backs_off() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| Some(FsError::NotLeader(Some(77)))),
            Box::new(|_| Some(FsError::NotLeader(None))),
            Box::new(|_| None),
        ]);
        let (r, took) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(None));
        assert_eq!(calls(&stubs), vec![1, 1, 1], "one replica after another");
        assert!(took >= 2 * BACKOFF, "two backoffs: {took:?}");
        assert_eq!(leader(&route), NodeId(3));
    }

    #[test]
    fn transport_timeout_rotates_and_backs_off() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| None),
            Box::new(|_| None),
            Box::new(|_| None),
        ]);
        net.kill(NodeId(1));
        let (r, took) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(None));
        assert_eq!(calls(&stubs), vec![0, 1, 0]);
        assert!(took >= BACKOFF, "one backoff: {took:?}");
        assert_eq!(leader(&route), NodeId(2));
    }

    #[test]
    fn no_space_is_retried_until_the_replica_heals() {
        let (net, stubs, route) = group(vec![
            // The leader rejects its first five proposals (a full log
            // volume), then the volume heals.
            Box::new(|n| (n < 5).then_some(FsError::NoSpace)),
            Box::new(|_| Some(FsError::NotLeader(Some(1)))),
            Box::new(|_| Some(FsError::NotLeader(Some(1)))),
        ]);
        let (r, _) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(None));
        assert_eq!(calls(&stubs)[0], 6, "retried until the heal");
        assert_eq!(leader(&route), NodeId(1));
    }

    #[test]
    fn conflict_is_returned_at_once() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| Some(FsError::NotLeader(Some(2)))),
            Box::new(|_| Some(FsError::Conflict)),
            Box::new(|_| None),
        ]);
        let (r, took) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(Some(FsError::Conflict)));
        assert_eq!(calls(&stubs), vec![1, 1, 0]);
        assert!(took < BACKOFF, "{took:?}");
        assert_eq!(leader(&route), NodeId(2), "the answerer leads");
    }

    #[test]
    fn txn_channel_returns_busy_at_once() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| Some(FsError::Busy)),
            Box::new(|_| None),
            Box::new(|_| None),
        ]);
        let (r, took) = call(&net, &route, Mode::Txn);
        assert_eq!(r.unwrap(), TestReply(Some(FsError::Busy)));
        assert_eq!(calls(&stubs), vec![1, 0, 0]);
        assert!(took < BACKOFF, "{took:?}");
        // The same reply on the client channel is retried elsewhere.
        let (r, _) = call(&net, &route, Mode::Leader);
        assert_eq!(r.unwrap(), TestReply(None));
        assert_eq!(calls(&stubs), vec![2, 1, 0]);
    }

    #[test]
    fn spread_reads_round_robin_without_moving_the_leader() {
        let (net, stubs, route) = group(vec![
            Box::new(|_| None),
            Box::new(|_| None),
            Box::new(|_| None),
        ]);
        for _ in 0..6 {
            call(&net, &route, Mode::Spread).0.unwrap();
        }
        assert_eq!(calls(&stubs), vec![2, 2, 2]);
        assert_eq!(leader(&route), NodeId(1));
    }
}
