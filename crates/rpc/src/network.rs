//! The simulated network core: registry, delivery, fault injection.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cfs_obs::trace;
use cfs_types::{FsError, FsResult, NodeId};

use parking_lot::{Mutex, RwLock};

use crate::latency::{self, SimLatency};
use crate::rng::SimRng;
use crate::stats::NetStats;

/// A registered endpoint: any server-side component that accepts messages.
pub trait Service: Send + Sync {
    /// Handles a synchronous request and produces a response payload.
    fn handle(&self, from: NodeId, payload: &[u8]) -> Vec<u8>;

    /// Handles a one-way message (default: same path, response discarded).
    fn handle_oneway(&self, from: NodeId, payload: &[u8]) {
        let _ = self.handle(from, payload);
    }
}

/// Static configuration of a [`Network`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Latency applied per hop (a call costs two hops: request + response).
    pub hop_latency: SimLatency,
    /// Probability in `[0,1]` of silently dropping a one-way message.
    pub drop_rate: f64,
    /// Number of background delivery workers for one-way traffic.
    pub oneway_workers: usize,
    /// Root seed for every stochastic decision (drops, jitter). The same
    /// seed and per-connection traffic sequence reproduce the same decisions;
    /// see [`crate::rng::SimRng`]. Defaults to `CFS_SIM_SEED` (or 0).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hop_latency: SimLatency::ZERO,
            drop_rate: 0.0,
            oneway_workers: 2,
            seed: seed_from_env(),
        }
    }
}

/// Reads the `CFS_SIM_SEED` environment variable (default 0), the knob every
/// deterministic-simulation entry point shares.
pub fn seed_from_env() -> u64 {
    std::env::var("CFS_SIM_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

struct OnewayMsg {
    from: NodeId,
    to: NodeId,
    payload: Vec<u8>,
    deliver_at: Instant,
    /// Tie-breaker preserving send order for equal delivery times.
    seq: u64,
}

impl PartialEq for OnewayMsg {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for OnewayMsg {}

impl PartialOrd for OnewayMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OnewayMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What the worker timing the queue's head is doing. At most one worker
/// owns that timer; the others run handlers or are parked.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Nobody is timing the head: the next free worker takes it.
    Unowned,
    /// The owner yield-loops and re-reads the head every turn, so a new head
    /// needs no notification.
    Yielding,
    /// The owner sleeps on `timer_cv` and must be woken for an earlier head.
    Sleeping,
}

/// Pending one-way messages ordered by delivery time, and who is waiting
/// for them.
struct Queue {
    heap: std::collections::BinaryHeap<OnewayMsg>,
    timer: Timer,
    /// Workers blocked on `parked_cv` with nothing to do.
    parked: usize,
    /// Sequence number of the next message queued.
    next_seq: u64,
}

struct Inner {
    services: RwLock<HashMap<NodeId, Arc<dyn Service>>>,
    dead: RwLock<HashSet<NodeId>>,
    /// Partition groups: nodes in different groups cannot communicate. An
    /// empty vector means no partition is active.
    partitions: RwLock<Vec<HashSet<NodeId>>>,
    drop_rate_millionths: AtomicU64,
    hop_latency: RwLock<SimLatency>,
    stats: NetStats,
    /// The configured root seed (for reporting/reproduction).
    seed: u64,
    /// Root of every per-connection decision stream (see [`SimRng`]).
    rng_root: SimRng,
    /// Per-connection message counters indexing the connection's stream.
    conn_seq: RwLock<HashMap<(NodeId, NodeId), Arc<AtomicU64>>>,
    /// One worker times the head by the delay rule of [`latency`]; the rest
    /// run handlers or park, so waits for different messages overlap (a
    /// network keeps all in-flight messages moving concurrently).
    queue: Mutex<Queue>,
    /// Parked workers wait here for a head to time.
    parked_cv: parking_lot::Condvar,
    /// The timer's owner sleeps here while the head is far away.
    timer_cv: parking_lot::Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    /// Queues a one-way message for delivery at `deliver_at`; messages with
    /// equal delivery times keep the order they were queued in.
    fn enqueue(&self, from: NodeId, to: NodeId, payload: Vec<u8>, deliver_at: Instant) {
        let mut queue = self.queue.lock();
        let seq = queue.next_seq;
        queue.next_seq += 1;
        queue.heap.push(OnewayMsg {
            from,
            to,
            payload,
            deliver_at,
            seq,
        });
        // Only a new head changes what anybody waits for.
        if queue.heap.peek().is_some_and(|head| head.seq == seq) {
            match queue.timer {
                Timer::Sleeping => self.timer_cv.notify_one(),
                Timer::Yielding => {}
                Timer::Unowned => {
                    if queue.parked > 0 {
                        self.parked_cv.notify_one();
                    }
                }
            }
        }
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        {
            let dead = self.dead.read();
            // A killed node can neither receive nor send.
            if dead.contains(&to) || dead.contains(&from) {
                return false;
            }
        }
        let parts = self.partitions.read();
        if parts.is_empty() {
            return true;
        }
        let ga = parts.iter().position(|g| g.contains(&from));
        let gb = parts.iter().position(|g| g.contains(&to));
        match (ga, gb) {
            (Some(a), Some(b)) => a == b,
            // A node outside every group is unrestricted.
            _ => true,
        }
    }
}

/// The simulated cluster network. Cheap to clone via `Arc`.
pub struct Network {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Network {
    /// Builds a network and starts its one-way delivery workers.
    pub fn new(config: NetConfig) -> Arc<Network> {
        let inner = Arc::new(Inner {
            services: RwLock::new(HashMap::new()),
            dead: RwLock::new(HashSet::new()),
            partitions: RwLock::new(Vec::new()),
            drop_rate_millionths: AtomicU64::new((config.drop_rate * 1e6) as u64),
            hop_latency: RwLock::new(config.hop_latency),
            stats: NetStats::default(),
            seed: config.seed,
            rng_root: SimRng::from_seed(config.seed),
            conn_seq: RwLock::new(HashMap::new()),
            queue: Mutex::new(Queue {
                heap: std::collections::BinaryHeap::new(),
                timer: Timer::Unowned,
                parked: 0,
                next_seq: 0,
            }),
            parked_cv: parking_lot::Condvar::new(),
            timer_cv: parking_lot::Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for _ in 0..config.oneway_workers.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || {
                oneway_worker(inner);
            }));
        }
        Arc::new(Network { inner, workers })
    }

    /// Registers (or replaces) the service listening at `node`.
    pub fn register(&self, node: NodeId, svc: Arc<dyn Service>) {
        self.inner.services.write().insert(node, svc);
        self.inner.dead.write().remove(&node);
    }

    /// Removes the service at `node` entirely.
    pub fn unregister(&self, node: NodeId) {
        self.inner.services.write().remove(&node);
    }

    /// Removes every service. A deployment calls this when it shuts down:
    /// registered services hold the nodes that hold this network, so until
    /// the map is cleared the network is never dropped and its workers
    /// never stop.
    pub fn unregister_all(&self) {
        let services = std::mem::take(&mut *self.inner.services.write());
        // Dropped after the lock is released: a service's drop may reach
        // back into the network.
        drop(services);
    }

    /// Marks `node` as crashed: all traffic to it fails until [`Self::revive`].
    pub fn kill(&self, node: NodeId) {
        self.inner.dead.write().insert(node);
    }

    /// Brings a previously killed node back.
    pub fn revive(&self, node: NodeId) {
        self.inner.dead.write().remove(&node);
    }

    /// Returns true if the node is currently marked dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.inner.dead.read().contains(&node)
    }

    /// Installs a network partition: nodes in different groups cannot reach
    /// each other. Nodes absent from every group can reach everyone.
    pub fn partition(&self, groups: Vec<Vec<NodeId>>) {
        *self.inner.partitions.write() = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
    }

    /// Removes any active partition.
    pub fn heal(&self) {
        self.inner.partitions.write().clear();
    }

    /// Updates the probabilistic one-way drop rate.
    pub fn set_drop_rate(&self, rate: f64) {
        self.inner
            .drop_rate_millionths
            .store((rate.clamp(0.0, 1.0) * 1e6) as u64, Ordering::Relaxed);
    }

    /// Updates the per-hop latency model.
    pub fn set_hop_latency(&self, lat: SimLatency) {
        *self.inner.hop_latency.write() = lat;
    }

    /// Returns the traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// The root seed every stochastic decision derives from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// The next decision value for the `from → to` connection: a pure
    /// function of (seed, from, to, per-connection sequence number). One
    /// connection's draw count never perturbs another's stream, so a replay
    /// with the same seed and per-connection traffic reproduces every drop
    /// and jitter decision.
    fn conn_entropy(&self, from: NodeId, to: NodeId) -> u64 {
        let counter = {
            let seqs = self.inner.conn_seq.read();
            seqs.get(&(from, to)).cloned()
        };
        let counter = counter.unwrap_or_else(|| {
            Arc::clone(
                self.inner
                    .conn_seq
                    .write()
                    .entry((from, to))
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        });
        let seq = counter.fetch_add(1, Ordering::Relaxed);
        self.inner
            .rng_root
            .split2(from.0 as u64, to.0 as u64)
            .nth(seq)
    }

    /// Synchronous request/response between two nodes.
    ///
    /// Applies one hop of latency for the request, runs the destination's
    /// handler on the calling thread, applies one hop for the response.
    ///
    /// When tracing is enabled and the caller has a trace context, the
    /// context rides the wire as a `cfs_obs::trace` envelope: the payload is
    /// wrapped before the request hop and unwrapped at the destination, so
    /// the handler's spans attach under the caller's span even though (in
    /// this simulator) it happens to run on the caller's thread. Traffic
    /// counters always observe the *inner* payload, so hop/byte figures are
    /// identical with tracing on or off.
    pub fn call(&self, from: NodeId, to: NodeId, payload: &[u8]) -> FsResult<Vec<u8>> {
        if !self.inner.reachable(from, to) {
            self.inner.stats.unreachable.inc();
            return Err(FsError::Timeout);
        }
        let svc = {
            let services = self.inner.services.read();
            services.get(&to).cloned()
        };
        let Some(svc) = svc else {
            self.inner.stats.unreachable.inc();
            return Err(FsError::Timeout);
        };
        let wire = match trace::current() {
            Some(ctx) if trace::enabled() => Some(trace::wire_wrap(ctx, payload)),
            _ => None,
        };
        let lat = *self.inner.hop_latency.read();
        lat.wait(self.conn_entropy(from, to));
        let resp = {
            // Attribute the handler's metrics (and spans) to the destination.
            let _node = trace::node_scope(to.0 as u64);
            match wire.as_deref().and_then(trace::wire_unwrap) {
                Some((ctx, inner)) => {
                    let _ctx = trace::ctx_scope(Some(ctx));
                    let _span = trace::span("rpc.handle");
                    svc.handle(from, inner)
                }
                None => svc.handle(from, payload),
            }
        };
        // The destination may have been killed while the handler ran; in that
        // case the response is lost.
        if !self.inner.reachable(from, to) {
            self.inner.stats.unreachable.inc();
            return Err(FsError::Timeout);
        }
        lat.wait(self.conn_entropy(from, to));
        self.inner.stats.calls.inc();
        self.inner.stats.count_call_class(payload);
        self.inner
            .stats
            .bytes
            .add((payload.len() + resp.len()) as u64);
        Ok(resp)
    }

    /// One-way asynchronous message (fire and forget).
    ///
    /// Delivery happens on a worker thread, so here the trace envelope is
    /// genuinely load-bearing: without it the caller's context could not
    /// reach the handler at all. Byte counters observe the inner payload.
    pub fn send(&self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        let drop_rate = self.inner.drop_rate_millionths.load(Ordering::Relaxed);
        if drop_rate > 0 && self.conn_entropy(from, to) % 1_000_000 < drop_rate {
            self.inner.stats.dropped.inc();
            return;
        }
        if !self.inner.reachable(from, to) {
            self.inner.stats.dropped.inc();
            return;
        }
        let lat = *self.inner.hop_latency.read();
        let delay = lat.sample(self.conn_entropy(from, to));
        self.inner.stats.oneways.inc();
        self.inner.stats.bytes.add(payload.len() as u64);
        let payload = match trace::current() {
            Some(ctx) if trace::enabled() => trace::wire_wrap(ctx, &payload),
            _ => payload,
        };
        self.inner
            .enqueue(from, to, payload, Instant::now() + delay);
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            // Under the lock, so no worker sits between its shutdown check
            // and its wait when the notifications go out.
            let _queue = self.inner.queue.lock();
            self.inner.parked_cv.notify_all();
            self.inner.timer_cv.notify_all();
        }
        // The last handle can be dropped by a service a worker is still
        // delivering to; that worker sees the shutdown flag and exits on
        // its own, and joining it here would deadlock.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

fn oneway_worker(inner: Arc<Inner>) {
    while let Some(msg) = next_due(&inner) {
        deliver(&inner, msg);
    }
}

/// Blocks until a message's delivery time has come and returns it, or `None`
/// at shutdown.
///
/// The caller either parks or owns the timer for the queue's head, which it
/// waits out by the delay rule calls obey ([`latency::sleepable`]): sleep
/// while the head is far, yield-loop the last stretch — with the queue lock
/// released, re-reading the head every turn.
fn next_due(inner: &Inner) -> Option<OnewayMsg> {
    let mut queue = inner.queue.lock();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let head_at = match queue.heap.peek() {
            Some(head) if queue.timer == Timer::Unowned => head.deliver_at,
            _ => {
                queue.parked += 1;
                inner.parked_cv.wait(&mut queue);
                queue.parked -= 1;
                continue;
            }
        };
        let now = Instant::now();
        if head_at <= now {
            let msg = queue.heap.pop().expect("peeked");
            // Promote a parked worker before the handler runs: it times the
            // next head, so a handler that blocks stalls nobody else.
            if !queue.heap.is_empty() && queue.parked > 0 {
                inner.parked_cv.notify_one();
            }
            return Some(msg);
        }
        match latency::sleepable(head_at - now) {
            Some(coarse) => {
                queue.timer = Timer::Sleeping;
                inner.timer_cv.wait_for(&mut queue, coarse);
            }
            None => {
                queue.timer = Timer::Yielding;
                drop(queue);
                std::thread::yield_now();
                queue = inner.queue.lock();
            }
        }
        queue.timer = Timer::Unowned;
    }
}

fn deliver(inner: &Inner, msg: OnewayMsg) {
    // Re-check reachability at delivery time: a kill or a partition installed
    // while the message was in flight cuts it off.
    if !inner.reachable(msg.from, msg.to) {
        inner.stats.dropped.inc();
        return;
    }
    let svc = {
        let services = inner.services.read();
        services.get(&msg.to).cloned()
    };
    if let Some(svc) = svc {
        let _node = trace::node_scope(msg.to.0 as u64);
        match trace::wire_unwrap(&msg.payload) {
            Some((ctx, stripped)) => {
                let _ctx = trace::ctx_scope(Some(ctx));
                let _span = trace::span("rpc.oneway");
                svc.handle_oneway(msg.from, stripped);
            }
            None => svc.handle_oneway(msg.from, &msg.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    struct Echo;

    impl Service for Echo {
        fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
            payload.to_vec()
        }
    }

    struct Counter(AtomicUsize);

    impl Service for Counter {
        fn handle(&self, _from: NodeId, _payload: &[u8]) -> Vec<u8> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Vec::new()
        }
    }

    #[test]
    fn call_round_trips_payload() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(1), Arc::new(Echo));
        let resp = net.call(NodeId(0), NodeId(1), b"hello").unwrap();
        assert_eq!(resp, b"hello");
        assert_eq!(net.stats().snapshot().calls, 1);
    }

    #[test]
    fn call_to_unknown_node_times_out() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        assert_eq!(net.call(NodeId(0), NodeId(9), b"x"), Err(FsError::Timeout));
        assert_eq!(net.stats().snapshot().unreachable, 1);
    }

    #[test]
    fn killed_node_unreachable_until_revived() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(1), Arc::new(Echo));
        net.kill(NodeId(1));
        assert_eq!(net.call(NodeId(0), NodeId(1), b"x"), Err(FsError::Timeout));
        net.revive(NodeId(1));
        assert!(net.call(NodeId(0), NodeId(1), b"x").is_ok());
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(1), Arc::new(Echo));
        net.register(NodeId(2), Arc::new(Echo));
        net.partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert!(net.call(NodeId(0), NodeId(1), b"x").is_ok());
        assert_eq!(net.call(NodeId(0), NodeId(2), b"x"), Err(FsError::Timeout));
        net.heal();
        assert!(net.call(NodeId(0), NodeId(2), b"x").is_ok());
    }

    #[test]
    fn oneway_messages_are_delivered() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), counter.clone());
        for _ in 0..10 {
            net.send(NodeId(0), NodeId(5), vec![1]);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while counter.0.load(Ordering::SeqCst) < 10 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 10);
    }

    /// Records how long after its send each one-way message was handled;
    /// the payload carries the send time as nanoseconds since `epoch`.
    struct Stopwatch {
        epoch: Instant,
        lags: Mutex<Vec<Duration>>,
    }

    impl Service for Stopwatch {
        fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
            let sent = u64::from_le_bytes(payload.try_into().unwrap());
            let lag = self.epoch.elapsed() - Duration::from_nanos(sent);
            self.lags.lock().push(lag);
            Vec::new()
        }
    }

    /// Median send→handle time of `n` one-way messages sent one at a time
    /// over a `hop`-latency network with the workers idle in between.
    fn median_oneway_lag(hop: Duration, n: usize) -> Duration {
        let net = Network::new(NetConfig {
            hop_latency: SimLatency::fixed(hop),
            oneway_workers: 4,
            ..NetConfig::default()
        });
        let watch = Arc::new(Stopwatch {
            epoch: Instant::now(),
            lags: Mutex::new(Vec::new()),
        });
        net.register(NodeId(5), watch.clone());
        for i in 0..n {
            let sent = watch.epoch.elapsed().as_nanos() as u64;
            net.send(NodeId(0), NodeId(5), sent.to_le_bytes().to_vec());
            let deadline = Instant::now() + Duration::from_secs(2);
            while watch.lags.lock().len() <= i && Instant::now() < deadline {
                std::thread::sleep(hop / 4);
            }
        }
        let mut lags = watch.lags.lock().clone();
        assert_eq!(lags.len(), n, "every message is delivered");
        lags.sort();
        lags[n / 2]
    }

    #[test]
    fn oneway_delivery_is_punctual_below_the_yield_threshold() {
        let _turn = crate::test_turn::exclusive();
        // A 200 µs hop is yield-looped: delivery must not carry the 50–100 µs
        // a timed condvar wait overshoots by. Margin: 50 µs.
        let hop = Duration::from_micros(200);
        assert!(hop < latency::YIELD_THRESHOLD);
        let median = median_oneway_lag(hop, 41);
        assert!(median >= hop, "delivered early: {median:?}");
        assert!(
            median <= hop + Duration::from_micros(50),
            "median send→handle {median:?} for a {hop:?} hop"
        );
    }

    #[test]
    fn oneway_delivery_is_punctual_on_the_sleep_branch() {
        let _turn = crate::test_turn::exclusive();
        // A 2 ms hop is slept until YIELD_THRESHOLD before the deadline and
        // yield-looped from there, so the sleep's overshoot never shows.
        // Margin: 50 µs.
        let hop = Duration::from_millis(2);
        assert!(latency::sleepable(hop).is_some());
        let median = median_oneway_lag(hop, 21);
        assert!(median >= hop, "delivered early: {median:?}");
        assert!(
            median <= hop + Duration::from_micros(50),
            "median send→handle {median:?} for a {hop:?} hop"
        );
    }

    /// Appends each payload's first byte, in handling order.
    struct Recorder(Mutex<Vec<u8>>);

    impl Service for Recorder {
        fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
            self.0.lock().push(payload[0]);
            Vec::new()
        }
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn equal_deadline_messages_keep_send_order() {
        let _turn = crate::test_turn::shared();
        // One worker, so handling order is delivery order.
        let net = Network::new(NetConfig {
            oneway_workers: 1,
            ..NetConfig::default()
        });
        let seen = Arc::new(Recorder(Mutex::new(Vec::new())));
        net.register(NodeId(5), seen.clone());
        let at = Instant::now() + Duration::from_millis(2);
        for i in 0..100u8 {
            net.inner.enqueue(NodeId(0), NodeId(5), vec![i], at);
        }
        wait_for("100 deliveries", || seen.0.lock().len() == 100);
        assert_eq!(*seen.0.lock(), (0..100).collect::<Vec<u8>>());
    }

    #[test]
    fn message_cut_off_in_flight_is_dropped_at_delivery() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig {
            hop_latency: SimLatency::fixed(Duration::from_millis(20)),
            ..NetConfig::default()
        });
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), counter.clone());
        net.register(NodeId(6), counter.clone());
        // Both pass the reachability check at send time...
        net.send(NodeId(0), NodeId(5), vec![1]);
        net.send(NodeId(0), NodeId(6), vec![1]);
        assert_eq!(net.stats().snapshot().dropped, 0);
        // ...and are cut off before their hop is over.
        net.kill(NodeId(5));
        net.partition(vec![vec![NodeId(0)], vec![NodeId(6)]]);
        wait_for("both drops", || net.stats().snapshot().dropped == 2);
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn drop_joins_a_spinning_and_a_sleeping_timer_owner() {
        let _turn = crate::test_turn::shared();
        // Below the yield threshold the timer's owner yield-loops, above it
        // sleeps on its condvar; dropping the network must stop either
        // without waiting the hop out.
        for hop in [Duration::from_micros(450), Duration::from_secs(30)] {
            let net = Network::new(NetConfig {
                hop_latency: SimLatency::fixed(hop),
                ..NetConfig::default()
            });
            net.register(NodeId(5), Arc::new(Echo));
            net.send(NodeId(0), NodeId(5), vec![1]);
            // Let a worker take the timer.
            std::thread::sleep(Duration::from_micros(100));
            let started = Instant::now();
            drop(net);
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "drop waited out a {hop:?} hop"
            );
        }
    }

    /// Holds the last handle on the network until a message reaches it.
    struct LastHandle {
        net: Mutex<Option<Arc<Network>>>,
        dropped: AtomicBool,
    }

    impl Service for LastHandle {
        fn handle(&self, _from: NodeId, _payload: &[u8]) -> Vec<u8> {
            drop(self.net.lock().take());
            self.dropped.store(true, Ordering::SeqCst);
            Vec::new()
        }
    }

    #[test]
    fn last_handle_dropped_on_a_worker_does_not_join_it() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        let svc = Arc::new(LastHandle {
            net: Mutex::new(Some(Arc::clone(&net))),
            dropped: AtomicBool::new(false),
        });
        net.register(NodeId(5), svc.clone());
        net.send(NodeId(0), NodeId(5), vec![1]);
        let weak = Arc::downgrade(&net);
        drop(net);
        // The delivering worker runs `Network::drop`: joining itself would
        // panic there and `dropped` would never be set.
        wait_for("the worker's drop to return", || {
            svc.dropped.load(Ordering::SeqCst)
        });
        assert!(weak.upgrade().is_none());
    }

    /// Blocks in its handler until released.
    struct Gate {
        entered: AtomicBool,
        open: AtomicBool,
    }

    impl Service for Gate {
        fn handle(&self, _from: NodeId, _payload: &[u8]) -> Vec<u8> {
            self.entered.store(true, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Vec::new()
        }
    }

    #[test]
    fn blocked_handler_does_not_stall_other_due_messages() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig {
            hop_latency: SimLatency::fixed(Duration::from_micros(100)),
            oneway_workers: 2,
            ..NetConfig::default()
        });
        let gate = Arc::new(Gate {
            entered: AtomicBool::new(false),
            open: AtomicBool::new(false),
        });
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), gate.clone());
        net.register(NodeId(6), counter.clone());
        net.send(NodeId(0), NodeId(5), vec![1]);
        wait_for("the blocking handler to start", || {
            gate.entered.load(Ordering::SeqCst)
        });
        // One of the two workers is stuck in the handler; the other one must
        // have been promoted to time and deliver what follows.
        for _ in 0..10 {
            net.send(NodeId(0), NodeId(6), vec![1]);
        }
        wait_for("deliveries past the blocked handler", || {
            counter.0.load(Ordering::SeqCst) == 10
        });
        gate.open.store(true, Ordering::SeqCst);
    }

    #[test]
    fn full_drop_rate_drops_everything() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig {
            drop_rate: 1.0,
            ..NetConfig::default()
        });
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), counter.clone());
        for _ in 0..20 {
            net.send(NodeId(0), NodeId(5), vec![1]);
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        assert_eq!(net.stats().snapshot().dropped, 20);
    }

    /// Sends `n` one-way messages from 0→5 and returns which were dropped.
    fn drop_pattern(seed: u64, n: usize) -> Vec<bool> {
        let net = Network::new(NetConfig {
            drop_rate: 0.5,
            seed,
            ..NetConfig::default()
        });
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), counter.clone());
        let mut pattern = Vec::with_capacity(n);
        for _ in 0..n {
            let before = net.stats().snapshot().dropped;
            net.send(NodeId(0), NodeId(5), vec![1]);
            pattern.push(net.stats().snapshot().dropped > before);
        }
        pattern
    }

    #[test]
    fn drop_decisions_are_a_pure_function_of_the_seed() {
        let _turn = crate::test_turn::shared();
        let a = drop_pattern(1234, 200);
        let b = drop_pattern(1234, 200);
        assert_eq!(a, b, "same seed must reproduce the same drop pattern");
        let c = drop_pattern(99, 200);
        assert_ne!(a, c, "different seeds should give different patterns");
        let drops = a.iter().filter(|&&d| d).count();
        assert!(
            (40..160).contains(&drops),
            "~50% drop rate, got {drops}/200"
        );
    }

    #[test]
    fn per_connection_streams_are_isolated() {
        let _turn = crate::test_turn::shared();
        // Decisions on connection 0→5 must be identical whether or not other
        // connections carry traffic in between.
        let quiet = drop_pattern(7, 50);
        let net = Network::new(NetConfig {
            drop_rate: 0.5,
            seed: 7,
            ..NetConfig::default()
        });
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(5), counter.clone());
        net.register(NodeId(6), counter.clone());
        let mut busy = Vec::new();
        for i in 0..50 {
            // Interleave unrelated traffic on 1→6.
            for _ in 0..(i % 3) {
                net.send(NodeId(1), NodeId(6), vec![2]);
            }
            let before = net.stats().snapshot().dropped;
            net.send(NodeId(0), NodeId(5), vec![1]);
            // Unrelated sends may also drop; sample only our delta precisely
            // by sending serially (send() decides synchronously).
            busy.push(net.stats().snapshot().dropped > before);
        }
        assert_eq!(quiet, busy);
    }

    /// Drains only `tid`'s spans, returning everything else to the shared
    /// sink so concurrently running trace tests keep their spans.
    fn drain_trace(tid: u64) -> Vec<cfs_obs::trace::SpanRecord> {
        let (mine, others): (Vec<_>, Vec<_>) =
            trace::drain().into_iter().partition(|s| s.trace_id == tid);
        for s in others {
            trace::requeue(s);
        }
        mine
    }

    #[test]
    fn trace_envelope_is_transparent_to_handlers_and_counters() {
        let _turn = crate::test_turn::shared();
        trace::enable();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(7), Arc::new(Echo));
        let root = trace::root_span("test.op");
        let tid = root.trace_id();
        // The handler must see the inner payload even though the wire
        // carried a trace envelope, and byte counters must match it.
        let resp = net.call(NodeId(0), NodeId(7), b"inner").unwrap();
        assert_eq!(resp, b"inner");
        assert_eq!(net.stats().snapshot().bytes, 10);
        drop(root);
        let spans = drain_trace(tid);
        assert!(trace::validate_spans(&spans).is_empty());
        let handle = spans.iter().find(|s| s.name == "rpc.handle").unwrap();
        assert_eq!(handle.node, 7, "handler span attributed to destination");
        let op = spans.iter().find(|s| s.name == "test.op").unwrap();
        assert_eq!(handle.parent, op.span_id);
    }

    #[test]
    fn trace_ctx_rides_oneway_messages_across_threads() {
        let _turn = crate::test_turn::shared();
        trace::enable();
        let net = Network::new(NetConfig::default());
        let counter = Arc::new(Counter(AtomicUsize::new(0)));
        net.register(NodeId(8), counter.clone());
        let root = trace::root_span("test.oneway");
        let tid = root.trace_id();
        net.send(NodeId(0), NodeId(8), vec![9, 9]);
        let deadline = Instant::now() + Duration::from_secs(2);
        while counter.0.load(Ordering::SeqCst) < 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        drop(root);
        // The worker records its span just after the handler returns; poll
        // until it lands in the sink.
        let mut spans = drain_trace(tid);
        while !spans.iter().any(|s| s.name == "rpc.oneway") && Instant::now() < deadline {
            std::thread::yield_now();
            spans.extend(drain_trace(tid));
        }
        assert!(trace::validate_spans(&spans).is_empty());
        let hop = spans.iter().find(|s| s.name == "rpc.oneway").unwrap();
        assert_eq!(hop.node, 8);
        let op = spans.iter().find(|s| s.name == "test.oneway").unwrap();
        assert_eq!(hop.parent, op.span_id);
    }

    #[test]
    fn concurrent_calls_all_complete() {
        let _turn = crate::test_turn::shared();
        let net = Network::new(NetConfig::default());
        net.register(NodeId(1), Arc::new(Echo));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let payload = (t * 1000 + i).to_le_bytes();
                    let resp = net.call(NodeId(100 + t), NodeId(1), &payload).unwrap();
                    assert_eq!(resp, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.stats().snapshot().calls, 8 * 500);
    }
}
