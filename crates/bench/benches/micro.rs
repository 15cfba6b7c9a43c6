//! Microbenchmarks of the core data structures: single-shard primitive
//! execution vs the equivalent lock-based transaction, kv store operations,
//! the binary codec, and Raft commit latency.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_bench::{write_bench_json, Json};
use cfs_harness::Summary;
use cfs_kvstore::{KvConfig, KvStore};
use cfs_raft::{RaftConfig, RaftGroup};
use cfs_rpc::{NetConfig, Network};
use cfs_tafdb::api::ShardCmd;
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::TafShard;
use cfs_types::codec::{Decode, Encode};
use cfs_types::record::{FieldAssign, NumField, Pred};
use cfs_types::{Cond, FileType, InodeId, Key, NodeId, Record, Timestamp, ROOT_INODE};
use std::hint::black_box;

/// Every measured case, in run order.
type Cases = Vec<(&'static str, Summary)>;

/// Untimed warm-up of every case.
const WARM_UP: Duration = Duration::from_secs(1);
/// How long every case measures after its warm-up.
const MEASUREMENT: Duration = Duration::from_secs(3);
/// A case stops early once it has this many samples.
const MAX_SAMPLES: usize = 3_000;

/// Times one named case into `cases`. The warm-up also picks a batch size
/// of about 1 ms per sample, so cheap operations are not dominated by clock
/// reads; each sample is one batch's time per iteration.
fn bench<O>(cases: &mut Cases, name: &'static str, mut f: impl FnMut() -> O) {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARM_UP {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
    let batch = ((1e-3 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    let deadline = Instant::now() + MEASUREMENT;
    while Instant::now() < deadline && samples.len() < MAX_SAMPLES {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as u64 / batch);
    }
    let s = Summary::from_samples(&mut samples);
    println!(
        "{name:<44} mean {:>10} ns/iter   p50 {:>10}   p99 {:>10}   ({} samples)",
        s.mean_ns, s.p50_ns, s.p99_ns, s.count
    );
    cases.push((name, s));
}

fn create_prim(parent: InodeId, name: &str, ino: u64) -> Primitive {
    Primitive::insert_with_update(
        Key::entry(parent, name),
        Record::id_record(InodeId(ino), FileType::File),
        UpdateSpec::new(
            Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
            vec![FieldAssign::Delta {
                field: NumField::Children,
                delta: 1,
            }],
        ),
    )
}

fn bench_primitive_execution(cases: &mut Cases) {
    let shard = TafShard::new(KvConfig::default()).unwrap();
    shard.apply_cmd(ShardCmd::Put(
        Key::attr(ROOT_INODE),
        Record::dir_attr_record(0, Timestamp(1)),
    ));
    let mut i = 0u64;
    bench(cases, "shard/execute_create_primitive", || {
        i += 1;
        let prim = create_prim(ROOT_INODE, &format!("f{i}"), 100 + i);
        shard.apply_cmd(ShardCmd::Execute(prim))
    });
    let mut j = 0u64;
    bench(cases, "shard/point_get", || {
        j += 1;
        shard.get(&Key::entry(ROOT_INODE, format!("f{}", 1 + j % i.max(1))))
    });
}

fn bench_kvstore(cases: &mut Cases) {
    let kv = KvStore::new_in_memory();
    for i in 0..10_000u64 {
        kv.put(i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    let mut i = 0u64;
    bench(cases, "kvstore/put_64b", || {
        i += 1;
        kv.put((1_000_000 + i).to_be_bytes().to_vec(), vec![0u8; 64])
            .unwrap();
    });
    let mut k = 0u64;
    bench(cases, "kvstore/get_hit", || {
        k = (k + 7919) % 10_000;
        kv.get(&k.to_be_bytes())
    });
    bench(cases, "kvstore/scan_100", || {
        kv.scan(&0u64.to_be_bytes(), &10_000u64.to_be_bytes(), 100)
    });
}

fn bench_codec(cases: &mut Cases) {
    let rec = Record::dir_attr_record(123_456, Timestamp(42));
    bench(cases, "codec/record_encode", || rec.to_bytes());
    let bytes = rec.to_bytes();
    bench(cases, "codec/record_decode", || {
        Record::from_bytes(&bytes).unwrap()
    });
    let prim = create_prim(ROOT_INODE, "some-file-name", 42);
    bench(cases, "codec/primitive_round_trip", || {
        Primitive::from_bytes(&prim.to_bytes()).unwrap()
    });
}

fn bench_lock_contention(cases: &mut Cases) {
    use cfs_tafdb::locking::LockManager;
    use std::sync::atomic::{AtomicBool, Ordering};

    // Three background transactions ping-pong one hot row lock while the
    // measured thread takes its turn. Every handoff crosses the condvar:
    // release_all must wake waiters immediately, so the per-iteration cost
    // stays in the microseconds instead of a polling quantum.
    let locks = Arc::new(LockManager::new(0));
    let key = Key::entry(ROOT_INODE, "hot-row");
    let stop = Arc::new(AtomicBool::new(false));
    let contenders: Vec<_> = (1..=3u64)
        .map(|txn| {
            let locks = Arc::clone(&locks);
            let key = key.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    locks.acquire(txn, &key).unwrap();
                    locks.release_all(txn, None);
                }
            })
        })
        .collect();
    bench(cases, "lock/contended_acquire_release", || {
        locks.acquire(0, &key).unwrap();
        locks.release_all(0, None);
    });
    stop.store(true, Ordering::Relaxed);
    for h in contenders {
        h.join().unwrap();
    }
}

/// State machine that discards commands (isolates consensus cost).
struct NullSm;

impl cfs_raft::StateMachine for NullSm {
    fn apply(&self, _index: u64, _cmd: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

fn bench_raft_commit(cases: &mut Cases) {
    let net = Network::new(NetConfig::default());
    let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
    let config = RaftConfig {
        election_timeout_min: Duration::from_millis(50),
        election_timeout_max: Duration::from_millis(120),
        heartbeat_interval: Duration::from_millis(15),
        ..Default::default()
    };
    let group = RaftGroup::spawn(&net, &ids, config, |_| Arc::new(NullSm));
    let leader = group.wait_for_leader(Duration::from_secs(5)).unwrap();
    bench(cases, "raft/propose_commit_3replicas", || {
        leader.propose(vec![1, 2, 3]).unwrap()
    });
    group.shutdown();
}

fn main() {
    let mut cases = Cases::new();
    bench_primitive_execution(&mut cases);
    bench_kvstore(&mut cases);
    bench_codec(&mut cases);
    bench_lock_contention(&mut cases);
    bench_raft_commit(&mut cases);
    let cases: Vec<Json> = cases
        .iter()
        .map(|(name, s)| {
            Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("mean_ns", Json::Num(s.mean_ns as f64)),
                ("p50_ns", Json::Num(s.p50_ns as f64)),
                ("p99_ns", Json::Num(s.p99_ns as f64)),
                ("samples", Json::Int(s.count)),
            ])
        })
        .collect();
    write_bench_json(
        "micro",
        &Json::obj(vec![
            ("figure", Json::Str("micro".to_string())),
            (
                "op_mix",
                Json::Str("single-threaded microbenchmarks (per-iteration latency)".to_string()),
            ),
            ("cases", Json::Arr(cases)),
        ]),
    );
}
