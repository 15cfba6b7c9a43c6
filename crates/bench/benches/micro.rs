//! Criterion microbenchmarks of the core data structures: single-shard
//! primitive execution vs the equivalent lock-based transaction, kv store
//! operations, the binary codec, and Raft commit latency.

use std::sync::Arc;
use std::time::Duration;

use cfs_bench::{write_bench_json, Json};
use cfs_kvstore::{KvConfig, KvStore};
use cfs_raft::{RaftConfig, RaftGroup};
use cfs_rpc::{NetConfig, Network};
use cfs_tafdb::api::ShardCmd;
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::TafShard;
use cfs_types::codec::{Decode, Encode};
use cfs_types::record::{FieldAssign, NumField, Pred};
use cfs_types::{Cond, FileType, InodeId, Key, NodeId, Record, Timestamp, ROOT_INODE};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;

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

fn bench_primitive_execution(c: &mut Criterion) {
    let shard = TafShard::new(KvConfig::default()).unwrap();
    shard.apply_cmd(ShardCmd::Put(
        Key::attr(ROOT_INODE),
        Record::dir_attr_record(0, Timestamp(1)),
    ));
    let mut i = 0u64;
    c.bench_function("shard/execute_create_primitive", |b| {
        b.iter(|| {
            i += 1;
            let prim = create_prim(ROOT_INODE, &format!("f{i}"), 100 + i);
            black_box(shard.apply_cmd(ShardCmd::Execute(prim)))
        })
    });
    let mut j = 0u64;
    c.bench_function("shard/point_get", |b| {
        b.iter(|| {
            j += 1;
            black_box(shard.get(&Key::entry(ROOT_INODE, format!("f{}", 1 + j % i.max(1)))))
        })
    });
}

fn bench_kvstore(c: &mut Criterion) {
    let kv = KvStore::new_in_memory();
    for i in 0..10_000u64 {
        kv.put(i.to_be_bytes().to_vec(), vec![0u8; 64]).unwrap();
    }
    let mut i = 0u64;
    c.bench_function("kvstore/put_64b", |b| {
        b.iter(|| {
            i += 1;
            kv.put((1_000_000 + i).to_be_bytes().to_vec(), vec![0u8; 64])
                .unwrap();
        })
    });
    c.bench_function("kvstore/get_hit", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7919) % 10_000;
            black_box(kv.get(&k.to_be_bytes()))
        })
    });
    c.bench_function("kvstore/scan_100", |b| {
        b.iter(|| black_box(kv.scan(&0u64.to_be_bytes(), &10_000u64.to_be_bytes(), 100)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let rec = Record::dir_attr_record(123_456, Timestamp(42));
    c.bench_function("codec/record_encode", |b| {
        b.iter(|| black_box(rec.to_bytes()))
    });
    let bytes = rec.to_bytes();
    c.bench_function("codec/record_decode", |b| {
        b.iter(|| black_box(Record::from_bytes(&bytes).unwrap()))
    });
    let prim = create_prim(ROOT_INODE, "some-file-name", 42);
    c.bench_function("codec/primitive_round_trip", |b| {
        b.iter(|| {
            let bytes = prim.to_bytes();
            black_box(Primitive::from_bytes(&bytes).unwrap())
        })
    });
}

fn bench_lock_contention(c: &mut Criterion) {
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
    c.bench_function("lock/contended_acquire_release", |b| {
        b.iter(|| {
            locks.acquire(0, &key).unwrap();
            locks.release_all(0, None);
        })
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

fn bench_raft_commit(c: &mut Criterion) {
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
    c.bench_function("raft/propose_commit_3replicas", |b| {
        b.iter(|| black_box(leader.propose(vec![1, 2, 3]).unwrap()))
    });
    group.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .sample_size(30);
    targets = bench_primitive_execution, bench_kvstore, bench_codec, bench_lock_contention, bench_raft_commit
}
fn main() {
    benches();
    let cases: Vec<Json> = criterion::take_reports()
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.clone())),
                ("mean_ns", Json::Num(r.mean_ns)),
                ("p50_ns", Json::Num(r.p50_ns)),
                ("p99_ns", Json::Num(r.p99_ns)),
                ("samples", Json::Int(r.samples as u64)),
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
