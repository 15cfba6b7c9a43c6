//! Figure 4 — HopsFS `create` under different workload intensity levels and
//! contention rates: (a) throughput vs concurrent clients, (b) latency
//! breakdown into Lock / Execute / Others.
//!
//! Part (a) drives the full HopsFS-like system. Part (b) reproduces the
//! paper's instrumentation directly: each client executes the create
//! transaction of Figures 2–3 step by step against the shard tier —
//! ① route, ② read + write-lock the parent row, ③–⑤ execute the
//! insert/update and commit — timing each phase separately. The paper
//! reports locking at 52.91% of request time even uncontended, 83.18% at
//! 50% and 93.86% at 100% contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_baselines::Variant;
use cfs_bench::{banner, bench_cfs_config, cell_duration, expectation, SystemUnderTest};
use cfs_harness::bench_scale;
use cfs_harness::metrics::{fmt_ns, fmt_ops};
use cfs_harness::runner::run_clients;
use cfs_harness::workload::{prepare_op_workload, run_op_bench, MetaOp, WorkloadOptions};
use cfs_raft::{ReplicaSet, Replicas};
use cfs_tafdb::api::{TxnRequest, TxnResponse};
use cfs_tafdb::router::{PartitionMap, ShardInfo};
use cfs_tafdb::{TafDbClient, TafShard, TimeService, TsClient};
use cfs_types::record::{FieldAssign, LwwField, NumField};
use cfs_types::{FileType, FsError, InodeId, Key, NodeId, Record, ShardId, Timestamp};

fn main() {
    let scale = bench_scale();
    let client_points: Vec<usize> = [1, 2, 4, 8].iter().map(|c| c * scale).collect();
    let contentions = [0.0, 0.5, 1.0];
    banner(
        "Figure 4",
        "HopsFS create: throughput vs clients at 0/50/100% contention + latency breakdown",
        &format!("3 shards x3 replicas, clients={client_points:?}"),
    );
    expectation(&[
        "no contention: near-linear scaling with clients",
        "50%/100% contention: curve flattens (lock serialization on the shared parent)",
        "lock share of request time: ~53% at 0%, ~83% at 50%, ~94% at 100% contention",
    ]);

    println!("(a) throughput [ops/s]");
    print!("{:>12}", "contention");
    for c in &client_points {
        print!(" {:>10}", format!("{c} cli"));
    }
    println!();
    for &cont in &contentions {
        let system = SystemUnderTest::baseline(Variant::HopsFs, 3, 2);
        print!("{:>11}%", (cont * 100.0) as u32);
        for &clients in &client_points {
            let opts = WorkloadOptions {
                clients,
                duration: cell_duration(),
                contention: cont,
                files_per_client: 0,
                ..Default::default()
            };
            prepare_op_workload(&system.client(), MetaOp::Create, &opts).expect("prepare");
            let r = run_op_bench(|_| system.client(), MetaOp::Create, &opts);
            print!(" {:>10}", fmt_ops(r.throughput()));
        }
        println!();
    }

    // ---- (b) phase breakdown: raw Figure 2/3 transaction ------------------
    println!();
    println!("(b) create latency breakdown (Figure 3 phases, highest client count)");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "contention", "avg latency", "lock(2)", "execute(3-5)", "others", "lock share"
    );
    let clients = *client_points.last().unwrap();
    for &cont in &contentions {
        // A bare shard tier (no proxies needed — the phases are driven
        // directly, which is exactly what a namenode coordinator does).
        let config = bench_cfs_config(3, 1);
        let net = cfs_rpc::Network::new(config.net.clone());
        let shard_infos: Vec<ShardInfo> = (0..3u32)
            .map(|s| ShardInfo {
                id: ShardId(s),
                replicas: (0..3).map(|r| NodeId(500 + s * 3 + r)).collect(),
            })
            .collect();
        let pmap = Arc::new(PartitionMap::new(shard_infos.clone()));
        let ts_svc = TimeService::new(Arc::clone(&pmap));
        ts_svc.register(&net, NodeId(499));
        let groups: Vec<ReplicaSet<TafShard>> = shard_infos
            .iter()
            .map(|info| ReplicaSet::spawn(&net, &info.replicas, config.raft.clone()))
            .collect();
        for g in &groups {
            g.wait_ready(Duration::from_secs(30)).expect("ready");
        }
        // Seed parent directories: one shared + one per client, as inline
        // rows (HopsFS schema puts counters in the parent's row; the
        // `/_ATTR` record is its stand-in here).
        let seed = TafDbClient::new(Arc::clone(&net), NodeId(498), Arc::clone(&pmap));
        let shared_parent = InodeId(1000);
        seed.put(
            Key::attr(shared_parent),
            Record::dir_attr_record(0, Timestamp(1)),
        )
        .expect("seed shared");
        for c in 0..clients {
            seed.put(
                Key::attr(InodeId(2000 + c as u64)),
                Record::dir_attr_record(0, Timestamp(1)),
            )
            .expect("seed private");
        }

        let lock_ns = Arc::new(AtomicU64::new(0));
        let exec_ns = Arc::new(AtomicU64::new(0));
        let other_ns = Arc::new(AtomicU64::new(0));
        let r = run_clients(clients, Some(cell_duration()), None, |c| {
            let taf = TafDbClient::new(Arc::clone(&net), NodeId(600 + c as u32), Arc::clone(&pmap));
            let ts = TsClient::new(Arc::clone(&net), NodeId(600 + c as u32), NodeId(499), 1, 64);
            let lock_ns = Arc::clone(&lock_ns);
            let exec_ns = Arc::clone(&exec_ns);
            let other_ns = Arc::clone(&other_ns);
            let mut n = 0u64;
            move |i| -> Result<bool, FsError> {
                let parent = if (i as f64 / 100.0).fract() < cont {
                    shared_parent
                } else {
                    InodeId(2000 + c as u64)
                };
                let shard = taf.partition_map().shard_for(parent);
                n += 1;
                // "Others": routing, timestamp, id allocation.
                let t0 = Instant::now();
                let now = ts.timestamp()?;
                let ino = ts.alloc_id()?;
                let txn = (c as u64) << 32 | n;
                other_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                // Step ②: read + write-lock the parent directory row.
                let t1 = Instant::now();
                let pkey = Key::attr(parent);
                let parent_row = match taf.txn_request(
                    shard,
                    &TxnRequest::LockAndRead {
                        txn,
                        key: pkey.clone(),
                    },
                )? {
                    TxnResponse::Locked(Some(r)) => r,
                    TxnResponse::Locked(None) => return Err(FsError::NotFound),
                    TxnResponse::Err(e) => return Err(e),
                    _ => return Err(FsError::Corrupted("bad resp".into())),
                };
                lock_ns.fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
                // Steps ③–⑤: insert child row, update parent, commit+release.
                let t2 = Instant::now();
                let mut updated = parent_row;
                updated.apply(&FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                });
                updated.apply(&FieldAssign::Set {
                    field: LwwField::Mtime,
                    value: now.raw(),
                    ts: now,
                });
                let writes = vec![
                    (
                        Key::entry(parent, format!("f-{c}-{n}")),
                        Some(Record::id_record(ino, FileType::File)),
                    ),
                    (pkey, Some(updated)),
                ];
                match taf.txn_request(shard, &TxnRequest::Commit { txn, writes })? {
                    TxnResponse::Ok => {}
                    TxnResponse::Err(e) => return Err(e),
                    _ => return Err(FsError::Corrupted("bad resp".into())),
                }
                exec_ns.fetch_add(t2.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(true)
            }
        });
        for g in &groups {
            g.shutdown();
        }
        net.unregister_all();
        let ops = r.ops.max(1);
        let lock = lock_ns.load(Ordering::Relaxed) / ops;
        let exec = exec_ns.load(Ordering::Relaxed) / ops;
        let other = other_ns.load(Ordering::Relaxed) / ops;
        let total = (lock + exec + other).max(1);
        println!(
            "{:>11}% {:>12} {:>12} {:>12} {:>12} {:>9.1}%",
            (cont * 100.0) as u32,
            fmt_ns(r.latency.mean_ns),
            fmt_ns(lock),
            fmt_ns(exec),
            fmt_ns(other),
            lock as f64 / total as f64 * 100.0,
        );
    }
}
