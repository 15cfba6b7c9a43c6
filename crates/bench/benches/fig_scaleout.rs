//! Scale-out — online 4→8-shard split under sustained contended creates.
//!
//! Not a paper figure: CFS §4.1 range-partitions the `inode_table` so the
//! deployment can add shards, and this bench drives the elastic half of that
//! claim end to end. A 4-shard deployment runs the Figure 11 contended
//! create mix, then every shard is split online — fresh Raft groups spawned,
//! ranges live-migrated, map epoch bumped — while the same mix keeps
//! running, and the mix runs once more on the resulting 8 shards.
//!
//! Knobs: `CFS_SCALEOUT_MS` (during-split measurement window, default
//! 1500ms), plus the usual `CFS_BENCH_SCALE`.

use std::sync::Arc;
use std::time::Duration;

use cfs_bench::{
    banner, bench_cfs_config, cell_duration, default_clients, expectation, speedup,
    write_bench_json, Json, ServiceTime,
};
use cfs_core::CfsCluster;
use cfs_harness::metrics::{fmt_ns, fmt_ops, Summary};
use cfs_harness::workload::{prepare_op_workload, run_op_bench, MetaOp, WorkloadOptions};
use cfs_types::ShardId;

/// Simulated storage service time per client request to a shard replica
/// (see [`ServiceTime`]). On a real deployment the storage engine bounds
/// per-shard capacity; the bench models that the way the network models
/// hops, so splitting a shard genuinely doubles the capacity behind a range
/// even when the host has fewer cores than shards. It has to be long enough
/// that the gates, not the host's cores, are the limit: at 400 µs a two-core
/// box saturates its CPUs near 8 K ops/s and post-split no longer beats
/// pre-split reliably.
const SERVICE_TIME: Duration = Duration::from_micros(1500);

fn main() {
    let clients = default_clients() * 2;
    let during_ms: u64 = std::env::var("CFS_SCALEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    banner(
        "Scale-out",
        "online 4->8 shard split under contended create load",
        &format!(
            "clients={clients}, 4 shards x3 -> 8 shards x3, service-time={}us, during-window={during_ms}ms",
            SERVICE_TIME.as_micros()
        ),
    );
    expectation(&[
        "pre-split: 4 shards bound the uncontended half of the mix",
        "during: service continues; only per-range freeze windows stall writers briefly",
        "post-split: 8 shards lift throughput above the pre-split cell",
    ]);

    let cluster = Arc::new(CfsCluster::start(bench_cfs_config(4, 4)).expect("boot cfs"));
    let mut service_time = ServiceTime::new(SERVICE_TIME);
    service_time.mount(&cluster.taf_groups());
    let opts = WorkloadOptions {
        clients,
        duration: cell_duration(),
        contention: 0.1,
        files_per_client: 0,
        ..Default::default()
    };
    prepare_op_workload(&cluster.client(), MetaOp::Create, &opts).expect("prepare");

    let pre = run_op_bench(|_| cluster.client(), MetaOp::Create, &opts).throughput();

    // Split all four boot shards while the same mix keeps running. The
    // cells share one cluster, so each needs its own seed: created names
    // embed the seed, and a repeated seed would collide with the previous
    // cell's files.
    let mut during_opts = opts.clone();
    during_opts.duration = Duration::from_millis(during_ms);
    during_opts.seed = opts.seed + 1;
    let (during, stats) = std::thread::scope(|scope| {
        let c = Arc::clone(&cluster);
        let splitter = scope.spawn(move || {
            let mut stats = Vec::new();
            for s in 0..4u32 {
                match c.split_shard(ShardId(s)) {
                    Ok(st) => stats.push(st),
                    Err(e) => eprintln!("  split of shard {s} failed: {e:?}"),
                }
                service_time.mount(&c.taf_groups());
            }
            stats
        });
        let during = run_op_bench(|_| cluster.client(), MetaOp::Create, &during_opts).throughput();
        (during, splitter.join().expect("splitter thread"))
    });
    assert_eq!(
        cluster.taf_groups().len(),
        8,
        "all four splits must complete under load"
    );

    let mut post_opts = opts.clone();
    post_opts.seed = opts.seed + 2;
    let post = run_op_bench(|_| cluster.client(), MetaOp::Create, &post_opts).throughput();

    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "pre-split", "during", "post-split", "post/pre"
    );
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        fmt_ops(pre),
        fmt_ops(during),
        fmt_ops(post),
        speedup(post, pre),
    );
    println!();

    // Migration counters: every replica of a group counts the replicated
    // migration commands, so read one replica's — the leader has applied
    // them all — and sum over groups. This process booted one cluster, so
    // the registries hold nothing else.
    let (mut donated, mut received, mut streamed) = (0u64, 0u64, 0u64);
    for g in cluster.taf_groups() {
        let leader = g.raft().leader().expect("group has a leader").id();
        let reg = cfs_obs::metrics::node(leader.0 as u64);
        donated += reg.counter("shard_ranges_donated").get();
        received += reg.counter("shard_ranges_received").get();
        streamed += reg.counter("shard_keys_streamed").get();
    }
    let mut freeze: Vec<u64> = stats.iter().map(|st| st.freeze.as_nanos() as u64).collect();
    let tail: u64 = stats.iter().map(|st| st.tail_len).sum();
    let f = Summary::from_samples(&mut freeze);
    println!("  migration: ranges donated={donated} received={received}");
    println!("  streamed {streamed} kv entries in export pages, {tail} via freeze tails");
    println!(
        "  freeze window: p50={} p99={} max={} ({} splits)",
        fmt_ns(f.p50_ns),
        fmt_ns(f.p99_ns),
        fmt_ns(f.max_ns),
        f.count,
    );

    write_bench_json(
        "fig_scaleout",
        &Json::obj(vec![
            ("figure", Json::Str("fig_scaleout".to_string())),
            (
                "op_mix",
                Json::Str(
                    "contended creates (contention=0.1) across an online 4->8 split".to_string(),
                ),
            ),
            ("clients", Json::Int(clients as u64)),
            (
                "throughput_ops_s",
                Json::obj(vec![
                    ("pre_split", Json::Num(pre)),
                    ("during_split", Json::Num(during)),
                    ("post_split", Json::Num(post)),
                    ("post_over_pre", Json::Num(post / pre.max(1e-9))),
                ]),
            ),
            (
                "migration",
                Json::obj(vec![
                    ("ranges_donated", Json::Int(donated)),
                    ("ranges_received", Json::Int(received)),
                    ("keys_streamed", Json::Int(streamed)),
                    ("freeze_tail_entries", Json::Int(tail)),
                    ("freeze_p50_ns", Json::Int(f.p50_ns)),
                    ("freeze_p99_ns", Json::Int(f.p99_ns)),
                    ("freeze_max_ns", Json::Int(f.max_ns)),
                    ("splits", Json::Int(f.count)),
                ]),
            ),
        ]),
    );
}
