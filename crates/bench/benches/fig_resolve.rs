//! fig_resolve — the pruned read path: batched server-side `ResolvePrefix`
//! vs per-component lookups, the versioned dentry cache, and ReadIndex
//! follower reads.
//!
//! Two claims, both measured through the per-op-class [`cfs_rpc::NetStats`]
//! counters (`calls_app` is exactly the client↔shard application RPCs, so a
//! delta over a window divided by op count is hops/op):
//!
//! 1. A depth-8 resolve costs ~8 RPCs with the classic per-component walk,
//!    but at most one RPC *per contiguous shard run* with `ResolvePrefix`,
//!    and ~1 RPC once the dentry cache holds the directory chain.
//! 2. On a read-heavy hot directory, spreading reads across replicas with
//!    ReadIndex beats funneling everything through the leader.

use std::time::Duration;

use cfs_bench::{
    banner, bench_cfs_config, cell_duration, default_clients, expectation, json_result, speedup,
    write_bench_json, Json, ServiceTime,
};
use cfs_core::{CfsClient, CfsCluster, FileSystem, ReadConsistency};
use cfs_harness::metrics::fmt_ops;
use cfs_harness::workload::{prepare_op_workload, run_op_bench, MetaOp, WorkloadOptions};
use cfs_rpc::stats::NetSnapshot;
use cfs_types::{InodeId, Key, ROOT_INODE};

/// Path depth for the resolution cells (7 directories + 1 file).
const DEPTH: usize = 8;

/// Warm lookups averaged per cell.
const WARM_OPS: u64 = 100;

fn components() -> Vec<String> {
    let mut comps: Vec<String> = (1..DEPTH).map(|i| format!("d{i}")).collect();
    comps.push("leaf".to_string());
    comps
}

fn deep_path() -> String {
    format!("/{}", components().join("/"))
}

/// Builds the depth-8 chain with a throwaway client.
fn build_tree(fs: &CfsClient) {
    let comps = components();
    let mut prefix = String::new();
    for d in &comps[..comps.len() - 1] {
        prefix.push('/');
        prefix.push_str(d);
        fs.mkdir(&prefix).expect("mkdir chain");
    }
    fs.create(&deep_path()).expect("create leaf");
}

/// Forces every shard's leader hint to converge before a measurement, so
/// NotLeader retries don't pollute the `calls_app` deltas.
fn warm_leader_hints(fs: &CfsClient) {
    let pmap = fs.taf().partition_map().clone();
    for info in pmap.shards() {
        let (lo, _) = pmap.range_of(info.id);
        let _ = fs.taf().get(&Key::attr(InodeId(lo.max(1))));
    }
}

/// The classic client-side walk: one `get(entry)` RPC per component. Returns
/// the inode chain (parent of component i at index i) for shard-run math.
fn component_walk(fs: &CfsClient) -> Vec<InodeId> {
    let mut parents = Vec::new();
    let mut cur = ROOT_INODE;
    for comp in components() {
        parents.push(cur);
        let rec = fs
            .taf()
            .get(&Key::entry(cur, comp))
            .expect("entry get")
            .expect("entry exists");
        cur = rec.id.expect("entry has id");
    }
    parents
}

/// Number of contiguous same-shard runs along the chain — the RPC floor for
/// a cold batched resolve (`ResolvePrefix` returns a cursor at each shard
/// boundary).
fn shard_runs(fs: &CfsClient, parents: &[InodeId]) -> u64 {
    let pmap = fs.taf().partition_map();
    let mut runs = 0u64;
    let mut prev = None;
    for p in parents {
        let s = pmap.shard_for(*p);
        if prev != Some(s) {
            runs += 1;
            prev = Some(s);
        }
    }
    runs
}

fn app_calls(c: &CfsCluster) -> NetSnapshot {
    c.network().stats().snapshot()
}

/// One cluster's resolution cell: baseline walk, cold batched resolve, warm
/// cached resolve. Returns (baseline_rpcs, cold_rpcs, runs, warm_rpcs_per_op,
/// warm_bytes_per_op).
fn resolve_cell(shards: usize) -> (u64, u64, u64, f64, f64) {
    let cluster = CfsCluster::start(bench_cfs_config(shards, 2)).expect("boot");
    build_tree(&cluster.client());

    // Baseline: per-component gets on a fresh client.
    let fs = cluster.client();
    warm_leader_hints(&fs);
    let s0 = app_calls(&cluster);
    let parents = component_walk(&fs);
    let baseline = app_calls(&cluster).delta(&s0).calls_app;
    let runs = shard_runs(&fs, &parents);

    // Cold batched resolve: fresh client, empty dentry cache.
    let fs = cluster.client();
    warm_leader_hints(&fs);
    let s1 = app_calls(&cluster);
    fs.lookup(&deep_path()).expect("cold lookup");
    let cold = app_calls(&cluster).delta(&s1).calls_app;

    // Warm: the same client's cache now holds the directory chain; only the
    // file leaf (never cached) still costs an RPC.
    let s2 = app_calls(&cluster);
    for _ in 0..WARM_OPS {
        fs.lookup(&deep_path()).expect("warm lookup");
    }
    let warm_delta = app_calls(&cluster).delta(&s2);
    let warm = warm_delta.calls_app as f64 / WARM_OPS as f64;
    let warm_bytes = warm_delta.bytes as f64 / WARM_OPS as f64;

    (baseline, cold, runs, warm, warm_bytes)
}

/// Hot-directory read throughput under one consistency mode. The per-replica
/// service time saturates the leader under LeaderOnly; ReadIndex spreads the
/// same reads across all replicas.
fn hot_dir_cell(
    cluster: &CfsCluster,
    consistency: ReadConsistency,
    opts: &WorkloadOptions,
) -> (cfs_harness::runner::BenchResult, NetSnapshot) {
    let s0 = app_calls(cluster);
    let r = run_op_bench(
        |_| cluster.client_with_consistency(consistency),
        MetaOp::Lookup,
        opts,
    );
    (r, app_calls(cluster).delta(&s0))
}

fn main() {
    let clients = default_clients();
    banner(
        "fig_resolve",
        "pruned read path: batched resolution, dentry cache, ReadIndex follower reads",
        &format!("depth={DEPTH}, clients={clients}, service_time=120us"),
    );
    expectation(&[
        "per-component walk: ~8 RPCs for a depth-8 resolve",
        "cold ResolvePrefix: <= contiguous shard runs along the chain",
        "warm (dentry cache): ~1 RPC per resolve (uncached file leaf only)",
        "hot-directory reads: ReadIndex > LeaderOnly (leader is 1 of 3 read units)",
    ]);

    // (a) RPCs per depth-8 resolve.
    println!("(a) application RPCs per depth-{DEPTH} resolve (calls_app delta)");
    println!(
        "{:>8} | {:>14} {:>12} {:>12} {:>12}",
        "shards", "per-component", "cold batch", "shard runs", "warm"
    );
    let mut resolve_rows = Vec::new();
    for shards in [1usize, 4] {
        let (baseline, cold, runs, warm, warm_bytes) = resolve_cell(shards);
        println!("{shards:>8} | {baseline:>14} {cold:>12} {runs:>12} {warm:>12.2}",);
        assert!(
            baseline >= DEPTH as u64,
            "component walk must cost >= one RPC per component (got {baseline})"
        );
        assert!(
            cold <= runs,
            "cold batched resolve took {cold} RPCs, more than the {runs} shard runs"
        );
        assert!(
            warm <= 1.5,
            "warm resolve should be ~1 RPC/op with a hot dentry cache (got {warm:.2})"
        );
        resolve_rows.push(Json::obj(vec![
            ("shards", Json::Int(shards as u64)),
            ("depth", Json::Int(DEPTH as u64)),
            ("component_walk_rpcs", Json::Int(baseline)),
            ("cold_batched_rpcs", Json::Int(cold)),
            ("shard_runs", Json::Int(runs)),
            ("warm_rpcs_per_op", Json::Num(warm)),
            ("warm_net_bytes_per_op", Json::Num(warm_bytes)),
        ]));
    }
    println!();

    // (b) Hot-directory read throughput, LeaderOnly vs ReadIndex, on the
    // same cluster. A 120us per-replica service time models the
    // storage-engine read path; with LeaderOnly all of it lands on one
    // replica per shard.
    let cluster = CfsCluster::start(bench_cfs_config(2, 2)).expect("boot");
    let opts = WorkloadOptions {
        clients,
        duration: cell_duration(),
        contention: 1.0,
        files_per_client: 4,
        ..Default::default()
    };
    prepare_op_workload(&cluster.client(), MetaOp::Lookup, &opts).expect("prepare");
    ServiceTime::new(Duration::from_micros(120)).mount(&cluster.taf_groups());

    println!("(b) hot-directory lookup throughput (contention=1.0)");
    let (leader, leader_net) = hot_dir_cell(&cluster, ReadConsistency::LeaderOnly, &opts);
    println!("  LeaderOnly  {}", leader.line());
    let (rindex, rindex_net) = hot_dir_cell(&cluster, ReadConsistency::ReadIndex, &opts);
    println!("  ReadIndex   {}", rindex.line());
    println!(
        "  speedup {}  (hops/op {:.2} -> {:.2})",
        speedup(rindex.throughput(), leader.throughput()),
        leader_net.calls_app as f64 / leader.ops.max(1) as f64,
        rindex_net.calls_app as f64 / rindex.ops.max(1) as f64,
    );
    assert!(
        rindex.throughput() > 1.2 * leader.throughput(),
        "ReadIndex should beat LeaderOnly on a hot directory ({} vs {} ops/s)",
        fmt_ops(rindex.throughput()),
        fmt_ops(leader.throughput()),
    );

    let mode_json = |r: &cfs_harness::runner::BenchResult, net: &NetSnapshot| {
        let mut fields = json_result(r);
        fields.push((
            "hops_per_op".to_string(),
            Json::Num(net.calls_app as f64 / r.ops.max(1) as f64),
        ));
        fields.push(("net_bytes".to_string(), Json::Int(net.bytes)));
        Json::Obj(fields)
    };
    write_bench_json(
        "fig_resolve",
        &Json::obj(vec![
            ("figure", Json::Str("fig_resolve".to_string())),
            (
                "op_mix",
                Json::Str(format!(
                    "depth-{DEPTH} path resolve + 100% contended hot-directory lookup"
                )),
            ),
            ("resolve", Json::Arr(resolve_rows)),
            (
                "hot_dir",
                Json::obj(vec![
                    ("leader_only", mode_json(&leader, &leader_net)),
                    ("read_index", mode_json(&rindex, &rindex_net)),
                    (
                        "read_index_speedup",
                        Json::Num(rindex.throughput() / leader.throughput().max(1e-9)),
                    ),
                ]),
            ),
        ]),
    );
}
