//! Cross-tenant interference — QoS fair-share admission protecting a victim.
//!
//! Not a paper figure: CFS §2 motivates the metadata service with multi-
//! tenant clusters, and this bench drives the `cfs-volume` QoS story end to
//! end. Two tenants mount separate volumes whose id bands land on the same
//! TafDB shard (the worst case: a shared Raft group). The *victim* issues a
//! light, paced create workload and we track its latency distribution; the
//! *noisy* tenant hammers the same shard with tight-loop creates. Three
//! arms:
//!
//! 1. `baseline` — the victim runs alone: the isolated reference p99.
//! 2. `qos_off`  — the noisy tenant runs alongside with no admission
//!    control: the victim queues behind the flood and its p99 collapses.
//! 3. `qos_on`   — same interference, but every client passes the
//!    per-tenant token buckets: the noisy tenant's excess demand is
//!    throttled at admission (before any RPC) and the victim's p99 stays
//!    within 2x of the isolated baseline.
//!
//! Per-tenant op/throttle/reject counters and quota usage are pulled from
//! the cfs-obs registries and written into `BENCH_fig_tenants.json`.
//!
//! Knobs: `CFS_BENCH_SCALE` (client multiplier).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_bench::{banner, bench_cfs_config, cell_duration, expectation, write_bench_json, Json};
use cfs_core::{CfsClient, CfsCluster, FileSystem};
use cfs_harness::bench_scale;
use cfs_harness::metrics::{fmt_ns, Summary};
use cfs_volume::QosConfig;

/// Victim clients: few, paced — the tenant QoS exists to protect.
fn victim_clients() -> usize {
    4 * bench_scale()
}

/// Noisy clients: enough tight loops to saturate the shared shard.
fn noisy_clients() -> usize {
    12 * bench_scale()
}

/// The victim's think time between ops (~200 ops/s per client).
const VICTIM_PACE: Duration = Duration::from_millis(5);

/// The noisy tenant's share under QoS: far below its demand, so admission
/// (not the shard) absorbs the flood.
const NOISY_SHARE: QosConfig = QosConfig {
    ops_per_sec: 150.0,
    burst: 15.0,
    max_wait: Duration::from_millis(50),
};

struct ArmResult {
    victim_lat: Summary,
    victim_ops: u64,
    noisy_ops: u64,
    noisy_errors: u64,
    /// Per-tenant cfs-obs counter deltas for this arm, keyed by
    /// metric suffix, per volume: (victim, noisy).
    qos_counters: Vec<(&'static str, u64, u64)>,
    /// `(inodes, bytes)` usage per tenant read back from the quota records.
    usage: Vec<(i64, i64)>,
}

/// One tenant counter of the cluster's shared limiter, which records into
/// the registry of the thread that booted the cluster: this one.
fn tenant_counter(vol: u16, suffix: &str) -> u64 {
    cfs_obs::metrics::local()
        .counter(&format!("tenant.vol{vol}.{suffix}"))
        .get()
}

fn run_arm(with_noisy: bool, qos_on: bool) -> ArmResult {
    let cluster = Arc::new(CfsCluster::start(bench_cfs_config(2, 2)).expect("boot cfs"));
    let registry = cluster.volumes();
    let victim = registry
        .create("victim", Some(1_000_000), None)
        .expect("create victim volume")
        .id;
    let noisy = registry
        .create("noisy", Some(1_000_000), None)
        .expect("create noisy volume")
        .id;
    if qos_on {
        cluster.qos().set_rate(noisy, NOISY_SHARE);
    }
    let mk_client = |vol| {
        if qos_on {
            cluster.client_for_volume(vol)
        } else {
            cluster.client_for_volume_unlimited(vol)
        }
    };

    // Per-thread working directories, created before measurement starts.
    let setup_v = cluster.client_for_volume_unlimited(victim);
    let setup_n = cluster.client_for_volume_unlimited(noisy);
    for t in 0..victim_clients() {
        setup_v.mkdir(&format!("/c{t}")).expect("victim dir");
    }
    for t in 0..noisy_clients() {
        setup_n.mkdir(&format!("/c{t}")).expect("noisy dir");
    }

    let victim_handles: Vec<CfsClient> = (0..victim_clients()).map(|_| mk_client(victim)).collect();
    let noisy_handles: Vec<CfsClient> = (0..noisy_clients()).map(|_| mk_client(noisy)).collect();
    let before: Vec<(&'static str, u64, u64)> = ["ops", "throttle_waits", "rejects"]
        .into_iter()
        .map(|s| (s, tenant_counter(victim.0, s), tenant_counter(noisy.0, s)))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let noisy_ops = Arc::new(AtomicU64::new(0));
    let noisy_errors = Arc::new(AtomicU64::new(0));
    let deadline = cell_duration();
    let (victim_lat, victim_ops) = std::thread::scope(|scope| {
        if with_noisy {
            for (t, c) in noisy_handles.iter().enumerate() {
                let stop = Arc::clone(&stop);
                let ops = Arc::clone(&noisy_ops);
                let errs = Arc::clone(&noisy_errors);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match c.create(&format!("/c{t}/n{i}")) {
                            Ok(_) => {
                                ops.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errs.fetch_add(1, Ordering::Relaxed);
                                // A throttled tenant backs off instead of
                                // spinning on the limiter.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        i += 1;
                    }
                });
            }
        }

        let victims: Vec<_> = victim_handles
            .iter()
            .enumerate()
            .map(|(t, c)| {
                scope.spawn(move || {
                    let mut lat: Vec<u64> = Vec::new();
                    let start = Instant::now();
                    let mut i = 0u64;
                    while start.elapsed() < deadline {
                        let t0 = Instant::now();
                        if c.create(&format!("/c{t}/v{i}")).is_ok() {
                            lat.push(t0.elapsed().as_nanos() as u64);
                        }
                        i += 1;
                        std::thread::sleep(VICTIM_PACE);
                    }
                    lat
                })
            })
            .collect();
        let mut lat: Vec<u64> = Vec::new();
        for v in victims {
            lat.extend(v.join().expect("victim thread"));
        }
        stop.store(true, Ordering::Relaxed);
        (Summary::from_samples(&mut lat), lat.len() as u64)
    });

    let qos_counters = before
        .into_iter()
        .map(|(s, v0, n0)| {
            (
                s,
                tenant_counter(victim.0, s) - v0,
                tenant_counter(noisy.0, s) - n0,
            )
        })
        .collect();
    let usage = vec![
        registry.usage(victim).expect("victim usage"),
        registry.usage(noisy).expect("noisy usage"),
    ];

    ArmResult {
        victim_lat,
        victim_ops,
        noisy_ops: noisy_ops.load(Ordering::Relaxed),
        noisy_errors: noisy_errors.load(Ordering::Relaxed),
        qos_counters,
        usage,
    }
}

fn arm_json(r: &ArmResult) -> Json {
    let s = r.victim_lat;
    let counters = |idx: usize| {
        Json::obj(
            r.qos_counters
                .iter()
                .map(|(suffix, v, n)| (*suffix, Json::Int(if idx == 0 { *v } else { *n })))
                .collect(),
        )
    };
    Json::obj(vec![
        (
            "victim",
            Json::obj(vec![
                ("ops", Json::Int(r.victim_ops)),
                ("p50_ns", Json::Int(s.p50_ns)),
                ("p99_ns", Json::Int(s.p99_ns)),
                ("p999_ns", Json::Int(s.p999_ns)),
                ("mean_ns", Json::Int(s.mean_ns)),
                ("qos", counters(0)),
                ("quota_inodes", Json::Int(r.usage[0].0.max(0) as u64)),
                ("quota_bytes", Json::Int(r.usage[0].1.max(0) as u64)),
            ]),
        ),
        (
            "noisy",
            Json::obj(vec![
                ("ops", Json::Int(r.noisy_ops)),
                ("errors", Json::Int(r.noisy_errors)),
                ("qos", counters(1)),
                ("quota_inodes", Json::Int(r.usage[1].0.max(0) as u64)),
                ("quota_bytes", Json::Int(r.usage[1].1.max(0) as u64)),
            ]),
        ),
    ])
}

fn main() {
    banner(
        "Tenants",
        "cross-tenant interference with and without QoS fair-share admission",
        &format!(
            "victim={} paced clients, noisy={} tight loops, noisy share={} ops/s",
            victim_clients(),
            noisy_clients(),
            NOISY_SHARE.ops_per_sec,
        ),
    );
    expectation(&[
        "baseline: the victim alone sets the isolated p99",
        "qos off: the noisy flood queues ahead of the victim and p99 collapses",
        "qos on: noisy excess is throttled at admission; victim p99 within 2x of baseline",
    ]);

    let baseline = run_arm(false, true);
    let qos_off = run_arm(true, false);
    let qos_on = run_arm(true, true);

    let base_p99 = baseline.victim_lat.p99_ns;
    let off_p99 = qos_off.victim_lat.p99_ns;
    let on_p99 = qos_on.victim_lat.p99_ns;
    let ratio = |p: u64| p as f64 / base_p99.max(1) as f64;

    println!(
        "{:>14} {:>14} {:>14} {:>14} {:>12}",
        "arm", "victim p50", "victim p99", "victim ops", "noisy ops"
    );
    for (name, r) in [
        ("baseline", &baseline),
        ("qos-off", &qos_off),
        ("qos-on", &qos_on),
    ] {
        println!(
            "{:>14} {:>14} {:>14} {:>14} {:>12}",
            name,
            fmt_ns(r.victim_lat.p50_ns),
            fmt_ns(r.victim_lat.p99_ns),
            r.victim_ops,
            r.noisy_ops,
        );
    }
    println!();
    println!(
        "  victim p99 vs isolated baseline: qos-off {:.2}x, qos-on {:.2}x (target <= 2x)",
        ratio(off_p99),
        ratio(on_p99),
    );
    println!(
        "  noisy under qos-on: {} admitted, {} throttle waits, {} rejects",
        qos_on.qos_counters[0].2, qos_on.qos_counters[1].2, qos_on.qos_counters[2].2,
    );

    write_bench_json(
        "fig_tenants",
        &Json::obj(vec![
            ("figure", Json::Str("fig_tenants".to_string())),
            (
                "op_mix",
                Json::Str(
                    "paced victim creates vs tight-loop noisy creates, shared shard".to_string(),
                ),
            ),
            ("victim_clients", Json::Int(victim_clients() as u64)),
            ("noisy_clients", Json::Int(noisy_clients() as u64)),
            ("noisy_share_ops_s", Json::Num(NOISY_SHARE.ops_per_sec)),
            ("baseline", arm_json(&baseline)),
            ("qos_off", arm_json(&qos_off)),
            ("qos_on", arm_json(&qos_on)),
            (
                "victim_p99_ratio_vs_baseline",
                Json::obj(vec![
                    ("qos_off", Json::Num(ratio(off_p99))),
                    ("qos_on", Json::Num(ratio(on_p99))),
                ]),
            ),
            (
                "qos_on_within_2x",
                Json::Str(if ratio(on_p99) <= 2.0 { "yes" } else { "no" }.to_string()),
            ),
        ]),
    );
}
