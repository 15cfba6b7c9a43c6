//! Figure 13 — ablation: the impact of CFS' individual optimizations.
//!
//! CFS-base (all metadata range-partitioned in TafDB, locking engine,
//! proxies) → +new-org (file attributes offloaded to FileStore) →
//! +primitives (single-shard atomic primitives) → +no-proxy (client-side
//! metadata resolving) — compared against InfiniFS, for create / mkdir /
//! getattr at 10% contention.
//!
//! Paper (6 servers, 100 clients): +new-org gives getattr a 3.19× speedup
//! but leaves mkdir/create unchanged; +primitives lifts create and mkdir
//! (mkdir 2.70× over InfiniFS); +no-proxy shortens latency ~20–32% on all
//! three; stacked: 4.31–5.64× over CFS-base.

use cfs_baselines::Variant;
use cfs_bench::{banner, cell_duration, default_clients, expectation, SystemUnderTest};
use cfs_harness::metrics::{fmt_ns, fmt_ops};
use cfs_harness::workload::{prepare_op_workload, run_op_bench, MetaOp, WorkloadOptions};

fn main() {
    let clients = default_clients();
    banner(
        "Figure 13",
        "ablation: CFS-base / +new-org / +primitives / +no-proxy vs InfiniFS",
        &format!("clients={clients}, contention=10%, 3 shards x3"),
    );
    expectation(&[
        "+new-org: getattr jumps (parallel FileStore serving); create/mkdir unchanged",
        "+primitives: create/mkdir jump (no locks, no 2PC); getattr unchanged",
        "+no-proxy: all ops shed one round trip (~20-32% latency)",
        "stacked: 4.31-5.64x throughput over CFS-base",
    ]);

    let variants = [
        Variant::InfiniFs,
        Variant::CfsBase,
        Variant::NewOrg,
        Variant::Primitives,
        Variant::NoProxy,
    ];
    let ops = [MetaOp::Create, MetaOp::Mkdir, MetaOp::Getattr];

    let mut tput = vec![vec![0.0f64; variants.len()]; ops.len()];
    let mut lat = vec![vec![0u64; variants.len()]; ops.len()];

    for (vi, &variant) in variants.iter().enumerate() {
        let system = SystemUnderTest::baseline(variant, 3, 3);
        eprintln!("  [{}] measuring...", system.name());
        for (oi, &op) in ops.iter().enumerate() {
            let opts = WorkloadOptions {
                clients,
                duration: cell_duration(),
                contention: 0.1,
                files_per_client: 200,
                ..Default::default()
            };
            prepare_op_workload(&system.client(), op, &opts).expect("prepare");
            let r = run_op_bench(|_| system.client(), op, &opts);
            tput[oi][vi] = r.throughput();
            lat[oi][vi] = r.latency.mean_ns;
        }
    }

    for (metric, unit) in [("throughput", "ops/s"), ("avg latency", "")] {
        println!("--- {metric} ---");
        print!("{:>8}", "op");
        for &v in &variants {
            print!(" {:>12}", format!("{v:?}"));
        }
        println!(" {:>18}", "norm. to CFS-base");
        for (oi, &op) in ops.iter().enumerate() {
            print!("{:>8}", op.name());
            for vi in 0..variants.len() {
                if metric == "throughput" {
                    print!(" {:>12}", fmt_ops(tput[oi][vi]));
                } else {
                    print!(" {:>12}", fmt_ns(lat[oi][vi]));
                }
            }
            // Normalized stacked improvement: final variant vs CFS-base.
            let base_i = 1; // CfsBase column
            let last_i = variants.len() - 1;
            let norm = if metric == "throughput" {
                if tput[oi][base_i] > 0.0 {
                    format!("{:.2}x", tput[oi][last_i] / tput[oi][base_i])
                } else {
                    "n/a".into()
                }
            } else if lat[oi][base_i] > 0 {
                format!(
                    "{:+.1}%",
                    (lat[oi][last_i] as f64 - lat[oi][base_i] as f64) / lat[oi][base_i] as f64
                        * 100.0
                )
            } else {
                "n/a".into()
            };
            println!(" {norm:>18}");
        }
        println!();
        let _ = unit;
    }
}
