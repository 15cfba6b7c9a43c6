//! Figure 9 — overall performance: peak throughput under high load and
//! average latency under light load of seven metadata requests, for
//! HopsFS-like / InfiniFS-like / CFS.

use std::time::Duration;

use cfs_baselines::Variant;
use cfs_bench::{
    banner, cell_duration, default_clients, expectation, speedup, write_bench_json, Json,
    SystemUnderTest,
};
use cfs_harness::metrics::{fmt_ns, fmt_ops};
use cfs_harness::workload::{prepare_op_workload, run_op_bench, MetaOp, WorkloadOptions};

fn main() {
    let clients = default_clients();
    banner(
        "Figure 9",
        "peak throughput (high load) and average latency (light load), 7 metadata ops",
        &format!("clients={clients}, 4 TafDB shards x3, 4 FileStore nodes x3"),
    );
    expectation(&[
        "CFS beats HopsFS by 1.76-75.82x and InfiniFS by 1.22-4.10x in peak throughput",
        "create/unlink: CFS ~22-23% over InfiniFS; HopsFS far behind (distributed txns)",
        "mkdir/rmdir: CFS wins big over HopsFS (no 2PC), 1.34-1.47x over InfiniFS",
        "getattr/setattr: CFS wins via FileStore offload; lookup comparable to InfiniFS",
        "latency: CFS <= InfiniFS everywhere except create (+1 FileStore RPC)",
    ]);

    let systems = [
        SystemUnderTest::baseline(Variant::HopsFs, 4, 4),
        SystemUnderTest::baseline(Variant::InfiniFs, 4, 4),
        SystemUnderTest::cfs(4, 4),
    ];

    let mut tput = vec![vec![0.0f64; systems.len()]; MetaOp::FIG9.len()];
    let mut lat = vec![vec![0u64; systems.len()]; MetaOp::FIG9.len()];

    for (si, system) in systems.iter().enumerate() {
        eprintln!("  [{}] measuring...", system.name());
        for (oi, &op) in MetaOp::FIG9.iter().enumerate() {
            // Peak throughput: all clients.
            let opts = WorkloadOptions {
                clients,
                duration: cell_duration(),
                files_per_client: 400,
                ..Default::default()
            };
            prepare_op_workload(&system.client(), op, &opts).expect("prepare");
            let r = run_op_bench(|_| system.client(), op, &opts);
            tput[oi][si] = r.throughput();
            // Light-load latency: a single client.
            let opts1 = WorkloadOptions {
                clients: 1,
                duration: Duration::from_millis(400),
                files_per_client: 200,
                seed: 7,
                ..Default::default()
            };
            let r1 = run_op_bench(|_| system.client(), op, &opts1);
            lat[oi][si] = r1.latency.mean_ns;
        }
    }

    println!("(a) peak throughput [ops/s]");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>14} {:>14}",
        "op", "HopsFS", "InfiniFS", "CFS", "CFS/HopsFS", "CFS/InfiniFS"
    );
    for (oi, &op) in MetaOp::FIG9.iter().enumerate() {
        println!(
            "{:>8} | {:>10} {:>10} {:>10} | {:>14} {:>14}",
            op.name(),
            fmt_ops(tput[oi][0]),
            fmt_ops(tput[oi][1]),
            fmt_ops(tput[oi][2]),
            speedup(tput[oi][2], tput[oi][0]),
            speedup(tput[oi][2], tput[oi][1]),
        );
    }
    println!();
    println!("(b) average latency under light load");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>18}",
        "op", "HopsFS", "InfiniFS", "CFS", "CFS vs InfiniFS"
    );
    for (oi, &op) in MetaOp::FIG9.iter().enumerate() {
        let delta = if lat[oi][1] > 0 {
            format!(
                "{:+.1}%",
                (lat[oi][2] as f64 - lat[oi][1] as f64) / lat[oi][1] as f64 * 100.0
            )
        } else {
            "n/a".into()
        };
        println!(
            "{:>8} | {:>10} {:>10} {:>10} | {:>18}",
            op.name(),
            fmt_ns(lat[oi][0]),
            fmt_ns(lat[oi][1]),
            fmt_ns(lat[oi][2]),
            delta,
        );
    }

    let names: Vec<String> = systems.iter().map(|s| s.name()).collect();
    let rows: Vec<Json> = MetaOp::FIG9
        .iter()
        .enumerate()
        .map(|(oi, &op)| {
            let per_system = |vals: &dyn Fn(usize) -> Json| {
                Json::Obj(
                    names
                        .iter()
                        .enumerate()
                        .map(|(si, n)| (n.clone(), vals(si)))
                        .collect(),
                )
            };
            Json::obj(vec![
                ("op", Json::Str(op.name().to_string())),
                (
                    "peak_throughput_ops_s",
                    per_system(&|si| Json::Num(tput[oi][si])),
                ),
                (
                    "light_load_mean_ns",
                    per_system(&|si| Json::Int(lat[oi][si])),
                ),
            ])
        })
        .collect();
    write_bench_json(
        "fig09_overall",
        &Json::obj(vec![
            ("figure", Json::Str("fig09_overall".to_string())),
            (
                "op_mix",
                Json::Str("each of the 7 Figure-9 metadata ops in isolation".to_string()),
            ),
            ("clients", Json::Int(clients as u64)),
            ("ops", Json::Arr(rows)),
        ]),
    );
}
