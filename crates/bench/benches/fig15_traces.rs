//! Figure 15 (+ Table 3) — end-to-end replay of the three production traces
//! with data access enabled: CFS vs InfiniFS.
//!
//! Paper: CFS gives 2.58× / 1.63× / 1.80× metadata-throughput speedups over
//! InfiniFS on tr-0/1/2, 1.62–2.55× end-to-end file-system speedups, and
//! 35.06–62.47% P999 reductions (tr-1 benefits most: it has the most
//! renames).

use cfs_baselines::Variant;
use cfs_bench::{banner, default_clients, expectation, speedup, SystemUnderTest};
use cfs_harness::bench_scale;
use cfs_harness::metrics::{fmt_ns, fmt_ops};
use cfs_harness::traces::{replay, Trace, TraceKind};

fn main() {
    let clients = default_clients();
    let ops_per_client = 1500 * bench_scale();
    banner(
        "Figure 15 + Table 3",
        "production trace replay with data access, CFS vs InfiniFS",
        &format!("clients={clients}, ops/client={ops_per_client}"),
    );
    expectation(&[
        "metadata throughput: CFS 2.58x / 1.63x / 1.80x over InfiniFS (tr-0/1/2)",
        "end-to-end fs ops: 1.62-2.55x speedups",
        "P999: 35-62% lower on CFS; tr-1 (renames) improves most",
    ]);

    for kind in [TraceKind::Tr0, TraceKind::Tr1, TraceKind::Tr2] {
        let trace = Trace::generate(kind, clients, ops_per_client, 16, 32, 32 << 10, 0xC0FFEE);
        // Print the trace's composition (Table 3).
        let mut counts: std::collections::HashMap<&'static str, usize> =
            std::collections::HashMap::new();
        for s in &trace.streams {
            for op in s {
                *counts
                    .entry(match op.kind() {
                        cfs_harness::traces::FsOpKind::Stat => "stat",
                        cfs_harness::traces::FsOpKind::Open => "open",
                        cfs_harness::traces::FsOpKind::OpenCreat => "open(O_CREAT)",
                        cfs_harness::traces::FsOpKind::Read => "read",
                        cfs_harness::traces::FsOpKind::Write => "write",
                        cfs_harness::traces::FsOpKind::Opendir => "opendir",
                        cfs_harness::traces::FsOpKind::Unlink => "unlink",
                        cfs_harness::traces::FsOpKind::Rename => "rename",
                        cfs_harness::traces::FsOpKind::Mkdir => "mkdir",
                        cfs_harness::traces::FsOpKind::Chmod => "chmod/chown",
                    })
                    .or_default() += 1;
            }
        }
        let total = trace.total_ops() as f64;
        let mut mix: Vec<(&str, f64)> = counts
            .into_iter()
            .map(|(k, v)| (k, v as f64 / total * 100.0))
            .collect();
        mix.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mix_str: Vec<String> = mix.iter().map(|(k, p)| format!("{p:.1}% {k}")).collect();
        println!(
            "--- {} --- composition: {}",
            kind.name(),
            mix_str.join(", ")
        );

        let mut rows = Vec::new();
        for variant in [Some(Variant::InfiniFs), None] {
            let system = match variant {
                Some(v) => SystemUnderTest::baseline(v, 4, 4),
                None => SystemUnderTest::cfs(4, 4),
            };
            trace.prepopulate(&system.client()).expect("prepopulate");
            let r = replay(&trace, |_| system.client());
            rows.push((
                system.name(),
                r.fsops.throughput(),
                r.metadata_throughput(),
                r.fsops.latency.p999_ns,
                r.fsops.errors,
            ));
        }
        println!(
            "{:>10} {:>12} {:>14} {:>12} {:>8}",
            "system", "fs ops/s", "metadata op/s", "p999", "errors"
        );
        for (name, fsops, meta, p999, errors) in &rows {
            println!(
                "{:>10} {:>12} {:>14} {:>12} {:>8}",
                name,
                fmt_ops(*fsops),
                fmt_ops(*meta),
                fmt_ns(*p999),
                errors,
            );
        }
        println!(
            "  CFS/InfiniFS: fs ops {}, metadata {}, p999 {:.1}% lower",
            speedup(rows[1].1, rows[0].1),
            speedup(rows[1].2, rows[0].2),
            (1.0 - rows[1].3 as f64 / rows[0].3.max(1) as f64) * 100.0,
        );
        println!();
    }
}
