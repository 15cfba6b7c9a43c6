//! §5.6 — rename test: 90% intra-directory file renames + 10% all other
//! rename types; throughput and P99/P999 tail latency.
//!
//! Paper (500 clients): CFS 151.3K renames/s — 252.68% over HopsFS (42.9K)
//! and 63.92% over InfiniFS (92.3K); CFS P99 = 20.75 ms (89.89% / 72.78%
//! shorter), P999 = 33.29 ms (79.00–91.56% shorter). CFS' win comes from the
//! fast-path `insert_and_delete_with_update` primitive; the baselines route
//! every rename through locks/coordinators.

use cfs_baselines::Variant;
use cfs_bench::{banner, default_clients, expectation, speedup, SystemUnderTest};
use cfs_core::FileSystem;
use cfs_harness::metrics::{fmt_ns, fmt_ops};
use cfs_harness::runner::run_clients;
use cfs_types::FsError;
use std::time::Duration;

fn main() {
    let clients = default_clients();
    banner(
        "Rename test (section 5.6)",
        "90% intra-directory file renames + 10% cross-directory renames",
        &format!("clients={clients}"),
    );
    expectation(&[
        "throughput: CFS > InfiniFS > HopsFS (fast-path primitive vs coordinator vs subtree locks)",
        "P99/P999: CFS shortest; HopsFS longest (subtree locking)",
    ]);

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "system", "renames/s", "p99", "p999", "vs CFS"
    );
    let mut rows = Vec::new();
    for variant in [Some(Variant::HopsFs), Some(Variant::InfiniFs), None] {
        let system = match variant {
            Some(v) => SystemUnderTest::baseline(v, 4, 4),
            None => SystemUnderTest::cfs(4, 4),
        };
        // Per-client private dir with files, plus a sibling dir for the 10%
        // cross-directory renames.
        let setup = system.client();
        setup.mkdir("/rn").expect("mkdir");
        for c in 0..clients {
            setup.mkdir(&format!("/rn/c{c}")).unwrap();
            setup.mkdir(&format!("/rn/x{c}")).unwrap();
            for i in 0..64 {
                setup.create(&format!("/rn/c{c}/f{i}")).unwrap();
            }
        }
        let r = run_clients(clients, Some(Duration::from_millis(1500)), None, |c| {
            let fs = system.client();
            let mut flip = [false; 64];
            let mut moved = 0u64;
            move |i| -> Result<bool, FsError> {
                if i % 10 == 9 {
                    // Normal path: move a file to the sibling dir and back.
                    moved += 1;
                    let src = format!("/rn/c{c}/f{}", (i as usize) % 64);
                    let dst = format!("/rn/x{c}/m{moved}");
                    fs.rename(&src, &dst)?;
                    fs.rename(&dst, &src)?;
                    Ok(true)
                } else {
                    // Fast path: intra-directory ping-pong rename.
                    let idx = (i as usize) % 64;
                    let (src, dst) = if flip[idx] {
                        (format!("/rn/c{c}/g{idx}"), format!("/rn/c{c}/f{idx}"))
                    } else {
                        (format!("/rn/c{c}/f{idx}"), format!("/rn/c{c}/g{idx}"))
                    };
                    flip[idx] = !flip[idx];
                    fs.rename(&src, &dst).map(|_| true)
                }
            }
        });
        let s = r.latency;
        rows.push((system.name(), r.throughput(), s.p99_ns, s.p999_ns));
    }
    let cfs_tput = rows.last().map(|r| r.1).unwrap_or(0.0);
    for (name, tput, p99, p999) in rows {
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12}",
            name,
            fmt_ops(tput),
            fmt_ns(p99),
            fmt_ns(p999),
            speedup(cfs_tput, tput),
        );
    }
}
