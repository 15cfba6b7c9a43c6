//! Crash-soak smoke: one long-lived cluster hammered by every fault family
//! (kills, partitions, drop spikes, kill −9 restarts, fsync stalls,
//! disk-full, torn writes, snapshot-crash) round after round, with a
//! divergence-oracle checkpoint at each round boundary.
//!
//! `CFS_SOAK_SECS` scales the wall budget: the default smoke runs ~8 s (one
//! or two rounds), CI runs ~60 s, and `soak_long -- --ignored` with
//! `CFS_SOAK_SECS=14400` soaks for hours locally. `CFS_SIM_SEED` picks the
//! base seed; a failing round reports the divergence it tripped.

use std::time::Duration;

use cfs_harness::soak::{run_soak, SoakOptions};
use cfs_rpc::seed_from_env;

fn soak_with(duration: Duration) {
    let opts = SoakOptions {
        seed: seed_from_env().wrapping_add(0x50AC),
        duration,
        ..SoakOptions::default()
    };
    let report = run_soak(opts);
    assert!(
        report.rounds > 0,
        "soak budget of {duration:?} elapsed before a single round completed"
    );
    assert!(report.windows_injected > 0, "no fault windows injected");
    if let Some(d) = &report.divergence {
        panic!(
            "soak divergence in round {} (round seed {}), after {} window(s) and {} op(s): {d}\n\
             forensic dump (results, metrics, trace tree): {:?}\n\
             reproduce with: CFS_SIM_SEED={} cargo test --test soak",
            report.rounds - 1,
            report.round_seed,
            report.windows_injected,
            report.ops_issued,
            report.dump_path,
            seed_from_env()
        );
    }
}

/// The smoke: run rounds until `CFS_SOAK_SECS` (default 8, CI 60) elapses.
#[test]
fn soak_smoke_passes_oracle_checkpoints() {
    let secs = std::env::var("CFS_SOAK_SECS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(8);
    soak_with(Duration::from_secs(secs));
}

/// The hours-long local variant: `CFS_SOAK_SECS=14400 cargo test --test soak
/// soak_long -- --ignored --nocapture`.
#[test]
#[ignore = "long soak; run explicitly with CFS_SOAK_SECS set"]
fn soak_long() {
    let secs = std::env::var("CFS_SOAK_SECS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(3600);
    soak_with(Duration::from_secs(secs));
}
