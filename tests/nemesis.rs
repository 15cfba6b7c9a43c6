//! Seeded fault-injection sweep with the divergence oracle.
//!
//! Each seed fully determines a nemesis experiment (fault schedule, op
//! streams, and — via the seeded network — every drop/jitter decision). A
//! failing seed is printed in the panic message and reproduces with
//! `CFS_SIM_SEED=<seed> cargo test --test nemesis single_seed_from_env`.
//!
//! Knobs: `CFS_NEMESIS_SEEDS` (sweep width, default 20), `CFS_SIM_SEED`
//! (sweep base / single-seed target), `CFS_NEMESIS_OPS` (ops per thread).

use cfs_harness::nemesis::{
    canonical_log_for, run_nemesis, sweep_seeds, Fault, FaultFamily, NemesisOptions, NemesisReport,
    NemesisSchedule,
};
use cfs_rpc::seed_from_env;

fn check_seed_with(seed: u64, opts: NemesisOptions) -> NemesisReport {
    let report = run_nemesis(seed, opts);
    if let Some(d) = &report.divergence {
        let mut observed = String::new();
        for (t, res) in report.results.iter().enumerate() {
            for (i, r) in res.iter().enumerate() {
                observed.push_str(&format!("  t{t}#{i} {r:?}\n"));
            }
        }
        let dump = report
            .dump_path
            .as_ref()
            .map(|p| {
                format!(
                    "forensic dump (results, metrics, trace tree): {}\n",
                    p.display()
                )
            })
            .unwrap_or_default();
        panic!(
            "divergence at seed {seed}: {d}\n\
             reproduce with: CFS_SIM_SEED={seed} cargo test --test nemesis single_seed_from_env -- --ignored\n\
             {dump}canonical op history:\n{}observed results (wall-clock dependent):\n{observed}",
            report.canonical_log()
        );
    }
    report
}

/// One sweep: `CFS_NEMESIS_SEEDS` seeds (default 20) starting at the env
/// base plus the sweep's own `salt`, each a full boot → fault schedule →
/// oracle run under `opts`. `per_seed` sees every oracle-clean report; the
/// sweep's width is returned for the caller's end-of-sweep check.
fn sweep(salt: u64, opts: NemesisOptions, mut per_seed: impl FnMut(u64, &NemesisReport)) -> u64 {
    let seeds = sweep_seeds(salt);
    let count = seeds.end - seeds.start;
    for seed in seeds {
        per_seed(seed, &check_seed_with(seed, opts));
    }
    count
}

/// The CI sweep: the base fault die, default options.
#[test]
fn seed_sweep_passes_divergence_oracle() {
    sweep(0, NemesisOptions::default(), |_, _| {});
}

/// The scale-out sweep: each seed runs the full fault schedule with two
/// online shard splits racing the workload. Acknowledged writes must survive
/// the live migrations (zero oracle divergences), and across the sweep at
/// least one split must actually complete its cutover so the protocol —
/// not just its abort path — is exercised.
#[test]
fn split_nemesis_sweep_passes_divergence_oracle() {
    let opts = NemesisOptions {
        splits: 2,
        ..NemesisOptions::default()
    };
    let mut splits_ok = 0;
    let count = sweep(0x5117, opts, |_, report| splits_ok += report.splits_ok);
    assert!(
        splits_ok > 0,
        "no split completed across {count} seeds: the sweep never exercised a cutover"
    );
}

/// The read-path sweep: the full fault schedule with every client reading
/// through ReadIndex follower reads and the versioned dentry cache (batched
/// `ResolvePrefix` walks, negative entries and all). Follower reads are
/// linearizable and the cache revalidates against piggybacked directory
/// generations, so the oracle's judgment is identical to the leader-only
/// sweep: zero divergences allowed.
#[test]
fn read_index_nemesis_sweep_passes_divergence_oracle() {
    let opts = NemesisOptions {
        read_index: true,
        ..NemesisOptions::default()
    };
    sweep(0x8ead, opts, |_, _| {});
}

/// The crash-restart recovery sweep: the base fault family extended with
/// `restart` windows (a TafDB replica is kill −9'd and rebuilt from its
/// snapshot + log WAL) and `slow_fsync` windows (every TafDB log fsync
/// stalls). Acknowledged writes must survive replicas being reconstructed
/// from disk mid-workload — zero oracle divergences — and because snapshots
/// compact the log behind them, no TafDB or FileStore replica's post-run log
/// may have grown past the `test_small` snapshot threshold (48) plus one
/// inter-compaction stride.
#[test]
fn restart_nemesis_sweep_passes_divergence_oracle() {
    let opts = NemesisOptions {
        families: &[FaultFamily::Restart, FaultFamily::SlowFsync],
        ..NemesisOptions::default()
    };
    sweep(0x08e5_7a87, opts, |seed, report| {
        assert!(
            report.max_log_len < 96,
            "seed {seed}: a replica's raft log grew to {} entries — \
             compaction is not bounding the log",
            report.max_log_len
        );
    });
}

/// The storage-fault sweep: disk-full budgets starving a replica's log
/// volume (graceful ENOSPC degradation — retryable rejection, then clean
/// resumption), torn writes followed by kill −9 (recovery truncates the tear
/// and rejoins), and snapshot-crash windows (the leader dies mid-
/// `InstallSnapshot` toward a lagging follower). Zero oracle divergences
/// allowed, and across the sweep every one of the three families must
/// actually be drawn so none of them silently rides free.
#[test]
fn storage_nemesis_sweep_passes_divergence_oracle() {
    let opts = NemesisOptions {
        families: &[
            FaultFamily::DiskFull,
            FaultFamily::TornWrite,
            FaultFamily::SnapshotCrash,
        ],
        ..NemesisOptions::default()
    };
    let (mut disk, mut torn, mut snap) = (0, 0, 0);
    let count = sweep(0x0d15_f417, opts, |seed, _| {
        for w in NemesisSchedule::generate_with(seed, 2, 2, 3, &opts).windows {
            match w.fault {
                Fault::DiskFull(..) => disk += 1,
                Fault::TornWrite(..) => torn += 1,
                Fault::SnapshotCrash { .. } => snap += 1,
                _ => {}
            }
        }
    });
    assert!(
        disk > 0 && torn > 0 && snap > 0,
        "a storage fault family was never drawn across {count} seeds \
         (disk-full {disk}, torn-write {torn}, snapshot-crash {snap})"
    );
}

/// Reproduction entry point for a single failing seed: run with
/// `CFS_SIM_SEED=<n> cargo test --test nemesis single_seed_from_env -- --ignored`.
#[test]
#[ignore = "reproduction helper; run explicitly with CFS_SIM_SEED set"]
fn single_seed_from_env() {
    check_seed_with(seed_from_env(), NemesisOptions::default());
}

/// Two runs with the same seed must produce byte-identical canonical op
/// histories: every seed-derived injection decision (fault schedule + issued
/// op streams) is a pure function of the seed.
#[test]
fn same_seed_produces_byte_identical_op_history() {
    let seed = seed_from_env().wrapping_add(424242);
    let opts = NemesisOptions {
        ops_per_thread: 12,
        ..NemesisOptions::default()
    };
    let a = run_nemesis(seed, opts);
    let b = run_nemesis(seed, opts);
    assert!(
        a.canonical_log() == b.canonical_log(),
        "canonical logs differ between two runs of seed {seed}"
    );
    // And both match the log derived without running anything.
    let schedule = NemesisSchedule::generate(seed, 2, 2, 3);
    assert_eq!(a.canonical_log(), canonical_log_for(seed, &opts, &schedule));
    assert!(a.canonical_log().contains(&format!("seed={seed}")));
}
