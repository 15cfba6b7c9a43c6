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
    canonical_log_for, run_nemesis, NemesisOptions, NemesisReport, NemesisSchedule,
};
use cfs_rpc::seed_from_env;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

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
            .map(|p| format!("forensic dump (metrics + trace tree): {}\n", p.display()))
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

fn check_seed(seed: u64) {
    check_seed_with(seed, NemesisOptions::default());
}

/// The CI sweep: ~20 seeds, each a full boot → fault schedule → oracle run.
#[test]
fn seed_sweep_passes_divergence_oracle() {
    let base = seed_from_env();
    let count = env_usize("CFS_NEMESIS_SEEDS", 20) as u64;
    for seed in base..base + count {
        check_seed(seed);
    }
}

/// The scale-out sweep: each seed runs the full fault schedule with two
/// online shard splits racing the workload. Acknowledged writes must survive
/// the live migrations (zero oracle divergences), and across the sweep at
/// least one split must actually complete its cutover so the protocol —
/// not just its abort path — is exercised.
#[test]
fn split_nemesis_sweep_passes_divergence_oracle() {
    let base = seed_from_env().wrapping_add(0x5117);
    let count = env_usize("CFS_NEMESIS_SEEDS", 20) as u64;
    let opts = NemesisOptions {
        splits: 2,
        ..NemesisOptions::default()
    };
    let mut splits_ok = 0;
    for seed in base..base + count {
        splits_ok += check_seed_with(seed, opts).splits_ok;
    }
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
    let base = seed_from_env().wrapping_add(0x8ead);
    let count = env_usize("CFS_NEMESIS_SEEDS", 20) as u64;
    let opts = NemesisOptions {
        read_index: true,
        ..NemesisOptions::default()
    };
    for seed in base..base + count {
        check_seed_with(seed, opts);
    }
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
    let base = seed_from_env().wrapping_add(0x08e5_7a87);
    let count = env_usize("CFS_NEMESIS_SEEDS", 20) as u64;
    let opts = NemesisOptions {
        restarts: true,
        slow_fsync: true,
        ..NemesisOptions::default()
    };
    for seed in base..base + count {
        let report = check_seed_with(seed, opts);
        assert!(
            report.max_taf_log_len < 96,
            "seed {seed}: a TafDB replica's raft log grew to {} entries — \
             compaction is not bounding the log",
            report.max_taf_log_len
        );
        assert!(
            report.max_fs_log_len < 96,
            "seed {seed}: a FileStore replica's raft log grew to {} entries — \
             compaction is not bounding the log",
            report.max_fs_log_len
        );
    }
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
    use cfs_harness::nemesis::Fault;
    let base = seed_from_env().wrapping_add(0x0d15_f417);
    let count = env_usize("CFS_NEMESIS_SEEDS", 20) as u64;
    let opts = NemesisOptions {
        disk_full: true,
        torn_write: true,
        snapshot_crash: true,
        ..NemesisOptions::default()
    };
    let (mut disk, mut torn, mut snap) = (0, 0, 0);
    for seed in base..base + count {
        for w in NemesisSchedule::generate_with(seed, 2, 2, 3, &opts).windows {
            match w.fault {
                Fault::DiskFull(..) => disk += 1,
                Fault::TornWrite(..) => torn += 1,
                Fault::SnapshotCrash { .. } => snap += 1,
                _ => {}
            }
        }
        check_seed_with(seed, opts);
    }
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
    check_seed(seed_from_env());
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
