//! Crash-soak harness: continuous restarts + storage faults + workload
//! against **one long-lived cluster**, with a divergence-oracle checkpoint
//! after every round.
//!
//! Where [`run_nemesis`](crate::nemesis::run_nemesis) boots a fresh cluster
//! per seed, the soak keeps a single cluster alive for a configurable wall
//! duration and hammers it round after round — every fault family enabled
//! (kills, partitions, drop spikes, kill −9 restarts, fsync stalls,
//! disk-full, torn writes, snapshot-crash) — so damage *accumulates*: a
//! replica rebuilt from a torn log in round 3 must still serve round 30, a
//! log volume starved in one round must compact normally in the next.
//!
//! Each round derives its own seed from the base seed, runs workload threads
//! against fresh per-round subtree roots (`/soak/r{round}c{thread}`), walks
//! a fault schedule with every family enabled, heals, and judges the round's
//! history with the same forking oracle the nemesis sweeps use. The rounds'
//! roots are disjoint, so an op abandoned in round *n* that lands late can
//! never contaminate round *n+1*'s verdict.
//!
//! Duration is the knob: `CFS_SOAK_SECS=8` (the default test smoke) gets one
//! or two rounds, CI runs ~60 s, and a local soak can run for hours
//! (`CFS_SOAK_SECS=14400 cargo test --test soak soak_long -- --ignored`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cfs_core::{CfsCluster, CfsConfig, FileSystem};

use crate::nemesis::{
    generate_ops_under, pace_stream, run_round, Divergence, FaultFamily, NemesisOptions,
    NemesisSchedule, Stream, NEMESIS_THREADS,
};

/// Tunables for one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakOptions {
    /// Base seed; each round's schedule/workload seed is derived from it.
    pub seed: u64,
    /// Wall-clock budget: the soak starts no new round after this elapses.
    pub duration: Duration,
    /// Ops issued per workload thread per round.
    pub ops_per_round: usize,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            seed: 0xC0F5_50AC,
            duration: Duration::from_secs(
                std::env::var("CFS_SOAK_SECS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(8),
            ),
            ops_per_round: 40,
        }
    }
}

/// What a soak run observed.
#[derive(Debug)]
pub struct SoakReport {
    /// Rounds completed (each ends in an oracle checkpoint).
    pub rounds: usize,
    /// Fault windows injected across all rounds.
    pub windows_injected: usize,
    /// Ops issued across all rounds and threads.
    pub ops_issued: usize,
    /// The last round's seed: the failing round's when `divergence` is set.
    pub round_seed: u64,
    /// First divergence found, if any (the soak stops at it).
    pub divergence: Option<Divergence>,
    /// The forensic dump written for `divergence`.
    pub dump_path: Option<PathBuf>,
}

/// The per-round subtree root owned by workload thread `t` in round `r`.
pub fn round_root(r: usize, t: usize) -> String {
    format!("/soak/r{r}c{t}")
}

fn round_seed(base: u64, round: usize) -> u64 {
    base ^ (round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs the soak: one cluster, rounds of (workload ∥ full-family fault
/// schedule) → heal → oracle checkpoint, until the duration budget is spent
/// or a divergence is found.
pub fn run_soak(opts: SoakOptions) -> SoakReport {
    let mut config = CfsConfig::test_small();
    config.net.seed = opts.seed;
    let cluster = CfsCluster::start(config.clone()).expect("cluster boot");

    let setup = cluster.client();
    setup.mkdir("/soak").expect("mkdir /soak");

    let fault_opts = NemesisOptions {
        ops_per_thread: opts.ops_per_round,
        families: &[
            FaultFamily::Restart,
            FaultFamily::SlowFsync,
            FaultFamily::DiskFull,
            FaultFamily::TornWrite,
            FaultFamily::SnapshotCrash,
        ],
        ..NemesisOptions::default()
    };

    let deadline = Instant::now() + opts.duration;
    let mut report = SoakReport {
        rounds: 0,
        windows_injected: 0,
        ops_issued: 0,
        round_seed: opts.seed,
        divergence: None,
        dump_path: None,
    };

    while Instant::now() < deadline && report.divergence.is_none() {
        let r = report.rounds;
        let seed = round_seed(opts.seed, r);
        let schedule = NemesisSchedule::generate_with(
            seed,
            config.taf_shards,
            config.filestore_nodes,
            config.replication,
            &fault_opts,
        );

        let streams = (0..NEMESIS_THREADS)
            .map(|t| {
                let root = round_root(r, t);
                setup.mkdir(&root).expect("mkdir round root");
                Stream {
                    ops: generate_ops_under(seed, t, opts.ops_per_round, &root),
                    root,
                    client: cluster.client(),
                    pace: pace_stream(seed, t),
                }
            })
            .collect();
        let round = run_round(&cluster, seed, &schedule, streams, 0);

        report.windows_injected += schedule.windows.len();
        report.ops_issued += round.results.iter().map(Vec::len).sum::<usize>();
        report.round_seed = seed;
        report.divergence = round.divergence;
        report.dump_path = round.dump_path;
        report.rounds += 1;
    }

    cluster.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_and_roots_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..100 {
            assert!(seen.insert(round_seed(42, r)), "round seed collision");
            assert_ne!(round_root(r, 0), round_root(r, 1));
            assert_ne!(round_root(r, 0), round_root(r + 1, 0));
        }
        // The derivation is a pure function of (base, round).
        assert_eq!(round_seed(42, 3), round_seed(42, 3));
        assert_ne!(round_seed(42, 3), round_seed(43, 3));
    }
}
