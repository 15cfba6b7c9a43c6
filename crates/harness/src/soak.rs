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

use std::time::{Duration, Instant};

use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_rpc::SimRng;
use cfs_types::FsError;

use crate::nemesis::{
    apply_fault, apply_fs, check_thread_history_under, generate_ops_under, heal_cluster,
    revert_fault, sleep_until, walk_subtree, Divergence, FaultFamily, NemOp, NemesisOptions,
    NemesisSchedule, LBL_WORKLOAD, NEMESIS_THREADS,
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
    /// First divergence found, if any (the soak stops at it).
    pub divergence: Option<Divergence>,
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
        divergence: None,
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

        let roots: Vec<String> = (0..NEMESIS_THREADS).map(|t| round_root(r, t)).collect();
        for root in &roots {
            setup.mkdir(root).expect("mkdir round root");
        }
        let per_thread_ops: Vec<Vec<NemOp>> = (0..NEMESIS_THREADS)
            .map(|t| generate_ops_under(seed, t, opts.ops_per_round, &roots[t]))
            .collect();
        let pace_rng = SimRng::from_seed(seed).split(LBL_WORKLOAD);

        let start = Instant::now();
        let results: Vec<Vec<Result<(), FsError>>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, ops) in per_thread_ops.iter().enumerate() {
                let client = cluster.client();
                let mut pace = pace_rng.split(0x70ace).split(t as u64 + 1);
                handles.push(scope.spawn(move || {
                    ops.iter()
                        .map(|op| {
                            std::thread::sleep(Duration::from_millis(4 + pace.below(12)));
                            apply_fs(&client, op)
                        })
                        .collect::<Vec<_>>()
                }));
            }

            // The fault walker, on this thread — same arms as the nemesis.
            for w in &schedule.windows {
                sleep_until(start, w.start_ms);
                let active = apply_fault(&cluster, start, w);
                sleep_until(start, w.end_ms);
                revert_fault(&cluster, &active);
            }

            handles
                .into_iter()
                .map(|h| h.join().expect("workload thread"))
                .collect()
        });

        report.windows_injected += schedule.windows.len();
        report.ops_issued += results.iter().map(Vec::len).sum::<usize>();

        // Oracle checkpoint: heal, let abandoned proposals land, judge.
        heal_cluster(&cluster);
        let any_abandoned = results
            .iter()
            .flatten()
            .any(|res| matches!(res, Err(e) if e.is_retryable()));
        if any_abandoned {
            std::thread::sleep(Duration::from_secs(6));
        }
        let walker = cluster.client_with_consistency(cfs_core::ReadConsistency::LeaderOnly);
        for (t, (ops, res)) in per_thread_ops.iter().zip(&results).enumerate() {
            let observed = walk_subtree(&walker, &roots[t]);
            if let Err(d) = check_thread_history_under(t, &roots[t], ops, res, &observed) {
                report.divergence = Some(d);
                break;
            }
        }
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
