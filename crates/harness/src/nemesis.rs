//! Seeded fault-injection (nemesis) driver and divergence oracle.
//!
//! One `u64` seed determines the entire experiment: the fault schedule
//! (node kills, partitions, drop-rate spikes — all reverted by a heal), the
//! per-thread operation streams, and — through the seeded network in
//! `cfs-rpc` — every message-drop and jitter decision. A failing run is
//! reported with its seed and reproduces with `CFS_SIM_SEED=<seed>`.
//!
//! Determinism boundary: workload threads run on real OS threads against a
//! wall-clock Raft, so *results* (which ops hit a fault window) vary between
//! runs. What is a pure function of the seed — and what
//! [`NemesisReport::canonical_log`] therefore contains — is everything the
//! simulation *injects*: the fault schedule and the full per-thread op
//! streams. Results are judged instead by the divergence oracle.
//!
//! The oracle replays each thread's surviving history against the reference
//! [`Model`](crate::model::Model). Threads own disjoint subtrees, so each
//! per-thread history is sequential and the check needs no linearizability
//! search. Ops in flight during a fault may time out after the client's
//! retry budget (`Timeout`/`NotLeader`), or be internally retried so that a
//! first attempt's lost success resurfaces as `AlreadyExists`/`NotFound`
//! (the op colliding with itself). The oracle accepts either outcome by
//! forking candidate states. Error *kinds* are never used to prune: the
//! resolution reads an op performs before committing can observe stale
//! state mid-fault, so a definite error only asserts "this op did not
//! commit", not which state it saw. The judging power comes from the two
//! observations faults cannot excuse — an op that reported `Ok` must be
//! possible in some candidate, and the final namespace (read after heal +
//! re-election) must equal some candidate exactly, allowing ops abandoned
//! at a timeout to land after the sequence ends.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cfs_core::{CfsClient, CfsCluster, CfsConfig, DirEntryInfo, FileSystem};
use cfs_filestore::SetAttrPatch;
use cfs_rpc::SimRng;
use cfs_types::{FileType, FsError, NodeId, ShardId, VolumeId};

use crate::model::Model;

/// Workload threads (each owning the `/nem/c{t}` subtree).
pub const NEMESIS_THREADS: usize = 3;

/// Stream labels carving independent [`SimRng`] children out of the seed.
const LBL_SCHEDULE: u64 = 0x5eed_0001;
const LBL_WORKLOAD: u64 = 0x5eed_0002;

/// Upper bound on oracle candidate states per thread; crossing it means the
/// history is so fault-riddled the check would be vacuous.
const MAX_CANDIDATES: usize = 4096;

// ---------------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------------

/// A Raft replica addressed logically (resolved to a `NodeId` at run time).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Target {
    /// TafDB shard group (true) or FileStore group (false).
    pub taf: bool,
    /// Group index.
    pub group: usize,
    /// Replica index within the group.
    pub replica: usize,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.taf { "taf" } else { "fs" };
        write!(f, "{kind}[{}].r{}", self.group, self.replica)
    }
}

/// One injectable fault; each is reverted at the end of its window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Crash one replica (revived at window end).
    Kill(Target),
    /// Partition one replica away from the rest of the cluster (healed at
    /// window end).
    Isolate(Target),
    /// Raise the one-way drop rate, in millionths (cleared at window end).
    DropSpike(u32),
    /// kill −9 one TafDB replica at window start, then rebuild it from its
    /// durable state (snapshot + log WAL tail) at window end. Unlike
    /// [`Fault::Kill`] — where the same node object comes back with all its
    /// volatile state — everything in flight on the replica dies and
    /// recovery must reconstruct the state machine from disk.
    Restart(Target),
    /// Stall every TafDB replica's log-WAL fsync by this many microseconds
    /// (cleared at window end): commit latency climbs toward the client
    /// timeout without any message ever being dropped.
    SlowFsync(u64),
    /// Cap the target TafDB replica's log volume at this many further bytes
    /// — every durable write past the cap fails with `ENOSPC` — for the
    /// window (budget lifted at window end). The degraded replica must keep
    /// serving reads, reject mutations with a retryable error, and resume
    /// cleanly once space returns.
    DiskFull(Target, u64),
    /// Arm a one-shot torn write on the target TafDB replica's log volume
    /// (the straddling record is cut at `len·ppm/10⁶` bytes and the device
    /// wedges), then kill −9 the replica mid-window — the power-loss-mid-write
    /// fault. At window end the device is healed and the replica rebuilt
    /// from the torn log; recovery must truncate the tear and resume.
    TornWrite(Target, u32),
    /// Crash a follower of this TafDB group so it lags past the leader's
    /// compaction point, then at window end: restart it (triggering an
    /// `InstallSnapshot` catch-up) and kill −9 the leader mid-transfer,
    /// restarting it shortly after. The group must converge with no lost
    /// entries.
    SnapshotCrash {
        /// TafDB shard group index.
        group: usize,
        /// Preferred follower index (bumped if it currently leads).
        replica: usize,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Kill(t) => write!(f, "kill {t}"),
            Fault::Isolate(t) => write!(f, "isolate {t}"),
            Fault::DropSpike(m) => write!(f, "drop-spike {m}ppm"),
            Fault::Restart(t) => write!(f, "restart {t}"),
            Fault::SlowFsync(us) => write!(f, "slow-fsync {us}us"),
            Fault::DiskFull(t, n) => write!(f, "disk-full {t} after {n}B"),
            Fault::TornWrite(t, ppm) => write!(f, "torn-write {t} @{ppm}ppm"),
            Fault::SnapshotCrash { group, replica } => {
                write!(f, "snapshot-crash taf[{group}].r{replica}")
            }
        }
    }
}

/// A fault active during `[start_ms, end_ms)` from workload start.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultWindow {
    /// Window start, milliseconds from workload start.
    pub start_ms: u64,
    /// Window end (fault reverted), milliseconds from workload start.
    pub end_ms: u64,
    /// The fault held open for the window.
    pub fault: Fault,
}

/// The seed-derived fault plan: non-overlapping windows, each reverted
/// before the next opens, so at most one replica per group is ever down.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NemesisSchedule {
    /// Windows in increasing time order.
    pub windows: Vec<FaultWindow>,
}

impl NemesisSchedule {
    /// Derives the fault plan for `seed` against a `taf_shards`×/`fs_groups`×
    /// `replication` deployment. Pure: same inputs, same schedule.
    pub fn generate(seed: u64, taf_shards: usize, fs_groups: usize, replication: usize) -> Self {
        Self::generate_with(
            seed,
            taf_shards,
            fs_groups,
            replication,
            &NemesisOptions::default(),
        )
    }

    /// Like [`NemesisSchedule::generate`], but `opts.families` can widen the
    /// fault die (see [`FaultFamily`]). With default options the plan is
    /// identical to [`NemesisSchedule::generate`]'s. Pure in all inputs.
    pub fn generate_with(
        seed: u64,
        taf_shards: usize,
        fs_groups: usize,
        replication: usize,
        opts: &NemesisOptions,
    ) -> Self {
        let mut rng = SimRng::from_seed(seed).split(LBL_SCHEDULE);
        let mut windows = Vec::new();
        let count = 3 + rng.below(3); // 3..=5 windows
        let mut cursor = 60u64;
        // Opted-in families widen the bucket die; the base classes keep
        // buckets 0..10 and each family's band follows in `FAMILY_BANDS`
        // order: `(family, first bucket past its band)`.
        let mut buckets = 10;
        let bands: Vec<(FaultFamily, u64)> = FAMILY_BANDS
            .iter()
            .filter(|(family, _)| opts.families.contains(family))
            .map(|&(family, width)| {
                buckets += width;
                (family, buckets)
            })
            .collect();
        for _ in 0..count {
            let start_ms = cursor + 20 + rng.below(70);
            let dur = 80 + rng.below(170); // 80..250 ms
            let fault = match rng.below(buckets) {
                0..=3 => Fault::Kill(pick_target(&mut rng, taf_shards, fs_groups, replication)),
                4..=6 => Fault::Isolate(pick_target(&mut rng, taf_shards, fs_groups, replication)),
                // 10%..40% one-way drop: disruptive but recoverable within
                // the Raft heartbeat/resend cycle.
                7..=9 => Fault::DropSpike(100_000 + rng.below(300_000) as u32),
                b => match bands
                    .iter()
                    .find(|&&(_, end)| b < end)
                    .expect("the die is as wide as the bands")
                    .0
                {
                    // Restarts target the durable (TafDB) replicas only — the
                    // whole point is recovering a state machine from disk.
                    FaultFamily::Restart => Fault::Restart(Target {
                        taf: true,
                        group: rng.below(taf_shards as u64) as usize,
                        replica: rng.below(replication as u64) as usize,
                    }),
                    // 500µs..3ms of extra fsync latency per log append.
                    FaultFamily::SlowFsync => Fault::SlowFsync(500 + rng.below(2500)),
                    // Disk-full hits any durable replica — TafDB or FileStore,
                    // both sit on a FaultFs-backed log volume: 256B..2KiB of
                    // remaining budget starves the volume mid-window without
                    // taking the whole batch path down.
                    FaultFamily::DiskFull => Fault::DiskFull(
                        pick_target(&mut rng, taf_shards, fs_groups, replication),
                        256 + rng.below(1792),
                    ),
                    // Tear 20%..80% of the way into the straddling record.
                    FaultFamily::TornWrite => Fault::TornWrite(
                        Target {
                            taf: true,
                            group: rng.below(taf_shards as u64) as usize,
                            replica: rng.below(replication as u64) as usize,
                        },
                        (200_000 + rng.below(600_000)) as u32,
                    ),
                    FaultFamily::SnapshotCrash => Fault::SnapshotCrash {
                        group: rng.below(taf_shards as u64) as usize,
                        replica: rng.below(replication as u64) as usize,
                    },
                },
            };
            windows.push(FaultWindow {
                start_ms,
                end_ms: start_ms + dur,
                fault,
            });
            cursor = start_ms + dur;
        }
        NemesisSchedule { windows }
    }
}

fn pick_target(
    rng: &mut SimRng,
    taf_shards: usize,
    fs_groups: usize,
    replication: usize,
) -> Target {
    let taf = rng.below(10) < 7; // metadata path faults dominate
    let groups = if taf { taf_shards } else { fs_groups };
    Target {
        taf,
        group: rng.below(groups as u64) as usize,
        replica: rng.below(replication as u64) as usize,
    }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// One metadata operation in a nemesis history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NemOp {
    /// Create a regular file.
    Create(String),
    /// Create a directory.
    Mkdir(String),
    /// Remove a file.
    Unlink(String),
    /// Remove an empty directory.
    Rmdir(String),
    /// Rename (src, dst).
    Rename(String, String),
    /// Attribute update (chmod-style).
    Setattr(String),
    /// Path resolution (read-only; not judged by the oracle — reads during a
    /// failover window are documented as possibly stale).
    Lookup(String),
}

impl fmt::Display for NemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NemOp::Create(p) => write!(f, "create {p}"),
            NemOp::Mkdir(p) => write!(f, "mkdir {p}"),
            NemOp::Unlink(p) => write!(f, "unlink {p}"),
            NemOp::Rmdir(p) => write!(f, "rmdir {p}"),
            NemOp::Rename(s, d) => write!(f, "rename {s} -> {d}"),
            NemOp::Setattr(p) => write!(f, "setattr {p}"),
            NemOp::Lookup(p) => write!(f, "lookup {p}"),
        }
    }
}

/// The subtree root owned by workload thread `t`.
pub fn thread_root(t: usize) -> String {
    format!("/nem/c{t}")
}

fn gen_path(rng: &mut SimRng, base: &str) -> String {
    const DIRS: [&str; 2] = ["d0", "d1"];
    const LEAVES: [&str; 5] = ["d0", "d1", "f0", "f1", "f2"];
    if rng.below(10) < 6 {
        format!("{base}/{}", LEAVES[rng.below(5) as usize])
    } else {
        format!(
            "{base}/{}/{}",
            DIRS[rng.below(2) as usize],
            LEAVES[rng.below(5) as usize]
        )
    }
}

/// Generates thread `t`'s op stream for `seed`: a pure function of both, and
/// oblivious to op results, so the issued history is identical across runs.
pub fn generate_ops(seed: u64, t: usize, count: usize) -> Vec<NemOp> {
    generate_ops_under(seed, t, count, &thread_root(t))
}

/// Like [`generate_ops`], but rooted at an arbitrary subtree — the soak
/// harness gives each round's threads fresh roots so every oracle checkpoint
/// judges a namespace no earlier round touched.
pub fn generate_ops_under(seed: u64, t: usize, count: usize, base: &str) -> Vec<NemOp> {
    let mut rng = SimRng::from_seed(seed)
        .split(LBL_WORKLOAD)
        .split(t as u64 + 1);
    let base = base.to_string();
    (0..count)
        .map(|_| {
            let p = gen_path(&mut rng, &base);
            match rng.below(100) {
                0..=24 => NemOp::Create(p),
                25..=44 => NemOp::Mkdir(p),
                45..=59 => NemOp::Unlink(p),
                60..=69 => NemOp::Rmdir(p),
                70..=84 => NemOp::Rename(p, gen_path(&mut rng, &base)),
                85..=94 => NemOp::Setattr(p),
                _ => NemOp::Lookup(p),
            }
        })
        .collect()
}

fn apply_fs(fs: &impl FileSystem, op: &NemOp) -> Result<(), FsError> {
    match op {
        NemOp::Create(p) => fs.create(p).map(|_| ()),
        NemOp::Mkdir(p) => fs.mkdir(p).map(|_| ()),
        NemOp::Unlink(p) => fs.unlink(p),
        NemOp::Rmdir(p) => fs.rmdir(p),
        NemOp::Rename(s, d) => fs.rename(s, d),
        NemOp::Setattr(p) => fs.setattr(
            p,
            SetAttrPatch {
                mode: Some(0o640),
                ..SetAttrPatch::default()
            },
        ),
        NemOp::Lookup(p) => fs.lookup(p).map(|_| ()),
    }
}

fn apply_model(m: &mut Model, op: &NemOp) -> Result<(), FsError> {
    match op {
        NemOp::Create(p) => m.create(p),
        NemOp::Mkdir(p) => m.mkdir(p),
        NemOp::Unlink(p) => m.unlink(p),
        NemOp::Rmdir(p) => m.rmdir(p),
        NemOp::Rename(s, d) => m.rename(s, d),
        NemOp::Setattr(p) => m.setattr(p),
        NemOp::Lookup(p) => m.lookup(p),
    }
}

// ---------------------------------------------------------------------------
// Divergence oracle
// ---------------------------------------------------------------------------

/// The error a successfully-applied op reports when the client's internal
/// retry collides with the op's own first attempt (response lost to a
/// fault, retry observes the already-applied state).
fn self_collision(op: &NemOp) -> Option<FsError> {
    match op {
        NemOp::Create(_) | NemOp::Mkdir(_) => Some(FsError::AlreadyExists),
        NemOp::Unlink(_) | NemOp::Rmdir(_) | NemOp::Rename(..) => Some(FsError::NotFound),
        // Setattr retries are idempotent (re-applying converges to Ok), and
        // lookups are never judged.
        NemOp::Setattr(_) | NemOp::Lookup(_) => None,
    }
}

/// True when `e` is what an op surfaces after exhausting the client's retry
/// budget mid-fault — the oracle cannot tell whether the op applied.
fn indeterminate(e: &FsError) -> bool {
    e.is_retryable()
}

/// A detected divergence: no candidate state explains an observation.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Workload thread.
    pub thread: usize,
    /// Index into the thread's op stream (`None`: final-state mismatch).
    pub op_index: Option<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "thread {} op #{}: {}", self.thread, i, self.detail),
            None => write!(f, "thread {} final state: {}", self.thread, self.detail),
        }
    }
}

/// Replays one thread's history against the model, forking candidates on
/// ambiguous results, and checks the observed final subtree against the
/// surviving candidates. Every ancestor of `root` is pre-created in the
/// model, mirroring the runner's setup mkdirs.
pub fn check_thread_history(
    thread: usize,
    root: &str,
    ops: &[NemOp],
    results: &[Result<(), FsError>],
    final_subtree: &BTreeMap<String, bool>,
) -> Result<(), Divergence> {
    assert_eq!(ops.len(), results.len());
    let mut base = Model::new();
    let mut prefix = String::new();
    for comp in root.trim_start_matches('/').split('/') {
        prefix.push('/');
        prefix.push_str(comp);
        base.mkdir(&prefix).expect("fresh model");
    }

    let mut candidates = vec![base];
    for (i, (op, observed)) in ops.iter().zip(results).enumerate() {
        if matches!(op, NemOp::Lookup(_)) {
            continue; // reads may be stale during failover windows
        }
        let mut next: Vec<Model> = Vec::new();
        let push = |next: &mut Vec<Model>, m: Model| {
            if !next.contains(&m) {
                next.push(m);
            }
        };
        for cand in &candidates {
            let mut applied = cand.clone();
            let predicted = apply_model(&mut applied, op);
            match observed {
                Ok(()) => {
                    if predicted.is_ok() {
                        push(&mut next, applied);
                    }
                }
                Err(e) => {
                    // Any error means the op did not commit from this
                    // candidate's point of view, so the unchanged state
                    // always survives. The error *kind* is not matched
                    // against the prediction: mid-fault, the resolution
                    // reads an op performs before committing can observe
                    // stale state (a killed replica rejoining, a failover
                    // read), surfacing an error that describes an earlier
                    // namespace — e.g. rmdir returning NotFound for a
                    // directory that exists. Wrong-result bugs are instead
                    // caught by Ok-observations and the final-state match.
                    push(&mut next, cand.clone());
                    if predicted.is_ok() {
                        if indeterminate(e) {
                            // Retry budget exhausted mid-fault: the op may
                            // also have applied (and may still apply later;
                            // see the late-landing extension below).
                            push(&mut next, applied);
                        } else if self_collision(op).as_ref() == Some(e) {
                            // A lost success resurfacing via internal retry.
                            push(&mut next, applied);
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(Divergence {
                thread,
                op_index: Some(i),
                detail: format!(
                    "`{op}` observed {observed:?}, unexplainable from any of {} candidate state(s)",
                    candidates.len()
                ),
            });
        }
        if next.len() > MAX_CANDIDATES {
            return Err(Divergence {
                thread,
                op_index: Some(i),
                detail: format!(
                    "oracle state explosion: {} candidates (history too ambiguous to check)",
                    next.len()
                ),
            });
        }
        candidates = next;
    }

    // An op abandoned mid-fault (indeterminate result) was forked as
    // applied-at-issue above, but its proposal can also land *after* the
    // last op of the sequence — e.g. a partitioned leader's log surviving
    // the heal. Extend the candidate set with every in-order subset of the
    // abandoned ops applied at the end.
    let abandoned: Vec<&NemOp> = ops
        .iter()
        .zip(results)
        .filter(|(op, r)| {
            !matches!(op, NemOp::Lookup(_)) && matches!(r, Err(e) if indeterminate(e))
        })
        .map(|(op, _)| op)
        .collect();
    for op in abandoned {
        let mut extended = candidates.clone();
        for cand in &candidates {
            let mut applied = cand.clone();
            if apply_model(&mut applied, op).is_ok() && !extended.contains(&applied) {
                extended.push(applied);
            }
        }
        if extended.len() > MAX_CANDIDATES {
            break; // keep the check bounded; the base set is still valid
        }
        candidates = extended;
    }

    if candidates.iter().any(|c| &c.subtree(root) == final_subtree) {
        return Ok(());
    }
    let closest = candidates
        .iter()
        .map(|c| c.subtree(root))
        .min_by_key(|s| symmetric_diff(s, final_subtree))
        .unwrap_or_default();
    Err(Divergence {
        thread,
        op_index: None,
        detail: format!(
            "observed namespace matches none of {} candidate(s).\n  observed: {:?}\n  closest candidate: {:?}",
            candidates.len(),
            final_subtree,
            closest
        ),
    })
}

fn symmetric_diff(a: &BTreeMap<String, bool>, b: &BTreeMap<String, bool>) -> usize {
    a.iter().filter(|(k, v)| b.get(*k) != Some(v)).count()
        + b.iter().filter(|(k, v)| a.get(*k) != Some(v)).count()
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Tunables for one nemesis run.
#[derive(Clone, Copy, Debug)]
pub struct NemesisOptions {
    /// Ops issued per workload thread.
    pub ops_per_thread: usize,
    /// Online shard splits launched mid-workload (the scale-out nemesis):
    /// each spawns a fresh Raft group and live-migrates half of a boot
    /// shard's range while ops and fault windows are in flight. A split that
    /// loses its race with a fault aborts and the donor resumes — both
    /// outcomes must pass the oracle.
    pub splits: usize,
    /// Route client reads through follower replicas with ReadIndex
    /// freshness proofs (and the versioned dentry cache running over them)
    /// instead of leader-only reads. The oracle's judgment is unchanged:
    /// follower reads are still linearizable, so acknowledged writes must
    /// never be lost and the final namespace must match a candidate.
    pub read_index: bool,
    /// Fault families added to the base kill / isolate / drop-spike die,
    /// in any order (a family's band is fixed by [`FAMILY_BANDS`]).
    pub families: &'static [FaultFamily],
}

/// An opt-in family of fault windows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultFamily {
    /// [`Fault::Restart`] windows: a TafDB replica is kill −9'd and later
    /// rebuilt from its snapshot + log WAL — the crash-restart recovery
    /// nemesis.
    Restart,
    /// [`Fault::SlowFsync`] windows: every TafDB replica's log fsync stalls
    /// for the window, squeezing commit latency without drops.
    SlowFsync,
    /// [`Fault::DiskFull`] windows: one replica's log volume hits `ENOSPC`
    /// mid-window and must degrade gracefully (serve reads, reject
    /// mutations retryably) until the budget is lifted.
    DiskFull,
    /// [`Fault::TornWrite`] windows: one TafDB replica's log volume tears a
    /// write and the replica is kill −9'd; recovery must truncate the torn
    /// tail and rejoin.
    TornWrite,
    /// [`Fault::SnapshotCrash`] windows: a lagging follower's catch-up
    /// `InstallSnapshot` is interrupted by kill −9 of the leader
    /// mid-transfer; the group must still converge.
    SnapshotCrash,
}

/// Every family with the width of its band on the schedule's bucket die
/// (the base faults hold buckets 0..10). A family's band sits after the
/// bands of the enabled families listed before it, so a new family goes at
/// the end: then every combination of the older ones still draws a
/// byte-identical plan.
pub const FAMILY_BANDS: [(FaultFamily, u64); 5] = [
    (FaultFamily::Restart, 3),
    (FaultFamily::SlowFsync, 2),
    (FaultFamily::DiskFull, 2),
    (FaultFamily::TornWrite, 2),
    (FaultFamily::SnapshotCrash, 1),
];

impl Default for NemesisOptions {
    fn default() -> Self {
        NemesisOptions {
            ops_per_thread: std::env::var("CFS_NEMESIS_OPS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(50),
            splits: 0,
            read_index: false,
            families: &[],
        }
    }
}

/// The seeds one sweep runs: `CFS_NEMESIS_SEEDS` of them (default 20),
/// starting at `CFS_SIM_SEED` plus the sweep's own `salt`.
pub fn sweep_seeds(salt: u64) -> std::ops::Range<u64> {
    let base = cfs_rpc::seed_from_env().wrapping_add(salt);
    let count: u64 = std::env::var("CFS_NEMESIS_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(20);
    base..base + count
}

/// Everything a nemesis round yields.
pub struct NemesisReport {
    /// The seed the round derived from.
    pub seed: u64,
    /// Per-thread observed results, parallel to each thread's op stream.
    pub results: Vec<Vec<Result<(), FsError>>>,
    /// Splits that completed their cutover (≤ `NemesisOptions::splits`; the
    /// rest aborted against a fault window, which is also a valid outcome).
    pub splits_ok: usize,
    /// Largest Raft log length across every TafDB and FileStore replica
    /// after the post-run quiesce. With snapshots enabled
    /// ([`cfs_raft::RaftConfig::snapshot_threshold`]) this stays bounded near
    /// the threshold no matter how many ops ran — the compaction half of the
    /// durability loop, asserted by the sweeps.
    pub max_log_len: u64,
    /// First divergence found, if any.
    pub divergence: Option<Divergence>,
    /// Forensic dump written on divergence: the observed results, per-node
    /// metrics snapshots and the trace tree of the diverging operation,
    /// alongside the seed.
    pub dump_path: Option<PathBuf>,
    canonical: String,
}

impl NemesisReport {
    /// The canonical op-history log: the seed, the fault schedule, and every
    /// issued op — i.e. every seed-derived injection decision. Byte-identical
    /// across runs with the same seed (results are excluded: they depend on
    /// wall-clock Raft timing and are judged by the oracle instead).
    pub fn canonical_log(&self) -> &str {
        &self.canonical
    }
}

/// Renders the canonical log for `seed` without running anything (the run's
/// log must equal this by construction; the determinism test asserts it).
pub fn canonical_log_for(seed: u64, opts: &NemesisOptions, schedule: &NemesisSchedule) -> String {
    let ops: Vec<Vec<NemOp>> = (0..NEMESIS_THREADS)
        .map(|t| generate_ops(seed, t, opts.ops_per_thread))
        .collect();
    history_log(seed, schedule, ops.iter().map(Vec::as_slice))
}

/// The canonical log of one round: its seed, its fault schedule, and every
/// stream's ops in issue order.
fn history_log<'a>(
    seed: u64,
    schedule: &NemesisSchedule,
    streams: impl IntoIterator<Item = &'a [NemOp]>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("seed={seed}\nschedule:\n"));
    for w in &schedule.windows {
        out.push_str(&format!(
            "  +{}ms..+{}ms {}\n",
            w.start_ms, w.end_ms, w.fault
        ));
    }
    out.push_str("ops:\n");
    for (t, ops) in streams.into_iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            out.push_str(&format!("  t{t}#{i} {op}\n"));
        }
    }
    out
}

/// Boots a `test_small` cluster seeded with `seed`, drives the seed-derived
/// workload and fault schedule against it in one [`run_round`], and reports
/// the round's verdict.
pub fn run_nemesis(seed: u64, opts: NemesisOptions) -> NemesisReport {
    let mut config = CfsConfig::test_small();
    config.net.seed = seed;
    if opts.read_index {
        config.read_consistency = cfs_core::ReadConsistency::ReadIndex;
    }
    let schedule = NemesisSchedule::generate_with(
        seed,
        config.taf_shards,
        config.filestore_nodes,
        config.replication,
        &opts,
    );
    let cluster = CfsCluster::start(config.clone()).expect("cluster boot");

    // Pre-create the per-thread roots before any fault opens.
    let setup = cluster.client();
    setup.mkdir("/nem").expect("setup mkdir /nem");
    for t in 0..NEMESIS_THREADS {
        setup.mkdir(&thread_root(t)).expect("setup thread root");
    }
    let streams = (0..NEMESIS_THREADS)
        .map(|t| Stream {
            client: cluster.client(),
            root: thread_root(t),
            ops: generate_ops(seed, t, opts.ops_per_thread),
            pace: pace_stream(seed, t),
        })
        .collect();
    run_round(&cluster, seed, &schedule, streams, opts.splits)
}

/// Workload thread `t`'s pacing stream for `seed`.
pub(crate) fn pace_stream(seed: u64, t: usize) -> SimRng {
    SimRng::from_seed(seed)
        .split(LBL_WORKLOAD)
        .split(0x70ace)
        .split(t as u64 + 1)
}

/// One workload thread of a [`run_round`]: its client, the subtree it owns,
/// the ops it issues there in order, and the seed-pure stream its pauses
/// between ops are drawn from.
pub(crate) struct Stream {
    pub(crate) client: CfsClient,
    pub(crate) root: String,
    pub(crate) ops: Vec<NemOp>,
    pub(crate) pace: SimRng,
}

/// One fault round, shared by the nemesis, soak and tenant sweeps. Each
/// stream runs on its own thread, pausing a seed-pure 4–16 ms before every
/// op so issuance spreads across the schedule, and `splits` online shard
/// splits run on one more. This thread walks `schedule`, joins them all,
/// heals, and judges each stream's history against a walk of its root. A
/// divergence is dumped to `nemesis_dump_seed_<seed>.txt`.
///
/// Nothing can land after the judged walk. Every stream's thread has
/// joined, and its client with it, whose worker threads join on drop. The
/// heal then commits a barrier in a single leader's term on every group, so
/// each earlier proposal is applied on that leader or can never commit. The
/// oracle's last clause checks that claim: after a second quiesce, a second
/// walk must read every judged namespace again unchanged.
pub(crate) fn run_round(
    cluster: &CfsCluster,
    seed: u64,
    schedule: &NemesisSchedule,
    streams: Vec<Stream>,
    splits: usize,
) -> NemesisReport {
    // Record every operation's trace so a divergence can be dumped with the
    // full client → shard → Raft → FileStore span tree of the failing op.
    cfs_obs::trace::enable();
    let (lanes, crews): (Vec<_>, Vec<_>) = streams
        .into_iter()
        .map(|s| ((s.client.volume(), s.root, s.ops), (s.client, s.pace)))
        .unzip();
    let canonical = history_log(seed, schedule, lanes.iter().map(|(_, _, ops)| &ops[..]));

    let start = Instant::now();
    let (outcomes, splits_ok): (Vec<Vec<OpOutcome>>, usize) = std::thread::scope(|scope| {
        let workers: Vec<_> = crews
            .into_iter()
            .zip(&lanes)
            .map(|((client, mut pace), (_, _, ops))| {
                scope.spawn(move || {
                    ops.iter()
                        .map(|op| {
                            std::thread::sleep(Duration::from_millis(4 + pace.below(12)));
                            let r = apply_fs(&client, op);
                            // The client opened a root span for this op on
                            // this thread; remember its trace id so a
                            // divergence can be dumped with the op's tree.
                            (r, cfs_obs::trace::last_root_trace_id())
                        })
                        .collect()
                })
            })
            .collect();
        // The scale-out nemesis: live splits racing the ops and the fault
        // windows. A split blocked by a fault (donor leader down, drop
        // spike) aborts cleanly; the donor resumes and later redirects
        // nothing — the oracle judges the op history either way.
        let splitter = scope.spawn(move || {
            let taf_shards = cluster.config().taf_shards;
            (0..splits)
                .filter(|&s| {
                    sleep_until(start, 100 + s as u64 * 250);
                    let donor = ShardId((s % taf_shards) as u32);
                    cluster.split_shard(donor).is_ok()
                })
                .count()
        });
        for w in &schedule.windows {
            sleep_until(start, w.start_ms);
            let active = apply_fault(cluster, start, w);
            sleep_until(start, w.end_ms);
            revert_fault(cluster, &active);
        }
        let outcomes = workers
            .into_iter()
            .map(|h| h.join().expect("workload thread"))
            .collect();
        (outcomes, splitter.join().expect("split thread"))
    });
    let results: Vec<Vec<Result<(), FsError>>> = outcomes
        .iter()
        .map(|o| o.iter().map(|(r, _)| r.clone()).collect())
        .collect();

    heal_cluster(cluster);
    // The compaction oracle's input: with snapshots on, no replica's log
    // may have grown past the snapshot threshold (plus the entries applied
    // since the last compaction point).
    let max_log_len = cluster
        .replica_sets()
        .iter()
        .map(|g| g.max_log_len())
        .max()
        .unwrap_or(0);

    // The walk is oracle instrumentation, not the system under test: the
    // workload threads already drove the configured read path (possibly
    // ReadIndex + dentry cache) through the fault schedule. Read the ground
    // truth leader-locally so the verdict does not depend on follower-read
    // confirmation latency on a starved CI box.
    let walk = |(volume, root, _): &(VolumeId, String, Vec<NemOp>)| {
        let walker = cluster
            .client_with_consistency(cfs_core::ReadConsistency::LeaderOnly)
            .with_volume(*volume);
        walk_subtree(&walker, root)
    };
    let mut judged = Vec::new();
    let mut divergence = None;
    for (t, (lane, res)) in lanes.iter().zip(&results).enumerate() {
        let observed = walk(lane);
        let (_, root, ops) = lane;
        if let Err(d) = check_thread_history(t, root, ops, res, &observed) {
            divergence = Some(d);
            break;
        }
        judged.push(observed);
    }
    if divergence.is_none() {
        quiesce(cluster);
        divergence = lanes.iter().zip(&judged).enumerate().find_map(|(t, (lane, was))| {
            let now = walk(lane);
            (&now != was).then(|| Divergence {
                thread: t,
                op_index: None,
                detail: format!(
                    "namespace changed after the judged walk.\n  judged: {was:?}\n  re-read: {now:?}"
                ),
            })
        });
    }

    // Drain this round's spans either way (the sink is process-global); on a
    // divergence, write the forensic dump before the evidence is lost.
    let spans = cfs_obs::trace::drain();
    let dump_path = divergence.as_ref().and_then(|d| {
        let net_stats = format!("{:?}", cluster.network().stats().snapshot());
        write_dump(
            seed,
            &render_dump(seed, d, &canonical, &outcomes, &spans, &net_stats),
        )
    });

    NemesisReport {
        seed,
        results,
        splits_ok,
        max_log_len,
        divergence,
        dump_path,
        canonical,
    }
}

/// One workload observation: the op's result plus the trace id of the root
/// span the client opened for it.
type OpOutcome = (Result<(), FsError>, u64);

/// What [`apply_fault`] actually did, so [`revert_fault`] can undo exactly
/// that: faults that pick their victim against live cluster state (a
/// `SnapshotCrash` bumping off the current leader) record the resolved
/// `NodeId` here rather than re-resolving at revert time.
enum ActiveFault {
    Kill(NodeId),
    Isolate,
    DropSpike,
    Restart(NodeId),
    SlowFsync,
    DiskFull(NodeId),
    TornWrite(NodeId),
    SnapshotCrash { group: usize, follower: NodeId },
}

fn resolve_target(cluster: &CfsCluster, tgt: Target) -> NodeId {
    if tgt.taf {
        cluster.taf_groups()[tgt.group].raft().nodes()[tgt.replica].id()
    } else {
        cluster.fs_groups()[tgt.group].raft().nodes()[tgt.replica].id()
    }
}

fn all_raft_node_ids(cluster: &CfsCluster) -> Vec<NodeId> {
    cluster
        .replica_sets()
        .iter()
        .flat_map(|g| g.ids().to_vec())
        .collect()
}

/// Sets every replica's extra log-fsync latency, both tiers alike.
fn set_fsync_latency(cluster: &CfsCluster, extra: Duration) {
    for g in cluster.replica_sets() {
        g.set_fsync_latency(extra);
    }
}

/// Opens `w.fault` against the live cluster (called at the window's start;
/// `start` anchors the schedule's clock for faults with intra-window timing).
fn apply_fault(cluster: &CfsCluster, start: Instant, w: &FaultWindow) -> ActiveFault {
    let net = cluster.network();
    match w.fault {
        Fault::Kill(t) => {
            let id = resolve_target(cluster, t);
            net.kill(id);
            ActiveFault::Kill(id)
        }
        Fault::Isolate(t) => {
            let victim = resolve_target(cluster, t);
            let rest: Vec<_> = all_raft_node_ids(cluster)
                .into_iter()
                .filter(|&n| n != victim)
                .collect();
            net.partition(vec![vec![victim], rest]);
            ActiveFault::Isolate
        }
        Fault::DropSpike(ppm) => {
            net.set_drop_rate(ppm as f64 / 1e6);
            ActiveFault::DropSpike
        }
        Fault::Restart(t) => {
            let id = resolve_target(cluster, t);
            cluster.crash_node(id).expect("crash taf replica");
            ActiveFault::Restart(id)
        }
        Fault::SlowFsync(us) => {
            set_fsync_latency(cluster, Duration::from_micros(us));
            ActiveFault::SlowFsync
        }
        Fault::DiskFull(t, budget) => {
            let id = resolve_target(cluster, t);
            cluster
                .set_disk_budget(id, Some(budget))
                .expect("cap log volume");
            ActiveFault::DiskFull(id)
        }
        Fault::TornWrite(t, ppm) => {
            let id = resolve_target(cluster, t);
            cluster.arm_torn_write(id, ppm).expect("arm torn write");
            // Let the tear fire under live appends, then kill −9 the
            // replica: a real torn write manifests as power loss mid-write.
            sleep_until(start, w.start_ms + 40);
            cluster.crash_node(id).expect("crash torn replica");
            ActiveFault::TornWrite(id)
        }
        Fault::SnapshotCrash { group, replica } => {
            // Crash a *follower* so it lags past the leader's compaction
            // point and must be caught up by InstallSnapshot at revert.
            let g = &cluster.taf_groups()[group];
            let nodes = g.raft().nodes();
            let leader_id = g.raft().leader().map(|l| l.id());
            let mut idx = replica;
            if Some(nodes[idx].id()) == leader_id {
                idx = (idx + 1) % nodes.len();
            }
            let follower = nodes[idx].id();
            cluster
                .crash_node(follower)
                .expect("crash lagging follower");
            ActiveFault::SnapshotCrash { group, follower }
        }
    }
}

/// Undoes what [`apply_fault`] did (called at the window's end). For the
/// crash-family faults this is where recovery — and, for `SnapshotCrash`,
/// the mid-`InstallSnapshot` leader kill — actually happens.
fn revert_fault(cluster: &CfsCluster, active: &ActiveFault) {
    let net = cluster.network();
    match active {
        ActiveFault::Kill(id) => net.revive(*id),
        ActiveFault::Isolate => net.heal(),
        ActiveFault::DropSpike => net.set_drop_rate(0.0),
        ActiveFault::Restart(id) => {
            cluster.restart_node(*id).expect("restart taf replica");
        }
        ActiveFault::SlowFsync => set_fsync_latency(cluster, Duration::ZERO),
        ActiveFault::DiskFull(id) => {
            cluster.clear_storage_faults(*id).expect("lift disk budget");
        }
        ActiveFault::TornWrite(id) => {
            // Heal the device, then rebuild the replica from whatever the
            // torn log left on disk (recovery truncates the tear).
            cluster.clear_storage_faults(*id).expect("heal torn device");
            cluster.restart_node(*id).expect("restart torn replica");
        }
        ActiveFault::SnapshotCrash { group, follower } => {
            // Revive the lagging follower: the leader opens an
            // InstallSnapshot catch-up toward it...
            cluster
                .restart_node(*follower)
                .expect("restart lagging follower");
            std::thread::sleep(Duration::from_millis(20));
            // ...and dies mid-transfer. A crashed leader may also simply be
            // mid-election here — both are valid interruption points.
            let g = &cluster.taf_groups()[*group];
            if let Ok(l) = g.raft().wait_for_leader(Duration::from_secs(5)) {
                let lid = l.id();
                cluster.crash_node(lid).expect("crash leader mid-snapshot");
                std::thread::sleep(Duration::from_millis(30));
                cluster.restart_node(lid).expect("restart crashed leader");
            }
        }
    }
}

/// Reverts every fault class a schedule could leave behind — network heal,
/// drop-rate reset, fsync stalls, storage-device faults — and waits for each
/// group to converge on a single leader that can commit. `wait_ready` is not
/// enough for a post-run read: a revived deposed leader still claims the
/// role until a higher-term message reaches it, and would serve a stale
/// leader-local read.
fn heal_cluster(cluster: &CfsCluster) {
    let net = cluster.network();
    net.heal();
    net.set_drop_rate(0.0);
    let groups = cluster.replica_sets();
    for g in &groups {
        g.set_fsync_latency(Duration::ZERO);
        for (i, &id) in g.ids().iter().enumerate() {
            g.replica_faults(i).clear();
            net.revive(id);
        }
    }
    quiesce(cluster);
}

/// Waits for every group to commit a barrier under a single leader.
fn quiesce(cluster: &CfsCluster) {
    for g in cluster.replica_sets() {
        g.wait_quiescent(Duration::from_secs(30)).expect("quiesce");
    }
}

/// Writes `nemesis_dump_seed_<seed>.txt` into `CFS_NEMESIS_DUMP_DIR`, or the
/// working directory.
fn write_dump(seed: u64, text: &str) -> Option<PathBuf> {
    let dir = std::env::var("CFS_NEMESIS_DUMP_DIR").unwrap_or_else(|_| ".".to_string());
    let path = PathBuf::from(dir).join(format!("nemesis_dump_seed_{seed}.txt"));
    std::fs::write(&path, text).ok()?;
    Some(path)
}

/// A divergence dump: the seed, the divergence, the diverging operation's
/// cross-node trace tree, every stream's observed results, per-node metrics
/// snapshots, network stats, and the canonical op history.
fn render_dump(
    seed: u64,
    d: &Divergence,
    canonical: &str,
    outcomes: &[Vec<OpOutcome>],
    spans: &[cfs_obs::trace::SpanRecord],
    net_stats: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("seed={seed}\ndivergence: {d}\n\n"));
    out.push_str("trace of the diverging operation:\n");
    match d.op_index.and_then(|i| outcomes.get(d.thread)?.get(i)) {
        Some(&(_, tid)) if tid != 0 => {
            let rendered = cfs_obs::trace::render_trace(spans, tid);
            if rendered.is_empty() {
                out.push_str(&format!(
                    "  (trace {tid} not found: spans evicted from the ring buffer)\n"
                ));
            } else {
                out.push_str(&rendered);
            }
        }
        _ => out.push_str("  (final-state mismatch: no single diverging op to trace)\n"),
    }
    out.push_str("\nobserved results (wall-clock dependent):\n");
    for (t, stream) in outcomes.iter().enumerate() {
        for (i, (r, tid)) in stream.iter().enumerate() {
            out.push_str(&format!("  t{t}#{i} {r:?} trace={tid}\n"));
        }
    }
    out.push_str("\nper-node metrics snapshots:\n");
    out.push_str(&cfs_obs::metrics::snapshot_all().to_text());
    out.push_str("\n\nnetwork stats:\n");
    out.push_str(net_stats);
    out.push('\n');
    out.push_str(&format!(
        "\nspans captured: {} (evicted: {})\n",
        spans.len(),
        cfs_obs::trace::evicted()
    ));
    out.push_str("\ncanonical op history:\n");
    out.push_str(canonical);
    out
}

fn sleep_until(start: Instant, ms: u64) {
    let target = start + Duration::from_millis(ms);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// `root`'s subtree (which must exist) as path → is_dir, `root` included.
fn walk_subtree(fs: &impl FileSystem, root: &str) -> BTreeMap<String, bool> {
    let mut out: BTreeMap<String, bool> = walk_entries(fs, root)
        .into_iter()
        .map(|(path, e)| (path, e.ftype == FileType::Dir))
        .collect();
    out.insert(root.to_string(), true);
    out
}

/// Recursively lists `root` (which must exist) into `(path, entry)` pairs,
/// retrying transient errors — the cluster has healed, so persistent
/// failures here are themselves a test failure.
pub(crate) fn walk_entries(fs: &impl FileSystem, root: &str) -> Vec<(String, DirEntryInfo)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_string()];
    let deadline = Instant::now() + Duration::from_secs(30);
    while let Some(dir) = stack.pop() {
        let entries = loop {
            match fs.readdir(&dir) {
                Ok(es) => break es,
                Err(e) if e.is_retryable() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("readdir {dir} after heal failed: {e:?}"),
            }
        };
        for e in entries {
            let path = format!("{}/{}", dir.trim_end_matches('/'), e.name);
            if e.ftype == FileType::Dir {
                stack.push(path.clone());
            }
            out.push((path, e));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = NemesisSchedule::generate(7, 2, 2, 3);
        let b = NemesisSchedule::generate(7, 2, 2, 3);
        assert_eq!(a, b);
        let c = NemesisSchedule::generate(8, 2, 2, 3);
        assert_ne!(a, c);
        // Windows are disjoint and ordered.
        for w in a.windows.windows(2) {
            assert!(w[0].end_ms <= w[1].start_ms);
        }
    }

    #[test]
    fn extended_schedule_is_pure_and_restarts_target_taf_only() {
        let opts = NemesisOptions {
            families: &[FaultFamily::Restart, FaultFamily::SlowFsync],
            ..NemesisOptions::default()
        };
        let a = NemesisSchedule::generate_with(7, 2, 2, 3, &opts);
        assert_eq!(a, NemesisSchedule::generate_with(7, 2, 2, 3, &opts));
        // Default options reproduce the base plan exactly.
        assert_eq!(
            NemesisSchedule::generate(7, 2, 2, 3),
            NemesisSchedule::generate_with(7, 2, 2, 3, &NemesisOptions::default())
        );
        // Over many seeds: restarts only ever hit durable TafDB replicas,
        // fsync stalls stay in their stated band, and both classes actually
        // occur in the family.
        let (mut restarts, mut stalls) = (0, 0);
        for seed in 0..64 {
            for w in NemesisSchedule::generate_with(seed, 2, 2, 3, &opts).windows {
                match w.fault {
                    Fault::Restart(t) => {
                        assert!(t.taf, "restart must target a TafDB replica");
                        assert!(t.group < 2 && t.replica < 3);
                        restarts += 1;
                    }
                    Fault::SlowFsync(us) => {
                        assert!((500..3000).contains(&us), "stall out of band: {us}");
                        stalls += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(restarts > 0, "no Restart windows in 64 seeds");
        assert!(stalls > 0, "no SlowFsync windows in 64 seeds");
    }

    #[test]
    fn storage_schedule_is_pure_and_targets_both_planes() {
        let opts = NemesisOptions {
            families: &[
                FaultFamily::DiskFull,
                FaultFamily::TornWrite,
                FaultFamily::SnapshotCrash,
            ],
            ..NemesisOptions::default()
        };
        let a = NemesisSchedule::generate_with(7, 2, 2, 3, &opts);
        assert_eq!(a, NemesisSchedule::generate_with(7, 2, 2, 3, &opts));
        // Over many seeds: every storage fault hits a durable replica on a
        // valid plane (disk-full may land on TafDB or FileStore; torn-write
        // stays TafDB-only because it pairs with crash/restart), parameters
        // stay in their stated bands, and all three families occur.
        let (mut disk, mut disk_fs, mut torn, mut snap) = (0, 0, 0, 0);
        for seed in 0..64 {
            for w in NemesisSchedule::generate_with(seed, 2, 2, 3, &opts).windows {
                match w.fault {
                    Fault::DiskFull(t, budget) => {
                        assert!(t.group < 2 && t.replica < 3);
                        assert!(
                            (256..2048).contains(&budget),
                            "budget out of band: {budget}"
                        );
                        disk += 1;
                        if !t.taf {
                            disk_fs += 1;
                        }
                    }
                    Fault::TornWrite(t, ppm) => {
                        assert!(t.taf, "torn-write must target a TafDB replica");
                        assert!(t.group < 2 && t.replica < 3);
                        assert!((200_000..800_000).contains(&ppm), "tear out of band: {ppm}");
                        torn += 1;
                    }
                    Fault::SnapshotCrash { group, replica } => {
                        assert!(group < 2 && replica < 3);
                        snap += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(disk > 0, "no DiskFull windows in 64 seeds");
        assert!(disk_fs > 0, "no FileStore DiskFull windows in 64 seeds");
        assert!(torn > 0, "no TornWrite windows in 64 seeds");
        assert!(snap > 0, "no SnapshotCrash windows in 64 seeds");
    }

    #[test]
    fn storage_bands_append_after_existing_ones() {
        // The restart/slow-fsync combination predates the storage families;
        // its plans must not shift when the new flags stay off. Structural
        // guarantee: windows drawn from base bands (buckets 0..10) are
        // identical between a base plan and any extended plan whose extra
        // draws land outside those windows — asserted here for the only
        // overlap that is draw-for-draw comparable, the full legacy combo
        // against itself across the module boundary of the new arms.
        let legacy = NemesisOptions {
            families: &[FaultFamily::Restart, FaultFamily::SlowFsync],
            ..NemesisOptions::default()
        };
        for seed in 0..32 {
            let plan = NemesisSchedule::generate_with(seed, 2, 2, 3, &legacy);
            for w in &plan.windows {
                assert!(
                    !matches!(
                        w.fault,
                        Fault::DiskFull(..) | Fault::TornWrite(..) | Fault::SnapshotCrash { .. }
                    ),
                    "storage fault drawn without its flag: {}",
                    w.fault
                );
            }
        }
    }

    #[test]
    fn ops_are_a_pure_function_of_seed_and_thread() {
        assert_eq!(generate_ops(3, 0, 40), generate_ops(3, 0, 40));
        assert_ne!(generate_ops(3, 0, 40), generate_ops(3, 1, 40));
        assert_ne!(generate_ops(3, 0, 40), generate_ops(4, 0, 40));
        for op in generate_ops(11, 2, 200) {
            let p = match &op {
                NemOp::Create(p)
                | NemOp::Mkdir(p)
                | NemOp::Unlink(p)
                | NemOp::Rmdir(p)
                | NemOp::Rename(p, _)
                | NemOp::Setattr(p)
                | NemOp::Lookup(p) => p,
            };
            assert!(p.starts_with("/nem/c2/"), "op escaped its subtree: {op}");
        }
    }

    #[test]
    fn oracle_accepts_a_clean_history() {
        let ops = vec![
            NemOp::Mkdir("/nem/c0/d0".into()),
            NemOp::Create("/nem/c0/d0/f0".into()),
            NemOp::Create("/nem/c0/d0/f0".into()),
            NemOp::Rename("/nem/c0/d0/f0".into(), "/nem/c0/f1".into()),
            NemOp::Rmdir("/nem/c0/d0".into()),
        ];
        let results = vec![Ok(()), Ok(()), Err(FsError::AlreadyExists), Ok(()), Ok(())];
        let mut fin = BTreeMap::new();
        fin.insert("/nem/c0".to_string(), true);
        fin.insert("/nem/c0/f1".to_string(), false);
        check_thread_history(0, "/nem/c0", &ops, &results, &fin).unwrap();
    }

    #[test]
    fn oracle_forks_on_indeterminate_results() {
        // A create that timed out may or may not have applied; both final
        // states must be accepted.
        let ops = vec![NemOp::Create("/nem/c0/f0".into())];
        let results = vec![Err(FsError::Timeout)];
        let mut absent = BTreeMap::new();
        absent.insert("/nem/c0".to_string(), true);
        let mut present = absent.clone();
        present.insert("/nem/c0/f0".to_string(), false);
        check_thread_history(0, "/nem/c0", &ops, &results, &absent).unwrap();
        check_thread_history(0, "/nem/c0", &ops, &results, &present).unwrap();
    }

    #[test]
    fn oracle_accepts_self_collision_errors() {
        // First attempt applied, response lost, retry reports AlreadyExists:
        // the file must then exist.
        let ops = vec![NemOp::Create("/nem/c0/f0".into())];
        let results = vec![Err(FsError::AlreadyExists)];
        let mut present = BTreeMap::new();
        present.insert("/nem/c0".to_string(), true);
        present.insert("/nem/c0/f0".to_string(), false);
        check_thread_history(0, "/nem/c0", &ops, &results, &present).unwrap();
        // An error never commits anything, so the untouched namespace is
        // also legal (the kind may stem from a stale resolution read) —
        // but a *directory* at that name matches neither fork.
        let mut absent = BTreeMap::new();
        absent.insert("/nem/c0".to_string(), true);
        check_thread_history(0, "/nem/c0", &ops, &results, &absent).unwrap();
        let mut dir = BTreeMap::new();
        dir.insert("/nem/c0".to_string(), true);
        dir.insert("/nem/c0/f0".to_string(), true);
        assert!(check_thread_history(0, "/nem/c0", &ops, &results, &dir).is_err());
    }

    #[test]
    fn oracle_rejects_lost_acknowledged_writes() {
        let ops = vec![NemOp::Mkdir("/nem/c0/d0".into())];
        let results = vec![Ok(())];
        let mut fin = BTreeMap::new();
        fin.insert("/nem/c0".to_string(), true);
        let d = check_thread_history(0, "/nem/c0", &ops, &results, &fin).unwrap_err();
        assert!(d.op_index.is_none(), "should fail the final-state check");
    }

    #[test]
    fn oracle_rejects_impossible_successes() {
        // A create under a parent that cannot exist in any candidate must
        // not report Ok.
        let ops = vec![NemOp::Create("/nem/c0/d9/f0".into())];
        let results = vec![Ok(())];
        let mut fin = BTreeMap::new();
        fin.insert("/nem/c0".to_string(), true);
        let d = check_thread_history(0, "/nem/c0", &ops, &results, &fin).unwrap_err();
        assert_eq!(d.op_index, Some(0));
    }

    #[test]
    fn oracle_accepts_abandoned_op_landing_after_the_sequence() {
        // mkdir times out, a later rmdir of the same name succeeds (the
        // mkdir had not landed yet), and the abandoned mkdir then commits
        // after the workload ends: the directory is legally present.
        let ops = vec![
            NemOp::Mkdir("/nem/c0/d0".into()),
            NemOp::Rmdir("/nem/c0/d0".into()),
        ];
        let results = vec![Err(FsError::Timeout), Ok(())];
        let mut fin = BTreeMap::new();
        fin.insert("/nem/c0".to_string(), true);
        fin.insert("/nem/c0/d0".to_string(), true);
        check_thread_history(0, "/nem/c0", &ops, &results, &fin).unwrap();
    }

    #[test]
    fn divergence_dump_contains_seed_metrics_and_trace() {
        use cfs_obs::trace::SpanRecord;
        let d = Divergence {
            thread: 1,
            op_index: Some(2),
            detail: "test divergence".into(),
        };
        // A two-node trace for thread 1's op #2: client root + remote child.
        let spans = vec![
            SpanRecord {
                trace_id: 77,
                span_id: 1,
                parent: 0,
                node: 1_000_001,
                name: "fs.create",
                start_ns: 0,
                end_ns: 900,
            },
            SpanRecord {
                trace_id: 77,
                span_id: 2,
                parent: 1,
                node: 100,
                name: "rpc.handle",
                start_ns: 100,
                end_ns: 800,
            },
        ];
        let outcomes = vec![
            vec![(Ok(()), 0); 3],
            vec![(Ok(()), 0), (Ok(()), 0), (Ok(()), 77)],
        ];
        // A booted cluster registers every replica's instruments, so the
        // dump shows what each shard applied.
        let cluster = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
        cluster.client().mkdir("/dumped").expect("mkdir");
        let taf_node = cluster.taf_groups()[0].raft().nodes()[0].id().0;
        let dir = std::env::temp_dir().join(format!("cfs_dump_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("CFS_NEMESIS_DUMP_DIR", &dir);
        let text = render_dump(42, &d, "seed=42\n", &outcomes, &spans, "net{}");
        let path = write_dump(42, &text).expect("dump written");
        std::env::remove_var("CFS_NEMESIS_DUMP_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("nemesis_dump_seed_42.txt"));
        assert!(text.contains("seed=42"));
        assert!(text.contains("test divergence"));
        assert!(text.contains("fs.create"));
        assert!(text.contains("rpc.handle"));
        assert!(text.contains("per-node metrics snapshots:"));
        let taf_metrics = text
            .split_once(&format!("\"{taf_node}\": {{"))
            .expect("the dump has the TafDB node's registry")
            .1;
        assert!(taf_metrics.contains("\"shard_primitives\""));
        assert!(taf_metrics.contains("\"shard_txn_commits\""));
        assert!(text.contains("net{}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn divergence_dump_lists_every_streams_results() {
        let d = Divergence {
            thread: 0,
            op_index: None,
            detail: "hand-made final-state mismatch".into(),
        };
        let outcomes = vec![
            vec![(Ok(()), 11), (Err(FsError::Timeout), 12)],
            vec![(Err(FsError::NotDir), 0)],
        ];
        let text = render_dump(7, &d, "seed=7\n", &outcomes, &[], "net{}");
        assert!(text.contains("hand-made final-state mismatch"));
        assert!(text.contains("no single diverging op to trace"));
        let results = text
            .split_once("observed results (wall-clock dependent):\n")
            .expect("the dump has a results section")
            .1;
        for line in [
            "  t0#0 Ok(()) trace=11\n",
            "  t0#1 Err(Timeout) trace=12\n",
            "  t1#0 Err(NotDir) trace=0\n",
        ] {
            assert!(results.contains(line), "missing {line:?}");
        }
    }

    #[test]
    fn heal_cluster_clears_filestore_storage_faults() {
        use cfs_types::codec::Encode;
        let cluster = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
        let group = &cluster.fs_groups()[0];
        let disk = group.raft().storage(0);
        disk.set_extra_sync_latency(Duration::from_secs(5));
        cluster
            .set_disk_budget(group.raft().ids()[0], Some(0))
            .expect("cap log volume");

        heal_cluster(&cluster);

        let put = cfs_filestore::FileStoreRequest::PutAttr(cfs_types::Attr::new_file(
            cfs_types::InodeId(77),
            1,
        ));
        group
            .raft()
            .propose(put.to_bytes(), Duration::from_secs(10))
            .expect("a FileStore write commits");
        // The healed replica persists the write at normal speed: no byte
        // budget stops its append and no 5 s fsync stall delays it.
        let commit = group.raft().leader().expect("leader").commit_index();
        let deadline = Instant::now() + Duration::from_secs(2);
        while disk.last_index() < commit {
            assert!(
                Instant::now() < deadline,
                "the healed replica's log stays behind"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn canonical_log_is_reproducible() {
        let opts = NemesisOptions {
            ops_per_thread: 10,
            ..NemesisOptions::default()
        };
        let s = NemesisSchedule::generate(5, 2, 2, 3);
        assert_eq!(
            canonical_log_for(5, &opts, &s),
            canonical_log_for(5, &opts, &s)
        );
        assert!(canonical_log_for(5, &opts, &s).contains("seed=5"));
    }
}
