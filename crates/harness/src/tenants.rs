//! Multi-tenant nemesis: per-volume workloads under the fault schedule.
//!
//! Each tenant mounts its own volume (isolated namespace, own inode-id band,
//! quota record, QoS bucket) and drives the same seeded op streams the base
//! nemesis uses, while the seed-derived fault schedule kills, isolates, and
//! degrades replicas underneath all of them. Two oracles judge the run:
//!
//! 1. The per-thread **divergence oracle** (shared with the base nemesis):
//!    every tenant thread's surviving history must be explainable by the
//!    reference model, and the healed namespace must match a candidate.
//! 2. The **isolation oracle**: walking a volume after heal, every inode id
//!    visible anywhere in its namespace must lie inside that volume's id
//!    band — a cross-tenant key leaking through a shard split, migration, or
//!    recovery path is a violation even if both tenants' histories check
//!    out individually. The default volume must stay empty: no tenant op
//!    may escape into the shared root namespace.
//!
//! A failing seed reproduces with `CFS_SIM_SEED=<seed>` exactly like the
//! base sweep.

use std::path::PathBuf;

use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_rpc::SimRng;
use cfs_types::VolumeId;

use crate::nemesis::{
    generate_ops_under, run_round, walk_entries, Divergence, NemesisSchedule, Stream,
};

/// Tenants (volumes) driven per run.
pub const TENANTS: usize = 2;
/// Workload threads per tenant.
pub const THREADS_PER_TENANT: usize = 2;

/// Stream label carving the tenant workload's pacing RNG out of the seed
/// (distinct from the base nemesis labels so the same seed draws fresh
/// streams here).
const LBL_TENANT_PACE: u64 = 0x7e4a_0001;

/// The per-tenant inode quota for nemesis runs: high enough that the
/// workload never hits it (quota *rejections* are exercised by dedicated
/// tests), low enough that the charge/release path runs on every op.
const NEMESIS_INODE_LIMIT: i64 = 100_000;

/// The subtree root owned by tenant thread `t` (inside its volume's
/// namespace — both tenants use the same paths, which is itself part of the
/// isolation story).
pub fn tenant_thread_root(t: usize) -> String {
    format!("/nem/c{t}")
}

/// One isolation violation: a key visible where it must not be.
#[derive(Clone, Debug)]
pub struct IsolationViolation {
    /// The tenant whose namespace surfaced the foreign key (`None`: the
    /// default volume surfaced tenant data).
    pub volume: Option<u16>,
    /// Human-readable explanation.
    pub detail: String,
}

/// Everything a tenant nemesis run yields.
pub struct TenantReport {
    /// The seed the run derived from.
    pub seed: u64,
    /// First divergence found across all tenant threads, if any.
    pub divergence: Option<Divergence>,
    /// The forensic dump written for `divergence`.
    pub dump_path: Option<PathBuf>,
    /// Cross-tenant isolation violations (empty on a clean run).
    pub isolation: Vec<IsolationViolation>,
    /// Per-tenant `(inodes, bytes)` quota usage read back after heal.
    pub usage: Vec<(i64, i64)>,
}

/// Boots a `test_small` cluster, creates [`TENANTS`] volumes, drives the
/// seed-derived per-tenant workloads under the seed-derived fault schedule,
/// heals, and runs both oracles.
pub fn run_tenant_nemesis(seed: u64, ops_per_thread: usize) -> TenantReport {
    let mut config = CfsConfig::test_small();
    config.net.seed = seed;
    let schedule = NemesisSchedule::generate(
        seed,
        config.taf_shards,
        config.filestore_nodes,
        config.replication,
    );

    let cluster = CfsCluster::start(config).expect("cluster boot");

    // One volume per tenant, each with a (generous) inode quota so every
    // create/unlink runs the charge/release path through the merge fields.
    let registry = cluster.volumes();
    let vols: Vec<VolumeId> = (0..TENANTS)
        .map(|i| {
            registry
                .create(&format!("tenant{i}"), Some(NEMESIS_INODE_LIMIT), None)
                .expect("create tenant volume")
                .id
        })
        .collect();

    // Pre-create the per-thread roots in every tenant namespace before any
    // fault opens.
    for &v in &vols {
        let setup = cluster.client_for_volume(v);
        setup.mkdir("/nem").expect("setup mkdir /nem");
        for t in 0..THREADS_PER_TENANT {
            setup
                .mkdir(&tenant_thread_root(t))
                .expect("setup thread root");
        }
    }

    // Per-(tenant, thread) streams: op streams are pure functions of the
    // seed. Both tenants draw *distinct* streams (stream index =
    // tenant*threads+t) over the *same* path universe, so colliding names
    // across tenants are the norm, not the exception. QoS admission is live
    // on every tenant client; the default share (2000 ops/s) never
    // throttles this workload, it just keeps the admission path under fault
    // coverage.
    let pace = SimRng::from_seed(seed).split(LBL_TENANT_PACE);
    let streams = (0..TENANTS * THREADS_PER_TENANT)
        .map(|i| {
            let (v, t) = (i / THREADS_PER_TENANT, i % THREADS_PER_TENANT);
            let root = tenant_thread_root(t);
            Stream {
                client: cluster.client_for_volume(vols[v]),
                ops: generate_ops_under(seed, i, ops_per_thread, &root),
                root,
                pace: pace.split(v as u64 + 1).split(t as u64 + 1),
            }
        })
        .collect();

    // Oracle 1, the per-tenant-thread divergence check, is the round's.
    let round = run_round(&cluster, seed, &schedule, streams, 0);

    // Oracle 2: isolation. Every inode id visible inside a tenant's
    // namespace must lie in that volume's band, and the default volume's
    // root must have stayed empty.
    let mut isolation = Vec::new();
    for (i, &v) in vols.iter().enumerate() {
        let walker = cluster.client_for_volume_unlimited(v);
        for (path, e) in walk_entries(&walker, "/") {
            let ino = e.ino;
            if ino.volume() != v {
                isolation.push(IsolationViolation {
                    volume: Some(v.0),
                    detail: format!(
                        "tenant{i} (vol {}) sees {path} with inode {:#x} from volume {}",
                        v.0,
                        ino.raw(),
                        ino.volume().0
                    ),
                });
            }
        }
    }
    let default_client = cluster.client();
    for (path, e) in walk_entries(&default_client, "/") {
        isolation.push(IsolationViolation {
            volume: None,
            detail: format!(
                "default volume sees {path} (inode {:#x}) — tenant data escaped",
                e.ino.raw()
            ),
        });
    }

    let usage = vols
        .iter()
        .map(|&v| registry.usage(v).expect("quota usage readback"))
        .collect();

    TenantReport {
        seed,
        divergence: round.divergence,
        dump_path: round.dump_path,
        isolation,
        usage,
    }
}

/// Formats a report's violations for a panic message.
pub fn isolation_summary(report: &TenantReport) -> String {
    report
        .isolation
        .iter()
        .map(|v| format!("  {}\n", v.detail))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_streams_are_pure_and_distinct_per_tenant() {
        let a = generate_ops_under(5, 0, 30, &tenant_thread_root(0));
        let b = generate_ops_under(5, 0, 30, &tenant_thread_root(0));
        assert_eq!(a, b);
        // Tenant 1's thread 0 draws stream index THREADS_PER_TENANT — a
        // different stream over the same path universe.
        let c = generate_ops_under(5, THREADS_PER_TENANT, 30, &tenant_thread_root(0));
        assert_ne!(a, c);
    }
}
