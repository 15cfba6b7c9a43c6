//! Multi-tenant volumes: the volume-aware nemesis sweep and quota edge cases.
//!
//! The sweep drives per-tenant workloads (each tenant mounted on its own
//! volume) under the seeded fault schedule and judges every run with two
//! oracles: the per-thread divergence oracle shared with the base nemesis,
//! and the isolation oracle (no inode from another tenant's id band — and
//! no tenant data in the default volume — may ever be visible). A failing
//! seed reproduces with `CFS_SIM_SEED=<seed>`.
//!
//! The edge-case tests pin the quota semantics: create at the exact limit,
//! release on unlink/rmdir, byte extension on write, and the cross-shard
//! reserve/compensate path racing two writers of one volume whose band
//! spans two shards.

use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_harness::nemesis::{sweep_seeds, NemesisOptions};
use cfs_harness::tenants::{isolation_summary, run_tenant_nemesis};
use cfs_types::{FsError, ShardId};

/// The CI sweep: ~20 seeds, each booting a cluster with two tenant volumes,
/// running their workloads through the fault schedule, and checking both
/// oracles plus quota-usage sanity (never negative after heal).
#[test]
fn volume_nemesis_sweep_passes_divergence_and_isolation_oracles() {
    const SALT: u64 = 0x7e4a_0000;
    let ops = NemesisOptions::default().ops_per_thread;
    for seed in sweep_seeds(SALT) {
        let report = run_tenant_nemesis(seed, ops);
        if let Some(d) = &report.divergence {
            panic!(
                "divergence at seed {seed}: {d}\n\
                 reproduce with: CFS_SIM_SEED={} CFS_NEMESIS_SEEDS=1 cargo test --test tenants volume_nemesis_sweep\n\
                 forensic dump (results, metrics, trace tree): {:?}",
                seed.wrapping_sub(SALT),
                report.dump_path
            );
        }
        assert!(
            report.isolation.is_empty(),
            "cross-tenant isolation violated at seed {seed}:\n{}",
            isolation_summary(&report)
        );
        for (i, (inodes, bytes)) in report.usage.iter().enumerate() {
            assert!(
                *inodes >= 0 && *bytes >= 0,
                "tenant{i} quota usage went negative at seed {seed}: \
                 ({inodes} inodes, {bytes} bytes)"
            );
        }
    }
}

/// Creating up to the exact inode limit succeeds; one past it is rejected
/// with `QuotaExceeded` and nothing is leaked into the namespace.
#[test]
fn create_at_the_exact_inode_limit_succeeds_then_rejects() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("boot");
    let reg = cluster.volumes();
    let vol = reg.create("edge", Some(3), None).expect("create volume").id;
    let c = cluster.client_for_volume_unlimited(vol);
    c.create("/f0").unwrap();
    c.create("/f1").unwrap();
    // The third create lands exactly at the limit.
    c.create("/f2").unwrap();
    assert_eq!(c.create("/f3").unwrap_err(), FsError::QuotaExceeded);
    assert_eq!(c.lookup("/f3").unwrap_err(), FsError::NotFound);
    assert_eq!(reg.usage(vol).unwrap(), (3, 0));
    assert_eq!(reg.limits(vol).unwrap(), (Some(3), None));
}

/// Unlink and rmdir hand their inodes back: a full volume becomes writable
/// again, and usage tracks the live inode count exactly.
#[test]
fn unlink_and_rmdir_release_quota() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("boot");
    let reg = cluster.volumes();
    let vol = reg
        .create("churn", Some(2), None)
        .expect("create volume")
        .id;
    let c = cluster.client_for_volume_unlimited(vol);
    c.mkdir("/d").unwrap();
    c.create("/f").unwrap();
    assert_eq!(c.create("/g").unwrap_err(), FsError::QuotaExceeded);
    assert_eq!(reg.usage(vol).unwrap(), (2, 0));

    c.unlink("/f").unwrap();
    assert_eq!(reg.usage(vol).unwrap().0, 1);
    c.create("/g").unwrap();
    assert_eq!(c.mkdir("/d2").unwrap_err(), FsError::QuotaExceeded);

    c.rmdir("/d").unwrap();
    assert_eq!(reg.usage(vol).unwrap().0, 1);
    c.mkdir("/d2").unwrap();
    assert_eq!(reg.usage(vol).unwrap().0, 2);
}

/// Byte quotas meter write *extensions*: overwrites inside the current size
/// are free, growth past the limit is rejected before any block lands, and
/// unlink returns the file's bytes.
#[test]
fn write_extensions_charge_bytes_and_unlink_returns_them() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("boot");
    let reg = cluster.volumes();
    let vol = reg
        .create("bytes", None, Some(1_000))
        .expect("create volume")
        .id;
    let c = cluster.client_for_volume_unlimited(vol);
    c.create("/f").unwrap();
    c.write("/f", 0, &[7u8; 600]).unwrap();
    assert_eq!(reg.usage(vol).unwrap().1, 600);
    // Overwriting the existing range is free.
    c.write("/f", 100, &[8u8; 200]).unwrap();
    assert_eq!(reg.usage(vol).unwrap().1, 600);
    // Extending past the byte limit is rejected up front.
    assert_eq!(
        c.write("/f", 600, &[9u8; 600]).unwrap_err(),
        FsError::QuotaExceeded
    );
    // ...but extending up to it is fine.
    c.write("/f", 600, &[9u8; 400]).unwrap();
    assert_eq!(reg.usage(vol).unwrap().1, 1_000);

    c.unlink("/f").unwrap();
    assert_eq!(reg.usage(vol).unwrap(), (0, 0));
    c.create("/g").unwrap();
    c.write("/g", 0, &[1u8; 1_000]).unwrap();
}

/// Two writers race one volume's last inode slots across *two shards* of the
/// volume's band (the quota record on the donor, one writer's directory on
/// the split receiver — the reserve-first/compensate-on-failure path). The
/// deterministic admission through the replicated merge fields must never
/// oversubscribe the limit, and after the dust settles usage must equal the
/// live inode count, for every seed of the sweep.
#[test]
fn quota_races_across_two_shards_never_oversubscribe() {
    // 2 setup dirs + 10 contended slots, 20 attempts racing for them.
    const SLOTS: i64 = 10;
    const LIMIT: i64 = 2 + SLOTS;
    for seed in sweep_seeds(0x0009_07a5) {
        let mut config = CfsConfig::test_small();
        config.net.seed = seed;
        let cluster = CfsCluster::start(config).expect("boot");
        let reg = cluster.volumes();
        let vol = reg
            .create("race", Some(LIMIT), None)
            .expect("create volume")
            .id;
        let setup = cluster.client_for_volume_unlimited(vol);
        setup.mkdir("/a").unwrap();
        setup.mkdir("/b").unwrap();
        let b_ino = setup.lookup("/b").unwrap();
        // Give the volume a second shard: everything from /b's kid up moves
        // to the receiver, while the quota record (the band's first kid)
        // stays on the donor. Charges under /b are now cross-shard.
        cluster
            .split_shard_at(ShardId(1), b_ino.raw())
            .expect("split volume band");

        let ok: usize = std::thread::scope(|scope| {
            let mk = |dir: &'static str| {
                let c = cluster.client_for_volume_unlimited(vol);
                scope.spawn(move || {
                    (0..SLOTS as usize * 2)
                        .filter(|i| c.create(&format!("{dir}/f{i}")).is_ok())
                        .count()
                })
            };
            let a = mk("/a");
            let b = mk("/b");
            a.join().unwrap() + b.join().unwrap()
        });
        assert!(
            ok as i64 <= SLOTS,
            "seed {seed}: {ok} creates admitted for {SLOTS} slots"
        );
        let (inodes, _) = reg.usage(vol).unwrap();
        assert!(
            inodes <= LIMIT,
            "seed {seed}: usage {inodes} oversubscribes limit {LIMIT}"
        );
        assert_eq!(
            inodes,
            2 + ok as i64,
            "seed {seed}: usage drifted from the live inode count \
             (compensation must restore failed reservations)"
        );
    }
}

/// Volume namespaces are disjoint even when paths collide, and volume ids /
/// root inodes never clash under concurrent registry creates.
#[test]
fn registry_creates_are_atomic_and_namespaces_disjoint() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("boot");
    let reg = cluster.volumes();
    // Concurrent creators must mint distinct volume ids (CAS on the
    // registry counter), and duplicate names must lose cleanly.
    let infos: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let reg = cluster.volumes();
                scope.spawn(move || reg.create(&format!("t{i}"), None, None).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut ids: Vec<u16> = infos.iter().map(|i| i.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "volume ids must be unique");
    assert_eq!(
        reg.create("t0", None, None).unwrap_err(),
        FsError::AlreadyExists
    );

    // Same path, two volumes, no interference.
    let a = cluster.client_for_volume(infos[0].id);
    let b = cluster.client_for_volume(infos[1].id);
    a.mkdir("/shared").unwrap();
    a.create("/shared/only-in-a").unwrap();
    b.mkdir("/shared").unwrap();
    assert_eq!(
        b.lookup("/shared/only-in-a").unwrap_err(),
        FsError::NotFound
    );
    let a_ino = a.lookup("/shared/only-in-a").unwrap();
    assert_eq!(a_ino.volume(), infos[0].id);
    // The default namespace never sees tenant entries.
    let root = cluster.client();
    assert_eq!(root.lookup("/shared").unwrap_err(), FsError::NotFound);
}
