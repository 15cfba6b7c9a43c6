//! End-to-end graceful ENOSPC degradation: a cluster whose TafDB log
//! volumes run out of space must keep serving reads, reject mutations with
//! a retryable error the client backs off on (not a panic, not a silent
//! divergence), surface the degradation through the `raft_storage_degraded`
//! gauge, and resume full service once space returns.

use std::time::Duration;

use cfs_core::{CfsCluster, CfsConfig, FileSystem};

#[test]
fn enospc_shard_serves_reads_rejects_writes_retryably_and_recovers() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
    let client = cluster.client();
    client.mkdir("/dir").expect("mkdir before fault");
    client.create("/dir/before").expect("create before fault");

    // Starve every TafDB replica's log volume: no matter which shard owns
    // the target path, its next durable write fails with ENOSPC.
    let taf_ids: Vec<_> = cluster
        .taf_groups()
        .iter()
        .flat_map(|g| g.raft().nodes())
        .map(|n| n.id())
        .collect();
    for &id in &taf_ids {
        cluster.set_disk_budget(id, Some(0)).expect("cap volume");
    }

    std::thread::scope(|scope| {
        // A mutation against the starved volume: the shard answers with a
        // retryable error and the client backs off — so the call must still
        // be in flight when we look, not returned with a hard failure.
        let writer = {
            let c = cluster.client();
            scope.spawn(move || c.create("/dir/during"))
        };
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            !writer.is_finished(),
            "mutation returned during ENOSPC instead of backing off on a retryable error"
        );

        // The degraded shard still serves reads...
        client.lookup("/dir/before").expect("read while degraded");
        assert!(
            client
                .readdir("/dir")
                .expect("readdir while degraded")
                .iter()
                .any(|e| e.name == "before"),
            "pre-fault entry missing from a degraded-shard readdir"
        );

        // ...and the leader that took the failed append says so, both via
        // the API and the cfs-obs gauge.
        let degraded: Vec<_> = cluster
            .taf_groups()
            .iter()
            .flat_map(|g| g.raft().nodes())
            .filter(|n| n.storage_degraded())
            .map(|n| n.id())
            .collect();
        assert!(
            !degraded.is_empty(),
            "no TafDB replica marked itself storage-degraded under ENOSPC"
        );
        for id in &degraded {
            assert_eq!(
                cfs_obs::metrics::node(u64::from(id.0))
                    .gauge("raft_storage_degraded")
                    .get(),
                1,
                "degraded replica {} did not raise its gauge",
                id.0
            );
        }

        // Space returns: the backed-off mutation must now land on its own.
        for &id in &taf_ids {
            cluster.clear_storage_faults(id).expect("heal volume");
        }
        writer
            .join()
            .expect("writer thread")
            .expect("backed-off create must succeed once space returns");
    });

    // Full service is restored: new mutations apply, the degraded flag and
    // gauge drop on the next successful append, and everything reads back.
    client.create("/dir/after").expect("create after heal");
    for n in cluster.taf_groups().iter().flat_map(|g| g.raft().nodes()) {
        if n.storage_degraded() {
            panic!("replica {} still degraded after recovery", n.id().0);
        }
    }
    for p in ["/dir/before", "/dir/during", "/dir/after"] {
        client.lookup(p).expect("post-recovery read");
    }
    cluster.shutdown();
}

/// The FileStore side of the same story: its replicas sit on FaultFs-backed
/// log volumes too, so starving them degrades the *data* path (block writes
/// back off on the retryable ENOSPC) while the metadata path keeps working,
/// and healing the volumes lets the backed-off write land.
#[test]
fn enospc_filestore_degrades_data_path_and_recovers() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
    let client = cluster.client();
    client.create("/f").expect("create before fault");
    client
        .write("/f", 0, &[1u8; 64])
        .expect("write before fault");

    // Starve every FileStore replica's log volume.
    let fs_ids: Vec<_> = cluster
        .fs_groups()
        .iter()
        .flat_map(|g| g.raft().nodes())
        .map(|n| n.id())
        .collect();
    assert!(!fs_ids.is_empty());
    for &id in &fs_ids {
        cluster.set_disk_budget(id, Some(0)).expect("cap fs volume");
    }

    std::thread::scope(|scope| {
        let writer = {
            let c = cluster.client();
            scope.spawn(move || c.write("/f", 64, &[2u8; 64]))
        };
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            !writer.is_finished(),
            "block write returned during FileStore ENOSPC instead of backing off"
        );

        // The metadata plane stays readable: the TafDB volumes are healthy.
        // (Creates are *supposed* to stall too — a create acks only once its
        // FileStore attribute has committed, so the starved data plane backs
        // that path off as well.)
        client.lookup("/f").expect("lookup while fs degraded");
        assert!(
            client
                .readdir("/")
                .expect("readdir while fs degraded")
                .iter()
                .any(|e| e.name == "f"),
            "pre-fault entry missing while FileStore is degraded"
        );

        for &id in &fs_ids {
            cluster.clear_storage_faults(id).expect("heal fs volume");
        }
        writer
            .join()
            .expect("writer thread")
            .expect("backed-off block write must land once space returns");
    });

    assert_eq!(
        client.read("/f", 0, 128).expect("read after heal").len(),
        128
    );
    cluster.shutdown();
}
