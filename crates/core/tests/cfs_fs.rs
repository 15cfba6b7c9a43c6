//! End-to-end tests of the full CFS stack on a simulated cluster.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cfs_core::{CfsCluster, CfsConfig, FileSystem, GarbageCollector};
use cfs_filestore::SetAttrPatch;
use cfs_raft::Replicas;
use cfs_types::{FileType, FsError};

fn cluster() -> CfsCluster {
    CfsCluster::start(CfsConfig::test_small()).expect("cluster boot")
}

/// Every cluster numbers its clients from the same base and the registry hub
/// is process-global, so the collectors of the tests below report into one
/// node's `gc_*` counters: they take turns and compare against the values
/// they started from.
fn gc_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn gc_counter(gc: &GarbageCollector, name: &str) -> u64 {
    cfs_obs::metrics::node(gc.node().0 as u64)
        .counter(name)
        .get()
}

/// Waits until every replica of `g` has applied what its leader committed.
fn converge<S: cfs_raft::StateMachine>(g: &cfs_raft::RaftGroup<S>) {
    let timeout = Duration::from_secs(10);
    g.wait_quiescent(timeout).unwrap();
    let commit = g.wait_for_leader(timeout).unwrap().commit_index();
    let deadline = std::time::Instant::now() + timeout;
    while g.nodes().iter().any(|n| n.applied_index() < commit) {
        assert!(
            std::time::Instant::now() < deadline,
            "replicas never caught up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Waits until every replica of every group has applied all it committed.
fn quiesce(c: &CfsCluster) {
    for g in c.taf_groups() {
        converge(g.raft());
    }
    for g in c.fs_groups() {
        converge(g.raft());
    }
}

/// One collector pass over settled state: a cycle that sees every mutation
/// made so far, then one past the grace period that pairs it.
fn settle_and_sweep(c: &CfsCluster, gc: &GarbageCollector) {
    quiesce(c);
    gc.run_once().unwrap();
    std::thread::sleep(gc.grace + Duration::from_millis(50));
    gc.run_once().unwrap();
}

#[test]
fn create_getattr_unlink_lifecycle() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/work").unwrap();
    let ino = fs.create("/work/report.txt").unwrap();
    assert_eq!(fs.lookup("/work/report.txt").unwrap(), ino);
    let attr = fs.getattr("/work/report.txt").unwrap();
    assert_eq!(attr.ino, ino);
    assert_eq!(attr.ftype, FileType::File);
    assert_eq!(attr.size, 0);
    // Parent's children count reflects the create.
    assert_eq!(fs.getattr("/work").unwrap().children, 1);
    fs.unlink("/work/report.txt").unwrap();
    assert_eq!(
        fs.lookup("/work/report.txt").unwrap_err(),
        FsError::NotFound
    );
    assert_eq!(fs.getattr("/work").unwrap().children, 0);
}

#[test]
fn mkdir_rmdir_semantics() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    // Non-empty directory cannot be removed.
    assert_eq!(fs.rmdir("/a").unwrap_err(), FsError::NotEmpty);
    // rmdir on a file is NotDir; unlink on a dir is IsDir.
    fs.create("/a/f").unwrap();
    assert_eq!(fs.rmdir("/a/f").unwrap_err(), FsError::NotDir);
    assert_eq!(fs.unlink("/a/b").unwrap_err(), FsError::IsDir);
    fs.unlink("/a/f").unwrap();
    fs.rmdir("/a/b").unwrap();
    fs.rmdir("/a").unwrap();
    assert_eq!(fs.lookup("/a").unwrap_err(), FsError::NotFound);
}

#[test]
fn duplicate_and_missing_errors() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/d").unwrap();
    fs.create("/d/x").unwrap();
    assert_eq!(fs.create("/d/x").unwrap_err(), FsError::AlreadyExists);
    assert_eq!(fs.mkdir("/d").unwrap_err(), FsError::AlreadyExists);
    assert_eq!(fs.unlink("/d/ghost").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.getattr("/nope/x").unwrap_err(), FsError::NotFound);
    // Path through a file is NotDir.
    assert_eq!(fs.create("/d/x/y").unwrap_err(), FsError::NotDir);
}

#[test]
fn readdir_lists_everything_in_order() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/dir").unwrap();
    for name in ["zz", "aa", "mm"] {
        fs.create(&format!("/dir/{name}")).unwrap();
    }
    fs.mkdir("/dir/sub").unwrap();
    let entries = fs.readdir("/dir").unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["aa", "mm", "sub", "zz"]);
    assert_eq!(
        entries.iter().filter(|e| e.ftype == FileType::Dir).count(),
        1
    );
}

#[test]
fn setattr_files_and_dirs() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/s").unwrap();
    fs.create("/s/f").unwrap();
    fs.setattr(
        "/s/f",
        SetAttrPatch {
            mode: Some(0o600),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fs.getattr("/s/f").unwrap().mode, 0o600);
    fs.setattr(
        "/s",
        SetAttrPatch {
            mode: Some(0o700),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fs.getattr("/s").unwrap().mode, 0o700);
}

#[test]
fn fast_path_rename_same_directory() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/r").unwrap();
    let ino = fs.create("/r/old").unwrap();
    fs.rename("/r/old", "/r/new").unwrap();
    assert_eq!(fs.lookup("/r/new").unwrap(), ino);
    assert_eq!(fs.lookup("/r/old").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.getattr("/r").unwrap().children, 1);
}

#[test]
fn fast_path_rename_overwrites_destination() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/r").unwrap();
    let a = fs.create("/r/a").unwrap();
    fs.create("/r/b").unwrap();
    fs.rename("/r/a", "/r/b").unwrap();
    assert_eq!(fs.lookup("/r/b").unwrap(), a);
    assert_eq!(fs.getattr("/r").unwrap().children, 1);
    // The overwritten file's attribute is deleted (asynchronously).
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(fs.getattr("/r/b").unwrap().ino, a);
}

#[test]
fn normal_path_rename_across_directories() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/src").unwrap();
    fs.mkdir("/dst").unwrap();
    let ino = fs.create("/src/file").unwrap();
    fs.rename("/src/file", "/dst/moved").unwrap();
    assert_eq!(fs.lookup("/dst/moved").unwrap(), ino);
    assert_eq!(fs.lookup("/src/file").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.getattr("/src").unwrap().children, 0);
    assert_eq!(fs.getattr("/dst").unwrap().children, 1);
}

#[test]
fn directory_rename_moves_subtree() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/p1").unwrap();
    fs.mkdir("/p2").unwrap();
    fs.mkdir("/p1/sub").unwrap();
    fs.create("/p1/sub/leaf").unwrap();
    fs.rename("/p1/sub", "/p2/sub").unwrap();
    assert!(fs.lookup("/p2/sub/leaf").is_ok());
    assert_eq!(fs.lookup("/p1/sub").unwrap_err(), FsError::NotFound);
    // Link counts moved with the directory.
    assert_eq!(fs.getattr("/p1").unwrap().links, 2);
    assert_eq!(fs.getattr("/p2").unwrap().links, 3);
}

#[test]
fn rename_into_own_subtree_is_rejected() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/top").unwrap();
    fs.mkdir("/top/mid").unwrap();
    fs.mkdir("/top/mid/deep").unwrap();
    // Moving /top under its own descendant would orphan the loop.
    assert_eq!(
        fs.rename("/top", "/top/mid/deep/evil").unwrap_err(),
        FsError::Loop
    );
    // And directly onto a descendant parent.
    assert_eq!(
        fs.rename("/top/mid", "/top/mid/deep/x").unwrap_err(),
        FsError::Loop
    );
    // The hierarchy is intact afterwards.
    assert!(fs.lookup("/top/mid/deep").is_ok());
}

#[test]
fn rename_dir_onto_nonempty_dir_fails() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    fs.create("/b/occupied").unwrap();
    assert_eq!(fs.rename("/a", "/b").unwrap_err(), FsError::NotEmpty);
    // Onto an empty dir succeeds.
    fs.unlink("/b/occupied").unwrap();
    fs.rename("/a", "/b").unwrap();
    assert!(fs.lookup("/b").is_ok());
    assert_eq!(fs.lookup("/a").unwrap_err(), FsError::NotFound);
}

#[test]
fn symlink_round_trip() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/links").unwrap();
    fs.create("/links/target").unwrap();
    fs.symlink("/links/target", "/links/alias").unwrap();
    assert_eq!(fs.readlink("/links/alias").unwrap(), "/links/target");
    let attr = fs.getattr("/links/alias").unwrap();
    assert_eq!(attr.ftype, FileType::Symlink);
    fs.unlink("/links/alias").unwrap();
    assert!(fs.lookup("/links/target").is_ok());
}

#[test]
fn data_write_read_round_trip() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/data").unwrap();
    fs.create("/data/blob").unwrap();
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    fs.write("/data/blob", 0, &payload).unwrap();
    assert_eq!(fs.getattr("/data/blob").unwrap().size, payload.len() as u64);
    let got = fs.read("/data/blob", 0, payload.len()).unwrap();
    assert_eq!(got, payload);
    // Partial read at an unaligned offset.
    let got = fs.read("/data/blob", 100_001, 1234).unwrap();
    assert_eq!(got, payload[100_001..100_001 + 1234]);
    // Overwrite in the middle.
    fs.write("/data/blob", 50_000, &[0xAB; 100]).unwrap();
    let got = fs.read("/data/blob", 49_999, 102).unwrap();
    assert_eq!(got[0], payload[49_999]);
    assert!(got[1..101].iter().all(|&b| b == 0xAB));
}

#[test]
fn concurrent_creates_in_shared_directory_are_all_counted() {
    let c = Arc::new(cluster());
    let fs = c.client();
    fs.mkdir("/shared").unwrap();
    let threads = 8;
    let per = 25;
    let mut handles = Vec::new();
    for t in 0..threads {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let fs = c.client();
            for i in 0..per {
                fs.create(&format!("/shared/f-{t}-{i}")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // No lost updates: the children counter equals the number of entries
    // (the exact anomaly §3.1 describes is absent despite lock-free merges).
    let attr = fs.getattr("/shared").unwrap();
    assert_eq!(attr.children as usize, threads * per);
    assert_eq!(fs.readdir("/shared").unwrap().len(), threads * per);
}

#[test]
fn gc_reclaims_orphaned_create_attr() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/g").unwrap();
    // Model a client crash between the FileStore and TafDB phases.
    let orphan = fs.create_crash_before_link("/g/ghost").unwrap();
    assert!(fs.filestore().get_attr(orphan).unwrap().is_some());
    // Also perform a healthy create: it must be left alone.
    let live = fs.create("/g/alive").unwrap();
    let _turn = gc_turn();
    let gc = c.garbage_collector(Duration::from_millis(100));
    let removed_before = gc_counter(&gc, "gc_orphan_attrs_removed");
    // Run cycles until the orphan's row has outlived the grace period and
    // the orphan is collected (bounded).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fs.filestore().get_attr(orphan).unwrap().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned attribute must be collected"
        );
        gc.run_once().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    assert!(fs.filestore().get_attr(live).unwrap().is_some());
    assert_eq!(
        gc_counter(&gc, "gc_orphan_attrs_removed") - removed_before,
        1
    );
}

#[test]
fn gc_reclaims_attr_after_crashed_unlink() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/g2").unwrap();
    let ino = fs.create("/g2/doomed").unwrap();
    let _turn = gc_turn();
    let gc = c.garbage_collector(Duration::from_millis(100));
    // Pair and trim the create's rows first, so the unlink below is the only
    // thing left to pair.
    settle_and_sweep(&c, &gc);
    // Crash after the TafDB unlink but before the FileStore deletion.
    let gone = fs.unlink_crash_before_filestore("/g2/doomed").unwrap();
    assert_eq!(gone, ino);
    assert!(fs.filestore().get_attr(ino).unwrap().is_some());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fs.filestore().get_attr(ino).unwrap().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "stale attribute must be collected after crashed unlink"
        );
        gc.run_once().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
}

#[test]
fn in_flight_create_survives_a_concurrent_getattr() {
    // Elections slow enough that a 200 ms fsync cannot set one off.
    let mut config = CfsConfig::test_small();
    config.raft.election_timeout_min = Duration::from_millis(1_000);
    config.raft.election_timeout_max = Duration::from_millis(1_500);
    let c = CfsCluster::start(config).expect("cluster boot");
    let (writer, reader) = (c.client(), c.client());
    writer.mkdir("/race").unwrap();
    // Every FileStore commit now waits on a slow disk, so the create's
    // attribute lands long after its link.
    for g in c.fs_groups() {
        g.set_fsync_latency(Duration::from_millis(200));
    }
    let (ino, seen_in_flight) = std::thread::scope(|s| {
        let create = s.spawn(|| writer.create("/race/f"));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !reader
            .readdir("/race")
            .unwrap()
            .iter()
            .any(|e| e.name == "f")
        {
            assert!(
                std::time::Instant::now() < deadline,
                "the link never showed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Linked, attribute still in flight: the reader sees NotFound and
        // must not take the link for a crashed create's.
        let got = reader.getattr("/race/f");
        let in_flight = !create.is_finished();
        if in_flight {
            assert_eq!(got.unwrap_err(), FsError::NotFound);
        }
        (create.join().unwrap().unwrap(), in_flight)
    });
    assert!(seen_in_flight, "the getattr ran after the create returned");
    for g in c.fs_groups() {
        g.set_fsync_latency(Duration::ZERO);
    }
    assert_eq!(reader.lookup("/race/f").unwrap(), ino);
    assert_eq!(reader.getattr("/race/f").unwrap().ino, ino);
    assert_eq!(reader.getattr("/race").unwrap().children, 1);
}

#[test]
fn create_whose_attribute_write_fails_leaves_no_entry() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/full").unwrap();
    let fs_ids: Vec<_> = c
        .fs_groups()
        .iter()
        .flat_map(|g| g.raft().nodes())
        .map(|n| n.id())
        .collect();
    for &id in &fs_ids {
        c.set_disk_budget(id, Some(0)).unwrap();
    }
    // The link commits; the attribute write backs off on ENOSPC until the
    // client gives up, and the create then removes its own link.
    assert!(fs.create("/full/f").is_err());
    assert!(fs.readdir("/full").unwrap().is_empty());
    assert_eq!(fs.getattr("/full").unwrap().children, 0);
    for &id in &fs_ids {
        c.clear_storage_faults(id).unwrap();
    }
    fs.create("/full/f").unwrap();
    assert_eq!(fs.readdir("/full").unwrap().len(), 1);
}

#[test]
fn gc_unlinks_a_create_whose_attribute_never_landed() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/gd").unwrap();
    // A client crash while a create's two writes were in flight, after the
    // link landed and before the attribute did.
    let ghost = fs.create_crash_before_attr("/gd/ghost").unwrap();
    // A live file left holding only its `Linked` row: its attribute row was
    // trimmed, as by a collector whose second trim failed.
    let live = fs.create("/gd/alive").unwrap();
    quiesce(&c);
    let node = fs.filestore().layout().node_for(live);
    let attr_rows: Vec<_> = fs
        .filestore()
        .pending(node)
        .unwrap()
        .into_iter()
        .filter(|r| r.ino == live)
        .collect();
    assert_eq!(attr_rows.len(), 1);
    fs.filestore().gc_trim(node, attr_rows).unwrap();

    // A reader reports the dangling link NotFound and leaves it alone.
    assert_eq!(fs.getattr("/gd/ghost").unwrap_err(), FsError::NotFound);
    assert_eq!(fs.lookup("/gd/ghost").unwrap(), ghost);

    let _turn = gc_turn();
    let gc = c.garbage_collector(Duration::from_millis(100));
    let repaired_before = gc_counter(&gc, "gc_dangling_entries_repaired");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fs.readdir("/gd").unwrap().iter().any(|e| e.name == "ghost") {
        assert!(
            std::time::Instant::now() < deadline,
            "the dangling link must be collected"
        );
        gc.run_once().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    settle_and_sweep(&c, &gc);
    assert_eq!(
        gc_counter(&gc, "gc_dangling_entries_repaired") - repaired_before,
        1
    );
    assert_eq!(fs.getattr("/gd/alive").unwrap().ino, live);
    assert_eq!(fs.getattr("/gd").unwrap().children, 1);
}

#[test]
fn survives_taf_shard_leader_failover() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/ha").unwrap();
    fs.create("/ha/before").unwrap();
    let leader = c.taf_groups()[0].raft().leader().unwrap();
    c.network().kill(leader.id());
    // Operations keep working through the new leader.
    fs.create("/ha/after").unwrap();
    assert!(fs.lookup("/ha/before").is_ok());
    assert!(fs.lookup("/ha/after").is_ok());
}

/// Crash/restart and storage faults reach a replica by its address alone,
/// whichever group serves it: a split receiver, a FileStore group or an
/// original shard. An address no group serves is rejected.
#[test]
fn replica_controls_reach_every_tier_and_split_receivers() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/rc").unwrap();
    for i in 0..40 {
        fs.create(&format!("/rc/f{i}")).unwrap();
    }
    c.split_shard(cfs_types::ShardId(0)).expect("split");
    let groups: [Arc<dyn Replicas>; 3] = [
        c.taf_groups().last().unwrap().clone(),
        c.fs_groups()[0].clone(),
        c.taf_groups()[0].clone(),
    ];
    for g in groups {
        let id = g.ids()[1];
        c.crash_node(id).unwrap();
        assert!(c.network().is_dead(id));
        c.restart_node(id).unwrap();
        assert!(!c.network().is_dead(id));
        c.set_disk_budget(id, Some(0)).unwrap();
        let capped = c.replica_faults(id).unwrap();
        assert!(Arc::ptr_eq(&capped, &g.replica_faults(1)));
        c.clear_storage_faults(id).unwrap();
    }
    quiesce(&c);
    assert_eq!(fs.readdir("/rc").unwrap().len(), 40);

    let unknown = cfs_types::NodeId(7);
    assert!(matches!(c.crash_node(unknown), Err(FsError::Invalid(_))));
    assert!(matches!(c.restart_node(unknown), Err(FsError::Invalid(_))));
    assert!(matches!(
        c.set_disk_budget(unknown, None),
        Err(FsError::Invalid(_))
    ));
    assert!(matches!(
        c.clear_storage_faults(unknown),
        Err(FsError::Invalid(_))
    ));
}

#[test]
fn rename_same_path_is_noop_and_missing_fails() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/n").unwrap();
    fs.create("/n/f").unwrap();
    fs.rename("/n/f", "/n/f").unwrap();
    assert!(fs.lookup("/n/f").is_ok());
    assert_eq!(
        fs.rename("/n/ghost", "/n/x").unwrap_err(),
        FsError::NotFound
    );
}

#[test]
fn plain_unlink_after_a_sweep_is_not_counted_as_a_repair() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/pu").unwrap();
    let _turn = gc_turn();
    let gc = c.garbage_collector(Duration::from_millis(100));
    let removed = |gc: &GarbageCollector| {
        (
            gc_counter(gc, "gc_orphan_attrs_removed"),
            gc_counter(gc, "gc_stale_attrs_removed"),
        )
    };
    let ino = fs.create("/pu/f").unwrap();
    settle_and_sweep(&c, &gc);
    let before = removed(&gc);
    // The create was paired in an earlier cycle, so the unlink's two deletes
    // pair with nothing — but both happened, and nothing needs repair.
    fs.unlink("/pu/f").unwrap();
    settle_and_sweep(&c, &gc);
    assert_eq!(fs.filestore().get_attr(ino).unwrap(), None);
    assert_eq!(removed(&gc), before, "a plain unlink repairs nothing");
}

/// The pending rows on every replica of every group, by group.
fn pending_by_replica(c: &CfsCluster) -> Vec<Vec<Vec<cfs_types::PendingRow>>> {
    let taf = c.taf_groups().into_iter().map(|g| {
        g.raft()
            .nodes()
            .iter()
            .map(|n| n.state_machine().pending_rows())
            .collect()
    });
    let fs = c.fs_groups().iter().map(|g| {
        g.raft()
            .nodes()
            .iter()
            .map(|n| n.state_machine().pending_rows())
            .collect()
    });
    taf.chain(fs).collect()
}

#[test]
fn collector_survives_replica_zero_returning_by_install_snapshot() {
    let c = cluster();
    let threshold = c.config().raft.snapshot_threshold;
    let fs = c.client();
    fs.mkdir("/gis").unwrap();
    // An orphaned attribute (client crash between the FileStore and TafDB
    // phases) beside a healthy file.
    let orphan = fs.create_crash_before_link("/gis/ghost").unwrap();
    let mut live = vec![fs.create("/gis/alive").unwrap()];

    // kill −9 replica 0 of every TafDB group and keep committing until the
    // leaders have compacted past what it holds: it can only come back by
    // InstallSnapshot, never applying the creates the image covers.
    let victims: Vec<_> = c
        .taf_groups()
        .iter()
        .map(|g| {
            let n = &g.raft().nodes()[0];
            (n.id(), n.applied_index())
        })
        .collect();
    for (id, _) in &victims {
        c.crash_node(*id).expect("crash replica 0");
    }
    for i in 0..2 * threshold + 20 {
        live.push(fs.create(&format!("/gis/f{i}")).unwrap());
    }
    // Replica 0 was stopped, not dropped, so ask the two live replicas.
    let by_snapshot = c.taf_groups().iter().zip(&victims).any(|(g, (_, at))| {
        g.raft().nodes()[1..]
            .iter()
            .all(|n| n.snapshot_index() > *at)
    });
    assert!(by_snapshot, "a leader compacted past its crashed replica 0");
    for (id, _) in &victims {
        c.restart_node(*id).expect("restart replica 0");
    }
    quiesce(&c);
    // The image carried the pending rows: every replica agrees.
    for group in pending_by_replica(&c) {
        assert!(group.windows(2).all(|w| w[0] == w[1]));
    }

    let _turn = gc_turn();
    let gc = c.garbage_collector(Duration::from_millis(100));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fs.filestore().get_attr(orphan).unwrap().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "the orphan was never collected"
        );
        gc.run_once().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }
    settle_and_sweep(&c, &gc);
    for ino in &live {
        assert!(
            fs.filestore().get_attr(*ino).unwrap().is_some(),
            "live file {ino:?} lost its attribute"
        );
    }
    fs.lookup("/gis/alive").unwrap();
}

#[test]
fn create_unlink_churn_leaves_no_pending_rows_without_a_collector() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/churn").unwrap();
    quiesce(&c);
    let before = pending_by_replica(&c);
    for round in 0..3 {
        for i in 0..40 {
            let path = format!("/churn/f{round}_{i}");
            fs.create(&path).unwrap();
            fs.unlink(&path).unwrap();
        }
    }
    quiesce(&c);
    let after = pending_by_replica(&c);
    // Every create is balanced by its unlink: not one row was added, and
    // once applied indices agree every replica holds the same rows.
    assert_eq!(after, before);
    for group in &after {
        assert!(group.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn filestore_replica_restarts_from_snapshot_and_tail() {
    let c = cluster();
    let threshold = c.config().raft.snapshot_threshold;
    let fs = c.client();
    fs.mkdir("/fsr").unwrap();
    let files = 3 * threshold;
    for i in 0..files {
        let path = format!("/fsr/f{i}");
        fs.create(&path).unwrap();
        if i % 8 == 0 {
            fs.write(&path, 0, &[i as u8; 300]).unwrap();
        }
    }
    let group = &c.fs_groups()[0];
    let leader = group
        .raft()
        .wait_for_leader(Duration::from_secs(10))
        .unwrap();
    assert!(
        leader.snapshot_index() >= threshold,
        "{files} creates over two groups compact each group's log"
    );
    let victim = group
        .raft()
        .nodes()
        .into_iter()
        .find(|n| n.id() != leader.id())
        .unwrap()
        .id();
    c.crash_node(victim).expect("crash filestore replica");
    // The group keeps committing with two of three replicas.
    for i in files..files + 20 {
        fs.create(&format!("/fsr/f{i}")).unwrap();
    }
    c.restart_node(victim).expect("rebuild filestore replica");
    let node = group
        .raft()
        .nodes()
        .into_iter()
        .find(|n| n.id() == victim)
        .unwrap();
    assert!(
        node.snapshot_index() > 0,
        "recovery started from a snapshot"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while node.applied_index() < leader.commit_index() {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (rebuilt, reference) = (node.state_machine(), leader.state_machine());
    let inos = reference.list_attr_inos();
    assert!(!inos.is_empty());
    assert_eq!(rebuilt.list_attr_inos(), inos);
    let mut blocks = 0;
    for ino in inos {
        assert_eq!(rebuilt.get_attr(ino), reference.get_attr(ino));
        let block = cfs_types::BlockId { ino, index: 0 };
        assert_eq!(rebuilt.read_block(block), reference.read_block(block));
        blocks += usize::from(reference.read_block(block).is_some());
    }
    assert!(blocks > 0, "the group under test holds data blocks");
    assert!(
        node.log_len() < 2 * threshold,
        "the rebuilt replica's log stays compacted: {}",
        node.log_len()
    );
}
