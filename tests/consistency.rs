//! Cross-cutting consistency invariants under concurrency and failure
//! injection — the §3.1 anomalies (corrupted mappings, lost updates) must be
//! absent despite CFS' pruned critical sections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cfs::core::{CfsCluster, CfsConfig, FileSystem};
use cfs::types::FsError;

fn cluster() -> Arc<CfsCluster> {
    Arc::new(CfsCluster::start(CfsConfig::test_small()).expect("boot"))
}

/// §3.1 lost-update anomaly: concurrent creates+unlinks under one parent,
/// final children counter must equal the surviving entries exactly.
#[test]
fn children_counter_exact_under_concurrent_churn() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/churn").unwrap();
    let threads = 6;
    let rounds = 30;
    std::thread::scope(|s| {
        for t in 0..threads {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                for i in 0..rounds {
                    let p = format!("/churn/t{t}-{i}");
                    fs.create(&p).unwrap();
                    if i % 2 == 0 {
                        fs.unlink(&p).unwrap();
                    }
                }
            });
        }
    });
    let listing = fs.readdir("/churn").unwrap();
    let attr = fs.getattr("/churn").unwrap();
    assert_eq!(
        attr.children as usize,
        listing.len(),
        "children counter must equal live entries after concurrent churn"
    );
    assert_eq!(listing.len(), threads * rounds / 2);
}

/// Concurrent mkdir+rmdir churn: link counts stay exact.
#[test]
fn link_counter_exact_under_concurrent_dir_churn() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/dirs").unwrap();
    let threads = 4;
    let rounds = 20;
    std::thread::scope(|s| {
        for t in 0..threads {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                for i in 0..rounds {
                    let p = format!("/dirs/d{t}-{i}");
                    fs.mkdir(&p).unwrap();
                    if i % 2 == 1 {
                        fs.rmdir(&p).unwrap();
                    }
                }
            });
        }
    });
    let live_dirs = fs.readdir("/dirs").unwrap().len();
    let attr = fs.getattr("/dirs").unwrap();
    assert_eq!(attr.children as usize, live_dirs);
    assert_eq!(
        attr.links as usize,
        2 + live_dirs,
        "dir link count = 2 + child dirs"
    );
}

/// Two clients race to create the same name: exactly one wins, and the
/// loser's orphaned FileStore attribute is eventually collected.
#[test]
fn create_race_has_exactly_one_winner() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/race").unwrap();
    let wins = Arc::new(AtomicUsize::new(0));
    let losses = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let c = Arc::clone(&c);
            let wins = Arc::clone(&wins);
            let losses = Arc::clone(&losses);
            s.spawn(move || {
                let fs = c.client();
                for i in 0..25 {
                    match fs.create(&format!("/race/target-{i}")) {
                        Ok(_) => {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FsError::AlreadyExists) => {
                            losses.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        wins.load(Ordering::Relaxed),
        25,
        "exactly one winner per name"
    );
    assert_eq!(losses.load(Ordering::Relaxed), 75);
    assert_eq!(fs.getattr("/race").unwrap().children, 25);
    // GC reclaims every loser's orphaned attribute.
    // This binary's only collector; the hub is process-global, so count
    // from where its node's counter stands.
    let gc = c.garbage_collector(Duration::from_millis(100));
    let orphans = cfs_obs::metrics::node(gc.node().0 as u64).counter("gc_orphan_attrs_removed");
    let before = orphans.get();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        gc.run_once().unwrap();
        let removed = orphans.get() - before;
        if removed >= 75 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "GC must reclaim all 75 orphaned attributes, got {removed}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Concurrent fast-path renames of disjoint files in one directory keep the
/// namespace and counters exact.
#[test]
fn concurrent_fast_path_renames_keep_counters() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/fr").unwrap();
    for i in 0..24 {
        fs.create(&format!("/fr/a{i}")).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                for i in (t..24).step_by(4) {
                    fs.rename(&format!("/fr/a{i}"), &format!("/fr/b{i}"))
                        .unwrap();
                }
            });
        }
    });
    let listing = fs.readdir("/fr").unwrap();
    assert_eq!(listing.len(), 24);
    assert!(listing.iter().all(|e| e.name.starts_with('b')));
    assert_eq!(fs.getattr("/fr").unwrap().children, 24);
}

/// Renames racing with creates/unlinks in the same directory never corrupt
/// the mapping: every surviving name resolves, counters match.
#[test]
fn renames_race_creates_without_corruption() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/mix").unwrap();
    std::thread::scope(|s| {
        // Renamer thread ping-pongs one file.
        {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                fs.create("/mix/pivot").unwrap();
                for i in 0..20 {
                    let (a, b) = if i % 2 == 0 {
                        ("/mix/pivot", "/mix/pivot2")
                    } else {
                        ("/mix/pivot2", "/mix/pivot")
                    };
                    fs.rename(a, b).unwrap();
                }
            });
        }
        // Creator threads fill the same directory.
        for t in 0..3 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let fs = c.client();
                for i in 0..25 {
                    fs.create(&format!("/mix/f{t}-{i}")).unwrap();
                }
            });
        }
    });
    let listing = fs.readdir("/mix").unwrap();
    assert_eq!(listing.len(), 3 * 25 + 1);
    assert_eq!(fs.getattr("/mix").unwrap().children as usize, listing.len());
    for e in &listing {
        assert!(
            fs.lookup(&format!("/mix/{}", e.name)).is_ok(),
            "dangling {e:?}"
        );
    }
}

/// Shard leader failover mid-churn: no committed entry lost, counters exact.
#[test]
fn failover_mid_churn_preserves_consistency() {
    let c = cluster();
    let fs = c.client();
    fs.mkdir("/fo").unwrap();
    let created = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for t in 0..3 {
            let c = Arc::clone(&c);
            let created = Arc::clone(&created);
            s.spawn(move || {
                let fs = c.client();
                for i in 0..30 {
                    fs.create(&format!("/fo/k{t}-{i}")).unwrap();
                    created.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Kill a shard leader partway through.
        {
            let c = Arc::clone(&c);
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                if let Some(leader) = c.taf_groups()[0].raft().leader() {
                    c.network().kill(leader.id());
                }
            });
        }
    });
    let n = created.load(Ordering::Relaxed);
    assert_eq!(n, 90, "every create eventually succeeded despite failover");
    assert_eq!(fs.readdir("/fo").unwrap().len(), n);
    assert_eq!(fs.getattr("/fo").unwrap().children as usize, n);
}
