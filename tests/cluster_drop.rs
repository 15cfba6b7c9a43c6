//! A dropped deployment frees itself: its network, the network's one-way
//! delivery workers and every replica's Raft thread go with it.
//!
//! One test in a binary of its own: it counts the process's threads, which a
//! concurrently running test would disturb.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use cfs_baselines::{BaselineCluster, Variant};
use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_rpc::Network;

/// The process's thread count, as `/proc/self/status` reports it.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits (bounded) until `net` can no longer be upgraded and the thread
/// count is back at `before`: stopped Raft threads exit on their next wake.
fn assert_freed(net: Weak<Network>, before: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let alive = net.upgrade().is_some();
        let now = threads();
        if !alive && now == before {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: network still alive: {alive}; {now} threads, {before} before the boot"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropped_clusters_free_their_network_and_threads() {
    for cycle in 0..4 {
        let before = threads();
        let cluster = CfsCluster::start(CfsConfig::default()).expect("cluster boot");
        let fs = cluster.client();
        fs.mkdir("/d").unwrap();
        for i in 0..50 {
            fs.create(&format!("/d/f{i}")).unwrap();
        }
        let net = Arc::downgrade(cluster.network());
        drop(fs);
        drop(cluster);
        assert_freed(net, before, &format!("CfsCluster, cycle {cycle}"));
    }

    let before = threads();
    let baseline =
        BaselineCluster::start(Variant::HopsFs, CfsConfig::test_small(), 1).expect("baseline boot");
    let fs = baseline.client();
    fs.mkdir("/d").unwrap();
    fs.create("/d/f").unwrap();
    let net = Arc::downgrade(baseline.network());
    drop(fs);
    drop(baseline);
    assert_freed(net, before, "BaselineCluster");
}
