//! The shard's registry counters, read the way benches and dumps read them.
//!
//! One test, one process: every cluster places its TafDB replicas on the
//! same node ids and the registry hub is process-global, so exact agreement
//! between replicas can only be asserted where no second cluster runs.

use std::time::{Duration, Instant};

use cfs_core::{CfsCluster, CfsConfig, FileSystem};

#[test]
fn replicas_of_the_owning_shard_agree_on_applied_primitives() {
    const CREATES: u64 = 40;
    let c = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
    let fs = c.client();
    fs.mkdir("/d").unwrap();
    let dir = fs.lookup("/d").unwrap();
    for i in 0..CREATES {
        fs.create(&format!("/d/f{i}")).unwrap();
    }

    // Each create links its entry with one primitive on the shard that owns
    // the parent directory.
    let map = fs.taf().partition_map();
    let route = map.route(map.shard_for(dir));
    let group = c
        .taf_groups()
        .into_iter()
        .find(|g| g.raft().ids() == route.replicas())
        .expect("owning group");
    let nodes = group.raft().nodes();
    assert_eq!(nodes.len(), 3);
    // The client is done, so the leader has applied everything; followers
    // apply on the next append or heartbeat.
    let applied = || -> Vec<u64> {
        nodes
            .iter()
            .map(|n| n.state_machine().applied_index())
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let a = applied();
        if a.iter().all(|&i| i == a[0]) {
            break;
        }
        assert!(Instant::now() < deadline, "followers lag: {a:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The counter is bumped inside replicated apply: one replica has the
    // whole count, and the others the same one.
    let primitives: Vec<u64> = nodes
        .iter()
        .map(|n| {
            cfs_obs::metrics::node(u64::from(n.id().0))
                .counter("shard_primitives")
                .get()
        })
        .collect();
    assert!(primitives[0] >= CREATES, "{primitives:?}");
    assert!(
        primitives.iter().all(|&p| p == primitives[0]),
        "{primitives:?}"
    );
    // The same registries serve the divergence dump.
    let all = cfs_obs::metrics::snapshot_all().to_text();
    assert!(all.contains("shard_primitives") && all.contains("prim_hold_ns"));
}
