//! Shared support for the figure/table benchmark targets.
//!
//! Every bench target (one per paper table/figure, see DESIGN.md §3) builds
//! its clusters through [`bench_cfs_config`] so all systems run with
//! identical substrate parameters, and prints through the helpers here so
//! output is uniform: a header naming the experiment, the parameter values,
//! the measured rows, and the paper's qualitative expectation for the shape.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use cfs_core::CfsConfig;
use cfs_harness::bench_scale;
use cfs_raft::ReplicaSet;
use cfs_rpc::mux::CH_APP;
use cfs_rpc::{NetConfig, Service, SimLatency};
use cfs_tafdb::TafShard;
use cfs_types::NodeId;
use parking_lot::Mutex;

/// Simulated one-way network hop cost used by all figure benches. Chosen in
/// the tens of microseconds — datacenter scale — so that holding locks
/// *across* round trips (the baselines) costs visibly more than executing a
/// single shard-local command (CFS).
pub const HOP_LATENCY: Duration = Duration::from_micros(25);

/// Cluster shape shared by every system under test in the figure benches.
pub fn bench_cfs_config(taf_shards: usize, filestore_nodes: usize) -> CfsConfig {
    CfsConfig {
        taf_shards,
        filestore_nodes,
        replication: 3,
        net: NetConfig {
            hop_latency: SimLatency::fixed(HOP_LATENCY),
            oneway_workers: 4,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Simulated storage service time in front of every TafDB replica, for the
/// benches whose claim is about capacity the host does not have (more shards
/// or more replicas than cores). Each replica is one capacity unit: a client
/// request to it queues behind a per-replica gate for `cost`, then runs the
/// replica's real `CH_APP` handler. The production code knows nothing of it.
pub struct ServiceTime {
    cost: Duration,
    mounted: HashSet<NodeId>,
}

impl ServiceTime {
    /// A service time of `cost` per request, mounted nowhere yet.
    pub fn new(cost: Duration) -> ServiceTime {
        ServiceTime {
            cost,
            mounted: HashSet::new(),
        }
    }

    /// Puts the gate in front of every replica of `groups` that does not
    /// have it yet, so calling it again after a split covers exactly the
    /// split-born groups.
    pub fn mount(&mut self, groups: &[Arc<ReplicaSet<TafShard>>]) {
        for group in groups {
            for (i, node) in group.raft().nodes().iter().enumerate() {
                if !self.mounted.insert(node.id()) {
                    continue;
                }
                let mux = group.raft().mux(i);
                let inner = mux.handler(CH_APP).expect("replica serves CH_APP");
                mux.mount(
                    CH_APP,
                    Arc::new(Gated {
                        inner,
                        gate: Mutex::new(()),
                        cost: self.cost,
                    }),
                );
            }
        }
    }
}

struct Gated {
    inner: Arc<dyn Service>,
    gate: Mutex<()>,
    cost: Duration,
}

impl Service for Gated {
    fn handle(&self, from: NodeId, payload: &[u8]) -> Vec<u8> {
        {
            let _gate = self.gate.lock();
            std::thread::sleep(self.cost);
        }
        self.inner.handle(from, payload)
    }
}

/// Default number of concurrent clients, scaled by `CFS_BENCH_SCALE`.
pub fn default_clients() -> usize {
    12 * bench_scale()
}

/// Default measurement window per cell.
pub fn cell_duration() -> Duration {
    Duration::from_millis(1200)
}

/// Prints the experiment banner.
pub fn banner(id: &str, title: &str, params: &str) {
    println!();
    println!("==============================================================================");
    println!("{id}: {title}");
    println!("  params: {params} (CFS_BENCH_SCALE={})", bench_scale());
    println!("==============================================================================");
}

/// Prints the paper's expected qualitative shape for comparison.
pub fn expectation(lines: &[&str]) {
    println!("  paper-reported shape:");
    for l in lines {
        println!("    - {l}");
    }
    println!();
}

/// Formats a speedup factor.
pub fn speedup(a: f64, b: f64) -> String {
    if b <= 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

// ---------------------------------------------------------------------------
// Machine-readable results
// ---------------------------------------------------------------------------

/// The hand-rolled JSON emitter every `BENCH_*.json` goes through. It lives
/// in `cfs-obs` now (metrics snapshots and span dumps share it); re-exported
/// here so bench targets keep their `cfs_bench::Json` spelling.
pub use cfs_obs::Json;

/// Condenses one [`cfs_harness::runner::BenchResult`] into the standard
/// result object: throughput, latency percentiles, op/error counts.
pub fn json_result(r: &cfs_harness::runner::BenchResult) -> Vec<(String, Json)> {
    let s = r.latency;
    vec![
        ("throughput_ops_s".to_string(), Json::Num(r.throughput())),
        ("ops".to_string(), Json::Int(r.ops)),
        ("errors".to_string(), Json::Int(r.errors)),
        ("mean_ns".to_string(), Json::Int(s.mean_ns)),
        ("p50_ns".to_string(), Json::Int(s.p50_ns)),
        ("p99_ns".to_string(), Json::Int(s.p99_ns)),
        ("p999_ns".to_string(), Json::Int(s.p999_ns)),
    ]
}

/// Writes `BENCH_<name>.json` next to the stdout report (into
/// `CFS_BENCH_OUT_DIR` when set, the working directory otherwise) so the
/// perf trajectory is machine-trackable across PRs. Prints the path.
pub fn write_bench_json(name: &str, value: &Json) {
    let dir = std::env::var("CFS_BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, value.to_text()) {
        Ok(()) => println!("  results written to {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// A booted system under test, driven uniformly through `dyn FileSystem`.
pub enum SystemUnderTest {
    /// The full CFS deployment.
    Cfs(std::sync::Arc<cfs_core::CfsCluster>),
    /// A baseline or ablation variant.
    Baseline(std::sync::Arc<cfs_baselines::BaselineCluster>),
}

impl SystemUnderTest {
    /// Boots CFS with the shared bench shape.
    pub fn cfs(taf_shards: usize, filestore_nodes: usize) -> SystemUnderTest {
        SystemUnderTest::Cfs(std::sync::Arc::new(
            cfs_core::CfsCluster::start(bench_cfs_config(taf_shards, filestore_nodes))
                .expect("boot cfs"),
        ))
    }

    /// Boots a baseline/ablation variant with the shared bench shape; the
    /// proxy layer gets one node per shard (the paper co-locates one proxy
    /// process per server).
    pub fn baseline(
        variant: cfs_baselines::Variant,
        taf_shards: usize,
        filestore_nodes: usize,
    ) -> SystemUnderTest {
        SystemUnderTest::Baseline(std::sync::Arc::new(
            cfs_baselines::BaselineCluster::start(
                variant,
                bench_cfs_config(taf_shards, filestore_nodes),
                taf_shards,
            )
            .expect("boot baseline"),
        ))
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            SystemUnderTest::Cfs(_) => "CFS".to_string(),
            SystemUnderTest::Baseline(b) => format!("{:?}", b.variant()),
        }
    }

    /// A fresh client handle.
    pub fn client(&self) -> Box<dyn cfs_core::FileSystem> {
        match self {
            SystemUnderTest::Cfs(c) => Box::new(c.client()),
            SystemUnderTest::Baseline(b) => Box::new(b.client()),
        }
    }
}
