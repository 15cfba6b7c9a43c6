//! The system under test — one fixed cluster shape — and the closed-loop load
//! generator that drives a workload against it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_core::{CfsClient, CfsCluster, CfsConfig};
use cfs_rpc::stats::NetSnapshot;
use cfs_rpc::{NetConfig, SimLatency};
use cfs_types::InodeId;

use crate::span::{Recorder, Span};
use crate::stats::Sample;
use crate::workloads::{Gen, Kind, Workload, CLIENTS, KIND_NAMES};

/// Fresh generators for every client of `workload`.
pub fn generators(workload: Workload, seed: u64) -> Vec<Gen> {
    (0..CLIENTS).map(|c| workload.generator(seed, c)).collect()
}

/// Injected one-way delay per hop (a yield-loop, not a NIC): a call costs two.
pub const HOP_US: u64 = 25;
pub const TAF_SHARDS: usize = 4;
pub const FILESTORE_NODES: usize = 4;
pub const REPLICATION: usize = 3;
pub const ONEWAY_WORKERS: usize = 4;

pub fn net_config() -> NetConfig {
    NetConfig {
        hop_latency: SimLatency::fixed(Duration::from_micros(HOP_US)),
        oneway_workers: ONEWAY_WORKERS,
        drop_rate: 0.0,
        // No drops and no jitter: the network draws nothing from this seed.
        seed: 0,
    }
}

/// Everything not named here is the library's default: in-memory Raft
/// storage, leader-only reads, snapshot threshold 256, one timestamp per TS
/// call.
pub fn cluster_config() -> CfsConfig {
    CfsConfig {
        taf_shards: TAF_SHARDS,
        filestore_nodes: FILESTORE_NODES,
        replication: REPLICATION,
        net: net_config(),
        ..Default::default()
    }
}

pub fn describe() -> String {
    // A run pins itself before it gets here, or fails; which CPU it took is
    // the machine's business, the shape is "one core".
    format!(
        "{TAF_SHARDS} TafDB shards x {REPLICATION} replicas, {FILESTORE_NODES} FileStore nodes x \
         {REPLICATION} replicas, injected hop delay {HOP_US} us fixed, {ONEWAY_WORKERS} one-way \
         workers, in-memory Raft storage, leader-only reads; {CLIENTS} closed-loop clients; all \
         threads on one CPU"
    )
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, e.g. `0-1` or `0,2-3`); empty if unreadable.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default()
}

extern "C" {
    /// `sched_setaffinity(2)` from the C library std already links; `pid` 0 is
    /// the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// `cpu`.
pub fn pin_this_thread(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; 16];
    let bits = 64 * mask.len();
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the {bits}-bit mask"))? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes that the kernel only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot pin to CPU {cpu}: sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// A booted cluster with the workload's namespace in place.
pub struct Sut {
    pub cluster: CfsCluster,
    pub clients: Vec<CfsClient>,
    pub inos: Vec<InodeId>,
    /// Boot plus pre-population.
    pub setup: Duration,
}

pub fn boot(workload: Workload) -> Result<Sut, String> {
    let t0 = Instant::now();
    let cluster = CfsCluster::start(cluster_config()).map_err(|e| format!("boot: {e:?}"))?;
    let clients: Vec<CfsClient> = (0..CLIENTS).map(|_| cluster.client()).collect();
    let inos = workload.setup(&clients)?;
    Ok(Sut {
        cluster,
        clients,
        inos,
        setup: t0.elapsed(),
    })
}

/// Counters read from outside the clients, before and after the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outside {
    pub net: NetSnapshot,
    /// Σ over TafDB / FileStore groups of the leader's commit index.
    pub taf_commits: u64,
    pub fs_commits: u64,
    /// Σ over TafDB groups of the leader's snapshot index (it advances by the
    /// compacted prefix at every snapshot).
    pub taf_snapshot_index: u64,
}

impl Outside {
    pub fn read(cluster: &CfsCluster) -> Outside {
        let mut out = Outside {
            net: cluster.network().stats().snapshot(),
            ..Default::default()
        };
        for g in cluster.taf_groups() {
            if let Some(l) = g.raft().leader() {
                out.taf_commits += l.commit_index();
                out.taf_snapshot_index += l.snapshot_index();
            }
        }
        for g in cluster.fs_groups() {
            if let Some(l) = g.raft().leader() {
                out.fs_commits += l.commit_index();
            }
        }
        out
    }

    pub fn since(&self, earlier: &Outside) -> Outside {
        Outside {
            net: self.net.delta(&earlier.net),
            taf_commits: self.taf_commits - earlier.taf_commits,
            fs_commits: self.fs_commits - earlier.fs_commits,
            taf_snapshot_index: self.taf_snapshot_index - earlier.taf_snapshot_index,
        }
    }
}

/// What one warm-up + measured window produced.
pub struct Window {
    /// Ops that started and completed inside the measured window.
    pub samples: Vec<Sample>,
    /// Every op run after set-up (warm-up, window and tail), and its failures.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub gens: Vec<Gen>,
    /// Outside counters over the measured window.
    pub outside: Outside,
    /// One root span per op, when `trace` was on.
    pub spans: Vec<Span>,
}

pub fn span_name(kind: Kind) -> &'static str {
    const NAMES: [&str; 9] = [
        "fs.create",
        "fs.unlink",
        "fs.mkdir",
        "fs.rmdir",
        "fs.rename",
        "fs.lookup",
        "fs.getattr",
        "fs.setattr",
        "fs.readdir",
    ];
    debug_assert_eq!(NAMES.len(), KIND_NAMES.len());
    NAMES[kind as usize]
}

/// Drives one generator per client closed-loop, each on its own thread:
/// `warmup` discarded, then `measure` recorded. The generators come back in
/// [`Window::gens`], so a later window continues the same namespace.
pub fn run_window(
    sut: &Sut,
    gens: Vec<Gen>,
    warmup: Duration,
    measure: Duration,
    trace: bool,
) -> Window {
    assert_eq!(gens.len(), sut.clients.len());
    struct PerClient {
        samples: Vec<Sample>,
        attempted: u64,
        failed: u64,
        first_failure: Option<String>,
        gen: Gen,
        spans: Vec<Span>,
    }

    let epoch = Instant::now();
    let open = epoch + warmup;
    let close = open + measure;
    let inos = Arc::new(sut.inos.clone());
    let (per_client, outside) = std::thread::scope(|s| {
        let handles: Vec<_> = sut
            .clients
            .iter()
            .zip(gens)
            .enumerate()
            .map(|(c, (fs, gen))| {
                let inos = Arc::clone(&inos);
                s.spawn(move || {
                    let mut out = PerClient {
                        samples: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        first_failure: None,
                        gen,
                        spans: Vec::new(),
                    };
                    let mut rec = trace.then(|| Recorder::new(epoch, c as u32 + 1));
                    loop {
                        let start = Instant::now();
                        // Past the close, only finish what is in flight.
                        let op = if start < close {
                            out.gen.next_op()
                        } else if let Some(op) = out.gen.drain_op() {
                            op
                        } else {
                            break;
                        };
                        let res = match rec.as_mut() {
                            Some(r) => r.time(span_name(op.kind()), || op.exec(fs, &inos)),
                            None => op.exec(fs, &inos),
                        };
                        let end = Instant::now();
                        out.attempted += 1;
                        if let Err(why) = res {
                            out.failed += 1;
                            out.first_failure.get_or_insert(why);
                        } else if start >= open && end < close {
                            out.samples.push(Sample {
                                end_ns: (end - open).as_nanos() as u64,
                                lat_ns: (end - start).as_nanos() as u64,
                                kind: op.kind() as u8,
                            });
                        }
                    }
                    if let Some(r) = rec {
                        out.spans = r.into_spans();
                    }
                    out
                })
            })
            .collect();
        // This thread only reads counters at the window's edges.
        std::thread::sleep(open.saturating_duration_since(Instant::now()));
        let before = Outside::read(&sut.cluster);
        std::thread::sleep(close.saturating_duration_since(Instant::now()));
        let outside = Outside::read(&sut.cluster).since(&before);
        let per_client: Vec<PerClient> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, outside)
    });

    let mut w = Window {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        gens: Vec::new(),
        outside,
        spans: Vec::new(),
    };
    for p in per_client {
        w.samples.extend(p.samples);
        w.attempted += p.attempted;
        w.failed += p.failed;
        if w.first_failure.is_none() {
            w.first_failure = p.first_failure;
        }
        w.gens.push(p.gen);
        w.spans.extend(p.spans);
    }
    w
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("\t0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-3, 7"), [0, 2, 3, 7]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }
}
