//! The per-layer pass (`--trace 1` / `--mode layers`): every number here is
//! taken from outside a layer, by timing calls into its public functions with
//! the benchmark's own spans, or by reading a counter the layer publishes.
//!
//! Three sources, in the order they run:
//! 1. the workload's window, with one span per op and outside counters read
//!    at its edges (`core.p99_us`, `rpc.*_per_op`, `*.entries_per_op`, ...);
//! 2. probes on that live cluster, one client: each op kind, `create` and
//!    `getattr` replayed as their layer calls, the renamer paths, resolution;
//! 3. stand-alone probes of one layer each (Raft, WAL, kvstore, shard, codec).
//!
//! `seconds` is split between them; set-up and the span dump come on top.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfs_core::dcache::CacheLookup;
use cfs_core::FileSystem;
use cfs_filestore::SetAttrPatch;
use cfs_kvstore::{KvConfig, KvStore};
use cfs_obs::trace;
use cfs_raft::{RaftGroup, RaftStorage, StateMachine};
use cfs_rpc::{Network, Service};
use cfs_tafdb::api::ShardCmd;
use cfs_tafdb::primitive::{Primitive, UpdateSpec};
use cfs_tafdb::TafShard;
use cfs_types::codec::{Decode, Encode};
use cfs_types::record::{FieldAssign, LwwField, NumField, Pred};
use cfs_types::{
    Attr, Cond, FileType, InodeId, Key, NodeId, Record, Timestamp, VolumeId, ROOT_INODE,
};
use cfs_volume::{QosConfig, QosLimiter};
use cfs_wal::{Wal, WalConfig};

use crate::catalog;
use crate::report::{Metric, RunResult};
use crate::span::{self, Recorder, Span};
use crate::stats::{median_f64, percentile, summarize_window};
use crate::sut::{self, boot, generators, run_window, Sut};
use crate::workloads::{Workload, CLIENTS};

/// Shares of `seconds` given to each source.
const WINDOW_SHARE: f64 = 0.30;
const OBS_SHARE: f64 = 0.20;
const CLUSTER_PROBE_SHARE: f64 = 0.20;
const STANDALONE_SHARE: f64 = 0.30;
/// Stand-alone probes that take a time budget (the rest do fixed work): rpc
/// 1, raft 3, wal 2, kvstore 5, shard 2, codec 3, qos 1.
const TIMED_STANDALONE_PROBES: u32 = 17;

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let total = Duration::from_secs(seconds);
    let sut = boot(workload)?;
    let mut metrics = Vec::new();

    // 1. The workload's window, one span per op.
    let window = total.mul_f64(WINDOW_SHARE);
    let slices = (window.as_millis() / 500).max(1) as usize;
    let w = run_window(
        &sut,
        generators(workload, seed),
        Duration::from_secs(1).min(window),
        window,
        true,
    );
    let primary = workload.primary() as u8;
    let summary = summarize_window(
        &w.samples,
        primary,
        window.as_nanos() as u64 / slices as u64,
        slices,
    );
    let mut lat: Vec<u64> = w
        .samples
        .iter()
        .filter(|s| s.kind == primary)
        .map(|s| s.lat_ns)
        .collect();
    lat.sort_unstable();
    let n = lat.len() as u64;
    metrics.push(Metric::sampled(
        "core.p99_us",
        us(percentile(&lat, 99.0)),
        "us",
        n,
    ));
    metrics.push(Metric::sampled(
        "core.p999_us",
        us(percentile(&lat, 99.9)),
        "us",
        n,
    ));
    metrics.push(Metric::sampled(
        "core.window_ops_min_share",
        summary.min_share,
        "ratio",
        slices as u64,
    ));
    let ops = w.samples.len().max(1) as f64;
    let per_op = |count: u64| count as f64 / ops;
    let out = &w.outside;
    let snapshot_threshold = sut.cluster.config().raft.snapshot_threshold.max(1);
    for (name, value, unit) in [
        ("rpc.calls_per_op", per_op(out.net.calls), "1/op"),
        ("rpc.calls_app_per_op", per_op(out.net.calls_app), "1/op"),
        ("rpc.calls_raft_per_op", per_op(out.net.calls_raft), "1/op"),
        ("rpc.calls_txn_per_op", per_op(out.net.calls_txn), "1/op"),
        ("rpc.oneways_per_op", per_op(out.net.oneways), "1/op"),
        ("rpc.bytes_per_op", per_op(out.net.bytes), "B/op"),
        ("tafdb.entries_per_op", per_op(out.taf_commits), "1/op"),
        ("filestore.entries_per_op", per_op(out.fs_commits), "1/op"),
        (
            "tafdb.snapshots_per_kop",
            per_op(out.taf_snapshot_index) / snapshot_threshold as f64 * 1e3,
            "1/kop",
        ),
    ] {
        metrics.push(Metric::sampled(name, value, unit, w.samples.len() as u64));
    }
    let mut result = RunResult::new(workload.name(), w.attempted, w.failed);
    if let Some(why) = &w.first_failure {
        result.fail(format!("op failed: {why}"));
    }
    let mut spans = w.spans;

    // cfs-obs: the same workload, slices with the library's tracing off and
    // on in turn.
    let (gens, obs) = obs_overhead(&sut, w.gens, total.mul_f64(OBS_SHARE / 4.0), &mut result);
    metrics.extend(obs);
    if let Err(why) = workload.check(&sut.clients[0], &gens, &sut.inos) {
        result.fail(why);
    }

    // 2. Probes on the live cluster, from one client.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, CLIENTS as u32 + 1);
    let probe_ops = cluster_probes(
        &sut,
        total.mul_f64(CLUSTER_PROBE_SHARE),
        &mut rec,
        &mut metrics,
    )?;
    result.attempted += probe_ops;
    let probe_spans = rec.into_spans();
    metrics.extend(span_metrics(&probe_spans));
    spans.extend(probe_spans);
    drop(sut);

    // 3. One layer at a time.
    let scratch = crate::out_dir().join(format!("scratch_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let standalone = standalone_probes(
        total.mul_f64(STANDALONE_SHARE / f64::from(TIMED_STANDALONE_PROBES)),
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    metrics.extend(standalone?);

    let dump = crate::out_dir().join(format!("trace_{}.json", workload.name()));
    crate::write_file(&dump, &span::to_json(&spans).compact())?;
    result.notes.push(format!(
        "{} spans dumped to {}",
        spans.len(),
        dump.display()
    ));
    for m in &metrics {
        if m.name.ends_with(".unattributed_share") && m.value > 0.10 {
            result.notes.push(format!(
                "FINDING: {} = {:.3}: more than a tenth of the op's latency is not accounted \
                 for by its layer calls",
                m.name, m.value
            ));
        }
    }
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    catalog::check(&catalog::PER_LAYER, &metrics)?;
    result.metrics = metrics;
    Ok(result)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `(p50 in ns, sample count)` of `samples`; sorts them.
fn p50(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (percentile(samples, 50.0), samples.len() as u64)
}

fn p50_us(name: &str, samples: &mut [u64]) -> Metric {
    let (v, n) = p50(samples);
    Metric::sampled(name, us(v), "us", n)
}

// ---- cfs-obs ---------------------------------------------------------------

/// Runs four slices of the workload — library tracing off, on, off, on — and
/// compares their throughput.
fn obs_overhead(
    sut: &Sut,
    mut gens: Vec<crate::workloads::Gen>,
    slice: Duration,
    result: &mut RunResult,
) -> (Vec<crate::workloads::Gen>, Vec<Metric>) {
    let settle = Duration::from_millis(200).min(slice);
    let evicted_before = trace::evicted();
    let mut rate = [0.0f64; 2];
    let mut traced_ops = 0u64;
    let mut lib_spans = 0u64;
    for round in 0..4 {
        let on = round % 2 == 1;
        if on {
            trace::enable();
        }
        let w = run_window(sut, gens, settle, slice, false);
        trace::disable();
        if on {
            // Warm-up and tail ops were traced too: count every op run.
            traced_ops += w.attempted;
            lib_spans += trace::drain().len() as u64;
        }
        rate[usize::from(on)] += w.samples.len() as f64;
        result.attempted += w.attempted;
        result.failed += w.failed;
        if let Some(why) = w.first_failure {
            result.fail(format!("op failed: {why}"));
        }
        gens = w.gens;
    }
    let evicted = trace::evicted() - evicted_before;
    let overhead = if rate[0] > 0.0 {
        1.0 - rate[1] / rate[0]
    } else {
        0.0
    };
    let metrics = vec![
        Metric::sampled("obs.trace_overhead_share", overhead, "ratio", 4),
        Metric::sampled(
            "obs.spans_per_op",
            (lib_spans + evicted) as f64 / traced_ops.max(1) as f64,
            "1/op",
            traced_ops,
        ),
        Metric::sampled("obs.evicted_spans", evicted as f64, "count", traced_ops),
    ];
    (gens, metrics)
}

// ---- probes on the live cluster ---------------------------------------------

/// A depth-8 chain under a parent no probe mutates: a mutation bumps its
/// directory's generation and with it every dentry cached under that parent.
const DEEP_DIR: &str = "/deep/a/b/c/d/e/f/g";
const SCAN_ENTRIES: usize = 64;

/// The link half of `create`, built from the public primitive API exactly as
/// the client library builds it.
fn link_prim(parent: InodeId, name: &str, ino: InodeId, ts: Timestamp) -> Primitive {
    Primitive::insert_with_update(
        Key::entry(parent, name),
        Record::id_record(ino, FileType::File),
        UpdateSpec::new(
            Cond::require(Key::attr(parent), vec![Pred::TypeIs(FileType::Dir)]),
            vec![
                FieldAssign::Set {
                    field: LwwField::Mtime,
                    value: ts.raw(),
                    ts,
                },
                FieldAssign::Set {
                    field: LwwField::Ctime,
                    value: ts.raw(),
                    ts,
                },
                FieldAssign::Delta {
                    field: NumField::Children,
                    delta: 1,
                },
            ],
        ),
    )
}

/// Runs rounds of every op kind and every layer call against the live
/// cluster until `budget` is spent; returns the ops run. Spans go to `rec`;
/// metrics that are not span medians are pushed to `metrics`.
fn cluster_probes(
    sut: &Sut,
    budget: Duration,
    rec: &mut Recorder,
    metrics: &mut Vec<Metric>,
) -> Result<u64, String> {
    fn ctx<T>(what: &str, r: cfs_types::FsResult<T>) -> Result<T, String> {
        r.map_err(|e| format!("probe {what}: {e:?}"))
    }
    let fs = &sut.clients[0];
    let net = sut.cluster.network();

    let probe = ctx("mkdir /probe", fs.mkdir("/probe"))?;
    ctx("mkdir", fs.mkdir("/probe/sub"))?;
    let ro = ctx("mkdir", fs.mkdir("/probe/ro"))?;
    for i in 0..SCAN_ENTRIES {
        ctx("create", fs.create(&format!("/probe/ro/e{i}")))?;
    }
    let mut deep = String::new();
    for c in DEEP_DIR.split('/').skip(1) {
        deep.push('/');
        deep.push_str(c);
        ctx("mkdir", fs.mkdir(&deep))?;
    }
    let mut ops = 0u64;
    let mut txn_calls = 0u64;
    let mut renames = 0u64;
    let started = Instant::now();
    let mut i = 0u64;
    while i < 8 || started.elapsed() < budget {
        i += 1;
        let r = format!("/probe/r{i}");
        let q = format!("/probe/q{i}");
        let d_name = format!("d{i}");
        let d = format!("/probe/{d_name}");
        let r_name = format!("r{i}");

        // create, real and as its layer calls.
        ctx("create", rec.time("fs.create", || fs.create(&r)))?;
        let open = rec.begin("create.decomposed");
        let parent = ctx(
            "lookup",
            rec.time("core.lookup_parent", || fs.lookup("/probe")),
        )?;
        let ino = ctx(
            "alloc_id",
            rec.time("tafdb.ts.alloc_id", || {
                fs.ts().alloc_id_in(VolumeId::DEFAULT)
            }),
        )?;
        let ts = ctx(
            "timestamp",
            rec.time("tafdb.ts.timestamp", || fs.ts().timestamp()),
        )?;
        ctx(
            "put_attr",
            rec.time("filestore.put_attr", || {
                fs.filestore().put_attr(Attr::new_file(ino, ts.raw()))
            }),
        )?;
        let prim = link_prim(parent, &d_name, ino, ts);
        ctx(
            "execute",
            rec.time("tafdb.execute", || fs.taf().execute(prim)),
        )?;
        rec.end(open);

        // getattr, real and as its layer calls.
        let attr = ctx("getattr", rec.time("fs.getattr", || fs.getattr(&r)))?;
        let open = rec.begin("getattr.decomposed");
        let parent = ctx(
            "lookup",
            rec.time("core.lookup_parent", || fs.lookup("/probe")),
        )?;
        let resolved = ctx(
            "resolve_prefix",
            rec.time("tafdb.resolve_prefix", || {
                fs.taf()
                    .resolve_prefix(parent, std::slice::from_ref(&r_name))
            }),
        )?;
        let got = ctx(
            "get_attr",
            rec.time("filestore.get_attr", || {
                fs.filestore().get_attr(resolved.steps[0].ino)
            }),
        )?;
        rec.end(open);
        if got.map(|a| a.ino) != Some(attr.ino) {
            return Err(format!(
                "probe: decomposed getattr of {r} disagrees with fs.getattr"
            ));
        }

        // The other op kinds.
        ctx("lookup", rec.time("fs.lookup", || fs.lookup(&r)))?;
        let patch = SetAttrPatch {
            mtime: Some(i),
            ..Default::default()
        };
        ctx("setattr", rec.time("fs.setattr", || fs.setattr(&r, patch)))?;
        ctx("rename", rec.time("fs.rename_intra", || fs.rename(&r, &q)))?;
        ctx("unlink", rec.time("fs.unlink", || fs.unlink(&q)))?;
        ctx("unlink", rec.time("fs.unlink", || fs.unlink(&d)))?;
        let m = format!("/probe/m{i}");
        ctx("mkdir", rec.time("fs.mkdir", || fs.mkdir(&m)))?;
        ctx("rmdir", rec.time("fs.rmdir", || fs.rmdir(&m)))?;
        let listed = ctx(
            "readdir",
            rec.time("fs.readdir", || fs.readdir("/probe/ro")),
        )?;
        if listed.len() != SCAN_ENTRIES {
            return Err(format!("probe: /probe/ro lists {} entries", listed.len()));
        }
        ctx(
            "lookup",
            rec.time("core.resolve.warm", || fs.lookup(DEEP_DIR)),
        )?;

        // TafDB and FileStore calls no op above isolates.
        ctx(
            "scan",
            rec.time("tafdb.scan_64", || {
                fs.taf().scan(ro, None, SCAN_ENTRIES as u32)
            }),
        )?;
        ctx(
            "get",
            rec.time("tafdb.get", || fs.taf().get(&Key::attr(probe))),
        )?;
        let scratch_ino = ctx("alloc_id", fs.ts().alloc_id_in(VolumeId::DEFAULT))?;
        let scratch_key = Key::attr(scratch_ino);
        let scratch_rec = Record::dir_attr_record(ts.raw(), ts);
        ctx(
            "put",
            rec.time("tafdb.put", || {
                fs.taf().put(scratch_key.clone(), scratch_rec)
            }),
        )?;
        ctx("delete", fs.taf().delete(scratch_key))?;
        ctx(
            "put_attr",
            fs.filestore()
                .put_attr(Attr::new_file(scratch_ino, ts.raw())),
        )?;
        let patch = SetAttrPatch {
            mtime: Some(i),
            ..Default::default()
        };
        ctx(
            "set_attr",
            rec.time("filestore.set_attr", || {
                fs.filestore().set_attr(scratch_ino, patch, ts)
            }),
        )?;
        ctx(
            "delete_attr",
            rec.time("filestore.delete_attr", || {
                fs.filestore().delete_attr(scratch_ino)
            }),
        )?;

        // The renamer: everything but a file renamed inside its directory.
        let x = format!("/probe/x{i}");
        let x2 = format!("/probe/sub/x{i}");
        let dd = format!("/probe/dd{i}");
        let de = format!("/probe/de{i}");
        let de2 = format!("/probe/sub/de{i}");
        ctx("create", fs.create(&x))?;
        ctx("mkdir", fs.mkdir(&dd))?;
        let before = net.stats().snapshot().calls_txn;
        ctx(
            "rename",
            rec.time("renamer.file_cross", || fs.rename(&x, &x2)),
        )?;
        ctx(
            "rename",
            rec.time("renamer.dir_intra", || fs.rename(&dd, &de)),
        )?;
        ctx(
            "rename",
            rec.time("renamer.dir_cross", || fs.rename(&de, &de2)),
        )?;
        txn_calls += net.stats().snapshot().calls_txn - before;
        renames += 3;
        ctx("unlink", fs.unlink(&x2))?;
        ctx("rmdir", fs.rmdir(&de2))?;
        ops += 30;
    }
    metrics.push(Metric::sampled(
        "renamer.txn_calls_per_rename",
        txn_calls as f64 / renames as f64,
        "1/op",
        renames,
    ));

    // Resolution from a client that has cached nothing.
    let mut cold_rpcs = Vec::new();
    for _ in 0..16 {
        let cold = sut.cluster.client();
        let before = net.stats().snapshot().calls_app;
        ctx(
            "lookup",
            rec.time("core.resolve.cold", || cold.lookup(DEEP_DIR)),
        )?;
        cold_rpcs.push((net.stats().snapshot().calls_app - before) as f64);
        ops += 1;
    }
    metrics.push(Metric::sampled(
        "core.resolve.cold_rpcs",
        median_f64(&cold_rpcs),
        "1/op",
        cold_rpcs.len() as u64,
    ));

    // A dentry-cache hit, with no RPC behind it: the walks above cached
    // `/deep/a`'s entry `b`.
    let a = ctx("lookup", fs.lookup("/deep/a"))?;
    let hit = time_batches(Duration::from_millis(50), |_| {
        assert!(matches!(
            black_box(fs.dcache().lookup(a, "b")),
            CacheLookup::Hit(..)
        ));
    });
    metrics.push(per_call("core.dcache.hit_ns", "ns", hit));
    Ok(ops)
}

/// Span name → metric name, for spans whose metric is their median duration.
const SPAN_METRICS: [(&str, &str); 25] = [
    ("fs.create", "core.op.create.p50_us"),
    ("fs.unlink", "core.op.unlink.p50_us"),
    ("fs.mkdir", "core.op.mkdir.p50_us"),
    ("fs.rmdir", "core.op.rmdir.p50_us"),
    ("fs.rename_intra", "core.op.rename_intra.p50_us"),
    ("fs.lookup", "core.op.lookup.p50_us"),
    ("fs.getattr", "core.op.getattr.p50_us"),
    ("fs.setattr", "core.op.setattr.p50_us"),
    ("fs.readdir", "core.op.readdir.p50_us"),
    ("core.resolve.warm", "core.resolve.warm_us"),
    ("core.resolve.cold", "core.resolve.cold_us"),
    ("tafdb.execute", "tafdb.execute_us"),
    ("tafdb.put", "tafdb.put_us"),
    ("tafdb.get", "tafdb.get_us"),
    ("tafdb.resolve_prefix", "tafdb.resolve_prefix_us"),
    ("tafdb.scan_64", "tafdb.scan_64_us"),
    ("tafdb.ts.timestamp", "tafdb.ts.timestamp_us"),
    ("tafdb.ts.alloc_id", "tafdb.ts.alloc_id_us"),
    ("filestore.put_attr", "filestore.put_attr_us"),
    ("filestore.get_attr", "filestore.get_attr_us"),
    ("filestore.set_attr", "filestore.set_attr_us"),
    ("filestore.delete_attr", "filestore.delete_attr_us"),
    ("renamer.file_cross", "renamer.file_cross_us"),
    ("renamer.dir_intra", "renamer.dir_intra_us"),
    ("renamer.dir_cross", "renamer.dir_cross_us"),
];

/// Turns the probe spans into metrics: a median per span name, and for the
/// decomposed ops the end-to-end median against the sum of their layer calls.
fn span_metrics(spans: &[Span]) -> Vec<Metric> {
    let mut by_name: HashMap<&str, Vec<u64>> = HashMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns());
    }
    let mut out = Vec::new();
    for (span_name, metric) in SPAN_METRICS {
        let samples = by_name
            .get_mut(span_name)
            .expect("every probe span was recorded");
        out.push(p50_us(metric, samples));
    }
    // Time inside a decomposed op that none of its layer calls covers is the
    // benchmark's own glue, so the layer sum is duration minus self time.
    let self_ns = span::self_times(spans);
    for (real, decomposed, metric) in [
        ("fs.create", "create.decomposed", "core.create"),
        ("fs.getattr", "getattr.decomposed", "core.getattr"),
    ] {
        let (e2e, n) = p50(by_name.get_mut(real).expect("recorded"));
        let mut sums: Vec<u64> = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == decomposed)
            .map(|(s, own)| s.dur_ns() - own)
            .collect();
        let (sum, _) = p50(&mut sums);
        out.push(Metric::sampled(
            format!("{metric}.e2e_us"),
            us(e2e),
            "us",
            n,
        ));
        out.push(Metric::sampled(
            format!("{metric}.layer_sum_us"),
            us(sum),
            "us",
            n,
        ));
        out.push(Metric::sampled(
            format!("{metric}.unattributed_share"),
            (e2e as f64 - sum as f64).abs() / e2e as f64,
            "ratio",
            n,
        ));
    }
    out
}

// ---- stand-alone probes -----------------------------------------------------

/// Calls `f(i)` until `budget` is spent (at least 8 times), timing each call.
fn time_calls(budget: Duration, mut f: impl FnMut(u64)) -> Vec<u64> {
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i < 8 || started.elapsed() < budget {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_nanos() as u64);
        i += 1;
    }
    samples
}

/// For calls too short to time singly: times batches of `BATCH` calls (one
/// sample per batch); [`per_call`] turns them into a per-call median.
const BATCH: u64 = 1000;

fn time_batches(budget: Duration, mut f: impl FnMut(u64)) -> Vec<u64> {
    let mut i = 0;
    time_calls(budget, |_| {
        for _ in 0..BATCH {
            f(i);
            i += 1;
        }
    })
}

/// Median batch time ÷ `BATCH`, in `unit` (`"ns"` or `"us"`).
fn per_call(name: &str, unit: &'static str, mut batches: Vec<u64>) -> Metric {
    let (v, n) = p50(&mut batches);
    let ns = v as f64 / BATCH as f64;
    let value = if unit == "us" { ns / 1e3 } else { ns };
    Metric::sampled(name, value, unit, n * BATCH)
}

fn ms_metric(name: &str, samples: &mut [u64]) -> Metric {
    let (v, n) = p50(samples);
    Metric::sampled(name, v as f64 / 1e6, "ms", n)
}

fn standalone_probes(each: Duration, scratch: &Path) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    m.extend(rpc_probe(each));
    m.extend(raft_probes(each, scratch)?);
    m.extend(wal_probes(each, scratch)?);
    m.extend(kvstore_probes(each, scratch)?);
    m.extend(shard_probes(each)?);
    m.extend(codec_probes(each));
    m.push(qos_probe(each));
    Ok(m)
}

struct Echo;

impl Service for Echo {
    fn handle(&self, _from: NodeId, payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }
}

fn rpc_probe(each: Duration) -> Vec<Metric> {
    let net = Network::new(sut::net_config());
    net.register(NodeId(2), Arc::new(Echo));
    let payload = [7u8; 64];
    let mut rtt = time_calls(each, |_| {
        black_box(net.call(NodeId(1), NodeId(2), &payload).expect("echo"));
    });
    vec![p50_us("rpc.call_rtt_us", &mut rtt)]
}

/// State machine that discards commands: consensus cost alone.
struct NullSm;

impl StateMachine for NullSm {
    fn apply(&self, _index: u64, _cmd: &[u8]) -> Vec<u8> {
        Vec::new()
    }
}

fn raft_probes(each: Duration, scratch: &Path) -> Result<Vec<Metric>, String> {
    let ids: Vec<NodeId> = (1..=sut::REPLICATION as u32).map(NodeId).collect();
    let config = sut::cluster_config().raft;
    let elect = Duration::from_secs(10);
    let mut m = Vec::new();

    let net = Network::new(sut::net_config());
    let group = RaftGroup::spawn(&net, &ids, config.clone(), |_| Arc::new(NullSm));
    let leader = group
        .wait_for_leader(elect)
        .map_err(|e| format!("raft probe: no leader: {e:?}"))?;
    let before = net.stats().snapshot();
    let mut one = time_calls(each, |_| {
        leader.propose(vec![0u8; 64]).expect("propose");
    });
    let d = net.stats().snapshot().delta(&before);
    let commits = one.len() as f64;
    m.push(p50_us("raft.propose_commit_us", &mut one));
    m.push(Metric::sampled(
        "raft.msgs_per_commit",
        (d.calls + d.oneways) as f64 / commits,
        "1/op",
        one.len() as u64,
    ));
    m.push(Metric::sampled(
        "raft.bytes_per_commit",
        d.bytes as f64 / commits,
        "B/op",
        one.len() as u64,
    ));
    // Two proposers: the second one's entry can ride the first one's round.
    let started = Instant::now();
    let mut two: Vec<u64> = std::thread::scope(|s| {
        let proposers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    time_calls(each, |_| {
                        leader.propose(vec![0u8; 64]).expect("propose");
                    })
                })
            })
            .collect();
        proposers
            .into_iter()
            .flat_map(|h| h.join().expect("proposer panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    m.push(Metric::sampled(
        "raft.entries_per_s_2p",
        two.len() as f64 / elapsed,
        "1/s",
        two.len() as u64,
    ));
    m.push(p50_us("raft.propose_commit_2p_us", &mut two));
    group.shutdown();

    // The same group over file-backed logs.
    let net = Network::new(sut::net_config());
    let storages = (0..ids.len())
        .map(|i| {
            RaftStorage::with_wal_config(WalConfig {
                path: Some(scratch.join(format!("raft{i}.wal"))),
                ..Default::default()
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("raft probe: storage: {e:?}"))?;
    let group = RaftGroup::spawn_durable(&net, &ids, config, |_| Arc::new(NullSm), &storages);
    let leader = group
        .wait_for_leader(elect)
        .map_err(|e| format!("raft probe: no durable leader: {e:?}"))?;
    let mut durable = time_calls(each, |_| {
        leader.propose(vec![0u8; 64]).expect("propose");
    });
    m.push(p50_us("raft.durable.propose_commit_us", &mut durable));
    group.shutdown();
    Ok(m)
}

fn wal_probes(each: Duration, scratch: &Path) -> Result<Vec<Metric>, String> {
    let err = |e| format!("wal probe: {e:?}");
    let file_wal = |name: &str| -> (PathBuf, WalConfig) {
        let path = scratch.join(name);
        let config = WalConfig {
            path: Some(path.clone()),
            ..Default::default()
        };
        (path, config)
    };
    let mut m = Vec::new();
    const PAYLOAD: usize = 64;

    let (path, config) = file_wal("append.wal");
    let wal = Wal::with_config(config).map_err(err)?;
    let mut one = time_calls(each, |_| {
        wal.append(vec![1u8; PAYLOAD]).expect("append");
        wal.sync().expect("sync");
    });
    let payload_bytes = (one.len() * PAYLOAD) as f64;
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("wal probe: {e}"))?
        .len();
    m.push(p50_us("wal.append_sync_us", &mut one));
    m.push(Metric::sampled(
        "wal.bytes_per_payload_byte",
        file_bytes as f64 / payload_bytes,
        "ratio",
        one.len() as u64,
    ));
    let mut batch = time_calls(each, |_| {
        wal.append_batch((0..16).map(|_| vec![1u8; PAYLOAD]))
            .expect("append");
        wal.sync().expect("sync");
    });
    m.push(p50_us("wal.append_batch16_us", &mut batch));
    drop(wal);

    let (_, config) = file_wal("replay.wal");
    let wal = Wal::with_config(config.clone()).map_err(err)?;
    for chunk in 0..10 {
        wal.append_batch((0..1000).map(|i| vec![(chunk + i) as u8; PAYLOAD]))
            .map_err(err)?;
    }
    wal.sync().map_err(err)?;
    drop(wal);
    let mut replay = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let reopened = Wal::with_config(config.clone()).map_err(err)?;
        replay.push(t.elapsed().as_nanos() as u64);
        if reopened.last_seq() != 10_000 {
            return Err(format!(
                "wal probe: replay found {} entries",
                reopened.last_seq()
            ));
        }
    }
    m.push(ms_metric("wal.replay_10k_ms", &mut replay));
    Ok(m)
}

fn kv_key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn kvstore_probes(each: Duration, scratch: &Path) -> Result<Vec<Metric>, String> {
    let err = |e| format!("kvstore probe: {e:?}");
    const LOADED: u64 = 10_000;
    let mut m = Vec::new();
    let kv = KvStore::new_in_memory();
    for i in 0..LOADED {
        kv.put(kv_key(i), vec![0u8; 64]).map_err(err)?;
    }
    let put = time_batches(each, |i| {
        kv.put(kv_key(1 << 32 | i), vec![0u8; 64]).expect("put");
    });
    m.push(per_call("kvstore.put_us", "us", put));
    let hit = time_batches(each, |i| {
        assert!(black_box(kv.get(&kv_key(i * 7919 % LOADED))).is_some());
    });
    m.push(per_call("kvstore.get_hit_us", "us", hit));
    let miss = time_batches(each, |i| {
        assert!(black_box(kv.get(&kv_key(1 << 48 | i))).is_none());
    });
    m.push(per_call("kvstore.get_miss_us", "us", miss));
    let mut scan = time_calls(each, |i| {
        let from = i * 97 % (LOADED - 100);
        assert_eq!(
            black_box(kv.scan(&kv_key(from), &kv_key(LOADED), 100)).len(),
            100
        );
    });
    m.push(p50_us("kvstore.scan_100_us", &mut scan));
    let mut snap = time_calls(each, |_| {
        assert_eq!(
            kv.range_snapshot(&kv_key(0), Some(&kv_key(LOADED))).count(),
            LOADED as usize
        );
    });
    m.push(ms_metric("kvstore.range_snapshot_10k_ms", &mut snap));

    let durable = KvStore::with_config(KvConfig {
        wal: Some(WalConfig {
            path: Some(scratch.join("kv.wal")),
            ..Default::default()
        }),
        ..Default::default()
    })
    .map_err(err)?;
    for i in 0..LOADED {
        durable.put(kv_key(i), vec![0u8; 64]).map_err(err)?;
    }
    let mut ckpt = Vec::new();
    for round in 0..5 {
        let t = Instant::now();
        let info = durable.checkpoint(round, 0).map_err(err)?;
        ckpt.push(t.elapsed().as_nanos() as u64);
        if info.entries != LOADED {
            return Err(format!(
                "kvstore probe: checkpoint holds {} entries",
                info.entries
            ));
        }
    }
    m.push(ms_metric("kvstore.checkpoint_10k_ms", &mut ckpt));

    let big = KvStore::new_in_memory();
    for i in 0..100_000u64 {
        big.put(kv_key(i), vec![0u8; 64]).map_err(err)?;
    }
    m.push(Metric::sampled(
        "kvstore.table_count_100k",
        big.table_count() as f64,
        "count",
        100_000,
    ));
    Ok(m)
}

fn shard_probes(each: Duration) -> Result<Vec<Metric>, String> {
    let shard = TafShard::new(KvConfig::default()).map_err(|e| format!("shard probe: {e:?}"))?;
    shard.apply_cmd(ShardCmd::Put(
        Key::attr(ROOT_INODE),
        Record::dir_attr_record(0, Timestamp(1)),
    ));
    let create = |i: u64| {
        let prim = link_prim(
            ROOT_INODE,
            &format!("f{i}"),
            InodeId(100 + i),
            Timestamp(2 + i),
        );
        shard.apply_cmd(ShardCmd::Execute(prim))
    };
    const LOADED: u64 = 10_000;
    for i in 0..LOADED {
        create(i);
    }
    let mut m = Vec::new();
    let mut image = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let bytes = shard.snapshot().ok_or("shard probe: no snapshot support")?;
        image.push(t.elapsed().as_nanos() as u64);
        black_box(bytes);
    }
    m.push(ms_metric("tafdb.shard.snapshot_10k_ms", &mut image));
    let mut apply = time_calls(each, |i| {
        black_box(create(LOADED + i));
    });
    m.push(p50_us("tafdb.shard.apply_create_us", &mut apply));
    let get = time_batches(each, |i| {
        assert!(
            black_box(shard.get(&Key::entry(ROOT_INODE, format!("f{}", i % LOADED)))).is_some()
        );
    });
    m.push(per_call("tafdb.shard.get_us", "us", get));
    Ok(m)
}

fn codec_probes(each: Duration) -> Vec<Metric> {
    let rec = Record::dir_attr_record(123_456, Timestamp(42));
    let bytes = rec.to_bytes();
    let prim = link_prim(ROOT_INODE, "some-file-name", InodeId(42), Timestamp(7));
    vec![
        per_call(
            "types.record_encode_ns",
            "ns",
            time_batches(each, |_| {
                black_box(black_box(&rec).to_bytes());
            }),
        ),
        per_call(
            "types.record_decode_ns",
            "ns",
            time_batches(each, |_| {
                black_box(Record::from_bytes(black_box(&bytes)).expect("decode"));
            }),
        ),
        per_call(
            "types.primitive_roundtrip_ns",
            "ns",
            time_batches(each, |_| {
                let b = black_box(&prim).to_bytes();
                black_box(Primitive::from_bytes(&b).expect("decode"));
            }),
        ),
    ]
}

fn qos_probe(each: Duration) -> Metric {
    // A volume whose bucket never runs dry: admission cost alone.
    let qos = QosLimiter::new(QosConfig {
        ops_per_sec: 1e12,
        burst: 1e12,
        max_wait: Duration::from_secs(1),
    });
    per_call(
        "volume.qos.admit_ns",
        "ns",
        time_batches(each, |_| {
            qos.admit(VolumeId(1)).expect("admit");
        }),
    )
}
