//! Every metric the benchmark reports, by name, unit and direction. The passes
//! are checked against this list at run time and `BENCHMARK.json` against it
//! by a test, so a name cannot drift between the three.

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: false,
    }
}

/// The length of one measured window, in seconds, that every committed number
/// and bound was taken at: `--seconds`'s default and `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

/// What a user of the file system sees (tracing off). These five are the
/// `end_to_end` list of `BENCHMARK.json` and the metrics of the driver line.
pub const END_TO_END: [Decl; 5] = [
    higher("ops_per_s", "1/s"),
    lower("p50_us", "us"),
    lower("p95_us", "us"),
    lower("rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// The sixth end-to-end metric: ops that returned `Err` or a wrong answer ÷
/// ops attempted. It is 0 on every good run, and `BENCHMARK.json` may only
/// list metrics that are never 0, so there it is the driver line's `failed` and
/// `attempted`; result files and `compare` carry it under this name, gated at
/// exactly 0.
pub const FAILED_SHARE: Decl = lower("failed_share", "ratio");

/// The per-layer ledger, sorted by name (= by layer).
pub const PER_LAYER: [Decl; 74] = [
    lower("core.create.e2e_us", "us"),
    lower("core.create.layer_sum_us", "us"),
    lower("core.create.unattributed_share", "ratio"),
    lower("core.dcache.hit_ns", "ns"),
    lower("core.getattr.e2e_us", "us"),
    lower("core.getattr.layer_sum_us", "us"),
    lower("core.getattr.unattributed_share", "ratio"),
    lower("core.op.create.p50_us", "us"),
    lower("core.op.getattr.p50_us", "us"),
    lower("core.op.lookup.p50_us", "us"),
    lower("core.op.mkdir.p50_us", "us"),
    lower("core.op.readdir.p50_us", "us"),
    lower("core.op.rename_intra.p50_us", "us"),
    lower("core.op.rmdir.p50_us", "us"),
    lower("core.op.setattr.p50_us", "us"),
    lower("core.op.unlink.p50_us", "us"),
    lower("core.p999_us", "us"),
    lower("core.p99_us", "us"),
    lower("core.resolve.cold_rpcs", "1/op"),
    lower("core.resolve.cold_us", "us"),
    lower("core.resolve.warm_us", "us"),
    higher("core.window_ops_min_share", "ratio"),
    lower("filestore.delete_attr_us", "us"),
    lower("filestore.entries_per_op", "1/op"),
    lower("filestore.get_attr_us", "us"),
    lower("filestore.put_attr_us", "us"),
    lower("filestore.set_attr_us", "us"),
    lower("kvstore.checkpoint_10k_ms", "ms"),
    lower("kvstore.get_hit_us", "us"),
    lower("kvstore.get_miss_us", "us"),
    lower("kvstore.put_us", "us"),
    lower("kvstore.range_snapshot_10k_ms", "ms"),
    lower("kvstore.scan_100_us", "us"),
    lower("kvstore.table_count_100k", "count"),
    lower("obs.evicted_spans", "count"),
    lower("obs.spans_per_op", "1/op"),
    lower("obs.trace_overhead_share", "ratio"),
    lower("raft.bytes_per_commit", "B/op"),
    lower("raft.durable.propose_commit_us", "us"),
    higher("raft.entries_per_s_2p", "1/s"),
    lower("raft.msgs_per_commit", "1/op"),
    lower("raft.propose_commit_2p_us", "us"),
    lower("raft.propose_commit_us", "us"),
    lower("renamer.dir_cross_us", "us"),
    lower("renamer.dir_intra_us", "us"),
    lower("renamer.file_cross_us", "us"),
    lower("renamer.txn_calls_per_rename", "1/op"),
    lower("rpc.bytes_per_op", "B/op"),
    lower("rpc.call_rtt_us", "us"),
    lower("rpc.calls_app_per_op", "1/op"),
    lower("rpc.calls_per_op", "1/op"),
    lower("rpc.calls_raft_per_op", "1/op"),
    lower("rpc.calls_txn_per_op", "1/op"),
    lower("rpc.oneways_per_op", "1/op"),
    lower("tafdb.entries_per_op", "1/op"),
    lower("tafdb.execute_us", "us"),
    lower("tafdb.get_us", "us"),
    lower("tafdb.put_us", "us"),
    lower("tafdb.resolve_prefix_us", "us"),
    lower("tafdb.scan_64_us", "us"),
    lower("tafdb.shard.apply_create_us", "us"),
    lower("tafdb.shard.get_us", "us"),
    lower("tafdb.shard.snapshot_10k_ms", "ms"),
    lower("tafdb.snapshots_per_kop", "1/kop"),
    lower("tafdb.ts.alloc_id_us", "us"),
    lower("tafdb.ts.timestamp_us", "us"),
    lower("types.primitive_roundtrip_ns", "ns"),
    lower("types.record_decode_ns", "ns"),
    lower("types.record_encode_ns", "ns"),
    lower("volume.qos.admit_ns", "ns"),
    lower("wal.append_batch16_us", "us"),
    lower("wal.append_sync_us", "us"),
    lower("wal.bytes_per_payload_byte", "ratio"),
    lower("wal.replay_10k_ms", "ms"),
];

/// Fails unless `metrics` is exactly `decls`: same names, same units.
pub fn check(decls: &[Decl], metrics: &[crate::report::Metric]) -> Result<(), String> {
    let mut want: Vec<(&str, &str)> = decls.iter().map(|d| (d.name, d.unit)).collect();
    let mut got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
    Err(format!(
        "metrics differ from the catalog: missing {missing:?}, unexpected {extra:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the root of the repo declares exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        for (list, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String, String)> = file
                .get(list)
                .and_then(Json::as_arr)
                .expect("list present")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let catalog: Vec<(String, String, String)> = decls
                .iter()
                .map(|d| {
                    let better = if d.lower_is_better { "lower" } else { "higher" };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect();
            assert_eq!(declared, catalog, "{list}");
        }
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        // Its bounds are the ones the committed calibration derived.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../bounds.json");
        let text = std::fs::read_to_string(path).expect("bench/bounds.json");
        let calibrated = Json::parse(&text).expect("bounds.json parses");
        let bound_of = |list: &Json, name: &str| {
            list.as_arr()?
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
                .get("bound")?
                .as_f64()
        };
        for d in &END_TO_END {
            assert_eq!(
                bound_of(file.get("end_to_end").expect("list"), d.name),
                calibrated
                    .get("benchmark_json")
                    .and_then(|b| b.get(d.name))
                    .and_then(Json::as_f64),
                "{}",
                d.name
            );
        }
        let names: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_sorted_unique_and_within_the_contract() {
        assert!(PER_LAYER.windows(2).all(|w| w[0].name < w[1].name));
        for d in END_TO_END.iter().chain(&PER_LAYER).chain([&FAILED_SHARE]) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
