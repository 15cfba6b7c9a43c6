//! Trace-enabled smoke run (the CI `obs` job): every operation against a
//! live cluster must emit a parent-consistent cross-node span tree.
//!
//! One deep `create` is checked in detail: its trace must chain
//! client → TafDB shard → Raft commit → FileStore with consistent parent
//! links and a depth of at least 4, and no span in the whole run may
//! reference a parent missing from its trace (no orphan cross-node spans).

use std::time::Duration;

use cfs_core::{CfsCluster, CfsConfig, FileSystem};
use cfs_obs::trace;

/// Node-id layout of `CfsCluster` (see `cfs_core::cluster`).
const TAF_BASE: u64 = 100;
const FS_BASE: u64 = 10_000;
const CLIENT_BASE: u64 = 1_000_000;

#[test]
fn deep_create_emits_a_consistent_cross_node_trace() {
    let cluster = CfsCluster::start(CfsConfig::test_small()).expect("cluster boot");
    let client = cluster.client();

    trace::enable();
    client.mkdir("/a").expect("mkdir /a");
    client.mkdir("/a/b").expect("mkdir /a/b");
    client.mkdir("/a/b/c").expect("mkdir /a/b/c");
    let _ = trace::drain(); // discard setup traffic

    client.create("/a/b/c/f").expect("create /a/b/c/f");
    let tid = trace::last_root_trace_id();
    assert_ne!(tid, 0, "the client must have opened a root trace");

    // Asynchronous hops (FileStore attr registration, raft replication)
    // record their spans shortly after the client call returns.
    std::thread::sleep(Duration::from_millis(300));
    let spans = trace::drain();
    trace::disable();
    assert_eq!(trace::evicted(), 0, "smoke run must fit the span ring");

    // No orphan spans anywhere in the run: every nonzero parent link must
    // resolve within its own trace.
    let orphans = trace::validate_spans(&spans);
    assert!(
        orphans.is_empty(),
        "orphan spans (parent missing in same trace): {orphans:?}"
    );

    // The create's own tree: one root, opened by the client.
    let trees = trace::build_trees(&spans, tid);
    assert_eq!(
        trees.len(),
        1,
        "the create trace must stitch into a single tree:\n{}",
        trace::render_trace(&spans, tid)
    );
    let tree = &trees[0];
    let rendered = trace::render_trace(&spans, tid);
    assert_eq!(tree.span.name, "fs.create", "root span is the client op");
    assert!(
        tree.span.node >= CLIENT_BASE,
        "root must sit on a client node, got {}:\n{rendered}",
        tree.span.node
    );
    assert!(
        tree.depth() >= 4,
        "expected depth >= 4 (client -> shard -> raft), got {}:\n{rendered}",
        tree.depth()
    );
    assert!(
        tree.contains("raft.propose"),
        "the commit hop must appear:\n{rendered}"
    );
    assert!(
        tree.contains("taf.execute"),
        "the shard execute hop must appear:\n{rendered}"
    );

    // Hop chain: the tree must visit a TafDB shard node and a FileStore
    // node besides the client.
    let nodes = tree.nodes();
    assert!(
        nodes.iter().any(|&n| (TAF_BASE..FS_BASE).contains(&n)),
        "no TafDB shard hop in {nodes:?}:\n{rendered}"
    );
    assert!(
        nodes.iter().any(|&n| (FS_BASE..CLIENT_BASE).contains(&n)),
        "no FileStore hop in {nodes:?}:\n{rendered}"
    );

    // A mkdir writes its attribute on the client's attribute writer while
    // it links: both commits must sit in the op's one tree.
    trace::enable();
    client.mkdir("/a/b/c/d").expect("mkdir /a/b/c/d");
    let tid = trace::last_root_trace_id();
    std::thread::sleep(Duration::from_millis(300));
    let spans = trace::drain();
    trace::disable();
    let orphans = trace::validate_spans(&spans);
    assert!(orphans.is_empty(), "orphan spans: {orphans:?}");
    let rendered = trace::render_trace(&spans, tid);
    let trees = trace::build_trees(&spans, tid);
    assert_eq!(trees.len(), 1, "one mkdir tree:\n{rendered}");
    assert_eq!(trees[0].span.name, "fs.mkdir");
    let commits = spans
        .iter()
        .filter(|s| s.trace_id == tid && s.name == "raft.propose")
        .count();
    assert!(
        commits >= 2,
        "the link's and the attribute's commits:\n{rendered}"
    );
}

#[test]
fn span_json_schema_is_stable() {
    // The CI job validates emitted span JSON; pin the field set here.
    let spans = vec![trace::SpanRecord {
        trace_id: 9,
        span_id: 2,
        parent: 1,
        node: 100,
        name: "rpc.handle",
        start_ns: 10,
        end_ns: 20,
    }];
    let text = trace::spans_to_json(&spans).to_text();
    for field in [
        "\"trace_id\"",
        "\"span_id\"",
        "\"parent\"",
        "\"node\"",
        "\"name\"",
        "\"start_ns\"",
        "\"end_ns\"",
    ] {
        assert!(text.contains(field), "missing {field} in {text}");
    }
}
