//! Observability for the CFS reproduction: distributed tracing, a metrics
//! registry, and a critical-section profiler.
//!
//! The paper's central claim — CFS scales by *pruning the scope of critical
//! sections* — is an observability claim as much as a throughput claim: it
//! says locks are held for microseconds where lock-coupling baselines hold
//! them across network round trips. This crate provides the instruments that
//! make the claim directly measurable:
//!
//! * [`trace`] — a [`trace::TraceCtx`] propagated through the `cfs-rpc`
//!   envelope on every call, per-process lock-free ring-buffer span sinks,
//!   and an exporter that stitches cross-node spans into per-operation trees
//!   (client → TafDB shard → Raft commit → FileStore).
//! * [`metrics`] — per-node counters, gauges, and log2-bucket histograms
//!   cheap enough for hot paths (atomic adds, no locks on record), with
//!   snapshots that serialize to the hand-rolled [`Json`] emitter.
//! * [`profiler`] — drop-guard stopwatches that feed critical-section
//!   durations (lock wait/hold, Raft propose→apply, 2PC phases, kvstore
//!   checkpoint writes) into the registry.
//!
//! The crate carries no heavy dependencies: `std` atomics and the workspace's
//! own `cfs-types` only, so every layer of the system can afford to link it.

pub mod json;
pub mod metrics;
pub mod profiler;
pub mod ring;
pub mod trace;

pub use json::Json;
pub use metrics::Registry;
pub use profiler::Stopwatch;
pub use trace::TraceCtx;
