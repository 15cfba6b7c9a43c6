//! Measurement harness: workload generators, trace synthesis, metrics.
//!
//! The harness drives any [`cfs_core::FileSystem`] implementation — CFS, the
//! baselines, and the ablation variants — through mdtest-style per-operation
//! microbenchmarks with configurable client counts / contention rates /
//! directory sizes (paper §5.1), and through synthetic versions of the three
//! production traces *tr-0/1/2* whose op mixes follow Table 3 and whose
//! file/IO-size distributions follow Figure 14.

pub mod metrics;
pub mod model;
pub mod nemesis;
pub mod runner;
pub mod soak;
pub mod tenants;
pub mod traces;
pub mod workload;

pub use metrics::Summary;
pub use model::Model;
pub use nemesis::{run_nemesis, Divergence, NemOp, NemesisOptions, NemesisReport, NemesisSchedule};
pub use runner::{run_clients, BenchResult};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use tenants::{run_tenant_nemesis, IsolationViolation, TenantReport};
pub use traces::{Trace, TraceKind, TraceOp};
pub use workload::{prepare_op_workload, MetaOp, WorkloadOptions};

/// Reads the `CFS_BENCH_SCALE` multiplier (default 1) applied to client
/// counts and workload sizes so `cargo bench` stays fast by default while a
/// beefier machine can approach the paper's scale.
pub fn bench_scale() -> usize {
    std::env::var("CFS_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}
