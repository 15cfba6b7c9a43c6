//! Synthetic production traces tr-0 / tr-1 / tr-2.
//!
//! The paper's three real-world traces are proprietary, but §5.8 publishes
//! everything that matters for replay: the file-system-call composition
//! (Table 3) and the file/IO size distributions (Figure 14). The generator
//! samples from those published marginals; the replayer executes the
//! resulting call stream against any [`FileSystem`] with data access enabled,
//! which is exactly the Figure 15 experiment.

use std::time::Instant;

use cfs_core::FileSystem;
use cfs_filestore::SetAttrPatch;
use cfs_types::FsResult;
use rand::{RngExt, SeedableRng};

use crate::metrics::Summary;
use crate::runner::BenchResult;

/// Which production trace to synthesize.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Read-only: 51.8% stat, 24.4% open, 17.8% read, 6.0% opendir.
    Tr0,
    /// Read-intensive with writes: 47.2% stat, 13.1% opendir, 11.6% read,
    /// 8.4% open(O_CREAT), 8.2% write, 8.0% unlink, 3.1% open, 0.3% rename.
    Tr1,
    /// Read-intensive with broader metadata updates: 49.3% stat, 19.0%
    /// opendir, 6.3% write, 6.2% open(O_CREAT), 6.2% chmod/chown, 5.6% open,
    /// 5.1% unlink, 1.3% mkdir, 1.0% read.
    Tr2,
}

impl TraceKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Tr0 => "tr-0",
            TraceKind::Tr1 => "tr-1",
            TraceKind::Tr2 => "tr-2",
        }
    }

    /// `(op, weight)` table from Table 3 (file system operations).
    pub fn op_mix(self) -> &'static [(FsOpKind, f64)] {
        match self {
            TraceKind::Tr0 => &[
                (FsOpKind::Stat, 51.8),
                (FsOpKind::Open, 24.4),
                (FsOpKind::Read, 17.8),
                (FsOpKind::Opendir, 6.0),
            ],
            TraceKind::Tr1 => &[
                (FsOpKind::Stat, 47.2),
                (FsOpKind::Opendir, 13.1),
                (FsOpKind::Read, 11.6),
                (FsOpKind::OpenCreat, 8.4),
                (FsOpKind::Write, 8.2),
                (FsOpKind::Unlink, 8.0),
                (FsOpKind::Open, 3.1),
                (FsOpKind::Rename, 0.3),
            ],
            TraceKind::Tr2 => &[
                (FsOpKind::Stat, 49.3),
                (FsOpKind::Opendir, 19.0),
                (FsOpKind::Write, 6.3),
                (FsOpKind::OpenCreat, 6.2),
                (FsOpKind::Chmod, 6.2),
                (FsOpKind::Open, 5.6),
                (FsOpKind::Unlink, 5.1),
                (FsOpKind::Mkdir, 1.3),
                (FsOpKind::Read, 1.0),
            ],
        }
    }

    /// File-size CDF `(size_bytes, cumulative_prob)` approximating Figure 14
    /// (e.g. 75.27% / 91.34% / 87.51% of files ≤ 32 KB).
    pub fn file_size_cdf(self) -> &'static [(u64, f64)] {
        match self {
            TraceKind::Tr0 => &[
                (1 << 10, 0.30),
                (32 << 10, 0.7527),
                (1 << 20, 0.95),
                (16 << 20, 1.0),
            ],
            TraceKind::Tr1 => &[
                (1 << 10, 0.50),
                (32 << 10, 0.9134),
                (1 << 20, 0.98),
                (16 << 20, 1.0),
            ],
            TraceKind::Tr2 => &[
                (1 << 10, 0.42),
                (32 << 10, 0.8751),
                (1 << 20, 0.97),
                (16 << 20, 1.0),
            ],
        }
    }

    /// I/O-size CDF approximating Figure 14 (45.20–70.70% of I/Os ≤ 1 KB,
    /// up to 96.37% ≤ 32 KB).
    pub fn io_size_cdf(self) -> &'static [(u64, f64)] {
        match self {
            TraceKind::Tr0 => &[(1 << 10, 0.452), (32 << 10, 0.92), (256 << 10, 1.0)],
            TraceKind::Tr1 => &[(1 << 10, 0.707), (32 << 10, 0.9637), (256 << 10, 1.0)],
            TraceKind::Tr2 => &[(1 << 10, 0.60), (32 << 10, 0.95), (256 << 10, 1.0)],
        }
    }
}

/// File-system call kinds appearing in the traces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FsOpKind {
    /// `stat` — one `getattr` metadata op.
    Stat,
    /// `open` (existing file) — one `getattr`.
    Open,
    /// `open(O_CREAT)` — `lookup` + `create`.
    OpenCreat,
    /// `read` — `getattr` + data fetch.
    Read,
    /// `write` — data write (+ size maintenance).
    Write,
    /// `opendir` — `lookup` (+ `readdir`).
    Opendir,
    /// `unlink`.
    Unlink,
    /// `rename`.
    Rename,
    /// `mkdir`.
    Mkdir,
    /// `chmod`/`chown` — `setattr`.
    Chmod,
}

impl FsOpKind {
    /// How many metadata operations this call triggers (paper §5.8: "one
    /// file system operation may trigger multiple metadata operations").
    pub fn metadata_ops(self) -> u64 {
        match self {
            FsOpKind::OpenCreat => 2,
            FsOpKind::Opendir => 2,
            _ => 1,
        }
    }
}

/// One replayable call.
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// `getattr(path)`.
    Stat(String),
    /// `create(path)`.
    Create(String),
    /// `read(path, offset, len)`.
    Read(String, u64, u32),
    /// `write(path, offset, len)` (payload synthesized at replay).
    Write(String, u64, u32),
    /// `readdir(path)`.
    Opendir(String),
    /// `unlink(path)`.
    Unlink(String),
    /// `rename(src, dst)`.
    Rename(String, String),
    /// `mkdir(path)`.
    Mkdir(String),
    /// `setattr(path, mode)`.
    Chmod(String, u32),
}

impl TraceOp {
    /// The call kind, for accounting.
    pub fn kind(&self) -> FsOpKind {
        match self {
            TraceOp::Stat(_) => FsOpKind::Stat,
            TraceOp::Create(_) => FsOpKind::OpenCreat,
            TraceOp::Read(..) => FsOpKind::Read,
            TraceOp::Write(..) => FsOpKind::Write,
            TraceOp::Opendir(_) => FsOpKind::Opendir,
            TraceOp::Unlink(_) => FsOpKind::Unlink,
            TraceOp::Rename(..) => FsOpKind::Rename,
            TraceOp::Mkdir(_) => FsOpKind::Mkdir,
            TraceOp::Chmod(..) => FsOpKind::Chmod,
        }
    }
}

/// A generated trace: per-client op streams plus the namespace to prepopulate.
pub struct Trace {
    /// Which production trace this models.
    pub kind: TraceKind,
    /// Directories to create before replay.
    pub dirs: Vec<String>,
    /// `(path, initial_size)` files to create before replay.
    pub files: Vec<(String, u64)>,
    /// One op stream per replay client.
    pub streams: Vec<Vec<TraceOp>>,
}

fn sample_cdf(cdf: &[(u64, f64)], rng: &mut impl rand::Rng) -> u64 {
    let p: f64 = rng.random();
    let mut lo = 1u64;
    for &(size, cum) in cdf {
        if p <= cum {
            // Log-uniform within the bucket [lo, size].
            let lo_l = (lo as f64).ln();
            let hi_l = (size.max(lo + 1) as f64).ln();
            let x: f64 = rng.random();
            return (lo_l + x * (hi_l - lo_l)).exp() as u64;
        }
        lo = size;
    }
    cdf.last().map_or(1, |&(s, _)| s)
}

impl Trace {
    /// Generates a trace with `clients` streams of `ops_per_client` calls
    /// over a namespace of `dirs_n` directories × `files_per_dir` files.
    ///
    /// `size_cap` truncates sampled file/IO sizes so laptop-scale replays
    /// stay fast (the paper's testbed wrote real multi-MB files).
    pub fn generate(
        kind: TraceKind,
        clients: usize,
        ops_per_client: usize,
        dirs_n: usize,
        files_per_dir: usize,
        size_cap: u64,
        seed: u64,
    ) -> Trace {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        dirs.push("/tr".to_string());
        for d in 0..dirs_n {
            dirs.push(format!("/tr/d{d}"));
        }
        let file_cdf = kind.file_size_cdf();
        for d in 0..dirs_n {
            for f in 0..files_per_dir {
                let size = sample_cdf(file_cdf, &mut rng).min(size_cap);
                files.push((format!("/tr/d{d}/f{f}"), size));
            }
        }
        // Per-client private working sets for mutating ops; the read-only
        // population is shared (realistic hot-set sharing).
        let mix = kind.op_mix();
        let total_w: f64 = mix.iter().map(|(_, w)| w).sum();
        let io_cdf = kind.io_size_cdf();
        let mut streams = Vec::new();
        for c in 0..clients {
            dirs.push(format!("/tr/own{c}"));
            let mut stream = Vec::new();
            let mut next_create = 0usize;
            let mut live: Vec<String> = Vec::new();
            // Seed each client's private set so unlink/rename have targets.
            for i in 0..8 {
                let p = format!("/tr/own{c}/seed{i}");
                files.push((p.clone(), 1024));
                live.push(p);
            }
            for _ in 0..ops_per_client {
                let mut pick: f64 = rng.random::<f64>() * total_w;
                let mut kind_pick = mix[0].0;
                for &(k, w) in mix {
                    if pick < w {
                        kind_pick = k;
                        break;
                    }
                    pick -= w;
                }
                fn shared_file(
                    rng: &mut impl rand::Rng,
                    dirs_n: usize,
                    files_per_dir: usize,
                ) -> String {
                    format!(
                        "/tr/d{}/f{}",
                        rng.random_range(0..dirs_n),
                        rng.random_range(0..files_per_dir)
                    )
                }
                let op = match kind_pick {
                    FsOpKind::Stat | FsOpKind::Open => {
                        TraceOp::Stat(shared_file(&mut rng, dirs_n, files_per_dir))
                    }
                    FsOpKind::Read => {
                        let len = sample_cdf(io_cdf, &mut rng).min(size_cap).max(1) as u32;
                        TraceOp::Read(shared_file(&mut rng, dirs_n, files_per_dir), 0, len)
                    }
                    FsOpKind::Write => {
                        // Writes target the client's private files to avoid
                        // cross-client write races during replay.
                        let len = sample_cdf(io_cdf, &mut rng).min(size_cap).max(1) as u32;
                        match live.last() {
                            Some(p) => TraceOp::Write(p.clone(), 0, len),
                            None => TraceOp::Stat(shared_file(&mut rng, dirs_n, files_per_dir)),
                        }
                    }
                    FsOpKind::OpenCreat => {
                        next_create += 1;
                        let p = format!("/tr/own{c}/n{next_create}");
                        live.push(p.clone());
                        TraceOp::Create(p)
                    }
                    FsOpKind::Opendir => {
                        TraceOp::Opendir(format!("/tr/d{}", rng.random_range(0..dirs_n)))
                    }
                    FsOpKind::Unlink => match live.pop() {
                        Some(p) => TraceOp::Unlink(p),
                        None => {
                            next_create += 1;
                            let p = format!("/tr/own{c}/n{next_create}");
                            TraceOp::Create(p)
                        }
                    },
                    FsOpKind::Rename => match live.pop() {
                        Some(p) => {
                            next_create += 1;
                            let dst = format!("/tr/own{c}/m{next_create}");
                            live.push(dst.clone());
                            TraceOp::Rename(p, dst)
                        }
                        None => TraceOp::Stat(shared_file(&mut rng, dirs_n, files_per_dir)),
                    },
                    FsOpKind::Mkdir => {
                        next_create += 1;
                        TraceOp::Mkdir(format!("/tr/own{c}/dir{next_create}"))
                    }
                    FsOpKind::Chmod => TraceOp::Chmod(
                        match live.last() {
                            Some(p) => p.clone(),
                            None => shared_file(&mut rng, dirs_n, files_per_dir),
                        },
                        0o640,
                    ),
                };
                stream.push(op);
            }
            streams.push(stream);
        }
        Trace {
            kind,
            dirs,
            files,
            streams,
        }
    }

    /// Creates the namespace the streams expect (dirs, files with initial
    /// content).
    pub fn prepopulate(&self, fs: &dyn FileSystem) -> FsResult<()> {
        for d in &self.dirs {
            let _ = fs.mkdir(d);
        }
        let payload = vec![0xA5u8; 256 << 10];
        for (p, size) in &self.files {
            fs.create(p)?;
            if *size > 0 {
                let n = (*size).min(payload.len() as u64) as usize;
                fs.write(p, 0, &payload[..n])?;
            }
        }
        Ok(())
    }

    /// Total calls across all streams.
    pub fn total_ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// Result of a trace replay.
pub struct TraceReplay {
    /// File-system-call level result.
    pub fsops: BenchResult,
    /// Estimated metadata operations performed (per Table 3 multipliers).
    pub metadata_ops: u64,
}

impl TraceReplay {
    /// Metadata operation throughput.
    pub fn metadata_throughput(&self) -> f64 {
        if self.fsops.wall.is_zero() {
            0.0
        } else {
            self.metadata_ops as f64 / self.fsops.wall.as_secs_f64()
        }
    }
}

/// Replays a trace: one thread per stream against its own handle.
pub fn replay<FS, F>(trace: &Trace, make_fs: F) -> TraceReplay
where
    FS: FileSystem + 'static,
    F: Fn(usize) -> FS + Sync,
{
    let start = Instant::now();
    let results: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, stream) in trace.streams.iter().enumerate() {
            let fs = make_fs(c);
            handles.push(scope.spawn(move || {
                let payload = vec![0x5Au8; 256 << 10];
                let mut samples: Vec<u64> = Vec::with_capacity(stream.len());
                let mut errors = 0u64;
                let mut meta = 0u64;
                for op in stream {
                    let t0 = Instant::now();
                    let res: FsResult<()> = match op {
                        TraceOp::Stat(p) => fs.getattr(p).map(|_| ()),
                        TraceOp::Create(p) => fs.create(p).map(|_| ()),
                        TraceOp::Read(p, off, len) => fs.read(p, *off, *len as usize).map(|_| ()),
                        TraceOp::Write(p, off, len) => fs.write(p, *off, &payload[..*len as usize]),
                        TraceOp::Opendir(p) => fs.readdir(p).map(|_| ()),
                        TraceOp::Unlink(p) => fs.unlink(p),
                        TraceOp::Rename(a, b) => fs.rename(a, b),
                        TraceOp::Mkdir(p) => fs.mkdir(p).map(|_| ()),
                        TraceOp::Chmod(p, mode) => fs.setattr(
                            p,
                            SetAttrPatch {
                                mode: Some(*mode),
                                ..Default::default()
                            },
                        ),
                    };
                    match res {
                        Ok(()) => {
                            samples.push(t0.elapsed().as_nanos() as u64);
                            meta += op.kind().metadata_ops();
                        }
                        Err(_) => errors += 1,
                    }
                }
                (errors, meta, samples)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = Vec::new();
    let mut errors = 0;
    let mut metadata_ops = 0;
    for (e, m, s) in results {
        errors += e;
        metadata_ops += m;
        samples.extend(s);
    }
    TraceReplay {
        fsops: BenchResult {
            ops: samples.len() as u64,
            errors,
            wall,
            latency: Summary::from_samples(&mut samples),
        },
        metadata_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn op_mixes_sum_to_100() {
        for kind in [TraceKind::Tr0, TraceKind::Tr1, TraceKind::Tr2] {
            let total: f64 = kind.op_mix().iter().map(|(_, w)| w).sum();
            assert!(
                (total - 100.0).abs() < 0.5,
                "{} mix sums to {total}",
                kind.name()
            );
        }
    }

    #[test]
    fn generated_mix_tracks_table3() {
        let t = Trace::generate(TraceKind::Tr1, 2, 4000, 4, 8, 64 << 10, 7);
        let mut counts: std::collections::HashMap<FsOpKind, usize> =
            std::collections::HashMap::new();
        for s in &t.streams {
            for op in s {
                *counts.entry(op.kind()).or_default() += 1;
            }
        }
        let total = t.total_ops() as f64;
        let stat_frac = *counts.get(&FsOpKind::Stat).unwrap_or(&0) as f64 / total;
        // Stat+Open are both emitted as Stat; Table 3 says 47.2 + 3.1 ≈ 50%.
        assert!(
            (0.40..0.65).contains(&stat_frac),
            "stat fraction {stat_frac}"
        );
        let write_frac = *counts.get(&FsOpKind::Write).unwrap_or(&0) as f64 / total;
        assert!(
            (0.04..0.13).contains(&write_frac),
            "write fraction {write_frac}"
        );
    }

    #[test]
    fn size_sampling_respects_cdf_shape() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let cdf = TraceKind::Tr1.file_size_cdf();
        let mut small = 0;
        let n = 10_000;
        for _ in 0..n {
            if sample_cdf(cdf, &mut rng) <= 32 << 10 {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!(
            (0.87..0.96).contains(&frac),
            "expected ~91.34% of files ≤32KB, got {frac}"
        );
    }

    #[test]
    fn replay_against_cfs_completes() {
        let cluster =
            Arc::new(cfs_core::CfsCluster::start(cfs_core::CfsConfig::test_small()).unwrap());
        let t = Trace::generate(TraceKind::Tr2, 2, 60, 2, 4, 8 << 10, 9);
        t.prepopulate(&cluster.client()).unwrap();
        let c2 = Arc::clone(&cluster);
        let r = replay(&t, move |_| c2.client());
        assert_eq!(
            r.fsops.errors, 0,
            "replay must be race-free by construction"
        );
        assert_eq!(r.fsops.ops as usize, t.total_ops());
        assert!(r.metadata_ops >= r.fsops.ops);
    }
}
