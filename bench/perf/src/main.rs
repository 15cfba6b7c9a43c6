//! `perf` — the repo's benchmark. See `bench/README.md`, or `perf --help`.

mod catalog;
mod compare;
mod e2e;
mod json;
mod layers;
mod report;
mod rng;
mod span;
mod stats;
mod sut;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workloads::Workload;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    E2e,
    Layers,
    All,
}

struct Args {
    workloads: Vec<Workload>,
    mode: Mode,
    seed: u64,
    seconds: u64,
    /// Every workload and every check, briefly: 2 s, one set-up, end to end.
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: perf [--workload NAME] [--mode e2e|layers|all] [--trace 0|1] [--seed N] \
     [--seconds S] [--out FILE] [--smoke]\n       perf summarize [--commit REV] [--out FILE] \
     RUN.json...\n       perf bounds SET.json [--out bench/bounds.json]\n       \
     perf compare A.json B.json [--bounds bench/bounds.json] [--write-aa FILE]\n\
     workloads: create_churn dir_mut stat_deep opmix"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: workloads::ALL.to_vec(),
        mode: Mode::All,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        smoke: false,
        out: None,
    };
    // `--trace 0|1` is the driver's spelling of `--mode e2e|layers`; the pass
    // may be named more than once, but only one way.
    let mut named: Option<Mode> = None;
    let mut name_mode = |m: Mode| match named.replace(m) {
        Some(earlier) if earlier != m => Err(format!(
            "--mode/--trace/--smoke name two different passes ({earlier:?}, then {m:?})"
        )),
        _ => Ok(m),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            a.seconds = 2;
            a.mode = name_mode(Mode::E2e)?;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                a.workloads = vec![Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?]
            }
            "--mode" => {
                a.mode = name_mode(match value.as_str() {
                    "e2e" => Mode::E2e,
                    "layers" => Mode::Layers,
                    "all" => Mode::All,
                    _ => return Err(format!("unknown mode {value:?}")),
                })?
            }
            "--trace" => {
                a.mode = name_mode(match value.as_str() {
                    "0" => Mode::E2e,
                    "1" => Mode::Layers,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })?
            }
            "--seed" => a.seed = number()?,
            "--seconds" => {
                a.seconds = number()?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    Ok(a)
}

/// Where result files, span dumps and probe scratch files go: inside the
/// build directory, which every checkout already ignores.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perf")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Restricts this thread, and so every thread the run spawns, to one CPU.
///
/// The injected delays dominate, so a second core buys the simulated cluster
/// no throughput; what it does buy is a different placement of the 2 clients
/// and ≈ 100 server threads on every boot, which doubled the run-to-run
/// spread (`bench/README.md`, "One core"). The last allowed CPU is taken:
/// interrupts and other processes tend to sit on the first. A run that cannot
/// pin itself fails: its numbers would not be comparable with any other's.
fn pin_to_one_core() -> Result<(), String> {
    let cpus = sut::allowed_cpus();
    let cpu = *cpus
        .last()
        .ok_or("cannot read the CPUs this process may use")?;
    sut::pin_this_thread(cpu)
}

/// Runs every requested pass of every requested workload and writes the
/// result file; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let mut jobs = Vec::new();
    for &w in &args.workloads {
        if args.mode != Mode::Layers {
            jobs.push((w, false));
        }
        if args.mode != Mode::E2e {
            jobs.push((w, true));
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    match jobs.as_slice() {
        [(w, layers)] => run_one(args, *w, *layers, &path),
        _ => run_each_in_its_own_process(args, &jobs, &path),
    }
}

const PASS_KEYS: [&str; 2] = ["end_to_end", "per_layer"];

/// One pass of one workload in this process — what the driver runs.
fn run_one(args: &Args, w: Workload, layers: bool, path: &Path) -> Result<bool, String> {
    let nproc = sut::allowed_cpus().len();
    pin_to_one_core()?;
    println!("system under test: {}", sut::describe());
    println!(
        "seed {}, {} s measured per workload",
        args.seed, args.seconds
    );
    let r = if layers {
        layers::run(w, args.seed, args.seconds)?
    } else {
        e2e::run(
            w,
            args.seed,
            args.seconds,
            if args.smoke { 1 } else { SETUPS },
        )?
    };
    r.print(if layers {
        "per layer"
    } else {
        "end to end, tracing off"
    });
    let file = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds as f64)),
                ("nproc", Json::Num(nproc as f64)),
                ("usable_cpus", Json::Num(sut::allowed_cpus().len() as f64)),
                ("clients", Json::Num(workloads::CLIENTS as f64)),
                ("hop_us", Json::Num(sut::HOP_US as f64)),
                ("cluster", Json::str(sut::describe())),
            ]),
        ),
        (
            "workloads",
            Json::obj(vec![(
                w.name(),
                Json::obj(vec![(PASS_KEYS[usize::from(layers)], r.to_json())]),
            )]),
        ),
    ]);
    write_file(path, &file.pretty())?;
    println!("wrote {}", path.display());
    // The driver reads the last line of standard output.
    println!("{}", r.to_json().compact());
    Ok(r.correct)
}

/// Several passes: each runs as `perf --workload W --trace T ...` in a
/// process of its own, exactly as the driver runs it, so that `rss_mb` and
/// the allocator's state are a single run's and not the sum of those before.
fn run_each_in_its_own_process(
    args: &Args,
    jobs: &[(Workload, bool)],
    path: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut meta = Json::Null;
    let mut merged: Vec<(String, Json)> = Vec::new();
    for &(w, layers) in jobs {
        let part = out_dir().join(format!("part_{}.json", std::process::id()));
        let mut child = std::process::Command::new(&exe);
        if args.smoke {
            child.arg("--smoke");
        } else {
            child
                .args(["--trace", if layers { "1" } else { "0" }])
                .args(["--seconds", &args.seconds.to_string()]);
        }
        let status = child
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|_| {
            format!(
                "{} ({}) wrote no result",
                w.name(),
                PASS_KEYS[usize::from(layers)]
            )
        })?;
        let _ = std::fs::remove_file(&part);
        let file = Json::parse(&text)?;
        let key = PASS_KEYS[usize::from(layers)];
        let pass = file
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .and_then(|p| p.get(key))
            .ok_or("malformed part file")?;
        if let Some(m) = file.get("meta") {
            meta = m.clone();
        }
        json::child(&mut merged, w.name()).push((key.to_string(), pass.clone()));
    }
    let file = Json::obj(vec![("meta", meta), ("workloads", Json::Obj(merged))]);
    write_file(path, &file.pretty())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("summarize") => compare::summarize_main(&argv[1..]),
        Some("bounds") => compare::bounds_main(&argv[1..]),
        Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_window_defaults_to_the_calibrated_length() {
        let a = parse("--workload opmix").unwrap();
        assert_eq!(a.seconds, catalog::RUN_SECONDS);
        assert_eq!((a.mode, a.seed), (Mode::All, 1));
        assert_eq!(a.workloads, [Workload::OpMix]);
        assert_eq!(parse("--seconds 7 --seed 3").unwrap().seconds, 7);
        assert!(parse("--seconds 0").is_err());
    }

    #[test]
    fn the_pass_is_named_one_way() {
        assert_eq!(parse("--trace 1").unwrap().mode, Mode::Layers);
        assert_eq!(parse("--mode e2e --trace 0").unwrap().mode, Mode::E2e);
        let err = parse("--mode e2e --trace 1").err().unwrap();
        assert!(err.contains("two different passes"), "{err}");
        assert!(parse("--smoke --mode layers").is_err());
        assert!(parse("--trace 2").is_err());
    }
}
