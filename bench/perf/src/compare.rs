//! `perf summarize` folds run files into a set (median and quartiles per
//! metric and workload); `perf bounds` derives from a calibration set the
//! bound of every (end-to-end metric, workload) pair; `perf compare` judges
//! set B against set A with those bounds.

use std::path::{Path, PathBuf};

use crate::catalog::{self, Decl, FAILED_SHARE};
use crate::json::{self, Json};
use crate::stats::{median_f64, quartiles};

const PASSES: [&str; 2] = ["end_to_end", "per_layer"];
/// A per-layer metric is listed once its median moved by more than this.
const LAYER_MOVE: f64 = 0.10;
/// Where `perf bounds` writes and `perf compare` reads, from the repo's root.
const BOUNDS_FILE: &str = "bench/bounds.json";
/// What must be equal in two results before their numbers may be compared
/// (`meta` of a run or a set): window length, load, delay, shape and pinning.
const SAME_META: [&str; 5] = ["seconds", "clients", "hop_us", "usable_cpus", "cluster"];

/// One metric of one workload across the runs of a set.
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    pub unit: String,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    pub fn of(unit: &str, values: &[f64]) -> Stat {
        let (q1, q3) = quartiles(values);
        Stat {
            unit: unit.to_string(),
            n: values.len(),
            median: median_f64(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("unit", Json::str(&*self.unit)),
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("iqr_share", Json::Num(self.iqr_share())),
            (
                "range_share",
                Json::Num(if self.median == 0.0 {
                    0.0
                } else {
                    (self.max - self.min) / self.median.abs()
                }),
            ),
        ])
    }

    /// Reads a set entry, or a run entry (`{"value", "unit"}`) as a set of one.
    fn from_json(v: &Json) -> Option<Stat> {
        let unit = v.get("unit")?.as_str()?.to_string();
        if let Some(value) = v.get("value").and_then(Json::as_f64) {
            return Some(Stat::of(&unit, &[value]));
        }
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Stat {
            unit,
            n: num("n")? as usize,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(workload, pass, metric) → Stat`, in file order.
type Table = Vec<((String, String, String), Stat)>;

/// Flattens a run file or a set file.
fn table_of(file: &Json) -> Result<Table, String> {
    let mut out = Vec::new();
    let workloads = file
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no \"workloads\" object")?;
    for (w, passes) in workloads {
        for pass in PASSES {
            let Some(p) = passes.get(pass) else { continue };
            // A run nests its metrics under "metrics"; a set lists them directly.
            let metrics = p.get("metrics").unwrap_or(p);
            // The sixth end-to-end metric comes from a run's op counts.
            let count = |k: &str| p.get(k).and_then(Json::as_f64);
            if let (true, Some(attempted), Some(failed)) =
                (pass == "end_to_end", count("attempted"), count("failed"))
            {
                let share = failed / attempted.max(1.0);
                let key = (w.clone(), pass.to_string(), FAILED_SHARE.name.to_string());
                out.push((key, Stat::of(FAILED_SHARE.unit, &[share])));
            }
            for (name, v) in metrics.as_obj().ok_or("metrics is not an object")? {
                let stat = Stat::from_json(v)
                    .ok_or_else(|| format!("{w}/{pass}/{name}: not a metric entry"))?;
                out.push(((w.clone(), pass.to_string(), name.clone()), stat));
            }
        }
    }
    Ok(out)
}

pub fn summarize_main(argv: &[String]) -> Result<bool, String> {
    let mut out: Option<PathBuf> = None;
    let mut commit = String::new();
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.into()),
            "--commit" => commit = it.next().ok_or("--commit needs a value")?.clone(),
            _ => files.push(PathBuf::from(a)),
        }
    }
    if files.is_empty() {
        return Err("summarize: no run files".into());
    }
    let runs: Vec<Json> = files
        .iter()
        .map(|f| read_json(f))
        .collect::<Result<_, _>>()?;
    for (f, r) in files.iter().zip(&runs) {
        let all_correct = r
            .get("workloads")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
            .flat_map(|(_, passes)| PASSES.iter().filter_map(|p| passes.get(p)))
            .all(|p| p.get("correct") == Some(&Json::Bool(true)));
        if !all_correct {
            return Err(format!(
                "{}: a run that failed its checks cannot enter a set",
                f.display()
            ));
        }
    }
    let set = summarize(&runs, &commit)?;
    match out {
        Some(path) => {
            crate::write_file(&path, &set.pretty())?;
            println!("wrote {}", path.display());
        }
        None => print!("{}", set.pretty()),
    }
    Ok(true)
}

/// Folds run files into one set file; a metric must appear in every run.
pub fn summarize(runs: &[Json], commit: &str) -> Result<Json, String> {
    let tables: Vec<Table> = runs.iter().map(table_of).collect::<Result<_, _>>()?;
    for r in &runs[1..] {
        same_meta(&runs[0], r).map_err(|why| format!("runs of one set differ: {why}"))?;
    }
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for (key, first) in &tables[0] {
        let values: Vec<f64> = tables
            .iter()
            .map(|t| {
                t.iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, s)| s.median)
                    .ok_or_else(|| format!("{key:?} is missing from a run"))
            })
            .collect::<Result<_, _>>()?;
        let (w, pass, name) = key;
        let metrics = json::child(json::child(&mut workloads, w), pass);
        metrics.push((name.clone(), Stat::of(&first.unit, &values).to_json()));
    }
    let seeds = runs
        .iter()
        .filter_map(|r| r.get("meta")?.get("seed").cloned())
        .collect();
    let mut meta = vec![
        ("runs".to_string(), Json::Num(runs.len() as f64)),
        ("seeds".to_string(), Json::Arr(seeds)),
        ("commit".to_string(), Json::str(commit)),
    ];
    if let Some(first) = runs[0].get("meta").and_then(Json::as_obj) {
        meta.extend(first.iter().filter(|(k, _)| k != "seed").cloned());
    }
    Ok(Json::obj(vec![
        ("meta", Json::Obj(meta)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// `Err` names the first field of [`SAME_META`] on which two results differ.
/// A field neither file records (a hand-made set) is not held against them.
fn same_meta(a: &Json, b: &Json) -> Result<(), String> {
    for key in SAME_META {
        let of = |f: &Json| f.get("meta").and_then(|m| m.get(key)).cloned();
        let (va, vb) = (of(a), of(b));
        if va != vb {
            let show = |v: Option<Json>| v.map_or("nothing".to_string(), |v| v.compact());
            return Err(format!("meta.{key}: {} against {}", show(va), show(vb)));
        }
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoChange,
    Regressed,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
    /// One of [`UNGATED`]: reported, not judged.
    Ungated,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no-change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Ungated => "ungated",
        }
    }
}

/// By how much B's median is worse than A's, as a share of A's (negative =
/// better).
pub fn worse_by(a: &Stat, b: &Stat, lower_is_better: bool) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    let change = (b.median - a.median) / a.median.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The rule: a spread (either side's quartile distance) wider than the bound
/// resolves nothing; otherwise worse by more than the bound is a regression,
/// better by more than the bound an improvement. Without a bound the pair is
/// only reported.
pub fn verdict(a: &Stat, b: &Stat, lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Ungated;
    };
    let spread = a.iqr_share().max(b.iqr_share());
    let w = worse_by(a, b, lower_is_better);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Regressed
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::NoChange
    }
}

/// The bound of one (metric, workload) pair, from the spread the calibration
/// measured for it: twice the spread, at least [`BOUND_FLOOR`] and never above
/// [`BOUND_CAP`] — a pair that needs more needs a steadier measurement, and
/// until it has one its rows come out `unresolved`.
pub fn pair_bound(spread: f64) -> f64 {
    ((2.0 * spread * 1e3).ceil() / 1e3).clamp(BOUND_FLOOR, BOUND_CAP)
}
pub const BOUND_FLOOR: f64 = 0.05;
pub const BOUND_CAP: f64 = 0.10;

/// End-to-end metrics `compare` reports without judging: on the sandbox the
/// bounds were calibrated on they do not repeat within [`BOUND_CAP`] on any
/// write workload (`p95_us` spreads 0.05–0.11, `setup_s` 0.06–0.18, from one
/// process to the next), and a bound wide enough for them would call a 20 %
/// loss `no-change`. `BENCHMARK.json` still bounds both: its reader wants
/// every metric bounded.
pub const UNGATED: [&str; 2] = ["p95_us", "setup_s"];

/// The one bound per metric `BENCHMARK.json` has room for. Its reader rejects
/// a change outright — it has no `unresolved` — so it is three times the
/// widest spread any workload showed, which is what keeps a noisy quarter of
/// an hour from reading as a regression; at most [`DRIVER_CAP`].
pub fn driver_bound(widest_spread: f64) -> f64 {
    ((3.0 * widest_spread * 1e2).ceil() / 1e2).clamp(BOUND_FLOOR, DRIVER_CAP)
}
pub const DRIVER_CAP: f64 = 0.25;

fn lower_is_better(decls: &[Decl], name: &str) -> Option<bool> {
    decls
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.lower_is_better)
}

/// `perf bounds SET.json [--out FILE]`: the calibration's step between
/// `summarize` and `compare`.
pub fn bounds_main(argv: &[String]) -> Result<bool, String> {
    let mut out = PathBuf::from(BOUNDS_FILE);
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().ok_or("--out needs a value")?.into(),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [set] = files.as_slice() else {
        return Err("bounds: give exactly one set file".into());
    };
    let file = derive_bounds(&read_json(set)?)?;
    crate::write_file(&out, &file.pretty())?;
    println!("wrote {}", out.display());
    println!("BENCHMARK.json must carry these bounds (a test holds it to them):");
    for (name, bound) in file
        .get("benchmark_json")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        println!("  {name:<10} {}", bound.compact());
    }
    Ok(true)
}

/// From a calibration set: per (end-to-end metric, workload) the spread and
/// the bound `compare` applies, and per metric the bound `BENCHMARK.json`
/// carries. `setup_s` gets the largest of those.
pub fn derive_bounds(set: &Json) -> Result<Json, String> {
    let table = table_of(set)?;
    let mut pairs = Vec::new();
    let mut per_metric: Vec<(String, Json)> = Vec::new();
    for d in &catalog::END_TO_END {
        let mut rows = Vec::new();
        let mut widest: f64 = 0.0;
        for ((w, pass, metric), stat) in &table {
            if pass != "end_to_end" || metric != d.name {
                continue;
            }
            if stat.n < 5 {
                return Err(format!("{w}/{metric}: {} runs calibrate nothing", stat.n));
            }
            let spread = stat.iqr_share();
            widest = widest.max(spread);
            rows.push((
                w.clone(),
                Json::obj(vec![
                    ("spread", Json::Num(spread)),
                    (
                        "bound",
                        if UNGATED.contains(&d.name) {
                            Json::Null
                        } else {
                            Json::Num(pair_bound(spread))
                        },
                    ),
                ]),
            ));
        }
        if rows.is_empty() {
            return Err(format!("the set holds no {}", d.name));
        }
        pairs.push((d.name.to_string(), Json::Obj(rows)));
        per_metric.push((d.name.to_string(), Json::Num(driver_bound(widest))));
    }
    let largest = per_metric
        .iter()
        .filter_map(|(_, b)| b.as_f64())
        .fold(0.0, f64::max);
    for (name, bound) in &mut per_metric {
        if name == "setup_s" {
            *bound = Json::Num(largest);
        }
    }
    Ok(Json::obj(vec![
        (
            "rule",
            Json::str(format!(
                "spread = distance between the quartiles of the calibration's runs / their \
                 median. pairs: bound = 2 x spread within [{BOUND_FLOOR}, {BOUND_CAP}]; null for \
                 the metrics compare does not judge ({}). benchmark_json: 3 x the widest spread \
                 of the metric, within [{BOUND_FLOOR}, {DRIVER_CAP}]; setup_s takes the largest.",
                UNGATED.join(", ")
            )),
        ),
        (
            "calibration",
            set.get("meta").cloned().unwrap_or(Json::Null),
        ),
        ("pairs", Json::Obj(pairs)),
        ("benchmark_json", Json::Obj(per_metric)),
    ]))
}

pub fn main(argv: &[String]) -> Result<bool, String> {
    let mut bounds = PathBuf::from(BOUNDS_FILE);
    let mut aa_out: Option<PathBuf> = None;
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds = it.next().ok_or("--bounds needs a value")?.into(),
            "--write-aa" => aa_out = Some(it.next().ok_or("--write-aa needs a value")?.into()),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare: give exactly two files, A.json and B.json".into());
    };
    let (a_file, b_file) = (read_json(a_path)?, read_json(b_path)?);
    let (report, clean, aa) = compare(&a_file, &b_file, &read_json(&bounds)?)?;
    print!("{report}");
    if let Some(path) = aa_out {
        let meta = |f: &Json| f.get("meta").cloned().unwrap_or(Json::Null);
        let file = Json::obj(vec![
            ("a", meta(&a_file)),
            ("b", meta(&b_file)),
            ("end_to_end", aa),
        ]);
        crate::write_file(&path, &file.pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(clean)
}

/// Returns the printed report, whether no row regressed or stayed
/// unresolved, and the A/A ledger: per (metric, workload) both sets'
/// statistics, the drift between their medians and the bound in force.
/// Refuses two results taken under different conditions.
pub fn compare(a: &Json, b: &Json, bounds: &Json) -> Result<(String, bool, Json), String> {
    use std::fmt::Write;
    same_meta(a, b).map_err(|why| format!("A and B are not comparable: {why}"))?;
    let (ta, tb) = (table_of(a)?, table_of(b)?);
    let find = |t: &Table, key: &(String, String, String)| {
        t.iter().find(|(k, _)| k == key).map(|(_, s)| s.clone())
    };
    let mut out = String::new();
    let mut clean = true;
    let mut ledger = Vec::new();
    writeln!(
        out,
        "end to end — ratio is B/A, its base the A column; spread is the wider of the two sets' \
         quartile distances ÷ median\n{:<13} {:<12} {:>12} {:>12} {:>7} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "worse by", "spread", "bound"
    )
    .expect("write to string");
    for d in catalog::END_TO_END.iter().chain([&FAILED_SHARE]) {
        for ((w, pass, metric), sa) in &ta {
            if pass != "end_to_end" || metric != d.name {
                continue;
            }
            let Some(sb) = find(&tb, &(w.clone(), pass.clone(), metric.clone())) else {
                return Err(format!("{w}/{metric} is in A but not in B"));
            };
            let (v, bound) = if d.name == FAILED_SHARE.name {
                // No share of nothing: any failed op in B is a regression.
                let v = if sb.max > 0.0 {
                    Verdict::Regressed
                } else {
                    Verdict::NoChange
                };
                (v, Some(0.0))
            } else {
                let bound = bounds
                    .get("pairs")
                    .and_then(|p| p.get(d.name))
                    .and_then(|m| m.get(w))
                    .and_then(|p| p.get("bound"))
                    .ok_or_else(|| format!("the bounds file has no pair {}/{w}", d.name))?
                    .as_f64();
                (verdict(sa, &sb, d.lower_is_better, bound), bound)
            };
            clean &= !matches!(v, Verdict::Regressed | Verdict::Unresolved);
            writeln!(
                out,
                "{:<13} {:<12} {:>12.4} {:>12.4} {:>7} {:>+9.4} {:>7.4} {:>6}  {}",
                w,
                metric,
                sa.median,
                sb.median,
                if sa.median == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", sb.median / sa.median)
                },
                worse_by(sa, &sb, d.lower_is_better),
                sa.iqr_share().max(sb.iqr_share()),
                bound.map_or("-".to_string(), |b| format!("{b:.3}")),
                v.label()
            )
            .expect("write to string");
            ledger.push(Json::obj(vec![
                ("workload", Json::str(&**w)),
                ("metric", Json::str(&**metric)),
                ("a", sa.to_json()),
                ("b", sb.to_json()),
                (
                    "b_worse_by",
                    Json::Num(worse_by(sa, &sb, d.lower_is_better)),
                ),
                ("bound", bound.map_or(Json::Null, Json::Num)),
                ("verdict", Json::str(v.label())),
            ]));
        }
    }
    writeln!(
        out,
        "per-layer metrics whose median moved by more than {LAYER_MOVE} of A's:"
    )
    .expect("write to string");
    let mut moved = 0;
    for ((w, pass, metric), sa) in &ta {
        if pass != "per_layer" || sa.median == 0.0 {
            continue;
        }
        let Some(sb) = find(&tb, &(w.clone(), pass.clone(), metric.clone())) else {
            continue;
        };
        let change = (sb.median - sa.median) / sa.median.abs();
        if change.abs() <= LAYER_MOVE {
            continue;
        }
        moved += 1;
        let lower = lower_is_better(&catalog::PER_LAYER, metric);
        let sense = match lower {
            Some(l) if (change < 0.0) == l => "better",
            Some(_) => "worse",
            None => "undeclared",
        };
        writeln!(
            out,
            "{:<13} {:<34} {:>12.4} -> {:>12.4} {:<6} ratio {:.4} ({sense})",
            w,
            metric,
            sa.median,
            sb.median,
            sa.unit,
            sb.median / sa.median
        )
        .expect("write to string");
    }
    if moved == 0 {
        writeln!(out, "(none, or the files hold no per-layer pass)").expect("write to string");
    }
    Ok((out, clean, Json::Arr(ledger)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(values: &[f64]) -> Stat {
        Stat::of("us", values)
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let a = stat(&[100.0, 101.0, 99.0, 100.0, 100.0]);
        let b5 = Some(0.05);
        // Lower is better, bound 5 %.
        assert_eq!(
            verdict(&a, &stat(&[103.0, 104.0, 102.0, 103.0]), true, b5),
            Verdict::NoChange
        );
        assert_eq!(
            verdict(&a, &stat(&[110.0, 111.0, 109.0, 110.0]), true, b5),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &stat(&[90.0, 91.0, 89.0, 90.0]), true, b5),
            Verdict::Improved
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&a, &stat(&[110.0, 111.0, 109.0, 110.0]), false, b5),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &stat(&[90.0, 91.0, 89.0, 90.0]), false, b5),
            Verdict::Regressed
        );
        // A spread wider than the bound resolves nothing, whatever the medians.
        let noisy = stat(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        assert_eq!(verdict(&a, &noisy, true, b5), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, true, b5), Verdict::Unresolved);
        // A single run has no spread of its own.
        assert_eq!(
            verdict(&stat(&[100.0]), &stat(&[120.0]), true, b5),
            Verdict::Regressed
        );
        // A pair without a bound is only reported.
        assert_eq!(verdict(&a, &stat(&[200.0]), true, None), Verdict::Ungated);
        assert!((worse_by(&a, &stat(&[110.0]), true) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn bounds_from_spreads() {
        // Twice the spread rounded up to a thousandth, within [5 %, 10 %].
        assert_eq!(pair_bound(0.006), 0.05);
        assert_eq!(pair_bound(0.0391), 0.079);
        assert_eq!(pair_bound(0.05), 0.10);
        assert_eq!(pair_bound(0.07), 0.10);
        // The driver's: three times the widest, within [0.05, 0.25].
        assert_eq!(driver_bound(0.006), 0.05);
        assert_eq!(driver_bound(0.0501), 0.16);
        assert_eq!(driver_bound(0.12), 0.25);
    }

    fn run_file(seed: u64, p50: f64, ops: f64, execute: f64) -> Json {
        run_file_with(seed, p50, ops, execute, 0, 20)
    }

    fn run_file_with(seed: u64, p50: f64, ops: f64, execute: f64, failed: u64, secs: u64) -> Json {
        let other = |name: &str| format!(r#""{name}": {{"value": 1, "unit": "x"}}"#);
        Json::parse(&format!(
            r#"{{"meta": {{"seed": {seed}, "seconds": {secs}, "clients": 2}},
                "workloads": {{"create_churn": {{
                  "end_to_end": {{"correct": {}, "attempted": 1000, "failed": {failed}, "metrics": {{
                     "p50_us": {{"value": {p50}, "unit": "us"}},
                     "ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                     {}, {}, {}}}}},
                  "per_layer": {{"correct": true, "attempted": 9, "failed": 0, "metrics": {{
                     "tafdb.execute_us": {{"value": {execute}, "unit": "us"}}}}}}}}}}}}"#,
            failed == 0,
            other("p95_us"),
            other("rss_mb"),
            other("setup_s"),
        ))
        .unwrap()
    }

    fn set(p50: f64, ops: f64, exec: f64) -> Json {
        let runs: Vec<Json> = (0..5)
            .map(|i| run_file(i, p50 + i as f64, ops - i as f64, exec))
            .collect();
        summarize(&runs, "abc").unwrap()
    }

    #[test]
    fn summarize_then_bounds_then_compare() {
        let a = set(400.0, 4000.0, 200.0);
        assert_eq!(
            a.get("meta").unwrap().get("runs").unwrap().as_f64(),
            Some(5.0)
        );
        assert_eq!(
            a.get("meta").unwrap().get("commit").unwrap().as_str(),
            Some("abc")
        );
        let e2e = a
            .get("workloads")
            .and_then(|w| w.get("create_churn"))
            .and_then(|w| w.get("end_to_end"))
            .unwrap();
        let p50 = e2e.get("p50_us").unwrap();
        assert_eq!(p50.get("median").unwrap().as_f64(), Some(402.0));
        assert_eq!(p50.get("n").unwrap().as_f64(), Some(5.0));
        // The sixth metric comes from the runs' op counts.
        let failed = e2e.get("failed_share").unwrap();
        assert_eq!(failed.get("max").unwrap().as_f64(), Some(0.0));

        // p50 runs 400..404: quartiles 400.5 and 403.5, spread 3/402.
        let bounds = derive_bounds(&a).unwrap();
        let pair = |m: &str| {
            let p = bounds.get("pairs").unwrap().get(m).unwrap();
            p.get("create_churn").unwrap().clone()
        };
        assert_eq!(
            pair("p50_us").get("spread").unwrap().as_f64(),
            Some(3.0 / 402.0)
        );
        assert_eq!(pair("p50_us").get("bound").unwrap().as_f64(), Some(0.05));
        assert_eq!(pair("p95_us").get("bound"), Some(&Json::Null));
        let driver = bounds.get("benchmark_json").unwrap();
        assert_eq!(driver.get("p50_us").unwrap().as_f64(), Some(0.05));
        assert!(derive_bounds(&run_file(1, 1.0, 1.0, 1.0))
            .unwrap_err()
            .contains("calibrate nothing"));

        // Same numbers: clean, nothing moved; six rows.
        let (text, clean, ledger) = compare(&a, &set(400.0, 4000.0, 200.0), &bounds).unwrap();
        assert!(clean, "{text}");
        assert!(!text.contains("regressed") && !text.contains("unresolved"));
        assert_eq!(ledger.as_arr().unwrap().len(), 6);
        // p50 20 % worse, execute 50 % slower: flagged and located.
        let (text, clean, _) = compare(&a, &set(480.0, 4000.0, 300.0), &bounds).unwrap();
        assert!(!clean);
        assert!(text.contains("regressed"), "{text}");
        assert!(
            text.contains("tafdb.execute_us") && text.contains("(worse)"),
            "{text}"
        );
        // A run file compares as a set of one.
        let (text, clean, _) = compare(&a, &run_file(9, 401.0, 3990.0, 200.0), &bounds).unwrap();
        assert!(clean, "{text}");
        // One failed op in B is a regression, whatever the rest says.
        let bad = run_file_with(9, 401.0, 3990.0, 200.0, 1, 20);
        let (text, clean, _) = compare(&a, &bad, &bounds).unwrap();
        assert!(!clean && text.contains("failed_share"), "{text}");
    }

    #[test]
    fn results_taken_under_different_conditions_do_not_compare() {
        let a = set(400.0, 4000.0, 200.0);
        let bounds = derive_bounds(&a).unwrap();
        let longer = run_file_with(9, 400.0, 4000.0, 200.0, 0, 30);
        let err = compare(&a, &longer, &bounds).unwrap_err();
        assert!(err.contains("meta.seconds: 20 against 30"), "{err}");
        let err = summarize(&[run_file(1, 1.0, 1.0, 1.0), longer], "").unwrap_err();
        assert!(err.contains("meta.seconds"), "{err}");
    }

    #[test]
    fn a_failed_run_cannot_enter_a_set() {
        let dir = crate::out_dir().join(format!("test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let text = run_file_with(1, 1.0, 1.0, 1.0, 1, 20).pretty();
        std::fs::write(&path, text).unwrap();
        let err = summarize_main(&[path.display().to_string()]).unwrap_err();
        assert!(err.contains("failed its checks"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
