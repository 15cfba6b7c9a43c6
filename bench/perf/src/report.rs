//! What one run of one workload reports, and its renderings: the lines a
//! person reads, the one-line JSON the driver reads, and the result file
//! `summarize` / `compare` read back.

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 = not a sampled quantity).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
        }
    }

    pub fn sampled(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            samples,
            ..Metric::new(name, value, unit)
        }
    }
}

#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed checks, each printed as `check: FAIL <why>`.
    pub failures: Vec<String>,
    /// Free-form context printed under the metrics.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &'static str, attempted: u64, failed: u64) -> RunResult {
        RunResult {
            workload,
            correct: failed == 0,
            attempted,
            failed,
            metrics: Vec::new(),
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.failures.push(why);
    }

    pub fn print(&self, pass: &str) {
        println!("== {} [{pass}] ==", self.workload);
        for m in &self.metrics {
            if m.samples > 0 {
                println!(
                    "{:<36} {:>14.4} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            } else {
                println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        println!(
            "{:<36} {:>14.4} {:<6} ({} of {} ops after set-up)",
            crate::catalog::FAILED_SHARE.name,
            self.failed as f64 / self.attempted.max(1) as f64,
            crate::catalog::FAILED_SHARE.unit,
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            println!("note: {n}");
        }
        for f in &self.failures {
            println!("check: FAIL {f}");
        }
        if self.correct {
            println!("check: ok ({} ops, 0 failed)", self.attempted);
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`,
    /// `metrics` (one line once `compact()`ed).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new("w", 10, 0);
        r.metrics.push(Metric::new("p50_us", 431.25, "us"));
        let line = r.to_json().compact();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted"), Some(&Json::Num(10.0)));
        let m = v.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(431.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn a_failed_check_clears_correct() {
        let mut r = RunResult::new("w", 10, 0);
        assert!(r.correct);
        r.fail("readdir differs".into());
        assert!(!r.correct);
        assert!(!RunResult::new("w", 10, 1).correct);
    }
}
