//! Turning runs into metrics: the printed lines, the result file and the
//! final JSON line.

use crate::machine::{peak_rss_mb, Machine};
use crate::stats::{fail_ratio, quartiles, tail, Outcome, Quartiles};
use crate::workloads::{run_digest, Kind, TracedRun, UntracedRun, PER_LAYER};
use serde::{Serialize, Value};
use std::path::Path;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Directory, relative to the working directory, that result files and
/// span dumps are written to.
pub const OUT_DIR: &str = ".perfbench_out";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Distribution of the samples behind it.
    pub dist: Quartiles,
    /// For a tail latency: the percentile chosen and the samples beyond.
    pub tail: Option<(f64, usize)>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        let dist = quartiles(samples).unwrap_or(Quartiles {
            samples: 0,
            q1: value,
            median: value,
            q3: value,
        });
        Metric {
            name,
            unit,
            value,
            dist,
            tail: None,
        }
    }

    fn json(&self) -> Value {
        let mut fields = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::Str(self.unit.into())),
            ("samples".to_string(), Value::UInt(self.dist.samples as u64)),
            ("median".to_string(), Value::Float(self.dist.median)),
            ("q1".to_string(), Value::Float(self.dist.q1)),
            ("q3".to_string(), Value::Float(self.dist.q3)),
        ];
        if let Some((p, beyond)) = self.tail {
            fields.push(("percentile".into(), Value::Float(p)));
            fields.push(("beyond".into(), Value::UInt(beyond as u64)));
        }
        Value::Map(fields)
    }
}

/// A finished run, ready to print.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Ops attempted, including traced replays.
    pub attempted: usize,
    /// Ops failed or refused.
    pub failed: usize,
    /// `failed / attempted`; refusals count as failures.
    pub fail_ratio: f64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Digest of the first `digest_ops` ops' simulated outputs.
    pub digest: u64,
    /// Ops the digest covers.
    pub digest_ops: usize,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Simulated headline values printed for context.
    pub headlines: Vec<(&'static str, f64)>,
}

/// How many outcomes failed, and the first few failures.
fn failures(outcomes: &[Outcome]) -> (usize, Vec<String>) {
    let failed: Vec<String> = outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Ok => None,
            Outcome::Refused(d) => Some(format!("refused: {d}")),
            Outcome::Wrong(d) => Some(format!("wrong: {d}")),
        })
        .collect();
    let n = failed.len();
    (n, failed.into_iter().take(5).collect())
}

impl Report {
    /// The end-to-end metrics of an untraced run.
    pub fn untraced(kind: Kind, seed: u64, run: &UntracedRun) -> Report {
        let latencies_ms: Vec<f64> = run.ops.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
        let mut sorted = latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let lat = quartiles(&latencies_ms);
        let t = tail(&sorted);
        let setup = quartiles(&run.setup_s).map_or(0.0, |q| q.median);
        // the median window rate resists bursts of load from outside the
        // benchmark; a run too short for three windows uses its mean
        let ops_per_s = if run.window_rates.len() >= 3 {
            quartiles(&run.window_rates).map_or(0.0, |q| q.median)
        } else if run.elapsed_s > 0.0 {
            run.ops.len() as f64 / run.elapsed_s
        } else {
            0.0
        };
        let rss = peak_rss_mb();
        let mut tail_metric = Metric::new(
            "latency_tail_ms",
            "ms",
            t.map_or(0.0, |t| t.value),
            &latencies_ms,
        );
        tail_metric.tail = t.map(|t| (t.percentile, t.beyond));
        let metrics = vec![
            Metric::new("setup_s", "s", setup, &run.setup_s),
            Metric::new("ops_per_s", "1/s", ops_per_s, &run.window_rates),
            Metric::new(
                "latency_p50_ms",
                "ms",
                lat.map_or(0.0, |q| q.median),
                &latencies_ms,
            ),
            tail_metric,
            Metric::new("peak_rss_mb", "MB", rss, &[rss]),
        ];
        let outcomes: Vec<Outcome> = run.ops.iter().map(|o| o.outcome.clone()).collect();
        let (failed, failures) = failures(&outcomes);
        Report {
            workload: kind.name(),
            seed,
            traced: false,
            attempted: outcomes.len(),
            failed,
            fail_ratio: fail_ratio(&outcomes),
            failures,
            digest: run_digest(&run.ops, run.digest_ops),
            digest_ops: run.digest_ops.min(run.ops.len()),
            metrics,
            headlines: run.headlines.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }

    /// The per-layer metrics of a traced run: each the median over passes.
    pub fn traced(kind: Kind, seed: u64, run: &TracedRun) -> Report {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let per_pass: Vec<f64> = run
                    .layers
                    .iter()
                    .map(|l| l.get(name).copied().unwrap_or(0.0))
                    .collect();
                let value = quartiles(&per_pass).map_or(0.0, |q| q.median);
                Metric::new(name, unit, value, &per_pass)
            })
            .collect();
        let outcomes = run.outcomes();
        let (failed, failures) = failures(&outcomes);
        Report {
            workload: kind.name(),
            seed,
            traced: true,
            attempted: outcomes.len(),
            failed,
            fail_ratio: fail_ratio(&outcomes),
            failures,
            digest: run_digest(&run.reference, run.reference.len()),
            digest_ops: run.reference.len(),
            metrics,
            headlines: Vec::new(),
        }
    }

    /// Whether every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines.
    pub fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({mode}, seed {})", self.workload, self.seed);
        for m in &self.metrics {
            let extra = match m.tail {
                Some((p, beyond)) => {
                    format!("  (p{p}, {} samples, {beyond} beyond)", m.dist.samples)
                }
                None => String::new(),
            };
            println!("  {:<28} {:>16.6} {}{extra}", m.name, m.value, m.unit);
        }
        for (name, value) in &self.headlines {
            println!("  {name:<28} {value:>16.6}");
        }
        println!(
            "  {:<28} {:>16.6} ({} of {} ops)",
            "fail_ratio", self.fail_ratio, self.failed, self.attempted
        );
        println!(
            "  {:<28} {:016x} (first {} ops)",
            "digest", self.digest, self.digest_ops
        );
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }

    /// The result file: machine, run identity, and every metric with its
    /// sample count, median and quartiles.
    pub fn result_json(&self, machine: &Machine, seconds: f64) -> String {
        let m = Value::Map(vec![
            ("cpu_model".into(), Value::Str(machine.cpu_model.clone())),
            ("nproc".into(), Value::UInt(machine.nproc as u64)),
            ("rustc".into(), Value::Str(machine.rustc.clone())),
            ("git_commit".into(), Value::Str(machine.git_commit.clone())),
        ]);
        let v = Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("seconds".into(), Value::Float(seconds)),
            ("trace".into(), Value::Bool(self.traced)),
            ("machine".into(), m),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted as u64)),
            ("failed".into(), Value::UInt(self.failed as u64)),
            ("fail_ratio".into(), Value::Float(self.fail_ratio)),
            ("digest".into(), Value::Str(format!("{:016x}", self.digest))),
            ("digest_ops".into(), Value::UInt(self.digest_ops as u64)),
            (
                "headlines".into(),
                Value::Map(
                    self.headlines
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Value::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), m.json()))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&Json(v)).expect("values encode")
    }

    /// The final stdout line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted as u64)),
            ("failed".into(), Value::UInt(self.failed as u64)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&Json(v)).expect("values encode")
    }

    /// Writes the result file into [`OUT_DIR`]; returns its path.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write(&self, machine: &Machine, seconds: f64) -> std::io::Result<String> {
        std::fs::create_dir_all(OUT_DIR)?;
        let trace = if self.traced { 1 } else { 0 };
        let path = Path::new(OUT_DIR).join(format!("{}-trace{trace}.json", self.workload));
        std::fs::write(&path, self.result_json(machine, seconds) + "\n")?;
        Ok(path.display().to_string())
    }
}

/// Writes a traced run's last pass of spans into [`OUT_DIR`].
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_spans(kind: Kind, run: &TracedRun) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("{}-spans.tsv", kind.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    run.tracer.write_tsv(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path.display().to_string())
}

/// A prebuilt value tree, serialized as is.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::OpResult;
    use std::collections::BTreeMap;

    #[test]
    fn untraced_reports_every_end_to_end_metric_in_the_contract_line() {
        let op = |index, ms: u64| OpResult {
            index,
            latency_ns: ms * 1_000_000,
            outcome: Outcome::Ok,
            digest: 7,
        };
        let run = UntracedRun {
            setup_s: vec![0.5, 0.25, 0.75],
            ops: vec![op(0, 2), op(1, 4), op(2, 6)],
            elapsed_s: 1.5,
            window_rates: Vec::new(),
            headlines: BTreeMap::new(),
            digest_ops: 3,
        };
        let r = Report::untraced(Kind::CycleFig9, 1, &run);
        let listed: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(listed, END_TO_END);
        assert_eq!(r.metrics[0].value, 0.5);
        assert_eq!(r.metrics[1].value, 2.0);
        assert_eq!(r.metrics[2].value, 4.0);
        assert!(r.correct());
        assert!(r.contract_line().starts_with(
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},"
        ));
    }
}
