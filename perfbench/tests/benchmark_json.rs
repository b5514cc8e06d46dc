//! `BENCHMARK.json` at the repository root must describe exactly what the
//! benchmark reports: its workloads and both metric lists, with units.

use perfbench::report::END_TO_END;
use perfbench::workloads::{Kind, ALL, PER_LAYER};
use serde::Deserialize;

#[derive(Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn describes_every_workload() {
    let b = benchmark();
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    // cycle_fig9 stays runnable but is not listed: its run-to-run spread
    // is too wide for the benchmark's bounds on a shared host
    let expected: Vec<&str> = ALL
        .iter()
        .filter(|&&k| k != Kind::CycleFig9)
        .map(|k| k.name())
        .collect();
    assert_eq!(names, expected);
    assert!(b
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    assert!((1..=60).contains(&b.run_seconds));
    assert_eq!(b.paths, ["perfbench"]);
    assert!(b.command.iter().any(|c| c == "perfbench/Cargo.toml"));
}

#[test]
fn lists_the_metrics_the_program_reports() {
    let b = benchmark();
    let e2e: Vec<(&str, &str)> = b
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(e2e, END_TO_END);
    let layers: Vec<(&str, &str)> = b
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(layers, PER_LAYER);
    for m in &b.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = b.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(b.end_to_end.iter().all(|m| m.bound <= setup.bound));
    assert!(b
        .end_to_end
        .iter()
        .map(|m| &m.better)
        .chain(b.per_layer.iter().map(|m| &m.better))
        .all(|d| d == "higher" || d == "lower"));
}
