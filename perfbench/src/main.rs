//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|serve_cold|train_overlap|cycle_fig9|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Result files and span dumps go to
//! `.perfbench_out/` under the working directory. The exit code is 0 only
//! when every op passed its checks.

use perfbench::machine::Machine;
use perfbench::report::{write_spans, Report};
use perfbench::workloads::{Budget, Kind, ALL};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_cold|train_overlap|cycle_fig9|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    /// One workload, or `None` for all of them.
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = match workload.as_str() {
        "all" => None,
        name => Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Prints a report and writes its result file.
fn emit(report: &Report, machine: &Machine, seconds: f64) {
    report.print();
    match report.write(machine, seconds) {
        Ok(path) => println!("  wrote {path}"),
        Err(e) => eprintln!("perfbench: cannot write result file: {e}"),
    }
}

fn run_traced(kind: Kind, args: &Args, machine: &Machine) -> Report {
    let run = kind.run_traced(args.seed, Budget::Seconds(args.seconds));
    let report = Report::traced(kind, args.seed, &run);
    emit(&report, machine, args.seconds);
    match write_spans(kind, &run) {
        Ok(path) => println!("  wrote {path}"),
        Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
    }
    report
}

fn run_untraced(kind: Kind, args: &Args, machine: &Machine) -> Report {
    let run = kind.run(args.seed, Budget::Seconds(args.seconds));
    let report = Report::untraced(kind, args.seed, &run);
    emit(&report, machine, args.seconds);
    report
}

/// Runs every workload untraced and then traced; the traced run's
/// untraced reference pass must reproduce the untraced run's digest.
/// Prints a summary line with no metrics.
fn run_all(args: &Args, machine: &Machine) -> bool {
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    for kind in ALL {
        let plain = run_untraced(kind, args, machine);
        let traced = run_traced(kind, args, machine);
        let agree = plain.digest_ops == traced.digest_ops && plain.digest == traced.digest;
        println!(
            "  untraced and traced digests {}",
            if agree { "agree" } else { "DIFFER" }
        );
        ok &= agree && plain.correct() && traced.correct();
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
    }
    println!("{{\"correct\":{ok},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{}}}}");
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::detect();
    println!(
        "machine: {} | nproc {} | {} | commit {}",
        machine.cpu_model, machine.nproc, machine.rustc, machine.git_commit
    );

    let ok = match args.workload {
        Some(kind) => {
            let report = if args.trace {
                run_traced(kind, &args, &machine)
            } else {
                run_untraced(kind, &args, &machine)
            };
            println!("{}", report.contract_line());
            report.correct()
        }
        None => run_all(&args, &machine),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
