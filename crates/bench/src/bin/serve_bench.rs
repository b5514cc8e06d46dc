//! Serving-daemon load generator (the `BENCH_serve.json` evidence for
//! the PR-9 acceptance criterion).
//!
//! Runs one phase per target cache-hit ratio, each against a *fresh*
//! in-process daemon over real TCP (so the 0% phase is never warmed by
//! an earlier one). Unique cold keys are minted by wrapping the base
//! torus in distinct — but semantically full-rate — `with_link_rates`
//! overrides: every such spec canonicalizes to a different
//! `ScheduleKey` while building the identical machine, so "cold" costs
//! exactly one schedule compile and nothing else varies.
//!
//! The hit-ratio phases issue requests synchronously (send, wait,
//! measure), giving per-request latency percentiles and requests/sec.
//! The `batched` phase then pipelines a same-key payload ladder through
//! one connection ([`Client::send_many`]), which is what actually feeds
//! the daemon's coalescing dequeue — batch occupancy is recorded from
//! the daemon's own counters. The simulated results per request are
//! dumped with `--ndjson` and must be byte-identical for ANY
//! `--workers` and ANY `--max-batch` value (the determinism contract —
//! wall-clock numbers live only in the `--json` summary, which is
//! expected to vary).
//!
//! ```text
//! cargo run --release -p mt-bench --bin serve_bench \
//!     [-- --rows 32] [--cols 32] [--requests 40] [--workers 2] \
//!     [--max-batch 8] [--payload-kib 1024] \
//!     [--json BENCH_serve.json] [--ndjson out.ndjson]
//! ```
//!
//! Exits non-zero unless the 90%-hit phase sustains ≥ 5× the req/s of
//! the 0% phase AND the batched phase sustains ≥ 2× the req/s of the
//! synchronous 90%-hit phase (skip with `--no-gate` for exploratory
//! runs).

use mt_bench::args::Args;
use mt_bench::dump_json;
use mt_serve::{
    AlgorithmSpec, Client, Daemon, EngineSpec, Request, Response, RunRequest, ServeConfig,
};
use mt_topology::TopologySpec;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct PhaseSummary {
    /// `"sync"` (request-response) or `"pipelined"` (batched phase).
    mode: &'static str,
    target_hit_ratio: f64,
    requests: usize,
    observed_hits: u64,
    observed_misses: u64,
    /// Coalesced batches executed / runs they carried / occupancy
    /// histogram (bucket i = occupancy i+1), from the daemon counters.
    batches: u64,
    batched_runs: u64,
    mean_occupancy: f64,
    batch_occupancy: Vec<u64>,
    wall_ms: f64,
    req_per_sec: f64,
    /// In pipelined mode per-request latency is not observable from the
    /// client; both percentiles report the per-request mean (wall / n).
    p50_ms: f64,
    p99_ms: f64,
}

#[derive(Debug, Serialize)]
struct Summary {
    nodes: usize,
    algorithm: &'static str,
    payload_bytes: u64,
    workers: usize,
    max_batch: usize,
    phases: Vec<PhaseSummary>,
    speedup_90_vs_0: f64,
    speedup_batched_vs_sync90: f64,
}

/// The i-th distinct-but-equivalent spec over the same torus: a
/// full-rate override on link `i`, purely to mint a fresh cache key.
fn cold_spec(base: &TopologySpec, i: usize, n_links: usize) -> TopologySpec {
    TopologySpec::WithLinkRates {
        base: Box::new(base.clone()),
        rates: vec![(i % n_links, 1, 1)],
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn ndjson_line(ndjson: &mut Vec<u8>, phase: &str, i: usize, run: &mt_serve::RunResponse) {
    // deterministic fields only: identical for any worker count and any
    // max-batch (occupancy is provenance, not simulation output)
    writeln!(
        ndjson,
        "{{\"phase\":\"{phase}\",\"i\":{i},\"key\":\"{}\",\"completion_ns\":{},\"messages\":{},\"flits\":{},\"verified\":{}}}",
        run.key, run.completion_ns, run.messages, run.flits_sent, run.verified
    )
    .expect("ndjson write");
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    ratio: f64,
    base: &TopologySpec,
    n_links: usize,
    requests: usize,
    workers: usize,
    max_batch: usize,
    payload: u64,
    ndjson: &mut Vec<u8>,
) -> PhaseSummary {
    let mut d = Daemon::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            max_batch,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let mut client = Client::connect(d.addr()).expect("connect");

    // warm the shared key outside the measured window iff hits are wanted
    let warm_spec = base.clone();
    if ratio > 0.0 {
        let resp = client
            .request(&Request::Run(RunRequest {
                topology: warm_spec.clone(),
                algorithm: AlgorithmSpec::Hierarchical,
                payload_bytes: payload,
                engine: EngineSpec::Flow,
                faults: None,
            }))
            .expect("warm request");
        assert!(matches!(resp, Response::Run(_)), "warm-up failed: {resp:?}");
    }

    // deterministic request stream: every k-th request is a fresh key
    let miss_every = if ratio >= 1.0 {
        usize::MAX
    } else {
        (1.0 / (1.0 - ratio)).round() as usize
    };
    let mut cold = 0usize;
    let mut latencies_ms = Vec::with_capacity(requests);
    let wall = Instant::now();
    for i in 0..requests {
        let topology = if i % miss_every == 0 {
            cold += 1;
            cold_spec(base, cold, n_links)
        } else {
            warm_spec.clone()
        };
        let req = Request::Run(RunRequest {
            topology,
            algorithm: AlgorithmSpec::Hierarchical,
            payload_bytes: payload,
            engine: EngineSpec::Flow,
            faults: None,
        });
        let t0 = Instant::now();
        let resp = client.request(&req).expect("request");
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Response::Run(run) = resp else {
            panic!("request {i} failed: {resp:?}");
        };
        assert!(run.verified, "request {i} served an unverified schedule");
        ndjson_line(ndjson, &format!("sync-{ratio}"), i, &run);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let stats = d.stats();
    drop(client);
    d.shutdown();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    PhaseSummary {
        mode: "sync",
        target_hit_ratio: ratio,
        requests,
        observed_hits: stats.hits,
        observed_misses: stats.misses,
        batches: stats.batches,
        batched_runs: stats.batched_runs,
        mean_occupancy: stats.batched_runs as f64 / (stats.batches.max(1)) as f64,
        batch_occupancy: stats.batch_occupancy,
        wall_ms: wall_s * 1e3,
        req_per_sec: requests as f64 / wall_s,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

/// The batched phase: one warm key, then `requests` same-key runs
/// pipelined down one connection. Payloads form a ladder in blocks of
/// eight equal sizes, so coalesced batches usually carry repeated
/// payloads while the ladder still proves mixed-payload batches return
/// per-payload results.
fn run_batched_phase(
    base: &TopologySpec,
    requests: usize,
    workers: usize,
    max_batch: usize,
    payload: u64,
    ndjson: &mut Vec<u8>,
) -> PhaseSummary {
    let mut d = Daemon::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            max_batch,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let mut client = Client::connect(d.addr()).expect("connect");

    let run_req = |payload_bytes: u64| {
        Request::Run(RunRequest {
            topology: base.clone(),
            algorithm: AlgorithmSpec::Hierarchical,
            payload_bytes,
            engine: EngineSpec::Flow,
            faults: None,
        })
    };
    // warm the shared key outside the measured window
    let resp = client.request(&run_req(payload)).expect("warm request");
    assert!(matches!(resp, Response::Run(_)), "warm-up failed: {resp:?}");

    let ladder = [payload, payload / 2, payload / 4];
    let batch: Vec<Request> = (0..requests)
        .map(|i| run_req(ladder[(i / 8) % ladder.len()].max(1)))
        .collect();
    let wall = Instant::now();
    let responses = client.send_many(&batch).expect("pipelined batch");
    let wall_s = wall.elapsed().as_secs_f64();
    for (i, resp) in responses.iter().enumerate() {
        let Response::Run(run) = resp else {
            panic!("pipelined request {i} failed: {resp:?}");
        };
        assert!(run.verified, "request {i} served an unverified schedule");
        ndjson_line(ndjson, "batched", i, run);
    }
    let stats = d.stats();
    drop(client);
    d.shutdown();

    let mean_ms = wall_s * 1e3 / requests as f64;
    PhaseSummary {
        mode: "pipelined",
        target_hit_ratio: 1.0,
        requests,
        observed_hits: stats.hits,
        observed_misses: stats.misses,
        batches: stats.batches,
        batched_runs: stats.batched_runs,
        mean_occupancy: stats.batched_runs as f64 / (stats.batches.max(1)) as f64,
        batch_occupancy: stats.batch_occupancy,
        wall_ms: wall_s * 1e3,
        req_per_sec: requests as f64 / wall_s,
        p50_ms: mean_ms,
        p99_ms: mean_ms,
    }
}

fn main() {
    let args = Args::parse();
    let rows: usize = args.get_or("rows", 32);
    let cols: usize = args.get_or("cols", 32);
    let requests: usize = args.get_or("requests", 40);
    let workers: usize = args.get_or("workers", 2);
    let max_batch: usize = args.get_or("max-batch", 8);
    let batch_requests: usize = args.get_or("batch-requests", requests * 8);
    let payload: u64 = args.get_or("payload-kib", 1024u64) << 10;
    let gate = !args.flag("no-gate");

    let base = TopologySpec::Torus { rows, cols };
    let built = base.build().expect("torus builds");
    let (nodes, n_links) = (built.num_nodes(), built.num_links());
    drop(built);
    println!(
        "serve bench: {nodes}-node torus, MULTITREE-HIER, {} KiB payload, {workers} workers, max-batch {max_batch}, {requests} requests/phase",
        payload >> 10
    );

    let mut ndjson = Vec::new();
    let mut phases = Vec::new();
    for ratio in [0.0, 0.5, 0.9] {
        let p = run_phase(
            ratio, &base, n_links, requests, workers, max_batch, payload, &mut ndjson,
        );
        println!(
            "  sync {:>3.0}% target hit ({} hits / {} misses observed): {:7.1} req/s, p50 {:7.2} ms, p99 {:7.2} ms",
            ratio * 100.0,
            p.observed_hits,
            p.observed_misses,
            p.req_per_sec,
            p.p50_ms,
            p.p99_ms
        );
        phases.push(p);
    }
    let batched = run_batched_phase(
        &base,
        batch_requests,
        workers,
        max_batch,
        payload,
        &mut ndjson,
    );
    println!(
        "  batched ({} pipelined, {} batches, mean occupancy {:.2}): {:7.1} req/s, {:7.2} ms/req",
        batched.requests, batched.batches, batched.mean_occupancy, batched.req_per_sec, batched.p50_ms
    );
    phases.push(batched);

    let speedup = phases[2].req_per_sec / phases[0].req_per_sec;
    let batch_speedup = phases[3].req_per_sec / phases[2].req_per_sec;
    println!("  90%-hit vs 0%-hit throughput: {speedup:.2}x");
    println!("  batched vs sync 90%-hit throughput: {batch_speedup:.2}x");

    let summary = Summary {
        nodes,
        algorithm: AlgorithmSpec::Hierarchical.name(),
        payload_bytes: payload,
        workers,
        max_batch,
        phases,
        speedup_90_vs_0: speedup,
        speedup_batched_vs_sync90: batch_speedup,
    };
    if let Some(path) = args.json_path() {
        dump_json(&path, &summary);
    }
    if let Some(path) = args.get("ndjson") {
        std::fs::write(path, &ndjson).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    if gate && speedup < 5.0 {
        eprintln!("FAIL: 90% cache-hit throughput only {speedup:.2}x of cold (need >= 5x)");
        failed = true;
    }
    if gate && batch_speedup < 2.0 {
        eprintln!(
            "FAIL: batched throughput only {batch_speedup:.2}x of sync 90%-hit (need >= 2x)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if gate {
        println!(
            "OK: cache-hit serving sustains {speedup:.2}x cold-compile throughput; batching adds {batch_speedup:.2}x over sync"
        );
    }
}
