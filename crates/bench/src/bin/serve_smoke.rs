//! Serving-daemon CI soak: one long NDJSON stream mixing topology
//! families, algorithms, payloads and both engines, with fault deltas
//! injected mid-stream against already-cached keys.
//!
//! What must hold, every CI run:
//!
//! * every response arrives in request order and every run response is
//!   `verified` (schedules are re-verified whenever compiled/repaired);
//! * ≥ 3 mid-stream `FaultPlan` deltas are served through the repair
//!   chain — provenance `repaired:*` — with **zero** cold recompiles on
//!   the MultiTree family (the deltas come from the shared
//!   connectivity-preserving `failure_sequence` helper, so incremental
//!   repair is expected to succeed, and full delivery is asserted);
//! * the healthy keys keep hitting the cache across the whole soak, and
//!   the daemon's counters reconcile exactly with the request stream —
//!   including the batch counters: every run lands in exactly one
//!   coalesced batch, so the occupancy-weighted histogram must sum back
//!   to the total number of runs served;
//! * a pipelined same-key burst drives the coalescing dequeue and every
//!   response's `batch` field stays within `--max-batch`;
//! * the whole soak fits an explicit wall-clock budget.
//!
//! ```text
//! cargo run --release -p mt-bench --bin serve_smoke \
//!     [-- --budget-secs 120] [--max-batch 8]
//! ```

use mt_bench::faults::{failure_sequence, seed_of};
use mt_netsim::FaultPlan;
use mt_serve::{
    AlgorithmSpec, Client, Daemon, EngineSpec, Request, Response, RunRequest, ServeConfig,
};
use mt_topology::TopologySpec;
use std::time::Instant;

fn run_req(
    topology: TopologySpec,
    algorithm: AlgorithmSpec,
    payload_bytes: u64,
    engine: EngineSpec,
    faults: Option<FaultPlan>,
) -> Request {
    Request::Run(RunRequest {
        topology,
        algorithm,
        payload_bytes,
        engine,
        faults,
    })
}

fn main() {
    let args = mt_bench::args::Args::parse();
    let budget_secs: u64 = args.get_or("budget-secs", 120);
    let max_batch: usize = args.get_or("max-batch", 8);
    let wall = Instant::now();

    let mut d = Daemon::spawn(
        "127.0.0.1:0",
        ServeConfig {
            max_batch,
            ..ServeConfig::default()
        },
    )
    .expect("bind daemon");
    let mut client = Client::connect(d.addr()).expect("connect");

    let torus = TopologySpec::Torus { rows: 8, cols: 8 };
    let oversub = TopologySpec::FatTreeOversubscribed { k: 4, ratio: 4 };
    let cube = TopologySpec::Hypercube { dim: 5 };
    let dragonfly = TopologySpec::Dragonfly { a: 4, p: 2 };

    // the fault deltas: nested connectivity-preserving link deaths on
    // the torus, from the same helper fault_sweep uses
    let built = torus.build().expect("torus builds");
    let dead = failure_sequence(&built, seed_of("serve-soak"), 3);
    assert!(dead.len() >= 3, "need 3 deltas");
    let delta_plan = |k: usize| {
        let mut plan = FaultPlan::new();
        for l in &dead[..k] {
            plan = plan.link_down(*l, 0.0);
        }
        plan
    };

    // Phase 1 — pipelined warm-up across families, payloads, engines
    let warm: Vec<Request> = vec![
        run_req(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20, EngineSpec::Flow, None),
        run_req(torus.clone(), AlgorithmSpec::Ring, 1 << 16, EngineSpec::Flow, None),
        run_req(oversub.clone(), AlgorithmSpec::MultiTreeBandwidthAware, 1 << 18, EngineSpec::Flow, None),
        run_req(cube.clone(), AlgorithmSpec::HalvingDoubling, 1 << 17, EngineSpec::Flow, None),
        run_req(dragonfly.clone(), AlgorithmSpec::MultiTree, 1 << 15, EngineSpec::Flow, None),
        run_req(torus.clone(), AlgorithmSpec::MultiTree, 1 << 14, EngineSpec::Cycle, None),
        run_req(torus.clone(), AlgorithmSpec::Hierarchical, 1 << 18, EngineSpec::Flow, None),
    ];
    let unique_keys = 6; // torus/MT shared by both engines and payloads
    let responses = client.batch(&warm).expect("warm batch");
    let mut healthy_torus_ns = 0.0;
    for (i, resp) in responses.iter().enumerate() {
        let Response::Run(r) = resp else {
            panic!("warm request {i} failed: {resp:?}");
        };
        assert!(r.verified, "warm request {i} unverified");
        assert_eq!(r.delivered, r.messages, "warm request {i} incomplete");
        if i == 0 {
            healthy_torus_ns = r.completion_ns;
        }
        if i == 5 {
            // shares its key with request 0: in a pipelined batch either
            // may win the compile (or coalesce onto it, reporting the
            // winner's provenance) — the exact-miss reconcile in phase 3
            // proves no re-key happened
            assert!(
                r.provenance == "cached" || r.provenance == "compiled",
                "engine change must not re-key (got {})",
                r.provenance
            );
        }
    }
    println!(
        "phase 1: {} mixed requests warmed {unique_keys} keys [{:?}]",
        warm.len(),
        wall.elapsed()
    );

    // Phase 2 — the soak: healthy traffic with fault deltas mid-stream
    let mut stream: Vec<(Request, &'static str)> = Vec::new();
    for k in 1..=3usize {
        // healthy traffic on other keys around each delta
        stream.push((
            run_req(oversub.clone(), AlgorithmSpec::MultiTreeBandwidthAware, 1 << 18, EngineSpec::Flow, None),
            "cached",
        ));
        stream.push((
            run_req(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20, EngineSpec::Flow, Some(delta_plan(k))),
            "repaired",
        ));
        stream.push((
            run_req(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20, EngineSpec::Flow, None),
            "cached",
        ));
        stream.push((
            run_req(cube.clone(), AlgorithmSpec::HalvingDoubling, 1 << 17, EngineSpec::Flow, None),
            "cached",
        ));
        // replay of the delta: now itself cached
        stream.push((
            run_req(torus.clone(), AlgorithmSpec::MultiTree, 1 << 20, EngineSpec::Flow, Some(delta_plan(k))),
            "cached-repair",
        ));
    }
    let requests: Vec<Request> = stream.iter().map(|(r, _)| r.clone()).collect();
    let responses = client.batch(&requests).expect("soak batch");
    for (i, (resp, (_, want))) in responses.iter().zip(&stream).enumerate() {
        let Response::Run(r) = resp else {
            panic!("soak request {i} failed: {resp:?}");
        };
        assert!(r.verified, "soak request {i} unverified");
        assert_eq!(r.delivered, r.messages, "soak request {i}: lost messages");
        assert!(!r.stalled, "soak request {i} stalled");
        match *want {
            "repaired" => assert!(
                r.provenance.starts_with("repaired:"),
                "soak request {i}: delta must repair, not recompile (got {})",
                r.provenance
            ),
            // the replay may land while the delta's repair is still in
            // flight on another worker: it then coalesces onto that
            // compile and reports the repair provenance — either way it
            // must never be a cold "compiled"
            "cached-repair" => assert!(
                r.provenance == "cached-repair" || r.provenance.starts_with("repaired:"),
                "soak request {i}: replay must reuse the repair (got {})",
                r.provenance
            ),
            want => assert_eq!(r.provenance, want, "soak request {i}"),
        }
        // healthy cached runs stay bit-identical across the whole soak
        if stream[i].0 == requests[2] && i > 0 {
            assert_eq!(r.completion_ns, healthy_torus_ns, "soak request {i} drifted");
        }
    }
    println!(
        "phase 2: {} soak requests, 3 mid-stream deltas repaired + replayed from cache [{:?}]",
        stream.len(),
        wall.elapsed()
    );

    // Phase 2.5 — pipelined same-key burst: feeds the coalescing
    // dequeue faster than the workers drain it, so batches form
    let burst_n = 32usize;
    let burst: Vec<Request> = (0..burst_n)
        .map(|i| {
            // payload ladder in blocks of 8 equal sizes, so batches
            // carry both repeated and mixed payloads
            let payload = (1u64 << 20) >> ((i / 8) % 3);
            run_req(torus.clone(), AlgorithmSpec::MultiTree, payload, EngineSpec::Flow, None)
        })
        .collect();
    let responses = client.send_many(&burst).expect("burst batch");
    let mut max_occupancy = 0u64;
    for (i, resp) in responses.iter().enumerate() {
        let Response::Run(r) = resp else {
            panic!("burst request {i} failed: {resp:?}");
        };
        assert_eq!(r.provenance, "cached", "burst request {i} must hit");
        assert!(
            r.batch >= 1 && r.batch <= max_batch as u64,
            "burst request {i}: occupancy {} outside 1..={max_batch}",
            r.batch
        );
        // same key + payload as the healthy soak traffic: batching must
        // not change the simulated result
        if (i / 8) % 3 == 0 {
            assert_eq!(r.completion_ns, healthy_torus_ns, "burst request {i} drifted");
        }
        max_occupancy = max_occupancy.max(r.batch);
    }
    println!(
        "phase 2.5: {burst_n} pipelined same-key runs, max observed occupancy {max_occupancy} (cap {max_batch}) [{:?}]",
        wall.elapsed()
    );

    // Phase 3 — counters reconcile with the stream
    let stats = d.stats();
    let repairs =
        stats.repairs_incremental + stats.repairs_full_rebuild + stats.repairs_survivor;
    assert_eq!(repairs, 3, "exactly one repair per delta (got {repairs})");
    assert_eq!(stats.errors, 0, "soak must be error-free");
    assert_eq!(
        stats.misses,
        unique_keys as u64 + 3,
        "misses = unique healthy keys + one per delta"
    );
    assert_eq!(stats.evictions, 0, "default budget must hold this working set");
    assert!(stats.resident_entries as usize >= unique_keys + 3);

    // batch counters reconcile exactly: every run (warm + soak + burst)
    // was carried by exactly one coalesced batch
    let total_runs = (warm.len() + stream.len() + burst_n) as u64;
    assert_eq!(
        stats.batched_runs, total_runs,
        "sum of batch occupancies must equal runs served"
    );
    assert_eq!(
        stats.batch_occupancy.iter().sum::<u64>(),
        stats.batches,
        "histogram counts every batch exactly once"
    );
    let weighted: u64 = stats
        .batch_occupancy
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 + 1) * c)
        .sum();
    assert_eq!(weighted, stats.batched_runs, "histogram weights reconcile");
    // each delta repair internally resolves its healthy base entry once
    // (an extra hit), hence `+ repairs` on the right-hand side
    assert_eq!(
        stats.hits + stats.coalesced + stats.misses,
        total_runs + repairs,
        "every run resolved the cache exactly once"
    );
    println!(
        "phase 3: counters reconcile — {} hits / {} misses / {repairs} repairs across {} batches ({} runs), {:.1} MiB resident in {} entries",
        stats.hits,
        stats.misses,
        stats.batches,
        stats.batched_runs,
        stats.resident_bytes as f64 / (1 << 20) as f64,
        stats.resident_entries
    );

    drop(client);
    d.shutdown();

    let elapsed = wall.elapsed();
    if elapsed.as_secs() > budget_secs {
        eprintln!("FAIL: soak took {elapsed:?}, budget {budget_secs}s");
        std::process::exit(1);
    }
    println!("OK: serve soak passed in {elapsed:?} (budget {budget_secs}s)");
}
