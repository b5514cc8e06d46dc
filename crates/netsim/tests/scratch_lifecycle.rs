//! Scratch lifecycle across requests (PR-9 serving daemon contract).
//!
//! A serving worker owns one [`SimScratch`] for its whole life and runs
//! whatever arrives: different topologies, different schedules, different
//! payloads, both engines, interleaved in any order. These tests pin the
//! two properties that make that safe:
//!
//! * **no history bleed** — a scratch that has just executed one
//!   `(topology, schedule)` pair produces bit-identical reports on the
//!   next pair, whatever it is, compared to a freshly allocated scratch;
//! * **steady-state zero allocation** — once a scratch has seen the
//!   largest request in a working set, revisiting any member of the set
//!   never grows its buffers again.

use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring};
use multitree::{CommSchedule, PreparedSchedule};
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{EngineReport, NetworkConfig, NoopObserver, SimScratch};
use mt_topology::Topology;

fn workload() -> Vec<(CommSchedule, Topology, u64)> {
    let torus = Topology::torus(4, 4);
    let big_torus = Topology::torus(6, 6);
    let fattree = Topology::fat_tree_two_level(4, 4, 4);
    vec![
        (MultiTree::default().build(&torus).unwrap(), torus.clone(), 1 << 17),
        (Ring.build(&torus).unwrap(), torus, 1 << 14),
        (MultiTree::default().build(&big_torus).unwrap(), big_torus, 1 << 18),
        (DbTree::default().build(&fattree).unwrap(), fattree, 1 << 15),
    ]
}

fn run_flow(scratch: &mut SimScratch, item: &(CommSchedule, Topology, u64)) -> EngineReport {
    let prep = PreparedSchedule::new(&item.0, &item.1).unwrap();
    FlowEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, item.2, scratch, &mut NoopObserver)
        .unwrap()
}

fn run_cycle(scratch: &mut SimScratch, item: &(CommSchedule, Topology, u64)) -> EngineReport {
    let prep = PreparedSchedule::new(&item.0, &item.1).unwrap();
    CycleEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, item.2, scratch, &mut NoopObserver)
        .unwrap()
}

#[test]
fn reused_scratch_is_bit_identical_to_fresh_across_pairs() {
    let items = workload();
    // baseline: every pair on its own fresh scratch
    let fresh_flow: Vec<EngineReport> =
        items.iter().map(|i| run_flow(&mut SimScratch::new(), i)).collect();
    let fresh_cycle: Vec<EngineReport> =
        items.iter().map(|i| run_cycle(&mut SimScratch::new(), i)).collect();

    // one long-lived scratch serving the whole mixed stream, twice,
    // alternating engines the second time around to cross-contaminate
    let mut scratch = SimScratch::new();
    for round in 0..2 {
        for (i, item) in items.iter().enumerate() {
            if round == 1 {
                assert_eq!(run_cycle(&mut scratch, item), fresh_cycle[i], "pair {i}");
            }
            assert_eq!(run_flow(&mut scratch, item), fresh_flow[i], "pair {i}");
        }
    }
    // and in reverse order, biggest request first
    for (i, item) in items.iter().enumerate().rev() {
        assert_eq!(run_flow(&mut scratch, item), fresh_flow[i], "pair {i} rev");
        assert_eq!(run_cycle(&mut scratch, item), fresh_cycle[i], "pair {i} rev");
    }
}

/// A same-key payload ladder with repeats and descents, the shape the
/// serving daemon's coalesced batches run member by member.
fn payload_ladder(base: u64) -> [u64; 6] {
    [base, base, base / 2, base, base / 4, base / 4]
}

#[test]
fn payload_ladder_on_one_scratch_matches_fresh_runs() {
    // the serving daemon runs every member of a coalesced batch through
    // `run_prepared_with` on one scratch; each report must be
    // bit-identical to an independent run on a fresh scratch, for
    // repeated payloads and descending ladders alike
    let items = workload();
    let flow = FlowEngine::new(NetworkConfig::paper_default());
    let cycle = CycleEngine::new(NetworkConfig::paper_default());
    let mut scratch = SimScratch::new();
    for item in &items {
        let prep = PreparedSchedule::new(&item.0, &item.1).unwrap();
        for p in payload_ladder(item.2) {
            let reused = flow
                .run_prepared_with(&prep, p, &mut scratch, &mut NoopObserver)
                .unwrap();
            let single = flow
                .run_prepared_with(&prep, p, &mut SimScratch::new(), &mut NoopObserver)
                .unwrap();
            assert_eq!(reused, single, "flow payload {p}");
        }
        for p in payload_ladder(item.2) {
            let reused = cycle
                .run_prepared_with(&prep, p, &mut scratch, &mut NoopObserver)
                .unwrap();
            let single = cycle
                .run_prepared_with(&prep, p, &mut SimScratch::new(), &mut NoopObserver)
                .unwrap();
            assert_eq!(reused, single, "cycle payload {p}");
        }
    }
}

#[test]
fn payload_ladder_steady_state_allocates_nothing() {
    let items = workload();
    let flow = FlowEngine::new(NetworkConfig::paper_default());
    let cycle = CycleEngine::new(NetworkConfig::paper_default());
    let mut scratch = SimScratch::new();
    let run_ladders = |scratch: &mut SimScratch| {
        for item in &items {
            let prep = PreparedSchedule::new(&item.0, &item.1).unwrap();
            for p in [item.2, item.2 / 2, item.2, item.2] {
                flow.run_prepared_with(&prep, p, scratch, &mut NoopObserver)
                    .unwrap();
                cycle
                    .run_prepared_with(&prep, p, scratch, &mut NoopObserver)
                    .unwrap();
            }
        }
    };
    run_ladders(&mut scratch);
    let high_water = scratch.capacity_elements();
    for round in 0..3 {
        run_ladders(&mut scratch);
        assert_eq!(
            scratch.capacity_elements(),
            high_water,
            "round {round} grew scratch buffers"
        );
    }
}

#[test]
fn steady_state_serving_allocates_nothing() {
    let items = workload();
    let mut scratch = SimScratch::new();
    // warm-up: every pair once on both engines grows buffers to the
    // working set's high-water mark
    for item in &items {
        run_flow(&mut scratch, item);
        run_cycle(&mut scratch, item);
    }
    let high_water = scratch.capacity_elements();
    // steady state: three more full sweeps in varying order
    for round in 0..3 {
        for (i, item) in items.iter().enumerate() {
            if (i + round) % 2 == 0 {
                run_flow(&mut scratch, item);
                run_cycle(&mut scratch, item);
            } else {
                run_cycle(&mut scratch, item);
                run_flow(&mut scratch, item);
            }
        }
        assert_eq!(
            scratch.capacity_elements(),
            high_water,
            "round {round} grew scratch buffers"
        );
    }
}
