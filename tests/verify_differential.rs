//! Differential test of the schedule verifiers.
//!
//! The shipping verifiers run the dependency-strict set dataflow as one
//! word-row kernel (an origin-set row per event and per node, deps joined
//! over the overlap of the two chunks) and the numeric execution over one
//! flat buffer. The [`oracle`] module keeps the straightforward versions
//! they replaced: one heap `BitSet` per (node, segment) and per (event,
//! segment), every segment walked for every dep, and a `Vec<Vec<f64>>`
//! numeric buffer. Both must give the same `Ok(VerifyReport)`, or the same
//! error variant with the same detail string, on every builder, on
//! participant subsets, and on randomly mutated schedules.

use multitree::algorithms::{
    Algorithm, AllReduce, Blink, DbTree, HalvingDoubling, HierarchicalMultiTree, MultiTree,
};
use multitree::collective::verify_reduce_scatter;
use multitree::verify::{
    execute_numeric, verify_allreduce_among, verify_allreduce_numeric, verify_schedule,
};
use multitree::{CollectiveOp, CommEvent, CommSchedule, EventId};
use mt_topology::{NodeId, Topology};
use proptest::prelude::*;

/// The verifiers as they were before the word-row kernel.
mod oracle {
    use multitree::verify::VerifyReport;
    use multitree::{AlgorithmError, CollectiveOp, CommEvent, CommSchedule};
    use mt_topology::NodeId;

    /// A fixed-capacity bit set over `0..capacity`.
    #[derive(Clone)]
    pub struct BitSet {
        words: Vec<u64>,
        capacity: usize,
    }

    impl BitSet {
        pub fn new(capacity: usize) -> Self {
            BitSet {
                words: vec![0; capacity.div_ceil(64)],
                capacity,
            }
        }

        pub fn insert(&mut self, i: usize) {
            assert!(i < self.capacity, "bitset element {i} out of capacity");
            self.words[i / 64] |= 1 << (i % 64);
        }

        pub fn contains(&self, i: usize) -> bool {
            i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
        }

        pub fn union_with(&mut self, other: &BitSet) {
            for (w, o) in self.words.iter_mut().zip(&other.words) {
                *w |= o;
            }
        }

        pub fn len(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }

        pub fn is_full(&self) -> bool {
            self.len() == self.capacity
        }

        pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
            (0..self.capacity).filter(move |&i| self.contains(i))
        }
    }

    fn own_origin_state(n: usize, segs: usize) -> Vec<Vec<BitSet>> {
        (0..n)
            .map(|i| {
                (0..segs)
                    .map(|_| {
                        let mut b = BitSet::new(n);
                        b.insert(i);
                        b
                    })
                    .collect()
            })
            .collect()
    }

    pub fn verify_allreduce_among(
        schedule: &CommSchedule,
        participants: &[NodeId],
    ) -> Result<VerifyReport, AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        let mut required = BitSet::new(n);
        for p in participants {
            required.insert(p.index());
        }
        let mut carried: Vec<Vec<BitSet>> = Vec::with_capacity(schedule.events().len());
        let mut state = own_origin_state(n, segs);
        let mut gathers = 0usize;
        let mut reduces = 0usize;
        for e in schedule.topological_order() {
            if !required.contains(e.src.index()) || !required.contains(e.dst.index()) {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!("{e} involves a non-participant endpoint"),
                });
            }
            let payload = event_payload(schedule, e, &carried, n);
            if e.op == CollectiveOp::Gather {
                gathers += 1;
            } else {
                reduces += 1;
            }
            for (i, seg) in e.chunk.segments().enumerate() {
                state[e.dst.index()][seg as usize].union_with(&payload[i]);
            }
            carried.push(payload);
        }
        for p in participants {
            let node = p.index();
            #[allow(clippy::needless_range_loop)]
            for seg in 0..segs {
                if !required.iter().all(|i| state[node][seg].contains(i)) {
                    return Err(AlgorithmError::VerificationFailed {
                        detail: format!(
                            "node {node} ends with {}/{} contributions for segment {seg}",
                            state[node][seg].len(),
                            participants.len()
                        ),
                    });
                }
            }
        }
        let finals = execute_numeric(schedule, &|node| {
            if required.contains(node) {
                (node + 1) as f64
            } else {
                0.0
            }
        });
        let expected: f64 = participants.iter().map(|p| (p.index() + 1) as f64).sum();
        for p in participants {
            #[allow(clippy::needless_range_loop)]
            for seg in 0..segs {
                let got = finals[p.index()][seg];
                if got != expected {
                    return Err(AlgorithmError::VerificationFailed {
                        detail: format!(
                            "numeric execution: node {p} segment {seg} ends with {got}, expected {expected}                          (a contribution was dropped or double-counted)"
                        ),
                    });
                }
            }
        }
        Ok(VerifyReport {
            events: schedule.events().len(),
            gathers,
            reduces,
        })
    }

    fn event_payload(
        schedule: &CommSchedule,
        e: &CommEvent,
        carried: &[Vec<BitSet>],
        n: usize,
    ) -> Vec<BitSet> {
        let mut payload: Vec<BitSet> = e.chunk.segments().map(|_| BitSet::new(n)).collect();
        let mut has_gather_dep = vec![false; e.chunk.len() as usize];
        for d in &e.deps {
            let dep = schedule.event(*d);
            if dep.dst != e.src {
                continue;
            }
            for (i, seg) in e.chunk.segments().enumerate() {
                if dep.chunk.contains(seg) {
                    let offset = (seg - dep.chunk.start) as usize;
                    payload[i].union_with(&carried[d.index()][offset]);
                    if dep.op == CollectiveOp::Gather {
                        has_gather_dep[i] = true;
                    }
                }
            }
        }
        for (i, p) in payload.iter_mut().enumerate() {
            if e.op == CollectiveOp::Reduce || !has_gather_dep[i] {
                p.insert(e.src.index());
            }
        }
        payload
    }

    pub fn verify_reduce_scatter(schedule: &CommSchedule) -> Result<(), AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        let mut carried: Vec<Vec<BitSet>> = Vec::with_capacity(schedule.events().len());
        let mut state = own_origin_state(n, segs);
        for e in schedule.topological_order() {
            if e.op != CollectiveOp::Reduce {
                return Err(AlgorithmError::MalformedSchedule {
                    detail: format!("reduce-scatter schedule contains a gather: {e}"),
                });
            }
            let payload = event_payload(schedule, e, &carried, n);
            for (i, seg) in e.chunk.segments().enumerate() {
                state[e.dst.index()][seg as usize].union_with(&payload[i]);
            }
            carried.push(payload);
        }
        #[allow(clippy::needless_range_loop)]
        for seg in 0..segs {
            if !(0..n).any(|node| state[node][seg].is_full()) {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!("segment {seg} is not fully reduced at any node"),
                });
            }
        }
        Ok(())
    }

    pub fn execute_numeric(
        schedule: &CommSchedule,
        initial: &dyn Fn(usize) -> f64,
    ) -> Vec<Vec<f64>> {
        let n = schedule.num_nodes();
        let segs = schedule.total_segments() as usize;
        let mut buf: Vec<Vec<f64>> = (0..n).map(|i| vec![initial(i); segs]).collect();
        for step_events in schedule.events_by_step() {
            let payloads: Vec<Vec<f64>> = step_events
                .iter()
                .map(|e| {
                    for d in &e.deps {
                        assert!(schedule.event(*d).step < e.step);
                    }
                    e.chunk
                        .segments()
                        .map(|seg| buf[e.src.index()][seg as usize])
                        .collect()
                })
                .collect();
            for (e, payload) in step_events.iter().zip(&payloads) {
                for (i, seg) in e.chunk.segments().enumerate() {
                    match e.op {
                        CollectiveOp::Reduce => buf[e.dst.index()][seg as usize] += payload[i],
                        CollectiveOp::Gather => buf[e.dst.index()][seg as usize] = payload[i],
                    }
                }
            }
        }
        buf
    }

    pub fn verify_allreduce_numeric(
        schedule: &CommSchedule,
    ) -> Result<VerifyReport, AlgorithmError> {
        schedule.validate()?;
        let n = schedule.num_nodes();
        let mut gathers = 0usize;
        let mut reduces = 0usize;
        for e in schedule.events() {
            for d in &e.deps {
                let dep = schedule.event(*d);
                if dep.step >= e.step {
                    return Err(AlgorithmError::MalformedSchedule {
                        detail: format!(
                            "{e} depends on {dep} of the same or a later step; \
                             lockstep rounds need strictly earlier-step deps"
                        ),
                    });
                }
            }
            match e.op {
                CollectiveOp::Gather => gathers += 1,
                CollectiveOp::Reduce => reduces += 1,
            }
        }
        let patterns: [&dyn Fn(usize) -> f64; 2] = [
            &|node| (node + 1) as f64,
            &|node| ((node as u64).wrapping_mul(2_654_435_761) % (1 << 20) + 1) as f64,
        ];
        for initial in patterns {
            let expected: f64 = (0..n).map(initial).sum();
            for (node, vals) in execute_numeric(schedule, initial).iter().enumerate() {
                for (seg, &got) in vals.iter().enumerate() {
                    if got != expected {
                        return Err(AlgorithmError::VerificationFailed {
                            detail: format!(
                                "numeric execution: node {node} segment {seg} ends with {got}, \
                                 expected {expected} (a contribution was dropped or double-counted)"
                            ),
                        });
                    }
                }
            }
        }
        Ok(VerifyReport {
            events: schedule.events().len(),
            gathers,
            reduces,
        })
    }
}

/// Asserts that every all-reduce verifier agrees with its oracle on
/// `schedule`, for all nodes and for `participants`, and that the numeric
/// executions agree value for value.
fn assert_allreduce_agrees(label: &str, schedule: &CommSchedule, participants: &[NodeId]) {
    let all: Vec<NodeId> = (0..schedule.num_nodes()).map(NodeId::new).collect();
    assert_eq!(
        verify_schedule(schedule),
        oracle::verify_allreduce_among(schedule, &all),
        "{label}: all nodes"
    );
    assert_eq!(
        verify_allreduce_among(schedule, participants),
        oracle::verify_allreduce_among(schedule, participants),
        "{label}: participants {participants:?}"
    );
    assert_eq!(
        verify_allreduce_numeric(schedule),
        oracle::verify_allreduce_numeric(schedule),
        "{label}: numeric tier"
    );
    let initial = |node: usize| (node * 3 + 1) as f64;
    assert_eq!(
        execute_numeric(schedule, &initial),
        oracle::execute_numeric(schedule, &initial),
        "{label}: numeric execution"
    );
}

fn assert_reduce_scatter_agrees(label: &str, schedule: &CommSchedule) {
    assert_eq!(
        verify_reduce_scatter(schedule),
        oracle::verify_reduce_scatter(schedule),
        "{label}: reduce-scatter"
    );
}

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("torus 2x2", Topology::torus(2, 2)),
        ("torus 3x3", Topology::torus(3, 3)),
        ("torus 4x4", Topology::torus(4, 4)),
        ("torus 2x4", Topology::torus(2, 4)),
        ("mesh 2x3", Topology::mesh(2, 3)),
        ("mesh 4x4", Topology::mesh(4, 4)),
        ("torus3d 2x2x2", Topology::torus3d(2, 2, 2)),
        ("fattree 2x2x4", Topology::fat_tree_two_level(2, 2, 4)),
        ("dgx2 fattree", Topology::dgx2_like_16()),
        ("oversubscribed fattree", Topology::fattree_oversubscribed(4, 2)),
        ("bigraph 32", Topology::bigraph_32()),
        ("hypercube 3", Topology::hypercube(3)),
        ("hypercube 4", Topology::hypercube(4)),
        ("dragonfly 2x2", Topology::dragonfly(2, 2)),
    ]
}

/// Every all-reduce builder that applies to `topo`.
fn allreduce_schedules(topo: &Topology) -> Vec<CommSchedule> {
    let mut algos: Vec<Box<dyn AllReduce>> = Algorithm::applicable_to(topo)
        .into_iter()
        .map(|a| Box::new(a) as Box<dyn AllReduce>)
        .collect();
    algos.push(Box::new(HalvingDoubling));
    algos.push(Box::new(Blink::default()));
    algos.push(Box::new(DbTree::with_pipeline(3)));
    algos.push(Box::new(MultiTree::with_remaining_height()));
    algos.push(Box::new(MultiTree::bandwidth_aware()));
    algos.push(Box::new(HierarchicalMultiTree::default()));
    algos.push(Box::new(HierarchicalMultiTree::with_pods(2)));
    // a builder that does not apply to the topology is skipped
    algos.iter().filter_map(|a| a.build(topo).ok()).collect()
}

/// Every other node, starting at node 0.
fn every_other(n: usize) -> Vec<NodeId> {
    (0..n).step_by(2).map(NodeId::new).collect()
}

#[test]
fn every_builder_agrees_with_the_oracle() {
    for (name, topo) in topologies() {
        let n = topo.num_nodes();
        let schedules = allreduce_schedules(&topo);
        assert!(schedules.len() >= 3, "{name}: too few builders apply");
        for s in &schedules {
            let label = format!("{} on {name}", s.algorithm());
            assert!(verify_schedule(s).is_ok(), "{label}");
            assert_allreduce_agrees(&label, s, &every_other(n));
        }
        let rs = MultiTree::default().build_reduce_scatter(&topo).unwrap();
        assert_reduce_scatter_agrees(&format!("reduce-scatter on {name}"), &rs);
        // an all-reduce is not a reduce-scatter: both report the gather
        assert_reduce_scatter_agrees(&format!("all-reduce on {name}"), &schedules[0]);
    }
}

#[test]
fn participant_subsets_agree_with_the_oracle() {
    for (name, topo) in topologies() {
        let n = topo.num_nodes();
        let subsets = [
            every_other(n),
            (0..n).filter(|i| i % 3 != 1).map(NodeId::new).collect(),
            vec![NodeId::new(0), NodeId::new(n - 1)],
        ];
        for subset in subsets {
            let s = MultiTree::default().build_among(&topo, &subset).unwrap();
            let label = format!("{} among {subset:?} on {name}", s.algorithm());
            assert!(verify_allreduce_among(&s, &subset).is_ok(), "{label}");
            assert_allreduce_agrees(&label, &s, &subset);
            // a smaller required set than the schedule's endpoints
            assert_allreduce_agrees(&label, &s, &subset[..subset.len() / 2]);
        }
    }
}

/// Rebuilds `s` from `events`, clones of its events in their new order.
/// Deps are remapped to the first copy of each event, and deps on dropped
/// events are dropped.
fn rebuild(s: &CommSchedule, events: Vec<CommEvent>) -> CommSchedule {
    let mut out = CommSchedule::new(s.algorithm(), s.num_nodes(), s.total_segments());
    let mut new_id: Vec<Option<EventId>> = vec![None; s.events().len()];
    for e in events {
        let deps = e.deps.iter().filter_map(|d| new_id[d.index()]).collect();
        let id = out.push_event(e.src, e.dst, e.flow, e.op, e.chunk, e.step, deps, e.path);
        new_id[e.id.index()].get_or_insert(id);
    }
    out
}

/// Applies mutation `kind` (mod 5) at the event picked by `pick`.
fn mutate(s: &CommSchedule, kind: usize, pick: usize, up: bool) -> CommSchedule {
    let mut events = s.events().to_vec();
    if events.is_empty() {
        return s.clone();
    }
    let k = pick % events.len();
    match kind % 5 {
        // drop a data dep: one that delivers to the event's sender
        0 => {
            let data_deps: Vec<(usize, usize)> = events
                .iter()
                .enumerate()
                .flat_map(|(i, e)| {
                    e.deps
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| s.event(**d).dst == e.src)
                        .map(move |(j, _)| (i, j))
                })
                .collect();
            if let Some(&(i, j)) = data_deps.get(pick % data_deps.len().max(1)) {
                events[i].deps.remove(j);
            }
        }
        // drop an event
        1 => {
            events.remove(k);
        }
        // duplicate an event
        2 => {
            let copy = events[k].clone();
            events.insert(k + 1, copy);
        }
        // flip Reduce <-> Gather
        3 => {
            events[k].op = match events[k].op {
                CollectiveOp::Reduce => CollectiveOp::Gather,
                CollectiveOp::Gather => CollectiveOp::Reduce,
            };
        }
        // shift a chunk by one segment, within the segment space
        _ => {
            let c = &mut events[k].chunk;
            if up && c.end < s.total_segments() {
                c.start += 1;
                c.end += 1;
            } else if c.start > 0 {
                c.start -= 1;
                c.end -= 1;
            }
        }
    }
    rebuild(s, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_schedules_agree_with_the_oracle(
        topo_pick in 0usize..64,
        algo_pick in 0usize..64,
        kind in 0usize..5,
        pick in 0usize..100_000,
        up: bool,
    ) {
        let topos = topologies();
        let (name, topo) = &topos[topo_pick % topos.len()];
        let schedules = allreduce_schedules(topo);
        let s = &schedules[algo_pick % schedules.len()];
        let mutated = mutate(s, kind, pick, up);
        let label = format!("{} on {name}, mutation {kind} at {pick}", s.algorithm());
        assert_allreduce_agrees(&label, &mutated, &every_other(topo.num_nodes()));

        let rs = MultiTree::default().build_reduce_scatter(topo).unwrap();
        assert_reduce_scatter_agrees(&label, &mutate(&rs, kind, pick, up));
    }
}
