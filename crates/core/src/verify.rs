//! Semantic all-reduce verification.
//!
//! [`verify_schedule`] symbolically executes a [`CommSchedule`] and proves
//! that every node ends up with the contribution of **every** node for
//! **every** data segment — i.e. that the schedule really computes an
//! all-reduce, not merely that it moves bytes around.
//!
//! Two complementary executions run:
//!
//! 1. **Dependency-strict set dataflow** — the payload carried by an
//!    event is derived **only from its declared dependencies**, never
//!    from whatever happens to sit in the sender's buffer at that point
//!    of the schedule. A schedule relying on an undeclared ordering (one
//!    that a timed network simulation could legally violate) fails here —
//!    exactly the class of bug the paper's lockstep hardware prevents.
//!    An origin set is `⌈n/64⌉` words, one bit per contributing node.
//!    Each event keeps one row of sets, one per segment of its chunk, and
//!    each node keeps one row with a set per schedule segment. A
//!    dependency is ORed in only over the overlap of the two chunks, and
//!    completion is tested word by word against the required set.
//! 2. **Exact numeric execution** ([`execute_numeric`]) — buffers hold
//!    integers-in-`f64`; `Reduce` adds, `Gather` overwrites. Every node
//!    must end with the *exact* sum of all contributions, which catches
//!    double-counting (a contribution delivered twice) that set semantics
//!    cannot distinguish from a single delivery.

use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, CommEvent};
use crate::schedule::CommSchedule;

/// Statistics returned by a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of events executed.
    pub events: usize,
    /// Number of Gather events (checked to carry fully-reduced data).
    pub gathers: usize,
    /// Number of Reduce events.
    pub reduces: usize,
}

/// Symbolically executes `schedule` and checks full-sum delivery.
///
/// Three properties are established:
///
/// 1. **Dependency sufficiency** — every event's payload, derived only
///    from its declared `deps`, is well defined;
/// 2. **Gather completeness** — every `Gather` event carries segments
///    that are already fully reduced (no premature broadcast);
/// 3. **All-reduce completion** — after all events, every node holds the
///    contribution of all `n` nodes for every segment.
///
/// # Errors
///
/// Returns [`AlgorithmError::VerificationFailed`] naming the first
/// violated property, or [`AlgorithmError::MalformedSchedule`] if the
/// schedule fails structural validation.
pub fn verify_schedule(schedule: &CommSchedule) -> Result<VerifyReport, AlgorithmError> {
    let all: Vec<mt_topology::NodeId> = (0..schedule.num_nodes())
        .map(mt_topology::NodeId::new)
        .collect();
    verify_allreduce_among(schedule, &all)
}

/// Verifies an all-reduce among a subset of the nodes (hybrid-parallel
/// training, paper §VII-B): only `participants` contribute data, only
/// they must end with the full participant sum, and broadcasts must carry
/// all participant contributions. Non-participant nodes may appear inside
/// event link paths (as relays) but never as event endpoints.
///
/// # Errors
///
/// Same conditions as [`verify_schedule`], scoped to the subset. A
/// participant outside the schedule's nodes, or a dependency on an event
/// of the same step (which the numeric execution cannot order), is an
/// [`AlgorithmError::MalformedSchedule`].
pub fn verify_allreduce_among(
    schedule: &CommSchedule,
    participants: &[mt_topology::NodeId],
) -> Result<VerifyReport, AlgorithmError> {
    schedule.validate()?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let mut required = vec![0u64; n.div_ceil(64)];
    for p in participants {
        if p.index() >= n {
            return Err(AlgorithmError::MalformedSchedule {
                detail: format!("participant {p} is not one of the schedule's {n} nodes"),
            });
        }
        required[p.index() / 64] |= 1 << (p.index() % 64);
    }
    let is_required = |node: usize| required[node / 64] >> (node % 64) & 1 == 1;

    let mut gathers = 0usize;
    let mut reduces = 0usize;
    for e in schedule.topological_order() {
        if !is_required(e.src.index()) || !is_required(e.dst.index()) {
            return Err(AlgorithmError::MalformedSchedule {
                detail: format!("{e} involves a non-participant endpoint"),
            });
        }
        match e.op {
            CollectiveOp::Gather => gathers += 1,
            CollectiveOp::Reduce => reduces += 1,
        }
    }

    let sets = OriginSets::run(schedule);
    for p in participants {
        let node = p.index();
        for seg in 0..segs {
            let set = sets.set(node, seg);
            if set.iter().zip(&required).any(|(s, r)| s & r != *r) {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!(
                        "node {node} ends with {}/{} contributions for segment {seg}",
                        popcount(set),
                        participants.len()
                    ),
                });
            }
        }
    }

    // --- exact numeric execution: catches double counting
    check_earlier_step_deps(schedule)?;
    let finals = numeric_finals(schedule, &|node| {
        if is_required(node) {
            (node + 1) as f64
        } else {
            0.0
        }
    });
    let expected: f64 = participants.iter().map(|p| (p.index() + 1) as f64).sum();
    for p in participants {
        for seg in 0..segs {
            let got = finals[p.index() * segs + seg];
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

/// Final origin sets of the dependency-strict dataflow: row `node` holds
/// `segments` consecutive sets of `words` words each, and bit `o` of a
/// set means node `o`'s contribution reached that node's buffer for that
/// segment.
pub(crate) struct OriginSets {
    words: usize,
    rows: Vec<Box<[u64]>>,
}

impl OriginSets {
    /// Runs the dataflow over every event of `schedule` in topological
    /// order. Every node starts holding its own contribution in every
    /// segment, and an event's destination accumulates its payload.
    ///
    /// The payload is derived only from the event's declared deps:
    ///
    /// * A dep contributes data only if it delivers to the event's sender
    ///   (other deps merely sequence time), and only over the overlap of
    ///   the two chunks.
    /// * A `Reduce` payload always mixes in the sender's own partial.
    /// * A `Gather` payload mixes in the sender's own partial only where
    ///   the broadcast *originates* (no incoming `Gather` dep covers the
    ///   segment): the root of a broadcast tree sends its fully reduced
    ///   local buffer, while interior nodes forward exactly what they
    ///   received.
    pub(crate) fn run(schedule: &CommSchedule) -> Self {
        let n = schedule.num_nodes();
        let words = n.div_ceil(64);
        let row_len = schedule.total_segments() as usize * words;
        let mut rows: Vec<Box<[u64]>> = (0..n)
            .map(|node| {
                let mut row = vec![0u64; row_len].into_boxed_slice();
                for set in row.chunks_exact_mut(words) {
                    set[node / 64] |= 1 << (node % 64);
                }
                row
            })
            .collect();

        // carried[event]: the event's payload, one set per chunk segment
        let mut carried: Vec<Box<[u64]>> = Vec::with_capacity(schedule.events().len());
        // gather_fed[i]: an incoming Gather dep covers the chunk's i-th segment
        let mut gather_fed: Vec<bool> = Vec::new();
        for e in schedule.topological_order() {
            let start = e.chunk.start as usize;
            let mut payload = vec![0u64; e.chunk.len() as usize * words].into_boxed_slice();
            gather_fed.clear();
            gather_fed.resize(e.chunk.len() as usize, false);
            for d in &e.deps {
                let dep = schedule.event(*d);
                let lo = e.chunk.start.max(dep.chunk.start) as usize;
                let hi = e.chunk.end.min(dep.chunk.end) as usize;
                if dep.dst != e.src || lo >= hi {
                    continue;
                }
                let dep_start = dep.chunk.start as usize;
                let from = &carried[d.index()][(lo - dep_start) * words..(hi - dep_start) * words];
                let into = &mut payload[(lo - start) * words..(hi - start) * words];
                for (w, f) in into.iter_mut().zip(from) {
                    *w |= f;
                }
                if dep.op == CollectiveOp::Gather {
                    gather_fed[lo - start..hi - start].fill(true);
                }
            }

            let (word, bit) = (e.src.index() / 64, 1u64 << (e.src.index() % 64));
            for (set, &fed) in payload.chunks_exact_mut(words).zip(&gather_fed) {
                if e.op == CollectiveOp::Reduce || !fed {
                    set[word] |= bit;
                }
            }
            let state = &mut rows[e.dst.index()][start * words..];
            for (w, p) in state.iter_mut().zip(payload.iter()) {
                *w |= p;
            }
            carried.push(payload);
        }
        OriginSets { words, rows }
    }

    /// The origins node `node` holds for segment `seg`.
    pub(crate) fn set(&self, node: usize, seg: usize) -> &[u64] {
        &self.rows[node][seg * self.words..(seg + 1) * self.words]
    }
}

/// Number of origins in a set.
pub(crate) fn popcount(set: &[u64]) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

/// Rejects any dependency on an event of the same or a later step: the
/// lockstep rounds of the numeric execution are a legal serialization
/// only when every dependency lands on a strictly earlier step.
fn check_earlier_step_deps(schedule: &CommSchedule) -> Result<(), AlgorithmError> {
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
    }
    Ok(())
}

/// Executes a schedule numerically in bulk-synchronous (lockstep) rounds:
/// every node's buffer starts at `initial(node)` for all segments; within
/// each time step all events read the **start-of-step** buffers (the
/// physical meaning of the paper's lockstep — a step's sends carry data
/// computed before the step's deliveries), then all deliveries apply:
/// `Reduce` adds, `Gather` overwrites. Returns the final per-node,
/// per-segment values.
///
/// Values are integers stored in `f64` (exact below 2^53), so any
/// dropped or double-counted contribution changes the result exactly.
///
/// # Panics
///
/// Panics if an event depends on another event of the same (or a later)
/// time step — every algorithm in this crate produces strictly
/// earlier-step dependencies, which is what makes the BSP rounds a legal
/// serialization.
pub fn execute_numeric(
    schedule: &CommSchedule,
    initial: &dyn Fn(usize) -> f64,
) -> Vec<Vec<f64>> {
    let segs = schedule.total_segments() as usize;
    numeric_finals(schedule, initial)
        .chunks_exact(segs)
        .map(<[f64]>::to_vec)
        .collect()
}

/// [`execute_numeric`] into one flat buffer: the value of segment `seg`
/// at node `node` is at `node * segments + seg`.
fn numeric_finals(schedule: &CommSchedule, initial: &dyn Fn(usize) -> f64) -> Vec<f64> {
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let mut buf: Vec<f64> = (0..n)
        .flat_map(|node| std::iter::repeat_n(initial(node), segs))
        .collect();
    // a stable sort keeps each step's events in schedule order
    let mut by_step: Vec<&CommEvent> = schedule.events().iter().collect();
    by_step.sort_by_key(|e| e.step);
    // the step's payloads, read from the start-of-step buffers
    let mut payloads: Vec<f64> = Vec::new();
    for step_events in by_step.chunk_by(|a, b| a.step == b.step) {
        payloads.clear();
        for e in step_events {
            for d in &e.deps {
                assert!(
                    schedule.event(*d).step < e.step,
                    "numeric execution needs strictly earlier-step deps ({} depends on {})",
                    e,
                    schedule.event(*d)
                );
            }
            let from = e.src.index() * segs;
            payloads.extend_from_slice(
                &buf[from + e.chunk.start as usize..from + e.chunk.end as usize],
            );
        }
        // then all of the step's deliveries
        let mut offset = 0;
        for e in step_events {
            let len = e.chunk.len() as usize;
            let payload = &payloads[offset..offset + len];
            offset += len;
            let into = e.dst.index() * segs + e.chunk.start as usize;
            let into = &mut buf[into..into + len];
            match e.op {
                CollectiveOp::Reduce => {
                    for (b, p) in into.iter_mut().zip(payload) {
                        *b += p;
                    }
                }
                CollectiveOp::Gather => into.copy_from_slice(payload),
            }
        }
    }
    buf
}

/// Memory-scalable all-reduce verification for very large machines.
///
/// The full symbolic verifier keeps a row of origin sets per node, one
/// `⌈n/64⌉`-word set for each segment — `O(n² · segments / 64)` words,
/// about 128 GiB at 65536 nodes — so it cannot run at the scales the
/// hierarchical builder now reaches. This tier keeps the structural
/// validation, checks that every dependency lands on a strictly earlier
/// step (the property that makes the lockstep rounds a legal
/// serialization), and then runs **two** exact numeric executions
/// ([`execute_numeric`]) with independent contribution patterns,
/// requiring every node to end with the exact sum in every segment.
/// Memory is one flat buffer of `n · segments` values — ~134 MB at
/// 65536 nodes with 256 segments.
///
/// Contributions are distinct per node in both patterns, so any dropped
/// or double-counted contribution shifts at least one final sum; two
/// independent patterns must both be fooled for a bug to slip through.
/// The dependency-strict *set* dataflow property is not checked here —
/// it is pinned at smaller scales on the same builder by
/// [`verify_schedule`].
///
/// # Errors
///
/// Returns [`AlgorithmError::MalformedSchedule`] for structural or
/// dependency-ordering violations and
/// [`AlgorithmError::VerificationFailed`] when a final sum is wrong.
pub fn verify_allreduce_numeric(schedule: &CommSchedule) -> Result<VerifyReport, AlgorithmError> {
    schedule.validate()?;
    check_earlier_step_deps(schedule)?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments() as usize;
    let gathers = schedule
        .events()
        .iter()
        .filter(|e| e.op == CollectiveOp::Gather)
        .count();

    // two independent integer contribution patterns, both exact in f64:
    // node ranks, and a multiplicative scramble of them
    let patterns: [&dyn Fn(usize) -> f64; 2] = [
        &|node| (node + 1) as f64,
        &|node| ((node as u64).wrapping_mul(2_654_435_761) % (1 << 20) + 1) as f64,
    ];
    for initial in patterns {
        let expected: f64 = (0..n).map(initial).sum();
        let finals = numeric_finals(schedule, initial);
        for (i, &got) in finals.iter().enumerate() {
            if got != expected {
                let (node, seg) = (i / segs, i % segs);
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!(
                        "numeric execution: node {node} segment {seg} ends with {got}, \
                         expected {expected} (a contribution was dropped or double-counted)"
                    ),
                });
            }
        }
    }

    Ok(VerifyReport {
        events: schedule.events().len(),
        gathers,
        reduces: schedule.events().len() - gathers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkRange;
    use crate::event::{CollectiveOp, EventId, FlowId};
    use mt_topology::NodeId;

    /// Hand-built 2-node all-reduce: each node reduces its segment to the
    /// other, then nothing more is needed (each node's buffer has both).
    #[test]
    fn two_node_exchange_verifies() {
        let mut s = CommSchedule::new("hand", 2, 1);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        let r = verify_schedule(&s).unwrap();
        assert_eq!(r.events, 2);
        assert_eq!(r.reduces, 2);
    }

    /// 3-node chain reduce to node 2 then broadcast back: verifies, and the
    /// gather-completeness check passes.
    #[test]
    fn three_node_tree_verifies() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        let r01 = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        let r12 = s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![r01],
            None,
        );
        let g21 = s.push_event(
            NodeId::new(2),
            NodeId::new(1),
            f,
            CollectiveOp::Gather,
            c,
            3,
            vec![r12],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Gather,
            c,
            4,
            vec![g21],
            None,
        );
        let rep = verify_schedule(&s).unwrap();
        assert_eq!(rep.gathers, 2);
    }

    /// Missing dependency: node 1 forwards node 0's data without declaring
    /// the delivery as a dep -> the payload lacks node 0 -> failure.
    #[test]
    fn missing_dep_fails() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        // forwards without dep on the delivery above
        s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(2),
            NodeId::new(0),
            f,
            CollectiveOp::Reduce,
            c,
            3,
            vec![EventId::new(1)],
            None,
        );
        assert!(verify_schedule(&s).is_err());
    }

    /// Premature broadcast: gathering before the reduction finished
    /// leaves wrong final values.
    #[test]
    fn premature_gather_fails() {
        let mut s = CommSchedule::new("hand", 3, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Gather,
            c,
            1,
            vec![],
            None,
        );
        assert!(verify_schedule(&s).is_err());
    }

    /// Double delivery: the same contribution reduced twice passes set
    /// semantics but must fail the numeric execution.
    #[test]
    fn double_count_fails_numerically() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        // 0 -> 1 and 1 -> 0 complete the all-reduce...
        let a = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        // ...but an extra duplicate delivery double-counts at node 1
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            2,
            vec![a],
            None,
        );
        let err = verify_schedule(&s).unwrap_err();
        assert!(err.to_string().contains("double-counted"), "{err}");
    }

    /// The numeric executor itself.
    #[test]
    fn execute_numeric_semantics() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Gather,
            c,
            2,
            vec![],
            None,
        );
        let out = execute_numeric(&s, &|node| (node as f64 + 1.0) * 10.0);
        // node 1: 20 + 10 = 30 (reduce); node 0: overwritten to 30 (gather)
        assert_eq!(out[1][0], 30.0);
        assert_eq!(out[0][0], 30.0);
    }

    /// Incomplete schedules (no events) fail the completion check for n>1.
    #[test]
    fn empty_schedule_fails_for_multiple_nodes() {
        let s = CommSchedule::new("hand", 2, 1);
        assert!(verify_schedule(&s).is_err());
    }

    /// A dependency on an event of the same step cannot be ordered by
    /// the lockstep numeric execution: a typed error, not a panic.
    #[test]
    fn same_step_dep_is_malformed() {
        let mut s = CommSchedule::new("hand", 2, 1);
        let c = ChunkRange::single(0);
        let f = FlowId(0);
        let r = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            f,
            CollectiveOp::Reduce,
            c,
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(0),
            f,
            CollectiveOp::Gather,
            c,
            1,
            vec![r],
            None,
        );
        let err = verify_schedule(&s).unwrap_err();
        assert!(
            matches!(&err, AlgorithmError::MalformedSchedule { detail } if detail.contains("strictly earlier-step")),
            "{err}"
        );
    }

    /// A participant outside the schedule's nodes is a typed error.
    #[test]
    fn out_of_range_participant_is_malformed() {
        let mut s = CommSchedule::new("hand", 2, 1);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        let err = verify_allreduce_among(&s, &[NodeId::new(5)]).unwrap_err();
        assert!(
            matches!(&err, AlgorithmError::MalformedSchedule { detail } if detail.contains("participant N5")),
            "{err}"
        );
    }

    /// A single-node schedule is trivially complete.
    #[test]
    fn single_node_trivially_verifies() {
        let s = CommSchedule::new("hand", 1, 1);
        assert!(verify_schedule(&s).is_ok());
    }
}
