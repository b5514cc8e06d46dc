//! A schedule compiled against one topology for repeated simulation.
//!
//! Both network engines and the analytic cost model need, for every
//! event, its physical link path, the bottleneck capacity along that
//! path, and the dependency adjacency of the DAG. Computed naively these
//! cost a routing query and several allocations per event *per run* —
//! wasteful for parameter sweeps that execute the same `(schedule,
//! topology)` pair at a dozen payload sizes. [`PreparedSchedule`]
//! validates the schedule once and flattens all of this into contiguous
//! CSR arrays, so a run only indexes slices.
//!
//! The flattened arrays live in an owned [`PreparedData`], separable
//! from the borrowed `(schedule, topology)` pair so long-lived caches
//! (the serving daemon) can store the compiled artifact and re-attach it
//! to its sources per request via [`PreparedSchedule::from_parts`];
//! [`PreparedData::heap_bytes`] gives the byte-size such caches account
//! against their capacity.
//!
//! Payload-size-dependent quantities (per-event byte counts, flit
//! framing) are deliberately *not* precomputed: they change between runs
//! of a sweep while everything stored here stays fixed.

use crate::cost::event_path;
use crate::error::AlgorithmError;
use crate::event::CommEvent;
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, Topology};
use std::borrow::Cow;

/// The owned, source-independent half of a [`PreparedSchedule`]: every
/// per-event array, flattened into CSR form. Computed once by
/// [`PreparedData::compute`] and valid for exactly the `(schedule,
/// topology)` pair it was computed from.
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// CSR offsets into `path_links`, length `num_events + 1`.
    path_offsets: Vec<u32>,
    /// Concatenated per-event link paths.
    path_links: Vec<LinkId>,
    /// Per-hop effective link rates (`capacity * rate`, see
    /// `Topology::link_rate`) aligned with `path_links`, pre-widened to
    /// `f64` so the engines' serialization divide needs no lookup. On
    /// uniform topologies these are exactly the integer capacities.
    path_caps: Vec<f64>,
    /// Per-event bottleneck (minimum) link capacity, clamped to >= 1.
    /// Rate-blind: counts multigraph width only.
    min_caps: Vec<u32>,
    /// Per-event bottleneck (minimum) *effective* link rate along the
    /// path. Equals `f64::from(min_caps[i])` exactly on uniform
    /// topologies.
    min_rates: Vec<f64>,
    /// CSR offsets into `dependent_ids`, length `num_events + 1`.
    dependent_offsets: Vec<u32>,
    /// Concatenated dependents: events that list the row event as a dep,
    /// in schedule order.
    dependent_ids: Vec<u32>,
    /// Per-event dependency count (the DAG indegree).
    indegree: Vec<u32>,
    /// Per-event lockstep step, densely packed for the engines' hot
    /// loops (random access into the full `CommEvent` array thrashes
    /// cache; these fit in L2 even for thousand-event schedules).
    steps: Vec<u32>,
    /// Per-event source node index, densely packed (same rationale).
    srcs: Vec<u32>,
}

impl PreparedData {
    /// Validates `schedule` and resolves every event against `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] if the schedule
    /// fails [`CommSchedule::validate`].
    pub fn compute(schedule: &CommSchedule, topo: &Topology) -> Result<Self, AlgorithmError> {
        schedule.validate()?;
        let events = schedule.events();
        let n = events.len();

        let mut path_offsets = Vec::with_capacity(n + 1);
        let mut path_links = Vec::new();
        let mut path_caps = Vec::new();
        let mut min_caps = Vec::with_capacity(n);
        let mut min_rates = Vec::with_capacity(n);
        path_offsets.push(0u32);
        for e in events {
            let path = event_path(e, topo);
            min_caps.push(
                path.iter()
                    .map(|l| topo.link(*l).capacity)
                    .min()
                    .unwrap_or(1)
                    .max(1),
            );
            let mr = path
                .iter()
                .map(|l| topo.link_rate(*l))
                .fold(f64::INFINITY, f64::min);
            min_rates.push(if mr.is_finite() { mr } else { 1.0 });
            path_caps.extend(path.iter().map(|l| topo.link_rate(*l)));
            path_links.extend_from_slice(&path);
            path_offsets.push(path_links.len() as u32);
        }

        // dependents adjacency via counting sort; filling in schedule
        // order keeps each row sorted by dependent id
        let mut indegree = Vec::with_capacity(n);
        let mut steps = Vec::with_capacity(n);
        let mut srcs = Vec::with_capacity(n);
        let mut out_count = vec![0u32; n];
        for e in events {
            indegree.push(e.deps.len() as u32);
            steps.push(e.step);
            srcs.push(e.src.index() as u32);
            for d in &e.deps {
                out_count[d.index()] += 1;
            }
        }
        let mut dependent_offsets = Vec::with_capacity(n + 1);
        dependent_offsets.push(0u32);
        for c in &out_count {
            dependent_offsets.push(dependent_offsets.last().expect("non-empty") + c);
        }
        let mut cursor: Vec<u32> = dependent_offsets[..n].to_vec();
        let mut dependent_ids = vec![0u32; dependent_offsets[n] as usize];
        for e in events {
            for d in &e.deps {
                let slot = &mut cursor[d.index()];
                dependent_ids[*slot as usize] = e.id.index() as u32;
                *slot += 1;
            }
        }

        Ok(PreparedData {
            path_offsets,
            path_links,
            path_caps,
            min_caps,
            min_rates,
            dependent_offsets,
            dependent_ids,
            indegree,
            steps,
            srcs,
        })
    }

    /// Number of events these arrays were computed for.
    pub fn num_events(&self) -> usize {
        self.min_caps.len()
    }

    /// Bytes of heap the flattened arrays occupy — what a byte-budgeted
    /// cache charges for keeping this artifact resident. Counts array
    /// contents (by `len`, the dominant term), not allocator slack.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.path_offsets.len() * size_of::<u32>()
            + self.path_links.len() * size_of::<LinkId>()
            + self.path_caps.len() * size_of::<f64>()
            + self.min_caps.len() * size_of::<u32>()
            + self.min_rates.len() * size_of::<f64>()
            + self.dependent_offsets.len() * size_of::<u32>()
            + self.dependent_ids.len() * size_of::<u32>()
            + self.indegree.len() * size_of::<u32>()
            + self.steps.len() * size_of::<u32>()
            + self.srcs.len() * size_of::<u32>()
    }
}

/// A `(CommSchedule, Topology)` pair validated once, with per-event link
/// paths, bottleneck capacities and the dependents adjacency flattened
/// into CSR form. See the [module docs](self).
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, MultiTree};
/// use multitree::prepared::PreparedSchedule;
///
/// let topo = Topology::torus(4, 4);
/// let schedule = MultiTree::default().build(&topo)?;
/// let prep = PreparedSchedule::new(&schedule, &topo)?;
/// assert_eq!(prep.num_events(), schedule.events().len());
/// // every event's path is resolved and non-trivial to index
/// assert!((0..prep.num_events()).all(|i| prep.hops(i) >= 1));
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PreparedSchedule<'a> {
    schedule: &'a CommSchedule,
    topo: &'a Topology,
    data: Cow<'a, PreparedData>,
}

impl<'a> PreparedSchedule<'a> {
    /// Validates `schedule` and resolves every event against `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] if the schedule
    /// fails [`CommSchedule::validate`].
    pub fn new(schedule: &'a CommSchedule, topo: &'a Topology) -> Result<Self, AlgorithmError> {
        let data = PreparedData::compute(schedule, topo)?;
        Ok(PreparedSchedule {
            schedule,
            topo,
            data: Cow::Owned(data),
        })
    }

    /// Re-attaches an already-computed [`PreparedData`] to its sources
    /// without copying — the cache-hit path of a schedule server. The
    /// caller guarantees `data` was computed from exactly this
    /// `(schedule, topo)` pair (the event-count mismatch is caught, a
    /// semantic mismatch is not).
    pub fn from_parts(
        schedule: &'a CommSchedule,
        topo: &'a Topology,
        data: &'a PreparedData,
    ) -> Self {
        assert_eq!(
            data.num_events(),
            schedule.events().len(),
            "PreparedData does not match the schedule it is attached to"
        );
        PreparedSchedule {
            schedule,
            topo,
            data: Cow::Borrowed(data),
        }
    }

    /// The owned half: flattened arrays, detachable for caching.
    pub fn data(&self) -> &PreparedData {
        &self.data
    }

    /// Consumes the view, returning the owned arrays (cloning only if
    /// this view was built over borrowed data).
    pub fn into_data(self) -> PreparedData {
        self.data.into_owned()
    }

    /// The schedule this was prepared from.
    pub fn schedule(&self) -> &'a CommSchedule {
        self.schedule
    }

    /// The topology this was prepared against.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Number of events in the schedule.
    pub fn num_events(&self) -> usize {
        self.data.min_caps.len()
    }

    /// The events, indexable by the same indices every accessor takes.
    pub fn events(&self) -> &'a [CommEvent] {
        self.schedule.events()
    }

    /// The resolved physical link path of event `i`.
    pub fn path(&self, i: usize) -> &[LinkId] {
        &self.data.path_links
            [self.data.path_offsets[i] as usize..self.data.path_offsets[i + 1] as usize]
    }

    /// The effective rates (`capacity * rate`) of event `i`'s path
    /// links, as `f64`, aligned with [`PreparedSchedule::path`]. On
    /// uniform topologies these are exactly the integer capacities.
    pub fn path_capacities(&self, i: usize) -> &[f64] {
        &self.data.path_caps
            [self.data.path_offsets[i] as usize..self.data.path_offsets[i + 1] as usize]
    }

    /// Hop count of event `i`'s path.
    pub fn hops(&self, i: usize) -> usize {
        (self.data.path_offsets[i + 1] - self.data.path_offsets[i]) as usize
    }

    /// The first link of event `i`'s path — the injection port a
    /// cycle-accurate NI enqueues the message on. Paths are never empty.
    pub fn first_link(&self, i: usize) -> LinkId {
        self.data.path_links[self.data.path_offsets[i] as usize]
    }

    /// The bottleneck (minimum) capacity along event `i`'s path, in link
    /// multiplicity units, clamped to at least 1. Rate-blind; see
    /// [`PreparedSchedule::min_rate`] for the effective-bandwidth
    /// bottleneck.
    pub fn min_capacity(&self, i: usize) -> u32 {
        self.data.min_caps[i]
    }

    /// The bottleneck (minimum) *effective* rate along event `i`'s path,
    /// in units of the base link bandwidth. Exactly
    /// `f64::from(self.min_capacity(i))` on uniform topologies, smaller
    /// when a slow link sits on the path.
    pub fn min_rate(&self, i: usize) -> f64 {
        self.data.min_rates[i]
    }

    /// Events that depend on event `i`, ascending.
    pub fn dependents(&self, i: usize) -> &[u32] {
        &self.data.dependent_ids
            [self.data.dependent_offsets[i] as usize..self.data.dependent_offsets[i + 1] as usize]
    }

    /// Number of dependencies event `i` waits on.
    pub fn indegree(&self, i: usize) -> u32 {
        self.data.indegree[i]
    }

    /// The lockstep step of event `i`.
    pub fn step(&self, i: usize) -> u32 {
        self.data.steps[i]
    }

    /// The source node index of event `i`.
    pub fn src_index(&self, i: usize) -> usize {
        self.data.srcs[i] as usize
    }

    /// The indegree of every event (a fresh copy, ready to count down).
    pub fn indegree_vec(&self) -> Vec<u32> {
        self.data.indegree.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AllReduce, DbTree, MultiTree, Ring};

    #[test]
    fn paths_match_event_path() {
        let topo = Topology::torus(4, 4);
        for algo in [
            &Ring as &dyn AllReduce,
            &DbTree::default(),
            &MultiTree::default(),
        ] {
            let s = algo.build(&topo).unwrap();
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            assert_eq!(prep.num_events(), s.events().len());
            for (i, e) in s.events().iter().enumerate() {
                let expect = event_path(e, &topo);
                assert_eq!(prep.path(i), &*expect);
                assert_eq!(prep.hops(i), expect.len());
                let cap = expect
                    .iter()
                    .map(|l| topo.link(*l).capacity)
                    .min()
                    .unwrap_or(1)
                    .max(1);
                assert_eq!(prep.min_capacity(i), cap);
                // uniform topology: effective rates are exactly the caps
                assert_eq!(prep.min_rate(i), f64::from(cap));
                let caps: Vec<f64> = expect
                    .iter()
                    .map(|l| f64::from(topo.link(*l).capacity))
                    .collect();
                assert_eq!(prep.path_capacities(i), caps.as_slice());
                assert_eq!(prep.step(i), e.step);
                assert_eq!(prep.src_index(i), e.src.index());
            }
        }
    }

    #[test]
    fn heterogeneous_rates_reach_path_weights() {
        let uniform = Topology::torus(4, 4);
        let s = MultiTree::default().build(&uniform).unwrap();
        let slow_id = mt_topology::LinkId::new(0);
        let topo = uniform.with_link_rates(&[(slow_id, 1, 4)]).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut saw_slow = false;
        for i in 0..prep.num_events() {
            for (l, &w) in prep.path(i).iter().zip(prep.path_capacities(i)) {
                if *l == slow_id {
                    assert_eq!(w, 0.25);
                    assert_eq!(prep.min_rate(i), 0.25);
                    saw_slow = true;
                } else {
                    assert_eq!(w, f64::from(topo.link(*l).capacity));
                }
            }
            // min_capacity stays rate-blind
            assert_eq!(prep.min_capacity(i), 1);
        }
        assert!(saw_slow, "some event must cross link 0");
    }

    #[test]
    fn dependents_invert_deps() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        // CSR rows must equal the naive Vec<Vec> construction
        let mut naive: Vec<Vec<u32>> = vec![Vec::new(); s.events().len()];
        for e in s.events() {
            for d in &e.deps {
                naive[d.index()].push(e.id.index() as u32);
            }
        }
        for (i, row) in naive.iter().enumerate() {
            assert_eq!(prep.dependents(i), row.as_slice(), "row {i}");
            assert_eq!(prep.indegree(i), s.events()[i].deps.len() as u32);
        }
        // a DAG invariant: edge counts agree in both directions
        let total: u32 = (0..s.events().len()).map(|i| prep.indegree(i)).sum();
        assert_eq!(total as usize, prep.data().dependent_ids.len());
    }

    #[test]
    fn detached_data_reattaches_identically() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let fresh = PreparedSchedule::new(&s, &topo).unwrap();
        let data = fresh.clone().into_data();
        assert!(data.heap_bytes() > 0);
        let reattached = PreparedSchedule::from_parts(&s, &topo, &data);
        assert_eq!(reattached.num_events(), fresh.num_events());
        for i in 0..fresh.num_events() {
            assert_eq!(reattached.path(i), fresh.path(i));
            assert_eq!(reattached.path_capacities(i), fresh.path_capacities(i));
            assert_eq!(reattached.dependents(i), fresh.dependents(i));
            assert_eq!(reattached.min_rate(i), fresh.min_rate(i));
            assert_eq!(reattached.step(i), fresh.step(i));
        }
    }

    #[test]
    fn rejects_invalid_schedules() {
        use crate::{ChunkRange, CollectiveOp, FlowId};
        use mt_topology::NodeId;
        let topo = Topology::torus(2, 2);
        let mut s = CommSchedule::new("bad", 4, 4);
        let a = s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            5,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            FlowId(0),
            CollectiveOp::Reduce,
            ChunkRange::single(0),
            1,
            vec![a],
            None,
        );
        assert!(PreparedSchedule::new(&s, &topo).is_err());
    }
}
