//! Request execution and the fixed worker pool.
//!
//! Each worker thread owns one [`SimScratch`] for its whole lifetime:
//! after warm-up, serving a cached schedule allocates nothing on the
//! steady-state path — the prepared arrays live in the cache entry
//! (borrowed via `PreparedSchedule::from_parts`) and the simulation
//! buffers live in the worker's scratch, both reused across requests
//! and across *different* `(topology, schedule)` pairs.
//!
//! Workers pull *batches* from one shared [`JobQueue`]: a dequeue takes
//! the oldest job plus every other queued run with the same
//! [`ScheduleKey`] (up to [`ServeConfig::max_batch`]), in queue order.
//! The whole batch then shares one cache resolve, one `PreparedData`
//! borrow and one scratch, and each member then runs in queue order
//! through the same engine call an unbatched request makes — so at high
//! hit ratios the per-request cost collapses to the engine run itself.
//! Batching never changes results: simulated fields are byte-identical
//! to `max_batch = 1`, and hit/miss counters reconcile exactly because
//! every extra batch member is accounted as a hit
//! ([`ScheduleCache::touch`]).
//!
//! Responses go back as `(seq, response)` pairs on the submitting
//! connection's reply channel; the connection's writer reorders by
//! `seq`, so response order always matches request order per connection
//! while batches and connections interleave freely across workers.

use crate::cache::{CacheOutcome, Provenance, ScheduleCache};
use crate::key::{FaultKey, ScheduleKey};
use crate::protocol::{
    EngineSpec, ErrorResponse, Request, Response, RunRequest, RunResponse, StatsResponse,
};
use multitree::algorithms::RepairStrategy;
use multitree::PreparedSchedule;
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{
    EngineReport, FaultEvent, FaultPlan, FaultedRun, NetworkConfig, NoopObserver, SimScratch,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Serving limits and defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Byte budget for the prepared-schedule cache.
    pub cache_bytes: usize,
    /// Largest `TopologySpec::node_count` accepted; bigger requests are
    /// rejected before any construction work happens.
    pub max_nodes: usize,
    /// Most same-key runs a worker coalesces into one batch. `1`
    /// disables coalescing (every dequeue is one job); the default of 8
    /// bounds the latency a queued run can add to the batch in front of
    /// it while still amortizing the dispatch overhead well.
    pub max_batch: usize,
    /// Network parameters both engines run with.
    pub network: NetworkConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            cache_bytes: 256 << 20,
            max_nodes: 1 << 17,
            max_batch: 8,
            network: NetworkConfig::paper_default(),
        }
    }
}

/// Buckets in the batch-occupancy histogram: bucket `i` counts batches
/// of occupancy `i + 1`, the last bucket absorbing anything larger.
pub const BATCH_HIST_BUCKETS: usize = 16;

/// Everything the workers share: the schedule cache, the serve limits,
/// and the counters the cache does not keep.
pub struct ServeState {
    /// The keyed prepared-schedule cache (and its counters).
    pub cache: ScheduleCache,
    /// Limits and network parameters.
    pub config: ServeConfig,
    /// Requests that failed outside the compile path (bad spec, engine
    /// error); compile failures are counted by the cache.
    runtime_errors: AtomicU64,
    /// Coalesced batches executed by the worker pool.
    batches: AtomicU64,
    /// Runs executed inside those batches (the sum of occupancies —
    /// every run lands in exactly one batch, so this equals the total
    /// runs served).
    batched_runs: AtomicU64,
    /// Batch occupancy histogram (see [`BATCH_HIST_BUCKETS`]).
    batch_occupancy: [AtomicU64; BATCH_HIST_BUCKETS],
}

impl ServeState {
    /// Builds the shared state for a daemon or an in-process server.
    pub fn new(config: ServeConfig) -> Self {
        ServeState {
            cache: ScheduleCache::new(config.cache_bytes),
            config,
            runtime_errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_runs: AtomicU64::new(0),
            batch_occupancy: Default::default(),
        }
    }

    /// Snapshot of the counters served by `Stats` requests.
    pub fn stats(&self) -> StatsResponse {
        let o = self.cache.counters();
        StatsResponse {
            hits: o.hits.load(Ordering::Relaxed),
            misses: o.misses.load(Ordering::Relaxed),
            coalesced: o.coalesced.load(Ordering::Relaxed),
            evictions: o.evictions.load(Ordering::Relaxed),
            repairs_incremental: o.repairs_incremental.load(Ordering::Relaxed),
            repairs_full_rebuild: o.repairs_full_rebuild.load(Ordering::Relaxed),
            repairs_survivor: o.repairs_survivor.load(Ordering::Relaxed),
            errors: o.errors.load(Ordering::Relaxed)
                + self.runtime_errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_runs: self.batched_runs.load(Ordering::Relaxed),
            batch_occupancy: self
                .batch_occupancy
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            resident_bytes: self.cache.resident_bytes() as u64,
            resident_entries: self.cache.resident_entries() as u64,
        }
    }

    /// Executes one already-parsed request against this state, reusing
    /// `scratch` for all simulation buffers. Never panics on bad input;
    /// failures become [`Response::Error`]. A run goes through the
    /// batch path with occupancy 1 — there is exactly one execution
    /// path, which is what makes batched and unbatched results
    /// structurally identical.
    pub fn handle(&self, request: &Request, scratch: &mut SimScratch) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats()),
            Request::Run(run) => self
                .handle_run_batch(&[run], scratch)
                .pop()
                .expect("one response per run"),
        }
    }

    /// Executes one dequeued batch: either a single non-run request, or
    /// 1..=`max_batch` same-key runs (the queue's coalescing invariant).
    fn handle_jobs(&self, batch: &[Job], scratch: &mut SimScratch) -> Vec<Response> {
        if let [job] = batch {
            if !matches!(job.request, Request::Run(_)) {
                return vec![self.handle(&job.request, scratch)];
            }
        }
        let runs: Vec<&RunRequest> = batch
            .iter()
            .map(|job| match &job.request {
                Request::Run(run) => run,
                other => unreachable!("coalesced batch holds only runs, got {other:?}"),
            })
            .collect();
        self.handle_run_batch(&runs, scratch)
    }

    /// The batch-native run path: one cache resolve, one `PreparedData`
    /// borrow, one scratch, then one engine run per member. Every run in
    /// `runs` shares one schedule key (the queue's coalescing invariant;
    /// a single-element batch is the unbatched case). Responses are
    /// byte-identical in their simulated fields to executing the runs
    /// one by one, in order.
    fn handle_run_batch(&self, runs: &[&RunRequest], scratch: &mut SimScratch) -> Vec<Response> {
        let reject = |detail: String| {
            self.runtime_errors.fetch_add(1, Ordering::Relaxed);
            Response::Error(ErrorResponse { detail })
        };
        let mut responses: Vec<Option<Response>> = runs.iter().map(|_| None).collect();

        // per-run validation: invalid members error individually and
        // never block the rest of the batch
        for (i, run) in runs.iter().enumerate() {
            if run.payload_bytes == 0 {
                responses[i] = Some(reject("payload_bytes must be positive".into()));
                continue;
            }
            let nodes = run.topology.node_count();
            if nodes > self.config.max_nodes {
                responses[i] = Some(reject(format!(
                    "topology has {nodes} nodes, over this daemon's limit of {}",
                    self.config.max_nodes
                )));
            }
        }

        // every member of a coalesced batch shares this key
        let spec = runs[0].topology.canonicalized();
        let fault_key = runs[0].faults.as_ref().map(FaultKey::of).unwrap_or_default();
        let key = ScheduleKey::with_fault_key(&spec, runs[0].algorithm, fault_key.clone());
        // an unbatched run is a batch of 1, so summing occupancies
        // reconciles exactly with the number of runs served
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_runs.fetch_add(runs.len() as u64, Ordering::Relaxed);
        let bucket = runs.len().clamp(1, BATCH_HIST_BUCKETS) - 1;
        self.batch_occupancy[bucket].fetch_add(1, Ordering::Relaxed);

        let valid: Vec<usize> = (0..runs.len()).filter(|&i| responses[i].is_none()).collect();
        if valid.is_empty() {
            return responses.into_iter().flatten().collect();
        }

        // one resolve for the whole batch; the extra members are
        // accounted as hits (`touch`), so hit/miss/coalesced totals are
        // identical to executing the same stream with `max_batch = 1`
        let (entry, outcome) = match self.cache.resolve(&spec, runs[0].algorithm, fault_key) {
            Ok(resolved) => resolved,
            Err(detail) => {
                for &i in &valid {
                    responses[i] =
                        Some(Response::Error(ErrorResponse { detail: detail.clone() }));
                }
                return responses.into_iter().flatten().collect();
            }
        };
        for _ in 1..valid.len() {
            self.cache.touch(&key);
        }

        let digest = key.digest();
        let first_label = provenance_label(outcome, entry.provenance);
        let follow_label = provenance_label(CacheOutcome::Hit, entry.provenance);
        let occupancy = runs.len() as u64;
        let prep = entry.prepared();

        // every valid member runs in queue order through one call; runs
        // carrying runtime-only fault events run faulted. Permanent
        // deaths are structural — baked into the cached (repaired)
        // schedule — so only flaps and degrades reach the engines here.
        for (slot, &i) in valid.iter().enumerate() {
            let run = runs[i];
            let label = if slot == 0 { &first_label } else { &follow_label };
            let plan = run.faults.as_ref().and_then(runtime_only_plan);
            responses[i] = Some(
                match self.execute(run.engine, &prep, run.payload_bytes, plan.as_ref(), scratch) {
                    Ok((report, delivered, messages, stalled)) => Response::Run(RunResponse {
                        key: digest.clone(),
                        provenance: label.clone(),
                        verified: entry.verified,
                        completion_ns: report.sim.completion_ns,
                        delivered,
                        messages,
                        flits_sent: report.sim.flits_sent,
                        stalled,
                        batch: occupancy,
                    }),
                    Err(detail) => reject(detail),
                },
            );
        }

        responses
            .into_iter()
            .map(|r| r.expect("every run in the batch was answered"))
            .collect()
    }

    /// Runs one batch member on `engine`: faulted under `runtime_plan`
    /// when there is one, healthy otherwise. Returns the report with its
    /// `(delivered, messages, stalled)` verdict; a healthy run delivers
    /// every message.
    fn execute(
        &self,
        engine: EngineSpec,
        prep: &PreparedSchedule<'_>,
        payload: u64,
        runtime_plan: Option<&FaultPlan>,
        scratch: &mut SimScratch,
    ) -> Result<(EngineReport, u64, u64, bool), String> {
        let healthy = |report: EngineReport| {
            let m = report.sim.messages as u64;
            (report, m, m, false)
        };
        let faulted = |run: FaultedRun| {
            let f = run.faults;
            (run.report, f.delivered as u64, f.total as u64, f.stalled)
        };
        let net = self.config.network;
        let mut obs = NoopObserver;
        match (engine, runtime_plan) {
            (EngineSpec::Flow, None) => FlowEngine::new(net)
                .run_prepared_with(prep, payload, scratch, &mut obs)
                .map(healthy),
            (EngineSpec::Cycle, None) => CycleEngine::new(net)
                .run_prepared_with(prep, payload, scratch, &mut obs)
                .map(healthy),
            (EngineSpec::Flow, Some(plan)) => FlowEngine::new(net)
                .run_prepared_faulted_with(prep, payload, scratch, plan, &mut obs)
                .map(faulted),
            (EngineSpec::Cycle, Some(plan)) => CycleEngine::new(net)
                .run_prepared_faulted_with(prep, payload, scratch, plan, &mut obs)
                .map(faulted),
        }
        .map_err(|e| e.to_string())
    }
}

/// The stable provenance string for a response (see
/// [`RunResponse::provenance`]). Coalesced waiters report the compiling
/// request's provenance: they received exactly that artifact.
fn provenance_label(outcome: CacheOutcome, provenance: Provenance) -> String {
    match (outcome, provenance) {
        (CacheOutcome::Hit, Provenance::Compiled) => "cached".into(),
        (CacheOutcome::Hit, Provenance::Repaired(_)) => "cached-repair".into(),
        (_, Provenance::Compiled) => "compiled".into(),
        (_, Provenance::Repaired(RepairStrategy::Incremental)) => "repaired:incremental".into(),
        (_, Provenance::Repaired(RepairStrategy::FullRebuild)) => "repaired:full-rebuild".into(),
        (_, Provenance::Repaired(RepairStrategy::SurvivorSubset)) => {
            "repaired:survivor-subset".into()
        }
    }
}

/// Strips the structural deaths out of a request plan, keeping only the
/// events the engines must see at run time. Returns `None` when nothing
/// runtime-only remains, so the caller takes the faster unfaulted path.
fn runtime_only_plan(plan: &FaultPlan) -> Option<FaultPlan> {
    let events: Vec<FaultEvent> = plan
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::LinkFlap { .. } | FaultEvent::LinkDegrade { .. }))
        .cloned()
        .collect();
    if events.is_empty() {
        return None;
    }
    Some(FaultPlan {
        events,
        detect_window_ns: plan.detect_window_ns,
    })
}

/// One unit of work: a parsed request tagged with its per-connection
/// sequence number and the channel its response goes back on.
pub struct Job {
    /// Position in the submitting connection's request stream.
    pub seq: u64,
    /// The parsed request.
    pub request: Request,
    /// Where the `(seq, response)` pair is delivered.
    pub reply: Sender<(u64, Response)>,
    /// The run's schedule key, precomputed at submit time so the queue
    /// coalesces without re-deriving it per candidate. `None` for
    /// non-run requests, which never coalesce.
    key: Option<ScheduleKey>,
}

impl Job {
    /// Tags a parsed request for the pool, precomputing its coalescing
    /// key.
    pub fn new(seq: u64, request: Request, reply: Sender<(u64, Response)>) -> Job {
        let key = match &request {
            Request::Run(run) => Some(ScheduleKey::with_fault_key(
                &run.topology.canonicalized(),
                run.algorithm,
                run.faults.as_ref().map(FaultKey::of).unwrap_or_default(),
            )),
            _ => None,
        };
        Job {
            seq,
            request,
            reply,
            key,
        }
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The shared job queue: bounded (backpressure instead of unbounded
/// buffering when clients submit faster than schedules execute),
/// multi-producer multi-consumer, with a *coalescing* dequeue —
/// `take_batch` returns the oldest job plus every other
/// queued run with the same [`ScheduleKey`], in queue order, up to the
/// caller's cap. Jobs never reorder relative to their own key (and the
/// per-connection writer reorders by `seq` anyway), so coalescing is
/// invisible except in throughput and the `batch` telemetry field.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    jobs_cv: Condvar,
    space_cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues one job, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the job back once the pool has shut down — same contract
    /// as a channel send, and the caller (one per connection) only
    /// checks `is_err`, so the error size never travels further.
    #[allow(clippy::result_large_err)]
    pub fn send(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(job);
            }
            if inner.jobs.len() < self.capacity {
                break;
            }
            inner = self.space_cv.wait(inner).expect("queue lock");
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.jobs_cv.notify_one();
        Ok(())
    }

    /// Closes the queue: senders fail fast, workers drain what is
    /// already queued and then see `None`.
    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.jobs_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Blocks for the next batch. Returns `None` once the queue is
    /// closed *and* drained.
    fn take_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if !inner.jobs.is_empty() {
                break;
            }
            if inner.closed {
                return None;
            }
            inner = self.jobs_cv.wait(inner).expect("queue lock");
        }
        let first = inner.jobs.pop_front().expect("non-empty");
        let mut batch = Vec::with_capacity(max_batch.min(8));
        batch.push(first);
        if let Some(key) = batch[0].key.clone() {
            let mut i = 0;
            while i < inner.jobs.len() && batch.len() < max_batch {
                if inner.jobs[i].key.as_ref() == Some(&key) {
                    batch.push(inner.jobs.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
        }
        drop(inner);
        // each removed job is one freed slot for a blocked sender
        self.space_cv.notify_all();
        Some(batch)
    }
}

/// A fixed pool of worker threads, each owning its [`SimScratch`],
/// draining one shared coalescing [`JobQueue`].
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `state.config.workers` threads (at least one).
    pub fn new(state: Arc<ServeState>) -> WorkerPool {
        let workers = state.config.workers.max(1);
        let queue = Arc::new(JobQueue::new(workers * 64));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &queue))
                    .expect("spawn worker"),
            );
        }
        WorkerPool { queue, handles }
    }

    /// A handle for submitting jobs (shareable, one per connection).
    pub fn sender(&self) -> Arc<JobQueue> {
        Arc::clone(&self.queue)
    }

    /// Closes the queue and joins every worker. Workers finish the jobs
    /// already queued first.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(state: &ServeState, queue: &JobQueue) {
    let mut scratch = SimScratch::new();
    let max_batch = state.config.max_batch.max(1);
    while let Some(batch) = queue.take_batch(max_batch) {
        // `handle_jobs` is contracted never to panic, but a panic that
        // slips through anyway must cost one batch of responses, not
        // this worker thread (a dead worker shrinks the pool for the
        // daemon's lifetime and stalls its connection's writer)
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.handle_jobs(&batch, &mut scratch)
        }));
        match result {
            Ok(responses) => {
                debug_assert_eq!(responses.len(), batch.len());
                for (job, response) in batch.iter().zip(responses) {
                    // a disconnected client just discards its responses
                    let _ = job.reply.send((job.seq, response));
                }
            }
            Err(payload) => {
                // the unwind may have left scratch mid-update; replace it
                scratch = SimScratch::new();
                let detail = crate::cache::panic_detail(&*payload);
                for job in &batch {
                    let _ = job.reply.send((
                        job.seq,
                        Response::Error(ErrorResponse {
                            detail: detail.clone(),
                        }),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AlgorithmSpec;
    use mt_topology::{LinkId, TopologySpec};

    fn run_req(faults: Option<FaultPlan>) -> Request {
        Request::Run(RunRequest {
            topology: TopologySpec::Torus { rows: 4, cols: 4 },
            algorithm: AlgorithmSpec::MultiTree,
            payload_bytes: 1 << 20,
            engine: EngineSpec::Flow,
            faults,
        })
    }

    fn run_req_payload(payload: u64, engine: EngineSpec) -> Request {
        Request::Run(RunRequest {
            topology: TopologySpec::Torus { rows: 4, cols: 4 },
            algorithm: AlgorithmSpec::MultiTree,
            payload_bytes: payload,
            engine,
            faults: None,
        })
    }

    #[test]
    fn handle_compiles_then_hits_and_matches_direct_execution() {
        let state = ServeState::new(ServeConfig::default());
        let mut scratch = SimScratch::new();
        let first = state.handle(&run_req(None), &mut scratch);
        let Response::Run(first) = first else {
            panic!("expected run response, got {first:?}");
        };
        assert_eq!(first.provenance, "compiled");
        assert!(first.verified);
        assert_eq!(first.delivered, first.messages);
        assert!(!first.stalled);
        assert_eq!(first.batch, 1, "a single handle is a batch of one");

        let second = state.handle(&run_req(None), &mut scratch);
        let Response::Run(second) = second else {
            panic!("expected run response");
        };
        assert_eq!(second.provenance, "cached");
        assert_eq!(second.completion_ns, first.completion_ns, "bit-identical");
        assert_eq!(second.flits_sent, first.flits_sent);

        // same numbers as compiling and running outside the daemon
        let topo = mt_topology::Topology::torus(4, 4);
        let schedule = AlgorithmSpec::MultiTree.build(&topo).unwrap();
        let prep = multitree::PreparedSchedule::new(&schedule, &topo).unwrap();
        let direct = FlowEngine::new(NetworkConfig::paper_default())
            .run_prepared_with(&prep, 1 << 20, &mut SimScratch::new(), &mut NoopObserver)
            .unwrap();
        assert_eq!(first.completion_ns, direct.sim.completion_ns);

        let stats = state.stats();
        assert_eq!((stats.hits, stats.misses, stats.errors), (1, 1, 0));
        assert_eq!((stats.batches, stats.batched_runs), (2, 2));
    }

    #[test]
    fn fault_delta_serves_repaired_schedule_and_runtime_events_apply() {
        let state = ServeState::new(ServeConfig::default());
        let mut scratch = SimScratch::new();
        // warm the healthy entry
        state.handle(&run_req(None), &mut scratch);

        // permanent death + a runtime degrade on another link
        let plan = FaultPlan::new()
            .link_down(LinkId::new(0), 0.0)
            .degrade(LinkId::new(5), 0.0, 4.0);
        let resp = state.handle(&run_req(Some(plan.clone())), &mut scratch);
        let Response::Run(resp) = resp else {
            panic!("expected run response, got {resp:?}");
        };
        assert!(resp.provenance.starts_with("repaired:"), "{}", resp.provenance);
        assert!(resp.verified, "repairs are re-verified");
        assert_eq!(resp.delivered, resp.messages, "repair routed around death");
        assert!(!resp.stalled);

        // the same delta again: cached repair, no second repair pass
        let again = state.handle(&run_req(Some(plan)), &mut scratch);
        let Response::Run(again) = again else {
            panic!("expected run response");
        };
        assert_eq!(again.provenance, "cached-repair");
        let stats = state.stats();
        assert_eq!(
            stats.repairs_incremental + stats.repairs_full_rebuild + stats.repairs_survivor,
            1,
            "one repair served twice"
        );
    }

    #[test]
    fn oversized_and_malformed_requests_error_without_crashing() {
        let state = ServeState::new(ServeConfig {
            max_nodes: 8,
            ..ServeConfig::default()
        });
        let mut scratch = SimScratch::new();
        let resp = state.handle(&run_req(None), &mut scratch);
        assert!(matches!(resp, Response::Error(_)), "16 nodes > cap of 8");
        let stats = state.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.misses, 0, "rejected before any compile");
    }

    #[test]
    fn take_batch_coalesces_same_key_runs_in_queue_order() {
        let queue = JobQueue::new(64);
        let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
        let key_a = || run_req(None);
        let key_b = || {
            Request::Run(RunRequest {
                topology: TopologySpec::Torus { rows: 4, cols: 4 },
                algorithm: AlgorithmSpec::Ring,
                payload_bytes: 1 << 16,
                engine: EngineSpec::Flow,
                faults: None,
            })
        };
        // A A B A A A — payload and engine vary within key A (neither
        // is part of the key, so neither blocks coalescing)
        for (seq, request) in [
            (0, key_a()),
            (1, run_req_payload(1 << 16, EngineSpec::Cycle)),
            (2, key_b()),
            (3, key_a()),
            (4, run_req_payload(1 << 14, EngineSpec::Flow)),
            (5, key_a()),
        ] {
            assert!(queue.send(Job::new(seq, request, reply_tx.clone())).is_ok());
        }
        // cap 4: the first dequeue takes A0 A1 A3 A4, leaving B2 in
        // front of the late A5
        let batch = queue.take_batch(4).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [0, 1, 3, 4]);
        let batch = queue.take_batch(4).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [2]);
        let batch = queue.take_batch(4).unwrap();
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [5]);
        queue.close();
        assert!(queue.take_batch(4).is_none());
        assert!(queue.send(Job::new(6, key_a(), reply_tx)).is_err());
    }

    #[test]
    fn batched_runs_match_singles_and_counters_reconcile() {
        // baseline: three independent single runs on a fresh state
        let singles = ServeState::new(ServeConfig::default());
        let mut scratch = SimScratch::new();
        let payloads = [1u64 << 20, 1 << 16, 1 << 20];
        let engines = [EngineSpec::Flow, EngineSpec::Cycle, EngineSpec::Flow];
        let mut expected = Vec::new();
        for (&p, &e) in payloads.iter().zip(&engines) {
            let Response::Run(r) = singles.handle(&run_req_payload(p, e), &mut scratch) else {
                panic!("expected run response");
            };
            expected.push(r);
        }

        // the same three as one coalesced batch on another fresh state
        let state = ServeState::new(ServeConfig::default());
        let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
        let jobs: Vec<Job> = payloads
            .iter()
            .zip(&engines)
            .enumerate()
            .map(|(seq, (&p, &e))| Job::new(seq as u64, run_req_payload(p, e), reply_tx.clone()))
            .collect();
        let responses = state.handle_jobs(&jobs, &mut scratch);
        assert_eq!(responses.len(), 3);
        for (resp, want) in responses.iter().zip(&expected) {
            let Response::Run(r) = resp else {
                panic!("expected run response, got {resp:?}");
            };
            assert_eq!(r.completion_ns, want.completion_ns, "batched == single");
            assert_eq!(r.flits_sent, want.flits_sent);
            assert_eq!(r.messages, want.messages);
            assert_eq!(r.key, want.key);
            assert_eq!(r.batch, 3, "occupancy is reported per response");
        }

        // counters reconcile exactly with the unbatched stream: one
        // miss, two hits, one batch of occupancy 3
        let stats = state.stats();
        assert_eq!((stats.misses, stats.hits + stats.coalesced), (1, 2));
        assert_eq!((stats.batches, stats.batched_runs), (1, 3));
        assert_eq!(stats.batch_occupancy[2], 1);
        assert_eq!(stats.batch_occupancy.iter().sum::<u64>(), stats.batches);
        let weighted: u64 = stats
            .batch_occupancy
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        assert_eq!(weighted, stats.batched_runs);
    }

    #[test]
    fn invalid_members_error_individually_inside_a_batch() {
        let state = ServeState::new(ServeConfig::default());
        let mut scratch = SimScratch::new();
        let (reply_tx, _reply_rx) = std::sync::mpsc::channel();
        let jobs = vec![
            Job::new(0, run_req_payload(1 << 20, EngineSpec::Flow), reply_tx.clone()),
            Job::new(1, run_req_payload(0, EngineSpec::Flow), reply_tx.clone()),
            Job::new(2, run_req_payload(1 << 16, EngineSpec::Flow), reply_tx),
        ];
        let responses = state.handle_jobs(&jobs, &mut scratch);
        assert!(matches!(responses[0], Response::Run(_)));
        assert!(matches!(responses[1], Response::Error(_)));
        assert!(matches!(responses[2], Response::Run(_)));
        let stats = state.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!((stats.misses, stats.hits), (1, 1), "only valid members resolve");
        assert_eq!(stats.batched_runs, 3, "the reject still counts in occupancy");
    }

    #[test]
    fn pool_preserves_per_connection_order() {
        let state = Arc::new(ServeState::new(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        }));
        let pool = WorkerPool::new(Arc::clone(&state));
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        let sender = pool.sender();
        let n = 32u64;
        for seq in 0..n {
            let request = if seq % 5 == 4 { Request::Ping } else { run_req(None) };
            assert!(sender.send(Job::new(seq, request, reply_tx.clone())).is_ok());
        }
        drop(reply_tx);
        let mut got: Vec<(u64, Response)> = reply_rx.iter().take(n as usize).collect();
        got.sort_by_key(|(seq, _)| *seq);
        assert_eq!(got.len(), n as usize);
        for (seq, resp) in got {
            if seq % 5 == 4 {
                assert!(matches!(resp, Response::Pong));
            } else {
                assert!(matches!(resp, Response::Run(_)));
            }
        }
        // exactly one compile despite 4 workers racing the same key;
        // batch members beyond the first are accounted as hits, so the
        // totals are batching-invariant
        let stats = state.stats();
        assert_eq!(stats.misses, 1, "in-flight dedup");
        assert_eq!(stats.hits + stats.coalesced, (n - n / 5) - 1);
        assert_eq!(stats.batched_runs, n - n / 5, "every run in exactly one batch");
        let weighted: u64 = stats
            .batch_occupancy
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        assert_eq!(weighted, stats.batched_runs, "histogram reconciles");
    }
}
