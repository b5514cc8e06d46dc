//! The four workloads and what they share: seeded streams, the
//! sequential runner, per-operation digests and the per-layer metrics
//! derived from a trace.

pub mod cycle;
pub mod serve;
pub mod train;

use crate::stats::Outcome;
use crate::trace::{layer_totals, unattributed_share, Tracer, OP};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Kind; 4] = [
    Kind::ServeHot,
    Kind::ServeCold,
    Kind::TrainOverlap,
    Kind::CycleFig9,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm-cache closed loop against the serving daemon.
    ServeHot,
    /// Never-seen keys against the serving daemon: cache writes.
    ServeCold,
    /// The paper's Fig. 11b layer-wise overlapped training.
    TrainOverlap,
    /// The paper's Fig. 9a on the flit-level cycle engine.
    CycleFig9,
}

impl Kind {
    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::ServeCold => "serve_cold",
            Kind::TrainOverlap => "train_overlap",
            Kind::CycleFig9 => "cycle_fig9",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Sets up and runs the workload with tracing off.
    pub fn run(self, seed: u64, budget: Budget) -> UntracedRun {
        match self {
            Kind::ServeHot => serve::run(serve::Mode::Hot, seed, budget),
            Kind::ServeCold => serve::run(serve::Mode::Cold, seed, budget),
            Kind::TrainOverlap => train::run(seed, budget),
            Kind::CycleFig9 => cycle::run(seed, budget),
        }
    }

    /// Sets up, runs the fixed traced op set once untraced, then replays
    /// it traced until the budget is spent.
    pub fn run_traced(self, seed: u64, budget: Budget) -> TracedRun {
        match self {
            Kind::ServeHot => serve::run_traced(serve::Mode::Hot, seed, budget),
            Kind::ServeCold => serve::run_traced(serve::Mode::Cold, seed, budget),
            Kind::TrainOverlap => train::run_traced(seed, budget),
            Kind::CycleFig9 => cycle::run_traced(seed, budget),
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run for this many seconds (finishing the current round), and trace
    /// the workload's standard op set.
    Seconds(f64),
    /// Run exactly this many operations, and trace the same ones once.
    Ops(usize),
}

impl Budget {
    /// Size of the op set a traced run replays.
    pub fn trace_ops(self, standard: usize) -> usize {
        match self {
            Budget::Seconds(_) => standard,
            Budget::Ops(n) => n,
        }
    }
}

/// Fewest repetitions of a set-up.
pub const SETUP_MIN_REPS: usize = 5;

/// A cheap set-up repeats until it has taken this long in total, so its
/// median rests on enough samples…
pub const SETUP_MIN_SECONDS: f64 = 0.25;

/// …up to this many repetitions.
pub const SETUP_MAX_REPS: usize = 200;

/// One attempted operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// Position in the seeded stream.
    pub index: usize,
    /// Host wall time of the operation.
    pub latency_ns: u64,
    /// Whether it passed its output checks.
    pub outcome: Outcome,
    /// Digest of its simulated output fields.
    pub digest: u64,
}

/// Result of a run with tracing off.
#[derive(Debug, Clone)]
pub struct UntracedRun {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Every attempted operation, in stream order.
    pub ops: Vec<OpResult>,
    /// Wall seconds of the measured window.
    pub elapsed_s: f64,
    /// Completion rate (ops per second) of each round of the window — of
    /// each 1000 ops where a workload has no rounds. `ops_per_s` is their
    /// median.
    pub window_rates: Vec<f64>,
    /// Deterministic simulated headline values, by name.
    pub headlines: BTreeMap<&'static str, f64>,
    /// How many leading ops the run digest covers.
    pub digest_ops: usize,
}

/// Result of a traced run.
pub struct TracedRun {
    /// The untraced pass over the traced op set.
    pub reference: Vec<OpResult>,
    /// Each traced pass's operations (checked against `reference`).
    pub passes: Vec<Vec<OpResult>>,
    /// Each traced pass's per-layer metrics.
    pub layers: Vec<BTreeMap<&'static str, f64>>,
    /// The last traced pass's spans.
    pub tracer: Tracer,
}

impl TracedRun {
    /// Every operation attempted, with traced passes failing any op whose
    /// simulated output differs from the untraced pass.
    pub fn outcomes(&self) -> Vec<Outcome> {
        let mut out: Vec<Outcome> = self.reference.iter().map(|o| o.outcome.clone()).collect();
        for pass in &self.passes {
            for op in pass {
                // reference ops sit at their stream index
                let expect = self.reference.get(op.index).filter(|r| r.index == op.index);
                out.push(match (&op.outcome, expect) {
                    (Outcome::Ok, Some(r)) if r.digest != op.digest => Outcome::Wrong(format!(
                        "op {}: traced output differs from untraced",
                        op.index
                    )),
                    (o, _) => o.clone(),
                });
            }
        }
        out
    }
}

/// Per-layer metrics every traced run reports, with their units, in
/// print order. Layers a workload does not reach report 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("topology.build.calls", "count"),
    ("topology.build.busy_ms", "ms"),
    ("core.construct.calls", "count"),
    ("core.construct.busy_ms", "ms"),
    ("core.construct.events", "count"),
    ("core.verify.calls", "count"),
    ("core.verify.busy_ms", "ms"),
    ("core.verify.ns_per_event", "ns"),
    ("core.prepare.calls", "count"),
    ("core.prepare.busy_ms", "ms"),
    ("core.prepare.useful_ratio", "ratio"),
    ("netsim.flow.runs", "count"),
    ("netsim.flow.busy_ms", "ms"),
    ("netsim.flow.ns_per_event", "ns"),
    ("netsim.cycle.runs", "count"),
    ("netsim.cycle.busy_ms", "ms"),
    ("netsim.cycle.ns_per_flit", "ns"),
    ("accel.timing.calls", "count"),
    ("accel.timing.busy_ms", "ms"),
    ("trainsim.overlap.self_ms", "ms"),
    ("serve.parse.busy_us", "us"),
    ("serve.encode.busy_us", "us"),
    ("serve.handle.busy_ms", "ms"),
    ("serve.resolve.busy_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.miss_coverage", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.repairs", "count"),
    ("serve.batch.mean_occupancy", "count"),
    ("serve.errors", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.train_speedup", "x"),
    ("sim.allreduce_gbps", "GB/s"),
];

/// Derives [`PER_LAYER`] from one traced pass. `measured` supplies the
/// values that do not come from spans (daemon counters, waits, simulated
/// headlines); `span_cost_ns` prices the tracer's own overhead.
pub fn layer_metrics(
    tracer: &Tracer,
    span_cost_ns: f64,
    measured: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let totals = layer_totals(tracer.spans());
    let counters = tracer.counters();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let calls = |name: &str| total(name).calls as f64;
    let busy_ns = |name: &str| total(name).self_ns as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (layer, key) in [
        ("topology.build", "topology.build.calls"),
        ("core.construct", "core.construct.calls"),
        ("core.verify", "core.verify.calls"),
        ("core.prepare", "core.prepare.calls"),
        ("netsim.flow", "netsim.flow.runs"),
        ("netsim.cycle", "netsim.cycle.runs"),
        ("accel.timing", "accel.timing.calls"),
    ] {
        m.insert(key, calls(layer));
    }
    for (layer, key) in [
        ("topology.build", "topology.build.busy_ms"),
        ("core.construct", "core.construct.busy_ms"),
        ("core.verify", "core.verify.busy_ms"),
        ("core.prepare", "core.prepare.busy_ms"),
        ("netsim.flow", "netsim.flow.busy_ms"),
        ("netsim.cycle", "netsim.cycle.busy_ms"),
        ("accel.timing", "accel.timing.busy_ms"),
        ("serve.handle", "serve.handle.busy_ms"),
        ("serve.resolve", "serve.resolve.busy_ms"),
        ("trainsim.overlap", "trainsim.overlap.self_ms"),
    ] {
        m.insert(key, busy_ns(layer) / 1e6);
    }
    m.insert("core.construct.events", counter("core.construct.events"));
    m.insert(
        "core.verify.ns_per_event",
        ratio(busy_ns("core.verify"), counter("core.verify.events")),
    );
    m.insert(
        "core.prepare.useful_ratio",
        ratio(counter("core.prepare.distinct"), calls("core.prepare")),
    );
    m.insert(
        "netsim.flow.ns_per_event",
        ratio(busy_ns("netsim.flow"), counter("netsim.flow.events")),
    );
    m.insert(
        "netsim.cycle.ns_per_flit",
        ratio(busy_ns("netsim.cycle"), counter("netsim.cycle.flits")),
    );
    m.insert("serve.parse.busy_us", busy_ns("serve.parse") / 1e3);
    m.insert("serve.encode.busy_us", busy_ns("serve.encode") / 1e3);
    m.insert("trace.unattributed_share", unattributed_share(&totals));
    m.insert(
        "trace.overhead_ratio",
        ratio(
            tracer.spans().len() as f64 * span_cost_ns,
            total(OP).total_ns as f64,
        ),
    );
    for (name, _) in PER_LAYER {
        let v = measured.get(name).or(m.get(name)).copied().unwrap_or(0.0);
        m.insert(name, v);
    }
    m
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream position `(a, b)` under `seed`.
    pub fn at(seed: u64, a: u64, b: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        let x = r.next_u64() ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let mut r = Rng(x);
        let y = r.next_u64() ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng(y)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded order of a round: a permutation of `0..len`.
pub fn round_order(seed: u64, round: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::at(seed, 0x0505, round as u64);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// FNV-1a, for digests of simulated outputs.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in bytes.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes in a 64-bit word.
    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of the first `n` operations of a run: identical for two runs
/// of the same seed, whatever else differs between them.
pub fn run_digest(ops: &[OpResult], n: usize) -> u64 {
    ops.iter()
        .take(n)
        .fold(Fnv::default(), |h, op| {
            h.word(op.index as u64).word(op.digest)
        })
        .finish()
}

/// Runs `op(0)`, `op(1)`, … one at a time until `budget` is spent; with a
/// time budget the last round of `round_len` ops is finished. Returns the
/// results, the measured wall seconds and each round's op rate.
pub fn run_sequential(
    budget: Budget,
    round_len: usize,
    mut op: impl FnMut(usize) -> (Outcome, u64),
) -> (Vec<OpResult>, f64, Vec<f64>) {
    let started = Instant::now();
    let mut round_started = started;
    let mut results = Vec::new();
    let mut rates = Vec::new();
    for index in 0.. {
        let done = match budget {
            Budget::Ops(n) => index >= n,
            Budget::Seconds(s) => index % round_len == 0 && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let (outcome, digest) = op(index);
        let latency_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        results.push(OpResult {
            index,
            latency_ns,
            outcome,
            digest,
        });
        if (index + 1) % round_len == 0 {
            rates.push(round_len as f64 / round_started.elapsed().as_secs_f64());
            round_started = Instant::now();
        }
    }
    (results, started.elapsed().as_secs_f64(), rates)
}

/// Repeats `setup` at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_SECONDS`] have been spent in it (at most
/// [`SETUP_MAX_REPS`] times), timing each, and keeps the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPS)
    {
        // the previous repetition's state is torn down outside the timing
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Runs traced passes until the budget is spent (at least one; exactly
/// one under an op budget). Each pass returns its ops, its per-layer
/// metrics and its spans; only the last pass's spans are kept.
pub fn traced_passes(
    budget: Budget,
    reference: Vec<OpResult>,
    mut pass: impl FnMut() -> (Vec<OpResult>, BTreeMap<&'static str, f64>, Tracer),
) -> TracedRun {
    let started = Instant::now();
    let mut run = TracedRun {
        reference,
        passes: Vec::new(),
        layers: Vec::new(),
        tracer: Tracer::new(),
    };
    loop {
        let (ops, layers, tracer) = pass();
        run.passes.push(ops);
        run.layers.push(layers);
        run.tracer = tracer;
        if !matches!(budget, Budget::Seconds(s) if started.elapsed().as_secs_f64() < s) {
            return run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_order_is_a_seeded_permutation() {
        let a = round_order(1, 0, 20);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(a, round_order(1, 0, 20));
        assert_ne!(a, round_order(2, 0, 20));
        assert_ne!(a, round_order(1, 1, 20));
    }

    #[test]
    fn sequential_runner_respects_op_budget() {
        let (ops, _, rates) = run_sequential(Budget::Ops(7), 3, |i| (Outcome::Ok, i as u64));
        assert_eq!(ops.len(), 7);
        assert_eq!(rates.len(), 2);
        assert_eq!(ops[6].digest, 6);
    }

    #[test]
    fn traced_outcomes_flag_digest_mismatches() {
        let op = |index, digest| OpResult {
            index,
            latency_ns: 1,
            outcome: Outcome::Ok,
            digest,
        };
        let run = TracedRun {
            reference: vec![op(0, 10), op(1, 11)],
            passes: vec![vec![op(0, 10), op(1, 99)]],
            layers: Vec::new(),
            tracer: Tracer::new(),
        };
        let outcomes = run.outcomes();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(crate::stats::fail_ratio(&outcomes), 0.25);
    }
}
