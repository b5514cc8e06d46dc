//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, and the per-layer totals derived from them.
//!
//! Nothing inside the program is instrumented: a span covers one call the
//! benchmark makes (a parse, a cache resolve, an engine run), and an `op`
//! root span covers one whole benchmark operation. A layer's busy time is
//! the sum of its spans' self time — duration minus the part of the
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Name of the root span of every operation.
pub const OP: &str = "op";

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: u32,
    /// The enclosing span's id, or [`NO_PARENT`].
    pub parent: u32,
    /// The benchmark operation this span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `core.verify`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and work counters in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span. An `op` span
    /// also sets the operation id later spans are tagged with.
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if name == OP {
            self.op = op;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name` of the current operation.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, self.op);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `n` to the work counter `name` (events verified, flits sent…).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The work counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Writes every span as one tab-separated line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Calls and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of their self time.
    pub self_ns: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// Per-name totals of a trace.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.total_ns += s.duration_ns();
    }
    out
}

/// Share of operation time that no span inside the operation covers.
pub fn unattributed_share(totals: &BTreeMap<&'static str, LayerTotal>) -> f64 {
    match totals.get(OP) {
        Some(op) if op.total_ns > 0 => op.self_ns as f64 / op.total_ns as f64,
        _ => 0.0,
    }
}

/// Measured cost of recording one span, in nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new();
    let root = t.begin(OP, 0);
    let started = Instant::now();
    for _ in 0..N {
        t.leaf("calibrate", || ());
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    t.end(root);
    elapsed / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: if parent == NO_PARENT { OP } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            // overlapping children cover [10, 60) once: 50 ns
            span(1, 0, 10, 40),
            span(2, 0, 30, 60),
            // a child running past its parent counts only inside it: 20 ns
            span(3, 0, 80, 120),
            // a grandchild is covered by its own parent, not the root
            span(4, 1, 15, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 20);
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 40);
        assert_eq!(st[4], 10);
    }

    #[test]
    fn nested_children_count_once() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 20, 80),
            span(2, 0, 30, 50),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn totals_and_unattributed_share() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 0, 75),
            span(2, NO_PARENT, 200, 300),
            span(3, 2, 200, 275),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["child"],
            LayerTotal {
                calls: 2,
                self_ns: 150,
                total_ns: 150
            }
        );
        assert_eq!(unattributed_share(&totals), 0.25);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut t = Tracer::new();
        let root = t.begin(OP, 7);
        let inner = t.leaf("a", || 3);
        t.count("a.events", inner);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op), (root, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.counters()["a.events"], 3);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }
}
