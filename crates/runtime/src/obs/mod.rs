//! Phase-attributed observability: spans, a metrics registry, and trace exporters.
//!
//! The executors report *aggregate* costs ([`RoundReport`]) — but the paper's
//! algorithms are *analyzed* phase by phase (H-partition → arbdefective coloring →
//! legal-coloring cleanup for Barenboim–Elkin; a recursion of color-space-halving levels
//! for Ghaffari–Kuhn), and none of the measured rounds, messages, or bits could so far be
//! attributed to the phase that spent them.  This module closes that gap:
//!
//! * [`SpanCollector`] — a thread-safe hierarchical collector of [`SpanRecord`]s.  A
//!   collector is *installed* on the current thread ([`install`]); while one is installed,
//!   the span functions below record into it, and the executors feed the embedded
//!   [`MetricsRegistry`].  Without an installed collector every
//!   hook is a no-op, so uninstrumented runs pay one thread-local read per executor run.
//! * [`phase`] — opens an RAII [`PhaseGuard`]: the span closes (and records its advisory
//!   wall time) when the guard drops, and [`PhaseGuard::charge`] attributes a
//!   deterministic [`RoundReport`] delta to it.  Spans nest: a span opened while another
//!   is open becomes its child.
//! * [`record_leaf`] — records an already-closed child span with a known report.  The one
//!   attribution that is *computed* rather than measured in place is Procedure
//!   Legal-Coloring's refine loop: each iteration's H-partition share interleaves with the
//!   rest of the arbdefective work across branches and is separated out with [`residual`].
//! * [`phase_rollup`] — aggregates the direct phase children of a span by name, in
//!   first-seen order.  The span tree is the only per-phase record of a run: the drivers
//!   charge their spans with the very reports they compose the headline [`RoundReport`]
//!   from, so the rollup of a run's phases sums (via [`RoundReport::then`]) to the headline
//!   report — the invariant experiment E23 and the `obs_spans` suite assert across all
//!   three executors.  [`phase_steps`] sums the same phases' vertex steps from their exec
//!   spans' rounds.
//! * Per-round records — every executor run under a collector opens a [`SpanKind::Exec`]
//!   span and hands it one [`RoundInstant`] per round ([`SpanRecord::rounds`]), the only
//!   per-round record of a run.  Without a collector nothing is recorded or allocated.
//! * [`chrome`] — exports a collector as Chrome trace-event JSON (loadable in Perfetto:
//!   spans as nested slices, executor rounds as instant events), and [`summary_table`]
//!   renders the same tree as text together with the metrics registry.
//!
//! Wall-clock fields (`start_ns`, `wall_ns`, and the executor's [`WallBuckets`]) are
//! advisory: they vary with hardware and are never gated or diffed.  The `report` field of
//! every span is deterministic — for a fixed graph, algorithm, and seed it is bit-identical
//! across the work-stealing executor (at any thread count and chunk size) and the
//! reference executor.

pub mod chrome;
pub mod registry;

pub use chrome::chrome_trace_json;
pub use registry::{Histogram, MetricsRegistry};

use crate::metrics::RoundReport;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What produced a span: a named algorithm phase, or an executor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A driver-level algorithm phase (the spans [`phase_rollup`] aggregates).
    Phase,
    /// One executor run (recorded automatically by the executors; trace detail only).
    Exec,
}

/// One round of an executor run, recorded into its [`SpanKind::Exec`] span.
///
/// Every column but `wall_ns` is deterministic: bit-identical across the work-stealing
/// executor at any thread count and chunk size, and across the reference executor except
/// `frontier` (it steps every active vertex, so its `frontier` equals `active`).
///
/// `messages`, `total_bits` and `max_edge_bits` are delivery-side: round `r` records the
/// messages it *delivers*, sent in round `r − 1` (round 1 delivers the `init` sends).  The
/// loop ends in the round in which the last vertex halts, so that round's sends are counted
/// in the run's [`RoundReport`] but delivered in no round: the `messages` column sums to the
/// report's `messages` minus the last round's sends (likewise `total_bits`), and equals it
/// exactly only when the last round sends nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundInstant {
    /// The round number (1-based) within the run.
    pub round: usize,
    /// Vertices that had not halted at the start of the round.
    pub active: usize,
    /// Vertices actually stepped in the round (the frontier).
    pub frontier: usize,
    /// Messages delivered in the round.
    pub messages: usize,
    /// Bits across the round's deliveries.
    pub total_bits: u64,
    /// The largest bit load one edge (per direction) carried among the round's deliveries.
    pub max_edge_bits: u64,
    /// Vertices that halted in the round.
    pub halts: usize,
    /// Advisory wall-clock nanoseconds of the round.
    pub wall_ns: u64,
}

/// Advisory wall-clock split of one executor run (an [`SpanKind::Exec`] span), timed only
/// while a collector records the run.  The three buckets are disjoint parts of the span's
/// `wall_ns`; what is left over is setup (contexts, node programs, buffers) and outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallBuckets {
    /// Opening rounds: ringing the round's alarms and taking the frontier.
    pub deliver_ns: u64,
    /// The fork/join batches that step the node programs (`init` and every round): reading
    /// the mail, stepping, recording statuses and marking receivers.
    pub step_ns: u64,
    /// Committing the chunks in order (broadcast records, halts and alarms, the workers'
    /// frontier marks) and closing each round's bandwidth.
    pub commit_ns: u64,
}

/// One recorded span: a named slice of work with its deterministic cost delta.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (a phase name like `"h-partition"`, or an algorithm name for executor
    /// spans).
    pub name: String,
    /// Whether this is a driver phase or an executor run.
    pub kind: SpanKind,
    /// Index of the enclosing span in the collector, if any.
    pub parent: Option<usize>,
    /// The deterministic cost attributed to this span (rounds/messages/bits).
    pub report: RoundReport,
    /// Advisory: nanoseconds from the collector's epoch to the span opening.
    pub start_ns: u64,
    /// Advisory: wall-clock nanoseconds the span was open (0 for recorded leaves).
    pub wall_ns: u64,
    /// Advisory: the executor's split of `wall_ns` (all zero for phase spans).
    pub buckets: WallBuckets,
    /// One instant per round of an executor run (empty for phase spans).
    pub rounds: Vec<RoundInstant>,
    /// Whether the span is still open (exporters treat open spans as ending "now").
    pub(crate) open: bool,
}

/// Shared mutable state of one collector.
struct CollectorState {
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    metrics: MetricsRegistry,
}

/// A thread-safe hierarchical span collector with an embedded metrics registry.
///
/// Cheap to clone (all clones share the same state).  Install one with [`install`] to
/// start recording; read it back with [`SpanCollector::snapshot`] and the exporters.
#[derive(Clone)]
pub struct SpanCollector {
    epoch: Instant,
    state: Arc<Mutex<CollectorState>>,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector").field("spans", &self.len()).finish()
    }
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// An empty collector whose wall-clock epoch is "now".
    pub fn new() -> Self {
        SpanCollector {
            epoch: Instant::now(),
            state: Arc::new(Mutex::new(CollectorState {
                spans: Vec::new(),
                stack: Vec::new(),
                metrics: MetricsRegistry::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CollectorState> {
        self.state.lock().expect("span-collector lock")
    }

    /// Number of spans recorded so far (open or closed).  Callers that want to attribute
    /// only *their* spans take the length before running and pass it to [`phase_rollup`].
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all recorded spans, in open order (parents precede their children).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// A copy of the metrics registry the executors fed.
    pub fn metrics(&self) -> MetricsRegistry {
        self.lock().metrics.clone()
    }

    /// Advisory nanoseconds since the collector was created.
    pub fn elapsed_ns(&self) -> u64 {
        saturate_ns(self.epoch.elapsed().as_nanos())
    }
}

fn saturate_ns(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}

thread_local! {
    /// The stack of collectors installed on this thread (innermost last).
    static CURRENT: RefCell<Vec<SpanCollector>> = const { RefCell::new(Vec::new()) };
}

/// Installs `collector` as the current thread's recording target until the returned guard
/// drops (restoring whatever was installed before — installs nest).
#[must_use = "recording stops when the guard drops"]
pub fn install(collector: &SpanCollector) -> RecordingGuard {
    CURRENT.with(|c| c.borrow_mut().push(collector.clone()));
    RecordingGuard { _private: () }
}

/// The currently installed collector of this thread, if any.
pub fn current() -> Option<SpanCollector> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Restores the previously installed collector (if any) on drop.  Returned by [`install`].
#[derive(Debug)]
pub struct RecordingGuard {
    _private: (),
}

impl Drop for RecordingGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Opens a driver-phase span named `name` on the installed collector (no-op without one).
///
/// The span closes when the guard drops; attribute its deterministic cost with
/// [`PhaseGuard::charge`].
pub fn phase(name: impl Into<String>) -> PhaseGuard {
    open_span(name.into(), SpanKind::Phase)
}

/// Opens an executor-run span (the executors call this; [`SpanKind::Exec`] spans are trace
/// detail and are skipped by [`phase_rollup`]).
pub fn exec_span(name: impl Into<String>) -> PhaseGuard {
    open_span(name.into(), SpanKind::Exec)
}

fn open_span(name: String, kind: SpanKind) -> PhaseGuard {
    let Some(collector) = current() else { return PhaseGuard { target: None } };
    let start_ns = collector.elapsed_ns();
    let mut state = collector.lock();
    let parent = state.stack.last().copied();
    let index = state.spans.len();
    state.spans.push(SpanRecord {
        name,
        kind,
        parent,
        report: RoundReport::zero(),
        start_ns,
        wall_ns: 0,
        buckets: WallBuckets::default(),
        rounds: Vec::new(),
        open: true,
    });
    state.stack.push(index);
    drop(state);
    PhaseGuard { target: Some((collector, index)) }
}

/// Records an already-closed child span of the currently open span, carrying a report
/// known only after the work ran (no-op without an installed collector).  Legal-Coloring's
/// refine loop uses it for the one computed attribution of the span tree: each iteration's
/// H-partition share and its [`residual`].
pub fn record_leaf(name: impl Into<String>, report: RoundReport) {
    let Some(collector) = current() else { return };
    let start_ns = collector.elapsed_ns();
    let mut state = collector.lock();
    let parent = state.stack.last().copied();
    state.spans.push(SpanRecord {
        name: name.into(),
        kind: SpanKind::Phase,
        parent,
        report,
        start_ns,
        wall_ns: 0,
        buckets: WallBuckets::default(),
        rounds: Vec::new(),
        open: false,
    });
}

/// Feeds the executor counters and histograms of the installed collector's metrics
/// registry with one finished run (no-op without a collector).  All three executors call
/// this once per successful run.
pub fn record_run(report: &RoundReport) {
    let Some(collector) = current() else { return };
    let mut state = collector.lock();
    let metrics = &mut state.metrics;
    metrics.incr("executor.runs", 1);
    metrics.incr("executor.rounds", report.rounds as u64);
    metrics.incr("executor.messages", report.messages as u64);
    metrics.incr("executor.total_bits", report.total_bits);
    metrics.observe("executor.rounds_per_run", report.rounds as u64);
    metrics.observe("executor.messages_per_run", report.messages as u64);
}

/// Increments an arbitrary named counter on the installed collector's metrics registry
/// (no-op without a collector).  The dynamic-coloring driver and the serving layer feed
/// their `dynamic.*` / `service.*` traffic counters through here; executor and
/// palette-engine ingestion keep their dedicated [`record_run`] / [`record_palette`]
/// entry points.
pub fn incr_counter(name: &str, by: u64) {
    let Some(collector) = current() else { return };
    let mut state = collector.lock();
    state.metrics.incr(name, by);
}

/// Feeds one sample into a named power-of-two histogram of the installed collector's
/// metrics registry (no-op without a collector) — e.g. per-batch frontier sizes or repair
/// latencies from the serving layer.
pub fn observe_value(name: &str, value: u64) {
    let Some(collector) = current() else { return };
    let mut state = collector.lock();
    state.metrics.observe(name, value);
}

/// Drains the given palette-engine reuse counters into the installed collector's metrics
/// registry (no-op without a collector): global `palette.*` counters plus per-phase
/// copies tagged with the name of the innermost open span, so `--trace-out` runs
/// attribute pick-path work to the phase that performed it.
///
/// Takes the counters via [`arbcolor_graph::PaletteStats::take`], so drivers can flush the
/// same shared stats object once per phase without double counting.
pub fn record_palette(stats: &arbcolor_graph::PaletteStats) {
    let snap = stats.take();
    if snap == arbcolor_graph::PaletteStatsSnapshot::default() {
        return;
    }
    let Some(collector) = current() else { return };
    let mut state = collector.lock();
    let phase = state.stack.last().copied().map(|i| state.spans[i].name.clone());
    let metrics = &mut state.metrics;
    metrics.incr("palette.picks_served", snap.picks_served);
    metrics.incr("palette.colors_struck", snap.colors_struck);
    metrics.incr("palette.words_cleared", snap.words_cleared);
    if let Some(phase) = phase {
        metrics.incr(&format!("palette.{phase}.picks_served"), snap.picks_served);
        metrics.incr(&format!("palette.{phase}.colors_struck"), snap.colors_struck);
        metrics.incr(&format!("palette.{phase}.words_cleared"), snap.words_cleared);
    }
}

/// The exact remainder of `total` after removing the `part` attributed elsewhere:
/// rounds/messages/bits subtract (saturating), while `max_edge_bits` keeps `total`'s peak
/// so that `part.then(residual(total, part))` reproduces `total` exactly.  Legal-Coloring's
/// refine loop charges an iteration as its H-partition share plus this residual, the
/// `arbdefective` rest — the one computed attribution of the span tree.
pub fn residual(total: RoundReport, part: RoundReport) -> RoundReport {
    RoundReport {
        rounds: total.rounds.saturating_sub(part.rounds),
        messages: total.messages.saturating_sub(part.messages),
        total_bits: total.total_bits.saturating_sub(part.total_bits),
        max_edge_bits: total.max_edge_bits,
    }
}

/// Aggregates the direct [`SpanKind::Phase`] children of span `parent` by name, in
/// first-seen order, composing repeated names sequentially with [`RoundReport::then`].
///
/// The drivers charge their phase spans with the reports they compose the headline report
/// from, so the `then`-fold of the returned reports equals the headline [`RoundReport`]
/// exactly.
pub fn phase_rollup(spans: &[SpanRecord], parent: usize) -> Vec<(String, RoundReport)> {
    let mut rollup: Vec<(String, RoundReport)> = Vec::new();
    for span in spans {
        if span.parent != Some(parent) || span.kind != SpanKind::Phase {
            continue;
        }
        match rollup.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, report)) => *report = report.then(span.report),
            None => rollup.push((span.name.clone(), span.report)),
        }
    }
    rollup
}

/// The vertex steps of each phase [`phase_rollup`] returns, by name and in the same order:
/// the `frontier` of every round of every [`SpanKind::Exec`] span nested anywhere under a
/// direct phase child of span `parent`, summed.
///
/// The work-stealing executor's steps are bit-identical at any thread count and chunk size;
/// the reference executor's are its active vertices, so only compare runs of one kind.
pub fn phase_steps(spans: &[SpanRecord], parent: usize) -> Vec<(String, usize)> {
    let mut steps: Vec<(String, usize)> = Vec::new();
    // Per span, the index into `steps` of the phase it sits under.  A span's parent is
    // recorded before it, so one forward pass resolves every span.
    let mut phase_of: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for span in spans {
        let phase = match span.parent {
            Some(p) if p == parent && span.kind == SpanKind::Phase => {
                Some(steps.iter().position(|(name, _)| *name == span.name).unwrap_or_else(|| {
                    steps.push((span.name.clone(), 0));
                    steps.len() - 1
                }))
            }
            Some(p) => phase_of.get(p).copied().flatten(),
            None => None,
        };
        if let (Some(k), SpanKind::Exec) = (phase, span.kind) {
            steps[k].1 += span.rounds.iter().map(|r| r.frontier).sum::<usize>();
        }
        phase_of.push(phase);
    }
    steps
}

/// RAII handle of an open span; the span closes when the guard drops.
///
/// All methods are no-ops when the guard was created without an installed collector.
#[derive(Debug)]
pub struct PhaseGuard {
    target: Option<(SpanCollector, usize)>,
}

impl PhaseGuard {
    /// Whether this span is being recorded (a collector was installed when it opened), so
    /// advisory timers are worth running.
    pub(crate) fn is_recording(&self) -> bool {
        self.target.is_some()
    }

    /// Hands this span its executor run's wall-clock buckets and per-round instants.
    pub(crate) fn record_rounds(&self, buckets: WallBuckets, rounds: Vec<RoundInstant>) {
        if let Some((collector, index)) = &self.target {
            let mut state = collector.lock();
            let span = &mut state.spans[*index];
            span.buckets = buckets;
            span.rounds = rounds;
        }
    }

    /// Attributes a deterministic cost delta to this span (accumulating via
    /// [`RoundReport::then`] when called repeatedly).
    pub fn charge(&self, report: RoundReport) {
        if let Some((collector, index)) = &self.target {
            let mut state = collector.lock();
            let span = &mut state.spans[*index];
            span.report = span.report.then(report);
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((collector, index)) = self.target.take() {
            let end_ns = collector.elapsed_ns();
            let mut state = collector.lock();
            let start_ns = state.spans[index].start_ns;
            state.spans[index].wall_ns = end_ns.saturating_sub(start_ns);
            state.spans[index].open = false;
            // Well-nested by RAII; `retain` keeps this robust if a guard outlives an
            // inner one across an unwind.
            state.stack.retain(|&i| i != index);
        }
    }
}

/// Renders the span tree and the metrics registry as an indented text table — the
/// human-readable companion of the Chrome export.
pub fn summary_table(collector: &SpanCollector) -> String {
    use std::fmt::Write as _;
    let spans = collector.snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>8} {:>12} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "span", "rounds", "messages", "total_bits", "wall_ms", "deliver_ms", "step_ms", "commit_ms"
    );
    let mut depths: Vec<usize> = Vec::with_capacity(spans.len());
    for span in &spans {
        let depth = span.parent.map(|p| depths[p] + 1).unwrap_or(0);
        depths.push(depth);
        let label = format!("{}{}", "  ".repeat(depth), span.name);
        let _ = write!(
            out,
            "{:<40} {:>8} {:>12} {:>14} {:>10.3}",
            label,
            span.report.rounds,
            span.report.messages,
            span.report.total_bits,
            span.wall_ns as f64 / 1e6,
        );
        // Only executor runs split their wall time into buckets.
        if span.kind == SpanKind::Exec {
            let b = span.buckets;
            let _ = write!(
                out,
                " {:>10.3} {:>10.3} {:>10.3}",
                b.deliver_ns as f64 / 1e6,
                b.step_ns as f64 / 1e6,
                b.commit_ns as f64 / 1e6,
            );
        }
        out.push('\n');
    }
    let metrics = collector.metrics();
    if !metrics.is_empty() {
        let _ = writeln!(out, "\nmetrics:");
        out.push_str(&metrics.render());
    }
    out
}

/// Runs `f` under a scratch collector and returns its result with the rounds of the first
/// executor run it made.
#[cfg(test)]
pub(crate) fn recorded<R>(f: impl FnOnce() -> R) -> (R, Vec<RoundInstant>) {
    let collector = SpanCollector::new();
    let guard = install(&collector);
    let result = f();
    drop(guard);
    let spans = collector.snapshot();
    let exec = spans.into_iter().find(|s| s.kind == SpanKind::Exec).expect("an executor run");
    (result, exec.rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_charge_and_restore_on_drop() {
        let collector = SpanCollector::new();
        let guard = install(&collector);
        {
            let outer = phase("outer");
            outer.charge(RoundReport::new(2, 10));
            {
                let inner = phase("inner");
                inner.charge(RoundReport::new(1, 3));
            }
            record_leaf("leaf", RoundReport::new(4, 4));
        }
        drop(guard);
        // Recording is off again: this span must not land in the collector.
        let _ = phase("after");
        let spans = collector.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].report, RoundReport::new(2, 10));
        assert!(!spans[0].open);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].name, "leaf");
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].wall_ns, 0);
    }

    #[test]
    fn installs_nest_and_restore_the_previous_collector() {
        let a = SpanCollector::new();
        let b = SpanCollector::new();
        let ga = install(&a);
        {
            let gb = install(&b);
            let _ = phase("in-b");
            drop(gb);
        }
        let _ = phase("in-a");
        drop(ga);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(a.snapshot()[0].name, "in-a");
        assert_eq!(b.snapshot()[0].name, "in-b");
    }

    #[test]
    fn no_collector_means_no_ops() {
        assert!(current().is_none());
        let guard = phase("nowhere");
        guard.charge(RoundReport::new(1, 1));
        record_leaf("nowhere-leaf", RoundReport::zero());
        record_run(&RoundReport::new(3, 3));
    }

    #[test]
    fn residual_is_exact_under_then() {
        let total = RoundReport { rounds: 10, messages: 100, total_bits: 400, max_edge_bits: 9 };
        let part = RoundReport { rounds: 3, messages: 40, total_bits: 150, max_edge_bits: 4 };
        let rest = residual(total, part);
        assert_eq!(part.then(rest), total);
        // Saturation never underflows.
        assert_eq!(residual(part, total).rounds, 0);
    }

    #[test]
    fn rollup_aggregates_phase_children_by_name_and_skips_exec_spans() {
        let collector = SpanCollector::new();
        let _guard = install(&collector);
        let run = phase("run");
        run.charge(RoundReport::new(9, 9));
        record_leaf("a", RoundReport::new(2, 20));
        {
            let e = exec_span("flood");
            e.charge(RoundReport::new(100, 100));
        }
        record_leaf("b", RoundReport::new(3, 30));
        record_leaf("a", RoundReport::new(1, 10));
        {
            // Grandchildren are not part of the run's direct rollup.
            let child = phase("b");
            record_leaf("deep", RoundReport::new(7, 7));
            child.charge(RoundReport::new(4, 40));
        }
        drop(run);
        let spans = collector.snapshot();
        let rollup = phase_rollup(&spans, 0);
        assert_eq!(
            rollup,
            vec![
                ("a".to_string(), RoundReport::new(3, 30)),
                ("b".to_string(), RoundReport::new(7, 70)),
            ]
        );
    }

    #[test]
    fn phase_steps_sum_the_frontier_of_every_exec_span_under_a_phase() {
        let collector = SpanCollector::new();
        let _guard = install(&collector);
        let steps = |frontiers: &[usize]| -> Vec<RoundInstant> {
            frontiers
                .iter()
                .map(|&frontier| RoundInstant { frontier, ..Default::default() })
                .collect()
        };
        let run = phase("run");
        {
            let a = phase("a");
            exec_span("x").record_rounds(WallBuckets::default(), steps(&[3, 1]));
            {
                // Exec spans nested deeper still count for the direct child.
                let _deep = phase("deep");
                exec_span("y").record_rounds(WallBuckets::default(), steps(&[5]));
            }
            drop(a);
        }
        // An exec span directly under the run belongs to no phase.
        exec_span("loose").record_rounds(WallBuckets::default(), steps(&[100]));
        record_leaf("b", RoundReport::new(1, 1));
        {
            let _a = phase("a");
            exec_span("z").record_rounds(WallBuckets::default(), steps(&[2, 2]));
        }
        drop(run);
        let spans = collector.snapshot();
        assert_eq!(phase_steps(&spans, 0), vec![("a".to_string(), 13), ("b".to_string(), 0)]);
        let names: Vec<String> =
            phase_rollup(&spans, 0).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b"], "the same phases in the same order as the rollup");
    }

    #[test]
    fn summary_table_lists_spans_with_indentation() {
        let collector = SpanCollector::new();
        let _guard = install(&collector);
        {
            let outer = phase("outer");
            outer.charge(RoundReport::new(1, 2));
            record_leaf("child", RoundReport::new(3, 4));
        }
        {
            let exec = exec_span("run");
            let buckets = WallBuckets { deliver_ns: 1_000_000, step_ns: 2_500_000, commit_ns: 0 };
            exec.record_rounds(buckets, Vec::new());
        }
        record_run(&RoundReport::new(1, 2));
        let table = summary_table(&collector);
        assert!(table.contains("outer"));
        assert!(table.contains("deliver_ms") && table.contains("commit_ms"));
        let run = table.lines().find(|l| l.starts_with("run")).unwrap();
        assert!(run.ends_with("1.000      2.500      0.000"), "exec rows show buckets:\n{table}");
        assert!(table.contains("  child"), "children indent under parents:\n{table}");
        assert!(table.contains("executor.runs"));
    }
}
