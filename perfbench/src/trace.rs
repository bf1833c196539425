//! In-memory span tracing, and the statistics the report draws from it.
//!
//! A [`Tracer`] records one [`Span`] per benchmark phase and per public
//! call the benchmark makes into a layer of the simulator. Spans nest by
//! a stack: the span open when another begins is its parent. Nothing is
//! written until the run ends. A switched-off tracer records nothing, so
//! the end-to-end runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers: a phase of the benchmark, or one public call into
/// the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Phase: CCN mapping, fabric construction and provisioning.
    Setup,
    /// Phase: offered load.
    Run,
    /// Phase: stepping until every accepted word is delivered or stuck.
    Drain,
    /// Phase: telemetry and energy read-out.
    Report,
    /// `Ccn::map_with_spill`.
    CcnMap,
    /// Fabric construction, as `DeploymentBuilder::build` performs it.
    Build,
    /// `Fabric::provision_with`.
    Provision,
    /// `Fabric::inject_stream`.
    Inject,
    /// `Fabric::step`.
    Step,
    /// `Fabric::drain_stream`.
    DrainStream,
    /// `Fabric::admit`.
    Admit,
    /// `Fabric::release`.
    Release,
    /// `Fabric::stream_stats`.
    Stats,
    /// `Fabric::total_energy`.
    Energy,
    /// `Fleet::admit`.
    FleetAdmit,
    /// `Fleet::step_batch`.
    FleetBatch,
    /// `Fleet::snapshot`.
    FleetSnapshot,
    /// `Fleet::restore`.
    FleetRestore,
    /// `Fleet::retire_all`.
    FleetRetire,
    /// `Fleet::slo_report`.
    FleetSlo,
}

impl Op {
    /// Stable name, as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Setup => "phase.setup",
            Op::Run => "phase.run",
            Op::Drain => "phase.drain",
            Op::Report => "phase.report",
            Op::CcnMap => "ccn.map_with_spill",
            Op::Build => "deployment.build",
            Op::Provision => "fabric.provision_with",
            Op::Inject => "fabric.inject_stream",
            Op::Step => "fabric.step",
            Op::DrainStream => "fabric.drain_stream",
            Op::Admit => "fabric.admit",
            Op::Release => "fabric.release",
            Op::Stats => "fabric.stream_stats",
            Op::Energy => "fabric.total_energy",
            Op::FleetAdmit => "fleet.admit",
            Op::FleetBatch => "fleet.step_batch",
            Op::FleetSnapshot => "fleet.snapshot",
            Op::FleetRestore => "fleet.restore",
            Op::FleetRetire => "fleet.retire_all",
            Op::FleetSlo => "fleet.slo_report",
        }
    }
}

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub op: Op,
    /// Index into the run's backend list, or [`NO_BACKEND`].
    pub backend: u8,
    /// Which pass of the run recorded it (see [`Tracer::set_pass`]).
    pub pass: u8,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// `Span::backend` of a span that belongs to no single backend.
pub const NO_BACKEND: u8 = u8::MAX;

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// The per-word spans of one `(op, backend, pass, parent)`: calls, summed
/// duration, first start and last end.
type Group = (u64, u64, u64, u64);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    backend: u8,
    pass: u8,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            backend: NO_BACKEND,
            pass: 0,
        }
    }

    /// Switch recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switch tracing between spans only");
        self.on = on;
    }

    /// Tag the spans that follow with backend `b`.
    pub fn set_backend(&mut self, b: u8) {
        self.backend = b;
    }

    /// Tag the spans that follow with pass `p`.
    pub fn set_pass(&mut self, p: u8) {
        self.pass = p;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, op: Op) -> Open {
        if !self.on {
            return None;
        }
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            op,
            backend: self.backend,
            pass: self.pass,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start,
            end: start,
        });
        self.open.push(index);
        Some(index)
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open else { return };
        let end = self.now();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index as usize].end = end;
    }

    /// Run `f` inside a span of `op`.
    #[inline]
    pub fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let open = self.begin(op);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as tab-separated text with a header. Per-word calls
    /// (`inject_stream`, `drain_stream`) run hundreds of thousands of
    /// times a pass, so they are written as one row per parent span, with
    /// the number of calls and their summed duration; every other span is
    /// a row of its own.
    pub fn to_tsv(&self, workload: &str, backends: &[&str]) -> String {
        let mut out = String::from(
            "index\tname\tworkload\tbackend\tpass\tparent\tstart_ns\tend_ns\tcalls\tbusy_ns\n",
        );
        let label = |b: u8| backends.get(b as usize).copied().unwrap_or("-");
        let parent = |p: u32| {
            if p == NO_PARENT {
                "-".to_string()
            } else {
                p.to_string()
            }
        };
        let mut grouped: BTreeMap<(Op, u8, u8, u32), Group> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if matches!(s.op, Op::Inject | Op::DrainStream) {
                let g = grouped
                    .entry((s.op, s.backend, s.pass, s.parent))
                    .or_insert((0, 0, s.start, s.end));
                g.0 += 1;
                g.1 += s.nanos();
                g.3 = g.3.max(s.end);
                continue;
            }
            let _ = writeln!(
                out,
                "{i}\t{}\t{workload}\t{}\t{}\t{}\t{}\t{}\t1\t{}",
                s.op.name(),
                label(s.backend),
                s.pass,
                parent(s.parent),
                s.start,
                s.end,
                s.nanos()
            );
        }
        for ((op, backend, pass, p), (calls, busy, start, end)) in grouped {
            let _ = writeln!(
                out,
                "-\t{}\t{workload}\t{}\t{pass}\t{}\t{start}\t{end}\t{calls}\t{busy}",
                op.name(),
                label(backend),
                parent(p)
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the durations of its
/// children. Children of one span never overlap, because spans nest by a
/// stack, so the sum of their durations is the part of the interval they
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

/// Percentiles this report steps down through, highest first.
pub const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A per-call timing summary: the median and the highest percentile of
/// [`LADDER`] that leaves at least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// Every supported `(percentile, value)` of [`LADDER`], highest
    /// first; empty below 20 samples.
    pub levels: Vec<(f64, f64)>,
}

impl Tail {
    /// Summarise `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let levels = LADDER
            .iter()
            .filter(|&&pct| n - rank(n, pct) >= MIN_BEYOND)
            .map(|&pct| (pct, percentile(&sorted, pct)))
            .collect();
        Some(Tail {
            n,
            p50: percentile(&sorted, 50.0),
            levels,
        })
    }

    /// The highest supported percentile and its value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        self.levels.first().copied()
    }

    /// The value at percentile `want`, or at the highest supported
    /// percentile below it when the samples cannot support `want`; the
    /// median when no tail is supported. Returns `(percentile, value)`.
    pub fn at_most(&self, want: f64) -> (f64, f64) {
        self.levels
            .iter()
            .copied()
            .find(|&(pct, _)| pct <= want)
            .unwrap_or((50.0, self.p50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, parent: u32, start: u64, end: u64) -> Span {
        Span {
            op,
            backend: 0,
            pass: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) holds step [10,40) and drain_stream [50,60);
        // step holds a nested span [15,25).
        let spans = [
            span(Op::Run, NO_PARENT, 0, 100),
            span(Op::Step, 0, 10, 40),
            span(Op::Inject, 1, 15, 25),
            span(Op::DrainStream, 0, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = [span(Op::Step, NO_PARENT, 7, 19)];
        assert_eq!(self_times(&spans), vec![12]);
    }

    #[test]
    fn tracer_nests_by_stack_and_records_nothing_when_off() {
        let mut tr = Tracer::new(true);
        let run = tr.begin(Op::Run);
        tr.call(Op::Step, || ());
        tr.call(Op::Step, || ());
        tr.end(run);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans[1..].iter().all(|s| s.parent == 0));
        assert!(spans.iter().all(|s| s.end >= s.start));

        let mut off = Tracer::new(false);
        off.call(Op::Step, || ());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&samples).expect("non-empty");
        assert_eq!(t.n, 1000);
        assert_eq!(t.p50, 500.0);
        // p99.9 leaves one sample beyond; p99 leaves exactly ten.
        assert_eq!(t.tail(), Some((99.0, 990.0)));

        let t = Tail::of(&samples[..999]).expect("non-empty");
        assert_eq!(t.tail().map(|(p, _)| p), Some(90.0), "p99 leaves 9 beyond");

        let t = Tail::of(&samples[..20]).expect("non-empty");
        assert_eq!(t.tail(), Some((50.0, 10.0)));
        assert_eq!(Tail::of(&samples[..19]).expect("non-empty").tail(), None);
        assert_eq!(Tail::of(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = Tail::of(&samples);
        samples.reverse();
        assert_eq!(a, Tail::of(&samples));
        assert_eq!(a.expect("non-empty").tail(), Some((90.0, 179.0)));
    }

    #[test]
    fn at_most_caps_at_the_named_percentile() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&samples).expect("non-empty");
        assert_eq!(t.at_most(99.0), (99.0, 990.0));
        // A p90 request on samples that support p99 reads p90 exactly.
        assert_eq!(t.at_most(90.0), (90.0, 900.0));
        let small = Tail::of(&samples[..100]).expect("non-empty");
        assert_eq!(small.at_most(99.0), (90.0, 90.0));
        let tiny = Tail::of(&samples[..5]).expect("non-empty");
        assert_eq!(tiny.at_most(99.0), (50.0, 3.0));
    }
}
