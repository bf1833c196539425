//! Per-layer metrics of a traced run, drawn from its spans and from the
//! simulated counters of the traced pass. Spans of pass 1 ran under
//! `ParPolicy::Auto`, spans of pass 2 under `ParPolicy::Sequential`.
//!
//! Every workload reports the same metric names; a layer the workload
//! does not call reads 0.

use crate::drive::Pass;
use crate::fleet::{tenant_backend, FleetPass};
use crate::report::{Machine, Metrics};
use crate::trace::{self_times, Op, Tail, Tracer};
use noc_exp::fleet::TenantSpec;
use noc_mesh::controller::ControllerStats;
use noc_sim::stats::LatencyHistogram;

const AUTO: u8 = 1;
const SEQUENTIAL: u8 = 2;

/// Simulated counters of one backend in the traced pass.
#[derive(Default)]
pub struct BackendCounts {
    pub admitted: u64,
    pub refused_capacity: u64,
    pub refused_unsupported: u64,
    pub delivered: u64,
    pub energy_fj: f64,
}

/// Simulated counters of the traced pass, and the overhead comparison.
#[derive(Default)]
pub struct Counts {
    /// Index for index with the backend labels.
    pub backends: Vec<BackendCounts>,
    pub reconfig_cycles: Vec<f64>,
    pub noi_wait_cycles: u64,
    pub cross_streams: usize,
    pub stranded_words: u64,
    /// Words delivered ahead of an earlier word of their stream.
    pub reordered_words: u64,
    pub controller: ControllerStats,
    pub untraced_words_per_s: f64,
    pub traced_words_per_s: f64,
}

impl Counts {
    /// The counters of a `stream` or `churn` pass.
    pub fn of_passes(passes: &[Pass]) -> Counts {
        let chiplet = passes.iter().find(|p| p.noi.is_some());
        let (noi_wait_cycles, cross_streams) = chiplet.and_then(|p| p.noi).unwrap_or((0, 0));
        Counts {
            backends: passes
                .iter()
                .map(|p| BackendCounts {
                    admitted: p.admitted,
                    refused_capacity: p.refused_capacity,
                    refused_unsupported: p.refused_unsupported,
                    delivered: p.delivered,
                    energy_fj: p.energy_fj,
                })
                .collect(),
            reconfig_cycles: passes
                .iter()
                .flat_map(|p| p.reconfig.iter().map(|&c| c as f64))
                .collect(),
            noi_wait_cycles,
            cross_streams,
            stranded_words: chiplet.map_or(0, Pass::undelivered),
            reordered_words: passes.iter().map(|p| p.reordered).sum(),
            ..Counts::default()
        }
    }
}

impl Counts {
    /// The counters of a `fleet` pass, per backend label of its tenants.
    pub fn of_fleet(specs: &[TenantSpec], pass: &FleetPass, labels: &[&str]) -> Counts {
        let backends = labels
            .iter()
            .map(|label| {
                let mut c = BackendCounts::default();
                for (spec, &(words, energy)) in specs.iter().zip(&pass.tenants) {
                    if tenant_backend(spec) == *label {
                        c.delivered += words;
                        c.energy_fj += energy;
                    }
                }
                c
            })
            .collect();
        Counts {
            backends,
            stranded_words: specs
                .iter()
                .zip(&pass.report.tenants)
                .filter(|(spec, _)| spec.chiplets.is_some())
                .map(|(_, t)| t.in_flight)
                .sum(),
            controller: pass.report.controller,
            ..Counts::default()
        }
    }
}

/// Span durations of `op` in `pass`, optionally of one backend, in ns.
fn durations(tr: &Tracer, op: Op, pass: u8, backend: Option<u8>) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.op == op && s.pass == pass && backend.is_none_or(|b| s.backend == b))
        .map(|s| s.nanos() as f64)
        .collect()
}

/// Summed self time of `op` spans in `pass` of `backend`, in ns.
fn self_total(tr: &Tracer, selfs: &[u64], op: Op, pass: u8, backend: u8) -> f64 {
    tr.spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.op == op && s.pass == pass && s.backend == backend)
        .map(|(_, &ns)| ns as f64)
        .sum()
}

/// Print one per-call timing — p50, the highest percentile with ten
/// samples beyond it, the sample count — and report it: the median under
/// `p50`, the tail under `tail.0` capped at percentile `tail.1`, and the
/// count under `n`. `scale` converts ns to `unit`.
fn per_call(
    m: &mut Metrics,
    samples: &[f64],
    unit: &'static str,
    scale: f64,
    p50: &str,
    tail: Option<(&str, f64)>,
    n: Option<&str>,
) {
    let t = Tail::of(samples);
    match &t {
        Some(t) => {
            let top = t.tail().map_or("(under 20 samples)".to_string(), |(p, v)| {
                format!("p{p}={:.3}", v / scale)
            });
            println!(
                "  {p50:<36} p50={:.3} {top} n={} [{unit}]",
                t.p50 / scale,
                t.n
            );
        }
        None => println!("  {p50:<36} not called"),
    }
    m.put(p50, t.as_ref().map_or(0.0, |t| t.p50 / scale), unit);
    if let Some((name, want)) = tail {
        m.put(
            name,
            t.as_ref().map_or(0.0, |t| t.at_most(want).1 / scale),
            unit,
        );
    }
    if let Some(name) = n {
        m.put(name, t.as_ref().map_or(0, |t| t.n) as f64, "count");
    }
}

/// Every circuit-plane and every other stream's latency, merged.
pub fn merged(passes: &[Pass]) -> (LatencyHistogram, LatencyHistogram) {
    let mut gt = LatencyHistogram::new();
    let mut be = LatencyHistogram::new();
    for p in passes {
        gt.merge(&p.gt);
        be.merge(&p.be);
    }
    (gt, be)
}

/// The per-layer metrics of a traced run.
pub fn metrics(tr: &Tracer, labels: &[&str], counts: &Counts, machine: &Machine) -> Metrics {
    let selfs = self_times(tr.spans());
    let mut m = Metrics::default();
    let all = |op| durations(tr, op, AUTO, None);
    println!("per-call timings (traced pass):");
    per_call(
        &mut m,
        &all(Op::CcnMap),
        "ms",
        1e6,
        "ccn.map_ms",
        None,
        None,
    );
    for (bi, label) in labels.iter().enumerate() {
        let build = durations(tr, Op::Build, AUTO, Some(bi as u8));
        let name = format!("deployment.build_ms.{label}");
        per_call(&mut m, &build, "ms", 1e6, &name, None, None);
    }
    for (bi, label) in labels.iter().enumerate() {
        let steps = durations(tr, Op::Step, AUTO, Some(bi as u8));
        let p99 = format!("step_us.p99.{label}");
        let n = format!("step_us.n.{label}");
        let p50 = format!("step_us.p50.{label}");
        per_call(
            &mut m,
            &steps,
            "us",
            1e3,
            &p50,
            Some((&p99, 99.0)),
            Some(&n),
        );
    }
    let inject = all(Op::Inject);
    let inject_n = Some("session.inject_ns.n");
    per_call(
        &mut m,
        &inject,
        "ns",
        1.0,
        "session.inject_ns.p50",
        None,
        inject_n,
    );
    let drain = all(Op::DrainStream);
    let drain_n = Some("session.drain_ns.n");
    per_call(
        &mut m,
        &drain,
        "ns",
        1.0,
        "session.drain_ns.p50",
        None,
        drain_n,
    );
    per_call(
        &mut m,
        &all(Op::Stats),
        "ms",
        1e6,
        "session.stats_ms",
        None,
        None,
    );
    for (bi, label) in labels.iter().enumerate() {
        let admits = durations(tr, Op::Admit, AUTO, Some(bi as u8));
        let p99 = format!("lifecycle.admit_us.p99.{label}");
        let n = format!("lifecycle.admit_us.n.{label}");
        let p50 = format!("lifecycle.admit_us.p50.{label}");
        per_call(
            &mut m,
            &admits,
            "us",
            1e3,
            &p50,
            Some((&p99, 99.0)),
            Some(&n),
        );
    }
    let release = all(Op::Release);
    per_call(
        &mut m,
        &release,
        "us",
        1e3,
        "lifecycle.release_us.p50",
        None,
        None,
    );
    per_call(
        &mut m,
        &all(Op::Energy),
        "ms",
        1e6,
        "power.price_ms",
        None,
        None,
    );
    let admit = all(Op::FleetAdmit);
    let tail = Some(("fleet.admit_us.p99", 99.0));
    per_call(
        &mut m,
        &admit,
        "us",
        1e3,
        "fleet.admit_us.p50",
        tail,
        Some("fleet.admit_us.n"),
    );
    let batch = all(Op::FleetBatch);
    let tail = Some(("fleet.batch_ms.p90", 90.0));
    per_call(
        &mut m,
        &batch,
        "ms",
        1e6,
        "fleet.batch_ms.p50",
        tail,
        Some("fleet.batch_ms.n"),
    );
    let snapshot = all(Op::FleetSnapshot);
    per_call(
        &mut m,
        &snapshot,
        "ms",
        1e6,
        "fleet.snapshot_ms",
        None,
        None,
    );
    let restore = all(Op::FleetRestore);
    per_call(&mut m, &restore, "ms", 1e6, "fleet.restore_ms", None, None);

    println!("per-backend layers (traced pass):");
    let none = BackendCounts::default();
    for (bi, label) in labels.iter().enumerate() {
        let b = bi as u8;
        let c = counts.backends.get(bi).unwrap_or(&none);
        let step = |pass| self_total(tr, &selfs, Op::Step, pass, b);
        let (auto, seq) = (step(AUTO), step(SEQUENTIAL));
        let phases: f64 = [Op::Run, Op::Drain]
            .into_iter()
            .flat_map(|op| durations(tr, op, AUTO, Some(b)))
            .sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let pj = ratio(c.energy_fj / 1e3, c.delivered as f64);
        println!(
            "  {label:<11} step_share={:.3} seq_over_auto={:.3} pj_per_word={pj:.3} \
             admitted={} refused_capacity={} refused_unsupported={}",
            ratio(auto, phases),
            ratio(seq, auto),
            c.admitted,
            c.refused_capacity,
            c.refused_unsupported,
        );
        m.put(format!("step_share.{label}"), ratio(auto, phases), "ratio");
        m.put(
            format!("par.seq_over_auto.{label}"),
            ratio(seq, auto),
            "ratio",
        );
        m.put(format!("power.pj_per_word.{label}"), pj, "pJ/word");
        m.put(
            format!("lifecycle.admitted.{label}"),
            c.admitted as f64,
            "count",
        );
        let capacity = c.refused_capacity as f64;
        m.put(
            format!("lifecycle.refused_capacity.{label}"),
            capacity,
            "count",
        );
        let unsupported = c.refused_unsupported as f64;
        m.put(
            format!("lifecycle.refused_unsupported.{label}"),
            unsupported,
            "count",
        );
    }
    let reconfig = Tail::of(&counts.reconfig_cycles).map_or(0.0, |t| t.p50);
    m.put("lifecycle.reconfig_cycles.p50", reconfig, "cycles");
    println!(
        "chiplet NoI: wait_cycles={} cross_streams={} stranded_words={}",
        counts.noi_wait_cycles, counts.cross_streams, counts.stranded_words
    );
    m.put(
        "chiplet.noi_wait_cycles",
        counts.noi_wait_cycles as f64,
        "cycles",
    );
    m.put(
        "chiplet.cross_streams",
        counts.cross_streams as f64,
        "count",
    );
    m.put(
        "chiplet.stranded_words",
        counts.stranded_words as f64,
        "count",
    );
    m.put(
        "session.reordered_words",
        counts.reordered_words as f64,
        "count",
    );

    let c = counts.controller;
    println!(
        "controller: ticks={} promotions={} demotions={} readmissions={} pointless_evictions={}",
        c.ticks, c.promotions, c.demotions, c.readmissions, c.pointless_evictions
    );
    m.put("controller.ticks", c.ticks as f64, "count");
    m.put("controller.promotions", c.promotions as f64, "count");
    m.put("controller.demotions", c.demotions as f64, "count");
    m.put("controller.readmissions", c.readmissions as f64, "count");
    m.put(
        "controller.pointless_evictions",
        c.pointless_evictions as f64,
        "count",
    );

    m.put("par.auto_lanes", machine.auto_lanes as f64, "lanes");
    m.put("machine.nproc", machine.nproc as f64, "count");
    m.put(
        "machine.available_parallelism",
        machine.available as f64,
        "count",
    );
    m.put("machine.pool_workers", machine.pool_workers as f64, "count");

    let (untraced, traced) = (counts.untraced_words_per_s, counts.traced_words_per_s);
    println!(
        "tracing overhead: untraced {untraced:.0} words/s, traced {traced:.0} words/s ({:.3}x)",
        untraced / traced
    );
    m.put("trace.untraced_words_per_s", untraced, "words/s");
    m.put("trace.traced_words_per_s", traced, "words/s");
    m.put("trace.overhead", untraced / traced, "ratio");
    m
}

/// Write the spans to `perfbench/traces/<workload>-seed<seed>.tsv`.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64, labels: &[&str]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_tsv(workload, labels)));
    match written {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("spans: {} not written ({e})", tr.spans().len()),
    }
}
