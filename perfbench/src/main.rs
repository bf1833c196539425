//! The simulator's benchmark: one command that runs a named workload from
//! a seed, checks the simulation's outputs, and prints every metric by
//! name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream|churn|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The workloads, each a batch job in
//! host time with open-loop offered load at every stream's demand in
//! simulated time, all under the library defaults (`ParPolicy::Auto`, the
//! global `WorkerPool`):
//!
//! * `stream` — a seeded task graph streaming on a 16×16 mesh, once per
//!   backend (the four `FabricKind::ALL` meshes and a 2×2 chiplet grid of
//!   hybrid planes). Router stepping dominates; the CCN only works in
//!   set-up; there is no lifecycle work.
//! * `churn` — a seeded schedule admitting, feeding and draining streams
//!   on an initially empty 16×16 mesh, per backend: CCN admission against
//!   live circuits, BE configuration delivery and teardown.
//! * `fleet` — 640 small seeded tenants through `Fleet` and
//!   `Deployment::run`, with a mid-run snapshot, controller decisions and
//!   full retirement: per-tenant overhead rather than per-router work.
//!
//! `--trace 0` repeats the workload untraced for `--seconds` and prints
//! the end-to-end metrics as medians over the repetitions. `--trace 1`
//! runs it three times: untraced, traced under `ParPolicy::Auto`, and
//! traced under `ParPolicy::Sequential`; it prints the per-layer metrics
//! from the traced spans, the tracing overhead, and writes the spans to
//! `perfbench/traces/`. A per-call tail metric named `p99` or `p90`
//! reports that percentile when at least ten samples lie beyond it, and
//! otherwise the highest percentile that has ten beyond it (the printed
//! line names which).
//!
//! Either way the last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. An operation
//! is an offered word or an admission request (a tenant, in `fleet`); it
//! failed when the admission was refused, the word was not accepted, was
//! still undelivered after the drain, or was delivered ahead of an
//! earlier word of its stream. A wrong result — a delivered word its
//! stream never carried, telemetry that disagrees with the words moved,
//! a refused release, a repeat or restored replay that simulates
//! differently — exits with code 1.

mod churn;
mod drive;
mod fleet;
mod gen;
mod layers;
mod report;
mod stream;
mod trace;

use drive::{backend_labels, backends, Ledger, Net, Pass};
use noc_sim::par::ParPolicy;
use report::{median, peak_rss_mib, Machine, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up is timed in a window of repeated rounds before every measured
/// pass, each window at least [`SETUP_WINDOW_ROUNDS`] rounds and
/// [`SETUP_WINDOW_SECONDS`] host seconds; `setup_s` is the median round
/// of the whole run. Set-up takes milliseconds and the machine's speed
/// drifts over seconds, so the rounds are spread over the run as the
/// passes are, rather than taken in one burst.
const SETUP_WINDOW_SECONDS: f64 = 0.3;
const SETUP_WINDOW_ROUNDS: usize = 2;

/// Append the host seconds of one window of repeated `round` calls to
/// `samples`. What a round built is dropped after its timer stops, so
/// tearing it down is not set-up.
fn setup_window<T>(samples: &mut Vec<f64>, mut round: impl FnMut() -> T) {
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < SETUP_WINDOW_ROUNDS || started.elapsed().as_secs_f64() < SETUP_WINDOW_SECONDS {
        let t = Instant::now();
        let built = round();
        samples.push(t.elapsed().as_secs_f64());
        drop(built);
        rounds += 1;
    }
}

/// The median set-up round, after printing the rounds' range.
fn setup_median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = median(&sorted);
    println!(
        "set-up: {} rounds, min {:.2} ms, median {:.2} ms, max {:.2} ms",
        sorted.len(),
        sorted[0] * 1e3,
        m * 1e3,
        sorted[sorted.len() - 1] * 1e3
    );
    m
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Stream,
    Churn,
    Fleet,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Churn => "churn",
            Workload::Fleet => "fleet",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "stream" => Workload::Stream,
        "churn" => Workload::Churn,
        "fleet" => Workload::Fleet,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be 1..=3600".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Everything one run found.
struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload stream|churn|fleet --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a current directory");
    let machine = Machine::probe(&root);
    println!("{}", machine.line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let out = match args.workload {
        Workload::Fleet => run_fleet(&args, &machine),
        _ => run_fabric(&args, &machine),
    };
    println!("metrics:");
    out.metrics.print();
    println!(
        "operations: attempted={} failed={} correct={}",
        out.attempted, out.failed, out.correct
    );
    println!(
        "{}",
        out.metrics
            .result_json(out.correct, out.attempted, out.failed)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass of `stream` or `churn` over every backend.
fn fabric_pass(
    workload: Workload,
    inputs: &FabricInputs,
    policy: ParPolicy,
    tr: &mut Tracer,
) -> Vec<Pass> {
    let all = backends();
    match workload {
        Workload::Stream => stream::pass(&inputs.graph, inputs.seed, &all, policy, tr),
        _ => churn::pass(&inputs.schedule, inputs.seed, &all, policy, tr),
    }
}

struct FabricInputs {
    seed: u64,
    graph: noc_apps::taskgraph::TaskGraph,
    schedule: Vec<gen::Arrival>,
}

/// Set every backend up once, untraced; returns what was built.
fn fabric_setup_round(workload: Workload, inputs: &FabricInputs) -> Vec<(Net, Ledger)> {
    let mut tr = Tracer::new(false);
    backends()
        .into_iter()
        .map(|b| match workload {
            Workload::Stream => {
                stream::set_up(&inputs.graph, inputs.seed, b, ParPolicy::Auto, &mut tr)
            }
            _ => (
                churn::set_up(b, ParPolicy::Auto, &mut tr),
                Ledger::default(),
            ),
        })
        .collect()
}

/// Simulated results of a pass that must repeat exactly: payload, energy
/// bits, latency histograms, lifecycle counts and NoI telemetry.
fn fabric_fingerprint(passes: &[Pass]) -> u64 {
    passes.iter().fold(drive::FNV_BASIS, |h, p| {
        let text = format!(
            "{} {} {} {} {} {} {} {} {:?} {:?} {:?} {:?}",
            p.payload_hash,
            p.energy_fj.to_bits(),
            p.offered,
            p.accepted,
            p.delivered,
            p.admitted,
            p.refused_capacity,
            p.refused_unsupported,
            p.gt,
            p.be,
            p.reconfig,
            p.noi,
        );
        drive::fnv(h, text.as_bytes())
    })
}

/// Per-pass correctness: every delivered word was injected on its
/// stream, telemetry agrees with the ledger, and no release was refused.
/// Words delivered out of order are failed operations, not a wrong
/// result: every one of them was injected on its stream.
fn fabric_pass_ok(passes: &[Pass], labels: &[&str]) -> bool {
    let mut ok = true;
    for (p, label) in passes.iter().zip(labels) {
        if p.foreign > 0 {
            println!(
                "!! {label}: {} delivered words were never injected",
                p.foreign
            );
            ok = false;
        }
        if p.reordered > 0 {
            println!(
                "-- {label}: {} words delivered out of order (failed)",
                p.reordered
            );
        }
        if !p.telemetry_agrees {
            println!("!! {label}: stream_stats disagrees with the words injected and drained");
            ok = false;
        }
        if p.release_errors > 0 {
            println!("!! {label}: {} releases refused", p.release_errors);
            ok = false;
        }
    }
    ok
}

fn print_fabric_pass(passes: &[Pass], labels: &[&str]) {
    println!(
        "  {:<11} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>8} {:>10}",
        "backend",
        "streams",
        "offered",
        "refused",
        "undeliv",
        "admits",
        "denied",
        "setup_ms",
        "run_ms",
        "drain_cy",
        "words/s"
    );
    for (p, label) in passes.iter().zip(labels) {
        println!(
            "  {:<11} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9.2} {:>9.1} {:>8} {:>10.0}",
            label,
            p.streams,
            p.offered,
            p.refused_words(),
            p.undelivered(),
            p.admitted,
            p.refused(),
            p.setup_ns as f64 * 1e-6,
            p.run_ns as f64 * 1e-6,
            p.drain_cycles,
            p.words_per_s()
        );
    }
}

/// Payload words per host second over every backend of a pass.
fn total_words_per_s(passes: &[Pass]) -> f64 {
    let words: u64 = passes.iter().map(|p| p.delivered).sum();
    let ns: u64 = passes.iter().map(|p| p.run_ns).sum();
    words as f64 / (ns as f64 * 1e-9)
}

fn run_fabric(args: &Args, machine: &Machine) -> Outcome {
    let inputs = FabricInputs {
        seed: args.seed,
        graph: gen::stream_graph(args.seed),
        schedule: gen::churn_schedule(args.seed, gen::MESH_SIDE, churn::SPAN_CYCLES),
    };
    let labels = backend_labels();
    let mut correct = true;

    let (first, metrics) = if args.trace {
        let mut tr = Tracer::new(false);
        let untraced = fabric_pass(args.workload, &inputs, ParPolicy::Auto, &mut tr);
        tr.set_on(true);
        tr.set_pass(1);
        let traced = fabric_pass(args.workload, &inputs, ParPolicy::Auto, &mut tr);
        tr.set_pass(2);
        let sequential = fabric_pass(args.workload, &inputs, ParPolicy::Sequential, &mut tr);
        tr.set_on(false);
        for (name, p) in [("traced", &traced), ("sequential", &sequential)] {
            if fabric_fingerprint(p) != fabric_fingerprint(&untraced) {
                println!("!! the {name} pass simulated differently from the untraced pass");
                correct = false;
            }
        }
        for p in [&untraced, &traced, &sequential] {
            correct &= fabric_pass_ok(p, &labels);
        }
        println!("untraced pass:");
        print_fabric_pass(&untraced, &labels);
        println!("traced pass:");
        print_fabric_pass(&traced, &labels);
        let counts = layers::Counts {
            untraced_words_per_s: total_words_per_s(&untraced),
            traced_words_per_s: total_words_per_s(&traced),
            ..layers::Counts::of_passes(&traced)
        };
        let metrics = layers::metrics(&tr, &labels, &counts, machine);
        layers::write_trace(&tr, args.workload.name(), args.seed, &labels);
        (untraced, metrics)
    } else {
        let mut setup = Vec::new();
        let started = Instant::now();
        let mut tr = Tracer::new(false);
        let mut passes: Vec<Vec<Pass>> = Vec::new();
        while passes.is_empty() || started.elapsed().as_secs() < args.seconds {
            setup_window(&mut setup, || fabric_setup_round(args.workload, &inputs));
            let p = fabric_pass(args.workload, &inputs, ParPolicy::Auto, &mut tr);
            let rates: Vec<String> = p
                .iter()
                .map(|b| format!("{:.0}", b.words_per_s()))
                .collect();
            println!(
                "pass {}: {:.0} words/s; per backend {}",
                passes.len(),
                total_words_per_s(&p),
                rates.join(" ")
            );
            correct &= fabric_pass_ok(&p, &labels);
            passes.push(p);
        }
        let reference = fabric_fingerprint(&passes[0]);
        if passes.iter().any(|p| fabric_fingerprint(p) != reference) {
            println!("!! repeated passes of one seed simulated differently");
            correct = false;
        }
        println!("{} passes; first pass:", passes.len());
        print_fabric_pass(&passes[0], &labels);

        let mut m = Metrics::default();
        let per_pass: Vec<f64> = passes.iter().map(|p| total_words_per_s(p)).collect();
        m.put("words_per_s", median(&per_pass), "words/s");
        for (bi, label) in labels.iter().enumerate() {
            let rates: Vec<f64> = passes.iter().map(|p| p[bi].words_per_s()).collect();
            m.put(format!("{label}_words_per_s"), median(&rates), "words/s");
        }
        m.put("setup_s", setup_median(&setup), "s");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        let first = passes.swap_remove(0);
        let energy: f64 = first.iter().map(|p| p.energy_fj).sum();
        let words: u64 = first.iter().map(|p| p.delivered).sum();
        m.put("energy_pj_per_word", energy / words as f64 / 1e3, "pJ/word");
        let (gt, be) = layers::merged(&first);
        m.put("gt_p95_cycles", gt.p95().unwrap_or(0) as f64, "cycles");
        m.put("be_p95_cycles", be.p95().unwrap_or(0) as f64, "cycles");
        (first, m)
    };
    println!(
        "simulation fingerprint: {:016x}",
        fabric_fingerprint(&first)
    );

    let attempted: u64 = first.iter().map(|p| p.admissions + p.offered).sum();
    let failed: u64 = first.iter().map(Pass::failed).sum();
    Outcome {
        metrics,
        correct,
        attempted,
        failed,
    }
}

fn run_fleet(args: &Args, machine: &Machine) -> Outcome {
    let specs = gen::fleet_census(args.seed);
    let mut correct = true;

    let check_replay = |pass: &mut fleet::FleetPass, tr: &mut Tracer| -> bool {
        let snapshot = pass.snapshot.take().expect("a pass snapshots mid-run");
        match fleet::replay(&specs, &snapshot, tr) {
            Some(report) if report == pass.report => true,
            Some(_) => {
                println!("!! the fleet restored from the mid-run snapshot ended differently");
                false
            }
            None => {
                println!("!! the mid-run snapshot did not restore");
                false
            }
        }
    };

    let (first, metrics) = if args.trace {
        let mut tr = Tracer::new(false);
        let untraced = fleet::pass(&specs, ParPolicy::Auto, &mut tr);
        tr.set_on(true);
        tr.set_pass(1);
        let mut traced = fleet::pass(&specs, ParPolicy::Auto, &mut tr);
        correct &= check_replay(&mut traced, &mut tr);
        tr.set_pass(2);
        let sequential = fleet::pass(&specs, ParPolicy::Sequential, &mut tr);
        tr.set_on(false);
        for (name, p) in [("traced", &traced), ("sequential", &sequential)] {
            if p.fingerprint() != untraced.fingerprint() {
                println!("!! the {name} fleet pass simulated differently from the untraced one");
                correct = false;
            }
        }
        let labels = backend_labels();
        let counts = layers::Counts {
            untraced_words_per_s: untraced.words_per_s(),
            traced_words_per_s: traced.words_per_s(),
            ..layers::Counts::of_fleet(&specs, &traced, &labels)
        };
        let metrics = layers::metrics(&tr, &labels, &counts, machine);
        layers::write_trace(&tr, "fleet", args.seed, &labels);
        (untraced, metrics)
    } else {
        let mut tr = Tracer::new(false);
        let mut setup = Vec::new();
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || started.elapsed().as_secs() < args.seconds {
            setup_window(&mut setup, || {
                fleet::set_up(&specs, ParPolicy::Auto, &mut tr)
            });
            let mut p = fleet::pass(&specs, ParPolicy::Auto, &mut tr);
            println!("pass {}: {:.0} words/s", passes.len(), p.words_per_s());
            if passes.is_empty() {
                correct &= check_replay(&mut p, &mut tr);
            }
            p.snapshot = None;
            passes.push(p);
        }
        let reference = passes[0].fingerprint();
        if passes.iter().any(|p| p.fingerprint() != reference) {
            println!("!! repeated fleet passes of one seed simulated differently");
            correct = false;
        }
        println!("{} passes", passes.len());
        let mut m = Metrics::default();
        let rates: Vec<f64> = passes.iter().map(fleet::FleetPass::words_per_s).collect();
        let words_per_s = median(&rates);
        m.put("words_per_s", words_per_s, "words/s");
        // The tenants step together, so a backend's rate is the fleet's
        // times that backend's share of the delivered words, which every
        // pass repeats exactly.
        let all: u64 = passes[0].tenants.iter().map(|t| t.0).sum();
        for label in backend_labels() {
            let words: u64 = specs
                .iter()
                .zip(&passes[0].tenants)
                .filter(|(s, _)| fleet::tenant_backend(s) == label)
                .map(|(_, t)| t.0)
                .sum();
            let rate = words_per_s * words as f64 / all as f64;
            m.put(format!("{label}_words_per_s"), rate, "words/s");
        }
        m.put("setup_s", setup_median(&setup), "s");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        let p = &passes[0];
        let energy: f64 = p.tenants.iter().map(|t| t.1).sum();
        m.put(
            "energy_pj_per_word",
            energy / p.report.delivered as f64 / 1e3,
            "pJ/word",
        );
        m.put("gt_p95_cycles", p.gt.p95().unwrap_or(0) as f64, "cycles");
        m.put("be_p95_cycles", p.be.p95().unwrap_or(0) as f64, "cycles");
        (passes.swap_remove(0), m)
    };
    let r = &first.report;
    println!(
        "fleet: tenants={} refused={} retired_all={} injected={} delivered={} overflows={} \
         promotions={} demotions={}",
        first.admitted,
        first.refused,
        first.retired_all,
        r.injected,
        r.delivered,
        r.overflows,
        r.controller.promotions,
        r.controller.demotions
    );
    println!("simulation fingerprint: {:016x}", first.fingerprint());
    Outcome {
        metrics,
        correct,
        attempted: first.admitted + first.refused + r.injected,
        failed: first.refused + r.injected.saturating_sub(r.delivered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            parse_args(&args("--workload churn --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 7 --trace 0")).is_err());
    }

    #[test]
    fn backend_labels_cover_every_kind_and_the_chiplet_grid() {
        let labels = backend_labels();
        assert_eq!(labels.len(), noc_mesh::fabric::FabricKind::ALL.len() + 1);
        assert_eq!(
            labels,
            ["circuit", "hybrid", "deflection", "packet", "chiplet"]
        );
    }
}
