//! Large-mesh stepping throughput: sequential vs pooled evaluation for
//! every `FabricKind`, with cross-policy parity enforced by exit code.
//!
//! The paper evaluates a handful of routers; guaranteed-service NoCs are
//! routinely dimensioned at 8×8–16×16 (Goossens et al., Æthereal, IEEE
//! D&T 2005), and the ROADMAP's production-scale goal needs those sizes to
//! simulate fast. This binary sweeps square meshes from 4×4 up to 16×16
//! (the packet header's coordinate ceiling), deploys the same pipeline
//! workload on all four backends through `Deployment::builder`, and times
//! whole-fabric stepping under three [`ParPolicy`] variants:
//!
//! * `Sequential` — everything on the calling thread (the baseline);
//! * `Threads(n)` — the persistent `noc_sim::par::WorkerPool`, one lane
//!   per available CPU ("pooled" in the table);
//! * `Auto` — the default policy, which must pick whichever of the above
//!   its calibrated crossover predicts is faster.
//!
//! **Correctness gate:** per-node delivered payload, injected/delivered
//! word counts, spilled words, and bit-exact total energy must be
//! identical across all three policies for every mesh size and fabric.
//! Any divergence exits non-zero — parallel stepping is only allowed to
//! change wall-clock time, never simulation results. Speedup itself is
//! reported, not asserted: it depends on the host's CPU count (CI smoke
//! runs on whatever the runner provides; a single-core box legitimately
//! shows ~1×).
//!
//! Run with `--smoke` for a seconds-scale CI pass (one small mesh, few
//! cycles) that still exercises every backend × policy combination and
//! the full parity gate.
//!
//! Besides the rendered table, every run writes the machine-readable
//! `BENCH_scale.json` (through the hand-rolled [`noc_exp::json`]): one
//! row per mesh × fabric with the raw throughput
//! numbers, so CI can validate the artefact and reviews can diff it.
//!
//! **Perf trajectory:** before overwriting the artefact, the checked-in
//! `BENCH_scale.json` is parsed back ([`Json::parse`]) and every fresh
//! sequential-throughput number is diffed against its baseline row. Each
//! row records `seq_vs_baseline` (fresh ÷ baseline), and any row slower
//! than [`REGRESSION_FLOOR`] of its baseline prints a `regression:`
//! warning and increments the artefact's `seq_regressions` counter — CI's
//! bench-trajectory step fails on a nonzero count. Only the *sequential*
//! rate gates: pooled throughput on a shared (often single-core) runner
//! measures dispatch contention, not the simulator, so pooled and auto
//! diffs are informational. Timing noise makes this a trajectory tripwire,
//! not a precision benchmark — hence the generous 20% floor.

use noc_apps::synthetic::streaming_pipeline;
use noc_apps::taskgraph::TaskGraph;
use noc_core::params::RouterParams;
use noc_exp::json::Json;
use noc_exp::tables;
use noc_mesh::ccn::{Ccn, Mapping};
use noc_mesh::chiplet::{ChipletConfig, ChipletFabric, CHIPLET_BACKEND};
use noc_mesh::controller::ProfiledPromotion;
use noc_mesh::deployment::{Deployment, DeploymentBuilder};
use noc_mesh::fabric::{Fabric, FabricKind};
use noc_mesh::stream::{ProvisionMode, StreamDemand, StreamPlane, StreamStats};
use noc_mesh::topology::Mesh;
use noc_sim::par::{ParPolicy, WorkerPool};
use noc_sim::time::CycleCount;
use noc_sim::units::{Bandwidth, MegaHertz};
use std::time::Instant;

/// A fresh sequential rate below this fraction of its checked-in baseline
/// counts as a regression (matches the CI bench-trajectory gate).
const REGRESSION_FLOOR: f64 = 0.8;

/// The checked-in baseline's per-row sequential throughput, keyed by the
/// row's `(mesh, fabric)` labels. Missing file, unparsable file, or
/// missing row all degrade to "no baseline" — a fresh clone must not fail
/// its first run.
struct Baseline {
    rows: Vec<(String, String, f64)>,
}

impl Baseline {
    fn load(path: &str) -> Option<Baseline> {
        let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
        let rows = doc
            .get("rows")?
            .as_array()?
            .iter()
            .filter_map(|row| {
                Some((
                    row.get("mesh")?.as_str()?.to_string(),
                    row.get("fabric")?.as_str()?.to_string(),
                    row.get("seq_cycles_per_sec")?.as_f64()?,
                ))
            })
            .collect();
        Some(Baseline { rows })
    }

    fn seq_for(&self, mesh: &str, fabric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(m, f, _)| m == mesh && f == fabric)
            .map(|&(_, _, seq)| seq)
    }
}

/// Everything a run must reproduce bit-identically across policies.
#[derive(PartialEq)]
struct Outcome {
    payload: Vec<Vec<u16>>,
    injected: u64,
    delivered: u64,
    spilled_words: u64,
    energy_bits: u64,
    /// Full per-stream telemetry — word counts *and* latency
    /// distributions must be policy-invariant too.
    streams: Vec<StreamStats>,
}

struct Timed {
    outcome: Outcome,
    cycles_per_sec: f64,
    /// `(noi_wait_cycles, noi_links, cross_chiplet_streams)` when the
    /// deployed fabric is a [`ChipletFabric`]; `None` on flat backends.
    noi: Option<(u64, usize, usize)>,
}

fn run(
    graph: &TaskGraph,
    side: usize,
    kind: FabricKind,
    policy: ParPolicy,
    cycles: CycleCount,
) -> Timed {
    run_with(graph, side, kind, policy, cycles, |b| b)
}

/// [`run`] with extra builder knobs (the control-plane configuration
/// wraps the fabric in a `FabricController` and cold-starts over the BE
/// network; everything else — timing, parity fingerprint — is identical).
fn run_with(
    graph: &TaskGraph,
    side: usize,
    kind: FabricKind,
    policy: ParPolicy,
    cycles: CycleCount,
    configure: impl FnOnce(DeploymentBuilder<'_>) -> DeploymentBuilder<'_>,
) -> Timed {
    let mut dep = configure(
        Deployment::builder(graph)
            .mesh(side, side)
            .clock(MegaHertz(100.0))
            .seed(0x5CA1E)
            .fabric(kind)
            .parallelism(policy),
    )
    .build()
    .unwrap_or_else(|e| panic!("{side}x{side} {kind}: {e}"));
    dep.keep_payload(true);
    let started = Instant::now();
    dep.run(cycles);
    dep.settle(4 * cycles);
    let elapsed = started.elapsed().as_secs_f64();
    let model = dep.energy_model();
    let payload = dep
        .fabric()
        .mesh()
        .iter()
        .map(|n| dep.payload_at(n).to_vec())
        .collect();
    // Chiplet hierarchy telemetry, recovered through the snapshot's typed
    // downcast (outside the timed region; flat backends yield `None`).
    let noi = dep
        .fabric()
        .snapshot()
        .downcast::<ChipletFabric>(CHIPLET_BACKEND)
        .ok()
        .map(|ch| {
            let cross = Fabric::stream_stats(ch)
                .iter()
                .filter(|s| ch.chip_of(s.src) != ch.chip_of(s.dst))
                .count();
            (ch.noi_wait_cycles(), ch.noi_links(), cross)
        });
    Timed {
        outcome: Outcome {
            payload,
            injected: dep.total_injected(),
            delivered: dep.total_delivered(),
            spilled_words: dep.fabric().spilled_words(),
            energy_bits: dep.total_energy(&model).value().to_bits(),
            streams: dep.fabric().stream_stats(),
        },
        cycles_per_sec: dep.cycles_run() as f64 / elapsed.max(1e-9),
        noi,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sides, cycles): (&[usize], CycleCount) = if smoke {
        (&[4], 300)
    } else {
        (&[4, 8, 12, 16], 1200)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled_lanes = cores.max(2);
    // Warm the lazily created global pool so the first pooled row does
    // not pay thread spawning inside its timed region.
    let _ = WorkerPool::global().workers();
    println!(
        "Fabric stepping throughput, sequential vs pooled ({} CPUs, pooled = Threads({pooled_lanes})),\n\
         {cycles} offered-load cycles + settling per run{}.\n",
        cores,
        if smoke { " [smoke]" } else { "" }
    );
    if cores == 1 {
        println!("note: single CPU — pooled runs measure dispatch overhead, not speedup.\n");
    }

    let out = "BENCH_scale.json";
    let baseline = Baseline::load(out);
    if baseline.is_none() {
        println!("note: no parsable {out} baseline — skipping the regression diff.\n");
    }

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut failures = 0;
    let mut seq_regressions = 0u64;
    let mut packet_16_speedup = None;
    // Fresh-vs-baseline sequential ratio for one row; warns and counts
    // when the fresh rate falls below the floor.
    let mut diff_baseline = |mesh: &str, fabric: &str, seq_cps: f64| -> Option<f64> {
        let base = baseline.as_ref()?.seq_for(mesh, fabric)?;
        if base <= 0.0 {
            return None;
        }
        let ratio = seq_cps / base;
        if ratio < REGRESSION_FLOOR {
            println!(
                "regression: {mesh} {fabric} sequential {seq_cps:.1} cyc/s is \
                 {ratio:.2}x the checked-in baseline {base:.1}"
            );
            seq_regressions += 1;
        }
        Some(ratio)
    };
    for &side in sides {
        let graph = streaming_pipeline(side, Bandwidth(60.0));
        for kind in FabricKind::ALL {
            let seq = run(&graph, side, kind, ParPolicy::Sequential, cycles);
            let pooled = run(&graph, side, kind, ParPolicy::Threads(pooled_lanes), cycles);
            let auto = run(&graph, side, kind, ParPolicy::Auto, cycles);
            let parity = seq.outcome == pooled.outcome && seq.outcome == auto.outcome;
            if !parity {
                println!("!! {side}x{side} {kind}: policies diverged (payload/energy)");
                failures += 1;
            }
            if seq.outcome.delivered == 0 {
                println!("!! {side}x{side} {kind}: delivered nothing");
                failures += 1;
            }
            let stream_sum: u64 = seq.outcome.streams.iter().map(|s| s.delivered_words).sum();
            if stream_sum != seq.outcome.delivered {
                println!(
                    "!! {side}x{side} {kind}: per-stream delivered sum {stream_sum} \
                     != node-level total {}",
                    seq.outcome.delivered
                );
                failures += 1;
            }
            let speedup = pooled.cycles_per_sec / seq.cycles_per_sec;
            if side == 16 && kind == FabricKind::Packet {
                packet_16_speedup = Some(speedup);
            }
            let vs_baseline = diff_baseline(
                &format!("{side}x{side}"),
                &kind.to_string(),
                seq.cycles_per_sec,
            );
            // Worst per-stream misroute count — 0 by definition on the
            // buffered backends, real telemetry on the deflection mesh.
            let max_deflections = seq
                .outcome
                .streams
                .iter()
                .map(|s| s.max_deflections)
                .max()
                .unwrap_or(0);
            json_rows.push(
                Json::obj()
                    .with("mesh", format!("{side}x{side}"))
                    .with("fabric", kind.to_string())
                    .with("delivered", seq.outcome.delivered)
                    .with("injected", seq.outcome.injected)
                    .with("seq_cycles_per_sec", seq.cycles_per_sec)
                    .with("pooled_cycles_per_sec", pooled.cycles_per_sec)
                    .with("auto_cycles_per_sec", auto.cycles_per_sec)
                    .with("pooled_speedup", speedup)
                    .with("seq_vs_baseline", vs_baseline)
                    .with("max_deflections", max_deflections)
                    .with("parity", parity),
            );
            rows.push(vec![
                format!("{side}x{side}"),
                kind.to_string(),
                seq.outcome.delivered.to_string(),
                format!("{:.1}", seq.cycles_per_sec / 1e3),
                format!("{:.1}", pooled.cycles_per_sec / 1e3),
                format!("{:.1}", auto.cycles_per_sec / 1e3),
                format!("{speedup:.2}x"),
                if parity {
                    "ok".into()
                } else {
                    "DIVERGED".into()
                },
            ]);
        }
    }

    // Control-plane configuration: the hybrid backend wrapped in a
    // FabricController (ProfiledPromotion policy loop ticking throughout)
    // with BE-delivered cold-start provisioning — the same bit-exact
    // payload/energy/stream-telemetry parity gate across policies, plus
    // every circuit stream must carry a nonzero §5.1 reconfiguration
    // charge from the cold start.
    {
        let side = 4;
        let graph = streaming_pipeline(side, Bandwidth(60.0));
        let controlled = |policy| {
            run_with(&graph, side, FabricKind::Hybrid, policy, cycles, |b| {
                b.provisioning(ProvisionMode::BeDelivered)
                    .policy(Box::new(ProfiledPromotion))
                    .tick_window(64)
            })
        };
        let seq = controlled(ParPolicy::Sequential);
        let pooled = controlled(ParPolicy::Threads(pooled_lanes));
        let auto = controlled(ParPolicy::Auto);
        let parity = seq.outcome == pooled.outcome && seq.outcome == auto.outcome;
        if !parity {
            println!("!! controlled {side}x{side}: policies diverged");
            failures += 1;
        }
        if seq.outcome.delivered == 0 {
            println!("!! controlled {side}x{side}: delivered nothing");
            failures += 1;
        }
        let stream_sum: u64 = seq.outcome.streams.iter().map(|s| s.delivered_words).sum();
        if stream_sum != seq.outcome.delivered {
            println!(
                "!! controlled {side}x{side}: per-stream sum {stream_sum} != \
                 total {}",
                seq.outcome.delivered
            );
            failures += 1;
        }
        let uncharged = seq
            .outcome
            .streams
            .iter()
            .filter(|s| s.plane == StreamPlane::Circuit && s.reconfig_cycles == 0)
            .count();
        if uncharged > 0 {
            println!(
                "!! controlled {side}x{side}: {uncharged} circuit stream(s) \
                 missing the BE-delivered cold-start charge"
            );
            failures += 1;
        }
        let vs_baseline = diff_baseline(
            &format!("{side}x{side} ctl"),
            "hybrid+BeDelivered",
            seq.cycles_per_sec,
        );
        json_rows.push(
            Json::obj()
                .with("mesh", format!("{side}x{side} ctl"))
                .with("fabric", "hybrid+BeDelivered")
                .with("delivered", seq.outcome.delivered)
                .with("injected", seq.outcome.injected)
                .with("seq_cycles_per_sec", seq.cycles_per_sec)
                .with("pooled_cycles_per_sec", pooled.cycles_per_sec)
                .with("auto_cycles_per_sec", auto.cycles_per_sec)
                .with("pooled_speedup", pooled.cycles_per_sec / seq.cycles_per_sec)
                .with(
                    "max_deflections",
                    seq.outcome
                        .streams
                        .iter()
                        .map(|s| s.max_deflections)
                        .max()
                        .unwrap_or(0),
                )
                .with("seq_vs_baseline", vs_baseline)
                .with("parity", parity),
        );
        rows.push(vec![
            format!("{side}x{side} ctl"),
            "hybrid+BeDelivered".into(),
            seq.outcome.delivered.to_string(),
            format!("{:.1}", seq.cycles_per_sec / 1e3),
            format!("{:.1}", pooled.cycles_per_sec / 1e3),
            format!("{:.1}", auto.cycles_per_sec / 1e3),
            format!("{:.2}x", pooled.cycles_per_sec / seq.cycles_per_sec),
            if parity {
                "ok".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }

    // Chiplet mesh-of-meshes: the aggregate mesh sharded into a grid of
    // per-chiplet hybrid planes stitched by NoI entry routers. The
    // pipeline is longer than one chiplet's tile count, so the CCN's
    // compact placement is forced across chiplet borders and the NoI
    // actually carries traffic. Same bit-exact cross-policy parity gate
    // as the flat rows; the sharded stepping is where the pool earns its
    // keep (one chiplet plane per worker lane).
    {
        let (agg, grid, stages) = if smoke { (16, 2, 80) } else { (48, 4, 200) };
        let graph = streaming_pipeline(stages, Bandwidth(60.0));
        let chiplet_run = |policy| {
            run_with(&graph, agg, FabricKind::Hybrid, policy, cycles, |b| {
                b.chiplets(grid, grid)
            })
        };
        let seq = chiplet_run(ParPolicy::Sequential);
        let pooled = chiplet_run(ParPolicy::Threads(pooled_lanes));
        let auto = chiplet_run(ParPolicy::Auto);
        let mesh_label = format!("{agg}x{agg}");
        let fabric_label = format!("chiplet-{grid}x{grid}-hybrid");
        let parity = seq.outcome == pooled.outcome && seq.outcome == auto.outcome;
        if !parity {
            println!("!! {mesh_label} {fabric_label}: policies diverged");
            failures += 1;
        }
        if seq.outcome.delivered == 0 {
            println!("!! {mesh_label} {fabric_label}: delivered nothing");
            failures += 1;
        }
        let stream_sum: u64 = seq.outcome.streams.iter().map(|s| s.delivered_words).sum();
        if stream_sum != seq.outcome.delivered {
            println!(
                "!! {mesh_label} {fabric_label}: per-stream sum {stream_sum} != \
                 total {}",
                seq.outcome.delivered
            );
            failures += 1;
        }
        let (noi_wait, noi_links, cross) = seq.noi.expect("a chiplet deployment");
        if cross == 0 {
            println!(
                "!! {mesh_label} {fabric_label}: the {stages}-stage pipeline \
                 must cross chiplet borders"
            );
            failures += 1;
        }
        let speedup = pooled.cycles_per_sec / seq.cycles_per_sec;
        let vs_baseline = diff_baseline(&mesh_label, &fabric_label, seq.cycles_per_sec);
        json_rows.push(
            Json::obj()
                .with("mesh", mesh_label.clone())
                .with("fabric", fabric_label.clone())
                .with("chiplet", true)
                .with("shards", (grid * grid) as u64)
                .with("inner_mesh", format!("{}x{}", agg / grid, agg / grid))
                .with("cross_chiplet_streams", cross as u64)
                .with("noi_links", noi_links as u64)
                .with("noi_wait_cycles", noi_wait)
                .with("delivered", seq.outcome.delivered)
                .with("injected", seq.outcome.injected)
                .with("seq_cycles_per_sec", seq.cycles_per_sec)
                .with("pooled_cycles_per_sec", pooled.cycles_per_sec)
                .with("auto_cycles_per_sec", auto.cycles_per_sec)
                .with("pooled_speedup", speedup)
                .with("seq_vs_baseline", vs_baseline)
                .with(
                    "max_deflections",
                    seq.outcome
                        .streams
                        .iter()
                        .map(|s| s.max_deflections)
                        .max()
                        .unwrap_or(0),
                )
                .with("parity", parity),
        );
        rows.push(vec![
            mesh_label,
            fabric_label,
            seq.outcome.delivered.to_string(),
            format!("{:.1}", seq.cycles_per_sec / 1e3),
            format!("{:.1}", pooled.cycles_per_sec / 1e3),
            format!("{:.1}", auto.cycles_per_sec / 1e3),
            format!("{speedup:.2}x"),
            if parity {
                "ok".into()
            } else {
                "DIVERGED".into()
            },
        ]);
        println!(
            "chiplet hierarchy: {grid}x{grid} grid ({} shards), {cross} \
             cross-chiplet stream(s), {noi_links} NoI links, {noi_wait} \
             entry-lane wait cycle(s).\n",
            grid * grid
        );
    }

    // Hierarchy-transparency gate: a 1x1 chiplet grid must be bit-exact
    // against the flat deployment of the same kind — payload, per-stream
    // telemetry and energy. Divergence exits non-zero.
    {
        let side = 8;
        let graph = streaming_pipeline(side, Bandwidth(60.0));
        for kind in FabricKind::ALL {
            let flat = run(&graph, side, kind, ParPolicy::Sequential, cycles);
            let one = run_with(&graph, side, kind, ParPolicy::Sequential, cycles, |b| {
                b.chiplets(1, 1)
            });
            if flat.outcome != one.outcome {
                println!(
                    "!! {side}x{side} {kind}: 1x1 chiplet grid diverges from \
                     the flat fabric (payload/telemetry/energy)"
                );
                failures += 1;
            }
        }
        println!("chiplet 1x1 parity gate: flat {side}x{side} vs 1x1 grid, all kinds checked.\n");
    }

    // NoI entry-lane queueing gate: with a single entry lane and a burst
    // of words, cross-chiplet streams must queue at the NoI router and the
    // wait must be charged to their service-latency histogram.
    {
        let mesh = Mesh::new(4, 1);
        let mut config = ChipletConfig::paper();
        config.entry_lanes = 1;
        let mut fabric = ChipletFabric::new(mesh, 4, 1, FabricKind::Hybrid, config);
        let empty = Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity(),
        };
        fabric
            .provision_with(&empty, ProvisionMode::Instant)
            .expect("empty mapping always provisions");
        let id = fabric
            .admit(&StreamDemand {
                src: mesh.node(0, 0),
                dst: mesh.node(3, 0),
                demand: Bandwidth(60.0),
            })
            .expect("one stream fits one lane");
        let payload: Vec<u16> = (0..48).collect();
        fabric.inject_stream(id, &payload);
        fabric.finish_injection();
        fabric.run(2_000);
        let delivered = fabric.drain_stream(id);
        let wait = fabric.noi_wait_cycles();
        let stats = Fabric::stream_stats(&fabric)
            .into_iter()
            .find(|s| s.id == id)
            .expect("the admitted session is reported");
        if delivered != payload {
            println!("!! NoI queueing gate: burst payload lost or reordered");
            failures += 1;
        }
        if wait == 0 {
            println!("!! NoI queueing gate: a 1-lane entry router must queue a burst");
            failures += 1;
        }
        let spread = matches!(
            (stats.latency.min(), stats.latency.max()),
            (Some(lo), Some(hi)) if hi > lo
        );
        if !spread {
            println!(
                "!! NoI queueing gate: entry-lane waits must spread the \
                 latency histogram (min {:?}, max {:?})",
                stats.latency.min(),
                stats.latency.max()
            );
            failures += 1;
        }
        println!(
            "NoI queueing gate: {wait} wait cycle(s) across {} NoI link(s), \
             latency min/max {:?}/{:?}.\n",
            fabric.noi_links(),
            stats.latency.min(),
            stats.latency.max()
        );
    }

    println!(
        "{}",
        tables::render(
            &[
                "Mesh",
                "Fabric",
                "Words delivered",
                "seq kcyc/s",
                "pooled kcyc/s",
                "auto kcyc/s",
                "pooled/seq",
                "parity",
            ],
            &rows
        )
    );
    if let Some(speedup) = packet_16_speedup {
        println!(
            "\n16x16 packet-switched mesh: pooled stepping at {speedup:.2}x sequential \
             ({cores} CPUs available)."
        );
    }
    println!(
        "\n(Every ParPolicy must produce bit-identical payload and energy; the\n\
         persistent WorkerPool only buys wall-clock time. Divergence or an\n\
         empty delivery exits non-zero so CI cannot rot.)"
    );
    if seq_regressions > 0 {
        println!(
            "\nwarning: {seq_regressions} row(s) regressed below {REGRESSION_FLOOR}x the \
             checked-in baseline (see `regression:` lines above)."
        );
    } else if baseline.is_some() {
        println!("\nNo sequential-throughput regressions against the checked-in baseline.");
    }

    let artefact = Json::obj()
        .with("bench", "scale_bench")
        .with("mode", if smoke { "smoke" } else { "full" })
        .with("cycles", cycles)
        .with("cores", cores)
        .with("pooled_lanes", pooled_lanes)
        .with("failures", failures as u64)
        .with("regression_floor", REGRESSION_FLOOR)
        .with("seq_regressions", seq_regressions)
        .with("rows", Json::Array(json_rows));
    match std::fs::write(out, artefact.pretty()) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            println!("!! could not write {out}: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
