//! The unified-fabric head-to-head: every application workload deployed on
//! **all four** switching fabrics through one generic code path.
//!
//! This is the deployment-level generalisation of Fig. 9: where the paper
//! compares one router under synthetic Table 3 streams, this binary runs
//! whole applications (HiperLAN/2, UMTS, a synthetic pipeline, and an
//! oversubscribed two-stream workload that the circuit lanes cannot fully
//! admit) over full meshes of each router — same mapping, same seed, same
//! payload words. `noc_exp::fabric_bench::run_app` is written once over
//! `F: Fabric` and instantiated with each backend:
//!
//! * **circuit** — the paper's router, GT streams on physically separated
//!   lanes (spill-admitted: carries only the GT subset when oversubscribed);
//! * **hybrid** — profiled hybrid switching (arXiv:2005.08478): admitted
//!   streams on circuits, spillover on a clock-gated packet plane;
//! * **deflection** — the bufferless mesh: single-flit-register routers,
//!   age-ordered arbitration, contention absorbed as misroutes — no FIFO
//!   energy anywhere, so it must beat the ungated packet baseline on
//!   uncontended workloads (enforced by exit code) while the hotspot
//!   workload shows nonzero deflections with bounded worst-case latency;
//! * **packet** — the ungated VC wormhole baseline carrying everything.
//!
//! Run with `--smoke` for a seconds-scale CI sanity pass (small mesh, few
//! cycles) that still checks the headline orderings.

use noc_apps::hiperlan2::{Hiperlan2Params, Modulation};
use noc_apps::synthetic::streaming_pipeline;
use noc_apps::taskgraph::TaskGraph;
use noc_apps::umts::UmtsParams;
use noc_core::params::RouterParams;
use noc_exp::fabric_bench::{compare_fabrics, FabricComparison, FabricRunSummary};
use noc_exp::tables;
use noc_mesh::ccn::Ccn;
use noc_mesh::chiplet::ChipletFabric;
use noc_mesh::controller::{FabricController, ProfiledPromotion};
use noc_mesh::deflection::DeflectionFabric;
use noc_mesh::fabric::{EnergyModel, Fabric, FabricKind, PacketFabric};
use noc_mesh::hybrid::HybridFabric;
use noc_mesh::soc::Soc;
use noc_mesh::stream::{ProvisionMode, ReleaseMode, StreamId, StreamPlane, StreamStats};
use noc_mesh::topology::Mesh;
use noc_packet::params::PacketParams;
use noc_sim::time::CycleCount;
use noc_sim::units::{Bandwidth, MegaHertz};

/// The canonical oversubscribed two-stream line
/// ([`noc_apps::synthetic::oversubscribed_line`]), sized from the actual
/// per-lane payload bandwidth at the bench clock so the lighter stream
/// always spills off the circuit plane.
fn oversubscribed(clock: MegaHertz) -> TaskGraph {
    let lane = Bandwidth(clock.value() * RouterParams::paper().lane_payload_bits_per_cycle());
    noc_apps::synthetic::oversubscribed_line(lane)
}

struct BenchConfig {
    mesh: Mesh,
    oversub_mesh: Mesh,
    clock: MegaHertz,
    cycles: CycleCount,
}

impl BenchConfig {
    fn full() -> BenchConfig {
        BenchConfig {
            mesh: Mesh::new(4, 4),
            oversub_mesh: Mesh::new(3, 1),
            clock: MegaHertz(100.0),
            cycles: 6000,
        }
    }

    /// CI smoke mode: small mesh, few cycles — seconds, not minutes, but
    /// the same code path and the same ordering assertions.
    fn smoke() -> BenchConfig {
        BenchConfig {
            mesh: Mesh::new(3, 3),
            oversub_mesh: Mesh::new(3, 1),
            cycles: 1500,
            clock: MegaHertz(100.0),
        }
    }
}

fn rows_for(name: &str, cmp: &FabricComparison, rows: &mut Vec<Vec<String>>) {
    for kind in FabricKind::ALL {
        let s = cmp.summary(kind);
        rows.push(vec![
            name.into(),
            kind.to_string(),
            s.delivered.to_string(),
            format!("{:.3}", s.min_delivered_fraction),
            s.spilled_words.to_string(),
            format!("{:.0}", s.power.dynamic().value()),
            format!("{:.2}", s.energy.value() / 1e9), // fJ -> uJ
            format!("{:.1}", s.energy_per_bit().value()),
        ]);
    }
}

fn fmt_p95(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |c| c.to_string())
}

/// The hybrid run's per-stream GT/BE latency-gap table: one row per
/// session, straight from `Fabric::stream_stats`.
fn stream_gap_table(name: &str, hybrid: &FabricRunSummary) -> String {
    let rows: Vec<Vec<String>> = hybrid
        .streams
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                s.plane.to_string(),
                format!("{:?}->{:?}", s.src.0, s.dst.0),
                s.delivered_words.to_string(),
                format!("{:.1}", s.latency.mean()),
                fmt_p95(s.latency.p50()),
                fmt_p95(s.latency.p95()),
                fmt_p95(s.latency.max()),
            ]
        })
        .collect();
    format!(
        "Per-stream service latency [cycles], hybrid fabric, {name}:\n{}",
        tables::render(
            &[
                "Stream",
                "Plane",
                "Route",
                "Delivered",
                "Mean",
                "p50",
                "p95",
                "Max",
            ],
            &rows
        )
    )
}

/// One stream's offered-load word generator for the hand-driven policy
/// gate (per-cycle accumulator, like `Deployment`'s traffic loop).
struct Offered {
    id: StreamId,
    rate: f64,
    acc: f64,
    seq: u16,
    salt: u16,
}

impl Offered {
    fn new(id: StreamId, demand: Bandwidth, clock: MegaHertz, salt: u16) -> Offered {
        Offered {
            id,
            // Mbit/s over (MHz × 16 bit/word) = words/cycle.
            rate: demand.value() / (clock.value() * 16.0),
            acc: 0.0,
            seq: 0,
            salt,
        }
    }

    fn cycle<F: Fabric>(&mut self, fabric: &mut F) {
        self.acc += self.rate;
        while self.acc + 1e-9 >= 1.0 {
            self.acc -= 1.0;
            let word = self.seq.wrapping_mul(0x9E37) ^ self.salt;
            self.seq = self.seq.wrapping_add(1);
            fabric.inject_stream(self.id, &[word]);
        }
    }
}

fn stats_of(ctl: &FabricController, id: StreamId) -> StreamStats {
    ctl.stream_stats()
        .into_iter()
        .find(|s| s.id == id)
        .expect("served sessions appear in stream_stats")
}

/// The control-plane gate: the oversubscribed workload under a
/// `FabricController` with `ProfiledPromotion`, cold-started over the BE
/// network. Mid-run the GT circuit is retired with a **draining** release
/// — zero word loss required — and the controller must promote the worst
/// spilled stream onto the freed lanes, charging the §5.1 reconfiguration
/// wait to the promoted session, whose post-promotion p95 service latency
/// must then beat its spilled-phase p95. Every violated clause counts one
/// failure (non-zero exit, so the control plane cannot silently rot).
fn policy_gate(cfg: &BenchConfig) -> usize {
    let mesh = cfg.oversub_mesh;
    let ccn = Ccn::new(mesh, RouterParams::paper(), cfg.clock);
    let g = oversubscribed(cfg.clock);
    let kinds = noc_mesh::tile::default_tile_kinds(&mesh);
    let mapping = ccn.map_with_spill(&g, &kinds).expect("spill admission");
    let mut ctl = FabricController::new(
        Box::new(HybridFabric::paper(mesh)),
        Box::new(ProfiledPromotion),
    )
    .with_window(128);
    let ids = ctl
        .provision_with(&mapping, ProvisionMode::BeDelivered)
        .expect("legal mapping");
    let (gt, be) = (ids[0], ids[1]);
    let streams = mapping.streams();
    let mut gt_gen = Offered::new(gt, streams[0].demand, cfg.clock, 0x1111);
    let mut be_gen = Offered::new(be, streams[1].demand, cfg.clock, 0x2222);

    let mut failures = 0;
    let mut fail = |cond: bool, msg: &str| {
        if !cond {
            println!("!! policy gate: {msg}");
            failures += 1;
        }
    };

    // Phase 1: both streams at offered load — the spilled baseline.
    for _ in 0..cfg.cycles {
        gt_gen.cycle(&mut ctl);
        be_gen.cycle(&mut ctl);
        ctl.step();
    }
    let spilled_phase = stats_of(&ctl, be);
    fail(
        spilled_phase.plane == StreamPlane::Spilled,
        "the light stream must start as spillover",
    );
    let spilled_p95 = spilled_phase.latency.p95();
    fail(spilled_p95.is_some(), "the spilled phase must be measured");
    let _ = ctl.take_reports(); // phase 1 must not have promoted anything

    // Phase 2: drain-release the GT circuit (loss-free by contract) and
    // keep offering the spilled stream's load; the controller's next tick
    // promotes it onto the freed lanes. The driver follows the hand-over
    // through the tick reports.
    ctl.release(gt, ReleaseMode::Drain)
        .expect("live streams drain");
    let gt_injected = stats_of(&ctl, gt).injected_words;
    let mut current = be;
    let mut promoted_to: Option<StreamId> = None;
    for _ in 0..cfg.cycles {
        be_gen.id = current;
        be_gen.cycle(&mut ctl);
        ctl.step();
        if promoted_to.is_none() {
            if let Some(p) = ctl
                .take_reports()
                .iter()
                .flat_map(|t| t.promoted.clone())
                .next()
            {
                assert_eq!(p.from, be, "only one spilled candidate exists");
                current = p.to;
                promoted_to = Some(p.to);
            }
        }
    }
    ctl.finish_injection();
    let mut guard = 0;
    while !ctl.is_quiescent() && guard < 400 {
        ctl.run(32);
        guard += 1;
    }

    let gt_final = stats_of(&ctl, gt);
    fail(
        !gt_final.active,
        "the drained release must finalise its teardown",
    );
    fail(
        gt_final.delivered_words == gt_injected,
        "the draining release must lose nothing",
    );
    let Some(to) = promoted_to else {
        fail(false, "the controller never promoted the spilled stream");
        println!("\nControl-plane gate: FAILED (no promotion)\n");
        return failures;
    };
    let post = stats_of(&ctl, to);
    fail(
        post.plane == StreamPlane::Circuit,
        "the promotion must land on circuit lanes",
    );
    fail(
        post.reconfig_cycles > 0,
        "the promotion must pay BE configuration delivery",
    );
    fail(
        stats_of(&ctl, be).delivered_words == stats_of(&ctl, be).injected_words,
        "the promotion hand-over must lose no best-effort word",
    );
    let post_p95 = post.latency.p95();
    let ordered = match (post_p95, spilled_p95) {
        (Some(after), Some(before)) => after < before,
        _ => false,
    };
    fail(
        ordered,
        "post-promotion p95 must beat the spilled-phase p95",
    );

    println!(
        "\nControl-plane gate ({} on the oversubscribed workload):\n  \
         drained GT release: {} words, zero loss  |  promotion {} -> {} \
         (reconfig {} cycles)  |  spilled p95 {} -> circuit p95 {}  [{}]\n",
        ctl.policy_name(),
        gt_final.delivered_words,
        be,
        to,
        post.reconfig_cycles,
        fmt_p95(spilled_p95),
        fmt_p95(post_p95),
        if failures == 0 { "ok" } else { "VIOLATED" },
    );
    failures
}

/// The chiplet-hierarchy transparency gate: a **1×1 chiplet grid must be
/// bit-identical to the flat fabric of the same kind** — same session
/// handles, same delivered payload, same per-stream telemetry, same
/// energy bits — for every `FabricKind`, on a workload with both admitted
/// and spilled streams. Each diverging observable counts one failure.
fn chiplet_parity_gate(cfg: &BenchConfig) -> usize {
    let mesh = cfg.mesh;
    let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
    let graph = streaming_pipeline(mesh.nodes().min(6), Bandwidth(120.0));
    let kinds = noc_mesh::tile::default_tile_kinds(&mesh);
    let mapping = ccn.map_with_spill(&graph, &kinds).expect("spill admission");
    let model = EnergyModel::calibrated(MegaHertz(25.0));

    let mut failures = 0;
    let mut fail = |cond: bool, msg: String| {
        if !cond {
            println!("!! chiplet parity gate: {msg}");
            failures += 1;
        }
    };
    for kind in FabricKind::ALL {
        let mut flat: Box<dyn Fabric> = match kind {
            FabricKind::Circuit => Box::new(Soc::new(mesh, RouterParams::paper())),
            FabricKind::Hybrid => Box::new(HybridFabric::paper(mesh)),
            FabricKind::Deflection => Box::new(DeflectionFabric::paper(mesh)),
            FabricKind::Packet => Box::new(PacketFabric::new(
                mesh,
                PacketParams::paper(),
                PacketFabric::DEFAULT_PACKET_WORDS,
            )),
        };
        let mut chip = ChipletFabric::paper(mesh, 1, 1, kind);
        let flat_ids = flat.provision(&mapping).expect("legal mapping");
        let chip_ids = Fabric::provision(&mut chip, &mapping).expect("legal mapping");
        fail(
            flat_ids == chip_ids,
            format!("{kind}: session handles diverge"),
        );
        for (k, &id) in flat_ids.iter().enumerate() {
            let words: Vec<u16> = (0..24)
                .map(|i: u16| i.wrapping_mul(0xB0C5) ^ ((k as u16) << 9))
                .collect();
            flat.inject_stream(id, &words);
            Fabric::inject_stream(&mut chip, id, &words);
        }
        flat.finish_injection();
        chip.finish_injection();
        flat.run(cfg.cycles);
        Fabric::run(&mut chip, cfg.cycles);
        for &id in &flat_ids {
            fail(
                flat.drain_stream(id) == Fabric::drain_stream(&mut chip, id),
                format!("{kind}: payload diverges on {id}"),
            );
        }
        fail(
            flat.stream_stats() == Fabric::stream_stats(&chip),
            format!("{kind}: per-stream telemetry diverges"),
        );
        fail(
            flat.total_energy(&model).value().to_bits()
                == Fabric::total_energy(&chip, &model).value().to_bits(),
            format!("{kind}: energy bits diverge"),
        );
    }
    println!(
        "\nChiplet parity gate: flat {mesh} vs 1x1 chiplet grid, all four \
         kinds bit-checked (payload, telemetry, energy)  [{}]",
        if failures == 0 { "ok" } else { "VIOLATED" },
    );
    failures
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        BenchConfig::smoke()
    } else {
        BenchConfig::full()
    };
    println!(
        "Unified Fabric comparison: identical workloads, four backends,\n\
         {} at {}, {} offered-load cycles + settling{}.\n",
        cfg.mesh,
        cfg.clock,
        cfg.cycles,
        if smoke { " [smoke]" } else { "" }
    );

    let seed = 0x2005;
    let workloads: Vec<(&str, Mesh, TaskGraph)> = vec![
        (
            "HiperLAN/2 (64-QAM)",
            cfg.mesh,
            noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64)),
        ),
        (
            "UMTS (paper example)",
            cfg.mesh,
            noc_apps::umts::task_graph(&UmtsParams::paper_example()),
        ),
        (
            "4-stage pipeline @120",
            cfg.mesh,
            streaming_pipeline(4, Bandwidth(120.0)),
        ),
        (
            "oversubscribed 2-stream",
            cfg.oversub_mesh,
            oversubscribed(cfg.clock),
        ),
    ];

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut gap_tables = Vec::new();
    let mut failures = 0;
    for (name, mesh, graph) in &workloads {
        let cmp = compare_fabrics(graph, *mesh, cfg.clock, cfg.cycles, seed)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        rows_for(name, &cmp, &mut rows);
        // The four-way frontier ordering, measured and exit-code enforced:
        // circuit <= hybrid <= whichever of deflection/packet is cheaper.
        let ordered = cmp.hybrid_between_endpoints()
            && cmp.hybrid.energy.value()
                <= cmp.deflection.energy.value().min(cmp.packet.energy.value());
        if !ordered {
            println!(
                "!! {name}: frontier ordering violated: circuit {} <= hybrid {} \
                 <= min(deflection {}, packet {})",
                cmp.circuit.energy, cmp.hybrid.energy, cmp.deflection.energy, cmp.packet.energy,
            );
            failures += 1;
        }
        let deflection_max_latency = cmp
            .deflection
            .streams
            .iter()
            .filter_map(|s| s.latency.max())
            .max();
        if *name == "oversubscribed 2-stream" {
            // The hotspot forces misroutes: the deflection telemetry must
            // show them, and age-ordered arbitration must still bound the
            // worst word's service latency to (well under) one offered-load
            // window — livelock would blow straight through this.
            if cmp.max_deflections() == 0 {
                println!("!! {name}: the hotspot must force deflections");
                failures += 1;
            }
            match deflection_max_latency {
                Some(max) if max < cfg.cycles => {}
                got => {
                    println!(
                        "!! {name}: deflection worst-case latency {got:?} not \
                         bounded by the {}-cycle offered window",
                        cfg.cycles
                    );
                    failures += 1;
                }
            }
        } else {
            // No contention hotspot: the bufferless mesh pays no FIFO
            // energy and must land strictly below the ungated baseline.
            if cmp.deflection.energy.value() >= cmp.packet.energy.value() {
                println!(
                    "!! {name}: deflection {} must beat the ungated packet {}",
                    cmp.deflection.energy, cmp.packet.energy
                );
                failures += 1;
            }
        }
        if *name == "oversubscribed 2-stream" {
            if cmp.hybrid.spilled_words == 0 {
                println!("!! {name}: expected a nonzero spillover count");
                failures += 1;
            }
            // The per-connection QoS gate: on the workload that actually
            // exercises both planes, every GT (circuit) stream's p95
            // service latency must sit at or below every BE (spilled)
            // stream's p95 — otherwise the hybrid is not delivering the
            // guarantee its circuits exist for.
            gap_tables.push(stream_gap_table(name, &cmp.hybrid));
            if !cmp.hybrid.gt_no_worse_than_be() {
                println!(
                    "!! {name}: GT p95 {} exceeds BE p95 {} — the circuit \
                     plane is serving worse than its own spillover",
                    fmt_p95(cmp.hybrid.worst_p95(StreamPlane::Circuit)),
                    fmt_p95(cmp.hybrid.best_p95(StreamPlane::Spilled)),
                );
                failures += 1;
            }
        }
        ratios.push((
            name.to_string(),
            cmp.energy_ratio(),
            cmp.hybrid_energy_ratio(),
            cmp.deflection_energy_ratio(),
            cmp.max_deflections(),
            cmp.hybrid.spilled_streams,
            ordered,
            (
                cmp.hybrid.worst_p95(StreamPlane::Circuit),
                cmp.hybrid.best_p95(StreamPlane::Spilled),
            ),
        ));
    }

    println!(
        "{}",
        tables::render(
            &[
                "Workload",
                "Fabric",
                "Words delivered",
                "Min frac",
                "Spilled words",
                "Dyn [uW]",
                "Energy [uJ]",
                "fJ/bit",
            ],
            &rows
        )
    );

    for table in &gap_tables {
        println!("\n{table}");
    }

    println!("\nTotal-energy ratios per workload (vs circuit / hybrid / deflection),");
    println!("with the hybrid's GT/BE service gap (worst circuit p95 / best spilled p95):");
    for (name, rc, rh, rd, maxd, spilled, ordered, (gt, be)) in &ratios {
        println!(
            "  {name:<24} pkt/circuit {rc:.2}x   pkt/hybrid {rh:.2}x   \
             pkt/deflection {rd:.2}x   max deflections {maxd}   \
             spilled streams {spilled}   GT p95 {:>4}   BE p95 {:>4}   \
             frontier ordered: {}",
            fmt_p95(*gt),
            fmt_p95(*be),
            if *ordered { "yes" } else { "VIOLATED" }
        );
    }
    failures += policy_gate(&cfg);
    failures += chiplet_parity_gate(&cfg);

    println!(
        "\n(The paper's single-router Fig. 9 headline is ~3.5x for Scenario IV.\n\
         The hybrid lands between the endpoints because admitted streams ride\n\
         circuits while its packet plane — clock-gated, mostly idle — only\n\
         wakes for the spillover; the circuit endpoint of an oversubscribed\n\
         workload delivers the admitted GT subset only. The bufferless\n\
         deflection mesh must beat the ungated packet baseline on every\n\
         uncontended workload (no FIFOs to clock), and on the hotspot it\n\
         must show nonzero deflections with worst-case latency bounded by\n\
         the offered window — all enforced by exit code, as is the GT/BE\n\
         p95 ordering: circuits must serve their streams no worse than the\n\
         spillover plane serves its.)"
    );
    if failures > 0 {
        // Non-zero exit so the CI smoke step can't silently rot.
        std::process::exit(1);
    }
}
