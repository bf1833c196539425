//! Reproducibility: identical seeds give identical results, independent of
//! parallelism — the property every number in EXPERIMENTS.md rests on.
//! Parallelism here means the persistent `noc_sim::par::WorkerPool`: every
//! [`ParPolicy`] must be invisible in payload, activity and energy.

use noc_exp::testbench::CircuitScenarioBench;
use noc_sim::activity::{ActivityClass, ComponentKind};
use rcs_noc::prelude::*;

#[test]
fn scenario_bench_bitwise_reproducible() {
    let run = || {
        let mut bench = CircuitScenarioBench::new(
            RouterParams::paper(),
            Scenario::IV,
            DataPattern::Random,
            1.0,
        );
        bench.run(2000)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn fig10_points_stable_across_runs() {
    let a = noc_exp::fig10::fig10();
    let b = noc_exp::fig10::fig10();
    assert_eq!(a, b);
}

#[test]
fn soc_results_independent_of_thread_count() {
    let build = |threads: Option<usize>| {
        let mut soc = Soc::new(Mesh::new(4, 4), RouterParams::paper());
        match threads {
            None => soc.set_parallelism(ParPolicy::Sequential),
            Some(n) => soc.set_parallelism(ParPolicy::Threads(n)),
        }
        let a = soc.mesh().node(0, 0);
        let b = soc.mesh().node(3, 3);
        // A long diagonal circuit: (0,0) east x3 then south x3 to (3,3).
        soc.router_mut(a)
            .connect(Port::Tile, 0, Port::East, 0)
            .unwrap();
        for x in 1..3 {
            let n = soc.mesh().node(x, 0);
            soc.router_mut(n)
                .connect(Port::West, 0, Port::East, 0)
                .unwrap();
        }
        let corner = soc.mesh().node(3, 0);
        soc.router_mut(corner)
            .connect(Port::West, 0, Port::South, 0)
            .unwrap();
        for y in 1..3 {
            let n = soc.mesh().node(3, y);
            soc.router_mut(n)
                .connect(Port::North, 0, Port::South, 0)
                .unwrap();
        }
        soc.router_mut(b)
            .connect(Port::North, 0, Port::Tile, 0)
            .unwrap();
        soc.tiles_mut()
            .bind_source(a.0, 0, DataPattern::Random, 99, 1.0, 5);
        soc.run(3000);
        (
            soc.tiles().rx(b.0, 0).received,
            soc.tiles().rx(b.0, 0).last_word,
            soc.total_activity(),
        )
    };
    let serial = build(None);
    let two = build(Some(2));
    let eight = build(Some(8));
    assert_eq!(serial, two);
    assert_eq!(serial, eight);
    assert!(serial.0 > 400, "diagonal stream must flow: {}", serial.0);
}

/// Same seed ⇒ bit-identical delivered words and energy, for every
/// `FabricKind` — circuit, hybrid, deflection and packet — across
/// independent runs.
/// The workload oversubscribes the circuit lanes so the hybrid's spillover
/// path (and its spill accounting) is inside the reproducibility contract.
#[test]
fn all_fabric_kinds_reproducible_from_seed() {
    let graph = {
        let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
        noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity())
    };
    let run = |kind: FabricKind| {
        let mut dep = Deployment::builder(&graph)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(0xD1CE)
            .spill(true)
            .fabric(kind)
            .build()
            .expect("spill admission deploys on every backend");
        dep.keep_payload(true);
        dep.run(2500);
        dep.settle(2500);
        let model = dep.energy_model();
        let payload: Vec<Vec<u16>> = dep
            .fabric()
            .mesh()
            .iter()
            .map(|n| dep.payload_at(n).to_vec())
            .collect();
        (
            payload,
            dep.total_injected(),
            dep.total_delivered(),
            dep.fabric().spilled_words(),
            dep.total_energy(&model).value().to_bits(),
            // Per-stream telemetry — word counts *and* full latency
            // distributions — is inside the reproducibility contract.
            dep.fabric().stream_stats(),
        )
    };
    for kind in FabricKind::ALL {
        let a = run(kind);
        let b = run(kind);
        assert_eq!(a, b, "{kind} diverged between identically seeded runs");
        if kind != FabricKind::Circuit {
            assert!(a.2 > 0, "{kind} delivered nothing");
        }
        // Stream sums must bit-match the node-level totals.
        let stream_sum: u64 = a.5.iter().map(|s| s.delivered_words).sum();
        assert_eq!(stream_sum, a.2, "{kind}: stream accounting diverges");
    }
    // And the hybrid actually exercised its spillover plane here.
    assert!(
        run(FabricKind::Hybrid).3 > 0,
        "premise: the light edge spills"
    );
}

/// The pool-correctness contract at deployment level: for every
/// `FabricKind`, running the same seeded workload under
/// `ParPolicy::Sequential`, `Threads(2)` and `Auto` yields bit-identical
/// per-node delivered payload and bit-identical total energy. The workload
/// oversubscribes the circuit lanes so the hybrid exercises its concurrent
/// two-plane stepping (one `par_for_each_sized` fork of its planes) with
/// real spillover traffic.
#[test]
fn all_policies_bit_identical_payload_and_energy() {
    let graph = {
        let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
        noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity())
    };
    let run = |kind: FabricKind, policy: ParPolicy| {
        let mut dep = Deployment::builder(&graph)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(0xB00C)
            .spill(true)
            .fabric(kind)
            .parallelism(policy)
            .build()
            .expect("spill admission deploys on every backend");
        dep.keep_payload(true);
        dep.run(2000);
        dep.settle(2500);
        let model = dep.energy_model();
        let payload: Vec<Vec<u16>> = dep
            .fabric()
            .mesh()
            .iter()
            .map(|n| dep.payload_at(n).to_vec())
            .collect();
        (
            payload,
            dep.total_injected(),
            dep.total_delivered(),
            dep.fabric().spilled_words(),
            dep.total_energy(&model).value().to_bits(),
            // Per-stream latency histograms must be policy-invariant too:
            // pooled stepping may never shift a single word's timing.
            dep.fabric().stream_stats(),
        )
    };
    for kind in FabricKind::ALL {
        let sequential = run(kind, ParPolicy::Sequential);
        let pooled = run(kind, ParPolicy::Threads(2));
        let auto = run(kind, ParPolicy::Auto);
        assert_eq!(
            sequential, pooled,
            "{kind}: Threads(2) diverged from Sequential"
        );
        assert_eq!(sequential, auto, "{kind}: Auto diverged from Sequential");
        if kind != FabricKind::Circuit {
            assert!(sequential.2 > 0, "{kind} delivered nothing");
        }
    }
}

/// The phased lifecycle is inside the reproducibility contract: for every
/// `FabricKind` × [`ProvisionMode`], a deployment that cold-starts, runs
/// offered load, drain-releases one stream mid-run and keeps going yields
/// bit-identical payload, telemetry and energy across `ParPolicy`s and
/// across identically seeded repeat runs. (Cold-start reconfiguration
/// charges and drain completion timing must never depend on the worker
/// pool.)
#[test]
fn provision_modes_and_drain_release_are_policy_invariant() {
    let graph = {
        let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
        noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity())
    };
    let run = |kind: FabricKind, mode: ProvisionMode, policy: ParPolicy| {
        let mut dep = Deployment::builder(&graph)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(0xDA1)
            .spill(true)
            .fabric(kind)
            .provisioning(mode)
            .parallelism(policy)
            .build()
            .expect("spill admission deploys on every backend");
        dep.run(1200);
        // Mid-run: drain-release the first stream loss-free, stop
        // offering it traffic, and run the rest of the window.
        let id = dep.fabric().stream_stats()[0].id;
        dep.stop_traffic(id);
        dep.fabric_mut()
            .release(id, ReleaseMode::Drain)
            .expect("live streams drain");
        dep.run(1200);
        dep.settle(2500);
        let model = dep.energy_model();
        (
            dep.total_injected(),
            dep.total_delivered(),
            dep.total_energy(&model).value().to_bits(),
            dep.fabric().stream_stats(),
        )
    };
    for kind in FabricKind::ALL {
        for mode in [ProvisionMode::Instant, ProvisionMode::BeDelivered] {
            let sequential = run(kind, mode, ParPolicy::Sequential);
            let pooled = run(kind, mode, ParPolicy::Threads(2));
            let auto = run(kind, mode, ParPolicy::Auto);
            assert_eq!(
                sequential, pooled,
                "{kind}/{mode}: Threads(2) diverged from Sequential"
            );
            assert_eq!(sequential, auto, "{kind}/{mode}: Auto diverged");
            let repeat = run(kind, mode, ParPolicy::Sequential);
            assert_eq!(sequential, repeat, "{kind}/{mode}: seeded rerun diverged");
            // The drained stream lost nothing and its teardown finalised.
            let drained = &sequential.3[0];
            assert_eq!(
                drained.delivered_words, drained.injected_words,
                "{kind}/{mode}: drain lost words"
            );
            assert!(!drained.active, "{kind}/{mode}: drain never finalised");
            // Cold starts charge reconfiguration on circuit streams only.
            let circuit_streams = sequential
                .3
                .iter()
                .filter(|s| s.plane == StreamPlane::Circuit)
                .count();
            if mode == ProvisionMode::BeDelivered && circuit_streams > 0 {
                assert!(
                    sequential
                        .3
                        .iter()
                        .filter(|s| s.plane == StreamPlane::Circuit)
                        .all(|s| s.reconfig_cycles > 0),
                    "{kind}: BeDelivered must charge every circuit stream"
                );
            }
            if mode == ProvisionMode::Instant {
                assert!(
                    sequential.3.iter().all(|s| s.reconfig_cycles == 0),
                    "{kind}: Instant provisioning charges nothing"
                );
            }
        }
    }
}

#[test]
fn mapping_is_deterministic() {
    let graph = noc_apps::umts::task_graph(&UmtsParams::paper_example());
    let mesh = Mesh::new(4, 4);
    let params = RouterParams::paper();
    let soc = Soc::new(mesh, params);
    let kinds: Vec<TileKind> = mesh.iter().map(|n| soc.tiles().kind(n.0)).collect();
    let ccn = Ccn::new(mesh, params, MegaHertz(100.0));
    let a = ccn.map(&graph, &kinds).unwrap();
    let b = ccn.map(&graph, &kinds).unwrap();
    assert_eq!(a, b);
}

/// A fleet restored from a mid-run snapshot must reproduce the original
/// run's aggregate SLO report bit-for-bit — checkpoints are invisible in
/// results, across mixed backends, phase-shifting workloads and the
/// fleet-level worker-pool fan-out. Besides six small pipelines, the
/// census carries the oversubscribed 3×1 line at 25 MHz on the hybrid and
/// the deflection fabric (its light stream spills onto the BE plane, and
/// its circuits are configured over the BE network, so they wait a §5.1
/// admission latency) and a six-stage pipeline whose placement crosses
/// the borders of a 2×2 chiplet grid. So the report's GT p95, BE p95 and
/// admission latency are all measured, not vacuous.
#[test]
fn restored_fleet_replay_reproduces_the_slo_report() {
    use noc_apps::synthetic::{oversubscribed_line, streaming_pipeline};
    use noc_apps::workload::PhaseProfile;
    use noc_exp::fleet::{Fleet, TenantSpec};

    let mut specs: Vec<TenantSpec> = (0..6)
        .map(|i| {
            TenantSpec::new(
                format!("det-{i}"),
                streaming_pipeline(2 + i % 2, Bandwidth(50.0)),
            )
            .mesh(3, 3)
            .seed(0xD1CE ^ i as u64)
            .fabric(FabricKind::ALL[i % FabricKind::ALL.len()])
            .workload(match i % 3 {
                0 => PhaseProfile::Steady,
                1 => PhaseProfile::BurstyOnOff {
                    period: 256,
                    on: 192,
                },
                _ => PhaseProfile::HotspotFlip {
                    period: 128,
                    background: 0.25,
                },
            })
        })
        .collect();
    let lane = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0)).lane_capacity();
    for kind in [FabricKind::Hybrid, FabricKind::Deflection] {
        specs.push(
            TenantSpec::new(
                format!("det-oversubscribed-{kind}"),
                oversubscribed_line(lane),
            )
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(0xD1CE ^ 0x0F)
            .fabric(kind)
            .spill(true)
            .provisioning(ProvisionMode::BeDelivered),
        );
    }
    specs.push(
        TenantSpec::new("det-chiplet", streaming_pipeline(6, Bandwidth(60.0)))
            .mesh(4, 4)
            .seed(0xD1CE ^ 0x10)
            .fabric(FabricKind::Hybrid)
            .chiplets(2, 2)
            .workload(PhaseProfile::DiurnalRamp {
                period: 512,
                floor: 0.3,
            }),
    );
    let build = || {
        let mut fleet = Fleet::new(64);
        for spec in &specs {
            fleet.admit(spec).expect("feasible tenants admit");
        }
        fleet
    };

    // The uninterrupted run, checkpointed halfway through.
    let mut original = build();
    original.run_batches(4);
    let checkpoint = original.snapshot();
    original.run_batches(4);
    assert!(original.retire_all(200), "the fleet settles to quiescence");
    let report = original.slo_report();
    assert!(report.loss_free(), "zero payload loss: {report:?}");
    assert!(
        report.worst_gt_p95.is_some(),
        "GT p95 unmeasured: {report:?}"
    );
    assert!(
        report.worst_be_p95.is_some(),
        "BE p95 unmeasured: {report:?}"
    );
    assert!(
        report.max_admission_latency > 0,
        "no BE-delivered cold start charged an admission latency: {report:?}"
    );
    // Best-effort service is every non-circuit stream: spilled ones on a
    // hybrid and every stream of a packet or deflection tenant.
    for tenant in original.tenants() {
        let best_effort = tenant
            .deployment()
            .fabric()
            .stream_stats()
            .iter()
            .any(|s| s.plane != StreamPlane::Circuit && s.delivered_words > 0);
        assert!(
            !best_effort || tenant.slo().be_p95.is_some(),
            "{} delivered best-effort words but reports no BE p95",
            tenant.name()
        );
    }

    // A fresh fleet from the same specs, resumed from the checkpoint.
    let mut replay = build();
    replay.restore(&checkpoint).expect("same census restores");
    replay.run_batches(4);
    assert!(replay.retire_all(200));
    assert_eq!(
        replay.slo_report(),
        report,
        "the restored replay's SLO report diverged"
    );
}

/// `Fabric::activity()` as exact event counts, component by component, in
/// `ActivityClass::ALL` order: RegClock, RegToggle, WireToggle,
/// LinkToggle, BufferWrite, BufferRead, ArbiterEval, ArbiterGrantChange,
/// SelectToggle, ConfigWrite, Handshake.
type ActivityTable = Vec<(ComponentKind, [u64; 11])>;

/// `fabric`'s [`ActivityTable`].
fn activity_counts<F: Fabric + ?Sized>(fabric: &F) -> ActivityTable {
    fabric
        .activity()
        .into_iter()
        .map(|c| {
            let mut counts = [0u64; 11];
            for (slot, &class) in counts.iter_mut().zip(&ActivityClass::ALL) {
                *slot = c.ledger.get(class);
            }
            (c.kind, counts)
        })
        .collect()
}

/// The seeded HiperLAN/2 run behind the activity pins: a 4×4 mesh at
/// 200 MHz runs 2000 cycles of offered load, drains stream 0 away
/// mid-run (on the circuit plane, teardown reconfigures live routers)
/// and runs 2000 cycles more. Returns the exact activity table.
fn hiperlan2_drain_activity(kind: FabricKind, router_params: RouterParams) -> ActivityTable {
    let graph = noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
    let mut dep = Deployment::builder(&graph)
        .mesh(4, 4)
        .clock(MegaHertz(200.0))
        .seed(0xAC71)
        .router_params(router_params)
        .fabric(kind)
        .build()
        .expect("HiperLAN/2 fits a 4x4 mesh on every backend");
    dep.run(2000);
    let drained = dep.fabric().stream_stats()[0].id;
    dep.stop_traffic(drained);
    dep.fabric_mut()
        .release(drained, ReleaseMode::Drain)
        .expect("live stream releases");
    dep.run(2000);
    activity_counts(dep.fabric())
}

/// Exact circuit-router activity, component by component and class by
/// class, with and without the clock gating of inactive lanes, on the
/// seeded HiperLAN/2 drain run. Every count of `Fabric::activity()` must
/// match the recorded table, so a change to how the router latches or
/// accounts its registers, link wires, converters or flow control cannot
/// move a single event unnoticed, gated or not.
#[test]
fn circuit_activity_is_pinned_with_and_without_clock_gating() {
    const FLOW: [u64; 11] = [2048000, 14020, 0, 0, 0, 0, 0, 0, 0, 0, 1714];
    const CONFIG: [u64; 11] = [0, 0, 0, 0, 0, 0, 0, 0, 27, 27, 0];
    const CONVERTER: [u64; 11] = [11776000, 248497, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    const LINK: [u64; 11] = [0, 0, 0, 46894, 0, 0, 0, 0, 0, 0, 0];
    let expected = |crossbar_clocks: u64| {
        vec![
            (
                ComponentKind::Crossbar,
                [crossbar_clocks, 85342, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
            (ComponentKind::ConfigMemory, CONFIG),
            (ComponentKind::DataConverter, CONVERTER),
            (ComponentKind::FlowControl, FLOW),
            (ComponentKind::Link, LINK),
        ]
    };
    let run = |clock_gating: bool| {
        hiperlan2_drain_activity(
            FabricKind::Circuit,
            RouterParams {
                clock_gating,
                ..RouterParams::paper()
            },
        )
    };
    // Ungated, all 100 crossbar register bits of all 16 routers clock on
    // each of the 4000 cycles; gated, only the configured lanes do.
    assert_eq!(run(false), expected(6_400_000), "ungated activity moved");
    assert_eq!(run(true), expected(280_130), "gated activity moved");
}

/// Exact activity of the packet-switched planes, component by component
/// and class by class: the buffered wormhole mesh and the bufferless
/// deflection mesh on the seeded HiperLAN/2 drain run, and the hybrid on
/// the oversubscribed 3×1 line, whose light stream spills onto the
/// clock-gated packet plane. Any change to how the VC or deflection
/// routers latch, arbitrate, buffer or account an event — idle fast path
/// and clock gating included — moves a count here.
#[test]
fn packet_plane_activity_is_pinned() {
    let packet = hiperlan2_drain_activity(FabricKind::Packet, RouterParams::paper());
    let deflection = hiperlan2_drain_activity(FabricKind::Deflection, RouterParams::paper());
    let hybrid = {
        let graph = {
            let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
            noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity())
        };
        let mut dep = Deployment::builder(&graph)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(0xD1CE)
            .spill(true)
            .fabric(FabricKind::Hybrid)
            .build()
            .expect("spill admission deploys on the hybrid");
        dep.run(2500);
        dep.settle(2500);
        assert!(
            dep.fabric().spilled_words() > 0,
            "premise: the gated packet plane carries words"
        );
        activity_counts(dep.fabric())
    };
    assert_eq!(
        packet,
        vec![
            (
                ComponentKind::Buffering,
                [101120000, 0, 0, 0, 67101, 70584, 0, 0, 0, 0, 0]
            ),
            (
                ComponentKind::Arbitration,
                [18240000, 2855, 0, 0, 0, 0, 16494, 1422, 0, 0, 0]
            ),
            (
                ComponentKind::Crossbar,
                [6720000, 69426, 0, 0, 0, 0, 0, 0, 1147, 0, 0]
            ),
            (ComponentKind::Routing, [0, 0, 1896, 0, 0, 0, 0, 0, 0, 0, 0]),
            (
                ComponentKind::FlowControl,
                [1280000, 945, 0, 0, 0, 0, 0, 0, 0, 0, 4420]
            ),
            (ComponentKind::Link, [0, 0, 0, 42790, 0, 0, 0, 0, 0, 0, 0]),
        ],
        "packet-mesh activity moved"
    );
    assert_eq!(
        deflection,
        vec![
            (
                ComponentKind::Crossbar,
                [20480000, 349164, 0, 0, 0, 0, 0, 0, 18674, 0, 0]
            ),
            (
                ComponentKind::Arbitration,
                [0, 0, 0, 0, 0, 0, 7693, 0, 0, 0, 0]
            ),
            (
                ComponentKind::Routing,
                [0, 0, 30772, 0, 0, 0, 0, 0, 0, 0, 0]
            ),
            (ComponentKind::Buffering, [0; 11]),
            (ComponentKind::Link, [0, 0, 0, 193554, 0, 0, 0, 0, 0, 0, 0]),
        ],
        "deflection-mesh activity moved"
    );
    assert_eq!(
        hybrid,
        vec![
            (
                ComponentKind::Crossbar,
                [903747, 56296, 0, 0, 0, 0, 0, 0, 590, 0, 0]
            ),
            (
                ComponentKind::ConfigMemory,
                [0, 0, 0, 0, 0, 0, 0, 0, 13, 13, 0]
            ),
            (
                ComponentKind::DataConverter,
                [1538976, 102082, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            ),
            (
                ComponentKind::FlowControl,
                [270855, 6154, 0, 0, 0, 0, 0, 0, 0, 0, 2742]
            ),
            (ComponentKind::Link, [0, 0, 0, 34386, 0, 0, 0, 0, 0, 0, 0]),
            (
                ComponentKind::Buffering,
                [0, 0, 0, 0, 25317, 26154, 0, 0, 0, 0, 0]
            ),
            (
                ComponentKind::Arbitration,
                [36940, 1072, 0, 0, 0, 0, 6240, 534, 0, 0, 0]
            ),
            (ComponentKind::Routing, [0, 0, 720, 0, 0, 0, 0, 0, 0, 0, 0]),
        ],
        "hybrid activity moved"
    );
}
