//! Reproducibility: identical seeds give identical results, independent of
//! parallelism — the property every number in EXPERIMENTS.md rests on.
//! Parallelism here means the persistent `noc_sim::par::WorkerPool`: every
//! [`ParPolicy`] must be invisible in payload, activity and energy.

use noc_exp::testbench::CircuitScenarioBench;
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
/// two-plane stepping (`par_join`) with real spillover traffic.
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
/// fleet-level worker-pool fan-out.
#[test]
fn restored_fleet_replay_reproduces_the_slo_report() {
    use noc_apps::workload::PhaseProfile;
    use noc_exp::fleet::{Fleet, TenantSpec};

    let specs: Vec<TenantSpec> = (0..6)
        .map(|i| {
            TenantSpec::new(
                format!("det-{i}"),
                noc_apps::synthetic::streaming_pipeline(2 + i % 2, Bandwidth(50.0)),
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

/// Exact circuit-router activity, component by component and class by
/// class, with and without the clock gating of inactive lanes. A seeded
/// HiperLAN/2 deployment on a 4×4 circuit mesh runs offered load, drains
/// one circuit away mid-run (teardown reconfigures live routers) and runs
/// on. Every count of `Fabric::activity()` must match the recorded table,
/// so a change to how the router latches or accounts its registers, link
/// wires, converters or flow control cannot move a single event
/// unnoticed, gated or not.
#[test]
fn circuit_activity_is_pinned_with_and_without_clock_gating() {
    use noc_sim::activity::{ActivityClass, ComponentKind};
    // Counts in `ActivityClass::ALL` order: RegClock, RegToggle,
    // WireToggle, LinkToggle, BufferWrite, BufferRead, ArbiterEval,
    // ArbiterGrantChange, SelectToggle, ConfigWrite, Handshake.
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
    let graph = noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
    let run = |clock_gating: bool| {
        let mut dep = Deployment::builder(&graph)
            .mesh(4, 4)
            .clock(MegaHertz(200.0))
            .seed(0xAC71)
            .router_params(RouterParams {
                clock_gating,
                ..RouterParams::paper()
            })
            .build()
            .expect("HiperLAN/2 fits a 4x4 circuit mesh");
        dep.run(2000);
        let drained = dep.fabric().stream_stats()[0].id;
        dep.stop_traffic(drained);
        dep.fabric_mut()
            .release(drained, ReleaseMode::Drain)
            .expect("live stream releases");
        dep.run(2000);
        dep.fabric()
            .activity()
            .into_iter()
            .map(|c| {
                let mut counts = [0u64; 11];
                for (slot, &class) in counts.iter_mut().zip(&ActivityClass::ALL) {
                    *slot = c.ledger.get(class);
                }
                (c.kind, counts)
            })
            .collect::<Vec<_>>()
    };
    // Ungated, all 100 crossbar register bits of all 16 routers clock on
    // each of the 4000 cycles; gated, only the configured lanes do.
    assert_eq!(run(false), expected(6_400_000), "ungated activity moved");
    assert_eq!(run(true), expected(280_130), "gated activity moved");
}
