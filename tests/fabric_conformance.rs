//! The backend contract: a reusable conformance suite every [`Fabric`]
//! implementation must pass.
//!
//! `conformance(mk)` takes a constructor for a *fresh, unprovisioned*
//! fabric over a 2×2 mesh and exercises the trait's behavioural contract:
//!
//! 1. **Payload integrity** — words injected on a provisioned stream
//!    session are delivered through `drain_stream` exactly, in order
//!    (single stream, so ordering is well-defined on every discipline);
//! 2. **Provision replacement** — `provision` is idempotent: a second call
//!    with the same mapping must not duplicate streams, returns the same
//!    handles, and streams flow exactly as if provisioned once;
//! 3. **Energy monotonicity** — `total_energy` never decreases as `step`
//!    advances (activity only accumulates, static power only integrates);
//! 4. **Quiescence honesty** — after the stream settles, every node drains
//!    empty, the fabric reports quiescent, and nothing was lost
//!    (`total_overflows() == 0`);
//! 5. **Stream telemetry** — `stream_stats` accounts every word: per-stream
//!    injected/delivered sums cover everything offered, every delivered
//!    word carries a latency sample, and the telemetry survives
//!    `clear_activity` (which windows energy, not service accounting);
//! 6. **Stream lifecycle** — `release(.., ReleaseMode::Drop)` + `admit`
//!    round-trips: a released session's demand is re-admitted onto an
//!    equivalent route and the new session delivers; injecting on the
//!    released handle panics;
//! 7. **Draining release** — `release(.., ReleaseMode::Drain)` under
//!    active injection loses nothing: every accepted word is delivered,
//!    injection is refused the moment the drain starts, and the teardown
//!    finalises (the stream reports inactive) once the pipeline is empty;
//! 8. **BE-delivered cold start** — `provision_with(..,
//!    ProvisionMode::BeDelivered)` charges the §5.1 configuration
//!    delivery to each circuit stream's `reconfig_cycles` and to the
//!    measured latency of words injected before readiness (backends with
//!    no router configuration — the pure packet fabric and the bufferless
//!    deflection mesh — charge zero);
//! 9. **Snapshot/restore** — a mid-run `snapshot()` restored into a
//!    fresh fabric of the same backend and stepped to settlement is
//!    bit-identical to the uninterrupted original: same delivered tail,
//!    same telemetry, same energy bits. Checkpointing must be invisible
//!    in results, exactly like pooled stepping;
//! 10. **Lifecycle errors** — releasing a never-issued handle, or one
//!     already released, fails with `AdmitError::UnknownStream(id)`;
//!     releasing a drain in progress fails with `AdmitError::Draining(id)`;
//!     `stream_is_active` reads `None` for a never-issued handle,
//!     `Some(true)` while draining and `Some(false)` after the teardown;
//!     and `drain_stream` still collects on a closed handle;
//! 11. **Malformed demands** — `admit` refuses a NaN, infinite or
//!     negative bandwidth with `AdmitError::InvalidDemand` and issues no
//!     handle for it, `can_admit_circuit` reads `false` for it, and a
//!     zero demand is admitted.
//!
//! The suite is instantiated for all four backends — the circuit-switched
//! `Soc`, the `PacketFabric` baseline, the `HybridFabric`, and the
//! bufferless `DeflectionFabric` — plus a boxed fabric and a policy-driven
//! `FabricController` wrapping the hybrid, so a future backend only needs
//! one new `#[test]` here.
//! Each backend additionally runs the whole suite under every [`ParPolicy`]
//! (sequential, an explicit two-lane pool, and `Auto`): pooled stepping on
//! the persistent `noc_sim::par::WorkerPool` is part of the behavioural
//! contract and must be invisible in results — the drain and cold-start
//! phases return their delivered words and full telemetry, and the suite
//! asserts they are **bit-identical across policies**.
//!
//! `hybrid_releases_a_circuit_and_readmits_the_spilled_stream` goes
//! further: on the oversubscribed workload it frees a circuit mid-run and
//! re-admits the previously spilled stream onto the circuit plane, with
//! the BE-network reconfiguration wait visibly charged to the stream's
//! measured latency.

use noc_mesh::stream::{StreamPlane, StreamStats};
use rcs_noc::prelude::*;

/// The standard conformance workload: one 60 Mbit/s stream between two
/// processes, mapped by the CCN onto a 2×2 mesh at 100 MHz.
fn standard_mapping(mesh: Mesh) -> Mapping {
    let mut g = TaskGraph::new("conformance");
    let a = g.add_process("a");
    let b = g.add_process("b");
    g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
    let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
    ccn.map(&g, &noc_mesh::tile::default_tile_kinds(&mesh))
        .expect("a single stream maps on any mesh")
}

/// Drive the fabric until stream `id` stops delivering; returns everything
/// it received, in order.
fn settle_stream<F: Fabric>(fabric: &mut F, id: StreamId) -> Vec<u16> {
    fabric.finish_injection();
    let mut delivered = Vec::new();
    let mut idle = 0;
    let mut guard = 0;
    while idle < 8 {
        fabric.run(32);
        let fresh = fabric.drain_stream(id);
        if fresh.is_empty() {
            idle += 1;
        } else {
            idle = 0;
            delivered.extend(fresh);
        }
        guard += 1;
        assert!(guard < 1000, "stream never settled");
    }
    delivered
}

/// The telemetry entry for `id`.
fn stats_of<F: Fabric>(fabric: &F, id: StreamId) -> StreamStats {
    fabric
        .stream_stats()
        .into_iter()
        .find(|s| s.id == id)
        .expect("served streams appear in stream_stats")
}

/// Every policy the suite re-runs under: parallel evaluation on the
/// persistent worker pool must never change behaviour.
const POLICIES: [ParPolicy; 3] = [
    ParPolicy::Sequential,
    ParPolicy::Threads(2),
    ParPolicy::Auto,
];

/// Everything the phased-lifecycle sections of one conformance pass
/// produce — delivered words plus full telemetry — compared bit-for-bit
/// across evaluation policies: pooled stepping may never shift a drain's
/// completion or a cold start's delivery by a single cycle.
#[derive(Debug, PartialEq)]
struct LifecycleFingerprint {
    drain_delivered: Vec<u16>,
    drain_stats: StreamStats,
    cold_delivered: Vec<u16>,
    cold_stats: StreamStats,
    restored_tail: Vec<u16>,
    restored_stats: StreamStats,
}

/// The conformance suite. `mk` builds a fresh fabric over
/// [`Mesh::new(2, 2)`]; the whole contract is exercised once per
/// [`ParPolicy`] (each constructed fabric gets the policy applied through
/// the `Fabric::set_parallelism` knob), and the phased-lifecycle results
/// must be bit-identical across policies.
fn conformance<F: Fabric>(mk: impl Fn() -> F) {
    let mut fingerprints: Vec<(ParPolicy, LifecycleFingerprint)> = Vec::new();
    for policy in POLICIES {
        fingerprints.push((policy, conformance_under(&mk, policy)));
    }
    let (reference_policy, reference) = &fingerprints[0];
    for (policy, fp) in &fingerprints[1..] {
        assert_eq!(
            fp, reference,
            "drain/cold-start lifecycle diverged between {policy:?} and \
             {reference_policy:?}"
        );
    }
}

/// One pass of the behavioural contract under a fixed evaluation policy.
fn conformance_under<F: Fabric>(mk: impl Fn() -> F, policy: ParPolicy) -> LifecycleFingerprint {
    let mk = || {
        let mut fabric = mk();
        fabric.set_parallelism(policy);
        fabric
    };
    let mesh = Mesh::new(2, 2);
    let mapping = standard_mapping(mesh);
    let words: Vec<u16> = (0..96u16)
        .map(|i| i.wrapping_mul(0xACE1) ^ 0x2005)
        .collect();
    let model = EnergyModel::calibrated(MegaHertz(100.0));

    // 1. Payload integrity, stream-addressed end to end.
    let mut fabric = mk();
    assert_eq!(*fabric.mesh(), mesh, "constructor must build the 2x2 mesh");
    let ids = fabric.provision(&mapping).expect("mapping is legal");
    assert_eq!(ids.len(), 1, "one NoC stream in the standard mapping");
    let id = ids[0];
    assert_eq!(
        fabric.inject_stream(id, &words),
        words.len(),
        "all words accepted"
    );
    let delivered = settle_stream(&mut fabric, id);
    assert_eq!(delivered, words, "{}: payload integrity", fabric.kind());

    // 4a. Quiescence honesty on the same run: everything already drained,
    // the session drains empty, nothing was lost.
    assert!(
        fabric.drain_stream(id).is_empty(),
        "{}: residue on the session after settle",
        fabric.kind()
    );
    assert!(fabric.is_quiescent(), "{}: not quiescent", fabric.kind());
    assert_eq!(
        fabric.total_overflows(),
        0,
        "{}: lost payload",
        fabric.kind()
    );

    // 5a. Stream telemetry accounts every word, with a latency sample per
    // delivered word — and survives clear_activity (energy windows must
    // not erase service accounting).
    let stats = stats_of(&fabric, id);
    assert_eq!(stats.injected_words, words.len() as u64);
    assert_eq!(stats.delivered_words, words.len() as u64);
    assert_eq!(stats.latency.count(), words.len() as u64);
    assert!(stats.active);
    assert!(
        stats.latency.min().unwrap() > 0,
        "delivery is never instant"
    );
    assert!(stats.latency.p50() <= stats.latency.p95());
    assert_eq!(
        stats.max_deflections,
        0,
        "{}: an uncontended single stream must never be deflected",
        fabric.kind()
    );
    fabric.clear_activity();
    assert_eq!(
        stats_of(&fabric, id),
        stats,
        "{}: clear_activity must not touch stream telemetry",
        fabric.kind()
    );

    // 5b. Accounting closure: per-stream injected/delivered sums cover
    // exactly what the run offered — telemetry is a partition of the
    // traffic, with nothing double-counted and nothing missing.
    let per_stream: u64 = fabric
        .stream_stats()
        .iter()
        .map(|s| s.delivered_words)
        .sum();
    assert_eq!(
        per_stream,
        words.len() as u64,
        "{}: stream delivered sums must cover the run",
        fabric.kind()
    );
    let injected: u64 = fabric.stream_stats().iter().map(|s| s.injected_words).sum();
    assert_eq!(
        injected,
        words.len() as u64,
        "{}: stream injected sums must cover the run",
        fabric.kind()
    );

    // 2. Provision replacement: provisioning the same mapping twice must
    // behave exactly like provisioning it once — no duplicated streams,
    // no duplicated deliveries, same handles.
    let mut twice = mk();
    let first = twice.provision(&mapping).unwrap();
    let second = twice.provision(&mapping).unwrap();
    assert_eq!(first, second, "re-provision must hand out the same ids");
    twice.inject_stream(second[0], &words);
    let delivered = settle_stream(&mut twice, second[0]);
    assert_eq!(
        delivered,
        words,
        "{}: double provision must not duplicate or reroute",
        twice.kind()
    );

    // 6. Stream lifecycle: release the session, verify the handle is
    // closed for injection but open for telemetry, then re-admit the
    // recorded demand and deliver on the new session.
    let mut live = mk();
    let ids = live.provision(&mapping).unwrap();
    let id = ids[0];
    live.inject_stream(id, &words[..16]);
    let got = settle_stream(&mut live, id);
    assert_eq!(got, &words[..16]);
    live.release(id, ReleaseMode::Drop)
        .expect("live streams release");
    assert!(
        !stats_of(&live, id).active,
        "{}: released stream must report inactive",
        live.kind()
    );
    assert!(
        live.release(id, ReleaseMode::Drop).is_err(),
        "{}: double release must fail",
        live.kind()
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        live.inject_stream(id, &[1]);
    }));
    assert!(
        result.is_err(),
        "{}: injecting on a released stream must panic",
        live.kind()
    );
    let demand = mapping.stream_demand(id).expect("demand recorded");
    let readmitted = live.admit(&demand).expect("freed resources re-admit");
    assert_ne!(readmitted, id, "a new session gets a new handle");
    live.inject_stream(readmitted, &words[..16]);
    let got = settle_stream(&mut live, readmitted);
    assert_eq!(
        got,
        &words[..16],
        "{}: the re-admitted session must deliver",
        live.kind()
    );
    assert_eq!(stats_of(&live, readmitted).delivered_words, 16);

    // 3. Energy monotonicity: sampled along a run with traffic in flight
    // and after it drains, lifetime energy never decreases.
    let mut fabric = mk();
    let ids = fabric.provision(&mapping).unwrap();
    fabric.inject_stream(ids[0], &words);
    fabric.finish_injection();
    let mut last = 0.0;
    for window in 0..12 {
        fabric.run(64);
        let now = fabric.total_energy(&model).value();
        assert!(
            now >= last,
            "{}: energy shrank {last} -> {now} in window {window}",
            fabric.kind()
        );
        last = now;
    }
    assert!(
        last > 0.0,
        "{}: a driven fabric spends energy",
        fabric.kind()
    );

    // 7. Draining release under active injection: zero word loss. The
    // backlog is mostly still queued when the drain starts; every
    // accepted word must land, injection is refused immediately, and the
    // teardown finalises once the pipeline is empty.
    let mut draining = mk();
    let ids = draining.provision(&mapping).unwrap();
    let id = ids[0];
    draining.inject_stream(id, &words);
    draining.run(6); // a few words on the wire, the rest queued
    draining
        .release(id, ReleaseMode::Drain)
        .expect("live streams drain");
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        draining.inject_stream(id, &[1]);
    }));
    assert!(
        refused.is_err(),
        "{}: injection during a drain must panic",
        draining.kind()
    );
    let drain_delivered = settle_stream(&mut draining, id);
    assert_eq!(
        drain_delivered,
        words,
        "{}: a drained release must lose nothing",
        draining.kind()
    );
    let drain_stats = stats_of(&draining, id);
    assert!(
        !drain_stats.active,
        "{}: the deferred teardown must finalise",
        draining.kind()
    );
    assert_eq!(drain_stats.delivered_words, words.len() as u64);
    assert!(
        draining.is_quiescent(),
        "{}: quiescent after the drain",
        draining.kind()
    );
    assert_eq!(draining.total_overflows(), 0);

    // 8. BE-delivered cold start: initial provisioning rides the BE
    // network, so the §5.1 configuration-delivery wait is charged to the
    // stream and to the latency of words injected before readiness.
    let mut cold = mk();
    let ids = cold
        .provision_with(&mapping, ProvisionMode::BeDelivered)
        .expect("BeDelivered provisioning");
    let id = ids[0];
    cold.inject_stream(id, &words[..32]);
    let cold_delivered = settle_stream(&mut cold, id);
    assert_eq!(
        cold_delivered,
        &words[..32],
        "{}: cold start must deliver once configured",
        cold.kind()
    );
    let cold_stats = stats_of(&cold, id);
    if matches!(cold.kind(), FabricKind::Packet | FabricKind::Deflection) {
        assert_eq!(
            cold_stats.reconfig_cycles, 0,
            "a bufferless or wormhole plane has no router configuration to \
             deliver"
        );
    } else {
        assert!(
            cold_stats.reconfig_cycles > 0,
            "{}: circuit cold start pays BE delivery",
            cold.kind()
        );
        assert!(
            cold_stats.latency.min().unwrap() >= cold_stats.reconfig_cycles,
            "{}: the delivery wait must appear in measured latency",
            cold.kind()
        );
    }

    // 9. Snapshot/restore: checkpoint mid-run with the backlog partly in
    // flight, continue the original to settlement, then restore the
    // checkpoint into a *fresh* fabric and settle that — delivered tail,
    // telemetry and energy bits must match the uninterrupted run exactly.
    let mut original = mk();
    let ids = original.provision(&mapping).unwrap();
    let id = ids[0];
    original.inject_stream(id, &words);
    original.run(40); // some words delivered, some on the wire, some queued
    let checkpoint = original.snapshot();
    let live_tail = settle_stream(&mut original, id);
    let live_stats = stats_of(&original, id);
    let live_energy = original.total_energy(&model).value().to_bits();
    assert!(
        !live_tail.is_empty(),
        "{}: premise — the checkpoint must leave work in flight",
        original.kind()
    );

    let mut restored = mk();
    restored
        .restore(&checkpoint)
        .expect("a same-backend fabric accepts the snapshot");
    let restored_tail = settle_stream(&mut restored, id);
    assert_eq!(
        restored_tail,
        live_tail,
        "{}: the restored replay's tail diverged",
        restored.kind()
    );
    let restored_stats = stats_of(&restored, id);
    assert_eq!(
        restored_stats,
        live_stats,
        "{}: restored telemetry diverged",
        restored.kind()
    );
    assert_eq!(
        restored.total_energy(&model).value().to_bits(),
        live_energy,
        "{}: restored energy diverged",
        restored.kind()
    );

    // 10. Lifecycle errors: the release preconditions and the liveness
    // probe, exactly. A handle is unknown until issued and again once
    // released; a drain in progress refuses a second release; the probe
    // tracks the drain to its teardown; a closed handle still drains.
    let mut errs = mk();
    let ids = errs.provision(&mapping).unwrap();
    let id = ids[0];
    let never = StreamId(1_000);
    assert_eq!(
        errs.release(never, ReleaseMode::Drop),
        Err(AdmitError::UnknownStream(never)),
        "{}: a never-issued handle is unknown",
        errs.kind()
    );
    assert_eq!(errs.stream_is_active(never), None);
    assert_eq!(errs.stream_is_active(id), Some(true));
    errs.inject_stream(id, &words[..32]);
    errs.run(6); // a few words on the wire, the rest queued
    errs.release(id, ReleaseMode::Drain)
        .expect("live streams drain");
    assert_eq!(
        errs.stream_is_active(id),
        Some(true),
        "{}: a draining stream is still active",
        errs.kind()
    );
    assert_eq!(
        errs.release(id, ReleaseMode::Drop),
        Err(AdmitError::Draining(id)),
        "{}: a drain in progress cannot be released again",
        errs.kind()
    );
    let mut guard = 0;
    while errs.stream_is_active(id) == Some(true) {
        errs.run(32);
        guard += 1;
        assert!(guard < 1000, "{}: the drain never finalised", errs.kind());
    }
    assert_eq!(errs.stream_is_active(id), Some(false));
    assert_eq!(
        errs.drain_stream(id),
        &words[..32],
        "{}: a closed handle still drains",
        errs.kind()
    );
    assert_eq!(
        errs.release(id, ReleaseMode::Drain),
        Err(AdmitError::UnknownStream(id)),
        "{}: a drained stream is unknown to release",
        errs.kind()
    );
    let demand = mapping.stream_demand(id).expect("demand recorded");
    let again = errs.admit(&demand).expect("freed resources re-admit");
    errs.release(again, ReleaseMode::Drop)
        .expect("live streams release");
    assert_eq!(errs.stream_is_active(again), Some(false));
    assert_eq!(
        errs.release(again, ReleaseMode::Drop),
        Err(AdmitError::UnknownStream(again)),
        "{}: releasing twice is unknown",
        errs.kind()
    );

    // 11. Malformed demands: every backend refuses a NaN, infinite or
    // negative bandwidth with `InvalidDemand`, issues no handle for it
    // and never reports a circuit for it; a zero demand is a legal ask.
    for bad in [f64::NAN, -5.0, f64::INFINITY] {
        let ask = StreamDemand {
            demand: Bandwidth(bad),
            ..demand
        };
        assert!(
            !errs.can_admit_circuit(&ask),
            "{}: a {bad} demand fits no circuit",
            errs.kind()
        );
        assert!(
            matches!(errs.admit(&ask), Err(AdmitError::InvalidDemand(_))),
            "{}: a {bad} demand must be refused",
            errs.kind()
        );
    }
    let zero = errs
        .admit(&StreamDemand {
            demand: Bandwidth(0.0),
            ..demand
        })
        .expect("a zero demand admits");
    assert_eq!(
        zero,
        StreamId(again.0 + 1),
        "{}: refused demands issue no handle",
        errs.kind()
    );
    assert_eq!(errs.stream_is_active(zero), Some(true));

    LifecycleFingerprint {
        drain_delivered,
        drain_stats,
        cold_delivered,
        cold_stats,
        restored_tail,
        restored_stats,
    }
}

#[test]
fn circuit_fabric_conforms() {
    conformance(|| Soc::new(Mesh::new(2, 2), RouterParams::paper()));
}

#[test]
fn packet_fabric_conforms() {
    conformance(|| {
        PacketFabric::new(
            Mesh::new(2, 2),
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        )
    });
}

#[test]
fn gated_packet_fabric_conforms() {
    // Clock gating must be energy-only: the gated packet router passes the
    // identical behavioural contract.
    conformance(|| {
        PacketFabric::new(
            Mesh::new(2, 2),
            PacketParams::paper().gated(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        )
    });
}

#[test]
fn hybrid_fabric_conforms() {
    conformance(|| HybridFabric::paper(Mesh::new(2, 2)));
}

#[test]
fn deflection_fabric_conforms() {
    // The bufferless backend: no FIFOs, no lanes, routing decided per
    // cycle by age-ordered port arbitration — yet the behavioural
    // contract (including drain-release and snapshot/restore) holds
    // clause for clause.
    conformance(|| DeflectionFabric::paper(Mesh::new(2, 2)));
}

#[test]
fn chiplet_circuit_fabric_conforms() {
    // The hierarchical backend over circuit inner planes: a 2×1 chiplet
    // grid of 1×2 sub-meshes, so the standard stream may cross the NoI —
    // segment splitting, entry-lane accounting and the NoI configuration
    // charge all sit inside the ordinary behavioural contract.
    conformance(|| ChipletFabric::paper(Mesh::new(2, 2), 2, 1, FabricKind::Circuit));
}

#[test]
fn chiplet_hybrid_fabric_conforms() {
    // Same hierarchy with hybrid inner planes: boundary segments that the
    // per-chiplet CCN cannot put on circuit lanes ride the spill plane.
    conformance(|| ChipletFabric::paper(Mesh::new(2, 2), 2, 1, FabricKind::Hybrid));
}

#[test]
fn boxed_fabric_conforms() {
    // The trait-object path used by runtime backend selection obeys the
    // same contract as the concrete types it erases.
    conformance(|| -> Box<dyn Fabric> { Box::new(HybridFabric::paper(Mesh::new(2, 2))) });
}

#[test]
fn controlled_fabric_conforms() {
    // The control plane is a Fabric too: wrapping the hybrid in a
    // FabricController (policy loop ticking away during every run) must
    // not bend a single clause of the behavioural contract.
    conformance(|| {
        FabricController::new(
            Box::new(HybridFabric::paper(Mesh::new(2, 2))),
            Box::new(ProfiledPromotion),
        )
        .with_window(64)
    });
}

/// The live re-admission acceptance case, under every policy: the
/// oversubscribed line spills its light stream; freeing the heavy circuit
/// mid-run lets `admit` put the previously spilled demand on the circuit
/// plane, and the BE-network reconfiguration wait is charged to the
/// stream's measured word latency.
#[test]
fn hybrid_releases_a_circuit_and_readmits_the_spilled_stream() {
    for policy in POLICIES {
        let mesh = Mesh::new(3, 1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let mapping = ccn
            .map_with_spill(&g, &noc_mesh::tile::default_tile_kinds(&mesh))
            .expect("spill admission");
        assert_eq!(mapping.spilled.len(), 1, "premise: the light edge spills");

        let mut hybrid = HybridFabric::paper(mesh);
        hybrid.set_parallelism(policy);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let (gt_id, be_id) = (ids[0], ids[1]);

        // Mid-run: both sessions carry traffic first.
        Fabric::inject_stream(&mut hybrid, gt_id, &[1, 2, 3, 4]);
        Fabric::inject_stream(&mut hybrid, be_id, &[5, 6, 7]);
        hybrid.finish_injection();
        Fabric::run(&mut hybrid, 400);
        assert_eq!(Fabric::drain_stream(&mut hybrid, gt_id), vec![1, 2, 3, 4]);
        assert_eq!(Fabric::drain_stream(&mut hybrid, be_id), vec![5, 6, 7]);
        assert_eq!(
            stats_of(&hybrid, be_id).plane,
            StreamPlane::Spilled,
            "the light stream started as spillover"
        );

        // Free the circuit, retire the spilled session, re-admit its
        // demand: it must land on the circuit plane now.
        Fabric::release(&mut hybrid, be_id, ReleaseMode::Drop).unwrap();
        Fabric::release(&mut hybrid, gt_id, ReleaseMode::Drop).unwrap();
        let demand = mapping.stream_demand(be_id).unwrap();
        let readmitted = Fabric::admit(&mut hybrid, &demand).expect("freed lanes admit");
        let s = stats_of(&hybrid, readmitted);
        assert_eq!(s.plane, StreamPlane::Circuit, "re-admitted onto circuit");
        assert!(s.reconfig_cycles > 0, "BE delivery charged");

        // Words injected before the configuration lands pay the wait.
        let words: Vec<u16> = (0..12).map(|i| 0x6100 + i).collect();
        Fabric::inject_stream(&mut hybrid, readmitted, &words);
        Fabric::run(&mut hybrid, 1_500);
        assert_eq!(Fabric::drain_stream(&mut hybrid, readmitted), words);
        let s = stats_of(&hybrid, readmitted);
        assert!(
            s.latency.min().unwrap() >= s.reconfig_cycles,
            "reconfiguration cycles ({}) must show in measured latency \
             ({:?}) under {policy:?}",
            s.reconfig_cycles,
            s.latency.min()
        );
    }
}

/// Releasing a circuit and re-admitting the identical demand must
/// reproduce the identical router configuration — admission is
/// deterministic, so the round-trip is bit-exact.
#[test]
fn release_admit_round_trips_to_an_identical_configuration() {
    let mesh = Mesh::new(2, 2);
    let mapping = standard_mapping(mesh);
    let mut soc = Soc::new(mesh, RouterParams::paper());
    let ids = Fabric::provision(&mut soc, &mapping).unwrap();
    let snapshot = |soc: &Soc| -> Vec<_> {
        mesh.iter()
            .map(|n| soc.router(n).config().snapshot_words())
            .collect()
    };
    let provisioned = snapshot(&soc);

    Fabric::release(&mut soc, ids[0], ReleaseMode::Drop).unwrap();
    let torn = snapshot(&soc);
    assert_ne!(provisioned, torn, "release must deactivate the lanes");

    let demand = mapping.stream_demand(ids[0]).unwrap();
    let readmitted = Fabric::admit(&mut soc, &demand).unwrap();
    // The configuration rides the BE network: step until it lands.
    let ready = soc
        .stream_stats()
        .iter()
        .find(|s| s.id == readmitted)
        .unwrap()
        .reconfig_cycles;
    Fabric::run(&mut soc, ready + 1);
    assert_eq!(
        snapshot(&soc),
        provisioned,
        "re-admitting the same demand must reproduce the same circuit"
    );
}
