//! The chiplet hierarchy's degenerate-grid contract: a **1×1 chiplet
//! grid is bit-identical to the equivalent flat fabric** for every inner
//! `FabricKind` — same session handles, same delivered payload, same
//! per-stream telemetry, same activity ledgers, and the same energy down
//! to the f64 bits. With one chiplet there are no NoI links, so the
//! hierarchy must add exactly nothing: not a cycle, not a ledger event,
//! not a square micrometre of area.

use noc_mesh::tile::default_tile_kinds;
use rcs_noc::prelude::*;

/// A spill-heavy workload on a 4×4 mesh: several streams at 25 MHz (80
/// Mbit/s lanes), so the CCN admits some onto circuits and spills the
/// rest — exercising the route, spill and skip paths of every backend.
fn workload(mesh: Mesh) -> Mapping {
    let mut g = TaskGraph::new("chiplet-parity");
    let procs: Vec<_> = (0..8).map(|i| g.add_process(format!("p{i}"))).collect();
    let edges = [
        (0, 5, 150.0),
        (1, 4, 60.0),
        (2, 7, 240.0),
        (3, 6, 90.0),
        (4, 2, 45.0),
        (6, 1, 120.0),
    ];
    for (k, &(a, b, bw)) in edges.iter().enumerate() {
        g.add_edge(
            procs[a],
            procs[b],
            Bandwidth(bw),
            TrafficShape::Streaming,
            format!("e{k}"),
        );
    }
    let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
    ccn.map_with_spill(&g, &default_tile_kinds(&mesh))
        .expect("spill admission fails only on placement")
}

/// The flat backend a 1×1 chiplet grid must be indistinguishable from,
/// constructed exactly as `ChipletFabric`'s inner planes are.
fn flat_fabric(kind: FabricKind, mesh: Mesh) -> Box<dyn Fabric> {
    match kind {
        FabricKind::Circuit => Box::new(Soc::new(mesh, RouterParams::paper())),
        FabricKind::Hybrid => Box::new(HybridFabric::new(mesh, RouterParams::paper())),
        FabricKind::Deflection => Box::new(DeflectionFabric::paper(mesh)),
        FabricKind::Packet => Box::new(PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        )),
    }
}

fn assert_bit_identical(kind: FabricKind) {
    let mesh = Mesh::new(4, 4);
    let mapping = workload(mesh);
    let mut flat = flat_fabric(kind, mesh);
    let mut chip = ChipletFabric::paper(mesh, 1, 1, kind);
    assert_eq!(chip.kind(), kind, "the hierarchy is kind-transparent");

    let flat_ids = flat.provision(&mapping).expect("legal mapping");
    let chip_ids = Fabric::provision(&mut chip, &mapping).expect("legal mapping");
    assert_eq!(flat_ids, chip_ids, "{kind}: same session handles");

    for (k, &id) in flat_ids.iter().enumerate() {
        let words: Vec<u16> = (0..20 + 3 * k as u16)
            .map(|i| i.wrapping_mul(0xB0C5) ^ ((k as u16) << 11))
            .collect();
        assert_eq!(
            flat.inject_stream(id, &words),
            Fabric::inject_stream(&mut chip, id, &words),
            "{kind}: same acceptance on stream {k}"
        );
    }
    flat.finish_injection();
    chip.finish_injection();
    flat.run(5_000);
    Fabric::run(&mut chip, 5_000);
    assert!(flat.is_quiescent(), "{kind}: flat failed to drain");
    assert!(
        Fabric::is_quiescent(&chip),
        "{kind}: chiplet failed to drain"
    );

    for &id in &flat_ids {
        assert_eq!(
            flat.drain_stream(id),
            Fabric::drain_stream(&mut chip, id),
            "{kind}: payload diverged on {id:?}"
        );
    }
    assert_eq!(
        flat.stream_stats(),
        Fabric::stream_stats(&chip),
        "{kind}: per-stream telemetry diverged"
    );
    assert_eq!(
        flat.activity(),
        Fabric::activity(&chip),
        "{kind}: activity ledgers diverged"
    );

    let model = EnergyModel::calibrated(MegaHertz(25.0));
    assert_eq!(
        flat.area(&model).value().to_bits(),
        Fabric::area(&chip, &model).value().to_bits(),
        "{kind}: a linkless NoI must add zero area"
    );
    assert_eq!(
        flat.total_energy(&model).value().to_bits(),
        Fabric::total_energy(&chip, &model).value().to_bits(),
        "{kind}: energy diverged"
    );
    assert_eq!(flat.total_overflows(), Fabric::total_overflows(&chip));
    assert_eq!(flat.spilled_streams(), Fabric::spilled_streams(&chip));
    assert_eq!(flat.spilled_words(), Fabric::spilled_words(&chip));
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_circuit() {
    assert_bit_identical(FabricKind::Circuit);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_hybrid() {
    assert_bit_identical(FabricKind::Hybrid);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_deflection() {
    assert_bit_identical(FabricKind::Deflection);
}

#[test]
fn one_by_one_chiplet_grid_is_bit_identical_to_flat_packet() {
    assert_bit_identical(FabricKind::Packet);
}
