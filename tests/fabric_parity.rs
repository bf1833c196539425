//! Cross-fabric parity: the same workload through both backends of the
//! unified `Fabric` API must deliver the identical payload, and the
//! circuit-switched fabric must do it for strictly less energy — the
//! paper's headline claim, promoted to an invariant of the codebase.

use rcs_noc::prelude::*;

/// A HiperLAN/2-style receiver chain: a linear pipeline of streaming
/// stages, each edge a guaranteed-throughput stream (the shape of the
/// paper's Fig. 2 OFDM pipeline). Linear stages give every source exactly
/// one outgoing circuit and every sink exactly one incoming circuit, so
/// payload comparison between fabrics is exact, word for word.
fn hiperlan2_style_stream(stages: usize, bw: f64) -> TaskGraph {
    let mut g = TaskGraph::new("hl2-style");
    let ids: Vec<ProcessId> = (0..stages)
        .map(|i| g.add_process(format!("stage{i}")))
        .collect();
    for w in ids.windows(2) {
        g.add_edge(w[0], w[1], Bandwidth(bw), TrafficShape::Streaming, "sym");
    }
    g
}

fn deploy(graph: &TaskGraph, kind: FabricKind, seed: u64) -> Deployment<Box<dyn Fabric>> {
    let mut dep = Deployment::builder(graph)
        .mesh(3, 3)
        .clock(MegaHertz(100.0))
        .seed(seed)
        .fabric(kind)
        .build()
        .expect("pipeline fits a 3x3 mesh");
    dep.keep_payload(true);
    dep
}

#[test]
fn identical_payload_and_lower_circuit_energy() {
    let graph = hiperlan2_style_stream(4, 120.0);
    let cycles = 8_000;

    let mut per_fabric = Vec::new();
    for kind in [FabricKind::Circuit, FabricKind::Packet] {
        let mut dep = deploy(&graph, kind, 0x2005);
        dep.run(cycles);
        dep.settle(cycles);

        // Every destination node's payload, in arrival order.
        let payloads: Vec<(usize, Vec<u16>)> = dep
            .fabric()
            .mesh()
            .iter()
            .map(|n| (n.0, dep.payload_at(n).to_vec()))
            .filter(|(_, words)| !words.is_empty())
            .collect();
        let model = dep.energy_model();
        let energy = dep.total_energy(&model);
        let injected = dep.total_injected();
        let delivered = dep.total_delivered();
        assert_eq!(dep.total_overflows(), 0, "{kind}: flow control lost data");
        // Stream-level parity: both backends serve the same session
        // handles and deliver the same word count per session.
        let streams: Vec<(StreamId, u64, u64)> = dep
            .fabric()
            .stream_stats()
            .iter()
            .map(|s| (s.id, s.injected_words, s.delivered_words))
            .collect();
        per_fabric.push((kind, payloads, energy, injected, delivered, streams));
    }

    let (_, circuit_payload, circuit_energy, circuit_inj, circuit_del, circuit_streams) =
        &per_fabric[0];
    let (_, packet_payload, packet_energy, packet_inj, packet_del, packet_streams) = &per_fabric[1];

    // (a) Identical delivered payload: same destinations, same words, same
    //     order — the traffic seed makes the offered streams bit-identical
    //     and both fabrics must deliver them intact.
    assert!(*circuit_del > 0, "circuit fabric delivered nothing");
    assert_eq!(
        circuit_inj, packet_inj,
        "same seed must offer the same words"
    );
    assert_eq!(circuit_del, packet_del, "delivered word counts diverge");
    assert_eq!(
        circuit_payload, packet_payload,
        "delivered payload diverges between fabrics"
    );
    // Nothing lost in flight on either backend.
    assert_eq!(circuit_del, circuit_inj, "circuit fabric dropped words");
    // Same sessions, same per-stream word accounting — the stream handles
    // of `provision` are backend-independent (the mapping's numbering).
    assert_eq!(
        circuit_streams, packet_streams,
        "per-stream accounting diverges between fabrics"
    );
    assert_eq!(
        circuit_streams.iter().map(|s| s.2).sum::<u64>(),
        *circuit_del,
        "per-stream delivered sums must bit-match the node-level total"
    );

    // (b) The paper's headline claim at fabric level: the circuit-switched
    //     network moves the same payload for strictly less energy.
    assert!(
        circuit_energy.value() < packet_energy.value(),
        "circuit {circuit_energy} not below packet {packet_energy}"
    );
    // And not marginally: buffering + arbitration should cost the packet
    // fabric at least 2x here (Fig. 9 reports ~3.5x for a busy router).
    assert!(
        packet_energy.value() / circuit_energy.value() > 2.0,
        "energy ratio {:.2} suspiciously small",
        packet_energy.value() / circuit_energy.value()
    );
}

#[test]
fn parity_holds_across_seeds() {
    let graph = hiperlan2_style_stream(3, 80.0);
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let mut payloads = Vec::new();
        for kind in [FabricKind::Circuit, FabricKind::Packet] {
            let mut dep = deploy(&graph, kind, seed);
            dep.run(3_000);
            dep.settle(3_000);
            let words: Vec<Vec<u16>> = dep
                .fabric()
                .mesh()
                .iter()
                .map(|n| dep.payload_at(n).to_vec())
                .collect();
            payloads.push(words);
        }
        assert_eq!(payloads[0], payloads[1], "seed {seed} diverged");
    }
}

#[test]
fn generic_helper_reports_both_backends() {
    // The prelude's fabric-generic harness in one assertion: one call,
    // both backends, the paper's ordering.
    let graph = hiperlan2_style_stream(4, 120.0);
    let cmp = compare_fabrics(&graph, Mesh::new(3, 3), MegaHertz(100.0), 5_000, 7)
        .expect("deploys on both");
    assert!(cmp.circuit.min_delivered_fraction > 0.9);
    assert!(cmp.packet.min_delivered_fraction > 0.9);
    assert!(cmp.energy_ratio() > 1.5, "ratio {:.2}", cmp.energy_ratio());
}
