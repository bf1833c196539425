//! Cross-crate integration tests: applications deployed end to end through
//! CCN mapping, BE-network configuration and cycle-accurate streaming.

use rcs_noc::prelude::*;

/// The shared synthetic pipeline ([`noc_apps::synthetic::streaming_pipeline`]).
fn pipeline(stages: usize, bw: f64) -> TaskGraph {
    noc_apps::synthetic::streaming_pipeline(stages, Bandwidth(bw))
}

/// Deploy, run and check guaranteed throughput — written once over any
/// backend, the way every new scenario should be.
fn assert_guaranteed_throughput<F: Fabric>(
    mut dep: Deployment<F>,
    graph: &TaskGraph,
    cycles: u64,
    floor: f64,
) -> Deployment<F> {
    dep.run(cycles);
    dep.settle(cycles / 2 + 1000);
    for r in dep.report(graph) {
        assert!(
            r.delivered_fraction > floor,
            "[{}] {:?}: {:.3}",
            dep.fabric().kind(),
            r.labels,
            r.delivered_fraction
        );
    }
    dep
}

#[test]
fn hiperlan2_end_to_end_guaranteed_throughput_both_fabrics() {
    let graph = noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
    for kind in [FabricKind::Circuit, FabricKind::Packet] {
        let dep = Deployment::builder(&graph)
            .mesh(4, 4)
            .clock(MegaHertz(200.0))
            .seed(1)
            .fabric(kind)
            .build()
            .expect("feasible");
        assert_guaranteed_throughput(dep, &graph, 10_000, 0.95);
    }
}

#[test]
fn umts_end_to_end_with_clustering() {
    let graph = noc_apps::umts::task_graph(&UmtsParams::paper_example());
    let dep = Deployment::builder(&graph)
        .mesh(4, 4)
        .clock(MegaHertz(100.0))
        .seed(2)
        .build()
        .expect("feasible after clustering");
    assert_guaranteed_throughput(dep, &graph, 10_000, 0.85);
}

#[test]
fn drm_end_to_end_low_rate() {
    // DRM's kbit/s-scale edges on the same fabric: loads are tiny but
    // still delivered.
    let graph = noc_apps::drm::task_graph(&DrmParams::standard());
    let dep = Deployment::builder(&graph)
        .mesh(4, 4)
        .clock(MegaHertz(25.0))
        .seed(3)
        .build()
        .expect("feasible");
    assert_guaranteed_throughput(dep, &graph, 200_000, 0.5);
}

#[test]
fn long_pipeline_across_whole_mesh() {
    // Eight stages on a 3x3: some circuits must span multiple hops.
    let graph = pipeline(8, 50.0);
    let dep = Deployment::builder(&graph)
        .mesh(3, 3)
        .clock(MegaHertz(50.0))
        .seed(4)
        .build()
        .expect("feasible");
    let max_hops = dep
        .mapping()
        .routes
        .iter()
        .map(|r| r.hops())
        .max()
        .unwrap_or(0);
    assert!(max_hops >= 2, "expected at least one multi-router circuit");
    assert_guaranteed_throughput(dep, &graph, 20_000, 0.9);
}

#[test]
fn streams_on_shared_ports_do_not_interfere() {
    // Two independent streams, forced through the same intermediate
    // router's East port on different lanes, each keep full throughput —
    // the physical-separation claim at SoC level.
    let params = RouterParams::paper();
    let mut soc = Soc::new(Mesh::new(3, 1), params);
    let n0 = soc.mesh().node(0, 0);
    let n1 = soc.mesh().node(1, 0);
    let n2 = soc.mesh().node(2, 0);
    // Stream A: tile(0) -> tile(2) via lanes 0.
    soc.router_mut(n0)
        .connect(Port::Tile, 0, Port::East, 0)
        .unwrap();
    soc.router_mut(n1)
        .connect(Port::West, 0, Port::East, 0)
        .unwrap();
    soc.router_mut(n2)
        .connect(Port::West, 0, Port::Tile, 0)
        .unwrap();
    // Stream B: tile(1) -> tile(2) via lane 1 on the shared link.
    soc.router_mut(n1)
        .connect(Port::Tile, 0, Port::East, 1)
        .unwrap();
    soc.router_mut(n2)
        .connect(Port::West, 1, Port::Tile, 1)
        .unwrap();

    soc.tiles_mut()
        .bind_source(n0.0, 0, DataPattern::Random, 10, 1.0, 5);
    soc.tiles_mut()
        .bind_source(n1.0, 0, DataPattern::Random, 11, 1.0, 5);
    soc.run(5000);

    let a = soc.tiles().rx(n2.0, 0).received;
    let b = soc.tiles().rx(n2.0, 1).received;
    assert!(a >= 980, "stream A starved: {a}");
    assert!(b >= 980, "stream B starved: {b}");
    assert_eq!(soc.router(n2).rx_overflows(), 0);
}

#[test]
fn window_flow_control_protects_slow_consumer() {
    // The destination tile stops reading; the window closes; nothing is
    // lost. (Drain via Soc::step normally consumes; here we drive routers
    // directly so the tile queue backs up.)
    let params = RouterParams::paper();
    let mut a = CircuitRouter::new(params);
    let mut b = CircuitRouter::new(params);
    a.connect(Port::Tile, 0, Port::East, 0).unwrap();
    b.connect(Port::West, 0, Port::Tile, 0).unwrap();

    let mut sent = 0u64;
    for cycle in 0..2000u64 {
        if a.tile_can_send(0) {
            a.tile_send(0, Phit::data(cycle as u16));
            sent += 1;
        }
        // Wire the two routers both ways.
        for l in 0..4 {
            b.set_link_input(Port::West, l, a.link_output(Port::East, l));
            a.set_ack_input(Port::East, l, b.ack_to_upstream(Port::West, l));
        }
        noc_sim::kernel::step(&mut a);
        noc_sim::kernel::step(&mut b);
        // The consumer never calls tile_recv.
    }
    // Window size 8 bounds the unacknowledged phits; queue capacity equals
    // the window, so nothing overflows.
    assert_eq!(sent, u64::from(params.window_size));
    assert_eq!(b.rx_overflows(), 0);
    assert_eq!(b.tile_rx_pending(0), usize::from(params.window_size));
}

#[test]
fn be_configuration_matches_direct_configuration() {
    let graph = pipeline(4, 60.0);
    let mesh = Mesh::new(3, 3);
    let params = RouterParams::paper();
    let ccn = Ccn::new(mesh, params, MegaHertz(100.0));
    let soc_probe = Soc::new(mesh, params);
    let kinds: Vec<TileKind> = mesh.iter().map(|n| soc_probe.tiles().kind(n.0)).collect();
    let mapping = ccn.map(&graph, &kinds).unwrap();

    // Direct application.
    let mut direct = Soc::new(mesh, params);
    mapping.apply_direct(&mut direct).unwrap();

    // BE-network application.
    let mut via_be = Soc::new(mesh, params);
    let mut be = BeNetwork::new(mesh, BeConfig::default());
    let mut latest = Cycle::ZERO;
    for (node, word) in mapping.config_words(&params) {
        let t = be.send(Cycle::ZERO, mesh.node(0, 0), node, &[word]);
        latest = Cycle(latest.0.max(t.0));
    }
    be.deliver_due(latest, &mut via_be).unwrap();

    for node in mesh.iter() {
        assert_eq!(
            direct.router(node).config().snapshot_words(),
            via_be.router(node).config().snapshot_words()
        );
    }
}

#[test]
fn mapping_respects_affinity_when_available() {
    let mut g = TaskGraph::new("affine");
    let fft = g.add_process_with_affinity("fft", "FFT");
    let gpp = g.add_process_with_affinity("control", "GPP");
    g.add_edge(fft, gpp, Bandwidth(10.0), TrafficShape::Streaming, "e");

    let mesh = Mesh::new(2, 2);
    let params = RouterParams::paper();
    let ccn = Ccn::new(mesh, params, MegaHertz(100.0));
    let kinds = vec![TileKind::Gpp, TileKind::Dsrh, TileKind::Asic, TileKind::Dsp];
    let mapping = ccn.map(&g, &kinds).unwrap();
    let fft_node = mapping.node_of(fft).unwrap();
    let gpp_node = mapping.node_of(gpp).unwrap();
    assert_eq!(
        kinds[fft_node.0],
        TileKind::Dsrh,
        "FFT on reconfigurable fabric"
    );
    assert_eq!(kinds[gpp_node.0], TileKind::Gpp);
}
