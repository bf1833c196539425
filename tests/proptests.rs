//! Property-based tests on the workspace's core invariants.

use noc_apps::taskgraph::{TaskGraph, TrafficShape};
use noc_core::config::{ConfigEntry, ConfigWord};
use noc_core::converter::{RxDeserializer, TxSerializer};
use noc_core::flow::{AckGenerator, FlowControlMode, WindowCounter};
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_core::phit::{Header, Phit};
use noc_core::router::CircuitRouter;
use noc_sim::activity::ActivityLedger;
use noc_sim::bits::{nibbles_to_word, word_to_nibbles, Nibble};
use proptest::prelude::*;

proptest! {
    /// Phit serialisation is a bijection over header x data.
    #[test]
    fn phit_roundtrip(bits in 0u8..16, data: u16) {
        let phit = Phit { header: Header::from_bits(bits), data };
        prop_assert_eq!(Phit::from_flits(phit.to_flits()), phit);
    }

    /// Word/nibble conversion round-trips.
    #[test]
    fn word_nibble_roundtrip(w: u16) {
        prop_assert_eq!(nibbles_to_word(word_to_nibbles(w)), w);
    }

    /// Every well-formed configuration word decodes back to its parts.
    #[test]
    fn config_word_roundtrip(lane in 0u8..20, select in 0u8..16, active: bool) {
        let p = RouterParams::paper();
        let entry = ConfigEntry { select, active };
        let word = ConfigWord::encode(noc_core::lane::LaneIndex(lane), entry, &p);
        let (out, back) = word.decode(&p).unwrap();
        prop_assert_eq!(out.get(), lane as usize);
        prop_assert_eq!(back, entry);
    }

    /// Any 16-bit garbage either decodes to something legal or errors —
    /// never panics (corrupt BE packets must be survivable).
    #[test]
    fn config_word_decode_never_panics(raw: u16) {
        let p = RouterParams::paper();
        let _ = ConfigWord(raw).decode(&p);
    }

    /// The serialiser/deserialiser pair delivers any phit sequence intact
    /// and in order, regardless of idle gaps between them.
    #[test]
    fn serdes_preserves_streams(
        words in prop::collection::vec(any::<u16>(), 1..20),
        gaps in prop::collection::vec(0usize..7, 1..20),
    ) {
        let mut ledger = ActivityLedger::new();
        let mut tx = TxSerializer::new();
        let mut rx = RxDeserializer::new();
        let mut received = Vec::new();
        let mut to_send = words.clone();
        to_send.reverse();
        let mut gap_iter = gaps.into_iter().cycle();
        let mut idle = 0usize;
        let mut budget = words.len() * 40 + 100;
        while received.len() < words.len() && budget > 0 {
            budget -= 1;
            if idle == 0 {
                if let Some(&w) = to_send.last() {
                    if tx.can_load() && tx.try_load(Phit::data(w)) {
                        to_send.pop();
                        idle = gap_iter.next().unwrap();
                    }
                }
            } else if tx.can_load() {
                // Only count gap cycles when we *could* have loaded.
                idle -= 1;
            }
            let nib = tx.out_nibble();
            tx.eval();
            rx.eval(nib);
            tx.commit(&mut ledger);
            if let Some(p) = rx.commit(&mut ledger) {
                received.push(p.data);
            }
        }
        prop_assert_eq!(received, words);
    }

    /// Window-counter safety: credits never exceed WC and the number of
    /// unacknowledged packets never exceeds WC, for any interleaving of
    /// sends and (valid) acks.
    #[test]
    fn window_counter_invariants(
        wc in 1u16..16,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let x = (wc / 2).max(1);
        let mode = FlowControlMode::Window { wc, x };
        let mut counter = WindowCounter::new(mode);
        let mut gen = AckGenerator::new(mode);
        let mut ledger = ActivityLedger::new();
        // Packets sent but not yet consumed by the destination.
        let mut in_flight: std::collections::VecDeque<bool> = Default::default();
        for consume_bias in ops {
            let send = counter.can_send() && consume_bias;
            if send {
                in_flight.push_back(true);
            }
            // Destination consumes at most one packet per cycle.
            let consumed = if !consume_bias && !in_flight.is_empty() {
                in_flight.pop_front();
                1
            } else {
                0
            };
            gen.eval(consumed);
            counter.eval(send, gen.ack());
            counter.commit(&mut ledger);
            gen.commit(&mut ledger);
            prop_assert!(counter.credits() <= wc);
            prop_assert!(in_flight.len() <= usize::from(wc),
                "unacked packets {} exceed window {wc}", in_flight.len());
        }
    }

    /// The crossbar never mixes streams: with any legal configuration and
    /// any inputs, each active output equals exactly its selected input of
    /// the previous cycle, and inactive outputs stay zero.
    #[test]
    fn crossbar_no_crosstalk(
        selects in prop::collection::vec(0u8..16, 20),
        actives in prop::collection::vec(any::<bool>(), 20),
        inputs in prop::collection::vec(0u8..16, 20),
    ) {
        let params = RouterParams::paper();
        let mut cfg = noc_core::config::ConfigMemory::new(params);
        let mut ledger = ActivityLedger::new();
        for i in 0..20usize {
            cfg.write_entry(
                noc_core::lane::LaneIndex(i as u8),
                ConfigEntry { select: selects[i], active: actives[i] },
                &mut ledger,
            );
        }
        let mut xbar = noc_core::crossbar::Crossbar::new(params);
        let nibbles: Vec<Nibble> = inputs.iter().map(|&v| Nibble::new(v)).collect();
        xbar.eval(&noc_core::crossbar::pack_nibbles(&nibbles, 4), &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        for o in 0..20usize {
            let idx = noc_core::lane::LaneIndex(o as u8);
            let got = xbar.output(idx);
            if actives[o] {
                let port = idx.port(4);
                let expect = params.select_to_input(port, selects[o]).unwrap();
                prop_assert_eq!(got, nibbles[expect.get()]);
            } else {
                prop_assert_eq!(got, Nibble::ZERO);
            }
        }
    }

    /// A configured router delivers any phit sequence tile->link unchanged
    /// (data integrity through converter + crossbar + link).
    #[test]
    fn router_tile_to_link_integrity(
        words in prop::collection::vec(any::<u16>(), 1..12),
    ) {
        let mut router = CircuitRouter::new(RouterParams::paper());
        router.connect(Port::Tile, 0, Port::East, 0).unwrap();
        let mut rx = RxDeserializer::new();
        let mut scratch = ActivityLedger::new();
        let mut received = Vec::new();
        let mut queue: std::collections::VecDeque<u16> = words.iter().copied().collect();
        let mut acked = 0u16;
        for _ in 0..words.len() * 40 + 100 {
            if let Some(&w) = queue.front() {
                if router.tile_can_send(0) && router.tile_send(0, Phit::data(w)) {
                    queue.pop_front();
                }
            }
            // Downstream consumer acks every 4th phit.
            noc_sim::kernel::step(&mut router);
            rx.eval(router.link_output(Port::East, 0));
            let mut ack = false;
            if let Some(p) = rx.commit(&mut scratch) {
                received.push(p.data);
                acked += 1;
                if acked.is_multiple_of(4) { ack = true; }
            }
            router.set_ack_input(Port::East, 0, ack);
            if received.len() == words.len() { break; }
        }
        prop_assert_eq!(received, words);
    }

    /// Hybrid switching is invisible to the workload: for random stream
    /// sets on random mesh sizes, the `HybridFabric` delivers on every
    /// stream session exactly the words a pure `PacketFabric` delivers,
    /// in order (nothing is lost, duplicated or misrouted across the
    /// plane split), and — because admitted streams ride cheap circuits
    /// while the spillover plane is clock-gated — its lifetime energy
    /// never exceeds the pure-packet fabric's over the same cycles.
    #[test]
    fn hybrid_matches_packet_payload_for_less_energy(
        w in 2usize..4,
        h in 1usize..4,
        proc_count in 2usize..7,
        picks in prop::collection::vec(any::<u16>(), 8),
        bws in prop::collection::vec(30u16..300, 8),
        counts in prop::collection::vec(4usize..24, 8),
        seed: u16,
    ) {
        use noc_mesh::fabric::{EnergyModel, Fabric, PacketFabric};
        use noc_mesh::hybrid::HybridFabric;
        use noc_mesh::tile::default_tile_kinds;
        use noc_mesh::topology::Mesh;
        use noc_mesh::Ccn;
        use noc_core::params::RouterParams;
        use noc_packet::params::PacketParams;
        use noc_sim::units::{Bandwidth, MegaHertz};

        let mesh = Mesh::new(w, h);
        let procs = proc_count.min(mesh.nodes());
        let lanes_per_port = RouterParams::paper().lanes_per_port;
        // Each process gets at most one outgoing stream (so per-node
        // payload comparison is exact: all of a source's words go to one
        // destination on every fabric); destinations may be shared, but a
        // sink's distinct in-partners are capped at the tile's lane count —
        // beyond it the CCN *clusters* processes onto one tile, turning
        // streams into on-tile communication that never touches either
        // fabric and breaking the node-for-node injection premise.
        let mut g = TaskGraph::new("random");
        let ids: Vec<_> = (0..procs).map(|i| g.add_process(format!("p{i}"))).collect();
        let mut edges = 0;
        let mut in_deg = vec![0usize; procs];
        for i in 0..procs {
            if picks[i] & 1 == 0 {
                continue; // this process is a pure sink
            }
            let dst = (i + 1 + (picks[i] >> 1) as usize % (procs - 1)) % procs;
            if in_deg[dst] >= lanes_per_port {
                continue; // would trigger CCN clustering
            }
            in_deg[dst] += 1;
            g.add_edge(
                ids[i],
                ids[dst],
                Bandwidth(f64::from(bws[i])),
                TrafficShape::Streaming,
                format!("e{i}"),
            );
            edges += 1;
        }
        // 25 MHz: 80 Mbit/s lanes, so 30..300 Mbit/s demands take 1..4
        // lanes and oversubscription (spill) happens regularly.
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission fails only on placement");

        let mut hybrid = HybridFabric::paper(mesh);
        let mut packet = PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        );
        let h_ids = hybrid.provision(&mapping).expect("legal mapping");
        let p_ids = Fabric::provision(&mut packet, &mapping).expect("legal mapping");
        prop_assert_eq!(&h_ids, &p_ids, "identical handles on every backend");

        // The same deterministic words into both fabrics, stream by
        // stream (each source process has at most one outgoing stream, so
        // its placement node identifies its session).
        let streams = mapping.streams();
        let mut injected = 0u64;
        for i in 0..procs {
            let Some(node) = mapping.node_of(ids[i]) else { continue };
            let Some(ms) = streams.iter().find(|s| s.src == node) else {
                continue; // no NoC-crossing stream out of this process
            };
            let words: Vec<u16> = (0..counts[i])
                .map(|k| (k as u16).wrapping_mul(0x9E37) ^ seed ^ ((i as u16) << 12))
                .collect();
            Fabric::inject_stream(&mut hybrid, ms.id, &words);
            Fabric::inject_stream(&mut packet, ms.id, &words);
            injected += words.len() as u64;
        }
        hybrid.finish_injection();
        packet.finish_injection();

        // Same cycle count on both, long enough to drain everything.
        let cycles = 3_000;
        Fabric::run(&mut hybrid, cycles);
        Fabric::run(&mut packet, cycles);
        prop_assert!(Fabric::is_quiescent(&hybrid), "hybrid failed to drain");
        prop_assert!(Fabric::is_quiescent(&packet), "packet failed to drain");

        let mut delivered = 0u64;
        for ms in &streams {
            let hw = Fabric::drain_stream(&mut hybrid, ms.id);
            let pw = Fabric::drain_stream(&mut packet, ms.id);
            prop_assert_eq!(
                &hw, &pw,
                "{}: hybrid and packet sessions diverge", ms.id
            );
            delivered += hw.len() as u64;
        }
        prop_assert_eq!(delivered, injected, "words lost ({edges} edges)");

        let model = EnergyModel::calibrated(MegaHertz(25.0));
        let he = hybrid.total_energy(&model).value();
        let pe = packet.total_energy(&model).value();
        prop_assert!(
            he <= pe,
            "hybrid energy {he} exceeds pure packet {pe} \
             (spilled {} of {injected} words)",
            hybrid.spilled_words()
        );
    }

    /// The chiplet hierarchy conserves payload and schedules
    /// deterministically: for random chiplet grids over random aggregate
    /// meshes and random cross-chiplet stream sets, every admitted
    /// stream delivers exactly the words injected, in order, and the
    /// full run fingerprint — per-stream payload, per-stream telemetry
    /// and lifetime energy bits — is identical under `Sequential`,
    /// `Threads(2)` and `Auto` sharded stepping.
    #[test]
    fn chiplet_grids_conserve_payload_under_any_par_policy(
        cw in 1usize..4,
        ch in 1usize..3,
        iw in 1usize..4,
        ih in 1usize..3,
        picks in prop::collection::vec(any::<u32>(), 6),
        counts in prop::collection::vec(4usize..24, 6),
        seed: u16,
    ) {
        use noc_mesh::chiplet::ChipletFabric;
        use noc_mesh::fabric::{EnergyModel, Fabric, FabricKind};
        use noc_mesh::stream::{ProvisionMode, StreamDemand, StreamId, StreamStats};
        use noc_mesh::topology::Mesh;
        use noc_mesh::Ccn;
        use noc_sim::par::ParPolicy;
        use noc_sim::units::{Bandwidth, MegaHertz};

        let mesh = Mesh::new(cw * iw, ch * ih);
        // Random demand set, dominated by cross-chiplet pairs whenever
        // the grid has more than one chiplet; hybrid inner planes spill
        // what their circuit planes cannot carry, so only NoI entry-lane
        // exhaustion refuses admission — and it refuses deterministically.
        let demands: Vec<StreamDemand> = picks
            .iter()
            .filter_map(|&p| {
                let src = mesh.node((p as usize) % (cw * iw), ((p >> 8) as usize) % (ch * ih));
                let dst = mesh.node(
                    ((p >> 16) as usize) % (cw * iw),
                    ((p >> 24) as usize) % (ch * ih),
                );
                (src != dst).then_some(StreamDemand {
                    src,
                    dst,
                    demand: Bandwidth(40.0),
                })
            })
            .collect();
        let empty = noc_mesh::ccn::Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0))
                .lane_capacity(),
        };

        // One full lifecycle per policy; every observable must agree
        // bit-for-bit across the three schedules.
        type Fingerprint = (Vec<(StreamId, Vec<u16>)>, Vec<StreamStats>, u64, u64);
        let mut fingerprints: Vec<Fingerprint> = Vec::new();
        for policy in [ParPolicy::Sequential, ParPolicy::Threads(2), ParPolicy::Auto] {
            let mut fabric = ChipletFabric::paper(mesh, cw, ch, FabricKind::Hybrid);
            Fabric::set_parallelism(&mut fabric, policy);
            fabric.provision_with(&empty, ProvisionMode::Instant).unwrap();
            let mut sessions: Vec<(StreamId, Vec<u16>)> = Vec::new();
            let mut injected = 0u64;
            for (i, demand) in demands.iter().enumerate() {
                // Refusal (entry-lane exhaustion) must be deterministic:
                // the same demands are refused on every policy, checked
                // via the fingerprint's session list.
                let Ok(id) = Fabric::admit(&mut fabric, demand) else { continue };
                let words: Vec<u16> = (0..counts[i])
                    .map(|k| (k as u16).wrapping_mul(0x9E37) ^ seed ^ ((i as u16) << 12))
                    .collect();
                let accepted = Fabric::inject_stream(&mut fabric, id, &words);
                prop_assert_eq!(accepted, words.len(), "backlog refused words");
                injected += words.len() as u64;
                sessions.push((id, words));
            }
            fabric.finish_injection();
            Fabric::run(&mut fabric, 4_000);
            prop_assert!(
                Fabric::is_quiescent(&fabric),
                "chiplet fabric failed to drain under {policy:?}"
            );
            let mut delivered = 0u64;
            let mut payload = Vec::new();
            for (id, words) in &sessions {
                let got = Fabric::drain_stream(&mut fabric, *id);
                prop_assert_eq!(
                    &got, words,
                    "{id}: delivery not exact and in-order under {policy:?}"
                );
                delivered += got.len() as u64;
                payload.push((*id, got));
            }
            prop_assert_eq!(delivered, injected, "words lost under {policy:?}");
            let model = EnergyModel::calibrated(MegaHertz(25.0));
            let energy = if injected > 0 {
                Fabric::total_energy(&fabric, &model).value().to_bits()
            } else {
                0
            };
            fingerprints.push((
                payload,
                Fabric::stream_stats(&fabric),
                energy,
                fabric.noi_wait_cycles(),
            ));
        }
        prop_assert_eq!(
            &fingerprints[0], &fingerprints[1],
            "Sequential and Threads(2) fingerprints diverge"
        );
        prop_assert_eq!(
            &fingerprints[0], &fingerprints[2],
            "Sequential and Auto fingerprints diverge"
        );
    }

    /// Mesh XY step always reaches its destination in Manhattan-distance
    /// hops, for any pair of nodes in any mesh up to 8x8.
    #[test]
    fn xy_walk_terminates(
        w in 1usize..8, h in 1usize..8,
        sx in 0usize..8, sy in 0usize..8,
        dx in 0usize..8, dy in 0usize..8,
    ) {
        let mesh = noc_mesh::topology::Mesh::new(w, h);
        let s = mesh.node(sx % w, sy % h);
        let d = mesh.node(dx % w, dy % h);
        let mut cur = s;
        let mut hops = 0;
        while let Some(port) = mesh.xy_step(cur, d) {
            cur = mesh.neighbour(cur, port).unwrap();
            hops += 1;
            prop_assert!(hops <= w + h, "XY walk must not wander");
        }
        prop_assert_eq!(cur, d);
        prop_assert_eq!(hops, mesh.distance(s, d));
    }
}
