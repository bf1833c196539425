//! The bufferless deflection-routed mesh as a fourth [`Fabric`] backend.
//!
//! Where the packet baseline buffers contention in VC FIFOs and the
//! circuit fabric avoids it by construction, [`DeflectionFabric`] absorbs
//! it *spatially*: every router is a set of single-flit output registers
//! ([`noc_packet::deflection::DeflectionRouter`]), and a flit that loses
//! oldest-first arbitration for its productive port is misrouted — still
//! moving, never stored. The energy consequence is the point: no FIFO
//! read/write terms anywhere, at the price of per-deflection link and
//! crossbar re-traversals that only appear under contention. The
//! comparison binaries place this backend between the hybrid and the
//! FIFO-buffered packet mesh on the energy frontier.
//!
//! ## Word transport
//!
//! Streams map one payload word to one [`DeflectFlit`]. The stream tag
//! rides the spare coordinate nibbles of the header halfword (the same
//! [`noc_packet::flit::Flit::head_tagged`] encoding the wormhole fabric
//! uses), so the receiving tile attributes every delivered word — and its
//! latency and deflection count — to its session with no side channel.
//! Deflection may reorder flits of one stream (an older flit can be
//! thrown outward while a younger one slips through), so each flit also
//! carries a per-stream sequence number and the receiving side holds a
//! reorder window: words enter the session's egress strictly in injection
//! order, making delivery observably FIFO like every other backend.
//!
//! ## Liveness
//!
//! Arbitration is age-ordered (injection cycle, then tie-broken
//! deterministically), and a router always grants the globally oldest
//! arrival its productive port — so the oldest flit in the network makes
//! strict progress and delivery latency is bounded (the
//! `deflection_livelock` property suite measures the bound). The
//! [`StreamStats::max_deflections`] column reports the worst misroute
//! count any delivered word of the session suffered: exactly 0 on an
//! uncontended stream, positive under hotspot pressure.

use crate::ccn::Mapping;
use crate::fabric::{
    merge_by_kind, pport, EnergyModel, Fabric, FabricKind, FabricSnapshot, ProvisionError,
    SnapshotError,
};
use crate::session::SessionTable;
use crate::stream::{AdmitError, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats};
use crate::topology::{Mesh, NodeId};
use noc_packet::deflection::{DeflectFlit, DeflectionRouter};
use noc_packet::routing::Coords;
use noc_power::area::deflection_router_area;
use noc_sim::activity::ComponentActivity;
use noc_sim::par::{par_step, ParPolicy};
use noc_sim::time::Cycle;
use noc_sim::units::SquareMicroMeters;
use std::collections::{BTreeMap, VecDeque};

/// A deflection session's own state: destination registration and the
/// sequence bookkeeping of its reorder window.
#[derive(Debug, Clone)]
struct Deflected {
    dest: Coords,
    plane: StreamPlane,
    /// Words accepted but not yet released to `egress` (staged, in
    /// flight, or parked out-of-order in the reorder window).
    pending: u64,
    /// Next sequence number to stamp on an injected word.
    next_seq: u64,
    /// Next sequence number `egress` is waiting for.
    expected_seq: u64,
    /// Arrived-out-of-order flits parked until the gap closes.
    reorder: BTreeMap<u64, DeflectFlit>,
    /// Worst per-word deflection count among delivered words.
    max_deflections: u64,
}

/// The bufferless deflection mesh: one
/// [`noc_packet::deflection::DeflectionRouter`] per node, age-ordered
/// arbitration instead of buffering, and the same stream-addressed
/// word-level interface as every other backend.
#[derive(Debug, Clone)]
pub struct DeflectionFabric {
    mesh: Mesh,
    policy: ParPolicy,
    routers: Vec<DeflectionRouter>,
    /// Stream sessions, provision-time then runtime-admitted.
    sessions: SessionTable<Deflected>,
    /// Per node: flits awaiting injection at the tile port.
    ingress: Vec<VecDeque<DeflectFlit>>,
    now: Cycle,
    /// Has `provision` run? (`admit` needs a plan to extend.)
    provisioned: bool,
    /// Payload words injected (one flit per word).
    pub words_injected: u64,
    /// Payload words delivered to tiles.
    pub words_delivered: u64,
}

impl DeflectionFabric {
    /// The paper-geometry fabric (ungated, pure bufferless) over `mesh`.
    ///
    /// # Panics
    /// Panics when the mesh exceeds the 16×16 packet coordinate space.
    pub fn paper(mesh: Mesh) -> DeflectionFabric {
        assert!(
            mesh.width <= 16 && mesh.height <= 16,
            "coords are 8-bit nibble pairs in the header halfword"
        );
        let routers = mesh
            .iter()
            .map(|n| {
                let (x, y) = mesh.coords(n);
                DeflectionRouter::new(Coords::new(x as u8, y as u8), (mesh.width, mesh.height))
            })
            .collect();
        DeflectionFabric {
            policy: ParPolicy::Auto,
            routers,
            sessions: SessionTable::new(),
            ingress: mesh.iter().map(|_| Default::default()).collect(),
            now: Cycle::ZERO,
            provisioned: false,
            words_injected: 0,
            words_delivered: 0,
            mesh,
        }
    }

    /// Total flits staged at tile inputs but not yet injected.
    pub fn ingress_backlog(&self) -> usize {
        self.ingress.iter().map(|q| q.len()).sum()
    }

    /// Total misroutes suffered network-wide since construction — the
    /// contention signal the energy model charges re-traversal for.
    pub fn total_deflections(&self) -> u64 {
        self.routers.iter().map(DeflectionRouter::deflections).sum()
    }

    /// Register one stream session.
    fn register(&mut self, id: StreamId, src: NodeId, dst: NodeId, plane: StreamPlane) {
        let (x, y) = self.mesh.coords(dst);
        let deflected = Deflected {
            dest: Coords::new(x as u8, y as u8),
            plane,
            pending: 0,
            next_seq: 0,
            expected_seq: 0,
            reorder: BTreeMap::new(),
            max_deflections: 0,
        };
        self.sessions.open(id, src, dst, deflected);
    }
}

/// Backend label of [`DeflectionFabric`] in [`FabricSnapshot`]s.
pub(crate) const DEFLECTION_BACKEND: &str = "deflection-mesh";

impl Fabric for DeflectionFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Deflection
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(DEFLECTION_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot
            .downcast::<DeflectionFabric>(DEFLECTION_BACKEND)?
            .clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Install the mapping's streams as deflection sessions. Like the
    /// packet fabric, spilled demands are served like any other stream
    /// (keeping their [`StreamPlane::Spilled`] label for telemetry):
    /// deflection needs no lane allocation, only a destination.
    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        if self.mesh.width > 16 || self.mesh.height > 16 {
            return Err(ProvisionError::MeshTooLarge {
                width: self.mesh.width,
                height: self.mesh.height,
            });
        }
        let streams = mapping.streams();
        if streams.len() > 256 {
            return Err(ProvisionError::TooManyStreams {
                streams: streams.len(),
            });
        }
        self.sessions.reset(streams.len() as u32);
        self.provisioned = true;
        let mut served = Vec::with_capacity(streams.len());
        for ms in streams {
            let plane = if ms.spilled {
                StreamPlane::Spilled
            } else {
                StreamPlane::Packet
            };
            self.register(ms.id, ms.src, ms.dst, plane);
            served.push(ms.id);
        }
        Ok(served)
    }

    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize {
        let si = self.sessions.accepting(stream);
        let now = self.now.0;
        let s = &mut self.sessions[si];
        let (src, dest, tag) = (s.src, s.x.dest, s.id.0 as u8);
        for &word in words {
            let flit = DeflectFlit::new(dest, tag, word, now, s.x.next_seq);
            s.x.next_seq += 1;
            s.x.pending += 1;
            self.ingress[src.0].push_back(flit);
        }
        s.words.injected += words.len() as u64;
        self.words_injected += words.len() as u64;
        words.len()
    }

    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        self.sessions.take_egress(stream)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        self.sessions
            .iter()
            .map(|s| s.stats(s.x.plane, 0, s.x.max_deflections))
            .collect()
    }

    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let si = self.sessions.releasable(stream)?;
        match mode {
            ReleaseMode::Drop => {
                // Discard the staged (never-injected) words: they are the
                // tail of the sequence space, so the reorder window stays
                // contiguous for flits already on the wire — those may
                // still land after the release and are delivered normally.
                let src = self.sessions[si].src;
                let tag = stream.0 as u8;
                let before = self.ingress[src.0].len();
                self.ingress[src.0].retain(|f| f.tag != tag);
                let dropped = (before - self.ingress[src.0].len()) as u64;
                self.sessions.close(si);
                let s = &mut self.sessions[si].x;
                s.pending = s.pending.saturating_sub(dropped);
            }
            ReleaseMode::Drain => {
                // Every accepted word is already committed to the ingress
                // queue or the network; `step` retires the session
                // once the last one is released to egress.
                if self.sessions[si].x.pending == 0 {
                    self.sessions.close(si);
                } else {
                    self.sessions.start_drain(si);
                }
            }
        }
        Ok(())
    }

    fn stream_is_active(&self, stream: StreamId) -> Option<bool> {
        self.sessions.is_active(stream)
    }

    /// Deflection admits anything the coordinate space can address: a
    /// destination registration, no lanes, no reconfiguration charge.
    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        demand.check()?;
        if !self.provisioned {
            return Err(AdmitError::Unsupported("admit needs a provisioned fabric"));
        }
        if self.sessions.next_id() > 255 {
            return Err(AdmitError::Unsupported(
                "the header halfword's 256-stream tag space is exhausted",
            ));
        }
        let id = self.sessions.issue();
        self.register(id, demand.src, demand.dst, StreamPlane::Packet);
        Ok(id)
    }

    /// Serial or pooled router evaluation (default [`ParPolicy::Auto`]).
    /// Bit-identical results under every policy.
    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
    }

    /// One full fabric cycle: wire the links, inject from the ingress
    /// queues, clock every router, collect and reorder deliveries.
    fn step(&mut self) {
        // 1. Wire the links: each node samples its neighbours' latched
        //    output registers. A neighbour whose `quiet_links` flag is set
        //    drives nothing on any port, so sampling it is provably a
        //    no-op — the idle fast path the fleet engine relies on.
        for node in self.mesh.iter() {
            for port in noc_core::lane::Port::NEIGHBOURS {
                if let Some(nb) = self.mesh.neighbour(node, port) {
                    if self.routers[nb.0].quiet_links() {
                        continue;
                    }
                    let opp = pport(port.opposite().expect("neighbour port"));
                    if let Some(flit) = self.routers[nb.0].link_output(opp) {
                        self.routers[node.0].set_link_input(pport(port), flit);
                    }
                }
            }
        }

        // 2. Tile injection: one flit per node per cycle, and only when
        //    the router guarantees a free output for every arrival plus
        //    the injected flit (bufferless admission control — the only
        //    backpressure deflection has).
        for node in self.mesh.iter() {
            if let Some(&flit) = self.ingress[node.0].front() {
                let router = &mut self.routers[node.0];
                if router.tile_can_inject() {
                    let accepted = router.tile_inject(flit);
                    debug_assert!(accepted, "tile_can_inject admitted this flit");
                    self.ingress[node.0].pop_front();
                }
            }
        }

        // 3. Clock every router in one dispatch, optionally fanned out
        //    over the persistent worker pool.
        par_step(&mut self.routers, self.policy);
        self.now += 1;

        // 4. Tile deliveries. Deflection may reorder a stream's flits, so
        //    an arrived word parks in the session's reorder window and
        //    egress advances only over contiguous sequence numbers —
        //    delivery order observed by `drain_stream` matches injection
        //    order, like every other backend. Latency is recorded at
        //    release (transit plus any reorder wait: the word is not
        //    usable earlier).
        let now = self.now.0;
        for node in self.mesh.iter() {
            while let Some(flit) = self.routers[node.0].tile_recv() {
                self.words_delivered += 1;
                let si = self
                    .sessions
                    .index_of(StreamId(u32::from(flit.tag)))
                    // Tag numbering restarts at re-provision, so an
                    // in-flight flit could alias a new stream's tag; only
                    // accept words whose destination matches the claimed
                    // session. Unattributable words are dropped (the
                    // conformance contract settles before
                    // re-provisioning).
                    .filter(|&si| self.sessions[si].dst == node);
                if let Some(si) = si {
                    let s = &mut self.sessions[si];
                    s.x.reorder.insert(flit.seq, flit);
                    while let Some(f) = s.x.reorder.remove(&s.x.expected_seq) {
                        s.x.expected_seq += 1;
                        s.x.pending = s.x.pending.saturating_sub(1);
                        s.x.max_deflections = s.x.max_deflections.max(u64::from(f.deflections));
                        s.words.deliver(f.payload, Some(now.saturating_sub(f.born)));
                    }
                }
            }
        }

        // 5. Finalise draining releases: a session retired with
        //    `ReleaseMode::Drain` stays registered until its last
        //    accepted word was released above, then closes loss-free.
        self.sessions.poll_drains(|s| s.x.pending == 0);
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        merge_by_kind(self.routers.iter().flat_map(DeflectionRouter::activity))
    }

    fn clear_activity(&mut self) {
        for r in &mut self.routers {
            r.clear_activity();
        }
    }

    fn is_quiescent(&self) -> bool {
        self.sessions.pending_drains() == 0
            && self.ingress.iter().all(|q| q.is_empty())
            && self
                .routers
                .iter()
                .all(|r| r.is_quiescent() && r.tile_rx_pending() == 0)
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        deflection_router_area(model.estimator().tech()).total() * self.mesh.nodes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use crate::fabric::PacketFabric;
    use crate::tile::default_tile_kinds;
    use noc_apps::taskgraph::{TaskGraph, TrafficShape};
    use noc_core::params::RouterParams;
    use noc_packet::params::PacketParams;
    use noc_sim::units::{Bandwidth, MegaHertz};

    fn two_stage() -> TaskGraph {
        let mut g = TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
        g
    }

    fn mapped(mesh: Mesh) -> Mapping {
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
        ccn.map(&two_stage(), &default_tile_kinds(&mesh))
            .expect("feasible")
    }

    fn fan_in(mesh: Mesh, sources: usize) -> Mapping {
        let mut g = TaskGraph::new("fan-in");
        let sink = g.add_process("sink");
        for i in 0..sources {
            let p = g.add_process(format!("src{i}"));
            g.add_edge(
                p,
                sink,
                Bandwidth(20.0),
                TrafficShape::Streaming,
                format!("s{i}"),
            );
        }
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
        ccn.map(&g, &default_tile_kinds(&mesh)).expect("feasible")
    }

    fn pump(fabric: &mut DeflectionFabric, mapping: &Mapping, words: &[u16]) -> Vec<u16> {
        let ids = fabric.provision(mapping).expect("provision");
        let id = ids[0];
        fabric.inject_stream(id, words);
        fabric.finish_injection();
        let mut delivered = Vec::new();
        let mut idle = 0;
        let mut guard = 0;
        while idle < 64 {
            fabric.run(16);
            let fresh = fabric.drain_stream(id);
            if fresh.is_empty() {
                idle += 16;
            } else {
                idle = 0;
                delivered.extend(fresh);
            }
            guard += 1;
            assert!(guard < 1000, "stream never settled");
        }
        delivered
    }

    #[test]
    fn delivers_payload_in_order() {
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (0..200).collect();
        let mut fabric = DeflectionFabric::paper(mesh);
        assert_eq!(pump(&mut fabric, &mapping, &words), words);
        assert_eq!(fabric.words_injected, 200);
        assert_eq!(fabric.words_delivered, 200);
    }

    #[test]
    fn uncontended_stream_never_deflects() {
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (100..180).collect();
        let mut fabric = DeflectionFabric::paper(mesh);
        assert_eq!(pump(&mut fabric, &mapping, &words), words);
        assert_eq!(fabric.total_deflections(), 0);
        let stats = &fabric.stream_stats()[0];
        assert_eq!(stats.max_deflections, 0);
        assert_eq!(stats.delivered_words, 80);
        assert_eq!(stats.latency.count(), 80);
    }

    #[test]
    fn contended_fan_in_deflects_but_delivers_everything() {
        let mesh = Mesh::new(3, 3);
        let mapping = fan_in(mesh, 4);
        let mut fabric = DeflectionFabric::paper(mesh);
        let ids = fabric.provision(&mapping).expect("provision");
        assert_eq!(ids.len(), 4);
        for (k, &id) in ids.iter().enumerate() {
            let words: Vec<u16> = (0..64).map(|w| (k as u16) << 8 | w).collect();
            fabric.inject_stream(id, &words);
        }
        fabric.run(4000);
        assert!(fabric.is_quiescent(), "hotspot must drain");
        for (k, &id) in ids.iter().enumerate() {
            let words: Vec<u16> = (0..64).map(|w| (k as u16) << 8 | w).collect();
            assert_eq!(fabric.drain_stream(id), words, "stream {k} in order");
        }
        assert!(
            fabric.total_deflections() > 0,
            "4-into-1 fan-in must contend"
        );
        assert!(fabric.stream_stats().iter().any(|s| s.max_deflections > 0));
    }

    #[test]
    fn matches_packet_fabric_payload() {
        // Same mapping, same words: both best-effort meshes must deliver
        // the identical in-order payload, whatever their internals do.
        let mesh = Mesh::new(4, 4);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (0..300).map(|i| (i * 37) as u16).collect();
        let mut d = DeflectionFabric::paper(mesh);
        let got_d = pump(&mut d, &mapping, &words);
        let mut p = PacketFabric::new(mesh, PacketParams::paper(), 16);
        let ids = p.provision(&mapping).expect("provision");
        p.inject_stream(ids[0], &words);
        p.finish_injection();
        p.run(4000);
        assert_eq!(got_d, p.drain_stream(ids[0]));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mesh = Mesh::new(3, 3);
        let mapping = fan_in(mesh, 3);
        let mut fabric = DeflectionFabric::paper(mesh);
        let ids = fabric.provision(&mapping).expect("provision");
        for &id in &ids {
            fabric.inject_stream(id, &(0..48).collect::<Vec<u16>>());
        }
        fabric.run(20); // mid-flight: flits on the wire, ingress nonempty
        let snap = fabric.snapshot();
        let mut reference = fabric.clone();
        reference.run(500);

        let mut restored = DeflectionFabric::paper(mesh);
        restored.restore(&snap).expect("same backend");
        restored.run(500);
        assert_eq!(restored.now(), reference.now());
        assert_eq!(restored.activity(), reference.activity());
        for &id in &ids {
            assert_eq!(restored.drain_stream(id), reference.drain_stream(id));
        }
        assert_eq!(restored.total_deflections(), reference.total_deflections());

        let mut wrong = PacketFabric::new(mesh, PacketParams::paper(), 16);
        assert!(wrong.restore(&snap).is_err(), "backend mismatch refused");
    }

    #[test]
    fn release_drop_discards_staged_words_only() {
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let mut fabric = DeflectionFabric::paper(mesh);
        let ids = fabric.provision(&mapping).expect("provision");
        fabric.inject_stream(ids[0], &(0..100).collect::<Vec<u16>>());
        fabric.run(10); // some words in flight, many still staged
        fabric.release(ids[0], ReleaseMode::Drop).expect("release");
        assert_eq!(fabric.stream_is_active(ids[0]), Some(false));
        fabric.run(400);
        assert!(fabric.is_quiescent());
        let got = fabric.drain_stream(ids[0]);
        assert!(!got.is_empty(), "in-flight words still land");
        assert!(got.len() < 100, "staged tail was dropped");
        // In-order prefix: exactly words 0..got.len().
        assert_eq!(got, (0..got.len() as u16).collect::<Vec<u16>>());
        assert!(fabric.inject_stream_panics(ids[0]));
    }

    #[test]
    fn release_drain_is_loss_free_and_defers_retirement() {
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let mut fabric = DeflectionFabric::paper(mesh);
        let ids = fabric.provision(&mapping).expect("provision");
        fabric.inject_stream(ids[0], &(0..100).collect::<Vec<u16>>());
        fabric.run(5);
        fabric.release(ids[0], ReleaseMode::Drain).expect("release");
        assert_eq!(
            fabric.release(ids[0], ReleaseMode::Drain),
            Err(AdmitError::Draining(ids[0]))
        );
        assert_eq!(
            fabric.stream_is_active(ids[0]),
            Some(true),
            "still draining"
        );
        fabric.run(1000);
        assert_eq!(fabric.stream_is_active(ids[0]), Some(false));
        assert_eq!(
            fabric.drain_stream(ids[0]),
            (0..100).collect::<Vec<u16>>(),
            "drain delivers everything accepted"
        );
    }

    #[test]
    fn admit_extends_a_provisioned_plan() {
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let mut fabric = DeflectionFabric::paper(mesh);
        let demand = StreamDemand {
            src: NodeId(2),
            dst: NodeId(7),
            demand: Bandwidth(10.0),
        };
        assert!(matches!(
            fabric.admit(&demand),
            Err(AdmitError::Unsupported(_))
        ));
        let ids = fabric.provision(&mapping).expect("provision");
        let id = fabric.admit(&demand).expect("admit");
        assert!(!ids.contains(&id));
        fabric.inject_stream(id, &[7, 8, 9]);
        fabric.run(300);
        assert_eq!(fabric.drain_stream(id), vec![7, 8, 9]);
    }

    #[test]
    fn energy_below_ungated_packet_when_uncontended() {
        // The frontier claim at fabric level: with no FIFOs to clock, the
        // deflection mesh undercuts the ungated packet mesh on the same
        // single-stream workload.
        let mesh = Mesh::new(3, 3);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (0..200).collect();
        let mut d = DeflectionFabric::paper(mesh);
        pump(&mut d, &mapping, &words);
        let mut p = PacketFabric::new(mesh, PacketParams::paper(), 16);
        let ids = p.provision(&mapping).expect("provision");
        p.inject_stream(ids[0], &words);
        p.finish_injection();
        p.run(d.now().0);
        let model = EnergyModel::calibrated(MegaHertz(100.0));
        let de = d.total_energy(&model);
        let pe = p.total_energy(&model);
        assert!(de < pe, "deflection {de:?} must undercut packet {pe:?}");
    }

    impl DeflectionFabric {
        /// Test helper: does injecting on `id` panic (released handle)?
        fn inject_stream_panics(&mut self, id: StreamId) -> bool {
            let mut probe = self.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                probe.inject_stream(id, &[0]);
            }))
            .is_err()
        }
    }
}
