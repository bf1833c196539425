//! Profiled hybrid switching: circuits for the streams the CCN admits,
//! a clock-gated packet plane for the spillover.
//!
//! The paper's circuit-switched router moves a provisioned stream for
//! ~3.5× less energy than the packet-switched baseline — but its admission
//! is all-or-nothing: when the lane allocator runs out, [`Ccn::map`]
//! rejects the whole application. "Energy-Efficient On-Chip Networks
//! through Profiled Hybrid Switching" (arXiv:2005.08478) resolves that
//! tension by combining both disciplines in one fabric: profiled heavy
//! flows ride circuits, the long tail of best-effort traffic rides a
//! packet-switched plane that is mostly idle — and therefore clock-gated.
//!
//! [`HybridFabric`] is that design point behind the [`Fabric`] trait:
//!
//! * **Admission** happens in the CCN ([`Ccn::map_with_spill`]): path
//!   search and lane allocation are identical to strict mapping, but
//!   demands that cannot get circuit lanes are recorded in
//!   [`Mapping::spilled`] instead of failing the application.
//! * **`provision`** installs the admitted circuits into an owned
//!   circuit-switched [`Soc`] and registers every spilled demand on an
//!   owned [`PacketFabric`] of the paper's packet routers over the same
//!   mesh, run with [`noc_packet::params::PacketParams::gated`] — idle VC
//!   buffers, output registers and arbiters hold their clocks, so the
//!   spillover plane costs (almost) nothing while circuits carry the
//!   load. Every stream of the mapping gets one [`StreamId`] session
//!   handle (the [`Mapping::streams`] numbering), whichever plane serves
//!   it.
//! * **`inject_stream`** / **`drain_stream`** address one session;
//!   **`stream_stats`** merges both planes' telemetry into one table,
//!   labelling packet-plane sessions [`StreamPlane::Spilled`] — which is
//!   exactly the per-stream data behind the **GT/BE service gap**
//!   ([`HybridFabric::service_gap`]): circuit-plane p95 latency versus
//!   spilled p95 latency, the number profiled hybrid switching trades on.
//! * **`release`** / **`admit`** run the stream lifecycle live: releasing
//!   a circuit frees its lanes, and a later admission re-runs CCN lane
//!   allocation against the freed state ([`Ccn::admit_stream`] via the
//!   circuit plane, BE-network reconfiguration latency charged to the new
//!   stream); demands the circuit plane still cannot take fall back onto
//!   the gated packet plane as spillover — so a previously spilled stream
//!   can be re-admitted onto a circuit the moment one frees up.
//! * The **spillover split** ([`HybridFabric::spill_stats`],
//!   [`Fabric::spilled_streams`], [`Fabric::spilled_words`]) reports how
//!   much of the workload went GT-on-circuit vs BE-on-packet, so benches
//!   can show the hybrid's energy landing between the pure endpoints.

use crate::ccn::Mapping;
use crate::fabric::{
    merge_by_kind, EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError,
    SnapshotError,
};
use crate::session::{on_handle, Handles};
use crate::soc::Soc;
use crate::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
use crate::topology::Mesh;
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_sim::activity::ComponentActivity;
use noc_sim::par::{par_for_each_sized, ParPolicy};
use noc_sim::time::Cycle;
use noc_sim::units::SquareMicroMeters;
use std::collections::HashMap;

#[cfg(doc)]
use crate::ccn::Ccn;

/// The GT-on-circuit vs BE-on-packet split of a hybrid deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Parallel circuit paths provisioned on the circuit plane.
    pub circuit_paths: usize,
    /// Demands registered on the packet spillover plane.
    pub spilled_streams: usize,
    /// Payload words injected into the circuit plane.
    pub words_on_circuit: u64,
    /// Payload words injected into the packet plane.
    pub words_spilled: u64,
}

impl SpillStats {
    /// Fraction of injected words that spilled onto the packet plane.
    pub fn spill_fraction(&self) -> f64 {
        let total = self.words_on_circuit + self.words_spilled;
        if total == 0 {
            0.0
        } else {
            self.words_spilled as f64 / total as f64
        }
    }
}

/// The GT/BE service gap: worst-case (p95) service latency per plane.
///
/// Guaranteed-throughput streams ride physically separated circuit lanes;
/// best-effort spillover shares the gated packet plane. This report is
/// the per-connection QoS evidence: on a healthy hybrid every
/// circuit-plane stream's p95 is at or below every spilled stream's p95
/// ([`HybridFabric::gt_no_worse_than_be`] — enforced by the
/// `fabric_compare` CI gate on the oversubscribed workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceGap {
    /// Largest p95 latency among circuit-plane streams with deliveries.
    pub gt_worst_p95: Option<u64>,
    /// Smallest p95 latency among spilled streams with deliveries.
    pub be_best_p95: Option<u64>,
}

/// Which plane serves a hybrid session, with its plane-local handle.
#[derive(Debug, Clone, Copy)]
enum PlaneSlot {
    /// On the circuit plane under this local id.
    Circuit(StreamId),
    /// On the packet spillover plane under this local id.
    Packet(StreamId),
}

/// Where a hybrid handle points: the serving plane's session plus the
/// path count feeding [`SpillStats::circuit_paths`]. The serving plane
/// owns the session's lifecycle; the hybrid asks it.
#[derive(Debug, Clone, Copy)]
struct HybridHandle {
    slot: PlaneSlot,
    /// Parallel circuit paths (0 for packet-plane sessions).
    paths: usize,
}

/// A hybrid-switched network-on-chip: an owned circuit-switched [`Soc`]
/// and a clock-gated best-effort [`PacketFabric`] over the same mesh,
/// provisioned together from one spill-admitted [`Mapping`].
#[derive(Debug, Clone)]
pub struct HybridFabric {
    circuit: Soc,
    spill: PacketFabric,
    /// Global session handles, each routed to its serving plane.
    handles: Handles<HybridHandle>,
    policy: ParPolicy,
    now: Cycle,
    words_on_circuit: u64,
    words_spilled: u64,
}

impl HybridFabric {
    /// A hybrid fabric over `mesh`: circuit routers with `router_params`,
    /// and a spillover plane of the paper's packet routers with clock
    /// gating forced on — the whole point of the hybrid router is that its
    /// packet plane sleeps while circuits carry the profiled flows.
    ///
    /// # Panics
    /// Panics when the mesh exceeds the 16×16 packet coordinate space (the
    /// packet plane's constraint).
    pub fn new(mesh: Mesh, router_params: RouterParams) -> HybridFabric {
        HybridFabric {
            circuit: Soc::new(mesh, router_params),
            spill: PacketFabric::new(
                mesh,
                PacketParams::paper().gated(),
                PacketFabric::DEFAULT_PACKET_WORDS,
            ),
            handles: Handles::new(),
            policy: ParPolicy::Auto,
            now: Cycle::ZERO,
            words_on_circuit: 0,
            words_spilled: 0,
        }
    }

    /// A hybrid fabric with the paper's router on both planes.
    pub fn paper(mesh: Mesh) -> HybridFabric {
        HybridFabric::new(mesh, RouterParams::paper())
    }

    /// The circuit plane (testbench inspection).
    pub fn circuit_plane(&self) -> &Soc {
        &self.circuit
    }

    /// The packet spillover plane (testbench inspection).
    pub fn packet_plane(&self) -> &PacketFabric {
        &self.spill
    }

    /// The GT-on-circuit vs BE-on-packet split so far.
    pub fn spill_stats(&self) -> SpillStats {
        SpillStats {
            circuit_paths: self
                .handles
                .iter()
                .filter(|(_, h)| self.is_live(h.slot))
                .map(|(_, h)| h.paths)
                .sum(),
            spilled_streams: self.active_spilled() as usize,
            words_on_circuit: self.words_on_circuit,
            words_spilled: self.words_spilled,
        }
    }

    fn active_spilled(&self) -> u64 {
        self.handles
            .iter()
            .filter(|(_, h)| matches!(h.slot, PlaneSlot::Packet(_)) && self.is_live(h.slot))
            .count() as u64
    }

    /// The plane serving `slot`, with the plane-local handle.
    fn plane(&self, slot: PlaneSlot) -> (&dyn Fabric, StreamId) {
        match slot {
            PlaneSlot::Circuit(local) => (&self.circuit, local),
            PlaneSlot::Packet(local) => (&self.spill, local),
        }
    }

    fn plane_mut(&mut self, slot: PlaneSlot) -> (&mut dyn Fabric, StreamId) {
        match slot {
            PlaneSlot::Circuit(local) => (&mut self.circuit, local),
            PlaneSlot::Packet(local) => (&mut self.spill, local),
        }
    }

    /// Is the session behind `slot` still open or draining?
    fn is_live(&self, slot: PlaneSlot) -> bool {
        let (plane, local) = self.plane(slot);
        plane.stream_is_active(local) == Some(true)
    }

    /// The GT/BE service gap: worst circuit-plane p95 latency versus best
    /// spilled p95 latency, over streams with deliveries so far.
    pub fn service_gap(&self) -> ServiceGap {
        let stats = Fabric::stream_stats(self);
        ServiceGap {
            gt_worst_p95: crate::stream::worst_p95(&stats, StreamPlane::Circuit),
            be_best_p95: crate::stream::best_p95(&stats, StreamPlane::Spilled),
        }
    }

    /// `true` when every circuit-plane stream's p95 latency is at or
    /// below every spilled stream's p95 (vacuously true when either side
    /// has no deliveries) — the per-connection QoS claim of the hybrid
    /// discipline.
    pub fn gt_no_worse_than_be(&self) -> bool {
        crate::stream::gt_no_worse_than_be(&Fabric::stream_stats(self))
    }

    fn entry(&self, stream: StreamId) -> HybridHandle {
        *self
            .handles
            .get(stream)
            .unwrap_or_else(|| panic!("{stream} is not served by this hybrid fabric"))
    }
}

/// Backend label of [`HybridFabric`] in
/// [`crate::fabric::FabricSnapshot`]s.
pub(crate) const HYBRID_BACKEND: &str = "hybrid-mesh";

impl Fabric for HybridFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Hybrid
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(HYBRID_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot.downcast::<HybridFabric>(HYBRID_BACKEND)?.clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        self.circuit.mesh()
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Install `mapping`'s circuits on the circuit plane and its
    /// [`Mapping::spilled`] demands on the packet plane, handing out one
    /// session handle per stream (the [`Mapping::streams`] numbering,
    /// whichever plane serves it). Re-provisioning replaces both planes'
    /// plans and the session table (the [`Fabric`] idempotency contract).
    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        Fabric::provision_with(self, mapping, ProvisionMode::Instant)
    }

    /// [`HybridFabric::provision`] with an explicit [`ProvisionMode`]:
    /// under [`ProvisionMode::BeDelivered`] the circuit plane's cold-start
    /// configuration rides the BE network (each admitted stream pays its
    /// §5.1 delivery wait); the packet spillover plane has no router
    /// configuration to deliver and is ready immediately either way.
    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        // Circuit plane: the admitted routes (ignores `spilled`; ids come
        // out in the mapping's numbering).
        let circuit_ids = self.circuit.provision_with(mapping, mode)?;
        // Packet plane: only the spilled demands — the admitted streams
        // are physically separated on circuit lanes and never touch it.
        // Its local numbering restarts at 0; the table maps global ids.
        let spill_view = Mapping {
            placement: mapping.placement.clone(),
            routes: Vec::new(),
            spilled: mapping.spilled.clone(),
            lane_capacity: mapping.lane_capacity,
        };
        let packet_ids = Fabric::provision(&mut self.spill, &spill_view)?;

        let streams = mapping.streams();
        self.handles.reset(streams.len() as u32);
        let mut served = Vec::with_capacity(streams.len());
        let mut circuit_it = circuit_ids.into_iter();
        let mut packet_it = packet_ids.into_iter();
        for ms in streams {
            let (slot, paths) = if let Some(route) = ms.route {
                let local = circuit_it.next().expect("one circuit id per route stream");
                debug_assert_eq!(local, ms.id, "circuit plane uses the mapping numbering");
                (PlaneSlot::Circuit(local), mapping.routes[route].paths.len())
            } else {
                let local = packet_it.next().expect("one packet id per spilled stream");
                (PlaneSlot::Packet(local), 0)
            };
            self.handles.insert(ms.id, HybridHandle { slot, paths });
            served.push(ms.id);
        }
        // Word accounting belongs to the plan being replaced; energy
        // ledgers (like the pure fabrics') keep accumulating.
        self.words_on_circuit = 0;
        self.words_spilled = 0;
        Ok(served)
    }

    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize {
        let slot = self.entry(stream).slot;
        let (plane, local) = self.plane_mut(slot);
        plane.inject_stream(local, words);
        match slot {
            PlaneSlot::Circuit(_) => self.words_on_circuit += words.len() as u64,
            PlaneSlot::Packet(_) => self.words_spilled += words.len() as u64,
        }
        words.len()
    }

    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        let (plane, local) = self.plane_mut(self.entry(stream).slot);
        plane.drain_stream(local)
    }

    /// Both planes' sessions under the hybrid's global handles. Circuit
    /// sessions report [`StreamPlane::Circuit`]; every packet-plane
    /// session reports [`StreamPlane::Spilled`] — on a hybrid, the packet
    /// plane *is* the best-effort spillover.
    fn stream_stats(&self) -> Vec<StreamStats> {
        let circuit: HashMap<u32, StreamStats> = self
            .circuit
            .stream_stats()
            .into_iter()
            .map(|s| (s.id.0, s))
            .collect();
        let packet: HashMap<u32, StreamStats> = self
            .spill
            .stream_stats()
            .into_iter()
            .map(|s| (s.id.0, s))
            .collect();
        self.handles
            .iter()
            .map(|(gid, entry)| {
                let mut stats = match entry.slot {
                    PlaneSlot::Circuit(local) => circuit[&local.0].clone(),
                    PlaneSlot::Packet(local) => {
                        let mut s = packet[&local.0].clone();
                        s.plane = StreamPlane::Spilled;
                        s
                    }
                };
                stats.id = gid;
                stats
            })
            .collect()
    }

    /// The serving plane runs the release — a drain finalises there — and
    /// its errors come back under the hybrid's handle.
    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let Some(&entry) = self.handles.get(stream) else {
            return Err(AdmitError::UnknownStream(stream));
        };
        let (plane, local) = self.plane_mut(entry.slot);
        plane
            .release(local, mode)
            .map_err(|err| on_handle(err, stream))
    }

    fn stream_is_active(&self, stream: StreamId) -> Option<bool> {
        let (plane, local) = self.plane(self.handles.get(stream)?.slot);
        plane.stream_is_active(local)
    }

    /// Profiled re-admission: try the circuit plane first — CCN lane
    /// allocation against the live circuits, BE-delivered configuration
    /// charged to the stream ([`Fabric::admit`] on [`Soc`]). A demand the
    /// circuit lanes still cannot take spills onto the gated packet
    /// plane instead (the stream reports [`StreamPlane::Spilled`]), so
    /// `admit` only errors on a malformed ask
    /// ([`AdmitError::InvalidDemand`]) or one neither plane can serve.
    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        demand.check()?;
        let (slot, paths) = match self.circuit.admit(demand) {
            Ok(local) => {
                // The lanes actually held, straight from the circuit
                // plane's allocation.
                let paths = self.circuit.stream_path_count(local).unwrap_or(1);
                (PlaneSlot::Circuit(local), paths)
            }
            Err(AdmitError::Unsupported(why)) => return Err(AdmitError::Unsupported(why)),
            Err(_circuit_full) => (PlaneSlot::Packet(self.spill.admit(demand)?), 0),
        };
        let id = self.handles.issue();
        self.handles.insert(id, HybridHandle { slot, paths });
        Ok(id)
    }

    /// The circuit plane's side-effect-free admission probe: `true` when
    /// the CCN's lane allocation would put `demand` on circuit lanes
    /// against the live circuits right now — the feasibility check a
    /// promotion policy runs before churning a spilled session.
    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        self.circuit.can_admit_circuit(demand)
    }

    /// Forwarded to **both** planes: the packet plane flushes its open
    /// wormhole packets, and the circuit plane gets the call too so a
    /// future circuit-side staging layer cannot be silently skipped (the
    /// `Fabric::finish_injection` contract for composite fabrics).
    fn finish_injection(&mut self) {
        self.circuit.finish_injection();
        self.spill.finish_injection();
    }

    /// Choose serial or pooled stepping (default [`ParPolicy::Auto`]).
    ///
    /// When the policy parallelises a fabric of this size, the two planes
    /// step **concurrently**: they share no state until `drain`/`activity`
    /// merge their results, so a hybrid cycle forks its planes as two pool
    /// blocks, and each plane steps its own routers inline on its block's
    /// thread. The policy is propagated to both planes; results are
    /// bit-identical on every path.
    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
        self.circuit.set_parallelism(policy);
        self.spill.set_parallelism(policy);
    }

    fn step(&mut self) {
        // One dispatch per cycle, sized by both planes' routers.
        let routers = 2 * self.circuit.mesh().nodes();
        let mut planes: [&mut dyn Fabric; 2] = [&mut self.circuit, &mut self.spill];
        par_for_each_sized(&mut planes, self.policy, routers, |plane| plane.step());
        self.now += 1;
    }

    /// Both planes' activity merged per component kind. Energy is linear
    /// in event counts per `(component, class)`, so the merged ledger
    /// prices exactly like the planes priced separately.
    fn activity(&self) -> Vec<ComponentActivity> {
        merge_by_kind(
            self.circuit
                .activity()
                .into_iter()
                .chain(self.spill.activity()),
        )
    }

    fn clear_activity(&mut self) {
        self.circuit.clear_activity();
        self.spill.clear_activity();
    }

    fn is_quiescent(&self) -> bool {
        Fabric::is_quiescent(&self.circuit) && self.spill.is_quiescent()
    }

    fn total_overflows(&self) -> u64 {
        Fabric::total_overflows(&self.circuit) + self.spill.total_overflows()
    }

    fn spilled_streams(&self) -> u64 {
        self.active_spilled()
    }

    fn spilled_words(&self) -> u64 {
        self.words_spilled
    }

    /// A hybrid router carries both a circuit datapath and the packet
    /// plane's buffers/arbitration, so its silicon is the sum of both —
    /// the honest price of keeping a spillover plane around. (Leakage is
    /// charged on all of it; the *clock* energy of the idle packet plane
    /// is what gating removes.)
    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        Fabric::area(&self.circuit, model) + self.spill.area(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use crate::soc::Soc as SocPlane;
    use crate::tile::default_tile_kinds;
    use noc_apps::taskgraph::{TaskGraph, TrafficShape};
    use noc_sim::units::{Bandwidth, MegaHertz};

    /// The canonical oversubscribed workload
    /// ([`noc_apps::synthetic::oversubscribed_line`]) on a 3×1 line at
    /// 25 MHz: the heavy stream takes 3 lanes, the light one 2, the shared
    /// link has 4 — `saturated_line_yields_no_path` turned into a working
    /// deployment.
    fn oversubscribed_line() -> (TaskGraph, Mesh, Ccn) {
        let mesh = Mesh::new(3, 1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        (g, mesh, ccn)
    }

    /// Flush staging and run until stream `id` stops delivering; returns
    /// everything the session received, in order.
    fn drive_until_quiet(fabric: &mut HybridFabric, id: StreamId) -> Vec<u16> {
        fabric.finish_injection();
        let mut delivered = Vec::new();
        let mut idle = 0;
        let mut guard = 0;
        while idle < 4 {
            Fabric::run(fabric, 32);
            let fresh = Fabric::drain_stream(fabric, id);
            if fresh.is_empty() {
                idle += 1;
            } else {
                idle = 0;
                delivered.extend(fresh);
            }
            guard += 1;
            assert!(guard < 500, "hybrid stream never settled");
        }
        delivered
    }

    #[test]
    fn admitted_stream_rides_circuits_only() {
        let mesh = Mesh::new(2, 1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let mut g = TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "e");
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("feasible");
        assert!(mapping.spilled.is_empty());

        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let words: Vec<u16> = (0..50).map(|i| 0x4000 + i).collect();
        Fabric::inject_stream(&mut hybrid, ids[0], &words);
        let delivered = drive_until_quiet(&mut hybrid, ids[0]);
        assert_eq!(delivered, words, "in order on a single circuit");

        let stats = hybrid.spill_stats();
        assert_eq!(stats.spilled_streams, 0);
        assert_eq!(stats.words_spilled, 0);
        assert_eq!(stats.words_on_circuit, 50);
        assert_eq!(
            hybrid.packet_plane().words_injected,
            0,
            "nothing may touch the packet plane"
        );
        // Per-stream telemetry agrees.
        let streams = Fabric::stream_stats(&hybrid);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].plane, StreamPlane::Circuit);
        assert_eq!(streams[0].delivered_words, 50);
        assert!(streams[0].latency.count() > 0);
    }

    #[test]
    fn oversubscription_spills_onto_the_packet_plane() {
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        assert_eq!(mapping.spilled.len(), 1, "premise: the light edge spills");

        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        assert_eq!(ids.len(), 2, "one circuit + one spilled session");
        // Inject on the spilled session: all its words take the packet
        // plane (it has no circuit).
        let words: Vec<u16> = (0..40).map(|i| 0x7000 + i).collect();
        Fabric::inject_stream(&mut hybrid, ids[1], &words);
        let delivered = drive_until_quiet(&mut hybrid, ids[1]);
        assert_eq!(delivered, words, "spilled stream delivered intact");
        let stats = hybrid.spill_stats();
        assert_eq!(stats.spilled_streams, 1);
        assert_eq!(stats.words_spilled, 40);
        assert!(Fabric::is_quiescent(&hybrid));
        // The spilled session's telemetry carries the BE label.
        let spilled = Fabric::stream_stats(&hybrid)
            .into_iter()
            .find(|s| s.plane == StreamPlane::Spilled)
            .expect("one spilled session");
        assert_eq!(spilled.delivered_words, 40);
    }

    #[test]
    fn both_planes_deliver_to_a_shared_destination() {
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        assert_eq!(
            mapping.spilled[0].dst,
            mapping.routes[0].paths[0].last().unwrap().node,
            "premise: both streams share one sink"
        );

        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let gt: Vec<u16> = (0..60).map(|i| 0x1000 + i).collect();
        let be: Vec<u16> = (0..30).map(|i| 0x2000 + i).collect();
        Fabric::inject_stream(&mut hybrid, ids[0], &gt);
        Fabric::inject_stream(&mut hybrid, ids[1], &be);
        let gt_got = drive_until_quiet(&mut hybrid, ids[0]);
        let be_got = drive_until_quiet(&mut hybrid, ids[1]);
        assert_eq!(gt_got, gt, "circuit session exact at the shared sink");
        assert_eq!(be_got, be, "spilled session exact at the shared sink");
        assert_eq!(hybrid.spill_stats().words_on_circuit, 60);
        assert_eq!(hybrid.spill_stats().words_spilled, 30);
        assert!((hybrid.spill_stats().spill_fraction() - 30.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn stream_addressed_injection_keeps_planes_separate() {
        // The same shared-sink workload, driven through the stream API:
        // drain_stream sees each session's exact words even though both
        // sessions terminate on one node — the per-stream drain accounting
        // the node-level API cannot give.
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let streams = mapping.streams();
        let gt_id = streams.iter().find(|s| !s.spilled).unwrap().id;
        let be_id = streams.iter().find(|s| s.spilled).unwrap().id;
        assert_eq!(ids, vec![gt_id, be_id]);

        let gt: Vec<u16> = (0..60).map(|i| 0x1000 + i).collect();
        let be: Vec<u16> = (0..30).map(|i| 0x2000 + i).collect();
        Fabric::inject_stream(&mut hybrid, gt_id, &gt);
        Fabric::inject_stream(&mut hybrid, be_id, &be);
        hybrid.finish_injection();
        Fabric::run(&mut hybrid, 2_000);
        assert_eq!(Fabric::drain_stream(&mut hybrid, gt_id), gt);
        assert_eq!(Fabric::drain_stream(&mut hybrid, be_id), be);
        let stats = Fabric::stream_stats(&hybrid);
        let gt_stats = stats.iter().find(|s| s.id == gt_id).unwrap();
        let be_stats = stats.iter().find(|s| s.id == be_id).unwrap();
        assert_eq!(gt_stats.delivered_words, 60);
        assert_eq!(be_stats.delivered_words, 30);
        assert_eq!(gt_stats.latency.count(), 60, "every GT word timed");
        assert_eq!(be_stats.latency.count(), 30, "every BE word timed");
        let gap = hybrid.service_gap();
        assert!(gap.gt_worst_p95.is_some() && gap.be_best_p95.is_some());
        // (The GT p95 <= BE p95 QoS ordering is an *offered-load*
        // property — under the burst injection of this test the packet
        // plane's 16-bit links drain the one-shot backlog faster than the
        // 4-bit circuit lanes serialise theirs. The rate-driven check
        // lives in the deployment-level suites and the fabric_compare CI
        // gate.)
    }

    #[test]
    fn release_frees_lanes_and_readmits_the_spilled_demand_onto_circuit() {
        // The live re-admission story end to end: on the oversubscribed
        // line the light stream spills; release the heavy circuit and
        // re-admit the light demand — it must now land on the circuit
        // plane, with the BE-network reconfiguration wait charged to its
        // words' latency.
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let gt_id = ids[0];
        let be_id = ids[1];
        assert_eq!(Fabric::spilled_streams(&hybrid), 1);

        // Retire the spilled session and the heavy circuit.
        Fabric::release(&mut hybrid, be_id, ReleaseMode::Drop).unwrap();
        Fabric::release(&mut hybrid, gt_id, ReleaseMode::Drop).unwrap();
        assert_eq!(Fabric::spilled_streams(&hybrid), 0);

        // Re-admit the previously spilled demand: the freed lanes take it.
        let demand = mapping.stream_demand(be_id).expect("demand recorded");
        let readmitted = Fabric::admit(&mut hybrid, &demand).expect("freed lanes admit");
        let stats = Fabric::stream_stats(&hybrid);
        let s = stats.iter().find(|s| s.id == readmitted).unwrap();
        assert_eq!(
            s.plane,
            StreamPlane::Circuit,
            "spilled demand re-admitted onto the circuit plane"
        );
        assert!(
            s.reconfig_cycles > 0,
            "runtime circuits pay BE configuration delivery"
        );

        // Words injected immediately wait for the configuration to land:
        // the reconfiguration cycles show up in measured latency.
        let words: Vec<u16> = (0..20).map(|i| 0x5000 + i).collect();
        Fabric::inject_stream(&mut hybrid, readmitted, &words);
        Fabric::run(&mut hybrid, 2_000);
        assert_eq!(Fabric::drain_stream(&mut hybrid, readmitted), words);
        let stats = Fabric::stream_stats(&hybrid);
        let s = stats.iter().find(|s| s.id == readmitted).unwrap();
        assert!(
            s.latency.min().unwrap() >= s.reconfig_cycles,
            "first word's latency ({:?}) must include the reconfiguration \
             wait ({})",
            s.latency.min(),
            s.reconfig_cycles
        );
    }

    #[test]
    fn reprovision_replaces_both_planes() {
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        assert_eq!(Fabric::spilled_streams(&hybrid), 1);
        // Traffic under the old plan, so its word accounting is nonzero.
        Fabric::inject_stream(&mut hybrid, ids[1], &[1, 2, 3]);
        Fabric::run(&mut hybrid, 50);
        assert_eq!(Fabric::spilled_words(&hybrid), 3);

        // Re-provision with a strictly feasible single stream: the spill
        // registration must vanish with the old plan.
        let mut g2 = TaskGraph::new("pair");
        let a = g2.add_process("a");
        let b = g2.add_process("b");
        g2.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "e");
        let ccn2 = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let m2 = ccn2
            .map_with_spill(&g2, &default_tile_kinds(&mesh))
            .unwrap();
        Fabric::provision(&mut hybrid, &m2).unwrap();
        assert_eq!(Fabric::spilled_streams(&hybrid), 0);
        // Word accounting belongs to the replaced plan and must reset too.
        assert_eq!(Fabric::spilled_words(&hybrid), 0);
        assert_eq!(hybrid.spill_stats().words_on_circuit, 0);
        assert_eq!(hybrid.spill_stats().spill_fraction(), 0.0);
        let paths: usize = hybrid.spill_stats().circuit_paths;
        assert_eq!(
            paths,
            m2.routes.iter().map(|r| r.paths.len()).sum::<usize>()
        );
    }

    #[test]
    fn hybrid_energy_sits_between_the_pure_endpoints() {
        // The headline ordering on the oversubscribed line, at fabric
        // level with hand-driven injection: pure circuit (admitted subset
        // only) <= hybrid (everything, spill gated) <= pure packet
        // (everything, ungated baseline).
        let (g, mesh, ccn) = oversubscribed_line();
        let kinds = default_tile_kinds(&mesh);
        let mapping = ccn.map_with_spill(&g, &kinds).expect("spill admission");
        let model = EnergyModel::calibrated(MegaHertz(25.0));
        let gt: Vec<u16> = (0..200u16).map(|i| i.wrapping_mul(0x9E37)).collect();
        let be: Vec<u16> = (0..100u16).map(|i| i.wrapping_mul(0x6D2B)).collect();
        let cycles = 2_000;

        // Pure circuit: only the admitted stream exists.
        let mut soc = SocPlane::new(mesh, RouterParams::paper());
        let ids = Fabric::provision(&mut soc, &mapping).unwrap();
        Fabric::inject_stream(&mut soc, ids[0], &gt);
        Fabric::run(&mut soc, cycles);
        let circuit_energy = soc.total_energy(&model);
        assert_eq!(Fabric::drain_stream(&mut soc, ids[0]).len(), gt.len());

        // Hybrid: both streams.
        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        Fabric::inject_stream(&mut hybrid, ids[0], &gt);
        Fabric::inject_stream(&mut hybrid, ids[1], &be);
        hybrid.finish_injection();
        Fabric::run(&mut hybrid, cycles);
        let hybrid_energy = hybrid.total_energy(&model);
        let delivered = Fabric::drain_stream(&mut hybrid, ids[0]).len()
            + Fabric::drain_stream(&mut hybrid, ids[1]).len();
        assert_eq!(delivered, gt.len() + be.len());

        // Pure packet: both streams, ungated baseline.
        let mut packet = PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        );
        let ids = Fabric::provision(&mut packet, &mapping).unwrap();
        Fabric::inject_stream(&mut packet, ids[0], &gt);
        Fabric::inject_stream(&mut packet, ids[1], &be);
        packet.finish_injection();
        Fabric::run(&mut packet, cycles);
        let packet_energy = packet.total_energy(&model);
        let delivered = Fabric::drain_stream(&mut packet, ids[0]).len()
            + Fabric::drain_stream(&mut packet, ids[1]).len();
        assert_eq!(delivered, gt.len() + be.len());

        assert!(
            circuit_energy.value() <= hybrid_energy.value(),
            "hybrid {hybrid_energy} below the pure circuit {circuit_energy} \
             that does strictly less work"
        );
        assert!(
            hybrid_energy.value() <= packet_energy.value(),
            "hybrid {hybrid_energy} must beat pure packet {packet_energy}"
        );
    }

    #[test]
    fn inject_on_unknown_stream_panics() {
        let mesh = Mesh::new(2, 1);
        let mut hybrid = HybridFabric::paper(mesh);
        let mut g = TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "e");
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let m = ccn.map_with_spill(&g, &default_tile_kinds(&mesh)).unwrap();
        let ids = Fabric::provision(&mut hybrid, &m).unwrap();
        let bogus = StreamId(ids.len() as u32 + 41);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fabric::inject_stream(&mut hybrid, bogus, &[1]);
        }));
        assert!(result.is_err(), "no such session handle");
    }

    #[test]
    fn drained_release_spans_both_planes_without_loss() {
        // Drain-release both sessions of the oversubscribed line while
        // words are still queued and in flight on *both* planes: every
        // accepted word must land, then both teardowns finalise and the
        // freed circuit lanes are re-admissible.
        let (g, mesh, ccn) = oversubscribed_line();
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        let mut hybrid = HybridFabric::paper(mesh);
        let ids = Fabric::provision(&mut hybrid, &mapping).unwrap();
        let gt: Vec<u16> = (0..80).map(|i| 0x1100 + i).collect();
        let be: Vec<u16> = (0..40).map(|i| 0x2200 + i).collect();
        Fabric::inject_stream(&mut hybrid, ids[0], &gt);
        Fabric::inject_stream(&mut hybrid, ids[1], &be);
        Fabric::run(&mut hybrid, 8); // backlog mostly still queued
        Fabric::release(&mut hybrid, ids[0], ReleaseMode::Drain).unwrap();
        Fabric::release(&mut hybrid, ids[1], ReleaseMode::Drain).unwrap();
        assert_eq!(
            Fabric::release(&mut hybrid, ids[0], ReleaseMode::Drain),
            Err(AdmitError::Draining(ids[0])),
            "a drain in progress cannot be released again"
        );
        Fabric::run(&mut hybrid, 4_000);
        assert_eq!(Fabric::drain_stream(&mut hybrid, ids[0]), gt);
        assert_eq!(Fabric::drain_stream(&mut hybrid, ids[1]), be);
        let stats = Fabric::stream_stats(&hybrid);
        assert!(
            stats.iter().all(|s| !s.active),
            "both drains must finalise: {stats:?}"
        );
        assert!(Fabric::is_quiescent(&hybrid));
        // The heavy circuit's lanes are free again.
        let demand = mapping.stream_demand(ids[0]).unwrap();
        assert!(Fabric::can_admit_circuit(&hybrid, &demand));
    }
}
