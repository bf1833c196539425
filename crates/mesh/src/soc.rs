//! The assembled SoC: routers + tiles + link wiring, stepped per cycle.
//!
//! Wiring follows the paper's link structure: every neighbour port carries
//! `lanes_per_port` forward 4-bit lanes plus one reverse acknowledge wire
//! per lane (Fig. 7). Each cycle:
//!
//! 1. **Sample** — every router's inputs are loaded from its neighbours'
//!    registered outputs (the values latched at the previous edge), one
//!    packed port word per link ([`CircuitRouter::port_output`] into
//!    [`CircuitRouter::set_port_input`]);
//! 2. **Tiles** — sources inject, sinks drain;
//! 3. **Clock** — every router evaluates and commits, back to back, in one
//!    pass optionally fanned out over the persistent worker pool
//!    ([`noc_sim::par`]).
//!
//! Because sampling reads only latched outputs and a router's eval reads
//! only its own registers and sampled inputs, the routers of step 3 never
//! observe each other: any order, and any split over threads, gives the
//! same bits — the property that makes big-mesh simulation embarrassingly
//! parallel (see the `mesh_step` bench).

use crate::be::{BeConfig, BeNetwork};
use crate::ccn::{Ccn, EdgeRoute, Mapping};
use crate::fabric::{
    merge_by_kind, EnergyModel, Fabric, FabricKind, FabricSnapshot, ProvisionError, SnapshotError,
};
use crate::session::SessionTable;
use crate::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
use crate::tile::{default_tile_kinds, TileKind, TileSlab};
use crate::topology::{Mesh, NodeId};
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_core::phit::Phit;
use noc_core::router::CircuitRouter;
use noc_power::area::circuit_router_area;
use noc_sim::activity::{ActivityLedger, ComponentActivity};
use noc_sim::par::{par_step, ParPolicy};
use noc_sim::time::Cycle;
use noc_sim::units::{Bandwidth, SquareMicroMeters};
use std::collections::VecDeque;

/// A circuit session's own state: its lanes, word queues and setup.
#[derive(Debug, Clone)]
struct Circuit {
    /// The allocated circuit (kept whole so release can tear it down and
    /// runtime admission can count its lanes as occupied).
    route: EdgeRoute,
    /// Tile TX lane per parallel path (at `src`).
    tx_lanes: Vec<usize>,
    /// Tile RX lane per parallel path (at `dst`).
    rx_lanes: Vec<usize>,
    /// Words queued by `inject_stream`, tagged with their inject cycle.
    ingress: VecDeque<(u16, u64)>,
    /// Inject timestamps of words in flight, per parallel path (circuit
    /// delivery is FIFO per lane, so front-of-queue pairs with the next
    /// word captured on the path's RX lane).
    pending_ts: Vec<VecDeque<u64>>,
    /// BE-network configuration-delivery wait charged to this stream
    /// (zero for provision-time circuits).
    reconfig_cycles: u64,
    /// First cycle the circuit is configured and may carry traffic.
    ready_at: u64,
    /// BE message ids of in-flight setup words (runtime-admitted
    /// circuits only). Release cancels them: a dead stream's setup words
    /// must never land on lanes a newer circuit may hold by then.
    setup_msgs: Vec<u64>,
    /// Earliest teardown cycle of a drain whose words are all captured:
    /// the lanes are held one ack-flush window longer, because
    /// acknowledge pulses lag the last consumption by up to the circuit's
    /// hop count and must not hit a freshly reset window counter.
    quiesce_at: Option<u64>,
}

impl Circuit {
    /// No word queued or in flight.
    fn is_empty(&self) -> bool {
        self.ingress.is_empty() && self.pending_ts.iter().all(VecDeque::is_empty)
    }
}

/// The provisioned stream table behind the [`crate::fabric`] API: every
/// circuit session with its lanes, queues and telemetry, plus the
/// per-node source index the per-cycle TX pump walks.
#[derive(Debug, Clone)]
struct StreamPlan {
    sessions: SessionTable<Circuit>,
    /// Per node: indices of *active* streams originating there.
    by_src: Vec<Vec<usize>>,
    /// Per node, per tile RX lane: which (stream, path) terminates there.
    rx_map: Vec<Vec<Option<(usize, usize)>>>,
    /// Nodes with at least one entry ever in `rx_map` (collection skips
    /// the rest on the per-cycle hot path).
    rx_nodes: Vec<usize>,
    /// One lane's payload bandwidth, recorded from the mapping so runtime
    /// admission can re-run CCN lane allocation without a clock in hand.
    lane_capacity: Bandwidth,
}

impl StreamPlan {
    fn new(mesh: &Mesh, lanes_per_port: usize, lane_capacity: Bandwidth) -> StreamPlan {
        StreamPlan {
            sessions: SessionTable::new(),
            by_src: vec![Vec::new(); mesh.nodes()],
            rx_map: vec![vec![None; lanes_per_port]; mesh.nodes()],
            rx_nodes: Vec::new(),
            lane_capacity,
        }
    }

    /// Register one circuit session and index its lanes. The route must
    /// have at least one path.
    fn register(
        &mut self,
        id: StreamId,
        route: EdgeRoute,
        ready_at: u64,
        reconfig_cycles: u64,
        setup_msgs: Vec<u64>,
    ) -> usize {
        let src = route.src().expect("circuit streams have paths");
        let dst = route.dst().expect("circuit streams have paths");
        let tx_lanes: Vec<usize> = route.paths.iter().map(|p| p[0].in_lane).collect();
        let rx_lanes: Vec<usize> = route
            .paths
            .iter()
            .map(|p| p.last().expect("non-empty path").out_lane)
            .collect();
        let idx = self.sessions.len();
        for (j, &lane) in rx_lanes.iter().enumerate() {
            debug_assert!(self.rx_map[dst.0][lane].is_none(), "rx lane double-booked");
            self.rx_map[dst.0][lane] = Some((idx, j));
        }
        if !self.rx_nodes.contains(&dst.0) {
            self.rx_nodes.push(dst.0);
        }
        self.by_src[src.0].push(idx);
        let paths = route.paths.len();
        let circuit = Circuit {
            route,
            tx_lanes,
            rx_lanes,
            ingress: VecDeque::new(),
            pending_ts: vec![VecDeque::new(); paths],
            reconfig_cycles,
            ready_at,
            setup_msgs,
            quiesce_at: None,
        };
        self.sessions.open(id, src, dst, circuit)
    }

    /// Re-run CCN lane allocation for `demand` on a lane map rebuilt from
    /// the lanes every circuit still holds (draining ones included). The
    /// map is a scratch copy: nothing is claimed until the caller
    /// registers the route.
    ///
    /// The map is rebuilt per call rather than kept live across admit
    /// and teardown: clearing a torn-down circuit's bits matches a
    /// rebuild only while no two live circuits hold the same lane, which
    /// chiplet planes provisioned with stranded routes break, and the
    /// rebuild is a pass over the live routes' hops.
    fn route_for(
        &self,
        mesh: Mesh,
        params: RouterParams,
        demand: &StreamDemand,
    ) -> Result<EdgeRoute, AdmitError> {
        let ccn = Ccn::with_lane_capacity(mesh, params, self.lane_capacity);
        let mut lanes = ccn.lane_map();
        for s in self.sessions.iter().filter(|s| s.active()) {
            lanes.occupy(&s.x.route);
        }
        ccn.admit_stream(demand, &mut lanes)
    }
}

/// A mesh SoC of circuit-switched routers with one tile per router.
#[derive(Debug, Clone)]
pub struct Soc {
    mesh: Mesh,
    params: RouterParams,
    routers: Vec<CircuitRouter>,
    tiles: TileSlab,
    policy: ParPolicy,
    now: Cycle,
    /// Set by [`Soc::provision`]; drives the fabric-level stream API.
    plan: Option<StreamPlan>,
    /// The BE configuration network runtime admission sends its circuit
    /// setup words over; [`Soc::step`] applies them when they fall due,
    /// so reconfiguration latency (paper §5.1) is cycle-accurate.
    be: BeNetwork,
}

impl Soc {
    /// Build a SoC with identical routers and a default tile mix: kinds
    /// rotate through the Fig. 1 palette so every kind exists somewhere.
    pub fn new(mesh: Mesh, params: RouterParams) -> Soc {
        let kinds = default_tile_kinds(&mesh);
        let routers = mesh.iter().map(|_| CircuitRouter::new(params)).collect();
        let tiles = TileSlab::new(kinds, params.lanes_per_port);
        Soc {
            mesh,
            params,
            routers,
            tiles,
            policy: ParPolicy::Auto,
            now: Cycle::ZERO,
            plan: None,
            be: BeNetwork::new(mesh, BeConfig::default()),
        }
    }

    /// Parallel circuit paths (lanes) stream `id` holds; `None` for
    /// handles this fabric does not serve. The authoritative lane count
    /// behind the hybrid's GT/BE split accounting.
    pub fn stream_path_count(&self, id: StreamId) -> Option<usize> {
        let plan = self.plan.as_ref()?;
        let idx = plan.sessions.index_of(id)?;
        Some(plan.sessions[idx].x.route.paths.len())
    }

    /// Ship `route`'s configuration words over the BE network from the
    /// CCN's corner node, batched per router; `step` applies each batch
    /// when it falls due. Returns the cycle the circuit is ready and the
    /// message ids (so a release can void them).
    fn send_setup(&mut self, route: &EdgeRoute) -> (u64, Vec<u64>) {
        let now = self.now;
        let ccn_node = self.mesh.node(0, 0);
        let mut ready = now;
        let mut setup_msgs = Vec::new();
        for (node, words) in route.config_words_by_node(&self.params) {
            let (delivery, msg) = self.be.send_tracked(now, ccn_node, node, &words);
            ready = Cycle(ready.0.max(delivery.0));
            setup_msgs.push(msg);
        }
        (ready.0, setup_msgs)
    }

    /// Tear the circuit of stream index `idx` down and free its lanes —
    /// the shared endpoint of the immediate [`ReleaseMode::Drop`] path and
    /// the deferred drain finalisation in [`Soc::step`].
    fn teardown_stream_at(&mut self, idx: usize) {
        let params = self.params;
        let plan = self.plan.as_mut().expect("teardown needs a plan");
        plan.sessions.close(idx);
        let s = &mut plan.sessions[idx];
        s.x.ingress.clear();
        for q in &mut s.x.pending_ts {
            q.clear();
        }
        let (src, dst) = (s.src, s.dst);
        let (tx_lanes, rx_lanes) = (s.x.tx_lanes.clone(), s.x.rx_lanes.clone());
        // Void setup words still in flight on the BE network: once the
        // stream is dead its lanes may be re-admitted to a newer circuit,
        // and a late-landing stale configuration would clobber it.
        for msg in std::mem::take(&mut s.x.setup_msgs) {
            self.be.cancel(msg);
        }
        for (node, word) in crate::reconfig::teardown_words_for_route(&s.x.route, &params) {
            self.routers[node.0]
                .apply_config_word(word)
                .expect("teardown words are legal by construction");
        }
        plan.by_src[src.0].retain(|&i| i != idx);
        // Teardown resets the endpoints' flow-control FSMs with the lane
        // configuration: the freed lanes hand a *clean* window and ack
        // phase to whatever stream is admitted onto them next.
        for lane in tx_lanes {
            self.routers[src.0].reset_tile_lane_flow(lane);
        }
        for lane in rx_lanes {
            self.routers[dst.0].reset_tile_lane_flow(lane);
            plan.rx_map[dst.0][lane] = None;
            // Drop in-flight residue already captured on the lane.
            let _ = self.tiles.take_captured_lane(dst.0, lane);
        }
        if plan.rx_map[dst.0].iter().all(Option::is_none) {
            self.tiles.set_capture(dst.0, false);
        }
    }

    /// Streams whose [`ReleaseMode::Drain`] teardown has not finalised
    /// yet (words still in flight, or lanes held for the ack-flush
    /// window). Outstanding work: a fabric with pending drains is not
    /// quiescent — their teardown still has to run inside `step`.
    pub fn pending_drains(&self) -> usize {
        self.plan
            .as_ref()
            .map_or(0, |p| p.sessions.pending_drains())
    }

    /// Total words queued for injection but not yet on the wire.
    pub fn ingress_backlog(&self) -> usize {
        self.plan
            .as_ref()
            .map_or(0, |p| p.sessions.iter().map(|s| s.x.ingress.len()).sum())
    }

    /// The shared router parameters.
    pub fn params(&self) -> &RouterParams {
        &self.params
    }

    /// Immutable access to a router.
    pub fn router(&self, node: NodeId) -> &CircuitRouter {
        &self.routers[node.0]
    }

    /// Mutable access to a router (configuration, testbench drives).
    pub fn router_mut(&mut self, node: NodeId) -> &mut CircuitRouter {
        &mut self.routers[node.0]
    }

    /// Immutable access to the tile slab (per-node statistics, capture).
    pub fn tiles(&self) -> &TileSlab {
        &self.tiles
    }

    /// Mutable access to the tile slab (stream binding).
    pub fn tiles_mut(&mut self) -> &mut TileSlab {
        &mut self.tiles
    }

    /// Set a tile's hardware kind (before mapping).
    pub fn set_tile_kind(&mut self, node: NodeId, kind: TileKind) {
        self.tiles.set_kind(node.0, kind);
    }

    /// Sum of all routers' activity as one ledger.
    pub fn total_activity(&self) -> ActivityLedger {
        let mut total = ActivityLedger::new();
        for c in self.activity() {
            total.merge(&c.ledger);
        }
        total
    }

    /// Total phits delivered to all tiles.
    pub fn total_delivered(&self) -> u64 {
        (0..self.tiles.len())
            .map(|n| self.tiles.total_received(n))
            .sum()
    }
}

/// Backend label of the circuit-switched [`Soc`] in [`FabricSnapshot`]s.
pub(crate) const SOC_BACKEND: &str = "circuit-soc";

impl Fabric for Soc {
    fn kind(&self) -> FabricKind {
        FabricKind::Circuit
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(SOC_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot.downcast::<Soc>(SOC_BACKEND)?.clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Configure every circuit of `mapping` directly into the routers and
    /// set up the per-stream session table the [`crate::fabric::Fabric`]
    /// API drives: one [`StreamId`] per NoC-crossing route (the mapping's
    /// [`Mapping::streams`] numbering), each with its provisioned TX/RX
    /// lanes, word queues and latency telemetry; destination tiles get
    /// per-lane payload capture enabled so `drain_stream` can return
    /// delivered words stream-exactly.
    ///
    /// Production configuration delivery rides the BE network
    /// ([`crate::be`]); this is the instantaneous path, equivalent in
    /// final router state (`be_configuration_matches_direct_configuration`
    /// in the end-to-end tests). Circuits admitted later at runtime
    /// ([`Fabric::admit`]) *do* pay BE delivery latency.
    ///
    /// [`Mapping::spilled`] entries are *not* served: a circuit-only SoC
    /// has no best-effort plane to put them on (their [`StreamId`]s stay
    /// reserved so handles agree across backends). Deploy spill-admitted
    /// mappings on [`crate::hybrid::HybridFabric`] (or the packet fabric)
    /// when every stream must be delivered.
    ///
    /// Returns the handles of the streams this fabric serves.
    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        self.provision_with(mapping, ProvisionMode::Instant)
    }

    /// [`Soc::provision`] with an explicit [`ProvisionMode`].
    ///
    /// Under [`ProvisionMode::BeDelivered`] no configuration word touches
    /// a router here: each stream's setup words are batched per router
    /// ([`EdgeRoute::config_words_by_node`]) and sent over the BE network
    /// from the CCN's corner node — exactly the runtime-admission path
    /// ([`Fabric::admit`]) — so the cold-start delivery wait (paper
    /// §5.1 budgets) is charged to each stream's `reconfig_cycles` and,
    /// through `ready_at`, to the measured latency of every word injected
    /// before the circuit materialises. Streams are sent in [`StreamId`]
    /// order, so BE-link contention (and therefore each stream's charge)
    /// is deterministic.
    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        let params = self.params;
        // Idempotency (the Fabric contract): a re-provision replaces the
        // previous plan entirely — tear down every configured lane and
        // stop capturing at the old destinations before applying the new
        // mapping, so no stale circuit keeps forwarding or capturing.
        if self.plan.is_some() {
            for node in self.mesh.iter() {
                for port in Port::ALL {
                    for lane in 0..params.lanes_per_port {
                        self.routers[node.0].deactivate_lane(port, lane)?;
                    }
                }
                for lane in 0..params.lanes_per_port {
                    // A replaced plan's mid-window credit counts and ack
                    // phases must not leak into the new plan's circuits.
                    self.routers[node.0].reset_tile_lane_flow(lane);
                }
                self.tiles.set_capture(node.0, false);
            }
        }
        if mode == ProvisionMode::Instant {
            for (node, word) in mapping.config_words(&params) {
                self.routers[node.0].apply_config_word(word)?;
            }
        }
        // In-flight configuration of a replaced plan is void.
        self.be = BeNetwork::new(self.mesh, BeConfig::default());

        let mut plan = StreamPlan::new(&self.mesh, params.lanes_per_port, mapping.lane_capacity);
        let mut served = Vec::new();
        let streams = mapping.streams();
        plan.sessions.reset(streams.len() as u32);
        let now = self.now.0;
        for ms in streams {
            let Some(route_idx) = ms.route else {
                continue; // spilled: no circuit to serve it with
            };
            let route = mapping.routes[route_idx].clone();
            match mode {
                ProvisionMode::Instant => {
                    plan.register(ms.id, route, 0, 0, Vec::new());
                }
                ProvisionMode::BeDelivered => {
                    let (ready, setup_msgs) = self.send_setup(&route);
                    plan.register(ms.id, route, ready, ready - now, setup_msgs);
                }
            }
            self.tiles.set_capture(ms.dst.0, true);
            served.push(ms.id);
        }
        self.plan = Some(plan);
        Ok(served)
    }

    /// Words are tagged with the current cycle (the latency clock starts
    /// at injection, so serialisation backlog counts as service time) and
    /// drained onto the stream's provisioned TX lanes, one phit per free
    /// lane per cycle. All are accepted: the ingress queue is unbounded
    /// and its depth measures offered-load backlog.
    ///
    /// # Panics
    /// Also panics before [`Soc::provision`].
    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize {
        let now = self.now.0;
        let plan = self.plan.as_mut().expect("inject_stream before provision");
        let idx = plan.sessions.accepting(stream);
        let s = &mut plan.sessions[idx];
        s.x.ingress.extend(words.iter().map(|&w| (w, now)));
        s.words.injected += words.len() as u64;
        words.len()
    }

    /// # Panics
    /// Also panics before [`Soc::provision`].
    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        self.plan
            .as_mut()
            .expect("drain_stream before provision")
            .sessions
            .take_egress(stream)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        let Some(plan) = &self.plan else {
            return Vec::new();
        };
        plan.sessions
            .iter()
            .map(|s| s.stats(StreamPlane::Circuit, s.x.reconfig_cycles, 0))
            .collect()
    }

    /// [`ReleaseMode::Drop`] tears the circuit down now: its lanes are
    /// deactivated (one inactive configuration word per held output lane)
    /// and returned to the free pool runtime admission allocates from;
    /// undelivered ingress backlog is discarded and words mid-circuit are
    /// dropped with the lanes. [`ReleaseMode::Drain`] holds the lanes
    /// until every accepted word has been captured, and [`Soc::step`]
    /// finalises the teardown one ack-flush window later.
    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let Some(plan) = &mut self.plan else {
            return Err(AdmitError::UnknownStream(stream));
        };
        let idx = plan.sessions.releasable(stream)?;
        let s = &plan.sessions[idx];
        let empty = s.x.is_empty();
        let never_carried = s.words.delivered == 0;
        match mode {
            ReleaseMode::Drop => self.teardown_stream_at(idx),
            // A drain on a stream that never moved a word is already
            // complete — no capture happened, so no acknowledge can be in
            // flight on the reverse wires.
            ReleaseMode::Drain if empty && never_carried => self.teardown_stream_at(idx),
            ReleaseMode::Drain => plan.sessions.start_drain(idx),
        }
        Ok(())
    }

    fn stream_is_active(&self, stream: StreamId) -> Option<bool> {
        self.plan.as_ref()?.sessions.is_active(stream)
    }

    /// Re-runs CCN lane allocation against the live circuits (draining
    /// streams still hold theirs) without claiming anything.
    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        matches!(plan.route_for(self.mesh, self.params, demand), Ok(route) if !route.paths.is_empty())
    }

    /// Re-runs CCN lane allocation for `demand` against the lanes the live
    /// circuits hold, ships the new circuit's configuration words over the
    /// BE network and charges the delivery wait (paper §5.1 budgets) to
    /// the new stream: words injected before the configuration lands
    /// queue up and pay the wait in their measured latency.
    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        demand.check()?;
        let Some(plan) = &self.plan else {
            return Err(AdmitError::Unsupported(
                "admit needs a provisioned fabric (lane capacity comes from the mapping)",
            ));
        };
        let route = plan.route_for(self.mesh, self.params, demand)?;
        if route.paths.is_empty() {
            return Err(AdmitError::Unsupported(
                "on-tile demands need no NoC stream",
            ));
        }
        let now = self.now.0;
        let (ready, setup_msgs) = self.send_setup(&route);
        let dst = route.dst().expect("paths checked non-empty");
        let plan = self.plan.as_mut().expect("checked above");
        let id = plan.sessions.issue();
        plan.register(id, route, ready, ready - now, setup_msgs);
        self.tiles.set_capture(dst.0, true);
        Ok(id)
    }

    /// Choose serial or pooled router evaluation (default
    /// [`ParPolicy::Auto`]): the eval and commit phases fan out over the
    /// persistent [`noc_sim::par::WorkerPool`], or run inline when this
    /// plane is itself stepped inside a pool block (a hybrid's or chiplet
    /// grid's plane, a fleet's tenant). Results are bit-identical under
    /// every policy; deployments reach this knob through
    /// `Deployment::builder(..).parallelism(..)`.
    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
    }

    /// Advance the whole SoC by one clock cycle.
    fn step(&mut self) {
        // 0. Apply BE-delivered configuration that fell due this cycle:
        //    runtime-admitted circuits materialise here, charging their
        //    §5.1 reconfiguration wait cycle-accurately.
        if self.be.in_flight() > 0 {
            for (node, words) in self.be.take_due(self.now) {
                for word in words {
                    self.routers[node.0]
                        .apply_config_word(word)
                        .expect("admission emits only legal words");
                }
            }
        }

        // 1. Wire the links: every router's inputs are loaded from its
        //    neighbours' registered outputs, one port word per link.
        //    `set_port_input` writes only the input scratch and never a
        //    latched output, so one fused pass reading neighbours while
        //    writing own inputs is race-free. A neighbour whose every output
        //    has been parked at zero for two consecutive commits
        //    (`quiet_links`) drives nothing on any lane — skip sampling it
        //    entirely; on a mostly-idle mesh this removes the wiring pass
        //    from the per-cycle cost.
        for node in self.mesh.iter() {
            for port in Port::NEIGHBOURS {
                if let Some(nb) = self.mesh.neighbour(node, port) {
                    if self.routers[nb.0].quiet_links() {
                        continue;
                    }
                    let opp = port.opposite().expect("neighbour port");
                    let (data, acks) = self.routers[nb.0].port_output(opp);
                    self.routers[node.0].set_port_input(port, data, acks);
                }
            }
        }

        // 2. Tiles inject and drain. Provisioned stream ingress queues go
        //    first: one word per free TX lane per cycle, each stream
        //    spreading over its own parallel circuits. Streams whose
        //    configuration is still in flight on the BE network
        //    (`ready_at`) wait — that wait is the reconfiguration latency
        //    their words' timestamps charge.
        if let Some(plan) = &mut self.plan {
            let now = self.now.0;
            for node in self.mesh.iter() {
                for &si in &plan.by_src[node.0] {
                    let s = &mut plan.sessions[si].x;
                    if s.ready_at > now {
                        continue;
                    }
                    for (j, &lane) in s.tx_lanes.iter().enumerate() {
                        let Some(&(word, ts)) = s.ingress.front() else {
                            break;
                        };
                        if self.routers[node.0].tile_can_send(lane) {
                            s.ingress.pop_front();
                            let ok = self.routers[node.0].tile_send(lane, Phit::data(word));
                            debug_assert!(ok, "tile_can_send implies acceptance");
                            s.pending_ts[j].push_back(ts);
                        }
                    }
                }
            }
        }
        for node in self.mesh.iter() {
            self.tiles.step_node(node.0, &mut self.routers[node.0]);
        }

        // 2b. Collect per-lane captures into their streams' egress, pairing
        //     each word with its inject timestamp (FIFO per lane) for the
        //     latency ledger.
        if let Some(plan) = &mut self.plan {
            let now = self.now.0;
            for &n in &plan.rx_nodes {
                for (lane, slot) in plan.rx_map[n].iter().enumerate() {
                    let Some((si, pj)) = *slot else { continue };
                    let words = self.tiles.take_captured_lane(n, lane);
                    if words.is_empty() {
                        continue;
                    }
                    let s = &mut plan.sessions[si];
                    for word in words {
                        let ts = s.x.pending_ts[pj].pop_front();
                        s.words.deliver(word, ts.map(|ts| now - ts));
                    }
                }
            }
        }

        // 2c. Finalise draining releases: a stream retired with
        //     `ReleaseMode::Drain` holds its lanes until its last accepted
        //     word was captured above, then tears down loss-free. This
        //     runs in the serial section of the cycle, so drain timing is
        //     bit-identical under every `ParPolicy`.
        if let Some(plan) = &mut self.plan {
            let now = self.now.0;
            let done = plan.sessions.poll_drains(|s| {
                let s = &mut s.x;
                if !s.is_empty() {
                    return false;
                }
                // All words captured — hold the lanes one ack-flush
                // window longer: acknowledge pulses lag the last
                // consumption by up to the circuit's hop count, and a
                // late ack must never hit a freshly reset window counter.
                let margin = s.route.hops() as u64 + 4;
                now >= *s.quiesce_at.get_or_insert(now + margin)
            });
            for idx in done {
                self.teardown_stream_at(idx);
            }
        }

        // 3. Clock every router: eval then commit, router by router, in a
        //    single (optionally pooled) dispatch. A router's eval reads only
        //    its own registers and the inputs wired in step 1, and its
        //    commit writes only its own registers, so running one router's
        //    commit before another's eval cannot change any result.
        par_step(&mut self.routers, self.policy);
        self.now += 1;
    }

    /// Merge the whole SoC's per-component activity (for SoC-level power).
    fn activity(&self) -> Vec<ComponentActivity> {
        merge_by_kind(self.routers.iter().flat_map(|r| r.activity()))
    }

    /// Clear every router's ledgers (start of a measurement window).
    fn clear_activity(&mut self) {
        for r in &mut self.routers {
            r.clear_activity();
        }
    }

    fn is_quiescent(&self) -> bool {
        let lanes = self.params.lanes_per_port;
        // A pending drain is outstanding work even after its last word
        // was captured: the teardown (deferred one ack-flush window)
        // still has to run inside `step`, so "run until quiescent"
        // drivers must keep stepping.
        self.pending_drains() == 0
            && self.ingress_backlog() == 0
            && self
                .mesh
                .iter()
                .all(|n| (0..lanes).all(|l| self.router(n).tile_rx_pending(l) == 0))
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        circuit_router_area(&self.params, model.estimator().tech()).total()
            * self.mesh.nodes() as f64
    }

    fn total_overflows(&self) -> u64 {
        self.mesh
            .iter()
            .map(|n| self.router(n).rx_overflows())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::traffic::DataPattern;
    use noc_core::phit::Phit;

    fn two_by_one() -> Soc {
        Soc::new(Mesh::new(2, 1), RouterParams::paper())
    }

    #[test]
    fn single_hop_stream_across_routers() {
        // Node (0,0) tile -> East -> node (1,0) tile.
        let mut soc = two_by_one();
        let a = soc.mesh().node(0, 0);
        let b = soc.mesh().node(1, 0);
        // Configure: at A, tile lane 0 -> East lane 0; at B, West lane 0
        // -> tile lane 0.
        soc.router_mut(a)
            .connect(Port::Tile, 0, Port::East, 0)
            .unwrap();
        soc.router_mut(b)
            .connect(Port::West, 0, Port::Tile, 0)
            .unwrap();
        soc.tiles_mut()
            .bind_source(a.0, 0, DataPattern::Random, 7, 1.0, 5);

        soc.run(200);
        let received = soc.tiles().rx(b.0, 0).received;
        // 200 cycles / 5 per phit minus pipeline fill & window throttling.
        assert!(received >= 30, "expected a steady stream, got {received}");
        assert_eq!(soc.router(b).rx_overflows(), 0);
    }

    #[test]
    fn acks_flow_back_across_the_link() {
        // With the destination tile draining, the source's window refills:
        // emission exceeds the window size by far.
        let mut soc = two_by_one();
        let a = soc.mesh().node(0, 0);
        let b = soc.mesh().node(1, 0);
        soc.router_mut(a)
            .connect(Port::Tile, 0, Port::East, 0)
            .unwrap();
        soc.router_mut(b)
            .connect(Port::West, 0, Port::Tile, 0)
            .unwrap();
        soc.tiles_mut()
            .bind_source(a.0, 0, DataPattern::Zeros, 1, 1.0, 5);
        soc.run(400);
        let sent = soc.tiles().total_sent(a.0);
        assert!(
            sent > u64::from(soc.params().window_size) * 2,
            "window must refill through returning acks; sent {sent}"
        );
    }

    #[test]
    fn multi_hop_path() {
        // 3x1 mesh: tile(0) -> East -> router(1) passthrough -> East ->
        // tile(2).
        let mut soc = Soc::new(Mesh::new(3, 1), RouterParams::paper());
        let n0 = soc.mesh().node(0, 0);
        let n1 = soc.mesh().node(1, 0);
        let n2 = soc.mesh().node(2, 0);
        soc.router_mut(n0)
            .connect(Port::Tile, 0, Port::East, 0)
            .unwrap();
        soc.router_mut(n1)
            .connect(Port::West, 0, Port::East, 0)
            .unwrap();
        soc.router_mut(n2)
            .connect(Port::West, 0, Port::Tile, 0)
            .unwrap();
        soc.tiles_mut()
            .bind_source(n0.0, 0, DataPattern::Random, 3, 1.0, 5);
        soc.run(300);
        assert!(soc.tiles().rx(n2.0, 0).received > 40);
        // Intermediate tile got nothing.
        assert_eq!(soc.tiles().total_received(n1.0), 0);
    }

    #[test]
    fn serial_and_parallel_stepping_agree() {
        let build = || {
            let mut soc = Soc::new(Mesh::new(4, 4), RouterParams::paper());
            let a = soc.mesh().node(0, 0);
            let b = soc.mesh().node(1, 0);
            soc.router_mut(a)
                .connect(Port::Tile, 0, Port::East, 0)
                .unwrap();
            soc.router_mut(b)
                .connect(Port::West, 0, Port::Tile, 0)
                .unwrap();
            soc.tiles_mut()
                .bind_source(a.0, 0, DataPattern::Random, 11, 1.0, 5);
            soc
        };
        let mut serial = build();
        serial.set_parallelism(ParPolicy::Sequential);
        let mut parallel = build();
        parallel.set_parallelism(ParPolicy::Threads(4));
        serial.run(150);
        parallel.run(150);
        assert_eq!(
            serial.tiles().rx(serial.mesh().node(1, 0).0, 0).received,
            parallel
                .tiles()
                .rx(parallel.mesh().node(1, 0).0, 0)
                .received
        );
        assert_eq!(serial.total_activity(), parallel.total_activity());
    }

    #[test]
    fn idle_soc_accumulates_only_clock_activity() {
        let mut soc = two_by_one();
        soc.run(50);
        let total = soc.total_activity();
        assert_eq!(
            total.total(),
            total.get(noc_sim::activity::ActivityClass::RegClock),
            "idle SoC: every event is a register clock"
        );
        soc.clear_activity();
        assert!(soc.total_activity().is_empty());
    }

    #[test]
    fn direct_router_drive_through_mesh_api() {
        // The testbench can bypass tile sources and push raw phits; the
        // destination tile drains its queues every cycle, so delivery shows
        // up in the tile's receive statistics.
        let mut soc = two_by_one();
        let a = soc.mesh().node(0, 0);
        let b = soc.mesh().node(1, 0);
        soc.router_mut(a)
            .connect(Port::Tile, 1, Port::East, 2)
            .unwrap();
        soc.router_mut(b)
            .connect(Port::West, 2, Port::Tile, 1)
            .unwrap();
        assert!(soc.router_mut(a).tile_send(1, Phit::data(0xD00D)));
        soc.run(12);
        assert_eq!(soc.tiles().rx(b.0, 1).received, 1);
        assert_eq!(soc.tiles().rx(b.0, 1).last_word, Some(0xD00D));
    }

    #[test]
    fn releasing_an_unready_admission_voids_its_in_flight_setup_words() {
        // Admit A (setup words in flight on the BE network), release it
        // before they land, then admit B onto the freed lanes. A's stale
        // configuration must never be applied: once B's circuit is ready,
        // the router state equals B's plan exactly and B delivers.
        use crate::ccn::Ccn;
        use crate::stream::StreamDemand;
        use crate::tile::default_tile_kinds;
        use noc_sim::units::{Bandwidth, MegaHertz};

        let mesh = Mesh::new(3, 1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let mut g = noc_apps::taskgraph::TaskGraph::new("seed");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(
            a,
            b,
            Bandwidth(60.0),
            noc_apps::taskgraph::TrafficShape::Streaming,
            "seed",
        );
        let mapping = ccn.map(&g, &default_tile_kinds(&mesh)).unwrap();

        let mut soc = Soc::new(mesh, RouterParams::paper());
        let ids = soc.provision(&mapping).unwrap();
        // Clear the seed stream so the interesting lanes start free.
        soc.release(ids[0], ReleaseMode::Drop).unwrap();

        let demand_a = StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(2, 0),
            demand: Bandwidth(150.0), // 2 lanes
        };
        let id_a = soc.admit(&demand_a).unwrap();
        let a_ready = soc
            .stream_stats()
            .iter()
            .find(|s| s.id == id_a)
            .unwrap()
            .reconfig_cycles;
        assert!(a_ready > 0, "premise: A's setup is in flight");
        // Release A before its configuration lands; its lanes are free
        // again and its BE messages must be voided.
        soc.release(id_a, ReleaseMode::Drop).unwrap();

        let demand_b = StreamDemand {
            src: mesh.node(1, 0),
            dst: mesh.node(2, 0),
            demand: Bandwidth(150.0), // 2 lanes, overlapping A's claims
        };
        let id_b = soc.admit(&demand_b).unwrap();
        let b_ready = soc
            .stream_stats()
            .iter()
            .find(|s| s.id == id_b)
            .unwrap()
            .reconfig_cycles;

        // Run far past both delivery times: only B's words may land.
        soc.run(a_ready + b_ready + 64);
        let mut reference = Soc::new(mesh, RouterParams::paper());
        let ref_ids = reference.provision(&mapping).unwrap();
        reference.release(ref_ids[0], ReleaseMode::Drop).unwrap();
        let ref_b = reference.admit(&demand_b).unwrap();
        let ref_ready = reference
            .stream_stats()
            .iter()
            .find(|s| s.id == ref_b)
            .unwrap()
            .reconfig_cycles;
        reference.run(ref_ready + 1);
        for node in mesh.iter() {
            assert_eq!(
                soc.router(node).config().snapshot_words(),
                reference.router(node).config().snapshot_words(),
                "stale setup words of the released A corrupted {node:?}"
            );
        }

        // And B actually carries traffic on the cleanly configured lanes.
        soc.inject_stream(id_b, &[0xB0, 0xB1, 0xB2]);
        soc.run(400);
        assert_eq!(soc.drain_stream(id_b), vec![0xB0, 0xB1, 0xB2]);
    }
}
