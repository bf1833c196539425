//! Chiplet mesh-of-meshes: a hierarchical fabric built from a `cw × ch`
//! grid of independent per-chiplet backend fabrics stitched together by
//! **network-on-interposer (NoI) entry routers**.
//!
//! Each chiplet owns a full backend fabric (`FabricKind`-generic: circuit,
//! hybrid, deflection or packet) over its `iw × ih` sub-mesh. Streams whose
//! endpoints land on the same chiplet are provisioned verbatim on that
//! plane. Cross-chiplet streams are split into a *source segment* (src tile
//! → boundary exit tile), an XY walk over the NoI link graph, and a
//! *destination segment* (boundary entry tile → dst tile); the NoI hop is a
//! contended resource with `entry_lanes` lanes per directed link — one word
//! per lane per cycle, excess words queue and the wait is charged to the
//! stream's `LatencyHistogram`.
//!
//! Stepping forks the chiplet planes onto the shared
//! [`noc_sim::par::WorkerPool`] in one dispatch per cycle, sized by the
//! router count of the whole grid. A dispatch block holds exactly one plane
//! while there are at most four planes per lane, and each plane steps its
//! own routers inline on its block's thread. Boundary words are exchanged
//! in a fully sequential post-step phase so results are bit-identical under
//! every [`ParPolicy`].

use std::collections::{BTreeMap, HashMap, VecDeque};

use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_power::area::noi_entry_router_area;
use noc_sim::activity::{ActivityClass, ActivityLedger, ComponentActivity, ComponentKind};
use noc_sim::par::{par_for_each_sized, ParPolicy};
use noc_sim::time::Cycle;
use noc_sim::units::SquareMicroMeters;

use crate::ccn::{Ccn, EdgeRoute, LaneMap, Mapping, PathHop, SpillReason, SpillStream};
use crate::deflection::DeflectionFabric;
use crate::fabric::{
    merge_by_kind, EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError,
    SnapshotError,
};
use crate::hybrid::HybridFabric;
use crate::session::{on_handle, Handles, SessionTable};
use crate::soc::Soc;
use crate::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
use crate::topology::{Mesh, NodeId};

/// Backend label of [`ChipletFabric`] in [`FabricSnapshot`]s.
pub(crate) const CHIPLET_BACKEND: &str = "chiplet-mesh";

/// Knobs of the chiplet hierarchy: the circuit router of circuit and
/// hybrid inner planes plus the NoI entry-router sizing. Packet,
/// deflection and hybrid spill planes always run the paper's routers
/// ([`PacketFabric::DEFAULT_PACKET_WORDS`]-word wormholes on packet
/// planes).
#[derive(Debug, Clone)]
pub struct ChipletConfig {
    /// Circuit-switched router parameters for circuit/hybrid inner planes.
    pub router_params: RouterParams,
    /// Entry lanes per directed NoI link — the contended boundary resource.
    pub entry_lanes: usize,
}

impl ChipletConfig {
    /// Paper-default backend parameters with the default NoI sizing.
    pub fn paper() -> Self {
        ChipletConfig {
            router_params: RouterParams::paper(),
            entry_lanes: ChipletFabric::DEFAULT_ENTRY_LANES,
        }
    }
}

impl Default for ChipletConfig {
    fn default() -> Self {
        ChipletConfig::paper()
    }
}

/// One per-chiplet backend plane, `FabricKind`-generic.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one plane per chiplet, stepped in place; boxing would
                                     // add a pointer chase to every per-cycle dispatch block
enum InnerPlane {
    Circuit(Soc),
    Hybrid(HybridFabric),
    Deflection(DeflectionFabric),
    Packet(PacketFabric),
}

impl InnerPlane {
    fn build(kind: FabricKind, mesh: Mesh, config: &ChipletConfig) -> InnerPlane {
        match kind {
            FabricKind::Circuit => InnerPlane::Circuit(Soc::new(mesh, config.router_params)),
            FabricKind::Hybrid => InnerPlane::Hybrid(HybridFabric::new(mesh, config.router_params)),
            FabricKind::Deflection => InnerPlane::Deflection(DeflectionFabric::paper(mesh)),
            FabricKind::Packet => InnerPlane::Packet(PacketFabric::new(
                mesh,
                PacketParams::paper(),
                PacketFabric::DEFAULT_PACKET_WORDS,
            )),
        }
    }

    fn as_fabric(&self) -> &dyn Fabric {
        match self {
            InnerPlane::Circuit(f) => f,
            InnerPlane::Hybrid(f) => f,
            InnerPlane::Deflection(f) => f,
            InnerPlane::Packet(f) => f,
        }
    }

    fn as_fabric_mut(&mut self) -> &mut dyn Fabric {
        match self {
            InnerPlane::Circuit(f) => f,
            InnerPlane::Hybrid(f) => f,
            InnerPlane::Deflection(f) => f,
            InnerPlane::Packet(f) => f,
        }
    }
}

/// One word in flight on the NoI: stream tag, payload, and the cycle it
/// entered the current link's staging buffer (words advance one link per
/// cycle, so a word entered at cycle `t` is eligible to pop at `t + 1`).
#[derive(Debug, Clone, Copy)]
struct NoiWord {
    stream: u32,
    word: u16,
    entered: u64,
}

/// One directed NoI link between two adjacent chiplets, with its finite
/// entry lanes and the staging queue in front of them.
#[derive(Debug, Clone)]
struct NoiLink {
    /// Source chiplet index in the grid.
    from: usize,
    /// Destination chiplet index.
    to: usize,
    /// Streams currently holding a reserved entry lane.
    reserved: usize,
    /// Words staged at this link's entry router.
    queue: VecDeque<NoiWord>,
}

/// Where a stream handle lives in the hierarchy.
#[derive(Debug, Clone, Copy)]
enum ChipletSlot {
    /// Both endpoints on one chiplet: served by that plane under `local`,
    /// which owns the session's lifecycle and words.
    Intra {
        chip: usize,
        local: StreamId,
        src: NodeId,
        dst: NodeId,
    },
    /// Endpoints on different chiplets: the index of the stream's session
    /// (under the same handle) in the fabric's own `cross` table.
    Cross(usize),
}

/// A cross-chiplet session's own state: source segment, NoI walk,
/// destination segment. A `None` segment is degenerate (the endpoint tile
/// *is* the boundary tile) and words bypass that inner plane.
#[derive(Debug, Clone)]
struct CrossStream {
    src_chip: usize,
    dst_chip: usize,
    src_seg: Option<StreamId>,
    dst_seg: Option<StreamId>,
    links: Vec<usize>,
    /// Whether the destination segment's drain release has been issued.
    dst_drain_issued: bool,
    /// NoI configuration cycles charged at `BeDelivered` provisioning.
    noi_reconfig: u64,
    /// First cycle at which the NoI path accepts words.
    ready_at: u64,
    /// Total cycles words of this stream spent queued at NoI entry routers.
    noi_wait: u64,
    /// Words currently somewhere on the NoI walk.
    in_flight: u64,
    /// Injection timestamps of words not yet delivered, in order.
    pending_ts: VecDeque<u64>,
    /// Words waiting to enter the first NoI link (degenerate source
    /// segment, or flushed out of the source plane).
    noi_ingress: VecDeque<u16>,
}

impl CrossStream {
    /// A fresh session whose NoI walk accepts words `noi_reconfig` cycles
    /// after `now`.
    fn new(
        src_chip: usize,
        dst_chip: usize,
        src_seg: Option<StreamId>,
        dst_seg: Option<StreamId>,
        links: Vec<usize>,
        noi_reconfig: u64,
        now: u64,
    ) -> CrossStream {
        CrossStream {
            src_chip,
            dst_chip,
            src_seg,
            dst_seg,
            links,
            dst_drain_issued: false,
            noi_reconfig,
            ready_at: now + noi_reconfig,
            noi_wait: 0,
            in_flight: 0,
            pending_ts: VecDeque::new(),
            noi_ingress: VecDeque::new(),
        }
    }
}

/// How a stream segment resolved during hierarchical provisioning.
enum SegOutcome {
    /// Local stream admitted/spilled on the chiplet plane.
    Stream,
    /// Degenerate: endpoint tile is the boundary tile, no local stream.
    Degenerate,
    /// Could not be served (circuit inner plane out of lanes).
    Unserved,
}

/// What a pending local-plane binding refers to, in the order local ids
/// come back from `provision_with`.
#[derive(Debug, Clone, Copy)]
enum SegRef {
    /// Intra stream (global id): bind the local id to the `Intra` slot.
    Intra(u32),
    /// Source segment of cross stream (global id).
    Src(u32),
    /// Destination segment of cross stream (global id).
    Dst(u32),
}

/// Per-chiplet mapping under construction during `provision_with`.
#[derive(Debug, Default)]
struct ChipPlan {
    placement: Vec<(noc_apps::taskgraph::ProcessId, NodeId)>,
    routes: Vec<EdgeRoute>,
    spilled: Vec<SpillStream>,
    /// Bindings for streams that become *routes* on this plane, in push order.
    route_refs: Vec<SegRef>,
    /// Bindings for streams that become *spills* on this plane, in push order.
    spill_refs: Vec<SegRef>,
}

/// A `cw × ch` grid of per-chiplet backend fabrics joined by NoI entry
/// routers. Implements [`Fabric`] so every layer above (deployments,
/// controllers, fleets, benches) works unchanged.
#[derive(Debug, Clone)]
pub struct ChipletFabric {
    mesh: Mesh,
    grid: Mesh,
    inner_mesh: Mesh,
    inner_kind: FabricKind,
    config: ChipletConfig,
    planes: Vec<InnerPlane>,
    links: Vec<NoiLink>,
    link_index: BTreeMap<(usize, usize), usize>,
    /// Every stream handle, routed to its plane or to `cross`.
    handles: Handles<ChipletSlot>,
    /// The cross-chiplet sessions, keyed by their global handles.
    cross: SessionTable<CrossStream>,
    policy: ParPolicy,
    now: Cycle,
    noi_link_activity: ActivityLedger,
    noi_buffer_activity: ActivityLedger,
    noi_arbiter_activity: ActivityLedger,
}

impl ChipletFabric {
    /// Default entry lanes per directed NoI link.
    pub const DEFAULT_ENTRY_LANES: usize = 4;

    /// Configuration cycles charged per NoI link on a `BeDelivered`
    /// provision or a runtime `admit` of a cross-chiplet stream:
    /// the entry router's lane table is written over the die-to-die
    /// sideband, one link at a time.
    pub const NOI_CONFIG_CYCLES_PER_LINK: u64 = 4;

    /// Build a chiplet fabric over `mesh` split into a `cw × ch` grid of
    /// identical inner planes of `kind`.
    ///
    /// # Panics
    /// Panics when the grid is empty or `mesh` does not divide evenly
    /// into `cw × ch` chiplets.
    pub fn new(mesh: Mesh, cw: usize, ch: usize, kind: FabricKind, config: ChipletConfig) -> Self {
        assert!(cw >= 1 && ch >= 1, "chiplet grid must be at least 1x1");
        assert!(
            mesh.width.is_multiple_of(cw) && mesh.height.is_multiple_of(ch),
            "mesh {}x{} does not divide into a {}x{} chiplet grid",
            mesh.width,
            mesh.height,
            cw,
            ch,
        );
        assert!(
            config.entry_lanes >= 1,
            "NoI links need at least one entry lane"
        );
        let grid = Mesh::new(cw, ch);
        let inner_mesh = Mesh::new(mesh.width / cw, mesh.height / ch);
        let planes = (0..grid.nodes())
            .map(|_| InnerPlane::build(kind, inner_mesh, &config))
            .collect();
        let mut links = Vec::new();
        let mut link_index = BTreeMap::new();
        for (from, _, to) in grid.links() {
            link_index.insert((from.0, to.0), links.len());
            links.push(NoiLink {
                from: from.0,
                to: to.0,
                reserved: 0,
                queue: VecDeque::new(),
            });
        }
        ChipletFabric {
            mesh,
            grid,
            inner_mesh,
            inner_kind: kind,
            config,
            planes,
            links,
            link_index,
            handles: Handles::new(),
            cross: SessionTable::new(),
            policy: ParPolicy::Sequential,
            now: Cycle(0),
            noi_link_activity: ActivityLedger::default(),
            noi_buffer_activity: ActivityLedger::default(),
            noi_arbiter_activity: ActivityLedger::default(),
        }
    }

    /// Paper-default chiplet fabric.
    pub fn paper(mesh: Mesh, cw: usize, ch: usize, kind: FabricKind) -> Self {
        ChipletFabric::new(mesh, cw, ch, kind, ChipletConfig::paper())
    }

    /// The chiplet grid (`cw × ch`).
    pub fn grid(&self) -> Mesh {
        self.grid
    }

    /// The per-chiplet sub-mesh.
    pub fn inner_mesh(&self) -> Mesh {
        self.inner_mesh
    }

    /// Number of chiplet planes (= parallel shards).
    pub fn chiplets(&self) -> usize {
        self.planes.len()
    }

    /// Entry lanes per directed NoI link.
    pub fn entry_lanes(&self) -> usize {
        self.config.entry_lanes
    }

    /// Total cycles stream words spent queued at NoI entry routers.
    pub fn noi_wait_cycles(&self) -> u64 {
        self.cross.iter().map(|s| s.x.noi_wait).sum()
    }

    /// Number of live cross-chiplet streams.
    pub fn cross_streams(&self) -> usize {
        self.cross.iter().filter(|s| s.active()).count()
    }

    // -- geometry -----------------------------------------------------------

    /// Chiplet grid index owning aggregate `node`.
    pub fn chip_of(&self, node: NodeId) -> usize {
        let (x, y) = self.mesh.coords(node);
        (y / self.inner_mesh.height) * self.grid.width + x / self.inner_mesh.width
    }

    /// Aggregate node → tile on its chiplet's sub-mesh.
    pub fn local_node(&self, node: NodeId) -> NodeId {
        let (x, y) = self.mesh.coords(node);
        self.inner_mesh
            .node(x % self.inner_mesh.width, y % self.inner_mesh.height)
    }

    /// Tile on chiplet `chip`'s sub-mesh → aggregate node.
    pub fn aggregate_node(&self, chip: usize, local: NodeId) -> NodeId {
        let (cx, cy) = self.grid.coords(NodeId(chip));
        let (lx, ly) = self.inner_mesh.coords(local);
        self.mesh.node(
            cx * self.inner_mesh.width + lx,
            cy * self.inner_mesh.height + ly,
        )
    }

    /// Boundary tile a source-segment word exits through, given the first
    /// NoI hop direction.
    fn exit_node(&self, local_src: NodeId, first_port: Port) -> NodeId {
        let (x, y) = self.inner_mesh.coords(local_src);
        match first_port {
            Port::East => self.inner_mesh.node(self.inner_mesh.width - 1, y),
            Port::West => self.inner_mesh.node(0, y),
            Port::South => self.inner_mesh.node(x, self.inner_mesh.height - 1),
            Port::North => self.inner_mesh.node(x, 0),
            Port::Tile => local_src,
        }
    }

    /// Boundary tile a destination-segment word enters through, given the
    /// last NoI hop direction.
    fn entry_node(&self, local_dst: NodeId, last_port: Port) -> NodeId {
        let (x, y) = self.inner_mesh.coords(local_dst);
        match last_port {
            Port::East => self.inner_mesh.node(0, y),
            Port::West => self.inner_mesh.node(self.inner_mesh.width - 1, y),
            Port::South => self.inner_mesh.node(x, 0),
            Port::North => self.inner_mesh.node(x, self.inner_mesh.height - 1),
            Port::Tile => local_dst,
        }
    }

    /// XY walk over the chiplet grid from `src_chip` to `dst_chip`,
    /// returning the directed link indices in hop order.
    fn noi_route(&self, src_chip: usize, dst_chip: usize) -> Vec<usize> {
        let mut route = Vec::new();
        let mut cur = NodeId(src_chip);
        let dst = NodeId(dst_chip);
        while cur != dst {
            let port = self
                .grid
                .xy_step(cur, dst)
                .expect("xy_step yields a port while chiplets differ");
            let next = self
                .grid
                .neighbour(cur, port)
                .expect("xy_step ports stay on the grid");
            route.push(self.link_index[&(cur.0, next.0)]);
            cur = next;
        }
        route
    }

    /// First and last NoI hop directions of a cross-chiplet walk.
    fn noi_ports(&self, links: &[usize]) -> (Port, Port) {
        let port_of = |l: &NoiLink| {
            let from = NodeId(l.from);
            let to = NodeId(l.to);
            self.grid
                .xy_step(from, to)
                .expect("adjacent chiplets are one XY step apart")
        };
        let first = port_of(&self.links[links[0]]);
        let last = port_of(&self.links[*links.last().expect("cross walk has at least one link")]);
        (first, last)
    }

    /// Translate an aggregate-mesh path-hop sequence onto the inner mesh of
    /// one chiplet (all hops must stay inside that chiplet).
    fn route_in_chip(&self, route: &EdgeRoute) -> EdgeRoute {
        let paths = route
            .paths
            .iter()
            .map(|path| {
                path.iter()
                    .map(|hop| PathHop {
                        node: self.local_node(hop.node),
                        ..*hop
                    })
                    .collect()
            })
            .collect();
        EdgeRoute {
            edges: route.edges.clone(),
            paths,
            lane_capacity: route.lane_capacity,
            demand: route.demand,
        }
    }

    /// Resolve one intra-chiplet stream segment from `src` to `dst` (local
    /// tiles) on `chip`, pushing it onto the chip's plan. Circuit and
    /// hybrid inner planes go through the local CCN, which claims the
    /// segment's lanes in `lanes`; packet and deflection planes take
    /// everything as spill streams.
    #[allow(clippy::too_many_arguments)]
    fn resolve_segment(
        &self,
        ccn: &Ccn,
        plan: &mut ChipPlan,
        lanes: &mut LaneMap,
        src: NodeId,
        dst: NodeId,
        demand: noc_sim::units::Bandwidth,
        seg: SegRef,
    ) -> SegOutcome {
        if src == dst {
            return SegOutcome::Degenerate;
        }
        match self.inner_kind {
            FabricKind::Circuit | FabricKind::Hybrid => {
                let want = StreamDemand { src, dst, demand };
                match ccn.admit_stream(&want, lanes) {
                    Ok(route) => {
                        plan.routes.push(route);
                        plan.route_refs.push(seg);
                        SegOutcome::Stream
                    }
                    Err(_) if matches!(self.inner_kind, FabricKind::Hybrid) => {
                        plan.spilled.push(SpillStream {
                            edges: Vec::new(),
                            src,
                            dst,
                            demand,
                            reason: SpillReason::NoFreeLanes,
                        });
                        plan.spill_refs.push(seg);
                        SegOutcome::Stream
                    }
                    Err(_) => SegOutcome::Unserved,
                }
            }
            FabricKind::Deflection | FabricKind::Packet => {
                plan.spilled.push(SpillStream {
                    edges: Vec::new(),
                    src,
                    dst,
                    demand,
                    reason: SpillReason::NoFreeLanes,
                });
                plan.spill_refs.push(seg);
                SegOutcome::Stream
            }
        }
    }

    // -- NoI stepping phases ------------------------------------------------

    /// Advance every NoI link by one cycle: pop up to `entry_lanes` eligible
    /// words per link (arrival order), deliver or forward them. Fully
    /// sequential in link-index order — this is the determinism barrier.
    fn advance_noi(&mut self, now: u64) {
        let entry_lanes = self.config.entry_lanes;
        // Phase 1: pop grants per link. Only words staged before this cycle
        // are eligible, so a word makes exactly one link per cycle.
        let mut moved: Vec<(usize, NoiWord)> = Vec::new();
        for (li, link) in self.links.iter_mut().enumerate() {
            let mut granted = 0usize;
            while granted < entry_lanes {
                match link.queue.front() {
                    Some(w) if w.entered < now => {
                        let w = link.queue.pop_front().expect("front word just observed");
                        moved.push((li, w));
                        granted += 1;
                    }
                    _ => break,
                }
            }
            if granted > 0 || !link.queue.is_empty() {
                self.noi_arbiter_activity.add(ActivityClass::ArbiterEval, 1);
            }
        }
        // Phase 2: charge energy and wait, then deliver or push to the next
        // link on the word's walk.
        let mut relays: BTreeMap<(usize, u32), Vec<u16>> = BTreeMap::new();
        for (li, w) in moved {
            self.noi_buffer_activity.add(ActivityClass::BufferRead, 1);
            self.noi_link_activity.add(ActivityClass::LinkToggle, 16);
            let idx = self
                .cross
                .index_of(StreamId(w.stream))
                .expect("NoI words belong to cross-chiplet sessions");
            let st = &mut self.cross[idx];
            st.x.noi_wait += (now - w.entered).saturating_sub(1);
            let pos =
                st.x.links
                    .iter()
                    .position(|&l| l == li)
                    .expect("NoI word travels on its stream's walk");
            if let Some(&next) = st.x.links.get(pos + 1) {
                self.noi_buffer_activity.add(ActivityClass::BufferWrite, 1);
                self.links[next]
                    .queue
                    .push_back(NoiWord { entered: now, ..w });
            } else {
                st.x.in_flight -= 1;
                if st.x.dst_seg.is_some() {
                    relays
                        .entry((st.x.dst_chip, w.stream))
                        .or_default()
                        .push(w.word);
                } else {
                    // Degenerate destination segment: the boundary tile
                    // is the destination tile.
                    let ts = st.x.pending_ts.pop_front();
                    st.words.deliver(w.word, ts.map(|ts| now - ts));
                }
            }
        }
        // Phase 3: relay delivered words into destination planes, then give
        // those planes their injection flush.
        let mut touched: Vec<usize> = Vec::new();
        for ((chip, stream), words) in relays {
            let idx = self
                .cross
                .index_of(StreamId(stream))
                .expect("relayed words belong to cross-chiplet sessions");
            let local = self.cross[idx]
                .x
                .dst_seg
                .expect("relayed words target a live destination segment");
            self.planes[chip]
                .as_fabric_mut()
                .inject_stream(local, &words);
            if touched.last() != Some(&chip) {
                touched.push(chip);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for chip in touched {
            self.planes[chip].as_fabric_mut().finish_injection();
        }
    }

    /// Move source-segment output (or degenerate-source ingress) onto the
    /// first NoI link of each cross stream.
    fn feed_noi(&mut self, now: u64) {
        for idx in 0..self.cross.len() {
            let st = &mut self.cross[idx];
            if !st.active() {
                continue;
            }
            if let Some(local) = st.x.src_seg {
                let words = self.planes[st.x.src_chip]
                    .as_fabric_mut()
                    .drain_stream(local);
                st.x.noi_ingress.extend(words);
            }
            if now >= st.x.ready_at {
                let first_link = st.x.links[0];
                while let Some(word) = st.x.noi_ingress.pop_front() {
                    st.x.in_flight += 1;
                    self.noi_buffer_activity.add(ActivityClass::BufferWrite, 1);
                    self.links[first_link].queue.push_back(NoiWord {
                        stream: st.id.0,
                        word,
                        entered: now,
                    });
                }
            }
        }
    }

    /// Pull destination-segment deliveries up to the chiplet level.
    fn collect_dst(&mut self, now: u64) {
        for idx in 0..self.cross.len() {
            let st = &mut self.cross[idx];
            let Some(dst_seg) = st.x.dst_seg else {
                continue;
            };
            for word in self.planes[st.x.dst_chip]
                .as_fabric_mut()
                .drain_stream(dst_seg)
            {
                let ts = st.x.pending_ts.pop_front();
                st.words.deliver(word, ts.map(|ts| now - ts));
            }
        }
    }

    /// Progress draining cross-chiplet streams: cascade each drain from
    /// source segment to NoI to destination segment, then free the
    /// stream's NoI entry-lane reservations. (Intra-chiplet drains run in
    /// their plane.)
    fn finalise_drains(&mut self) {
        let planes = &mut self.planes;
        let finished = self.cross.poll_drains(|st| {
            let x = &mut st.x;
            let src_done = x
                .src_seg
                .is_none_or(|s| planes[x.src_chip].as_fabric().stream_is_active(s) == Some(false));
            let noi_empty = x.noi_ingress.is_empty() && x.in_flight == 0;
            if src_done && noi_empty && !x.dst_drain_issued {
                if let Some(d) = x.dst_seg {
                    planes[x.dst_chip]
                        .as_fabric_mut()
                        .release(d, ReleaseMode::Drain)
                        .expect("destination segment is live while draining");
                }
                x.dst_drain_issued = true;
            }
            x.dst_drain_issued
                && x.dst_seg.is_none_or(|d| {
                    planes[x.dst_chip].as_fabric().stream_is_active(d) == Some(false)
                })
        });
        for idx in finished {
            self.free_links(idx);
        }
    }

    /// Free the NoI entry-lane reservations of cross session `idx`.
    fn free_links(&mut self, idx: usize) {
        for &l in &self.cross[idx].x.links {
            self.links[l].reserved = self.links[l].reserved.saturating_sub(1);
        }
    }

    /// The slot of handle `id`.
    ///
    /// # Panics
    /// Panics on a handle this fabric never issued.
    fn slot(&self, id: StreamId) -> ChipletSlot {
        *self
            .handles
            .get(id)
            .unwrap_or_else(|| panic!("{id} is not served by this chiplet fabric"))
    }
}

impl Fabric for ChipletFabric {
    fn kind(&self) -> FabricKind {
        self.inner_kind
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(CHIPLET_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot.downcast::<ChipletFabric>(CHIPLET_BACKEND)?.clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        self.provision_with(mapping, ProvisionMode::Instant)
    }

    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        for link in &mut self.links {
            link.reserved = 0;
            link.queue.clear();
        }
        let streams = mapping.streams();
        self.handles.reset(streams.len() as u32);
        self.cross.reset(streams.len() as u32);

        let ccn = Ccn::with_lane_capacity(
            self.inner_mesh,
            self.config.router_params,
            mapping.lane_capacity,
        );
        let chips = self.planes.len();
        let mut plans: Vec<ChipPlan> = (0..chips).map(|_| ChipPlan::default()).collect();
        let mut lanes: Vec<LaneMap> = vec![ccn.lane_map(); chips];

        for &(proc, node) in &mapping.placement {
            plans[self.chip_of(node)]
                .placement
                .push((proc, self.local_node(node)));
        }

        // Pre-pass: translate every same-chiplet route, which is
        // provisioned verbatim, onto its chiplet once, and occupy it on that
        // chiplet's lane map, so segment admission cannot collide with them
        // regardless of stream order.
        let intra_routes: Vec<Option<EdgeRoute>> = streams
            .iter()
            .map(|ms| {
                if ms.spilled || self.chip_of(ms.src) != self.chip_of(ms.dst) {
                    return None;
                }
                let route = &mapping.routes[ms.route.expect("non-spilled stream has a route")];
                let local = self.route_in_chip(route);
                lanes[self.chip_of(ms.src)].occupy(&local);
                Some(local)
            })
            .collect();

        let mut served = Vec::new();
        for (ms, intra_route) in streams.into_iter().zip(intra_routes) {
            let src_chip = self.chip_of(ms.src);
            let dst_chip = self.chip_of(ms.dst);
            let gid = ms.id.0;
            if src_chip == dst_chip {
                let plan = &mut plans[src_chip];
                if ms.spilled {
                    // Aggregate-level spill decisions are preserved verbatim
                    // so a 1×1 grid stays bit-identical to the flat fabric:
                    // a circuit plane cannot carry them at all, every other
                    // plane takes them directly as spill streams.
                    if matches!(self.inner_kind, FabricKind::Circuit) {
                        continue;
                    }
                    let spill = &mapping.spilled[ms.spill.expect("spilled stream has a spill")];
                    plan.spilled.push(SpillStream {
                        edges: spill.edges.clone(),
                        src: self.local_node(ms.src),
                        dst: self.local_node(ms.dst),
                        demand: spill.demand,
                        reason: spill.reason,
                    });
                    plan.spill_refs.push(SegRef::Intra(gid));
                } else {
                    plan.routes
                        .push(intra_route.expect("the pre-pass translated this route"));
                    plan.route_refs.push(SegRef::Intra(gid));
                }
                let slot = ChipletSlot::Intra {
                    chip: src_chip,
                    local: StreamId(0),
                    src: ms.src,
                    dst: ms.dst,
                };
                self.handles.insert(ms.id, slot);
            } else {
                let links = self.noi_route(src_chip, dst_chip);
                let (first_port, last_port) = self.noi_ports(&links);
                let local_src = self.local_node(ms.src);
                let local_dst = self.local_node(ms.dst);
                let exit = self.exit_node(local_src, first_port);
                let entry = self.entry_node(local_dst, last_port);
                // Resolve both segments tentatively, on copies of the two
                // chiplets' lane maps, so a failed destination segment does
                // not leave a half-committed source segment.
                let mut src_plan = ChipPlan::default();
                let mut dst_plan = ChipPlan::default();
                let mut src_lanes = lanes[src_chip].clone();
                let mut dst_lanes = lanes[dst_chip].clone();
                let src_out = self.resolve_segment(
                    &ccn,
                    &mut src_plan,
                    &mut src_lanes,
                    local_src,
                    exit,
                    ms.demand,
                    SegRef::Src(gid),
                );
                let dst_out = self.resolve_segment(
                    &ccn,
                    &mut dst_plan,
                    &mut dst_lanes,
                    entry,
                    local_dst,
                    ms.demand,
                    SegRef::Dst(gid),
                );
                if matches!(src_out, SegOutcome::Unserved)
                    || matches!(dst_out, SegOutcome::Unserved)
                {
                    continue;
                }
                lanes[src_chip] = src_lanes;
                lanes[dst_chip] = dst_lanes;
                let src_seg = match src_out {
                    SegOutcome::Stream => {
                        let plan = &mut plans[src_chip];
                        plan.routes.extend(src_plan.routes);
                        plan.route_refs.extend(src_plan.route_refs);
                        plan.spilled.extend(src_plan.spilled);
                        plan.spill_refs.extend(src_plan.spill_refs);
                        Some(StreamId(0))
                    }
                    _ => None,
                };
                let dst_seg = match dst_out {
                    SegOutcome::Stream => {
                        let plan = &mut plans[dst_chip];
                        plan.routes.extend(dst_plan.routes);
                        plan.route_refs.extend(dst_plan.route_refs);
                        plan.spilled.extend(dst_plan.spilled);
                        plan.spill_refs.extend(dst_plan.spill_refs);
                        Some(StreamId(0))
                    }
                    _ => None,
                };
                for &l in &links {
                    self.links[l].reserved += 1;
                }
                let noi_reconfig = match mode {
                    ProvisionMode::BeDelivered => {
                        links.len() as u64 * Self::NOI_CONFIG_CYCLES_PER_LINK
                    }
                    ProvisionMode::Instant => 0,
                };
                let cross = CrossStream::new(
                    src_chip,
                    dst_chip,
                    src_seg,
                    dst_seg,
                    links,
                    noi_reconfig,
                    self.now.0,
                );
                let idx = self.cross.open(ms.id, ms.src, ms.dst, cross);
                self.handles.insert(ms.id, ChipletSlot::Cross(idx));
            }
            served.push(ms.id);
        }

        // Bind local plane ids back into the chiplet table. Each plane
        // returns ids in `Mapping::streams()` order: routes first (in push
        // order), spills after — matching route_refs ++ spill_refs.
        for (chip, plan) in plans.into_iter().enumerate() {
            let local_mapping = Mapping {
                placement: plan.placement,
                routes: plan.routes,
                spilled: plan.spilled,
                lane_capacity: mapping.lane_capacity,
            };
            let ids = self.planes[chip]
                .as_fabric_mut()
                .provision_with(&local_mapping, mode)?;
            let mut refs = plan.route_refs;
            refs.extend(plan.spill_refs);
            assert_eq!(
                ids.len(),
                refs.len(),
                "chiplet {chip} plane served {} of {} expected segments",
                ids.len(),
                refs.len(),
            );
            for (local, r) in ids.into_iter().zip(refs) {
                match r {
                    SegRef::Intra(gid) => match self.handles.get_mut(StreamId(gid)) {
                        Some(ChipletSlot::Intra { local: slot, .. }) => *slot = local,
                        _ => unreachable!("intra bindings target intra slots"),
                    },
                    SegRef::Src(gid) | SegRef::Dst(gid) => {
                        let idx = self
                            .cross
                            .index_of(StreamId(gid))
                            .expect("segment bindings target cross sessions");
                        let x = &mut self.cross[idx].x;
                        if matches!(r, SegRef::Src(_)) {
                            x.src_seg = Some(local);
                        } else {
                            x.dst_seg = Some(local);
                        }
                    }
                }
            }
        }
        Ok(served)
    }

    fn inject_stream(&mut self, id: StreamId, words: &[u16]) -> usize {
        if let ChipletSlot::Intra { chip, local, .. } = self.slot(id) {
            return self.planes[chip]
                .as_fabric_mut()
                .inject_stream(local, words);
        }
        let now = self.now.0;
        let idx = self.cross.accepting(id);
        let st = &mut self.cross[idx];
        let accepted = match st.x.src_seg {
            Some(local) => self.planes[st.x.src_chip]
                .as_fabric_mut()
                .inject_stream(local, words),
            None => {
                st.x.noi_ingress.extend(words.iter().copied());
                words.len()
            }
        };
        st.words.injected += accepted as u64;
        for _ in 0..accepted {
            st.x.pending_ts.push_back(now);
        }
        accepted
    }

    fn finish_injection(&mut self) {
        for plane in &mut self.planes {
            plane.as_fabric_mut().finish_injection();
        }
    }

    fn drain_stream(&mut self, id: StreamId) -> Vec<u16> {
        match self.slot(id) {
            ChipletSlot::Intra { chip, local, .. } => {
                self.planes[chip].as_fabric_mut().drain_stream(local)
            }
            ChipletSlot::Cross(_) => self.cross.take_egress(id),
        }
    }

    /// An intra-chiplet release runs in its plane (errors come back under
    /// the aggregate handle); a cross-chiplet one releases the source
    /// segment, and a drain cascades on from there in `step`.
    fn release(&mut self, id: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let Some(&slot) = self.handles.get(id) else {
            return Err(AdmitError::UnknownStream(id));
        };
        if let ChipletSlot::Intra { chip, local, .. } = slot {
            return self.planes[chip]
                .as_fabric_mut()
                .release(local, mode)
                .map_err(|err| on_handle(err, id));
        }
        let idx = self.cross.releasable(id)?;
        let x = &self.cross[idx].x;
        let (src_chip, dst_chip, src_seg, dst_seg) = (x.src_chip, x.dst_chip, x.src_seg, x.dst_seg);
        if let Some(s) = src_seg {
            self.planes[src_chip].as_fabric_mut().release(s, mode)?;
        }
        match mode {
            ReleaseMode::Drop => {
                if let Some(d) = dst_seg {
                    self.planes[dst_chip]
                        .as_fabric_mut()
                        .release(d, ReleaseMode::Drop)
                        .expect("destination segment is live while the stream is");
                }
                for link in &mut self.links {
                    link.queue.retain(|w| w.stream != id.0);
                }
                self.free_links(idx);
                self.cross.close(idx);
                let x = &mut self.cross[idx].x;
                x.noi_ingress.clear();
                x.pending_ts.clear();
                x.in_flight = 0;
            }
            ReleaseMode::Drain => self.cross.start_drain(idx),
        }
        Ok(())
    }

    fn stream_is_active(&self, id: StreamId) -> Option<bool> {
        match *self.handles.get(id)? {
            ChipletSlot::Intra { chip, local, .. } => {
                self.planes[chip].as_fabric().stream_is_active(local)
            }
            ChipletSlot::Cross(idx) => Some(self.cross[idx].active()),
        }
    }

    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        demand.check()?;
        let src_chip = self.chip_of(demand.src);
        let dst_chip = self.chip_of(demand.dst);
        if src_chip == dst_chip {
            let want = StreamDemand {
                src: self.local_node(demand.src),
                dst: self.local_node(demand.dst),
                demand: demand.demand,
            };
            let local = self.planes[src_chip].as_fabric_mut().admit(&want)?;
            let id = self.handles.issue();
            let slot = ChipletSlot::Intra {
                chip: src_chip,
                local,
                src: demand.src,
                dst: demand.dst,
            };
            self.handles.insert(id, slot);
            return Ok(id);
        }
        let links = self.noi_route(src_chip, dst_chip);
        if links
            .iter()
            .any(|&l| self.links[l].reserved >= self.config.entry_lanes)
        {
            return Err(AdmitError::NoFreeLanes);
        }
        let (first_port, last_port) = self.noi_ports(&links);
        let local_src = self.local_node(demand.src);
        let local_dst = self.local_node(demand.dst);
        let exit = self.exit_node(local_src, first_port);
        let entry = self.entry_node(local_dst, last_port);
        let src_seg = if local_src == exit {
            None
        } else {
            let want = StreamDemand {
                src: local_src,
                dst: exit,
                demand: demand.demand,
            };
            Some(self.planes[src_chip].as_fabric_mut().admit(&want)?)
        };
        let dst_seg = if entry == local_dst {
            None
        } else {
            let want = StreamDemand {
                src: entry,
                dst: local_dst,
                demand: demand.demand,
            };
            match self.planes[dst_chip].as_fabric_mut().admit(&want) {
                Ok(id) => Some(id),
                Err(e) => {
                    if let Some(s) = src_seg {
                        self.planes[src_chip]
                            .as_fabric_mut()
                            .release(s, ReleaseMode::Drop)
                            .expect("freshly admitted source segment releases cleanly");
                    }
                    return Err(e);
                }
            }
        };
        for &l in &links {
            self.links[l].reserved += 1;
        }
        let noi_reconfig = links.len() as u64 * Self::NOI_CONFIG_CYCLES_PER_LINK;
        let cross = CrossStream::new(
            src_chip,
            dst_chip,
            src_seg,
            dst_seg,
            links,
            noi_reconfig,
            self.now.0,
        );
        let id = self.handles.issue();
        let idx = self.cross.open(id, demand.src, demand.dst, cross);
        self.handles.insert(id, ChipletSlot::Cross(idx));
        Ok(id)
    }

    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        if demand.check().is_err() {
            return false;
        }
        let src_chip = self.chip_of(demand.src);
        let dst_chip = self.chip_of(demand.dst);
        if src_chip == dst_chip {
            let want = StreamDemand {
                src: self.local_node(demand.src),
                dst: self.local_node(demand.dst),
                demand: demand.demand,
            };
            return self.planes[src_chip].as_fabric().can_admit_circuit(&want);
        }
        if !matches!(self.inner_kind, FabricKind::Circuit | FabricKind::Hybrid) {
            return false;
        }
        let links = self.noi_route(src_chip, dst_chip);
        if links
            .iter()
            .any(|&l| self.links[l].reserved >= self.config.entry_lanes)
        {
            return false;
        }
        let (first_port, last_port) = self.noi_ports(&links);
        let local_src = self.local_node(demand.src);
        let local_dst = self.local_node(demand.dst);
        let exit = self.exit_node(local_src, first_port);
        let entry = self.entry_node(local_dst, last_port);
        let src_ok = local_src == exit
            || self.planes[src_chip]
                .as_fabric()
                .can_admit_circuit(&StreamDemand {
                    src: local_src,
                    dst: exit,
                    demand: demand.demand,
                });
        let dst_ok = entry == local_dst
            || self.planes[dst_chip]
                .as_fabric()
                .can_admit_circuit(&StreamDemand {
                    src: entry,
                    dst: local_dst,
                    demand: demand.demand,
                });
        src_ok && dst_ok
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        // Per-plane lookup maps keyed by local session id (lookups only —
        // iteration order stays the handles').
        let plane_stats: Vec<HashMap<u32, StreamStats>> = self
            .planes
            .iter()
            .map(|p| {
                p.as_fabric()
                    .stream_stats()
                    .into_iter()
                    .map(|s| (s.id.0, s))
                    .collect()
            })
            .collect();
        self.handles
            .iter()
            .map(|(id, slot)| match *slot {
                ChipletSlot::Intra {
                    chip,
                    local,
                    src,
                    dst,
                } => {
                    let mut stats = plane_stats[chip]
                        .get(&local.0)
                        .expect("intra stream has plane telemetry")
                        .clone();
                    stats.id = id;
                    stats.src = src;
                    stats.dst = dst;
                    stats
                }
                ChipletSlot::Cross(idx) => {
                    let st = &self.cross[idx];
                    let x = &st.x;
                    let src_stats = x.src_seg.and_then(|s| plane_stats[x.src_chip].get(&s.0));
                    let dst_stats = x.dst_seg.and_then(|d| plane_stats[x.dst_chip].get(&d.0));
                    let seg_plane = src_stats
                        .map(|s| s.plane)
                        .or_else(|| dst_stats.map(|s| s.plane));
                    let plane = if src_stats.map(|s| s.plane) == Some(StreamPlane::Spilled)
                        || dst_stats.map(|s| s.plane) == Some(StreamPlane::Spilled)
                    {
                        StreamPlane::Spilled
                    } else {
                        seg_plane.unwrap_or(match self.inner_kind {
                            FabricKind::Circuit | FabricKind::Hybrid => StreamPlane::Circuit,
                            FabricKind::Deflection | FabricKind::Packet => StreamPlane::Packet,
                        })
                    };
                    let seg_reconfig = src_stats
                        .map_or(0, |s| s.reconfig_cycles)
                        .max(dst_stats.map_or(0, |s| s.reconfig_cycles));
                    let max_deflections = src_stats
                        .map_or(0, |s| s.max_deflections)
                        .max(dst_stats.map_or(0, |s| s.max_deflections));
                    st.stats(plane, x.noi_reconfig.max(seg_reconfig), max_deflections)
                }
            })
            .collect()
    }

    /// One aggregate cycle: step every chiplet plane in one pool dispatch
    /// sized by the grid's router count (a block holds exactly one plane
    /// while planes ≤ 4 × lanes), then exchange boundary words
    /// sequentially.
    fn step(&mut self) {
        par_for_each_sized(&mut self.planes, self.policy, self.mesh.nodes(), |plane| {
            plane.as_fabric_mut().step();
        });
        self.now = Cycle(self.now.0 + 1);
        let now = self.now.0;
        self.advance_noi(now);
        self.feed_noi(now);
        self.collect_dst(now);
        self.finalise_drains();
    }

    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
        for plane in &mut self.planes {
            plane.as_fabric_mut().set_parallelism(policy);
        }
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        // NoI ledgers join only when they carry events, so a quiet 1×1 grid
        // stays bit-identical to the flat fabric's activity.
        let noi = [
            (ComponentKind::Link, self.noi_link_activity),
            (ComponentKind::Buffering, self.noi_buffer_activity),
            (ComponentKind::Arbitration, self.noi_arbiter_activity),
        ]
        .into_iter()
        .filter(|(_, ledger)| !ledger.is_empty())
        .map(|(kind, ledger)| ComponentActivity::new(kind, ledger));
        merge_by_kind(
            self.planes
                .iter()
                .flat_map(|plane| plane.as_fabric().activity())
                .chain(noi),
        )
    }

    fn clear_activity(&mut self) {
        for plane in &mut self.planes {
            plane.as_fabric_mut().clear_activity();
        }
        self.noi_link_activity.clear();
        self.noi_buffer_activity.clear();
        self.noi_arbiter_activity.clear();
    }

    fn is_quiescent(&self) -> bool {
        self.planes.iter().all(|p| p.as_fabric().is_quiescent())
            && self.links.iter().all(|l| l.queue.is_empty())
            && self
                .cross
                .iter()
                .all(|s| s.x.noi_ingress.is_empty() && s.x.in_flight == 0)
    }

    fn total_overflows(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().total_overflows())
            .sum()
    }

    fn spilled_streams(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().spilled_streams())
            .sum()
    }

    fn spilled_words(&self) -> u64 {
        self.planes
            .iter()
            .map(|p| p.as_fabric().spilled_words())
            .sum()
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        let planes: f64 = self
            .planes
            .iter()
            .map(|p| p.as_fabric().area(model).0)
            .sum();
        let noi = if self.links.is_empty() {
            0.0
        } else {
            noi_entry_router_area(self.config.entry_lanes, model.estimator().tech())
                .total()
                .0
                * self.links.len() as f64
        };
        SquareMicroMeters(planes + noi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use noc_sim::units::{Bandwidth, MegaHertz};

    fn mapping_for(mesh: Mesh, streams: &[(NodeId, NodeId)]) -> Mapping {
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
        let mut lanes = ccn.lane_map();
        let mut routes = Vec::new();
        let lane_capacity = ccn.lane_capacity();
        for &(src, dst) in streams {
            let demand = StreamDemand {
                src,
                dst,
                demand: Bandwidth(60.0),
            };
            let route = ccn
                .admit_stream(&demand, &mut lanes)
                .expect("test stream admits");
            routes.push(route);
        }
        Mapping {
            placement: Vec::new(),
            routes,
            spilled: Vec::new(),
            lane_capacity,
        }
    }

    fn stats_of(fabric: &dyn Fabric, id: StreamId) -> StreamStats {
        fabric
            .stream_stats()
            .into_iter()
            .find(|s| s.id == id)
            .expect("stream has telemetry")
    }

    #[test]
    fn geometry_roundtrip() {
        let fabric = ChipletFabric::paper(Mesh::new(6, 4), 3, 2, FabricKind::Circuit);
        assert_eq!(fabric.inner_mesh(), Mesh::new(2, 2));
        for node in 0..fabric.mesh().nodes() {
            let node = NodeId(node);
            let chip = fabric.chip_of(node);
            let local = fabric.local_node(node);
            assert_eq!(fabric.aggregate_node(chip, local), node);
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn indivisible_grid_panics() {
        let _ = ChipletFabric::paper(Mesh::new(5, 4), 2, 2, FabricKind::Circuit);
    }

    #[test]
    fn one_by_one_grid_matches_flat_soc() {
        let mesh = Mesh::new(4, 4);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 2))]);
        let mut flat = Soc::new(mesh, RouterParams::paper());
        let mut chiplet = ChipletFabric::paper(mesh, 1, 1, FabricKind::Circuit);
        let flat_ids = flat
            .provision_with(&mapping, ProvisionMode::BeDelivered)
            .unwrap();
        let chip_ids = chiplet
            .provision_with(&mapping, ProvisionMode::BeDelivered)
            .unwrap();
        assert_eq!(flat_ids.len(), chip_ids.len());
        let payload: Vec<u16> = (0..24).collect();
        flat.inject_stream(flat_ids[0], &payload);
        chiplet.inject_stream(chip_ids[0], &payload);
        flat.finish_injection();
        chiplet.finish_injection();
        let mut flat_out = Vec::new();
        let mut chip_out = Vec::new();
        for _ in 0..200 {
            flat.step();
            chiplet.step();
            flat_out.extend(flat.drain_stream(flat_ids[0]));
            chip_out.extend(chiplet.drain_stream(chip_ids[0]));
        }
        assert_eq!(flat_out, payload);
        assert_eq!(chip_out, payload);
        let fs = stats_of(&flat, flat_ids[0]);
        let cs = stats_of(&chiplet, chip_ids[0]);
        assert_eq!(fs, cs);
        let model = EnergyModel::calibrated(MegaHertz(100.0));
        assert_eq!(flat.activity(), chiplet.activity());
        assert_eq!(flat.total_energy(&model), chiplet.total_energy(&model));
    }

    #[test]
    fn cross_chiplet_stream_delivers_in_order() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Hybrid);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 1))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(fabric.cross_streams(), 1);
        let payload: Vec<u16> = (100..140).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        let mut out = Vec::new();
        for _ in 0..400 {
            fabric.step();
            out.extend(fabric.drain_stream(ids[0]));
            if out.len() == payload.len() {
                break;
            }
        }
        assert_eq!(out, payload);
        let stats = stats_of(&fabric, ids[0]);
        assert_eq!(stats.delivered_words, payload.len() as u64);
        assert_eq!(stats.injected_words, payload.len() as u64);
        assert_eq!(stats.latency.count(), payload.len() as u64);
    }

    #[test]
    fn entry_lane_exhaustion_and_release() {
        let mesh = Mesh::new(2, 1);
        let mut config = ChipletConfig::paper();
        config.entry_lanes = 1;
        let mut fabric = ChipletFabric::new(mesh, 2, 1, FabricKind::Hybrid, config);
        let empty = Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity(),
        };
        fabric
            .provision_with(&empty, ProvisionMode::Instant)
            .unwrap();
        let demand = StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(1, 0),
            demand: Bandwidth(60.0),
        };
        let first = fabric.admit(&demand).expect("first stream fits");
        assert!(matches!(
            fabric.admit(&demand),
            Err(AdmitError::NoFreeLanes)
        ));
        assert!(!fabric.can_admit_circuit(&demand));
        fabric.release(first, ReleaseMode::Drop).unwrap();
        fabric.admit(&demand).expect("lane freed by drop");
    }

    #[test]
    fn noi_queueing_charged_to_latency() {
        let mesh = Mesh::new(2, 1);
        let mut config = ChipletConfig::paper();
        config.entry_lanes = 1;
        let mut fabric = ChipletFabric::new(mesh, 2, 1, FabricKind::Hybrid, config);
        let empty = Mapping {
            placement: Vec::new(),
            routes: Vec::new(),
            spilled: Vec::new(),
            lane_capacity: Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0)).lane_capacity(),
        };
        fabric
            .provision_with(&empty, ProvisionMode::Instant)
            .unwrap();
        let demand = StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(1, 0),
            demand: Bandwidth(60.0),
        };
        let id = fabric.admit(&demand).expect("stream admits");
        let payload: Vec<u16> = (0..16).collect();
        fabric.inject_stream(id, &payload);
        fabric.finish_injection();
        let mut out = Vec::new();
        for _ in 0..200 {
            fabric.step();
            out.extend(fabric.drain_stream(id));
            if out.len() == payload.len() {
                break;
            }
        }
        assert_eq!(out, payload);
        // One entry lane + a 16-word burst → words queue; the wait lands in
        // the stream latency spread and the fabric-level counter.
        assert!(fabric.noi_wait_cycles() > 0, "queueing must be charged");
        let stats = stats_of(&fabric, id);
        assert!(stats.latency.max().unwrap() > stats.latency.min().unwrap());
        // Runtime admission charges NoI reconfiguration before first entry.
        assert!(stats.reconfig_cycles >= ChipletFabric::NOI_CONFIG_CYCLES_PER_LINK);
        assert!(stats.latency.min().unwrap() >= ChipletFabric::NOI_CONFIG_CYCLES_PER_LINK);
    }

    #[test]
    fn snapshot_restore_mid_flight() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Circuit);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 0))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        let payload: Vec<u16> = (0..32).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        for _ in 0..3 {
            fabric.step();
        }
        let snap = fabric.snapshot();
        let mut replica = ChipletFabric::paper(mesh, 2, 1, FabricKind::Circuit);
        replica.restore(&snap).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..300 {
            fabric.step();
            replica.step();
            a.extend(fabric.drain_stream(ids[0]));
            b.extend(replica.drain_stream(ids[0]));
        }
        assert_eq!(a, b);
        assert_eq!(a, payload[..a.len()].to_vec());
        assert_eq!(stats_of(&fabric, ids[0]), stats_of(&replica, ids[0]));
    }

    #[test]
    fn drain_release_cascades_across_chiplets() {
        let mesh = Mesh::new(4, 2);
        let mut fabric = ChipletFabric::paper(mesh, 2, 1, FabricKind::Hybrid);
        let mapping = mapping_for(mesh, &[(mesh.node(0, 0), mesh.node(3, 1))]);
        let ids = fabric
            .provision_with(&mapping, ProvisionMode::Instant)
            .unwrap();
        let payload: Vec<u16> = (7..27).collect();
        fabric.inject_stream(ids[0], &payload);
        fabric.finish_injection();
        fabric.release(ids[0], ReleaseMode::Drain).unwrap();
        assert!(matches!(
            fabric.release(ids[0], ReleaseMode::Drain),
            Err(AdmitError::Draining(_))
        ));
        let mut out = Vec::new();
        for _ in 0..400 {
            fabric.step();
            out.extend(fabric.drain_stream(ids[0]));
        }
        assert_eq!(out, payload, "drain release loses no words");
        let stats = stats_of(&fabric, ids[0]);
        assert!(!stats.active);
    }
}
