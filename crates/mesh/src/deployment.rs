//! Application deployment over any [`Fabric`]: task graph in, provisioned
//! and traffic-bound network out — circuit- or packet-switched, through
//! one builder.
//!
//! The builder owns every knob with a sensible default:
//!
//! ```
//! use noc_apps::taskgraph::{TaskGraph, TrafficShape};
//! use noc_mesh::deployment::Deployment;
//! use noc_mesh::fabric::FabricKind;
//! use noc_sim::par::ParPolicy;
//! use noc_sim::units::{Bandwidth, MegaHertz};
//!
//! let mut graph = TaskGraph::new("demo");
//! let producer = graph.add_process("producer");
//! let consumer = graph.add_process("consumer");
//! graph.add_edge(producer, consumer, Bandwidth(60.0), TrafficShape::Streaming, "feed");
//!
//! let mut dep = Deployment::builder(&graph)
//!     .mesh(4, 4)
//!     .clock(MegaHertz(100.0))
//!     .seed(42)
//!     .fabric(FabricKind::Circuit)
//!     .parallelism(ParPolicy::Auto)  // pooled stepping past the crossover
//!     .build()?;                     // -> Deployment<Box<dyn Fabric>>
//! dep.run(2_000);
//! dep.settle(2_000);
//! let reports = dep.report(&graph);
//! assert!(reports.iter().all(|r| r.delivered_fraction > 0.9));
//! # Ok::<(), noc_mesh::deployment::DeployError>(())
//! ```
//!
//! There are two build paths, and both honour every knob. `build()`
//! returns the backend [`DeploymentBuilder::fabric`] selects behind
//! `Box<dyn Fabric>`; `build_controlled()` always wraps it in a concrete
//! [`FabricController`], for callers that read the control plane's
//! statistics. Either way the scenario plumbing — CCN mapping, per-route
//! offered-load word streams, delivery accounting, energy readout — is
//! written once, here.
//!
//! Only the circuit router is configurable
//! ([`DeploymentBuilder::router_params`]). Packet, deflection and spill
//! planes run the paper's routers, offered load is the seeded
//! [`DataPattern::Random`] stream, and the CCN places onto the default
//! tile inventory: no caller set anything else, so the builder carries
//! no knob for it.

use crate::ccn::{Ccn, Mapping, MappingError};
use crate::chiplet::{ChipletConfig, ChipletFabric};
use crate::controller::{AdmissionPolicy, FabricController, FirstFit};
use crate::deflection::DeflectionFabric;
use crate::fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError, SnapshotError,
};
use crate::hybrid::HybridFabric;
use crate::soc::Soc;
use crate::stream::{ProvisionMode, StreamId};
use crate::tile::default_tile_kinds;
use crate::topology::{Mesh, NodeId};
use noc_apps::taskgraph::TaskGraph;
use noc_apps::traffic::{DataPattern, WordStream};
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_power::estimator::PowerReport;
use noc_sim::par::ParPolicy;
use noc_sim::time::CycleCount;
use noc_sim::units::{Bandwidth, FemtoJoules, MegaHertz};
use std::fmt;

/// Why a deployment could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// The CCN rejected the application.
    Mapping(MappingError),
    /// The chosen fabric rejected the mapping.
    Provision(ProvisionError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Mapping(e) => write!(f, "mapping failed: {e}"),
            DeployError::Provision(e) => write!(f, "provisioning failed: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<MappingError> for DeployError {
    fn from(e: MappingError) -> DeployError {
        DeployError::Mapping(e)
    }
}

impl From<ProvisionError> for DeployError {
    fn from(e: ProvisionError) -> DeployError {
        DeployError::Provision(e)
    }
}

/// Builder for [`Deployment`]s. Construct with [`Deployment::builder`].
#[derive(Debug)]
pub struct DeploymentBuilder<'g> {
    graph: &'g TaskGraph,
    mesh: Mesh,
    router_params: RouterParams,
    clock: MegaHertz,
    seed: u64,
    kind: FabricKind,
    spill: bool,
    chiplets: Option<(usize, usize)>,
    parallelism: ParPolicy,
    provisioning: ProvisionMode,
    policy: Option<Box<dyn AdmissionPolicy>>,
    tick_window: CycleCount,
}

impl<'g> DeploymentBuilder<'g> {
    fn new(graph: &'g TaskGraph) -> DeploymentBuilder<'g> {
        DeploymentBuilder {
            graph,
            mesh: Mesh::new(4, 4),
            router_params: RouterParams::paper(),
            clock: MegaHertz(100.0),
            seed: 0,
            kind: FabricKind::Circuit,
            spill: false,
            chiplets: None,
            parallelism: ParPolicy::Auto,
            provisioning: ProvisionMode::Instant,
            policy: None,
            tick_window: FabricController::DEFAULT_WINDOW,
        }
    }

    /// Mesh dimensions (default 4×4).
    pub fn mesh(mut self, width: usize, height: usize) -> Self {
        self.mesh = Mesh::new(width, height);
        self
    }

    /// An explicit mesh topology.
    pub fn mesh_topology(mut self, mesh: Mesh) -> Self {
        self.mesh = mesh;
        self
    }

    /// Circuit-router parameters (default [`RouterParams::paper`]).
    pub fn router_params(mut self, params: RouterParams) -> Self {
        self.router_params = params;
        self
    }

    /// SoC clock (default 100 MHz).
    pub fn clock(mut self, clock: MegaHertz) -> Self {
        self.clock = clock;
        self
    }

    /// Traffic seed (default 0). The same seed produces bit-identical
    /// payload streams on every backend — the basis of parity testing.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Which backend the deployment runs on (default circuit-switched).
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.kind = kind;
        self
    }

    /// Spill-tolerant admission (default: strict). Under strict admission
    /// an application the CCN cannot fully put on circuit lanes is a
    /// [`DeployError::Mapping`]; with `spill` the overflow demands land in
    /// [`Mapping::spilled`] instead. Packet and hybrid backends then carry
    /// them; the circuit backend ignores them (no best-effort plane) and
    /// binds no traffic to them — which makes a spill-admitted circuit
    /// deployment the "GT subset only" endpoint of the three-way
    /// comparison. The hybrid backend always uses spill admission.
    pub fn spill(mut self, spill: bool) -> Self {
        self.spill = spill;
        self
    }

    /// Split the mesh into a `cw × ch` **chiplet grid**
    /// ([`crate::chiplet::ChipletFabric`]): each chiplet runs its own
    /// backend fabric of the builder's [`DeploymentBuilder::fabric`] kind
    /// over the sub-mesh, stitched through network-on-interposer entry
    /// routers with finite entry lanes. Cross-chiplet streams are split
    /// into boundary segments and queue at the NoI (the wait lands in
    /// their latency histograms); each chiplet is one parallel dispatch
    /// shard under [`DeploymentBuilder::parallelism`]. The mesh must
    /// divide evenly into a grid of at least 1×1; otherwise the build
    /// fails with [`ProvisionError::ChipletGrid`].
    ///
    /// ```
    /// use noc_apps::taskgraph::{TaskGraph, TrafficShape};
    /// use noc_mesh::deployment::Deployment;
    /// use noc_mesh::fabric::FabricKind;
    /// use noc_sim::units::Bandwidth;
    ///
    /// let mut graph = TaskGraph::new("sharded");
    /// let a = graph.add_process("a");
    /// let b = graph.add_process("b");
    /// graph.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
    ///
    /// let mut dep = Deployment::builder(&graph)
    ///     .mesh(4, 4)
    ///     .fabric(FabricKind::Hybrid)
    ///     .chiplets(2, 2) // four 2x2 chiplet shards, NoI-stitched
    ///     .build()?;
    /// dep.run(2_000);
    /// dep.settle(2_000);
    /// let reports = dep.report(&graph);
    /// assert!(reports.iter().all(|r| r.delivered_fraction > 0.9));
    /// # Ok::<(), noc_mesh::deployment::DeployError>(())
    /// ```
    pub fn chiplets(mut self, cw: usize, ch: usize) -> Self {
        self.chiplets = Some((cw, ch));
        self
    }

    /// Per-cycle evaluation policy for the built fabric (default
    /// [`ParPolicy::Auto`]: serial below the pool crossover, one lane per
    /// CPU past it). Every policy produces bit-identical results — payload,
    /// activity, energy — the knob only trades worker-pool dispatch
    /// overhead against multi-core fan-out ([`noc_sim::par`]). Applies to
    /// every backend: the circuit `Soc` and `PacketFabric` fan their
    /// routers out; the hybrid and a chiplet grid fan their planes out
    /// instead, each plane stepping its routers inline (fan-out is one
    /// level deep).
    pub fn parallelism(mut self, policy: ParPolicy) -> Self {
        self.parallelism = policy;
        self
    }

    /// How the initial configuration reaches the routers (default
    /// [`ProvisionMode::Instant`]). With [`ProvisionMode::BeDelivered`]
    /// the cold-start configuration rides the BE network exactly like a
    /// runtime `admit` — each circuit stream's §5.1 delivery wait is
    /// charged to its `reconfig_cycles` and to the measured latency of
    /// words offered before the circuit is ready. Backends without router
    /// configuration (the pure packet fabric) are ready immediately in
    /// both modes.
    pub fn provisioning(mut self, mode: ProvisionMode) -> Self {
        self.provisioning = mode;
        self
    }

    /// Wrap the built fabric in a [`FabricController`] running `policy`
    /// (see [`crate::controller`]): the policy loop ticks every
    /// [`DeploymentBuilder::tick_window`] cycles of stepping, promoting
    /// spilled streams onto freed circuits and demoting idle ones through
    /// the ordinary `release`/`admit` verbs.
    pub fn policy(mut self, policy: Box<dyn AdmissionPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Cycles between control-plane ticks when a
    /// [`DeploymentBuilder::policy`] is set (default
    /// [`FabricController::DEFAULT_WINDOW`]).
    pub fn tick_window(mut self, cycles: CycleCount) -> Self {
        self.tick_window = cycles;
        self
    }

    /// Map the application (shared by every backend), strictly or with
    /// spill-tolerant admission.
    fn map(&self, spill: bool) -> Result<Mapping, MappingError> {
        let kinds = default_tile_kinds(&self.mesh);
        let ccn = Ccn::new(self.mesh, self.router_params, self.clock);
        if spill {
            ccn.map_with_spill(self.graph, &kinds)
        } else {
            ccn.map(self.graph, &kinds)
        }
    }

    /// Refuse, as a typed error, every configuration a fabric constructor
    /// would panic on: a circuit router the packed datapath cannot carry
    /// (flat, hybrid or chiplet plane), a chiplet grid that does not split
    /// the mesh, and a packet-coordinate plane beyond the head flit's
    /// 16×16 space.
    fn check(&self, chiplets: Option<(usize, usize)>) -> Result<(), ProvisionError> {
        let params = self.router_params;
        let circuit_plane = matches!(self.kind, FabricKind::Circuit | FabricKind::Hybrid);
        if circuit_plane && !params.fits_datapath() {
            return Err(ProvisionError::UnsupportedRouter {
                lanes_per_port: params.lanes_per_port,
                lane_width: params.lane_width,
            });
        }
        let Mesh { width, height, .. } = self.mesh;
        let (cw, ch) = chiplets.unwrap_or((1, 1));
        if cw == 0 || ch == 0 || !width.is_multiple_of(cw) || !height.is_multiple_of(ch) {
            return Err(ProvisionError::ChipletGrid {
                width,
                height,
                cw,
                ch,
            });
        }
        // Packet coordinates only have to cover one chiplet's sub-mesh,
        // which is how the hierarchy scales past the 16×16 header limit.
        let (width, height) = (width / cw, height / ch);
        if self.kind != FabricKind::Circuit && (width > 16 || height > 16) {
            return Err(ProvisionError::MeshTooLarge { width, height });
        }
        Ok(())
    }

    /// The backend [`DeploymentBuilder::fabric`] selects — split into a
    /// `chiplets` grid when one is given — unprovisioned, with the mapping
    /// it serves: the shared front half of [`DeploymentBuilder::build`]
    /// and [`DeploymentBuilder::build_controlled`].
    fn fabric_and_mapping(
        &self,
        chiplets: Option<(usize, usize)>,
    ) -> Result<(Box<dyn Fabric>, Mapping), DeployError> {
        self.check(chiplets)?;
        // The hybrid always admits with spill: routing the overflow onto
        // its packet plane *is* the hybrid discipline.
        let mapping = self.map(self.spill || self.kind == FabricKind::Hybrid)?;
        let fabric: Box<dyn Fabric> = match (chiplets, self.kind) {
            (Some((cw, ch)), _) => {
                let config = ChipletConfig {
                    router_params: self.router_params,
                    entry_lanes: ChipletFabric::DEFAULT_ENTRY_LANES,
                };
                Box::new(ChipletFabric::new(self.mesh, cw, ch, self.kind, config))
            }
            (None, FabricKind::Circuit) => Box::new(Soc::new(self.mesh, self.router_params)),
            (None, FabricKind::Hybrid) => {
                Box::new(HybridFabric::new(self.mesh, self.router_params))
            }
            (None, FabricKind::Deflection) => Box::new(DeflectionFabric::paper(self.mesh)),
            (None, FabricKind::Packet) => Box::new(PacketFabric::new(
                self.mesh,
                PacketParams::paper(),
                PacketFabric::DEFAULT_PACKET_WORDS,
            )),
        };
        Ok((fabric, mapping))
    }

    /// Deploy onto the backend chosen with [`DeploymentBuilder::fabric`].
    /// This backend-erased path is also where the control plane plugs in:
    /// with a [`DeploymentBuilder::policy`], the fabric is wrapped in a
    /// [`FabricController`] *before* provisioning, so the controller
    /// learns every stream's declared demand and its policy loop runs
    /// inside ordinary [`Fabric::step`]s.
    pub fn build(mut self) -> Result<Deployment<Box<dyn Fabric>>, DeployError> {
        let policy = self.policy.take();
        let (fabric, mapping) = self.fabric_and_mapping(self.chiplets)?;
        let mut fabric: Box<dyn Fabric> = match policy {
            Some(p) => Box::new(FabricController::new(fabric, p).with_window(self.tick_window)),
            None => fabric,
        };
        fabric.provision_with(&mapping, self.provisioning)?;
        Ok(Deployment::assemble(fabric, mapping, &self))
    }

    /// Deploy like [`DeploymentBuilder::build`], but always wrapped in a
    /// concretely-typed [`FabricController`] — running the configured
    /// [`DeploymentBuilder::policy`], or [`FirstFit`] when none was set.
    /// This is the fleet engine's entry point: a
    /// `Deployment<FabricController>` exposes
    /// [`FabricController::controller_stats`] directly, so per-tenant SLO
    /// reporting needs no downcasting through `Box<dyn Fabric>`.
    pub fn build_controlled(mut self) -> Result<Deployment<FabricController>, DeployError> {
        let policy = self.policy.take().unwrap_or_else(|| Box::new(FirstFit));
        let (fabric, mapping) = self.fabric_and_mapping(self.chiplets)?;
        let mut controller = FabricController::new(fabric, policy).with_window(self.tick_window);
        controller.provision_with(&mapping, self.provisioning)?;
        Ok(Deployment::assemble(controller, mapping, &self))
    }
}

/// One stream's offered-load traffic generator — a provisioned circuit or
/// a spilled best-effort demand, addressed by its session handle.
#[derive(Debug, Clone)]
struct RouteTraffic {
    /// The fabric session this traffic drives.
    stream_id: StreamId,
    /// Index into `mapping.routes`, or `mapping.routes.len() + i` for the
    /// `i`-th entry of `mapping.spilled`.
    route: usize,
    dst: NodeId,
    /// Offered payload words per cycle.
    rate: f64,
    /// Workload phase multiplier on `rate` (1.0 = the declared demand).
    /// Fleet workload generators modulate this over time
    /// ([`Deployment::set_load_scale`]) — bursty on/off phases, diurnal
    /// ramps, hotspot flips.
    scale: f64,
    acc: f64,
    stream: WordStream,
    injected: u64,
    /// Words this stream delivered (exact — drained per session).
    delivered: u64,
    /// Rides the best-effort spillover plane instead of a circuit.
    spilled: bool,
    /// Offered load switched off ([`Deployment::stop_traffic`]); the
    /// generator stays registered so deliveries keep being collected.
    stopped: bool,
    /// Offered load suspended by the control plane: the fabric reported
    /// (via [`Fabric::take_handle_moves`]) that this session is being
    /// retired with no replacement named yet; a later move resumes it.
    paused: bool,
    /// Earlier session handles of this generator (retired by control-
    /// plane hand-overs); their residual deliveries are still collected
    /// and credited here.
    retired: Vec<StreamId>,
}

/// Per-stream delivery statistics, the fabric-generic analogue of the old
/// `RouteReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRouteReport {
    /// The stream's session handle on the deployed fabric.
    pub stream: StreamId,
    /// Stream index: `mapping.routes[route]` when `!spilled`, else
    /// `mapping.spilled[route - mapping.routes.len()]`.
    pub route: usize,
    /// Labels of the task-graph edges sharing the circuit.
    pub labels: Vec<String>,
    /// Required bandwidth (sum over the edges).
    pub required: Bandwidth,
    /// Measured delivered bandwidth over the run — exact per stream,
    /// counted by `drain_stream` (shared destinations no longer blur the
    /// account).
    pub measured: Bandwidth,
    /// `measured` relative to `required`.
    pub delivered_fraction: f64,
    /// Carried on the best-effort spillover plane rather than a circuit.
    pub spilled: bool,
}

/// A checkpoint of a whole [`Deployment`]: the fabric's
/// [`FabricSnapshot`] plus the offered-load generators (word-stream
/// positions, accumulators, phase scales, pause flags) and the delivery
/// ledgers. Produced by [`Deployment::snapshot`]; consumed by
/// [`Deployment::restore`]. The CCN mapping is *not* captured — a
/// snapshot restores into a deployment built from the same spec, which
/// already owns an identical mapping.
#[derive(Debug)]
pub struct DeploymentSnapshot {
    fabric: FabricSnapshot,
    traffic: Vec<RouteTraffic>,
    delivered_at: Vec<u64>,
    payload_at: Vec<Vec<u16>>,
    keep_payload: bool,
    cycles_run: CycleCount,
    offered_cycles: CycleCount,
}

impl DeploymentSnapshot {
    /// The backend label of the captured fabric state.
    pub fn backend(&self) -> &'static str {
        self.fabric.backend()
    }

    /// Cycles of traffic the captured deployment had simulated.
    pub fn cycles_run(&self) -> CycleCount {
        self.cycles_run
    }
}

/// A deployed application: fabric, mapping, and offered-load bindings —
/// generic over the switching discipline.
///
/// The type parameter is unconstrained on the struct itself only so that
/// `Deployment::builder` resolves without naming a backend; every
/// operational method requires `F: Fabric`.
#[derive(Debug)]
pub struct Deployment<F> {
    fabric: F,
    mapping: Mapping,
    clock: MegaHertz,
    traffic: Vec<RouteTraffic>,
    /// Words drained at each node over the deployment's lifetime.
    delivered_at: Vec<u64>,
    /// Delivered payload words per node (kept for parity checks).
    payload_at: Vec<Vec<u16>>,
    keep_payload: bool,
    cycles_run: CycleCount,
    /// Cycles during which traffic was offered (excludes settling), the
    /// window delivery fractions are measured against.
    offered_cycles: CycleCount,
}

impl Deployment<()> {
    /// Start building a deployment of `graph`. (`()` here is only the
    /// resolution anchor; the built deployment carries a real backend.)
    pub fn builder(graph: &TaskGraph) -> DeploymentBuilder<'_> {
        DeploymentBuilder::new(graph)
    }
}

impl<F: Fabric> Deployment<F> {
    fn assemble(mut fabric: F, mapping: Mapping, b: &DeploymentBuilder<'_>) -> Deployment<F> {
        fabric.set_parallelism(b.parallelism);
        let nodes = b.mesh.nodes();
        let mut traffic = Vec::new();
        // One traffic generator per stream session, addressed by the
        // mapping's StreamId numbering (what `provision` handed out).
        // Spilled demands get offered load too — on backends that can
        // carry them. The circuit fabric has no best-effort plane, so a
        // spill-admitted circuit deployment runs the GT subset only
        // (injecting on an unserved session would be a contract
        // violation, not silent loss).
        for ms in mapping.streams() {
            if ms.spilled && fabric.kind() == FabricKind::Circuit {
                continue;
            }
            let idx = match (ms.route, ms.spill) {
                (Some(r), _) => r,
                (None, Some(s)) => mapping.routes.len() + s,
                (None, None) => unreachable!("a stream is a route or a spill"),
            };
            traffic.push(RouteTraffic {
                stream_id: ms.id,
                route: idx,
                dst: ms.dst,
                // Mbit/s over (MHz × 16 bit/word) = words/cycle.
                rate: ms.demand.value() / (b.clock.value() * 16.0),
                scale: 1.0,
                acc: 0.0,
                stream: WordStream::new(DataPattern::Random, b.seed ^ ((idx as u64) << 32)),
                injected: 0,
                delivered: 0,
                spilled: ms.spilled,
                stopped: false,
                paused: false,
                retired: Vec::new(),
            });
        }
        Deployment {
            fabric,
            mapping,
            clock: b.clock,
            traffic,
            delivered_at: vec![0; nodes],
            payload_at: vec![Vec::new(); nodes],
            keep_payload: false,
            cycles_run: 0,
            offered_cycles: 0,
        }
    }

    /// Take the fabric and mapping apart, to drive a freshly provisioned
    /// fabric by hand.
    pub fn into_parts(self) -> (F, Mapping) {
        (self.fabric, self.mapping)
    }

    /// The deployed fabric.
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// Mutable access to the fabric (testbench drives, activity windows).
    pub fn fabric_mut(&mut self) -> &mut F {
        &mut self.fabric
    }

    /// The CCN's mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The deployment clock.
    pub fn clock(&self) -> MegaHertz {
        self.clock
    }

    /// Cycles of traffic simulated so far.
    pub fn cycles_run(&self) -> CycleCount {
        self.cycles_run
    }

    /// Keep the delivered payload words per node (off by default; needed
    /// for cross-fabric parity assertions).
    pub fn keep_payload(&mut self, on: bool) {
        self.keep_payload = on;
    }

    /// Stop offering load on `stream`. The generator stays registered, so
    /// words already accepted keep being collected and reported — this is
    /// the traffic-side half of a phased retirement: stop the offered
    /// load, then `fabric_mut().release(stream, ReleaseMode::Drain)` for
    /// a loss-free teardown. Unknown handles are ignored.
    pub fn stop_traffic(&mut self, stream: StreamId) {
        if let Some(t) = self.traffic.iter_mut().find(|t| t.stream_id == stream) {
            t.stopped = true;
        }
    }

    /// The [`EnergyModel`] matching this deployment's clock.
    pub fn energy_model(&self) -> EnergyModel {
        EnergyModel::calibrated(self.clock)
    }

    /// Number of offered-load traffic generators (one per stream this
    /// backend serves).
    pub fn traffic_streams(&self) -> usize {
        self.traffic.len()
    }

    /// Scale generator `index`'s offered load: `scale` multiplies the
    /// declared per-cycle rate (1.0 = the demand as mapped, 0.0 = an
    /// off-phase). This is the knob fleet workload profiles turn between
    /// batches — the generator's word stream and delivery accounting are
    /// untouched, so phase changes never disturb payload determinism.
    ///
    /// # Panics
    /// Panics when `index` is out of range or `scale` is negative/NaN.
    pub fn set_load_scale(&mut self, index: usize, scale: f64) {
        assert!(scale >= 0.0, "offered-load scale must be non-negative");
        self.traffic[index].scale = scale;
    }

    /// Checkpoint the whole deployment — the fabric (via
    /// [`Fabric::snapshot`]) plus every traffic generator's position and
    /// the delivery ledgers. Restoring into a deployment built from the
    /// same spec and continuing is bit-identical to never pausing.
    pub fn snapshot(&self) -> DeploymentSnapshot {
        DeploymentSnapshot {
            fabric: self.fabric.snapshot(),
            traffic: self.traffic.clone(),
            delivered_at: self.delivered_at.clone(),
            payload_at: self.payload_at.clone(),
            keep_payload: self.keep_payload,
            cycles_run: self.cycles_run,
            offered_cycles: self.offered_cycles,
        }
    }

    /// Replace this deployment's state with `snapshot`'s. The target must
    /// use the same fabric backend (normally: it was built from the same
    /// spec as the snapshotted deployment); on a backend mismatch the
    /// deployment is left untouched.
    pub fn restore(&mut self, snapshot: &DeploymentSnapshot) -> Result<(), SnapshotError> {
        self.fabric.restore(&snapshot.fabric)?;
        self.traffic = snapshot.traffic.clone();
        self.delivered_at = snapshot.delivered_at.clone();
        self.payload_at = snapshot.payload_at.clone();
        self.keep_payload = snapshot.keep_payload;
        self.cycles_run = snapshot.cycles_run;
        self.offered_cycles = snapshot.offered_cycles;
        Ok(())
    }

    fn collect(&mut self) {
        // Stream-exact collection: each session is drained by handle, so
        // shared destinations attribute every word to the stream that
        // carried it (the per-stream drain accounting the node-level API
        // could only approximate). Handles retired by control-plane
        // hand-overs are still drained — their last words may land after
        // the hand-over and belong to this generator's account.
        for t in &mut self.traffic {
            for id in t.retired.iter().copied().chain([t.stream_id]) {
                let words = self.fabric.drain_stream(id);
                t.delivered += words.len() as u64;
                self.delivered_at[t.dst.0] += words.len() as u64;
                if self.keep_payload {
                    self.payload_at[t.dst.0].extend(words);
                }
            }
        }
    }

    /// Follow the control plane's session hand-overs
    /// ([`Fabric::take_handle_moves`]): a retired handle's generator is
    /// paused, and resumed on its replacement the moment one is named —
    /// so offered-load traffic survives promotions and demotions without
    /// ever injecting on a draining session.
    fn follow_handle_moves(&mut self) {
        for (from, to) in self.fabric.take_handle_moves() {
            let Some(t) = self.traffic.iter_mut().find(|t| t.stream_id == from) else {
                continue;
            };
            match to {
                Some(new) => {
                    t.retired.push(t.stream_id);
                    t.stream_id = new;
                    t.paused = false;
                }
                None => t.paused = true,
            }
        }
    }

    /// Advance `cycles` cycles of offered-load traffic: each route's
    /// word stream is injected at its demanded rate, the fabric steps
    /// once per cycle, and deliveries are collected.
    pub fn run(&mut self, cycles: CycleCount) {
        for _ in 0..cycles {
            for t in &mut self.traffic {
                if t.stopped || t.paused {
                    continue;
                }
                t.acc += t.rate * t.scale;
                while t.acc + 1e-9 >= 1.0 {
                    t.acc -= 1.0;
                    let word = t.stream.next_word();
                    self.fabric.inject_stream(t.stream_id, &[word]);
                    t.injected += 1;
                }
            }
            self.fabric.step();
            self.follow_handle_moves();
        }
        self.cycles_run += cycles;
        self.offered_cycles += cycles;
        self.collect();
    }

    /// Stop injecting and run until deliveries stop arriving (or
    /// `max_cycles` elapse): flushes wormhole staging, then steps in small
    /// chunks until no new words appear for a settle window. Returns the
    /// cycles spent settling.
    pub fn settle(&mut self, max_cycles: CycleCount) -> CycleCount {
        self.fabric.finish_injection();
        const CHUNK: CycleCount = 32;
        const IDLE_CHUNKS: u32 = 8;
        let mut spent = 0;
        let mut idle = 0;
        while spent < max_cycles && idle < IDLE_CHUNKS {
            let before: u64 = self.delivered_at.iter().sum();
            self.fabric.run(CHUNK);
            spent += CHUNK;
            self.follow_handle_moves();
            self.collect();
            let after: u64 = self.delivered_at.iter().sum();
            idle = if after > before { 0 } else { idle + 1 };
        }
        self.cycles_run += spent;
        spent
    }

    /// Total payload words injected across all routes.
    pub fn total_injected(&self) -> u64 {
        self.traffic.iter().map(|t| t.injected).sum()
    }

    /// Total payload words delivered across all nodes.
    pub fn total_delivered(&self) -> u64 {
        self.delivered_at.iter().sum()
    }

    /// Payload lost anywhere in the fabric (0 under correct flow control).
    pub fn total_overflows(&self) -> u64 {
        self.fabric.total_overflows()
    }

    /// The delivered payload at `node`, in arrival order. Empty unless
    /// [`Deployment::keep_payload`] was enabled before running.
    pub fn payload_at(&self, node: NodeId) -> &[u16] {
        &self.payload_at[node.0]
    }

    /// Per-circuit delivery statistics against the task graph's demands.
    pub fn report(&self, graph: &TaskGraph) -> Vec<FabricRouteReport> {
        // Measure against the offered-load window: settling cycles carry
        // no new demand, so counting them would understate delivery.
        let window = self.clock.period() * self.offered_cycles.max(1) as f64;
        self.traffic
            .iter()
            .map(|t| {
                let edges = if t.spilled {
                    &self.mapping.spilled[t.route - self.mapping.routes.len()].edges
                } else {
                    &self.mapping.routes[t.route].edges
                };
                let required = Bandwidth(
                    edges
                        .iter()
                        .map(|&id| graph.edge(id).bandwidth.value())
                        .sum(),
                );
                // Exact per-stream accounting: collect() drains by
                // session handle, so this stream's deliveries are its
                // own even at a shared destination.
                let measured = Bandwidth::from_bits_over(t.delivered * 16, window);
                FabricRouteReport {
                    stream: t.stream_id,
                    route: t.route,
                    labels: edges
                        .iter()
                        .map(|&id| graph.edge(id).label.clone())
                        .collect(),
                    required,
                    measured,
                    delivered_fraction: if required.value() > 0.0 {
                        measured.value() / required.value()
                    } else {
                        1.0
                    },
                    spilled: t.spilled,
                }
            })
            .collect()
    }

    /// Power over the deployment's lifetime at its clock.
    pub fn power(&self, model: &EnergyModel) -> PowerReport {
        self.fabric.power(model, self.cycles_run.max(1))
    }

    /// Total energy dissipated over the deployment's lifetime.
    pub fn total_energy(&self, model: &EnergyModel) -> FemtoJoules {
        self.fabric.total_energy(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::taskgraph::TrafficShape;

    fn pipeline(stages: usize, bw: f64) -> TaskGraph {
        let mut g = TaskGraph::new("pipe");
        let ids: Vec<_> = (0..stages)
            .map(|i| g.add_process(format!("s{i}")))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], Bandwidth(bw), TrafficShape::Streaming, "e");
        }
        g
    }

    /// The whole point of the redesign: this helper is written once over
    /// `F: Fabric` and the tests below pass both backends through it.
    fn run_generic<F: Fabric>(mut dep: Deployment<F>, graph: &TaskGraph) -> Deployment<F> {
        dep.run(6000);
        dep.settle(4000);
        for r in dep.report(graph) {
            assert!(
                r.delivered_fraction > 0.9,
                "{} under-delivered: {:?}",
                dep.fabric().kind(),
                r
            );
        }
        dep
    }

    #[test]
    fn builder_deploys_pipeline_on_both_backends() {
        let g = pipeline(3, 60.0);
        let circuit = run_generic(
            Deployment::builder(&g).mesh(3, 3).seed(7).build().unwrap(),
            &g,
        );
        let packet = run_generic(
            Deployment::builder(&g)
                .mesh(3, 3)
                .seed(7)
                .fabric(FabricKind::Packet)
                .build()
                .unwrap(),
            &g,
        );
        assert!(circuit.total_delivered() > 0);
        // Same seed, same offered words on both backends.
        assert_eq!(circuit.total_injected(), packet.total_injected());
    }

    /// The canonical oversubscribed workload on a 3x1 line at 25 MHz: the
    /// lighter of two converging demands must spill.
    fn oversubscribed() -> TaskGraph {
        let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
        noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity())
    }

    #[test]
    fn hybrid_backend_builds_and_delivers() {
        let g = pipeline(3, 60.0);
        let dep = run_generic(
            Deployment::builder(&g)
                .mesh(3, 3)
                .seed(7)
                .fabric(FabricKind::Hybrid)
                .build()
                .unwrap(),
            &g,
        );
        assert!(dep.total_delivered() > 0);
        assert_eq!(dep.fabric().kind(), FabricKind::Hybrid);
        // A feasible pipeline spills nothing.
        assert_eq!(dep.fabric().spilled_streams(), 0);
        assert_eq!(dep.fabric().spilled_words(), 0);
    }

    #[test]
    fn oversubscribed_app_rejected_strictly_but_deploys_on_hybrid() {
        let g = oversubscribed();
        let base = || {
            Deployment::builder(&g)
                .mesh(3, 1)
                .clock(MegaHertz(25.0))
                .seed(5)
        };
        // Strict circuit admission rejects it…
        assert!(matches!(
            base().build().err().expect("strict admission rejects it"),
            DeployError::Mapping(MappingError::NoPath { .. })
        ));
        // …the hybrid carries everything, spilling the light stream…
        let mut hybrid = base().fabric(FabricKind::Hybrid).build().unwrap();
        hybrid.run(4000);
        hybrid.settle(4000);
        assert_eq!(hybrid.fabric().spilled_streams(), 1);
        assert!(hybrid.fabric().spilled_words() > 0);
        for r in hybrid.report(&g) {
            assert!(r.delivered_fraction > 0.9, "hybrid under-delivered {r:?}");
        }
        // …and the spill-admitted circuit endpoint runs the GT subset only.
        let mut circuit = base().spill(true).build().unwrap();
        circuit.run(4000);
        circuit.settle(4000);
        let reports = circuit.report(&g);
        assert_eq!(reports.len(), 1, "only the admitted stream is driven");
        assert!(!reports[0].spilled);
        assert!(circuit.total_injected() < hybrid.total_injected());
    }

    #[test]
    fn spilled_streams_get_identical_offered_words_on_packet_and_hybrid() {
        let g = oversubscribed();
        let run = |kind| {
            let mut dep = Deployment::builder(&g)
                .mesh(3, 1)
                .clock(MegaHertz(25.0))
                .seed(42)
                .spill(true)
                .fabric(kind)
                .build()
                .unwrap();
            dep.keep_payload(true);
            dep.run(3000);
            dep.settle(4000);
            dep
        };
        let hybrid = run(FabricKind::Hybrid);
        let packet = run(FabricKind::Packet);
        assert_eq!(hybrid.total_injected(), packet.total_injected());
        // Same words at the shared sink, order modulo plane interleaving.
        let dst = hybrid.mapping().spilled[0].dst;
        let mut h = hybrid.payload_at(dst).to_vec();
        let mut p = packet.payload_at(dst).to_vec();
        h.sort_unstable();
        p.sort_unstable();
        assert!(!h.is_empty());
        assert_eq!(h, p, "same multiset through hybrid and pure packet");
    }

    #[test]
    fn boxed_build_selects_backend_at_runtime() {
        let g = pipeline(2, 40.0);
        for kind in FabricKind::ALL {
            let dep = Deployment::builder(&g)
                .mesh(2, 2)
                .fabric(kind)
                .seed(3)
                .build()
                .unwrap();
            assert_eq!(dep.fabric().kind(), kind);
            let dep = run_generic(dep, &g);
            assert!(dep.total_delivered() > 0, "{kind} delivered nothing");
        }
    }

    #[test]
    fn infeasible_graph_is_reported() {
        // 400 Mbit/s on a 25 MHz SoC (80 Mbit/s lanes): needs 5 lanes.
        let g = pipeline(2, 400.0);
        let err = Deployment::builder(&g)
            .mesh(2, 2)
            .clock(MegaHertz(25.0))
            .build()
            .err()
            .expect("five lanes do not fit a port");
        assert!(matches!(
            err,
            DeployError::Mapping(MappingError::EdgeTooWide { .. })
        ));
    }

    #[test]
    fn oversized_mesh_is_an_error_not_a_panic() {
        // 17 columns exceed the packet header's 4-bit coordinate space;
        // the builder must report it, not panic in PacketFabric::new.
        let g = pipeline(2, 10.0);
        let err = Deployment::builder(&g)
            .mesh(17, 1)
            .fabric(FabricKind::Packet)
            .build()
            .err()
            .expect("17 columns overflow the head flit");
        assert!(matches!(
            err,
            DeployError::Provision(ProvisionError::MeshTooLarge {
                width: 17,
                height: 1
            })
        ));
    }

    /// Every path that builds a circuit router — flat circuit and hybrid
    /// fabrics and circuit or hybrid chiplet planes, through `build` and
    /// `build_controlled` — refuses `params` with
    /// `UnsupportedRouter` instead of panicking at the first `step` (or,
    /// for a lane width the converter does not shift, running wrong).
    fn assert_router_refused(params: RouterParams) {
        let g = pipeline(2, 10.0);
        let builder = |kind, chiplets: Option<(usize, usize)>| {
            let b = Deployment::builder(&g)
                .mesh(4, 4)
                .router_params(params)
                .fabric(kind);
            match chiplets {
                Some((cw, ch)) => b.chiplets(cw, ch),
                None => b,
            }
        };
        let refused = Some(DeployError::Provision(ProvisionError::UnsupportedRouter {
            lanes_per_port: params.lanes_per_port,
            lane_width: params.lane_width,
        }));
        for kind in [FabricKind::Circuit, FabricKind::Hybrid] {
            for chiplets in [None, Some((2, 2))] {
                let what = format!("{kind} chiplets {chiplets:?}");
                assert_eq!(builder(kind, chiplets).build().err(), refused, "{what}");
                let controlled = builder(kind, chiplets).build_controlled().err();
                assert_eq!(controlled, refused, "{what}, controlled");
            }
        }
    }

    #[test]
    fn lanes_beyond_the_packed_datapath_are_a_deploy_error() {
        assert_router_refused(RouterParams {
            lanes_per_port: 17,
            ..RouterParams::paper()
        });
        assert_router_refused(RouterParams {
            lanes_per_port: 0,
            ..RouterParams::paper()
        });
        // The widest shape the datapath carries still deploys and runs.
        let g = pipeline(2, 10.0);
        let mut dep = Deployment::builder(&g)
            .mesh(4, 4)
            .router_params(RouterParams {
                lanes_per_port: 16,
                ..RouterParams::paper()
            })
            .build()
            .expect("16 lanes per port fit the datapath");
        dep.run(500);
        dep.settle(500);
        assert!(dep.total_delivered() > 0);
    }

    #[test]
    fn lane_width_other_than_four_bits_is_a_deploy_error() {
        assert_router_refused(RouterParams {
            lanes_per_port: 8,
            lane_width: 2,
            ..RouterParams::paper()
        });
    }

    /// `build()` and `build_controlled()` both refuse `configure`'s
    /// builder over a 4×4 mesh with `refused`, instead of panicking in a
    /// fabric constructor.
    fn assert_refused(
        configure: impl Fn(DeploymentBuilder<'_>) -> DeploymentBuilder<'_>,
        refused: ProvisionError,
    ) {
        let g = pipeline(2, 10.0);
        let builder = || configure(Deployment::builder(&g).mesh(4, 4));
        let refused = Some(DeployError::Provision(refused));
        assert_eq!(builder().build().err(), refused);
        assert_eq!(builder().build_controlled().err(), refused);
    }

    #[test]
    fn chiplet_grid_that_does_not_divide_the_mesh_is_a_deploy_error() {
        let (width, height, cw, ch) = (4, 4, 3, 3);
        for kind in FabricKind::ALL {
            let grid = ProvisionError::ChipletGrid {
                width,
                height,
                cw,
                ch,
            };
            assert_refused(|b| b.fabric(kind).chiplets(cw, ch), grid);
        }
    }

    #[test]
    fn empty_chiplet_grid_is_a_deploy_error() {
        let (width, height, cw, ch) = (4, 4, 0, 2);
        let grid = ProvisionError::ChipletGrid {
            width,
            height,
            cw,
            ch,
        };
        assert_refused(|b| b.chiplets(cw, ch), grid);
    }

    #[test]
    fn parity_of_payload_between_backends() {
        let g = pipeline(2, 80.0);
        let run = |kind| {
            let mut dep = Deployment::builder(&g)
                .mesh(2, 1)
                .seed(11)
                .fabric(kind)
                .build()
                .unwrap();
            dep.keep_payload(true);
            dep.run(3000);
            dep.settle(3000);
            let dst = dep.mapping().routes[0].paths[0].last().unwrap().node;
            dep.payload_at(dst).to_vec()
        };
        let circuit = run(FabricKind::Circuit);
        let packet = run(FabricKind::Packet);
        assert!(!circuit.is_empty());
        assert_eq!(circuit, packet, "identical payload through both fabrics");
    }

    #[test]
    fn deployment_traffic_follows_a_controller_promotion() {
        // The advertised integration: a policy-driven deployment keeps
        // its offered-load traffic alive through a promotion. Retire the
        // GT circuit with the documented phased pattern (stop_traffic +
        // drain release); the controller promotes the spilled stream and
        // the deployment's generator follows the hand-over instead of
        // panicking on the drained handle.
        use crate::controller::ProfiledPromotion;
        use crate::stream::{ReleaseMode, StreamPlane};
        let g = oversubscribed();
        let mut dep = Deployment::builder(&g)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(9)
            .spill(true)
            .fabric(FabricKind::Hybrid)
            .policy(Box::new(ProfiledPromotion))
            .tick_window(64)
            .build()
            .unwrap();
        dep.run(1500);
        let gt = dep.fabric().stream_stats()[0].id;
        dep.stop_traffic(gt);
        dep.fabric_mut()
            .release(gt, ReleaseMode::Drain)
            .expect("live streams drain");
        dep.run(1500); // the tick promotes; traffic must survive it
        dep.settle(3000);
        let stats = dep.fabric().stream_stats();
        let promoted = stats
            .iter()
            .find(|s| s.active && s.plane == StreamPlane::Circuit)
            .expect("the spilled stream was promoted onto the freed lanes");
        assert!(promoted.reconfig_cycles > 0, "§5.1 wait charged");
        assert!(
            promoted.injected_words > 0,
            "the deployment kept offering load on the promoted session"
        );
        // Nothing was lost anywhere: the drained GT stream and both
        // phases of the promoted stream delivered everything accepted.
        for s in &stats {
            assert_eq!(
                s.delivered_words, s.injected_words,
                "{}: words lost across the hand-over",
                s.id
            );
        }
        // And the deployment's ledger agrees (collected across retired
        // and replacement handles alike).
        assert_eq!(dep.total_delivered(), dep.total_injected());
    }

    #[test]
    fn drained_release_blocks_quiescence_until_teardown() {
        // is_quiescent must count a pending drain as outstanding work:
        // stepping "until quiescent" has to carry the deferred teardown
        // over the ack-flush hold, leaving the lanes actually free.
        let g = pipeline(2, 80.0);
        let mut dep = Deployment::builder(&g).mesh(2, 1).seed(3).build().unwrap();
        dep.run(200);
        let id = dep.fabric().stream_stats()[0].id;
        dep.stop_traffic(id);
        dep.fabric_mut()
            .release(id, crate::stream::ReleaseMode::Drain)
            .unwrap();
        let mut guard = 0;
        while !dep.fabric().is_quiescent() {
            dep.fabric_mut().step();
            guard += 1;
            assert!(guard < 5000, "drain never quiesced");
        }
        let stats = &dep.fabric().stream_stats()[0];
        assert!(
            !stats.active,
            "quiescence implies the deferred teardown ran"
        );
        assert_eq!(stats.delivered_words, stats.injected_words);
        let demand = dep.mapping().stream_demand(id).unwrap();
        assert!(
            dep.fabric().can_admit_circuit(&demand),
            "the drained stream's lanes must be free again"
        );
    }

    #[test]
    fn energy_model_matches_clock() {
        let g = pipeline(2, 10.0);
        let dep = Deployment::builder(&g)
            .mesh(2, 2)
            .clock(MegaHertz(50.0))
            .build()
            .unwrap();
        assert_eq!(dep.energy_model().clock(), MegaHertz(50.0));
    }
}
