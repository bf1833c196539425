//! The unified fabric abstraction: one polymorphic interface over the
//! circuit-switched mesh and the packet-switched baseline mesh.
//!
//! The paper's headline result is a head-to-head energy comparison between
//! its reconfigurable circuit-switched router and a packet-switched
//! virtual-channel baseline. This module makes that comparison a property
//! of *every* workload instead of a per-experiment rig: any type
//! implementing [`Fabric`] can be provisioned from a CCN [`Mapping`],
//! driven with payload words through `inject`/`drain`, and costed with the
//! same activity-based energy flow the single-router experiments use.
//!
//! Two implementations ship here:
//!
//! * [`crate::soc::Soc`] — the paper's circuit-switched mesh. `provision` writes the
//!   configuration words into the routers (physically separated lanes; no
//!   run-time arbitration); `inject` queues words behind the source tiles'
//!   serialisers.
//! * [`PacketFabric`] — a full mesh of `noc_packet` virtual-channel
//!   wormhole routers (the baseline that previously existed only as a
//!   single-router scenario bench). `provision` records each circuit's
//!   destination coordinates; `inject` groups words into wormhole packets
//!   which XY-routing then carries with per-hop buffering and arbitration.
//!
//! Everything above this layer — the [`crate::deployment`] builder, the
//! generic experiment harness in `noc-exp`, the comparison binaries — is
//! written once, over `F: Fabric`.

use crate::ccn::Mapping;
use crate::session::SessionTable;
use crate::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
use crate::topology::{Mesh, NodeId};
use noc_core::error::ConfigError;
use noc_packet::flit::{Flit, FlitKind};
use noc_packet::params::{PacketParams, PacketPort};
use noc_packet::router::PacketRouter;
use noc_packet::routing::Coords;
use noc_packet::vc::VcId;
use noc_power::area::packet_router_area;
use noc_power::estimator::{PowerEstimator, PowerReport};
use noc_sim::activity::ComponentActivity;
use noc_sim::par::{par_step, ParPolicy};
use noc_sim::time::{Cycle, CycleCount};
use noc_sim::units::{FemtoJoules, MegaHertz, SquareMicroMeters};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Which switching discipline a fabric implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The paper's reconfigurable circuit-switched mesh.
    Circuit,
    /// Profiled hybrid switching: circuits for admitted GT streams, a
    /// clock-gated packet plane for the spillover
    /// ([`crate::hybrid::HybridFabric`]).
    Hybrid,
    /// Bufferless deflection routing: no FIFOs anywhere, contention
    /// absorbed as age-arbitrated misroutes
    /// ([`crate::deflection::DeflectionFabric`]).
    Deflection,
    /// The packet-switched virtual-channel wormhole baseline mesh.
    Packet,
}

impl FabricKind {
    /// All kinds, ordered from pure-circuit to pure-packet — the energy
    /// ordering the hybrid is expected to land inside, with bufferless
    /// deflection between it and the FIFO-buffered packet baseline.
    pub const ALL: [FabricKind; 4] = [
        FabricKind::Circuit,
        FabricKind::Hybrid,
        FabricKind::Deflection,
        FabricKind::Packet,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::Circuit => "circuit-switched",
            FabricKind::Hybrid => "hybrid-switched",
            FabricKind::Deflection => "deflection-routed",
            FabricKind::Packet => "packet-switched",
        }
    }
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why provisioning a fabric from a mapping failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionError {
    /// A configuration word was rejected by a router.
    Config(ConfigError),
    /// The mesh exceeds the packet header's 8-bit coordinate space.
    MeshTooLarge {
        /// Offending width.
        width: usize,
        /// Offending height.
        height: usize,
    },
    /// The mapping has more streams than the head flit's 8-bit stream
    /// tag can address.
    TooManyStreams {
        /// Streams in the mapping.
        streams: usize,
    },
    /// The circuit router's packed datapath cannot carry these router
    /// parameters (see
    /// [`RouterParams::fits_datapath`](noc_core::params::RouterParams::fits_datapath)).
    UnsupportedRouter {
        /// Requested lanes per port (the datapath carries 1..=16).
        lanes_per_port: usize,
        /// Requested lane width in bits (the datapath carries 4).
        lane_width: u32,
    },
    /// The mesh does not split evenly into a non-empty chiplet grid.
    ChipletGrid {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
        /// Requested chiplet columns.
        cw: usize,
        /// Requested chiplet rows.
        ch: usize,
    },
}

impl fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvisionError::Config(e) => write!(f, "illegal configuration word: {e}"),
            ProvisionError::MeshTooLarge { width, height } => write!(
                f,
                "{width}x{height} mesh exceeds the 16x16 packet coordinate space"
            ),
            ProvisionError::TooManyStreams { streams } => write!(
                f,
                "{streams} streams exceed the head flit's 256-stream tag space"
            ),
            ProvisionError::UnsupportedRouter {
                lanes_per_port,
                lane_width,
            } => write!(
                f,
                "the circuit router carries 1..=16 lanes of 4 bits per port, \
                 not {lanes_per_port} lanes of {lane_width} bits"
            ),
            ProvisionError::ChipletGrid {
                width,
                height,
                cw,
                ch,
            } => write!(
                f,
                "mesh {width}x{height} does not divide into a {cw}x{ch} chiplet grid"
            ),
        }
    }
}

impl std::error::Error for ProvisionError {}

impl From<ConfigError> for ProvisionError {
    fn from(e: ConfigError) -> ProvisionError {
        ProvisionError::Config(e)
    }
}

/// The technology/energy context a fabric is costed in: the calibrated
/// activity-to-energy estimator plus the clock the fabric runs at.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    estimator: PowerEstimator,
    clock: MegaHertz,
}

impl EnergyModel {
    /// The calibrated 0.13 µm model at `clock`.
    pub fn calibrated(clock: MegaHertz) -> EnergyModel {
        EnergyModel {
            estimator: PowerEstimator::calibrated(),
            clock,
        }
    }

    /// An explicit estimator at `clock`.
    pub fn new(estimator: PowerEstimator, clock: MegaHertz) -> EnergyModel {
        EnergyModel { estimator, clock }
    }

    /// The underlying activity-to-power estimator.
    pub fn estimator(&self) -> &PowerEstimator {
        &self.estimator
    }

    /// The clock frequency of the model.
    pub fn clock(&self) -> MegaHertz {
        self.clock
    }
}

// ---------------------------------------------------------------------------
// Snapshots: checkpoint/restore of full fabric state
// ---------------------------------------------------------------------------

/// An opaque, owned checkpoint of one fabric's complete state.
///
/// Snapshots exist so a running fabric can be checkpointed, replayed
/// deterministically, or warm-migrated into a fresh same-backend instance
/// (the fleet engine's tenant migration path). The representation is a
/// deep copy of the backend's own state — router registers, stream
/// tables, in-flight payload, telemetry, activity ledgers, everything —
/// boxed behind [`Any`] so `Box<dyn Fabric>` can snapshot without the
/// trait knowing concrete types. The contract, enforced by the
/// conformance suite: `snapshot` → [`Fabric::restore`] → `step` is
/// bit-identical to uninterrupted stepping, on every backend and under
/// every [`ParPolicy`].
///
/// A snapshot only restores into the backend that took it;
/// [`Fabric::restore`] on any other backend reports
/// [`SnapshotError::BackendMismatch`] and leaves the target untouched.
#[derive(Debug)]
pub struct FabricSnapshot {
    backend: &'static str,
    state: Box<dyn Any + Send>,
}

impl FabricSnapshot {
    /// Wrap a backend's cloned state. `backend` names the concrete type
    /// and is what [`Fabric::restore`] matches on before downcasting.
    pub fn new<S: Any + Send>(backend: &'static str, state: S) -> FabricSnapshot {
        FabricSnapshot {
            backend,
            state: Box::new(state),
        }
    }

    /// The concrete backend this snapshot was taken from.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Downcast to the expected backend state, or a
    /// [`SnapshotError::BackendMismatch`] naming both sides.
    pub fn downcast<S: Any>(&self, expected: &'static str) -> Result<&S, SnapshotError> {
        self.state
            .downcast_ref::<S>()
            .ok_or(SnapshotError::BackendMismatch {
                expected,
                found: self.backend,
            })
    }
}

/// Why restoring a [`FabricSnapshot`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was taken from a different backend than the one
    /// asked to restore it. The target fabric is left untouched.
    BackendMismatch {
        /// Backend of the fabric that refused the restore.
        expected: &'static str,
        /// Backend the snapshot was actually taken from.
        found: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BackendMismatch { expected, found } => write!(
                f,
                "snapshot of backend `{found}` cannot restore into backend `{expected}`"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A whole network-on-chip usable as an application substrate.
///
/// [`Fabric::step`] is the one way to advance a fabric: one full cycle
/// (link wiring, tile injection, every router plane clocked in one
/// dispatch, deliveries). Between steps the **stream-addressed**
/// word-level interface moves payload. Streams — the paper's
/// per-connection unit of guarantee — are first-class sessions:
///
/// 1. [`Fabric::provision`] installs a CCN [`Mapping`] and returns one
///    [`StreamId`] handle per stream it serves (circuits for the
///    circuit-switched fabric, wormhole destinations for the packet
///    fabric), numbered per [`Mapping::streams`];
/// 2. [`Fabric::inject_stream`] queues 16-bit payload words on a stream;
/// 3. [`Fabric::drain_stream`] collects the stream's delivered words;
/// 4. [`Fabric::stream_stats`] reports per-stream telemetry — word
///    counts, serving plane, and the full service-latency distribution
///    ([`StreamStats`]) — the data behind the hybrid's GT/BE service gap;
/// 5. [`Fabric::release`] / [`Fabric::admit`] are the runtime lifecycle:
///    tear a circuit down — immediately ([`ReleaseMode::Drop`]) or
///    loss-free once the pipeline empties ([`ReleaseMode::Drain`]) — then
///    re-run CCN admission against the freed lanes, with reconfiguration
///    latency (BE-network configuration delivery, paper §5.1) charged to
///    the admitted stream, and [`Fabric::stream_is_active`] polls whether
///    a session's teardown has run. [`Fabric::provision_with`] threads the
///    same BE-delivery path through *initial* provisioning
///    ([`ProvisionMode::BeDelivered`]), so cold-start setup time shows up
///    fabric-generically in stream latency;
/// 6. [`Fabric::activity`] / [`Fabric::total_energy`] cost the run with
///    the same Synopsys-style flow as the paper's Fig. 9.
///
/// The policy loop that drives the lifecycle automatically — draining
/// releases, profiled promotion of spilled streams onto freed circuits,
/// demotion of under-used circuits — is
/// [`crate::controller::FabricController`], itself a `Fabric`.
///
/// The trait is object-safe: `Box<dyn Fabric>` implements it too, so a
/// runtime-chosen backend flows through the same generic code.
///
/// ```
/// use noc_apps::taskgraph::{TaskGraph, TrafficShape};
/// use noc_core::params::RouterParams;
/// use noc_mesh::ccn::Ccn;
/// use noc_mesh::fabric::{EnergyModel, Fabric, PacketFabric};
/// use noc_mesh::stream::{ReleaseMode, StreamPlane};
/// use noc_mesh::tile::default_tile_kinds;
/// use noc_mesh::topology::Mesh;
/// use noc_packet::params::PacketParams;
/// use noc_sim::units::{Bandwidth, MegaHertz};
///
/// // One 60 Mbit/s stream, mapped by the CCN onto a 2x2 mesh...
/// let mut g = TaskGraph::new("demo");
/// let a = g.add_process("a");
/// let b = g.add_process("b");
/// g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
/// let mesh = Mesh::new(2, 2);
/// let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
/// let mapping = ccn.map(&g, &default_tile_kinds(&mesh)).unwrap();
///
/// // ...driven through the trait: provision -> inject_stream -> step ->
/// // drain_stream, with per-stream telemetry at the end.
/// let mut fabric = PacketFabric::new(mesh, PacketParams::paper(), 16);
/// let ids = fabric.provision(&mapping).unwrap();
/// assert_eq!(ids.len(), 1, "one NoC stream");
/// fabric.inject_stream(ids[0], &[1, 2, 3]);
/// fabric.finish_injection();
/// fabric.run(400);
/// assert_eq!(fabric.drain_stream(ids[0]), vec![1, 2, 3]);
///
/// let stats = fabric.stream_stats().remove(0);
/// assert_eq!(stats.id, ids[0]);
/// assert_eq!(stats.plane, StreamPlane::Packet);
/// assert_eq!(stats.delivered_words, 3);
/// assert!(stats.latency.p95().unwrap() >= stats.latency.min().unwrap());
///
/// // The stream lifecycle: release the session (a drained release is
/// // loss-free; here the stream is already empty), then re-admit the
/// // same demand at runtime and keep going under a fresh handle.
/// let demand = mapping.stream_demand(ids[0]).unwrap();
/// fabric.release(ids[0], ReleaseMode::Drain).unwrap();
/// let readmitted = fabric.admit(&demand).unwrap();
/// assert_ne!(readmitted, ids[0], "a new session, a new handle");
/// fabric.inject_stream(readmitted, &[4, 5]);
/// fabric.finish_injection();
/// fabric.run(400);
/// assert_eq!(fabric.drain_stream(readmitted), vec![4, 5]);
///
/// let model = EnergyModel::calibrated(MegaHertz(100.0));
/// assert!(fabric.total_energy(&model).value() > 0.0);
/// ```
pub trait Fabric: Send {
    /// Which switching discipline this is.
    fn kind(&self) -> FabricKind;

    /// Checkpoint the complete fabric state — router registers, stream
    /// tables, in-flight payload, telemetry and activity ledgers — as an
    /// owned [`FabricSnapshot`]. Restoring it (into this instance or a
    /// fresh same-backend one) and continuing to [`Fabric::step`] is
    /// bit-identical to never having checkpointed; the conformance suite
    /// holds every backend to that.
    fn snapshot(&self) -> FabricSnapshot;

    /// Replace this fabric's entire state with `snapshot`'s. Fails with
    /// [`SnapshotError::BackendMismatch`] — leaving `self` untouched —
    /// when the snapshot came from a different backend.
    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError>;

    /// The mesh topology.
    fn mesh(&self) -> &Mesh;

    /// Cycles simulated since construction.
    fn now(&self) -> Cycle;

    /// Install an application mapping (idempotent; a second call replaces
    /// the previous plan, resetting the stream table and its telemetry).
    /// Returns one session handle per stream this backend serves, in
    /// [`Mapping::streams`] order — the circuit fabric skips the spilled
    /// entries it cannot carry; the packet and hybrid fabrics serve
    /// everything.
    ///
    /// **Settle before re-provisioning.** A replaced plan's in-flight
    /// payload is forfeit: the circuit fabric tears its lanes down under
    /// it, and a packet-plane wormhole still in the routers is either
    /// dropped (its stream tag no longer resolves) or — when the new plan
    /// reuses the same tag for a stream with the same destination —
    /// could be attributed to the new session. Run the fabric to
    /// quiescence (see `Deployment::settle`) before swapping plans when
    /// exact telemetry matters; the conformance suite treats this as part
    /// of the contract.
    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError>;

    /// [`Fabric::provision`] with an explicit [`ProvisionMode`].
    ///
    /// Under [`ProvisionMode::BeDelivered`], a backend with configuration
    /// state (circuit routers) ships each stream's setup words over the
    /// BE network instead of writing them instantly — the same delivery
    /// path as a runtime [`Fabric::admit`] — so the cold-start wait
    /// (paper §5.1 budgets) appears in `reconfig_cycles` and in the
    /// measured latency of words injected before the circuit is ready.
    ///
    /// The default ignores the mode and provisions instantly, which is
    /// exact for backends with no configuration to deliver (wormhole
    /// destinations are registrations, not router state); backends that
    /// configure routers MUST override.
    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        let _ = mode;
        self.provision(mapping)
    }

    /// Queue payload words on stream `stream`. Returns the number of
    /// words accepted. The latency clock of every word starts here:
    /// serialisation backlog, staging and (for runtime-admitted circuits)
    /// the reconfiguration wait all count as service time in
    /// [`Fabric::stream_stats`].
    ///
    /// # Panics
    /// Panics on a handle this fabric does not serve, a released stream
    /// or a draining one.
    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize;

    /// Take the payload words stream `stream` delivered since the last
    /// call. Valid on released streams (their last words may land after
    /// the release).
    ///
    /// # Panics
    /// Panics on a handle this fabric does not serve.
    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16>;

    /// Per-stream telemetry for every session since the last
    /// [`Fabric::provision`] (released sessions included): word counts,
    /// serving [`StreamPlane`], reconfiguration charge and the full
    /// service-latency distribution. Survives
    /// [`Fabric::clear_activity`], which windows *energy* accounting
    /// only.
    fn stream_stats(&self) -> Vec<StreamStats>;

    /// Retire stream `stream` and return its resources (circuit lanes,
    /// wormhole destination slots) to the admission pool — immediately
    /// under [`ReleaseMode::Drop`] (undelivered backlog is discarded,
    /// words mid-circuit are dropped with the lanes), or loss-free under
    /// [`ReleaseMode::Drain`]: admission stops at once, the resources are
    /// held until every accepted word has been delivered, and only then
    /// does the fabric tear the stream down (its telemetry stays `active`
    /// until that deferred teardown runs; a drain cannot be released
    /// again — [`AdmitError::Draining`]). Either way the handle stays
    /// valid for [`Fabric::drain_stream`] / [`Fabric::stream_stats`];
    /// injecting on it panics. Releasing a handle that is already
    /// released, or that this fabric never issued, fails with
    /// [`AdmitError::UnknownStream`].
    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError>;

    /// Is session `stream` still open or draining? `Some(true)` until its
    /// release — including a [`ReleaseMode::Drain`]'s deferred teardown —
    /// has completed, `Some(false)` after, `None` for handles this fabric
    /// never issued. A cheap poll for drain supervisors: it agrees with
    /// [`StreamStats::active`] without cloning any telemetry.
    fn stream_is_active(&self, stream: StreamId) -> Option<bool>;

    /// Admit a new stream at runtime: re-run CCN lane admission against
    /// the lanes currently held (freed lanes of released streams are
    /// available again), provision the winning circuit — charging its
    /// BE-network configuration delivery (paper §5.1 budgets) to the new
    /// stream's latency — and return the new session handle. Packet-plane
    /// backends admit by registering a wormhole destination (no
    /// reconfiguration charge); the hybrid tries circuit admission first
    /// and spills to its gated packet plane otherwise. Every backend
    /// refuses a NaN, infinite or negative demand with
    /// [`AdmitError::InvalidDemand`] before touching any state; a zero
    /// demand is legal.
    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError>;

    /// Drain the control-plane hand-over log: `(retired, replacement)`
    /// pairs recorded since the last call. `Some(to)` means session
    /// `from` was retired (drained loss-free) and its demand is now
    /// served by session `to` — traffic drivers should retarget;
    /// `None` means `from` is being retired with no replacement yet
    /// (an eviction drain in progress — pause its offered load; a later
    /// move may name the replacement). Always empty for plain backends:
    /// only a control plane ([`crate::controller::FabricController`])
    /// replaces handles on its own initiative. `Deployment::run` polls
    /// this every cycle and follows the moves, so offered-load traffic
    /// survives promotions and demotions.
    fn take_handle_moves(&mut self) -> Vec<(StreamId, Option<StreamId>)> {
        Vec::new()
    }

    /// Would [`Fabric::admit`] put `demand` on *circuit* lanes right now?
    /// A side-effect-free feasibility probe — the CCN's lane allocation is
    /// re-run against the live circuits without claiming anything — used
    /// by control-plane policies ([`crate::controller`]) to promote a
    /// spilled stream only when a circuit is actually free, instead of
    /// churning sessions on hopeless attempts. `false` for backends with
    /// no circuit plane (the pure packet fabric admits, but never onto
    /// circuits), for unprovisioned fabrics and for demands `admit`
    /// refuses as malformed.
    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        let _ = demand;
        false
    }

    /// Flush any internal staging (e.g. a partially filled wormhole
    /// packet) so that everything injected so far will eventually be
    /// delivered. Call once after the last `inject_stream` of a run.
    ///
    /// **Contract:** the default is a no-op, correct only for backends
    /// with no injection staging (the circuit `Soc` serialises straight
    /// from its ingress queues). A backend that stages words — the packet
    /// fabric's open wormhole packets — MUST override this, and a
    /// composite fabric MUST forward it to every plane it owns: a
    /// forgotten override strands the tail of every stream (the
    /// conformance suite's partial-packet case fails loudly on such a
    /// backend).
    fn finish_injection(&mut self) {}

    /// Choose serial or pooled per-cycle evaluation for [`Fabric::step`]
    /// (see [`noc_sim::par::WorkerPool`]; fan-out is one level deep, so a
    /// fabric stepped inside a pool block steps inline). Every policy yields
    /// bit-identical simulation results; the knob only trades dispatch
    /// overhead against multi-core fan-out. The default implementation
    /// ignores the policy so that backends without internal parallelism
    /// remain trivial to write.
    fn set_parallelism(&mut self, policy: ParPolicy) {
        let _ = policy;
    }

    /// Advance the whole fabric by one clock cycle.
    fn step(&mut self);

    /// Run `cycles` cycles.
    fn run(&mut self, cycles: CycleCount) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Per-component switching activity accumulated so far.
    fn activity(&self) -> Vec<ComponentActivity>;

    /// Reset all activity ledgers (start of a measurement window).
    fn clear_activity(&mut self);

    /// `true` when no payload is known to be queued or buffered anywhere.
    /// Conservative: a quiescent fabric may still hold a few words in
    /// serialiser pipelines, so settle loops should additionally wait for
    /// deliveries to stop (see `Deployment::settle`).
    fn is_quiescent(&self) -> bool;

    /// Payload units lost anywhere in the fabric (0 under correct flow
    /// control — the data-loss invariant every deployment should assert).
    fn total_overflows(&self) -> u64 {
        0
    }

    /// Streams this fabric carries on a best-effort spillover plane rather
    /// than on provisioned circuits. Zero for the pure fabrics: the
    /// circuit fabric simply cannot serve [`Mapping::spilled`] entries and
    /// the packet fabric treats every stream uniformly. The hybrid fabric
    /// reports its GT-on-circuit vs BE-on-packet split here.
    fn spilled_streams(&self) -> u64 {
        0
    }

    /// Payload words injected into the spillover plane so far.
    fn spilled_words(&self) -> u64 {
        0
    }

    /// Total silicon area of the fabric's routers in the model's
    /// technology.
    fn area(&self, model: &EnergyModel) -> SquareMicroMeters;

    /// Power report over the last `cycles` cycles of accumulated activity
    /// at the model's clock.
    ///
    /// # Panics
    /// Panics when `cycles` is zero.
    fn power(&self, model: &EnergyModel, cycles: CycleCount) -> PowerReport {
        model
            .estimator()
            .estimate(&self.activity(), cycles, model.clock(), self.area(model))
    }

    /// Total energy (static + dynamic) dissipated over the fabric's
    /// lifetime so far, per the model. This is the number behind the
    /// paper's headline circuit-vs-packet comparison.
    ///
    /// # Panics
    /// Panics before the first `step`.
    fn total_energy(&self, model: &EnergyModel) -> FemtoJoules {
        let cycles = self.now().0;
        let report = self.power(model, cycles);
        let window = model.clock().period() * cycles as f64;
        FemtoJoules::from_power_time(report.total(), window)
    }
}

/// Merge per-component activity by
/// [`ComponentKind`](noc_sim::activity::ComponentKind): a kind seen before
/// absorbs the ledger, a new kind is appended. Each kind stays where it
/// first appears, because [`PowerReport`] sums per-component floats in
/// that order.
pub(crate) fn merge_by_kind(
    parts: impl IntoIterator<Item = ComponentActivity>,
) -> Vec<ComponentActivity> {
    let mut merged: Vec<ComponentActivity> = Vec::new();
    for comp in parts {
        match merged.iter_mut().find(|c| c.kind == comp.kind) {
            Some(existing) => existing.ledger.merge(&comp.ledger),
            None => merged.push(comp),
        }
    }
    merged
}

// ---------------------------------------------------------------------------
// Packet-switched fabric: a full mesh of VC wormhole routers
// ---------------------------------------------------------------------------

/// A wormhole session's own state: its destination and word staging.
#[derive(Debug, Clone)]
struct Wormhole {
    dest: Coords,
    plane: StreamPlane,
    /// Payload words of the partially filled outgoing packet.
    open: Vec<u16>,
    /// Inject timestamps of words staged or in flight (FIFO — wormholes
    /// of one stream deliver in order).
    pending_ts: VecDeque<u64>,
}

/// The packet-switched baseline as a whole mesh: `noc_packet` routers on
/// every node, credit-managed links, XY routing, and a word-level tile
/// interface that packs injected words into wormhole packets.
///
/// Where the circuit fabric physically separates streams on configured
/// lanes, this fabric shares links in time: every hop buffers flits in VC
/// FIFOs and arbitrates — which is precisely the energy difference the
/// [`Fabric`] abstraction lets every workload measure. Stream identity
/// travels **in the flit head**: the 16×16 coordinate space leaves the
/// head payload's high nibbles spare, and
/// [`noc_packet::flit::Flit::head_tagged`] carries the stream tag there —
/// so the receiving tile interface attributes every delivered word (and
/// its latency) to its stream without any side channel.
#[derive(Debug, Clone)]
pub struct PacketFabric {
    mesh: Mesh,
    params: PacketParams,
    packet_words: usize,
    policy: ParPolicy,
    routers: Vec<PacketRouter>,
    /// Stream sessions, provision-time then runtime-admitted.
    sessions: SessionTable<Wormhole>,
    /// Per node, per VC: stream tag of the wormhole being delivered.
    rx_stream: Vec<Vec<Option<u32>>>,
    /// Per node: flits awaiting injection at the tile port.
    ingress: Vec<VecDeque<Flit>>,
    now: Cycle,
    /// Has `provision` run? (`admit` needs a plan to extend, even one
    /// with zero streams — a hybrid's packet plane starts empty whenever
    /// nothing spilled.)
    provisioned: bool,
    /// Payload words injected (after packetisation).
    pub words_injected: u64,
    /// Payload words delivered to tiles.
    pub words_delivered: u64,
}

/// Map a mesh port to the packet router's port type.
pub(crate) fn pport(port: noc_core::lane::Port) -> PacketPort {
    match port {
        noc_core::lane::Port::Tile => PacketPort::Tile,
        noc_core::lane::Port::North => PacketPort::North,
        noc_core::lane::Port::East => PacketPort::East,
        noc_core::lane::Port::South => PacketPort::South,
        noc_core::lane::Port::West => PacketPort::West,
    }
}

impl PacketFabric {
    /// Payload words per wormhole packet used when none is specified:
    /// matches the single-router scenario benches, long enough for
    /// wormhole interleaving to matter, short enough for low latency.
    pub const DEFAULT_PACKET_WORDS: usize = 16;

    /// A fabric of `params`-configured routers over `mesh`, packing
    /// `packet_words` payload words per wormhole packet.
    ///
    /// # Panics
    /// Panics when the mesh exceeds the 16×16 packet coordinate space or
    /// `packet_words` is zero.
    pub fn new(mesh: Mesh, params: PacketParams, packet_words: usize) -> PacketFabric {
        assert!(packet_words >= 1, "packets need payload");
        assert!(
            mesh.width <= 16 && mesh.height <= 16,
            "coords are 8-bit nibble pairs in the head flit"
        );
        let routers = mesh
            .iter()
            .map(|n| {
                let (x, y) = mesh.coords(n);
                PacketRouter::new(params.at(Coords::new(x as u8, y as u8)))
            })
            .collect();
        let vcs = params.vcs;
        PacketFabric {
            params,
            packet_words,
            policy: ParPolicy::Auto,
            routers,
            sessions: SessionTable::new(),
            rx_stream: mesh.iter().map(|_| vec![None; vcs]).collect(),
            ingress: mesh.iter().map(|_| Default::default()).collect(),
            now: Cycle::ZERO,
            provisioned: false,
            words_injected: 0,
            words_delivered: 0,
            mesh,
        }
    }

    /// The router parameters.
    pub fn params(&self) -> &PacketParams {
        &self.params
    }

    /// Total flits queued at tile inputs but not yet injected.
    pub fn ingress_backlog(&self) -> usize {
        self.ingress.iter().map(|q| q.len()).sum()
    }

    /// Register one stream session.
    fn register(&mut self, id: StreamId, src: NodeId, dst: NodeId, plane: StreamPlane) {
        let (x, y) = self.mesh.coords(dst);
        let wormhole = Wormhole {
            dest: Coords::new(x as u8, y as u8),
            plane,
            open: Vec::with_capacity(self.packet_words),
            pending_ts: VecDeque::new(),
        };
        self.sessions.open(id, src, dst, wormhole);
    }

    /// Stage one word on stream `si` (timestamped for the latency
    /// ledger), closing the open packet when it fills.
    fn push_word(&mut self, si: usize, word: u16) {
        let now = self.now.0;
        let s = &mut self.sessions[si];
        s.x.open.push(word);
        s.x.pending_ts.push_back(now);
        s.words.injected += 1;
        self.words_injected += 1;
        if self.sessions[si].x.open.len() >= self.packet_words {
            self.close_stream(si);
        }
    }

    /// Close stream `si`'s open packet, if any, and queue its flits —
    /// head tagged with the stream id, so delivery is attributable.
    fn close_stream(&mut self, si: usize) {
        let s = &mut self.sessions[si];
        if s.x.open.is_empty() {
            return;
        }
        let words = std::mem::take(&mut s.x.open);
        let q = &mut self.ingress[s.src.0];
        q.push_back(Flit::head_tagged(s.x.dest, s.id.0 as u8));
        let last = words.len() - 1;
        for (i, &w) in words.iter().enumerate() {
            q.push_back(if i == last {
                Flit::tail(w)
            } else {
                Flit::body(w)
            });
        }
    }
}

/// Backend label of [`PacketFabric`] in [`FabricSnapshot`]s.
pub(crate) const PACKET_BACKEND: &str = "packet-mesh";

impl Fabric for PacketFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Packet
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(PACKET_BACKEND, self.clone())
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        *self = snapshot.downcast::<PacketFabric>(PACKET_BACKEND)?.clone();
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Install the mapping's streams as wormhole sessions. A packet
    /// fabric treats spilled demands like any other stream — wormholes
    /// don't care that the CCN ran out of circuit lanes (they keep their
    /// [`StreamPlane::Spilled`] label for telemetry) — which is what makes
    /// the pure-packet backend the all-streams reference the hybrid
    /// fabric is compared against.
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
        for slots in &mut self.rx_stream {
            slots.fill(None);
        }
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
        for &word in words {
            self.push_word(si, word);
        }
        words.len()
    }

    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        self.sessions.take_egress(stream)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        self.sessions
            .iter()
            .map(|s| s.stats(s.x.plane, 0, 0))
            .collect()
    }

    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        let si = self.sessions.releasable(stream)?;
        match mode {
            ReleaseMode::Drop => {
                self.sessions.close(si);
                // Discard the staged (never-launched) words and exactly
                // their timestamps — the tail of the FIFO. Words already
                // on the wire keep theirs: they may still land after the
                // release and must stay paired for the latency ledger.
                let s = &mut self.sessions[si].x;
                let staged = s.open.len();
                s.open.clear();
                let keep = s.pending_ts.len() - staged;
                s.pending_ts.truncate(keep);
            }
            ReleaseMode::Drain => {
                // Launch the partially filled packet — a drain delivers
                // everything accepted so far — and let `step`
                // retire the session once the last word lands.
                self.close_stream(si);
                if self.sessions[si].x.pending_ts.is_empty() {
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

    /// Wormholes admit anything the coordinate space can address: a new
    /// destination registration, no lanes to allocate, no
    /// reconfiguration charge.
    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        demand.check()?;
        if !self.provisioned {
            return Err(AdmitError::Unsupported("admit needs a provisioned fabric"));
        }
        if self.sessions.next_id() > 255 {
            return Err(AdmitError::Unsupported(
                "the head flit's 256-stream tag space is exhausted",
            ));
        }
        let id = self.sessions.issue();
        self.register(id, demand.src, demand.dst, StreamPlane::Packet);
        Ok(id)
    }

    fn finish_injection(&mut self) {
        for si in 0..self.sessions.len() {
            self.close_stream(si);
        }
    }

    /// Serial or pooled router evaluation (default [`ParPolicy::Auto`]).
    /// The two-phase contract makes the choice invisible to results; see
    /// [`noc_sim::par`].
    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.policy = policy;
    }

    /// One full fabric cycle: wire links and credits, inject from the
    /// ingress queues, clock every router, collect deliveries.
    fn step(&mut self) {
        // 1. Wire the links: flits forward, credits backward. Outputs are
        //    latched, so sampling before eval is race-free. A neighbour
        //    whose `quiet_links` flag is set drives no flit and no credit
        //    pulse on ANY port, so sampling it is provably a no-op.
        for node in self.mesh.iter() {
            for port in noc_core::lane::Port::NEIGHBOURS {
                if let Some(nb) = self.mesh.neighbour(node, port) {
                    if self.routers[nb.0].quiet_links() {
                        continue;
                    }
                    let opp = pport(port.opposite().expect("neighbour port"));
                    let p = pport(port);
                    if let Some((vc, flit)) = self.routers[nb.0].link_output(opp).flit {
                        self.routers[node.0].set_link_input(p, VcId(vc), flit);
                    }
                    for vc in 0..self.params.vcs as u8 {
                        if self.routers[nb.0].credit_output(opp, VcId(vc)) {
                            self.routers[node.0].set_credit_input(p, VcId(vc), true);
                        }
                    }
                }
            }
        }

        // 2. Tile injection: one flit per node per cycle, on VC 0 (whole
        //    packets stay on one VC; heads only switch between packets).
        for node in self.mesh.iter() {
            if let Some(&flit) = self.ingress[node.0].front() {
                if self.routers[node.0].tile_inject(VcId(0), flit) {
                    self.ingress[node.0].pop_front();
                }
            }
        }

        // 3. Clock every router in one dispatch, optionally fanned out over
        //    the persistent worker pool: inputs were sampled from latched
        //    outputs in phase 1, so router order is free.
        par_step(&mut self.routers, self.policy);
        self.now += 1;

        // 4. Tile deliveries: the head names the wormhole's stream (its
        //    tag rides the spare coordinate nibbles), body/tail words land
        //    in that stream's egress with their latency recorded. Streams
        //    on different VCs interleave at the tile; the per-VC slot
        //    keeps their attribution separate.
        for node in self.mesh.iter() {
            while let Some((vc, flit)) = self.routers[node.0].tile_recv() {
                match flit.kind {
                    FlitKind::Head => {
                        self.rx_stream[node.0][vc.index()] = flit.stream_tag().map(u32::from);
                    }
                    FlitKind::Body | FlitKind::Tail => {
                        self.words_delivered += 1;
                        let si = self.rx_stream[node.0][vc.index()]
                            .and_then(|tag| self.sessions.index_of(StreamId(tag)))
                            // Tag numbering restarts at re-provision, so a
                            // leftover wormhole could alias a new stream's
                            // tag; only accept words whose destination
                            // matches the claimed session.
                            .filter(|&si| self.sessions[si].dst == node);
                        // Unattributable words — an in-flight wormhole from
                        // a plan a re-provision replaced — are dropped (the
                        // conformance contract settles before
                        // re-provisioning; `words_delivered` still counts
                        // them at fabric level).
                        if let Some(si) = si {
                            let now = self.now.0;
                            let s = &mut self.sessions[si];
                            let ts = s.x.pending_ts.pop_front();
                            s.words.deliver(flit.payload, ts.map(|ts| now - ts));
                        }
                    }
                }
            }
        }

        // 5. Finalise draining releases: a session retired with
        //    `ReleaseMode::Drain` stays registered until its last accepted
        //    word was delivered above, then closes loss-free.
        self.sessions.poll_drains(|s| s.x.pending_ts.is_empty());
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        merge_by_kind(self.routers.iter().flat_map(PacketRouter::activity))
    }

    fn clear_activity(&mut self) {
        for r in &mut self.routers {
            r.clear_activity();
        }
    }

    fn is_quiescent(&self) -> bool {
        self.sessions.pending_drains() == 0
            && self.sessions.iter().all(|s| s.x.open.is_empty())
            && self.ingress.iter().all(|q| q.is_empty())
            && self
                .routers
                .iter()
                .all(|r| r.is_quiescent() && r.tile_rx_pending() == 0)
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        packet_router_area(&self.params, model.estimator().tech()).total()
            * self.mesh.nodes() as f64
    }
}

// ---------------------------------------------------------------------------
// Boxed fabrics: runtime backend selection through the same generic code
// ---------------------------------------------------------------------------

impl Fabric for Box<dyn Fabric> {
    fn kind(&self) -> FabricKind {
        (**self).kind()
    }

    fn snapshot(&self) -> FabricSnapshot {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        (**self).restore(snapshot)
    }

    fn mesh(&self) -> &Mesh {
        (**self).mesh()
    }

    fn now(&self) -> Cycle {
        (**self).now()
    }

    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        (**self).provision(mapping)
    }

    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        (**self).provision_with(mapping, mode)
    }

    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize {
        (**self).inject_stream(stream, words)
    }

    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        (**self).drain_stream(stream)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        (**self).stream_stats()
    }

    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        (**self).release(stream, mode)
    }

    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        (**self).admit(demand)
    }

    fn stream_is_active(&self, stream: StreamId) -> Option<bool> {
        (**self).stream_is_active(stream)
    }

    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        (**self).can_admit_circuit(demand)
    }

    fn take_handle_moves(&mut self) -> Vec<(StreamId, Option<StreamId>)> {
        (**self).take_handle_moves()
    }

    fn finish_injection(&mut self) {
        (**self).finish_injection()
    }

    fn set_parallelism(&mut self, policy: ParPolicy) {
        (**self).set_parallelism(policy)
    }

    fn step(&mut self) {
        (**self).step()
    }

    fn run(&mut self, cycles: CycleCount) {
        (**self).run(cycles)
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        (**self).activity()
    }

    fn clear_activity(&mut self) {
        (**self).clear_activity()
    }

    fn is_quiescent(&self) -> bool {
        (**self).is_quiescent()
    }

    fn total_overflows(&self) -> u64 {
        (**self).total_overflows()
    }

    fn spilled_streams(&self) -> u64 {
        (**self).spilled_streams()
    }

    fn spilled_words(&self) -> u64 {
        (**self).spilled_words()
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        (**self).area(model)
    }

    fn power(&self, model: &EnergyModel, cycles: CycleCount) -> PowerReport {
        (**self).power(model, cycles)
    }

    fn total_energy(&self, model: &EnergyModel) -> FemtoJoules {
        (**self).total_energy(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use crate::soc::{Soc, SOC_BACKEND};
    use crate::tile::default_tile_kinds;
    use noc_apps::taskgraph::{TaskGraph, TrafficShape};
    use noc_core::params::RouterParams;
    use noc_sim::units::Bandwidth;

    fn two_stage() -> TaskGraph {
        let mut g = TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
        g
    }

    fn mapped(mesh: Mesh) -> Mapping {
        let params = RouterParams::paper();
        let ccn = Ccn::new(mesh, params, MegaHertz(100.0));
        ccn.map(&two_stage(), &default_tile_kinds(&mesh))
            .expect("feasible")
    }

    /// Drive the same provisioned stream through any fabric and return
    /// the words the session delivered — written once, exercised against
    /// both implementations below.
    fn pump<F: Fabric>(fabric: &mut F, mapping: &Mapping, words: &[u16]) -> Vec<u16> {
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
    fn circuit_fabric_delivers_payload_in_order() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let words: Vec<u16> = (0..40).map(|i| 0x1000 + i).collect();
        assert_eq!(pump(&mut soc, &mapping, &words), words);
        assert!(soc.is_quiescent());
    }

    #[test]
    fn packet_fabric_delivers_payload_in_order() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let mut pf = PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        );
        let words: Vec<u16> = (0..40).map(|i| 0x2000 + i).collect();
        assert_eq!(pump(&mut pf, &mapping, &words), words);
        assert!(Fabric::is_quiescent(&pf));
    }

    #[test]
    fn boxed_fabric_behaves_like_concrete() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let mut boxed: Box<dyn Fabric> = Box::new(Soc::new(mesh, RouterParams::paper()));
        let words: Vec<u16> = (0..10).collect();
        assert_eq!(pump(&mut boxed, &mapping, &words), words);
        assert_eq!(boxed.kind(), FabricKind::Circuit);
    }

    #[test]
    fn same_stream_costs_less_energy_on_the_circuit_fabric() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let model = EnergyModel::calibrated(MegaHertz(25.0));
        let words: Vec<u16> = (0..200u16).map(|i| i.wrapping_mul(0x9E37)).collect();

        let mut soc = Soc::new(mesh, RouterParams::paper());
        let circuit_delivered = pump(&mut soc, &mapping, &words);
        let circuit = soc.total_energy(&model);

        let mut pf = PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        );
        let packet_delivered = pump(&mut pf, &mapping, &words);
        let packet = pf.total_energy(&model);

        assert_eq!(
            circuit_delivered, packet_delivered,
            "same payload through both"
        );
        assert!(
            circuit.value() < packet.value(),
            "paper's claim at fabric level: circuit {circuit} >= packet {packet}"
        );
    }

    #[test]
    fn packet_fabric_partial_packet_needs_flush() {
        let mesh = Mesh::new(2, 1);
        let mapping = mapped(mesh);
        let mut pf = PacketFabric::new(mesh, PacketParams::paper(), 16);
        let ids = pf.provision(&mapping).unwrap();
        pf.inject_stream(ids[0], &[1, 2, 3]); // less than a packet: stays staged
        assert!(!Fabric::is_quiescent(&pf));
        pf.run(100);
        assert!(
            pf.drain_stream(ids[0]).is_empty(),
            "unflushed partial packet must not leak"
        );
        pf.finish_injection();
        pf.run(100);
        assert_eq!(pf.drain_stream(ids[0]), vec![1, 2, 3]);
    }

    #[test]
    fn reprovision_replaces_the_previous_plan() {
        // The Fabric contract: provisioning mapping B after mapping A must
        // leave no stale circuit forwarding or capturing. Steer the
        // consumer to a different tile via its affinity hint so the
        // remapped circuit provably moves, and check the old destination
        // neither receives nor captures anything.
        let consumer_on = |affinity: &str| {
            let mut g = TaskGraph::new("move");
            let a = g.add_process("a");
            let b = g.add_process_with_affinity("b", affinity);
            g.add_edge(a, b, Bandwidth(60.0), TrafficShape::Streaming, "a->b");
            g
        };
        let mesh = Mesh::new(2, 2);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let params = RouterParams::paper();
        let ccn = Ccn::new(mesh, params, MegaHertz(100.0));
        let kinds = default_tile_kinds(&mesh); // Gpp, Dsp, Asic, Dsrh
        let g = consumer_on("DSP");
        let map_a = ccn.map(&g, &kinds).unwrap();
        let map_b = ccn.map(&consumer_on("ASIC"), &kinds).unwrap();
        let dst_a = map_a.routes[0].paths[0].last().unwrap().node;
        let dst_b = map_b.routes[0].paths[0].last().unwrap().node;
        assert_ne!(dst_a, dst_b, "test premise: remap moves the circuit");

        Fabric::provision(&mut soc, &map_a).unwrap();
        let ids_b = Fabric::provision(&mut soc, &map_b).unwrap();
        Fabric::inject_stream(&mut soc, ids_b[0], &[0xAB, 0xCD]);
        Fabric::run(&mut soc, 200);
        assert_eq!(
            Fabric::drain_stream(&mut soc, ids_b[0]),
            vec![0xAB, 0xCD],
            "the remapped circuit delivers"
        );
        let _ = dst_b;
        assert_eq!(
            soc.tiles().total_received(dst_a.0),
            0,
            "stale destination still receiving after re-provision"
        );
        assert!(
            !soc.tiles().capture_enabled(dst_a.0),
            "stale capture flag survived re-provision"
        );
    }

    #[test]
    fn inject_before_provision_panics() {
        let mesh = Mesh::new(2, 1);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fabric::inject_stream(&mut soc, StreamId(0), &[1]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn drain_release_under_backlog_loses_nothing() {
        // Release with words still queued and in flight: Drain must
        // deliver every accepted word before tearing the circuit down,
        // where Drop discards the backlog.
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (0..64).map(|i| 0x3000 + i).collect();
        for kind_drop in [false, true] {
            let mut soc = Soc::new(mesh, RouterParams::paper());
            let ids = Fabric::provision(&mut soc, &mapping).unwrap();
            Fabric::inject_stream(&mut soc, ids[0], &words);
            Fabric::run(&mut soc, 5); // a few words on the wire, most queued
            let mode = if kind_drop {
                ReleaseMode::Drop
            } else {
                ReleaseMode::Drain
            };
            Fabric::release(&mut soc, ids[0], mode).unwrap();
            // Injection is refused either way.
            let denied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Fabric::inject_stream(&mut soc, ids[0], &[1]);
            }));
            assert!(denied.is_err(), "injection after release must panic");
            Fabric::run(&mut soc, 2_000);
            let stats = Fabric::stream_stats(&soc).remove(0);
            assert!(!stats.active, "teardown must eventually run");
            if kind_drop {
                assert!(
                    stats.delivered_words < words.len() as u64,
                    "premise: Drop really had backlog to discard"
                );
            } else {
                assert_eq!(
                    Fabric::drain_stream(&mut soc, ids[0]),
                    words,
                    "a drained release delivers every accepted word"
                );
                assert_eq!(stats.delivered_words, words.len() as u64);
                // The freed lanes are re-admissible afterwards.
                let demand = mapping.stream_demand(ids[0]).unwrap();
                assert!(Fabric::can_admit_circuit(&soc, &demand));
            }
        }
    }

    #[test]
    fn snapshot_restores_into_a_fresh_fabric_bit_identically() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let words: Vec<u16> = (0..48).map(|i| 0x4000 + i).collect();

        let mut live = Soc::new(mesh, RouterParams::paper());
        let ids = Fabric::provision(&mut live, &mapping).unwrap();
        Fabric::inject_stream(&mut live, ids[0], &words);
        Fabric::run(&mut live, 7); // checkpoint mid-flight
        let snap = Fabric::snapshot(&live);

        let mut resumed = Soc::new(mesh, RouterParams::paper());
        Fabric::restore(&mut resumed, &snap).unwrap();
        Fabric::run(&mut live, 500);
        Fabric::run(&mut resumed, 500);
        assert_eq!(
            Fabric::drain_stream(&mut live, ids[0]),
            Fabric::drain_stream(&mut resumed, ids[0]),
            "restored resume must deliver the identical tail"
        );
        let model = EnergyModel::calibrated(MegaHertz(100.0));
        assert_eq!(
            live.total_energy(&model).value().to_bits(),
            resumed.total_energy(&model).value().to_bits(),
            "activity ledgers are part of the snapshot"
        );
    }

    #[test]
    fn snapshot_refuses_a_foreign_backend() {
        let mesh = Mesh::new(2, 2);
        let pf = PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        );
        let snap = Fabric::snapshot(&pf);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let err = Fabric::restore(&mut soc, &snap).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::BackendMismatch {
                expected: SOC_BACKEND,
                found: PACKET_BACKEND,
            }
        );
        assert_eq!(soc.now().0, 0, "a refused restore leaves the target alone");
    }

    #[test]
    fn be_delivered_provision_charges_cold_start_to_latency() {
        let mesh = Mesh::new(2, 2);
        let mapping = mapped(mesh);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let ids = Fabric::provision_with(&mut soc, &mapping, ProvisionMode::BeDelivered).unwrap();
        let stats = Fabric::stream_stats(&soc).remove(0);
        assert!(
            stats.reconfig_cycles > 0,
            "cold-start configuration rides the BE network"
        );
        // Words injected before the configuration lands pay the wait.
        Fabric::inject_stream(&mut soc, ids[0], &[7, 8, 9]);
        Fabric::run(&mut soc, 2_000);
        assert_eq!(Fabric::drain_stream(&mut soc, ids[0]), vec![7, 8, 9]);
        let stats = Fabric::stream_stats(&soc).remove(0);
        assert!(
            stats.latency.min().unwrap() >= stats.reconfig_cycles,
            "delivery wait must appear in measured latency"
        );
        // Final router state equals instant provisioning of the same
        // mapping (the §5.1 path is equivalent, only later).
        let mut reference = Soc::new(mesh, RouterParams::paper());
        Fabric::provision(&mut reference, &mapping).unwrap();
        for node in mesh.iter() {
            assert_eq!(
                soc.router(node).config().snapshot_words(),
                reference.router(node).config().snapshot_words(),
                "BE-delivered and instant provisioning must converge"
            );
        }
    }
}
