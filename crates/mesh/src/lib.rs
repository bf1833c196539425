//! # noc-mesh — the multi-tile SoC substrate
//!
//! The paper's router lives inside a heterogeneous multi-tile
//! System-on-Chip (Fig. 1): a regular 2-D mesh of circuit-switched routers,
//! each attached to one processing tile, coordinated by a Central
//! Coordination Node (CCN) that "performs run-time mapping of the newly
//! arrived applications to suitable processing tiles and inter-processing
//! communications to a concatenation of network links" (Section 1.1). This
//! crate builds that whole substrate:
//!
//! * [`topology`] — the mesh: node coordinates, neighbour relations, links.
//! * [`tile`] — processing tiles (GPP/DSP/ASIC/FPGA/DSRH kinds of Fig. 1)
//!   acting as stream sources/sinks through the 16-bit tile interface.
//! * [`soc`] — the assembled SoC: routers + tiles + link wiring, stepped
//!   cycle-by-cycle, serially or in parallel across cores
//!   ([`noc_sim::par`]) — evaluation order cannot matter thanks to the
//!   two-phase clocking contract.
//! * [`ccn`] — the CCN: spatial mapping of Kahn process graphs onto tiles,
//!   lane-path allocation over the mesh (one or more physical lanes per
//!   edge), admission control against guaranteed-throughput budgets, and
//!   configuration-word generation.
//! * [`be`] — the best-effort network that carries configuration data to
//!   the routers' 10-bit configuration interfaces (paper Section 5.1: the
//!   GT crossbar cannot route packets, so configuration rides a separate
//!   BE network).
//! * [`reconfig`] — run-time reconfiguration: stream teardown/setup diffs
//!   delivered over the BE network, with the paper's <20 ms full-router
//!   budget checked.
//! * [`stream`] — **stream sessions**: [`stream::StreamId`] handles,
//!   per-stream telemetry ([`stream::StreamStats`] with a full latency
//!   histogram), and the runtime lifecycle vocabulary
//!   ([`stream::StreamDemand`], [`stream::AdmitError`]) — the paper's
//!   per-connection guarantees as API objects.
//! * [`fabric`] — **the unified backend API**: the [`fabric::Fabric`]
//!   trait over whole networks-on-chip, implemented by the
//!   circuit-switched [`Soc`] and by [`fabric::PacketFabric`], a full mesh
//!   of `noc_packet` wormhole routers. Streams are provisioned, injected,
//!   drained, costed and re-admitted per session; every workload written
//!   against it is automatically a circuit-vs-packet comparison.
//! * [`hybrid`] — **profiled hybrid switching** (arXiv:2005.08478): the
//!   third [`fabric::Fabric`] backend. [`hybrid::HybridFabric`] owns a
//!   circuit-switched [`Soc`] *and* a clock-gated [`fabric::PacketFabric`]
//!   over the same mesh; the CCN's spill-tolerant admission
//!   ([`ccn::Ccn::map_with_spill`]) puts admitted GT streams on circuits
//!   and the overflow on the packet plane, with per-plane spill accounting.
//! * [`deflection`] — **bufferless deflection routing**: the fourth
//!   [`fabric::Fabric`] backend. [`deflection::DeflectionFabric`] is a
//!   mesh of single-flit-register routers
//!   ([`noc_packet::deflection::DeflectionRouter`]) with age-ordered
//!   arbitration — no FIFOs anywhere, contention absorbed as misroutes —
//!   sitting between the hybrid and the buffered packet baseline on the
//!   energy frontier.
//! * [`controller`] — **the control plane**: a policy-driven
//!   [`controller::FabricController`] (itself a [`fabric::Fabric`]) that
//!   runs a pluggable [`controller::AdmissionPolicy`] every window —
//!   profiled promotion of spilled streams onto freed circuits, load-based
//!   demotion of under-used circuits, loss-free draining releases and
//!   BE-delivered cold-start provisioning as one phased lifecycle.
//! * [`chiplet`] — **the chiplet mesh-of-meshes**: a
//!   [`chiplet::ChipletFabric`] splits the aggregate mesh into a `cw × ch`
//!   grid of per-chiplet backend fabrics (any [`fabric::FabricKind`])
//!   stitched through network-on-interposer entry routers with finite entry
//!   lanes; cross-chiplet streams queue at the boundary (wait charged to
//!   their latency histogram) and each chiplet is one parallel dispatch
//!   shard on the shared worker pool.
//! * [`deployment`] — the [`deployment::Deployment`] builder: task graph
//!   in, provisioned and traffic-bound fabric out. Two build paths,
//!   `build()` (any backend behind `Box<dyn Fabric>`) and
//!   `build_controlled()` (always under a concrete
//!   [`controller::FabricController`]), and both honour every knob:
//!   `.fabric(kind)`, `.chiplets(..)`, spill or strict admission,
//!   `.provisioning(ProvisionMode)` cold-start, `.policy(...)` control
//!   plane.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod be;
pub mod ccn;
pub mod chiplet;
pub mod controller;
pub mod deflection;
pub mod deployment;
pub mod fabric;
pub mod hybrid;
pub mod reconfig;
mod session;
pub mod soc;
pub mod stream;
pub mod tile;
pub mod topology;

pub use be::{BeConfig, BeNetwork};
pub use ccn::{Ccn, MappedStream, Mapping, MappingError, PathHop, SpillReason, SpillStream};
pub use chiplet::{ChipletConfig, ChipletFabric};
pub use controller::{
    AdmissionPolicy, ControllerStats, FabricController, FirstFit, LoadDemotion, PolicyAction,
    PolicyStream, PolicyView, ProfiledPromotion, Promotion, TickReport,
};
pub use deflection::DeflectionFabric;
pub use deployment::{
    DeployError, Deployment, DeploymentBuilder, DeploymentSnapshot, FabricRouteReport,
};
pub use fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError, SnapshotError,
};
pub use hybrid::{HybridFabric, SpillStats};
pub use soc::Soc;
pub use stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
pub use tile::{default_tile_kinds, TileKind, TileSlab};
pub use topology::{Mesh, NodeId};
