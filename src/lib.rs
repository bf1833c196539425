//! # rcs-noc — an energy-efficient reconfigurable circuit-switched NoC
//!
//! A from-scratch reproduction of Wolkotte, Smit, Rauwerda & Smit,
//! *An Energy-Efficient Reconfigurable Circuit-Switched Network-on-Chip*
//! (IPDPS 2005), as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`noc_sim`] | cycle-driven simulation kernel with switching-activity accounting |
//! | [`noc_core`] | **the paper's router**: lanes, 16×20 crossbar, config memory, data converter, window flow control |
//! | [`noc_packet`] | the packet-switched virtual-channel baseline |
//! | [`noc_power`] | 0.13 µm area/timing models and the Synopsys-style power estimator |
//! | [`noc_apps`] | HiperLAN/2, UMTS, DRM workloads and the traffic-pattern test set |
//! | [`noc_mesh`] | mesh SoC, tiles, CCN mapping, BE network — and the **unified [`Fabric`] API** |
//! | [`noc_exp`] | scenario testbenches, Fig. 9 / Fig. 10, and the fabric-generic comparison harness |
//!
//! `ARCHITECTURE.md` at the repository root is the full map: the crate
//! dependency graph, the two-phase clocking contract that makes stepping
//! deterministic *and* parallelisable on the persistent
//! [`noc_sim::par::WorkerPool`], the stream lifecycle
//! (`provision → admit/release → inject_stream → step → drain_stream →
//! stream_stats`), and which paper section or figure each crate
//! reproduces.
//!
//! ## The `Fabric` abstraction
//!
//! The paper's central result is a head-to-head energy comparison between
//! its circuit-switched router and a packet-switched virtual-channel
//! baseline — and its guarantees are **per connection**. This workspace
//! makes both structural: whole networks implement one trait, [`Fabric`],
//! whose unit of addressing is the stream session —
//! `provision(&Mapping)` installs a CCN mapping and returns one
//! [`StreamId`] handle per stream, `inject_stream`/`drain_stream` move
//! payload words per session, `stream_stats` reports per-stream word
//! counts and latency distributions (the hybrid's GT/BE service gap),
//! `release(.., ReleaseMode::{Drop, Drain})`/`admit` tear circuits down —
//! immediately or loss-free after the pipeline empties — and re-admit
//! demands against the freed lanes at runtime (BE-network reconfiguration
//! latency charged to the stream), `provision_with(..,
//! ProvisionMode::BeDelivered)` threads the same §5.1 delivery path
//! through cold-start provisioning, and `total_energy(&EnergyModel)`
//! costs the run with the calibrated activity-based flow. The **control
//! plane** over those verbs is `noc_mesh::controller::FabricController` —
//! itself a `Fabric` — whose pluggable `AdmissionPolicy` promotes spilled
//! streams onto freed circuits from measured telemetry and demotes idle
//! circuits, every policy window. [`Deployment::builder`] is the
//! documented entry point: it maps a task graph, provisions the chosen
//! backend (circuit, packet, or the profiled hybrid; instantly or
//! BE-delivered), optionally wraps it in a controller (`.policy(..)`),
//! binds offered-load traffic per stream, and selects serial or pooled
//! stepping (`.parallelism(ParPolicy)`) — identically for every fabric,
//! so each workload is automatically a circuit-vs-packet experiment that
//! scales to 16×16 meshes.
//!
//! ## Quickstart
//!
//! ```
//! use rcs_noc::prelude::*;
//!
//! // A two-stage pipeline...
//! let mut graph = TaskGraph::new("demo");
//! let src = graph.add_process("producer");
//! let dst = graph.add_process("consumer");
//! graph.add_edge(src, dst, Bandwidth(100.0), TrafficShape::Streaming, "demo edge");
//!
//! // ...deployed on a 2x2 mesh at 100 MHz — on either switching fabric.
//! for kind in [FabricKind::Circuit, FabricKind::Packet] {
//!     let mut dep = Deployment::builder(&graph)
//!         .mesh(2, 2)
//!         .clock(MegaHertz(100.0))
//!         .seed(42)
//!         .fabric(kind)
//!         .build()
//!         .unwrap();
//!     dep.run(2000);
//!     dep.settle(2000);
//!     let report = dep.report(&graph);
//!     assert!(report.iter().all(|r| r.delivered_fraction > 0.9));
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod prelude;

pub use noc_mesh::deployment::{
    DeployError, Deployment, DeploymentBuilder, DeploymentSnapshot, FabricRouteReport,
};
pub use noc_mesh::fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError, SnapshotError,
};
pub use noc_mesh::stream::{AdmitError, StreamDemand, StreamId, StreamPlane, StreamStats};
