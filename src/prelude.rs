//! One-stop imports for application code and examples.

pub use noc_apps::drm::DrmParams;
pub use noc_apps::hiperlan2::{Hiperlan2Params, Modulation};
pub use noc_apps::scenarios::Scenario;
pub use noc_apps::taskgraph::{EdgeId, ProcessId, TaskGraph, TrafficShape};
pub use noc_apps::traffic::DataPattern;
pub use noc_apps::umts::{UmtsModulation, UmtsParams};
pub use noc_core::config::{ConfigEntry, ConfigWord};
pub use noc_core::lane::Port;
pub use noc_core::params::RouterParams;
pub use noc_core::phit::{Header, Phit};
pub use noc_core::router::CircuitRouter;
pub use noc_exp::fabric_bench::{compare_fabrics, run_app, FabricComparison, FabricRunSummary};
pub use noc_exp::fig10::fig10;
pub use noc_exp::fig9::{fig9, RouterKind};
pub use noc_mesh::be::{BeConfig, BeNetwork};
pub use noc_mesh::ccn::{Ccn, Mapping, MappingError, SpillReason, SpillStream};
pub use noc_mesh::chiplet::{ChipletConfig, ChipletFabric};
pub use noc_mesh::controller::{
    AdmissionPolicy, ControllerStats, FabricController, FirstFit, LoadDemotion, PolicyAction,
    PolicyStream, PolicyView, ProfiledPromotion, Promotion, TickReport,
};
pub use noc_mesh::deflection::DeflectionFabric;
pub use noc_mesh::deployment::{
    DeployError, Deployment, DeploymentBuilder, DeploymentSnapshot, FabricRouteReport,
};
pub use noc_mesh::fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, PacketFabric, ProvisionError, SnapshotError,
};
pub use noc_mesh::hybrid::{HybridFabric, SpillStats};
pub use noc_mesh::reconfig;
pub use noc_mesh::soc::Soc;
pub use noc_mesh::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
pub use noc_mesh::tile::TileKind;
pub use noc_mesh::topology::{Mesh, NodeId};
pub use noc_packet::deflection::DeflectionParams;
pub use noc_packet::params::PacketParams;
pub use noc_packet::router::PacketRouter;
pub use noc_power::estimator::{PowerEstimator, PowerReport};
pub use noc_power::synthesis::table4;
pub use noc_power::tech::Technology;
pub use noc_sim::par::{ParPolicy, WorkerPool};
pub use noc_sim::time::{Cycle, CycleCount};
pub use noc_sim::units::{Bandwidth, MegaHertz, MicroWatts, Picoseconds};
