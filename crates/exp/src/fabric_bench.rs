//! Fabric-generic application experiments: the scenario plumbing written
//! once over `F: Fabric`, so every workload is automatically a
//! circuit-vs-packet comparison.
//!
//! This is the deployment-level generalisation of the single-router rigs
//! in [`crate::testbench`]: instead of hand-wiring one router's ports, an
//! application task graph is deployed through
//! [`noc_mesh::deployment::Deployment`] onto *any* backend, driven at its
//! demanded offered load, settled, and costed with the calibrated energy
//! model. [`compare_fabrics`] runs the identical workload (same seed, same
//! payload words) on all four backends — circuit, hybrid, deflection,
//! packet — and reports the paper's headline quantities side by side.
//!
//! Admission is spill-tolerant across the board so that oversubscribed
//! workloads (circuits alone cannot admit every stream) compare cleanly:
//! the circuit endpoint carries the admitted GT subset only, the hybrid
//! carries everything (spillover on its clock-gated packet plane), the
//! bufferless deflection mesh and the ungated packet baseline carry
//! everything on their own routers. For feasible workloads the spill set
//! is empty and the circuit/packet numbers are identical to strict
//! admission.

use noc_apps::taskgraph::TaskGraph;
use noc_mesh::deployment::{DeployError, Deployment};
use noc_mesh::fabric::{EnergyModel, Fabric, FabricKind};
use noc_mesh::stream::{StreamPlane, StreamStats};
use noc_mesh::topology::Mesh;
use noc_power::estimator::PowerReport;
use noc_sim::time::CycleCount;
use noc_sim::units::{FemtoJoules, MegaHertz};

/// What one fabric produced for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRunSummary {
    /// Which backend ran.
    pub kind: FabricKind,
    /// Cycles simulated (offered-load window plus settling).
    pub cycles: CycleCount,
    /// Payload words injected across all circuits.
    pub injected: u64,
    /// Payload words delivered across all destinations.
    pub delivered: u64,
    /// The worst per-circuit delivered fraction.
    pub min_delivered_fraction: f64,
    /// Power over the run at the deployment clock.
    pub power: PowerReport,
    /// Total energy over the run.
    pub energy: FemtoJoules,
    /// Streams carried on a best-effort spillover plane (hybrid only).
    pub spilled_streams: u64,
    /// Payload words that rode the spillover plane (hybrid only).
    pub spilled_words: u64,
    /// Per-stream telemetry straight from `Fabric::stream_stats`: word
    /// counts, serving plane and the full service-latency distribution
    /// for every session of the run.
    pub streams: Vec<StreamStats>,
}

impl FabricRunSummary {
    /// Energy per delivered payload bit — the efficiency number the paper
    /// argues about.
    pub fn energy_per_bit(&self) -> FemtoJoules {
        if self.delivered == 0 {
            FemtoJoules::ZERO
        } else {
            self.energy / (self.delivered as f64 * 16.0)
        }
    }

    /// Worst (largest) p95 service latency among streams served by
    /// `plane`, over streams with deliveries
    /// ([`noc_mesh::stream::worst_p95`]).
    pub fn worst_p95(&self, plane: StreamPlane) -> Option<u64> {
        noc_mesh::stream::worst_p95(&self.streams, plane)
    }

    /// Best (smallest) p95 service latency among streams served by
    /// `plane`, over streams with deliveries
    /// ([`noc_mesh::stream::best_p95`]).
    pub fn best_p95(&self, plane: StreamPlane) -> Option<u64> {
        noc_mesh::stream::best_p95(&self.streams, plane)
    }

    /// The hybrid QoS claim at run level, via the one shared definition
    /// ([`noc_mesh::stream::gt_no_worse_than_be`]): every circuit-plane
    /// stream's p95 service latency is at or below every spilled
    /// stream's p95. This is the GT/BE service-gap ordering
    /// `fabric_compare` enforces by exit code on the oversubscribed
    /// workload.
    pub fn gt_no_worse_than_be(&self) -> bool {
        noc_mesh::stream::gt_no_worse_than_be(&self.streams)
    }
}

/// Drive `dep` for `cycles` cycles of offered-load traffic, settle the
/// in-flight tail, and summarise. Generic over the backend — this one
/// function is the testbench for both routers.
pub fn run_app<F: Fabric>(
    dep: &mut Deployment<F>,
    graph: &TaskGraph,
    cycles: CycleCount,
) -> FabricRunSummary {
    dep.run(cycles);
    dep.settle(cycles / 2 + 1000);
    let model: EnergyModel = dep.energy_model();
    let reports = dep.report(graph);
    FabricRunSummary {
        kind: dep.fabric().kind(),
        cycles: dep.cycles_run(),
        injected: dep.total_injected(),
        delivered: dep.total_delivered(),
        // An application with no NoC routes (everything co-located on one
        // tile) trivially meets its demands; report 1.0 rather than the
        // empty fold's +inf so tables and thresholds stay meaningful.
        min_delivered_fraction: if reports.is_empty() {
            1.0
        } else {
            reports
                .iter()
                .map(|r| r.delivered_fraction)
                .fold(f64::INFINITY, f64::min)
        },
        power: dep.power(&model),
        energy: dep.total_energy(&model),
        spilled_streams: dep.fabric().spilled_streams(),
        spilled_words: dep.fabric().spilled_words(),
        streams: dep.fabric().stream_stats(),
    }
}

/// All four backends' results for one workload, pure-circuit to
/// pure-packet.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricComparison {
    /// The circuit-switched run (spill-admitted: GT subset only when the
    /// workload oversubscribes the lanes).
    pub circuit: FabricRunSummary,
    /// The hybrid run: admitted streams on circuits, spillover on the
    /// clock-gated packet plane.
    pub hybrid: FabricRunSummary,
    /// The bufferless deflection run: every stream, single-flit-register
    /// routers, contention absorbed as age-arbitrated misroutes.
    pub deflection: FabricRunSummary,
    /// The packet-switched run (every stream, ungated baseline).
    pub packet: FabricRunSummary,
}

impl FabricComparison {
    /// Packet-over-circuit total-energy ratio (the paper's "~3.5× less"
    /// is the single-router version of this number).
    pub fn energy_ratio(&self) -> f64 {
        self.packet.energy.value() / self.circuit.energy.value()
    }

    /// Packet-over-hybrid total-energy ratio: what profiled hybrid
    /// switching saves while still delivering *every* stream.
    pub fn hybrid_energy_ratio(&self) -> f64 {
        self.packet.energy.value() / self.hybrid.energy.value()
    }

    /// Does the hybrid's energy land inside the pure endpoints
    /// (`circuit ≤ hybrid ≤ packet`)? The expected shape of every
    /// comparison: the circuit endpoint may do less work (spilled streams
    /// undelivered) and the packet endpoint pays for ungated buffers.
    pub fn hybrid_between_endpoints(&self) -> bool {
        self.circuit.energy.value() <= self.hybrid.energy.value()
            && self.hybrid.energy.value() <= self.packet.energy.value()
    }

    /// Packet-over-deflection total-energy ratio: what dropping every
    /// FIFO (and paying deflection re-traversals instead) saves against
    /// the ungated buffered baseline.
    pub fn deflection_energy_ratio(&self) -> f64 {
        self.packet.energy.value() / self.deflection.energy.value()
    }

    /// Largest per-stream `max_deflections` of the deflection run — 0 on
    /// an uncontended workload, positive once streams contend for links.
    pub fn max_deflections(&self) -> u64 {
        self.deflection
            .streams
            .iter()
            .map(|s| s.max_deflections)
            .max()
            .unwrap_or(0)
    }

    /// The summary for `kind`.
    pub fn summary(&self, kind: FabricKind) -> &FabricRunSummary {
        match kind {
            FabricKind::Circuit => &self.circuit,
            FabricKind::Hybrid => &self.hybrid,
            FabricKind::Deflection => &self.deflection,
            FabricKind::Packet => &self.packet,
        }
    }
}

/// Deploy `graph` on all four backends (same mesh, clock and traffic
/// seed) and run the identical workload through each. Admission is
/// spill-tolerant (see the module docs); a feasible workload behaves
/// exactly as under strict admission.
pub fn compare_fabrics(
    graph: &TaskGraph,
    mesh: Mesh,
    clock: MegaHertz,
    cycles: CycleCount,
    seed: u64,
) -> Result<FabricComparison, DeployError> {
    let build = |kind| {
        Deployment::builder(graph)
            .mesh_topology(mesh)
            .clock(clock)
            .seed(seed)
            .spill(true)
            .fabric(kind)
            .build()
    };
    let mut circuit = build(FabricKind::Circuit)?;
    let mut hybrid = build(FabricKind::Hybrid)?;
    let mut deflection = build(FabricKind::Deflection)?;
    let mut packet = build(FabricKind::Packet)?;
    Ok(FabricComparison {
        circuit: run_app(&mut circuit, graph, cycles),
        hybrid: run_app(&mut hybrid, graph, cycles),
        deflection: run_app(&mut deflection, graph, cycles),
        packet: run_app(&mut packet, graph, cycles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::hiperlan2::{task_graph, Hiperlan2Params, Modulation};

    fn comparison() -> &'static FabricComparison {
        static CMP: std::sync::OnceLock<FabricComparison> = std::sync::OnceLock::new();
        CMP.get_or_init(|| {
            let graph = task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
            compare_fabrics(&graph, Mesh::new(4, 4), MegaHertz(100.0), 6000, 0x2005)
                .expect("HiperLAN/2 deploys on both backends")
        })
    }

    #[test]
    fn hiperlan2_runs_on_both_backends() {
        let cmp = comparison();
        assert_eq!(cmp.circuit.kind, FabricKind::Circuit);
        assert_eq!(cmp.packet.kind, FabricKind::Packet);
        // Same seed: identical offered traffic.
        assert_eq!(cmp.circuit.injected, cmp.packet.injected);
        assert!(cmp.circuit.injected > 0);
    }

    #[test]
    fn both_backends_meet_demand() {
        let cmp = comparison();
        assert!(
            cmp.circuit.min_delivered_fraction > 0.9,
            "circuit: {:.3}",
            cmp.circuit.min_delivered_fraction
        );
        assert!(
            cmp.packet.min_delivered_fraction > 0.9,
            "packet: {:.3}",
            cmp.packet.min_delivered_fraction
        );
    }

    #[test]
    fn circuit_fabric_wins_on_energy() {
        let r = comparison().energy_ratio();
        assert!(r > 1.5, "fabric-level energy ratio {r:.2} too small");
    }

    #[test]
    fn feasible_workload_hybrid_spills_nothing_and_sits_between() {
        let cmp = comparison();
        assert_eq!(cmp.hybrid.kind, FabricKind::Hybrid);
        assert_eq!(cmp.hybrid.spilled_streams, 0, "HiperLAN/2 is feasible");
        assert_eq!(cmp.hybrid.delivered, cmp.packet.delivered);
        assert!(
            cmp.hybrid_between_endpoints(),
            "circuit {} <= hybrid {} <= packet {} violated",
            cmp.circuit.energy,
            cmp.hybrid.energy,
            cmp.packet.energy
        );
        assert!(cmp.hybrid_energy_ratio() > 1.5);
    }

    #[test]
    fn oversubscribed_workload_spills_and_keeps_the_ordering() {
        // The canonical oversubscribed line: the light stream must spill,
        // yet the hybrid delivers everything and still lands between the
        // pure endpoints.
        let clock = MegaHertz(25.0);
        let ccn = noc_mesh::Ccn::new(
            Mesh::new(3, 1),
            noc_core::params::RouterParams::paper(),
            clock,
        );
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let cmp = compare_fabrics(&g, Mesh::new(3, 1), clock, 4000, 0x0B5)
            .expect("spill admission deploys everywhere");
        assert_eq!(cmp.hybrid.spilled_streams, 1);
        assert!(cmp.hybrid.spilled_words > 0);
        // The circuit endpoint only carries the admitted subset.
        assert!(cmp.circuit.injected < cmp.hybrid.injected);
        assert_eq!(cmp.hybrid.injected, cmp.packet.injected);
        assert!(cmp.hybrid.min_delivered_fraction > 0.9);
        assert!(
            cmp.hybrid_between_endpoints(),
            "circuit {} <= hybrid {} <= packet {} violated",
            cmp.circuit.energy,
            cmp.hybrid.energy,
            cmp.packet.energy
        );
    }

    #[test]
    fn per_stream_delivered_sums_to_run_totals() {
        // The stream telemetry is a partition of the run: per-stream
        // delivered words sum to the deployment's delivered total on
        // every backend.
        let cmp = comparison();
        for kind in FabricKind::ALL {
            let s = cmp.summary(kind);
            let delivered: u64 = s.streams.iter().map(|t| t.delivered_words).sum();
            assert_eq!(delivered, s.delivered, "{kind}: stream sums diverge");
            let injected: u64 = s.streams.iter().map(|t| t.injected_words).sum();
            assert_eq!(injected, s.injected, "{kind}: injected sums diverge");
        }
    }

    #[test]
    fn oversubscribed_hybrid_gt_p95_at_or_below_be_p95() {
        // The GT/BE service gap under offered load: guaranteed-throughput
        // circuits must serve at or below the spillover plane's p95 —
        // the per-connection QoS number the hybrid discipline sells.
        let clock = MegaHertz(25.0);
        let ccn = noc_mesh::Ccn::new(
            Mesh::new(3, 1),
            noc_core::params::RouterParams::paper(),
            clock,
        );
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let cmp = compare_fabrics(&g, Mesh::new(3, 1), clock, 4000, 0x0B5)
            .expect("spill admission deploys everywhere");
        use noc_mesh::stream::StreamPlane;
        let gt = cmp.hybrid.worst_p95(StreamPlane::Circuit);
        let be = cmp.hybrid.best_p95(StreamPlane::Spilled);
        assert!(gt.is_some(), "circuit plane delivered and was timed");
        assert!(be.is_some(), "spillover plane delivered and was timed");
        assert!(
            cmp.hybrid.gt_no_worse_than_be(),
            "GT p95 {gt:?} exceeds BE p95 {be:?}"
        );
    }

    #[test]
    fn deflection_beats_ungated_packet_on_a_feasible_workload() {
        // The fourth backend's frontier position: HiperLAN/2 is feasible
        // (no oversubscription), so the deflection mesh delivers the same
        // words with no FIFO energy and must land strictly below the
        // ungated packet baseline.
        let cmp = comparison();
        assert_eq!(cmp.deflection.kind, FabricKind::Deflection);
        assert_eq!(cmp.deflection.injected, cmp.packet.injected);
        assert_eq!(cmp.deflection.delivered, cmp.packet.delivered);
        assert!(cmp.deflection.min_delivered_fraction > 0.9);
        assert!(
            cmp.deflection.energy.value() < cmp.packet.energy.value(),
            "deflection {} must beat the ungated packet {}",
            cmp.deflection.energy,
            cmp.packet.energy
        );
        assert!(cmp.deflection_energy_ratio() > 1.0);
    }

    #[test]
    fn oversubscribed_deflection_deflects_but_delivers() {
        // Oversubscription on the deflection mesh shows up as misroutes,
        // not loss: the max_deflections telemetry goes positive while
        // every injected word still lands.
        let clock = MegaHertz(25.0);
        let ccn = noc_mesh::Ccn::new(
            Mesh::new(3, 1),
            noc_core::params::RouterParams::paper(),
            clock,
        );
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let cmp = compare_fabrics(&g, Mesh::new(3, 1), clock, 4000, 0x0B5)
            .expect("spill admission deploys everywhere");
        assert_eq!(cmp.deflection.injected, cmp.packet.injected);
        assert_eq!(
            cmp.deflection.delivered, cmp.deflection.injected,
            "deflection routing never drops payload"
        );
        // On a 3x1 line two streams converge on one sink, so words must
        // contend for the same link and deflect.
        assert!(
            cmp.max_deflections() > 0,
            "the hotspot must force deflections"
        );
    }

    #[test]
    fn energy_per_bit_is_finite_and_ordered() {
        let cmp = comparison();
        let c = cmp.circuit.energy_per_bit().value();
        let p = cmp.packet.energy_per_bit().value();
        assert!(c > 0.0 && p > 0.0);
        assert!(c < p, "circuit {c:.1} fJ/bit vs packet {p:.1} fJ/bit");
    }
}
