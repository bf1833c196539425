//! Component area model: gates × gate area × layout overhead.
//!
//! The gate counts come from the structural formulas of [`crate::gates`];
//! the per-component layout overheads below absorb what a netlist-level
//! count cannot see — wiring congestion (crossbars route hundreds of nets
//! through a small region), select-line distribution, placement utilisation.
//! Each overhead is `CALIBRATED`: fitted once so the paper configuration
//! reproduces Table 4's published component areas, then frozen. Because the
//! gate counts scale with the design parameters, the model extrapolates to
//! other lane/VC/width configurations for the ablation benches.

use crate::gates;
use crate::tech::Technology;
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_sim::activity::ComponentKind;
use noc_sim::units::SquareMicroMeters;

/// Layout overhead of the circuit router's crossbar (wire-dominated
/// 16×20 switch). CALIBRATED to Table 4's 0.0258 mm².
pub const OVERHEAD_CIRCUIT_CROSSBAR: f64 = 1.645;
/// Layout overhead of the configuration memory (wide select-line fan-out
/// from 100 storage bits to 20 mux trees). CALIBRATED to 0.0090 mm².
pub const OVERHEAD_CIRCUIT_CONFIG: f64 = 3.017;
/// Layout overhead of the data converter. CALIBRATED to 0.0158 mm².
pub const OVERHEAD_CIRCUIT_CONVERTER: f64 = 1.758;
/// Layout overhead of the packet router's buffering. CALIBRATED to
/// 0.1034 mm².
pub const OVERHEAD_PACKET_BUFFERING: f64 = 2.092;
/// Layout overhead of the packet router's 20-input crossbar (the most
/// congested block of the design). CALIBRATED to 0.0706 mm².
pub const OVERHEAD_PACKET_CROSSBAR: f64 = 3.365;
/// Layout overhead of the arbitration logic (below 1: the structural
/// formula over-counts the priority trees that synthesis flattens).
/// CALIBRATED to 0.0022 mm².
pub const OVERHEAD_PACKET_ARBITRATION: f64 = 0.741;
/// Layout overhead of routing/credit miscellanea. CALIBRATED to 0.0038 mm².
pub const OVERHEAD_PACKET_MISC: f64 = 1.049;
/// Layout overhead of the chiplet NoI entry router: a register-dominated
/// boundary macro (per-lane staging flops, one narrow word mux onto the
/// die-to-die link), so close to unity — there is no congested switching
/// fabric to absorb wiring blow-up.
pub const OVERHEAD_NOI_ENTRY: f64 = 1.25;

/// Per-component silicon areas of one router.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// `(component, area)` pairs in Table 4 row order.
    pub components: Vec<(ComponentKind, SquareMicroMeters)>,
}

impl AreaBreakdown {
    /// Total area over all components.
    pub fn total(&self) -> SquareMicroMeters {
        self.components.iter().map(|&(_, a)| a).sum()
    }

    /// Area of one component (zero when the router lacks it).
    pub fn component(&self, kind: ComponentKind) -> SquareMicroMeters {
        self.components
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|&(_, a)| a)
            .unwrap_or(SquareMicroMeters::ZERO)
    }
}

fn area_of(gates: f64, overhead: f64, tech: &Technology) -> SquareMicroMeters {
    SquareMicroMeters(gates * tech.gate_area_um2 * overhead)
}

/// Area breakdown of the circuit-switched router (Table 4 left column).
pub fn circuit_router_area(p: &RouterParams, tech: &Technology) -> AreaBreakdown {
    AreaBreakdown {
        components: vec![
            (
                ComponentKind::Crossbar,
                area_of(gates::circuit_crossbar(p), OVERHEAD_CIRCUIT_CROSSBAR, tech),
            ),
            (
                ComponentKind::ConfigMemory,
                area_of(gates::circuit_config(p), OVERHEAD_CIRCUIT_CONFIG, tech),
            ),
            (
                ComponentKind::DataConverter,
                area_of(
                    gates::circuit_converter(p),
                    OVERHEAD_CIRCUIT_CONVERTER,
                    tech,
                ),
            ),
        ],
    }
}

/// Area breakdown of the packet-switched router (Table 4 middle column).
pub fn packet_router_area(p: &PacketParams, tech: &Technology) -> AreaBreakdown {
    AreaBreakdown {
        components: vec![
            (
                ComponentKind::Crossbar,
                area_of(gates::packet_crossbar(p), OVERHEAD_PACKET_CROSSBAR, tech),
            ),
            (
                ComponentKind::Buffering,
                area_of(gates::packet_buffering(p), OVERHEAD_PACKET_BUFFERING, tech),
            ),
            (
                ComponentKind::Arbitration,
                area_of(
                    gates::packet_arbitration(p),
                    OVERHEAD_PACKET_ARBITRATION,
                    tech,
                ),
            ),
            (
                ComponentKind::Misc,
                area_of(gates::packet_misc(p), OVERHEAD_PACKET_MISC, tech),
            ),
        ],
    }
}

/// Area breakdown of the bufferless deflection router. Reuses the packet
/// router's calibrated layout overheads — the blocks are the same kinds
/// (a congested wide crossbar, flattened arbitration trees, routing
/// miscellanea), only their sizes differ. There is no `Buffering` row:
/// a bufferless router simply has no such component.
pub fn deflection_router_area(tech: &Technology) -> AreaBreakdown {
    let components = vec![
        (
            ComponentKind::Crossbar,
            area_of(gates::deflection_crossbar(), OVERHEAD_PACKET_CROSSBAR, tech),
        ),
        (
            ComponentKind::Arbitration,
            area_of(
                gates::deflection_arbitration(),
                OVERHEAD_PACKET_ARBITRATION,
                tech,
            ),
        ),
        (
            ComponentKind::Misc,
            area_of(gates::deflection_misc(), OVERHEAD_PACKET_MISC, tech),
        ),
    ];
    AreaBreakdown { components }
}

/// Area breakdown of one chiplet NoI entry router serving `entry_lanes`
/// entry lanes. This is the contended boundary resource of the chiplet
/// mesh-of-meshes (`noc_mesh::chiplet`): per-lane staging buffers, the
/// lane arbiter, and the registered die-to-die link driver. One such
/// router exists per *directed* NoI link of the chiplet grid.
pub fn noi_entry_router_area(entry_lanes: usize, tech: &Technology) -> AreaBreakdown {
    AreaBreakdown {
        components: vec![
            (
                ComponentKind::Buffering,
                area_of(
                    gates::noi_entry_buffering(entry_lanes),
                    OVERHEAD_NOI_ENTRY,
                    tech,
                ),
            ),
            (
                ComponentKind::Arbitration,
                area_of(
                    gates::noi_entry_arbitration(entry_lanes),
                    OVERHEAD_PACKET_ARBITRATION,
                    tech,
                ),
            ),
            (
                ComponentKind::Link,
                area_of(gates::noi_entry_link(entry_lanes), OVERHEAD_NOI_ENTRY, tech),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::units::relative_error;

    fn tech() -> Technology {
        Technology::tsmc_0_13um()
    }

    #[test]
    fn circuit_components_match_table4() {
        let a = circuit_router_area(&RouterParams::paper(), &tech());
        let cases = [
            (ComponentKind::Crossbar, 0.0258),
            (ComponentKind::ConfigMemory, 0.0090),
            (ComponentKind::DataConverter, 0.0158),
        ];
        for (kind, paper_mm2) in cases {
            let got = a.component(kind).as_mm2();
            assert!(
                relative_error(got, paper_mm2) < 0.02,
                "{kind}: got {got:.4} mm2, paper {paper_mm2} mm2"
            );
        }
    }

    #[test]
    fn circuit_total_matches_table4() {
        let a = circuit_router_area(&RouterParams::paper(), &tech());
        let total = a.total().as_mm2();
        assert!(
            relative_error(total, 0.0506) < 0.02,
            "total {total:.4} vs paper 0.0506"
        );
    }

    #[test]
    fn packet_components_match_table4() {
        let a = packet_router_area(&PacketParams::paper(), &tech());
        let cases = [
            (ComponentKind::Crossbar, 0.0706),
            (ComponentKind::Buffering, 0.1034),
            (ComponentKind::Arbitration, 0.0022),
            (ComponentKind::Misc, 0.0038),
        ];
        for (kind, paper_mm2) in cases {
            let got = a.component(kind).as_mm2();
            assert!(
                relative_error(got, paper_mm2) < 0.02,
                "{kind}: got {got:.4} mm2, paper {paper_mm2} mm2"
            );
        }
    }

    #[test]
    fn packet_total_matches_table4() {
        let a = packet_router_area(&PacketParams::paper(), &tech());
        let total = a.total().as_mm2();
        assert!(
            relative_error(total, 0.1800) < 0.02,
            "total {total:.4} vs paper 0.1800"
        );
    }

    #[test]
    fn area_ratio_is_about_3_5() {
        // "The area and power consumption of the circuit-switched router is
        // 3.5 times less compared to the packet-switched router."
        let c = circuit_router_area(&RouterParams::paper(), &tech()).total();
        let p = packet_router_area(&PacketParams::paper(), &tech()).total();
        let ratio = p / c;
        assert!(
            (3.3..3.9).contains(&ratio),
            "area ratio {ratio:.2} should be ~3.5"
        );
    }

    #[test]
    fn deflection_area_between_circuit_and_packet() {
        // The energy-frontier premise at area level: no FIFOs, so the
        // deflection router lands between the circuit router and the
        // buffered packet router.
        let t = tech();
        let c = circuit_router_area(&RouterParams::paper(), &t).total();
        let d = deflection_router_area(&t).total();
        let p = packet_router_area(&PacketParams::paper(), &t).total();
        assert!(c < d, "circuit {c} < deflection {d}");
        assert!(d < p, "deflection {d} < packet {p}");
    }

    #[test]
    fn deflection_router_has_no_buffering_row() {
        let t = tech();
        let pure = deflection_router_area(&t);
        assert_eq!(
            pure.component(ComponentKind::Buffering),
            SquareMicroMeters::ZERO
        );
    }

    #[test]
    fn noi_entry_router_smaller_than_circuit_router() {
        // The chiplet stitching overhead must stay in the noise next to
        // the routers it stitches.
        let t = tech();
        let noi = noi_entry_router_area(4, &t).total();
        let c = circuit_router_area(&RouterParams::paper(), &t).total();
        assert!(noi.value() > 0.0);
        assert!(noi < c, "NoI entry router {noi} should be below {c}");
    }

    #[test]
    fn noi_entry_area_scales_with_lanes() {
        let t = tech();
        let narrow = noi_entry_router_area(2, &t).total();
        let wide = noi_entry_router_area(8, &t).total();
        assert!(wide.value() > 2.0 * narrow.value());
        // All three component rows are populated.
        let a = noi_entry_router_area(4, &t);
        for kind in [
            ComponentKind::Buffering,
            ComponentKind::Arbitration,
            ComponentKind::Link,
        ] {
            assert!(a.component(kind).value() > 0.0, "{kind} row missing");
        }
    }

    #[test]
    fn missing_component_reports_zero() {
        let a = circuit_router_area(&RouterParams::paper(), &tech());
        assert_eq!(
            a.component(ComponentKind::Buffering),
            SquareMicroMeters::ZERO
        );
    }

    #[test]
    fn doubling_lanes_grows_crossbar_superlinearly() {
        // Mux trees grow with foreign-lane count AND lane count: 8 lanes
        // per port gives a 32x40 crossbar, >4x the 16x20 one.
        let t = tech();
        let base =
            circuit_router_area(&RouterParams::paper(), &t).component(ComponentKind::Crossbar);
        let wide = circuit_router_area(
            &RouterParams {
                lanes_per_port: 8,
                ..RouterParams::paper()
            },
            &t,
        )
        .component(ComponentKind::Crossbar);
        assert!(wide.value() > 3.5 * base.value());
    }
}
