//! Table 4 assembly: synthesis results of the three routers.
//!
//! The circuit- and packet-switched rows come from this crate's area and
//! timing models; the Æthereal row reproduces the published reference
//! values (Dielissen et al., "Concepts and implementation of the Philips
//! network-on-chip", 2003) that the paper quotes for context — Æthereal was
//! synthesised and layouted by its own authors, so it is a literature
//! constant here, not a model output.

use crate::area::{circuit_router_area, packet_router_area};
use crate::tech::Technology;
use crate::timing::{circuit_router_fmax, link_bandwidth, packet_router_fmax};
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_sim::activity::ComponentKind;
use noc_sim::units::{Bandwidth, MegaHertz, SquareMicroMeters};
use std::fmt;

/// One column of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRow {
    /// Router name as printed.
    pub name: String,
    /// Port count.
    pub ports: usize,
    /// Link data width per direction \[bits\].
    pub width_bits: u32,
    /// Component areas, `None` for "n.a." entries.
    pub components: Vec<(ComponentKind, Option<SquareMicroMeters>)>,
    /// Total cell area.
    pub total: SquareMicroMeters,
    /// Maximum clock frequency.
    pub fmax: MegaHertz,
    /// Peak bandwidth per link direction.
    pub bandwidth: Bandwidth,
}

impl SynthesisRow {
    /// Area of one component, when reported.
    pub fn component(&self, kind: ComponentKind) -> Option<SquareMicroMeters> {
        self.components
            .iter()
            .find(|&&(k, _)| k == kind)
            .and_then(|&(_, a)| a)
    }
}

impl fmt::Display for SynthesisRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} ports, {} bit",
            self.name, self.ports, self.width_bits
        )?;
        for (kind, area) in &self.components {
            match area {
                Some(a) => writeln!(f, "  {:<16} {:.4} mm2", kind.name(), a.as_mm2())?,
                None => writeln!(f, "  {:<16} n.a.", kind.name())?,
            }
        }
        writeln!(f, "  {:<16} {:.4} mm2", "Total", self.total.as_mm2())?;
        writeln!(f, "  {:<16} {:.0} MHz", "Max freq.", self.fmax.value())?;
        write!(
            f,
            "  {:<16} {:.1} Gb/s",
            "Bandwidth/link",
            self.bandwidth.as_gbit_s()
        )
    }
}

/// The full Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// The paper's circuit-switched router (modelled).
    pub circuit: SynthesisRow,
    /// The Kavaldjiev packet-switched baseline (modelled).
    pub packet: SynthesisRow,
    /// The Æthereal router (published reference values).
    pub aethereal: SynthesisRow,
}

impl Table4 {
    /// The area advantage of circuit over packet switching.
    pub fn area_ratio(&self) -> f64 {
        self.packet.total / self.circuit.total
    }
}

/// Build Table 4 from the models for the given configurations.
pub fn table4(cs: &RouterParams, ps: &PacketParams, tech: &Technology) -> Table4 {
    let c_area = circuit_router_area(cs, tech);
    let c_fmax = circuit_router_fmax(cs, tech);
    let circuit = SynthesisRow {
        name: "Circuit switched".into(),
        ports: 5,
        width_bits: (cs.lanes_per_port as u32) * cs.lane_width,
        components: vec![
            (
                ComponentKind::Crossbar,
                Some(c_area.component(ComponentKind::Crossbar)),
            ),
            (ComponentKind::Buffering, None),
            (ComponentKind::Arbitration, None),
            (
                ComponentKind::ConfigMemory,
                Some(c_area.component(ComponentKind::ConfigMemory)),
            ),
            (
                ComponentKind::DataConverter,
                Some(c_area.component(ComponentKind::DataConverter)),
            ),
            (ComponentKind::Misc, None),
        ],
        total: c_area.total(),
        fmax: c_fmax,
        bandwidth: link_bandwidth((cs.lanes_per_port as u32) * cs.lane_width, c_fmax),
    };

    let p_area = packet_router_area(ps, tech);
    let p_fmax = packet_router_fmax(ps, tech);
    let packet = SynthesisRow {
        name: "Packet switched".into(),
        ports: 5,
        width_bits: 16,
        components: vec![
            (
                ComponentKind::Crossbar,
                Some(p_area.component(ComponentKind::Crossbar)),
            ),
            (
                ComponentKind::Buffering,
                Some(p_area.component(ComponentKind::Buffering)),
            ),
            (
                ComponentKind::Arbitration,
                Some(p_area.component(ComponentKind::Arbitration)),
            ),
            (ComponentKind::ConfigMemory, None),
            (ComponentKind::DataConverter, None),
            (
                ComponentKind::Misc,
                Some(p_area.component(ComponentKind::Misc)),
            ),
        ],
        total: p_area.total(),
        fmax: p_fmax,
        bandwidth: link_bandwidth(16, p_fmax),
    };

    // Published reference values, paper Table 4 last column.
    let aethereal = SynthesisRow {
        name: "AEthereal [5]".into(),
        ports: 6,
        width_bits: 32,
        components: vec![
            (ComponentKind::Crossbar, None),
            (ComponentKind::Buffering, None),
            (ComponentKind::Arbitration, None),
            (ComponentKind::ConfigMemory, None),
            (ComponentKind::DataConverter, None),
            (ComponentKind::Misc, None),
        ],
        total: SquareMicroMeters::from_mm2(0.1750),
        fmax: MegaHertz(500.0),
        bandwidth: Bandwidth::from_gbit_s(16.0),
    };

    Table4 {
        circuit,
        packet,
        aethereal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::units::relative_error;

    fn build() -> Table4 {
        table4(
            &RouterParams::paper(),
            &PacketParams::paper(),
            &Technology::tsmc_0_13um(),
        )
    }

    #[test]
    fn totals_match_paper() {
        let t = build();
        assert!(relative_error(t.circuit.total.as_mm2(), 0.0506) < 0.02);
        assert!(relative_error(t.packet.total.as_mm2(), 0.1800) < 0.02);
        assert!(relative_error(t.aethereal.total.as_mm2(), 0.1750) < 1e-9);
    }

    #[test]
    fn frequencies_match_paper() {
        let t = build();
        assert!(relative_error(t.circuit.fmax.value(), 1075.0) < 0.01);
        assert!(relative_error(t.packet.fmax.value(), 507.0) < 0.01);
        assert_eq!(t.aethereal.fmax, MegaHertz(500.0));
    }

    #[test]
    fn bandwidths_match_paper() {
        let t = build();
        assert!(relative_error(t.circuit.bandwidth.as_gbit_s(), 17.2) < 0.01);
        assert!(relative_error(t.packet.bandwidth.as_gbit_s(), 8.1) < 0.01);
        assert!(relative_error(t.aethereal.bandwidth.as_gbit_s(), 16.0) < 1e-9);
    }

    #[test]
    fn area_ratio_about_3_5() {
        let t = build();
        assert!((3.3..3.9).contains(&t.area_ratio()));
    }

    #[test]
    fn na_entries_where_paper_has_na() {
        let t = build();
        assert_eq!(t.circuit.component(ComponentKind::Buffering), None);
        assert_eq!(t.packet.component(ComponentKind::ConfigMemory), None);
        assert!(t.circuit.component(ComponentKind::Crossbar).is_some());
    }

    #[test]
    fn display_renders_rows() {
        let t = build();
        let s = t.circuit.to_string();
        assert!(s.contains("Crossbar"));
        assert!(s.contains("mm2"));
        assert!(s.contains("MHz"));
        assert!(t.packet.to_string().contains("Buffering"));
    }
}
