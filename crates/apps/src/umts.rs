//! The UMTS W-CDMA RAKE receiver (paper Fig. 3, Table 2).
//!
//! Table 2 derives from the W-CDMA air interface: a 3.84 Mchip/s chip rate,
//! chips and coefficients "represented by 8 bits" (I and Q each), and a
//! spreading factor SF dividing the chip rate down to the symbol rate:
//!
//! | stream | rate | bandwidth |
//! |---|---|---|
//! | Chips (per finger) | 3.84 Mcps × 16 bit | **61.44 Mbit/s** |
//! | Scrambling code | 3.84 Mcps × 2 bit (±1 I/Q) | **7.68 Mbit/s** |
//! | MRC coefficient (per finger) | 3.84/SF × 16 bit | **61.44/SF** |
//! | Received bits | 3.84/SF × bits/symbol | **7.68/SF (QPSK), 15.36/SF (QAM-16)** |
//!
//! The paper's example — 4 fingers at SF 4 — totals ≈ 320 Mbit/s, which the
//! `four_fingers_sf4_total` test reproduces.

use crate::taskgraph::{TaskGraph, TrafficShape};
use noc_sim::units::Bandwidth;

/// Symbol modulation of the downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UmtsModulation {
    /// 2 bits per symbol.
    Qpsk,
    /// 4 bits per symbol (HSDPA-class).
    Qam16,
}

impl UmtsModulation {
    /// Bits per symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            UmtsModulation::Qpsk => 2,
            UmtsModulation::Qam16 => 4,
        }
    }
}

/// W-CDMA receiver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UmtsParams {
    /// Chip rate [Mchip/s]; UMTS uses 3.84.
    pub chip_rate_mcps: f64,
    /// Bits per chip component ("every chip or coefficient is represented
    /// by 8 bits").
    pub chip_bits: u32,
    /// RAKE fingers (multipath arms).
    pub fingers: u32,
    /// Spreading factor (4..512 in W-CDMA).
    pub spreading_factor: u32,
    /// Downlink modulation.
    pub modulation: UmtsModulation,
}

impl UmtsParams {
    /// The paper's example configuration: 4 fingers, SF 4, QPSK.
    pub fn paper_example() -> UmtsParams {
        UmtsParams {
            chip_rate_mcps: 3.84,
            chip_bits: 8,
            fingers: 4,
            spreading_factor: 4,
            modulation: UmtsModulation::Qpsk,
        }
    }

    /// Chip stream into one finger (edge 2): complex chips at chip rate.
    pub fn bw_chips_per_finger(&self) -> Bandwidth {
        Bandwidth(self.chip_rate_mcps * f64::from(2 * self.chip_bits))
    }

    /// Scrambling code distribution (edge 3): one ±1 bit per component.
    pub fn bw_scrambling_code(&self) -> Bandwidth {
        Bandwidth(self.chip_rate_mcps * 2.0)
    }

    /// MRC coefficients per finger (edge 4): one complex coefficient per
    /// symbol.
    pub fn bw_mrc_per_finger(&self) -> Bandwidth {
        Bandwidth(
            self.chip_rate_mcps * f64::from(2 * self.chip_bits) / f64::from(self.spreading_factor),
        )
    }

    /// Received hard bits (edge 5).
    pub fn bw_received_bits(&self) -> Bandwidth {
        Bandwidth(
            self.chip_rate_mcps * f64::from(self.modulation.bits_per_symbol())
                / f64::from(self.spreading_factor),
        )
    }

    /// Total GT bandwidth of the receiver: per-finger chips and MRC
    /// coefficients, the shared scrambling code, and the output bits.
    pub fn total_bandwidth(&self) -> Bandwidth {
        let f = f64::from(self.fingers);
        Bandwidth(
            f * self.bw_chips_per_finger().value()
                + self.bw_scrambling_code().value()
                + f * self.bw_mrc_per_finger().value()
                + self.bw_received_bits().value(),
        )
    }
}

/// Build the Fig. 3 process graph: pulse shaping feeding `fingers` RAKE
/// fingers (each a descrambling+despreading pair), maximal-ratio combining,
/// de-mapping, and the control block (cell/path searcher + channel
/// estimation) sourcing the MRC coefficients and scrambling code.
pub fn task_graph(params: &UmtsParams) -> TaskGraph {
    let mut g = TaskGraph::new("UMTS W-CDMA RAKE receiver");
    let pulse = g.add_process_with_affinity("Pulse shaping", "ASIC");
    let control = g.add_process_with_affinity("Control (cell/path search)", "GPP");
    let mrc = g.add_process_with_affinity("Maximal Ratio Combining", "DSP");
    let demap = g.add_process_with_affinity("De-mapping", "DSP");

    for i in 0..params.fingers {
        let finger = g.add_process_with_affinity(format!("RAKE finger {i}"), "DSRH");
        g.add_edge(
            pulse,
            finger,
            params.bw_chips_per_finger(),
            TrafficShape::Streaming,
            format!("Chips finger {i} (2)"),
        );
        g.add_edge(
            control,
            finger,
            params.bw_scrambling_code(),
            TrafficShape::Streaming,
            "Scrambling code (3)",
        );
        g.add_edge(
            finger,
            mrc,
            params.bw_mrc_per_finger(),
            TrafficShape::Streaming,
            format!("Despread symbols finger {i}"),
        );
        g.add_edge(
            control,
            mrc,
            params.bw_mrc_per_finger(),
            TrafficShape::Streaming,
            format!("MRC coefficient finger {i} (4)"),
        );
    }
    g.add_edge(
        mrc,
        demap,
        params.bw_received_bits(),
        TrafficShape::Streaming,
        "Received bits (5)",
    );
    g
}

/// Table 2 as `(label, Mbit/s)` rows computed from `params`.
pub fn table2(params: &UmtsParams) -> Vec<(String, Bandwidth)> {
    vec![
        ("Chips (per finger)".into(), params.bw_chips_per_finger()),
        ("Scrambling code".into(), params.bw_scrambling_code()),
        (
            format!(
                "MRC coefficient (per finger, SF={})",
                params.spreading_factor
            ),
            params.bw_mrc_per_finger(),
        ),
        (
            format!("Received bits ({:?})", params.modulation),
            params.bw_received_bits(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bandwidths_match_paper() {
        let p = UmtsParams::paper_example();
        assert!((p.bw_chips_per_finger().value() - 61.44).abs() < 1e-9);
        assert!((p.bw_scrambling_code().value() - 7.68).abs() < 1e-9);
        // SF=4: 61.44/4 = 15.36.
        assert!((p.bw_mrc_per_finger().value() - 15.36).abs() < 1e-9);
        // QPSK: 7.68/SF = 1.92.
        assert!((p.bw_received_bits().value() - 1.92).abs() < 1e-9);
    }

    #[test]
    fn qam16_doubles_received_bits() {
        let p = UmtsParams {
            modulation: UmtsModulation::Qam16,
            ..UmtsParams::paper_example()
        };
        // 15.36/SF with SF=4.
        assert!((p.bw_received_bits().value() - 3.84).abs() < 1e-9);
    }

    #[test]
    fn four_fingers_sf4_total() {
        // "the total communication bandwidth for processing 4 RAKE fingers
        // with a spreading factor (SF) of 4 is ~320 Mbit/s".
        let p = UmtsParams::paper_example();
        let total = p.total_bandwidth().value();
        assert!(
            (300.0..330.0).contains(&total),
            "expected ~320 Mbit/s, got {total:.2}"
        );
    }

    #[test]
    fn graph_structure_scales_with_fingers() {
        let p = UmtsParams::paper_example();
        let g = task_graph(&p);
        // 4 fixed blocks + 4 fingers.
        assert_eq!(g.process_count(), 8);
        // 4 edges per finger + 1 output edge.
        assert_eq!(g.edge_count(), 17);

        let one = task_graph(&UmtsParams { fingers: 1, ..p });
        assert_eq!(one.process_count(), 5);
        assert_eq!(one.edge_count(), 5);
    }

    #[test]
    fn all_edges_are_streaming() {
        // "the data processing and communication between the processors is
        // streaming oriented" (Section 3.2).
        let g = task_graph(&UmtsParams::paper_example());
        for (_, e) in g.edges() {
            assert_eq!(e.shape, TrafficShape::Streaming);
        }
    }

    #[test]
    fn high_spreading_factor_shrinks_symbol_edges() {
        let p = UmtsParams {
            spreading_factor: 512,
            ..UmtsParams::paper_example()
        };
        assert!((p.bw_mrc_per_finger().value() - 0.12).abs() < 1e-9);
        assert!(
            p.bw_chips_per_finger().value() > 61.0,
            "chip edges unaffected"
        );
    }

    #[test]
    fn graph_is_acyclic() {
        assert!(task_graph(&UmtsParams::paper_example())
            .topological_order()
            .is_some());
    }
}
