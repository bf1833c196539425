//! Design-time router parameters.
//!
//! The paper (Section 5.1) makes the number and width of lanes adjustable at
//! SoC design time: "The width and number of lanes are adjustable parameters
//! in the design... For example, if more streams are needed for the north and
//! south port their number of lanes can be increased." This module captures
//! those knobs plus the derived quantities the rest of the crate needs (flat
//! lane counts, crossbar shape, configuration field widths) so that every
//! consumer computes them one way.

use crate::crossbar::MAX_LANES_PER_PORT;
use crate::error::ConfigError;
use crate::lane::{LaneIndex, Port};
use noc_sim::bits::{Bits, Nibble};

/// Design-time parameters of a circuit-switched router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterParams {
    /// Unidirectional lanes per port per direction (paper: 4).
    pub lanes_per_port: usize,
    /// Wires per lane (paper: 4 — a nibble per cycle).
    pub lane_width: u32,
    /// Enable the clock gating of inactive output lanes that the paper's
    /// Section 8 proposes as future work. `false` reproduces the published
    /// numbers (high dynamic-power offset); `true` is the paper's projected
    /// improvement, exercised by the clock-gating ablation bench.
    pub clock_gating: bool,
    /// Window-counter size WC used by tile-side sources (paper Section 5.2).
    pub window_size: u16,
    /// Packets consumed at the destination per acknowledge pulse (`X ≤ WC`).
    pub ack_batch: u16,
}

impl RouterParams {
    /// The configuration evaluated in the paper: four lanes of four bits,
    /// no clock gating, window flow control with WC=8, X=4.
    ///
    /// (The paper does not publish WC/X values; 8/4 keeps a 100%-load stream
    /// running without stalls at the round-trip latencies of a single router,
    /// see `flow::tests::window_sized_for_pipeline`.)
    pub fn paper() -> Self {
        Self {
            lanes_per_port: 4,
            lane_width: 4,
            clock_gating: false,
            window_size: 8,
            ack_batch: 4,
        }
    }

    /// Number of ports (fixed at five: tile + four neighbours).
    pub fn ports(&self) -> usize {
        Port::COUNT
    }

    /// Total lanes per direction over all ports (paper: 20).
    pub fn total_lanes(&self) -> usize {
        self.ports() * self.lanes_per_port
    }

    /// Crossbar inputs selectable by one output lane: the lanes of the other
    /// four ports (paper: 16 — "20x20 is not necessary, because data does
    /// not have to flow back").
    pub fn foreign_lanes(&self) -> usize {
        (self.ports() - 1) * self.lanes_per_port
    }

    /// Bits of one configuration-memory entry: input select + activation
    /// (paper: 4 + 1 = 5).
    pub fn entry_bits(&self) -> u32 {
        bits_for(self.foreign_lanes()) + 1
    }

    /// Total configuration memory bits (paper: 5 × 20 = 100).
    pub fn config_memory_bits(&self) -> u32 {
        self.entry_bits() * self.total_lanes() as u32
    }

    /// Bits of one configuration word: output-lane address + entry
    /// (paper: 5 + 5 = 10 — "Configuration of 1 lane requires 10 bits").
    pub fn config_word_bits(&self) -> u32 {
        bits_for(self.total_lanes()) + self.entry_bits()
    }

    /// Nibbles (lane-width units) needed to carry one phit: the header plus
    /// the 16-bit data word (paper: 5 × 4 bits = 20 bits).
    pub fn flits_per_phit(&self) -> usize {
        let phit_bits = crate::phit::Header::BITS + u16::BITS;
        phit_bits.div_ceil(self.lane_width) as usize
    }

    /// Can the simulated circuit router carry this shape? A port's lanes
    /// travel as one nibble-packed word (at most [`MAX_LANES_PER_PORT`])
    /// and the data converter shifts 4-bit flits, so
    /// [`CircuitRouter`](crate::router::CircuitRouter) needs `1..=16`
    /// lanes per port of exactly 4 bits. Other shapes stay valid inputs to
    /// the area and timing models.
    pub fn fits_datapath(&self) -> bool {
        (1..=MAX_LANES_PER_PORT).contains(&self.lanes_per_port) && self.lane_width == Nibble::WIDTH
    }

    /// Payload bits delivered per lane per `flits_per_phit()` cycles.
    pub fn payload_bits_per_phit(&self) -> u32 {
        u16::BITS
    }

    /// Map `(output port, 4-bit select)` to the flat input [`LaneIndex`].
    ///
    /// The select field counts through the lanes of the foreign ports in
    /// discriminant order, skipping the output's own port. Select 0 on an
    /// East output is `Tile` lane 0; select 15 is `West` lane 3.
    pub fn select_to_input(&self, out_port: Port, select: u8) -> Result<LaneIndex, ConfigError> {
        let sel = select as usize;
        if sel >= self.foreign_lanes() {
            return Err(ConfigError::SelectOutOfRange {
                select,
                max: self.foreign_lanes() as u8 - 1,
            });
        }
        let foreign_port_pos = sel / self.lanes_per_port;
        let lane = sel % self.lanes_per_port;
        let in_port = Port::ALL
            .iter()
            .copied()
            .filter(|&p| p != out_port)
            .nth(foreign_port_pos)
            .expect("foreign port position in range");
        Ok(LaneIndex::of(in_port, lane, self.lanes_per_port))
    }

    /// Inverse of [`Self::select_to_input`]: the select value that makes an
    /// output lane of `out_port` listen to `(in_port, in_lane)`.
    ///
    /// Fails with [`ConfigError::UTurn`] when `in_port == out_port` — the
    /// hardware has no such mux input.
    pub fn foreign_select(
        &self,
        out_port: Port,
        in_port: Port,
        in_lane: usize,
    ) -> Result<u8, ConfigError> {
        if in_port == out_port {
            return Err(ConfigError::UTurn { port: out_port });
        }
        if in_lane >= self.lanes_per_port {
            return Err(ConfigError::LaneOutOfRange {
                lane: in_lane,
                max: self.lanes_per_port - 1,
            });
        }
        let pos = Port::ALL
            .iter()
            .copied()
            .filter(|&p| p != out_port)
            .position(|p| p == in_port)
            .expect("in_port != out_port implies a position");
        Ok((pos * self.lanes_per_port + in_lane) as u8)
    }

    /// Validate an `(port, lane)` pair against this configuration.
    pub fn check_lane(&self, lane: usize) -> Result<(), ConfigError> {
        if lane >= self.lanes_per_port {
            Err(ConfigError::LaneOutOfRange {
                lane,
                max: self.lanes_per_port - 1,
            })
        } else {
            Ok(())
        }
    }

    /// Raw per-lane bandwidth in bits per cycle (before phit overhead).
    pub fn lane_bits_per_cycle(&self) -> u32 {
        self.lane_width
    }

    /// Payload bandwidth of one lane in bits/cycle, accounting for the
    /// header nibble: 16 payload bits every `flits_per_phit()` cycles
    /// (paper: 80 Mbit/s per stream at 25 MHz = 3.2 bits/cycle).
    pub fn lane_payload_bits_per_cycle(&self) -> f64 {
        self.payload_bits_per_phit() as f64 / self.flits_per_phit() as f64
    }
}

impl Default for RouterParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Bits needed to address `n` distinct values (`ceil(log2(n))`).
pub(crate) fn bits_for(n: usize) -> u32 {
    debug_assert!(n > 0);
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_derived_quantities() {
        let p = RouterParams::paper();
        assert_eq!(p.ports(), 5);
        assert_eq!(p.total_lanes(), 20, "20 input and 20 output lanes");
        assert_eq!(p.foreign_lanes(), 16, "16x20 crossbar");
        assert_eq!(p.entry_bits(), 5, "input select (4) + activation (1)");
        assert_eq!(p.config_memory_bits(), 100, "5x20 = 100 bits");
        assert_eq!(p.config_word_bits(), 10, "1 lane requires 10 bits");
        assert_eq!(p.flits_per_phit(), 5, "packet of 5x4 bits");
    }

    #[test]
    fn paper_lane_payload_rate() {
        let p = RouterParams::paper();
        // 16 bits / 5 cycles = 3.2 bits/cycle; at 25 MHz that is 80 Mbit/s
        // (paper Section 7.2: "a data-bandwidth of 80 Mbit/s per stream").
        assert!((p.lane_payload_bits_per_cycle() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
        assert_eq!(bits_for(20), 5);
    }

    #[test]
    fn select_mapping_east_output() {
        let p = RouterParams::paper();
        // Foreign ports of East, in order: Tile, North, South, West.
        assert_eq!(
            p.select_to_input(Port::East, 0).unwrap(),
            LaneIndex::of(Port::Tile, 0, 4)
        );
        assert_eq!(
            p.select_to_input(Port::East, 7).unwrap(),
            LaneIndex::of(Port::North, 3, 4)
        );
        assert_eq!(
            p.select_to_input(Port::East, 8).unwrap(),
            LaneIndex::of(Port::South, 0, 4)
        );
        assert_eq!(
            p.select_to_input(Port::East, 15).unwrap(),
            LaneIndex::of(Port::West, 3, 4)
        );
    }

    #[test]
    fn select_mapping_roundtrip_all() {
        let p = RouterParams::paper();
        for out in Port::ALL {
            for sel in 0..p.foreign_lanes() as u8 {
                let idx = p.select_to_input(out, sel).unwrap();
                let in_port = idx.port(p.lanes_per_port);
                let in_lane = idx.lane(p.lanes_per_port);
                assert_ne!(in_port, out, "U-turns must be unreachable");
                assert_eq!(p.foreign_select(out, in_port, in_lane).unwrap(), sel);
            }
        }
    }

    #[test]
    fn select_out_of_range_rejected() {
        let p = RouterParams::paper();
        let err = p.select_to_input(Port::Tile, 16).unwrap_err();
        assert!(matches!(err, ConfigError::SelectOutOfRange { .. }));
    }

    #[test]
    fn uturn_rejected() {
        let p = RouterParams::paper();
        let err = p.foreign_select(Port::North, Port::North, 0).unwrap_err();
        assert!(matches!(err, ConfigError::UTurn { port: Port::North }));
    }

    #[test]
    fn lane_out_of_range_rejected() {
        let p = RouterParams::paper();
        assert!(p.check_lane(3).is_ok());
        assert!(matches!(
            p.check_lane(4),
            Err(ConfigError::LaneOutOfRange { lane: 4, max: 3 })
        ));
        assert!(matches!(
            p.foreign_select(Port::North, Port::Tile, 9),
            Err(ConfigError::LaneOutOfRange { .. })
        ));
    }

    #[test]
    fn wider_lane_configuration() {
        // Eight lanes of two bits: 40 lanes total, 32 foreign.
        let p = RouterParams {
            lanes_per_port: 8,
            lane_width: 2,
            ..RouterParams::paper()
        };
        assert_eq!(p.total_lanes(), 40);
        assert_eq!(p.foreign_lanes(), 32);
        assert_eq!(p.entry_bits(), 6);
        assert_eq!(p.config_word_bits(), 12);
        // 4-bit header + 16-bit word over 2-bit lanes: 10 flits.
        assert_eq!(p.flits_per_phit(), 10);
    }
}
