//! Design-time parameters of the packet-switched baseline.

use crate::routing::Coords;
use std::fmt;

/// Ports of the packet router — same five-port shape as the circuit router.
///
/// Kept as a separate type from `noc_core::Port` so the two crates stay
/// independent; `noc-mesh` maps between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum PacketPort {
    /// The local tile interface.
    Tile = 0,
    /// Link to the northern neighbour.
    North = 1,
    /// Link to the eastern neighbour.
    East = 2,
    /// Link to the southern neighbour.
    South = 3,
    /// Link to the western neighbour.
    West = 4,
}

impl PacketPort {
    /// All ports in index order.
    pub const ALL: [PacketPort; 5] = [
        PacketPort::Tile,
        PacketPort::North,
        PacketPort::East,
        PacketPort::South,
        PacketPort::West,
    ];

    /// Number of ports.
    pub const COUNT: usize = 5;

    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Port with dense index `i`.
    pub fn from_index(i: usize) -> Option<PacketPort> {
        PacketPort::ALL.get(i).copied()
    }

    /// The port the neighbouring router sees this link on.
    pub fn opposite(self) -> Option<PacketPort> {
        match self {
            PacketPort::Tile => None,
            PacketPort::North => Some(PacketPort::South),
            PacketPort::East => Some(PacketPort::West),
            PacketPort::South => Some(PacketPort::North),
            PacketPort::West => Some(PacketPort::East),
        }
    }
}

impl fmt::Display for PacketPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketPort::Tile => "Tile",
            PacketPort::North => "North",
            PacketPort::East => "East",
            PacketPort::South => "South",
            PacketPort::West => "West",
        };
        f.write_str(s)
    }
}

/// Design-time parameters of the packet router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketParams {
    /// Virtual channels per input port (paper comparison: 4, matching the
    /// circuit router's 4 lanes).
    pub vcs: usize,
    /// Flit slots per virtual-channel FIFO.
    pub fifo_depth: usize,
    /// This router's mesh coordinates (XY routing needs them).
    pub coords: Coords,
    /// Clock-gate idle structures (empty FIFOs, idle VC state, parked
    /// output registers, stable arbiter pointers). The paper's baseline is
    /// ungated — "an ungated flop pays clock energy every cycle" is the
    /// mechanism behind its power gap — but a hybrid router that keeps a
    /// packet plane for spillover only (arXiv:2005.08478) gates that plane
    /// while circuits carry the profiled heavy flows. Gating changes
    /// activity accounting only, never functional behaviour.
    pub clock_gating: bool,
}

impl PacketParams {
    /// The configuration the paper compares against: "Four lanes of four
    /// bits and a tile interface of 16 bits have been chosen to make a fair
    /// comparison with the four virtual channel configuration of the
    /// packet-switched alternative" (Section 5.1).
    pub fn paper() -> PacketParams {
        PacketParams {
            vcs: 4,
            fifo_depth: 4,
            coords: Coords::new(0, 0),
            clock_gating: false,
        }
    }

    /// Same parameters at different coordinates.
    pub fn at(self, coords: Coords) -> PacketParams {
        PacketParams { coords, ..self }
    }

    /// Same parameters with clock gating enabled (the hybrid fabric's
    /// spillover plane). Gating is **energy-only**: idle FIFOs, parked VC
    /// state, stable output registers and arbiter pointers stop logging
    /// clock activity, but functional behaviour is bit-identical to the
    /// ungated router.
    ///
    /// ```
    /// use noc_packet::params::PacketParams;
    ///
    /// let baseline = PacketParams::paper();
    /// assert!(!baseline.clock_gating);
    /// let gated = baseline.gated();
    /// assert!(gated.clock_gating);
    /// // Everything else is untouched.
    /// assert_eq!(gated.vcs, baseline.vcs);
    /// assert_eq!(gated.fifo_depth, baseline.fifo_depth);
    /// ```
    pub fn gated(self) -> PacketParams {
        PacketParams {
            clock_gating: true,
            ..self
        }
    }

    /// Number of ports (fixed at five).
    pub fn ports(&self) -> usize {
        PacketPort::COUNT
    }

    /// Total buffer storage bits: ports × VCs × depth × 18-bit entries —
    /// all of them clocked every cycle in the flop-FIFO implementation,
    /// which is the paper's explanation for the power gap.
    pub fn buffer_bits(&self) -> u32 {
        (self.ports() * self.vcs * self.fifo_depth) as u32 * crate::flit::Flit::STORE_BITS
    }

    /// Bits of VC-id sideband on a link.
    pub fn vc_bits(&self) -> u32 {
        (self.vcs.next_power_of_two().trailing_zeros()).max(1)
    }
}

impl Default for PacketParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_indices() {
        for (i, p) in PacketPort::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(PacketPort::from_index(i), Some(*p));
        }
        assert_eq!(PacketPort::from_index(9), None);
    }

    #[test]
    fn opposites() {
        assert_eq!(PacketPort::North.opposite(), Some(PacketPort::South));
        assert_eq!(PacketPort::East.opposite(), Some(PacketPort::West));
        assert_eq!(PacketPort::Tile.opposite(), None);
    }

    #[test]
    fn paper_buffer_bits() {
        // 5 ports x 4 VCs x 4 flits x 18 bits = 1440 bits of buffering,
        // vs the circuit router's 100-bit crossbar registers: the paper's
        // "necessary buffers" cost made concrete.
        assert_eq!(PacketParams::paper().buffer_bits(), 1440);
    }

    #[test]
    fn vc_bits() {
        assert_eq!(PacketParams::paper().vc_bits(), 2);
        let p = PacketParams {
            vcs: 8,
            ..PacketParams::paper()
        };
        assert_eq!(p.vc_bits(), 3);
        let one = PacketParams {
            vcs: 1,
            ..PacketParams::paper()
        };
        assert_eq!(one.vc_bits(), 1);
    }

    #[test]
    fn at_moves_coords() {
        let p = PacketParams::paper().at(Coords::new(3, 2));
        assert_eq!(p.coords, Coords::new(3, 2));
        assert_eq!(p.vcs, 4);
    }

    #[test]
    fn paper_baseline_is_ungated() {
        // The published comparison is against an ungated flop-FIFO router;
        // gating is opt-in (the hybrid fabric's spillover plane).
        assert!(!PacketParams::paper().clock_gating);
        let g = PacketParams::paper().gated();
        assert!(g.clock_gating);
        assert_eq!(g.vcs, PacketParams::paper().vcs);
    }
}
