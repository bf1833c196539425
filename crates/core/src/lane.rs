//! Ports and lane addressing.
//!
//! A router has five bidirectional ports: the tile interface plus the four
//! compass directions of the 2-D mesh (paper Section 5.1). Each port carries
//! a configurable number of unidirectional lanes per direction (four in the
//! paper's configuration). Lanes are addressed two ways:
//!
//! * `(Port, lane-within-port)` — the natural form for wiring and for the
//!   configuration protocol's output-lane address;
//! * a flat [`LaneIndex`] in `0 .. ports×lanes` — the form the crossbar and
//!   the activity arrays use internally.

use std::fmt;

/// One of the router's five bidirectional ports.
///
/// The discriminant order (`Tile`, `North`, `East`, `South`, `West`) fixes
/// the flat lane numbering and the configuration encoding; it is part of the
/// configuration-protocol ABI and must not be rearranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Port {
    /// The local processing tile's interface.
    Tile = 0,
    /// Link to the northern neighbour router.
    North = 1,
    /// Link to the eastern neighbour router.
    East = 2,
    /// Link to the southern neighbour router.
    South = 3,
    /// Link to the western neighbour router.
    West = 4,
}

impl Port {
    /// All ports in discriminant order.
    pub const ALL: [Port; 5] = [Port::Tile, Port::North, Port::East, Port::South, Port::West];

    /// The four router-to-router ports (everything but `Tile`).
    pub const NEIGHBOURS: [Port; 4] = [Port::North, Port::East, Port::South, Port::West];

    /// Number of ports on the paper's router.
    pub const COUNT: usize = 5;

    /// Dense index of this port.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Port with dense index `i`, if in range.
    pub fn from_index(i: usize) -> Option<Port> {
        Port::ALL.get(i).copied()
    }

    /// The port a neighbouring router sees this link arriving on
    /// (north ↔ south, east ↔ west). `Tile` has no opposite.
    pub fn opposite(self) -> Option<Port> {
        match self {
            Port::Tile => None,
            Port::North => Some(Port::South),
            Port::East => Some(Port::West),
            Port::South => Some(Port::North),
            Port::West => Some(Port::East),
        }
    }

    /// `true` for the four mesh-facing ports.
    pub fn is_neighbour(self) -> bool {
        self != Port::Tile
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::Tile => "Tile",
            Port::North => "North",
            Port::East => "East",
            Port::South => "South",
            Port::West => "West",
        };
        f.write_str(s)
    }
}

/// Flat index of a lane: `port.index() * lanes_per_port + lane`.
///
/// Used for crossbar rows/columns and configuration words. The flat order is
/// all of `Tile`'s lanes first, then `North`'s, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LaneIndex(pub u8);

impl LaneIndex {
    /// Build from port and lane-within-port given the per-port lane count.
    #[inline]
    pub fn of(port: Port, lane: usize, lanes_per_port: usize) -> LaneIndex {
        debug_assert!(lane < lanes_per_port);
        LaneIndex((port.index() * lanes_per_port + lane) as u8)
    }

    /// The flat index as a usize (for array indexing).
    #[inline]
    pub fn get(self) -> usize {
        self.0 as usize
    }

    /// The port this lane belongs to, given the per-port lane count.
    #[inline]
    pub fn port(self, lanes_per_port: usize) -> Port {
        Port::from_index(self.get() / lanes_per_port).expect("lane index out of port range")
    }

    /// The lane number within its port.
    #[inline]
    pub fn lane(self, lanes_per_port: usize) -> usize {
        self.get() % lanes_per_port
    }
}

impl fmt::Display for LaneIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_indices_dense() {
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Port::from_index(i), Some(*p));
        }
        assert_eq!(Port::from_index(5), None);
    }

    #[test]
    fn opposites_are_involutions() {
        for p in Port::NEIGHBOURS {
            let o = p.opposite().unwrap();
            assert_eq!(o.opposite(), Some(p));
            assert_ne!(o, p);
        }
        assert_eq!(Port::Tile.opposite(), None);
    }

    #[test]
    fn neighbour_classification() {
        assert!(!Port::Tile.is_neighbour());
        for p in Port::NEIGHBOURS {
            assert!(p.is_neighbour());
        }
    }

    #[test]
    fn lane_index_roundtrip() {
        let lpp = 4;
        for port in Port::ALL {
            for lane in 0..lpp {
                let idx = LaneIndex::of(port, lane, lpp);
                assert_eq!(idx.port(lpp), port);
                assert_eq!(idx.lane(lpp), lane);
            }
        }
    }

    #[test]
    fn lane_index_flat_order() {
        // Paper numbering: 20 lanes, Tile first.
        assert_eq!(LaneIndex::of(Port::Tile, 0, 4).get(), 0);
        assert_eq!(LaneIndex::of(Port::Tile, 3, 4).get(), 3);
        assert_eq!(LaneIndex::of(Port::North, 0, 4).get(), 4);
        assert_eq!(LaneIndex::of(Port::West, 3, 4).get(), 19);
    }

    #[test]
    fn lane_index_other_lane_counts() {
        // Lane count is a design-time parameter (Section 5.1); check 2 and 8.
        assert_eq!(LaneIndex::of(Port::West, 1, 2).get(), 9);
        assert_eq!(LaneIndex::of(Port::North, 7, 8).get(), 15);
    }

    #[test]
    fn display_names() {
        assert_eq!(Port::Tile.to_string(), "Tile");
        assert_eq!(Port::West.to_string(), "West");
        assert_eq!(LaneIndex(7).to_string(), "lane#7");
    }
}
