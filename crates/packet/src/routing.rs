//! Dimension-ordered (XY) routing.
//!
//! The baseline router routes packets first along X (east/west), then along
//! Y (north/south), then into the tile — the standard deadlock-free choice
//! for 2-D meshes and the one Kavaldjiev's router family uses. Coordinates
//! grow eastward in X and southward in Y, matching `noc-mesh`'s layout.

use crate::params::PacketPort;
use std::fmt;

/// Tile coordinates in the mesh: `x` grows east, `y` grows south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coords {
    /// Column (eastward).
    pub x: u8,
    /// Row (southward).
    pub y: u8,
}

impl Coords {
    /// Construct from column and row.
    pub fn new(x: u8, y: u8) -> Coords {
        Coords { x, y }
    }

    /// Encode into a head-flit payload (x in bits 15:8, y in bits 7:0).
    pub fn encode(self) -> u16 {
        (u16::from(self.x) << 8) | u16::from(self.y)
    }

    /// Decode from a head-flit payload.
    pub fn decode(word: u16) -> Coords {
        Coords {
            x: (word >> 8) as u8,
            y: word as u8,
        }
    }

    /// Manhattan distance to `other` — the hop count XY routing takes.
    pub fn manhattan(self, other: Coords) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The output port XY routing selects at a router located at `here` for a
/// packet addressed to `dest`.
pub fn route_xy(here: Coords, dest: Coords) -> PacketPort {
    if dest.x > here.x {
        PacketPort::East
    } else if dest.x < here.x {
        PacketPort::West
    } else if dest.y > here.y {
        PacketPort::South
    } else if dest.y < here.y {
        PacketPort::North
    } else {
        PacketPort::Tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_encode_roundtrip() {
        for x in [0u8, 1, 7, 255] {
            for y in [0u8, 3, 15, 200] {
                let c = Coords::new(x, y);
                assert_eq!(Coords::decode(c.encode()), c);
            }
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let here = Coords::new(2, 2);
        assert_eq!(route_xy(here, Coords::new(4, 0)), PacketPort::East);
        assert_eq!(route_xy(here, Coords::new(0, 4)), PacketPort::West);
        // Only once X matches does Y matter.
        assert_eq!(route_xy(here, Coords::new(2, 5)), PacketPort::South);
        assert_eq!(route_xy(here, Coords::new(2, 0)), PacketPort::North);
        assert_eq!(route_xy(here, here), PacketPort::Tile);
    }

    #[test]
    fn xy_path_is_manhattan_length() {
        // Walk the route hop by hop; it must reach dest in manhattan steps.
        let start = Coords::new(0, 3);
        let dest = Coords::new(3, 0);
        let mut here = start;
        let mut hops = 0;
        loop {
            match route_xy(here, dest) {
                PacketPort::Tile => break,
                PacketPort::East => here.x += 1,
                PacketPort::West => here.x -= 1,
                PacketPort::South => here.y += 1,
                PacketPort::North => here.y -= 1,
            }
            hops += 1;
            assert!(hops <= 64, "routing must terminate");
        }
        assert_eq!(hops, start.manhattan(dest));
        assert_eq!(here, dest);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coords::new(0, 0).manhattan(Coords::new(3, 4)), 7);
        assert_eq!(Coords::new(5, 5).manhattan(Coords::new(5, 5)), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Coords::new(3, 1).to_string(), "(3,1)");
    }
}
