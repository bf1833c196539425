//! The regular 2-D mesh topology (paper Section 1.1: "we assume a regular
//! two dimensional mesh topology of the routers. Every router is connected
//! with its four neighboring routers via bidirectional point-to-point
//! links and with a single processor tile via the tile interface").
//!
//! Coordinates: `x` grows eastward, `y` grows southward, node `(0,0)` in
//! the north-west corner — matching `noc_packet::routing::Coords`.

use noc_core::lane::Port;
use std::fmt;

/// Dense index of a mesh node (router + tile pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A `width × height` mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Columns.
    pub width: usize,
    /// Rows.
    pub height: usize,
}

impl Mesh {
    /// A mesh of the given dimensions.
    ///
    /// # Panics
    /// Panics on empty dimensions.
    pub fn new(width: usize, height: usize) -> Mesh {
        assert!(width > 0 && height > 0, "mesh must be non-empty");
        Mesh { width, height }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Node at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    pub fn node(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        NodeId(y * self.width + x)
    }

    /// Coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        debug_assert!(node.0 < self.nodes());
        (node.0 % self.width, node.0 / self.width)
    }

    /// The neighbour of `node` through `port`, if the mesh has one there.
    /// `Port::Tile` has no neighbour by definition.
    pub fn neighbour(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match port {
            Port::Tile => None,
            Port::North => (y > 0).then(|| self.node(x, y - 1)),
            Port::South => (y + 1 < self.height).then(|| self.node(x, y + 1)),
            Port::East => (x + 1 < self.width).then(|| self.node(x + 1, y)),
            Port::West => (x > 0).then(|| self.node(x - 1, y)),
        }
    }

    /// All nodes in index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }

    /// Dense slot of the directed link leaving `node` through `port`:
    /// `node * 4 + port − 1`, so a node's four neighbour ports sit side by
    /// side in `0 .. link_slots()`. `None` for `Port::Tile` and for nodes
    /// outside the mesh; a port facing the mesh edge keeps its slot but
    /// has no link behind it. The CCN's lane map and the BE network's
    /// link reservations both index by it.
    pub(crate) fn link_slot(&self, node: NodeId, port: Port) -> Option<usize> {
        (node.0 < self.nodes() && port != Port::Tile).then(|| node.0 * 4 + port.index() - 1)
    }

    /// Number of [`Mesh::link_slot`] slots: four per node.
    pub(crate) fn link_slots(&self) -> usize {
        self.nodes() * 4
    }

    /// All directed links as `(from, port, to)` triples.
    pub fn links(&self) -> Vec<(NodeId, Port, NodeId)> {
        let mut out = Vec::new();
        for node in self.iter() {
            for port in Port::NEIGHBOURS {
                if let Some(to) = self.neighbour(node, port) {
                    out.push((node, port, to));
                }
            }
        }
        out
    }

    /// Manhattan distance between two nodes — the minimum hop count.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The port leading one XY-routing hop from `from` toward `to`
    /// (X first, then Y); `None` when already there.
    pub fn xy_step(&self, from: NodeId, to: NodeId) -> Option<Port> {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        if tx > fx {
            Some(Port::East)
        } else if tx < fx {
            Some(Port::West)
        } else if ty > fy {
            Some(Port::South)
        } else if ty < fy {
            Some(Port::North)
        } else {
            None
        }
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_roundtrip() {
        let m = Mesh::new(4, 3);
        for y in 0..3 {
            for x in 0..4 {
                let n = m.node(x, y);
                assert_eq!(m.coords(n), (x, y));
            }
        }
        assert_eq!(m.nodes(), 12);
    }

    #[test]
    fn neighbours_at_corners() {
        let m = Mesh::new(3, 3);
        let nw = m.node(0, 0);
        assert_eq!(m.neighbour(nw, Port::North), None);
        assert_eq!(m.neighbour(nw, Port::West), None);
        assert_eq!(m.neighbour(nw, Port::East), Some(m.node(1, 0)));
        assert_eq!(m.neighbour(nw, Port::South), Some(m.node(0, 1)));
        assert_eq!(m.neighbour(nw, Port::Tile), None);
    }

    #[test]
    fn neighbour_relation_is_symmetric() {
        let m = Mesh::new(4, 4);
        for n in m.iter() {
            for p in Port::NEIGHBOURS {
                if let Some(other) = m.neighbour(n, p) {
                    assert_eq!(
                        m.neighbour(other, p.opposite().unwrap()),
                        Some(n),
                        "link symmetry broken at {n:?} {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_count() {
        // A w x h mesh has 2*(w*(h-1) + h*(w-1)) directed links.
        let m = Mesh::new(4, 4);
        assert_eq!(m.links().len(), 2 * (4 * 3 + 4 * 3));
    }

    #[test]
    fn link_slots_are_dense_and_distinct() {
        let m = Mesh::new(3, 2);
        let mut seen = vec![false; m.link_slots()];
        for n in m.iter() {
            for p in Port::NEIGHBOURS {
                let slot = m.link_slot(n, p).expect("neighbour ports have slots");
                assert!(!seen[slot], "slot {slot} handed out twice");
                seen[slot] = true;
            }
            assert_eq!(m.link_slot(n, Port::Tile), None);
        }
        assert!(seen.iter().all(|&s| s), "every slot is some (node, port)");
        assert_eq!(m.link_slot(NodeId(m.nodes()), Port::East), None);
    }

    #[test]
    fn distance_and_xy_walk() {
        let m = Mesh::new(5, 5);
        let a = m.node(0, 4);
        let b = m.node(3, 1);
        assert_eq!(m.distance(a, b), 6);
        // Walking xy_step reaches the target in exactly distance hops.
        let mut cur = a;
        let mut hops = 0;
        while let Some(p) = m.xy_step(cur, b) {
            cur = m.neighbour(cur, p).expect("step stays in mesh");
            hops += 1;
            assert!(hops <= 12);
        }
        assert_eq!(cur, b);
        assert_eq!(hops, 6);
    }

    #[test]
    fn xy_goes_east_west_first() {
        let m = Mesh::new(3, 3);
        assert_eq!(m.xy_step(m.node(0, 0), m.node(2, 2)), Some(Port::East));
        assert_eq!(m.xy_step(m.node(2, 2), m.node(0, 0)), Some(Port::West));
        assert_eq!(m.xy_step(m.node(1, 0), m.node(1, 2)), Some(Port::South));
        assert_eq!(m.xy_step(m.node(1, 1), m.node(1, 1)), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mesh_rejected() {
        let _ = Mesh::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_bounds_node_rejected() {
        let m = Mesh::new(2, 2);
        let _ = m.node(2, 0);
    }
}
