//! Pins every output of the Central Coordination Node, bit for bit.
//!
//! Seeded random task graphs are mapped on 2×2, 4×4, 8×8 and 16×16
//! meshes: graphs that fit, graphs with hubs the CCN must co-locate,
//! graphs too heavy for the lanes (strict refusal and spill), graphs with
//! affinity hints, and graphs mapped around dead links, among them pairs
//! that name no mesh link at all. Each mesh then runs a seeded
//! admit/release sequence through [`Ccn::admit_stream`], rebuilding the
//! lane map from the live circuits before every admission as the fabrics
//! do. Every mapping, route and refusal is hashed; the digests below are
//! pinned, so any change to a placement, a lane claim or an error fails
//! here.

use noc_apps::taskgraph::{ProcessId, TaskGraph, TrafficShape};
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_mesh::ccn::{Ccn, EdgeRoute, Mapping, MappingError};
use noc_mesh::stream::{AdmitError, StreamDemand};
use noc_mesh::tile::default_tile_kinds;
use noc_mesh::topology::{Mesh, NodeId};
use noc_sim::rng::SplitMix64;
use noc_sim::units::{Bandwidth, MegaHertz};

/// FNV-1a over 64-bit words, plus a tally of which CCN behaviours the
/// hashed outputs exercised.
#[derive(Default)]
struct Digest {
    hash: u64,
    /// Mappings that put two processes on one tile.
    co_located: usize,
    /// Mappings that spilled a demand.
    spilled: usize,
    /// Mappings refused outright.
    refused: usize,
    /// Runtime admissions granted and refused.
    admitted: usize,
    denied: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Digest::default()
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn route(&mut self, r: &EdgeRoute) {
        self.word(r.edges.len() as u64);
        for e in &r.edges {
            self.word(e.0 as u64);
        }
        self.word(r.lane_capacity.value().to_bits());
        self.word(r.demand.value().to_bits());
        self.word(r.paths.len() as u64);
        for path in &r.paths {
            self.word(path.len() as u64);
            for hop in path {
                self.word(hop.node.0 as u64);
                self.word(hop.in_port.index() as u64);
                self.word(hop.in_lane as u64);
                self.word(hop.out_port.index() as u64);
                self.word(hop.out_lane as u64);
            }
        }
    }

    fn mapping(&mut self, m: &Result<Mapping, MappingError>) {
        let m = match m {
            Ok(m) => m,
            Err(err) => {
                self.refused += 1;
                return self.text(&format!("{err:?}"));
            }
        };
        let mut tiles: Vec<NodeId> = m.placement.iter().map(|&(_, n)| n).collect();
        tiles.sort();
        tiles.dedup();
        self.co_located += usize::from(tiles.len() < m.placement.len());
        self.spilled += usize::from(!m.spilled.is_empty());
        self.word(m.placement.len() as u64);
        for &(p, n) in &m.placement {
            self.word(p.0 as u64);
            self.word(n.0 as u64);
        }
        self.word(m.routes.len() as u64);
        for r in &m.routes {
            self.route(r);
        }
        self.word(m.spilled.len() as u64);
        for s in &m.spilled {
            self.word(s.edges.len() as u64);
            for e in &s.edges {
                self.word(e.0 as u64);
            }
            self.word(s.src.0 as u64);
            self.word(s.dst.0 as u64);
            self.word(s.demand.value().to_bits());
            self.text(&format!("{:?}", s.reason));
        }
        self.word(m.lane_capacity.value().to_bits());
    }

    fn admitted(&mut self, r: &Result<EdgeRoute, AdmitError>) {
        match r {
            Ok(route) => {
                self.admitted += 1;
                self.route(route);
            }
            Err(err) => {
                self.denied += 1;
                self.text(&format!("{err:?}"));
            }
        }
    }
}

/// Runtime admission as the fabrics run it: a lane map rebuilt from the
/// live circuits, then one admission against it.
fn admit(ccn: &Ccn, demand: &StreamDemand, live: &[EdgeRoute]) -> Result<EdgeRoute, AdmitError> {
    let mut lanes = ccn.lane_map();
    for route in live {
        lanes.occupy(route);
    }
    ccn.admit_stream(demand, &mut lanes)
}

/// A random graph of `procs` processes with `edges` edges, each asking
/// `lanes.0 ..= lanes.1` lanes of `lane` Mbit/s. With `hubs`, the first
/// few processes talk to many partners, so the CCN must co-locate them.
fn graph(
    rng: &mut SplitMix64,
    procs: usize,
    edges: usize,
    lanes: (f64, f64),
    lane: f64,
    hubs: bool,
) -> TaskGraph {
    let mut g = TaskGraph::new("pins");
    let ids: Vec<ProcessId> = (0..procs)
        .map(|i| match rng.below(4) {
            0 => g.add_process_with_affinity(format!("p{i}"), "DSP"),
            _ => g.add_process(format!("p{i}")),
        })
        .collect();
    for k in 0..edges {
        let src = if hubs && k % 2 == 0 {
            ids[k % procs.min(3)]
        } else {
            ids[rng.below(procs as u32) as usize]
        };
        let mut dst = ids[rng.below(procs as u32) as usize];
        if dst == src {
            dst = ids[(dst.0 + 1) % procs];
        }
        let share = lanes.0 + (lanes.1 - lanes.0) * (rng.below(1000) as f64 / 999.0);
        g.add_edge(
            src,
            dst,
            Bandwidth(share * lane),
            TrafficShape::Streaming,
            "e",
        );
    }
    g
}

/// Dead links: `k` random links in both directions, plus one pair that
/// names no mesh link (rotating through the three kinds of non-link).
fn dead_links(rng: &mut SplitMix64, mesh: Mesh, k: usize, round: usize) -> Vec<(NodeId, Port)> {
    let links = mesh.links();
    let mut dead = Vec::new();
    for _ in 0..k {
        let (from, port, to) = links[rng.below(links.len() as u32) as usize];
        dead.push((from, port));
        dead.push((to, port.opposite().expect("mesh ports have opposites")));
    }
    dead.push(match round % 3 {
        0 => (mesh.node(0, 0), Port::Tile),
        1 => (mesh.node(0, 0), Port::North),
        _ => (NodeId(mesh.nodes() + 3), Port::East),
    });
    dead
}

/// Every mapping the CCN produces for `mesh`, hashed in order.
fn map_digest(rng: &mut SplitMix64, ccn: &Ccn, mesh: Mesh) -> Digest {
    let kinds = default_tile_kinds(&mesh);
    let lane = ccn.lane_capacity().value();
    let n = mesh.nodes();
    let mut d = Digest::new();
    for round in 0..6 {
        // Fits comfortably: light edges between half the tiles.
        let g = graph(rng, (n / 2).max(2), n / 2 + 1, (0.1, 0.9), lane, false);
        d.mapping(&ccn.map(&g, &kinds));
        d.mapping(&ccn.map_with_spill(&g, &kinds));
        // Hubs with more partners than a tile has lanes: clustering.
        let g = graph(rng, n.clamp(3, 12), n.min(24) + 4, (0.1, 1.2), lane, true);
        d.mapping(&ccn.map_with_spill(&g, &kinds));
        // Too heavy for the lanes: strict refusal, spill admission.
        let g = graph(rng, n.max(2), n + n / 2, (0.5, 4.6), lane, false);
        d.mapping(&ccn.map(&g, &kinds));
        d.mapping(&ccn.map_with_spill(&g, &kinds));
        // Dead links, one of which names no link.
        let g = graph(rng, (n / 2).max(2), n / 2 + 1, (0.2, 1.9), lane, false);
        let dead = dead_links(rng, mesh, 1 + round, round);
        d.mapping(&ccn.map_with_faults(&g, &kinds, &dead));
    }
    // More clusters than tiles.
    let g = graph(rng, n + 1, n + 1, (0.1, 0.2), lane, false);
    d.mapping(&ccn.map(&g, &kinds));
    d
}

/// A seeded admit/release sequence on `mesh`, starting from a mapping's
/// circuits, hashed in order.
fn admit_digest(rng: &mut SplitMix64, ccn: &Ccn, mesh: Mesh) -> Digest {
    let kinds = default_tile_kinds(&mesh);
    let lane = ccn.lane_capacity().value();
    let n = mesh.nodes();
    let g = graph(rng, (n / 2).max(2), n / 2 + 1, (0.1, 0.9), lane, false);
    let mapping = ccn.map_with_spill(&g, &kinds).expect("light graphs map");
    let mut live: Vec<EdgeRoute> = mapping.routes;
    let mut d = Digest::new();
    for step in 0..400 {
        if live.is_empty() || rng.below(10) < 6 {
            let src = NodeId(rng.below(n as u32) as usize);
            let dst = NodeId(rng.below(n as u32) as usize);
            let demand = match step % 17 {
                0 => 0.0,
                1 => lane * 2.0,
                _ => lane * 2.6 * (rng.below(1000) as f64 / 999.0),
            };
            let ask = StreamDemand {
                src,
                dst,
                demand: Bandwidth(demand),
            };
            let admitted = admit(ccn, &ask, &live);
            d.admitted(&admitted);
            if let Ok(route) = admitted {
                live.push(route);
            }
        } else {
            let gone = live.swap_remove(rng.below(live.len() as u32) as usize);
            d.route(&gone);
        }
    }
    d
}

/// `(mesh side, mapping digest, admission digest)`.
const PINNED: [(usize, u64, u64); 4] = [
    (2, 0x82813edadba51758, 0x0b3892e04ec3c80e),
    (4, 0x5d3a4ad48d78e87a, 0x5f38af5594cc0c6a),
    (8, 0x20abebe3c4c601a8, 0x6cc57905ebdcc0f8),
    (16, 0x3f64405d0b7da784, 0x0083d155baa165c4),
];

#[test]
fn ccn_mappings_and_admissions_are_pinned() {
    let mut got = Vec::new();
    let mut co_located = 0;
    for (side, _, _) in PINNED {
        let mesh = Mesh::new(side, side);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let mut rng = SplitMix64::new(0xC0FF_EE00 ^ side as u64);
        let maps = map_digest(&mut rng, &ccn, mesh);
        let admits = admit_digest(&mut rng, &ccn, mesh);
        assert!(maps.spilled > 0 && maps.refused > 0, "{side}x{side}");
        assert!(admits.admitted > 0 && admits.denied > 0, "{side}x{side}");
        co_located += maps.co_located;
        got.push((side, maps.hash, admits.hash));
    }
    assert!(co_located > 0, "no mapping needed clustering");
    let table: String = got
        .iter()
        .map(|(s, m, a)| format!("    ({s}, {m:#018x}, {a:#018x}),\n"))
        .collect();
    assert_eq!(got, PINNED, "CCN outputs moved; digests now:\n{table}");
}
