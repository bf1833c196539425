//! The Central Coordination Node: run-time mapping and lane allocation.
//!
//! "The CCN performs the feasibility analysis, spatial mapping, process
//! allocation and configuration of the tiles and the NoC before the start
//! of an application" (Section 1.1). Concretely, given a Kahn process graph
//! and the SoC's tile inventory, the CCN here:
//!
//! 1. **Clusters** processes whose tile-interface lane pressure exceeds
//!    the per-port lane count — a tile has only `lanes_per_port` transmit
//!    and receive lanes, so a process talking to five distinct partners
//!    must share a tile with its heaviest partner (the paper's mapper
//!    likewise places multiple cooperating processes per tile when
//!    beneficial);
//! 2. **Places** clusters on tiles — greedy by communication volume,
//!    minimising bandwidth-weighted Manhattan distance, preferring tiles
//!    whose kind matches the process affinity ("the tiles that can execute
//!    it most efficiently");
//! 3. **Allocates lane paths** per tile-to-tile *demand* (all edges between
//!    the same pair of tiles share one circuit — the 16-bit tile interface
//!    multiplexes them, the 4-bit header tags them), taking
//!    ⌈bandwidth / lane-capacity⌉ parallel lanes ("Depending on the
//!    application one or more lanes ... can be used", Section 5.2) on
//!    the shortest path whose links all have that many free lanes;
//! 4. **Checks feasibility** — guaranteed-throughput demands against lane
//!    capacity, rejecting infeasible requests instead of degrading them;
//! 5. **Emits configuration words** — the 10-bit words per output lane the
//!    BE network carries to each router.
//!
//! The router does no run-time scheduling: once lanes are configured the
//! streams are physically separated, which is the paper's core argument.
//!
//! Free lanes live in a [`LaneMap`]: one `u64` mask per directed link and
//! per tile direction, claimed lowest-free-first. Placement scores each
//! free tile against the cluster's already-placed partners only, and
//! allocation is one BFS per demand over the masks' popcounts, so mapping
//! a 256-edge application on a 16×16 mesh takes 1–2 ms on 2 vCPUs.
//! Runtime admission ([`Ccn::admit_stream`]) runs the same allocation for
//! one demand on a map rebuilt from the live circuits: 4–16 µs against 80
//! of them on the same machine. Graphs and demands whose bandwidth is NaN, infinite or negative
//! are refused with typed errors, as are routers with more than 64 lanes
//! per port, the most a mask holds.

use crate::soc::Soc;
use crate::stream::{is_valid_bandwidth, AdmitError, StreamDemand, StreamId};
use crate::tile::TileKind;
use crate::topology::{Mesh, NodeId};
use noc_apps::taskgraph::{EdgeId, ProcessId, TaskGraph};
use noc_core::config::{ConfigEntry, ConfigWord};
use noc_core::error::ConfigError;
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_sim::units::{Bandwidth, MegaHertz};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// One router traversal of an allocated circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The router.
    pub node: NodeId,
    /// Input side (port, lane) at this router.
    pub in_port: Port,
    /// Input lane within the port.
    pub in_lane: usize,
    /// Output side (port, lane) at this router.
    pub out_port: Port,
    /// Output lane within the port.
    pub out_lane: usize,
}

/// The allocated circuit(s) for one tile-to-tile demand: all task-graph
/// edges between the same source and destination tile share it.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRoute {
    /// The edges served by this circuit: at least one when produced by
    /// the `Ccn::map*` pipeline, empty for circuits set up by runtime
    /// admission ([`Ccn::admit_stream`]), which serve a [`StreamDemand`]
    /// rather than task-graph edges.
    pub edges: Vec<EdgeId>,
    /// Parallel physical circuits (one per allocated lane). Empty when
    /// source and destination share a tile (no NoC traversal).
    pub paths: Vec<Vec<PathHop>>,
    /// Bandwidth each circuit provides.
    pub lane_capacity: Bandwidth,
    /// Summed guaranteed-throughput demand of the edges — recorded so a
    /// released circuit can be re-admitted at runtime with the original
    /// ask ([`Mapping::stream_demand`]).
    pub demand: Bandwidth,
}

impl EdgeRoute {
    /// Total bandwidth allocated to the demand.
    pub fn allocated_bandwidth(&self) -> Bandwidth {
        if self.paths.is_empty() {
            // On-tile communication is not NoC-limited.
            Bandwidth(f64::INFINITY)
        } else {
            self.lane_capacity * self.paths.len() as f64
        }
    }

    /// Does this circuit serve `edge`?
    pub fn serves(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// Hop count of the circuit (routers traversed).
    pub fn hops(&self) -> usize {
        self.paths.first().map_or(0, |p| p.len())
    }

    /// Source tile of the circuit (`None` for on-tile communication).
    pub fn src(&self) -> Option<NodeId> {
        self.paths.first().and_then(|p| p.first()).map(|h| h.node)
    }

    /// Destination tile of the circuit (`None` for on-tile communication).
    pub fn dst(&self) -> Option<NodeId> {
        self.paths.first().and_then(|p| p.last()).map(|h| h.node)
    }

    /// The configuration words activating this circuit, as
    /// `(router, word)` pairs — the per-route slice of
    /// [`Mapping::config_words`], used by runtime admission to set up one
    /// stream without replaying the whole mapping.
    pub fn config_words(&self, params: &RouterParams) -> Vec<(NodeId, ConfigWord)> {
        let mut words = Vec::new();
        for path in &self.paths {
            for hop in path {
                let select = params
                    .foreign_select(hop.out_port, hop.in_port, hop.in_lane)
                    .expect("allocator produced a legal hop");
                let word = ConfigWord::for_lane(
                    hop.out_port,
                    hop.out_lane,
                    ConfigEntry::active(select),
                    params,
                )
                .expect("allocator produced a legal lane");
                words.push((hop.node, word));
            }
        }
        words
    }

    /// [`EdgeRoute::config_words`] batched per destination router, in
    /// deterministic node order — the message granularity the BE network
    /// delivers at. Shared by runtime admission and BE-delivered initial
    /// provisioning ([`crate::stream::ProvisionMode::BeDelivered`]) so
    /// both phases serialise identically on the configuration plane.
    pub fn config_words_by_node(
        &self,
        params: &RouterParams,
    ) -> std::collections::BTreeMap<NodeId, Vec<ConfigWord>> {
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<ConfigWord>> =
            std::collections::BTreeMap::new();
        for (node, word) in self.config_words(params) {
            by_node.entry(node).or_default().push(word);
        }
        by_node
    }
}

/// A tile-to-tile demand the CCN could *not* admit on circuit lanes.
///
/// Produced only by [`Ccn::map_with_spill`]: instead of rejecting the
/// whole application when lanes run out, the CCN records the overflow
/// demands so a best-effort plane (the packet fabric, or the hybrid
/// fabric's spillover plane) can carry them — profiled hybrid switching's
/// admission story (arXiv:2005.08478).
#[derive(Debug, Clone, PartialEq)]
pub struct SpillStream {
    /// The task-graph edges sharing this demand (at least one).
    pub edges: Vec<EdgeId>,
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Summed guaranteed-throughput demand of the edges.
    pub demand: Bandwidth,
    /// Why the circuit plane could not take it.
    pub reason: SpillReason,
}

/// Why a demand spilled off the circuit plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillReason {
    /// The demand alone exceeds a port's parallel-lane capacity.
    TooWide,
    /// Heavier demands exhausted every lane path first.
    NoFreeLanes,
}

/// A complete application mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Process placements.
    pub placement: Vec<(ProcessId, NodeId)>,
    /// Per-edge circuits.
    pub routes: Vec<EdgeRoute>,
    /// Demands without circuits, for a best-effort/packet plane to carry.
    /// Always empty under [`Ccn::map`]'s strict admission.
    pub spilled: Vec<SpillStream>,
    /// Payload bandwidth of one circuit lane at the mapping clock
    /// ([`Ccn::lane_capacity`]) — recorded so fabrics can re-run lane
    /// admission at runtime ([`crate::fabric::Fabric::admit`]) without a
    /// CCN in hand.
    pub lane_capacity: Bandwidth,
}

/// One NoC-crossing stream of a [`Mapping`], with its session handle.
///
/// This is the authoritative [`StreamId`] numbering every fabric uses at
/// provision time: routes with lane paths first (in `Mapping::routes`
/// order), spilled demands after — so handles are stable across backends
/// and a hybrid deployment's circuit/spill split is visible in the id
/// space. On-tile routes (no lane paths) never appear: they are not NoC
/// streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedStream {
    /// The session handle [`crate::fabric::Fabric::provision`] hands out.
    pub id: StreamId,
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Summed guaranteed-throughput demand of the stream's edges.
    pub demand: Bandwidth,
    /// `true` when the circuit plane could not admit the demand.
    pub spilled: bool,
    /// Index into [`Mapping::routes`] (circuit streams only).
    pub route: Option<usize>,
    /// Index into [`Mapping::spilled`] (spilled streams only).
    pub spill: Option<usize>,
}

impl Mapping {
    /// The tile a process was placed on.
    pub fn node_of(&self, p: ProcessId) -> Option<NodeId> {
        self.placement
            .iter()
            .find(|&&(q, _)| q == p)
            .map(|&(_, n)| n)
    }

    /// Total router hops over all circuits (a mapping-quality metric).
    pub fn total_hops(&self) -> usize {
        self.routes
            .iter()
            .map(|r| r.hops() * r.paths.len().max(1))
            .sum()
    }

    /// The configuration words the CCN must deliver, as `(router, word)`
    /// pairs in teardown-safe order (setup is order-independent because
    /// each word touches one output lane).
    pub fn config_words(&self, params: &RouterParams) -> Vec<(NodeId, ConfigWord)> {
        self.routes
            .iter()
            .flat_map(|route| route.config_words(params))
            .collect()
    }

    /// Every NoC-crossing stream of the mapping, in [`StreamId`] order:
    /// routes with lane paths first, spilled demands after. This numbering
    /// is the [`crate::fabric::Fabric::provision`] contract — a backend
    /// serves exactly these handles (the circuit-only `Soc` skips the
    /// spilled ones, which it cannot carry).
    pub fn streams(&self) -> Vec<MappedStream> {
        let mut out = Vec::new();
        for (i, route) in self.routes.iter().enumerate() {
            if route.paths.is_empty() {
                continue; // on-tile communication never touches the NoC
            }
            out.push(MappedStream {
                id: StreamId(out.len() as u32),
                src: route.src().expect("non-empty paths"),
                dst: route.dst().expect("non-empty paths"),
                demand: route.demand,
                spilled: false,
                route: Some(i),
                spill: None,
            });
        }
        for (i, spill) in self.spilled.iter().enumerate() {
            out.push(MappedStream {
                id: StreamId(out.len() as u32),
                src: spill.src,
                dst: spill.dst,
                demand: spill.demand,
                spilled: true,
                route: None,
                spill: Some(i),
            });
        }
        out
    }

    /// The guaranteed-throughput ask of stream `id`, for re-admission
    /// after a [`crate::fabric::Fabric::release`].
    pub fn stream_demand(&self, id: StreamId) -> Option<StreamDemand> {
        self.streams()
            .into_iter()
            .find(|s| s.id == id)
            .map(|s| StreamDemand {
                src: s.src,
                dst: s.dst,
                demand: s.demand,
            })
    }

    /// Apply the mapping directly to a SoC's routers (the instantaneous
    /// testbench path; production delivery goes through [`crate::be`]).
    pub fn apply_direct(&self, soc: &mut Soc) -> Result<(), ConfigError> {
        let params = *soc.params();
        for (node, word) in self.config_words(&params) {
            soc.router_mut(node).apply_config_word(word)?;
        }
        Ok(())
    }

    /// The tile transmit lane assigned to an edge at its source (for
    /// binding traffic sources), when the edge crosses the NoC.
    pub fn source_lane(&self, edge: EdgeId) -> Option<usize> {
        self.routes
            .iter()
            .find(|r| r.serves(edge))
            .and_then(|r| r.paths.first())
            .and_then(|p| p.first())
            .map(|hop| hop.in_lane)
    }

    /// The tile receive lane at an edge's destination.
    pub fn dest_lane(&self, edge: EdgeId) -> Option<usize> {
        self.routes
            .iter()
            .find(|r| r.serves(edge))
            .and_then(|r| r.paths.first())
            .and_then(|p| p.last())
            .map(|hop| hop.out_lane)
    }
}

/// Why a mapping attempt failed feasibility analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// More processes than tiles.
    NotEnoughTiles {
        /// Processes requested.
        processes: usize,
        /// Tiles available.
        tiles: usize,
    },
    /// An edge needs more parallel lanes than a port offers.
    EdgeTooWide {
        /// The offending edge.
        edge: EdgeId,
        /// Lanes required.
        needed: usize,
        /// Lanes per port.
        available: usize,
    },
    /// No path with enough free lanes exists.
    NoPath {
        /// The edge that could not be routed.
        edge: EdgeId,
    },
    /// A tile ran out of interface lanes for its streams.
    TileLanesExhausted {
        /// The saturated node.
        node: NodeId,
    },
    /// An edge's bandwidth is NaN, infinite or negative.
    InvalidBandwidth {
        /// The offending edge.
        edge: EdgeId,
    },
    /// The router has more lanes per port than the CCN's lane map tracks.
    TooManyLanes {
        /// Lanes per port of the router.
        lanes_per_port: usize,
        /// Most lanes per port the lane map tracks.
        max: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::NotEnoughTiles { processes, tiles } => {
                write!(f, "{processes} processes but only {tiles} tiles")
            }
            MappingError::EdgeTooWide {
                edge,
                needed,
                available,
            } => write!(
                f,
                "edge {edge:?} needs {needed} lanes, a port has {available}"
            ),
            MappingError::NoPath { edge } => write!(f, "no lane path for edge {edge:?}"),
            MappingError::TileLanesExhausted { node } => {
                write!(f, "tile {node:?} has no free interface lanes")
            }
            MappingError::InvalidBandwidth { edge } => write!(
                f,
                "edge {edge:?} has a bandwidth that is not finite and non-negative"
            ),
            MappingError::TooManyLanes {
                lanes_per_port,
                max,
            } => write!(
                f,
                "{lanes_per_port} lanes per port, the lane map tracks at most {max}"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// The Central Coordination Node.
#[derive(Debug, Clone)]
pub struct Ccn {
    mesh: Mesh,
    params: RouterParams,
    clock: MegaHertz,
}

/// Most lanes per port a [`LaneMap`] tracks: one bit each in a `u64`.
const MAX_MAPPED_LANES: usize = u64::BITS as usize;

/// The free circuit lanes of one mesh: one bit mask per directed link and
/// per tile direction, bit `l` set while lane `l` is free.
///
/// The CCN allocates against it. [`Ccn::map`] starts from an all-free map
/// ([`Ccn::lane_map`]); runtime admission ([`Ccn::admit_stream`]) starts
/// from one rebuilt from the live circuits with [`LaneMap::occupy`].
/// Lanes are claimed lowest-free-first, so re-admitting a released
/// demand on the same state hands back the same lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    mesh: Mesh,
    /// Lanes per port.
    lanes: usize,
    /// Free lanes per directed link, at its [`Mesh::link_slot`]. Slots of
    /// ports facing the mesh edge name no link and stay empty.
    links: Vec<u64>,
    /// Free tile transmit lanes per node (tile → router direction).
    tx: Vec<u64>,
    /// Free tile receive lanes per node (router → tile direction).
    rx: Vec<u64>,
}

/// The mask bit of `lane`; none for lanes a mask cannot hold.
fn lane_bit(lane: usize) -> u64 {
    if lane < MAX_MAPPED_LANES {
        1 << lane
    } else {
        0
    }
}

/// Claim the `k` lowest free lanes of `mask`; the caller has checked that
/// `k` are free.
fn claim_lanes(mask: &mut u64, k: usize) -> Vec<usize> {
    debug_assert!(mask.count_ones() as usize >= k, "claim without capacity");
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        out.push(mask.trailing_zeros() as usize);
        *mask &= *mask - 1;
    }
    out
}

impl LaneMap {
    /// Every lane of `mesh` free, `lanes` per port (the first 64 of them
    /// when there are more; the CCN refuses such routers before use).
    fn new(mesh: Mesh, lanes: usize) -> LaneMap {
        let all = if lanes >= MAX_MAPPED_LANES {
            u64::MAX
        } else {
            (1 << lanes) - 1
        };
        // Every slot free, then the ports facing the mesh edge closed:
        // they name no link.
        let mut links = vec![all; mesh.link_slots()];
        let mut close = |x, y, port| {
            let slot = mesh.link_slot(mesh.node(x, y), port);
            links[slot.expect("mesh nodes have neighbour-port slots")] = 0;
        };
        let (w, h) = (mesh.width, mesh.height);
        for x in 0..w {
            close(x, 0, Port::North);
            close(x, h - 1, Port::South);
        }
        for y in 0..h {
            close(0, y, Port::West);
            close(w - 1, y, Port::East);
        }
        LaneMap {
            mesh,
            lanes,
            links,
            tx: vec![all; mesh.nodes()],
            rx: vec![all; mesh.nodes()],
        }
    }

    /// Mark every lane `route` holds as taken: runtime admission rebuilds
    /// the map by occupying each live circuit, so a released circuit's
    /// lanes, simply not occupied, are free again. Hops that name no lane
    /// of this map are ignored, as [`LaneMap::kill_link`] ignores them.
    pub fn occupy(&mut self, route: &EdgeRoute) {
        for hop in route.paths.iter().flatten() {
            if hop.in_port == Port::Tile {
                if let Some(free) = self.tx.get_mut(hop.node.0) {
                    *free &= !lane_bit(hop.in_lane);
                }
            }
            if hop.out_port == Port::Tile {
                if let Some(free) = self.rx.get_mut(hop.node.0) {
                    *free &= !lane_bit(hop.out_lane);
                }
            } else if let Some(slot) = self.mesh.link_slot(hop.node, hop.out_port) {
                self.links[slot] &= !lane_bit(hop.out_lane);
            }
        }
    }

    /// Take every lane of the directed link leaving `node` through `port`
    /// out of service (fault injection): a dead link has no free lanes,
    /// so allocation routes around it. A pair that names no mesh link —
    /// `Port::Tile`, a port facing the mesh edge, a node outside the
    /// mesh — is ignored.
    pub fn kill_link(&mut self, node: NodeId, port: Port) {
        if let Some(slot) = self.mesh.link_slot(node, port) {
            self.links[slot] = 0;
        }
    }

    /// Free lanes on the directed link at `slot`.
    fn link_free(&self, slot: usize) -> usize {
        self.links[slot].count_ones() as usize
    }
}

impl Ccn {
    /// A CCN for the given mesh and router configuration at the SoC clock.
    pub fn new(mesh: Mesh, params: RouterParams, clock: MegaHertz) -> Ccn {
        Ccn {
            mesh,
            params,
            clock,
        }
    }

    /// A CCN whose clock is derived from a known per-lane payload
    /// bandwidth — the inverse of [`Ccn::lane_capacity`]. This is how a
    /// fabric re-creates its admission authority at runtime from a
    /// provisioned [`Mapping`] alone (which records `lane_capacity` but
    /// not the clock).
    pub fn with_lane_capacity(mesh: Mesh, params: RouterParams, lane_capacity: Bandwidth) -> Ccn {
        Ccn {
            mesh,
            params,
            clock: MegaHertz(lane_capacity.value() / params.lane_payload_bits_per_cycle()),
        }
    }

    /// Payload bandwidth of one lane at the SoC clock (16 payload bits per
    /// 5-cycle phit on a 4-bit lane: 80 Mbit/s at 25 MHz).
    pub fn lane_capacity(&self) -> Bandwidth {
        Bandwidth(self.clock.value() * self.params.lane_payload_bits_per_cycle())
    }

    /// Every lane of this CCN's mesh free: the state whole-application
    /// mapping starts from, and the base runtime admission occupies the
    /// live circuits on ([`LaneMap::occupy`]) before
    /// [`Ccn::admit_stream`].
    pub fn lane_map(&self) -> LaneMap {
        LaneMap::new(self.mesh, self.params.lanes_per_port)
    }

    /// Map an application onto tiles and lanes.
    pub fn map(&self, graph: &TaskGraph, tile_kinds: &[TileKind]) -> Result<Mapping, MappingError> {
        self.map_with_faults(graph, tile_kinds, &[])
    }

    /// Map an application, spilling demands the circuit plane cannot admit
    /// instead of rejecting the whole application.
    ///
    /// Placement and lane allocation are identical to [`Ccn::map`] (same
    /// heaviest-first order, same BFS path search), so a feasible
    /// application produces a bit-identical mapping with an empty
    /// [`Mapping::spilled`]. When lanes run out, the losing demands land in
    /// `spilled` for a best-effort plane to carry — the admission mode the
    /// hybrid fabric provisions from. Only structural failures (more
    /// process clusters than tiles) still error.
    pub fn map_with_spill(
        &self,
        graph: &TaskGraph,
        tile_kinds: &[TileKind],
    ) -> Result<Mapping, MappingError> {
        self.map_impl(graph, tile_kinds, &[], true)
    }

    /// Map an application while avoiding failed links.
    ///
    /// Each `(node, port)` names one *directed* link leaving `node`; a
    /// physically broken link should be listed in both directions. Dead
    /// links simply have no free lanes, so path allocation routes around
    /// them (or reports [`MappingError::NoPath`] when no detour exists) —
    /// the CCN-side half of fault tolerance, exercised by the
    /// fault-injection tests.
    pub fn map_with_faults(
        &self,
        graph: &TaskGraph,
        tile_kinds: &[TileKind],
        dead_links: &[(NodeId, Port)],
    ) -> Result<Mapping, MappingError> {
        self.map_impl(graph, tile_kinds, dead_links, false)
    }

    /// The one admission pipeline behind every `map_*` entry point:
    /// refuse routers the lane map cannot track and bandwidths no lane
    /// count can serve, cluster, check tile count, place, then allocate
    /// lanes (strictly or with spill).
    fn map_impl(
        &self,
        graph: &TaskGraph,
        tile_kinds: &[TileKind],
        dead_links: &[(NodeId, Port)],
        spill: bool,
    ) -> Result<Mapping, MappingError> {
        assert_eq!(tile_kinds.len(), self.mesh.nodes(), "one kind per tile");
        let lanes_per_port = self.params.lanes_per_port;
        if lanes_per_port > MAX_MAPPED_LANES {
            return Err(MappingError::TooManyLanes {
                lanes_per_port,
                max: MAX_MAPPED_LANES,
            });
        }
        if let Some((edge, _)) = graph
            .edges()
            .find(|(_, e)| !is_valid_bandwidth(e.bandwidth))
        {
            return Err(MappingError::InvalidBandwidth { edge });
        }
        let clusters = self.cluster(graph);
        let cluster_count = clusters
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        if cluster_count > self.mesh.nodes() {
            return Err(MappingError::NotEnoughTiles {
                processes: cluster_count,
                tiles: self.mesh.nodes(),
            });
        }

        let placement = self.place(graph, tile_kinds, &clusters);
        let (routes, spilled) = self.route_demands(graph, &placement, dead_links, spill)?;
        debug_assert!(spill || spilled.is_empty(), "strict admission never spills");
        Ok(Mapping {
            placement,
            routes,
            spilled,
            lane_capacity: self.lane_capacity(),
        })
    }

    /// Reduce tile-interface lane pressure by co-locating processes.
    ///
    /// A tile has `lanes_per_port` transmit and receive lanes; a process
    /// with more distinct communication partners than that cannot live
    /// alone. Repeatedly merge the most-pressured cluster with the partner
    /// cluster it exchanges the most bandwidth with, until every cluster's
    /// distinct-partner counts fit (or everything is one cluster, in which
    /// case all communication is on-tile and trivially feasible).
    ///
    /// Returns, per process index, its cluster's representative.
    fn cluster(&self, graph: &TaskGraph) -> Vec<usize> {
        let n = graph.process_count();
        let mut rep: Vec<usize> = (0..n).collect();
        // Small n: resolve representatives by scanning (no union-find rank
        // machinery needed at task-graph sizes).
        fn find(rep: &[usize], mut i: usize) -> usize {
            while rep[i] != i {
                i = rep[i];
            }
            i
        }

        let lanes = self.params.lanes_per_port;
        loop {
            // Distinct out/in partner clusters and exchanged bandwidth.
            let mut out_partners: BTreeMap<usize, BTreeMap<usize, f64>> = BTreeMap::new();
            let mut in_partners: BTreeMap<usize, BTreeMap<usize, f64>> = BTreeMap::new();
            for (_, e) in graph.edges() {
                let s = find(&rep, e.src.0);
                let d = find(&rep, e.dst.0);
                if s == d {
                    continue;
                }
                *out_partners.entry(s).or_default().entry(d).or_default() += e.bandwidth.value();
                *in_partners.entry(d).or_default().entry(s).or_default() += e.bandwidth.value();
            }

            // Find the most over-pressured cluster.
            let mut worst: Option<(usize, usize)> = None; // (overflow, cluster)
            for c in 0..n {
                if find(&rep, c) != c {
                    continue;
                }
                let o = out_partners.get(&c).map_or(0, |m| m.len());
                let i = in_partners.get(&c).map_or(0, |m| m.len());
                let overflow = o.saturating_sub(lanes) + i.saturating_sub(lanes);
                if overflow > 0 && worst.is_none_or(|(w, _)| overflow > w) {
                    worst = Some((overflow, c));
                }
            }
            let Some((_, c)) = worst else { break };

            // Merge with the partner exchanging the most bandwidth (both
            // directions summed once). BTreeMap keeps candidate order —
            // and therefore tie-breaking — deterministic.
            let mut exchanged: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            if let Some(m) = out_partners.get(&c) {
                for (&p, &bw) in m {
                    *exchanged.entry(p).or_default() += bw;
                }
            }
            if let Some(m) = in_partners.get(&c) {
                for (&p, &bw) in m {
                    *exchanged.entry(p).or_default() += bw;
                }
            }
            let mut best_partner: Option<(f64, usize)> = None;
            for (&p, &total) in &exchanged {
                let better = match best_partner {
                    None => true,
                    // Strictly more bandwidth wins; ties keep the earlier
                    // (smaller-id) partner.
                    Some((b, _)) => total > b + 1e-9,
                };
                if better {
                    best_partner = Some((total, p));
                }
            }
            let Some((_, p)) = best_partner else { break };
            let (lo, hi) = (c.min(p), c.max(p));
            rep[hi] = lo;
        }

        (0..n).map(|i| find(&rep, i)).collect()
    }

    /// Greedy spatial mapping of clusters: heaviest communicators first,
    /// each to the free tile minimising bandwidth-weighted distance to
    /// already-placed partners, with affinity preference.
    fn place(
        &self,
        graph: &TaskGraph,
        tile_kinds: &[TileKind],
        clusters: &[usize],
    ) -> Vec<(ProcessId, NodeId)> {
        // External bandwidth per cluster, indexed by representative.
        let n = clusters.len();
        let mut volume = vec![0.0; n];
        for (_, e) in graph.edges() {
            let s = clusters[e.src.0];
            let d = clusters[e.dst.0];
            if s != d {
                volume[s] += e.bandwidth.value();
                volume[d] += e.bandwidth.value();
            }
        }
        let mut order: Vec<usize> = clusters
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        order.sort_by(|&a, &b| {
            volume[b]
                .partial_cmp(&volume[a])
                .expect("volumes are sums of validated finite, non-negative bandwidths")
                .then(a.cmp(&b))
        });

        let mut placed: Vec<Option<NodeId>> = vec![None; n];
        let mut used = vec![false; self.mesh.nodes()];
        for cid in order {
            // Affinity: any member process's hint counts.
            let hints: Vec<&str> = graph
                .processes()
                .filter(|(id, _)| clusters[id.0] == cid)
                .filter_map(|(_, p)| p.affinity.as_deref())
                .collect();
            // The already-placed partners and their bandwidths, in edge
            // order, once per cluster: every free tile then sums the same
            // terms in the same order as a scan over all edges would.
            let partners: Vec<(f64, NodeId)> = graph
                .edges()
                .filter_map(|(_, e)| {
                    let (s, d) = (clusters[e.src.0], clusters[e.dst.0]);
                    let other = match (s == cid, d == cid) {
                        (true, false) => d,
                        (false, true) => s,
                        _ => return None,
                    };
                    placed[other].map(|node| (e.bandwidth.value(), node))
                })
                .collect();
            let mut best: Option<(f64, NodeId)> = None;
            for node in self.mesh.iter() {
                if used[node.0] {
                    continue;
                }
                let mut cost = 0.0;
                for &(bw, other) in &partners {
                    cost += bw * self.mesh.distance(node, other) as f64;
                }
                let affinity_ok = hints.is_empty()
                    || hints.iter().any(|h| tile_kinds[node.0].matches_affinity(h));
                if !affinity_ok {
                    // Affinity miss: pay the volume again — placement
                    // still succeeds when no matching tile is free.
                    cost += volume[cid] + 1.0;
                }
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, node));
                }
            }
            let (_, node) = best.expect("cluster count checked before placement");
            used[node.0] = true;
            placed[cid] = Some(node);
        }

        let mut out: Vec<(ProcessId, NodeId)> = graph
            .processes()
            .map(|(id, _)| (id, placed[clusters[id.0]].expect("every cluster is placed")))
            .collect();
        out.sort();
        out
    }

    /// Allocate lane paths per tile-to-tile demand, heaviest first. All
    /// edges between the same tile pair share one circuit: the tile
    /// interface multiplexes them at word level.
    #[cfg(test)]
    fn route(
        &self,
        graph: &TaskGraph,
        placement: &[(ProcessId, NodeId)],
    ) -> Result<Vec<EdgeRoute>, MappingError> {
        self.route_demands(graph, placement, &[], false)
            .map(|(routes, _)| routes)
    }

    /// Allocate circuits per demand. With `spill` set, an inadmissible
    /// demand is recorded as a [`SpillStream`] instead of failing the
    /// whole mapping.
    fn route_demands(
        &self,
        graph: &TaskGraph,
        placement: &[(ProcessId, NodeId)],
        dead_links: &[(NodeId, Port)],
        spill: bool,
    ) -> Result<(Vec<EdgeRoute>, Vec<SpillStream>), MappingError> {
        let node_of: HashMap<ProcessId, NodeId> = placement.iter().copied().collect();
        let mut lanes = self.lane_map();
        for &(node, port) in dead_links {
            lanes.kill_link(node, port);
        }
        let capacity = self.lane_capacity();

        // Aggregate edges into demands by (src tile, dst tile).
        let mut demands: BTreeMap<(NodeId, NodeId), (Vec<EdgeId>, f64)> = BTreeMap::new();
        for (id, e) in graph.edges() {
            let key = (node_of[&e.src], node_of[&e.dst]);
            let entry = demands.entry(key).or_default();
            entry.0.push(id);
            entry.1 += e.bandwidth.value();
        }
        type DemandList = Vec<((NodeId, NodeId), (Vec<EdgeId>, f64))>;
        let mut demand_list: DemandList = demands.into_iter().collect();
        demand_list.sort_by(|a, b| {
            b.1 .1
                .partial_cmp(&a.1 .1)
                .expect("aggregate demands are finite sums of finite bandwidths")
                .then(a.1 .0.cmp(&b.1 .0))
        });

        let mut routes = Vec::with_capacity(demand_list.len());
        let mut spilled = Vec::new();
        for ((src, dst), (mut edge_ids, total_bw)) in demand_list {
            edge_ids.sort();
            if src == dst {
                routes.push(EdgeRoute {
                    edges: edge_ids,
                    paths: Vec::new(),
                    lane_capacity: capacity,
                    demand: Bandwidth(total_bw),
                });
                continue;
            }
            let needed = (total_bw / capacity.value()).ceil().max(1.0) as usize;
            match self.allocate_paths(&mut lanes, src, dst, needed) {
                Ok(paths) => routes.push(EdgeRoute {
                    edges: edge_ids,
                    paths,
                    lane_capacity: capacity,
                    demand: Bandwidth(total_bw),
                }),
                Err(admit_err) => {
                    let first_edge = edge_ids[0];
                    let (reason, err) = match admit_err {
                        AdmitError::TooWide { needed, available } => (
                            SpillReason::TooWide,
                            MappingError::EdgeTooWide {
                                edge: first_edge,
                                needed,
                                available,
                            },
                        ),
                        AdmitError::NoFreeLanes => (
                            SpillReason::NoFreeLanes,
                            MappingError::NoPath { edge: first_edge },
                        ),
                        AdmitError::TileLanesExhausted { node } => (
                            SpillReason::NoFreeLanes,
                            MappingError::TileLanesExhausted { node },
                        ),
                        // allocate_paths emits only the three variants above.
                        other => unreachable!("allocation cannot fail with {other}"),
                    };
                    if spill {
                        spilled.push(SpillStream {
                            edges: edge_ids,
                            src,
                            dst,
                            demand: Bandwidth(total_bw),
                            reason,
                        });
                    } else {
                        return Err(err);
                    }
                }
            }
        }
        routes.sort_by_key(|r| r.edges[0]);
        spilled.sort_by_key(|s| s.edges[0]);
        Ok((routes, spilled))
    }

    /// Allocate `needed` parallel lane paths from `src` to `dst` against
    /// the free lanes of `lanes`: BFS for the shortest node path whose
    /// links all have `needed` free lanes, then claim tile and link lanes,
    /// lowest free first. Both tile pools are checked before either is
    /// claimed, so a failed demand leaves `lanes` untouched for the
    /// demands after it. Shared by the whole-application pipeline
    /// ([`Ccn::map`]/[`Ccn::map_with_spill`]) and runtime admission
    /// ([`Ccn::admit_stream`]) — one admission algorithm, two entry
    /// points.
    fn allocate_paths(
        &self,
        lanes: &mut LaneMap,
        src: NodeId,
        dst: NodeId,
        needed: usize,
    ) -> Result<Vec<Vec<PathHop>>, AdmitError> {
        if needed > self.params.lanes_per_port {
            return Err(AdmitError::TooWide {
                needed,
                available: self.params.lanes_per_port,
            });
        }

        let Some((node_path, ports)) = self.bfs(src, dst, needed, lanes) else {
            return Err(AdmitError::NoFreeLanes);
        };

        let tx_short = (lanes.tx[src.0].count_ones() as usize) < needed;
        if tx_short || (lanes.rx[dst.0].count_ones() as usize) < needed {
            let node = if tx_short { src } else { dst };
            return Err(AdmitError::TileLanesExhausted { node });
        }
        let tx = claim_lanes(&mut lanes.tx[src.0], needed);
        let rx = claim_lanes(&mut lanes.rx[dst.0], needed);

        // Claim link lanes hop by hop: [hop][parallel].
        let link_lanes: Vec<Vec<usize>> = node_path
            .iter()
            .zip(&ports)
            .map(|(&node, &port)| {
                let slot = self
                    .mesh
                    .link_slot(node, port)
                    .expect("BFS paths leave mesh nodes through neighbour ports");
                claim_lanes(&mut lanes.links[slot], needed)
            })
            .collect();

        // Assemble per-parallel-circuit hop lists.
        let mut paths = Vec::with_capacity(needed);
        for j in 0..needed {
            let mut hops = Vec::with_capacity(node_path.len());
            for (i, &node) in node_path.iter().enumerate() {
                let (in_port, in_lane) = if i == 0 {
                    (Port::Tile, tx[j])
                } else {
                    (
                        ports[i - 1].opposite().expect("mesh ports have opposites"),
                        link_lanes[i - 1][j],
                    )
                };
                let (out_port, out_lane) = if i + 1 == node_path.len() {
                    (Port::Tile, rx[j])
                } else {
                    (ports[i], link_lanes[i][j])
                };
                hops.push(PathHop {
                    node,
                    in_port,
                    in_lane,
                    out_port,
                    out_lane,
                });
            }
            paths.push(hops);
        }
        Ok(paths)
    }

    /// Run-time admission of a single stream against the free lanes of
    /// `lanes`, claiming the new circuit's lanes there on success. On
    /// failure `lanes` is left untouched.
    ///
    /// This is [`Ccn::map_with_spill`]'s lane allocation re-run at stream
    /// granularity: callers rebuild `lanes` from the live circuits
    /// ([`Ccn::lane_map`], then [`LaneMap::occupy`] per circuit), then the
    /// demand takes ⌈bandwidth / lane-capacity⌉ parallel lanes over the
    /// shortest feasible path — identical BFS order and lane-claiming to
    /// deployment-time mapping, so releasing a circuit and re-admitting
    /// the same demand reproduces the original route bit-for-bit. Fabrics
    /// call this through [`crate::fabric::Fabric::admit`] (which also
    /// charges the BE-network configuration-delivery latency, paper §5.1,
    /// to the new stream).
    ///
    /// A NaN, infinite or negative demand is refused
    /// ([`AdmitError::InvalidDemand`]); a zero demand takes one lane. A
    /// router with more than 64 lanes per port is refused
    /// ([`AdmitError::TooManyLanes`]). An on-tile demand (`src == dst`) is
    /// trivially admitted with no lane paths.
    ///
    /// # Panics
    /// Panics when `lanes` was built for another mesh or lane count.
    pub fn admit_stream(
        &self,
        demand: &StreamDemand,
        lanes: &mut LaneMap,
    ) -> Result<EdgeRoute, AdmitError> {
        let lanes_per_port = self.params.lanes_per_port;
        if lanes_per_port > MAX_MAPPED_LANES {
            return Err(AdmitError::TooManyLanes {
                lanes_per_port,
                max: MAX_MAPPED_LANES,
            });
        }
        demand.check()?;
        assert!(
            lanes.mesh == self.mesh && lanes.lanes == lanes_per_port,
            "lane map of a {} with {} lanes per port, CCN of a {} with {lanes_per_port}",
            lanes.mesh,
            lanes.lanes,
            self.mesh,
        );
        let capacity = self.lane_capacity();
        let mut route = EdgeRoute {
            edges: Vec::new(),
            paths: Vec::new(),
            lane_capacity: capacity,
            demand: demand.demand,
        };
        if demand.src == demand.dst {
            return Ok(route);
        }
        let needed = (demand.demand.value() / capacity.value()).ceil().max(1.0) as usize;
        route.paths = self.allocate_paths(lanes, demand.src, demand.dst, needed)?;
        Ok(route)
    }

    /// Shortest path by BFS over links with at least `needed` free lanes,
    /// as the nodes from `src` to `dst` and the port each step leaves
    /// through.
    fn bfs(
        &self,
        src: NodeId,
        dst: NodeId,
        needed: usize,
        lanes: &LaneMap,
    ) -> Option<(Vec<NodeId>, Vec<Port>)> {
        // `prev[n]` is the node BFS first reached `n` from and the port it
        // left through; the source marks itself. An entry never changes
        // once set, so the search may stop the moment `dst` is reached.
        let mut prev: Vec<Option<(NodeId, Port)>> = vec![None; self.mesh.nodes()];
        prev[src.0] = Some((src, Port::Tile));
        let mut queue = VecDeque::from([src]);
        'search: while let Some(node) = queue.pop_front() {
            for port in Port::NEIGHBOURS {
                let Some(next) = self.mesh.neighbour(node, port) else {
                    continue;
                };
                let slot = self
                    .mesh
                    .link_slot(node, port)
                    .expect("mesh links have slots");
                if prev[next.0].is_none() && lanes.link_free(slot) >= needed {
                    prev[next.0] = Some((node, port));
                    if next == dst {
                        break 'search;
                    }
                    queue.push_back(next);
                }
            }
        }
        prev[dst.0]?;
        let mut nodes = vec![dst];
        let mut ports = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (from, port) = prev[cur.0].expect("reached nodes have a predecessor");
            nodes.push(from);
            ports.push(port);
            cur = from;
        }
        nodes.reverse();
        ports.reverse();
        Some((nodes, ports))
    }

    /// Feasibility report: does every circuit carry at least the summed
    /// bandwidth of the edges sharing it?
    pub fn verify(&self, graph: &TaskGraph, mapping: &Mapping) -> bool {
        // Every edge must be served by exactly one route…
        let all_served = graph
            .edges()
            .all(|(id, _)| mapping.routes.iter().filter(|r| r.serves(id)).count() == 1);
        // …and every route must cover its demand.
        let all_covered = mapping.routes.iter().all(|r| {
            let demand: f64 = r
                .edges
                .iter()
                .map(|&id| graph.edge(id).bandwidth.value())
                .sum();
            r.allocated_bandwidth().value() >= demand - 1e-9
        });
        all_served && all_covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::taskgraph::TrafficShape;

    fn kinds(n: usize) -> Vec<TileKind> {
        let palette = [
            TileKind::Gpp,
            TileKind::Dsp,
            TileKind::Asic,
            TileKind::Dsrh,
            TileKind::Fpga,
            TileKind::Dsrh,
        ];
        (0..n).map(|i| palette[i % palette.len()]).collect()
    }

    fn ccn(w: usize, h: usize) -> Ccn {
        Ccn::new(Mesh::new(w, h), RouterParams::paper(), MegaHertz(25.0))
    }

    fn pipeline(stages: usize, bw: f64) -> TaskGraph {
        let mut g = TaskGraph::new("pipe");
        let ids: Vec<ProcessId> = (0..stages)
            .map(|i| g.add_process(format!("s{i}")))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], Bandwidth(bw), TrafficShape::Streaming, "e");
        }
        g
    }

    #[test]
    fn lane_capacity_at_25_mhz_is_80_mbit() {
        assert!((ccn(2, 2).lane_capacity().value() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn maps_a_pipeline_and_verifies() {
        let c = ccn(3, 3);
        let g = pipeline(5, 60.0);
        let m = c.map(&g, &kinds(9)).expect("feasible");
        assert_eq!(m.placement.len(), 5);
        assert!(c.verify(&g, &m));
        // Placement is injective.
        let nodes: std::collections::HashSet<NodeId> =
            m.placement.iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes.len(), 5);
    }

    #[test]
    fn heavy_neighbours_are_placed_adjacently() {
        // Two heavy communicators should end up one hop apart.
        let c = ccn(4, 4);
        let mut g = TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(a, b, Bandwidth(79.0), TrafficShape::Streaming, "hot");
        let m = c.map(&g, &kinds(16)).unwrap();
        let na = m.node_of(a).unwrap();
        let nb = m.node_of(b).unwrap();
        assert_eq!(c.mesh.distance(na, nb), 1);
    }

    #[test]
    fn wide_edge_takes_multiple_lanes() {
        // 200 Mbit/s at 80 Mbit/s per lane -> 3 parallel circuits.
        let c = ccn(2, 1);
        let g = pipeline(2, 200.0);
        let m = c.map(&g, &kinds(2)).unwrap();
        let route = &m.routes[0];
        assert_eq!(route.paths.len(), 3);
        assert!(c.verify(&g, &m));
        // Parallel circuits use distinct lanes of the same link.
        let lanes: std::collections::HashSet<usize> = route
            .paths
            .iter()
            .map(|p| p.first().unwrap().out_lane)
            .collect();
        assert_eq!(lanes.len(), 3);
    }

    #[test]
    fn edge_beyond_port_capacity_rejected() {
        // 400 Mbit/s needs 5 lanes; a port has 4.
        let c = ccn(2, 1);
        let g = pipeline(2, 400.0);
        match c.map(&g, &kinds(2)) {
            Err(MappingError::EdgeTooWide { needed: 5, .. }) => {}
            other => panic!("expected EdgeTooWide, got {other:?}"),
        }
    }

    #[test]
    fn too_many_processes_rejected() {
        let c = ccn(2, 1);
        let g = pipeline(3, 1.0);
        assert!(matches!(
            c.map(&g, &kinds(2)),
            Err(MappingError::NotEnoughTiles {
                processes: 3,
                tiles: 2
            })
        ));
    }

    #[test]
    fn congestion_routes_around_saturated_link() {
        // A heavy stream (0,0)->(2,0) claims all four lanes of the two
        // eastbound links of the top row; a later stream (1,0)->(2,1) must
        // avoid the saturated (1,0)->East link and go through (1,1).
        let c = ccn(3, 2);
        let mut g = TaskGraph::new("congest");
        let p0 = g.add_process("src-heavy");
        let p1 = g.add_process("dst-heavy");
        let p2 = g.add_process("src-light");
        let p3 = g.add_process("dst-light");
        let e1 = g.add_edge(p0, p1, Bandwidth(310.0), TrafficShape::Streaming, "heavy");
        let e2 = g.add_edge(p2, p3, Bandwidth(79.0), TrafficShape::Streaming, "light");
        // Hand placement (bypasses `place` so the contention is exact).
        let mesh = c.mesh;
        let placement = vec![
            (p0, mesh.node(0, 0)),
            (p1, mesh.node(2, 0)),
            (p2, mesh.node(1, 0)),
            (p3, mesh.node(2, 1)),
        ];
        let routes = c.route(&g, &placement).expect("detour exists");
        let heavy = routes.iter().find(|r| r.serves(e1)).unwrap();
        assert_eq!(heavy.paths.len(), 4, "310 Mbit/s = 4 lanes at 80 each");
        let light = routes.iter().find(|r| r.serves(e2)).unwrap();
        // The light stream's first hop must leave south, not east.
        let first_hop = &light.paths[0][0];
        assert_eq!(first_hop.out_port, Port::South, "must avoid saturated link");
        assert_eq!(
            light.paths[0].len(),
            3,
            "one router more than direct XY? no: equal-length detour through (1,1)"
        );
    }

    #[test]
    fn saturated_line_yields_no_path() {
        // On a 1-D mesh there is no detour: two streams needing 3+2 lanes
        // of the same eastbound link cannot both be admitted.
        let c = ccn(3, 1);
        let mut g = TaskGraph::new("line");
        let a = g.add_process("a");
        let b = g.add_process("b");
        let d = g.add_process("d");
        g.add_edge(a, d, Bandwidth(230.0), TrafficShape::Streaming, "3 lanes");
        g.add_edge(b, d, Bandwidth(155.0), TrafficShape::Streaming, "2 lanes");
        let mesh = c.mesh;
        let placement = vec![
            (a, mesh.node(0, 0)),
            (b, mesh.node(1, 0)),
            (d, mesh.node(2, 0)),
        ];
        // Link (1,0)->East would need 5 lanes; expect NoPath for the
        // lighter edge (routed second).
        match c.route(&g, &placement) {
            Err(MappingError::NoPath { .. }) => {}
            other => panic!("expected NoPath, got {other:?}"),
        }
    }

    #[test]
    fn config_words_apply_to_a_soc() {
        let c = ccn(3, 1);
        let g = pipeline(3, 60.0);
        let m = c.map(&g, &kinds(3)).unwrap();
        let mut soc = Soc::new(Mesh::new(3, 1), RouterParams::paper());
        m.apply_direct(&mut soc).expect("all words legal");
        // Each route's hops configured: every hop's output lane is active.
        for route in &m.routes {
            for path in &route.paths {
                for hop in path {
                    let entry = soc
                        .router(hop.node)
                        .config()
                        .entry_of(hop.out_port, hop.out_lane);
                    assert!(entry.active, "hop not configured: {hop:?}");
                }
            }
        }
    }

    #[test]
    fn same_tile_edge_needs_no_lanes() {
        // Force a tiny mesh so two processes share... actually placement
        // is injective; same-tile edges only occur with process count 1.
        // Exercise the branch directly instead.
        let c = ccn(1, 1);
        let mut g = TaskGraph::new("self");
        let a = g.add_process("a");
        let m = c.map(&g, &kinds(1)).unwrap();
        assert_eq!(m.node_of(a), Some(NodeId(0)));
        assert!(m.routes.is_empty());
    }

    #[test]
    fn feasible_graph_spills_nothing_and_matches_strict_map() {
        let c = ccn(3, 3);
        let g = pipeline(5, 60.0);
        let strict = c.map(&g, &kinds(9)).expect("feasible");
        let spilly = c.map_with_spill(&g, &kinds(9)).expect("feasible");
        assert!(spilly.spilled.is_empty());
        assert_eq!(strict, spilly, "same admission path, same mapping");
    }

    #[test]
    fn oversubscribed_line_spills_the_lighter_demand() {
        // The `saturated_line_yields_no_path` scenario under spill
        // admission: the heavy 3-lane demand gets its circuit, the lighter
        // 2-lane demand spills instead of failing the mapping.
        let c = ccn(3, 1);
        let mut g = TaskGraph::new("line");
        let a = g.add_process("a");
        let b = g.add_process("b");
        let d = g.add_process("d");
        let heavy = g.add_edge(a, d, Bandwidth(230.0), TrafficShape::Streaming, "3 lanes");
        let light = g.add_edge(b, d, Bandwidth(155.0), TrafficShape::Streaming, "2 lanes");
        let mesh = c.mesh;
        let placement = vec![
            (a, mesh.node(0, 0)),
            (b, mesh.node(1, 0)),
            (d, mesh.node(2, 0)),
        ];
        let (routes, spilled) = c
            .route_demands(&g, &placement, &[], true)
            .expect("spill mode always succeeds past placement");
        assert_eq!(routes.len(), 1);
        assert!(routes[0].serves(heavy), "heaviest demand keeps its circuit");
        assert_eq!(spilled.len(), 1);
        assert_eq!(spilled[0].edges, vec![light]);
        assert_eq!(spilled[0].src, mesh.node(1, 0));
        assert_eq!(spilled[0].dst, mesh.node(2, 0));
        assert_eq!(spilled[0].reason, SpillReason::NoFreeLanes);
        assert!((spilled[0].demand.value() - 155.0).abs() < 1e-9);
    }

    #[test]
    fn too_wide_demand_spills_with_reason() {
        // 400 Mbit/s needs 5 lanes, a port has 4: strictly an error,
        // spilled under hybrid admission.
        let c = ccn(2, 1);
        let g = pipeline(2, 400.0);
        assert!(c.map(&g, &kinds(2)).is_err());
        let m = c.map_with_spill(&g, &kinds(2)).unwrap();
        assert!(m.routes.is_empty());
        assert_eq!(m.spilled.len(), 1);
        assert_eq!(m.spilled[0].reason, SpillReason::TooWide);
    }

    #[test]
    fn spilled_demand_leaves_allocator_untouched() {
        // A spilled demand must not hold lanes hostage. On a 2x2 mesh:
        // e1 a(0,0)->d(1,0) takes all 4 of d's tile RX lanes; e2
        // b(0,1)->d(1,0) then spills at d's receive side. e3 b->c(1,1)
        // needs 3 of b's 4 TX lanes — it only routes if the spilled e2
        // claimed nothing at b on its way out.
        let c = ccn(2, 2);
        let mut g = TaskGraph::new("untouched");
        let a = g.add_process("a");
        let d = g.add_process("d");
        let b = g.add_process("b");
        let cc = g.add_process("c");
        let e1 = g.add_edge(a, d, Bandwidth(310.0), TrafficShape::Streaming, "4 lanes");
        let e2 = g.add_edge(b, d, Bandwidth(310.0), TrafficShape::Streaming, "4 lanes");
        let e3 = g.add_edge(b, cc, Bandwidth(230.0), TrafficShape::Streaming, "3 lanes");
        let mesh = c.mesh;
        let placement = vec![
            (a, mesh.node(0, 0)),
            (d, mesh.node(1, 0)),
            (b, mesh.node(0, 1)),
            (cc, mesh.node(1, 1)),
        ];
        let (routes, spilled) = c.route_demands(&g, &placement, &[], true).unwrap();
        assert!(routes.iter().any(|r| r.serves(e1)));
        assert_eq!(spilled.len(), 1, "only e2 spills: {spilled:?}");
        assert!(spilled[0].edges.contains(&e2));
        assert!(
            routes.iter().any(|r| r.serves(e3)),
            "e3 must still route: the spilled e2 may not claim b's TX lanes"
        );
    }

    #[test]
    fn streams_number_routes_then_spills() {
        let c = ccn(3, 1);
        let mut g = TaskGraph::new("line");
        let a = g.add_process("a");
        let b = g.add_process("b");
        let d = g.add_process("d");
        g.add_edge(a, d, Bandwidth(230.0), TrafficShape::Streaming, "heavy");
        g.add_edge(b, d, Bandwidth(155.0), TrafficShape::Streaming, "light");
        let m = c.map_with_spill(&g, &kinds(3)).unwrap();
        assert_eq!(m.spilled.len(), 1, "premise: the light edge spills");
        let streams = m.streams();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].id, StreamId(0));
        assert!(!streams[0].spilled);
        assert_eq!(streams[0].route, Some(0));
        assert_eq!(streams[1].id, StreamId(1));
        assert!(streams[1].spilled);
        assert_eq!(streams[1].spill, Some(0));
        assert_eq!(streams[1].src, m.spilled[0].src);
        // Demands round-trip into re-admissible asks.
        let ask = m.stream_demand(StreamId(1)).unwrap();
        assert_eq!(ask.src, m.spilled[0].src);
        assert!((ask.demand.value() - m.spilled[0].demand.value()).abs() < 1e-9);
        assert!(m.stream_demand(StreamId(9)).is_none());
    }

    #[test]
    fn on_tile_routes_are_not_streams() {
        let c = ccn(1, 1);
        let mut g = TaskGraph::new("self");
        let _ = g.add_process("a");
        let m = c.map(&g, &kinds(1)).unwrap();
        assert!(m.streams().is_empty());
    }

    #[test]
    fn admit_stream_reproduces_the_mapped_route() {
        // Admission-at-runtime determinism: the route a freshly admitted
        // stream gets on an empty mesh is bit-identical to the one the
        // whole-application pipeline allocated for the same demand.
        let c = ccn(3, 3);
        let g = pipeline(2, 150.0);
        let m = c.map(&g, &kinds(9)).unwrap();
        let route = &m.routes[0];
        let demand = m.stream_demand(StreamId(0)).unwrap();
        let admitted = c
            .admit_stream(&demand, &mut c.lane_map())
            .expect("empty mesh admits");
        assert_eq!(admitted.paths, route.paths, "same BFS, same lanes");
        assert_eq!(admitted.lane_capacity, route.lane_capacity);
    }

    #[test]
    fn admit_stream_respects_occupied_lanes() {
        // The oversubscribed line: with the heavy 3-lane circuit live, the
        // 2-lane ask has no path; with it released (not occupied), the ask
        // is admitted onto the freed lanes.
        let c = ccn(3, 1);
        let mesh = c.mesh;
        let heavy = c
            .admit_stream(
                &StreamDemand {
                    src: mesh.node(0, 0),
                    dst: mesh.node(2, 0),
                    demand: Bandwidth(230.0),
                },
                &mut c.lane_map(),
            )
            .unwrap();
        let light = StreamDemand {
            src: mesh.node(1, 0),
            dst: mesh.node(2, 0),
            demand: Bandwidth(155.0),
        };
        let mut live = c.lane_map();
        live.occupy(&heavy);
        let before = live.clone();
        assert_eq!(
            c.admit_stream(&light, &mut live),
            Err(AdmitError::NoFreeLanes)
        );
        assert_eq!(live, before, "a refused admission claims nothing");
        let freed = c
            .admit_stream(&light, &mut c.lane_map())
            .expect("freed lanes admit");
        assert_eq!(freed.paths.len(), 2, "155 Mbit/s = 2 lanes at 80 each");
    }

    #[test]
    fn admit_stream_rejects_too_wide() {
        let c = ccn(2, 1);
        let mesh = c.mesh;
        let err = c
            .admit_stream(
                &StreamDemand {
                    src: mesh.node(0, 0),
                    dst: mesh.node(1, 0),
                    demand: Bandwidth(400.0),
                },
                &mut c.lane_map(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            AdmitError::TooWide {
                needed: 5,
                available: 4
            }
        );
    }

    #[test]
    fn bad_edge_bandwidths_are_refused_naming_the_edge() {
        // NaN used to panic in placement; a negative or infinite
        // bandwidth has no lane count. Zero stays legal: one lane.
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            let c = ccn(3, 1);
            let mut g = pipeline(3, 60.0);
            let (a, b) = (ProcessId(0), ProcessId(2));
            let edge = g.add_edge(a, b, Bandwidth(bad), TrafficShape::Streaming, "bad");
            let want = Err(MappingError::InvalidBandwidth { edge });
            assert_eq!(c.map_with_spill(&g, &kinds(3)), want, "{bad}");
            assert_eq!(c.map(&g, &kinds(3)), want, "{bad}");
            assert_eq!(c.map_with_faults(&g, &kinds(3), &[]), want, "{bad}");
        }
        let c = ccn(2, 1);
        let m = c.map(&pipeline(2, 0.0), &kinds(2)).expect("zero maps");
        assert_eq!(m.routes[0].paths.len(), 1, "a zero demand takes one lane");
    }

    #[test]
    fn admit_stream_refuses_bad_demands_and_claims_nothing() {
        let c = ccn(2, 1);
        let mesh = c.mesh;
        let ask = |bw| StreamDemand {
            src: mesh.node(0, 0),
            dst: mesh.node(1, 0),
            demand: Bandwidth(bw),
        };
        let mut lanes = c.lane_map();
        for bad in [f64::NAN, -5.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    c.admit_stream(&ask(bad), &mut lanes),
                    Err(AdmitError::InvalidDemand(bw)) if bw.value().to_bits() == bad.to_bits()
                ),
                "{bad} must be refused"
            );
        }
        assert_eq!(lanes, c.lane_map(), "refusals claim nothing");
        let zero = c.admit_stream(&ask(0.0), &mut lanes).expect("zero admits");
        assert_eq!(zero.paths.len(), 1, "a zero demand takes one lane");
        assert_ne!(lanes, c.lane_map(), "the zero demand's lane is claimed");
    }

    #[test]
    fn more_lanes_than_the_lane_map_tracks_are_refused() {
        let wide = |lanes| {
            Ccn::new(
                Mesh::new(2, 1),
                RouterParams {
                    lanes_per_port: lanes,
                    ..RouterParams::paper()
                },
                MegaHertz(25.0),
            )
        };
        let demand = StreamDemand {
            src: NodeId(0),
            dst: NodeId(1),
            demand: Bandwidth(1.0),
        };
        let c = wide(65);
        let too_many = MappingError::TooManyLanes {
            lanes_per_port: 65,
            max: 64,
        };
        assert_eq!(c.map(&pipeline(2, 1.0), &kinds(2)), Err(too_many.clone()));
        assert_eq!(
            c.map_with_spill(&pipeline(2, 1.0), &kinds(2)),
            Err(too_many)
        );
        assert_eq!(
            c.admit_stream(&demand, &mut c.lane_map()),
            Err(AdmitError::TooManyLanes {
                lanes_per_port: 65,
                max: 64,
            })
        );
        // 64 lanes is the widest a map tracks: an edge may take all of them.
        let c = wide(64);
        let full = c.lane_capacity().value() * 64.0;
        let m = c.map(&pipeline(2, full), &kinds(2)).expect("64 lanes map");
        let lanes: Vec<usize> = m.routes[0].paths.iter().map(|p| p[0].out_lane).collect();
        assert_eq!(lanes, (0..64).collect::<Vec<_>>(), "lowest free first");
        assert!(matches!(
            c.map(&pipeline(2, full + 1.0), &kinds(2)),
            Err(MappingError::EdgeTooWide { needed: 65, .. })
        ));
    }

    #[test]
    fn lane_map_has_lanes_exactly_on_mesh_links() {
        let mesh = Mesh::new(3, 2);
        let c = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let map = c.lane_map();
        for node in mesh.iter() {
            for port in Port::NEIGHBOURS {
                let slot = mesh.link_slot(node, port).unwrap();
                let want = if mesh.neighbour(node, port).is_some() {
                    0b1111
                } else {
                    0
                };
                assert_eq!(map.links[slot], want, "{node:?} {port}");
            }
        }
        assert!(map.tx.iter().chain(&map.rx).all(|&m| m == 0b1111));
    }

    #[test]
    fn kill_link_ignores_pairs_that_name_no_link() {
        let c = ccn(2, 2);
        let mesh = c.mesh;
        let mut map = c.lane_map();
        map.kill_link(mesh.node(0, 0), Port::Tile);
        map.kill_link(mesh.node(0, 0), Port::North); // faces the mesh edge
        map.kill_link(NodeId(mesh.nodes()), Port::East); // off the mesh
        map.kill_link(NodeId(usize::MAX), Port::West);
        assert_eq!(map, c.lane_map(), "non-links are ignored");
        map.kill_link(mesh.node(0, 0), Port::East);
        let slot = mesh.link_slot(mesh.node(0, 0), Port::East).unwrap();
        assert_eq!(map.links[slot], 0, "a real link loses every lane");
        let west = mesh.link_slot(mesh.node(1, 0), Port::West).unwrap();
        assert_eq!(map.links[west], 0b1111, "the reverse direction lives on");
    }

    #[test]
    fn with_lane_capacity_round_trips() {
        let c = ccn(2, 2);
        let rebuilt = Ccn::with_lane_capacity(c.mesh, RouterParams::paper(), c.lane_capacity());
        assert!((rebuilt.lane_capacity().value() - c.lane_capacity().value()).abs() < 1e-6);
    }

    #[test]
    fn affinity_steers_placement() {
        let c = ccn(2, 1);
        let mut g = TaskGraph::new("aff");
        let p = g.add_process_with_affinity("filter", "DSP");
        let q = g.add_process("other");
        g.add_edge(p, q, Bandwidth(1.0), TrafficShape::Streaming, "e");
        // Tile 1 is the DSP.
        let tiles = vec![TileKind::Gpp, TileKind::Dsp];
        let m = c.map(&g, &tiles).unwrap();
        assert_eq!(m.node_of(p), Some(NodeId(1)), "DSP process on DSP tile");
    }
}
