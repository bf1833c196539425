//! Seeded inputs: the `stream` task graph, the `churn` admission
//! schedule and the `fleet` tenant census. The simulator only ever sees
//! what these functions generate, and the same seed always generates the
//! same inputs.

use noc_apps::synthetic::{oversubscribed_line, streaming_pipeline};
use noc_apps::taskgraph::{TaskGraph, TrafficShape};
use noc_apps::workload::PhaseProfile;
use noc_core::params::RouterParams;
use noc_exp::fleet::TenantSpec;
use noc_mesh::ccn::Ccn;
use noc_mesh::controller::{LoadDemotion, ProfiledPromotion};
use noc_mesh::fabric::FabricKind;
use noc_mesh::stream::ProvisionMode;
use noc_mesh::topology::{Mesh, NodeId};
use noc_sim::rng::SplitMix64;
use noc_sim::units::{Bandwidth, MegaHertz};

/// Mesh side of `stream` and `churn`: the largest mesh whose packet
/// header coordinates every backend can address.
pub const MESH_SIDE: usize = 16;

/// Clock of the `stream` and `churn` meshes (the deployment default).
pub const CLOCK: MegaHertz = MegaHertz(100.0);

/// Seeded processes in the `stream` graph; with the [`HOT_PROCESSES`] of
/// the hot spot, about one per tile. With the hot spot's 24 edges that
/// makes 256 streams, as many as the deflection mesh can tag.
pub const STREAM_PROCESSES: usize = 232;

/// Processes of the `stream` graph's fixed hot spot: a ring in which
/// every process sends [`HOT_LANES`] to the next and to the
/// [`HOT_STEP`]th next.
const HOT_PROCESSES: usize = 12;
const HOT_STEP: usize = 3;
/// Demand of a hot-spot edge, in lanes. Each takes two lanes, so every
/// hot process fills its tile's four transmit and four receive lanes.
const HOT_LANES: f64 = 1.2;

/// Offered load of one `stream` edge, in lanes: from a fifth of a lane
/// to nearly a full lane, skewed towards light streams (the cube of a
/// uniform draw) so that a few heavy streams saturate their lanes while
/// the network interposer of the chiplet grid is not oversubscribed as a
/// whole. Under uniform demands it is, and its queues then grow for the
/// whole run, so every latency tail measures the run length instead.
const STREAM_LANES: (f64, f64) = (0.2, 0.95);

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// `n` draws in `[0, 1)`, one in each of `n` equal strata, ascending.
fn stratified(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 + uniform(rng, 0.0, 1.0)) / n as f64)
        .collect()
}

/// `n` draws in `[0, 1)`: each run of `block` consecutive draws holds one
/// per stratum of `block` equal strata, in random order.
fn block_stratified(rng: &mut SplitMix64, n: usize, block: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n + block);
    while out.len() < n {
        let mut draws = stratified(rng, block);
        shuffle(rng, &mut draws);
        out.extend(draws);
    }
    out.truncate(n);
    out
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        items.swap(i, j);
    }
}

/// One lane's payload bandwidth on the `stream`/`churn` mesh.
pub fn lane_capacity() -> Bandwidth {
    Ccn::new(
        Mesh::new(MESH_SIDE, MESH_SIDE),
        RouterParams::paper(),
        CLOCK,
    )
    .lane_capacity()
}

/// The `stream` application. Every seeded process sends one stream to a
/// random partner, at a random demand within [`STREAM_LANES`]. No process
/// receives from more partners than a tile has receive lanes, so the
/// CCN never has to co-locate processes and each takes a tile of its own.
///
/// The graph also holds a fixed hot spot (see [`HOT_PROCESSES`]). Each hot
/// process carries 4.8 lanes, more than any seeded one can (one edge out
/// and at most four in, each below 0.95 lane), so the CCN places the hot
/// spot first, at the mesh corner, and routes its two-lane circuits
/// before any seeded stream.
/// Their lane demand sends one circuit between two tiles of one chiplet
/// of the 2×2 grid on a detour through the neighbouring chiplet, on every
/// seed. That route shape is what strands words on the chiplet grid;
/// seeded streams alone take such a detour on about four seeds in five.
pub fn stream_graph(seed: u64) -> TaskGraph {
    let lane = lane_capacity().value();
    let max_in = RouterParams::paper().lanes_per_port;
    let mut rng = SplitMix64::new(seed ^ 0x5743_5245_414d);
    let mut g = TaskGraph::new(format!("stream-{seed}"));
    let hot: Vec<_> = (0..HOT_PROCESSES)
        .map(|i| g.add_process(format!("h{i}")))
        .collect();
    for (i, &src) in hot.iter().enumerate() {
        for step in [1, HOT_STEP] {
            let j = (i + step) % HOT_PROCESSES;
            g.add_edge(
                src,
                hot[j],
                Bandwidth(lane * HOT_LANES),
                TrafficShape::Streaming,
                format!("h{i}->h{j}"),
            );
        }
    }
    let procs: Vec<_> = (0..STREAM_PROCESSES)
        .map(|i| g.add_process(format!("p{i}")))
        .collect();
    // Every seed offers the same total load, spread differently.
    let mut draws = stratified(&mut rng, STREAM_PROCESSES);
    shuffle(&mut rng, &mut draws);
    let mut fan_in = vec![0; STREAM_PROCESSES];
    for (i, &src) in procs.iter().enumerate() {
        let j = loop {
            let j = rng.below(STREAM_PROCESSES as u32) as usize;
            if j != i && fan_in[j] < max_in {
                break j;
            }
        };
        fan_in[j] += 1;
        let skewed = draws[i].powi(3);
        let demand = lane * (STREAM_LANES.0 + (STREAM_LANES.1 - STREAM_LANES.0) * skewed);
        g.add_edge(
            src,
            procs[j],
            Bandwidth(demand),
            TrafficShape::Streaming,
            format!("p{i}->p{j}"),
        );
    }
    g
}

/// One admission request of the `churn` schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Cycle at which the stream is requested.
    pub at: u64,
    pub src: NodeId,
    pub dst: NodeId,
    /// Demand in lanes.
    pub lanes: f64,
    /// Cycles from admission to its `ReleaseMode::Drain` release.
    pub lifetime: u64,
}

/// Cycles between `churn` arrivals, on average.
const CHURN_GAP: f64 = 10.0;
/// Lifetime range of a `churn` stream, in cycles. With [`CHURN_GAP`]
/// this keeps about eighty streams live at once.
const CHURN_LIFETIME: (u64, u64) = (400, 1200);
/// Demand range of a `churn` stream, in lanes: one or two lanes each.
const CHURN_LANES: (f64, f64) = (0.2, 1.8);

/// Arrivals per block of the `churn` schedule over which demands and
/// lifetimes are stratified.
const CHURN_BLOCK: usize = 16;

/// The `churn` schedule over `span` cycles of a `side × side` mesh: one
/// arrival per [`CHURN_GAP`] cycles on average, each jittered within its
/// slot. Within every run of as many arrivals as the mesh has tiles,
/// sources and destinations are random permutations of the tiles (never
/// a tile to itself), so live streams rarely share an endpoint. Demands
/// and lifetimes are stratified over every block of [`CHURN_BLOCK`]
/// arrivals and shuffled within it. Every seed thus asks for the same
/// work, arranged differently — also over the first 256 arrivals, all
/// that the packet and deflection meshes admit.
pub fn churn_schedule(seed: u64, side: usize, span: u64) -> Vec<Arrival> {
    let nodes = side * side;
    let n = (span as f64 / CHURN_GAP) as usize;
    let mut rng = SplitMix64::new(seed ^ 0x0043_4855_524e);
    let lanes = block_stratified(&mut rng, n, CHURN_BLOCK);
    let lifetimes = block_stratified(&mut rng, n, CHURN_BLOCK);
    let mut endpoints = Vec::with_capacity(n + nodes);
    while endpoints.len() < n {
        let mut src: Vec<usize> = (0..nodes).collect();
        let mut dst = src.clone();
        shuffle(&mut rng, &mut src);
        while {
            shuffle(&mut rng, &mut dst);
            src.iter().zip(&dst).any(|(s, d)| s == d)
        } {}
        endpoints.extend(src.into_iter().zip(dst));
    }
    (0..n)
        .map(|i| {
            let at = ((i as f64 + uniform(&mut rng, 0.0, 1.0)) * CHURN_GAP) as u64;
            let (lo, hi) = CHURN_LIFETIME;
            Arrival {
                at,
                src: NodeId(endpoints[i].0),
                dst: NodeId(endpoints[i].1),
                lanes: CHURN_LANES.0 + (CHURN_LANES.1 - CHURN_LANES.0) * lanes[i],
                lifetime: lo + ((hi - lo) as f64 * lifetimes[i]) as u64,
            }
        })
        .collect()
}

/// Tenants in the `fleet` census.
pub const FLEET_TENANTS: usize = 640;

/// Stage counts and per-edge rates (Mb/s) of the census pipelines.
const PIPELINE_STAGES: [usize; 3] = [2, 3, 4];
const PIPELINE_RATES: [u16; 4] = [40, 50, 60, 70];

/// Offered-load profiles the census draws from.
const PROFILES: [PhaseProfile; 4] = [
    PhaseProfile::Steady,
    PhaseProfile::BurstyOnOff {
        period: 256,
        on: 192,
    },
    PhaseProfile::DiurnalRamp {
        period: 512,
        floor: 0.3,
    },
    PhaseProfile::HotspotFlip {
        period: 128,
        background: 0.2,
    },
];

/// Tenant flavours of the census.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavour {
    /// A pipeline of `stages` stages at `rate` Mb/s per edge on a flat
    /// 3×3 mesh of `kind`.
    Pipeline {
        kind: FabricKind,
        stages: usize,
        rate: u16,
    },
    /// The oversubscribed 3×1 line on the hybrid, BE-delivered.
    OversubscribedHybrid,
    /// The oversubscribed 3×1 line on the deflection mesh, BE-delivered.
    OversubscribedDeflection,
    /// A six-stage pipeline on a 2×2 chiplet grid of hybrid planes.
    Chiplet,
    /// The oversubscribed line, bursty, under raw `LoadDemotion`
    /// chained to `ProfiledPromotion`: the controller decides.
    Controlled,
}

/// The `fleet` census: [`FLEET_TENANTS`] tenant specs. A tenth each are
/// the four flavours other than pipelines, each with every profile
/// equally often; the other six tenths are pipelines, with every
/// combination of backend, stage count, rate and profile equally often.
/// Every seed thus runs the same tenants, in its own order and with its
/// own tenant seeds: per-tenant results vary only that much between
/// seeds, and so does every fleet-wide figure.
pub fn fleet_census(seed: u64) -> Vec<TenantSpec> {
    use Flavour::*;
    let tenth = FLEET_TENANTS / 10;
    let mut mix = Vec::with_capacity(FLEET_TENANTS);
    for flavour in [
        OversubscribedHybrid,
        OversubscribedDeflection,
        Chiplet,
        Controlled,
    ] {
        mix.extend((0..tenth).map(|i| (flavour, PROFILES[i % PROFILES.len()])));
    }
    let (kinds, stages) = (FabricKind::ALL.len(), PIPELINE_STAGES.len());
    let shapes = kinds * stages * PIPELINE_RATES.len();
    for i in 0..FLEET_TENANTS - mix.len() {
        let pipeline = Pipeline {
            kind: FabricKind::ALL[i % kinds],
            stages: PIPELINE_STAGES[i / kinds % stages],
            rate: PIPELINE_RATES[i / (kinds * stages) % PIPELINE_RATES.len()],
        };
        mix.push((pipeline, PROFILES[i / shapes % PROFILES.len()]));
    }
    let mut rng = SplitMix64::new(seed ^ 0x0046_4c45_4554);
    shuffle(&mut rng, &mut mix);
    let slow = MegaHertz(25.0);
    let lane = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), slow).lane_capacity();
    mix.into_iter()
        .enumerate()
        .map(|(i, (flavour, profile))| {
            let name = format!("tenant-{i:04}");
            match flavour {
                Pipeline { kind, stages, rate } => {
                    let graph = streaming_pipeline(stages, Bandwidth(f64::from(rate)));
                    TenantSpec::new(name, graph)
                        .mesh(3, 3)
                        .fabric(kind)
                        .workload(profile)
                }
                OversubscribedHybrid | OversubscribedDeflection => {
                    let kind = if flavour == OversubscribedHybrid {
                        FabricKind::Hybrid
                    } else {
                        FabricKind::Deflection
                    };
                    TenantSpec::new(name, oversubscribed_line(lane))
                        .mesh(3, 1)
                        .clock(slow)
                        .fabric(kind)
                        .spill(true)
                        .provisioning(ProvisionMode::BeDelivered)
                        .workload(profile)
                }
                Chiplet => TenantSpec::new(name, streaming_pipeline(6, Bandwidth(60.0)))
                    .mesh(4, 4)
                    .fabric(FabricKind::Hybrid)
                    .chiplets(2, 2)
                    .workload(profile),
                Controlled => TenantSpec::new(name, oversubscribed_line(lane))
                    .mesh(3, 1)
                    .clock(slow)
                    .fabric(FabricKind::Hybrid)
                    .spill(true)
                    .workload(PhaseProfile::BurstyOnOff {
                        period: 256,
                        on: 192,
                    })
                    .policy(Box::new(
                        LoadDemotion::new(slow, 0.25).then(Box::new(ProfiledPromotion)),
                    ))
                    .tick_window(64),
            }
            .seed(rng.next_u64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn census_text(seed: u64) -> Vec<String> {
        fleet_census(seed)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(stream_graph(7), stream_graph(7));
        assert_eq!(churn_schedule(7, 16, 4000), churn_schedule(7, 16, 4000));
        assert_eq!(census_text(7), census_text(7));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(stream_graph(7), stream_graph(8));
        assert_ne!(churn_schedule(7, 16, 4000), churn_schedule(8, 16, 4000));
        assert_ne!(census_text(7), census_text(8));
    }

    #[test]
    fn stream_graph_has_one_stream_per_process_within_demand_range() {
        let g = stream_graph(3);
        let lane = lane_capacity().value();
        let processes = HOT_PROCESSES + STREAM_PROCESSES;
        assert_eq!(g.process_count(), processes);
        assert_eq!(g.edge_count(), 2 * HOT_PROCESSES + STREAM_PROCESSES);
        let mut fan_in = vec![0; processes];
        for (_, e) in g.edges() {
            let lanes = e.bandwidth.value() / lane;
            if e.src.0 < HOT_PROCESSES {
                assert!(e.dst.0 < HOT_PROCESSES);
                assert!((lanes - HOT_LANES).abs() < 1e-9, "{lanes}");
            } else {
                assert!(e.dst.0 >= HOT_PROCESSES);
                assert!((STREAM_LANES.0..STREAM_LANES.1).contains(&lanes), "{lanes}");
            }
            assert_ne!(e.src, e.dst);
            fan_in[e.dst.0] += 1;
        }
        assert!(fan_in
            .iter()
            .all(|&n| n <= RouterParams::paper().lanes_per_port));
    }

    /// Chiplet of `node` in the 2×2 grid over the `stream` mesh.
    fn chiplet(node: NodeId) -> (usize, usize) {
        let half = MESH_SIDE / 2;
        ((node.0 % MESH_SIDE) / half, (node.0 / MESH_SIDE) / half)
    }

    #[test]
    fn every_stream_graph_routes_a_circuit_through_another_chiplet() {
        let mesh = Mesh::new(MESH_SIDE, MESH_SIDE);
        let ccn = Ccn::new(mesh, RouterParams::paper(), CLOCK);
        let kinds = noc_mesh::tile::default_tile_kinds(&mesh);
        for seed in [1, 30, 99] {
            let mapping = ccn
                .map_with_spill(&stream_graph(seed), &kinds)
                .expect("the stream graph maps with spill");
            let detours = mapping.routes.iter().filter(|r| {
                let (Some(src), Some(dst)) = (r.src(), r.dst()) else {
                    return false;
                };
                chiplet(src) == chiplet(dst)
                    && r.paths
                        .iter()
                        .flatten()
                        .any(|h| chiplet(h.node) != chiplet(src))
            });
            assert!(detours.count() > 0, "seed {seed}");
        }
    }

    #[test]
    fn churn_schedule_is_ordered_and_well_formed() {
        let s = churn_schedule(11, 16, 8000);
        assert_eq!(s.len(), (8000.0 / CHURN_GAP) as usize);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        for a in &s {
            assert!(a.at < 8000 && a.src != a.dst && a.src.0 < 256 && a.dst.0 < 256);
            assert!((CHURN_LANES.0..CHURN_LANES.1).contains(&a.lanes));
            assert!((CHURN_LIFETIME.0..CHURN_LIFETIME.1).contains(&a.lifetime));
        }
    }

    #[test]
    fn every_churn_block_spans_every_demand_stratum() {
        let s = churn_schedule(3, 16, 8000);
        for block in s.chunks_exact(CHURN_BLOCK) {
            let mut strata: Vec<usize> = block
                .iter()
                .map(|a| {
                    let u = (a.lanes - CHURN_LANES.0) / (CHURN_LANES.1 - CHURN_LANES.0);
                    (u * CHURN_BLOCK as f64) as usize
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..CHURN_BLOCK).collect::<Vec<_>>());
        }
    }

    #[test]
    fn census_keeps_every_flavour_at_a_tenth() {
        let census = fleet_census(5);
        assert_eq!(census.len(), FLEET_TENANTS);
        let chiplets = census.iter().filter(|s| s.chiplets.is_some()).count();
        let controlled = census.iter().filter(|s| s.policy.is_some()).count();
        let be = census
            .iter()
            .filter(|s| s.provisioning == ProvisionMode::BeDelivered)
            .count();
        assert_eq!(chiplets, FLEET_TENANTS / 10);
        assert_eq!(controlled, FLEET_TENANTS / 10);
        assert_eq!(be, FLEET_TENANTS / 5);
        let pipelines = census.iter().filter(|s| s.mesh == (3, 3));
        for kind in FabricKind::ALL {
            let n = pipelines.clone().filter(|s| s.kind == kind).count();
            assert_eq!(n, FLEET_TENANTS * 6 / 10 / FabricKind::ALL.len());
        }
    }

    #[test]
    fn every_seed_runs_the_same_tenants() {
        let tenants = |seed| {
            let mut specs: Vec<String> = fleet_census(seed)
                .into_iter()
                .map(|mut s| {
                    s.name.clear();
                    s.seed = 0;
                    format!("{s:?}")
                })
                .collect();
            specs.sort();
            specs
        };
        assert_eq!(tenants(1), tenants(2));
    }
}
