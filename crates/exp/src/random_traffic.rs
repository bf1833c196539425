//! Uniform-random best-effort traffic on the packet-switched mesh: the
//! classic NoC load-latency curve.
//!
//! Section 2 of the paper: "The routers are benchmarked using a local area
//! network approach where the benchmarks use random traffic patterns."
//! [`uniform_random`] applies that methodology to [`PacketFabric`], the
//! plane the paper reserves for its best-effort share: every node offers
//! packets at a fixed rate, each to a uniformly random other node.
//!
//! Traffic rides the fabric's ordinary stream sessions. Every ordered
//! (source, destination) pair is one admitted stream — 240 of the head
//! flit's 256 stream tags on a 4×4 mesh — and a packet is `packet_words`
//! words injected on its stream at once, which the fabric packs into
//! exactly one wormhole. Latency is the per-word service time the
//! fabric's stream telemetry records.

use noc_mesh::ccn::Mapping;
use noc_mesh::fabric::{Fabric, PacketFabric};
use noc_mesh::stream::StreamDemand;
use noc_mesh::topology::Mesh;
use noc_packet::params::PacketParams;
use noc_sim::rng::SplitMix64;
use noc_sim::stats::LatencyHistogram;
use noc_sim::time::CycleCount;
use noc_sim::units::Bandwidth;

/// What one uniform-random run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomTrafficRun {
    /// Payload words offered over the run.
    pub offered_words: u64,
    /// Payload words delivered to their destination tiles.
    pub delivered_words: u64,
    /// Delivered packets per node per cycle.
    pub throughput: f64,
    /// Per-word service latency, injection to delivery, over every stream.
    pub latency: LatencyHistogram,
    /// Flits still queued at the tile inputs when the run ends; it grows
    /// without bound past saturation.
    pub backlog: usize,
}

/// Run `cycles` cycles of uniform-random traffic on a paper-parameter
/// [`PacketFabric`] over `mesh`: each cycle every node generates a
/// `packet_words`-word packet with probability `packet_rate`, addressed to
/// a uniformly random other node. The same seed repeats the run exactly.
///
/// # Panics
/// Panics when `packet_words` is zero, or when the mesh has more ordered
/// node pairs than the head flit's 256 stream tags (more than 16 nodes).
pub fn uniform_random(
    mesh: Mesh,
    packet_rate: f64,
    packet_words: usize,
    cycles: CycleCount,
    seed: u64,
) -> RandomTrafficRun {
    let mut fabric = PacketFabric::new(mesh, PacketParams::paper(), packet_words);
    let no_streams = Mapping {
        placement: Vec::new(),
        routes: Vec::new(),
        spilled: Vec::new(),
        lane_capacity: Bandwidth(0.0),
    };
    fabric
        .provision(&no_streams)
        .expect("an empty plan provisions");
    let nodes = mesh.nodes();
    // `streams[src * nodes + dst]`: the session of each ordered pair.
    let streams: Vec<_> = mesh
        .iter()
        .flat_map(|src| mesh.iter().map(move |dst| (src, dst)))
        .map(|(src, dst)| {
            let demand = StreamDemand {
                src,
                dst,
                demand: Bandwidth(0.0),
            };
            (src != dst).then(|| fabric.admit(&demand).expect("one stream tag per pair"))
        })
        .collect();

    let mut rng = SplitMix64::new(seed);
    let mut packet = vec![0u16; packet_words];
    let mut offered_words = 0;
    for _ in 0..cycles {
        for src in 0..nodes {
            if !rng.chance(packet_rate) {
                continue;
            }
            let mut dst = rng.below(nodes as u32) as usize;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            packet.fill_with(|| rng.next_u16());
            let stream = streams[src * nodes + dst].expect("src and dst differ");
            fabric.inject_stream(stream, &packet);
            offered_words += packet_words as u64;
        }
        fabric.step();
    }

    let mut latency = LatencyHistogram::new();
    let mut delivered_words = 0;
    for s in fabric.stream_stats() {
        latency.merge(&s.latency);
        delivered_words += s.delivered_words;
    }
    let packets = delivered_words as f64 / packet_words as f64;
    RandomTrafficRun {
        offered_words,
        delivered_words,
        throughput: packets / (cycles.max(1) as f64 * nodes as f64),
        latency,
        backlog: fabric.ingress_backlog(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rate: f64, cycles: CycleCount, seed: u64) -> RandomTrafficRun {
        uniform_random(Mesh::new(3, 3), rate, 4, cycles, seed)
    }

    #[test]
    fn light_load_delivers_everything_quickly() {
        let r = run(0.02, 3000, 1);
        assert!(r.offered_words > 100 * 4, "{} words", r.offered_words);
        let delivered = r.delivered_words as f64 / r.offered_words as f64;
        assert!(
            delivered > 0.95,
            "light load should deliver ~all: {delivered:.2}"
        );
        // Near the zero-load floor: a few cycles per hop plus
        // serialisation.
        let mean = r.latency.mean();
        assert!(
            mean < 40.0,
            "mean latency {mean:.1} too high for light load"
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let light = run(0.01, 3000, 7).latency.mean();
        let heavy = run(0.12, 3000, 7).latency.mean();
        assert!(
            heavy > light * 1.3,
            "congestion must show: light {light:.1}, heavy {heavy:.1}"
        );
    }

    #[test]
    fn saturation_grows_backlog() {
        let r = run(0.5, 2000, 3);
        assert!(
            r.backlog > 100,
            "past saturation the source queues must grow: {}",
            r.backlog
        );
    }

    #[test]
    fn no_packets_no_latency_samples() {
        let r = uniform_random(Mesh::new(2, 2), 0.0, 4, 500, 9);
        assert_eq!(r.offered_words, 0);
        assert_eq!(r.latency.count(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(0.05, 1500, 42), run(0.05, 1500, 42));
        assert_ne!(run(0.05, 1500, 42), run(0.05, 1500, 43));
    }
}
