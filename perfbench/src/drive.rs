//! Driving one backend through the `Fabric` trait: set-up, the per-stream
//! offered load, delivery collection with the in-order check, the drain,
//! and the read-out shared by `stream` and `churn`.

use crate::gen::{CLOCK, MESH_SIDE};
use crate::trace::{Op, Tracer};
use noc_apps::taskgraph::TaskGraph;
use noc_core::params::RouterParams;
use noc_mesh::ccn::{Ccn, Mapping};
use noc_mesh::chiplet::ChipletFabric;
use noc_mesh::deployment::Deployment;
use noc_mesh::fabric::{EnergyModel, Fabric, FabricKind};
use noc_mesh::stream::{ProvisionMode, StreamId, StreamPlane};
use noc_mesh::tile::default_tile_kinds;
use noc_mesh::topology::Mesh;
use noc_sim::par::ParPolicy;
use noc_sim::rng::SplitMix64;
use noc_sim::stats::LatencyHistogram;
use noc_sim::units::{Bandwidth, MegaHertz};
use std::collections::BTreeSet;

/// Cycles between two collections of delivered words.
pub const COLLECT_EVERY: u64 = 64;
/// The drain gives up after this many cycles in which nothing anywhere
/// was delivered; what is still outstanding then counts as undelivered.
pub const DRAIN_IDLE: u64 = 256;
/// Hard limit on drain cycles.
pub const DRAIN_MAX: u64 = 60_000;

/// A backend under test: one of the flat `FabricKind::ALL` meshes, or a
/// 2×2 chiplet grid of hybrid planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Flat(FabricKind),
    Chiplet,
}

/// Every backend, in report order: the flat meshes of `FabricKind::ALL`,
/// then the chiplet grid.
pub fn backends() -> Vec<Backend> {
    FabricKind::ALL
        .iter()
        .map(|&k| Backend::Flat(k))
        .chain([Backend::Chiplet])
        .collect()
}

/// Report labels of [`backends`], index for index.
pub fn backend_labels() -> Vec<&'static str> {
    backends().into_iter().map(Backend::label).collect()
}

impl Backend {
    /// Short label used in metric names: the first word of the kind's
    /// display name (`circuit-switched` is `circuit`), or `chiplet`.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Flat(kind) => kind.name().split('-').next().unwrap_or(kind.name()),
            Backend::Chiplet => "chiplet",
        }
    }

    /// Construct the backend over `mesh` as `DeploymentBuilder::build`
    /// does, under `policy`. Flat meshes come from the builder itself
    /// (given an empty application); the chiplet grid is built with the
    /// `DeploymentBuilder` defaults directly, so its NoI telemetry stays
    /// readable.
    pub fn build(self, mesh: Mesh, policy: ParPolicy) -> Net {
        match self {
            Backend::Flat(kind) => {
                let empty = TaskGraph::new("empty");
                let dep = Deployment::builder(&empty)
                    .mesh_topology(mesh)
                    .fabric(kind)
                    .parallelism(policy)
                    .build()
                    .expect("an empty application deploys on every backend");
                Net::Flat(dep.into_parts().0)
            }
            Backend::Chiplet => {
                let mut fabric = ChipletFabric::paper(mesh, 2, 2, FabricKind::Hybrid);
                fabric.set_parallelism(policy);
                Net::Chiplet(Box::new(fabric))
            }
        }
    }
}

/// A constructed backend.
pub enum Net {
    Flat(Box<dyn Fabric>),
    Chiplet(Box<ChipletFabric>),
}

impl Net {
    pub fn fabric(&mut self) -> &mut dyn Fabric {
        match self {
            Net::Flat(f) => f.as_mut(),
            Net::Chiplet(c) => c.as_mut(),
        }
    }

    /// NoI queueing cycles and live cross-chiplet streams, on the
    /// chiplet grid.
    pub fn noi(&self) -> Option<(u64, usize)> {
        match self {
            Net::Flat(_) => None,
            Net::Chiplet(c) => Some((c.noi_wait_cycles(), c.cross_streams())),
        }
    }
}

/// Set-up: map `graph` with the CCN (spilling what circuit lanes cannot
/// take), build `backend` under `policy` and provision the mapping
/// instantly, each call in its span. Returns the fabric, the mapping and
/// the stream handles the fabric serves.
pub fn set_up(
    graph: &TaskGraph,
    backend: Backend,
    policy: ParPolicy,
    tr: &mut Tracer,
) -> (Net, Mapping, Vec<StreamId>) {
    let mesh = Mesh::new(MESH_SIDE, MESH_SIDE);
    let ccn = Ccn::new(mesh, RouterParams::paper(), CLOCK);
    let setup = tr.begin(Op::Setup);
    let mapping = tr
        .call(Op::CcnMap, || {
            ccn.map_with_spill(graph, &default_tile_kinds(&mesh))
        })
        .expect("the benchmark's applications map with spill");
    let mut net = tr.call(Op::Build, || backend.build(mesh, policy));
    let fabric = net.fabric();
    let ids = tr
        .call(Op::Provision, || {
            fabric.provision_with(&mapping, ProvisionMode::Instant)
        })
        .expect("every backend provisions a spill mapping");
    tr.end(setup);
    (net, mapping, ids)
}

/// Words per cycle that carry `demand` at `clock` (16-bit words).
pub fn words_per_cycle(demand: Bandwidth, clock: MegaHertz) -> f64 {
    demand.value() / (clock.value() * 16.0)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Round function of the payload code: one byte of a keyed hash.
fn feistel_round(half: u8, key: u64, round: u32) -> u8 {
    let x = (key.rotate_left(16 * round) ^ u64::from(half)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (x >> 56) as u8
}

/// Word `seq` of the stream keyed by `key`: a keyed permutation of the
/// 16-bit sequence numbers (a four-round Feistel network), so payloads
/// look random while every word names its place in its stream.
pub fn encode(seq: u16, key: u64) -> u16 {
    let (mut l, mut r) = ((seq >> 8) as u8, seq as u8);
    for round in 0..4 {
        (l, r) = (r, l ^ feistel_round(r, key, round));
    }
    u16::from(l) << 8 | u16::from(r)
}

/// The sequence number that [`encode`] turned into `word`.
pub fn decode(word: u16, key: u64) -> u16 {
    let (mut l, mut r) = ((word >> 8) as u8, word as u8);
    for round in (0..4).rev() {
        (l, r) = (r ^ feistel_round(l, key, round), l);
    }
    u16::from(l) << 8 | u16::from(r)
}

/// One stream session: its open-loop offered load and its delivery
/// ledger. The `n`th accepted word is `encode(n, key)`, so each
/// delivered word decodes to its sequence number.
pub struct Session {
    pub id: StreamId,
    /// Offered words per cycle.
    rate: f64,
    acc: f64,
    key: u64,
    /// Offered load is on (not yet released).
    pub open: bool,
    pub offered: u64,
    pub accepted: u64,
    pub delivered: u64,
    /// Every sequence number below this one has been delivered.
    next: u64,
    /// Sequence numbers delivered ahead of `next`.
    early: BTreeSet<u64>,
    /// FNV-1a of the delivered words, in order.
    hash: u64,
    /// Words delivered before an earlier accepted word.
    pub reordered: u64,
    /// Words delivered that were never accepted, or more often than
    /// accepted.
    pub foreign: u64,
}

impl Session {
    /// A session offering `rate` words per cycle of payload keyed by
    /// `word_seed`.
    pub fn new(id: StreamId, rate: f64, word_seed: u64) -> Session {
        Session {
            id,
            rate,
            acc: 0.0,
            key: SplitMix64::new(word_seed).next_u64(),
            open: true,
            offered: 0,
            accepted: 0,
            delivered: 0,
            next: 0,
            early: BTreeSet::new(),
            hash: FNV_BASIS,
            reordered: 0,
            foreign: 0,
        }
    }

    /// Accepted words not yet delivered.
    pub fn outstanding(&self) -> u64 {
        self.accepted - self.next - self.early.len() as u64
    }

    /// Match delivered `word` against the accepted ones: the oldest
    /// outstanding is in order, a later outstanding one is reordered,
    /// anything else is foreign.
    fn receive(&mut self, word: u16) {
        let seq = u64::from(decode(word, self.key));
        if seq == self.next {
            self.next += 1;
            while self.early.remove(&self.next) {
                self.next += 1;
            }
        } else if seq > self.next && seq < self.accepted && self.early.insert(seq) {
            self.reordered += 1;
        } else {
            self.foreign += 1;
        }
        self.hash = fnv(self.hash, &word.to_le_bytes());
        self.delivered += 1;
    }
}

/// The sessions of one backend pass.
#[derive(Default)]
pub struct Ledger {
    pub sessions: Vec<Session>,
}

impl Ledger {
    /// Offer this cycle's due words on every open session, one
    /// `inject_stream` call per word, as `Deployment::run` does.
    pub fn offer(&mut self, fabric: &mut dyn Fabric, tr: &mut Tracer) {
        for s in self.sessions.iter_mut().filter(|s| s.open) {
            s.acc += s.rate;
            while s.acc + 1e-9 >= 1.0 {
                s.acc -= 1.0;
                let seq = u16::try_from(s.accepted).expect("a session carries under 65536 words");
                let word = encode(seq, s.key);
                s.offered += 1;
                if tr.call(Op::Inject, || fabric.inject_stream(s.id, &[word])) == 1 {
                    s.accepted += 1;
                }
            }
        }
    }

    /// Take every session's delivered words and match each against the
    /// words that session had accepted. Returns the words collected.
    pub fn collect(&mut self, fabric: &mut dyn Fabric, tr: &mut Tracer) -> u64 {
        let mut got = 0;
        for s in self.sessions.iter_mut().filter(|s| s.outstanding() > 0) {
            let words = tr.call(Op::DrainStream, || fabric.drain_stream(s.id));
            for &w in &words {
                s.receive(w);
            }
            got += words.len() as u64;
        }
        got
    }

    pub fn outstanding(&self) -> u64 {
        self.sessions.iter().map(Session::outstanding).sum()
    }

    /// Step one cycle of offered load, collecting every
    /// [`COLLECT_EVERY`] cycles.
    pub fn cycle(&mut self, fabric: &mut dyn Fabric, tr: &mut Tracer, cycle: u64) {
        self.offer(fabric, tr);
        tr.call(Op::Step, || fabric.step());
        if (cycle + 1).is_multiple_of(COLLECT_EVERY) {
            self.collect(fabric, tr);
        }
    }

    /// Flush injection staging and step until every accepted word is
    /// delivered, or nothing has arrived for [`DRAIN_IDLE`] cycles.
    /// Returns the cycles stepped.
    pub fn drain(&mut self, fabric: &mut dyn Fabric, tr: &mut Tracer) -> u64 {
        fabric.finish_injection();
        self.collect(fabric, tr);
        let (mut spent, mut idle) = (0, 0);
        while self.outstanding() > 0 && idle < DRAIN_IDLE && spent < DRAIN_MAX {
            for _ in 0..COLLECT_EVERY {
                tr.call(Op::Step, || fabric.step());
            }
            spent += COLLECT_EVERY;
            idle = if self.collect(fabric, tr) > 0 {
                0
            } else {
                idle + COLLECT_EVERY
            };
        }
        spent
    }

    /// FNV-1a over every session's id and delivered-word hash.
    pub fn payload_hash(&self) -> u64 {
        self.sessions.iter().fold(FNV_BASIS, |h, s| {
            let h = fnv(h, &s.id.0.to_le_bytes());
            fnv(h, &s.hash.to_le_bytes())
        })
    }
}

/// What one backend pass measured and read out.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host nanoseconds of set-up: mapping, construction, provisioning.
    pub setup_ns: u64,
    /// Host nanoseconds of offered load plus drain.
    pub run_ns: u64,
    /// Simulated cycles of the drain.
    pub drain_cycles: u64,
    pub offered: u64,
    pub accepted: u64,
    pub delivered: u64,
    pub admissions: u64,
    pub admitted: u64,
    pub refused_capacity: u64,
    pub refused_unsupported: u64,
    /// Releases the fabric refused (a defect: each release targets a
    /// live, undrained stream).
    pub release_errors: u64,
    /// Words delivered ahead of an earlier word of their stream.
    pub reordered: u64,
    /// Words delivered that their stream never accepted (or duplicates).
    pub foreign: u64,
    /// The fabric's own per-stream counters agree with the ledger.
    pub telemetry_agrees: bool,
    pub payload_hash: u64,
    pub energy_fj: f64,
    pub gt: LatencyHistogram,
    pub be: LatencyHistogram,
    /// `reconfig_cycles` of every session.
    pub reconfig: Vec<u64>,
    /// NoI queueing cycles and live cross streams (chiplet grid only).
    pub noi: Option<(u64, usize)>,
    pub streams: usize,
}

impl Pass {
    /// Accepted words still undelivered after the drain.
    pub fn undelivered(&self) -> u64 {
        self.accepted - self.delivered
    }

    /// Words offered that `inject_stream` did not accept.
    pub fn refused_words(&self) -> u64 {
        self.offered - self.accepted
    }

    /// Operations that failed: refused admissions, refused words,
    /// undelivered words and words delivered out of order.
    pub fn failed(&self) -> u64 {
        self.refused() + self.refused_words() + self.undelivered() + self.reordered
    }

    pub fn refused(&self) -> u64 {
        self.refused_capacity + self.refused_unsupported
    }

    /// Payload words delivered per host second of offered load and drain.
    pub fn words_per_s(&self) -> f64 {
        self.delivered as f64 / (self.run_ns as f64 * 1e-9)
    }
}

/// Fill `pass` from the ledger and the fabric's telemetry and energy,
/// each call inside its span.
pub fn read_out(
    pass: &mut Pass,
    ledger: &Ledger,
    net: &mut Net,
    clock: MegaHertz,
    tr: &mut Tracer,
) {
    let fabric = net.fabric();
    let stats = tr.call(Op::Stats, || fabric.stream_stats());
    let model = EnergyModel::calibrated(clock);
    pass.energy_fj = tr.call(Op::Energy, || fabric.total_energy(&model)).value();
    pass.noi = net.noi();
    for s in &stats {
        if s.plane == StreamPlane::Circuit {
            pass.gt.merge(&s.latency);
        } else {
            pass.be.merge(&s.latency);
        }
        pass.reconfig.push(s.reconfig_cycles);
    }
    pass.streams = stats.len();
    let mut ledger_counts: Vec<(u32, u64, u64)> = ledger
        .sessions
        .iter()
        .map(|s| (s.id.0, s.accepted, s.delivered))
        .collect();
    let mut fabric_counts: Vec<(u32, u64, u64)> = stats
        .iter()
        .map(|s| (s.id.0, s.injected_words, s.delivered_words))
        .collect();
    ledger_counts.sort_unstable();
    fabric_counts.sort_unstable();
    pass.telemetry_agrees = ledger_counts == fabric_counts;
    pass.offered = ledger.sessions.iter().map(|s| s.offered).sum();
    pass.accepted = ledger.sessions.iter().map(|s| s.accepted).sum();
    pass.delivered = ledger.sessions.iter().map(|s| s.delivered).sum();
    pass.reordered = ledger.sessions.iter().map(|s| s.reordered).sum();
    pass.foreign = ledger.sessions.iter().map(|s| s.foreign).sum();
    pass.payload_hash = ledger.payload_hash();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_payload_code_is_a_keyed_permutation() {
        for key in [0, 7, u64::MAX] {
            let mut seen = vec![false; 1 << 16];
            for seq in 0..=u16::MAX {
                let word = encode(seq, key);
                assert_eq!(decode(word, key), seq);
                assert!(
                    !seen[usize::from(word)],
                    "two sequence numbers share word {word}"
                );
                seen[usize::from(word)] = true;
            }
        }
        assert_ne!(encode(1, 7), encode(1, 8));
    }

    #[test]
    fn delivered_words_are_matched_by_sequence_number() {
        let mut s = Session::new(StreamId(0), 1.0, 5);
        s.accepted = 4;
        let key = s.key;
        let word = |seq| encode(seq, key);
        let (w0, w1, w2, w3) = (word(0), word(1), word(2), word(3));
        s.receive(w0);
        s.receive(w2); // ahead of 1
        assert_eq!((s.reordered, s.foreign, s.outstanding()), (1, 0, 2));
        s.receive(w1);
        assert_eq!((s.next, s.outstanding()), (3, 1));
        s.receive(w2); // delivered twice
        s.receive(word(9)); // never accepted
        assert_eq!((s.reordered, s.foreign), (1, 2));
        s.receive(w3);
        assert_eq!((s.outstanding(), s.delivered), (0, 6));
    }
}
