//! The best-effort (BE) configuration network.
//!
//! The circuit-switched data plane cannot carry configuration: "Because a
//! data-packet cannot include routing information, we cannot serve best
//! effort traffic. We configure the configuration memory via a small
//! additional interface... The configuration interface is connected to the
//! separate BE network" (Section 5.1). The paper aims for a packet-switched
//! BE plane but leaves it future work; here it is modelled as a 16-bit
//! store-and-forward XY packet network with explicit serialisation and
//! per-link contention — the same mechanics as `noc-packet`'s data plane,
//! abstracted to message level so that meshes of hundreds of routers stay
//! cheap to simulate. Message framing uses a byte-exact wire format
//! (little-endian `u16`s), so payload sizes — and therefore delivery
//! latencies — are real.
//!
//! The paper's budget: one lane's configuration (a 10-bit word) in under
//! 1 ms, a full router (20 words) within 20 ms. The `reconfig_latency`
//! bench checks both.

use crate::soc::Soc;
use crate::topology::{Mesh, NodeId};
use noc_core::config::ConfigWord;
use noc_core::error::ConfigError;
use noc_sim::time::Cycle;

/// BE network timing/framing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeConfig {
    /// Link width in bits (matches the GT plane's 16-bit links).
    pub link_width_bits: u32,
    /// Router traversal latency per hop in cycles (store-and-forward
    /// pipeline: buffer, route, arbitrate).
    pub hop_cycles: u64,
    /// Per-message header bits (destination, length, CRC).
    pub header_bits: u32,
}

impl Default for BeConfig {
    fn default() -> Self {
        BeConfig {
            link_width_bits: 16,
            hop_cycles: 3,
            header_bits: 32,
        }
    }
}

/// A configuration message in flight.
#[derive(Debug, Clone)]
struct InFlight {
    delivery: Cycle,
    dst: NodeId,
    payload: Vec<u8>,
    /// Per-network message id, for [`BeNetwork::cancel`].
    id: u64,
}

/// The store-and-forward BE network.
#[derive(Debug, Clone)]
pub struct BeNetwork {
    mesh: Mesh,
    config: BeConfig,
    /// Earliest cycle each directed link is free again, at its
    /// [`Mesh::link_slot`].
    link_free: Vec<Cycle>,
    pending: Vec<InFlight>,
    next_msg_id: u64,
    /// Messages delivered so far.
    pub delivered: u64,
    /// Configuration words applied so far.
    pub words_applied: u64,
}

/// Encode a batch of configuration words into a wire payload: a length
/// prefix followed by one little-endian `u16` per word.
pub fn encode_words(words: &[ConfigWord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(2 + words.len() * 2);
    buf.extend_from_slice(&(words.len() as u16).to_le_bytes());
    for w in words {
        buf.extend_from_slice(&w.0.to_le_bytes());
    }
    buf
}

/// Decode a wire payload back into configuration words.
///
/// Returns `None` on truncated or inconsistent payloads (a corrupt BE
/// packet must not crash the configuration plane).
pub fn decode_words(payload: &[u8]) -> Option<Vec<ConfigWord>> {
    let (&len, body) = payload.split_first_chunk::<2>()?;
    if body.len() != usize::from(u16::from_le_bytes(len)) * 2 {
        return None;
    }
    let words = body.chunks_exact(2);
    Some(
        words
            .map(|w| ConfigWord(u16::from_le_bytes([w[0], w[1]])))
            .collect(),
    )
}

impl BeNetwork {
    /// An idle BE network over `mesh`.
    pub fn new(mesh: Mesh, config: BeConfig) -> BeNetwork {
        BeNetwork {
            mesh,
            config,
            link_free: vec![Cycle::ZERO; mesh.link_slots()],
            pending: Vec::new(),
            next_msg_id: 0,
            delivered: 0,
            words_applied: 0,
        }
    }

    /// Cycles needed to push one message through one link.
    fn serialisation_cycles(&self, payload: &[u8]) -> u64 {
        let bits = self.config.header_bits as u64 + payload.len() as u64 * 8;
        bits.div_ceil(self.config.link_width_bits as u64)
    }

    /// Send `words` from `from` (usually the CCN's node) to `to`,
    /// entering the network at `now`. Returns the delivery cycle,
    /// accounting for XY hops, per-link serialisation and contention with
    /// earlier messages.
    pub fn send(&mut self, now: Cycle, from: NodeId, to: NodeId, words: &[ConfigWord]) -> Cycle {
        self.send_tracked(now, from, to, words).0
    }

    /// [`BeNetwork::send`], additionally returning the message id so the
    /// sender can [`BeNetwork::cancel`] the delivery later — the CCN
    /// aborting a circuit setup whose stream was released while its
    /// configuration was still in flight.
    pub fn send_tracked(
        &mut self,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        words: &[ConfigWord],
    ) -> (Cycle, u64) {
        let payload = encode_words(words);
        let ser = self.serialisation_cycles(&payload);
        let mut t = now;
        let mut here = from;
        while let Some(port) = self.mesh.xy_step(here, to) {
            let slot = self
                .mesh
                .link_slot(here, port)
                .expect("xy steps leave mesh nodes through neighbour ports");
            let start = Cycle(t.0.max(self.link_free[slot].0));
            let done = start.after(ser);
            self.link_free[slot] = done;
            t = done.after(self.config.hop_cycles);
            here = self.mesh.neighbour(here, port).expect("xy stays in mesh");
        }
        // Local delivery (from == to) still pays one serialisation into
        // the router's configuration interface.
        if from == to {
            t = t.after(ser);
        }
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        self.pending.push(InFlight {
            delivery: t,
            dst: to,
            payload,
            id,
        });
        (t, id)
    }

    /// Void an in-flight message before it is applied. Returns `true`
    /// when the message was still pending (link occupancy already paid is
    /// not refunded — the bits were on the wire either way). Superseding
    /// a configuration that must not land any more — e.g. a released
    /// stream's setup words, whose lanes may already belong to a newer
    /// circuit — is the one legitimate use.
    pub fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|m| m.id == id) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Apply every message due by `now` to the SoC's routers. Returns the
    /// number of configuration words applied, or the first configuration
    /// error (corrupt words are surfaced, not dropped silently).
    pub fn deliver_due(&mut self, now: Cycle, soc: &mut Soc) -> Result<usize, ConfigError> {
        let mut applied = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].delivery <= now {
                let msg = self.pending.swap_remove(i);
                let words =
                    decode_words(&msg.payload).ok_or(ConfigError::MalformedWord { raw: 0xFFFF })?;
                for w in words {
                    soc.router_mut(msg.dst).apply_config_word(w)?;
                    applied += 1;
                    self.words_applied += 1;
                }
                self.delivered += 1;
            } else {
                i += 1;
            }
        }
        Ok(applied)
    }

    /// Decode and remove every message due by `now`, returning
    /// `(destination router, configuration words)` batches.
    ///
    /// [`BeNetwork::deliver_due`] applies due words to a borrowed
    /// [`Soc`]; this variant hands them back instead, for callers that
    /// *are* the SoC — the fabric's runtime-admission path
    /// (`Fabric::admit`) sends a new circuit's words over the BE network
    /// and applies them from inside `Soc::step` when they fall due, so
    /// reconfiguration latency (paper Section 5.1 budgets) is charged
    /// cycle-accurately to the admitted stream. Corrupt payloads are
    /// skipped (they cannot be applied), matching `deliver_due`'s refusal
    /// to crash on a bad BE packet.
    pub fn take_due(&mut self, now: Cycle) -> Vec<(NodeId, Vec<ConfigWord>)> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].delivery <= now {
                let msg = self.pending.swap_remove(i);
                if let Some(words) = decode_words(&msg.payload) {
                    self.delivered += 1;
                    self.words_applied += words.len() as u64;
                    due.push((msg.dst, words));
                }
            } else {
                i += 1;
            }
        }
        due
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The latest delivery cycle among in-flight messages.
    pub fn last_delivery(&self) -> Option<Cycle> {
        self.pending.iter().map(|m| m.delivery).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::ConfigEntry;
    use noc_core::lane::Port;
    use noc_core::params::RouterParams;

    fn word() -> ConfigWord {
        let p = RouterParams::paper();
        let sel = p.foreign_select(Port::East, Port::Tile, 0).unwrap();
        ConfigWord::for_lane(Port::East, 0, ConfigEntry::active(sel), &p).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let words = vec![word(), ConfigWord(0x155), ConfigWord(0x2AA)];
        let payload = encode_words(&words);
        assert_eq!(decode_words(&payload), Some(words));
    }

    #[test]
    fn corrupt_payload_rejected() {
        assert_eq!(decode_words(&[7]), None);
        // Length says 5 words but only 1 present.
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u16.to_le_bytes());
        buf.extend_from_slice(&0x123u16.to_le_bytes());
        assert_eq!(decode_words(&buf), None);
    }

    #[test]
    fn delivery_latency_scales_with_distance() {
        let mesh = Mesh::new(4, 4);
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let near = be.send(Cycle::ZERO, mesh.node(0, 0), mesh.node(1, 0), &[word()]);
        let far = be.send(Cycle::ZERO, mesh.node(0, 0), mesh.node(3, 3), &[word()]);
        assert!(far > near, "more hops, later delivery");
    }

    #[test]
    fn contention_serialises_messages_on_a_link() {
        let mesh = Mesh::new(2, 1);
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let a = mesh.node(0, 0);
        let b = mesh.node(1, 0);
        let first = be.send(Cycle::ZERO, a, b, &[word()]);
        let second = be.send(Cycle::ZERO, a, b, &[word()]);
        assert!(second > first, "same link, second message waits");
    }

    #[test]
    fn due_messages_configure_routers() {
        let mesh = Mesh::new(2, 1);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let ccn_node = mesh.node(0, 0);
        let target = mesh.node(1, 0);
        let delivery = be.send(Cycle::ZERO, ccn_node, target, &[word()]);

        // Not yet due.
        let before = be.deliver_due(Cycle(delivery.0 - 1), &mut soc).unwrap();
        assert_eq!(before, 0);
        assert!(!soc.router(target).config().entry_of(Port::East, 0).active);

        let applied = be.deliver_due(delivery, &mut soc).unwrap();
        assert_eq!(applied, 1);
        assert!(soc.router(target).config().entry_of(Port::East, 0).active);
        assert_eq!(be.in_flight(), 0);
        assert_eq!(be.delivered, 1);
    }

    #[test]
    fn take_due_hands_back_exactly_the_due_batches() {
        let mesh = Mesh::new(2, 1);
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let a = mesh.node(0, 0);
        let b = mesh.node(1, 0);
        let first = be.send(Cycle::ZERO, a, b, &[word()]);
        let second = be.send(Cycle::ZERO, a, b, &[word(), word()]);
        assert!(second > first, "same link serialises");

        let early = be.take_due(Cycle(first.0 - 1));
        assert!(early.is_empty());
        let due = be.take_due(first);
        assert_eq!(due, vec![(b, vec![word()])]);
        assert_eq!(be.in_flight(), 1);
        let rest = be.take_due(second);
        assert_eq!(rest, vec![(b, vec![word(), word()])]);
        assert_eq!(be.in_flight(), 0);
        assert_eq!(be.delivered, 2);
        assert_eq!(be.words_applied, 3);
    }

    #[test]
    fn cancelled_message_is_never_applied() {
        let mesh = Mesh::new(2, 1);
        let mut soc = Soc::new(mesh, RouterParams::paper());
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let a = mesh.node(0, 0);
        let b = mesh.node(1, 0);
        let (delivery, id) = be.send_tracked(Cycle::ZERO, a, b, &[word()]);
        assert!(be.cancel(id), "pending messages cancel");
        assert!(!be.cancel(id), "double cancel is a no-op");
        assert_eq!(be.in_flight(), 0);
        let applied = be.deliver_due(delivery, &mut soc).unwrap();
        assert_eq!(applied, 0, "a cancelled configuration must never land");
        assert!(!soc.router(b).config().entry_of(Port::East, 0).active);
    }

    #[test]
    fn full_router_config_well_under_paper_budget() {
        // 20 words to the far corner of a 4x4 mesh at 25 MHz must land in
        // far less than the paper's 20 ms budget.
        let mesh = Mesh::new(4, 4);
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let words: Vec<ConfigWord> = (0..20).map(|_| word()).collect();
        let delivery = be.send(Cycle::ZERO, mesh.node(0, 0), mesh.node(3, 3), &words);
        let at_25mhz_ms = delivery.at(noc_sim::units::MegaHertz(25.0)).as_millis();
        assert!(
            at_25mhz_ms < 20.0,
            "full-router reconfig took {at_25mhz_ms} ms"
        );
    }

    #[test]
    fn local_delivery_is_fast_but_not_instant() {
        let mesh = Mesh::new(2, 2);
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let n = mesh.node(0, 0);
        let t = be.send(Cycle::ZERO, n, n, &[word()]);
        assert!(t > Cycle::ZERO);
        assert!(t.0 < 100);
    }
}
