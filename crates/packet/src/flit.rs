//! Flits, packets and the link word format.
//!
//! The packet router moves 16-bit **flits** (matching the circuit router's
//! 16-bit links so both have "the same maximum bandwidth ... for guaranteed
//! throughput traffic", paper Section 7). A packet is a wormhole: a head
//! flit carrying the destination, body flits carrying payload, and a tail
//! flit that releases the virtual channel. Single-word messages — the UMTS
//! streaming case of one sample per transfer — still cost a head flit, which
//! is exactly the per-packet overhead circuit switching avoids.

use crate::routing::Coords;
use std::fmt;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; payload encodes the destination coordinates.
    Head,
    /// Intermediate payload flit.
    Body,
    /// Final flit; releases the wormhole's virtual channel.
    Tail,
}

impl FlitKind {
    /// Sideband encoding on the link (2 bits).
    pub fn bits(self) -> u8 {
        match self {
            FlitKind::Head => 0b01,
            FlitKind::Body => 0b10,
            FlitKind::Tail => 0b11,
        }
    }

    /// Decode the 2-bit sideband.
    pub fn from_bits(b: u8) -> Option<FlitKind> {
        match b & 0b11 {
            0b01 => Some(FlitKind::Head),
            0b10 => Some(FlitKind::Body),
            0b11 => Some(FlitKind::Tail),
            _ => None,
        }
    }
}

/// One 16-bit flit plus its 2-bit kind sideband.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit {
    /// Flit framing kind.
    pub kind: FlitKind,
    /// The 16 data bits.
    pub payload: u16,
}

impl Flit {
    /// Bits a flit occupies in a buffer entry (payload + kind).
    pub const STORE_BITS: u32 = 18;

    /// A head flit addressed to `dest` (stream tag 0).
    pub fn head(dest: Coords) -> Flit {
        Flit::head_tagged(dest, 0)
    }

    /// A head flit addressed to `dest`, carrying an 8-bit stream tag in
    /// the coordinate bytes' spare high nibbles.
    ///
    /// The wormhole fabrics run on meshes of at most 16×16 (asserted at
    /// construction), so each coordinate byte of [`Coords::encode`] only
    /// uses its low nibble. The two high nibbles ride free on the wire and
    /// carry the source fabric's stream identity end-to-end. Placement is
    /// fixed: the tag's **high** nibble (bits 7:4) lands in payload bits
    /// 15:12 — the spare nibble of the *x*-coordinate byte — and the
    /// tag's **low** nibble (bits 3:0) lands in payload bits 7:4, the
    /// spare nibble of the *y*-coordinate byte. Routing reads the masked
    /// coordinates ([`Flit::dest`]), the receiving tile interface reads
    /// the tag ([`Flit::stream_tag`]) to attribute the wormhole's payload
    /// words to their stream — per-stream delivery and latency accounting
    /// without a single extra wire. The deflection router re-encodes and
    /// re-reads this halfword at every hop, so both decoders must mask
    /// exactly these nibbles.
    ///
    /// # Panics
    /// Panics when a coordinate exceeds the 16×16 space (its high nibble
    /// is the tag's).
    pub fn head_tagged(dest: Coords, tag: u8) -> Flit {
        assert!(
            dest.x < 16 && dest.y < 16,
            "tagged heads need the 16x16 coordinate space, got {dest}"
        );
        let tag = u16::from(tag);
        Flit {
            kind: FlitKind::Head,
            payload: dest.encode() | ((tag & 0xF0) << 8) | ((tag & 0x0F) << 4),
        }
    }

    /// A body flit carrying `word`.
    pub fn body(word: u16) -> Flit {
        Flit {
            kind: FlitKind::Body,
            payload: word,
        }
    }

    /// A tail flit carrying `word`.
    pub fn tail(word: u16) -> Flit {
        Flit {
            kind: FlitKind::Tail,
            payload: word,
        }
    }

    /// Destination coordinates, when this is a head flit. The spare high
    /// nibbles of the coordinate bytes are masked off: they carry the
    /// stream tag ([`Flit::head_tagged`]), not position.
    pub fn dest(&self) -> Option<Coords> {
        (self.kind == FlitKind::Head).then(|| Coords::decode(self.payload & 0x0F0F))
    }

    /// The 8-bit stream tag of a head flit ([`Flit::head_tagged`]); `None`
    /// on body/tail flits.
    pub fn stream_tag(&self) -> Option<u8> {
        (self.kind == FlitKind::Head)
            .then_some((((self.payload >> 8) & 0xF0) | ((self.payload >> 4) & 0x0F)) as u8)
    }

    /// `true` when this flit closes its packet.
    pub fn is_tail(&self) -> bool {
        self.kind == FlitKind::Tail
    }

    /// Value of the full 18-bit stored word (for Hamming accounting).
    pub fn store_word(&self) -> u32 {
        (u32::from(self.kind.bits()) << 16) | u32::from(self.payload)
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            FlitKind::Head => 'H',
            FlitKind::Body => 'B',
            FlitKind::Tail => 'T',
        };
        write!(f, "{k}:{:#06x}", self.payload)
    }
}

/// What travels on one link direction per cycle: an optional flit tagged
/// with its virtual channel, plus returning credits (one wire per VC).
///
/// Wire accounting: 16 data + 2 kind + `log2(vcs)` VC id + 1 valid ≈ 21
/// wires forward, `vcs` credit wires reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkWord {
    /// The flit on the wire this cycle, with its VC tag.
    pub flit: Option<(u8, Flit)>,
}

impl LinkWord {
    /// An idle link cycle.
    pub const IDLE: LinkWord = LinkWord { flit: None };

    /// The 21-bit wire image used for link toggle counting: valid bit,
    /// VC id, kind, payload. An idle cycle drives all-zero (valid low, data
    /// held at zero — matching how the output register parks).
    pub fn wire_image(&self) -> u32 {
        match self.flit {
            None => 0,
            Some((vc, flit)) => {
                (1 << 20)
                    | (u32::from(vc & 0b11) << 18)
                    | (u32::from(flit.kind.bits()) << 16)
                    | u32::from(flit.payload)
            }
        }
    }
}

/// A multi-word message as the tile interface sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Destination tile coordinates.
    pub dest: Coords,
    /// Payload words (at least one).
    pub payload: Vec<u16>,
}

impl Packet {
    /// A packet to `dest` with `payload` words.
    ///
    /// # Panics
    /// Panics on an empty payload: a packet with no payload words has no
    /// tail flit and would wedge the wormhole.
    pub fn new(dest: Coords, payload: Vec<u16>) -> Packet {
        assert!(
            !payload.is_empty(),
            "packets need at least one payload word"
        );
        Packet { dest, payload }
    }

    /// Segment into flits: head (destination) + payload, last word as tail.
    pub fn to_flits(&self) -> Vec<Flit> {
        let mut flits = Vec::with_capacity(self.payload.len() + 1);
        flits.push(Flit::head(self.dest));
        let last = self.payload.len() - 1;
        for (i, &w) in self.payload.iter().enumerate() {
            flits.push(if i == last {
                Flit::tail(w)
            } else {
                Flit::body(w)
            });
        }
        flits
    }

    /// Number of flits on the wire (payload + 1 head).
    pub fn flit_count(&self) -> usize {
        self.payload.len() + 1
    }

    /// Wire efficiency: payload bits over total bits — e.g. a single-sample
    /// UMTS packet is 50% efficient where the circuit router's phit is 80%.
    pub fn efficiency(&self) -> f64 {
        self.payload.len() as f64 / self.flit_count() as f64
    }
}

/// Reassembles packets from a flit stream (the receiving tile interface).
#[derive(Debug, Clone, Default)]
pub struct PacketAssembler {
    current: Option<Packet>,
    done: Vec<Packet>,
    misframes: u64,
}

impl PacketAssembler {
    /// An assembler with no partial packet.
    pub fn new() -> PacketAssembler {
        PacketAssembler::default()
    }

    /// Feed one received flit. Misframed streams (body without head) are
    /// tolerated by opening an anonymous packet to destination (0,0) — the
    /// simulator must not crash on corrupt traffic, tests assert on
    /// [`PacketAssembler::misframed`] instead.
    pub fn push(&mut self, flit: Flit) {
        match flit.kind {
            FlitKind::Head => {
                self.current = Some(Packet {
                    dest: flit.dest().expect("head flit carries coords"),
                    payload: Vec::new(),
                });
            }
            FlitKind::Body | FlitKind::Tail => {
                let misframe = self.current.is_none();
                let pkt = self.current.get_or_insert_with(|| Packet {
                    dest: Coords::new(0, 0),
                    payload: Vec::new(),
                });
                if misframe {
                    self.misframes += 1;
                }
                pkt.payload.push(flit.payload);
                if flit.is_tail() {
                    self.done.push(self.current.take().expect("just inserted"));
                }
            }
        }
    }

    /// Completed packets, drained.
    pub fn take_completed(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.done)
    }

    /// Number of body/tail flits that arrived without a head.
    pub fn misframed(&self) -> u64 {
        self.misframes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bits_roundtrip() {
        for k in [FlitKind::Head, FlitKind::Body, FlitKind::Tail] {
            assert_eq!(FlitKind::from_bits(k.bits()), Some(k));
        }
        assert_eq!(FlitKind::from_bits(0), None);
    }

    #[test]
    fn head_carries_destination() {
        let f = Flit::head(Coords::new(3, 2));
        assert_eq!(f.dest(), Some(Coords::new(3, 2)));
        assert_eq!(f.stream_tag(), Some(0));
        assert_eq!(Flit::body(9).dest(), None);
        assert_eq!(Flit::body(9).stream_tag(), None);
    }

    #[test]
    fn tagged_head_keeps_destination_and_tag() {
        for tag in [0u8, 1, 0x0F, 0x2A, 0xF0, 0xFF] {
            for (x, y) in [(0u8, 0u8), (3, 2), (15, 15)] {
                let f = Flit::head_tagged(Coords::new(x, y), tag);
                assert_eq!(f.dest(), Some(Coords::new(x, y)), "tag {tag:#x}");
                assert_eq!(f.stream_tag(), Some(tag), "at ({x},{y})");
            }
        }
    }

    #[test]
    fn tag_boundary_255_roundtrips_through_reencode() {
        // The 8-bit boundary: tag 255 sets every spare-nibble bit. The
        // deflection router re-encodes the header halfword at every hop,
        // so the tag must survive decode -> re-encode cycles bit-exactly
        // at every corner of the coordinate space.
        for (x, y) in [(0u8, 0u8), (15, 0), (0, 15), (15, 15)] {
            let first = Flit::head_tagged(Coords::new(x, y), 255);
            assert_eq!(first.dest(), Some(Coords::new(x, y)));
            assert_eq!(first.stream_tag(), Some(255));
            // One "hop": decode the masked fields, rebuild the header.
            let rebuilt = Flit::head_tagged(
                first.dest().expect("head carries coords"),
                first.stream_tag().expect("head carries tag"),
            );
            assert_eq!(rebuilt.payload, first.payload, "at ({x},{y})");
            // Tag 255 saturates exactly the two spare high nibbles.
            assert_eq!(first.payload & 0xF0F0, 0xF0F0);
            assert_eq!(first.payload & 0x0F0F, Coords::new(x, y).encode());
        }
    }

    #[test]
    #[should_panic(expected = "16x16 coordinate space")]
    fn tagged_head_rejects_wide_coords() {
        let _ = Flit::head_tagged(Coords::new(16, 0), 1);
    }

    #[test]
    fn packet_segmentation() {
        let p = Packet::new(Coords::new(1, 1), vec![10, 20, 30]);
        let flits = p.to_flits();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1], Flit::body(10));
        assert_eq!(flits[2], Flit::body(20));
        assert_eq!(flits[3], Flit::tail(30));
    }

    #[test]
    fn single_word_packet_is_head_plus_tail() {
        // The UMTS streaming case: 1 sample -> 2 flits, 50% efficiency.
        let p = Packet::new(Coords::new(0, 1), vec![0xAB]);
        let flits = p.to_flits();
        assert_eq!(flits.len(), 2);
        assert!(flits[1].is_tail());
        assert!((p.efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one payload")]
    fn empty_packet_rejected() {
        let _ = Packet::new(Coords::new(0, 0), vec![]);
    }

    #[test]
    fn assembler_roundtrip() {
        let p = Packet::new(Coords::new(2, 3), vec![1, 2, 3, 4]);
        let mut asm = PacketAssembler::new();
        for f in p.to_flits() {
            asm.push(f);
        }
        let done = asm.take_completed();
        assert_eq!(done, vec![p]);
        assert_eq!(asm.misframed(), 0);
    }

    #[test]
    fn assembler_interleaved_packets_not_required() {
        // Wormhole routing delivers one packet's flits contiguously per VC;
        // the assembler models one VC's stream.
        let a = Packet::new(Coords::new(1, 0), vec![5]);
        let b = Packet::new(Coords::new(1, 0), vec![6, 7]);
        let mut asm = PacketAssembler::new();
        for f in a.to_flits().into_iter().chain(b.to_flits()) {
            asm.push(f);
        }
        assert_eq!(asm.take_completed(), vec![a, b]);
    }

    #[test]
    fn assembler_counts_misframes() {
        let mut asm = PacketAssembler::new();
        asm.push(Flit::tail(9));
        assert_eq!(asm.misframed(), 1);
        assert_eq!(asm.take_completed().len(), 1, "salvaged as anonymous");
    }

    #[test]
    fn wire_image_idle_is_zero() {
        assert_eq!(LinkWord::IDLE.wire_image(), 0);
        let w = LinkWord {
            flit: Some((2, Flit::body(0xFFFF))),
        };
        let img = w.wire_image();
        assert_eq!(img & 0xFFFF, 0xFFFF);
        assert_eq!((img >> 20) & 1, 1, "valid bit set");
        assert_eq!((img >> 18) & 0b11, 2, "vc id");
    }

    #[test]
    fn store_word_distinct_kinds() {
        assert_ne!(
            Flit::body(0x1234).store_word(),
            Flit::tail(0x1234).store_word(),
            "kind bits participate in buffer hamming"
        );
    }
}
