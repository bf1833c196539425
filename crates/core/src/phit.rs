//! The 20-bit phit packet: a 4-bit header combined with a 16-bit data word.
//!
//! Paper Section 5.2: "we included a small four bits header with every
//! data-word. The header is combined with a 16-bit data-word of the tile. The
//! result is a packet of 5x4 bits, which can be transported over a lane."
//! The published figure (Fig. 6) only shows the 5×4-bit organisation, so the
//! individual header bits here follow the stated *purpose* of the header —
//! synchronisation of information in the data packets — with a documented
//! encoding:
//!
//! | bit | name  | meaning                                               |
//! |-----|-------|-------------------------------------------------------|
//! | 0   | VALID | a phit is present (idle lanes carry all-zero nibbles) |
//! | 1   | SOB   | first word of a block (e.g. start of an OFDM symbol)  |
//! | 2   | EOB   | last word of a block                                  |
//! | 3   | CTRL  | word is control/synchronisation data, not payload     |
//!
//! VALID doubles as the framing signal for the receive deserialiser: a lane
//! at rest transmits zero nibbles, and the first nibble with bit 0 set is by
//! construction a header nibble, after which exactly four data nibbles
//! follow.

use noc_sim::bits::{nibbles_to_word, word_to_nibbles, Nibble};
use std::fmt;

/// The 4-bit phit header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Header(u8);

impl Header {
    /// Width of the header in bits.
    pub const BITS: u32 = 4;

    /// VALID flag: a phit is present.
    pub const VALID: u8 = 0b0001;
    /// Start-of-block flag.
    pub const SOB: u8 = 0b0010;
    /// End-of-block flag.
    pub const EOB: u8 = 0b0100;
    /// Control/synchronisation-word flag.
    pub const CTRL: u8 = 0b1000;

    /// Header with the given raw flag bits (top bits masked off).
    pub fn from_bits(bits: u8) -> Header {
        Header(bits & 0xF)
    }

    /// A plain valid data header (no block marks).
    pub fn valid() -> Header {
        Header(Self::VALID)
    }

    /// Raw flag bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Is the VALID flag set?
    pub fn is_valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    /// Is this the first word of a block?
    pub fn is_start_of_block(self) -> bool {
        self.0 & Self::SOB != 0
    }

    /// Is this the last word of a block?
    pub fn is_end_of_block(self) -> bool {
        self.0 & Self::EOB != 0
    }

    /// Is this a control word?
    pub fn is_control(self) -> bool {
        self.0 & Self::CTRL != 0
    }

    /// Copy of this header with extra flags set.
    pub fn with(self, flags: u8) -> Header {
        Header::from_bits(self.0 | flags)
    }

    /// The header as the nibble that leads the serialised phit.
    pub fn to_nibble(self) -> Nibble {
        Nibble::new(self.0)
    }

    /// Parse a header from a received nibble.
    pub fn from_nibble(n: Nibble) -> Header {
        Header(n.get())
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}{}{}{}]",
            if self.is_valid() { 'V' } else { '-' },
            if self.is_start_of_block() { 'S' } else { '-' },
            if self.is_end_of_block() { 'E' } else { '-' },
            if self.is_control() { 'C' } else { '-' },
        )
    }
}

/// One phit: header + 16-bit data word — the unit the data converter
/// serialises onto a lane as five nibbles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Phit {
    /// The 4-bit header.
    pub header: Header,
    /// The 16-bit tile data word.
    pub data: u16,
}

impl Phit {
    /// A plain valid data phit.
    pub fn data(word: u16) -> Phit {
        Phit {
            header: Header::valid(),
            data: word,
        }
    }

    /// A valid phit carrying block-boundary marks.
    pub fn block(word: u16, first: bool, last: bool) -> Phit {
        let mut h = Header::valid();
        if first {
            h = h.with(Header::SOB);
        }
        if last {
            h = h.with(Header::EOB);
        }
        Phit {
            header: h,
            data: word,
        }
    }

    /// A control/synchronisation phit.
    pub fn control(word: u16) -> Phit {
        Phit {
            header: Header::valid().with(Header::CTRL),
            data: word,
        }
    }

    /// Serialise into the five nibbles shifted onto a lane, header first,
    /// then the data word least-significant nibble first.
    pub fn to_flits(self) -> [Nibble; 5] {
        let d = word_to_nibbles(self.data);
        [self.header.to_nibble(), d[0], d[1], d[2], d[3]]
    }

    /// Reassemble from five received nibbles (inverse of [`Self::to_flits`]).
    pub fn from_flits(flits: [Nibble; 5]) -> Phit {
        Phit {
            header: Header::from_nibble(flits[0]),
            data: nibbles_to_word([flits[1], flits[2], flits[3], flits[4]]),
        }
    }

    /// Total bits on the wire for one phit.
    pub const WIRE_BITS: u32 = Header::BITS + u16::BITS;
}

impl fmt::Display for Phit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:#06x}", self.header, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_flags() {
        let h = Header::valid().with(Header::SOB).with(Header::EOB);
        assert!(h.is_valid());
        assert!(h.is_start_of_block());
        assert!(h.is_end_of_block());
        assert!(!h.is_control());
    }

    #[test]
    fn header_masks_high_bits() {
        assert_eq!(Header::from_bits(0xFF).bits(), 0xF);
    }

    #[test]
    fn idle_nibble_is_not_valid_header() {
        // The framing property the deserialiser relies on.
        assert!(!Header::from_nibble(Nibble::ZERO).is_valid());
        assert!(Header::valid().to_nibble().get() & 1 == 1);
    }

    #[test]
    fn phit_roundtrip() {
        for word in [0u16, 0xFFFF, 0xABCD, 0x0001, 0x8000] {
            for phit in [
                Phit::data(word),
                Phit::block(word, true, false),
                Phit::block(word, false, true),
                Phit::control(word),
            ] {
                assert_eq!(Phit::from_flits(phit.to_flits()), phit);
            }
        }
    }

    #[test]
    fn serialisation_is_header_first() {
        let phit = Phit::data(0xABCD);
        let flits = phit.to_flits();
        assert!(Header::from_nibble(flits[0]).is_valid());
        assert_eq!(flits[1].get(), 0xD, "data LSB nibble second");
        assert_eq!(flits[4].get(), 0xA, "data MSB nibble last");
    }

    #[test]
    fn wire_bits_is_20() {
        // "The result is a packet of 5x4 bits" (Section 5.2).
        assert_eq!(Phit::WIRE_BITS, 20);
    }

    #[test]
    fn block_constructor() {
        let p = Phit::block(7, true, true);
        assert!(p.header.is_start_of_block() && p.header.is_end_of_block());
        let q = Phit::block(7, false, false);
        assert!(q.header.is_valid());
        assert!(!q.header.is_start_of_block());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Phit::data(0xBEEF).to_string(), "[V---]0xbeef");
        assert_eq!(Phit::control(0).to_string(), "[V--C]0x0000");
    }
}
