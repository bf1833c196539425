//! The data converter between the 16-bit tile interface and the 4-bit lanes.
//!
//! Paper Section 5.1 / Fig. 5: "The small lanes are connected to a tile
//! interface via the data-converter. \[It\] converts the 16 bit data to the
//! width of the lanes and visa-versa. The 16 bit tile interface is compatible
//! with the packet-switched alternative of Kavaldjiev."
//!
//! Per tile-port lane the converter instantiates a transmit serialiser
//! ([`TxSerializer`]) and a receive deserialiser ([`RxDeserializer`]). A
//! 20-bit phit ([`crate::phit::Phit`]) is shifted over a lane as five
//! nibbles, header first; framing needs no extra wires because an idle lane
//! carries zero nibbles and a header nibble always has its VALID bit set.
//!
//! Back-to-back operation sustains one phit per five cycles per lane —
//! 16 payload bits / 5 cycles = 3.2 bits/cycle, the paper's 80 Mbit/s per
//! stream at 25 MHz.

use crate::params::RouterParams;
use crate::phit::{Header, Phit};
use noc_sim::activity::{ActivityClass, ActivityLedger};
use noc_sim::bits::Nibble;
use noc_sim::signal::Reg;
use std::collections::VecDeque;

/// Nibbles per phit on a 4-bit lane (header + four data nibbles).
const FLITS: u8 = 5;

/// Register bits of one serialiser or deserialiser: the [`Phit::WIRE_BITS`]
/// (20-bit) shift register plus the 3-bit nibble counter.
const SHIFTER_BITS: u32 = Phit::WIRE_BITS + 3;

/// Transmit side: shifts one phit onto a lane, four bits per cycle.
///
/// A new phit may be loaded while the last nibble of the previous one is on
/// the wire, so a saturated source achieves exactly one phit per
/// [`RouterParams::flits_per_phit`] cycles with no dead cycle.
#[derive(Debug, Clone)]
pub struct TxSerializer {
    /// Shift register holding the remaining nibbles (low nibble = on wire).
    shift: Reg<u32>,
    /// Nibbles still to present, including the current one; 0 = idle.
    remaining: Reg<u8>,
    /// Load request latched by `try_load` until `eval` consumes it.
    pending: Option<u32>,
}

/// Pack a phit into the 20-bit shift value, header in the low nibble.
fn pack_phit(p: Phit) -> u32 {
    let flits = p.to_flits();
    let mut v = 0u32;
    for (i, f) in flits.iter().enumerate() {
        v |= u32::from(f.get()) << (4 * i);
    }
    v
}

impl TxSerializer {
    /// An idle serialiser.
    pub fn new() -> TxSerializer {
        TxSerializer {
            shift: Reg::new(0),
            remaining: Reg::new(0),
            pending: None,
        }
    }

    /// Will a load be accepted this cycle? True when the serialiser is idle
    /// or presenting the final nibble of the previous phit.
    #[inline]
    pub fn can_load(&self) -> bool {
        self.pending.is_none() && self.remaining.q() <= 1
    }

    /// Offer a phit; returns `true` when accepted. The first nibble appears
    /// on the lane the cycle *after* acceptance.
    pub fn try_load(&mut self, phit: Phit) -> bool {
        if !self.can_load() {
            return false;
        }
        self.pending = Some(pack_phit(phit));
        true
    }

    /// The nibble presented on the lane this cycle (zero when idle).
    #[inline]
    pub fn out_nibble(&self) -> Nibble {
        if self.remaining.q() > 0 {
            Nibble::new((self.shift.q() & 0xF) as u8)
        } else {
            Nibble::ZERO
        }
    }

    /// `true` while a phit is being shifted out.
    pub fn busy(&self) -> bool {
        self.remaining.q() > 0
    }

    /// Fully parked: nothing shifting, nothing pending — evaluation holds
    /// every register (`d == q`), so a commit is pure clock energy.
    pub fn is_idle(&self) -> bool {
        self.remaining.q() == 0 && self.pending.is_none()
    }

    /// Combinational phase: consume a pending load or advance the shift.
    pub fn eval(&mut self) {
        if self.remaining.q() <= 1 {
            if let Some(packed) = self.pending.take() {
                self.shift.set_next(packed);
                self.remaining.set_next(FLITS);
                return;
            }
        }
        if self.remaining.q() > 0 {
            self.shift.set_next(self.shift.q() >> 4);
            self.remaining.set_next(self.remaining.q() - 1);
        } else {
            self.shift.set_next(self.shift.q());
            self.remaining.set_next(0);
        }
    }

    /// Clock edge. The shift register is physically [`Phit::WIRE_BITS`]
    /// (20) bits and the counter 3 bits, narrower than their backing types.
    pub fn commit(&mut self, ledger: &mut ActivityLedger) {
        ledger.add(ActivityClass::RegClock, u64::from(SHIFTER_BITS));
        ledger.add(ActivityClass::RegToggle, u64::from(self.latch()));
    }

    /// Clock edge without a ledger: returns the register bits that
    /// changed (every edge clocks the 23 bits [`TxSerializer::commit`]
    /// charges).
    pub(crate) fn latch(&mut self) -> u32 {
        self.shift.latch() + self.remaining.latch()
    }
}

impl Default for TxSerializer {
    fn default() -> Self {
        Self::new()
    }
}

/// Receive side: collects five nibbles from a lane back into a phit.
///
/// Framing: while idle, any nibble with the VALID bit set is a header; the
/// following four nibbles are data regardless of content.
#[derive(Debug, Clone)]
pub struct RxDeserializer {
    /// Collected nibbles, header in the low nibble.
    shift: Reg<u32>,
    /// Nibbles collected so far; 0 = hunting for a header.
    count: Reg<u8>,
    /// Phit completed at the most recent clock edge, if any.
    completed: Option<Phit>,
}

impl RxDeserializer {
    /// An idle deserialiser.
    pub fn new() -> RxDeserializer {
        RxDeserializer {
            shift: Reg::new(0),
            count: Reg::new(0),
            completed: None,
        }
    }

    /// Combinational phase: absorb the nibble on the lane this cycle.
    pub fn eval(&mut self, lane: Nibble) {
        self.completed = None;
        let count = self.count.q();
        if count == 0 {
            if Header::from_nibble(lane).is_valid() {
                self.shift.set_next(u32::from(lane.get()));
                self.count.set_next(1);
            } else {
                self.shift.set_next(self.shift.q());
                self.count.set_next(0);
            }
        } else {
            let shifted = self.shift.q() | (u32::from(lane.get()) << (4 * count));
            if count + 1 == FLITS {
                // Completion is visible after the edge (registered output).
                self.shift.set_next(shifted);
                self.count.set_next(0);
                self.completed = Some(unpack_phit(shifted));
            } else {
                self.shift.set_next(shifted);
                self.count.set_next(count + 1);
            }
        }
    }

    /// Clock edge; returns the phit completed at this edge, if any.
    pub fn commit(&mut self, ledger: &mut ActivityLedger) -> Option<Phit> {
        let (toggles, phit) = self.latch();
        ledger.add(ActivityClass::RegClock, u64::from(SHIFTER_BITS));
        ledger.add(ActivityClass::RegToggle, u64::from(toggles));
        phit
    }

    /// Clock edge without a ledger: returns the register bits that changed
    /// and the phit completed at this edge, if any (every edge clocks the
    /// 23 bits [`RxDeserializer::commit`] charges).
    pub(crate) fn latch(&mut self) -> (u32, Option<Phit>) {
        let toggles = self.shift.latch() + self.count.latch();
        (toggles, self.completed.take())
    }

    /// `true` while mid-phit.
    pub fn busy(&self) -> bool {
        self.count.q() != 0
    }
}

impl Default for RxDeserializer {
    fn default() -> Self {
        Self::new()
    }
}

/// Unpack a 20-bit shift value back into a phit.
fn unpack_phit(v: u32) -> Phit {
    let flits = [
        Nibble::new(v as u8),
        Nibble::new((v >> 4) as u8),
        Nibble::new((v >> 8) as u8),
        Nibble::new((v >> 12) as u8),
        Nibble::new((v >> 16) as u8),
    ];
    Phit::from_flits(flits)
}

/// The full converter: one TX/RX pair per tile-port lane plus a small
/// tile-side receive queue per lane.
///
/// The receive queue models the destination buffer the window-counter flow
/// control protects (its capacity equals the window size WC); it belongs to
/// the *tile*, so its energy is not charged to the router. An overflow —
/// impossible when the source respects its window — increments
/// [`DataConverter::rx_overflows`] instead of silently dropping, so
/// misconfigured setups are observable in tests and experiments.
#[derive(Debug, Clone)]
pub struct DataConverter {
    tx: Vec<TxSerializer>,
    rx: Vec<RxDeserializer>,
    rx_queues: Vec<VecDeque<Phit>>,
    rx_capacity: usize,
    /// Packets dropped on queue overflow (0 under correct flow control).
    pub rx_overflows: u64,
}

impl DataConverter {
    /// A converter for `params.lanes_per_port` lanes.
    pub fn new(params: &RouterParams) -> DataConverter {
        let lanes = params.lanes_per_port;
        // Non-blocking mode has no window; give the queue a generous default
        // so the assumption "destination always consumes" is visible only
        // when the tile really stops reading.
        let cap = if params.window_size == 0 {
            64
        } else {
            params.window_size as usize
        };
        DataConverter {
            tx: vec![TxSerializer::new(); lanes],
            rx: vec![RxDeserializer::new(); lanes],
            rx_queues: vec![VecDeque::with_capacity(cap); lanes],
            rx_capacity: cap,
            rx_overflows: 0,
        }
    }

    /// Offer a phit for transmission on tile lane `lane`.
    pub fn try_send(&mut self, lane: usize, phit: Phit) -> bool {
        self.tx[lane].try_load(phit)
    }

    /// Can lane `lane` accept a phit this cycle?
    pub fn can_send(&self, lane: usize) -> bool {
        self.tx[lane].can_load()
    }

    /// The nibble lane `lane` presents to the crossbar this cycle.
    pub fn tx_nibble(&self, lane: usize) -> Nibble {
        self.tx[lane].out_nibble()
    }

    /// Pop a received phit from lane `lane`'s tile-side queue.
    pub fn try_recv(&mut self, lane: usize) -> Option<Phit> {
        self.rx_queues[lane].pop_front()
    }

    /// Received phits waiting on lane `lane`.
    pub fn rx_pending(&self, lane: usize) -> usize {
        self.rx_queues[lane].len()
    }

    /// Combinational phase. `rx_nibbles[l]` is the crossbar output nibble
    /// for tile lane `l` this cycle.
    pub fn eval(&mut self, rx_nibbles: &[Nibble]) {
        for tx in &mut self.tx {
            tx.eval();
        }
        for (rx, &nib) in self.rx.iter_mut().zip(rx_nibbles) {
            rx.eval(nib);
        }
    }

    /// Clock edge. Completed receive phits are moved into the tile-side
    /// queues. Returns the register bits that toggled and the phits
    /// queued; every edge clocks all [`DataConverter::register_bits`], so
    /// the caller charges the clock as a constant.
    pub fn commit(&mut self) -> (u64, u64) {
        let mut toggles = 0;
        let mut queued = 0;
        for tx in &mut self.tx {
            toggles += u64::from(tx.latch());
        }
        for (rx, queue) in self.rx.iter_mut().zip(&mut self.rx_queues) {
            let (flips, phit) = rx.latch();
            toggles += u64::from(flips);
            if let Some(phit) = phit {
                if queue.len() >= self.rx_capacity {
                    // Impossible when the source respects its window; counted
                    // (not asserted) so misconfigured setups are observable.
                    self.rx_overflows += 1;
                } else {
                    queue.push_back(phit);
                    queued += 1;
                }
            }
        }
        (toggles, queued)
    }

    /// Number of lanes served.
    pub fn lanes(&self) -> usize {
        self.tx.len()
    }

    /// Every serialiser and deserialiser parked (`d == q` under idle
    /// inputs): the converter's commit is pure clock energy. Queued
    /// received phits do not affect the datapath and are allowed.
    pub fn is_idle(&self) -> bool {
        self.tx.iter().all(TxSerializer::is_idle) && self.rx.iter().all(|rx| !rx.busy())
    }

    /// Received phits waiting across all lanes' tile-side queues.
    pub fn rx_total(&self) -> usize {
        self.rx_queues.iter().map(|q| q.len()).sum()
    }

    /// Architectural register bits (both directions, all lanes) — input to
    /// the area model: per lane a 20-bit TX shift + 3-bit counter and a
    /// 20-bit RX shift + 3-bit counter.
    pub fn register_bits(params: &RouterParams) -> u32 {
        params.lanes_per_port as u32 * SHIFTER_BITS * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_one(phit: Phit) -> Phit {
        let mut ledger = ActivityLedger::new();
        let mut tx = TxSerializer::new();
        let mut rx = RxDeserializer::new();
        assert!(tx.try_load(phit));
        let mut result = None;
        for _ in 0..10 {
            // Same-cycle wiring: RX sees TX's current output.
            let nib = tx.out_nibble();
            tx.eval();
            rx.eval(nib);
            tx.commit(&mut ledger);
            if let Some(p) = rx.commit(&mut ledger) {
                result = Some(p);
                break;
            }
        }
        result.expect("phit should complete within 10 cycles")
    }

    #[test]
    fn tx_rx_roundtrip() {
        for word in [0u16, 0xFFFF, 0xABCD, 0x00FF, 0x8001] {
            let phit = Phit::data(word);
            assert_eq!(roundtrip_one(phit), phit);
        }
    }

    #[test]
    fn roundtrip_preserves_header_flags() {
        let phit = Phit::block(0x1234, true, true);
        assert_eq!(roundtrip_one(phit), phit);
        let ctrl = Phit::control(0x00AA);
        assert_eq!(roundtrip_one(ctrl), ctrl);
    }

    #[test]
    fn tx_takes_five_cycles_per_phit() {
        let mut ledger = ActivityLedger::new();
        let mut tx = TxSerializer::new();
        assert!(tx.try_load(Phit::data(0xABCD)));
        let mut nibbles = Vec::new();
        for _ in 0..7 {
            tx.eval();
            tx.commit(&mut ledger);
            nibbles.push(tx.out_nibble());
        }
        // Cycle 1..=5 carry the phit; afterwards the lane idles at zero.
        let phit_flits = Phit::data(0xABCD).to_flits();
        assert_eq!(&nibbles[0..5], &phit_flits[..]);
        assert_eq!(nibbles[5], Nibble::ZERO);
        assert_eq!(nibbles[6], Nibble::ZERO);
    }

    #[test]
    fn back_to_back_phits_have_no_gap() {
        // Saturated source: exactly one phit per 5 cycles (80 Mbit/s at
        // 25 MHz, paper Section 7.2).
        let mut ledger = ActivityLedger::new();
        let mut tx = TxSerializer::new();
        let mut rx = RxDeserializer::new();
        let mut sent = 0u32;
        let mut received = Vec::new();
        for _cycle in 0..51 {
            if tx.can_load() && tx.try_load(Phit::data(0x1000 + sent as u16)) {
                sent += 1;
            }
            let nib = tx.out_nibble();
            tx.eval();
            rx.eval(nib);
            tx.commit(&mut ledger);
            if let Some(p) = rx.commit(&mut ledger) {
                received.push(p.data);
            }
        }
        // 51 cycles: first nibble on cycle 1, so 10 complete phits.
        assert_eq!(received.len(), 10, "one phit per 5 cycles");
        let expect: Vec<u16> = (0..10).map(|i| 0x1000 + i as u16).collect();
        assert_eq!(received, expect);
    }

    #[test]
    fn rx_ignores_idle_lane() {
        let mut ledger = ActivityLedger::new();
        let mut rx = RxDeserializer::new();
        for _ in 0..20 {
            rx.eval(Nibble::ZERO);
            assert_eq!(rx.commit(&mut ledger), None);
        }
        assert!(!rx.busy());
    }

    #[test]
    fn rx_frames_on_valid_bit() {
        // A header nibble without VALID (e.g. 0b0010) must not start a phit.
        let mut ledger = ActivityLedger::new();
        let mut rx = RxDeserializer::new();
        rx.eval(Nibble::new(0b0010));
        rx.commit(&mut ledger);
        assert!(!rx.busy());
        rx.eval(Nibble::new(0b0001));
        rx.commit(&mut ledger);
        assert!(rx.busy());
    }

    #[test]
    fn rx_accepts_any_data_nibbles_mid_phit() {
        // Data nibbles of zero must not terminate an in-flight phit.
        let phit = Phit::data(0x0000);
        assert_eq!(roundtrip_one(phit), phit);
    }

    #[test]
    fn converter_queue_and_overflow_counting() {
        let params = RouterParams {
            window_size: 2,
            ..RouterParams::paper()
        };
        let mut conv = DataConverter::new(&params);
        assert_eq!(conv.lanes(), 4);
        // Manually stuff the rx queue beyond capacity via commit path.
        let mut ledger = ActivityLedger::new();
        // Drive three phits into lane 0 without the tile consuming.
        let mut tx = TxSerializer::new();
        for i in 0..3 {
            assert!(tx.try_load(Phit::data(i)));
            for _ in 0..5 {
                let nib = tx.out_nibble();
                tx.eval();
                conv.eval(&[nib, Nibble::ZERO, Nibble::ZERO, Nibble::ZERO]);
                tx.commit(&mut ledger);
                conv.commit();
            }
        }
        // Capacity 2: the third phit overflows (debug_assert only fires in
        // debug builds of this crate's dependents; here we count).
        assert_eq!(conv.rx_pending(0), 2);
        assert_eq!(conv.try_recv(0), Some(Phit::data(0)));
        assert_eq!(conv.try_recv(0), Some(Phit::data(1)));
        assert_eq!(conv.try_recv(0), None);
    }

    #[test]
    fn register_bits_paper_config() {
        // 4 lanes x 2 directions x (20 shift + 3 count) = 184 bits.
        assert_eq!(DataConverter::register_bits(&RouterParams::paper()), 184);
    }

    #[test]
    fn tx_cannot_double_load() {
        let mut tx = TxSerializer::new();
        assert!(tx.try_load(Phit::data(1)));
        assert!(!tx.try_load(Phit::data(2)), "pending load blocks");
    }
}
