//! Window-counter flow control (paper Section 5.2).
//!
//! "With only a four bit forward lane from source to destination and no
//! feedback, we have to assume the destination can consume the data. ... To
//! overcome this problem an acknowledgement signal is added in the reverse
//! direction. ... Every source has a local window counter of size WC. This
//! local window counter indicates how many data-packets the source is allowed
//! to send to the destination. The destination will send an acknowledgement
//! signal when it has read X data-packets, where X ≤ WC. When the source
//! receives an acknowledge signal it increases its local window counter (WC)
//! by X. By configuring the use of the acknowledgement signal and size of X
//! and WC we can support both blocking and non-blocking communication."
//!
//! [`WindowCounter`] is the source side, [`AckGenerator`] the destination
//! side. Both are tiny synchronous state machines whose registers are
//! charged to the router's flow-control ledger.

use noc_sim::activity::{ActivityClass, ActivityLedger};
use noc_sim::signal::Reg;

/// How a source lane is flow-controlled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControlMode {
    /// No acknowledge wire in use: the destination is assumed to always
    /// consume (the paper's base case before the ack extension).
    NonBlocking,
    /// Window-counter mode with window `wc` and ack batch `x` (`x ≤ wc`).
    Window {
        /// Window size WC: packets the source may have outstanding.
        wc: u16,
        /// Packets acknowledged per ack pulse.
        x: u16,
    },
}

impl FlowControlMode {
    /// Derive the mode from router parameters (`window_size == 0` disables
    /// flow control).
    pub fn from_params(window_size: u16, ack_batch: u16) -> FlowControlMode {
        if window_size == 0 {
            FlowControlMode::NonBlocking
        } else {
            let x = ack_batch.clamp(1, window_size);
            FlowControlMode::Window { wc: window_size, x }
        }
    }
}

/// Source-side window counter.
///
/// Holds the number of packets the source may still inject. Decremented per
/// accepted packet, incremented by `X` per received ack pulse. The counter
/// is an architectural register and pays clock energy every cycle like any
/// other ungated flop.
#[derive(Debug, Clone)]
pub struct WindowCounter {
    mode: FlowControlMode,
    credits: Reg<u16>,
    /// Set during eval when the ack input was high (for `Handshake` events).
    ack_seen: bool,
}

impl WindowCounter {
    /// A counter starting with the full window available.
    pub fn new(mode: FlowControlMode) -> WindowCounter {
        let init = match mode {
            FlowControlMode::NonBlocking => 0,
            FlowControlMode::Window { wc, .. } => wc,
        };
        WindowCounter {
            mode,
            credits: Reg::new(init),
            ack_seen: false,
        }
    }

    /// May the source inject a packet this cycle?
    #[inline]
    pub fn can_send(&self) -> bool {
        match self.mode {
            FlowControlMode::NonBlocking => true,
            FlowControlMode::Window { .. } => self.credits.q() > 0,
        }
    }

    /// Credits currently available (always 0 in non-blocking mode).
    pub fn credits(&self) -> u16 {
        self.credits.q()
    }

    /// The configured mode.
    pub fn mode(&self) -> FlowControlMode {
        self.mode
    }

    /// Combinational update: `sent` = a packet was accepted this cycle,
    /// `ack` = the reverse ack wire is high this cycle.
    ///
    /// In window mode the invariant `credits ≤ WC` is maintained: the
    /// destination only acks consumed packets, so restore can never exceed
    /// the window (checked in debug builds).
    pub fn eval(&mut self, sent: bool, ack: bool) {
        self.ack_seen = ack;
        if let FlowControlMode::Window { wc, x } = self.mode {
            debug_assert!(
                !sent || self.credits.q() > 0,
                "source injected without credit"
            );
            let mut next = self.credits.q() - u16::from(sent && self.credits.q() > 0);
            if ack {
                next += x;
                debug_assert!(
                    next <= wc,
                    "ack overflowed the window (credits {next} > WC {wc})"
                );
                next = next.min(wc);
            }
            self.credits.set_next(next);
        }
    }

    /// Register bits clocked on every edge: the credit counter, physically
    /// `ceil(log2(WC+1))` bits (none in non-blocking mode).
    pub(crate) fn clock_bits(&self) -> u32 {
        match self.mode {
            FlowControlMode::NonBlocking => 0,
            FlowControlMode::Window { wc, .. } => bits_for_count(wc),
        }
    }

    /// Clock edge: latch the counter, record handshakes.
    pub fn commit(&mut self, ledger: &mut ActivityLedger) {
        let (toggles, handshake) = self.latch();
        charge(ledger, self.clock_bits(), toggles, handshake);
    }

    /// Clock edge without a ledger: returns the counter bits that toggled
    /// and whether an ack handshake completed (every edge clocks
    /// [`WindowCounter::clock_bits`]).
    pub(crate) fn latch(&mut self) -> (u32, bool) {
        let edge = match self.mode {
            FlowControlMode::NonBlocking => (0, false),
            FlowControlMode::Window { .. } => (self.credits.latch(), self.ack_seen),
        };
        self.ack_seen = false;
        edge
    }
}

/// Bits of a counter that holds `0..=max`: `ceil(log2(max+1))`, at least 1.
fn bits_for_count(max: u16) -> u32 {
    (u16::BITS - max.leading_zeros()).max(1)
}

/// Charge one flow-control clock edge to `ledger`.
fn charge(ledger: &mut ActivityLedger, clocks: u32, toggles: u32, handshake: bool) {
    ledger.add(ActivityClass::RegClock, u64::from(clocks));
    ledger.add(ActivityClass::RegToggle, u64::from(toggles));
    ledger.add(ActivityClass::Handshake, u64::from(handshake));
}

/// Destination-side acknowledge generator.
///
/// Counts packets the destination has *consumed* and raises the reverse ack
/// wire for one cycle after every `X`-th packet.
#[derive(Debug, Clone)]
pub struct AckGenerator {
    mode: FlowControlMode,
    consumed: Reg<u16>,
    ack_out: Reg<bool>,
}

impl AckGenerator {
    /// A generator with nothing consumed yet.
    pub fn new(mode: FlowControlMode) -> AckGenerator {
        AckGenerator {
            mode,
            consumed: Reg::new(0),
            ack_out: Reg::new(false),
        }
    }

    /// The ack wire value this cycle (registered: pulses one cycle per batch).
    #[inline]
    pub fn ack(&self) -> bool {
        self.ack_out.q()
    }

    /// Combinational update: `consumed_now` packets were read by the tile
    /// this cycle (0 or 1 for a 16-bit interface).
    pub fn eval(&mut self, consumed_now: u16) {
        match self.mode {
            FlowControlMode::NonBlocking => {
                self.ack_out.set_next(false);
            }
            FlowControlMode::Window { x, .. } => {
                let total = self.consumed.q() + consumed_now;
                if total >= x {
                    self.consumed.set_next(total - x);
                    self.ack_out.set_next(true);
                } else {
                    self.consumed.set_next(total);
                    self.ack_out.set_next(false);
                }
            }
        }
    }

    /// Register bits clocked on every edge: the consumed counter,
    /// physically `ceil(log2(X+1))` bits, plus the ack flop (none in
    /// non-blocking mode).
    pub(crate) fn clock_bits(&self) -> u32 {
        match self.mode {
            FlowControlMode::NonBlocking => 0,
            FlowControlMode::Window { x, .. } => bits_for_count(x) + 1,
        }
    }

    /// Clock edge.
    pub fn commit(&mut self, ledger: &mut ActivityLedger) {
        let (toggles, handshake) = self.latch();
        charge(ledger, self.clock_bits(), toggles, handshake);
    }

    /// Clock edge without a ledger: returns the register bits that toggled
    /// and whether an ack pulse is now on the wire (every edge clocks
    /// [`AckGenerator::clock_bits`]).
    pub(crate) fn latch(&mut self) -> (u32, bool) {
        match self.mode {
            FlowControlMode::NonBlocking => (0, false),
            FlowControlMode::Window { .. } => {
                let toggles = self.consumed.latch() + self.ack_out.latch();
                (toggles, self.ack_out.q())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(wc: u16, x: u16) -> FlowControlMode {
        FlowControlMode::Window { wc, x }
    }

    #[test]
    fn mode_from_params() {
        assert_eq!(
            FlowControlMode::from_params(0, 4),
            FlowControlMode::NonBlocking
        );
        assert_eq!(FlowControlMode::from_params(8, 4), window(8, 4));
        // X clamped to WC.
        assert_eq!(FlowControlMode::from_params(4, 9), window(4, 4));
        // X at least 1.
        assert_eq!(FlowControlMode::from_params(4, 0), window(4, 1));
    }

    #[test]
    fn window_counter_exhausts_and_blocks() {
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(window(2, 1));
        assert!(wc.can_send());
        wc.eval(true, false);
        wc.commit(&mut ledger);
        assert_eq!(wc.credits(), 1);
        wc.eval(true, false);
        wc.commit(&mut ledger);
        assert_eq!(wc.credits(), 0);
        assert!(!wc.can_send(), "blocking: no credit left");
    }

    #[test]
    fn ack_restores_x_credits() {
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(window(8, 4));
        for _ in 0..6 {
            wc.eval(true, false);
            wc.commit(&mut ledger);
        }
        assert_eq!(wc.credits(), 2);
        wc.eval(false, true);
        wc.commit(&mut ledger);
        assert_eq!(wc.credits(), 6);
        assert_eq!(ledger.get(ActivityClass::Handshake), 1);
    }

    #[test]
    fn simultaneous_send_and_ack() {
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(window(8, 4));
        for _ in 0..4 {
            wc.eval(true, false);
            wc.commit(&mut ledger);
        }
        assert_eq!(wc.credits(), 4);
        wc.eval(true, true); // send one, ack four
        wc.commit(&mut ledger);
        assert_eq!(wc.credits(), 7);
    }

    #[test]
    fn nonblocking_always_sendable() {
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(FlowControlMode::NonBlocking);
        for _ in 0..100 {
            assert!(wc.can_send());
            wc.eval(true, false);
            wc.commit(&mut ledger);
        }
        // Non-blocking mode has no counter to clock.
        assert_eq!(ledger.get(ActivityClass::RegClock), 0);
    }

    #[test]
    fn ack_generator_pulses_every_x() {
        let mut ledger = ActivityLedger::new();
        let mut gen = AckGenerator::new(window(8, 4));
        let mut pulses = 0;
        for i in 1..=12 {
            gen.eval(1);
            gen.commit(&mut ledger);
            if gen.ack() {
                pulses += 1;
                assert_eq!(i % 4, 0, "pulse after every 4th packet");
            }
        }
        assert_eq!(pulses, 3);
    }

    #[test]
    fn ack_generator_pulse_is_one_cycle() {
        let mut ledger = ActivityLedger::new();
        let mut gen = AckGenerator::new(window(4, 2));
        gen.eval(1);
        gen.commit(&mut ledger);
        assert!(!gen.ack());
        gen.eval(1);
        gen.commit(&mut ledger);
        assert!(gen.ack());
        gen.eval(0);
        gen.commit(&mut ledger);
        assert!(!gen.ack(), "ack drops after one cycle");
    }

    #[test]
    fn ack_generator_nonblocking_never_acks() {
        let mut ledger = ActivityLedger::new();
        let mut gen = AckGenerator::new(FlowControlMode::NonBlocking);
        for _ in 0..10 {
            gen.eval(1);
            gen.commit(&mut ledger);
            assert!(!gen.ack());
        }
    }

    #[test]
    fn closed_loop_source_never_starves_with_matched_window() {
        // Source and destination coupled with a 2-cycle round-trip delay
        // (one reg each way), WC=8, X=4: a 100%-duty stream never stalls.
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(window(8, 4));
        let mut gen = AckGenerator::new(window(8, 4));
        let mut in_flight: std::collections::VecDeque<bool> = [false, false].into();
        let mut sent = 0u32;
        for _ in 0..100 {
            let can = wc.can_send();
            if can {
                sent += 1;
            }
            // Destination consumes after the forward delay (modelled as the
            // in_flight queue).
            let arrived = in_flight.pop_front().unwrap();
            gen.eval(u16::from(arrived));
            in_flight.push_back(can);
            wc.eval(can, gen.ack());
            wc.commit(&mut ledger);
            gen.commit(&mut ledger);
        }
        assert_eq!(sent, 100, "window never closed");
    }

    #[test]
    fn window_one_round_trip_throttles() {
        // WC=1, X=1 with a 3-cycle loop: throughput limited by the loop.
        let mut ledger = ActivityLedger::new();
        let mut wc = WindowCounter::new(window(1, 1));
        let mut gen = AckGenerator::new(window(1, 1));
        let mut fwd: std::collections::VecDeque<bool> = [false].into();
        let mut sent = 0u32;
        for _ in 0..90 {
            let can = wc.can_send();
            if can {
                sent += 1;
            }
            let arrived = fwd.pop_front().unwrap();
            gen.eval(u16::from(arrived));
            fwd.push_back(can);
            wc.eval(can, gen.ack());
            wc.commit(&mut ledger);
            gen.commit(&mut ledger);
        }
        // Period = send + 1 fwd delay + ack reg = 3 cycles.
        assert!((29..=31).contains(&sent), "expected ~30 sends, got {sent}");
    }
}
