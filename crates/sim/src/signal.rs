//! Registers and observed wires — the primitives toggle counting hangs off.
//!
//! A synchronous design is registers separated by combinational logic. The
//! simulator models the registers explicitly ([`Reg`]) and observes a chosen
//! set of combinational nodes ([`Wire`]) — the ones whose capacitance matters
//! for power: crossbar outputs, link wires, mux select lines. Everything else
//! combinational is computed functionally and its energy is folded into the
//! per-event coefficients of the observed nodes, which is also how gate-level
//! tools lump short local nets into cell-internal power.

use crate::activity::{ActivityClass, ActivityLedger};
use crate::bits::Bits;

/// An edge-triggered register of `T::WIDTH` bits with two-phase semantics.
///
/// During the *evaluate* phase components read `q()` (the value latched at the
/// previous edge) and call `set_next()`. The *commit* phase ([`Reg::clock`])
/// models the clock edge: it charges one `RegClock` event per bit (the clock
/// pin and local clock-buffer energy paid every cycle, gated or not idle) and
/// one `RegToggle` per bit that actually changed.
///
/// [`Reg::clock_gated`] models a clock-gated edge: the register holds its
/// value and pays *nothing* — this is the clock-gating opportunity the paper's
/// Section 7.3 identifies for unused lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Reg<T: Bits> {
    cur: T,
    nxt: T,
}

impl<T: Bits> Reg<T> {
    /// A register initialised to `reset`, with `next` primed to hold.
    pub fn new(reset: T) -> Self {
        Self {
            cur: reset,
            nxt: reset,
        }
    }

    /// The currently latched value (the Q output).
    #[inline]
    pub fn q(&self) -> T {
        self.cur
    }

    /// Schedule `v` to be latched at the next clock edge (the D input).
    #[inline]
    pub fn set_next(&mut self, v: T) {
        self.nxt = v;
    }

    /// The currently scheduled next value (for testbench inspection).
    #[inline]
    pub fn d(&self) -> T {
        self.nxt
    }

    /// Clock edge: latch D into Q, recording clock and toggle energy.
    #[inline]
    pub fn clock(&mut self, ledger: &mut ActivityLedger) {
        ledger.add(ActivityClass::RegClock, T::WIDTH as u64);
        let toggles = self.latch();
        if toggles != 0 {
            ledger.add(ActivityClass::RegToggle, toggles as u64);
        }
    }

    /// Clock edge without a ledger: latch D into Q and return the number
    /// of bits that changed. For components that sum a whole edge's
    /// events and charge them with one ledger add per class; the clock
    /// charge is the caller's (a constant per register).
    #[inline]
    pub fn latch(&mut self) -> u32 {
        let toggles = self.cur.hamming(self.nxt);
        self.cur = self.nxt;
        toggles
    }

    /// Clock edge for a register whose physical width is narrower than its
    /// backing type — e.g. a 20-bit shift register stored in a `u32`.
    /// Charges `bits` clock events instead of `T::WIDTH`; toggles are
    /// counted from the actual value change (upper backing bits never
    /// toggle in a correctly masked design).
    #[inline]
    pub fn clock_bits(&mut self, ledger: &mut ActivityLedger, bits: u32) {
        debug_assert!(bits <= T::WIDTH, "physical width exceeds backing type");
        ledger.add(ActivityClass::RegClock, bits as u64);
        let toggles = self.latch();
        if toggles != 0 {
            debug_assert!(toggles <= bits, "toggles outside the physical bits");
            ledger.add(ActivityClass::RegToggle, toggles as u64);
        }
    }

    /// Gated clock edge: hold Q, pay no clock energy. `D` is left untouched
    /// so re-enabling the clock resumes from whatever was last scheduled.
    #[inline]
    pub fn clock_gated(&mut self) {
        self.nxt = self.cur;
    }

    /// Reset both phases to `v` without recording any activity (power-on
    /// reset happens outside the measured window).
    pub fn reset_to(&mut self, v: T) {
        self.cur = v;
        self.nxt = v;
    }
}

/// An observed combinational node (or bundle of wires) of `T::WIDTH` bits.
///
/// `drive()` is called once per cycle with the value the surrounding logic
/// computed; the wire charges the configured [`ActivityClass`] with the
/// Hamming distance to the previous value. Which class — `WireToggle` for
/// local nodes, `LinkToggle` for inter-router wires, `SelectToggle` for
/// crossbar control — determines the capacitance the power model applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire<T: Bits> {
    value: T,
    class: ActivityClass,
}

impl<T: Bits> Wire<T> {
    /// A wire resting at `reset`, charged to `class` when it toggles.
    pub fn new(reset: T, class: ActivityClass) -> Self {
        Self {
            value: reset,
            class,
        }
    }

    /// The value currently on the wire.
    #[inline]
    pub fn get(&self) -> T {
        self.value
    }

    /// Drive `v` onto the wire, recording toggles against the ledger.
    /// Returns the number of bits that flipped (handy for tests).
    #[inline]
    pub fn drive(&mut self, v: T, ledger: &mut ActivityLedger) -> u32 {
        let toggles = self.value.hamming(v);
        if toggles != 0 {
            ledger.add(self.class, toggles as u64);
        }
        self.value = v;
        toggles
    }

    /// Force a value without recording activity (reset / test setup).
    pub fn force(&mut self, v: T) {
        self.value = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Nibble;

    #[test]
    fn reg_two_phase_semantics() {
        let mut ledger = ActivityLedger::new();
        let mut r = Reg::new(0u16);
        r.set_next(0xFFFF);
        // Evaluate phase: Q still old.
        assert_eq!(r.q(), 0);
        assert_eq!(r.d(), 0xFFFF);
        r.clock(&mut ledger);
        assert_eq!(r.q(), 0xFFFF);
        assert_eq!(ledger.get(ActivityClass::RegClock), 16);
        assert_eq!(ledger.get(ActivityClass::RegToggle), 16);
    }

    #[test]
    fn reg_idle_clocking_costs_clock_but_not_toggle() {
        let mut ledger = ActivityLedger::new();
        let mut r = Reg::new(0xAu8);
        r.set_next(0xA);
        r.clock(&mut ledger);
        assert_eq!(ledger.get(ActivityClass::RegClock), 8);
        assert_eq!(ledger.get(ActivityClass::RegToggle), 0);
    }

    #[test]
    fn reg_gated_clock_is_free_and_holds() {
        let mut ledger = ActivityLedger::new();
        let mut r = Reg::new(Nibble::new(0x5));
        r.set_next(Nibble::new(0xF));
        r.clock_gated();
        assert_eq!(r.q(), Nibble::new(0x5));
        assert!(ledger.is_empty());
        // Re-enabled clocking proceeds from held state.
        r.set_next(Nibble::new(0x6));
        r.clock(&mut ledger);
        assert_eq!(r.q(), Nibble::new(0x6));
        assert_eq!(ledger.get(ActivityClass::RegClock), 4);
        // 0x5 -> 0x6 flips bits 0 and 1.
        assert_eq!(ledger.get(ActivityClass::RegToggle), 2);
    }

    #[test]
    fn reg_reset_records_nothing() {
        let mut r = Reg::new(0xFFu8);
        r.reset_to(0);
        assert_eq!(r.q(), 0);
        assert_eq!(r.d(), 0);
    }

    #[test]
    fn wire_counts_hamming_on_change() {
        let mut ledger = ActivityLedger::new();
        let mut w = Wire::new(0u8, ActivityClass::LinkToggle);
        assert_eq!(w.drive(0b1111, &mut ledger), 4);
        assert_eq!(w.drive(0b1111, &mut ledger), 0);
        assert_eq!(w.drive(0b0000, &mut ledger), 4);
        assert_eq!(ledger.get(ActivityClass::LinkToggle), 8);
        assert_eq!(ledger.get(ActivityClass::WireToggle), 0);
    }

    #[test]
    fn wire_force_is_silent() {
        let mut ledger = ActivityLedger::new();
        let mut w = Wire::new(Nibble::ZERO, ActivityClass::WireToggle);
        w.force(Nibble::MAX);
        assert_eq!(w.get(), Nibble::MAX);
        assert!(ledger.is_empty());
        // Subsequent drives count from the forced value.
        w.drive(Nibble::MAX, &mut ledger);
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn select_toggle_class_routed_correctly() {
        let mut ledger = ActivityLedger::new();
        let mut sel = Wire::new(0u8, ActivityClass::SelectToggle);
        sel.drive(0b11, &mut ledger);
        assert_eq!(ledger.get(ActivityClass::SelectToggle), 2);
    }
}
