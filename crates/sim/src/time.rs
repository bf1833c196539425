//! Simulation time: clock cycles and their relation to physical time.
//!
//! All routers in this workspace are synchronous designs clocked by a single
//! clock (the paper keeps tiles and NoC on one clock, Section 5). Simulation
//! therefore advances in whole cycles; physical quantities (the 200 µs
//! simulation window, 4 µs OFDM symbol periods, millisecond reconfiguration
//! deadlines) are mapped to cycles through the chosen clock frequency.

use crate::units::{MegaHertz, Picoseconds};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute cycle index since simulation start (cycle 0 = reset release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

/// A number of cycles (a duration, as opposed to the instant [`Cycle`]).
pub type CycleCount = u64;

impl Cycle {
    /// The first cycle after reset.
    pub const ZERO: Cycle = Cycle(0);

    /// The cycle `n` cycles after this one.
    #[inline]
    pub fn after(self, n: CycleCount) -> Cycle {
        Cycle(self.0 + n)
    }

    /// Cycles elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future — callers ask for elapsed time, not time travel.
    #[inline]
    pub fn since(self, earlier: Cycle) -> CycleCount {
        debug_assert!(earlier.0 <= self.0, "since() requires earlier <= self");
        self.0 - earlier.0
    }

    /// Physical instant of this cycle's rising edge at frequency `f`.
    pub fn at(self, f: MegaHertz) -> Picoseconds {
        f.period() * self.0 as f64
    }
}

impl Add<CycleCount> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: CycleCount) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<CycleCount> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: CycleCount) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = CycleCount;
    #[inline]
    fn sub(self, rhs: Cycle) -> CycleCount {
        self.since(rhs)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// Number of whole cycles that fit in `duration` at frequency `f`.
///
/// The paper's power figures simulate 200 µs at 25 MHz, i.e. exactly
/// 5000 cycles; partial trailing cycles are dropped (floor), matching how a
/// testbench with a finite clock would behave.
pub fn cycles_in(duration: Picoseconds, f: MegaHertz) -> CycleCount {
    (duration.value() / f.period().value()).floor() as CycleCount
}

/// Physical duration of `n` cycles at frequency `f`.
pub fn duration_of(n: CycleCount, f: MegaHertz) -> Picoseconds {
    f.period() * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_simulation_window_is_5000_cycles() {
        // Section 7.2: 200 µs at 25 MHz.
        let n = cycles_in(Picoseconds::from_micros(200.0), MegaHertz(25.0));
        assert_eq!(n, 5000);
    }

    #[test]
    fn ofdm_symbol_period_cycles() {
        // One HiperLAN/2 OFDM symbol each 4 µs; at 25 MHz that is 100 cycles.
        let n = cycles_in(Picoseconds::from_micros(4.0), MegaHertz(25.0));
        assert_eq!(n, 100);
    }

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(10);
        assert_eq!(c.after(5), Cycle(15));
        assert_eq!(Cycle(15).since(c), 5);
        assert_eq!(Cycle(15) - c, 5);
        let mut d = c;
        d += 3;
        assert_eq!(d, Cycle(13));
    }

    #[test]
    fn cycle_instant() {
        let t = Cycle(5000).at(MegaHertz(25.0));
        assert!((t.as_micros() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn duration_roundtrip() {
        let d = duration_of(123, MegaHertz(1075.0));
        let n = cycles_in(d, MegaHertz(1075.0));
        assert_eq!(n, 123);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Cycle(42)), "cycle 42");
    }
}
