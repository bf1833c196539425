//! Strongly-typed physical units.
//!
//! The power and area models of this workspace juggle femtojoules, microwatts,
//! megahertz and square micrometres; mixing any two of them silently is the
//! classic way to produce a plausible-looking but wrong Figure 9. Each unit is
//! a thin `f64` newtype with only the conversions that make physical sense.
//!
//! The chosen base units mirror the paper's reporting units: the paper reports
//! power in µW (Fig. 9), energy-per-rate in µW/MHz (Fig. 10), area in mm²
//! (Table 4, we store µm² internally) and frequency in MHz.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the arithmetic shared by all scalar unit newtypes.
macro_rules! scalar_unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value of this unit.
            pub const ZERO: Self = Self(0.0);

            /// Raw numeric value in the unit's base scale.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// `true` when the value is finite (neither NaN nor infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

scalar_unit!(
    /// Energy in femtojoules (1 fJ = 1e-15 J).
    ///
    /// Per-event energies of 0.13 µm standard cells live in the 1–100 fJ
    /// range, which keeps the numbers human-readable in debug output.
    FemtoJoules,
    "fJ"
);

scalar_unit!(
    /// Power in microwatts, the unit of the paper's Figure 9.
    MicroWatts,
    "uW"
);

scalar_unit!(
    /// Clock frequency in MHz, the unit of the paper's Table 4.
    MegaHertz,
    "MHz"
);

scalar_unit!(
    /// Time in picoseconds; gate delays in 0.13 µm are tens of ps.
    Picoseconds,
    "ps"
);

scalar_unit!(
    /// Silicon area in square micrometres (1 mm² = 1e6 µm²).
    SquareMicroMeters,
    "um^2"
);

scalar_unit!(
    /// Data bandwidth in megabits per second, the unit of Tables 1 and 2.
    Bandwidth,
    "Mbit/s"
);

impl FemtoJoules {
    /// Energy dissipated over `time` at constant `power`.
    ///
    /// 1 µW × 1 ps = 1e-6 W × 1e-12 s = 1e-18 J = 1e-3 fJ.
    pub fn from_power_time(power: MicroWatts, time: Picoseconds) -> Self {
        Self(power.0 * time.0 * 1e-3)
    }

    /// Average power when this energy is spread over `time`.
    pub fn over(self, time: Picoseconds) -> MicroWatts {
        MicroWatts(self.0 / time.0 * 1e3)
    }
}

impl MegaHertz {
    /// Clock period of this frequency.
    ///
    /// 1 MHz → 1 µs = 1e6 ps.
    pub fn period(self) -> Picoseconds {
        Picoseconds(1e6 / self.0)
    }

    /// Frequency whose clock period is `period`.
    pub fn from_period(period: Picoseconds) -> Self {
        Self(1e6 / period.0)
    }
}

impl Picoseconds {
    /// Construct from microseconds (the paper specifies 200 µs simulations).
    pub fn from_micros(us: f64) -> Self {
        Self(us * 1e6)
    }

    /// This duration expressed in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e-6
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Self(ns * 1e3)
    }

    /// Construct from milliseconds (reconfiguration deadlines are in ms).
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e9)
    }

    /// This duration expressed in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e-9
    }
}

impl SquareMicroMeters {
    /// Construct from square millimetres (the unit of the paper's Table 4).
    pub fn from_mm2(mm2: f64) -> Self {
        Self(mm2 * 1e6)
    }

    /// This area expressed in square millimetres.
    pub fn as_mm2(self) -> f64 {
        self.0 * 1e-6
    }
}

impl Bandwidth {
    /// Construct from bits transported over a duration.
    pub fn from_bits_over(bits: u64, time: Picoseconds) -> Self {
        // bits / ps = 1e12 bit/s = 1e6 Mbit/s.
        Self(bits as f64 / time.0 * 1e6)
    }

    /// Construct from gigabits per second (the unit of Table 4's last row).
    pub fn from_gbit_s(gbit: f64) -> Self {
        Self(gbit * 1e3)
    }

    /// This bandwidth expressed in Gbit/s.
    pub fn as_gbit_s(self) -> f64 {
        self.0 * 1e-3
    }

    /// Bits transported in `time` at this bandwidth.
    pub fn bits_in(self, time: Picoseconds) -> f64 {
        self.0 * 1e-6 * time.0
    }
}

/// Relative difference `|a - b| / |b|`, used by tests and EXPERIMENTS.md to
/// compare measured values against the paper's published numbers.
pub fn relative_error(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        measured.abs()
    } else {
        (measured - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_power_time_roundtrip() {
        let p = MicroWatts(1000.0);
        let t = Picoseconds::from_micros(1.0);
        let e = FemtoJoules::from_power_time(p, t);
        // 1 mW for 1 µs = 1 nJ = 1e6 fJ.
        assert!((e.value() - 1e6).abs() < 1e-6);
        let back = e.over(t);
        assert!((back.value() - p.value()).abs() < 1e-9);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = MegaHertz(25.0);
        let t = f.period();
        assert!((t.value() - 40_000.0).abs() < 1e-9, "25 MHz = 40 ns period");
        let f2 = MegaHertz::from_period(t);
        assert!((f2.value() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn paper_frequency_1075_mhz_period() {
        // Table 4: the circuit-switched router runs at 1075 MHz -> ~930 ps.
        let t = MegaHertz(1075.0).period();
        assert!((t.value() - 930.232_558_139_535).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_from_bits() {
        // 16 bits per cycle at 1075 MHz = 17.2 Gbit/s (Table 4).
        let cycle = MegaHertz(1075.0).period();
        let bw = Bandwidth::from_bits_over(16, cycle);
        assert!((bw.as_gbit_s() - 17.2).abs() < 1e-9);
    }

    #[test]
    fn area_mm2_roundtrip() {
        let a = SquareMicroMeters::from_mm2(0.0506);
        assert!((a.value() - 50_600.0).abs() < 1e-9);
        assert!((a.as_mm2() - 0.0506).abs() < 1e-12);
    }

    #[test]
    fn unit_arithmetic() {
        let a = MicroWatts(2.0) + MicroWatts(3.0);
        assert_eq!(a, MicroWatts(5.0));
        let b = a - MicroWatts(1.0);
        assert_eq!(b, MicroWatts(4.0));
        let c = b * 2.0;
        assert_eq!(c, MicroWatts(8.0));
        let r = c / MicroWatts(2.0);
        assert_eq!(r, 4.0);
        let s: MicroWatts = [MicroWatts(1.0), MicroWatts(2.5)].into_iter().sum();
        assert_eq!(s, MicroWatts(3.5));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.2}", MicroWatts(1.234_56)), "1.23 uW");
        assert_eq!(format!("{}", MegaHertz(25.0)), "25 MHz");
    }

    #[test]
    fn relative_error_behaviour() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }

    #[test]
    fn millis_and_micros() {
        assert_eq!(Picoseconds::from_millis(1.0).value(), 1e9);
        assert!((Picoseconds::from_millis(20.0).as_millis() - 20.0).abs() < 1e-12);
        assert!((Picoseconds::from_micros(200.0).as_micros() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_bits_in() {
        // 80 Mbit/s for 200 µs = 16_000 bits = 2 kB (paper Section 7.2).
        let bw = Bandwidth(80.0);
        let bits = bw.bits_in(Picoseconds::from_micros(200.0));
        assert!((bits - 16_000.0).abs() < 1e-6);
    }
}
