//! Phase-shifting workload profiles for fleet-scale load generation.
//!
//! A [`PhaseProfile`] modulates a deployment's *offered* load over time:
//! it maps `(cycle, stream index)` to a scale factor on the stream's
//! declared rate (1.0 = the demand as mapped, 0.0 = an off-phase).
//! Profiles are **pure functions of time** — they carry no mutable
//! state — so a replay from any checkpoint reproduces the exact same
//! phases for free, which is what makes fleet snapshot/restore
//! deterministic end to end.
//!
//! Three adversarial shapes beyond steady offered load, each targeting a
//! different control-plane weakness:
//!
//! * [`PhaseProfile::BurstyOnOff`] — square-wave duty cycling. The
//!   off-phases read as abandonment to any policy that trusts a single
//!   measurement window; this is the generator the hardened
//!   `LoadDemotion` (EWMA + minimum dwell) is proven non-flapping under.
//! * [`PhaseProfile::DiurnalRamp`] — a slow triangle wave between a
//!   floor and full demand, the classic day/night load curve compressed
//!   into simulation cycles. Stresses admission headroom as the whole
//!   fleet swells and shrinks together.
//! * [`PhaseProfile::HotspotFlip`] — all streams idle at a background
//!   level except one hot stream at full demand, and the hot index
//!   rotates every period. Adversarial for profiled policies: history
//!   chases a target that keeps moving.

/// A deterministic offered-load profile: scale factors over time, per
/// stream. See the module docs for the shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseProfile {
    /// Constant full demand — the baseline every other profile deviates
    /// from.
    Steady,
    /// Square-wave duty cycling: within each `period` cycles, offered
    /// load runs at full demand for `on` cycles, then at zero for the
    /// rest. Streams alternate phase by index (even indices start on,
    /// odd indices start off), so a multi-stream tenant never goes
    /// entirely silent.
    BurstyOnOff {
        /// Full burst period in cycles.
        period: u64,
        /// Cycles at full demand inside each period (`0 < on <= period`).
        on: u64,
    },
    /// A triangle wave between `floor` (a fraction of demand) and full
    /// demand, rising over the first half of `period` and falling over
    /// the second.
    DiurnalRamp {
        /// Full ramp period in cycles.
        period: u64,
        /// Offered-load fraction at the bottom of the ramp (`0.0..=1.0`).
        floor: f64,
    },
    /// One rotating hot stream at full demand; every other stream idles
    /// at `background`. The hot index is `(cycle / period) % streams`,
    /// so each flip hands the hotspot to the next stream.
    HotspotFlip {
        /// Cycles between hotspot flips.
        period: u64,
        /// Offered-load fraction of the non-hot streams (`0.0..=1.0`).
        background: f64,
    },
}

impl PhaseProfile {
    /// The offered-load scale for stream `stream` of `streams` at
    /// absolute cycle `cycle`. Always in `0.0..=1.0`; pure in all three
    /// arguments.
    pub fn scale(&self, cycle: u64, stream: usize, streams: usize) -> f64 {
        match *self {
            PhaseProfile::Steady => 1.0,
            PhaseProfile::BurstyOnOff { period, on } => {
                let period = period.max(1);
                let on = on.clamp(1, period);
                // Odd streams run the complementary phase.
                let shifted = cycle + (stream as u64 % 2) * (period / 2);
                if shifted % period < on {
                    1.0
                } else {
                    0.0
                }
            }
            PhaseProfile::DiurnalRamp { period, floor } => {
                let period = period.max(2);
                let phase = cycle % period;
                let half = period / 2;
                // 0 -> 1 over the first half, 1 -> 0 over the second.
                let up = if phase < half {
                    phase as f64 / half as f64
                } else {
                    (period - phase) as f64 / (period - half) as f64
                };
                floor.clamp(0.0, 1.0) + (1.0 - floor.clamp(0.0, 1.0)) * up
            }
            PhaseProfile::HotspotFlip { period, background } => {
                let streams = streams.max(1) as u64;
                let hot = (cycle / period.max(1)) % streams;
                if stream as u64 == hot {
                    1.0
                } else {
                    background.clamp(0.0, 1.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_is_always_full_demand() {
        for cycle in [0, 1, 999_999] {
            assert_eq!(PhaseProfile::Steady.scale(cycle, 0, 3), 1.0);
        }
    }

    #[test]
    fn bursty_square_wave_cycles_on_and_off() {
        let p = PhaseProfile::BurstyOnOff {
            period: 256,
            on: 192,
        };
        assert_eq!(p.scale(0, 0, 1), 1.0);
        assert_eq!(p.scale(191, 0, 1), 1.0);
        assert_eq!(p.scale(192, 0, 1), 0.0);
        assert_eq!(p.scale(255, 0, 1), 0.0);
        assert_eq!(p.scale(256, 0, 1), 1.0, "periodic");
        // Odd streams run the complementary phase (shifted half a period).
        assert_eq!(p.scale(192, 1, 2), 1.0);
    }

    #[test]
    fn diurnal_ramp_spans_floor_to_full() {
        let p = PhaseProfile::DiurnalRamp {
            period: 1000,
            floor: 0.2,
        };
        assert!((p.scale(0, 0, 1) - 0.2).abs() < 1e-12, "bottom of the ramp");
        assert!((p.scale(500, 0, 1) - 1.0).abs() < 1e-12, "peak at midday");
        let rising = p.scale(250, 0, 1);
        assert!(rising > 0.2 && rising < 1.0);
        assert_eq!(p.scale(250, 0, 1), p.scale(1250, 0, 1), "periodic");
    }

    #[test]
    fn hotspot_rotates_through_the_streams() {
        let p = PhaseProfile::HotspotFlip {
            period: 100,
            background: 0.1,
        };
        assert_eq!(p.scale(0, 0, 3), 1.0);
        assert_eq!(p.scale(0, 1, 3), 0.1);
        assert_eq!(p.scale(100, 1, 3), 1.0, "the hotspot moved on");
        assert_eq!(p.scale(100, 0, 3), 0.1);
        assert_eq!(p.scale(300, 0, 3), 1.0, "wraps around");
    }

    #[test]
    fn every_profile_stays_in_unit_range() {
        let profiles = [
            PhaseProfile::Steady,
            PhaseProfile::BurstyOnOff { period: 64, on: 16 },
            PhaseProfile::DiurnalRamp {
                period: 300,
                floor: 0.25,
            },
            PhaseProfile::HotspotFlip {
                period: 50,
                background: 0.3,
            },
        ];
        for p in profiles {
            for cycle in 0..1000 {
                for stream in 0..4 {
                    let s = p.scale(cycle, stream, 4);
                    assert!((0.0..=1.0).contains(&s), "{p:?} out of range: {s}");
                }
            }
        }
    }
}
