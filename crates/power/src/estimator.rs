//! The power estimator: counted activity × energy table → Fig. 9's bars.
//!
//! Output categories follow Synopsys Power Compiler as the paper describes
//! them (Section 7.2):
//!
//! * **static** — "dissipated by a gate when it is not switching":
//!   area-proportional leakage, independent of activity and frequency;
//! * **dynamic internal cell** — "any power dissipated within the boundary
//!   of a cell": clocking, flop internals, buffer ports, arbitration cones;
//! * **dynamic switching** — "charging and discharging of the load
//!   capacitance at the output of the cell": observed wires, links,
//!   select nets.

use crate::energy::{is_internal, EnergyTable};
use crate::tech::Technology;
use noc_sim::activity::{ComponentActivity, ComponentKind};
use noc_sim::time::CycleCount;
use noc_sim::units::{FemtoJoules, MegaHertz, MicroWatts, SquareMicroMeters};
use std::fmt;

/// A power estimate in the three Power Compiler categories.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Leakage power.
    pub static_power: MicroWatts,
    /// Dynamic power dissipated inside cells (clock tree + flop internals
    /// dominate — the paper's "relative high offset").
    pub dynamic_internal: MicroWatts,
    /// Dynamic power spent charging external nets.
    pub dynamic_switching: MicroWatts,
    /// Per-component dynamic power, Table 4 component granularity.
    pub by_component: Vec<(ComponentKind, MicroWatts)>,
    /// The clock frequency the estimate was made at.
    pub frequency: MegaHertz,
    /// Simulated cycles behind the estimate.
    pub cycles: CycleCount,
}

impl PowerReport {
    /// Total power (all three categories).
    pub fn total(&self) -> MicroWatts {
        self.static_power + self.dynamic_internal + self.dynamic_switching
    }

    /// Total dynamic power (both dynamic categories).
    pub fn dynamic(&self) -> MicroWatts {
        self.dynamic_internal + self.dynamic_switching
    }

    /// Fig. 10's y-axis: dynamic power normalised by clock frequency
    /// [µW/MHz]. Frequency-independent because dynamic energy is per-cycle.
    pub fn dynamic_uw_per_mhz(&self) -> f64 {
        self.dynamic().value() / self.frequency.value()
    }

    /// Dynamic power of one component.
    pub fn component(&self, kind: ComponentKind) -> MicroWatts {
        self.by_component
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|&(_, p)| p)
            .unwrap_or(MicroWatts::ZERO)
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static {:.1}, internal {:.1}, switching {:.1} (total {:.1} at {})",
            self.static_power,
            self.dynamic_internal,
            self.dynamic_switching,
            self.total(),
            self.frequency
        )
    }
}

/// Multiplies activity ledgers by the energy table.
#[derive(Debug, Clone, Default)]
pub struct PowerEstimator {
    tech: Technology,
    table: EnergyTable,
}

impl PowerEstimator {
    /// An estimator over the given technology and energy table.
    pub fn new(tech: Technology, table: EnergyTable) -> PowerEstimator {
        PowerEstimator { tech, table }
    }

    /// The calibrated default estimator.
    pub fn calibrated() -> PowerEstimator {
        PowerEstimator::new(Technology::tsmc_0_13um(), EnergyTable::tsmc_0_13um())
    }

    /// The energy table in use.
    pub fn table(&self) -> &EnergyTable {
        &self.table
    }

    /// The technology in use.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Estimate power from per-component activity counted over `cycles`
    /// cycles of simulation at clock `freq`, for a block of silicon `area`.
    ///
    /// # Panics
    /// Panics if `cycles == 0` — an estimate over an empty window is a
    /// harness bug.
    pub fn estimate(
        &self,
        activity: &[ComponentActivity],
        cycles: CycleCount,
        freq: MegaHertz,
        area: SquareMicroMeters,
    ) -> PowerReport {
        assert!(cycles > 0, "cannot estimate power over zero cycles");
        let window = freq.period() * cycles as f64;

        let mut internal = FemtoJoules::ZERO;
        let mut switching = FemtoJoules::ZERO;
        let mut by_component = Vec::with_capacity(activity.len());
        for comp in activity {
            let mut comp_energy = FemtoJoules::ZERO;
            for (class, count) in comp.ledger.iter() {
                if count == 0 {
                    continue;
                }
                let e = self.table.energy(comp.kind, class) * count as f64;
                comp_energy += e;
                if is_internal(class) {
                    internal += e;
                } else {
                    switching += e;
                }
            }
            by_component.push((comp.kind, comp_energy.over(window)));
        }

        PowerReport {
            static_power: MicroWatts(area.as_mm2() * self.tech.leakage_uw_per_mm2),
            dynamic_internal: internal.over(window),
            dynamic_switching: switching.over(window),
            by_component,
            frequency: freq,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::activity::{ActivityClass, ActivityLedger};

    fn one_component(class: ActivityClass, count: u64) -> Vec<ComponentActivity> {
        let mut l = ActivityLedger::new();
        l.add(class, count);
        vec![ComponentActivity::new(ComponentKind::Crossbar, l)]
    }

    #[test]
    fn dynamic_power_scales_with_frequency() {
        let est = PowerEstimator::calibrated();
        let act = one_component(ActivityClass::RegClock, 1000);
        let p25 = est.estimate(&act, 100, MegaHertz(25.0), SquareMicroMeters::ZERO);
        let p50 = est.estimate(&act, 100, MegaHertz(50.0), SquareMicroMeters::ZERO);
        // Same activity in half the time: twice the power...
        assert!((p50.dynamic() / p25.dynamic() - 2.0).abs() < 1e-9);
        // ...but identical energy per cycle (Fig. 10's normalisation).
        assert!((p50.dynamic_uw_per_mhz() - p25.dynamic_uw_per_mhz()).abs() < 1e-9);
    }

    #[test]
    fn static_power_is_frequency_independent() {
        let est = PowerEstimator::calibrated();
        let area = SquareMicroMeters::from_mm2(0.0506);
        let p25 = est.estimate(&[], 100, MegaHertz(25.0), area);
        let p100 = est.estimate(&[], 100, MegaHertz(100.0), area);
        assert_eq!(p25.static_power, p100.static_power);
        assert!(p25.static_power.value() > 0.0);
    }

    #[test]
    fn categories_partition_dynamic_power() {
        let est = PowerEstimator::calibrated();
        let mut l = ActivityLedger::new();
        l.add(ActivityClass::RegClock, 10); // internal
        l.add(ActivityClass::LinkToggle, 10); // switching
        let act = vec![ComponentActivity::new(ComponentKind::Link, l)];
        let p = est.estimate(&act, 10, MegaHertz(25.0), SquareMicroMeters::ZERO);
        assert!(p.dynamic_internal.value() > 0.0);
        assert!(p.dynamic_switching.value() > 0.0);
        let sum = p.dynamic_internal + p.dynamic_switching;
        assert!((p.dynamic() / sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_component_breakdown_sums_to_dynamic() {
        let est = PowerEstimator::calibrated();
        let mut l1 = ActivityLedger::new();
        l1.add(ActivityClass::RegClock, 100);
        let mut l2 = ActivityLedger::new();
        l2.add(ActivityClass::BufferWrite, 50);
        let act = vec![
            ComponentActivity::new(ComponentKind::Crossbar, l1),
            ComponentActivity::new(ComponentKind::Buffering, l2),
        ];
        let p = est.estimate(&act, 10, MegaHertz(25.0), SquareMicroMeters::ZERO);
        let sum: MicroWatts = p.by_component.iter().map(|&(_, w)| w).sum();
        assert!((sum.value() - p.dynamic().value()).abs() < 1e-9);
    }

    #[test]
    fn known_value_microwatts() {
        // 316 RegClock events/cycle x 35 fJ = 11060 fJ/cycle
        // -> 11.06 uW/MHz -> 276.5 uW at 25 MHz.
        let est = PowerEstimator::new(Technology::tsmc_0_13um(), {
            let mut t = EnergyTable::tsmc_0_13um();
            t.crossbar_scale = 1.0;
            t
        });
        let act = one_component(ActivityClass::RegClock, 316 * 1000);
        let p = est.estimate(&act, 1000, MegaHertz(25.0), SquareMicroMeters::ZERO);
        assert!((p.dynamic_uw_per_mhz() - 11.06).abs() < 0.01);
        assert!((p.dynamic().value() - 276.5).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn zero_cycles_panics() {
        let est = PowerEstimator::calibrated();
        est.estimate(&[], 0, MegaHertz(25.0), SquareMicroMeters::ZERO);
    }
}
