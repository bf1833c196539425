//! Fig. 9: "Dynamic and Static Power Bars for Different Scenarios
//! (random data, 100% load)".
//!
//! Conditions per Section 7.2: both routers clocked at 25 MHz (80 Mbit/s
//! per stream), random data (50% bit-flips), 200 µs of simulation (2 kB
//! transported per stream). Each bar splits into static, dynamic internal
//! cell, and dynamic switching power, exactly as Power Compiler reports.

use crate::reference::fig9_conditions;
use crate::testbench::{CircuitScenarioBench, PacketScenarioBench};
use noc_apps::scenarios::Scenario;
use noc_apps::traffic::DataPattern;
use noc_core::params::RouterParams;
use noc_packet::params::PacketParams;
use noc_power::area::{circuit_router_area, packet_router_area};
use noc_power::estimator::{PowerEstimator, PowerReport};
use noc_sim::time::cycles_in;
use noc_sim::units::{MegaHertz, Picoseconds};

/// Which router a bar belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The paper's circuit-switched router.
    Circuit,
    /// The Kavaldjiev packet-switched baseline.
    Packet,
}

impl RouterKind {
    /// Both routers, circuit first (the paper's bar order).
    pub const BOTH: [RouterKind; 2] = [RouterKind::Circuit, RouterKind::Packet];

    /// Display name matching the figure's axis labels.
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::Circuit => "Circuit Switched Router",
            RouterKind::Packet => "Packet Switched Router",
        }
    }
}

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Bar {
    /// Which router.
    pub router: RouterKind,
    /// Which scenario.
    pub scenario: Scenario,
    /// The three-way power split.
    pub power: PowerReport,
    /// Payload bytes delivered per stream (sanity: ≈2000 each).
    pub bytes_per_stream: Vec<u64>,
}

/// The complete figure: eight bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Bars in the paper's order: circuit I–IV, then packet I–IV.
    pub bars: Vec<Fig9Bar>,
}

impl Fig9 {
    /// The bar for `(router, scenario)`.
    pub fn bar(&self, router: RouterKind, scenario: Scenario) -> &Fig9Bar {
        self.bars
            .iter()
            .find(|b| b.router == router && b.scenario == scenario)
            .expect("all eight bars present")
    }

    /// Total-power ratio packet/circuit for a scenario — the paper's
    /// headline "3.5 times less".
    pub fn ratio(&self, scenario: Scenario) -> f64 {
        self.bar(RouterKind::Packet, scenario).power.total()
            / self.bar(RouterKind::Circuit, scenario).power.total()
    }
}

/// Run the Fig. 9 experiment with the calibrated estimator at the paper's
/// conditions.
pub fn fig9() -> Fig9 {
    fig9_with(
        RouterParams::paper(),
        PacketParams::paper(),
        &PowerEstimator::calibrated(),
    )
}

/// Run Fig. 9 with explicit configurations (used by ablation benches).
pub fn fig9_with(cs: RouterParams, ps: PacketParams, estimator: &PowerEstimator) -> Fig9 {
    let freq = MegaHertz(fig9_conditions::CLOCK_MHZ);
    let window = Picoseconds::from_micros(fig9_conditions::WINDOW_US);
    let cycles = cycles_in(window, freq);
    let tech = estimator.tech();
    let c_area = circuit_router_area(&cs, tech).total();
    let p_area = packet_router_area(&ps, tech).total();

    let mut bars = Vec::with_capacity(8);
    for scenario in Scenario::ALL {
        let mut bench = CircuitScenarioBench::new(cs, scenario, DataPattern::Random, 1.0);
        let out = bench.run(cycles);
        let power = estimator.estimate(&out.activity, cycles, freq, c_area);
        bars.push(Fig9Bar {
            router: RouterKind::Circuit,
            scenario,
            power,
            bytes_per_stream: (0..out.delivered.len())
                .map(|i| out.delivered_bytes(i))
                .collect(),
        });
    }
    for scenario in Scenario::ALL {
        let mut bench = PacketScenarioBench::new(ps, scenario, DataPattern::Random, 1.0);
        let out = bench.run(cycles);
        let power = estimator.estimate(&out.activity, cycles, freq, p_area);
        bars.push(Fig9Bar {
            router: RouterKind::Packet,
            scenario,
            power,
            bytes_per_stream: (0..out.delivered.len())
                .map(|i| out.delivered_bytes(i))
                .collect(),
        });
    }
    Fig9 { bars }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Building the figure runs 8 × 5000-cycle simulations; share one.
    fn figure() -> &'static Fig9 {
        static FIG: std::sync::OnceLock<Fig9> = std::sync::OnceLock::new();
        FIG.get_or_init(fig9)
    }

    #[test]
    fn eight_bars_present() {
        assert_eq!(figure().bars.len(), 8);
    }

    #[test]
    fn packet_router_dominates_every_scenario() {
        for scenario in Scenario::ALL {
            let r = figure().ratio(scenario);
            assert!(r > 2.5, "{scenario}: ratio {r:.2} too small");
        }
    }

    #[test]
    fn headline_ratio_about_3_5() {
        // The paper's single number summarises the busy scenarios.
        let r = figure().ratio(Scenario::IV);
        assert!(
            (2.8..4.5).contains(&r),
            "Scenario IV power ratio {r:.2}, paper says ~3.5"
        );
    }

    #[test]
    fn offset_dominates_circuit_router() {
        // "The dynamic power consumption of scenario II up to IV does not
        // increase considerably compared with Scenario I" — the offset is
        // the majority of even the busiest bar.
        let idle = figure()
            .bar(RouterKind::Circuit, Scenario::I)
            .power
            .dynamic();
        let busy = figure()
            .bar(RouterKind::Circuit, Scenario::IV)
            .power
            .dynamic();
        assert!(
            idle.value() > busy.value() * 0.5,
            "offset {idle} vs busy {busy}"
        );
        assert!(busy.value() > idle.value(), "traffic still adds something");
    }

    #[test]
    fn two_kb_per_stream_delivered() {
        let bar = figure().bar(RouterKind::Circuit, Scenario::IV);
        for (i, &bytes) in bar.bytes_per_stream.iter().enumerate() {
            assert!(
                bytes >= 1950,
                "stream {i} delivered {bytes} B, expected ~2000"
            );
        }
    }

    #[test]
    fn static_power_small_but_nonzero() {
        for bar in &figure().bars {
            let s = bar.power.static_power.value();
            let total = bar.power.total().value();
            assert!(s > 0.0);
            assert!(s < total * 0.25, "static should be a minor share");
        }
    }

    #[test]
    fn power_rises_with_scenario_number() {
        for router in RouterKind::BOTH {
            let mut prev = 0.0;
            for scenario in Scenario::ALL {
                let p = figure().bar(router, scenario).power.dynamic().value();
                assert!(
                    p >= prev,
                    "{router:?} {scenario}: {p:.1} fell below {prev:.1}"
                );
                prev = p;
            }
        }
    }
}
