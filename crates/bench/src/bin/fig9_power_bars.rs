//! Regenerates **Fig. 9**: dynamic and static power bars for Scenarios
//! I–IV on both routers — random data, 100% load, 25 MHz, 200 µs of
//! simulated traffic (2 kB per stream), power split into the three
//! Power Compiler categories.

use noc_apps::scenarios::Scenario;
use noc_bench::router_label;
use noc_exp::fig9::{fig9, RouterKind};
use noc_exp::tables;

pub fn main() {
    println!("Fig. 9: Dynamic and Static Power Bars for Different Scenarios");
    println!("        (random data, 100% load, 25 MHz, 200 us => 2 kB/stream)\n");

    let fig = fig9();
    let mut rows = Vec::new();
    for router in RouterKind::BOTH {
        for scenario in Scenario::ALL {
            let bar = fig.bar(router, scenario);
            rows.push(vec![
                router_label(router).to_string(),
                scenario.to_string(),
                format!("{:.1}", bar.power.static_power.value()),
                format!("{:.1}", bar.power.dynamic_internal.value()),
                format!("{:.1}", bar.power.dynamic_switching.value()),
                format!("{:.1}", bar.power.total().value()),
                bar.bytes_per_stream
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            ]);
        }
    }
    println!(
        "{}",
        tables::render(
            &[
                "Router",
                "Scenario",
                "Static [uW]",
                "Internal [uW]",
                "Switching [uW]",
                "Total [uW]",
                "Bytes/stream",
            ],
            &rows
        )
    );

    println!("\nPacket/circuit total-power ratios per scenario:");
    for scenario in Scenario::ALL {
        println!("  {scenario}: {:.2}x", fig.ratio(scenario));
    }
    println!("  (paper headline: 3.5x less energy for the circuit-switched router)");
}
