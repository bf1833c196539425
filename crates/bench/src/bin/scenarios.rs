//! Regenerates **Table 3 / Fig. 8**: the stream definitions and the four
//! test scenarios, with delivery verified on both routers at 100% load.

use noc_apps::scenarios::{table3_streams, Scenario};
use noc_apps::traffic::DataPattern;
use noc_core::params::RouterParams;
use noc_exp::tables;
use noc_exp::testbench::{CircuitScenarioBench, PacketScenarioBench};
use noc_packet::params::PacketParams;

pub fn main() {
    println!("Table 3: Stream Definitions\n");
    let rows: Vec<Vec<String>> = table3_streams()
        .iter()
        .map(|s| {
            vec![
                s.id.0.to_string(),
                format!("{} (lane {})", s.from.port(), s.from.lane()),
                format!("{} (lane {})", s.to.port(), s.to.lane()),
            ]
        })
        .collect();
    println!(
        "{}",
        tables::render(&["Stream", "Input port", "Output port"], &rows)
    );

    println!("\nFig. 8 scenarios, verified at 100% load over 5000 cycles:\n");
    let mut rows = Vec::new();
    for scenario in Scenario::ALL {
        let mut c =
            CircuitScenarioBench::new(RouterParams::paper(), scenario, DataPattern::Random, 1.0);
        let cout = c.run(5000);
        let mut p =
            PacketScenarioBench::new(PacketParams::paper(), scenario, DataPattern::Random, 1.0);
        let pout = p.run(5000);
        rows.push(vec![
            scenario.to_string(),
            scenario.description().to_string(),
            format!("{:?}", cout.delivered),
            format!("{:?}", pout.delivered),
        ]);
    }
    println!(
        "{}",
        tables::render(
            &[
                "Scenario",
                "Description",
                "Circuit delivered [phits]",
                "Packet delivered [words]"
            ],
            &rows
        )
    );
    println!("\n(Scenario IV shares the East port between streams 1 and 3: the circuit");
    println!(" router separates them on lanes 0/1, the packet router time-multiplexes.)");
}
