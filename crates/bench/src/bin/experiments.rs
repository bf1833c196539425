//! Runs **every experiment** in EXPERIMENTS.md order, in one process: each
//! paper binary is compiled in as a module and its `main` called in turn.
//! `cargo run --release -p noc-bench --bin experiments` regenerates the
//! full paper-vs-measured record in one go.

#[path = "fig10_bitflips.rs"]
mod fig10_bitflips;
#[path = "fig9_power_bars.rs"]
mod fig9_power_bars;
#[path = "map_applications.rs"]
mod map_applications;
#[path = "reconfig_latency.rs"]
mod reconfig_latency;
#[path = "scenarios.rs"]
mod scenarios;
#[path = "table1_hiperlan2.rs"]
mod table1_hiperlan2;
#[path = "table2_umts.rs"]
mod table2_umts;
#[path = "table4_synthesis.rs"]
mod table4_synthesis;

const EXPERIMENTS: [(&str, fn()); 8] = [
    ("table1_hiperlan2", table1_hiperlan2::main),
    ("table2_umts", table2_umts::main),
    ("scenarios", scenarios::main),
    ("table4_synthesis", table4_synthesis::main),
    ("fig9_power_bars", fig9_power_bars::main),
    ("fig10_bitflips", fig10_bitflips::main),
    ("reconfig_latency", reconfig_latency::main),
    ("map_applications", map_applications::main),
];

fn main() {
    for (name, run) in EXPERIMENTS {
        println!("\n================================================================");
        println!("==  {name}");
        println!("================================================================\n");
        run();
    }
    println!("\nAll experiments completed.");
}
