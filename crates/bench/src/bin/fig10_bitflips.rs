//! Regenerates **Fig. 10**: data dependency of the dynamic power
//! consumption — µW/MHz against the bit-flip rate of the offered data
//! (0%, 50%, 100%) for all scenarios and both routers at 100% load.

use noc_apps::scenarios::Scenario;
use noc_bench::router_label;
use noc_exp::fig10::fig10;
use noc_exp::fig9::RouterKind;
use noc_exp::tables;

pub fn main() {
    println!("Fig. 10: Data Dependency of the Dynamic Power Consumption (100% load)");
    println!("         dynamic power [uW/MHz] vs percentage of data-bit flips\n");

    let fig = fig10();
    let mut rows = Vec::new();
    for router in RouterKind::BOTH {
        for scenario in Scenario::ALL {
            let series = fig.series(router, scenario);
            rows.push(vec![
                router_label(router).to_string(),
                scenario.to_string(),
                format!("{:.2}", series[0].uw_per_mhz),
                format!("{:.2}", series[1].uw_per_mhz),
                format!("{:.2}", series[2].uw_per_mhz),
                format!("{:+.3}", fig.midpoint_deviation(router, scenario)),
            ]);
        }
    }
    println!(
        "{}",
        tables::render(
            &["Router", "Scenario", "0%", "50%", "100%", "mid-dev"],
            &rows
        )
    );

    println!("\nPaper observations checked:");
    for router in RouterKind::BOTH {
        let sens_iv = fig.flip_sensitivity(router, Scenario::IV);
        println!(
            "  {}: bit-flip sensitivity in Scenario IV = {:.1}% (\"minor influence\")",
            router_label(router),
            sens_iv * 100.0
        );
    }
    let dev = fig.midpoint_deviation(RouterKind::Packet, Scenario::IV);
    println!(
        "  packet: colliding-stream curve midpoint deviation = {dev:+.3} uW/MHz \
         (the \"non-straight line\" caused by streams 1+3 colliding at East)"
    );
}
