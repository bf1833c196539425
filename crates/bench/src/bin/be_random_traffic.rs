//! Best-effort plane under uniform-random traffic: the classic NoC
//! load-latency curve.
//!
//! Section 2 of the paper: "The routers are benchmarked using a local area
//! network approach where the benchmarks use random traffic patterns."
//! This binary applies exactly that methodology to the packet-switched
//! plane (which the paper reserves for its <5% best-effort share): uniform
//! random destinations, swept injection rate, delivered throughput and
//! per-word latency percentiles.

use noc_exp::random_traffic::uniform_random;
use noc_exp::tables;
use noc_mesh::topology::Mesh;

fn main() {
    println!("Best-effort plane: 4x4 packet-switched mesh, uniform random traffic,");
    println!("4-word packets, 5000 cycles per point.\n");

    let mut rows = Vec::new();
    for rate_milli in [5u32, 10, 20, 40, 60, 80, 120] {
        let rate = f64::from(rate_milli) / 1000.0;
        let run = uniform_random(Mesh::new(4, 4), rate, 4, 5000, 2005);
        let quantile = |q| {
            run.latency
                .quantile(q)
                .map_or("-".into(), |v| v.to_string())
        };
        rows.push(vec![
            format!("{:.3}", rate),
            format!("{:.4}", run.throughput),
            format!("{:.1}", run.latency.mean()),
            quantile(0.5),
            quantile(0.99),
            run.backlog.to_string(),
        ]);
    }
    println!(
        "{}",
        tables::render(
            &[
                "Offered [pkt/node/cyc]",
                "Delivered",
                "Mean word lat [cyc]",
                "p50",
                "p99",
                "Backlog",
            ],
            &rows
        )
    );
    println!("\nThe knee where latency departs its zero-load floor and backlog grows");
    println!("marks the BE plane's saturation point; the paper's <5% control traffic");
    println!("sits far below it.");
}
