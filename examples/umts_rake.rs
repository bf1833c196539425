//! UMTS W-CDMA RAKE receiver on the SoC — the streaming workload.
//!
//! Section 3.2's receiver: four RAKE fingers at spreading factor 4,
//! ~320 Mbit/s of aggregate guaranteed-throughput traffic in many small
//! streams (the opposite traffic shape to HiperLAN/2's blocks). The CCN's
//! clustering co-locates the control/MRC processes whose fan-out exceeds
//! the four tile-interface lanes — watch the placement output. Deployed
//! through the unified builder onto the circuit-switched fabric.
//!
//! ```text
//! cargo run --release --example umts_rake
//! ```

use rcs_noc::prelude::*;

fn main() {
    let params = UmtsParams::paper_example();
    let graph = noc_apps::umts::task_graph(&params);
    println!("{graph}");
    println!(
        "Aggregate GT demand: {:.1} Mbit/s (paper example: ~320 Mbit/s)\n",
        params.total_bandwidth().value()
    );

    let clock = MegaHertz(100.0);
    let mut dep = Deployment::builder(&graph)
        .mesh(4, 4)
        .clock(clock)
        .seed(77)
        .build()
        .expect("UMTS fits a 4x4 mesh");

    // Show where the CCN put things (clustered processes share a node).
    println!("Placement (note co-located processes):");
    for (pid, node) in &dep.mapping().placement {
        let (x, y) = dep.fabric().mesh().coords(*node);
        println!("  {:<28} -> tile ({x},{y})", graph.process(*pid).name);
    }

    dep.run(20_000);
    dep.settle(5_000);
    println!("\nPer-circuit delivery:");
    let mut aggregate = 0.0;
    for r in dep.report(&graph) {
        println!(
            "  {:<60} {:>6.2} / {:>6.2} Mbit/s ({:>5.1}%)",
            r.labels.join(" + "),
            r.measured.value(),
            r.required.value(),
            r.delivered_fraction * 100.0
        );
        assert!(r.delivered_fraction > 0.85, "GT violated on {:?}", r.labels);
        aggregate += r.measured.value();
    }
    println!("\nAggregate delivered over the NoC: {aggregate:.1} Mbit/s");
    println!("(on-tile circuits — co-located processes — add the rest for free)");
    assert_eq!(dep.total_overflows(), 0, "window flow control lost data");

    let model = dep.energy_model();
    println!(
        "Fabric power over the run: {} — {:.2} uJ total",
        dep.power(&model),
        dep.total_energy(&model).value() / 1e9
    );
}
