//! SoC-level power: the whole 4×4 mesh running HiperLAN/2.
//!
//! The paper evaluates one router; this extension scales the same
//! activity-based flow to the full SoC the router was designed for —
//! sixteen routers, seven live circuits — and shows what clock-gating the
//! unused lanes (the paper's future work) buys at fabric level, where most
//! routers are idle while the application runs.
//!
//! Deployment rides `Deployment::builder`: the CCN mapping, source
//! binding at each circuit's demanded offered load, and the power readout
//! are the same generic plumbing every other workload uses — only the
//! `RouterParams::clock_gating` knob differs between the two rows.

use noc_apps::hiperlan2::{Hiperlan2Params, Modulation};
use noc_core::params::RouterParams;
use noc_exp::tables;
use noc_mesh::deployment::Deployment;
use noc_sim::units::MegaHertz;

fn run(gating: bool) -> (f64, f64, f64) {
    let params = RouterParams {
        clock_gating: gating,
        ..RouterParams::paper()
    };
    let graph = noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
    let mut dep = Deployment::builder(&graph)
        .mesh(4, 4)
        .clock(MegaHertz(200.0))
        .router_params(params)
        .seed(0x50C)
        .build()
        .expect("HiperLAN/2 fits a 4x4 mesh at 200 MHz");
    // Measure steady-state traffic, not the provisioning burst.
    dep.fabric_mut().clear_activity();
    dep.run(20_000);
    let report = dep.power(&dep.energy_model());
    (
        report.static_power.value(),
        report.dynamic_internal.value(),
        report.dynamic_switching.value(),
    )
}

fn main() {
    println!("SoC-level power: 4x4 mesh, HiperLAN/2 deployed, 200 MHz, 20k cycles\n");
    let (s0, i0, w0) = run(false);
    let (s1, i1, w1) = run(true);
    let rows = vec![
        vec![
            "ungated (paper's implementation)".into(),
            format!("{s0:.0}"),
            format!("{i0:.0}"),
            format!("{w0:.0}"),
            format!("{:.0}", s0 + i0 + w0),
        ],
        vec![
            "clock-gated (paper's future work)".into(),
            format!("{s1:.0}"),
            format!("{i1:.0}"),
            format!("{w1:.0}"),
            format!("{:.0}", s1 + i1 + w1),
        ],
    ];
    println!(
        "{}",
        tables::render(
            &[
                "Configuration",
                "Static [uW]",
                "Internal [uW]",
                "Switching [uW]",
                "Total [uW]"
            ],
            &rows
        )
    );
    let saving = (1.0 - (s1 + i1 + w1) / (s0 + i0 + w0)) * 100.0;
    println!("\nNetwork-level saving from gating unused lanes: {saving:.0}%");
    println!("(most of the 16-router fabric is idle while 7 circuits run — exactly");
    println!("the situation the paper's clock-gating proposal targets).");
}
