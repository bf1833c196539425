//! Checks **Section 3's feasibility claim**: all three wireless
//! applications' guaranteed-throughput demands fit the NoC. Deploys
//! HiperLAN/2, UMTS (4 fingers, SF 4) and DRM onto a 4x4 mesh through
//! `Deployment::builder` and reports placements, lane usage and bandwidth
//! margins — the same entry point every workload uses, so this bin is
//! also a living example of the admission API (strict admission here:
//! Section 3 claims the applications fit, so spilling would hide a
//! regression).

use noc_apps::drm::DrmParams;
use noc_apps::hiperlan2::{Hiperlan2Params, Modulation};
use noc_apps::taskgraph::TaskGraph;
use noc_apps::umts::UmtsParams;
use noc_core::params::RouterParams;
use noc_exp::tables;
use noc_mesh::ccn::{Ccn, Mapping};
use noc_mesh::deployment::Deployment;
use noc_mesh::topology::Mesh;
use noc_sim::units::MegaHertz;

pub fn main() {
    // Clock the GT network fast enough for the heaviest HiperLAN/2 edge:
    // 640 Mbit/s needs ceil(640/(lane capacity)) lanes; at 200 MHz one
    // 3.2-bit/cycle lane does 640 Mbit/s exactly.
    let clock = MegaHertz(200.0);
    let mesh = Mesh::new(4, 4);
    // The independent feasibility checker (the deployment below maps
    // through the same CCN; `verify` re-derives coverage from the result).
    let ccn = Ccn::new(mesh, RouterParams::paper(), clock);
    let lane_capacity = ccn.lane_capacity().value();

    let apps: Vec<(&str, TaskGraph)> = vec![
        (
            "HiperLAN/2",
            noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64)),
        ),
        (
            "UMTS (4 fingers, SF 4)",
            noc_apps::umts::task_graph(&UmtsParams::paper_example()),
        ),
        ("DRM", noc_apps::drm::task_graph(&DrmParams::standard())),
    ];

    // Strict-admission deployment through the builder: an `Ok` is the
    // feasibility proof (mapped, provisioned, traffic-bindable).
    let deploy = |graph: &TaskGraph| {
        Deployment::builder(graph)
            .mesh_topology(mesh)
            .clock(clock)
            .build()
    };

    println!("Run-time mapping of the Section 3 applications onto a 4x4 mesh at {clock}");
    println!("(lane capacity {lane_capacity:.0} Mbit/s per lane)\n");

    let mut rows = Vec::new();
    let mut hiperlan2_mapping: Option<Mapping> = None;
    for (name, graph) in &apps {
        match deploy(graph) {
            Ok(dep) => {
                let mapping = dep.mapping();
                let feasible = ccn.verify(graph, mapping);
                let lanes: usize = mapping.routes.iter().map(|r| r.paths.len()).sum();
                rows.push(vec![
                    name.to_string(),
                    graph.process_count().to_string(),
                    graph.edge_count().to_string(),
                    format!("{:.2}", graph.total_bandwidth().value()),
                    lanes.to_string(),
                    mapping.total_hops().to_string(),
                    if feasible {
                        "GT OK".into()
                    } else {
                        "VIOLATED".into()
                    },
                ]);
                if *name == "HiperLAN/2" {
                    hiperlan2_mapping = Some(mapping.clone());
                }
            }
            Err(e) => {
                rows.push(vec![
                    name.to_string(),
                    graph.process_count().to_string(),
                    graph.edge_count().to_string(),
                    format!("{:.2}", graph.total_bandwidth().value()),
                    "-".into(),
                    "-".into(),
                    format!("INFEASIBLE: {e}"),
                ]);
            }
        }
    }
    println!(
        "{}",
        tables::render(
            &[
                "Application",
                "Processes",
                "Edges",
                "GT demand [Mbit/s]",
                "Lanes",
                "Router hops",
                "Feasibility",
            ],
            &rows
        )
    );

    println!("\nPer-edge detail for HiperLAN/2:");
    let (_, graph) = &apps[0];
    let mapping = hiperlan2_mapping.expect("HiperLAN/2 deploys above");
    let mut rows = Vec::new();
    for route in &mapping.routes {
        let labels: Vec<&str> = route
            .edges
            .iter()
            .map(|&id| graph.edge(id).label.as_str())
            .collect();
        let demand: f64 = route
            .edges
            .iter()
            .map(|&id| graph.edge(id).bandwidth.value())
            .sum();
        rows.push(vec![
            labels.join(" + "),
            format!("{demand:.1}"),
            route.paths.len().to_string(),
            route.hops().to_string(),
        ]);
    }
    println!(
        "{}",
        tables::render(
            &["Circuit (edges sharing it)", "Mbit/s", "Lanes", "Hops"],
            &rows
        )
    );
}
