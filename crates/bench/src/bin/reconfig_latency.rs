//! Checks **Section 5.1's configuration claims** end to end: 10 bits per
//! lane, 100-bit configuration memory, one-lane reconfiguration within
//! 1 ms and full-router reconfiguration within 20 ms over the BE network.

use noc_core::config::{ConfigEntry, ConfigWord};
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_exp::reference::config_claims;
use noc_exp::tables;
use noc_mesh::be::{BeConfig, BeNetwork};
use noc_mesh::soc::Soc;
use noc_mesh::topology::Mesh;
use noc_sim::time::Cycle;
use noc_sim::units::MegaHertz;

pub fn main() {
    let params = RouterParams::paper();
    println!("Configuration interface facts (Section 5.1):\n");
    let rows = vec![
        vec![
            "Bits per lane configuration".into(),
            format!(
                "{} (paper: {})",
                params.config_word_bits(),
                config_claims::BITS_PER_LANE
            ),
        ],
        vec![
            "Configuration memory".into(),
            format!(
                "{} bits (paper: {} bits)",
                params.config_memory_bits(),
                config_claims::MEMORY_BITS
            ),
        ],
        vec![
            "Words for full router".into(),
            format!("{}", params.total_lanes()),
        ],
    ];
    println!("{}", tables::render(&["Quantity", "Value"], &rows));

    // Deliver configuration over the BE network on a 4x4 mesh, CCN in the
    // NW corner, worst-case target in the SE corner, at 25 MHz.
    let mesh = Mesh::new(4, 4);
    let mut soc = Soc::new(mesh, params);
    let mut be = BeNetwork::new(mesh, BeConfig::default());
    let ccn = mesh.node(0, 0);
    let target = mesh.node(3, 3);
    let clock = MegaHertz(25.0);

    let sel = params.foreign_select(Port::East, Port::Tile, 0).unwrap();
    let one = ConfigWord::for_lane(Port::East, 0, ConfigEntry::active(sel), &params).unwrap();
    let t_lane = be.send(Cycle::ZERO, ccn, target, &[one]);
    be.deliver_due(t_lane, &mut soc).unwrap();

    let full: Vec<ConfigWord> = soc.router(target).config().snapshot_words();
    let t_full = be.send(t_lane, ccn, target, &full);
    be.deliver_due(t_full, &mut soc).unwrap();

    println!("\nBE-network delivery to the far corner of a 4x4 mesh at 25 MHz:\n");
    let lane_ms = t_lane.at(clock).as_millis();
    let full_ms = (t_full.0 - t_lane.0) as f64 * clock.period().value() * 1e-9;
    let rows = vec![
        vec![
            "One lane (10-bit word)".into(),
            format!("{:.5} ms", lane_ms),
            format!("< {} ms", config_claims::LANE_BUDGET_MS),
            pass(lane_ms < config_claims::LANE_BUDGET_MS),
        ],
        vec![
            "Full router (20 words)".into(),
            format!("{:.5} ms", full_ms),
            format!("< {} ms", config_claims::ROUTER_BUDGET_MS),
            pass(full_ms < config_claims::ROUTER_BUDGET_MS),
        ],
    ];
    println!(
        "{}",
        tables::render(&["Operation", "Measured", "Paper budget", "Status"], &rows)
    );
    println!("\n(The paper's budgets bound a loaded BE network; the measured values are");
    println!(" an idle-network floor, so meeting them is necessary, not sufficient.)");
}

fn pass(ok: bool) -> String {
    if ok {
        "PASS".into()
    } else {
        "FAIL".into()
    }
}
