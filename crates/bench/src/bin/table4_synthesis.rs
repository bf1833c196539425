//! Regenerates **Table 4**: synthesis results of the circuit-switched
//! router, the packet-switched baseline and the Æthereal reference —
//! component areas, totals, maximum frequency and per-link bandwidth from
//! the calibrated 0.13 µm models in `noc-power`.

use noc_core::params::RouterParams;
use noc_exp::reference::{TABLE4_AETHEREAL, TABLE4_CIRCUIT, TABLE4_PACKET};
use noc_exp::tables;
use noc_packet::params::PacketParams;
use noc_power::synthesis::table4;
use noc_power::tech::Technology;
use noc_sim::activity::ComponentKind;

pub fn main() {
    let t4 = table4(
        &RouterParams::paper(),
        &PacketParams::paper(),
        &Technology::tsmc_0_13um(),
    );

    println!("Table 4: Synthesis Results of Three Routers (0.13 um)\n");

    let comp_kinds = [
        ComponentKind::Crossbar,
        ComponentKind::Buffering,
        ComponentKind::Arbitration,
        ComponentKind::ConfigMemory,
        ComponentKind::DataConverter,
        ComponentKind::Misc,
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    rows.push(vec![
        "Ports".into(),
        t4.circuit.ports.to_string(),
        t4.packet.ports.to_string(),
        t4.aethereal.ports.to_string(),
    ]);
    rows.push(vec![
        "Width of data".into(),
        format!("{} bit", t4.circuit.width_bits),
        format!("{} bit", t4.packet.width_bits),
        format!("{} bit", t4.aethereal.width_bits),
    ]);
    for (i, kind) in comp_kinds.iter().enumerate() {
        let paper_c = TABLE4_CIRCUIT.components[i].1;
        let paper_p = TABLE4_PACKET.components[i].1;
        rows.push(vec![
            format!("{} [mm2]", kind.name()),
            cell(t4.circuit.component(*kind).map(|a| a.as_mm2()), paper_c),
            cell(t4.packet.component(*kind).map(|a| a.as_mm2()), paper_p),
            "n.a.".into(),
        ]);
    }
    rows.push(vec![
        "Total [mm2]".into(),
        cell(
            Some(t4.circuit.total.as_mm2()),
            Some(TABLE4_CIRCUIT.total_mm2),
        ),
        cell(
            Some(t4.packet.total.as_mm2()),
            Some(TABLE4_PACKET.total_mm2),
        ),
        cell(
            Some(t4.aethereal.total.as_mm2()),
            Some(TABLE4_AETHEREAL.total_mm2),
        ),
    ]);
    rows.push(vec![
        "Max freq. [MHz]".into(),
        cell(Some(t4.circuit.fmax.value()), Some(TABLE4_CIRCUIT.fmax_mhz)),
        cell(Some(t4.packet.fmax.value()), Some(TABLE4_PACKET.fmax_mhz)),
        cell(
            Some(t4.aethereal.fmax.value()),
            Some(TABLE4_AETHEREAL.fmax_mhz),
        ),
    ]);
    rows.push(vec![
        "Bandwidth/link [Gb/s]".into(),
        cell(
            Some(t4.circuit.bandwidth.as_gbit_s()),
            Some(TABLE4_CIRCUIT.bandwidth_gbps),
        ),
        cell(
            Some(t4.packet.bandwidth.as_gbit_s()),
            Some(TABLE4_PACKET.bandwidth_gbps),
        ),
        cell(
            Some(t4.aethereal.bandwidth.as_gbit_s()),
            Some(TABLE4_AETHEREAL.bandwidth_gbps),
        ),
    ]);

    println!(
        "{}",
        tables::render(
            &[
                "Router",
                "Circuit switched",
                "Packet switched",
                "AEthereal [5]"
            ],
            &rows
        )
    );
    println!(
        "\nArea ratio packet/circuit: {:.2}x (paper: ~3.5x)",
        t4.area_ratio()
    );
}

fn cell(measured: Option<f64>, paper: Option<f64>) -> String {
    match (measured, paper) {
        (Some(m), Some(p)) => {
            let err = noc_sim::units::relative_error(m, p) * 100.0;
            format!("{m:.4} (paper {p:.4}, {err:+.1}%)")
        }
        (Some(m), None) => format!("{m:.4}"),
        (None, _) => "n.a.".into(),
    }
}
