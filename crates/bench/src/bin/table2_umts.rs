//! Regenerates **Table 2**: communication bandwidth of the UMTS W-CDMA
//! RAKE receiver, derived from the 3.84 Mchip/s rate, 8-bit I/Q chips and
//! the spreading factor (see `noc_apps::umts`).

use noc_apps::umts::{table2, UmtsModulation, UmtsParams};
use noc_exp::reference::{TABLE2_MBITS, UMTS_EXAMPLE_TOTAL_MBITS};
use noc_exp::tables;

pub fn main() {
    println!("Table 2: Communication in UMTS (derived from W-CDMA parameters)");
    println!("  3.84 Mchip/s, 8-bit I+Q chips/coefficients, SF=4, QPSK\n");

    let p = UmtsParams::paper_example();
    let rows: Vec<Vec<String>> = table2(&p)
        .into_iter()
        .zip(TABLE2_MBITS.iter())
        .map(|((label, bw), &(_, paper))| vec![label, tables::vs(bw.value(), paper, "Mbit/s")])
        .collect();
    println!("{}", tables::render(&["Edge #", "Bandwidth"], &rows));

    println!(
        "\nSection 3.2 example, 4 fingers at SF 4: {}",
        tables::vs(
            p.total_bandwidth().value(),
            UMTS_EXAMPLE_TOTAL_MBITS,
            "Mbit/s"
        )
    );
    let qam = UmtsParams {
        modulation: UmtsModulation::Qam16,
        ..p
    };
    println!(
        "Received bits at QAM-16: {:.2} Mbit/s (paper: 15.36/SF)",
        qam.bw_received_bits().value()
    );
}
