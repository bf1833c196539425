//! Regenerates **Table 1**: communication bandwidth of the HiperLAN/2
//! baseband pipeline, computed from the OFDM standard parameters (not
//! echoed constants — see `noc_apps::hiperlan2` for the derivation).

use noc_apps::hiperlan2::{table1, Hiperlan2Params, Modulation};
use noc_exp::reference::{TABLE1_HARD_BITS_QAM64, TABLE1_MBITS};
use noc_exp::tables;

pub fn main() {
    println!("Table 1: Communication in HiperLAN/2 (derived from OFDM parameters)");
    println!("  80-sample symbol / 4 us, 64-pt FFT, 52 used / 48 data carriers, 16-bit I+Q\n");

    let bpsk = Hiperlan2Params::standard(Modulation::Bpsk);
    let rows: Vec<Vec<String>> = table1(&bpsk)
        .into_iter()
        .zip(TABLE1_MBITS.iter())
        .map(|((label, bw), &(_, paper))| vec![label, tables::vs(bw.value(), paper, "Mbit/s")])
        .collect();
    println!("{}", tables::render(&["Edge(s)", "Bandwidth"], &rows));

    let qam64 = Hiperlan2Params::standard(Modulation::Qam64);
    println!(
        "\nHard bits across modulations: {} .. {}",
        tables::vs(bpsk.bw_hard_bits().value(), TABLE1_MBITS[4].1, "Mbit/s"),
        tables::vs(
            qam64.bw_hard_bits().value(),
            TABLE1_HARD_BITS_QAM64,
            "Mbit/s"
        ),
    );
}
