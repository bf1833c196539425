//! HiperLAN/2 baseband receiver on a 4×4 multi-tile SoC.
//!
//! The paper's motivating workload (Section 3.1): the OFDM pipeline of
//! Fig. 2 with the Table 1 bandwidths, deployed through the unified
//! [`Deployment`] builder. The same scenario runs on **both** switching
//! fabrics; the example checks guaranteed throughput on each and prints
//! the energy gap between them — the paper's argument, per workload.
//!
//! ```text
//! cargo run --release --example hiperlan2_receiver
//! ```

use rcs_noc::prelude::*;

fn main() {
    // The NoC runs at 200 MHz so one 4-bit lane carries 640 Mbit/s of
    // payload — exactly the heaviest Table 1 edge.
    let clock = MegaHertz(200.0);
    let graph = noc_apps::hiperlan2::task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
    println!("{graph}");

    // Simulate 100 us of baseband traffic (25 OFDM symbols).
    let cycles = noc_sim::time::cycles_in(Picoseconds::from_micros(100.0), clock);

    let mut energies = Vec::new();
    for kind in [FabricKind::Circuit, FabricKind::Packet] {
        let mut dep = Deployment::builder(&graph)
            .mesh(4, 4)
            .clock(clock)
            .seed(2005)
            .fabric(kind)
            .build()
            .expect("HiperLAN/2 fits a 4x4 mesh");
        dep.run(cycles);
        dep.settle(cycles / 2);

        println!(
            "\n[{kind}] per-circuit delivery after {} cycles:",
            dep.cycles_run()
        );
        for r in dep.report(&graph) {
            println!(
                "  {:<55} required {:>7.1} Mbit/s, measured {:>7.1} Mbit/s ({:>5.1}%)",
                r.labels.join(" + "),
                r.required.value(),
                r.measured.value(),
                r.delivered_fraction * 100.0
            );
            assert!(
                r.delivered_fraction > 0.9,
                "guaranteed throughput violated on {:?}",
                r.labels
            );
        }
        assert_eq!(dep.total_overflows(), 0, "flow control lost data");
        let model = dep.energy_model();
        let energy = dep.total_energy(&model);
        println!("  total fabric energy: {:.2} uJ", energy.value() / 1e9);
        energies.push(energy.value());
    }

    println!(
        "\nAll guaranteed-throughput demands met on both fabrics; \
         packet/circuit energy ratio {:.2}x. ✔",
        energies[1] / energies[0]
    );
}
