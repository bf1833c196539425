//! Digital Radio Mondiale (DRM) baseband model.
//!
//! Paper Section 3: "The block diagram of DRM is similar to HiperLAN/2, but
//! the communication requirements are a factor 1000 less compared to
//! HiperLAN/2." DRM is also OFDM, but with symbol periods in the tens of
//! milliseconds (robustness mode A: ~26.66 ms vs HiperLAN/2's 4 µs) and far
//! fewer carriers per unit time — hence the three-orders-of-magnitude rate
//! difference that makes DRM the NoC's low-bandwidth corner case: the same
//! router configuration must serve kbit/s and hundreds of Mbit/s streams
//! (Section 3.3: "this varies widely from several kbit/s (DRM) up to more
//! than 0.5 Gbit/s (HiperLAN/2)").

use crate::hiperlan2::{Hiperlan2Params, Modulation};
use crate::taskgraph::{TaskGraph, TrafficShape};
use noc_sim::units::Bandwidth;

/// The rate divisor between HiperLAN/2 and DRM ("a factor 1000 less").
pub const DRM_RATE_FACTOR: f64 = 1000.0;

/// DRM receiver parameters, expressed relative to the HiperLAN/2 pipeline
/// they structurally mirror.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrmParams {
    /// The OFDM pipeline structure (block sizes, quantisation).
    pub ofdm: Hiperlan2Params,
    /// Bandwidth divisor relative to HiperLAN/2.
    pub rate_factor: f64,
}

impl DrmParams {
    /// The paper's characterisation: HiperLAN/2 structure at 1/1000 rate.
    pub fn standard() -> DrmParams {
        DrmParams {
            // DRM robustness modes use QAM-16/QAM-64 on the data carriers.
            ofdm: Hiperlan2Params::standard(Modulation::Qam16),
            rate_factor: DRM_RATE_FACTOR,
        }
    }

    /// Scale a HiperLAN/2 edge bandwidth down to DRM's.
    fn scaled(&self, bw: Bandwidth) -> Bandwidth {
        Bandwidth(bw.value() / self.rate_factor)
    }

    /// Front-end edge bandwidth (~0.64 Mbit/s).
    pub fn bw_front_end(&self) -> Bandwidth {
        self.scaled(self.ofdm.bw_sp_to_prefix())
    }

    /// Hard-bit output bandwidth (tens of kbit/s).
    pub fn bw_hard_bits(&self) -> Bandwidth {
        self.scaled(self.ofdm.bw_hard_bits())
    }
}

/// Build the DRM process graph: the HiperLAN/2 pipeline with every edge
/// bandwidth divided by the rate factor and block periods stretched
/// accordingly.
pub fn task_graph(params: &DrmParams) -> TaskGraph {
    let base = crate::hiperlan2::task_graph(&params.ofdm);
    let mut g = TaskGraph::new("DRM receiver");
    // Mirror processes.
    for (_, p) in base.processes() {
        match &p.affinity {
            Some(a) => g.add_process_with_affinity(p.name.clone(), a.clone()),
            None => g.add_process(p.name.clone()),
        };
    }
    // Mirror edges at scaled bandwidth and stretched periods.
    for (_, e) in base.edges() {
        let shape = match e.shape {
            TrafficShape::Block { words, period_us } => TrafficShape::Block {
                words,
                period_us: period_us * params.rate_factor,
            },
            TrafficShape::Streaming => TrafficShape::Streaming,
        };
        g.add_edge(
            e.src,
            e.dst,
            Bandwidth(e.bandwidth.value() / params.rate_factor),
            shape,
            e.label.clone(),
        );
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_a_factor_1000_below_hiperlan2() {
        let p = DrmParams::standard();
        assert!((p.bw_front_end().value() - 0.64).abs() < 1e-9);
        let h = crate::hiperlan2::task_graph(&p.ofdm);
        let d = task_graph(&p);
        assert!((h.total_bandwidth().value() / d.total_bandwidth().value() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn structure_mirrors_hiperlan2() {
        let p = DrmParams::standard();
        let h = crate::hiperlan2::task_graph(&p.ofdm);
        let d = task_graph(&p);
        assert_eq!(d.process_count(), h.process_count());
        assert_eq!(d.edge_count(), h.edge_count());
    }

    #[test]
    fn kbits_per_second_scale() {
        // "several kbit/s (DRM)": the hard-bit edge lands in the tens of
        // kbit/s for QAM-16.
        let p = DrmParams::standard();
        let kbit = p.bw_hard_bits().value() * 1000.0;
        assert!(
            (10.0..100.0).contains(&kbit),
            "hard bits should be tens of kbit/s, got {kbit}"
        );
    }

    #[test]
    fn block_periods_stretched() {
        let d = task_graph(&DrmParams::standard());
        let (_, first) = d.edges().next().unwrap();
        match first.shape {
            TrafficShape::Block { period_us, .. } => {
                assert!((period_us - 4000.0).abs() < 1e-9, "4 µs -> 4 ms");
            }
            _ => panic!("front-end edge is block traffic"),
        }
    }
}
