//! The HiperLAN/2 baseband receiver pipeline (paper Fig. 2, Table 1).
//!
//! Table 1's bandwidths are not arbitrary: every row follows from the OFDM
//! parameters of the standard (ETSI TS 101 475). With an 80-sample symbol
//! each 4 µs, a 64-point FFT, 52 used subcarriers of which 48 carry data,
//! and complex samples quantised to 16-bit I + 16-bit Q:
//!
//! | edge | samples/symbol | bandwidth |
//! |---|---|---|
//! | S/P → Prefix removal | 80 | 80×32 bit / 4 µs = **640 Mbit/s** |
//! | Prefix removal → FFT | 64 | 64×32 / 4 µs = **512 Mbit/s** |
//! | FFT → Channel eq. | 52 | 52×32 / 4 µs = **416 Mbit/s** |
//! | Channel eq. → De-map | 48 | 48×32 / 4 µs = **384 Mbit/s** |
//! | Hard bits | 48×bits/carrier | 12 (BPSK) … 72 (QAM-64) Mbit/s |
//!
//! This module computes the table from those first principles, so the
//! Table 1 bench regenerates the numbers instead of echoing them.

use crate::taskgraph::{TaskGraph, TrafficShape};
use noc_sim::units::Bandwidth;

/// Subcarrier modulation of the data carriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 1 bit per carrier per symbol.
    Bpsk,
    /// 2 bits.
    Qpsk,
    /// 4 bits.
    Qam16,
    /// 6 bits.
    Qam64,
}

impl Modulation {
    /// Hard bits per data carrier per OFDM symbol.
    pub fn bits_per_carrier(self) -> u32 {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }
}

/// OFDM physical-layer parameters of HiperLAN/2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hiperlan2Params {
    /// Samples per OFDM symbol including the cyclic prefix.
    pub symbol_samples: u32,
    /// FFT length (samples after prefix removal).
    pub fft_size: u32,
    /// Used subcarriers after the FFT (data + pilots).
    pub used_carriers: u32,
    /// Data subcarriers after pilot removal.
    pub data_carriers: u32,
    /// Symbol period in microseconds.
    pub symbol_period_us: f64,
    /// Bits per I or Q component ("based on 16 bits quantization").
    pub sample_bits: u32,
    /// Data-carrier modulation.
    pub modulation: Modulation,
}

impl Hiperlan2Params {
    /// The standard's numbers as used in the paper.
    pub fn standard(modulation: Modulation) -> Hiperlan2Params {
        Hiperlan2Params {
            symbol_samples: 80,
            fft_size: 64,
            used_carriers: 52,
            data_carriers: 48,
            symbol_period_us: 4.0,
            sample_bits: 16,
            modulation,
        }
    }

    /// Bits per complex sample (I + Q).
    pub fn complex_bits(&self) -> u32 {
        2 * self.sample_bits
    }

    /// Bandwidth of `samples` complex samples delivered once per symbol.
    fn per_symbol(&self, samples: u32, bits_each: u32) -> Bandwidth {
        // bits / µs = Mbit/s.
        Bandwidth(f64::from(samples * bits_each) / self.symbol_period_us)
    }

    /// Edge 1–2: serial-to-parallel → prefix removal (full symbol).
    pub fn bw_sp_to_prefix(&self) -> Bandwidth {
        self.per_symbol(self.symbol_samples, self.complex_bits())
    }

    /// Edge 3–4: prefix removal → FFT (prefix stripped).
    pub fn bw_prefix_to_fft(&self) -> Bandwidth {
        self.per_symbol(self.fft_size, self.complex_bits())
    }

    /// Edge 5–6: FFT → channel equalisation (used carriers).
    pub fn bw_fft_to_equalizer(&self) -> Bandwidth {
        self.per_symbol(self.used_carriers, self.complex_bits())
    }

    /// Edge 7: channel equalisation → de-mapping (data carriers).
    pub fn bw_equalizer_to_demap(&self) -> Bandwidth {
        self.per_symbol(self.data_carriers, self.complex_bits())
    }

    /// Edge 8: hard bits out of the de-mapper.
    pub fn bw_hard_bits(&self) -> Bandwidth {
        self.per_symbol(self.data_carriers, self.modulation.bits_per_carrier())
    }

    /// Words (16-bit) per block on the S/P → prefix-removal edge; block
    /// traffic is what distinguishes OFDM from the UMTS streaming case.
    pub fn words_per_symbol(&self, samples: u32) -> u32 {
        samples * self.complex_bits() / 16
    }
}

/// Build the Fig. 2 process graph with Table 1 bandwidths.
pub fn task_graph(params: &Hiperlan2Params) -> TaskGraph {
    let mut g = TaskGraph::new("HiperLAN/2 baseband");
    let sp = g.add_process_with_affinity("Serial-to-parallel", "ASIC");
    let foc = g.add_process_with_affinity("Freq. offset correction", "DSRH");
    let prefix = g.add_process_with_affinity("Prefix removal", "DSRH");
    let fft = g.add_process_with_affinity("FFT", "FFT");
    let poc = g.add_process_with_affinity("Phase offset correction", "DSRH");
    let eq = g.add_process_with_affinity("Channel equalization", "DSRH");
    let demap = g.add_process_with_affinity("Demapping", "DSP");
    let sync = g.add_process_with_affinity("Synchronization & Control", "GPP");

    let block = |samples: u32, p: &Hiperlan2Params| TrafficShape::Block {
        words: p.words_per_symbol(samples),
        period_us: p.symbol_period_us,
    };

    g.add_edge(
        sp,
        foc,
        params.bw_sp_to_prefix(),
        block(params.symbol_samples, params),
        "S/P -> Pre-fix removal (1-2)",
    );
    g.add_edge(
        foc,
        prefix,
        params.bw_sp_to_prefix(),
        block(params.symbol_samples, params),
        "S/P -> Pre-fix removal (1-2)",
    );
    g.add_edge(
        prefix,
        fft,
        params.bw_prefix_to_fft(),
        block(params.fft_size, params),
        "Pre-fix removal -> FFT (3-4)",
    );
    g.add_edge(
        fft,
        poc,
        params.bw_fft_to_equalizer(),
        block(params.used_carriers, params),
        "FFT -> Channel eq. (5-6)",
    );
    g.add_edge(
        poc,
        eq,
        params.bw_fft_to_equalizer(),
        block(params.used_carriers, params),
        "FFT -> Channel eq. (5-6)",
    );
    g.add_edge(
        eq,
        demap,
        params.bw_equalizer_to_demap(),
        block(params.data_carriers, params),
        "Channel eq. -> De-map (7)",
    );
    g.add_edge(
        demap,
        sync,
        params.bw_hard_bits(),
        TrafficShape::Streaming,
        "Hard bits (8)",
    );
    g
}

/// Table 1 as `(label, Mbit/s)` rows computed from `params`.
pub fn table1(params: &Hiperlan2Params) -> Vec<(String, Bandwidth)> {
    vec![
        ("S/P -> Pre-fix removal".into(), params.bw_sp_to_prefix()),
        ("Pre-fix removal -> FFT".into(), params.bw_prefix_to_fft()),
        ("FFT -> Channel eq.".into(), params.bw_fft_to_equalizer()),
        (
            "Channel eq. -> De-map".into(),
            params.bw_equalizer_to_demap(),
        ),
        (
            format!("Hard bits ({:?})", params.modulation),
            params.bw_hard_bits(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_bandwidths_match_paper() {
        let p = Hiperlan2Params::standard(Modulation::Bpsk);
        assert!((p.bw_sp_to_prefix().value() - 640.0).abs() < 1e-9);
        assert!((p.bw_prefix_to_fft().value() - 512.0).abs() < 1e-9);
        assert!((p.bw_fft_to_equalizer().value() - 416.0).abs() < 1e-9);
        assert!((p.bw_equalizer_to_demap().value() - 384.0).abs() < 1e-9);
        assert!((p.bw_hard_bits().value() - 12.0).abs() < 1e-9, "BPSK");
    }

    #[test]
    fn hard_bits_range_matches_paper() {
        // "12 (BPSK) up to 72 (QAM-64)".
        let q64 = Hiperlan2Params::standard(Modulation::Qam64);
        assert!((q64.bw_hard_bits().value() - 72.0).abs() < 1e-9);
        let q16 = Hiperlan2Params::standard(Modulation::Qam16);
        assert!((q16.bw_hard_bits().value() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn graph_structure_matches_fig2() {
        let g = task_graph(&Hiperlan2Params::standard(Modulation::Qam64));
        assert_eq!(g.process_count(), 8, "Fig. 2 has 8 blocks");
        assert_eq!(g.edge_count(), 7);
        assert!(g.find("FFT").is_some());
        assert!(g.topological_order().is_some(), "pipeline is acyclic");
    }

    #[test]
    fn block_shape_carries_symbol_words() {
        let p = Hiperlan2Params::standard(Modulation::Bpsk);
        let g = task_graph(&p);
        let (_, first_edge) = g.edges().next().unwrap();
        match first_edge.shape {
            TrafficShape::Block { words, period_us } => {
                // 80 complex samples x 32 bits / 16-bit words = 160 words.
                assert_eq!(words, 160);
                assert!((period_us - 4.0).abs() < 1e-12);
            }
            _ => panic!("OFDM edges are block-shaped"),
        }
    }

    #[test]
    fn peak_edge_is_within_one_lane_at_fmax() {
        // A 4-bit lane at 1075 MHz carries 1075*16/5 = 3440 Mbit/s payload:
        // even the 640 Mbit/s front-end edge fits one lane with margin
        // (paper Section 7.3: "maximum bandwidth of both routers can meet
        // the required bandwidth of the wireless applications").
        let p = Hiperlan2Params::standard(Modulation::Qam64);
        let g = task_graph(&p);
        let lane_payload_mbit = 1075.0 * 16.0 / 5.0;
        assert!(g.peak_edge_bandwidth().value() < lane_payload_mbit);
    }

    #[test]
    fn table1_row_count() {
        let rows = table1(&Hiperlan2Params::standard(Modulation::Bpsk));
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn total_graph_bandwidth() {
        // 640x2 + 512 + 416x2 + 384 + 12 = 3020 Mbit/s of GT traffic over
        // the seven edges of the pipeline.
        let g = task_graph(&Hiperlan2Params::standard(Modulation::Bpsk));
        assert!((g.total_bandwidth().value() - 3020.0).abs() < 1e-6);
    }
}
