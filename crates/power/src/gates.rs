//! Structural gate-count formulas for both routers' components.
//!
//! Every formula is written in terms of the routers' own parameter structs,
//! so the area model scales when a design-time knob moves (the paper calls
//! lane count/width "adjustable parameters in the design", Section 5.1).
//! Counts are NAND2-equivalents using the standard cell weights below.

use noc_core::params::RouterParams;
use noc_packet::deflection::DeflectionParams;
use noc_packet::params::PacketParams;

/// NAND2-equivalents of one D flip-flop.
pub const DFF: f64 = 4.5;
/// NAND2-equivalents of one transparent latch.
pub const LATCH: f64 = 3.0;
/// NAND2-equivalents of one 2:1 mux (per bit).
pub const MUX2: f64 = 1.75;

/// Gates of an `n`:1 one-bit mux tree (`n-1` two-input muxes).
pub fn mux_tree(n: usize) -> f64 {
    (n.saturating_sub(1)) as f64 * MUX2
}

/// Gates of a `bits`-bit binary counter (flops + increment logic).
pub fn counter(bits: u32) -> f64 {
    f64::from(bits) * (DFF + 3.5)
}

// ---------------------------------------------------------------------------
// Circuit-switched router components (Table 4 left column)
// ---------------------------------------------------------------------------

/// Crossbar gates: per-output-lane data mux trees, the reverse ack mux
/// trees, and the registered outputs.
pub fn circuit_crossbar(p: &RouterParams) -> f64 {
    let outs = p.total_lanes() as f64;
    let data_mux = outs * f64::from(p.lane_width) * mux_tree(p.foreign_lanes());
    let ack_mux = outs * mux_tree(p.foreign_lanes());
    let out_regs = outs * f64::from(p.lane_width + 1) * DFF;
    data_mux + ack_mux + out_regs
}

/// Configuration memory gates: entry storage, the word register, the
/// output-lane address decoder and select-line drivers.
pub fn circuit_config(p: &RouterParams) -> f64 {
    let storage = f64::from(p.config_memory_bits()) * DFF;
    let word_reg = f64::from(p.config_word_bits()) * DFF;
    let decoder = p.total_lanes() as f64 * 2.0;
    let drivers = p.total_lanes() as f64 * f64::from(p.entry_bits()) * 0.5;
    storage + word_reg + decoder + drivers
}

/// Data-converter gates: per-lane TX/RX shift registers with parallel
/// load, flit counters, the window-counter flow control and the 16-bit
/// tile-bus mux/demux.
pub fn circuit_converter(p: &RouterParams) -> f64 {
    let phit_bits = 20.0;
    let shifter = phit_bits * (DFF + MUX2) + counter(3) + 15.0;
    let serdes = p.lanes_per_port as f64 * 2.0 * shifter;
    let flow = p.lanes_per_port as f64 * (counter(4) + counter(3) + DFF + 10.0);
    let tile_bus = 16.0 * mux_tree(p.lanes_per_port) * 2.0;
    serdes + flow + tile_bus
}

/// Total circuit-router gates.
pub fn circuit_total(p: &RouterParams) -> f64 {
    circuit_crossbar(p) + circuit_config(p) + circuit_converter(p)
}

// ---------------------------------------------------------------------------
// Packet-switched router components (Table 4 middle column)
// ---------------------------------------------------------------------------

/// Buffering gates: FIFO storage flops, per-FIFO pointers/decode, and the
/// read-port mux trees.
pub fn packet_buffering(p: &PacketParams) -> f64 {
    let fifos = (p.ports() * p.vcs) as f64;
    let entry_bits = 18.0;
    let storage = f64::from(p.buffer_bits()) * DFF;
    let ptr_bits = (usize::BITS - (p.fifo_depth - 1).leading_zeros()).max(1);
    let control = fifos * (counter(ptr_bits) * 2.0 + counter(ptr_bits + 1) + 10.0);
    let read_mux = fifos * entry_bits * mux_tree(p.fifo_depth);
    storage + control + read_mux
}

/// Crossbar gates: the full input-VC-to-output switch (`ports × vcs`
/// inputs per output), output registers and select distribution.
pub fn packet_crossbar(p: &PacketParams) -> f64 {
    let out_bits = 16.0 + 2.0 + f64::from(p.vc_bits()) + 1.0;
    let inputs = p.ports() * p.vcs;
    let mux = p.ports() as f64 * out_bits * mux_tree(inputs);
    let out_regs = p.ports() as f64 * out_bits * DFF;
    let selects = p.ports() as f64 * 30.0;
    mux + out_regs + selects
}

/// Arbitration gates: the per-input and per-output switch arbiters plus the
/// VC allocators.
pub fn packet_arbitration(p: &PacketParams) -> f64 {
    let rr = |n: usize| {
        let ptr = (usize::BITS - (n - 1).leading_zeros()).max(1);
        n as f64 * 2.0 + f64::from(ptr + 1) * DFF
    };
    let input_stage = p.ports() as f64 * rr(p.vcs);
    let output_stage = p.ports() as f64 * rr(p.ports());
    let vc_alloc = p.ports() as f64 * rr(p.ports() * p.vcs);
    input_stage + output_stage + vc_alloc
}

/// Miscellaneous gates: route computation and credit counters (the paper's
/// "Misc" row).
pub fn packet_misc(p: &PacketParams) -> f64 {
    let routing = p.ports() as f64 * 30.0;
    let credits = (p.ports() * p.vcs) as f64 * (counter(3) + 4.0);
    routing + credits
}

/// Total packet-router gates.
pub fn packet_total(p: &PacketParams) -> f64 {
    packet_buffering(p) + packet_crossbar(p) + packet_arbitration(p) + packet_misc(p)
}

// ---------------------------------------------------------------------------
// Bufferless deflection router components
// ---------------------------------------------------------------------------

/// Ports of the deflection router (same five-port geometry as the packet
/// router, but no virtual channels).
const DEFLECT_PORTS: f64 = 5.0;

/// Crossbar gates of the deflection router: a full 64-bit switch from
/// every link source to every output, the registered outputs, and select
/// distribution. The registers are wider than the packet router's (the
/// flit carries age/sequence sideband), but there are only five of them —
/// no per-VC replication.
pub fn deflection_crossbar(p: &DeflectionParams) -> f64 {
    let out_bits = f64::from(p.flit_bits());
    let mux = DEFLECT_PORTS * out_bits * mux_tree(5);
    let out_regs = DEFLECT_PORTS * out_bits * DFF;
    let selects = DEFLECT_PORTS * 30.0;
    mux + out_regs + selects
}

/// Arbitration gates: the oldest-first ranking network — pairwise 14-bit
/// age comparators over the up-to-five arrivals — plus per-port grant
/// registers. No round-robin pointer state: priority is carried by the
/// flits themselves.
pub fn deflection_arbitration(_p: &DeflectionParams) -> f64 {
    let arrivals = DEFLECT_PORTS;
    let age_bits = 14.0;
    let comparators = arrivals * (arrivals - 1.0) / 2.0 * age_bits * 1.5;
    let grant_regs = DEFLECT_PORTS * 3.0 * DFF;
    comparators + grant_regs
}

/// Miscellaneous gates: per-arrival route computation (the header
/// halfword is re-decoded every hop). No credit counters — deflection has
/// no flow control at all.
pub fn deflection_misc(_p: &DeflectionParams) -> f64 {
    DEFLECT_PORTS * 30.0
}

/// Total deflection-router gates. There is no buffering term: deleting
/// the FIFOs is the whole point of deflection.
pub fn deflection_total(p: &DeflectionParams) -> f64 {
    deflection_crossbar(p) + deflection_arbitration(p) + deflection_misc(p)
}

// ---------------------------------------------------------------------------
// Chiplet NoI entry router (boundary of a chiplet mesh-of-meshes)
// ---------------------------------------------------------------------------

/// Bits crossing a network-on-interposer link per word: the 16-bit tile
/// word plus a 2-bit entry-lane tag.
const NOI_WORD_BITS: f64 = 18.0;

/// Buffering gates of one NoI entry router: a one-word staging register
/// per entry lane (decoupling the two chiplet clock trees) plus per-lane
/// occupancy control.
pub fn noi_entry_buffering(entry_lanes: usize) -> f64 {
    entry_lanes as f64 * (NOI_WORD_BITS * DFF + counter(2) + 4.0)
}

/// Arbitration gates: the lanes:1 grant over staged words — a flat
/// priority chain plus the grant pointer register.
pub fn noi_entry_arbitration(entry_lanes: usize) -> f64 {
    let ptr = (usize::BITS - entry_lanes.saturating_sub(1).leading_zeros()).max(1);
    entry_lanes as f64 * 2.0 + f64::from(ptr + 1) * DFF
}

/// Link gates: the lanes:1 word mux onto the die-to-die link and the
/// registered link driver.
pub fn noi_entry_link(entry_lanes: usize) -> f64 {
    NOI_WORD_BITS * mux_tree(entry_lanes) + NOI_WORD_BITS * DFF
}

/// Total NoI entry-router gates.
pub fn noi_entry_total(entry_lanes: usize) -> f64 {
    noi_entry_buffering(entry_lanes)
        + noi_entry_arbitration(entry_lanes)
        + noi_entry_link(entry_lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_crossbar_paper_config() {
        let p = RouterParams::paper();
        // 20x4x15x1.75 + 20x15x1.75 + 100x4.5 = 2100 + 525 + 450.
        assert!((circuit_crossbar(&p) - 3075.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_storage_dominates_packet_router() {
        let p = PacketParams::paper();
        let buf = packet_buffering(&p);
        let rest = packet_crossbar(&p) + packet_arbitration(&p) + packet_misc(&p);
        assert!(buf > rest, "buffering should dominate: {buf} vs {rest}");
    }

    #[test]
    fn packet_router_larger_than_circuit() {
        // The core claim of Table 4 must already hold at gate level.
        let c = circuit_total(&RouterParams::paper());
        let k = packet_total(&PacketParams::paper());
        assert!(k > 2.0 * c, "packet {k} should dwarf circuit {c}");
    }

    #[test]
    fn gates_scale_with_lanes() {
        let base = RouterParams::paper();
        let wide = RouterParams {
            lanes_per_port: 8,
            ..base
        };
        assert!(circuit_crossbar(&wide) > 2.0 * circuit_crossbar(&base));
        assert!(circuit_converter(&wide) > 1.8 * circuit_converter(&base));
    }

    #[test]
    fn gates_scale_with_vcs() {
        let base = PacketParams::paper();
        let more = PacketParams { vcs: 8, ..base };
        assert!(packet_buffering(&more) > 1.8 * packet_buffering(&base));
        assert!(packet_arbitration(&more) > packet_arbitration(&base));
    }

    #[test]
    fn deflection_cheaper_than_packet_at_gate_level() {
        // Deleting the FIFOs must show up at gate level: fewer total
        // gates than the buffered packet router, and in particular fewer
        // than that router's buffering block alone. (The full circuit <
        // deflection < packet ordering is asserted at *area* level, where
        // the calibrated layout overheads apply — the circuit router's
        // serdes converters are gate-heavy but layout-cheap.)
        let d = deflection_total(&DeflectionParams::paper());
        let k = packet_total(&PacketParams::paper());
        assert!(d < k, "deflection {d} < packet {k}");
        assert!(
            d < packet_buffering(&PacketParams::paper()),
            "deflection router should cost less than the packet FIFOs alone"
        );
    }

    #[test]
    fn noi_entry_router_is_tiny() {
        // A boundary macro of staging registers and one word mux must cost
        // far less than any full router — the chiplet hierarchy's stitching
        // overhead is supposed to be in the noise.
        let n = noi_entry_total(4);
        assert!(n > 0.0);
        assert!(n < circuit_total(&RouterParams::paper()) / 4.0);
    }

    #[test]
    fn noi_entry_gates_scale_with_lanes() {
        assert!(noi_entry_total(8) > 1.8 * noi_entry_total(4));
        assert!(noi_entry_buffering(1) > 0.0);
    }

    #[test]
    fn mux_tree_edge_cases() {
        assert_eq!(mux_tree(1), 0.0);
        assert!((mux_tree(16) - 15.0 * MUX2).abs() < 1e-12);
    }

    #[test]
    fn arbitration_is_small() {
        // Matches the paper's tiny 0.0022 mm² arbitration row: arbiters are
        // cheap, buffers are not.
        let p = PacketParams::paper();
        assert!(packet_arbitration(&p) < packet_buffering(&p) / 10.0);
    }
}
