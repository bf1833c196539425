//! The 16×20 fully connected crossbar with registered outputs.
//!
//! Paper Section 5.1: "In the router the four lanes of one port have to be
//! connected with all the four lanes of all the other four ports. This
//! results in a router with 20 input and 20 output lanes. They are connected
//! via a 16x20 fully connected crossbar (20x20 is not necessary, because data
//! does not have to flow back). The 20 output lanes of the crossbar are
//! registered."
//!
//! Because each stream owns its lane, the crossbar needs **no arbitration**:
//! evaluation is a pure per-output mux indexed by the configuration memory.
//! The acknowledge wires of the flow-control scheme (Section 5.2, Fig. 7)
//! travel the same crossbar in reverse: the ack arriving with output lane
//! *o* is forwarded to whichever input lane is configured to feed *o*.
//!
//! Activity model: output registers pay clock energy every cycle (unless the
//! clock-gating option — the paper's future work — is enabled, in which case
//! inactive lanes are gated) and toggle energy per changed bit; the mux-tree
//! capacitance is folded into the per-toggle coefficient by `noc-power`.
//!
//! Datapath layout: a port's lanes travel as one word. Data is
//! nibble-packed into a `u64` — lane *l* at bits `4l..4l+4`, so a port holds
//! up to [`MAX_LANES_PER_PORT`] lanes — and acknowledges are a bitmask with
//! lane *l* at bit *l*. Evaluation is one shift-and-mask per active output
//! (selects are resolved when the configuration is written), and a commit
//! charges each port with popcounts of `q ^ d` under the lane clock enables.

use crate::config::ConfigMemory;
use crate::lane::{LaneIndex, Port};
use crate::params::RouterParams;
use noc_sim::activity::{ActivityClass, ActivityLedger};
use noc_sim::bits::Nibble;

/// Most lanes one port carries: a packed data word holds 16 nibbles.
pub const MAX_LANES_PER_PORT: usize = 16;

/// Nibble mask of lane `l` in a packed data word.
#[inline]
fn nibble_mask(l: usize) -> u64 {
    0xF << (4 * l)
}

/// Pack flat per-lane nibbles ([`LaneIndex`] order) into one data word per
/// port, lane `l` at bits `4l..4l+4` — the layout [`Crossbar::eval`] takes.
pub fn pack_nibbles(lanes: &[Nibble], lanes_per_port: usize) -> Vec<u64> {
    lanes
        .chunks(lanes_per_port)
        .map(|port| {
            port.iter()
                .enumerate()
                .fold(0, |w, (l, n)| w | (u64::from(n.get()) << (4 * l)))
        })
        .collect()
}

/// Pack flat per-lane ack wires ([`LaneIndex`] order) into one bitmask per
/// port, lane `l` at bit `l`.
pub fn pack_acks(acks: &[bool], lanes_per_port: usize) -> Vec<u16> {
    acks.chunks(lanes_per_port)
        .map(|port| {
            port.iter()
                .enumerate()
                .fold(0, |m, (l, &a)| m | (u16::from(a) << l))
        })
        .collect()
}

/// The switch fabric: per-output-lane muxes, output registers and the
/// reverse acknowledge path, one packed word per port.
#[derive(Debug, Clone)]
pub struct Crossbar {
    params: RouterParams,
    /// Registered data outputs per output port: latched (`q`) and next (`d`).
    out_q: [u64; Port::COUNT],
    out_d: [u64; Port::COUNT],
    /// Registered ack outputs per *input* port (the reverse path).
    ack_q: [u16; Port::COUNT],
    ack_d: [u16; Port::COUNT],
    /// Clock enables cached by the last eval for clock gating: the nibbles
    /// of active output lanes, and the *input* lanes feeding an active
    /// output (the reverse ack path is indexed by input lane, so its gating
    /// follows the taps, not the outputs).
    data_en: [u64; Port::COUNT],
    ack_en: [u16; Port::COUNT],
    /// Every lane of a port, as a data word and as an ack mask: the enables
    /// of an ungated crossbar.
    all_data: u64,
    all_acks: u16,
}

impl Crossbar {
    /// A crossbar with all outputs idle (driving zero nibbles).
    ///
    /// # Panics
    /// Panics if `params.lanes_per_port` exceeds [`MAX_LANES_PER_PORT`].
    pub fn new(params: RouterParams) -> Crossbar {
        let lanes = params.lanes_per_port;
        assert!(
            lanes <= MAX_LANES_PER_PORT,
            "{lanes} lanes per port exceed the packed datapath's {MAX_LANES_PER_PORT}"
        );
        Crossbar {
            params,
            out_q: [0; Port::COUNT],
            out_d: [0; Port::COUNT],
            ack_q: [0; Port::COUNT],
            ack_d: [0; Port::COUNT],
            data_en: [0; Port::COUNT],
            ack_en: [0; Port::COUNT],
            all_data: (0..lanes).map(nibble_mask).fold(0, |m, n| m | n),
            all_acks: (0..lanes).fold(0, |m, l| m | (1 << l)),
        }
    }

    /// Combinational evaluation.
    ///
    /// * `inputs[p]` — the nibbles sampled on input port `p` this cycle,
    ///   packed one lane per nibble;
    /// * `acks_in[p]` — the ack wires arriving alongside output port `p`'s
    ///   lanes (from the downstream router or the local tile), one bit per
    ///   lane;
    /// * `config` — the configuration memory selecting inputs for outputs.
    ///
    /// # Panics
    /// Panics unless both slices hold one word per port — a wiring bug in
    /// the enclosing router, not a runtime condition.
    pub fn eval(&mut self, inputs: &[u64], acks_in: &[u16], config: &ConfigMemory) {
        assert_eq!(
            inputs.len(),
            Port::COUNT,
            "input lane count mismatch: one packed word per port"
        );
        assert_eq!(
            acks_in.len(),
            Port::COUNT,
            "ack wire count mismatch: one mask per port"
        );

        // Forward data path: per-output 16:1 mux.
        // Reverse ack path: ack_out[input] = OR of acks of outputs fed by it
        // (OR supports the multicast case where several outputs listen to
        // one input; each branch destination acknowledges independently and
        // any ack credits the source conservatively).
        self.ack_d = [0; Port::COUNT];
        self.ack_en = [0; Port::COUNT];
        for port in Port::ALL {
            let p = port.index();
            let (mut data, mut en) = (0, 0);
            for (l, tap) in config.taps(port) {
                let (from, lane) = (usize::from(tap.port), usize::from(tap.lane));
                data |= ((inputs[from] >> (4 * lane)) & 0xF) << (4 * l);
                en |= nibble_mask(l);
                self.ack_en[from] |= 1 << lane;
                self.ack_d[from] |= ((acks_in[p] >> l) & 1) << lane;
            }
            self.out_d[p] = data;
            self.data_en[p] = en;
        }
    }

    /// The clock enables of port `p`'s data and ack registers: every lane
    /// ungated, only the lanes cached by the last eval under clock gating.
    #[inline]
    fn enables(&self, p: usize) -> (u64, u16) {
        if self.params.clock_gating {
            (self.data_en[p], self.ack_en[p])
        } else {
            (self.all_data, self.all_acks)
        }
    }

    /// Clock edge: latch outputs, recording activity into `ledger` with one
    /// add per class. Returns the bits that flipped on the four neighbour
    /// ports — the toggles of the inter-router link wires those registers
    /// drive.
    ///
    /// With `params.clock_gating` enabled, output lanes whose configuration
    /// entry is inactive hold for free — the paper's proposed fix for the
    /// dynamic-power offset ("we can use the configuration information of
    /// the router and switch off the unused lanes").
    pub fn commit(&mut self, ledger: &mut ActivityLedger) -> u64 {
        let (mut clocks, mut toggles, mut link) = (0, 0, 0);
        for p in 0..Port::COUNT {
            let (data_en, ack_en) = self.enables(p);
            let data_flips = (self.out_q[p] ^ self.out_d[p]) & data_en;
            let ack_flips = (self.ack_q[p] ^ self.ack_d[p]) & ack_en;
            self.out_q[p] ^= data_flips;
            self.ack_q[p] ^= ack_flips;
            clocks += u64::from(data_en.count_ones() + ack_en.count_ones());
            let flips = u64::from(data_flips.count_ones() + ack_flips.count_ones());
            toggles += flips;
            if p != Port::Tile.index() {
                link += flips;
            }
        }
        ledger.add(ActivityClass::RegClock, clocks);
        ledger.add(ActivityClass::RegToggle, toggles);
        link
    }

    /// The latched data output of flat lane `o`.
    #[inline]
    pub fn output(&self, o: LaneIndex) -> Nibble {
        let lanes = self.params.lanes_per_port;
        let word = self.out_q[o.port(lanes).index()];
        Nibble::new((word >> (4 * o.lane(lanes))) as u8)
    }

    /// The latched reverse ack leaving flat *input* lane `i` toward the
    /// upstream router.
    #[inline]
    pub fn ack_output(&self, i: LaneIndex) -> bool {
        let lanes = self.params.lanes_per_port;
        (self.ack_q[i.port(lanes).index()] >> i.lane(lanes)) & 1 != 0
    }

    /// The latched data outputs of `port`, packed one lane per nibble.
    #[inline]
    pub(crate) fn port_output(&self, port: Port) -> u64 {
        self.out_q[port.index()]
    }

    /// The latched reverse acks leaving `port`'s input lanes, one bit per
    /// lane.
    #[inline]
    pub(crate) fn port_acks(&self, port: Port) -> u16 {
        self.ack_q[port.index()]
    }

    /// Every latched output at its reset value: zero data on all lanes, no
    /// acks. With all inputs also zero, the next commit holds every register
    /// (`d == q`) and charges only clock energy.
    pub fn all_parked(&self) -> bool {
        self.out_q.iter().all(|&w| w == 0) && self.ack_q.iter().all(|&m| m == 0)
    }

    /// RegClock bits one idle commit charges given the current gating state:
    /// the constant part of the paper's dynamic-power offset. The same
    /// enables [`Crossbar::commit`] clocks, so both paths charge from one
    /// width. Under gating they are cached by the last eval, so this must be
    /// re-read whenever the configuration memory changes.
    pub fn idle_clock_bits(&self) -> u64 {
        (0..Port::COUNT)
            .map(|p| {
                let (data_en, ack_en) = self.enables(p);
                u64::from(data_en.count_ones() + ack_en.count_ones())
            })
            .sum()
    }

    /// Number of architectural register bits in the crossbar (data outputs
    /// plus ack flops) — input to the area model.
    pub fn register_bits(params: &RouterParams) -> u32 {
        params.total_lanes() as u32 * (params.lane_width + 1)
    }

    /// The parameters this crossbar was built with.
    pub fn params(&self) -> &RouterParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigEntry;
    use crate::lane::Port;
    use noc_sim::activity::ActivityClass;

    fn setup() -> (Crossbar, ConfigMemory, ActivityLedger) {
        let p = RouterParams::paper();
        (
            Crossbar::new(p),
            ConfigMemory::new(p),
            ActivityLedger::new(),
        )
    }

    fn lane(port: Port, l: usize) -> LaneIndex {
        LaneIndex::of(port, l, 4)
    }

    #[test]
    fn idle_crossbar_outputs_zero() {
        let (mut xbar, cfg, mut ledger) = setup();
        let inputs = vec![Nibble::MAX; 20];
        xbar.eval(&pack_nibbles(&inputs, 4), &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        for o in 0..20 {
            assert_eq!(xbar.output(LaneIndex(o)), Nibble::ZERO);
        }
    }

    #[test]
    fn configured_route_passes_data_after_one_cycle() {
        let (mut xbar, mut cfg, mut ledger) = setup();
        let p = *xbar.params();
        // East lane 2 listens to West lane 1 (a straight-through stream).
        let sel = p.foreign_select(Port::East, Port::West, 1).unwrap();
        cfg.write_entry(lane(Port::East, 2), ConfigEntry::active(sel), &mut ledger);

        let mut inputs = vec![Nibble::ZERO; 20];
        inputs[lane(Port::West, 1).get()] = Nibble::new(0xA);
        xbar.eval(&pack_nibbles(&inputs, 4), &[0; 5], &cfg);
        // Registered output: not visible before the edge.
        assert_eq!(xbar.output(lane(Port::East, 2)), Nibble::ZERO);
        xbar.commit(&mut ledger);
        assert_eq!(xbar.output(lane(Port::East, 2)), Nibble::new(0xA));
        // No other output disturbed.
        for o in 0..20u8 {
            if LaneIndex(o) != lane(Port::East, 2) {
                assert_eq!(xbar.output(LaneIndex(o)), Nibble::ZERO);
            }
        }
    }

    #[test]
    fn streams_are_physically_separated() {
        // Two concurrent streams on different lanes never interact — the
        // core claim of lane-division multiplexing.
        let (mut xbar, mut cfg, mut ledger) = setup();
        let p = *xbar.params();
        let s1 = p.foreign_select(Port::East, Port::Tile, 0).unwrap();
        let s2 = p.foreign_select(Port::East, Port::West, 0).unwrap();
        cfg.write_entry(lane(Port::East, 0), ConfigEntry::active(s1), &mut ledger);
        cfg.write_entry(lane(Port::East, 1), ConfigEntry::active(s2), &mut ledger);

        let mut inputs = vec![Nibble::ZERO; 20];
        inputs[lane(Port::Tile, 0).get()] = Nibble::new(0x5);
        inputs[lane(Port::West, 0).get()] = Nibble::new(0xC);
        xbar.eval(&pack_nibbles(&inputs, 4), &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        assert_eq!(xbar.output(lane(Port::East, 0)), Nibble::new(0x5));
        assert_eq!(xbar.output(lane(Port::East, 1)), Nibble::new(0xC));
    }

    #[test]
    fn multicast_same_input_to_two_outputs() {
        let (mut xbar, mut cfg, mut ledger) = setup();
        let p = *xbar.params();
        let sel_e = p.foreign_select(Port::East, Port::Tile, 0).unwrap();
        let sel_w = p.foreign_select(Port::West, Port::Tile, 0).unwrap();
        cfg.write_entry(lane(Port::East, 0), ConfigEntry::active(sel_e), &mut ledger);
        cfg.write_entry(lane(Port::West, 0), ConfigEntry::active(sel_w), &mut ledger);

        let mut inputs = vec![Nibble::ZERO; 20];
        inputs[lane(Port::Tile, 0).get()] = Nibble::new(0x9);
        xbar.eval(&pack_nibbles(&inputs, 4), &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        assert_eq!(xbar.output(lane(Port::East, 0)), Nibble::new(0x9));
        assert_eq!(xbar.output(lane(Port::West, 0)), Nibble::new(0x9));
    }

    #[test]
    fn ack_travels_reverse_path() {
        let (mut xbar, mut cfg, mut ledger) = setup();
        let p = *xbar.params();
        // Stream Tile.0 -> East.0; the ack entering with East.0 must leave
        // on Tile.0's reverse wire.
        let sel = p.foreign_select(Port::East, Port::Tile, 0).unwrap();
        cfg.write_entry(lane(Port::East, 0), ConfigEntry::active(sel), &mut ledger);

        let inputs = vec![Nibble::ZERO; 20];
        let mut acks = vec![false; 20];
        acks[lane(Port::East, 0).get()] = true;
        xbar.eval(&pack_nibbles(&inputs, 4), &pack_acks(&acks, 4), &cfg);
        xbar.commit(&mut ledger);
        assert!(xbar.ack_output(lane(Port::Tile, 0)));
        assert!(!xbar.ack_output(lane(Port::Tile, 1)));
    }

    #[test]
    fn ack_ignored_on_inactive_output() {
        let (mut xbar, cfg, mut ledger) = setup();
        let mut acks = vec![false; 20];
        acks[lane(Port::East, 0).get()] = true;
        xbar.eval(&[0; 5], &pack_acks(&acks, 4), &cfg);
        xbar.commit(&mut ledger);
        for i in 0..20 {
            assert!(!xbar.ack_output(LaneIndex(i)));
        }
    }

    #[test]
    fn idle_ungated_crossbar_pays_clock_energy() {
        // This is the paper's "relative high offset in the dynamic power
        // consumption": the 100 register bits clock every cycle even with
        // no data (Section 7.3).
        let (mut xbar, cfg, mut ledger) = setup();
        xbar.eval(&[0; 5], &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        // 20 lanes x 4 data bits + 20 ack bits = 100 bits clocked.
        assert_eq!(ledger.get(ActivityClass::RegClock), 100);
        assert_eq!(ledger.get(ActivityClass::RegToggle), 0);
    }

    #[test]
    fn clock_gating_eliminates_idle_clock_energy() {
        let p = RouterParams {
            clock_gating: true,
            ..RouterParams::paper()
        };
        let mut xbar = Crossbar::new(p);
        let cfg = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        xbar.eval(&[0; 5], &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        assert_eq!(ledger.get(ActivityClass::RegClock), 0);
    }

    #[test]
    fn clock_gating_keeps_active_lane_clocked() {
        let p = RouterParams {
            clock_gating: true,
            ..RouterParams::paper()
        };
        let mut xbar = Crossbar::new(p);
        let mut cfg = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        let sel = p.foreign_select(Port::East, Port::Tile, 0).unwrap();
        cfg.write_entry(lane(Port::East, 0), ConfigEntry::active(sel), &mut ledger);
        ledger.clear();
        xbar.eval(&[0; 5], &[0; 5], &cfg);
        xbar.commit(&mut ledger);
        // Exactly one active lane: 4 data bits + 1 ack bit clocked.
        assert_eq!(ledger.get(ActivityClass::RegClock), 5);
    }

    #[test]
    fn register_bit_count() {
        assert_eq!(Crossbar::register_bits(&RouterParams::paper()), 100);
    }

    #[test]
    #[should_panic(expected = "input lane count")]
    fn wrong_input_width_panics() {
        let (mut xbar, cfg, _) = setup();
        xbar.eval(&[0; 4], &[0; 5], &cfg);
    }
}
