//! The assembled five-port virtual-channel wormhole router.
//!
//! Per-cycle dataflow (single-stage, matching the one-cycle latency of the
//! registered circuit-switched crossbar it is compared against):
//!
//! 1. **Arrival.** The flit sampled on each input link is written into the
//!    FIFO of its virtual channel. A head flit's destination is decoded and
//!    the XY route stored in the VC state.
//! 2. **VC allocation.** Head flits at FIFO fronts without an output VC
//!    request one on their route port; a round-robin allocator per output
//!    port grants at most one free VC per cycle.
//! 3. **Switch allocation.** Input-first separable allocation: a round-robin
//!    arbiter per input port nominates one ready VC (allocated, non-empty,
//!    downstream credit available); a round-robin arbiter per output port
//!    picks among the nominated inputs. Winners' flits move from FIFO to the
//!    output register; a credit is returned upstream; a tail flit releases
//!    both the input VC and the output VC.
//! 4. **Commit.** Output registers latch (these drive the links), all FIFO
//!    flops and state registers pay clock energy, credit pulses latch.
//!
//! The contrast with `noc_core`'s router is deliberate and is the paper's
//! whole point: every one of steps 1–3 costs buffers or arbitration the
//! circuit-switched data path simply does not have.
//!
//! # Layout
//!
//! A [`PacketRouter`] is one plain struct, the same layout as the circuit
//! router: per-port and per-`(port, vc)` state lives in fixed arrays sized
//! by [`PacketRouter::MAX_VCS`], of which the first `P × vcs` entries are
//! live. Building a router allocates nothing but its FIFO storage, and a
//! cycle allocates nothing at all (arbitration scratch lives on the
//! stack). A mesh keeps a `Vec<PacketRouter>` and clocks it with
//! [`noc_sim::par::par_step`], which hands each router to exactly one
//! thread.
//!
//! # Idle fast path
//!
//! Real workloads leave most routers idle most cycles. A router whose
//! architectural state is fully parked (empty FIFOs, free VCs, full
//! credits, zeroed output registers) and that receives no link or credit
//! input evaluates to a no-op and commits to a *constant* set of ledger
//! charges — the clock energy of its ungated flops, with zero toggles (or
//! nothing at all when clock-gated). The router keeps a `settled` flag,
//! skips evaluation outright, and applies the precomputed `IdleCosts`
//! constants at commit. The constants are exact, not an approximation:
//! `idle_fast_path_charges_match_full_path` pins them against the full
//! path, and the mesh-level determinism suites pin sequential-vs-pooled
//! equality.

use crate::arbiter::RoundRobin;
use crate::flit::{Flit, LinkWord};
use crate::params::{PacketParams, PacketPort};
use crate::routing::route_xy;
use crate::vc::{InputVc, OutputVc, VcId};
use noc_sim::activity::{ActivityClass, ActivityLedger, ComponentActivity, ComponentKind};
use noc_sim::kernel::Clocked;
use noc_sim::signal::{Reg, Wire};
use std::collections::VecDeque;

/// Number of ports (fixed).
const P: usize = PacketPort::COUNT;

/// Entries of a `[port × vc]` array (the first `P × vcs` are live).
const PV: usize = P * PacketRouter::MAX_VCS;

/// The six per-router activity ledgers, at the paper's Table 4 component
/// granularity.
#[derive(Debug, Clone, Copy, Default)]
struct RouterLedgers {
    buffer: ActivityLedger,
    arb: ActivityLedger,
    xbar: ActivityLedger,
    route: ActivityLedger,
    flow: ActivityLedger,
    link: ActivityLedger,
}

/// Per-cycle `RegClock` charges of a fully idle **ungated** router — the
/// clock energy its flops pay whether or not anything moves. Precomputed
/// once from the parameters; applied verbatim on idle-skipped commits.
#[derive(Debug, Clone, Copy)]
struct IdleCosts {
    /// Output registers: `P × (16 payload + 2 kind + vc id + valid)`.
    xbar: u64,
    /// FIFO storage and pointers: `P × vcs × clock_tick` bits.
    buffer: u64,
    /// VC state registers plus the three arbiter banks' pointer state.
    arb: u64,
    /// Credit-output pulse registers: one bit per `(port, vc)`.
    flow: u64,
}

/// The packet-switched baseline router: five ports, `vcs` wormhole VCs
/// per port, credit flow control and separable round-robin allocation.
///
/// `[port × vc]` arrays are indexed `port * vcs + vc`.
#[derive(Debug, Clone)]
pub struct PacketRouter {
    params: PacketParams,
    idle: IdleCosts,

    /// Input VC state: `[port × vc]`.
    inputs: [InputVc; PV],
    /// Output VC state: `[port × vc]`.
    outputs: [OutputVc; PV],

    /// Flit sampled on each input link this cycle.
    link_in: [Option<(VcId, Flit)>; P],
    /// Credits returning from downstream: `[port × vc]`.
    credit_in: [bool; PV],

    /// Output registers driving the links.
    out_regs: [Reg<u32>; P],
    /// Decoded view of the output registers (what is on the link).
    out_words: [LinkWord; P],
    /// Link wires for toggle counting (neighbour ports only).
    link_wires: [Wire<u32>; P],
    /// Which input port each output port last selected (crossbar select).
    out_select: [Wire<u8>; P],

    /// Credit pulses to send upstream this cycle: `[port × vc]`.
    credit_out_next: [bool; PV],
    /// Latched credit outputs.
    credit_out_regs: [Reg<bool>; PV],

    /// Switch-allocation arbiters: one per input port (VC nomination) and
    /// one per output port (input selection), then VC-allocation arbiters
    /// per output port.
    input_arbs: [RoundRobin; P],
    output_arbs: [RoundRobin; P],
    vc_arbs: [RoundRobin; P],

    /// Flits delivered at the tile output port, awaiting the tile.
    tile_rx: VecDeque<(VcId, Flit)>,

    led: RouterLedgers,

    /// Flits accepted for injection at the tile port.
    flits_injected: u64,
    /// Flits delivered to the tile port.
    flits_delivered: u64,

    /// Architectural state fully parked after the last commit: evaluation
    /// can be skipped until an input arrives.
    settled: bool,
    /// This cycle's evaluation was skipped (commit applies [`IdleCosts`]).
    skipped: bool,
    /// A link flit or credit was sampled since the last evaluation.
    inbox: bool,
    /// Router drives no link word and no credit pulse — its neighbours'
    /// wiring can skip sampling it entirely.
    quiet: bool,
}

impl PacketRouter {
    /// Upper bound on `vcs` — the link wire image carries a 2-bit VC id,
    /// so more channels cannot be encoded. The bound also sizes the
    /// router's `[port × vc]` arrays and the stack-allocated arbitration
    /// scratch in the hot loop.
    pub const MAX_VCS: usize = 4;

    /// A router with all VCs idle at `params.coords`.
    pub fn new(params: PacketParams) -> PacketRouter {
        assert!(
            (1..=Self::MAX_VCS).contains(&params.vcs),
            "vcs must be 1..=4 (2-bit link VC id)"
        );
        let v = params.vcs;
        let input_arb = RoundRobin::new(v);
        let output_arb = RoundRobin::new(P);
        let vc_arb = RoundRobin::new(P * v);

        // Per-cycle clock charges of one fully idle ungated router; see
        // `commit` for the structures each term mirrors.
        let out_bits = u64::from(16 + 2 + params.vc_bits() + 1);
        let depth = params.fifo_depth;
        let ptr_bits = u64::from((usize::BITS - (depth - 1).leading_zeros()).max(1));
        let fifo_tick = depth as u64 * u64::from(Flit::STORE_BITS) + 3 * ptr_bits + 1;
        let arb_bits = u64::from(input_arb.state_bits())
            + u64::from(output_arb.state_bits())
            + u64::from(vc_arb.state_bits());
        let idle = IdleCosts {
            xbar: P as u64 * out_bits,
            buffer: (P * v) as u64 * fifo_tick,
            arb: (P * v) as u64 * u64::from(InputVc::STATE_BITS + OutputVc::STATE_BITS)
                + P as u64 * arb_bits,
            flow: (P * v) as u64,
        };

        PacketRouter {
            params,
            idle,
            inputs: std::array::from_fn(|_| InputVc::new(depth)),
            outputs: [OutputVc::new(depth); PV],
            link_in: [None; P],
            credit_in: [false; PV],
            out_regs: [Reg::new(0); P],
            out_words: [LinkWord::IDLE; P],
            link_wires: [Wire::new(0, ActivityClass::LinkToggle); P],
            out_select: [Wire::new(0, ActivityClass::SelectToggle); P],
            credit_out_next: [false; PV],
            credit_out_regs: [Reg::new(false); PV],
            input_arbs: [input_arb; P],
            output_arbs: [output_arb; P],
            vc_arbs: [vc_arb; P],
            tile_rx: VecDeque::new(),
            led: RouterLedgers::default(),
            flits_injected: 0,
            flits_delivered: 0,
            settled: false,
            skipped: false,
            inbox: false,
            quiet: false,
        }
    }

    /// The router's parameters.
    pub fn params(&self) -> &PacketParams {
        &self.params
    }

    /// Index of `(port, vc)` in the `[port × vc]` arrays.
    #[inline]
    fn pv(&self, port: PacketPort, vc: VcId) -> usize {
        port.index() * self.params.vcs + vc.index()
    }

    // ----- link interface ------------------------------------------------

    /// Sample the flit arriving on `port` this cycle.
    pub fn set_link_input(&mut self, port: PacketPort, vc: VcId, flit: Flit) {
        let i = port.index();
        debug_assert!(self.link_in[i].is_none(), "one flit per link per cycle");
        self.link_in[i] = Some((vc, flit));
        self.inbox = true;
    }

    /// Sample a returning credit for `(output port, vc)`.
    pub fn set_credit_input(&mut self, port: PacketPort, vc: VcId, credit: bool) {
        let i = self.pv(port, vc);
        self.credit_in[i] = credit;
        self.inbox = true;
    }

    /// The link word this router drives on `port` (valid after commit).
    pub fn link_output(&self, port: PacketPort) -> LinkWord {
        self.out_words[port.index()]
    }

    /// The latched credit pulse this router sends upstream on its *input*
    /// `(port, vc)` — wire to the upstream router's `set_credit_input`.
    pub fn credit_output(&self, port: PacketPort, vc: VcId) -> bool {
        self.credit_out_regs[self.pv(port, vc)].q()
    }

    /// The router drives no link word and no credit pulse this cycle: its
    /// neighbours' wiring pass can skip sampling it with no behavioural
    /// difference. Exact, not heuristic — recomputed at every commit.
    pub fn quiet_links(&self) -> bool {
        self.quiet
    }

    // ----- tile interface --------------------------------------------------

    /// Room available for injection on tile VC `vc`?
    pub fn tile_can_inject(&self, vc: VcId) -> bool {
        self.link_in[PacketPort::Tile.index()].is_none()
            && !self.inputs[self.pv(PacketPort::Tile, vc)].fifo.is_full()
    }

    /// Offer a flit at the tile input port (at most one per cycle).
    pub fn tile_inject(&mut self, vc: VcId, flit: Flit) -> bool {
        if !self.tile_can_inject(vc) {
            return false;
        }
        self.link_in[PacketPort::Tile.index()] = Some((vc, flit));
        self.inbox = true;
        self.flits_injected += 1;
        true
    }

    /// Pop a flit delivered to the tile.
    pub fn tile_recv(&mut self) -> Option<(VcId, Flit)> {
        self.tile_rx.pop_front()
    }

    /// Flits waiting at the tile output.
    pub fn tile_rx_pending(&self) -> usize {
        self.tile_rx.len()
    }

    /// Flits accepted for injection at the tile port.
    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    /// Flits delivered to the tile port.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    // ----- activity --------------------------------------------------------

    /// Per-component activity snapshots (Table 4 component granularity).
    pub fn activity(&self) -> Vec<ComponentActivity> {
        let led = &self.led;
        vec![
            ComponentActivity::new(ComponentKind::Buffering, led.buffer),
            ComponentActivity::new(ComponentKind::Arbitration, led.arb),
            ComponentActivity::new(ComponentKind::Crossbar, led.xbar),
            ComponentActivity::new(ComponentKind::Routing, led.route),
            ComponentActivity::new(ComponentKind::FlowControl, led.flow),
            ComponentActivity::new(ComponentKind::Link, led.link),
        ]
    }

    /// Reset all activity ledgers.
    pub fn clear_activity(&mut self) {
        self.led = RouterLedgers::default();
    }

    /// Is every FIFO empty and every VC idle? (drain detection for tests
    /// and admission control)
    pub fn is_quiescent(&self) -> bool {
        self.inputs[..P * self.params.vcs]
            .iter()
            .all(|vc| vc.is_idle())
    }

    // ----- testbench inspection -------------------------------------------

    /// Is output VC `(port, vc)` allocated to a wormhole? (testbench
    /// inspection of the allocator state)
    pub fn output_vc_busy(&self, port: PacketPort, vc: VcId) -> bool {
        self.outputs[self.pv(port, vc)].busy
    }

    /// The output VC allocated to input VC `(port, vc)`, if any.
    pub fn input_out_vc(&self, port: PacketPort, vc: VcId) -> Option<VcId> {
        self.inputs[self.pv(port, vc)].out_vc
    }
}

impl Clocked for PacketRouter {
    fn eval(&mut self) {
        let v = self.params.vcs;

        // Idle fast path: architectural state fully parked and nothing
        // sampled on the links — evaluation is a provable no-op (every
        // arbiter sees an empty request set, every register re-schedules
        // its held value).
        if self.settled && !self.inbox {
            self.skipped = true;
            return;
        }
        self.skipped = false;
        self.inbox = false;

        // --- 1. Arrival: write sampled flits into their VC FIFOs. Route
        // computation happens later, when a head reaches the FIFO *front*:
        // a head arriving behind a still-draining wormhole must not
        // clobber the active route.
        for port in 0..P {
            if let Some((vc, flit)) = self.link_in[port].take() {
                let ivc = &mut self.inputs[port * v + vc.index()];
                let ok = ivc.fifo.push(flit, &mut self.led.buffer);
                debug_assert!(ok, "credit flow control prevents FIFO overflow");
            }
        }

        // --- credits returning from downstream. --------------------------
        for i in 0..P * v {
            if std::mem::take(&mut self.credit_in[i]) {
                self.outputs[i].return_credit();
                self.led.flow.bump(ActivityClass::Handshake);
            }
        }

        // --- 1b. Route computation: an idle input VC whose FIFO front is
        // a head flit decodes its destination (one decode per wormhole).
        for i in 0..P * v {
            let ivc = &mut self.inputs[i];
            if ivc.out_vc.is_none() && ivc.route.is_none() {
                if let Some(dest) = ivc.fifo.front().and_then(|f| f.dest()) {
                    ivc.route = Some(route_xy(self.params.coords, dest));
                    self.led.route.add(ActivityClass::WireToggle, 4);
                }
            }
        }

        // --- 2. VC allocation: one free output VC granted per output
        // port. Request scratch lives on the stack (MAX_VCS bounds the
        // width).
        let mut requests = [false; PV];
        for out_port in 0..P {
            // Find a free output VC first.
            let free_vc = (0..v).find(|&x| !self.outputs[out_port * v + x].busy);
            let Some(free_vc) = free_vc else { continue };
            // Requests: flattened input VCs whose head needs this output.
            let req = &mut requests[..P * v];
            for in_port in 0..P {
                for vc in 0..v {
                    let ivc = &self.inputs[in_port * v + vc];
                    req[in_port * v + vc] = ivc.out_vc.is_none()
                        && ivc.route == PacketPort::from_index(out_port)
                        && matches!(ivc.fifo.front(), Some(f) if f.dest().is_some());
                }
            }
            if let Some(winner) = self.vc_arbs[out_port].grant(req, &mut self.led.arb) {
                let (ip, iv) = (winner / v, winner % v);
                self.inputs[ip * v + iv].out_vc = Some(VcId(free_vc as u8));
                self.outputs[out_port * v + free_vc].busy = true;
            }
        }

        // --- 3. Switch allocation (input-first separable). ---------------
        // Input stage: nominate one ready VC per input port.
        let mut nominee: [Option<usize>; P] = [None; P]; // vc index per input port
        let mut ready = [false; Self::MAX_VCS];
        for (in_port, nom) in nominee.iter_mut().enumerate() {
            for (vc, slot) in ready[..v].iter_mut().enumerate() {
                let ivc = &self.inputs[in_port * v + vc];
                *slot = ivc.out_vc.is_some()
                    && !ivc.fifo.is_empty()
                    && ivc.route.is_some_and(|r| {
                        let ovc = ivc.out_vc.expect("checked is_some above");
                        // The tile output sinks into an unbounded queue:
                        // it always has credit. Mesh outputs need real
                        // credit.
                        r == PacketPort::Tile
                            || self.outputs[r.index() * v + ovc.index()].credits > 0
                    });
            }
            *nom = self.input_arbs[in_port].grant(&ready[..v], &mut self.led.arb);
        }

        // Output stage: pick one nominated input per output port.
        let mut granted: [(usize, usize, usize); P] = [(0, 0, 0); P]; // (in_port, vc, out_port)
        let mut granted_len = 0;
        for out_port in 0..P {
            let mut reqs = [false; P];
            for in_port in 0..P {
                if let Some(vc) = nominee[in_port] {
                    if self.inputs[in_port * v + vc].route == PacketPort::from_index(out_port) {
                        reqs[in_port] = true;
                    }
                }
            }
            if let Some(win) = self.output_arbs[out_port].grant(&reqs, &mut self.led.arb) {
                granted[granted_len] = (
                    win,
                    nominee[win].expect("granted implies nominated"),
                    out_port,
                );
                granted_len += 1;
                // Crossbar select lines follow the granted input.
                self.out_select[out_port].drive(win as u8 + 1, &mut self.led.xbar);
            } else {
                // Idle output: select parks at 0 (no input).
                self.out_select[out_port].drive(0, &mut self.led.xbar);
            }
        }

        // Move winners' flits to the output registers.
        let mut out_next = [0u32; P];
        for &(in_port, vc, out_port) in &granted[..granted_len] {
            let ivc = &mut self.inputs[in_port * v + vc];
            let out_vc = ivc.out_vc.expect("allocated before switch");
            let flit = ivc
                .fifo
                .pop(&mut self.led.buffer)
                .expect("ready implies non-empty");
            if out_port != PacketPort::Tile.index() {
                self.outputs[out_port * v + out_vc.index()].consume_credit();
            }
            // Credit back to our upstream for the freed slot.
            self.credit_out_next[in_port * v + vc] = true;
            let word = LinkWord {
                flit: Some((out_vc.0, flit)),
            };
            out_next[out_port] = word.wire_image();
            if flit.is_tail() {
                self.outputs[out_port * v + out_vc.index()].busy = false;
                ivc.release();
            }
        }
        for (port, &next) in out_next.iter().enumerate() {
            self.out_regs[port].set_next(next);
        }
    }

    fn commit(&mut self) {
        let v = self.params.vcs;
        let pv = P * v;
        let gating = self.params.clock_gating;
        let idle = self.idle;
        let led = &mut self.led;

        // Idle fast path: evaluation was skipped, so every register holds
        // and every charge is the parked router's clock constant — zero
        // toggles, zero handshakes, zero state change. Gated, even the
        // clocks stop.
        if self.skipped {
            if !gating {
                led.xbar.add(ActivityClass::RegClock, idle.xbar);
                led.buffer.add(ActivityClass::RegClock, idle.buffer);
                led.arb.add(ActivityClass::RegClock, idle.arb);
                led.flow.add(ActivityClass::RegClock, idle.flow);
            }
            return;
        }

        // Output registers latch and drive the links. Physical width:
        // 16 payload + 2 kind + vc id + valid. Gated: a register parked at
        // idle (holding idle, staying idle) is not clocked.
        let out_bits = 16 + 2 + self.params.vc_bits() + 1;
        for port in 0..P {
            let reg = &mut self.out_regs[port];
            if gating && reg.q() == 0 && reg.d() == 0 {
                reg.clock_gated();
            } else {
                reg.clock_bits(&mut led.xbar, out_bits);
            }
            let image = reg.q();
            self.out_words[port] = decode_wire(image);
            if port != PacketPort::Tile.index() {
                self.link_wires[port].drive(image, &mut led.link);
            }
        }

        // Tile deliveries drain into the tile queue.
        if let Some((vc, flit)) = self.out_words[PacketPort::Tile.index()].flit {
            self.tile_rx.push_back((VcId(vc), flit));
            self.flits_delivered += 1;
        }

        // All buffer flops clock every cycle — the dominant offset. Gated:
        // an empty FIFO's storage and pointers hold, so its clock is off.
        for ivc in &self.inputs[..pv] {
            if !(gating && ivc.fifo.is_empty()) {
                ivc.fifo.clock_tick(&mut led.buffer);
            }
        }

        // VC state and credit-counter registers clock every cycle; gated,
        // only VCs holding a wormhole or outstanding credits do.
        let state_bits = if gating {
            let mut bits = 0u64;
            for (ivc, ovc) in self.inputs[..pv].iter().zip(&self.outputs[..pv]) {
                if !ivc.is_idle() {
                    bits += u64::from(InputVc::STATE_BITS);
                }
                if ovc.busy || ovc.credits != ovc.max_credits {
                    bits += u64::from(OutputVc::STATE_BITS);
                }
            }
            bits
        } else {
            pv as u64 * u64::from(InputVc::STATE_BITS + OutputVc::STATE_BITS)
        };
        if state_bits > 0 {
            led.arb.add(ActivityClass::RegClock, state_bits);
        }

        // Arbiters' pointer state (gated: clocked only on decision change).
        for arb in self
            .input_arbs
            .iter_mut()
            .chain(self.output_arbs.iter_mut())
            .chain(self.vc_arbs.iter_mut())
        {
            if gating {
                arb.commit_gated(&mut led.arb);
            } else {
                arb.commit(&mut led.arb);
            }
        }

        // Credit outputs latch; each pulse is a handshake on the link.
        // Gated: a pulse wire resting low stays unclocked.
        for i in 0..pv {
            let pulse = std::mem::take(&mut self.credit_out_next[i]);
            let reg = &mut self.credit_out_regs[i];
            reg.set_next(pulse);
            if gating && !pulse && !reg.q() {
                reg.clock_gated();
            } else {
                reg.clock(&mut led.flow);
            }
            if pulse && i / v != PacketPort::Tile.index() {
                led.link.bump(ActivityClass::LinkToggle);
            }
        }

        // Reassess the fast-path flags from the just-latched state.
        // `quiet` lets neighbours skip wiring; `settled` additionally
        // requires every input/output VC parked, so the next evaluation
        // can be skipped outright (its commit then applies exactly the
        // constants above: every register holds d == q, so no toggle can
        // occur).
        self.quiet = self.out_words.iter().all(|w| w.flit.is_none())
            && self.credit_out_regs[..pv].iter().all(|reg| !reg.q());
        self.settled = self.quiet
            && self.inputs[..pv].iter().all(|ivc| ivc.is_idle())
            && self.outputs[..pv]
                .iter()
                .all(|ovc| !ovc.busy && ovc.credits == ovc.max_credits);
    }
}

/// Decode an output-register image back into a [`LinkWord`].
fn decode_wire(image: u32) -> LinkWord {
    if image & (1 << 20) == 0 {
        return LinkWord::IDLE;
    }
    let vc = ((image >> 18) & 0b11) as u8;
    let kind = crate::flit::FlitKind::from_bits(((image >> 16) & 0b11) as u8)
        .expect("registered image holds a valid kind");
    LinkWord {
        flit: Some((
            vc,
            Flit {
                kind,
                payload: image as u16,
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet, PacketAssembler};
    use crate::routing::Coords;
    use noc_sim::kernel::step;

    fn router() -> PacketRouter {
        PacketRouter::new(PacketParams::paper())
    }

    /// A credit-respecting upstream link driver, as a real neighbour router
    /// would be: it holds `fifo_depth` initial credits and recovers one per
    /// observed credit pulse.
    struct Upstream {
        port: PacketPort,
        vc: VcId,
        flits: VecDeque<Flit>,
        credits: u8,
    }

    impl Upstream {
        fn new(port: PacketPort, vc: VcId, pkt: &Packet) -> Upstream {
            Upstream {
                port,
                vc,
                flits: pkt.to_flits().into(),
                credits: PacketParams::paper().fifo_depth as u8,
            }
        }

        /// Call once per cycle, before stepping the router.
        fn drive(&mut self, r: &mut PacketRouter) {
            if r.credit_output(self.port, self.vc) {
                self.credits += 1;
            }
            if self.credits > 0 {
                if let Some(f) = self.flits.pop_front() {
                    r.set_link_input(self.port, self.vc, f);
                    self.credits -= 1;
                }
            }
        }
    }

    #[test]
    fn tile_to_east_wormhole() {
        let mut r = router(); // at (0,0)
        let pkt = Packet::new(Coords::new(1, 0), vec![0xAA, 0xBB, 0xCC]);
        let mut seen = Vec::new();
        let mut flits: VecDeque<Flit> = pkt.to_flits().into();
        for _ in 0..20 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
            if let Some((_, f)) = r.link_output(PacketPort::East).flit {
                seen.push(f);
            }
        }
        assert_eq!(seen, pkt.to_flits(), "wormhole leaves east in order");
    }

    #[test]
    fn north_to_tile_delivery() {
        let mut r = router();
        // Arriving from the north, addressed to this router's tile.
        let pkt = Packet::new(Coords::new(0, 0), vec![7, 8]);
        let mut up = Upstream::new(PacketPort::North, VcId(1), &pkt);
        for _ in 0..20 {
            up.drive(&mut r);
            step(&mut r);
        }
        let mut asm = PacketAssembler::new();
        while let Some((_vc, f)) = r.tile_recv() {
            asm.push(f);
        }
        assert_eq!(asm.take_completed(), vec![pkt]);
    }

    #[test]
    fn xy_routing_against_coords() {
        // Router at (2,2); destination (2,4) must leave South.
        let mut r = PacketRouter::new(PacketParams::paper().at(Coords::new(2, 2)));
        let mut flits: VecDeque<Flit> = Packet::new(Coords::new(2, 4), vec![1]).to_flits().into();
        let mut south = 0;
        let mut elsewhere = 0;
        for _ in 0..20 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
            if r.link_output(PacketPort::South).flit.is_some() {
                south += 1;
            }
            for p in [PacketPort::North, PacketPort::East, PacketPort::West] {
                if r.link_output(p).flit.is_some() {
                    elsewhere += 1;
                }
            }
        }
        assert_eq!(south, 2, "head + tail must leave on the south port");
        assert_eq!(elsewhere, 0, "no other port carries traffic");
    }

    #[test]
    fn two_streams_collide_at_east_and_interleave() {
        // Scenario IV's collision: Tile->East and West->East. Wormholes on
        // different VCs interleave flit-by-flit under round-robin.
        let mut r = router();
        let tile_pkt = Packet::new(Coords::new(1, 0), vec![0x1111; 8]);
        let west_pkt = Packet::new(Coords::new(1, 0), vec![0x2222; 8]);
        let mut tile_flits: VecDeque<Flit> = tile_pkt.to_flits().into();
        let mut west = Upstream::new(PacketPort::West, VcId(0), &west_pkt);
        let mut east_seen = Vec::new();
        for cycle in 0..80 {
            if let Some(&f) = tile_flits.front() {
                if r.tile_inject(VcId(0), f) {
                    tile_flits.pop_front();
                }
            }
            west.drive(&mut r);
            // The downstream consumer on East returns a credit for every
            // flit it received last cycle.
            if let Some((vc, _)) = r.link_output(PacketPort::East).flit {
                r.set_credit_input(PacketPort::East, VcId(vc), true);
            }
            step(&mut r);
            let _ = cycle;
            if let Some((vc, f)) = r.link_output(PacketPort::East).flit {
                east_seen.push((vc, f.payload));
            }
        }
        assert_eq!(east_seen.len(), 18, "both packets fully forwarded");
        // Both wormholes' payloads present.
        assert!(east_seen.iter().any(|&(_, p)| p == 0x1111));
        assert!(east_seen.iter().any(|&(_, p)| p == 0x2222));
        // They use distinct output VCs.
        let vcs_used: std::collections::HashSet<u8> = east_seen.iter().map(|&(vc, _)| vc).collect();
        assert_eq!(vcs_used.len(), 2);
        // And genuinely interleave (not strictly sequential).
        let first_b = east_seen.iter().position(|&(_, p)| p == 0x2222).unwrap();
        let last_a = east_seen.iter().rposition(|&(_, p)| p == 0x1111).unwrap();
        assert!(first_b < last_a, "flit-level interleaving expected");
    }

    #[test]
    fn collision_costs_arbitration_toggles() {
        // The mechanism behind the paper's Scenario III/IV observation.
        let run = |collide: bool| -> u64 {
            let mut r = router();
            let mut tile_flits: VecDeque<Flit> = Packet::new(Coords::new(1, 0), vec![0; 32])
                .to_flits()
                .into();
            let west_pkt = Packet::new(Coords::new(1, 0), vec![0; 32]);
            let mut west = Upstream::new(PacketPort::West, VcId(0), &west_pkt);
            for _ in 0..100 {
                if let Some(&f) = tile_flits.front() {
                    if r.tile_inject(VcId(0), f) {
                        tile_flits.pop_front();
                    }
                }
                if collide {
                    west.drive(&mut r);
                }
                // Downstream always consumes: credit per observed flit.
                if let Some((vc, _)) = r.link_output(PacketPort::East).flit {
                    r.set_credit_input(PacketPort::East, VcId(vc), true);
                }
                step(&mut r);
            }
            let act = r.activity();
            act.iter()
                .map(|c| c.ledger.get(ActivityClass::ArbiterGrantChange))
                .sum()
        };
        let solo = run(false);
        let collided = run(true);
        assert!(
            collided > solo * 2,
            "collision must multiply grant changes: solo={solo} collided={collided}"
        );
    }

    #[test]
    fn credits_bound_inflight_flits() {
        // No credits ever returned on East: at most depth flits per VC leave.
        let mut r = router();
        let pkt = Packet::new(Coords::new(1, 0), vec![0xEE; 20]);
        let mut flits: VecDeque<Flit> = pkt.to_flits().into();
        let mut east_count = 0;
        for _ in 0..60 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
            if r.link_output(PacketPort::East).flit.is_some() {
                east_count += 1;
            }
        }
        assert_eq!(east_count, 4, "fifo_depth credits bound the wormhole");
    }

    #[test]
    fn returned_credits_resume_the_wormhole() {
        // Downstream consumes with a two-cycle lag per flit: the wormhole
        // stalls on credits, resumes, and completes.
        let mut r = router();
        let pkt = Packet::new(Coords::new(1, 0), vec![0xEE; 10]);
        let mut flits: VecDeque<Flit> = pkt.to_flits().into();
        let mut east_count = 0;
        let mut credit_pipe: VecDeque<VcId> = VecDeque::new();
        for _ in 0..200 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            // Return the credit scheduled two cycles ago.
            if credit_pipe.len() >= 2 {
                let vc = credit_pipe.pop_front().unwrap();
                r.set_credit_input(PacketPort::East, vc, true);
            }
            step(&mut r);
            if let Some((vc, _)) = r.link_output(PacketPort::East).flit {
                east_count += 1;
                credit_pipe.push_back(VcId(vc));
            }
        }
        assert_eq!(east_count, 11, "full packet forwarded once credits flow");
        assert!(r.is_quiescent());
    }

    #[test]
    fn idle_router_clock_offset_dominated_by_buffers() {
        let mut r = router();
        for _ in 0..100 {
            step(&mut r);
        }
        let act = r.activity();
        let buffer_clocks = act
            .iter()
            .find(|c| c.kind == ComponentKind::Buffering)
            .unwrap()
            .ledger
            .get(ActivityClass::RegClock);
        let total_clocks: u64 = act
            .iter()
            .map(|c| c.ledger.get(ActivityClass::RegClock))
            .sum();
        assert!(
            buffer_clocks * 2 > total_clocks,
            "buffering should be the majority of idle clocking"
        );
        // And hugely more than the circuit router's ~300 bits/cycle:
        assert!(
            buffer_clocks >= 100 * 1440,
            "all FIFO bits clock each cycle"
        );
    }

    #[test]
    fn idle_fast_path_charges_match_full_path() {
        // A fresh router's first cycle runs the FULL eval/commit on parked
        // state (the settled flag only latches at the end of a commit);
        // every later idle cycle takes the fast path. The two must charge
        // identically, class by class, component by component — this is
        // the exactness guarantee the IdleCosts constants encode.
        let snapshot = |r: &PacketRouter| -> Vec<ActivityLedger> {
            r.activity().iter().map(|c| c.ledger).collect()
        };
        let mut r = router();
        step(&mut r); // full path (settled not yet latched)
        let after_full = snapshot(&r);
        step(&mut r); // fast path
        let after_fast = snapshot(&r);
        let full_delta: Vec<ActivityLedger> = after_full.clone();
        for (kind, (full, pair)) in full_delta
            .iter()
            .zip(after_fast.iter().zip(after_full.iter()))
            .enumerate()
        {
            let (fast_total, full_prev) = pair;
            // fast-cycle delta = totals after cycle 2 minus after cycle 1.
            for class in noc_sim::activity::ActivityClass::ALL {
                let fast = fast_total.get(class) - full_prev.get(class);
                assert_eq!(
                    full.get(class),
                    fast,
                    "component {kind} class {class:?}: full-path idle cycle \
                     and fast-path idle cycle must charge identically"
                );
            }
        }
    }

    #[test]
    fn quiet_links_flag_is_exact() {
        // quiet_links must be false exactly while the router drives a link
        // word or a credit pulse.
        let mut r = router();
        assert!(!r.quiet_links(), "unknown before the first commit");
        step(&mut r);
        assert!(r.quiet_links(), "idle router is quiet");
        let pkt = Packet::new(Coords::new(1, 0), vec![0x77]);
        let mut flits: VecDeque<Flit> = pkt.to_flits().into();
        let mut quiet_while_driving = false;
        let mut drove = false;
        for _ in 0..20 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
            let driving = PacketPort::ALL
                .iter()
                .any(|&p| r.link_output(p).flit.is_some())
                || PacketPort::ALL
                    .iter()
                    .any(|&p| (0..4).any(|vcc| r.credit_output(p, VcId(vcc))));
            if driving {
                drove = true;
                quiet_while_driving |= r.quiet_links();
            }
        }
        assert!(drove, "test premise: the packet must move");
        assert!(!quiet_while_driving, "quiet must never mask live links");
        // After draining (tile port needs no credits) the flag settles.
        for _ in 0..5 {
            step(&mut r);
        }
        assert!(r.quiet_links());
    }

    #[test]
    fn credit_pulses_reach_upstream_interface() {
        let mut r = router();
        let pkt = Packet::new(Coords::new(0, 0), vec![5]);
        let mut flits: VecDeque<Flit> = pkt.to_flits().into();
        let mut pulses = 0;
        for _ in 0..20 {
            if let Some(f) = flits.pop_front() {
                r.set_link_input(PacketPort::West, VcId(2), f);
            }
            step(&mut r);
            if r.credit_output(PacketPort::West, VcId(2)) {
                pulses += 1;
            }
        }
        assert_eq!(pulses, 2, "one credit per forwarded flit");
    }

    #[test]
    fn back_to_back_packets_different_destinations_same_vc() {
        // Regression: a head flit arriving on a VC whose previous wormhole
        // is still draining must NOT redirect the in-flight packet. Two
        // packets on tile VC0: first to the East, second to the South;
        // every flit must leave on its own packet's port.
        let mut r = router();
        let east_pkt = Packet::new(Coords::new(1, 0), vec![0xE1, 0xE2, 0xE3]);
        let south_pkt = Packet::new(Coords::new(0, 1), vec![0x51, 0x52]);
        let mut flits: VecDeque<Flit> = east_pkt
            .to_flits()
            .into_iter()
            .chain(south_pkt.to_flits())
            .collect();
        let mut east_seen = Vec::new();
        let mut south_seen = Vec::new();
        for _ in 0..40 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            // Downstream consumes freely on both ports.
            for port in [PacketPort::East, PacketPort::South] {
                if let Some((vc, _)) = r.link_output(port).flit {
                    r.set_credit_input(port, VcId(vc), true);
                }
            }
            step(&mut r);
            if let Some((_, f)) = r.link_output(PacketPort::East).flit {
                east_seen.push(f);
            }
            if let Some((_, f)) = r.link_output(PacketPort::South).flit {
                south_seen.push(f);
            }
        }
        assert_eq!(east_seen, east_pkt.to_flits(), "east packet intact");
        assert_eq!(south_seen, south_pkt.to_flits(), "south packet intact");
    }

    #[test]
    fn queued_head_does_not_redirect_draining_wormhole() {
        // Sharper regression: stall the first wormhole on credits so the
        // second packet's head provably sits in the FIFO behind it, then
        // release credits and check nothing was misrouted.
        let mut r = router();
        // Seven flits: the wormhole stalls after fifo_depth (4) credits.
        let east_pkt = Packet::new(Coords::new(1, 0), vec![0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6]);
        let north_pkt = Packet::new(Coords::new(0, 0), vec![0xCC]);
        // north_pkt: dest == router coords -> Tile port.
        let mut flits: VecDeque<Flit> = east_pkt
            .to_flits()
            .into_iter()
            .chain(north_pkt.to_flits())
            .collect();
        let mut east_seen = Vec::new();
        // Credits the downstream consumer owes for flits it has absorbed
        // but not yet acknowledged (none returned during phase 1).
        let mut owed: VecDeque<VcId> = VecDeque::new();
        // Phase 1: no credits returned on East -> the east wormhole stalls
        // mid-packet with the tile packet's head queued behind it.
        for _ in 0..15 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
            if let Some((vc, f)) = r.link_output(PacketPort::East).flit {
                east_seen.push(f);
                owed.push_back(VcId(vc));
            }
        }
        assert!(
            east_seen.len() < east_pkt.to_flits().len(),
            "test premise: the wormhole must actually stall"
        );
        // Phase 2: the consumer pays back one credit per cycle; the
        // wormhole resumes and everything drains correctly.
        for _ in 0..40 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            if let Some(vc) = owed.pop_front() {
                r.set_credit_input(PacketPort::East, vc, true);
            }
            step(&mut r);
            if let Some((vc, f)) = r.link_output(PacketPort::East).flit {
                east_seen.push(f);
                owed.push_back(VcId(vc));
            }
        }
        assert_eq!(east_seen, east_pkt.to_flits());
        let tile_words: Vec<u16> = std::iter::from_fn(|| r.tile_recv())
            .filter(|(_, f)| !matches!(f.kind, FlitKind::Head))
            .map(|(_, f)| f.payload)
            .collect();
        assert_eq!(tile_words, vec![0xCC], "tile packet reached the tile");
    }

    #[test]
    fn gated_idle_router_accumulates_nothing() {
        // With clock gating every idle structure holds: an idle router has
        // zero recorded activity — this is what lets the hybrid fabric keep
        // a packet plane around for spillover without paying for it.
        let mut r = PacketRouter::new(PacketParams::paper().gated());
        for _ in 0..100 {
            step(&mut r);
        }
        let total: u64 = r.activity().iter().map(|c| c.ledger.total()).sum();
        assert_eq!(total, 0, "gated idle router must record no activity");
    }

    #[test]
    fn gating_changes_energy_not_behaviour() {
        // The same packet through a gated and an ungated router: identical
        // link outputs every cycle, strictly less activity when gated.
        let run = |params: PacketParams| {
            let mut r = PacketRouter::new(params);
            let pkt = Packet::new(Coords::new(1, 0), vec![0xD1, 0xD2, 0xD3]);
            let mut flits: VecDeque<Flit> = pkt.to_flits().into();
            let mut outputs = Vec::new();
            for _ in 0..30 {
                if let Some(&f) = flits.front() {
                    if r.tile_inject(VcId(0), f) {
                        flits.pop_front();
                    }
                }
                if let Some((vc, _)) = r.link_output(PacketPort::East).flit {
                    r.set_credit_input(PacketPort::East, VcId(vc), true);
                }
                step(&mut r);
                outputs.push(r.link_output(PacketPort::East).flit);
            }
            let activity: u64 = r.activity().iter().map(|c| c.ledger.total()).sum();
            (outputs, activity)
        };
        let (ungated_out, ungated_act) = run(PacketParams::paper());
        let (gated_out, gated_act) = run(PacketParams::paper().gated());
        assert_eq!(ungated_out, gated_out, "gating must not change dataflow");
        assert!(
            gated_act < ungated_act / 4,
            "gating should remove most of the mostly-idle router's \
             activity: gated {gated_act} vs ungated {ungated_act}"
        );
    }

    #[test]
    fn gated_busy_structures_still_clock() {
        // A router actively forwarding pays buffer and output clocks even
        // when gated — gating is an idle optimisation, not an energy cheat.
        let mut r = PacketRouter::new(PacketParams::paper().gated());
        let mut flits: VecDeque<Flit> = Packet::new(Coords::new(1, 0), vec![0xBE; 6])
            .to_flits()
            .into();
        for _ in 0..30 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            if let Some((vc, _)) = r.link_output(PacketPort::East).flit {
                r.set_credit_input(PacketPort::East, VcId(vc), true);
            }
            step(&mut r);
        }
        let clocks: u64 = r
            .activity()
            .iter()
            .map(|c| c.ledger.get(ActivityClass::RegClock))
            .sum();
        assert!(clocks > 0, "live traffic must still pay clock energy");
    }

    #[test]
    fn vc_exhaustion_blocks_new_wormholes() {
        // Occupy all 4 east output VCs with stalled wormholes (no credits
        // returned), then a 5th packet cannot allocate.
        let mut r = router();
        for vc in 0..4 {
            // Each from a different input VC of the west port.
            let head = Flit::head(Coords::new(1, 0));
            r.set_link_input(PacketPort::West, VcId(vc), head);
            step(&mut r);
        }
        // All four output VCs now busy (heads routed and allocated).
        let busy: usize = (0..4)
            .filter(|&x| r.output_vc_busy(PacketPort::East, VcId(x)))
            .count();
        assert_eq!(busy, 4);
        // A fifth wormhole from the tile cannot get a VC; its head stays.
        let mut flits: VecDeque<Flit> = Packet::new(Coords::new(1, 0), vec![1]).to_flits().into();
        for _ in 0..10 {
            if let Some(&f) = flits.front() {
                if r.tile_inject(VcId(0), f) {
                    flits.pop_front();
                }
            }
            step(&mut r);
        }
        assert!(
            r.input_out_vc(PacketPort::Tile, VcId(0)).is_none(),
            "no output VC available"
        );
    }
}
