//! Bufferless deflection routing: the paper's natural adversary.
//!
//! The paper's energy argument is that circuit switching beats buffered
//! packet switching because the input FIFOs dominate router power. Bufferless
//! **deflection** routing (BLESS-style; see arXiv:2112.02516 for a survey)
//! attacks the same cost from the other side: delete the FIFOs entirely and
//! absorb contention as *misroutes*. Every flit that arrives at a router
//! leaves it on the next clock edge — if its productive port is taken it is
//! deflected onto any free port and tries again from wherever it lands.
//!
//! # Router microarchitecture
//!
//! One pipeline stage, matching the one-cycle latency of the registered
//! crossbars it is compared against:
//!
//! 1. **Arrival.** Up to one flit is sampled per input link, plus at most
//!    one tile injection.
//! 2. **Age-based arbitration.** Arrivals are ranked oldest-first by their
//!    injection timestamp ([`DeflectFlit::born`], ties broken by input
//!    port). One flit destined here may eject to the tile per cycle; the
//!    rest claim output ports in age order — a productive port (XY
//!    preference) when one is free, otherwise *any* free valid port (a
//!    deflection). Oldest-first arbitration makes the scheme
//!    livelock-free: the globally oldest flit always wins a productive
//!    port, so it delivers in bounded time.
//! 3. **Commit.** Output registers latch and drive the links.
//!
//! # Energy model
//!
//! There are **no FIFOs**: no `BufferWrite`/`BufferRead` terms and no
//! per-cycle FIFO clock offset — only the five 64-bit output registers pay
//! clock energy, every cycle (the router is never clock-gated), and the
//! `Buffering` ledger stays empty. The cost
//! of contention appears instead as per-deflection *re-traversal*: a
//! deflected flit pays extra link toggles and crossbar register toggles at
//! every additional hop, plus an `ArbiterGrantChange` at the deflecting
//! router. This is exactly the trade the paper's frontier needs to price.
//!
//! # Layout and idle fast path
//!
//! [`DeflectionRouter`] has the layout of [`crate::router::PacketRouter`]:
//! one plain struct with fixed per-port arrays, kept by a mesh in a `Vec`
//! and clocked with [`noc_sim::par::par_step`], with zero per-cycle heap
//! allocation. It shares the packet router's
//! `settled`/`skipped`/`inbox`/`quiet` idle fast path, with one exact idle
//! clock constant.
//!
//! # Port validity invariant
//!
//! Deflection must never push a flit off the mesh edge, so each router
//! precomputes its valid-port mask from its coordinates and the mesh
//! dimensions. Arrivals can never exceed the free valid ports:
//! neighbours only drive valid ports (≤ `capacity` flits) and the tile may
//! inject only while mesh arrivals are below `capacity` — so port
//! assignment always succeeds, checked by an `expect` in the hot path.
//!
//! **Stepping order caveat:** a cycle's link inputs must be applied before
//! [`DeflectionRouter::tile_can_inject`] is consulted — the injection guard
//! counts this cycle's mesh arrivals. The mesh fabric's wiring pass does
//! this naturally.

use crate::flit::Flit;
use crate::params::PacketPort;
use crate::routing::Coords;
use noc_sim::activity::{ActivityClass, ActivityLedger, ComponentActivity, ComponentKind};
use noc_sim::kernel::Clocked;
use noc_sim::signal::{Reg, Wire};
use std::collections::VecDeque;

/// Number of ports (fixed; same five-port geometry as the packet router).
const P: usize = PacketPort::COUNT;

/// Physical width of a deflection link and its output register: 1 valid
/// bit, the 16-bit spare-nibble header halfword ([`DeflectFlit::header`]),
/// 16 payload bits, a 14-bit age, an 11-bit sequence number and a 6-bit
/// deflection count. The sideband fields are truncated on the wire — they
/// exist for toggle counting; the architectural values travel unclipped in
/// the router's flit arrays.
pub const DEFLECT_LINK_BITS: u32 = 64;

/// One self-contained deflection flit.
///
/// Deflection routing has no wormholes: every flit carries its own
/// destination and stream tag (re-encoded through the spare-nibble header
/// scheme of [`Flit::head_tagged`] at every hop), its injection timestamp
/// for age arbitration, a per-stream sequence number (deflection reorders
/// flits; receivers reassemble in `seq` order) and a running misroute
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeflectFlit {
    /// Destination tile coordinates.
    pub dest: Coords,
    /// 8-bit stream tag (rides the header's spare nibbles).
    pub tag: u8,
    /// The 16 data bits.
    pub payload: u16,
    /// Cycle the flit was injected — the age-arbitration key.
    pub born: u64,
    /// Per-stream sequence number for receiver-side reordering.
    pub seq: u64,
    /// Times this flit has been deflected so far.
    pub deflections: u32,
}

impl DeflectFlit {
    /// A freshly injected flit (zero deflections).
    pub fn new(dest: Coords, tag: u8, payload: u16, born: u64, seq: u64) -> DeflectFlit {
        DeflectFlit {
            dest,
            tag,
            payload,
            born,
            seq,
            deflections: 0,
        }
    }

    /// The 16-bit header halfword: exactly the payload of
    /// [`Flit::head_tagged`]`(self.dest, self.tag)`, i.e. coordinates in
    /// the low nibbles and the stream tag in the spare high nibbles. The
    /// deflection router re-encodes (and its receiver re-reads) this
    /// halfword on every hop, so the spare-nibble masking is load-bearing
    /// here, not just at wormhole heads.
    ///
    /// # Panics
    /// Panics when a destination coordinate exceeds the 16×16 space (same
    /// contract as [`Flit::head_tagged`]).
    pub fn header(&self) -> u16 {
        Flit::head_tagged(self.dest, self.tag).payload
    }

    /// The 64-bit link image used for toggle counting (see
    /// [`DEFLECT_LINK_BITS`] for the field layout). An absent flit drives
    /// all-zero, matching how the output register parks.
    pub fn wire_image(&self) -> u64 {
        1 | (u64::from(self.header()) << 1)
            | (u64::from(self.payload) << 17)
            | ((self.born & 0x3FFF) << 33)
            | ((self.seq & 0x7FF) << 47)
            | ((u64::from(self.deflections) & 0x3F) << 58)
    }
}

/// Image of an optional flit on a link (absent ⇒ parked all-zero).
fn image_of(f: Option<&DeflectFlit>) -> u64 {
    f.map_or(0, DeflectFlit::wire_image)
}

/// The per-router activity ledgers, at the paper's Table 4 component
/// granularity (no FIFO row, no flow-control row — deflection has neither).
#[derive(Debug, Clone, Copy, Default)]
struct DeflectLedgers {
    xbar: ActivityLedger,
    arb: ActivityLedger,
    route: ActivityLedger,
    link: ActivityLedger,
}

/// Per-cycle `RegClock` charge of a fully idle deflection router — its
/// output registers, `P × DEFLECT_LINK_BITS` — applied verbatim on
/// idle-skipped commits.
const IDLE_REG_CLOCK: u64 = P as u64 * DEFLECT_LINK_BITS as u64;

/// A bufferless deflection router: five single-flit output registers,
/// age-ordered arbitration, and no FIFOs.
#[derive(Debug, Clone)]
pub struct DeflectionRouter {
    /// Mesh coordinates.
    here: Coords,
    /// Which mesh ports physically exist (`Tile` entry always `false`;
    /// edge routers lose the off-grid directions).
    valid: [bool; P],
    /// Number of valid mesh ports (2–4; 0 on a 1×1 mesh).
    capacity: u8,

    /// Flit sampled on each input link this cycle (the `Tile` slot holds
    /// this cycle's injection).
    link_in: [Option<DeflectFlit>; P],

    /// Output registers driving the links.
    out_regs: [Reg<u64>; P],
    /// Eval-phase scratch: the flit scheduled on each output.
    out_next: [Option<DeflectFlit>; P],
    /// The flit each output drives after commit (authoritative link data;
    /// the register image is its truncated wire view).
    out_flits: [Option<DeflectFlit>; P],
    /// Link wires for toggle counting (valid mesh ports only).
    link_wires: [Wire<u64>; P],
    /// Which source each output last selected (crossbar select).
    out_select: [Wire<u8>; P],

    /// Flits ejected to the tile, awaiting the tile interface.
    tile_rx: VecDeque<DeflectFlit>,

    led: DeflectLedgers,

    /// Flits accepted for injection at the tile port.
    flits_injected: u64,
    /// Flits ejected to the tile port.
    flits_delivered: u64,
    /// Deflections (misroutes) performed.
    deflections: u64,

    /// Architectural state fully parked after the last commit.
    settled: bool,
    /// This cycle's evaluation was skipped (commit applies
    /// [`IDLE_REG_CLOCK`]).
    skipped: bool,
    /// A link flit or injection was sampled since the last evaluation.
    inbox: bool,
    /// Router drives no link flit — neighbours' wiring can skip sampling.
    quiet: bool,
}

impl DeflectionRouter {
    /// An idle router at `coords` on a `dims = (width, height)` mesh
    /// (`dims` fixes the valid-port mask so an edge router never deflects
    /// off-grid).
    ///
    /// # Panics
    /// Panics when `dims` leaves the 1..=16 per-side space the spare-nibble
    /// headers encode, or when `coords` fall outside `dims`.
    pub fn new(coords: Coords, dims: (usize, usize)) -> DeflectionRouter {
        let (w, h) = dims;
        assert!(
            (1..=16).contains(&w) && (1..=16).contains(&h),
            "deflection meshes need 1..=16 tiles per side, got {w}x{h}"
        );
        let c = coords;
        assert!(
            usize::from(c.x) < w && usize::from(c.y) < h,
            "router {c} outside the {w}x{h} mesh"
        );
        let mut valid = [false; P];
        let mut capacity = 0u8;
        let mask = [
            (PacketPort::North, c.y > 0),
            (PacketPort::East, usize::from(c.x) + 1 < w),
            (PacketPort::South, usize::from(c.y) + 1 < h),
            (PacketPort::West, c.x > 0),
        ];
        for (port, ok) in mask {
            valid[port.index()] = ok;
            capacity += u8::from(ok);
        }
        DeflectionRouter {
            here: coords,
            valid,
            capacity,
            link_in: [None; P],
            out_regs: [Reg::new(0); P],
            out_next: [None; P],
            out_flits: [None; P],
            link_wires: [Wire::new(0, ActivityClass::LinkToggle); P],
            out_select: [Wire::new(0, ActivityClass::SelectToggle); P],
            tile_rx: VecDeque::new(),
            led: DeflectLedgers::default(),
            flits_injected: 0,
            flits_delivered: 0,
            deflections: 0,
            settled: false,
            skipped: false,
            inbox: false,
            quiet: false,
        }
    }

    // ----- link interface ------------------------------------------------

    /// Sample the flit arriving on `port` this cycle.
    pub fn set_link_input(&mut self, port: PacketPort, flit: DeflectFlit) {
        let i = port.index();
        debug_assert!(self.valid[i], "link input on a non-existent mesh port");
        debug_assert!(self.link_in[i].is_none(), "one flit per link per cycle");
        self.link_in[i] = Some(flit);
        self.inbox = true;
    }

    /// The flit this router drives on `port` (valid after commit; the wire
    /// carries its truncated 64-bit image, this accessor the full flit).
    pub fn link_output(&self, port: PacketPort) -> Option<DeflectFlit> {
        self.out_flits[port.index()]
    }

    /// The router drives no link flit this cycle: its neighbours' wiring
    /// pass can skip sampling it with no behavioural difference. Exact,
    /// not heuristic — recomputed at every commit.
    pub fn quiet_links(&self) -> bool {
        self.quiet
    }

    // ----- tile interface --------------------------------------------------

    /// Room available for injection this cycle? True while the tile slot
    /// is free and this cycle's mesh arrivals leave a spare output port —
    /// the guard that makes deflection overflow-free. Apply the cycle's
    /// link inputs *before* consulting this.
    pub fn tile_can_inject(&self) -> bool {
        if self.link_in[PacketPort::Tile.index()].is_some() {
            return false;
        }
        let mesh_arrivals = (1..P).filter(|&p| self.link_in[p].is_some()).count();
        let cap = usize::from(self.capacity);
        if cap == 0 {
            // 1×1 mesh: the only legal destination is this router, and the
            // single per-cycle ejection sinks the one possible arrival.
            mesh_arrivals == 0
        } else {
            mesh_arrivals < cap
        }
    }

    /// Offer a flit at the tile input (at most one per cycle).
    pub fn tile_inject(&mut self, flit: DeflectFlit) -> bool {
        if !self.tile_can_inject() {
            return false;
        }
        self.link_in[PacketPort::Tile.index()] = Some(flit);
        self.inbox = true;
        self.flits_injected += 1;
        true
    }

    /// Pop a flit ejected to the tile.
    pub fn tile_recv(&mut self) -> Option<DeflectFlit> {
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

    /// Flits ejected to the tile port.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    /// Deflections (misroutes) this router has performed.
    pub fn deflections(&self) -> u64 {
        self.deflections
    }

    // ----- activity --------------------------------------------------------

    /// Per-component activity snapshots (Table 4 granularity). The
    /// `Buffering` ledger is always empty — the router has no FIFOs — and
    /// is reported so every router's activity has the same five rows.
    pub fn activity(&self) -> Vec<ComponentActivity> {
        let led = &self.led;
        vec![
            ComponentActivity::new(ComponentKind::Crossbar, led.xbar),
            ComponentActivity::new(ComponentKind::Arbitration, led.arb),
            ComponentActivity::new(ComponentKind::Routing, led.route),
            ComponentActivity::new(ComponentKind::Buffering, ActivityLedger::new()),
            ComponentActivity::new(ComponentKind::Link, led.link),
        ]
    }

    /// Reset all activity ledgers.
    pub fn clear_activity(&mut self) {
        self.led = DeflectLedgers::default();
    }

    /// Does the router hold no flit anywhere — inputs and outputs all
    /// empty? (drain detection; the tile queue is the fabric's)
    pub fn is_quiescent(&self) -> bool {
        self.link_in.iter().all(Option::is_none) && self.out_flits.iter().all(Option::is_none)
    }
}

/// The productive output ports toward `dest`, in XY-preference order
/// (x-correction first, matching [`crate::routing::route_xy`]).
fn productive_ports(here: Coords, dest: Coords) -> [Option<PacketPort>; 2] {
    let x = if dest.x > here.x {
        Some(PacketPort::East)
    } else if dest.x < here.x {
        Some(PacketPort::West)
    } else {
        None
    };
    let y = if dest.y > here.y {
        Some(PacketPort::South)
    } else if dest.y < here.y {
        Some(PacketPort::North)
    } else {
        None
    };
    [x, y]
}

impl Clocked for DeflectionRouter {
    /// Age-sorted arrival ranking, one ejection, productive-or-deflect
    /// port assignment.
    fn eval(&mut self) {
        // Idle fast path: state fully parked and nothing sampled — evaluation
        // is a provable no-op (no arrivals to rank, every register holds 0).
        if self.settled && !self.inbox {
            self.skipped = true;
            return;
        }
        self.skipped = false;
        self.inbox = false;

        // --- 1. Arrival: gather this cycle's flits (≤ P, tile included).
        let mut flits: [Option<DeflectFlit>; P] = [None; P];
        let mut srcs = [0usize; P];
        let mut n = 0;
        for port in 0..P {
            if let Some(f) = self.link_in[port].take() {
                flits[n] = Some(f);
                srcs[n] = port;
                n += 1;
            }
        }

        // --- 2. Age-based arbitration: rank arrivals oldest-first (injection
        // cycle, then source port — a deterministic total order).
        for i in 1..n {
            let mut j = i;
            while j > 0 {
                let a = flits[j].expect("slot filled above");
                let b = flits[j - 1].expect("slot filled above");
                if (a.born, srcs[j]) < (b.born, srcs[j - 1]) {
                    flits.swap(j, j - 1);
                    srcs.swap(j, j - 1);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        if n > 0 {
            // One ranking pass over n requests, and a 4-node route decode per
            // arrival (the header halfword is re-read at every hop).
            self.led.arb.add(ActivityClass::ArbiterEval, n as u64);
            self.led.route.add(ActivityClass::WireToggle, 4 * n as u64);
        }

        let tile = PacketPort::Tile.index();
        let mut assigned: [Option<DeflectFlit>; P] = [None; P];
        let mut select = [0u8; P];
        let mut placed = [false; P];

        // --- 3. Ejection: the oldest flit destined here leaves to the tile
        // (one per cycle — the tile port is a single register like the rest).
        for i in 0..n {
            let f = flits[i].expect("slot filled above");
            if f.dest == self.here {
                assigned[tile] = Some(f);
                select[tile] = srcs[i] as u8 + 1;
                placed[i] = true;
                break;
            }
        }

        // --- 4. Port assignment in age order: productive port when free,
        // else deflect to any free valid port.
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let mut f = flits[i].expect("slot filled above");
            let mut out = None;
            for port in productive_ports(self.here, f.dest).into_iter().flatten() {
                let pi = port.index();
                if self.valid[pi] && assigned[pi].is_none() {
                    out = Some(pi);
                    break;
                }
            }
            if out.is_none() {
                // Deflect: the first free valid mesh port in index order. The
                // arrival guards keep n ≤ capacity (+1 ejection), so a free
                // port always exists.
                out = (1..P).find(|&pi| self.valid[pi] && assigned[pi].is_none());
                let _ = out.expect("deflection invariant: arrivals never exceed free valid ports");
                f.deflections += 1;
                self.deflections += 1;
                self.led.arb.bump(ActivityClass::ArbiterGrantChange);
            }
            let pi = out.expect("assigned above");
            assigned[pi] = Some(f);
            select[pi] = srcs[i] as u8 + 1;
        }

        // --- 5. Schedule the output registers and crossbar selects.
        for port in 0..P {
            self.out_select[port].drive(select[port], &mut self.led.xbar);
            self.out_regs[port].set_next(image_of(assigned[port].as_ref()));
            self.out_next[port] = assigned[port];
        }
    }

    fn commit(&mut self) {
        // Idle fast path: evaluation was skipped, so every register holds 0
        // and the only charge is the parked clock constant.
        if self.skipped {
            self.led.xbar.add(ActivityClass::RegClock, IDLE_REG_CLOCK);
            return;
        }

        let tile = PacketPort::Tile.index();
        for port in 0..P {
            self.out_regs[port].clock(&mut self.led.xbar);
            self.out_flits[port] = self.out_next[port].take();
            if port != tile && self.valid[port] {
                let image = self.out_regs[port].q();
                self.link_wires[port].drive(image, &mut self.led.link);
            }
        }

        // Tile ejections drain into the tile queue.
        if let Some(f) = self.out_flits[tile].take() {
            self.tile_rx.push_back(f);
            self.flits_delivered += 1;
        }

        // Reassess the fast-path flags from the just-latched state. `quiet`
        // lets neighbours skip wiring; `settled` additionally requires every
        // output register parked at zero, so the next evaluation can be
        // skipped outright (its commit then applies exactly the constant
        // above: every register holds d == q == 0).
        self.quiet = (1..P).all(|p| self.out_flits[p].is_none());
        self.settled = self.quiet && self.out_regs.iter().all(|r| r.q() == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::activity::merge_all;
    use noc_sim::par::{par_step, ParPolicy};

    /// A row-major `w × h` mesh of routers plus the link wiring between
    /// them, for multi-hop tests. Mirrors what the mesh fabric's stepping
    /// loop does.
    struct TinyMesh {
        routers: Vec<DeflectionRouter>,
        w: usize,
        h: usize,
    }

    impl TinyMesh {
        fn new(w: usize, h: usize) -> TinyMesh {
            let routers = (0..h)
                .flat_map(|y| (0..w).map(move |x| Coords::new(x as u8, y as u8)))
                .map(|c| DeflectionRouter::new(c, (w, h)))
                .collect();
            TinyMesh { routers, w, h }
        }

        fn idx(&self, x: usize, y: usize) -> usize {
            y * self.w + x
        }

        fn wire(&mut self) {
            for y in 0..self.h {
                for x in 0..self.w {
                    let r = self.idx(x, y);
                    for (port, nb) in [
                        (PacketPort::North, (x, y.wrapping_sub(1))),
                        (PacketPort::East, (x + 1, y)),
                        (PacketPort::South, (x, y + 1)),
                        (PacketPort::West, (x.wrapping_sub(1), y)),
                    ] {
                        if nb.0 >= self.w || nb.1 >= self.h {
                            continue;
                        }
                        let nb = self.idx(nb.0, nb.1);
                        if self.routers[nb].quiet_links() {
                            continue;
                        }
                        let opp = port.opposite().expect("mesh port");
                        if let Some(f) = self.routers[nb].link_output(opp) {
                            self.routers[r].set_link_input(port, f);
                        }
                    }
                }
            }
        }

        fn step(&mut self, policy: ParPolicy) {
            self.wire();
            par_step(&mut self.routers, policy);
        }

        fn total_activity(&self) -> ActivityLedger {
            let mut out = ActivityLedger::new();
            for r in &self.routers {
                out.merge(&merge_all(&r.activity()));
            }
            out
        }
    }

    fn flit(dest: Coords, born: u64) -> DeflectFlit {
        DeflectFlit::new(dest, 7, 0xABCD, born, 0)
    }

    #[test]
    fn wire_image_packs_spare_nibble_header() {
        assert_eq!(DEFLECT_LINK_BITS, 64);
        let f = DeflectFlit::new(Coords::new(15, 15), 0xFF, 0x1234, 9, 3);
        let img = f.wire_image();
        assert_eq!(img & 1, 1, "valid bit");
        let header = ((img >> 1) & 0xFFFF) as u16;
        assert_eq!(header, Flit::head_tagged(Coords::new(15, 15), 0xFF).payload);
        // The header halfword survives a receiver-side re-read.
        let wire_flit = Flit {
            kind: crate::flit::FlitKind::Head,
            payload: header,
        };
        assert_eq!(wire_flit.dest(), Some(Coords::new(15, 15)));
        assert_eq!(wire_flit.stream_tag(), Some(0xFF));
        assert_eq!(((img >> 17) & 0xFFFF) as u16, 0x1234);
        assert_eq!(image_of(None), 0);
    }

    #[test]
    fn productive_route_delivers_without_deflection() {
        let mut mesh = TinyMesh::new(2, 1);
        assert!(mesh.routers[0].tile_can_inject());
        assert!(mesh.routers[0].tile_inject(flit(Coords::new(1, 0), 0)));
        mesh.step(ParPolicy::Sequential); // tile -> East register
        mesh.step(ParPolicy::Sequential); // link -> neighbour ejects
        let got = mesh.routers[1]
            .tile_recv()
            .expect("delivered in two cycles");
        assert_eq!(got.payload, 0xABCD);
        assert_eq!(got.tag, 7);
        assert_eq!(got.deflections, 0);
        assert_eq!(mesh.routers[1].flits_delivered(), 1);
        assert_eq!(
            mesh.routers[0].deflections() + mesh.routers[1].deflections(),
            0
        );
    }

    #[test]
    fn contention_deflects_the_younger_flit() {
        // Corner router (0,0) on a 2×2 mesh: valid ports East + South.
        // Two arrivals both want East; the older wins, the younger is
        // misrouted to South.
        let mut r = DeflectionRouter::new(Coords::new(0, 0), (2, 2));
        let old = flit(Coords::new(1, 0), 0);
        let new = flit(Coords::new(1, 0), 5);
        r.set_link_input(PacketPort::East, new);
        r.set_link_input(PacketPort::South, old);
        noc_sim::kernel::step(&mut r);
        let east = r.link_output(PacketPort::East).expect("older goes East");
        assert_eq!(east.born, 0);
        assert_eq!(east.deflections, 0);
        let south = r.link_output(PacketPort::South).expect("younger deflected");
        assert_eq!(south.born, 5);
        assert_eq!(south.deflections, 1);
        assert_eq!(r.deflections(), 1);
        let arb = merge_all(&r.activity());
        assert!(arb.get(ActivityClass::ArbiterGrantChange) >= 1);
    }

    #[test]
    fn corner_router_never_drives_invalid_ports() {
        // Storm a corner for several cycles: North/West must stay silent.
        let mut r = DeflectionRouter::new(Coords::new(0, 0), (2, 2));
        for cycle in 0..6 {
            r.set_link_input(PacketPort::East, flit(Coords::new(0, 1), cycle));
            r.set_link_input(PacketPort::South, flit(Coords::new(0, 1), cycle + 100));
            noc_sim::kernel::step(&mut r);
            assert_eq!(r.link_output(PacketPort::North), None);
            assert_eq!(r.link_output(PacketPort::West), None);
        }
        assert!(
            r.deflections() > 0,
            "two arrivals share one productive port"
        );
    }

    #[test]
    fn oldest_flit_ejects_first() {
        let here = Coords::new(0, 0);
        let mut r = DeflectionRouter::new(Coords::new(0, 0), (2, 2));
        r.set_link_input(PacketPort::East, flit(here, 8));
        r.set_link_input(PacketPort::South, flit(here, 2));
        noc_sim::kernel::step(&mut r);
        let got = r.tile_recv().expect("one ejection per cycle");
        assert_eq!(got.born, 2, "older flit wins the tile port");
        // The younger flit had no productive port (dest == here): it was
        // deflected back into the mesh.
        let deflected = PacketPort::ALL
            .into_iter()
            .filter(|&p| p != PacketPort::Tile)
            .filter_map(|p| r.link_output(p))
            .next()
            .expect("younger flit misrouted");
        assert_eq!(deflected.born, 8);
        assert_eq!(deflected.deflections, 1);
        assert_eq!(r.deflections(), 1);
    }

    #[test]
    fn idle_fast_path_charges_match_full_path() {
        let mut r = DeflectionRouter::new(Coords::new(0, 0), (3, 3));
        // Cycle 1 runs the full path (a new router starts unsettled); cycle 2
        // takes the fast path. Charges must match per class.
        noc_sim::kernel::step(&mut r);
        let full = merge_all(&r.activity());
        noc_sim::kernel::step(&mut r);
        let both = merge_all(&r.activity());
        let fast = both.delta_since(&full);
        assert_eq!(full, fast);
        assert_eq!(
            full.get(ActivityClass::RegClock),
            P as u64 * u64::from(DEFLECT_LINK_BITS)
        );
        assert_eq!(full.total(), full.get(ActivityClass::RegClock));
    }

    #[test]
    fn quiet_links_flag_is_exact() {
        let mut mesh = TinyMesh::new(2, 1);
        assert!(mesh.routers[0].tile_inject(flit(Coords::new(1, 0), 0)));
        mesh.step(ParPolicy::Sequential);
        assert!(!mesh.routers[0].quiet_links(), "driving East");
        assert_eq!(
            mesh.routers[0].quiet_links(),
            PacketPort::ALL
                .into_iter()
                .skip(1)
                .all(|p| mesh.routers[0].link_output(p).is_none())
        );
        for _ in 0..4 {
            mesh.step(ParPolicy::Sequential);
        }
        for r in &mesh.routers {
            assert!(r.quiet_links());
            assert!(PacketPort::ALL
                .into_iter()
                .skip(1)
                .all(|p| r.link_output(p).is_none()));
        }
    }

    #[test]
    fn par_policies_are_bit_identical() {
        let run = |policy: ParPolicy| {
            let mut mesh = TinyMesh::new(3, 3);
            let mut delivered = Vec::new();
            let mut seq = 0u64;
            for cycle in 0..80u64 {
                mesh.wire();
                if cycle < 12 {
                    // Hotspot: three corners all firing at the centre.
                    for src in [0usize, 2, 6] {
                        if mesh.routers[src].tile_can_inject() {
                            let f =
                                DeflectFlit::new(Coords::new(1, 1), 9, cycle as u16, cycle, seq);
                            assert!(mesh.routers[src].tile_inject(f));
                            seq += 1;
                        }
                    }
                }
                par_step(&mut mesh.routers, policy);
                for (r, router) in mesh.routers.iter_mut().enumerate() {
                    while let Some(f) = router.tile_recv() {
                        delivered.push((r, f));
                    }
                }
            }
            let deflections: u64 = mesh.routers.iter().map(|r| r.deflections()).sum();
            (delivered, deflections, mesh.total_activity())
        };
        let seq_run = run(ParPolicy::Sequential);
        let threads = run(ParPolicy::Threads(2));
        let auto = run(ParPolicy::Auto);
        assert_eq!(seq_run, threads);
        assert_eq!(seq_run, auto);
        assert!(seq_run.1 > 0, "the hotspot must force deflections");
    }

    #[test]
    fn quiescence_tracks_inflight_flits() {
        let mut mesh = TinyMesh::new(2, 2);
        assert!(mesh.routers.iter().all(|r| r.is_quiescent()));
        assert!(mesh.routers[0].tile_inject(flit(Coords::new(1, 1), 0)));
        assert!(!mesh.routers[0].is_quiescent());
        for _ in 0..8 {
            mesh.step(ParPolicy::Sequential);
        }
        assert!(mesh.routers.iter().all(|r| r.is_quiescent()));
        let delivered: u64 = mesh.routers.iter().map(|r| r.flits_delivered()).sum();
        assert_eq!(delivered, 1);
    }

    #[test]
    fn one_by_one_mesh_loops_back() {
        let mut r = DeflectionRouter::new(Coords::new(0, 0), (1, 1));
        assert!(r.tile_can_inject());
        assert!(r.tile_inject(flit(Coords::new(0, 0), 0)));
        noc_sim::kernel::step(&mut r);
        assert_eq!(r.tile_recv().map(|f| f.payload), Some(0xABCD));
        assert_eq!(r.deflections(), 0);
    }
}
