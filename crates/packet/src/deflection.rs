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
//! # Slab layout and idle fast path
//!
//! [`DeflectionSlab`] mirrors [`crate::router::RouterSlab`]: all routers of
//! a fabric in flat per-field arrays (`[router × port]` stride indexing),
//! stepped by router index with zero per-cycle heap allocation, with the
//! same `settled`/`skipped`/`inbox`/`quiet` idle fast path and one exact
//! idle clock constant. [`DeflectionRouter`] is the slab-of-one wrapper.
//!
//! # Port validity invariant
//!
//! Deflection must never push a flit off the mesh edge, so the slab
//! precomputes a valid-port mask per router from its coordinates and the
//! mesh dimensions. Arrivals can never exceed the free valid ports:
//! neighbours only drive valid ports (≤ `capacity` flits) and the tile may
//! inject only while mesh arrivals are below `capacity` — so port
//! assignment always succeeds, checked by an `expect` in the hot path.
//!
//! **Stepping order caveat:** a cycle's link inputs must be applied before
//! [`DeflectionSlab::tile_can_inject`] is consulted — the injection guard
//! counts this cycle's mesh arrivals. The mesh fabric's wiring pass does
//! this naturally.

use crate::flit::Flit;
use crate::params::PacketPort;
use crate::routing::Coords;
use noc_sim::activity::{ActivityClass, ActivityLedger, ComponentActivity, ComponentKind};
use noc_sim::kernel::Clocked;
use noc_sim::par::{par_indexed, ParPolicy};
use noc_sim::signal::{Reg, Wire};
use std::collections::VecDeque;

/// Number of ports (fixed; same five-port geometry as the packet router).
const P: usize = PacketPort::COUNT;

/// Physical width of a deflection link and its output register: 1 valid
/// bit, the 16-bit spare-nibble header halfword ([`DeflectFlit::header`]),
/// 16 payload bits, a 14-bit age, an 11-bit sequence number and a 6-bit
/// deflection count. The sideband fields are truncated on the wire — they
/// exist for toggle counting; the architectural values travel unclipped in
/// the slab's flit arrays.
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

/// All deflection routers of one fabric, as structure-of-arrays.
///
/// Field arrays are indexed `[router]` or `[router × port]` with row-major
/// stride math; each router's state is a fixed-width stripe, so
/// `eval_one`/`commit_one` touch disjoint memory for distinct indices —
/// the property the parallel stepping relies on.
#[derive(Debug, Clone)]
pub struct DeflectionSlab {
    n: usize,
    /// Mesh coordinates per router.
    coords: Vec<Coords>,
    /// Which mesh ports physically exist: `[router × port]` (`Tile` entry
    /// always `false`; edge routers lose the off-grid directions).
    valid: Vec<bool>,
    /// Number of valid mesh ports per router (2–4; 0 on a 1×1 mesh).
    capacity: Vec<u8>,

    /// Flit sampled on each input link this cycle: `[router × port]` (the
    /// `Tile` slot holds this cycle's injection).
    link_in: Vec<Option<DeflectFlit>>,

    /// Output registers driving the links: `[router × port]`.
    out_regs: Vec<Reg<u64>>,
    /// Eval-phase scratch: the flit scheduled on each output.
    out_next: Vec<Option<DeflectFlit>>,
    /// The flit each output drives after commit (authoritative link data;
    /// the register image is its truncated wire view).
    out_flits: Vec<Option<DeflectFlit>>,
    /// Link wires for toggle counting (valid mesh ports only).
    link_wires: Vec<Wire<u64>>,
    /// Which source each output last selected (crossbar select).
    out_select: Vec<Wire<u8>>,

    /// Flits ejected to the tile, awaiting the tile interface.
    tile_rx: Vec<VecDeque<DeflectFlit>>,

    ledgers: Vec<DeflectLedgers>,

    /// Flits accepted for injection at the tile port, per router.
    flits_injected: Vec<u64>,
    /// Flits ejected to the tile port, per router.
    flits_delivered: Vec<u64>,
    /// Deflections (misroutes) performed, per router.
    deflections: Vec<u64>,

    /// Architectural state fully parked after the last commit.
    settled: Vec<bool>,
    /// This cycle's evaluation was skipped (commit applies
    /// [`IDLE_REG_CLOCK`]).
    skipped: Vec<bool>,
    /// A link flit or injection was sampled since the last evaluation.
    inbox: Vec<bool>,
    /// Router drives no link flit — neighbours' wiring can skip sampling.
    quiet: Vec<bool>,
}

/// One router's mutable stripe through the slab.
struct Lane<'a> {
    here: Coords,
    valid: &'a [bool],
    link_in: &'a mut [Option<DeflectFlit>],
    out_regs: &'a mut [Reg<u64>],
    out_next: &'a mut [Option<DeflectFlit>],
    out_flits: &'a mut [Option<DeflectFlit>],
    link_wires: &'a mut [Wire<u64>],
    out_select: &'a mut [Wire<u8>],
    tile_rx: &'a mut VecDeque<DeflectFlit>,
    led: &'a mut DeflectLedgers,
    flits_delivered: &'a mut u64,
    deflections: &'a mut u64,
    settled: &'a mut bool,
    skipped: &'a mut bool,
    inbox: &'a mut bool,
    quiet: &'a mut bool,
}

/// Raw base pointers into the slab arrays — `Copy`, so every pool lane can
/// carve its own router stripe without borrowing the slab.
#[derive(Clone, Copy)]
struct SlabPtrs {
    coords: *const Coords,
    valid: *const bool,
    link_in: *mut Option<DeflectFlit>,
    out_regs: *mut Reg<u64>,
    out_next: *mut Option<DeflectFlit>,
    out_flits: *mut Option<DeflectFlit>,
    link_wires: *mut Wire<u64>,
    out_select: *mut Wire<u8>,
    tile_rx: *mut VecDeque<DeflectFlit>,
    ledgers: *mut DeflectLedgers,
    flits_delivered: *mut u64,
    deflections: *mut u64,
    settled: *mut bool,
    skipped: *mut bool,
    inbox: *mut bool,
    quiet: *mut bool,
}

// SAFETY: the pointees are plain data owned by the slab, and every stripe
// (router index) is accessed by exactly one thread per dispatch — the
// contract `par_indexed` documents and upholds.
unsafe impl Send for SlabPtrs {}
unsafe impl Sync for SlabPtrs {}

impl DeflectionSlab {
    /// A slab of `coords.len()` idle routers, one at each of `coords`, on
    /// a `dims = (width, height)` mesh (`dims` fixes the valid-port masks
    /// so edge routers never deflect off-grid).
    ///
    /// # Panics
    /// Panics when `dims` leaves the 1..=16 per-side space the spare-nibble
    /// headers encode, or when a router's coordinates fall outside `dims`.
    pub fn new(coords: &[Coords], dims: (usize, usize)) -> DeflectionSlab {
        let (w, h) = dims;
        assert!(
            (1..=16).contains(&w) && (1..=16).contains(&h),
            "deflection meshes need 1..=16 tiles per side, got {w}x{h}"
        );
        let n = coords.len();
        let mut valid = vec![false; n * P];
        let mut capacity = vec![0u8; n];
        for (r, c) in coords.iter().enumerate() {
            assert!(
                usize::from(c.x) < w && usize::from(c.y) < h,
                "router {c} outside the {w}x{h} mesh"
            );
            let mask = [
                (PacketPort::North, c.y > 0),
                (PacketPort::East, usize::from(c.x) + 1 < w),
                (PacketPort::South, usize::from(c.y) + 1 < h),
                (PacketPort::West, c.x > 0),
            ];
            for (port, ok) in mask {
                valid[r * P + port.index()] = ok;
                capacity[r] += u8::from(ok);
            }
        }
        DeflectionSlab {
            n,
            coords: coords.to_vec(),
            valid,
            capacity,
            link_in: vec![None; n * P],
            out_regs: vec![Reg::new(0); n * P],
            out_next: vec![None; n * P],
            out_flits: vec![None; n * P],
            link_wires: vec![Wire::new(0, ActivityClass::LinkToggle); n * P],
            out_select: vec![Wire::new(0, ActivityClass::SelectToggle); n * P],
            tile_rx: vec![VecDeque::new(); n],
            ledgers: vec![DeflectLedgers::default(); n],
            flits_injected: vec![0; n],
            flits_delivered: vec![0; n],
            deflections: vec![0; n],
            settled: vec![false; n],
            skipped: vec![false; n],
            inbox: vec![false; n],
            quiet: vec![false; n],
        }
    }

    /// Routers in the slab.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the slab holds no routers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn rp(&self, r: usize, port: PacketPort) -> usize {
        r * P + port.index()
    }

    // ----- link interface ------------------------------------------------

    /// Sample the flit arriving on router `r`'s `port` this cycle.
    pub fn set_link_input(&mut self, r: usize, port: PacketPort, flit: DeflectFlit) {
        let i = self.rp(r, port);
        debug_assert!(self.valid[i], "link input on a non-existent mesh port");
        debug_assert!(self.link_in[i].is_none(), "one flit per link per cycle");
        self.link_in[i] = Some(flit);
        self.inbox[r] = true;
    }

    /// The flit router `r` drives on `port` (valid after commit; the wire
    /// carries its truncated 64-bit image, this accessor the full flit).
    pub fn link_output(&self, r: usize, port: PacketPort) -> Option<DeflectFlit> {
        self.out_flits[self.rp(r, port)]
    }

    /// Router `r` drives no link flit this cycle: its neighbours' wiring
    /// pass can skip sampling it with no behavioural difference. Exact,
    /// not heuristic — recomputed at every commit.
    pub fn quiet_links(&self, r: usize) -> bool {
        self.quiet[r]
    }

    /// Number of valid mesh ports of router `r` (2–4; 0 on a 1×1 mesh).
    pub fn mesh_capacity(&self, r: usize) -> usize {
        usize::from(self.capacity[r])
    }

    // ----- tile interface --------------------------------------------------

    /// Room available for injection at router `r` this cycle? True while
    /// the tile slot is free and this cycle's mesh arrivals leave a spare
    /// output port — the guard that makes deflection overflow-free. Apply
    /// the cycle's link inputs *before* consulting this.
    pub fn tile_can_inject(&self, r: usize) -> bool {
        let base = r * P;
        if self.link_in[base + PacketPort::Tile.index()].is_some() {
            return false;
        }
        let mesh_arrivals = (1..P).filter(|&p| self.link_in[base + p].is_some()).count();
        let cap = usize::from(self.capacity[r]);
        if cap == 0 {
            // 1×1 mesh: the only legal destination is this router, and the
            // single per-cycle ejection sinks the one possible arrival.
            mesh_arrivals == 0
        } else {
            mesh_arrivals < cap
        }
    }

    /// Offer a flit at router `r`'s tile input (at most one per cycle).
    pub fn tile_inject(&mut self, r: usize, flit: DeflectFlit) -> bool {
        if !self.tile_can_inject(r) {
            return false;
        }
        let i = self.rp(r, PacketPort::Tile);
        self.link_in[i] = Some(flit);
        self.inbox[r] = true;
        self.flits_injected[r] += 1;
        true
    }

    /// Pop a flit ejected to router `r`'s tile.
    pub fn tile_recv(&mut self, r: usize) -> Option<DeflectFlit> {
        self.tile_rx[r].pop_front()
    }

    /// Flits waiting at router `r`'s tile output.
    pub fn tile_rx_pending(&self, r: usize) -> usize {
        self.tile_rx[r].len()
    }

    /// Flits accepted for injection at router `r`'s tile port.
    pub fn flits_injected(&self, r: usize) -> u64 {
        self.flits_injected[r]
    }

    /// Flits ejected to router `r`'s tile port.
    pub fn flits_delivered(&self, r: usize) -> u64 {
        self.flits_delivered[r]
    }

    /// Deflections (misroutes) router `r` has performed.
    pub fn deflections(&self, r: usize) -> u64 {
        self.deflections[r]
    }

    // ----- activity --------------------------------------------------------

    /// Router `r`'s per-component activity snapshots (Table 4 granularity).
    /// The `Buffering` ledger is always empty — the router has no FIFOs —
    /// and is reported so every router's activity has the same five rows.
    pub fn activity(&self, r: usize) -> Vec<ComponentActivity> {
        let led = &self.ledgers[r];
        vec![
            ComponentActivity::new(ComponentKind::Crossbar, led.xbar),
            ComponentActivity::new(ComponentKind::Arbitration, led.arb),
            ComponentActivity::new(ComponentKind::Routing, led.route),
            ComponentActivity::new(ComponentKind::Buffering, ActivityLedger::new()),
            ComponentActivity::new(ComponentKind::Link, led.link),
        ]
    }

    /// Reset every router's activity ledgers.
    pub fn clear_activity(&mut self) {
        self.ledgers.fill(DeflectLedgers::default());
    }

    /// Does router `r` hold no flit anywhere — inputs and outputs all
    /// empty? (drain detection; the tile queue is the fabric's)
    pub fn is_quiescent(&self, r: usize) -> bool {
        self.link_in[r * P..(r + 1) * P].iter().all(Option::is_none)
            && self.out_flits[r * P..(r + 1) * P]
                .iter()
                .all(Option::is_none)
    }

    // ----- stepping --------------------------------------------------------

    fn ptrs(&mut self) -> SlabPtrs {
        SlabPtrs {
            coords: self.coords.as_ptr(),
            valid: self.valid.as_ptr(),
            link_in: self.link_in.as_mut_ptr(),
            out_regs: self.out_regs.as_mut_ptr(),
            out_next: self.out_next.as_mut_ptr(),
            out_flits: self.out_flits.as_mut_ptr(),
            link_wires: self.link_wires.as_mut_ptr(),
            out_select: self.out_select.as_mut_ptr(),
            tile_rx: self.tile_rx.as_mut_ptr(),
            ledgers: self.ledgers.as_mut_ptr(),
            flits_delivered: self.flits_delivered.as_mut_ptr(),
            deflections: self.deflections.as_mut_ptr(),
            settled: self.settled.as_mut_ptr(),
            skipped: self.skipped.as_mut_ptr(),
            inbox: self.inbox.as_mut_ptr(),
            quiet: self.quiet.as_mut_ptr(),
        }
    }

    /// Build router `r`'s stripe view.
    ///
    /// # Safety
    /// Caller must guarantee no other live view of the same `r` and that
    /// the slab outlives the returned `Lane` (upheld by the dispatch
    /// barrier: `par_step` borrows the slab mutably for the whole
    /// dispatch, and each index runs exactly once).
    unsafe fn lane<'a>(p: SlabPtrs, r: usize) -> Lane<'a> {
        use std::slice::{from_raw_parts, from_raw_parts_mut};
        // SAFETY: `r` is a unique, in-bounds stripe index (caller contract
        // above), so every `add(r * …)` lands inside its slab allocation
        // and the borrows produced here are disjoint from every other
        // stripe's.
        unsafe {
            Lane {
                here: *p.coords.add(r),
                valid: from_raw_parts(p.valid.add(r * P), P),
                link_in: from_raw_parts_mut(p.link_in.add(r * P), P),
                out_regs: from_raw_parts_mut(p.out_regs.add(r * P), P),
                out_next: from_raw_parts_mut(p.out_next.add(r * P), P),
                out_flits: from_raw_parts_mut(p.out_flits.add(r * P), P),
                link_wires: from_raw_parts_mut(p.link_wires.add(r * P), P),
                out_select: from_raw_parts_mut(p.out_select.add(r * P), P),
                tile_rx: &mut *p.tile_rx.add(r),
                led: &mut *p.ledgers.add(r),
                flits_delivered: &mut *p.flits_delivered.add(r),
                deflections: &mut *p.deflections.add(r),
                settled: &mut *p.settled.add(r),
                skipped: &mut *p.skipped.add(r),
                inbox: &mut *p.inbox.add(r),
                quiet: &mut *p.quiet.add(r),
            }
        }
    }

    /// Evaluate router `r` (sequential helper; the single-router wrapper).
    pub fn eval_one(&mut self, r: usize) {
        let ptrs = self.ptrs();
        // SAFETY: exclusive &mut self, one lane live.
        eval_lane(unsafe { Self::lane(ptrs, r) });
    }

    /// Commit router `r` (sequential helper; the single-router wrapper).
    pub fn commit_one(&mut self, r: usize) {
        let ptrs = self.ptrs();
        // SAFETY: exclusive &mut self, one lane live.
        commit_lane(unsafe { Self::lane(ptrs, r) });
    }

    /// Clock every router one cycle — each one's eval then its commit —
    /// in one dispatch, fanned out per `policy`. Exact: a router's lane
    /// borrows only its own stripe, and its link and credit inputs were
    /// sampled before the call, so no router can see whether another has
    /// committed yet. Bit-identical to a sequential sweep in index order.
    pub fn par_step(&mut self, policy: ParPolicy) {
        let ptrs = self.ptrs();
        par_indexed(self.n, policy, move |r| {
            // SAFETY: par_indexed runs each index exactly once; stripes
            // are disjoint per index; the dispatch barrier outlives lanes,
            // and the eval view is dropped before the commit view is made.
            eval_lane(unsafe { Self::lane(ptrs, r) });
            // SAFETY: as above.
            commit_lane(unsafe { Self::lane(ptrs, r) });
        });
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

/// Evaluate phase for one router stripe: age-sorted arrival ranking, one
/// ejection, productive-or-deflect port assignment.
fn eval_lane(lane: Lane<'_>) {
    // Idle fast path: state fully parked and nothing sampled — evaluation
    // is a provable no-op (no arrivals to rank, every register holds 0).
    if *lane.settled && !*lane.inbox {
        *lane.skipped = true;
        return;
    }
    *lane.skipped = false;
    *lane.inbox = false;

    // --- 1. Arrival: gather this cycle's flits (≤ P, tile included).
    let mut flits: [Option<DeflectFlit>; P] = [None; P];
    let mut srcs = [0usize; P];
    let mut n = 0;
    for port in 0..P {
        if let Some(f) = lane.link_in[port].take() {
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
        lane.led.arb.add(ActivityClass::ArbiterEval, n as u64);
        lane.led.route.add(ActivityClass::WireToggle, 4 * n as u64);
    }

    let tile = PacketPort::Tile.index();
    let mut assigned: [Option<DeflectFlit>; P] = [None; P];
    let mut select = [0u8; P];
    let mut placed = [false; P];

    // --- 3. Ejection: the oldest flit destined here leaves to the tile
    // (one per cycle — the tile port is a single register like the rest).
    for i in 0..n {
        let f = flits[i].expect("slot filled above");
        if f.dest == lane.here {
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
        for port in productive_ports(lane.here, f.dest).into_iter().flatten() {
            let pi = port.index();
            if lane.valid[pi] && assigned[pi].is_none() {
                out = Some(pi);
                break;
            }
        }
        if out.is_none() {
            // Deflect: the first free valid mesh port in index order. The
            // arrival guards keep n ≤ capacity (+1 ejection), so a free
            // port always exists.
            out = (1..P).find(|&pi| lane.valid[pi] && assigned[pi].is_none());
            let _ = out.expect("deflection invariant: arrivals never exceed free valid ports");
            f.deflections += 1;
            *lane.deflections += 1;
            lane.led.arb.bump(ActivityClass::ArbiterGrantChange);
        }
        let pi = out.expect("assigned above");
        assigned[pi] = Some(f);
        select[pi] = srcs[i] as u8 + 1;
    }

    // --- 5. Schedule the output registers and crossbar selects.
    for port in 0..P {
        lane.out_select[port].drive(select[port], &mut lane.led.xbar);
        lane.out_regs[port].set_next(image_of(assigned[port].as_ref()));
        lane.out_next[port] = assigned[port];
    }
}

/// Commit phase for one router stripe.
fn commit_lane(lane: Lane<'_>) {
    // Idle fast path: evaluation was skipped, so every register holds 0
    // and the only charge is the parked clock constant.
    if *lane.skipped {
        lane.led.xbar.add(ActivityClass::RegClock, IDLE_REG_CLOCK);
        return;
    }

    let tile = PacketPort::Tile.index();
    for port in 0..P {
        lane.out_regs[port].clock(&mut lane.led.xbar);
        lane.out_flits[port] = lane.out_next[port].take();
        if port != tile && lane.valid[port] {
            let image = lane.out_regs[port].q();
            lane.link_wires[port].drive(image, &mut lane.led.link);
        }
    }

    // Tile ejections drain into the tile queue.
    if let Some(f) = lane.out_flits[tile].take() {
        lane.tile_rx.push_back(f);
        *lane.flits_delivered += 1;
    }

    // Reassess the fast-path flags from the just-latched state. `quiet`
    // lets neighbours skip wiring; `settled` additionally requires every
    // output register parked at zero, so the next evaluation can be
    // skipped outright (its commit then applies exactly the constant
    // above: every register holds d == q == 0).
    *lane.quiet = (1..P).all(|p| lane.out_flits[p].is_none());
    *lane.settled = *lane.quiet && lane.out_regs.iter().all(|r| r.q() == 0);
}

/// A single deflection router: a [`DeflectionSlab`] of one, for
/// single-router testbenches and component-level experiments.
#[derive(Debug, Clone)]
pub struct DeflectionRouter {
    slab: DeflectionSlab,
}

impl DeflectionRouter {
    /// A router at `coords` on a `dims = (width, height)` mesh (the
    /// dimensions fix which ports exist).
    pub fn new(coords: Coords, dims: (usize, usize)) -> DeflectionRouter {
        DeflectionRouter {
            slab: DeflectionSlab::new(&[coords], dims),
        }
    }

    /// Sample the flit arriving on `port` this cycle.
    pub fn set_link_input(&mut self, port: PacketPort, flit: DeflectFlit) {
        self.slab.set_link_input(0, port, flit);
    }

    /// The flit this router drives on `port` (valid after commit).
    pub fn link_output(&self, port: PacketPort) -> Option<DeflectFlit> {
        self.slab.link_output(0, port)
    }

    /// Room available for injection this cycle? (apply link inputs first)
    pub fn tile_can_inject(&self) -> bool {
        self.slab.tile_can_inject(0)
    }

    /// Offer a flit at the tile input (at most one per cycle).
    pub fn tile_inject(&mut self, flit: DeflectFlit) -> bool {
        self.slab.tile_inject(0, flit)
    }

    /// Pop a flit ejected to the tile.
    pub fn tile_recv(&mut self) -> Option<DeflectFlit> {
        self.slab.tile_recv(0)
    }

    /// Flits waiting at the tile output.
    pub fn tile_rx_pending(&self) -> usize {
        self.slab.tile_rx_pending(0)
    }

    /// Flits accepted for injection at the tile port.
    pub fn flits_injected(&self) -> u64 {
        self.slab.flits_injected(0)
    }

    /// Flits ejected to the tile port.
    pub fn flits_delivered(&self) -> u64 {
        self.slab.flits_delivered(0)
    }

    /// Deflections (misroutes) this router has performed.
    pub fn deflections(&self) -> u64 {
        self.slab.deflections(0)
    }

    /// Per-component activity snapshots (Table 4 component granularity).
    pub fn activity(&self) -> Vec<ComponentActivity> {
        self.slab.activity(0)
    }

    /// Reset all activity ledgers.
    pub fn clear_activity(&mut self) {
        self.slab.clear_activity();
    }

    /// Does the router hold no flit anywhere?
    pub fn is_quiescent(&self) -> bool {
        self.slab.is_quiescent(0)
    }
}

impl Clocked for DeflectionRouter {
    fn eval(&mut self) {
        self.slab.eval_one(0);
    }

    fn commit(&mut self) {
        self.slab.commit_one(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::activity::merge_all;

    fn mesh_coords(w: usize, h: usize) -> Vec<Coords> {
        let mut coords = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                coords.push(Coords::new(x as u8, y as u8));
            }
        }
        coords
    }

    /// A slab plus the link wiring between its routers, for multi-hop
    /// tests. Mirrors what the mesh fabric's stepping loop does.
    struct TinyMesh {
        slab: DeflectionSlab,
        w: usize,
        h: usize,
    }

    impl TinyMesh {
        fn new(w: usize, h: usize) -> TinyMesh {
            TinyMesh {
                slab: DeflectionSlab::new(&mesh_coords(w, h), (w, h)),
                w,
                h,
            }
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
                        if self.slab.quiet_links(nb) {
                            continue;
                        }
                        let opp = port.opposite().expect("mesh port");
                        if let Some(f) = self.slab.link_output(nb, opp) {
                            self.slab.set_link_input(r, port, f);
                        }
                    }
                }
            }
        }

        fn step(&mut self, policy: ParPolicy) {
            self.wire();
            self.slab.par_step(policy);
        }

        fn total_activity(&self) -> ActivityLedger {
            let mut out = ActivityLedger::new();
            for r in 0..self.slab.len() {
                out.merge(&merge_all(&self.slab.activity(r)));
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
        assert!(mesh.slab.tile_can_inject(0));
        assert!(mesh.slab.tile_inject(0, flit(Coords::new(1, 0), 0)));
        mesh.step(ParPolicy::Sequential); // tile -> East register
        mesh.step(ParPolicy::Sequential); // link -> neighbour ejects
        let got = mesh.slab.tile_recv(1).expect("delivered in two cycles");
        assert_eq!(got.payload, 0xABCD);
        assert_eq!(got.tag, 7);
        assert_eq!(got.deflections, 0);
        assert_eq!(mesh.slab.flits_delivered(1), 1);
        assert_eq!(mesh.slab.deflections(0) + mesh.slab.deflections(1), 0);
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
        // Cycle 1 runs the full path (the slab starts unsettled); cycle 2
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
    fn slab_stride_matches_independent_routers() {
        // A 2×1 slab against two slab-of-one routers wired by hand: same
        // outputs and same ledgers, every cycle.
        let mut slab = TinyMesh::new(2, 1);
        let mut left = DeflectionRouter::new(Coords::new(0, 0), (2, 1));
        let mut right = DeflectionRouter::new(Coords::new(1, 0), (2, 1));
        for cycle in 0..30u64 {
            // Identical wiring: slab internally, singles by hand.
            slab.wire();
            if let Some(f) = left.link_output(PacketPort::East) {
                right.set_link_input(PacketPort::West, f);
            }
            if let Some(f) = right.link_output(PacketPort::West) {
                left.set_link_input(PacketPort::East, f);
            }
            // Identical injections (ping-pong traffic both directions).
            if cycle < 10 {
                let f = DeflectFlit::new(Coords::new(1, 0), 1, cycle as u16, cycle, cycle);
                assert_eq!(slab.slab.tile_inject(0, f), left.tile_inject(f));
                let g = DeflectFlit::new(Coords::new(0, 0), 2, !cycle as u16, cycle, cycle);
                assert_eq!(slab.slab.tile_inject(1, g), right.tile_inject(g));
            }
            slab.slab.par_step(ParPolicy::Sequential);
            noc_sim::kernel::step(&mut left);
            noc_sim::kernel::step(&mut right);
            for port in PacketPort::ALL {
                if port == PacketPort::Tile {
                    continue;
                }
                assert_eq!(slab.slab.link_output(0, port), left.link_output(port));
                assert_eq!(slab.slab.link_output(1, port), right.link_output(port));
            }
            assert_eq!(slab.slab.activity(0), left.activity());
            assert_eq!(slab.slab.activity(1), right.activity());
            assert_eq!(slab.slab.tile_recv(0), left.tile_recv());
            assert_eq!(slab.slab.tile_recv(1), right.tile_recv());
        }
        assert!(left.flits_delivered() > 0 && right.flits_delivered() > 0);
    }

    #[test]
    fn quiet_links_flag_is_exact() {
        let mut mesh = TinyMesh::new(2, 1);
        assert!(mesh.slab.tile_inject(0, flit(Coords::new(1, 0), 0)));
        mesh.step(ParPolicy::Sequential);
        assert!(!mesh.slab.quiet_links(0), "driving East");
        assert_eq!(
            mesh.slab.quiet_links(0),
            PacketPort::ALL
                .into_iter()
                .skip(1)
                .all(|p| mesh.slab.link_output(0, p).is_none())
        );
        for _ in 0..4 {
            mesh.step(ParPolicy::Sequential);
        }
        for r in 0..2 {
            assert!(mesh.slab.quiet_links(r));
            assert!(PacketPort::ALL
                .into_iter()
                .skip(1)
                .all(|p| mesh.slab.link_output(r, p).is_none()));
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
                        if mesh.slab.tile_can_inject(src) {
                            let f =
                                DeflectFlit::new(Coords::new(1, 1), 9, cycle as u16, cycle, seq);
                            assert!(mesh.slab.tile_inject(src, f));
                            seq += 1;
                        }
                    }
                }
                mesh.slab.par_step(policy);
                for r in 0..mesh.slab.len() {
                    while let Some(f) = mesh.slab.tile_recv(r) {
                        delivered.push((r, f));
                    }
                }
            }
            let deflections: u64 = (0..mesh.slab.len()).map(|r| mesh.slab.deflections(r)).sum();
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
        assert!((0..4).all(|r| mesh.slab.is_quiescent(r)));
        assert!(mesh.slab.tile_inject(0, flit(Coords::new(1, 1), 0)));
        assert!(!mesh.slab.is_quiescent(0));
        for _ in 0..8 {
            mesh.step(ParPolicy::Sequential);
        }
        assert!((0..4).all(|r| mesh.slab.is_quiescent(r)));
        let delivered: u64 = (0..4).map(|r| mesh.slab.flits_delivered(r)).sum();
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
