//! Processing tiles: the endpoints of every stream.
//!
//! Fig. 1's SoC mixes GPPs, DSPs, ASICs, FPGAs and Domain Specific
//! Reconfigurable Hardware (DSRH). For the communication experiments a tile
//! is a traffic endpoint: it injects phits on bound transmit lanes
//! (load-controlled, pattern-controlled) and drains its receive lanes,
//! counting and optionally checking what arrives. Computation latency
//! inside the tile is outside the paper's scope — its streams are periodic
//! by construction (Section 3.3).
//!
//! All tiles of one SoC live in a single [`TileSlab`] — structure-of-arrays
//! storage indexed by node, stepped by the SoC's sequential tile pass. The
//! hot per-cycle state (receive statistics, capture buffers) sits in flat
//! `nodes × lanes` arrays so a full-mesh sweep walks contiguous memory, and
//! [`TileSlab::step_node`] returns immediately for the (typical) majority of
//! tiles with no transmit bindings and nothing waiting to be drained.

use noc_apps::traffic::{DataPattern, PhitSource};
use noc_core::phit::Phit;
use noc_core::router::CircuitRouter;
use std::fmt;

/// The heterogeneous tile kinds of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileKind {
    /// General-purpose processor.
    Gpp,
    /// Digital signal processor.
    Dsp,
    /// Fixed-function hardware.
    Asic,
    /// Field-programmable fabric.
    Fpga,
    /// Domain-specific reconfigurable hardware (e.g. the Montium).
    Dsrh,
}

impl TileKind {
    /// Does this tile kind satisfy a process affinity hint?
    pub fn matches_affinity(self, hint: &str) -> bool {
        let name = match self {
            TileKind::Gpp => "GPP",
            TileKind::Dsp => "DSP",
            TileKind::Asic => "ASIC",
            TileKind::Fpga => "FPGA",
            TileKind::Dsrh => "DSRH",
        };
        // FFT-style hints map onto reconfigurable fabric.
        name == hint || (matches!(self, TileKind::Dsrh | TileKind::Fpga) && hint == "FFT")
    }
}

impl fmt::Display for TileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TileKind::Gpp => "GPP",
            TileKind::Dsp => "DSP",
            TileKind::Asic => "ASIC",
            TileKind::Fpga => "FPGA",
            TileKind::Dsrh => "DSRH",
        };
        f.write_str(s)
    }
}

/// The default heterogeneous tile mix: kinds rotate through the Fig. 1
/// palette so every kind exists somewhere on any non-trivial mesh. Shared
/// by [`crate::soc::Soc::new`] and the deployment builder so that both
/// fabrics map applications against the same tile inventory.
pub fn default_tile_kinds(mesh: &crate::topology::Mesh) -> Vec<TileKind> {
    const PALETTE: [TileKind; 6] = [
        TileKind::Gpp,
        TileKind::Dsp,
        TileKind::Asic,
        TileKind::Dsrh,
        TileKind::Fpga,
        TileKind::Dsrh,
    ];
    mesh.iter().map(|n| PALETTE[n.0 % PALETTE.len()]).collect()
}

/// A transmit binding: a phit source feeding one tile lane.
#[derive(Debug, Clone)]
struct TxBinding {
    lane: usize,
    source: PhitSource,
}

/// Per-receive-lane statistics.
#[derive(Debug, Clone, Default)]
pub struct RxStats {
    /// Phits consumed on this lane.
    pub received: u64,
    /// Payload bits received.
    pub payload_bits: u64,
    /// Last received word (for sequence checks by tests).
    pub last_word: Option<u16>,
}

/// Every processing tile of the SoC in structure-of-arrays layout, indexed
/// by node. Per-lane state lives in flat `nodes × lanes` arrays.
#[derive(Debug, Clone)]
pub struct TileSlab {
    lanes: usize,
    kinds: Vec<TileKind>,
    /// Transmit bindings per node — sparse: most nodes carry none, and
    /// [`TileSlab::step_node`] early-outs on the empty case.
    tx: Vec<Vec<TxBinding>>,
    /// Flat `nodes × lanes` receive statistics.
    rx_stats: Vec<RxStats>,
    /// When set for a node, every received payload word is also kept **per
    /// receive lane** (in arrival order) for [`TileSlab::take_captured_lane`]
    /// — the fabric API's stream-addressed `drain` path. The circuit fabric
    /// maps each receive lane to the stream whose circuit terminates on it,
    /// so per-lane buffers are exactly per-stream delivery.
    capture: Vec<bool>,
    /// Flat `nodes × lanes` capture buffers.
    captured: Vec<Vec<u16>>,
}

impl TileSlab {
    /// A slab of `kinds.len()` tiles, each with `lanes` receive lanes and
    /// no transmit bindings yet.
    pub fn new(kinds: Vec<TileKind>, lanes: usize) -> TileSlab {
        let n = kinds.len();
        TileSlab {
            lanes,
            kinds,
            tx: vec![Vec::new(); n],
            rx_stats: vec![RxStats::default(); n * lanes],
            capture: vec![false; n],
            captured: vec![Vec::new(); n * lanes],
        }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Is the slab empty?
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Tile lanes per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline]
    fn nl(&self, n: usize, lane: usize) -> usize {
        debug_assert!(lane < self.lanes);
        n * self.lanes + lane
    }

    /// The hardware kind of tile `n`.
    pub fn kind(&self, n: usize) -> TileKind {
        self.kinds[n]
    }

    /// Reassign the hardware kind of tile `n` (testbench convenience).
    pub fn set_kind(&mut self, n: usize, kind: TileKind) {
        self.kinds[n] = kind;
    }

    /// Enable or disable payload capture on tile `n`. Capture is what backs
    /// the fabric-level `drain`; leave it off for load-style runs that only
    /// read the per-lane statistics, so long simulations do not accumulate
    /// payload history.
    pub fn set_capture(&mut self, n: usize, on: bool) {
        self.capture[n] = on;
        if !on {
            for lane in 0..self.lanes {
                let idx = self.nl(n, lane);
                self.captured[idx].clear();
            }
        }
    }

    /// Whether payload capture is enabled on tile `n`.
    pub fn capture_enabled(&self, n: usize) -> bool {
        self.capture[n]
    }

    /// Take all payload words captured on tile `n` since the last call,
    /// merged in lane order (the node-level legacy view; stream-exact
    /// callers use [`TileSlab::take_captured_lane`]).
    pub fn take_captured(&mut self, n: usize) -> Vec<u16> {
        let mut out = Vec::new();
        for lane in 0..self.lanes {
            let idx = self.nl(n, lane);
            out.append(&mut self.captured[idx]);
        }
        out
    }

    /// Take the payload words captured on one receive lane of tile `n`
    /// since the last call — per-stream delivery for the fabric layer,
    /// which knows which stream's circuit terminates on the lane.
    pub fn take_captured_lane(&mut self, n: usize, lane: usize) -> Vec<u16> {
        let idx = self.nl(n, lane);
        std::mem::take(&mut self.captured[idx])
    }

    /// Bind a load-controlled source to transmit lane `lane` of tile `n`.
    ///
    /// # Panics
    /// Panics when the lane is already bound — one stream per lane is the
    /// architecture's invariant.
    pub fn bind_source(
        &mut self,
        n: usize,
        lane: usize,
        pattern: DataPattern,
        seed: u64,
        load: f64,
        flits_per_phit: usize,
    ) {
        assert!(
            self.tx[n].iter().all(|b| b.lane != lane),
            "tile lane {lane} already bound"
        );
        self.tx[n].push(TxBinding {
            lane,
            source: PhitSource::new(pattern, seed, load, flits_per_phit),
        });
    }

    /// Remove the source bound to `lane` of tile `n` (stream teardown).
    pub fn unbind_source(&mut self, n: usize, lane: usize) {
        self.tx[n].retain(|b| b.lane != lane);
    }

    /// Drive one cycle of tile `n`'s behaviour against its router: offer
    /// due phits on bound lanes, drain all receive queues. A tile with no
    /// bindings and nothing waiting returns immediately — on a mostly-idle
    /// mesh this is the common case and keeps the tile sweep out of the
    /// per-cycle cost entirely.
    pub fn step_node(&mut self, n: usize, router: &mut CircuitRouter) {
        if self.tx[n].is_empty() && router.tile_rx_total() == 0 {
            return;
        }
        for binding in &mut self.tx[n] {
            let can = router.tile_can_send(binding.lane);
            if let Some(phit) = binding.source.poll(can) {
                let accepted = router.tile_send(binding.lane, phit);
                debug_assert!(accepted, "tile_can_send implies acceptance");
            }
        }
        for lane in 0..self.lanes {
            while let Some(phit) = router.tile_recv(lane) {
                self.record_rx(n, lane, phit);
            }
        }
    }

    fn record_rx(&mut self, n: usize, lane: usize, phit: Phit) {
        let idx = self.nl(n, lane);
        let stats = &mut self.rx_stats[idx];
        stats.received += 1;
        stats.payload_bits += 16;
        stats.last_word = Some(phit.data);
        if self.capture[n] {
            self.captured[idx].push(phit.data);
        }
    }

    /// Statistics for receive lane `lane` of tile `n`.
    pub fn rx(&self, n: usize, lane: usize) -> &RxStats {
        &self.rx_stats[self.nl(n, lane)]
    }

    /// Total phits emitted over tile `n`'s currently bound sources.
    pub fn total_sent(&self, n: usize) -> u64 {
        self.tx[n].iter().map(|b| b.source.emitted).sum()
    }

    /// Total phits received over all lanes of tile `n`.
    pub fn total_received(&self, n: usize) -> u64 {
        (0..self.lanes)
            .map(|lane| self.rx_stats[self.nl(n, lane)].received)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::lane::Port;
    use noc_core::params::RouterParams;
    use noc_sim::kernel::step;

    fn slab_of_one(kind: TileKind) -> TileSlab {
        TileSlab::new(vec![kind], 4)
    }

    #[test]
    fn tile_kind_affinity() {
        assert!(TileKind::Dsp.matches_affinity("DSP"));
        assert!(!TileKind::Dsp.matches_affinity("GPP"));
        assert!(TileKind::Dsrh.matches_affinity("FFT"));
        assert!(TileKind::Fpga.matches_affinity("FFT"));
        assert!(!TileKind::Asic.matches_affinity("FFT"));
    }

    #[test]
    fn source_feeds_router_and_sink_counts() {
        // Loopback at one router: tile lane 0 -> East, and externally we
        // feed East's traffic back in on North -> tile lane 0. Here just
        // check the TX path: the tile's source drives the router.
        let mut router = CircuitRouter::new(RouterParams::paper());
        router.connect(Port::Tile, 0, Port::East, 0).unwrap();
        let mut tiles = slab_of_one(TileKind::Dsp);
        tiles.bind_source(0, 0, DataPattern::Random, 1, 1.0, 5);
        for _ in 0..100 {
            tiles.step_node(0, &mut router);
            step(&mut router);
        }
        // 100 cycles at 1 phit/5 cycles, window WC=8 acked? No acks return
        // here, so the window (8) bounds the emission.
        assert_eq!(tiles.total_sent(0), 8);
    }

    #[test]
    fn rx_statistics_accumulate() {
        let mut router = CircuitRouter::new(RouterParams::paper());
        router.connect(Port::North, 0, Port::Tile, 2).unwrap();
        let mut tiles = slab_of_one(TileKind::Gpp);
        // Stream five phits in from the north.
        let mut flits: Vec<noc_sim::bits::Nibble> = Vec::new();
        for i in 0..5u16 {
            flits.extend(Phit::data(0x100 + i).to_flits());
        }
        for nib in flits {
            router.set_link_input(Port::North, 0, nib);
            step(&mut router);
            tiles.step_node(0, &mut router);
        }
        // Drain the pipeline.
        router.set_link_input(Port::North, 0, noc_sim::bits::Nibble::ZERO);
        for _ in 0..5 {
            step(&mut router);
            tiles.step_node(0, &mut router);
        }
        assert_eq!(tiles.rx(0, 2).received, 5);
        assert_eq!(tiles.rx(0, 2).payload_bits, 80);
        assert_eq!(tiles.rx(0, 2).last_word, Some(0x104));
        assert_eq!(tiles.total_received(0), 5);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_binding_rejected() {
        let mut tiles = slab_of_one(TileKind::Asic);
        tiles.bind_source(0, 1, DataPattern::Zeros, 1, 1.0, 5);
        tiles.bind_source(0, 1, DataPattern::Zeros, 2, 1.0, 5);
    }

    #[test]
    fn unbind_stops_traffic() {
        let mut router = CircuitRouter::new(RouterParams::paper());
        router.connect(Port::Tile, 0, Port::East, 0).unwrap();
        let mut tiles = slab_of_one(TileKind::Dsrh);
        tiles.bind_source(0, 0, DataPattern::Random, 1, 1.0, 5);
        for _ in 0..10 {
            tiles.step_node(0, &mut router);
            step(&mut router);
        }
        let sent = tiles.total_sent(0);
        assert!(sent > 0);
        tiles.unbind_source(0, 0);
        for _ in 0..10 {
            tiles.step_node(0, &mut router);
            step(&mut router);
        }
        assert_eq!(tiles.total_sent(0), 0, "source removed, counter gone");
    }

    #[test]
    fn idle_tile_step_is_a_no_op() {
        // No bindings, nothing received: step_node must not disturb the
        // router (in particular it must not mark its input inbox, which
        // would defeat the router's idle fast path).
        let mut router = CircuitRouter::new(RouterParams::paper());
        let mut tiles = slab_of_one(TileKind::Gpp);
        step(&mut router); // settle
        let before: Vec<_> = router.activity();
        step(&mut router); // fast path engaged
        tiles.step_node(0, &mut router);
        step(&mut router); // must still take the fast path
        let after: Vec<_> = router.activity();
        // Three idle cycles, identical per-cycle charges: the deltas of
        // cycles 2 and 3 each equal the cycle-1 charge.
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(
                a.ledger.total(),
                3 * b.ledger.total(),
                "{:?}: idle tile stepping must not unsettle the router",
                b.kind
            );
        }
    }

    #[test]
    fn capture_is_per_node() {
        let mut tiles = TileSlab::new(vec![TileKind::Gpp, TileKind::Dsp], 4);
        tiles.set_capture(0, true);
        assert!(tiles.capture_enabled(0));
        assert!(!tiles.capture_enabled(1));
        tiles.record_rx(0, 1, Phit::data(0xAB));
        tiles.record_rx(1, 1, Phit::data(0xCD));
        assert_eq!(tiles.take_captured(0), vec![0xAB]);
        assert_eq!(tiles.take_captured(1), Vec::<u16>::new());
        assert_eq!(tiles.rx(1, 1).received, 1, "stats still counted");
        // Disabling capture clears any residue.
        tiles.record_rx(0, 2, Phit::data(0x11));
        tiles.set_capture(0, false);
        assert_eq!(tiles.take_captured_lane(0, 2), Vec::<u16>::new());
    }
}
