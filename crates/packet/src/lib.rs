//! # noc-packet — the packet-switched virtual-channel baseline router
//!
//! The paper compares its circuit-switched router against "a packet-switched
//! equivalent of Kavaldjiev" (*A virtual channel router for on-chip
//! networks*, IEEE SOCC 2004): an input-buffered wormhole router with
//! 16-bit links, four virtual channels per port, credit-based flow control
//! and round-robin allocation. This crate implements that baseline at the
//! same register-transfer fidelity as `noc-core`, so the two can be measured
//! by the identical activity-based power flow.
//!
//! Structure (one module per hardware block):
//!
//! * [`flit`] — 16-bit flits with head/body/tail framing and XY destination
//!   headers; [`flit::Packet`] segments tile words into wormholes.
//! * [`fifo`] — flop-based input FIFOs whose every storage bit pays clock
//!   energy each cycle; this is the "necessary buffers" cost the paper names
//!   as the main reason for the 3.5× gap.
//! * [`arbiter`] — round-robin arbiters whose grant changes are counted,
//!   reproducing the "extra switching behavior in the control of the
//!   crossbar" under stream collisions (paper Section 7.3).
//! * [`routing`] — dimension-ordered XY routing.
//! * [`vc`] — per-input virtual-channel state and credit tracking.
//! * [`router`] — the assembled five-port router.
//! * [`deflection`] — the bufferless counterpoint: a single-flit-register
//!   deflection router with age-based arbitration and no FIFOs at all,
//!   modelling the other end of the buffering/misrouting trade-off.
//!
//! Like the circuit router, this model follows the two-phase clocking of
//! [`noc_sim::kernel`] and reports per-component activity for `noc-power`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod deflection;
pub mod fifo;
pub mod flit;
pub mod params;
pub mod router;
pub mod routing;
pub mod vc;

pub use arbiter::RoundRobin;
pub use deflection::{DeflectFlit, DeflectionRouter};
pub use fifo::FlitFifo;
pub use flit::{Flit, FlitKind, LinkWord, Packet};
pub use params::PacketParams;
pub use router::PacketRouter;
pub use routing::{route_xy, Coords};
pub use vc::VcId;
