//! # noc-sim — cycle-driven simulation kernel with switching-activity accounting
//!
//! This crate is the substrate every router model in the workspace is built on.
//! It reproduces, in software, the part of the original study that was played by
//! a VHDL simulator feeding Synopsys Power Compiler: a **synchronous, two-phase
//! (evaluate/commit) clocked simulation** in which every architectural register
//! and every observed wire counts its own switching activity.
//!
//! The pieces:
//!
//! * [`units`] — strongly-typed physical units (time, frequency, energy, power,
//!   area, bandwidth) so that model code cannot silently mix µW with mW.
//! * [`time`] — the simulation clock: [`time::Cycle`] and conversions between
//!   cycles and wall-clock time at a given [`units::MegaHertz`].
//! * [`bits`] — the [`bits::Bits`] trait giving every bus type a width and a
//!   Hamming distance, which is what toggle counting is built from.
//! * [`signal`] — [`signal::Reg`] (an edge-triggered register with toggle and
//!   clock accounting) and [`signal::Wire`] (an observed combinational node).
//! * [`activity`] — the [`activity::ActivityLedger`]: counts of low-level
//!   energy events (register clocks, node toggles, buffer reads/writes,
//!   arbitration decisions, …) that the `noc-power` crate later multiplies by
//!   per-event energies, exactly like a gate-level power tool multiplies
//!   toggles by cell energies.
//! * [`kernel`] — the two-phase [`kernel::Clocked`] contract every router
//!   model implements, and [`kernel::step`] to clock one component.
//! * [`par`] — data-parallel stepping of many independent components per cycle
//!   on a persistent [`par::WorkerPool`] of parked threads, one fan-out level
//!   deep (used by `noc-mesh` for large meshes and composite fabrics; see
//!   `ARCHITECTURE.md` at the repo root for how the two-phase contract makes
//!   this race-free).
//! * [`rng`] — small deterministic RNG (SplitMix64) so experiments reproduce
//!   bit-for-bit across runs and platforms.
//! * [`stats`] — running statistics and histograms used by testbenches.
//! * [`trace`] — a minimal VCD (value-change-dump) writer for debugging
//!   router pipelines with standard waveform viewers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activity;
pub mod bits;
pub mod kernel;
// The worker pool erases each dispatch task's lifetime and hands every
// task a disjoint `&mut` through a raw pointer. It is the one module the
// workspace's `unsafe_code` deny lets use `unsafe`.
#[allow(unsafe_code)]
pub mod par;
pub mod rng;
pub mod signal;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use activity::{ActivityClass, ActivityLedger};
pub use bits::Bits;
pub use kernel::Clocked;
pub use rng::SplitMix64;
pub use signal::{Reg, Wire};
pub use time::{Cycle, CycleCount};
pub use units::{Bandwidth, FemtoJoules, MegaHertz, MicroWatts, Picoseconds, SquareMicroMeters};
