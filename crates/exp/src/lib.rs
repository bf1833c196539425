//! # noc-exp — the experiment harness
//!
//! Everything needed to regenerate the paper's tables and figures, shared
//! by the `noc-bench` binaries, the Criterion benches and the integration
//! tests:
//!
//! * [`testbench`] — single-router scenario rigs for both routers,
//!   reproducing Section 6's measurement setup: Table 3's streams at
//!   configurable load and data pattern, the surrounding network played by
//!   the testbench (upstream serialisers with window flow control,
//!   downstream consumers returning acks/credits).
//! * [`mod@fig9`] — Fig. 9: static/internal/switching power bars for
//!   Scenarios I–IV on both routers (random data, 100% load, 25 MHz,
//!   200 µs — 2 kB per stream).
//! * [`mod@fig10`] — Fig. 10: dynamic power [µW/MHz] versus bit-flip rate
//!   (0/50/100%) for all scenarios and both routers.
//! * [`mod@reference`] — the paper's published numbers, for paper-vs-measured
//!   reporting in EXPERIMENTS.md.
//! * [`tables`] — plain-text table rendering used by every binary.
//! * [`fabric_bench`] — the fabric-generic deployment bench: any
//!   application task graph, either backend, one code path
//!   ([`fabric_bench::run_app`] is written once over `F: Fabric`).
//! * [`fleet`] — the multi-tenant fleet engine: populations of concurrent
//!   deployments stepped in lockstep batches over the shared worker pool,
//!   with snapshot/restore, phase-shifting workloads and aggregate SLO
//!   reporting ([`fleet::Fleet`], [`fleet::FleetSloReport`],
//!   [`fleet::flap_probe`]).
//! * [`random_traffic`] — uniform-random best-effort traffic on the
//!   packet-switched mesh, the load-latency curve behind
//!   `be_random_traffic` ([`random_traffic::uniform_random`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fabric_bench;
pub mod fig10;
pub mod fig9;
pub mod fleet;
pub mod random_traffic;
pub mod reference;
pub mod tables;
pub mod testbench;

pub use fabric_bench::{compare_fabrics, run_app, FabricComparison, FabricRunSummary};
pub use fig10::{fig10, Fig10, Fig10Point};
pub use fig9::{fig9, Fig9, Fig9Bar};
pub use fleet::{
    flap_probe, FlapProbe, Fleet, FleetRestoreError, FleetSloReport, FleetSnapshot, Tenant,
    TenantSlo, TenantSpec, TenantState,
};
pub use testbench::{CircuitScenarioBench, PacketScenarioBench, ScenarioOutcome};
