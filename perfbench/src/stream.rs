//! `stream`: steady streaming of the seeded task graph on a 16×16 mesh,
//! once per backend. Set-up maps the graph with the CCN (spilling what
//! circuit lanes cannot take), builds the backend and provisions it
//! instantly; the run offers every served stream its mapped demand for
//! [`OFFERED_CYCLES`] cycles, then drains.

use crate::drive::{self, read_out, words_per_cycle, Backend, Ledger, Net, Pass, Session};
use crate::gen::CLOCK;
use crate::trace::{Op, Tracer};
use noc_apps::taskgraph::TaskGraph;
use noc_sim::par::ParPolicy;
use std::time::Instant;

/// Cycles of offered load per backend.
pub const OFFERED_CYCLES: u64 = 4_000;

/// Set `backend` up for `graph` under `policy`; returns the fabric and
/// one session per served stream.
pub fn set_up(
    graph: &TaskGraph,
    seed: u64,
    backend: Backend,
    policy: ParPolicy,
    tr: &mut Tracer,
) -> (Net, Ledger) {
    let (net, mapping, ids) = drive::set_up(graph, backend, policy, tr);
    let streams = mapping.streams();
    let mut ledger = Ledger::default();
    for id in ids {
        let ms = streams
            .iter()
            .find(|s| s.id == id)
            .expect("provision hands out the mapping's stream ids");
        let rate = words_per_cycle(ms.demand, CLOCK);
        ledger
            .sessions
            .push(Session::new(id, rate, seed ^ (u64::from(id.0) << 32)));
    }
    (net, ledger)
}

/// Run every backend once under `policy`; returns one [`Pass`] each.
pub fn pass(
    graph: &TaskGraph,
    seed: u64,
    backends: &[Backend],
    policy: ParPolicy,
    tr: &mut Tracer,
) -> Vec<Pass> {
    backends
        .iter()
        .enumerate()
        .map(|(bi, &backend)| {
            tr.set_backend(bi as u8);
            let mut out = Pass::default();
            let started = Instant::now();
            let (mut net, mut ledger) = set_up(graph, seed, backend, policy, tr);
            out.setup_ns = started.elapsed().as_nanos() as u64;

            let fabric = net.fabric();
            let started = Instant::now();
            let run = tr.begin(Op::Run);
            for cycle in 0..OFFERED_CYCLES {
                ledger.cycle(fabric, tr, cycle);
            }
            tr.end(run);
            let drain = tr.begin(Op::Drain);
            out.drain_cycles = ledger.drain(fabric, tr);
            tr.end(drain);
            out.run_ns = started.elapsed().as_nanos() as u64;

            let report = tr.begin(Op::Report);
            read_out(&mut out, &ledger, &mut net, CLOCK, tr);
            tr.end(report);
            out
        })
        .collect()
}
