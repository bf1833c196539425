//! `churn`: the runtime circuit lifecycle on a 16×16 mesh that starts
//! empty. The seeded schedule admits streams, feeds each its demand, and
//! releases it with `ReleaseMode::Drain` when its lifetime ends; streams
//! still live at the end of [`SPAN_CYCLES`] are released then, and the
//! drain lets every teardown finish.

use crate::drive::{self, read_out, words_per_cycle, Backend, Ledger, Net, Pass, Session};
use crate::gen::{lane_capacity, Arrival, CLOCK};
use crate::trace::{Op, Tracer};
use noc_apps::taskgraph::TaskGraph;
use noc_mesh::fabric::Fabric;
use noc_mesh::stream::{AdmitError, ReleaseMode, StreamDemand};
use noc_sim::par::ParPolicy;
use noc_sim::units::Bandwidth;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cycles over which the schedule admits streams.
pub const SPAN_CYCLES: u64 = 8_000;

/// Set `backend` up under `policy` for the empty application, which
/// fixes the lane capacity runtime admission uses.
pub fn set_up(backend: Backend, policy: ParPolicy, tr: &mut Tracer) -> Net {
    drive::set_up(&TaskGraph::new("churn"), backend, policy, tr).0
}

/// Run the schedule on every backend once under `policy`.
pub fn pass(
    schedule: &[Arrival],
    seed: u64,
    backends: &[Backend],
    policy: ParPolicy,
    tr: &mut Tracer,
) -> Vec<Pass> {
    let lane = lane_capacity().value();
    backends
        .iter()
        .enumerate()
        .map(|(bi, &backend)| {
            tr.set_backend(bi as u8);
            let mut out = Pass::default();
            let started = Instant::now();
            let mut net = set_up(backend, policy, tr);
            out.setup_ns = started.elapsed().as_nanos() as u64;

            let fabric = net.fabric();
            let mut ledger = Ledger::default();
            // Release cycle -> session indices due then.
            let mut due: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            let mut next = 0;
            let started = Instant::now();
            let run = tr.begin(Op::Run);
            for cycle in 0..SPAN_CYCLES {
                while let Some(a) = schedule.get(next).filter(|a| a.at == cycle) {
                    next += 1;
                    out.admissions += 1;
                    let demand = StreamDemand {
                        src: a.src,
                        dst: a.dst,
                        demand: Bandwidth(a.lanes * lane),
                    };
                    match tr.call(Op::Admit, || fabric.admit(&demand)) {
                        Ok(id) => {
                            out.admitted += 1;
                            due.entry(cycle + a.lifetime)
                                .or_default()
                                .push(ledger.sessions.len());
                            let rate = words_per_cycle(demand.demand, CLOCK);
                            let word_seed = seed ^ ((next as u64) << 32);
                            ledger.sessions.push(Session::new(id, rate, word_seed));
                        }
                        Err(AdmitError::Unsupported(_)) => out.refused_unsupported += 1,
                        Err(_) => out.refused_capacity += 1,
                    }
                }
                if let Some(ending) = due.remove(&cycle) {
                    for i in ending {
                        release(&mut ledger, i, fabric, tr, &mut out);
                    }
                }
                ledger.cycle(fabric, tr, cycle);
            }
            for i in due.into_values().flatten() {
                release(&mut ledger, i, fabric, tr, &mut out);
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

/// Stop session `i`'s offered load and release it loss-free.
fn release(
    ledger: &mut Ledger,
    i: usize,
    fabric: &mut dyn Fabric,
    tr: &mut Tracer,
    out: &mut Pass,
) {
    let s = &mut ledger.sessions[i];
    s.open = false;
    if tr
        .call(Op::Release, || fabric.release(s.id, ReleaseMode::Drain))
        .is_err()
    {
        out.release_errors += 1;
    }
}
