//! `fleet`: the seeded tenant census through `Fleet`, and therefore
//! `Deployment::run`. Set-up admits every tenant; the run steps
//! [`BATCHES`] batches, takes a snapshot halfway, and retires the whole
//! census. The replay check admits a second fleet, restores it from that
//! snapshot and finishes the run outside the timed phases; in a traced
//! run its `Fleet::restore` call is a span too.

use crate::drive::{fnv, FNV_BASIS};
use crate::trace::{Op, Tracer};
use noc_exp::fleet::{Fleet, FleetSloReport, FleetSnapshot, TenantSpec};
use noc_mesh::fabric::Fabric;
use noc_mesh::stream::StreamPlane;
use noc_sim::par::ParPolicy;
use noc_sim::stats::LatencyHistogram;
use std::time::Instant;

/// Cycles per batch.
pub const BATCH_CYCLES: u64 = 64;
/// Batches of offered load: enough for a p90 of `step_batch` with ten
/// samples beyond it.
pub const BATCHES: u64 = 100;
/// Batches `retire_all` may take to drain the census.
pub const RETIRE_BUDGET: u64 = 400;

/// Backend label of a tenant, matching the `stream`/`churn` labels.
pub fn tenant_backend(spec: &TenantSpec) -> &'static str {
    if spec.chiplets.is_some() {
        return "chiplet";
    }
    crate::drive::Backend::Flat(spec.kind).label()
}

/// What one fleet pass measured and read out.
pub struct FleetPass {
    /// Host nanoseconds of the batches, the snapshot and the retirement.
    pub run_ns: u64,
    pub admitted: u64,
    pub refused: u64,
    pub retired_all: bool,
    pub report: FleetSloReport,
    /// Delivered words and energy (fJ) per tenant, census order.
    pub tenants: Vec<(u64, f64)>,
    pub gt: LatencyHistogram,
    pub be: LatencyHistogram,
    /// The mid-run snapshot, until the replay check takes it.
    pub snapshot: Option<FleetSnapshot>,
}

impl FleetPass {
    pub fn words_per_s(&self) -> f64 {
        self.report.delivered as f64 / (self.run_ns as f64 * 1e-9)
    }

    /// Deterministic digest of the report, the energies and the merged
    /// latency histograms.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv(FNV_BASIS, format!("{:?}", self.report).as_bytes());
        for (words, energy) in &self.tenants {
            h = fnv(h, &words.to_le_bytes());
            h = fnv(h, &energy.to_bits().to_le_bytes());
        }
        h = fnv(h, format!("{:?}", self.gt).as_bytes());
        fnv(h, format!("{:?}", self.be).as_bytes())
    }
}

fn admit_all(fleet: &mut Fleet, specs: &[TenantSpec], tr: &mut Tracer) -> (u64, u64) {
    let (mut admitted, mut refused) = (0, 0);
    for spec in specs {
        match tr.call(Op::FleetAdmit, || fleet.admit(spec)) {
            Ok(_) => admitted += 1,
            Err(_) => refused += 1,
        }
    }
    (admitted, refused)
}

/// Admit the census into a fleet fanned out under `policy`; returns the
/// fleet and the tenants admitted and refused.
pub fn set_up(specs: &[TenantSpec], policy: ParPolicy, tr: &mut Tracer) -> (Fleet, u64, u64) {
    let setup = tr.begin(Op::Setup);
    let mut fleet = Fleet::new(BATCH_CYCLES).parallelism(policy);
    let (admitted, refused) = admit_all(&mut fleet, specs, tr);
    tr.end(setup);
    (fleet, admitted, refused)
}

/// One pass over the census with the fleet fanned out under `policy`.
pub fn pass(specs: &[TenantSpec], policy: ParPolicy, tr: &mut Tracer) -> FleetPass {
    let (mut fleet, admitted, refused) = set_up(specs, policy, tr);

    let started = Instant::now();
    let run = tr.begin(Op::Run);
    let mut snapshot = None;
    for b in 0..BATCHES {
        if b == BATCHES / 2 {
            snapshot = Some(tr.call(Op::FleetSnapshot, || fleet.snapshot()));
        }
        tr.call(Op::FleetBatch, || fleet.step_batch());
    }
    tr.end(run);
    let drain = tr.begin(Op::Drain);
    let retired_all = tr.call(Op::FleetRetire, || fleet.retire_all(RETIRE_BUDGET));
    tr.end(drain);
    let run_ns = started.elapsed().as_nanos() as u64;

    let report_span = tr.begin(Op::Report);
    let report = tr.call(Op::FleetSlo, || fleet.slo_report());
    let mut gt = LatencyHistogram::new();
    let mut be = LatencyHistogram::new();
    let mut tenants = Vec::with_capacity(fleet.len());
    for t in fleet.tenants() {
        let dep = t.deployment();
        let fabric = dep.fabric();
        for s in tr.call(Op::Stats, || fabric.stream_stats()) {
            if s.plane == StreamPlane::Circuit {
                gt.merge(&s.latency);
            } else {
                be.merge(&s.latency);
            }
        }
        let model = dep.energy_model();
        let energy = tr.call(Op::Energy, || dep.total_energy(&model)).value();
        tenants.push((dep.total_delivered(), energy));
    }
    tr.end(report_span);
    FleetPass {
        run_ns,
        admitted,
        refused,
        retired_all,
        report,
        tenants,
        gt,
        be,
        snapshot,
    }
}

/// Restore a freshly admitted fleet from `snapshot`, finish the run and
/// return its report, which must equal the uninterrupted run's.
pub fn replay(
    specs: &[TenantSpec],
    snapshot: &FleetSnapshot,
    tr: &mut Tracer,
) -> Option<FleetSloReport> {
    let mut fleet = Fleet::new(BATCH_CYCLES);
    // Untraced: these admissions are not the census's set-up.
    admit_all(&mut fleet, specs, &mut Tracer::new(false));
    tr.call(Op::FleetRestore, || fleet.restore(snapshot)).ok()?;
    fleet.run_batches(BATCHES - snapshot.batches_run());
    fleet.retire_all(RETIRE_BUDGET);
    Some(fleet.slo_report())
}
