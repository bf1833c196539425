//! The multi-tenant fleet engine: hundreds-to-thousands of concurrent
//! [`Deployment`]s stepped in lockstep batches, with snapshot/restore,
//! phase-shifting workloads and aggregate SLO reporting.
//!
//! The paper's CCN manages *one* SoC; a capacity study needs populations.
//! A [`Fleet`] owns N tenants — each an independent
//! `Deployment<FabricController>` with its own fabric, admission policy
//! and offered-load profile — and advances them one *batch* (a fixed
//! number of cycles) at a time, fanning the per-tenant stepping out over
//! the shared worker pool ([`noc_sim::par`]). That fan-out is the
//! parallelism: a tenant steps its own fabric inline on the pool block
//! that holds it.
//!
//! Three capabilities ride on that population:
//!
//! * **Lifecycle** — tenants move
//!   [`TenantState::Admitted`] → [`TenantState::Running`] →
//!   [`TenantState::Draining`] → [`TenantState::Retired`]; draining stops
//!   offered load and settles in-flight words to zero before the tenant
//!   leaves the census, so retirement is loss-free by construction.
//! * **Snapshot/restore** — [`Fleet::snapshot`] captures every tenant's
//!   full state (fabric, controller policy state, traffic generators,
//!   delivery ledgers) at a batch boundary; [`Fleet::restore`] into a
//!   fleet built from the same specs resumes it. Because workload phases
//!   are pure functions of the fleet cycle counter
//!   ([`PhaseProfile::scale`]), a restored fleet replays the remaining
//!   batches *bit-identically* — the final [`FleetSloReport`]s compare
//!   equal, which the determinism suite asserts.
//! * **SLO reporting** — [`Fleet::slo_report`] aggregates per-tenant
//!   payload conservation, GT/BE p95 service latencies and their gap,
//!   admission latency (§5.1 reconfiguration waits) and the control
//!   plane's eviction-hygiene counters ([`ControllerStats`]) into one
//!   integer-only, exactly-comparable report.
//!
//! [`flap_probe`] is the packaged eviction-stability experiment: the same
//! bursty tenant run under raw single-window [`LoadDemotion`] and under
//! [`LoadDemotion::hardened`] (EWMA + minimum dwell), returning both
//! flap counts. The hardened policy must show zero.

use noc_apps::taskgraph::TaskGraph;
use noc_apps::workload::PhaseProfile;
use noc_core::params::RouterParams;
use noc_mesh::ccn::Ccn;
use noc_mesh::controller::{AdmissionPolicy, ControllerStats, FabricController, LoadDemotion};
use noc_mesh::deployment::{DeployError, Deployment, DeploymentSnapshot};
use noc_mesh::fabric::{Fabric, FabricKind, SnapshotError};
use noc_mesh::stream::{best_p95, worst_p95, ProvisionMode, StreamPlane};
use noc_mesh::topology::Mesh;
use noc_sim::par::{par_for_each_mut, ParPolicy};
use noc_sim::time::CycleCount;
use noc_sim::units::MegaHertz;
use std::fmt;

/// Everything needed to (re)build one tenant: the application, the
/// substrate, the control plane and the offered-load profile. Cloneable —
/// the admission policy is stamped out through
/// [`AdmissionPolicy::box_clone`] — so the same spec list can build the
/// original fleet *and* the fresh fleet a snapshot restores into.
#[derive(Debug)]
pub struct TenantSpec {
    /// Tenant name (reported in the SLO census).
    pub name: String,
    /// The application task graph.
    pub graph: TaskGraph,
    /// Mesh dimensions (width, height).
    pub mesh: (usize, usize),
    /// SoC clock.
    pub clock: MegaHertz,
    /// Traffic seed.
    pub seed: u64,
    /// Fabric backend.
    pub kind: FabricKind,
    /// Optional chiplet grid: `Some((cw, ch))` deploys the tenant on a
    /// [`noc_mesh::chiplet::ChipletFabric`] — a `cw × ch` grid of
    /// per-chiplet `kind` planes stitched by NoI entry routers — instead
    /// of a flat fabric. The grid must divide the mesh dimensions.
    pub chiplets: Option<(usize, usize)>,
    /// Spill-tolerant admission (the hybrid backend always spills).
    pub spill: bool,
    /// Offered-load profile applied across the tenant's streams.
    pub workload: PhaseProfile,
    /// Admission policy for the tenant's [`FabricController`]
    /// (`None` = the controller's default).
    pub policy: Option<Box<dyn AdmissionPolicy>>,
    /// Cycles between control-plane ticks.
    pub tick_window: CycleCount,
    /// How the cold-start configuration reaches the routers.
    /// [`ProvisionMode::BeDelivered`] charges each circuit's §5.1
    /// delivery wait to its admission latency.
    pub provisioning: ProvisionMode,
}

impl Clone for TenantSpec {
    fn clone(&self) -> TenantSpec {
        TenantSpec {
            name: self.name.clone(),
            graph: self.graph.clone(),
            mesh: self.mesh,
            clock: self.clock,
            seed: self.seed,
            kind: self.kind,
            chiplets: self.chiplets,
            spill: self.spill,
            workload: self.workload,
            policy: self.policy.as_ref().map(|p| p.box_clone()),
            tick_window: self.tick_window,
            provisioning: self.provisioning,
        }
    }
}

impl TenantSpec {
    /// A spec with the deployment builder's defaults: 4×4 mesh, 100 MHz,
    /// circuit backend, strict admission, steady workload, default
    /// control-plane policy and window.
    pub fn new(name: impl Into<String>, graph: TaskGraph) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            graph,
            mesh: (4, 4),
            clock: MegaHertz(100.0),
            seed: 0,
            kind: FabricKind::Circuit,
            chiplets: None,
            spill: false,
            workload: PhaseProfile::Steady,
            policy: None,
            tick_window: FabricController::DEFAULT_WINDOW,
            provisioning: ProvisionMode::Instant,
        }
    }

    /// Mesh dimensions.
    pub fn mesh(mut self, width: usize, height: usize) -> TenantSpec {
        self.mesh = (width, height);
        self
    }

    /// SoC clock.
    pub fn clock(mut self, clock: MegaHertz) -> TenantSpec {
        self.clock = clock;
        self
    }

    /// Traffic seed.
    pub fn seed(mut self, seed: u64) -> TenantSpec {
        self.seed = seed;
        self
    }

    /// Fabric backend.
    pub fn fabric(mut self, kind: FabricKind) -> TenantSpec {
        self.kind = kind;
        self
    }

    /// Deploy on a `cw × ch` chiplet grid of `kind` planes instead of a
    /// flat fabric (the grid must divide the mesh dimensions).
    pub fn chiplets(mut self, cw: usize, ch: usize) -> TenantSpec {
        self.chiplets = Some((cw, ch));
        self
    }

    /// Spill-tolerant admission.
    pub fn spill(mut self, spill: bool) -> TenantSpec {
        self.spill = spill;
        self
    }

    /// Offered-load profile.
    pub fn workload(mut self, workload: PhaseProfile) -> TenantSpec {
        self.workload = workload;
        self
    }

    /// Control-plane admission policy.
    pub fn policy(mut self, policy: Box<dyn AdmissionPolicy>) -> TenantSpec {
        self.policy = Some(policy);
        self
    }

    /// Cycles between control-plane ticks.
    pub fn tick_window(mut self, cycles: CycleCount) -> TenantSpec {
        self.tick_window = cycles;
        self
    }

    /// Cold-start provisioning mode.
    pub fn provisioning(mut self, mode: ProvisionMode) -> TenantSpec {
        self.provisioning = mode;
        self
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Admitted and provisioned; runs from the next batch.
    Admitted,
    /// Carrying offered load.
    Running,
    /// Offered load stopped; settling in-flight words to zero.
    Draining,
    /// Quiescent: everything accepted was delivered; no longer stepped.
    Retired,
}

/// One fleet member: a controlled deployment plus its lifecycle state and
/// offered-load profile.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    workload: PhaseProfile,
    dep: Deployment<FabricController>,
    state: TenantState,
    /// Fleet cycle at which the tenant was admitted.
    admitted_at: CycleCount,
}

impl Tenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TenantState {
        self.state
    }

    /// The tenant's deployment (fabric, controller, ledgers).
    pub fn deployment(&self) -> &Deployment<FabricController> {
        &self.dep
    }

    /// Per-tenant SLO numbers, derived from the deployment's ledgers, the
    /// fabric's per-stream telemetry and the controller's counters.
    pub fn slo(&self) -> TenantSlo {
        let stats = self.dep.fabric().stream_stats();
        let gt_p95 = worst_p95(&stats, StreamPlane::Circuit);
        // Best-effort service is every non-circuit stream: spilled ones
        // on a hybrid and every stream of a packet or deflection tenant.
        let be_p95 = [StreamPlane::Packet, StreamPlane::Spilled]
            .into_iter()
            .filter_map(|plane| best_p95(&stats, plane))
            .min();
        TenantSlo {
            name: self.name.clone(),
            state: self.state,
            injected: self.dep.total_injected(),
            delivered: self.dep.total_delivered(),
            in_flight: self.dep.total_injected() - self.dep.total_delivered(),
            overflows: self.dep.total_overflows(),
            gt_p95,
            be_p95,
            service_gap: match (gt_p95, be_p95) {
                (Some(gt), Some(be)) => Some(be as i64 - gt as i64),
                _ => None,
            },
            admission_latency: stats.iter().map(|s| s.reconfig_cycles).max().unwrap_or(0),
            controller: self.dep.fabric().controller_stats(),
        }
    }
}

/// Why a fleet snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRestoreError {
    /// The target fleet has a different tenant census than the snapshot —
    /// it was not built from the same spec list in the same order.
    Shape {
        /// Tenants in the target fleet.
        expected: usize,
        /// Tenants in the snapshot.
        found: usize,
    },
    /// A tenant's fabric refused its snapshot (backend mismatch).
    Tenant {
        /// Index of the offending tenant.
        index: usize,
        /// The underlying fabric error.
        source: SnapshotError,
    },
}

impl fmt::Display for FleetRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetRestoreError::Shape { expected, found } => write!(
                f,
                "fleet snapshot holds {found} tenants but the target fleet has {expected}"
            ),
            FleetRestoreError::Tenant { index, source } => {
                write!(f, "tenant {index} refused its snapshot: {source}")
            }
        }
    }
}

impl std::error::Error for FleetRestoreError {}

/// A batch-boundary checkpoint of a whole [`Fleet`]: every tenant's
/// [`DeploymentSnapshot`] plus the lifecycle states and the fleet clock.
/// Restore into a fleet built from the same [`TenantSpec`] list.
#[derive(Debug)]
pub struct FleetSnapshot {
    batch_cycles: CycleCount,
    batches_run: u64,
    cycles_run: CycleCount,
    tenants: Vec<TenantCheckpoint>,
}

#[derive(Debug)]
struct TenantCheckpoint {
    state: TenantState,
    admitted_at: CycleCount,
    dep: DeploymentSnapshot,
}

impl FleetSnapshot {
    /// Batches the captured fleet had run.
    pub fn batches_run(&self) -> u64 {
        self.batches_run
    }

    /// Tenants in the captured census.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }
}

/// A population of concurrent tenants stepped in lockstep batches over
/// the shared worker pool. See the module docs for the lifecycle,
/// snapshot and reporting model.
#[derive(Debug)]
pub struct Fleet {
    tenants: Vec<Tenant>,
    batch_cycles: CycleCount,
    batches_run: u64,
    cycles_run: CycleCount,
    parallelism: ParPolicy,
}

impl Fleet {
    /// An empty fleet advancing `batch_cycles` cycles per
    /// [`Fleet::step_batch`], fanned out under [`ParPolicy::Auto`].
    ///
    /// # Panics
    /// Panics when `batch_cycles` is zero.
    pub fn new(batch_cycles: CycleCount) -> Fleet {
        assert!(batch_cycles > 0, "a fleet batch must advance time");
        Fleet {
            tenants: Vec::new(),
            batch_cycles,
            batches_run: 0,
            cycles_run: 0,
            parallelism: ParPolicy::Auto,
        }
    }

    /// Override the fleet-level fan-out policy (tenants per batch are
    /// stepped through [`par_for_each_mut`] under it). Every policy
    /// produces bit-identical results; this only trades dispatch overhead
    /// against multi-core throughput.
    pub fn parallelism(mut self, policy: ParPolicy) -> Fleet {
        self.parallelism = policy;
        self
    }

    /// Build and admit one tenant from `spec`. Its controller is
    /// concretely typed so SLO reporting reads
    /// [`FabricController::controller_stats`] directly. Returns the
    /// tenant's index.
    pub fn admit(&mut self, spec: &TenantSpec) -> Result<usize, DeployError> {
        let mut builder = Deployment::builder(&spec.graph)
            .mesh(spec.mesh.0, spec.mesh.1)
            .clock(spec.clock)
            .seed(spec.seed)
            .fabric(spec.kind)
            .spill(spec.spill)
            .provisioning(spec.provisioning)
            .tick_window(spec.tick_window);
        if let Some((cw, ch)) = spec.chiplets {
            builder = builder.chiplets(cw, ch);
        }
        if let Some(policy) = &spec.policy {
            builder = builder.policy(policy.box_clone());
        }
        let dep = builder.build_controlled()?;
        self.tenants.push(Tenant {
            name: spec.name.clone(),
            workload: spec.workload,
            dep,
            state: TenantState::Admitted,
            admitted_at: self.cycles_run,
        });
        Ok(self.tenants.len() - 1)
    }

    /// The tenant census.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Number of tenants ever admitted (retired tenants stay in the
    /// census — their ledgers are part of the final report).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Batches run so far.
    pub fn batches_run(&self) -> u64 {
        self.batches_run
    }

    /// Fleet cycles elapsed (`batches_run × batch_cycles`).
    pub fn cycles_run(&self) -> CycleCount {
        self.cycles_run
    }

    /// Cycles per batch.
    pub fn batch_cycles(&self) -> CycleCount {
        self.batch_cycles
    }

    /// Advance every non-retired tenant by one batch. Workload phases are
    /// sampled once at the batch's start cycle (a pure function of the
    /// fleet clock, so replays re-derive identical phases) and held for
    /// the batch; the stepping itself fans out over the worker pool, one
    /// tenant per lane. Draining tenants settle instead of running and
    /// retire once their fabric is quiescent.
    pub fn step_batch(&mut self) {
        let now = self.cycles_run;
        let batch = self.batch_cycles;
        for t in &mut self.tenants {
            if matches!(t.state, TenantState::Admitted | TenantState::Running) {
                let n = t.dep.traffic_streams();
                for i in 0..n {
                    t.dep.set_load_scale(i, t.workload.scale(now, i, n));
                }
            }
        }
        par_for_each_mut(&mut self.tenants, self.parallelism, |t| match t.state {
            TenantState::Admitted | TenantState::Running => {
                t.state = TenantState::Running;
                t.dep.run(batch);
            }
            TenantState::Draining => {
                t.dep.settle(batch);
                if t.dep.fabric().is_quiescent() {
                    t.state = TenantState::Retired;
                }
            }
            TenantState::Retired => {}
        });
        self.batches_run += 1;
        self.cycles_run += batch;
    }

    /// Run `n` batches.
    pub fn run_batches(&mut self, n: u64) {
        for _ in 0..n {
            self.step_batch();
        }
    }

    /// Begin retiring tenant `index`: stop its offered load on every
    /// stream and mark it [`TenantState::Draining`]. Subsequent batches
    /// settle its in-flight words; it retires at the first batch boundary
    /// where its fabric is quiescent. Already-draining/retired tenants
    /// are left alone.
    pub fn drain(&mut self, index: usize) {
        let t = &mut self.tenants[index];
        if matches!(t.state, TenantState::Draining | TenantState::Retired) {
            return;
        }
        for stats in t.dep.fabric().stream_stats() {
            t.dep.stop_traffic(stats.id);
        }
        t.state = TenantState::Draining;
    }

    /// [`Fleet::drain`] every tenant.
    pub fn drain_all(&mut self) {
        for i in 0..self.tenants.len() {
            self.drain(i);
        }
    }

    /// Drain every tenant and step batches until the whole census is
    /// [`TenantState::Retired`] (or `max_batches` elapse). Returns `true`
    /// when everything retired — i.e. every accepted word was delivered
    /// and all fabrics are quiescent.
    pub fn retire_all(&mut self, max_batches: u64) -> bool {
        self.drain_all();
        for _ in 0..max_batches {
            if self.all_retired() {
                return true;
            }
            self.step_batch();
        }
        self.all_retired()
    }

    fn all_retired(&self) -> bool {
        self.tenants.iter().all(|t| t.state == TenantState::Retired)
    }

    /// Checkpoint the whole fleet at the current batch boundary.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            batch_cycles: self.batch_cycles,
            batches_run: self.batches_run,
            cycles_run: self.cycles_run,
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantCheckpoint {
                    state: t.state,
                    admitted_at: t.admitted_at,
                    dep: t.dep.snapshot(),
                })
                .collect(),
        }
    }

    /// Replace this fleet's state with `snapshot`'s. The target must hold
    /// the same tenant census — normally a fresh fleet built by
    /// re-[`Fleet::admit`]ing the same [`TenantSpec`] list in the same
    /// order. Continuing from a restored fleet is bit-identical to never
    /// pausing: the remaining batches replay the exact same phases,
    /// injections and policy decisions, so the final [`FleetSloReport`]s
    /// compare equal.
    pub fn restore(&mut self, snapshot: &FleetSnapshot) -> Result<(), FleetRestoreError> {
        if self.tenants.len() != snapshot.tenants.len() {
            return Err(FleetRestoreError::Shape {
                expected: self.tenants.len(),
                found: snapshot.tenants.len(),
            });
        }
        for (index, (t, cp)) in self
            .tenants
            .iter_mut()
            .zip(snapshot.tenants.iter())
            .enumerate()
        {
            t.dep
                .restore(&cp.dep)
                .map_err(|source| FleetRestoreError::Tenant { index, source })?;
            t.state = cp.state;
            t.admitted_at = cp.admitted_at;
        }
        self.batch_cycles = snapshot.batch_cycles;
        self.batches_run = snapshot.batches_run;
        self.cycles_run = snapshot.cycles_run;
        Ok(())
    }

    /// The aggregate SLO report over the current census. Every field is
    /// an integer (cycle counts, word counts, controller counters), so
    /// two reports from bit-identical runs compare `==` — the property
    /// the replay determinism gate asserts.
    pub fn slo_report(&self) -> FleetSloReport {
        let tenants: Vec<TenantSlo> = self.tenants.iter().map(Tenant::slo).collect();
        let census =
            |state: TenantState| self.tenants.iter().filter(|t| t.state == state).count() as u64;
        let mut controller = ControllerStats::default();
        for slo in &tenants {
            let c = slo.controller;
            controller.ticks += c.ticks;
            controller.promotions += c.promotions;
            controller.demotions += c.demotions;
            controller.readmissions += c.readmissions;
            controller.lost += c.lost;
            controller.suppressed_evictions += c.suppressed_evictions;
            controller.pointless_evictions += c.pointless_evictions;
        }
        FleetSloReport {
            batches: self.batches_run,
            batch_cycles: self.batch_cycles,
            injected: tenants.iter().map(|t| t.injected).sum(),
            delivered: tenants.iter().map(|t| t.delivered).sum(),
            overflows: tenants.iter().map(|t| t.overflows).sum(),
            admitted: census(TenantState::Admitted),
            running: census(TenantState::Running),
            draining: census(TenantState::Draining),
            retired: census(TenantState::Retired),
            worst_gt_p95: tenants.iter().filter_map(|t| t.gt_p95).max(),
            worst_be_p95: tenants.iter().filter_map(|t| t.be_p95).max(),
            max_admission_latency: tenants
                .iter()
                .map(|t| t.admission_latency)
                .max()
                .unwrap_or(0),
            eviction_flaps: controller.pointless_evictions,
            controller,
            tenants,
        }
    }
}

/// One tenant's SLO numbers. Integer-only, so reports compare exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSlo {
    /// Tenant name.
    pub name: String,
    /// Lifecycle state at report time.
    pub state: TenantState,
    /// Payload words accepted from the tenant's generators.
    pub injected: u64,
    /// Payload words delivered to destination tiles.
    pub delivered: u64,
    /// `injected − delivered`: words still in flight (zero once retired).
    pub in_flight: u64,
    /// Payload lost anywhere in the fabric (zero under correct flow
    /// control).
    pub overflows: u64,
    /// Worst p95 service latency among the tenant's circuit (GT) streams.
    pub gt_p95: Option<u64>,
    /// Best p95 service latency among the tenant's best-effort streams:
    /// every stream not on a circuit (spilled, packet or deflection).
    pub be_p95: Option<u64>,
    /// `be_p95 − gt_p95`: the guaranteed-throughput service gap — how
    /// many cycles of p95 latency a circuit buys over the packet plane.
    pub service_gap: Option<i64>,
    /// Largest §5.1 reconfiguration wait charged to any of the tenant's
    /// streams before it could carry traffic (admission latency).
    pub admission_latency: u64,
    /// The tenant controller's lifecycle counters.
    pub controller: ControllerStats,
}

/// The fleet-wide SLO aggregate: payload conservation, lifecycle census,
/// latency extremes and the summed control-plane counters. Integer-only
/// and `Eq` — two bit-identical runs produce `==` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSloReport {
    /// Batches run.
    pub batches: u64,
    /// Cycles per batch.
    pub batch_cycles: CycleCount,
    /// Total payload words accepted across the fleet.
    pub injected: u64,
    /// Total payload words delivered across the fleet.
    pub delivered: u64,
    /// Total payload lost across the fleet (zero under correct flow
    /// control).
    pub overflows: u64,
    /// Tenants admitted but not yet stepped.
    pub admitted: u64,
    /// Tenants carrying offered load.
    pub running: u64,
    /// Tenants settling towards retirement.
    pub draining: u64,
    /// Tenants fully retired (loss-free by construction).
    pub retired: u64,
    /// Worst GT p95 service latency anywhere in the fleet.
    pub worst_gt_p95: Option<u64>,
    /// Worst BE p95 service latency anywhere in the fleet.
    pub worst_be_p95: Option<u64>,
    /// Largest admission latency (reconfiguration wait) anywhere.
    pub max_admission_latency: u64,
    /// Total demote/readmit flaps (summed `pointless_evictions`) — the
    /// eviction-churn headline number.
    pub eviction_flaps: u64,
    /// Control-plane counters summed over every tenant controller.
    pub controller: ControllerStats,
    /// The per-tenant rows.
    pub tenants: Vec<TenantSlo>,
}

impl FleetSloReport {
    /// `true` when every word accepted anywhere was delivered and nothing
    /// overflowed — the zero-loss SLO the fleet tests enforce.
    pub fn loss_free(&self) -> bool {
        self.injected == self.delivered && self.overflows == 0
    }
}

/// The outcome of [`flap_probe`]: the same bursty tenant's eviction
/// behaviour under the raw single-window [`LoadDemotion`] baseline and
/// under [`LoadDemotion::hardened`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapProbe {
    /// Demote/readmit flaps under the unhardened baseline.
    pub baseline_flaps: u64,
    /// Flaps the baseline's cooldown additionally had to suppress.
    pub baseline_suppressed: u64,
    /// Flaps under the hardened (EWMA + min-dwell) policy. Must be zero.
    pub hardened_flaps: u64,
    /// Demotions the hardened policy started at all. Must be zero.
    pub hardened_demotions: u64,
}

impl FlapProbe {
    /// The hardening claim: the bursty circuit flaps under raw
    /// measurement and never under EWMA + minimum dwell.
    pub fn hardening_holds(&self) -> bool {
        self.baseline_flaps > 0 && self.hardened_flaps == 0 && self.hardened_demotions == 0
    }
}

/// The packaged eviction-stability experiment: one oversubscribed tenant
/// (the canonical 3×1 line at 25 MHz — a heavy GT circuit plus a spilled
/// stream keeping demotion pressure alive) driven by a bursty on/off
/// profile aligned to the 64-cycle policy window (three windows on, one
/// off), run for `batches` windows under the raw [`LoadDemotion`]
/// baseline and again under [`LoadDemotion::hardened`]. The raw
/// measurement reads every off-window as abandonment and flaps; the
/// EWMA + minimum-dwell policy must ride the bursts out without a single
/// demotion.
pub fn flap_probe(batches: u64) -> FlapProbe {
    let run = |policy: Box<dyn AdmissionPolicy>| -> ControllerStats {
        let ccn = Ccn::new(Mesh::new(3, 1), RouterParams::paper(), MegaHertz(25.0));
        let graph = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let spec = TenantSpec::new("flap-probe", graph)
            .mesh(3, 1)
            .clock(MegaHertz(25.0))
            .seed(17)
            .fabric(FabricKind::Hybrid)
            .workload(PhaseProfile::BurstyOnOff {
                period: 256,
                on: 192,
            })
            .policy(policy)
            .tick_window(64);
        let mut fleet = Fleet::new(64).parallelism(ParPolicy::Sequential);
        fleet.admit(&spec).expect("the probe tenant always admits");
        fleet.run_batches(batches);
        fleet.tenants()[0].deployment().fabric().controller_stats()
    };
    let floor = 0.25;
    let baseline = run(Box::new(LoadDemotion::new(MegaHertz(25.0), floor)));
    let hardened = run(Box::new(LoadDemotion::hardened(MegaHertz(25.0), floor)));
    FlapProbe {
        baseline_flaps: baseline.pointless_evictions,
        baseline_suppressed: baseline.suppressed_evictions,
        hardened_flaps: hardened.pointless_evictions,
        hardened_demotions: hardened.demotions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::synthetic::streaming_pipeline;
    use noc_sim::units::Bandwidth;

    fn small_fleet(tenants: usize) -> (Fleet, Vec<TenantSpec>) {
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|i| {
                let kind = FabricKind::ALL[i % FabricKind::ALL.len()];
                TenantSpec::new(
                    format!("tenant-{i}"),
                    streaming_pipeline(3, Bandwidth(60.0)),
                )
                .mesh(3, 3)
                .seed(i as u64)
                .fabric(kind)
                .workload(match i % 3 {
                    0 => PhaseProfile::Steady,
                    1 => PhaseProfile::DiurnalRamp {
                        period: 512,
                        floor: 0.3,
                    },
                    _ => PhaseProfile::HotspotFlip {
                        period: 128,
                        background: 0.2,
                    },
                })
            })
            .collect();
        let mut fleet = Fleet::new(64);
        for spec in &specs {
            fleet.admit(spec).expect("feasible tenants admit");
        }
        (fleet, specs)
    }

    #[test]
    fn a_fleet_runs_and_retires_loss_free() {
        let (mut fleet, _) = small_fleet(6);
        assert!(fleet
            .tenants()
            .iter()
            .all(|t| t.state() == TenantState::Admitted));
        fleet.run_batches(8);
        assert!(fleet
            .tenants()
            .iter()
            .all(|t| t.state() == TenantState::Running));
        assert!(fleet.retire_all(200), "every tenant settles to quiescence");
        let report = fleet.slo_report();
        assert_eq!(report.retired, 6);
        assert!(report.injected > 0);
        assert!(report.loss_free(), "retirement is loss-free: {report:?}");
        assert!(report
            .tenants
            .iter()
            .all(|t| t.in_flight == 0 && t.overflows == 0));
    }

    #[test]
    fn a_restored_fleet_replays_bit_identically() {
        let (mut original, specs) = small_fleet(4);
        original.run_batches(5);
        let checkpoint = original.snapshot();
        original.run_batches(5);
        original.retire_all(200);
        let final_report = original.slo_report();

        let mut replay = Fleet::new(64);
        for spec in &specs {
            replay.admit(spec).unwrap();
        }
        replay.restore(&checkpoint).expect("same census restores");
        assert_eq!(replay.batches_run(), 5);
        replay.run_batches(5);
        replay.retire_all(200);
        assert_eq!(
            replay.slo_report(),
            final_report,
            "replay from the checkpoint diverged"
        );
    }

    #[test]
    fn a_chiplet_tenant_runs_and_replays_bit_identically() {
        // A mixed census: one chiplet-hierarchy tenant (2×2 grid of hybrid
        // planes on a 4×4 mesh — six pipeline stages force cross-chiplet
        // streams through the NoI) next to a flat tenant. Both the
        // loss-free retirement SLO and the mid-run snapshot/replay gate
        // must hold over the chiplet fabric's full state.
        let specs = vec![
            TenantSpec::new("chiplet-0", streaming_pipeline(6, Bandwidth(60.0)))
                .mesh(4, 4)
                .seed(7)
                .fabric(FabricKind::Hybrid)
                .chiplets(2, 2)
                .workload(PhaseProfile::DiurnalRamp {
                    period: 512,
                    floor: 0.3,
                }),
            TenantSpec::new("flat-1", streaming_pipeline(3, Bandwidth(60.0)))
                .mesh(3, 3)
                .seed(8)
                .fabric(FabricKind::Circuit),
        ];
        let build = || {
            let mut fleet = Fleet::new(64);
            for spec in &specs {
                fleet.admit(spec).expect("feasible tenants admit");
            }
            fleet
        };
        let mut original = build();
        original.run_batches(5);
        let checkpoint = original.snapshot();
        original.run_batches(5);
        assert!(original.retire_all(200), "chiplet tenant settles");
        let final_report = original.slo_report();
        assert!(final_report.loss_free(), "{final_report:?}");
        assert!(final_report.tenants[0].injected > 0);

        let mut replay = build();
        replay.restore(&checkpoint).expect("same census restores");
        replay.run_batches(5);
        replay.retire_all(200);
        assert_eq!(
            replay.slo_report(),
            final_report,
            "chiplet replay from the checkpoint diverged"
        );
    }

    #[test]
    fn restore_refuses_a_different_census() {
        let (fleet_a, _) = small_fleet(3);
        let (mut fleet_b, _) = small_fleet(2);
        let err = fleet_b.restore(&fleet_a.snapshot()).unwrap_err();
        assert_eq!(
            err,
            FleetRestoreError::Shape {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn hardened_demotion_is_flap_free_where_the_baseline_flaps() {
        let probe = flap_probe(40);
        assert!(
            probe.baseline_flaps > 0,
            "premise: raw measurement flaps the bursty circuit: {probe:?}"
        );
        assert_eq!(probe.hardened_flaps, 0, "{probe:?}");
        assert_eq!(probe.hardened_demotions, 0, "{probe:?}");
        assert!(probe.hardening_holds());
    }
}
