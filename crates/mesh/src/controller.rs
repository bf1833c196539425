//! The control plane: a policy-driven [`FabricController`] over any
//! [`Fabric`].
//!
//! The data plane's lifecycle verbs — [`Fabric::release`],
//! [`Fabric::admit`], [`Fabric::provision_with`] — are mechanisms; *which*
//! stream deserves a freed circuit, and *when* an under-used circuit
//! should give its lanes up, is policy. Profiled hybrid switching
//! (arXiv:2005.08478) makes that choice from measured traffic, and
//! dynamic circuit routing (arXiv:cs/0503066) treats setup and teardown as
//! phased operations with real latency. This module is that missing
//! layer:
//!
//! * [`FabricController`] owns a `Box<dyn Fabric>` and is itself a
//!   [`Fabric`], so everything written against the trait — the
//!   [`crate::deployment`] builder, the benches, the conformance suite —
//!   runs unchanged over a controlled fabric.
//! * [`AdmissionPolicy`] is the pluggable brain: each policy window the
//!   controller hands it the measured per-stream telemetry
//!   ([`StreamStats`] joined with each stream's declared
//!   [`StreamDemand`]) and executes the [`PolicyAction`]s it returns —
//!   all via the existing `release`/`admit` verbs, never behind the
//!   fabric's back.
//! * Three policies ship: [`FirstFit`] (promote the lowest-id spilled
//!   stream whenever a circuit is free), [`ProfiledPromotion`] (rank
//!   spilled streams by measured p95 service latency, then by delivered
//!   words — the stream suffering most gets the freed circuit first) and
//!   [`LoadDemotion`] (evict circuits whose measured load stays far below
//!   their declared demand, but only while a spilled stream is actively
//!   moving words — eviction without live pressure would just flap).
//!
//! Promotions are **churn-free**: the controller probes
//! [`Fabric::can_admit_circuit`] first, admits the demand onto the
//! circuit plane, and only then retires the old spilled session — with
//! [`ReleaseMode::Drain`], so not a single best-effort word is lost in
//! the hand-over. Demotions drain too; the demoted demand is re-admitted
//! in a *later* tick, after promotions have had first claim on the freed
//! lanes (on a hybrid it then lands on the packet plane as spillover).

use crate::ccn::Mapping;
use crate::fabric::{
    EnergyModel, Fabric, FabricKind, FabricSnapshot, ProvisionError, SnapshotError,
};
use crate::stream::{
    AdmitError, ProvisionMode, ReleaseMode, StreamDemand, StreamId, StreamPlane, StreamStats,
};
use crate::topology::Mesh;
use noc_power::estimator::PowerReport;
use noc_sim::activity::ComponentActivity;
use noc_sim::par::ParPolicy;
use noc_sim::time::{Cycle, CycleCount};
use noc_sim::units::{Bandwidth, FemtoJoules, MegaHertz, SquareMicroMeters};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One live stream as a policy sees it: measured telemetry joined with
/// the declared ask, plus the words moved during the window that just
/// closed (lifetime counters alone cannot show a circuit going idle).
#[derive(Debug, Clone)]
pub struct PolicyStream {
    /// Measured per-stream telemetry, cumulative since admission.
    pub stats: StreamStats,
    /// The stream's declared guaranteed-throughput ask.
    pub demand: StreamDemand,
    /// Words accepted during the last policy window.
    pub window_injected: u64,
    /// Words delivered during the last policy window.
    pub window_delivered: u64,
}

/// Everything an [`AdmissionPolicy`] sees at a tick.
#[derive(Debug)]
pub struct PolicyView<'a> {
    /// Live (active, policy-managed) streams; draining and released
    /// sessions are excluded.
    pub streams: &'a [PolicyStream],
    /// Cycles since the previous tick (the measurement window behind
    /// `window_injected`/`window_delivered`).
    pub window: CycleCount,
}

impl PolicyView<'_> {
    /// The spilled streams, in stream-id order.
    pub fn spilled(&self) -> impl Iterator<Item = &PolicyStream> {
        self.streams
            .iter()
            .filter(|s| s.stats.plane == StreamPlane::Spilled)
    }

    /// The circuit-plane streams, in stream-id order.
    pub fn circuits(&self) -> impl Iterator<Item = &PolicyStream> {
        self.streams
            .iter()
            .filter(|s| s.stats.plane == StreamPlane::Circuit)
    }
}

/// A lifecycle move an [`AdmissionPolicy`] asks the controller to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Move this spilled stream onto circuit lanes. The controller
    /// executes it only when [`Fabric::can_admit_circuit`] confirms lanes
    /// are free: it admits the demand first, then drains the old spilled
    /// session loss-free and maps the handles in the [`TickReport`].
    Promote(StreamId),
    /// Evict this circuit-plane stream: drain it loss-free, free its
    /// lanes, and re-admit its demand in a later tick — after promotions
    /// have had first claim on the lanes (on a hybrid the re-admission
    /// then spills to the packet plane).
    Demote(StreamId),
}

/// A pluggable admission policy: the profiled-selection brain of the
/// control plane. Object-safe — the controller holds a
/// `Box<dyn AdmissionPolicy>`.
///
/// ```
/// use noc_mesh::controller::{AdmissionPolicy, PolicyAction, PolicyView};
///
/// /// Promote every spilled stream, in id order (the controller still
/// /// probes lane feasibility before acting).
/// #[derive(Debug, Clone)]
/// struct PromoteAll;
///
/// impl AdmissionPolicy for PromoteAll {
///     fn name(&self) -> &'static str {
///         "promote-all"
///     }
///     fn decide(&mut self, view: &PolicyView<'_>) -> Vec<PolicyAction> {
///         view.spilled()
///             .map(|s| PolicyAction::Promote(s.stats.id))
///             .collect()
///     }
///     fn box_clone(&self) -> Box<dyn AdmissionPolicy> {
///         Box::new(self.clone())
///     }
/// }
///
/// assert_eq!(PromoteAll.name(), "promote-all");
/// ```
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Short policy name (benches print it).
    fn name(&self) -> &'static str;

    /// Inspect the window's measurements and propose lifecycle moves.
    /// Infeasible proposals are dropped by the controller, so a policy
    /// may freely rank every candidate.
    fn decide(&mut self, view: &PolicyView<'_>) -> Vec<PolicyAction>;

    /// An owned copy of this policy, *including* any accumulated
    /// measurement state (EWMA estimates, dwell counters). Controller
    /// snapshots carry the policy through this, so a restored replay
    /// makes bit-identical decisions; fleet specs use it to stamp out
    /// one configured policy per tenant.
    fn box_clone(&self) -> Box<dyn AdmissionPolicy>;
}

/// The naive baseline: whenever circuit lanes are free, promote the
/// lowest-id spilled stream — admission order, no profiling.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstFit;

impl AdmissionPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn decide(&mut self, view: &PolicyView<'_>) -> Vec<PolicyAction> {
        view.spilled()
            .map(|s| PolicyAction::Promote(s.stats.id))
            .collect()
    }

    fn box_clone(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }
}

/// Profiled promotion (arXiv:2005.08478): rank spilled streams by
/// *measured* suffering — largest p95 service latency first, then most
/// delivered words per window (the busiest victim), then lowest id — and
/// hand freed circuits to the worst first.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProfiledPromotion;

impl AdmissionPolicy for ProfiledPromotion {
    fn name(&self) -> &'static str {
        "profiled-promotion"
    }

    fn decide(&mut self, view: &PolicyView<'_>) -> Vec<PolicyAction> {
        let mut spilled: Vec<&PolicyStream> = view.spilled().collect();
        spilled.sort_by(|a, b| {
            let pa = a.stats.latency.p95().unwrap_or(0);
            let pb = b.stats.latency.p95().unwrap_or(0);
            pb.cmp(&pa)
                .then(b.window_delivered.cmp(&a.window_delivered))
                .then(a.stats.id.cmp(&b.stats.id))
        });
        spilled
            .into_iter()
            .map(|s| PolicyAction::Promote(s.stats.id))
            .collect()
    }

    fn box_clone(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }
}

/// Load-based demotion: evict circuits whose *measured* delivered
/// bandwidth stayed below `utilisation_floor` of their declared demand
/// for a full window — but only while spilled streams are waiting for
/// lanes (eviction without pressure would only flap). Pair it with a
/// promotion policy via [`LoadDemotion::then`] to complete the loop.
///
/// The raw single-window measurement is fragile under *bursty* traffic:
/// a stream with a 75% duty cycle reads as dead every off-window, gets
/// evicted, and is re-admitted straight back — an eviction flap. The
/// hardened form ([`LoadDemotion::hardened`], or [`LoadDemotion::with_ewma`]
/// / [`LoadDemotion::with_min_dwell`] individually) fixes both failure
/// modes: an exponentially weighted moving average smooths the load
/// estimate over several windows (so the off-phase of a burst no longer
/// looks like abandonment), and a per-circuit minimum dwell time keeps
/// freshly admitted circuits safe until enough windows of evidence have
/// accumulated.
#[derive(Debug)]
pub struct LoadDemotion {
    /// The controller clock, to convert words/window into bandwidth.
    clock: MegaHertz,
    /// Demote below this fraction of declared demand (e.g. 0.25).
    floor: f64,
    /// Promotion policy run on the same view (demotions are pointless
    /// without someone to hand the lanes to).
    promote: Option<Box<dyn AdmissionPolicy>>,
    /// EWMA smoothing factor α (`estimate = α·window + (1−α)·previous`);
    /// `None` measures each window raw — the unhardened baseline.
    ewma_alpha: Option<f64>,
    /// Windows a circuit must have been observed before it is eligible
    /// for eviction.
    min_dwell: u32,
    /// Per-circuit smoothed bandwidth estimate (Mbit/s), keyed by
    /// session id. A re-admission gets a fresh session id and therefore
    /// a fresh estimate.
    ewma: BTreeMap<u32, f64>,
    /// Per-circuit count of observed windows (dwell), keyed likewise.
    dwell: BTreeMap<u32, u32>,
}

impl LoadDemotion {
    /// [`LoadDemotion::hardened`]'s EWMA smoothing factor: ~3 windows of
    /// memory, enough to ride out single off-windows of a bursty phase.
    pub const DEFAULT_EWMA_ALPHA: f64 = 0.3;

    /// [`LoadDemotion::hardened`]'s minimum dwell in policy windows.
    pub const DEFAULT_MIN_DWELL: u32 = 4;

    /// Demote circuits measured below `floor` (a fraction in `0.0..1.0`)
    /// of their declared demand at SoC clock `clock`. Raw per-window
    /// measurement, no dwell protection — the baseline that flaps under
    /// bursty load.
    pub fn new(clock: MegaHertz, floor: f64) -> LoadDemotion {
        assert!((0.0..=1.0).contains(&floor), "floor is a fraction");
        LoadDemotion {
            clock,
            floor,
            promote: None,
            ewma_alpha: None,
            min_dwell: 0,
            ewma: BTreeMap::new(),
            dwell: BTreeMap::new(),
        }
    }

    /// The fleet-hardened variant: [`LoadDemotion::new`] plus EWMA
    /// smoothing ([`LoadDemotion::DEFAULT_EWMA_ALPHA`]) and a minimum
    /// dwell ([`LoadDemotion::DEFAULT_MIN_DWELL`]).
    pub fn hardened(clock: MegaHertz, floor: f64) -> LoadDemotion {
        LoadDemotion::new(clock, floor)
            .with_ewma(Self::DEFAULT_EWMA_ALPHA)
            .with_min_dwell(Self::DEFAULT_MIN_DWELL)
    }

    /// Smooth the load estimate with an EWMA of factor `alpha` in
    /// `(0.0, 1.0]` (1.0 degenerates to the raw window measurement).
    ///
    /// # Panics
    /// Panics on an `alpha` outside `(0.0, 1.0]`.
    pub fn with_ewma(mut self, alpha: f64) -> LoadDemotion {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha is a weight in (0, 1]"
        );
        self.ewma_alpha = Some(alpha);
        self
    }

    /// Protect circuits for their first `windows` policy windows.
    pub fn with_min_dwell(mut self, windows: u32) -> LoadDemotion {
        self.min_dwell = windows;
        self
    }

    /// Also run `promote` each tick (its actions follow the demotions).
    pub fn then(mut self, promote: Box<dyn AdmissionPolicy>) -> LoadDemotion {
        self.promote = Some(promote);
        self
    }

    /// Measured delivered bandwidth of one stream over the last window.
    fn measured(&self, s: &PolicyStream, window: CycleCount) -> Bandwidth {
        // words × 16 bit / (window cycles / clock MHz) = Mbit/s.
        Bandwidth(s.window_delivered as f64 * 16.0 * self.clock.value() / window.max(1) as f64)
    }
}

impl AdmissionPolicy for LoadDemotion {
    fn name(&self) -> &'static str {
        if self.ewma_alpha.is_some() || self.min_dwell > 0 {
            "load-demotion-hardened"
        } else {
            "load-demotion"
        }
    }

    fn decide(&mut self, view: &PolicyView<'_>) -> Vec<PolicyAction> {
        let mut actions = Vec::new();
        // Advance every circuit's estimator each window, pressure or
        // not: a stream's measured history must not depend on whether
        // anyone happened to be waiting for its lanes at the time.
        let mut estimates: Vec<(StreamId, f64, u32)> = Vec::new();
        for s in view.circuits() {
            let id = s.stats.id;
            let raw = self.measured(s, view.window).value();
            let smoothed = match self.ewma_alpha {
                Some(alpha) => {
                    let e = self.ewma.entry(id.0).or_insert(raw);
                    *e = alpha * raw + (1.0 - alpha) * *e;
                    *e
                }
                None => raw,
            };
            let dwell = self.dwell.entry(id.0).or_insert(0);
            *dwell = dwell.saturating_add(1);
            estimates.push((id, smoothed, *dwell));
        }
        // Forget estimator state of sessions no longer on circuit lanes
        // (demoted, promoted away or released): a later re-admission is
        // a new session with a new id and starts fresh.
        self.ewma
            .retain(|id, _| estimates.iter().any(|(e, _, _)| e.0 == *id));
        self.dwell
            .retain(|id, _| estimates.iter().any(|(e, _, _)| e.0 == *id));
        // Demote only under *active* pressure: a spilled stream that
        // actually moved words this window wants the lanes. (A merely
        // existing spilled stream is not enough — evicting for an idle
        // candidate would demote, promote, re-spill and repeat forever.)
        let pressure = view
            .spilled()
            .any(|s| s.window_injected > 0 || s.window_delivered > 0);
        if pressure {
            for s in view.circuits() {
                let Some(&(_, estimate, dwell)) =
                    estimates.iter().find(|(id, _, _)| *id == s.stats.id)
                else {
                    continue;
                };
                if dwell > self.min_dwell && estimate < self.floor * s.demand.demand.value() {
                    actions.push(PolicyAction::Demote(s.stats.id));
                }
            }
        }
        if let Some(promote) = &mut self.promote {
            actions.extend(promote.decide(view));
        }
        actions
    }

    fn box_clone(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(LoadDemotion {
            clock: self.clock,
            floor: self.floor,
            promote: self.promote.as_ref().map(|p| p.box_clone()),
            ewma_alpha: self.ewma_alpha,
            min_dwell: self.min_dwell,
            ewma: self.ewma.clone(),
            dwell: self.dwell.clone(),
        })
    }
}

/// One executed promotion: the spilled session `from` was drained and its
/// demand re-admitted onto circuit lanes as session `to`. Telemetry
/// splits cleanly at the hand-over: `from`'s histogram is the spilled
/// phase, `to`'s is the post-promotion phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// The retired spilled session (drained loss-free, still drainable).
    pub from: StreamId,
    /// The circuit session now serving the demand.
    pub to: StreamId,
}

/// What one [`FabricController::tick`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Spilled sessions promoted onto freed circuit lanes.
    pub promoted: Vec<Promotion>,
    /// Circuit sessions whose loss-free eviction drain was started.
    pub demotion_started: Vec<StreamId>,
    /// Demoted demands re-admitted after their drain completed, as
    /// `(old session, new session)` — on a hybrid the new session is
    /// spillover when promotions took the lanes.
    pub readmitted: Vec<Promotion>,
    /// Demoted demands whose re-admission failed outright (no circuit
    /// lanes *and* no best-effort plane); their streams are gone.
    pub lost: Vec<StreamId>,
}

impl TickReport {
    /// Did this tick change anything?
    pub fn is_empty(&self) -> bool {
        self.promoted.is_empty()
            && self.demotion_started.is_empty()
            && self.readmitted.is_empty()
            && self.lost.is_empty()
    }
}

/// Cumulative control-plane counters since the last provision: what the
/// policy loop *did*, fabric-generically, without replaying
/// [`TickReport`]s. The fleet SLO report aggregates these per tenant;
/// `pointless_evictions` is the eviction-flap metric the hardened
/// [`LoadDemotion`] is gated on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Policy ticks run (automatic and hand-driven).
    pub ticks: u64,
    /// Spilled sessions promoted onto circuit lanes.
    pub promotions: u64,
    /// Eviction drains started.
    pub demotions: u64,
    /// Demoted demands re-admitted after their drain completed.
    pub readmissions: u64,
    /// Demoted demands whose re-admission failed outright (stream gone).
    pub lost: u64,
    /// Demote actions the controller refused because the demand was in
    /// its post-flap cooldown.
    pub suppressed_evictions: u64,
    /// Evictions that turned out pointless — the demoted demand's
    /// re-admission landed straight back on circuit lanes because no
    /// promotion wanted them. Each one is a demote/readmit flap.
    pub pointless_evictions: u64,
}

/// The policy-driven control plane over any [`Fabric`] — and itself a
/// [`Fabric`], so deployments, benches and the conformance suite drive a
/// controlled fabric through the exact same trait.
///
/// The controller remembers every live stream's declared
/// [`StreamDemand`] (learned at `provision`/`admit` time), and every
/// `window` cycles of [`Fabric::step`] it runs one [`FabricController::tick`]:
///
/// 1. build a [`PolicyView`] (measured stats joined with demands, plus
///    per-window word deltas) and ask the [`AdmissionPolicy`] to decide;
/// 2. execute `Promote` actions churn-free — probe
///    [`Fabric::can_admit_circuit`], admit, then drain the old spilled
///    session loss-free;
/// 3. re-admit previously demoted demands whose drains completed (after
///    promotions, so the evicted stream cannot just take its lanes back);
/// 4. start `Demote` drains.
///
/// ```
/// use noc_apps::taskgraph::{TaskGraph, TrafficShape};
/// use noc_core::params::RouterParams;
/// use noc_mesh::ccn::Ccn;
/// use noc_mesh::controller::{FabricController, ProfiledPromotion};
/// use noc_mesh::fabric::Fabric;
/// use noc_mesh::hybrid::HybridFabric;
/// use noc_mesh::stream::{ProvisionMode, ReleaseMode, StreamPlane};
/// use noc_mesh::tile::default_tile_kinds;
/// use noc_mesh::topology::Mesh;
/// use noc_sim::units::MegaHertz;
///
/// // The canonical oversubscribed line: the light stream spills.
/// let mesh = Mesh::new(3, 1);
/// let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
/// let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
/// let mapping = ccn.map_with_spill(&g, &default_tile_kinds(&mesh)).unwrap();
///
/// let mut ctl = FabricController::new(
///     Box::new(HybridFabric::paper(mesh)),
///     Box::new(ProfiledPromotion),
/// )
/// .with_window(64);
/// // Cold start over the BE network: §5.1 delivery charged per stream.
/// let ids = ctl
///     .provision_with(&mapping, ProvisionMode::BeDelivered)
///     .unwrap();
///
/// // Drain-release the heavy circuit: loss-free teardown, and the next
/// // tick promotes the spilled stream onto the freed lanes.
/// ctl.release(ids[0], ReleaseMode::Drain).unwrap();
/// ctl.run(256);
/// let promoted = ctl
///     .take_reports()
///     .iter()
///     .flat_map(|t| t.promoted.clone())
///     .next()
///     .expect("the spilled stream is promoted");
/// assert_eq!(promoted.from, ids[1]);
/// let stats = ctl.stream_stats();
/// let s = stats.iter().find(|s| s.id == promoted.to).unwrap();
/// assert_eq!(s.plane, StreamPlane::Circuit);
/// assert!(s.reconfig_cycles > 0, "promotion pays BE delivery");
/// ```
pub struct FabricController {
    fabric: Box<dyn Fabric>,
    policy: Box<dyn AdmissionPolicy>,
    /// Policy window in cycles.
    window: CycleCount,
    since_tick: CycleCount,
    /// Declared demand per live, policy-managed stream.
    demands: HashMap<u32, StreamDemand>,
    /// `(injected, delivered)` snapshot per stream at the last tick.
    last_counts: HashMap<u32, (u64, u64)>,
    /// Demoted streams whose drains are pending re-admission.
    demoting: Vec<StreamId>,
    /// Tick outcomes since the last [`FabricController::take_reports`].
    reports: Vec<TickReport>,
    /// Hand-overs not yet collected by [`Fabric::take_handle_moves`]
    /// (how `Deployment` follows promotions without seeing TickReports).
    pending_moves: Vec<(StreamId, Option<StreamId>)>,
    /// Demotion hysteresis, keyed by the demand's `(src, dst)` pair:
    /// ticks to wait before evicting the same demand again, after an
    /// eviction turned out pointless (its re-admission landed straight
    /// back on circuit lanes because no promotion claimed them).
    cooldown: BTreeMap<(usize, usize), u32>,
    /// Cumulative action counters since the last provision.
    stats: ControllerStats,
}

impl fmt::Debug for FabricController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricController")
            .field("kind", &self.fabric.kind())
            .field("policy", &self.policy)
            .field("window", &self.window)
            .field("live_streams", &self.demands.len())
            .field("demoting", &self.demoting)
            .finish_non_exhaustive()
    }
}

impl FabricController {
    /// The default policy window: how many [`Fabric::step`]s between
    /// automatic [`FabricController::tick`]s.
    pub const DEFAULT_WINDOW: CycleCount = 256;

    /// Ticks a demand sits out after a pointless eviction (its
    /// re-admission landed straight back on circuit lanes): demotion
    /// hysteresis, so `LoadDemotion` without a taker cannot flap a
    /// circuit down and up every window.
    pub const DEMOTION_COOLDOWN: u32 = 8;

    /// A controller over `fabric` running `policy` every
    /// [`FabricController::DEFAULT_WINDOW`] cycles.
    pub fn new(fabric: Box<dyn Fabric>, policy: Box<dyn AdmissionPolicy>) -> FabricController {
        FabricController {
            fabric,
            policy,
            window: Self::DEFAULT_WINDOW,
            since_tick: 0,
            demands: HashMap::new(),
            last_counts: HashMap::new(),
            demoting: Vec::new(),
            reports: Vec::new(),
            pending_moves: Vec::new(),
            cooldown: BTreeMap::new(),
            stats: ControllerStats::default(),
        }
    }

    /// Set the policy window (cycles between automatic ticks).
    ///
    /// # Panics
    /// Panics on a zero window.
    pub fn with_window(mut self, window: CycleCount) -> FabricController {
        assert!(window > 0, "a zero policy window never ticks");
        self.window = window;
        self
    }

    /// The controlled fabric (inspection).
    pub fn inner(&self) -> &dyn Fabric {
        &*self.fabric
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Cumulative control-plane action counters since the last
    /// provision: ticks run, promotions, demotions, re-admissions,
    /// losses, and the two eviction-hygiene counters (suppressed and
    /// pointless evictions). Cheap — a `Copy` of live counters, no
    /// [`TickReport`] replay.
    pub fn controller_stats(&self) -> ControllerStats {
        self.stats
    }

    /// The declared demand the controller recorded for `stream` (live
    /// streams only — releases forget their demand).
    pub fn demand_of(&self, stream: StreamId) -> Option<StreamDemand> {
        self.demands.get(&stream.0).copied()
    }

    /// Drain the accumulated [`TickReport`]s (automatic ticks fire inside
    /// [`Fabric::step`]; this is how callers observe promotions and learn
    /// replacement handles).
    pub fn take_reports(&mut self) -> Vec<TickReport> {
        std::mem::take(&mut self.reports)
    }

    /// Build the policy view from one telemetry fetch: live,
    /// policy-managed streams joined with their demands and per-window
    /// word deltas.
    fn view_streams(&self, stats: &[StreamStats]) -> Vec<PolicyStream> {
        stats
            .iter()
            .filter(|s| s.active)
            .filter_map(|stats| {
                let demand = *self.demands.get(&stats.id.0)?;
                let (li, ld) = self.last_counts.get(&stats.id.0).copied().unwrap_or((0, 0));
                Some(PolicyStream {
                    window_injected: stats.injected_words - li,
                    window_delivered: stats.delivered_words - ld,
                    stats: stats.clone(),
                    demand,
                })
            })
            .collect()
    }

    /// Promote one spilled stream: probe, admit onto circuits, then
    /// drain the old session loss-free. Returns the hand-over on
    /// success; `None` leaves everything untouched.
    fn promote(&mut self, from: StreamId) -> Option<Promotion> {
        let demand = *self.demands.get(&from.0)?;
        if !self.fabric.can_admit_circuit(&demand) {
            return None;
        }
        let to = self.fabric.admit(&demand).ok()?;
        // Hand over loss-free: in-flight best-effort words still land on
        // the old handle, which a drain keeps valid for collection.
        if self.fabric.release(from, ReleaseMode::Drain).is_err() {
            // The old session vanished under us (caller released it);
            // keep the new one — it serves the recorded demand.
        }
        self.demands.remove(&from.0);
        self.demands.insert(to.0, demand);
        Some(Promotion { from, to })
    }

    /// One pass of the policy loop. Runs automatically every `window`
    /// cycles of [`Fabric::step`]; callable directly for hand-driven
    /// rigs. Returns what changed.
    pub fn tick(&mut self) -> TickReport {
        let mut report = TickReport::default();
        self.stats.ticks += 1;
        self.cooldown.retain(|_, ticks| {
            *ticks -= 1;
            *ticks > 0
        });

        // 1. One telemetry fetch serves the whole tick: the policy view
        //    and the drain-completion scan below (histogram clones are
        //    not free on the stepping path).
        let stats = self.fabric.stream_stats();
        let streams = self.view_streams(&stats);
        let view = PolicyView {
            streams: &streams,
            window: self.window,
        };
        let actions = self.policy.decide(&view);

        // 2. Promotions first: they have first claim on freed lanes.
        let mut demotions = Vec::new();
        for action in actions {
            match action {
                PolicyAction::Promote(id) => {
                    // Only live spilled sessions promote; the probe plus
                    // plane check keep this churn-free.
                    let is_spilled = streams
                        .iter()
                        .any(|s| s.stats.id == id && s.stats.plane == StreamPlane::Spilled);
                    if is_spilled {
                        if let Some(p) = self.promote(id) {
                            self.pending_moves.push((p.from, Some(p.to)));
                            report.promoted.push(p);
                        }
                    }
                }
                PolicyAction::Demote(id) => demotions.push(id),
            }
        }

        // 3. Re-admit demoted demands whose loss-free drain completed —
        //    after promotions, so an evicted stream cannot reclaim its own
        //    lanes ahead of the spilled streams the eviction was for. When
        //    the re-admission *does* land back on circuit lanes (nobody
        //    claimed them), the eviction was pointless: re-evicting the
        //    same demand is suppressed for DEMOTION_COOLDOWN ticks so the
        //    loop cannot flap demote/readmit forever.
        let finished: Vec<StreamId> = self
            .demoting
            .iter()
            .copied()
            .filter(|id| stats.iter().find(|s| s.id == *id).is_none_or(|s| !s.active))
            .collect();
        self.demoting.retain(|id| !finished.contains(id));
        for old in finished {
            let Some(demand) = self.demands.remove(&old.0) else {
                continue;
            };
            match self.fabric.admit(&demand) {
                Ok(new) => {
                    self.demands.insert(new.0, demand);
                    if self
                        .fabric
                        .stream_stats()
                        .iter()
                        .any(|s| s.id == new && s.plane == StreamPlane::Circuit)
                    {
                        self.stats.pointless_evictions += 1;
                        self.cooldown
                            .insert((demand.src.0, demand.dst.0), Self::DEMOTION_COOLDOWN);
                    }
                    self.pending_moves.push((old, Some(new)));
                    report.readmitted.push(Promotion { from: old, to: new });
                }
                Err(_) => report.lost.push(old),
            }
        }

        // 4. Start new demotion drains; their re-admission runs in a
        //    later tick, once the plane reports the drain finalised.
        for id in demotions {
            let Some(demand) = self.demands.get(&id.0).copied() else {
                continue;
            };
            if self.cooldown.contains_key(&(demand.src.0, demand.dst.0)) {
                self.stats.suppressed_evictions += 1;
                continue; // recently evicted for nothing — hold off
            }
            let live = streams
                .iter()
                .any(|s| s.stats.id == id && s.stats.plane == StreamPlane::Circuit);
            if live && self.fabric.release(id, ReleaseMode::Drain).is_ok() {
                self.demoting.push(id);
                self.pending_moves.push((id, None));
                report.demotion_started.push(id);
            }
        }

        // 5. Snapshot counters for the next window's deltas — from the
        //    tick-top fetch when nothing changed, fresh otherwise (the
        //    actions above created or retired sessions).
        let snapshot = |stats: &[StreamStats]| {
            stats
                .iter()
                .map(|s| (s.id.0, (s.injected_words, s.delivered_words)))
                .collect()
        };
        self.last_counts = if report.is_empty() {
            snapshot(&stats)
        } else {
            snapshot(&self.fabric.stream_stats())
        };

        self.stats.promotions += report.promoted.len() as u64;
        self.stats.demotions += report.demotion_started.len() as u64;
        self.stats.readmissions += report.readmitted.len() as u64;
        self.stats.lost += report.lost.len() as u64;
        if !report.is_empty() {
            self.reports.push(report.clone());
        }
        report
    }

    /// Record the demands of a freshly provisioned mapping.
    fn adopt_mapping(&mut self, mapping: &Mapping, served: &[StreamId]) {
        self.demands.clear();
        self.last_counts.clear();
        self.demoting.clear();
        self.reports.clear();
        self.pending_moves.clear();
        self.cooldown.clear();
        self.stats = ControllerStats::default();
        self.since_tick = 0;
        for ms in mapping.streams() {
            if served.contains(&ms.id) {
                self.demands.insert(ms.id.0, StreamDemand::from(&ms));
            }
        }
    }
}

/// Backend label of [`FabricController`] in
/// [`crate::fabric::FabricSnapshot`]s.
pub(crate) const CONTROLLER_BACKEND: &str = "controlled";

/// The boxed state of a controller snapshot: the inner fabric's own
/// snapshot plus the whole control-plane bookkeeping — policy state
/// included, so a restored replay repeats the same decisions.
#[derive(Debug)]
struct ControllerState {
    fabric: FabricSnapshot,
    policy: Box<dyn AdmissionPolicy>,
    window: CycleCount,
    since_tick: CycleCount,
    demands: HashMap<u32, StreamDemand>,
    last_counts: HashMap<u32, (u64, u64)>,
    demoting: Vec<StreamId>,
    reports: Vec<TickReport>,
    pending_moves: Vec<(StreamId, Option<StreamId>)>,
    cooldown: BTreeMap<(usize, usize), u32>,
    stats: ControllerStats,
}

impl Fabric for FabricController {
    fn kind(&self) -> FabricKind {
        self.fabric.kind()
    }

    fn snapshot(&self) -> FabricSnapshot {
        FabricSnapshot::new(
            CONTROLLER_BACKEND,
            ControllerState {
                fabric: self.fabric.snapshot(),
                policy: self.policy.box_clone(),
                window: self.window,
                since_tick: self.since_tick,
                demands: self.demands.clone(),
                last_counts: self.last_counts.clone(),
                demoting: self.demoting.clone(),
                reports: self.reports.clone(),
                pending_moves: self.pending_moves.clone(),
                cooldown: self.cooldown.clone(),
                stats: self.stats,
            },
        )
    }

    fn restore(&mut self, snapshot: &FabricSnapshot) -> Result<(), SnapshotError> {
        let state = snapshot.downcast::<ControllerState>(CONTROLLER_BACKEND)?;
        // Restore the data plane first: if the inner backends mismatch,
        // the whole controller is left untouched.
        self.fabric.restore(&state.fabric)?;
        self.policy = state.policy.box_clone();
        self.window = state.window;
        self.since_tick = state.since_tick;
        self.demands = state.demands.clone();
        self.last_counts = state.last_counts.clone();
        self.demoting = state.demoting.clone();
        self.reports = state.reports.clone();
        self.pending_moves = state.pending_moves.clone();
        self.cooldown = state.cooldown.clone();
        self.stats = state.stats;
        Ok(())
    }

    fn mesh(&self) -> &Mesh {
        self.fabric.mesh()
    }

    fn now(&self) -> Cycle {
        self.fabric.now()
    }

    fn provision(&mut self, mapping: &Mapping) -> Result<Vec<StreamId>, ProvisionError> {
        let served = self.fabric.provision(mapping)?;
        self.adopt_mapping(mapping, &served);
        Ok(served)
    }

    fn provision_with(
        &mut self,
        mapping: &Mapping,
        mode: ProvisionMode,
    ) -> Result<Vec<StreamId>, ProvisionError> {
        let served = self.fabric.provision_with(mapping, mode)?;
        self.adopt_mapping(mapping, &served);
        Ok(served)
    }

    fn inject_stream(&mut self, stream: StreamId, words: &[u16]) -> usize {
        self.fabric.inject_stream(stream, words)
    }

    fn drain_stream(&mut self, stream: StreamId) -> Vec<u16> {
        self.fabric.drain_stream(stream)
    }

    fn stream_stats(&self) -> Vec<StreamStats> {
        self.fabric.stream_stats()
    }

    fn release(&mut self, stream: StreamId, mode: ReleaseMode) -> Result<(), AdmitError> {
        self.fabric.release(stream, mode)?;
        // A caller-released stream leaves the policy's purview: its
        // demand is forgotten, so the policy loop never resurrects it.
        self.demands.remove(&stream.0);
        Ok(())
    }

    fn admit(&mut self, demand: &StreamDemand) -> Result<StreamId, AdmitError> {
        let id = self.fabric.admit(demand)?;
        self.demands.insert(id.0, *demand);
        Ok(id)
    }

    fn stream_is_active(&self, stream: StreamId) -> Option<bool> {
        self.fabric.stream_is_active(stream)
    }

    fn can_admit_circuit(&self, demand: &StreamDemand) -> bool {
        self.fabric.can_admit_circuit(demand)
    }

    fn take_handle_moves(&mut self) -> Vec<(StreamId, Option<StreamId>)> {
        std::mem::take(&mut self.pending_moves)
    }

    fn finish_injection(&mut self) {
        self.fabric.finish_injection()
    }

    fn set_parallelism(&mut self, policy: ParPolicy) {
        self.fabric.set_parallelism(policy)
    }

    /// One data-plane cycle, plus the control plane: every `window`
    /// cycles the policy loop runs ([`FabricController::tick`]).
    fn step(&mut self) {
        self.fabric.step();
        self.since_tick += 1;
        if self.since_tick >= self.window {
            self.since_tick = 0;
            self.tick();
        }
    }

    fn activity(&self) -> Vec<ComponentActivity> {
        self.fabric.activity()
    }

    fn clear_activity(&mut self) {
        self.fabric.clear_activity()
    }

    fn is_quiescent(&self) -> bool {
        self.fabric.is_quiescent()
    }

    fn total_overflows(&self) -> u64 {
        self.fabric.total_overflows()
    }

    fn spilled_streams(&self) -> u64 {
        self.fabric.spilled_streams()
    }

    fn spilled_words(&self) -> u64 {
        self.fabric.spilled_words()
    }

    fn area(&self, model: &EnergyModel) -> SquareMicroMeters {
        self.fabric.area(model)
    }

    fn power(&self, model: &EnergyModel, cycles: CycleCount) -> PowerReport {
        self.fabric.power(model, cycles)
    }

    fn total_energy(&self, model: &EnergyModel) -> FemtoJoules {
        self.fabric.total_energy(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccn::Ccn;
    use crate::hybrid::HybridFabric;
    use crate::soc::Soc;
    use crate::tile::default_tile_kinds;
    use noc_core::params::RouterParams;

    fn oversubscribed() -> (Mapping, Mesh) {
        let mesh = Mesh::new(3, 1);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let g = noc_apps::synthetic::oversubscribed_line(ccn.lane_capacity());
        let mapping = ccn
            .map_with_spill(&g, &default_tile_kinds(&mesh))
            .expect("spill admission");
        (mapping, mesh)
    }

    fn controlled(policy: Box<dyn AdmissionPolicy>) -> (FabricController, Vec<StreamId>, Mapping) {
        let (mapping, mesh) = oversubscribed();
        let mut ctl =
            FabricController::new(Box::new(HybridFabric::paper(mesh)), policy).with_window(64);
        let ids = ctl.provision(&mapping).unwrap();
        (ctl, ids, mapping)
    }

    #[test]
    fn no_free_lanes_means_no_churn() {
        // With the heavy circuit live, no promotion is feasible: ticks
        // must not create (and kill) probe sessions.
        let (mut ctl, ids, _) = controlled(Box::new(ProfiledPromotion));
        let before = ctl.stream_stats().len();
        ctl.run(512); // several windows
        assert!(ctl.take_reports().is_empty(), "nothing should change");
        assert_eq!(ctl.stream_stats().len(), before, "no session churn");
        assert_eq!(
            ctl.stream_stats()[ids[1].0 as usize].plane,
            StreamPlane::Spilled
        );
    }

    #[test]
    fn promote_on_free_hands_circuit_to_the_spilled_stream() {
        let (mut ctl, ids, _) = controlled(Box::new(ProfiledPromotion));
        // Give the spilled stream some measured history.
        ctl.inject_stream(ids[1], &[1, 2, 3, 4]);
        ctl.finish_injection();
        ctl.run(200);
        assert_eq!(ctl.drain_stream(ids[1]), vec![1, 2, 3, 4]);

        ctl.release(ids[0], ReleaseMode::Drain).unwrap();
        ctl.run(128);
        let reports = ctl.take_reports();
        let promotion = reports
            .iter()
            .flat_map(|t| &t.promoted)
            .next()
            .expect("a tick promoted the spilled stream");
        assert_eq!(promotion.from, ids[1]);
        let stats = ctl.stream_stats();
        let s = stats.iter().find(|s| s.id == promotion.to).unwrap();
        assert_eq!(s.plane, StreamPlane::Circuit);
        assert!(s.reconfig_cycles > 0, "§5.1 wait charged to the promotion");
        // The promoted session carries traffic.
        ctl.inject_stream(promotion.to, &[9, 8, 7]);
        ctl.run(1_000);
        assert_eq!(ctl.drain_stream(promotion.to), vec![9, 8, 7]);
    }

    #[test]
    fn first_fit_promotes_in_id_order() {
        let (mut ctl, ids, _) = controlled(Box::new(FirstFit));
        ctl.release(ids[0], ReleaseMode::Drop).unwrap();
        let report = ctl.tick();
        assert_eq!(report.promoted.len(), 1);
        assert_eq!(report.promoted[0].from, ids[1]);
    }

    #[test]
    fn load_demotion_waits_for_pressure() {
        // A feasible single stream (no spill): even at zero measured
        // load, nothing is demoted — eviction needs a waiting candidate.
        let mesh = Mesh::new(2, 2);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(100.0));
        let mut g = noc_apps::taskgraph::TaskGraph::new("pair");
        let a = g.add_process("a");
        let b = g.add_process("b");
        g.add_edge(
            a,
            b,
            Bandwidth(60.0),
            noc_apps::taskgraph::TrafficShape::Streaming,
            "e",
        );
        let mapping = ccn.map(&g, &default_tile_kinds(&mesh)).unwrap();
        let mut ctl = FabricController::new(
            Box::new(Soc::new(mesh, RouterParams::paper())),
            Box::new(LoadDemotion::new(MegaHertz(100.0), 0.5)),
        )
        .with_window(32);
        ctl.provision(&mapping).unwrap();
        ctl.run(128);
        assert!(ctl.take_reports().is_empty(), "no pressure, no demotion");
    }

    #[test]
    fn load_demotion_evicts_idle_circuit_and_promotion_takes_the_lanes() {
        // Oversubscribed line, idle heavy circuit, busy spilled stream:
        // LoadDemotion (with ProfiledPromotion chained) must evict the
        // idle circuit, promote the spilled stream onto the freed lanes,
        // and re-admit the evicted demand as spillover.
        let policy = LoadDemotion::new(MegaHertz(25.0), 0.25).then(Box::new(ProfiledPromotion));
        let (mut ctl, ids, _) = controlled(Box::new(policy));
        // Only the spilled stream moves words.
        ctl.inject_stream(ids[1], &[1, 2, 3, 4, 5, 6, 7, 8]);
        ctl.finish_injection();
        ctl.run(1_200); // windows: measure, demote, drain, promote, readmit
        let reports = ctl.take_reports();
        let demoted: Vec<_> = reports.iter().flat_map(|t| &t.demotion_started).collect();
        assert_eq!(demoted, vec![&ids[0]], "the idle circuit is evicted");
        let promotion = reports
            .iter()
            .flat_map(|t| &t.promoted)
            .next()
            .expect("the busy spilled stream takes the lanes");
        assert_eq!(promotion.from, ids[1]);
        let readmitted = reports
            .iter()
            .flat_map(|t| &t.readmitted)
            .next()
            .expect("the evicted demand is re-admitted");
        assert_eq!(readmitted.from, ids[0]);
        let stats = ctl.stream_stats();
        assert_eq!(
            stats.iter().find(|s| s.id == promotion.to).unwrap().plane,
            StreamPlane::Circuit
        );
        assert_eq!(
            stats.iter().find(|s| s.id == readmitted.to).unwrap().plane,
            StreamPlane::Spilled,
            "the evicted heavy demand rides best-effort now"
        );
        assert!(reports.iter().all(|t| t.lost.is_empty()));
    }

    #[test]
    fn pointless_eviction_is_suppressed_by_the_cooldown() {
        // LoadDemotion with no chained promotion: the evicted demand's
        // re-admission lands straight back on its circuit (nobody else
        // can use the lanes — the spilled stream needs them while the
        // heavy circuit holds 3 of 4). The cooldown must stop the loop
        // from flapping demote/readmit every window.
        let policy = LoadDemotion::new(MegaHertz(25.0), 0.25);
        let (mut ctl, ids, _) = controlled(Box::new(policy));
        // Keep the spilled stream actively moving words so demotion
        // pressure persists across many windows.
        for _ in 0..40 {
            ctl.inject_stream(ids[1], &[1, 2]);
            ctl.run(64); // one window per iteration
        }
        let reports = ctl.take_reports();
        let demotions = reports
            .iter()
            .map(|t| t.demotion_started.len())
            .sum::<usize>();
        assert!(
            demotions > 0,
            "premise: the idle circuit is evicted at least once"
        );
        assert!(
            demotions <= 40 / FabricController::DEMOTION_COOLDOWN as usize + 1,
            "cooldown must bound pointless evictions: {demotions} in 40 windows"
        );
        // Every readmission went straight back to circuit (pointless),
        // and nothing was ever lost.
        assert!(reports.iter().all(|t| t.lost.is_empty()));
    }

    #[test]
    fn controller_stats_count_the_policy_loop() {
        // The pointless-eviction scenario again, but observed through the
        // fabric-generic counters instead of TickReport replay: ticks,
        // demotions, readmissions, and both eviction-hygiene counters.
        let policy = LoadDemotion::new(MegaHertz(25.0), 0.25);
        let (mut ctl, ids, _) = controlled(Box::new(policy));
        for _ in 0..40 {
            ctl.inject_stream(ids[1], &[1, 2]);
            ctl.run(64); // one window per iteration
        }
        let stats = ctl.controller_stats();
        let reports = ctl.take_reports();
        assert_eq!(stats.ticks, 40);
        assert_eq!(
            stats.demotions as usize,
            reports
                .iter()
                .map(|t| t.demotion_started.len())
                .sum::<usize>()
        );
        assert_eq!(
            stats.readmissions as usize,
            reports.iter().map(|t| t.readmitted.len()).sum::<usize>()
        );
        assert_eq!(stats.promotions, 0);
        assert_eq!(stats.lost, 0);
        assert!(
            stats.pointless_evictions > 0,
            "every re-admission lands back on circuit lanes here"
        );
        assert!(
            stats.suppressed_evictions > 0,
            "the cooldown must have refused repeat demote actions"
        );
    }

    #[test]
    fn hardened_load_demotion_rides_out_bursty_circuits() {
        // The heavy circuit bursts 3 windows on, 1 window off, while the
        // spilled stream keeps the demotion pressure alive. The raw
        // per-window measurement would read the off-window as
        // abandonment; EWMA smoothing plus the minimum dwell must keep
        // the circuit owned throughout — zero demotions, zero flaps.
        let policy = LoadDemotion::hardened(MegaHertz(25.0), 0.25);
        let (mut ctl, ids, _) = controlled(Box::new(policy));
        // ~demand-rate words for the heavy stream during on-windows:
        // 2.9 lanes × 80 Mbit/s at 25 MHz × 16 bit ≈ 0.58 words/cycle.
        let burst: Vec<u16> = (0..37).collect();
        for w in 0..40 {
            ctl.inject_stream(ids[1], &[1, 2]);
            if w % 4 != 3 {
                ctl.inject_stream(ids[0], &burst);
            }
            ctl.run(64); // one window per iteration
        }
        let stats = ctl.controller_stats();
        assert_eq!(stats.ticks, 40);
        assert_eq!(
            stats.demotions, 0,
            "hardened demotion must not flap a bursty circuit"
        );
        assert_eq!(stats.pointless_evictions, 0);
    }

    #[test]
    fn caller_release_removes_the_stream_from_policy_reach() {
        let (mut ctl, ids, _) = controlled(Box::new(FirstFit));
        ctl.release(ids[1], ReleaseMode::Drop).unwrap();
        ctl.release(ids[0], ReleaseMode::Drop).unwrap();
        // Lanes are free and FirstFit is eager — but no managed spilled
        // stream exists, so nothing happens.
        let report = ctl.tick();
        assert!(report.is_empty());
        assert!(ctl.demand_of(ids[1]).is_none());
    }
}
