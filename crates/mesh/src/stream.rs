//! Stream sessions: the per-connection vocabulary of the `Fabric` API.
//!
//! The paper's whole premise is *per-connection* guarantees — circuits are
//! provisioned per stream, and the energy/latency claims of Section 5 are
//! stated per stream. This module makes streams first-class API objects:
//!
//! * [`StreamId`] — the session handle [`crate::fabric::Fabric::provision`]
//!   returns per stream (and [`crate::fabric::Fabric::admit`] returns at
//!   runtime); words are injected and drained *by stream*, not by node.
//! * [`StreamStats`] — per-stream telemetry every backend reports through
//!   [`crate::fabric::Fabric::stream_stats`]: word counts, a full latency
//!   distribution ([`LatencyHistogram`]: min/mean/p50/p95/max cycles), and
//!   which [`StreamPlane`] served the stream — the data behind the hybrid
//!   fabric's GT/BE service-gap report.
//! * [`StreamDemand`] + [`AdmitError`] — the runtime lifecycle:
//!   [`crate::fabric::Fabric::release`] tears a circuit down and
//!   [`crate::fabric::Fabric::admit`] re-runs CCN admission against the
//!   freed lanes, the re-admission move of profiled hybrid switching
//!   (arXiv:2005.08478) over the reconfigurable circuit routing of
//!   arXiv:cs/0503066.
//! * [`ReleaseMode`] + [`ProvisionMode`] — the *phased* lifecycle verbs:
//!   teardown can drain loss-free instead of dropping mid-circuit words,
//!   and initial provisioning can ride the BE configuration network so
//!   cold-start setup time (paper §5.1 budgets) shows up in every
//!   stream's measured latency exactly like a runtime
//!   [`crate::fabric::Fabric::admit`]'s does. The policy loop that drives
//!   these verbs automatically lives in [`crate::controller`].

use crate::topology::NodeId;
use noc_sim::stats::LatencyHistogram;
use noc_sim::units::Bandwidth;
use std::fmt;

/// Handle of one provisioned stream session.
///
/// Ids are assigned by the fabric: [`crate::fabric::Fabric::provision`]
/// numbers the mapping's NoC-crossing streams densely — every route with
/// at least one lane path in `Mapping::routes` order, then every
/// `Mapping::spilled` entry — matching [`crate::ccn::Mapping::streams`];
/// runtime [`crate::fabric::Fabric::admit`] continues the numbering. A
/// handle stays valid (for `drain_stream`/`stream_stats`) after
/// [`crate::fabric::Fabric::release`]; re-provisioning resets the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// Which switching plane serves a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamPlane {
    /// Provisioned circuit lanes (guaranteed throughput).
    Circuit,
    /// The packet-switched wormhole plane of a pure packet fabric.
    Packet,
    /// Best-effort spillover: the stream asked for a circuit the CCN
    /// could not admit and rides a packet plane instead (the hybrid
    /// fabric's BE side).
    Spilled,
}

impl StreamPlane {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StreamPlane::Circuit => "circuit",
            StreamPlane::Packet => "packet",
            StreamPlane::Spilled => "spilled",
        }
    }
}

impl fmt::Display for StreamPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-stream telemetry reported by
/// [`crate::fabric::Fabric::stream_stats`].
///
/// Counters accumulate from provisioning (or runtime admission) until the
/// stream is released or re-provisioned away; they deliberately survive
/// [`crate::fabric::Fabric::clear_activity`], which resets *energy*
/// ledgers only — service telemetry and energy accounting are separate
/// measurement windows.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// The stream's session handle.
    pub id: StreamId,
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Which plane serves (served) the stream.
    pub plane: StreamPlane,
    /// `false` once the stream has been [`crate::fabric::Fabric::release`]d.
    pub active: bool,
    /// Payload words accepted by `inject_stream` so far.
    pub injected_words: u64,
    /// Payload words delivered to the destination tile so far.
    pub delivered_words: u64,
    /// Cycles of reconfiguration (BE-network configuration delivery,
    /// paper §5.1 budgets) charged to this stream before it could carry
    /// traffic. Zero for streams provisioned at deployment time; nonzero
    /// for circuits set up by a runtime [`crate::fabric::Fabric::admit`].
    pub reconfig_cycles: u64,
    /// Word service latency in cycles, `inject_stream` to delivery —
    /// including serialisation backlog, in-network transit and (for
    /// runtime-admitted circuits) the reconfiguration wait.
    pub latency: LatencyHistogram,
    /// Largest per-word misroute count observed among this stream's
    /// delivered words. Only the bufferless deflection backend
    /// ([`crate::deflection::DeflectionFabric`]) can misroute, so this is
    /// always 0 on circuit, wormhole-packet and hybrid planes; there it
    /// is the stream-level view of deflection-storm severity.
    pub max_deflections: u64,
}

/// Largest p95 service latency among `plane`'s streams with deliveries.
pub fn worst_p95(stats: &[StreamStats], plane: StreamPlane) -> Option<u64> {
    stats
        .iter()
        .filter(|s| s.plane == plane)
        .filter_map(|s| s.latency.p95())
        .max()
}

/// Smallest p95 service latency among `plane`'s streams with deliveries.
pub fn best_p95(stats: &[StreamStats], plane: StreamPlane) -> Option<u64> {
    stats
        .iter()
        .filter(|s| s.plane == plane)
        .filter_map(|s| s.latency.p95())
        .min()
}

/// The GT/BE service-gap ordering — **the** per-connection QoS claim of
/// hybrid switching: every circuit-plane stream's p95 service latency is
/// at or below every spilled stream's p95 (vacuously true when either
/// side has no deliveries). One definition, shared by
/// [`crate::hybrid::HybridFabric::gt_no_worse_than_be`] and the
/// `fabric_compare` CI gate, so the two can never drift apart.
pub fn gt_no_worse_than_be(stats: &[StreamStats]) -> bool {
    match (
        worst_p95(stats, StreamPlane::Circuit),
        best_p95(stats, StreamPlane::Spilled),
    ) {
        (Some(gt), Some(be)) => gt <= be,
        _ => true,
    }
}

/// How [`crate::fabric::Fabric::release`] retires a stream session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleaseMode {
    /// Immediate teardown: undelivered ingress backlog is discarded and
    /// words mid-circuit are dropped with the lanes — the historical
    /// behaviour, right when the stream's data no longer matters.
    Drop,
    /// Draining teardown: admission stops at once (further injection on
    /// the handle panics), but the lanes are held until every word
    /// already accepted has been delivered; only then does the fabric
    /// tear the circuit down and return the lanes to the admission pool.
    /// Loss-free under active injection — the stream's telemetry stays
    /// `active` until the deferred teardown completes.
    Drain,
}

impl ReleaseMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReleaseMode::Drop => "drop",
            ReleaseMode::Drain => "drain",
        }
    }
}

impl fmt::Display for ReleaseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`crate::fabric::Fabric::provision_with`] installs the initial
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisionMode {
    /// Configuration words are written straight into the routers — the
    /// zero-cost testbench path (equivalent in final router state to BE
    /// delivery, but cold-start time is invisible).
    Instant,
    /// Configuration rides the best-effort network from the CCN's corner
    /// node, exactly like a runtime [`crate::fabric::Fabric::admit`]:
    /// each stream's circuit materialises when its words land, the §5.1
    /// delivery wait is charged to the stream's `reconfig_cycles`, and
    /// words injected before readiness pay the wait in their measured
    /// latency. Backends without configuration state to deliver (the pure
    /// packet fabric's wormhole plane) are ready immediately either way.
    BeDelivered,
}

impl ProvisionMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProvisionMode::Instant => "instant",
            ProvisionMode::BeDelivered => "be-delivered",
        }
    }
}

impl fmt::Display for ProvisionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A stream's guaranteed-throughput ask, the input to runtime admission
/// ([`crate::fabric::Fabric::admit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamDemand {
    /// Source tile.
    pub src: NodeId,
    /// Destination tile.
    pub dst: NodeId,
    /// Requested bandwidth.
    pub demand: Bandwidth,
}

impl StreamDemand {
    /// Refuse an ask no lane count can serve: a NaN, infinite or
    /// negative bandwidth ([`AdmitError::InvalidDemand`]). Zero is a
    /// legal ask and takes one lane. The one demand check behind
    /// [`crate::ccn::Ccn::admit_stream`] and every backend's
    /// [`crate::fabric::Fabric::admit`].
    pub(crate) fn check(&self) -> Result<(), AdmitError> {
        if is_valid_bandwidth(self.demand) {
            Ok(())
        } else {
            Err(AdmitError::InvalidDemand(self.demand))
        }
    }
}

/// `true` for the bandwidths the CCN can turn into a lane count: finite
/// and not negative.
pub(crate) fn is_valid_bandwidth(bw: Bandwidth) -> bool {
    bw.value().is_finite() && bw.value() >= 0.0
}

impl From<&crate::ccn::SpillStream> for StreamDemand {
    fn from(s: &crate::ccn::SpillStream) -> StreamDemand {
        StreamDemand {
            src: s.src,
            dst: s.dst,
            demand: s.demand,
        }
    }
}

impl From<&crate::ccn::MappedStream> for StreamDemand {
    fn from(s: &crate::ccn::MappedStream) -> StreamDemand {
        StreamDemand {
            src: s.src,
            dst: s.dst,
            demand: s.demand,
        }
    }
}

/// Why runtime admission (or a release) of a stream failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitError {
    /// The demand alone exceeds a port's parallel-lane capacity.
    TooWide {
        /// Lanes the demand needs.
        needed: usize,
        /// Lanes a port offers.
        available: usize,
    },
    /// No lane path with enough free lanes exists right now.
    NoFreeLanes,
    /// A tile interface has no free lanes for the stream's endpoints.
    TileLanesExhausted {
        /// The saturated tile.
        node: NodeId,
    },
    /// The requested bandwidth is NaN, infinite or negative.
    InvalidDemand(Bandwidth),
    /// The router has more lanes per port than the CCN's lane map tracks.
    TooManyLanes {
        /// Lanes per port of the router.
        lanes_per_port: usize,
        /// Most lanes per port the lane map tracks.
        max: usize,
    },
    /// The handle names no live stream of this fabric.
    UnknownStream(StreamId),
    /// The stream is already draining ([`ReleaseMode::Drain`]); a drain
    /// in progress cannot be released again or aborted.
    Draining(StreamId),
    /// The backend cannot serve this request at all.
    Unsupported(&'static str),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::TooWide { needed, available } => {
                write!(f, "demand needs {needed} lanes, a port has {available}")
            }
            AdmitError::NoFreeLanes => write!(f, "no lane path with enough free lanes"),
            AdmitError::TileLanesExhausted { node } => {
                write!(f, "tile {node:?} has no free interface lanes")
            }
            AdmitError::InvalidDemand(bw) => {
                write!(f, "demand {bw} is not a finite, non-negative bandwidth")
            }
            AdmitError::TooManyLanes {
                lanes_per_port,
                max,
            } => write!(
                f,
                "{lanes_per_port} lanes per port, the lane map tracks at most {max}"
            ),
            AdmitError::UnknownStream(id) => write!(f, "{id} is not a live stream"),
            AdmitError::Draining(id) => write!(f, "{id} is already draining"),
            AdmitError::Unsupported(why) => write!(f, "unsupported: {why}"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(StreamId(3).to_string(), "stream#3");
        assert_eq!(StreamPlane::Circuit.to_string(), "circuit");
        assert_eq!(StreamPlane::Spilled.to_string(), "spilled");
        assert_eq!(ReleaseMode::Drain.to_string(), "drain");
        assert_eq!(ProvisionMode::BeDelivered.to_string(), "be-delivered");
        assert!(AdmitError::NoFreeLanes.to_string().contains("lane path"));
        assert!(AdmitError::UnknownStream(StreamId(7))
            .to_string()
            .contains("stream#7"));
        assert!(AdmitError::Draining(StreamId(2))
            .to_string()
            .contains("draining"));
        assert!(AdmitError::InvalidDemand(Bandwidth(f64::NAN))
            .to_string()
            .contains("NaN"));
        assert!(AdmitError::TooManyLanes {
            lanes_per_port: 65,
            max: 64
        }
        .to_string()
        .contains("65 lanes"));
    }

    #[test]
    fn demand_check_refuses_what_no_lane_count_serves() {
        let ask = |bw| StreamDemand {
            src: NodeId(0),
            dst: NodeId(1),
            demand: Bandwidth(bw),
        };
        for bad in [f64::NAN, -5.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                ask(bad).check(),
                Err(AdmitError::InvalidDemand(_))
            ));
        }
        for good in [0.0, 1e-9, 80.0, f64::MAX] {
            assert_eq!(ask(good).check(), Ok(()));
        }
    }
}
