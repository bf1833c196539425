//! Run-time reconfiguration: moving the SoC between application mappings.
//!
//! Streams are semi-static — "a stream is fixed for a relatively long
//! time" — but "the control system might change some settings of processes
//! due to changing environmental conditions" (Section 3.3), and the
//! multi-mode terminal switches standards entirely (WLAN ↔ UMTS,
//! Section 1). A reconfiguration is the *diff* between two mappings:
//! deactivation words for circuits only the old mapping uses, activation
//! words for circuits only the new one uses. The diff rides the BE network
//! like any other configuration traffic.

use crate::be::BeNetwork;
use crate::ccn::{EdgeRoute, Mapping};
use crate::soc::Soc;
use crate::topology::NodeId;
use noc_core::config::{ConfigEntry, ConfigWord};
use noc_core::error::ConfigError;
use noc_core::params::RouterParams;
use noc_sim::time::Cycle;
use std::collections::BTreeSet;

/// The configuration-word diff between two mappings.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigPlan {
    /// Words deactivating output lanes the new mapping no longer uses.
    pub teardown: Vec<(NodeId, ConfigWord)>,
    /// Words activating the new mapping's circuits.
    pub setup: Vec<(NodeId, ConfigWord)>,
}

impl ReconfigPlan {
    /// Total configuration words to deliver.
    pub fn word_count(&self) -> usize {
        self.teardown.len() + self.setup.len()
    }

    /// Routers touched by the plan.
    pub fn routers_touched(&self) -> usize {
        self.teardown
            .iter()
            .chain(&self.setup)
            .map(|&(n, _)| n)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Output lanes (as `(node, flat word address portion)`) used by a mapping.
fn used_lanes(mapping: &Mapping, params: &RouterParams) -> BTreeSet<(NodeId, u16)> {
    mapping
        .config_words(params)
        .into_iter()
        // The high bits of a word address the output lane; two words for
        // the same lane with different entries still refer to one lane.
        .map(|(node, w)| (node, w.0 >> params.entry_bits()))
        .collect()
}

/// The configuration words activating one circuit — the setup half of a
/// single-stream reconfiguration. Runtime admission
/// (`Fabric::admit`) ships exactly these over the BE network, so a
/// stream set up mid-run pays the same §5.1 delivery budget as an
/// application switch.
pub fn setup_words_for_route(
    route: &EdgeRoute,
    params: &RouterParams,
) -> Vec<(NodeId, ConfigWord)> {
    route.config_words(params)
}

/// The deactivation words tearing one circuit down — the teardown half of
/// a single-stream reconfiguration (`Fabric::release`). One word per
/// output lane the route holds, deduplicated and sorted for deterministic
/// delivery order.
pub fn teardown_words_for_route(
    route: &EdgeRoute,
    params: &RouterParams,
) -> Vec<(NodeId, ConfigWord)> {
    let lanes: BTreeSet<(NodeId, u16)> = route
        .config_words(params)
        .into_iter()
        .map(|(node, w)| (node, w.0 >> params.entry_bits()))
        .collect();
    let mut words: Vec<(NodeId, ConfigWord)> = lanes
        .into_iter()
        .map(|(node, lane_addr)| {
            let word =
                ConfigWord((lane_addr << params.entry_bits()) | ConfigEntry::INACTIVE.pack(params));
            (node, word)
        })
        .collect();
    words.sort_by_key(|&(n, w)| (n, w.0));
    words
}

/// Compute the diff taking the SoC from `old` to `new`.
pub fn plan(old: &Mapping, new: &Mapping, params: &RouterParams) -> ReconfigPlan {
    let old_lanes = used_lanes(old, params);
    let new_lanes = used_lanes(new, params);

    let mut teardown = Vec::new();
    for &(node, lane_addr) in &old_lanes {
        if !new_lanes.contains(&(node, lane_addr)) {
            // Deactivation word: same lane address, inactive entry.
            let word =
                ConfigWord((lane_addr << params.entry_bits()) | ConfigEntry::INACTIVE.pack(params));
            teardown.push((node, word));
        }
    }
    teardown.sort_by_key(|&(n, w)| (n, w.0));

    // Setup: every word of the new mapping whose (node, lane, entry) is not
    // already in force under the old mapping. Re-sending identical words is
    // harmless but wastes BE bandwidth, so filter exact duplicates.
    let old_words: BTreeSet<(NodeId, u16)> = old
        .config_words(params)
        .into_iter()
        .map(|(n, w)| (n, w.0))
        .collect();
    let mut setup: Vec<(NodeId, ConfigWord)> = new
        .config_words(params)
        .into_iter()
        .filter(|&(n, w)| !old_words.contains(&(n, w.0)))
        .collect();
    setup.sort_by_key(|&(n, w)| (n, w.0));

    ReconfigPlan { teardown, setup }
}

/// Deliver a plan over the BE network from the CCN's node, starting at
/// `now`. Words are batched per destination router (one message each —
/// teardown and setup batches kept separate so teardown arrives first on
/// equal paths). Returns the cycle by which everything is applied.
pub fn execute(
    plan: &ReconfigPlan,
    be: &mut BeNetwork,
    soc: &mut Soc,
    ccn_node: NodeId,
    now: Cycle,
) -> Result<Cycle, ConfigError> {
    let mut latest = now;
    for phase in [&plan.teardown, &plan.setup] {
        // Batch words by destination router.
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<ConfigWord>> =
            std::collections::BTreeMap::new();
        for &(node, word) in phase {
            by_node.entry(node).or_default().push(word);
        }
        for (node, words) in by_node {
            let delivery = be.send(now, ccn_node, node, &words);
            latest = Cycle(latest.0.max(delivery.0));
        }
    }
    // Apply everything once due.
    be.deliver_due(latest, soc)?;
    Ok(latest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::be::BeConfig;
    use crate::ccn::Ccn;
    use crate::tile::TileKind;
    use crate::topology::Mesh;
    use noc_apps::taskgraph::{TaskGraph, TrafficShape};
    use noc_sim::units::{Bandwidth, MegaHertz};

    fn setup() -> (Ccn, Vec<TileKind>, Mesh) {
        let mesh = Mesh::new(3, 3);
        let ccn = Ccn::new(mesh, RouterParams::paper(), MegaHertz(25.0));
        let kinds = vec![TileKind::Dsrh; 9];
        (ccn, kinds, mesh)
    }

    fn pipeline(name: &str, stages: usize, bw: f64) -> TaskGraph {
        let mut g = TaskGraph::new(name);
        let ids: Vec<_> = (0..stages)
            .map(|i| g.add_process(format!("{name}{i}")))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], Bandwidth(bw), TrafficShape::Streaming, "e");
        }
        g
    }

    #[test]
    fn identical_mappings_need_no_words() {
        let (ccn, kinds, _) = setup();
        let g = pipeline("a", 4, 60.0);
        let m = ccn.map(&g, &kinds).unwrap();
        let p = plan(&m, &m, &RouterParams::paper());
        assert_eq!(p.word_count(), 0);
    }

    #[test]
    fn switching_applications_tears_down_and_sets_up() {
        let (ccn, kinds, _) = setup();
        let old = ccn.map(&pipeline("wlan", 5, 70.0), &kinds).unwrap();
        let new = ccn.map(&pipeline("umts", 3, 30.0), &kinds).unwrap();
        let p = plan(&old, &new, &RouterParams::paper());
        assert!(!p.teardown.is_empty(), "old circuits must be deactivated");
        assert!(!p.setup.is_empty(), "new circuits must be activated");
    }

    #[test]
    fn execute_reaches_target_configuration() {
        let (ccn, kinds, mesh) = setup();
        let params = RouterParams::paper();
        let old = ccn.map(&pipeline("wlan", 5, 70.0), &kinds).unwrap();
        let new = ccn.map(&pipeline("umts", 3, 30.0), &kinds).unwrap();

        // Bring the SoC into the old mapping, then reconfigure over BE.
        let mut soc = Soc::new(mesh, params);
        old.apply_direct(&mut soc).unwrap();
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let p = plan(&old, &new, &params);
        let done = execute(&p, &mut be, &mut soc, mesh.node(0, 0), Cycle::ZERO).unwrap();
        assert!(done > Cycle::ZERO);

        // The SoC's configuration must now equal a fresh application of
        // the new mapping.
        let mut reference = Soc::new(mesh, params);
        new.apply_direct(&mut reference).unwrap();
        for node in mesh.iter() {
            assert_eq!(
                soc.router(node).config().snapshot_words(),
                reference.router(node).config().snapshot_words(),
                "router {node:?} diverges after reconfiguration"
            );
        }
    }

    #[test]
    fn reconfiguration_latency_is_milliseconds_at_most() {
        // Application switch on a 3x3 mesh at 25 MHz: the paper budgets
        // 1 ms per lane and 20 ms per router; a whole-application switch
        // should stay well inside a few ms.
        let (ccn, kinds, mesh) = setup();
        let params = RouterParams::paper();
        let old = ccn.map(&pipeline("wlan", 5, 70.0), &kinds).unwrap();
        let new = ccn.map(&pipeline("umts", 4, 30.0), &kinds).unwrap();
        let mut soc = Soc::new(mesh, params);
        old.apply_direct(&mut soc).unwrap();
        let mut be = BeNetwork::new(mesh, BeConfig::default());
        let p = plan(&old, &new, &params);
        let done = execute(&p, &mut be, &mut soc, mesh.node(0, 0), Cycle::ZERO).unwrap();
        let ms = done.at(MegaHertz(25.0)).as_millis();
        assert!(ms < 1.0, "application switch took {ms} ms");
    }

    #[test]
    fn route_setup_and_teardown_words_cancel() {
        // Applying a route's setup words then its teardown words leaves a
        // fresh SoC's configuration untouched — the invariant behind
        // `Fabric::release` + `Fabric::admit` round-tripping.
        let (ccn, kinds, mesh) = setup();
        let params = RouterParams::paper();
        let m = ccn.map(&pipeline("a", 3, 150.0), &kinds).unwrap();
        let route = &m.routes[0];
        let mut soc = crate::soc::Soc::new(mesh, params);
        let pristine: Vec<_> = mesh
            .iter()
            .map(|n| soc.router(n).config().snapshot_words())
            .collect();
        for (node, word) in setup_words_for_route(route, &params) {
            soc.router_mut(node).apply_config_word(word).unwrap();
        }
        let configured: Vec<_> = mesh
            .iter()
            .map(|n| soc.router(n).config().snapshot_words())
            .collect();
        assert_ne!(pristine, configured, "setup must change configuration");
        for (node, word) in teardown_words_for_route(route, &params) {
            soc.router_mut(node).apply_config_word(word).unwrap();
        }
        let torn: Vec<_> = mesh
            .iter()
            .map(|n| soc.router(n).config().snapshot_words())
            .collect();
        assert_eq!(pristine, torn, "teardown must cancel setup exactly");
    }

    #[test]
    fn plan_counts_touched_routers() {
        let (ccn, kinds, _) = setup();
        let old = ccn.map(&pipeline("a", 2, 60.0), &kinds).unwrap();
        let new = ccn.map(&pipeline("b", 2, 60.0), &kinds).unwrap();
        let p = plan(&old, &new, &RouterParams::paper());
        if p.word_count() > 0 {
            assert!(p.routers_touched() >= 1);
        }
    }
}
