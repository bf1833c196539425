//! Switching-activity accounting.
//!
//! Synopsys Power Compiler estimates dynamic power by multiplying *observed
//! switching activity* by per-cell energy characterisation data. We reproduce
//! the front half of that flow here: every model component owns an
//! [`ActivityLedger`] into which the simulation records low-level energy
//! events. The back half — multiplying by per-event energies calibrated to
//! the paper's 0.13 µm library — lives in the `noc-power` crate, keeping the
//! simulator free of any technology assumption.
//!
//! Events are deliberately *architectural* (register clocked, node toggled,
//! FIFO written, arbiter decision changed) rather than gate-level; this is the
//! level at which the paper's own observations are phrased ("the necessary
//! buffers and extra control in the crossbar of the packet-switched router").

use std::fmt;

/// Classes of energy events counted during simulation.
///
/// The split mirrors what drives each of Power Compiler's three reported
/// categories (paper Section 7.2): `RegClock` feeds the internal-cell offset,
/// toggle classes feed switching power, and static power needs no events at
/// all (it is proportional to area and time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ActivityClass {
    /// One architectural register *bit* receiving a clock edge. Counted every
    /// cycle for every non-gated register bit — this is the "relative high
    /// offset in the dynamic power consumption" the paper observes even in
    /// Scenario I.
    RegClock,
    /// One register bit changing state on a clock edge.
    RegToggle,
    /// One observed combinational node changing state (mux trees, decoders).
    WireToggle,
    /// One inter-router link wire changing state. Separate from `WireToggle`
    /// because link wires carry significantly more capacitance than local
    /// nodes.
    LinkToggle,
    /// One bit written into a FIFO buffer (packet router only).
    BufferWrite,
    /// One bit read out of a FIFO buffer (packet router only).
    BufferRead,
    /// One arbitration evaluation (an arbiter examining its requests).
    ArbiterEval,
    /// An arbiter's grant vector *changing* — the control-path switching the
    /// paper blames for the Scenario III non-linearity.
    ArbiterGrantChange,
    /// One crossbar select line changing (reconfiguration in the circuit
    /// router; per-cycle switch allocation in the packet router).
    SelectToggle,
    /// One bit written into configuration memory.
    ConfigWrite,
    /// One handshake event on a flow-control wire (ack pulse, credit return).
    Handshake,
}

impl ActivityClass {
    /// All classes, in discriminant order.
    pub const ALL: [ActivityClass; 11] = [
        ActivityClass::RegClock,
        ActivityClass::RegToggle,
        ActivityClass::WireToggle,
        ActivityClass::LinkToggle,
        ActivityClass::BufferWrite,
        ActivityClass::BufferRead,
        ActivityClass::ArbiterEval,
        ActivityClass::ArbiterGrantChange,
        ActivityClass::SelectToggle,
        ActivityClass::ConfigWrite,
        ActivityClass::Handshake,
    ];

    /// Number of distinct classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index of this class into count arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ActivityClass::RegClock => "reg-clock",
            ActivityClass::RegToggle => "reg-toggle",
            ActivityClass::WireToggle => "wire-toggle",
            ActivityClass::LinkToggle => "link-toggle",
            ActivityClass::BufferWrite => "buffer-write",
            ActivityClass::BufferRead => "buffer-read",
            ActivityClass::ArbiterEval => "arbiter-eval",
            ActivityClass::ArbiterGrantChange => "arbiter-grant-change",
            ActivityClass::SelectToggle => "select-toggle",
            ActivityClass::ConfigWrite => "config-write",
            ActivityClass::Handshake => "handshake",
        }
    }
}

impl fmt::Display for ActivityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of every [`ActivityClass`] accumulated by one component.
///
/// Plain `u64` counters — ledgers are owned by exactly one component and
/// never shared across threads while counting (parallel mesh stepping gives
/// each router exclusive ownership of its own state), so no atomics are
/// needed on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityLedger {
    counts: [u64; ActivityClass::COUNT],
}

impl ActivityLedger {
    /// A ledger with all counts zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` events of class `class`.
    #[inline]
    pub fn add(&mut self, class: ActivityClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Record a single event of class `class`.
    #[inline]
    pub fn bump(&mut self, class: ActivityClass) {
        self.counts[class.index()] += 1;
    }

    /// The count accumulated for `class`.
    #[inline]
    pub fn get(&self, class: ActivityClass) -> u64 {
        self.counts[class.index()]
    }

    /// Sum of all event counts (a crude busy-ness indicator for tests).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Reset all counts to zero (used between measurement windows).
    pub fn clear(&mut self) {
        self.counts = [0; ActivityClass::COUNT];
    }

    /// Merge another ledger's counts into this one.
    pub fn merge(&mut self, other: &ActivityLedger) {
        for i in 0..ActivityClass::COUNT {
            self.counts[i] += other.counts[i];
        }
    }

    /// Iterate `(class, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (ActivityClass, u64)> + '_ {
        ActivityClass::ALL
            .iter()
            .map(move |&c| (c, self.counts[c.index()]))
    }

    /// Difference `self - baseline`, saturating at zero. Used to isolate the
    /// activity of one measurement window from counters that keep running.
    pub fn delta_since(&self, baseline: &ActivityLedger) -> ActivityLedger {
        let mut out = ActivityLedger::new();
        for i in 0..ActivityClass::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(baseline.counts[i]);
        }
        out
    }
}

impl fmt::Display for ActivityLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (class, count) in self.iter() {
            if count != 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{class}={count}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(no activity)")?;
        }
        Ok(())
    }
}

/// The structural component a ledger belongs to.
///
/// Mirrors the component rows of the paper's Table 4, so that the power model
/// can both apply component-specific energy coefficients and report a
/// per-component breakdown comparable to the published area breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// The switch fabric (muxes + output registers).
    Crossbar,
    /// The circuit router's configuration memory.
    ConfigMemory,
    /// The circuit router's tile-side data converter (serialiser pair).
    DataConverter,
    /// Input buffering (packet router FIFOs).
    Buffering,
    /// Arbitration and allocation logic (packet router).
    Arbitration,
    /// Routing computation (packet router header decode).
    Routing,
    /// Flow-control machinery (window counters, credits, ack wires).
    FlowControl,
    /// Inter-router link drivers/wires.
    Link,
    /// Anything that fits no other row (pipeline glue, misc control).
    Misc,
}

impl ComponentKind {
    /// All component kinds, in Table 4 row order (circuit rows first).
    pub const ALL: [ComponentKind; 9] = [
        ComponentKind::Crossbar,
        ComponentKind::ConfigMemory,
        ComponentKind::DataConverter,
        ComponentKind::Buffering,
        ComponentKind::Arbitration,
        ComponentKind::Routing,
        ComponentKind::FlowControl,
        ComponentKind::Link,
        ComponentKind::Misc,
    ];

    /// Human-readable name matching the paper's Table 4 rows where one exists.
    pub fn name(self) -> &'static str {
        match self {
            ComponentKind::Crossbar => "Crossbar",
            ComponentKind::ConfigMemory => "Configuration",
            ComponentKind::DataConverter => "Data converter",
            ComponentKind::Buffering => "Buffering",
            ComponentKind::Arbitration => "Arbitration",
            ComponentKind::Routing => "Routing",
            ComponentKind::FlowControl => "Flow control",
            ComponentKind::Link => "Link",
            ComponentKind::Misc => "Misc",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A snapshot of one component's activity, tagged with its kind.
///
/// Routers return a `Vec<ComponentActivity>`; the power estimator consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentActivity {
    /// Which structural component the ledger describes.
    pub kind: ComponentKind,
    /// The counted events.
    pub ledger: ActivityLedger,
}

impl ComponentActivity {
    /// Tag `ledger` with `kind`.
    pub fn new(kind: ComponentKind, ledger: ActivityLedger) -> Self {
        Self { kind, ledger }
    }
}

/// Sum a set of component snapshots into one ledger (all components merged).
pub fn merge_all(components: &[ComponentActivity]) -> ActivityLedger {
    let mut out = ActivityLedger::new();
    for c in components {
        out.merge(&c.ledger);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in ActivityClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(ActivityClass::COUNT, 11);
    }

    #[test]
    fn add_and_get() {
        let mut l = ActivityLedger::new();
        assert!(l.is_empty());
        l.add(ActivityClass::RegClock, 80);
        l.bump(ActivityClass::RegToggle);
        assert_eq!(l.get(ActivityClass::RegClock), 80);
        assert_eq!(l.get(ActivityClass::RegToggle), 1);
        assert_eq!(l.total(), 81);
        assert!(!l.is_empty());
    }

    #[test]
    fn merge_and_clear() {
        let mut a = ActivityLedger::new();
        a.add(ActivityClass::BufferWrite, 5);
        let mut b = ActivityLedger::new();
        b.add(ActivityClass::BufferWrite, 7);
        b.add(ActivityClass::BufferRead, 2);
        a.merge(&b);
        assert_eq!(a.get(ActivityClass::BufferWrite), 12);
        assert_eq!(a.get(ActivityClass::BufferRead), 2);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn delta_since_isolates_window() {
        let mut l = ActivityLedger::new();
        l.add(ActivityClass::WireToggle, 100);
        let baseline = l;
        l.add(ActivityClass::WireToggle, 42);
        let delta = l.delta_since(&baseline);
        assert_eq!(delta.get(ActivityClass::WireToggle), 42);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ActivityLedger::new();
        a.add(ActivityClass::Handshake, 1);
        let mut b = ActivityLedger::new();
        b.add(ActivityClass::Handshake, 2);
        a.merge(&b);
        assert_eq!(a.get(ActivityClass::Handshake), 3);
    }

    #[test]
    fn display_skips_zeros() {
        let mut l = ActivityLedger::new();
        assert_eq!(format!("{l}"), "(no activity)");
        l.add(ActivityClass::RegClock, 3);
        assert_eq!(format!("{l}"), "reg-clock=3");
    }

    #[test]
    fn merge_all_components() {
        let mut l1 = ActivityLedger::new();
        l1.add(ActivityClass::RegClock, 10);
        let mut l2 = ActivityLedger::new();
        l2.add(ActivityClass::RegClock, 20);
        let merged = merge_all(&[
            ComponentActivity::new(ComponentKind::Crossbar, l1),
            ComponentActivity::new(ComponentKind::Buffering, l2),
        ]);
        assert_eq!(merged.get(ActivityClass::RegClock), 30);
    }

    #[test]
    fn component_names_match_table4_rows() {
        assert_eq!(ComponentKind::Crossbar.name(), "Crossbar");
        assert_eq!(ComponentKind::Buffering.name(), "Buffering");
        assert_eq!(ComponentKind::ConfigMemory.name(), "Configuration");
        assert_eq!(ComponentKind::DataConverter.name(), "Data converter");
    }
}
