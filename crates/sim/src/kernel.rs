//! The two-phase clocking contract every router model follows.
//!
//! All sequential models in the workspace follow the same discipline, which is
//! what makes them composable into larger systems (testbenches, meshes)
//! without delta-cycle machinery:
//!
//! 1. **Evaluate** ([`Clocked::eval`]): read latched register outputs and the
//!    inputs sampled from neighbours, compute combinational results, schedule
//!    register next-values. No register output changes in this phase.
//! 2. **Commit** ([`Clocked::commit`]): the clock edge. Every register latches
//!    its scheduled value and records activity.
//!
//! Because *all* components evaluate before *any* commits, the order in which
//! components are evaluated within a cycle is irrelevant. When the owner
//! samples every input before the cycle, a component cannot even tell whether
//! a neighbour has committed yet, so each one's eval and commit can run back to
//! back — the property [`crate::par::par_step`] exploits to clock large meshes
//! in parallel, in one dispatch.

/// A synchronous component driven by the global clock.
pub trait Clocked {
    /// Combinational evaluation: schedule state updates; change no state
    /// visible to other components.
    fn eval(&mut self);

    /// Clock edge: latch scheduled updates and record activity.
    fn commit(&mut self);
}

/// Evaluate-then-commit a single component for one cycle.
///
/// For a component with no external inputs this is a full cycle; components
/// with inputs get them applied by their owner before calling this.
pub fn step<C: Clocked + ?Sized>(c: &mut C) {
    c.eval();
    c.commit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityLedger;
    use crate::signal::Reg;

    /// A free-running 8-bit counter: the canonical two-phase component.
    struct Counter {
        count: Reg<u8>,
        ledger: ActivityLedger,
    }

    impl Counter {
        fn new() -> Self {
            Self {
                count: Reg::new(0),
                ledger: ActivityLedger::new(),
            }
        }
    }

    impl Clocked for Counter {
        fn eval(&mut self) {
            self.count.set_next(self.count.q().wrapping_add(1));
        }

        fn commit(&mut self) {
            self.count.clock(&mut self.ledger);
        }
    }

    #[test]
    fn step_advances_one_cycle() {
        let mut c = Counter::new();
        step(&mut c);
        assert_eq!(c.count.q(), 1);
        step(&mut c);
        assert_eq!(c.count.q(), 2);
    }

    #[test]
    fn two_phase_order_independence() {
        // Two counters cross-coupled: each samples the other's Q. Whatever
        // order they evaluate in, both must see the *previous* cycle's value.
        let mut a = Reg::new(0u8);
        let mut b = Reg::new(100u8);
        let mut ledger = ActivityLedger::new();
        // eval a then b:
        a.set_next(b.q().wrapping_add(1)); // a <- 101
        b.set_next(a.q().wrapping_add(1)); // b <- 1 (old a, not 101)
        a.clock(&mut ledger);
        b.clock(&mut ledger);
        assert_eq!(a.q(), 101);
        assert_eq!(b.q(), 1);
    }
}
