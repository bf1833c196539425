//! The two-phase clocking contract and a minimal simulation driver.
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
//! components are evaluated within a cycle is irrelevant — which is exactly
//! the property [`crate::par`] exploits to evaluate large meshes in parallel.

use crate::time::{Cycle, CycleCount};

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

/// A simulation driver: tracks the current cycle and runs user-supplied
/// per-cycle wiring logic for a bounded number of cycles.
///
/// The driver deliberately does **not** own the components — routers, links
/// and tiles are wired together by their owner (testbench or `noc-mesh` SoC),
/// which borrows them mutably inside the closure. The driver contributes the
/// time base, progress bookkeeping and early-exit support.
#[derive(Debug, Default)]
pub struct Simulator {
    now: Cycle,
}

/// Told to [`Simulator::run_until`] by the per-cycle closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Keep simulating.
    Continue,
    /// Stop after this cycle completes.
    Stop,
}

impl Simulator {
    /// A simulator at cycle zero.
    pub fn new() -> Self {
        Self { now: Cycle::ZERO }
    }

    /// The cycle about to be executed (or just executed, between calls).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Run exactly `cycles` cycles, invoking `tick(cycle)` for each.
    ///
    /// `tick` must perform the full evaluate/commit sequence for every
    /// component it owns (helpers: [`step`], [`crate::par::par_step`]).
    pub fn run<F: FnMut(Cycle)>(&mut self, cycles: CycleCount, mut tick: F) {
        for _ in 0..cycles {
            tick(self.now);
            self.now += 1;
        }
    }

    /// Run at most `max_cycles`, stopping early when `tick` returns
    /// [`Advance::Stop`]. Returns the number of cycles actually executed.
    pub fn run_until<F: FnMut(Cycle) -> Advance>(
        &mut self,
        max_cycles: CycleCount,
        mut tick: F,
    ) -> CycleCount {
        let start = self.now;
        for _ in 0..max_cycles {
            let adv = tick(self.now);
            self.now += 1;
            if adv == Advance::Stop {
                break;
            }
        }
        self.now - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivityClass, ActivityLedger};
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

    #[test]
    fn simulator_runs_requested_cycles() {
        let mut sim = Simulator::new();
        let mut c = Counter::new();
        sim.run(5000, |_| step(&mut c));
        assert_eq!(sim.now(), Cycle(5000));
        // 5000 cycles of an 8-bit counter: 5000 % 256 = 136.
        assert_eq!(c.count.q(), 136);
        // Clock energy charged every cycle for all 8 bits.
        assert_eq!(c.ledger.get(ActivityClass::RegClock), 5000 * 8);
    }

    #[test]
    fn run_until_stops_early() {
        let mut sim = Simulator::new();
        let mut c = Counter::new();
        let executed = sim.run_until(1000, |_| {
            step(&mut c);
            if c.count.q() == 10 {
                Advance::Stop
            } else {
                Advance::Continue
            }
        });
        assert_eq!(executed, 10);
        assert_eq!(sim.now(), Cycle(10));
    }

    #[test]
    fn run_until_respects_max() {
        let mut sim = Simulator::new();
        let executed = sim.run_until(7, |_| Advance::Continue);
        assert_eq!(executed, 7);
    }

    #[test]
    fn tick_sees_monotonic_cycles() {
        let mut sim = Simulator::new();
        let mut seen = Vec::new();
        sim.run(4, |c| seen.push(c.0));
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // A second run continues where the first stopped.
        sim.run(2, |c| seen.push(c.0));
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
