//! Round-robin arbitration with control-toggle accounting.
//!
//! Arbiters are the "extra control in the crossbar of the packet-switched
//! router" (paper Section 7.3). Beyond their gate cost, their *switching*
//! matters: when two streams collide at an output, the grant alternates
//! between them every cycle, toggling the crossbar select lines and the
//! downstream mux trees — the mechanism behind the non-straight power curve
//! the paper observes when streams 1 and 3 collide at port East. The arbiter
//! therefore records an [`ActivityClass::ArbiterEval`] for every decision
//! over a non-empty request set and an [`ActivityClass::ArbiterGrantChange`]
//! whenever the granted index differs from the previous grant.

use noc_sim::activity::{ActivityClass, ActivityLedger};
use noc_sim::signal::Reg;

/// A round-robin arbiter over `n` requesters.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobin {
    n: usize,
    /// Index granted most recently (search starts after it).
    last: Reg<u8>,
    /// Whether the last cycle produced a grant (for change detection of
    /// grant/no-grant transitions).
    had_grant: Reg<bool>,
}

impl RoundRobin {
    /// An arbiter over `n` requesters (`n ≤ 256`).
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0 && n <= 256, "arbiter size out of range");
        RoundRobin {
            n,
            last: Reg::new(0),
            had_grant: Reg::new(false),
        }
    }

    /// Evaluate one arbitration: grant the first requester after the
    /// previous winner, wrapping. Returns the granted index.
    ///
    /// Call at most once per cycle; the decision is latched at [`commit`].
    ///
    /// [`commit`]: RoundRobin::commit
    pub fn grant(&mut self, requests: &[bool], ledger: &mut ActivityLedger) -> Option<usize> {
        debug_assert_eq!(requests.len(), self.n);
        let any = requests.iter().any(|&r| r);
        if !any {
            self.had_grant.set_next(false);
            self.last.set_next(self.last.q());
            return None;
        }
        ledger.bump(ActivityClass::ArbiterEval);
        let start = (self.last.q() as usize + 1) % self.n;
        let winner = (0..self.n)
            .map(|i| (start + i) % self.n)
            .find(|&i| requests[i])
            .expect("non-empty request set");
        let changed = !self.had_grant.q() || winner != self.last.q() as usize;
        if changed {
            ledger.bump(ActivityClass::ArbiterGrantChange);
        }
        self.last.set_next(winner as u8);
        self.had_grant.set_next(true);
        Some(winner)
    }

    /// Latch the arbitration state.
    pub fn commit(&mut self, ledger: &mut ActivityLedger) {
        self.last.clock_bits(ledger, self.state_bits() - 1);
        self.had_grant.clock(ledger);
    }

    /// Latch with clock gating: the pointer registers only clock when the
    /// decision actually changed (the enable is `grant != last grant`), so
    /// an idle or single-stream arbiter stops paying clock energy.
    pub fn commit_gated(&mut self, ledger: &mut ActivityLedger) {
        let changed = self.last.d() != self.last.q() || self.had_grant.d() != self.had_grant.q();
        if changed {
            self.commit(ledger);
        } else {
            self.last.clock_gated();
            self.had_grant.clock_gated();
        }
    }

    /// State bits held by the arbiter: the pointer register
    /// (`ceil(log2(n))` bits) plus the grant-valid flag.
    pub fn state_bits(&self) -> u32 {
        let ptr = (usize::BITS - (self.n - 1).leading_zeros()).max(1);
        ptr + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(arb: &mut RoundRobin, reqs: &[bool], ledger: &mut ActivityLedger) -> Option<usize> {
        let g = arb.grant(reqs, ledger);
        arb.commit(ledger);
        g
    }

    #[test]
    fn single_requester_always_wins() {
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(4);
        for _ in 0..5 {
            assert_eq!(
                step(&mut arb, &[false, true, false, false], &mut ledger),
                Some(1)
            );
        }
    }

    #[test]
    fn fairness_under_full_contention() {
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(3);
        let mut wins = [0u32; 3];
        for _ in 0..30 {
            let w = step(&mut arb, &[true, true, true], &mut ledger).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [10, 10, 10], "perfect rotation under contention");
    }

    #[test]
    fn no_request_no_grant_no_eval() {
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(2);
        assert_eq!(step(&mut arb, &[false, false], &mut ledger), None);
        assert_eq!(ledger.get(ActivityClass::ArbiterEval), 0);
    }

    #[test]
    fn collision_produces_grant_changes_every_cycle() {
        // Two streams contending: the grant alternates, producing one
        // ArbiterGrantChange per cycle — the Scenario IV control-toggle
        // mechanism.
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(2);
        for _ in 0..10 {
            step(&mut arb, &[true, true], &mut ledger);
        }
        assert_eq!(ledger.get(ActivityClass::ArbiterGrantChange), 10);
    }

    #[test]
    fn steady_single_stream_stops_toggling() {
        // One stream alone: after the first grant the decision is stable,
        // so control toggling vanishes.
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(2);
        step(&mut arb, &[true, false], &mut ledger);
        let after_first = ledger.get(ActivityClass::ArbiterGrantChange);
        for _ in 0..10 {
            step(&mut arb, &[true, false], &mut ledger);
        }
        assert_eq!(
            ledger.get(ActivityClass::ArbiterGrantChange),
            after_first,
            "stable grant must not toggle"
        );
    }

    #[test]
    fn skips_non_requesting() {
        // Search starts after the previous winner (initially index 0), so
        // the first grant over {0,2} lands on 2, then rotation alternates.
        let mut ledger = ActivityLedger::new();
        let mut arb = RoundRobin::new(4);
        assert_eq!(
            step(&mut arb, &[true, false, true, false], &mut ledger),
            Some(2)
        );
        assert_eq!(
            step(&mut arb, &[true, false, true, false], &mut ledger),
            Some(0)
        );
        assert_eq!(
            step(&mut arb, &[true, false, true, false], &mut ledger),
            Some(2)
        );
    }

    #[test]
    #[should_panic(expected = "arbiter size")]
    fn zero_size_rejected() {
        let _ = RoundRobin::new(0);
    }
}
