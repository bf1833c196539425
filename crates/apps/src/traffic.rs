//! The traffic-pattern test set of paper Section 6.
//!
//! Power depends on three parameters the paper identifies: per-stream load
//! (0–100% of a lane), the amount of bit-flips in the data (best case: all
//! zeros; worst case: continuous flips; typical: random, 50% flips), and
//! the number of concurrent streams (handled by [`crate::scenarios`]).
//! This module provides the first two as deterministic, seedable
//! generators.

use noc_core::phit::Phit;
use noc_sim::rng::SplitMix64;

/// The data patterns of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataPattern {
    /// Best case: "no bit-flips, transmitting only zeros".
    Zeros,
    /// Worst case: "continuous bit-flips" — every bit toggles every word.
    Toggle,
    /// Typical case: "random data with 50% bit-flips".
    Random,
    /// Generalisation for sweeps: each bit flips from the previous word
    /// with this probability (0.0 = `Zeros` from a zero start, 0.5 behaves
    /// like `Random`, 1.0 = `Toggle`).
    BitFlip(f64),
}

impl DataPattern {
    /// Expected fraction of bits flipping between consecutive words.
    pub fn flip_fraction(self) -> f64 {
        match self {
            DataPattern::Zeros => 0.0,
            DataPattern::Toggle => 1.0,
            DataPattern::Random => 0.5,
            DataPattern::BitFlip(p) => p.clamp(0.0, 1.0),
        }
    }

    /// The paper's three test levels in presentation order (Fig. 10's
    /// x-axis: 0%, 50%, 100%).
    pub const LEVELS: [DataPattern; 3] =
        [DataPattern::Zeros, DataPattern::Random, DataPattern::Toggle];
}

/// A deterministic stream of 16-bit data words following a [`DataPattern`].
#[derive(Debug, Clone)]
pub struct WordStream {
    pattern: DataPattern,
    prev: u16,
    rng: SplitMix64,
}

impl WordStream {
    /// A stream with the given pattern and seed (seeds make experiments
    /// reproducible and give concurrent streams independent data).
    pub fn new(pattern: DataPattern, seed: u64) -> WordStream {
        WordStream {
            pattern,
            prev: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next data word.
    pub fn next_word(&mut self) -> u16 {
        let word = match self.pattern {
            DataPattern::Zeros => 0,
            DataPattern::Toggle => self.prev ^ 0xFFFF,
            DataPattern::Random => self.rng.next_u16(),
            DataPattern::BitFlip(p) => {
                let mut mask = 0u16;
                for bit in 0..16 {
                    if self.rng.chance(p) {
                        mask |= 1 << bit;
                    }
                }
                self.prev ^ mask
            }
        };
        self.prev = word;
        word
    }

    /// Measure the empirical flip fraction over `n` words (test helper and
    /// self-check for experiment harnesses).
    pub fn measure_flip_fraction(&mut self, n: usize) -> f64 {
        let mut prev = self.prev;
        let mut flips = 0u64;
        for _ in 0..n {
            let w = self.next_word();
            flips += u64::from((prev ^ w).count_ones());
            prev = w;
        }
        flips as f64 / (n as f64 * 16.0)
    }
}

/// A load-controlled phit source for one lane.
///
/// At 100% load a lane carries one phit per `flits_per_phit` cycles (the
/// paper's 80 Mbit/s per stream at 25 MHz); at lower loads phits are
/// offered at the proportional rate. Backlog accumulates while the router
/// refuses (busy serialiser or closed flow-control window), so a source
/// that is briefly blocked catches up — offered load is preserved.
#[derive(Debug, Clone)]
pub struct PhitSource {
    words: WordStream,
    /// Phits per cycle offered (load / flits_per_phit).
    rate: f64,
    /// Accumulated phit credit.
    acc: f64,
    /// Phits actually emitted.
    pub emitted: u64,
}

impl PhitSource {
    /// A source offering `load` (0.0–1.0) of a lane whose phit takes
    /// `flits_per_phit` cycles.
    pub fn new(pattern: DataPattern, seed: u64, load: f64, flits_per_phit: usize) -> PhitSource {
        assert!((0.0..=1.0).contains(&load), "load is a fraction");
        PhitSource {
            words: WordStream::new(pattern, seed),
            rate: load / flits_per_phit as f64,
            acc: 0.0,
            emitted: 0,
        }
    }

    /// Advance one cycle. `can_send` reports whether the router would
    /// accept a phit right now; returns the phit to inject, if one is due
    /// and sendable.
    pub fn poll(&mut self, can_send: bool) -> Option<Phit> {
        self.acc += self.rate;
        // The epsilon absorbs accumulated f64 rounding (e.g. 10 x 0.1
        // summing to 0.9999...), which would otherwise skew low loads.
        if self.acc + 1e-9 >= 1.0 && can_send {
            self.acc -= 1.0;
            self.emitted += 1;
            Some(Phit::data(self.words.next_word()))
        } else {
            None
        }
    }

    /// Phits currently backed up waiting for the router.
    pub fn backlog(&self) -> u64 {
        self.acc as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_never_flip() {
        let mut s = WordStream::new(DataPattern::Zeros, 1);
        assert_eq!(s.measure_flip_fraction(100), 0.0);
    }

    #[test]
    fn toggle_always_flips() {
        let mut s = WordStream::new(DataPattern::Toggle, 1);
        assert_eq!(s.measure_flip_fraction(100), 1.0);
        let mut t = WordStream::new(DataPattern::Toggle, 1);
        assert_eq!(t.next_word(), 0xFFFF);
        assert_eq!(t.next_word(), 0x0000);
    }

    #[test]
    fn random_flips_about_half() {
        let mut s = WordStream::new(DataPattern::Random, 2005);
        let f = s.measure_flip_fraction(10_000);
        assert!((f - 0.5).abs() < 0.02, "random flip fraction {f}");
    }

    #[test]
    fn bitflip_probability_respected() {
        for p in [0.1, 0.25, 0.75] {
            let mut s = WordStream::new(DataPattern::BitFlip(p), 7);
            let f = s.measure_flip_fraction(10_000);
            assert!((f - p).abs() < 0.02, "p={p}, measured {f}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = WordStream::new(DataPattern::Random, 42);
        let mut b = WordStream::new(DataPattern::Random, 42);
        for _ in 0..50 {
            assert_eq!(a.next_word(), b.next_word());
        }
        let mut c = WordStream::new(DataPattern::Random, 43);
        let first_c: Vec<u16> = (0..8).map(|_| c.next_word()).collect();
        let mut a2 = WordStream::new(DataPattern::Random, 42);
        let first_a: Vec<u16> = (0..8).map(|_| a2.next_word()).collect();
        assert_ne!(first_c, first_a);
    }

    #[test]
    fn full_load_is_one_phit_per_five_cycles() {
        let mut src = PhitSource::new(DataPattern::Random, 1, 1.0, 5);
        let mut sent = 0;
        for _ in 0..100 {
            if src.poll(true).is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, 20, "100 cycles / 5 = 20 phits at 100% load");
    }

    #[test]
    fn half_load_halves_the_rate() {
        let mut src = PhitSource::new(DataPattern::Random, 1, 0.5, 5);
        let mut sent = 0;
        for _ in 0..100 {
            if src.poll(true).is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, 10);
    }

    #[test]
    fn zero_load_sends_nothing() {
        let mut src = PhitSource::new(DataPattern::Zeros, 1, 0.0, 5);
        for _ in 0..50 {
            assert_eq!(src.poll(true), None);
        }
    }

    #[test]
    fn backlog_preserved_while_blocked() {
        let mut src = PhitSource::new(DataPattern::Random, 1, 1.0, 5);
        // Blocked for 25 cycles: 5 phits of backlog accumulate.
        for _ in 0..25 {
            assert_eq!(src.poll(false), None);
        }
        assert_eq!(src.backlog(), 5);
        // Once unblocked, it catches up at one per cycle.
        let mut burst = 0;
        for _ in 0..5 {
            if src.poll(true).is_some() {
                burst += 1;
            }
        }
        assert_eq!(burst, 5, "backlog drains back-to-back");
    }

    #[test]
    #[should_panic(expected = "load is a fraction")]
    fn overload_rejected() {
        let _ = PhitSource::new(DataPattern::Zeros, 1, 1.5, 5);
    }
}
