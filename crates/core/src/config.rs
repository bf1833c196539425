//! Crossbar configuration: entries, words and the configuration memory.
//!
//! Paper Section 5.1: "The configuration of the crossbar (which input lane is
//! connected with which output lane) is stored in a local configuration
//! memory. Per output lane the input lane is stored plus an activation bit.
//! The configuration memory size is 5x20 = 100 bits. ... Configuration of
//! 1 lane requires 10 bits that are generated by the CCN based on the optimal
//! applications mapping. The configuration interface is connected to the
//! separate BE network."
//!
//! This module implements those three artefacts exactly: [`ConfigEntry`]
//! (5 bits), [`ConfigWord`] (10 bits: output-lane address + entry) and
//! [`ConfigMemory`] (20 entries, written one word per cycle through the side
//! interface).

use crate::error::ConfigError;
use crate::lane::{LaneIndex, Port};
use crate::params::{bits_for, RouterParams};
use noc_sim::activity::{ActivityClass, ActivityLedger};
use std::fmt;

/// One output lane's configuration: the foreign-input select plus the
/// activation bit (5 bits in the paper's configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfigEntry {
    /// Index into the output port's 16 foreign input lanes.
    pub select: u8,
    /// When false the output lane is idle and drives zeros.
    pub active: bool,
}

impl ConfigEntry {
    /// An inactive entry (reset state: all lanes off).
    pub const INACTIVE: ConfigEntry = ConfigEntry {
        select: 0,
        active: false,
    };

    /// An active entry selecting foreign input `select`.
    pub fn active(select: u8) -> ConfigEntry {
        ConfigEntry {
            select,
            active: true,
        }
    }

    /// Pack into the low `entry_bits` of a word: `[select | active]` with
    /// the activation bit in bit 0.
    pub fn pack(self, params: &RouterParams) -> u16 {
        debug_assert!((self.select as usize) < params.foreign_lanes());
        ((self.select as u16) << 1) | self.active as u16
    }

    /// Unpack from the low `entry_bits` of a word.
    pub fn unpack(raw: u16, params: &RouterParams) -> Result<ConfigEntry, ConfigError> {
        let select = (raw >> 1) as u8;
        if (select as usize) >= params.foreign_lanes() {
            return Err(ConfigError::SelectOutOfRange {
                select,
                max: params.foreign_lanes() as u8 - 1,
            });
        }
        Ok(ConfigEntry {
            select,
            active: raw & 1 != 0,
        })
    }

    /// Hamming distance to another entry in packed form — the number of
    /// configuration-memory bits that flip when one entry replaces another.
    pub fn packed_hamming(self, other: ConfigEntry, params: &RouterParams) -> u32 {
        (self.pack(params) ^ other.pack(params)).count_ones()
    }
}

impl fmt::Display for ConfigEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.active {
            write!(f, "sel={} on", self.select)
        } else {
            write!(f, "off")
        }
    }
}

/// A configuration word as delivered over the BE network: flat output-lane
/// address in the high bits, packed [`ConfigEntry`] in the low bits
/// (10 bits total for the paper's router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigWord(pub u16);

impl ConfigWord {
    /// Encode `(output lane, entry)` into a word.
    pub fn encode(out: LaneIndex, entry: ConfigEntry, params: &RouterParams) -> ConfigWord {
        let entry_bits = params.entry_bits();
        ConfigWord(((out.get() as u16) << entry_bits) | entry.pack(params))
    }

    /// Convenience encoder from `(port, lane-within-port)`.
    pub fn for_lane(
        port: Port,
        lane: usize,
        entry: ConfigEntry,
        params: &RouterParams,
    ) -> Result<ConfigWord, ConfigError> {
        params.check_lane(lane)?;
        Ok(Self::encode(
            LaneIndex::of(port, lane, params.lanes_per_port),
            entry,
            params,
        ))
    }

    /// Decode into `(output lane, entry)`, validating every field.
    pub fn decode(self, params: &RouterParams) -> Result<(LaneIndex, ConfigEntry), ConfigError> {
        let word_bits = params.config_word_bits();
        if u32::from(self.0) >> word_bits != 0 {
            return Err(ConfigError::MalformedWord { raw: self.0 });
        }
        let entry_bits = params.entry_bits();
        let out = (self.0 >> entry_bits) as u8;
        if out as usize >= params.total_lanes() {
            return Err(ConfigError::OutputLaneOutOfRange {
                lane: out,
                max: params.total_lanes() as u8 - 1,
            });
        }
        let entry = ConfigEntry::unpack(self.0 & ((1 << entry_bits) - 1), params)?;
        Ok((LaneIndex(out), entry))
    }

    /// Number of meaningful bits in this word for `params`.
    pub fn bits(params: &RouterParams) -> u32 {
        params.config_word_bits()
    }
}

impl fmt::Display for ConfigWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfg:{:#05x}", self.0)
    }
}

/// The router's local configuration memory: one [`ConfigEntry`] per output
/// lane (100 bits in the paper's configuration).
///
/// The memory is built from latches, not pipeline flops: it holds its value
/// without being clocked, so an idle router pays no per-cycle clock energy
/// for it. Writes (rare — streams live for seconds) record
/// [`ActivityClass::ConfigWrite`] events for the bits actually flipped plus
/// [`ActivityClass::SelectToggle`] events for the crossbar select lines the
/// write moves, which is what perturbs the data path.
///
/// Each write also resolves the entry's select to the input lane it reads
/// and keeps a per-port mask of the active output lanes, so the crossbar's
/// per-cycle evaluation decodes nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigMemory {
    params: RouterParams,
    /// One slot per flat output lane.
    slots: Vec<Slot>,
    /// Per output port: bit `l` is set while that port's lane `l` is active.
    active: [u64; Port::COUNT],
}

/// One output lane's entry and, while it is active, the input it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Slot {
    entry: ConfigEntry,
    tap: Tap,
}

/// An active entry's select resolved to the crossbar input it reads: the
/// input port's index and the lane within that port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Tap {
    pub(crate) port: u8,
    pub(crate) lane: u8,
}

impl ConfigMemory {
    /// All-inactive memory (the reset state: every output lane off).
    pub fn new(params: RouterParams) -> ConfigMemory {
        ConfigMemory {
            slots: vec![Slot::default(); params.total_lanes()],
            active: [0; Port::COUNT],
            params,
        }
    }

    /// The entry for flat output lane `out`.
    pub fn entry(&self, out: LaneIndex) -> ConfigEntry {
        self.slots[out.get()].entry
    }

    /// The entry for `(port, lane)`.
    pub fn entry_of(&self, port: Port, lane: usize) -> ConfigEntry {
        self.entry(LaneIndex::of(port, lane, self.params.lanes_per_port))
    }

    /// Apply one configuration word, recording write activity.
    pub fn apply(
        &mut self,
        word: ConfigWord,
        ledger: &mut ActivityLedger,
    ) -> Result<(), ConfigError> {
        let (out, entry) = word.decode(&self.params)?;
        self.write_entry(out, entry, ledger);
        Ok(())
    }

    /// Directly write an entry (the testbench path; the BE network uses
    /// [`Self::apply`]). Records the same activity.
    ///
    /// # Panics
    /// Panics if `entry` is active with a select outside the output port's
    /// foreign lanes — callers validate selects first, as
    /// [`ConfigWord::decode`] and the router's `configure_lane` do.
    pub fn write_entry(&mut self, out: LaneIndex, entry: ConfigEntry, ledger: &mut ActivityLedger) {
        let old = self.slots[out.get()].entry;
        let flipped = old.packed_hamming(entry, &self.params);
        if flipped != 0 {
            ledger.add(ActivityClass::ConfigWrite, flipped as u64);
            // Select-line movement disturbs the mux control nets.
            let select_bits = bits_for(self.params.foreign_lanes());
            let sel_flips = ((old.select ^ entry.select) as u16)
                .count_ones()
                .min(select_bits)
                + (old.active != entry.active) as u32;
            ledger.add(ActivityClass::SelectToggle, sel_flips as u64);
        }
        let lanes = self.params.lanes_per_port;
        let (port, lane) = (out.port(lanes), out.lane(lanes));
        let tap = if entry.active {
            let input = self
                .params
                .select_to_input(port, entry.select)
                .expect("active entries carry validated selects");
            Tap {
                port: input.port(lanes).index() as u8,
                lane: input.lane(lanes) as u8,
            }
        } else {
            Tap::default()
        };
        self.slots[out.get()] = Slot { entry, tap };
        let bit = 1u64 << lane;
        if entry.active {
            self.active[port.index()] |= bit;
        } else {
            self.active[port.index()] &= !bit;
        }
    }

    /// The active output lanes of `port` with the input each one reads,
    /// in lane order: `(output lane, tap)`.
    pub(crate) fn taps(&self, port: Port) -> impl Iterator<Item = (usize, Tap)> + '_ {
        let base = port.index() * self.params.lanes_per_port;
        let mut mask = self.active[port.index()];
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some((lane, self.slots[base + lane].tap))
        })
    }

    /// Number of active output lanes.
    pub fn active_lanes(&self) -> usize {
        self.active.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterate `(flat output lane, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LaneIndex, ConfigEntry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (LaneIndex(i as u8), slot.entry))
    }

    /// The full-router configuration as the word sequence the CCN would send
    /// (20 words for the paper's router — the paper's "fully reconfigured
    /// within 20 ms" budget is 20 words at one word per millisecond).
    pub fn snapshot_words(&self) -> Vec<ConfigWord> {
        self.iter()
            .map(|(out, e)| ConfigWord::encode(out, e, &self.params))
            .collect()
    }

    /// Clear every entry to inactive, recording the flips.
    pub fn reset(&mut self, ledger: &mut ActivityLedger) {
        let lanes: Vec<LaneIndex> = self.iter().map(|(i, _)| i).collect();
        for out in lanes {
            self.write_entry(out, ConfigEntry::INACTIVE, ledger);
        }
    }

    /// The parameters this memory was built for.
    pub fn params(&self) -> &RouterParams {
        &self.params
    }

    /// Total storage bits (Table 4's "Configuration" row counts these).
    pub fn storage_bits(&self) -> u32 {
        self.params.config_memory_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RouterParams {
        RouterParams::paper()
    }

    #[test]
    fn entry_pack_unpack_roundtrip() {
        let p = params();
        for select in 0..16u8 {
            for active in [false, true] {
                let e = ConfigEntry { select, active };
                let packed = e.pack(&p);
                assert!(packed < 1 << p.entry_bits());
                assert_eq!(ConfigEntry::unpack(packed, &p).unwrap(), e);
            }
        }
    }

    #[test]
    fn word_roundtrip_all_lanes() {
        let p = params();
        for lane in 0..p.total_lanes() as u8 {
            let e = ConfigEntry::active(lane % 16);
            let w = ConfigWord::encode(LaneIndex(lane), e, &p);
            assert!(u32::from(w.0) < 1 << p.config_word_bits(), "10-bit words");
            let (out, back) = w.decode(&p).unwrap();
            assert_eq!(out, LaneIndex(lane));
            assert_eq!(back, e);
        }
    }

    #[test]
    fn word_rejects_garbage() {
        let p = params();
        // Bits above the 10-bit field set.
        assert!(matches!(
            ConfigWord(0xFC00).decode(&p),
            Err(ConfigError::MalformedWord { .. })
        ));
    }

    #[test]
    fn memory_starts_inactive() {
        let m = ConfigMemory::new(params());
        assert_eq!(m.active_lanes(), 0);
        assert_eq!(m.storage_bits(), 100);
        for (_, e) in m.iter() {
            assert_eq!(e, ConfigEntry::INACTIVE);
        }
    }

    #[test]
    fn apply_configures_lane_and_counts_bits() {
        let p = params();
        let mut m = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        let w = ConfigWord::for_lane(Port::East, 1, ConfigEntry::active(5), &p).unwrap();
        m.apply(w, &mut ledger).unwrap();
        assert_eq!(m.entry_of(Port::East, 1), ConfigEntry::active(5));
        assert_eq!(m.active_lanes(), 1);
        // select 0->5 flips bits 0 and 2 of select, active 0->1: 3 bit flips.
        assert_eq!(ledger.get(ActivityClass::ConfigWrite), 3);
        assert!(ledger.get(ActivityClass::SelectToggle) > 0);
    }

    #[test]
    fn rewriting_same_entry_is_silent() {
        let p = params();
        let mut m = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        let w = ConfigWord::for_lane(Port::North, 0, ConfigEntry::active(3), &p).unwrap();
        m.apply(w, &mut ledger).unwrap();
        let before = ledger.get(ActivityClass::ConfigWrite);
        m.apply(w, &mut ledger).unwrap();
        assert_eq!(ledger.get(ActivityClass::ConfigWrite), before);
    }

    #[test]
    fn snapshot_is_20_words_and_replays() {
        let p = params();
        let mut m = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        m.write_entry(LaneIndex(7), ConfigEntry::active(9), &mut ledger);
        m.write_entry(LaneIndex(19), ConfigEntry::active(15), &mut ledger);
        let words = m.snapshot_words();
        assert_eq!(words.len(), 20, "full router = 20 configuration words");
        let mut replay = ConfigMemory::new(p);
        for w in words {
            replay.apply(w, &mut ledger).unwrap();
        }
        assert_eq!(replay, m);
    }

    #[test]
    fn reset_deactivates_everything() {
        let p = params();
        let mut m = ConfigMemory::new(p);
        let mut ledger = ActivityLedger::new();
        m.write_entry(LaneIndex(0), ConfigEntry::active(1), &mut ledger);
        m.reset(&mut ledger);
        assert_eq!(m.active_lanes(), 0);
    }

    #[test]
    fn malformed_entry_select_rejected() {
        let p = params();
        // Entry select = 16 is unreachable through pack(), craft raw word:
        // out lane 0, select 16 -> entry bits = 10000_1? select field is 4
        // bits, so 16 can't be expressed in a well-formed word; instead the
        // encoding overflows into the lane address. Verify decode of an
        // out-of-range *lane* instead.
        let raw = ConfigWord((20u16) << p.entry_bits());
        assert!(matches!(
            raw.decode(&p),
            Err(ConfigError::OutputLaneOutOfRange { lane: 20, .. })
        ));
    }

    #[test]
    fn wider_router_entry_bits() {
        let p = RouterParams {
            lanes_per_port: 8,
            ..RouterParams::paper()
        };
        let m = ConfigMemory::new(p);
        // 40 lanes x (5 select bits + 1 active) = 240 bits.
        assert_eq!(m.storage_bits(), 240);
        let e = ConfigEntry::active(31);
        assert_eq!(ConfigEntry::unpack(e.pack(&p), &p).unwrap(), e);
    }
}
