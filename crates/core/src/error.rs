//! Error types for router configuration.
//!
//! Configuration comes from outside the router (the CCN via the best-effort
//! network), so malformed requests are runtime errors, not panics: a buggy or
//! malicious configuration packet must not take the simulator down any more
//! than it would take silicon down.

use crate::lane::Port;
use std::fmt;

/// A configuration request the router hardware cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Input select exceeds the crossbar's mux width.
    SelectOutOfRange {
        /// Offending select value.
        select: u8,
        /// Largest valid select.
        max: u8,
    },
    /// Lane number exceeds the per-port lane count.
    LaneOutOfRange {
        /// Offending lane number.
        lane: usize,
        /// Largest valid lane.
        max: usize,
    },
    /// Requested an output to listen to its own port — the 16×20 crossbar
    /// has no such input ("data does not have to flow back").
    UTurn {
        /// The port involved.
        port: Port,
    },
    /// Output-lane address in a configuration word exceeds the lane count.
    OutputLaneOutOfRange {
        /// Offending flat output-lane address.
        lane: u8,
        /// Largest valid flat lane address.
        max: u8,
    },
    /// A configuration word's padding bits were non-zero — indicates a
    /// corrupted or misframed word from the BE network.
    MalformedWord {
        /// The raw word received.
        raw: u16,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SelectOutOfRange { select, max } => {
                write!(f, "input select {select} out of range (max {max})")
            }
            ConfigError::LaneOutOfRange { lane, max } => {
                write!(f, "lane {lane} out of range (max {max})")
            }
            ConfigError::UTurn { port } => {
                write!(
                    f,
                    "U-turn on port {port}: output cannot select its own port's input"
                )
            }
            ConfigError::OutputLaneOutOfRange { lane, max } => {
                write!(f, "output lane address {lane} out of range (max {max})")
            }
            ConfigError::MalformedWord { raw } => {
                write!(f, "malformed configuration word {raw:#06x}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ConfigError::SelectOutOfRange {
            select: 16,
            max: 15,
        };
        assert_eq!(e.to_string(), "input select 16 out of range (max 15)");
        let e = ConfigError::UTurn { port: Port::East };
        assert!(e.to_string().contains("East"));
        let e = ConfigError::MalformedWord { raw: 0xFFFF };
        assert!(e.to_string().contains("0xffff"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(ConfigError::LaneOutOfRange { lane: 9, max: 3 });
    }
}
