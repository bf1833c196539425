//! The stream definitions of Table 3 and the test scenarios of Fig. 8.
//!
//! | Stream | Input port | Output port |
//! |---|---|---|
//! | 1 | Tile | Router (East) |
//! | 2 | Router (North) | Tile |
//! | 3 | Router (West) | Router (East) |
//!
//! Scenario I runs no traffic (measuring the static offset of the dynamic
//! power); Scenario II runs stream 1; Scenario III adds stream 2;
//! Scenario IV adds stream 3, which shares the East output *port* with
//! stream 1 — on the circuit router they occupy different lanes of that
//! port (lane multiplexing), on the packet router they time-multiplex the
//! same 16-bit link and collide in the switch allocator. That contrast "
//! gives an indication of the difference between time and lane
//! multiplexing" (Section 6.1).

use noc_core::lane::Port;
use std::fmt;

/// Identifier of a Table 3 stream (1-based, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u8);

/// One endpoint of a benchmark stream at router scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The local tile interface, using the given tile-port lane.
    Tile {
        /// Tile-port lane index.
        lane: usize,
    },
    /// A neighbour link, using the given lane of that port.
    Link {
        /// Which neighbour port.
        port: Port,
        /// Lane index within the port.
        lane: usize,
    },
}

impl Endpoint {
    /// The router port this endpoint attaches to.
    pub fn port(&self) -> Port {
        match self {
            Endpoint::Tile { .. } => Port::Tile,
            Endpoint::Link { port, .. } => *port,
        }
    }

    /// The lane within the port.
    pub fn lane(&self) -> usize {
        match self {
            Endpoint::Tile { lane } | Endpoint::Link { lane, .. } => *lane,
        }
    }
}

/// One benchmark stream: data enters the router at `from` and leaves at
/// `to`, at 100% lane load (Section 6.1: "All three data streams have a
/// load of 100%").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDef {
    /// Paper stream number.
    pub id: StreamId,
    /// Where data enters the router.
    pub from: Endpoint,
    /// Where data leaves the router.
    pub to: Endpoint,
}

/// Table 3's three streams with the lane assignment the circuit router
/// uses: each stream gets its own lane, so streams 1 and 3 share the East
/// *port* but not a lane.
pub fn table3_streams() -> [StreamDef; 3] {
    [
        StreamDef {
            id: StreamId(1),
            from: Endpoint::Tile { lane: 0 },
            to: Endpoint::Link {
                port: Port::East,
                lane: 0,
            },
        },
        StreamDef {
            id: StreamId(2),
            from: Endpoint::Link {
                port: Port::North,
                lane: 0,
            },
            to: Endpoint::Tile { lane: 0 },
        },
        StreamDef {
            id: StreamId(3),
            from: Endpoint::Link {
                port: Port::West,
                lane: 0,
            },
            to: Endpoint::Link {
                port: Port::East,
                lane: 1,
            },
        },
    ]
}

/// The four test scenarios of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scenario {
    /// No data traverses the router: "the static offset in the dynamic
    /// power consumption".
    I,
    /// Stream 1: tile interface → link.
    II,
    /// Streams 1+2: adds link → tile interface.
    III,
    /// Streams 1+2+3: adds a stream passing the router, colliding with
    /// stream 1 at the East output port of the packet router.
    IV,
}

impl Scenario {
    /// All four scenarios in order.
    pub const ALL: [Scenario; 4] = [Scenario::I, Scenario::II, Scenario::III, Scenario::IV];

    /// The active streams of this scenario.
    pub fn streams(self) -> &'static [StreamDef] {
        // Lazily built once; scenario stream sets are prefixes of Table 3.
        static STREAMS: std::sync::OnceLock<[StreamDef; 3]> = std::sync::OnceLock::new();
        let all = STREAMS.get_or_init(table3_streams);
        match self {
            Scenario::I => &all[0..0],
            Scenario::II => &all[0..1],
            Scenario::III => &all[0..2],
            Scenario::IV => &all[0..3],
        }
    }

    /// Number of concurrent streams.
    pub fn stream_count(self) -> usize {
        self.streams().len()
    }

    /// Does this scenario make two streams share an output *port*?
    /// (Only IV: streams 1 and 3 both target East.)
    pub fn has_output_port_collision(self) -> bool {
        let streams = self.streams();
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                if a.to.port() == b.to.port() {
                    return true;
                }
            }
        }
        false
    }

    /// The paper's description of the scenario.
    pub fn description(self) -> &'static str {
        match self {
            Scenario::I => "no data traverses the router (dynamic-power offset)",
            Scenario::II => "tile interface to link (stream 1)",
            Scenario::III => "adds link to tile interface (streams 1-2)",
            Scenario::IV => "adds a stream passing the router (streams 1-3)",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            Scenario::I => "I",
            Scenario::II => "II",
            Scenario::III => "III",
            Scenario::IV => "IV",
        };
        write!(f, "Scenario {n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let s = table3_streams();
        assert_eq!(s[0].from.port(), Port::Tile);
        assert_eq!(s[0].to.port(), Port::East);
        assert_eq!(s[1].from.port(), Port::North);
        assert_eq!(s[1].to.port(), Port::Tile);
        assert_eq!(s[2].from.port(), Port::West);
        assert_eq!(s[2].to.port(), Port::East);
    }

    #[test]
    fn scenario_stream_counts() {
        assert_eq!(Scenario::I.stream_count(), 0);
        assert_eq!(Scenario::II.stream_count(), 1);
        assert_eq!(Scenario::III.stream_count(), 2);
        assert_eq!(Scenario::IV.stream_count(), 3);
    }

    #[test]
    fn scenarios_are_prefix_nested() {
        // "Scenario III extends Scenario II ... Scenario IV also simulates
        // a data stream that passes the router."
        for pair in Scenario::ALL.windows(2) {
            let smaller = pair[0].streams();
            let larger = pair[1].streams();
            assert_eq!(&larger[..smaller.len()], smaller);
        }
    }

    #[test]
    fn only_scenario_iv_collides_at_a_port() {
        assert!(!Scenario::I.has_output_port_collision());
        assert!(!Scenario::II.has_output_port_collision());
        assert!(!Scenario::III.has_output_port_collision());
        assert!(Scenario::IV.has_output_port_collision());
    }

    #[test]
    fn colliding_streams_use_distinct_lanes() {
        // Lane-division multiplexing: streams 1 and 3 share the East port
        // but not a lane — the whole point of the circuit router.
        let s = table3_streams();
        assert_eq!(s[0].to.port(), s[2].to.port());
        assert_ne!(s[0].to.lane(), s[2].to.lane());
    }

    #[test]
    fn display_names() {
        assert_eq!(Scenario::IV.to_string(), "Scenario IV");
        assert!(Scenario::I.description().contains("offset"));
    }
}
