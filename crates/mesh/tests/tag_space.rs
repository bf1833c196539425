//! Pins the head flit's tag-space limits on both packet-coordinate planes.
//!
//! A stream's tag rides the spare nibbles of the 16-bit head halfword, so
//! `PacketFabric` and `DeflectionFabric` can address 256 stream handles.
//! Provisioning refuses a plan with more streams than that, and runtime
//! admission refuses every stream after handle 255. Both planes must stop
//! at the same handle, a refusal must issue no handle, and the sessions
//! already open must keep delivering.

use noc_mesh::ccn::{Mapping, SpillReason, SpillStream};
use noc_mesh::deflection::DeflectionFabric;
use noc_mesh::fabric::{Fabric, PacketFabric, ProvisionError};
use noc_mesh::stream::{StreamDemand, StreamId};
use noc_mesh::topology::{Mesh, NodeId};
use noc_packet::params::PacketParams;
use noc_sim::units::Bandwidth;

/// Stream handles the head flit's 8-bit tag can address.
const TAGS: usize = 256;

fn mesh() -> Mesh {
    Mesh::new(4, 4)
}

/// Both packet-coordinate planes over `mesh`, unprovisioned.
fn planes(mesh: Mesh) -> [Box<dyn Fabric>; 2] {
    [
        Box::new(PacketFabric::new(
            mesh,
            PacketParams::paper(),
            PacketFabric::DEFAULT_PACKET_WORDS,
        )),
        Box::new(DeflectionFabric::paper(mesh)),
    ]
}

/// A plan of `n` spilled streams, cycling over every ordered pair of
/// distinct tiles. Spilled streams hold no circuit lanes, so a hand-built
/// plan needs no CCN.
fn spilled_plan(mesh: Mesh, n: usize) -> Mapping {
    let pairs: Vec<(NodeId, NodeId)> = mesh
        .iter()
        .flat_map(|src| mesh.iter().map(move |dst| (src, dst)))
        .filter(|(src, dst)| src != dst)
        .collect();
    let spilled = pairs
        .iter()
        .cycle()
        .take(n)
        .map(|&(src, dst)| SpillStream {
            edges: Vec::new(),
            src,
            dst,
            demand: Bandwidth(1.0),
            reason: SpillReason::NoFreeLanes,
        })
        .collect();
    Mapping {
        placement: Vec::new(),
        routes: Vec::new(),
        spilled,
        lane_capacity: Bandwidth(0.0),
    }
}

#[test]
fn a_plan_past_the_tag_space_is_refused_at_provision() {
    let mesh = mesh();
    for mut fabric in planes(mesh) {
        let kind = fabric.kind();
        assert_eq!(
            fabric.provision(&spilled_plan(mesh, TAGS + 1)),
            Err(ProvisionError::TooManyStreams { streams: TAGS + 1 }),
            "{kind}"
        );
        let ids = fabric
            .provision(&spilled_plan(mesh, TAGS))
            .unwrap_or_else(|e| panic!("{kind}: the full tag space provisions: {e}"));
        assert_eq!(ids.len(), TAGS, "{kind}");
    }
}

#[test]
fn admission_stops_after_handle_255_and_live_sessions_still_deliver() {
    let mesh = mesh();
    let demand = StreamDemand {
        src: NodeId(0),
        dst: NodeId(15),
        demand: Bandwidth(1.0),
    };
    let mut last_handles = Vec::new();
    for mut fabric in planes(mesh) {
        let kind = fabric.kind();
        let provisioned = fabric
            .provision(&spilled_plan(mesh, 2))
            .expect("two streams provision");
        let mut last = *provisioned.last().expect("two handles");
        // Admit until the plane refuses; every grant is the next handle.
        while let Ok(id) = fabric.admit(&demand) {
            assert_eq!(id, StreamId(last.0 + 1), "{kind}: handles are dense");
            last = id;
            assert!(last.0 < 1_000, "{kind}: admission never refused");
        }
        assert_eq!(last, StreamId(TAGS as u32 - 1), "{kind}: last handle");
        assert_eq!(
            fabric.stream_is_active(StreamId(TAGS as u32)),
            None,
            "{kind}: a refused admission issues no handle"
        );
        assert!(fabric.admit(&demand).is_err(), "{kind}: refusal persists");

        // The first provisioned and the last admitted session still carry
        // their own words.
        for id in [provisioned[0], last] {
            fabric.inject_stream(id, &[0xA5A5, 0x5A5A, id.0 as u16]);
        }
        fabric.finish_injection();
        fabric.run(500);
        for id in [provisioned[0], last] {
            assert_eq!(
                fabric.drain_stream(id),
                vec![0xA5A5, 0x5A5A, id.0 as u16],
                "{kind}: {id} delivers after the refusal"
            );
        }
        last_handles.push(last);
    }
    assert_eq!(
        last_handles[0], last_handles[1],
        "both planes refuse at the same handle"
    );
}
