//! Crossbar evaluation throughput against the lane count — the paper's
//! "adjustable parameters in the design" ablation. Doubling lanes grows
//! the mux structure (16→32 foreign inputs) and the active-lane loop, so the
//! per-cycle cost rises; this bench quantifies the simulator-side cost of
//! that design choice alongside the area/fmax models' silicon-side cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noc_core::config::{ConfigEntry, ConfigMemory};
use noc_core::crossbar::{pack_acks, pack_nibbles, Crossbar};
use noc_core::lane::{LaneIndex, Port};
use noc_core::params::RouterParams;
use noc_sim::activity::ActivityLedger;
use noc_sim::bits::Nibble;

fn configured(params: RouterParams) -> (Crossbar, ConfigMemory) {
    let mut cfg = ConfigMemory::new(params);
    let mut scratch = ActivityLedger::new();
    // Activate every output lane on a legal foreign input.
    for port in Port::ALL {
        for lane in 0..params.lanes_per_port {
            let src = Port::ALL.iter().copied().find(|&p| p != port).unwrap();
            let sel = params
                .foreign_select(port, src, lane % params.lanes_per_port)
                .unwrap();
            cfg.write_entry(
                LaneIndex::of(port, lane, params.lanes_per_port),
                ConfigEntry::active(sel),
                &mut scratch,
            );
        }
    }
    (Crossbar::new(params), cfg)
}

fn bench_crossbar(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_eval");
    for lanes in [2usize, 4, 8] {
        let params = RouterParams {
            lanes_per_port: lanes,
            ..RouterParams::paper()
        };
        let (mut xbar, cfg) = configured(params);
        let n = params.total_lanes();
        let lanes_in: Vec<Nibble> = (0..n).map(|i| Nibble::new(i as u8)).collect();
        let inputs = pack_nibbles(&lanes_in, lanes);
        let acks = pack_acks(&vec![false; n], lanes);
        let mut ledger = ActivityLedger::new();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::from_parameter(lanes), |b| {
            b.iter(|| {
                xbar.eval(&inputs, &acks, &cfg);
                xbar.commit(&mut ledger);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crossbar);
criterion_main!(benches);
