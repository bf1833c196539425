//! Window-counter ablation: end-to-end throughput of a two-router path as
//! a function of the window size WC (ack batch X = WC/2). Small windows
//! throttle on the ack round trip; WC=8 (the default) sustains 100% load —
//! the design-space evidence behind `RouterParams::paper()`'s choice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noc_apps::traffic::DataPattern;
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_mesh::fabric::Fabric;
use noc_mesh::soc::Soc;
use noc_mesh::topology::Mesh;

const CYCLES: u64 = 2000;

fn run_with_window(wc: u16) -> u64 {
    let params = RouterParams {
        window_size: wc,
        ack_batch: (wc / 2).max(1),
        ..RouterParams::paper()
    };
    let mut soc = Soc::new(Mesh::new(2, 1), params);
    let a = soc.mesh().node(0, 0);
    let b = soc.mesh().node(1, 0);
    soc.router_mut(a)
        .connect(Port::Tile, 0, Port::East, 0)
        .unwrap();
    soc.router_mut(b)
        .connect(Port::West, 0, Port::Tile, 0)
        .unwrap();
    soc.tiles_mut()
        .bind_source(a.0, 0, DataPattern::Random, 1, 1.0, 5);
    soc.run(CYCLES);
    soc.tiles().rx(b.0, 0).received
}

fn bench_flow_control(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(CYCLES));
    for wc in [1u16, 2, 4, 8, 16] {
        group.bench_function(BenchmarkId::from_parameter(wc), |b| {
            b.iter(|| run_with_window(wc))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flow_control);
criterion_main!(benches);
