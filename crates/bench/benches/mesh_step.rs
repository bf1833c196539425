//! Whole-mesh stepping rate: serial vs pooled evaluation for growing mesh
//! sizes. The two-phase clocking contract makes per-cycle router
//! evaluation embarrassingly parallel; this bench locates the crossover
//! where fanning out starts paying off (small meshes lose to the
//! `WorkerPool` dispatch round-trip — the `ParPolicy::Auto` threshold,
//! `ParPolicy::AUTO_SEQUENTIAL_BELOW`). perfbench `--trace 1` makes the
//! same comparison on 16×16 meshes of every backend, with parity checking
//! (`par.seq_over_auto.<backend>`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noc_apps::traffic::DataPattern;
use noc_core::lane::Port;
use noc_core::params::RouterParams;
use noc_mesh::fabric::Fabric;
use noc_mesh::soc::Soc;
use noc_mesh::topology::Mesh;
use noc_sim::par::ParPolicy;

const CYCLES: u64 = 50;

fn build_soc(side: usize) -> Soc {
    let mut soc = Soc::new(Mesh::new(side, side), RouterParams::paper());
    // Give every row a running stream so evaluation has real work.
    for y in 0..side {
        let a = soc.mesh().node(0, y);
        let b = soc.mesh().node(1, y);
        soc.router_mut(a)
            .connect(Port::Tile, 0, Port::East, 0)
            .unwrap();
        soc.router_mut(b)
            .connect(Port::West, 0, Port::Tile, 0)
            .unwrap();
        soc.tiles_mut()
            .bind_source(a.0, 0, DataPattern::Random, y as u64 + 1, 1.0, 5);
    }
    soc
}

fn bench_mesh_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_step");
    group.sample_size(20);
    for side in [4usize, 8, 12] {
        let routers = (side * side) as u64;
        group.throughput(Throughput::Elements(routers * CYCLES));
        group.bench_function(BenchmarkId::new("serial", side), |b| {
            b.iter_batched(
                || {
                    let mut soc = build_soc(side);
                    soc.set_parallelism(ParPolicy::Sequential);
                    soc
                },
                |mut soc| soc.run(CYCLES),
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("parallel", side), |b| {
            b.iter_batched(
                || {
                    let mut soc = build_soc(side);
                    soc.set_parallelism(ParPolicy::Threads(4));
                    soc
                },
                |mut soc| soc.run(CYCLES),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mesh_step);
criterion_main!(benches);
