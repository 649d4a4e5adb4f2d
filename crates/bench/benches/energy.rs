//! Criterion benchmarks of the Fig. 5 energy models: the photonic link
//! budget solve and a small cycle-level mesh gather with energy accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emesh::energy::OrionParams;
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::load_gather_energy;
use photonics::energy::PhotonicEnergyModel;
use std::hint::black_box;

fn bench_photonic_energy_model(c: &mut Criterion) {
    let m = PhotonicEnergyModel::default();
    let mut g = c.benchmark_group("photonic_energy");
    for nodes in [64usize, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| black_box(m.sca_pj_per_bit(20.0, n)))
        });
    }
    g.finish();
}

fn bench_mesh_gather_energy(c: &mut Criterion) {
    let mut g = c.benchmark_group("mesh_gather_energy_64");
    g.sample_size(10);
    g.bench_function("64_nodes_32_words", |b| {
        b.iter(|| {
            let cfg = MeshConfig {
                topology: Topology::square(64, MemifPlacement::FourCorners),
                t_r: 1,
                policy: RoutingPolicy::Xy,
                memif: Default::default(),
                buffer_depth: 2,
                max_cycles: 1 << 30,
            };
            let mut mesh = load_gather_energy(cfg, 32);
            let res = mesh.run().unwrap();
            black_box(OrionParams::default().pj_per_payload_bit(&res.energy, 64, 64 * 32 * 64))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_photonic_energy_model,
    bench_mesh_gather_energy
);
criterion_main!(benches);
