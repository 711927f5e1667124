//! Criterion bench for the Figure 7 pipeline: the functional emulated
//! GEMM plus error measurement, per scheme, at a bench-friendly size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egemm::{emulated_gemm, EmulationScheme};
use egemm_matrix::Matrix;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_precision");
    g.sample_size(10);
    for &n in &[128usize, 256] {
        let a = Matrix::<f32>::random_uniform(n, n, 1);
        let b = Matrix::<f32>::random_uniform(n, n, 2);
        for scheme in [
            EmulationScheme::EgemmTc,
            EmulationScheme::Markidis,
            EmulationScheme::TcHalf,
        ] {
            g.bench_with_input(BenchmarkId::new(scheme.label(), n), &n, |bench, _| {
                bench.iter(|| black_box(emulated_gemm(&a, &b, None, scheme)));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
