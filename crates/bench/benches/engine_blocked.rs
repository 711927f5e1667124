//! Criterion bench: the blocked pack-and-tile execution engine against
//! the naive row-streaming executor it replaced, at sizes small enough
//! for a Criterion loop (the full Figure 8/9 shapes live in the
//! `engine_bench` binary, which emits `BENCH_engine.json`). The naive
//! executor reads operands split ahead of time; the engine takes them
//! raw and splits inside its panel pack, so its time includes the
//! split.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use egemm::engine::{self, Plan};
use egemm::{EmulationScheme, EngineRuntime, SplitMatrix};
use egemm_bench::row_streaming_gemm;
use egemm_matrix::{GemmShape, Matrix};
use std::hint::black_box;

const TK: usize = 8;

fn bench(c: &mut Criterion) {
    let scheme = EmulationScheme::EgemmTc;
    let mut g = c.benchmark_group("engine_blocked");
    for (label, shape) in [
        ("square", GemmShape::square(256)),
        ("skewed_m", GemmShape::new(16, 1024, 1024)),
    ] {
        let a = Matrix::<f32>::random_uniform(shape.m, shape.k, 1);
        let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 2);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        g.throughput(Throughput::Elements(shape.flops()));
        g.bench_function(BenchmarkId::new("naive", label), |bench| {
            bench.iter(|| black_box(row_streaming_gemm(&sa, &sb, scheme, TK)));
        });
        g.bench_function(BenchmarkId::new("blocked", label), |bench| {
            let plan = Plan {
                tk: TK,
                ..Plan::new(&a, &b, scheme)
            };
            bench.iter(|| black_box(engine::gemm(EngineRuntime::global(), &plan)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
