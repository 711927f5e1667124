//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own operands and reads the layer's counters.

use crate::host::{nproc, Ceilings};
use crate::report::Report;
use crate::stats::{median, median_secs, Rng};
use egemm::engine::runtime::RuntimeConfig;
use egemm::telemetry::metrics;
use egemm::{
    content_fingerprint, gemm_blocked_prepared_fused, prepare_b_fused, CacheStats, Egemm,
    EmulationScheme, EngineConfig, EngineRuntime, SchedStats, TilingConfig,
};
use egemm_fp::{split_planes, Half, SplitKernel};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::DeviceSpec;
use std::sync::Arc;
use std::time::Instant;

pub const SCHEME: EmulationScheme = EmulationScheme::EgemmTc;

/// A runtime with `threads` workers and the default operand-cache bound.
pub fn runtime(threads: usize) -> Arc<EngineRuntime> {
    EngineRuntime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    })
}

/// The public engine on `rt`, with the analytic model's T4 tiling.
pub fn engine(rt: &Arc<EngineRuntime>) -> Egemm {
    Egemm::auto(DeviceSpec::t4()).with_runtime(Arc::clone(rt))
}

/// Useful work of one product, 2mnk.
pub fn flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// The host ceilings (`host.*`).
pub fn host(rep: &mut Report, reps: usize) -> Ceilings {
    let c = crate::host::ceilings(reps);
    rep.set("host.muladd_gflops", c.muladd_gflops, "GFLOP/s");
    rep.set("host.copy_gbs", c.copy_gbs, "GB/s");
    println!(
        "{:<32} {:>14} copy buffers: 2 x {} MiB",
        "",
        "",
        crate::host::COPY_BYTES >> 20
    );
    rep.ratio(
        "host.parallel_ceiling",
        c.parallel_ceiling,
        "x",
        &format!("{} concurrent loops / one loop", nproc()),
    );
    c
}

/// Split throughput on `a` (`fp.*`).
pub fn fp(rep: &mut Report, a: &Matrix<f32>, reps: usize) {
    let n = a.as_slice().len();
    let (mut hi, mut lo) = (vec![Half::ZERO; n], vec![Half::ZERO; n]);
    let (mut hf, mut lf) = (vec![0f32; n], vec![0f32; n]);
    let secs = median_secs(reps, || {
        split_planes(
            SplitKernel::Auto,
            SCHEME.split_scheme(),
            a.as_slice(),
            &mut hi,
            &mut lo,
            &mut hf,
            &mut lf,
        )
    });
    rep.set("fp.split_melem_s", n as f64 / secs / 1e6, "Melem/s");
}

/// Pack, microkernel, JIT-versus-interpreted and scheduler scaling on
/// the product `a·b` (`engine.pack`, `engine.micro`, `engine.sched`).
pub fn engine_layers(
    rep: &mut Report,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    ceil: &Ceilings,
    reps: usize,
) {
    let tk = TilingConfig::TC.k;
    let cfg = EngineConfig::default();
    // A runtime with no operand cache: every preparation packs.
    let cold = EngineRuntime::new(RuntimeConfig {
        threads: nproc(),
        cache_bytes: 0,
        ..RuntimeConfig::default()
    });
    let mut pb = None;
    let secs = median_secs(reps, || {
        pb = Some(prepare_b_fused(&cold, b, SCHEME.split_scheme(), tk, cfg));
    });
    let pb = pb.expect("prepared");
    let bytes = (b.as_slice().len() * 4 + pb.bytes()) as f64;
    rep.set("pack.prepare_b_ms", secs * 1e3, "ms");
    let gbs = bytes / secs / 1e9;
    rep.set("pack.gbs", gbs, "GB/s");
    rep.ratio(
        "pack.pct_copy",
        100.0 * gbs / ceil.copy_gbs,
        "%",
        &format!("host.copy_gbs; bytes = raw B read + packed B written = {bytes:.0}"),
    );

    let run = |threads: usize, jit: bool| {
        let cfg = EngineConfig {
            threads,
            jit,
            ..cfg
        };
        gemm_blocked_prepared_fused(&cold, a, &pb, None, SCHEME, tk, cfg)
    };
    // Warm the compiled kernels and the pool before timing.
    run(1, true);
    run(nproc(), true);
    let (mut t1, mut tn, mut ti) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        for (threads, jit, out) in [
            (1, true, &mut t1),
            (1, false, &mut ti),
            (nproc(), true, &mut tn),
        ] {
            let t = Instant::now();
            std::hint::black_box(run(threads, jit));
            out.push(t.elapsed().as_secs_f64());
        }
    }
    let (t1, tn, ti) = (median(&t1), median(&tn), median(&ti));
    let terms = SCHEME.terms().len() as f64;
    let work = terms * flops(a.rows(), b.cols(), a.cols());
    let gf = work / t1 / 1e9;
    rep.ratio(
        "micro.prepared_gflops",
        gf,
        "GFLOP/s",
        &format!(
            "terms x 2mnk = {work:.0} flops, 1 worker, B prepared, A pack included ({}x{}x{})",
            a.rows(),
            b.cols(),
            a.cols()
        ),
    );
    rep.ratio(
        "micro.pct_peak",
        100.0 * gf / ceil.muladd_gflops,
        "%",
        "host.muladd_gflops (one core)",
    );
    rep.ratio(
        "micro.jit_over_interp",
        ti / t1,
        "x",
        "EngineConfig::jit false / true, 1 worker",
    );
    let n = nproc() as f64;
    let eff = t1 / (n * tn);
    rep.ratio(
        "sched.parallel_eff",
        eff,
        "ratio",
        &format!(
            "t1 / ({n} x t{n}), t1 = {:.3} ms, t{n} = {:.3} ms",
            t1 * 1e3,
            tn * 1e3
        ),
    );
    rep.ratio(
        "sched.eff_over_ceiling",
        eff / (ceil.parallel_ceiling / n),
        "ratio",
        "sched.parallel_eff / (host.parallel_ceiling / nproc)",
    );
}

/// Fingerprint cost on the workload's B (`cache.fingerprint_ms`) and the
/// timing model's cost on its shapes (`tcsim.time_ms`).
pub fn fingerprint_and_tcsim(rep: &mut Report, eg: &Egemm, b: &Matrix<f32>, shapes: &[GemmShape]) {
    let reps = if b.as_slice().len() > 1 << 20 { 5 } else { 50 };
    let secs = median_secs(reps, || {
        std::hint::black_box(content_fingerprint(b.as_slice()));
    });
    rep.set("cache.fingerprint_ms", secs * 1e3, "ms");
    let times: Vec<f64> = (0..40)
        .map(|i| {
            let shape = shapes[i % shapes.len()];
            let t = Instant::now();
            std::hint::black_box(eg.time(shape));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rep.set("tcsim.time_ms", median(&times), "ms");
}

/// Metrics-registry overhead on 64³ `Egemm::gemm` calls, on versus off,
/// interleaved (`telemetry.metrics_overhead_pct`).
pub fn telemetry(rep: &mut Report, eg: &Egemm, rng: &mut Rng, pairs: usize) {
    let (a, b) = (rng.matrix(64, 64), rng.matrix(64, 64));
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..2 * pairs {
        let enabled = i % 2 == 0;
        metrics::set_enabled(enabled);
        let t = Instant::now();
        std::hint::black_box(eg.gemm(&a, &b));
        let dt = t.elapsed().as_secs_f64();
        if i >= 2 {
            if enabled { &mut on } else { &mut off }.push(dt);
        }
    }
    metrics::set_enabled(true);
    let (on, off) = (median(&on), median(&off));
    rep.ratio(
        "telemetry.metrics_overhead_pct",
        100.0 * (on - off) / off,
        "%",
        &format!("64^3 Egemm::gemm, metrics off = {:.4} ms", off * 1e3),
    );
}

/// Counter movement over a measured window of one runtime.
pub struct Counters {
    cache: CacheStats,
    sched: SchedStats,
}

impl Counters {
    pub fn take(rt: &EngineRuntime) -> Counters {
        Counters {
            cache: rt.cache_stats(),
            sched: rt.sched_stats(),
        }
    }

    /// `cache.*` and `sched.*` counters since `self`, per operation.
    pub fn report(&self, rep: &mut Report, rt: &EngineRuntime, ops: usize) {
        let now = Counters::take(rt);
        let (c0, c1) = (&self.cache, &now.cache);
        let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
        rep.ratio(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            &format!("{hits} hits / {} lookups", hits + misses),
        );
        rep.set(
            "cache.evictions",
            (c1.evictions - c0.evictions) as f64,
            "count",
        );
        rep.set(
            "cache.resident_mb",
            c1.bytes as f64 / (1 << 20) as f64,
            "MB",
        );
        let s = now.sched.delta_since(&self.sched);
        let per = |x: u64| x as f64 / ops.max(1) as f64;
        rep.set("sched.steals", per(s.steals), "count/op");
        rep.set("sched.panels_packed", per(s.panels_packed), "count/op");
        rep.set(
            "sched.panel_reuse_hits",
            per(s.panel_reuse_hits),
            "count/op",
        );
    }
}

/// JIT compiles and compile time spent on `rt` so far (`jit.*`).
pub fn jit(rep: &mut Report, rt: &EngineRuntime) {
    let c = rt.cache_stats();
    rep.set("jit.compiles", c.jit_compiles as f64, "count");
    rep.set("jit.compile_ms", c.jit_compile_ns as f64 / 1e6, "ms");
}
