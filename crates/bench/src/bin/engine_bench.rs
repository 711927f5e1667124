//! Engine trajectory benchmark: naive row-streaming executor vs the
//! blocked pack-and-tile engine, plus the persistent-runtime entries —
//! warm-cache repeated GEMM (`repeat_shared_b`) and the SIMD split
//! kernel (`split_simd`). Writes `BENCH_engine.json` so future PRs have
//! a perf baseline to compare against.
//!
//! GFLOP/s counts useful f32-equivalent work (2·m·n·k), not the 4x
//! emulation-term overhead, identically for both executors. Every
//! benchmarked path is checked bit-identical to the uncached scalar
//! reference **before** timing — the speedups are pure execution
//! engineering, not numerics. `--smoke` runs only those bit-equality
//! assertions on small shapes (no timing thresholds, no JSON), which is
//! what CI gates every PR on. `--sweep-smoke` runs the worker-count
//! sweep at 1 and 4 workers and asserts 4 beats 1 whenever the machine
//! has at least 2 cores (bit-identity across pool sizes is asserted
//! either way).

use egemm::engine::{self, Plan};
use egemm::{
    prepare_b_fused, telemetry, Egemm, EmulationScheme, EngineConfig, EngineRuntime, GemmReport,
    RuntimeConfig, SplitMatrix, TilingConfig,
};
use egemm_bench::row_streaming_gemm;
use egemm_fp::{simd_split_available, SplitKernel};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::DeviceSpec;
use std::time::Instant;

const TK: usize = 8; // HMMA.1688 reduction depth, the EGEMM-TC kernel's

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn time_reps<T, F: FnMut() -> T>(mut f: F, reps: usize) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(times), last.unwrap())
}

/// One engine call on raw operands at the HMMA.1688 chunk depth.
fn run(
    rt: &EngineRuntime,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    scheme: EmulationScheme,
    cfg: EngineConfig,
) -> Matrix<f32> {
    engine::gemm(
        rt,
        &Plan {
            tk: TK,
            cfg,
            ..Plan::new(a, b, scheme)
        },
    )
}

fn assert_bits_equal(label: &str, got: &Matrix<f32>, want: &Matrix<f32>) {
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: diverges from reference at flat index {i}"
        );
    }
}

struct Row {
    label: &'static str,
    shape: GemmShape,
    /// Worker count the blocked run resolved to (per-entry, so sweeps
    /// and env overrides stay attributable in the baseline file).
    threads: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
}

fn bench_shape(label: &'static str, shape: GemmShape, reps: usize) -> Row {
    let scheme = EmulationScheme::EgemmTc;
    let a = Matrix::<f32>::random_uniform(shape.m, shape.k, 1);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 2);
    let sa = SplitMatrix::split(&a, scheme.split_scheme());
    let sb = SplitMatrix::split(&b, scheme.split_scheme());
    let cfg = EngineConfig::default();

    // The naive executor reads pre-split planes; the engine splits
    // inside its panel pack, so its time includes the split.
    let (t_naive, d_naive) = time_reps(|| row_streaming_gemm(&sa, &sb, scheme, TK), reps);
    let rt = EngineRuntime::global();
    let (t_blocked, d_blocked) = time_reps(|| run(rt, &a, &b, scheme, cfg), reps);
    assert_bits_equal(label, &d_blocked, &d_naive);
    let gf = |t: f64| shape.flops() as f64 / t / 1e9;
    Row {
        label,
        shape,
        threads: cfg.resolved_threads(),
        naive_gflops: gf(t_naive),
        blocked_gflops: gf(t_blocked),
    }
}

/// Warm-cache repeated GEMM with a shared B operand (the serving
/// pattern: one long-lived weight matrix, fresh activations per call).
///
/// * **cold** — no operand cache and the scalar split kernel: both
///   operands are split and packed per panel, every call.
/// * **cold_simd** — same per-call work but with the SIMD split kernel
///   (isolates how much of the win remains after the split is fast).
/// * **warm** — the full `Egemm` API against a populated cache: both
///   operands fingerprint-hit and B's panels arrive prepacked.
struct RepeatSharedB {
    shape: GemmShape,
    threads: usize,
    cold_gflops: f64,
    cold_simd_gflops: f64,
    warm_gflops: f64,
    /// The warm runtime's cache counters after all repetitions.
    cache: egemm::CacheStats,
}

fn bench_repeat_shared_b(shape: GemmShape, reps: usize, assert_perf: bool) -> RepeatSharedB {
    let scheme = EmulationScheme::EgemmTc;
    let a = Matrix::<f32>::random_uniform(shape.m, shape.k, 11);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 12);
    let cfg = EngineConfig::default();

    // Reference + cold timing: uncached scalar splits, per-panel packs.
    let cold_runtime = |split_kernel| {
        EngineRuntime::new(RuntimeConfig {
            cache_bytes: 0,
            split_kernel,
            ..RuntimeConfig::from_env()
        })
    };
    let cold_rt = cold_runtime(SplitKernel::Scalar);
    let (t_cold, d_cold) = time_reps(|| run(&cold_rt, &a, &b, scheme, cfg), reps);

    // Cold with the SIMD split: same per-call work, faster split phase.
    let cold_simd_rt = cold_runtime(SplitKernel::Auto);
    let (t_cold_simd, d_cold_simd) = time_reps(|| run(&cold_simd_rt, &a, &b, scheme, cfg), reps);

    // Warm: the public API on a caching runtime. The first call misses
    // and populates; the timed calls hit B's packed panels. The cache is
    // sized to the workload as a serving config would.
    let warm_rt = EngineRuntime::new(RuntimeConfig {
        cache_bytes: 1 << 30,
        ..RuntimeConfig::from_env()
    });
    let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(warm_rt.clone());
    let d_first = eg.gemm(&a, &b).d;
    let (t_warm, d_warm) = time_reps(|| eg.gemm(&a, &b).d, reps);

    // And the zero-lookup prepared-handle path.
    let pb = prepare_b_fused(&warm_rt, &b, scheme.split_scheme(), TK, cfg);
    let d_prepared = engine::gemm(
        &warm_rt,
        &Plan {
            tk: TK,
            cfg,
            ..Plan::new(&a, &pb, scheme)
        },
    );

    // Bitwise identity across every path before any timing claim.
    assert_bits_equal("repeat_shared_b cold_simd", &d_cold_simd, &d_cold);
    assert_bits_equal("repeat_shared_b first", &d_first, &d_cold);
    assert_bits_equal("repeat_shared_b warm", &d_warm, &d_cold);
    assert_bits_equal("repeat_shared_b prepared", &d_prepared, &d_cold);

    let stats = warm_rt.cache_stats();
    assert!(
        stats.hits >= 2 && stats.packs == 1,
        "warm path must reuse the cached operands: {stats:?}"
    );

    let gf = |t: f64| shape.flops() as f64 / t / 1e9;
    let out = RepeatSharedB {
        shape,
        threads: warm_rt.default_threads(),
        cold_gflops: gf(t_cold),
        cold_simd_gflops: gf(t_cold_simd),
        warm_gflops: gf(t_warm),
        cache: warm_rt.cache_stats(),
    };
    if assert_perf {
        assert!(
            out.warm_gflops >= 2.0 * out.cold_gflops,
            "warm-cache path must be >= 2x cold: warm {:.2} vs cold {:.2} GF/s",
            out.warm_gflops,
            out.cold_gflops
        );
    }
    out
}

/// SIMD vs scalar split over one large operand, bit-equality asserted
/// over all four output planes before timing.
struct SplitSimd {
    elements: usize,
    scalar_melems: f64,
    simd_melems: f64,
}

fn bench_split_simd(rows: usize, cols: usize, reps: usize, assert_perf: bool) -> SplitSimd {
    let src = Matrix::<f32>::random_uniform(rows, cols, 21);
    let scheme = EmulationScheme::EgemmTc.split_scheme();
    let (t_scalar, d_scalar) = time_reps(
        || SplitMatrix::split_with(&src, scheme, SplitKernel::Scalar),
        reps,
    );
    let (t_simd, d_simd) = time_reps(
        || SplitMatrix::split_with(&src, scheme, SplitKernel::Auto),
        reps,
    );
    assert_eq!(d_simd.hi.as_slice(), d_scalar.hi.as_slice(), "hi planes");
    assert_eq!(d_simd.lo.as_slice(), d_scalar.lo.as_slice(), "lo planes");
    for (p, q) in d_simd
        .hi_f32
        .iter()
        .chain(d_simd.lo_f32.iter())
        .zip(d_scalar.hi_f32.iter().chain(d_scalar.lo_f32.iter()))
    {
        assert_eq!(p.to_bits(), q.to_bits(), "widened planes diverge");
    }
    let elements = rows * cols;
    let me = |t: f64| elements as f64 / t / 1e6;
    let out = SplitSimd {
        elements,
        scalar_melems: me(t_scalar),
        simd_melems: me(t_simd),
    };
    if assert_perf && simd_split_available() {
        assert!(
            out.simd_melems >= 3.0 * out.scalar_melems,
            "SIMD split must be >= 3x scalar: {:.1} vs {:.1} Melem/s",
            out.simd_melems,
            out.scalar_melems
        );
    }
    out
}

/// Interpreted vs JIT-compiled microkernel, per emulation scheme: the
/// same operands executed with `EngineConfig::jit` off (the
/// term-plane interpreter) and on (shape-specialized compiled
/// kernels). Bit-identity is asserted before any timing claim, and the
/// first JIT call — which pays every compilation — runs outside the
/// timed region, so the JIT number measures steady-state dispatch
/// against a warm compiled-kernel cache.
struct JitRow {
    scheme_label: &'static str,
    shape_label: &'static str,
    shape: GemmShape,
    threads: usize,
    interp_gflops: f64,
    jit_gflops: f64,
    jit_compiles: u64,
    jit_code_bytes: u64,
}

fn bench_jit_kernel(
    shape_label: &'static str,
    shape: GemmShape,
    reps: usize,
    assert_perf: bool,
) -> Vec<JitRow> {
    let schemes: [(&'static str, EmulationScheme); 4] = [
        ("egemm_tc", EmulationScheme::EgemmTc),
        ("markidis", EmulationScheme::Markidis),
        ("markidis4", EmulationScheme::MarkidisFourTerm),
        ("tc_half", EmulationScheme::TcHalf),
    ];
    schemes
        .iter()
        .map(|&(scheme_label, scheme)| {
            let a = Matrix::<f32>::random_uniform(shape.m, shape.k, 51);
            let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 52);
            let base = EngineConfig::default();
            let interp_cfg = EngineConfig { jit: false, ..base };
            let jit_cfg = EngineConfig { jit: true, ..base };
            let rt = EngineRuntime::new(RuntimeConfig {
                cache_bytes: 0,
                ..RuntimeConfig::from_env()
            });

            // Bit-identity first; the JIT call here also pays every
            // compilation for this shape class.
            let d_interp = run(&rt, &a, &b, scheme, interp_cfg);
            let d_jit = run(&rt, &a, &b, scheme, jit_cfg);
            assert_bits_equal(
                &format!("jit_kernel {scheme_label} {shape_label}"),
                &d_jit,
                &d_interp,
            );

            let (t_interp, _) = time_reps(|| run(&rt, &a, &b, scheme, interp_cfg), reps);
            let (t_jit, _) = time_reps(|| run(&rt, &a, &b, scheme, jit_cfg), reps);
            let stats = rt.cache_stats();
            if egemm::jit_available() {
                assert!(
                    stats.jit_compiles > 0,
                    "JIT available but {scheme_label}/{shape_label} compiled nothing"
                );
            } else {
                assert_eq!(stats.jit_compiles, 0, "JIT unavailable but compiled");
            }
            let gf = |t: f64| shape.flops() as f64 / t / 1e9;
            let row = JitRow {
                scheme_label,
                shape_label,
                shape,
                threads: base.resolved_threads(),
                interp_gflops: gf(t_interp),
                jit_gflops: gf(t_jit),
                jit_compiles: stats.jit_compiles,
                jit_code_bytes: stats.jit_code_bytes,
            };
            if assert_perf && egemm::jit_available() {
                assert!(
                    row.jit_gflops >= row.interp_gflops,
                    "JIT must not lose to the interpreter on {scheme_label}/{shape_label}: \
                     jit {:.2} vs interp {:.2} GF/s",
                    row.jit_gflops,
                    row.interp_gflops
                );
            }
            row
        })
        .collect()
}

fn print_jit(rows: &[JitRow]) {
    println!(
        "jit_kernel      (compiled kernels {})",
        if egemm::jit_available() {
            "available"
        } else {
            "unavailable on this host"
        }
    );
    println!(
        "{:<16}{:>12}{:>16}{:>14}{:>12}{:>10}{:>10}",
        "", "scheme", "shape", "interp GF/s", "jit GF/s", "speedup", "kernels"
    );
    for r in rows {
        println!(
            "{:<16}{:>12}{:>16}{:>14.2}{:>12.2}{:>9.2}x{:>6} ({} B)",
            "",
            r.scheme_label,
            r.shape_label,
            r.interp_gflops,
            r.jit_gflops,
            r.jit_gflops / r.interp_gflops,
            r.jit_compiles,
            r.jit_code_bytes,
        );
    }
}

/// One worker count's measurement in the thread sweep.
struct SweepPoint {
    workers: usize,
    gflops: f64,
    /// Max worker busy-time over mean (1.0 = perfect balance), from the
    /// telemetry report over the timed repetitions.
    imbalance: f64,
    steals: u64,
    tiles_stolen: u64,
    /// Fraction of all claimed tiles that arrived via a steal.
    steal_ratio: f64,
    panels_packed: u64,
    panel_reuse_hits: u64,
}

/// Worker-count sweep over one shape: same operands, only
/// `EngineConfig::threads` varies. Every pool size is bit-checked
/// against the 1-worker output before timing — the scheduler moves
/// tiles between workers but must never change what any tile computes.
/// Scheduler counters (steals, panel-store reuse) and the telemetry
/// imbalance come from a fresh zero-cache runtime per point, so the
/// deltas cover exactly the timed repetitions.
fn bench_thread_sweep(shape: GemmShape, reps: usize, workers: &[usize]) -> Vec<SweepPoint> {
    let scheme = EmulationScheme::EgemmTc;
    let a = Matrix::<f32>::random_uniform(shape.m, shape.k, 41);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 42);
    let base = EngineConfig::default();
    let tiles_per_call = (shape.m.div_ceil(base.mc) * shape.n.div_ceil(base.nc)) as u64;

    let reference = {
        let rt = EngineRuntime::new(RuntimeConfig {
            cache_bytes: 0,
            ..RuntimeConfig::from_env()
        });
        let cfg = EngineConfig { threads: 1, ..base };
        run(&rt, &a, &b, scheme, cfg)
    };

    workers
        .iter()
        .map(|&w| {
            let rt = EngineRuntime::new(RuntimeConfig {
                cache_bytes: 0,
                ..RuntimeConfig::from_env()
            });
            let cfg = EngineConfig { threads: w, ..base };
            // Bit-identity before any timing claim.
            let once = run(&rt, &a, &b, scheme, cfg);
            assert_bits_equal(&format!("thread_sweep workers={w}"), &once, &reference);

            // Timed reps run with telemetry off (span recording would
            // tax exactly the contended claim path under test); the
            // scheduler counters are always-on registry counters, so
            // their deltas still cover the timed calls.
            let sched0 = rt.sched_stats();
            let (t, _) = time_reps(|| run(&rt, &a, &b, scheme, cfg), reps);
            let sched = rt.sched_stats().delta_since(&sched0);

            // One extra untimed call with telemetry on, for the
            // per-worker busy-time imbalance ratio.
            telemetry::set_enabled(true);
            let _ = telemetry::drain();
            let cache0 = rt.cache_stats();
            let start_ns = telemetry::now_ns();
            let _ = run(&rt, &a, &b, scheme, cfg);
            let report = GemmReport::collect(
                format!("sweep workers={w}"),
                start_ns,
                rt.cache_stats().delta_since(&cache0),
                rt.sched_stats().delta_since(&sched0),
            );
            telemetry::set_enabled(false);

            SweepPoint {
                workers: w,
                gflops: shape.flops() as f64 / t / 1e9,
                imbalance: report.imbalance,
                steals: sched.steals,
                tiles_stolen: sched.tiles_stolen,
                steal_ratio: sched.tiles_stolen as f64 / (tiles_per_call * reps as u64) as f64,
                panels_packed: sched.panels_packed,
                panel_reuse_hits: sched.panel_reuse_hits,
            }
        })
        .collect()
}

fn print_sweep(shape: GemmShape, points: &[SweepPoint]) {
    println!(
        "thread sweep    {}x{}x{} (available parallelism: {})",
        shape.m,
        shape.n,
        shape.k,
        available_parallelism()
    );
    println!(
        "{:<16}{:>8}{:>14}{:>12}{:>12}{:>14}",
        "", "workers", "GF/s", "imbalance", "steals", "panel reuse"
    );
    for p in points {
        println!(
            "{:<16}{:>8}{:>14.2}{:>12.3}{:>6} ({:>3} t){:>8}/{} packed",
            "",
            p.workers,
            p.gflops,
            p.imbalance,
            p.steals,
            p.tiles_stolen,
            p.panel_reuse_hits,
            p.panels_packed,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sweep_smoke = args.iter().any(|a| a == "--sweep-smoke");
    let quick = args.iter().any(|a| a == "--quick");
    // Default stays the tracked baseline at the repo root; --out
    // redirects (e.g. under target/) without touching it.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());

    if smoke {
        // CI gate: every bit-equality assertion inside the benchmarked
        // paths, on shapes small enough for a PR check. No timing
        // thresholds (shared runners), no JSON.
        bench_shape("smoke_square", GemmShape::square(96), 1);
        bench_shape("smoke_skewed", GemmShape::new(16, 192, 160), 1);
        bench_repeat_shared_b(GemmShape::new(16, 256, 256), 1, false);
        bench_split_simd(64, 331, 1, false);
        // Edge-heavy ragged shape so the smoke run exercises masked
        // stores and the dual-strip tail, per scheme.
        bench_jit_kernel("smoke_ragged", GemmShape::new(33, 37, 40), 1, false);
        println!("engine_bench --smoke: all bit-equality assertions passed");
        return;
    }

    if sweep_smoke {
        // CI gate for the work-stealing scheduler: 4 workers must beat
        // 1 worker on the large square shape. Bit-identity across pool
        // sizes is asserted unconditionally inside the sweep; the
        // speedup assertion only fires when the machine actually has
        // cores to scale onto (shared runners have >= 2; a 1-core box
        // can only report, not prove).
        let shape = GemmShape::square(1024);
        let points = bench_thread_sweep(shape, 3, &[1, 4]);
        print_sweep(shape, &points);
        let avail = available_parallelism();
        if avail >= 2 {
            assert!(
                points[1].gflops > points[0].gflops,
                "4 workers must out-run 1 worker on {avail} cores: \
                 {:.2} vs {:.2} GF/s",
                points[1].gflops,
                points[0].gflops
            );
            println!(
                "engine_bench --sweep-smoke: 4 workers {:.2} GF/s > 1 worker {:.2} GF/s \
                 ({:.2}x on {avail} cores)",
                points[1].gflops,
                points[0].gflops,
                points[1].gflops / points[0].gflops
            );
        } else {
            println!(
                "engine_bench --sweep-smoke: bit-identity held across pool sizes; \
                 speedup assertion skipped (1 core available)"
            );
        }
        return;
    }

    let reps = if quick { 1 } else { 3 };
    let shapes: &[(&'static str, GemmShape)] = if quick {
        &[
            ("square_512", GemmShape::square(512)),
            ("skewed_m32", GemmShape::new(32, 2048, 2048)),
        ]
    } else {
        &[
            // Figure 8 regime: large square.
            ("square_1024", GemmShape::square(1024)),
            // Figure 9 regime: tall-skinny output (m = 64, n = k = 4096)
            // where whole-row partitioning can use at most 64 workers and
            // 2D tiling is required to spread the columns.
            ("skewed_m64", GemmShape::new(64, 4096, 4096)),
        ]
    };

    let rows: Vec<Row> = shapes
        .iter()
        .map(|&(label, shape)| bench_shape(label, shape, reps))
        .collect();

    // Persistent-runtime entries. The warm >= 2x cold and SIMD >= 3x
    // scalar thresholds are acceptance criteria in full mode; --quick
    // still checks bits but relaxes nothing else (same shapes scaled
    // down would distort the cache-reuse ratio).
    let repeat_shape = if quick {
        GemmShape::new(32, 2048, 2048)
    } else {
        GemmShape::new(64, 4096, 4096)
    };
    let repeat = bench_repeat_shared_b(repeat_shape, reps, !quick);
    let (sr, sc) = if quick { (2048, 2048) } else { (4096, 4096) };
    let split = bench_split_simd(sr, sc, reps, !quick);
    // Worker-count scaling on the square shape: 1/2/4/8-worker GFLOPS,
    // imbalance, steal traffic, and panel-store reuse.
    let sweep_shape = if quick {
        GemmShape::square(512)
    } else {
        GemmShape::square(1024)
    };
    let sweep = bench_thread_sweep(sweep_shape, reps, &[1, 2, 4, 8]);
    // Interpreted vs compiled microkernels: the uniform square shape
    // (one hot full-tile kernel) and a ragged shape whose edges force
    // masked-store and short-panel kernel variants. JIT >= interpreted
    // is an acceptance criterion in full mode wherever a backend
    // exists; --quick and JIT-less hosts still assert bit-identity.
    let (jit_square_label, jit_square, jit_ragged_label, jit_ragged) = if quick {
        (
            "square_512",
            GemmShape::square(512),
            "ragged_253",
            GemmShape::new(253, 261, 167),
        )
    } else {
        (
            "square_1024",
            GemmShape::square(1024),
            "ragged_509",
            GemmShape::new(509, 517, 333),
        )
    };
    let mut jit_rows = bench_jit_kernel(jit_square_label, jit_square, reps, !quick);
    jit_rows.extend(bench_jit_kernel(jit_ragged_label, jit_ragged, reps, !quick));

    println!(
        "{:<16}{:>8}{:>8}{:>8}{:>14}{:>14}{:>10}",
        "shape", "m", "n", "k", "naive GF/s", "blocked GF/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<16}{:>8}{:>8}{:>8}{:>14.2}{:>14.2}{:>9.2}x",
            r.label,
            r.shape.m,
            r.shape.n,
            r.shape.k,
            r.naive_gflops,
            r.blocked_gflops,
            r.blocked_gflops / r.naive_gflops
        );
    }
    println!(
        "{:<16}{:>8}{:>8}{:>8}{:>14.2}{:>14.2}{:>9.2}x  (cold_simd {:.2})",
        "repeat_shared_b",
        repeat.shape.m,
        repeat.shape.n,
        repeat.shape.k,
        repeat.cold_gflops,
        repeat.warm_gflops,
        repeat.warm_gflops / repeat.cold_gflops,
        repeat.cold_simd_gflops,
    );
    println!("{:<16}warm runtime cache: {}", "", repeat.cache);
    println!(
        "{:<16}{:>10} elems{:>14.1}{:>14.1}{:>9.2}x  (Melem/s, simd {})",
        "split_simd",
        split.elements,
        split.scalar_melems,
        split.simd_melems,
        split.simd_melems / split.scalar_melems,
        if simd_split_available() {
            "avx2+f16c"
        } else {
            "unavailable"
        },
    );
    print_sweep(sweep_shape, &sweep);
    print_jit(&jit_rows);

    let mut json = String::from("{\n  \"entries\": {\n");
    for r in &rows {
        json.push_str(&format!(
            "    \"{}\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup\": {:.3}}},\n",
            r.label,
            r.shape.m,
            r.shape.n,
            r.shape.k,
            r.threads,
            r.naive_gflops,
            r.blocked_gflops,
            r.blocked_gflops / r.naive_gflops,
        ));
    }
    json.push_str(&format!(
        "    \"repeat_shared_b\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \"cold_gflops\": {:.3}, \"cold_simd_gflops\": {:.3}, \"warm_gflops\": {:.3}, \"warm_over_cold\": {:.3}, \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"packs\": {}, \"hit_ratio\": {:.4}, \"resident_bytes\": {}, \"bytes_staging_saved\": {}}}}},\n",
        repeat.shape.m,
        repeat.shape.n,
        repeat.shape.k,
        repeat.threads,
        repeat.cold_gflops,
        repeat.cold_simd_gflops,
        repeat.warm_gflops,
        repeat.warm_gflops / repeat.cold_gflops,
        repeat.cache.hits,
        repeat.cache.misses,
        repeat.cache.evictions,
        repeat.cache.packs,
        repeat.cache.hit_ratio(),
        repeat.cache.bytes,
        repeat.cache.bytes_staging_saved,
    ));
    json.push_str(&format!(
        "    \"split_simd\": {{\"elements\": {}, \"scalar_melems_s\": {:.3}, \"simd_melems_s\": {:.3}, \"speedup\": {:.3}, \"simd_available\": {}}},\n",
        split.elements,
        split.scalar_melems,
        split.simd_melems,
        split.simd_melems / split.scalar_melems,
        simd_split_available(),
    ));
    for (i, r) in jit_rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"jit_{}_{}\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"threads\": {}, \"interp_gflops\": {:.3}, \"jit_gflops\": {:.3}, \"speedup\": {:.3}, \"jit_compiles\": {}, \"jit_code_bytes\": {}, \"jit_available\": {}}}{}\n",
            r.shape_label,
            r.scheme_label,
            r.shape.m,
            r.shape.n,
            r.shape.k,
            r.threads,
            r.interp_gflops,
            r.jit_gflops,
            r.jit_gflops / r.interp_gflops,
            r.jit_compiles,
            r.jit_code_bytes,
            egemm::jit_available(),
            if i + 1 < jit_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"thread_sweep\": {{\n    \"m\": {}, \"n\": {}, \"k\": {}, \"available_parallelism\": {},\n    \"points\": [\n",
        sweep_shape.m,
        sweep_shape.n,
        sweep_shape.k,
        available_parallelism(),
    ));
    for (i, p) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"workers\": {}, \"gflops\": {:.3}, \"imbalance\": {:.3}, \"steals\": {}, \"tiles_stolen\": {}, \"steal_ratio\": {:.4}, \"panels_packed\": {}, \"panel_reuse_hits\": {}}}{}\n",
            p.workers,
            p.gflops,
            p.imbalance,
            p.steals,
            p.tiles_stolen,
            p.steal_ratio,
            p.panels_packed,
            p.panel_reuse_hits,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");
}
