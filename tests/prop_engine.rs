//! Property-based bit-identity tests of the blocked execution engine.
//!
//! The engine (crates/core/src/engine) may block, pack, and parallelize
//! however it likes, but per output element it must replay *exactly* the
//! profiled Tensor-Core accumulation order. These properties compare it
//! against the crate's independent entrywise oracle
//! ([`emulated_gemm_entrywise`], fixed at tk = 8 over the whole
//! reduction) and, for other chunk depths and split-K slices, the same
//! scalar replay with an explicit `tk` and k range — with `to_bits`
//! equality, zero tolerance — across all four schemes, `tk` in
//! {4, 8, 16}, and adversarial shapes: 1 x k x 1, non-multiples of every
//! tile size, m << n and m >> n.

use egemm::engine::{self, Plan};
use egemm::{
    emulated_gemm_entrywise, emulated_gemm_rows, mul_add_step, prepare_b_fused, Egemm,
    EmulationScheme, EngineConfig, EngineRuntime, RuntimeConfig, SplitMatrix, TilingConfig,
};
use egemm_fp::SplitKernel;
use egemm_matrix::Matrix;
use egemm_tcsim::DeviceSpec;
use proptest::prelude::*;

const SCHEMES: [EmulationScheme; 4] = [
    EmulationScheme::EgemmTc,
    EmulationScheme::Markidis,
    EmulationScheme::MarkidisFourTerm,
    EmulationScheme::TcHalf,
];

/// Scalar replay of the accumulation contract with an explicit `tk` and
/// k range: ascending k in `tk` chunks from `k_lo`, scheme terms in
/// issue order per chunk, one separate binary32 multiply and add per
/// product ([`mul_add_step`]). At tk = 8 over the whole reduction this *is*
/// [`emulated_gemm_entrywise`], which is then called instead.
#[allow(clippy::too_many_arguments)]
fn oracle(
    sa: &SplitMatrix,
    sb: &SplitMatrix,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
    tk: usize,
    (k_lo, k_hi): (usize, usize),
    i: usize,
    j: usize,
) -> f32 {
    let (k, n) = (sa.cols(), sb.cols());
    if tk == TilingConfig::TC.k && (k_lo, k_hi) == (0, k) {
        return emulated_gemm_entrywise(sa, sb, c, scheme, i, j);
    }
    let mut acc = c.map_or(0.0, |c0| c0.get(i, j));
    let mut kt = k_lo;
    while kt < k_hi {
        let chunk = tk.min(k_hi - kt);
        for &(a_lo, b_lo) in scheme.terms() {
            let ap = sa.plane(a_lo);
            let bp = sb.plane(b_lo);
            for kk in kt..kt + chunk {
                acc = mul_add_step(acc, ap[i * k + kk], bp[kk * n + j]);
            }
        }
        kt += chunk;
    }
    acc
}

/// Raw operands and their `scheme` splits (the splits feed only the
/// oracle; the engine takes the raw pair).
struct Operands {
    a: Matrix<f32>,
    b: Matrix<f32>,
    sa: SplitMatrix,
    sb: SplitMatrix,
}

fn operands(m: usize, k: usize, n: usize, scheme: EmulationScheme, seed: u64) -> Operands {
    let a = Matrix::<f32>::random_uniform(m, k, seed);
    let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
    let sa = SplitMatrix::split(&a, scheme.split_scheme());
    let sb = SplitMatrix::split(&b, scheme.split_scheme());
    Operands { a, b, sa, sb }
}

/// `engine::gemm` on the process-wide runtime.
fn run(plan: Plan<'_>) -> Matrix<f32> {
    engine::gemm(EngineRuntime::global(), &plan)
}

/// The first element of `d` (the `range` product seeded by `c`) that
/// differs from the oracle, as `(i, j, got, want)`.
fn first_divergence(
    d: &Matrix<f32>,
    ops: &Operands,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
    tk: usize,
    range: (usize, usize),
) -> Option<(usize, usize, u32, u32)> {
    for i in 0..d.rows() {
        for j in 0..d.cols() {
            let want = oracle(&ops.sa, &ops.sb, c, scheme, tk, range, i, j).to_bits();
            let got = d.get(i, j).to_bits();
            if got != want {
                return Some((i, j, got, want));
            }
        }
    }
    None
}

fn bits(d: &Matrix<f32>) -> Vec<u32> {
    d.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes, schemes, tk, and blocking configs: every output
    /// element bit-equals the oracle.
    #[test]
    fn blocked_engine_bit_identical(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        tk_idx in 0usize..3,
        scheme_idx in 0usize..4,
        mc in 1usize..12,
        nc in 1usize..24,
        kc in 1usize..32,
        threads in 1usize..4,
        seed in 0u64..1000,
        with_c in proptest::strategy::any::<bool>(),
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let ops = operands(m, k, n, scheme, seed);
        let c = Matrix::<f32>::random_uniform(m, n, seed + 2);
        let c_opt = if with_c { Some(&c) } else { None };
        let cfg = EngineConfig { mc, nc, kc, threads, ..Default::default() };
        let d = run(Plan { c: c_opt, tk, cfg, ..Plan::new(&ops.a, &ops.b, scheme) });
        let bad = first_divergence(&d, &ops, c_opt, scheme, tk, (0, k));
        prop_assert!(bad.is_none(), "{:?} tk={} threads={}: {:?}", scheme, tk, threads, bad);
    }

    /// Split-K slices chunk from the slice start and stay bit-identical.
    #[test]
    fn blocked_range_bit_identical(
        k in 2usize..48,
        cut_num in 1usize..8,
        tk_idx in 0usize..3,
        scheme_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let ops = operands(5, k, 7, scheme, seed);
        let range = ((cut_num * k / 8).min(k - 1), k);
        let cfg = EngineConfig { mc: 3, nc: 5, kc: 9, threads: 2, ..Default::default() };
        let d = run(Plan { k_range: Some(range), tk, cfg, ..Plan::new(&ops.a, &ops.b, scheme) });
        let bad = first_divergence(&d, &ops, None, scheme, tk, range);
        prop_assert!(bad.is_none(), "{:?} tk={} slice {:?}: {:?}", scheme, tk, range, bad);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The raw-operand pipeline, which splits inside the panel pack,
    /// bit-equals the oracle over ahead-of-time splits: random
    /// (non-tile-multiple) shapes, all four schemes (covering both
    /// split schemes), pool sizes 1 and 4, with and without C, full
    /// products and split-K slices starting mid-operand.
    #[test]
    fn fused_pipeline_bit_identical_to_staged(
        m in 1usize..24,
        k in 2usize..48,
        n in 1usize..28,
        scheme_idx in 0usize..4,
        threads_idx in 0usize..2,
        cut_num in 0usize..8,
        tk_idx in 0usize..3,
        seed in 0u64..1000,
        with_c in proptest::strategy::any::<bool>(),
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let threads = [1usize, 4][threads_idx];
        let ops = operands(m, k, n, scheme, seed);
        let c = Matrix::<f32>::random_uniform(m, n, seed + 2);
        let c_opt = if with_c { Some(&c) } else { None };
        let cfg = EngineConfig { mc: 5, nc: 9, kc: 12, threads, ..Default::default() };

        let d = run(Plan { c: c_opt, tk, cfg, ..Plan::new(&ops.a, &ops.b, scheme) });
        let bad = first_divergence(&d, &ops, c_opt, scheme, tk, (0, k));
        prop_assert!(bad.is_none(), "{:?} tk={} threads={}: {:?}", scheme, tk, threads, bad);

        // Split-K slice: chunking restarts at k_lo.
        let range = ((cut_num * k / 8).min(k - 1), k);
        let rt = EngineRuntime::new(RuntimeConfig {
            threads,
            cache_bytes: 0,
            ..Default::default()
        });
        let plan = Plan { k_range: Some(range), tk, cfg, ..Plan::new(&ops.a, &ops.b, scheme) };
        let d = engine::gemm(&rt, &plan);
        let bad = first_divergence(&d, &ops, None, scheme, tk, range);
        prop_assert!(bad.is_none(), "{:?} tk={} slice {:?}: {:?}", scheme, tk, range, bad);
    }

    /// The whole public API (gemm, prepared handles, split-K) at pool
    /// sizes 1 and 4 bit-equals the oracle; split-K equals the
    /// ascending-slice f32 reduction of per-slice oracle replays.
    #[test]
    fn staged_knob_agrees_with_fused_default(
        m in 1usize..16,
        k in 2usize..32,
        n in 1usize..16,
        scheme_idx in 0usize..4,
        slices in 1usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let ops = operands(m, k, n, scheme, seed);
        let (a, b) = (&ops.a, &ops.b);
        let s = slices.min(k);
        let mut want_sk = Matrix::<f32>::zeros(m, n);
        for sl in 0..s {
            let range = (k * sl / s, k * (sl + 1) / s);
            for i in 0..m {
                for j in 0..n {
                    let p = oracle(&ops.sa, &ops.sb, None, scheme, 8, range, i, j);
                    want_sk.set(i, j, want_sk.get(i, j) + p);
                }
            }
        }
        for threads in [1usize, 4] {
            let eg = egemm_on(scheme, RuntimeConfig { threads, ..Default::default() });
            let d = eg.gemm(a, b).d;
            let bad = first_divergence(&d, &ops, None, scheme, 8, (0, k));
            prop_assert!(bad.is_none(), "gemm (threads={}): {:?}", threads, bad);
            let pb = eg.prepare(b);
            let dp = eg.gemm_prepared(a, &pb, None).d;
            prop_assert_eq!(bits(&dp), bits(&d), "prepared (threads={})", threads);
            let sk = eg.gemm_split_k(a, b, s).d;
            prop_assert_eq!(bits(&sk), bits(&want_sk), "split-k s={} (threads={})", s, threads);
        }
    }
}

/// An `Egemm` on a fresh private runtime (so cache counters and pool
/// width are isolated from other tests in this process).
fn egemm_on(scheme: EmulationScheme, cfg: RuntimeConfig) -> Egemm {
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER)
        .with_scheme(scheme)
        .with_runtime(EngineRuntime::new(cfg))
}

/// The uncached reference path: no caching, scalar split kernel,
/// single thread.
fn cold_reference(scheme: EmulationScheme) -> Egemm {
    egemm_on(
        scheme,
        RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
            split_kernel: SplitKernel::Scalar,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At pool sizes 1 and 4, the uncached scalar path bit-equals the
    /// oracle, and the cache-miss, cache-hit and prepared-handle paths
    /// bit-equal it.
    #[test]
    fn cached_paths_bit_identical_to_uncached(
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..16,
        scheme_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let ops = operands(m, k, n, scheme, seed);
        let (a, b) = (&ops.a, &ops.b);
        let want = cold_reference(scheme).gemm(a, b).d;
        let bad = first_divergence(&want, &ops, None, scheme, 8, (0, k));
        prop_assert!(bad.is_none(), "uncached path vs oracle ({:?}): {:?}", scheme, bad);

        for threads in [1usize, 4] {
            let eg = egemm_on(scheme, RuntimeConfig { threads, ..Default::default() });
            let miss = eg.gemm(a, b).d; // cold cache: B misses
            let hit = eg.gemm(a, b).d; // warm cache: B hits
            let pb = eg.prepare(b);
            let prepared = eg.gemm_prepared(a, &pb, None).d;
            let prepared_again = eg.gemm_prepared(a, &pb, None).d;
            for (name, d) in [
                ("miss", &miss),
                ("hit", &hit),
                ("prepared", &prepared),
                ("prepared_again", &prepared_again),
            ] {
                prop_assert_eq!(
                    bits(d),
                    bits(&want),
                    "{} path diverged ({:?}, threads={})",
                    name,
                    scheme,
                    threads
                );
            }
            let st = eg.runtime().cache_stats();
            prop_assert!(st.hits >= 2, "warm call and prepare must hit B: {:?}", st);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Work-stealing pool sizes 2/4/8 under deliberately tiny blocking
    /// (many tiles per worker, so idle workers must steal, and every
    /// jc column's B panel is contended through the cooperative store)
    /// agree bitwise with the 1-worker output — itself checked against
    /// the oracle — across the raw-B, prepared-B and split-K paths.
    #[test]
    fn pool_sizes_bit_identical_under_tiny_blocking(
        m in 1usize..32,
        k in 2usize..40,
        n in 1usize..36,
        scheme_idx in 0usize..4,
        cut_num in 0usize..8,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = 8usize;
        let ops = operands(m, k, n, scheme, seed);
        let cfg_for =
            |threads: usize| EngineConfig { mc: 5, nc: 9, kc: 7, threads, ..Default::default() };
        let range = ((cut_num * k / 8).min(k - 1), k);
        let full = |threads| Plan { tk, cfg: cfg_for(threads), ..Plan::new(&ops.a, &ops.b, scheme) };
        let sliced = |threads| Plan { k_range: Some(range), ..full(threads) };

        let want_d = run(full(1));
        let bad = first_divergence(&want_d, &ops, None, scheme, tk, (0, k));
        prop_assert!(bad.is_none(), "1-worker product vs oracle: {:?}", bad);
        let want_range_d = run(sliced(1));
        let bad = first_divergence(&want_range_d, &ops, None, scheme, tk, range);
        prop_assert!(bad.is_none(), "1-worker slice vs oracle: {:?}", bad);
        let (want, want_range) = (bits(&want_d), bits(&want_range_d));

        for threads in [2usize, 4, 8] {
            let raw = bits(&run(full(threads)));
            prop_assert_eq!(&raw, &want, "raw B diverged (threads={})", threads);

            let rt = EngineRuntime::new(RuntimeConfig {
                threads,
                cache_bytes: 0,
                ..Default::default()
            });
            let pb = prepare_b_fused(&rt, &ops.b, scheme.split_scheme(), tk, cfg_for(threads));
            let plan = Plan { tk, cfg: cfg_for(threads), ..Plan::new(&ops.a, &pb, scheme) };
            let prepared = bits(&engine::gemm(&rt, &plan));
            prop_assert_eq!(&prepared, &want, "prepared-B diverged (threads={})", threads);

            let ranged = bits(&run(sliced(threads)));
            prop_assert_eq!(&ranged, &want_range, "split-K diverged (threads={})", threads);
        }
    }
}

#[test]
fn panel_store_packs_each_panel_exactly_once_per_call() {
    // The cooperative panel store's contract: per engine call, each
    // (jc, pc) B panel is packed by exactly one worker and every other
    // (tile, pc) visit reuses the published copy. mc=5 / nc=16 / kc=8
    // with tk=8 are already legal (no clamping), so a 23x29x31 product
    // has a 5x2 tile grid over 4 k-panels: 2*4 = 8 packs and
    // 5*2*4 - 8 = 32 reuse hits per cold call, at every pool size.
    let scheme = EmulationScheme::EgemmTc;
    let ops = operands(23, 29, 31, scheme, 55);
    for threads in [1usize, 2, 4] {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads,
            cache_bytes: 0,
            ..Default::default()
        });
        let cfg = EngineConfig {
            mc: 5,
            nc: 16,
            kc: 8,
            threads,
            ..Default::default()
        };
        for call in 0..2 {
            let before = rt.sched_stats();
            let _ = engine::gemm(
                &rt,
                &Plan {
                    cfg,
                    ..Plan::new(&ops.a, &ops.b, scheme)
                },
            );
            let d = rt.sched_stats().delta_since(&before);
            assert_eq!(
                d.panels_packed, 8,
                "threads={threads} call={call}: each (jc,pc) slot must pack exactly once"
            );
            assert_eq!(
                d.panel_reuse_hits, 32,
                "threads={threads} call={call}: remaining row tiles must reuse"
            );
        }
    }
}

#[test]
fn mutated_operand_misses_and_follows_new_data() {
    let scheme = EmulationScheme::EgemmTc;
    let eg = egemm_on(scheme, RuntimeConfig::default());
    let a = Matrix::<f32>::random_uniform(9, 21, 77);
    let mut b = Matrix::<f32>::random_uniform(21, 11, 78);
    let pb_old = eg.prepare(&b);
    let d1 = eg.gemm(&a, &b).d;
    let misses_before = eg.runtime().cache_stats().misses;

    // Mutate one element of B: the content fingerprint must change, so
    // the lookup misses and the result follows the new data.
    let s = b.as_mut_slice();
    s[5] += 1.0;
    let d2 = eg.gemm(&a, &b).d;
    assert!(
        eg.runtime().cache_stats().misses > misses_before,
        "mutated operand must miss the cache"
    );
    let want = cold_reference(scheme).gemm(&a, &b).d;
    for (x, y) in d2.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "stale data served after mutation");
    }

    // The handle prepared before the mutation pins the *old* data: it
    // still reproduces the original result, eviction or not.
    let d1_again = eg.gemm_prepared(&a, &pb_old, None).d;
    for (x, y) in d1_again.as_slice().iter().zip(d1.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "prepared handle lost its data");
    }
}

#[test]
fn adversarial_shapes_bit_identical() {
    // 1 x k x 1, tile-size non-multiples, m << n, m >> n — every scheme,
    // every tk, checked against the oracle (the crate's entrywise oracle
    // itself at tk = 8).
    let shapes = [
        (1usize, 19usize, 1usize),
        (7, 13, 11),
        (2, 37, 64),
        (64, 21, 2),
    ];
    for scheme in SCHEMES {
        for (m, k, n) in shapes {
            let ops = operands(m, k, n, scheme, 0xC0FFEE);
            for tk in [4usize, 8, 16] {
                let cfg = EngineConfig {
                    mc: 5,
                    nc: 9,
                    kc: 12,
                    threads: 2,
                    ..Default::default()
                };
                let d = run(Plan {
                    tk,
                    cfg,
                    ..Plan::new(&ops.a, &ops.b, scheme)
                });
                let bad = first_divergence(&d, &ops, None, scheme, tk, (0, k));
                assert!(bad.is_none(), "{scheme:?} {m}x{k}x{n} tk={tk}: {bad:?}");
            }
        }
    }
}

#[test]
fn gemm_with_c_accumulation_regression() {
    // The public API path (fused split + engine + C seed) bit-matches
    // the entrywise oracle with the same C.
    let eg = Egemm::auto(DeviceSpec::t4());
    let a = Matrix::<f32>::random_uniform(18, 27, 5);
    let b = Matrix::<f32>::random_uniform(27, 14, 6);
    let c = Matrix::<f32>::random_uniform(18, 14, 7);
    let sa = SplitMatrix::split(&a, eg.scheme.split_scheme());
    let sb = SplitMatrix::split(&b, eg.scheme.split_scheme());
    let out = eg.gemm_with_c(&a, &b, Some(&c));
    for i in 0..18 {
        for j in 0..14 {
            let want = emulated_gemm_entrywise(&sa, &sb, Some(&c), eg.scheme, i, j);
            assert_eq!(out.d.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
        }
    }
}

/// Overwrite every `stride`-th element of `m` (offset by `seed`) with
/// the next entry of `vals`, cycling.
fn sprinkle(m: &mut Matrix<f32>, vals: &[f32], stride: usize, seed: usize) {
    for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
        if (i + seed).is_multiple_of(stride) {
            *x = vals[(i / stride) % vals.len()];
        }
    }
}

/// NaN payloads no arithmetic produces, so each one in an output names
/// the operand it came from.
const A_NANS: [u32; 2] = [0x7fc0_a000, 0xffe0_4000];
const B_NANS: [u32; 2] = [0x7fd0_0000, 0xff90_2000]; // the second signals
const C_NANS: [u32; 2] = [0x7fc0_0bcd, 0xffc1_2345];

/// Entries past the binary16 range, infinities and subnormals: each
/// takes the FMA path when no NaN is around.
const WILD: [f32; 6] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    70000.0,
    -3e38,
    1e-40,
    -3e-6,
];

/// `engine::gemm` under a small blocking and `Egemm::gemm_with_c` under
/// the default one, at pools 1 and 4 with the JIT on, bit-equal
/// `emulated_gemm_entrywise` at every element.
fn check_against_oracle(a: &Matrix<f32>, b: &Matrix<f32>, c: &Matrix<f32>, what: &str) {
    for scheme in SCHEMES {
        let sa = SplitMatrix::split(a, scheme.split_scheme());
        let sb = SplitMatrix::split(b, scheme.split_scheme());
        for threads in [1usize, 4] {
            let cfg = EngineConfig {
                mc: 8,
                nc: 32,
                kc: 16,
                threads,
                jit: true,
            };
            let direct = run(Plan {
                c: Some(c),
                cfg,
                ..Plan::new(a, b, scheme)
            });
            let eg = egemm_on(
                scheme,
                RuntimeConfig {
                    threads,
                    ..Default::default()
                },
            );
            let public = eg.gemm_with_c(a, b, Some(c)).d;
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let want = emulated_gemm_entrywise(&sa, &sb, Some(c), scheme, i, j).to_bits();
                    for (path, d) in [("engine::gemm", &direct), ("Egemm::gemm_with_c", &public)] {
                        assert_eq!(
                            d.get(i, j).to_bits(),
                            want,
                            "{what}: {path} {scheme:?} threads={threads} ({i}, {j})"
                        );
                    }
                }
            }
        }
    }
}

/// NaNs with distinct payloads in A, B and C next to infinities and
/// out-of-range values: NaN-bearing panels fall back to the mul+add
/// kernel, so every payload lands where the oracle puts it.
#[test]
fn non_finite_operands_bit_identical() {
    let (m, k, n) = (13usize, 40usize, 37usize);
    let mut a = Matrix::<f32>::random_uniform(m, k, 71);
    let mut b = Matrix::<f32>::random_uniform(k, n, 72);
    let mut c = Matrix::<f32>::random_uniform(m, n, 73);
    sprinkle(&mut a, &WILD, 7, 1);
    sprinkle(&mut b, &WILD, 11, 2);
    let nan = f32::from_bits;
    // Under the small blocking (kc = 16, nc = 32) A's first NaN sits in
    // k panel 0 and B's NaNs in panel 1, so each flag alone has to keep
    // its panel off the FMA kernels.
    a.set(2, 3, nan(A_NANS[0]));
    a.set(9, 30, nan(A_NANS[1]));
    b.set(20, 20, nan(B_NANS[0]));
    b.set(30, 5, nan(B_NANS[1]));
    b.set(17, 33, nan(B_NANS[0]));
    c.set(0, 0, nan(C_NANS[0]));
    c.set(12, 36, nan(C_NANS[1]));
    // The cases an unconditional FMA gets wrong. C(2, 7) is NaN, A's row
    // 2 holds a NaN and B's column 7 none, so the mul+add contract keeps
    // C's payload where FMA would return A's. C(4, 20) mirrors it for
    // B: B's column 20 holds a NaN and A's row 4 none.
    c.set(2, 7, nan(C_NANS[1]));
    c.set(4, 20, nan(C_NANS[0]));
    assert!((0..k).all(|kk| !b.get(kk, 7).is_nan() && !a.get(4, kk).is_nan()));
    for scheme in SCHEMES {
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        for (i, j, payload) in [(2, 7, C_NANS[1]), (4, 20, C_NANS[0])] {
            let want = emulated_gemm_entrywise(&sa, &sb, Some(&c), scheme, i, j);
            assert_eq!(want.to_bits(), payload, "{scheme:?}: C's payload survives");
        }
    }
    check_against_oracle(&a, &b, &c, "NaN-bearing");
    // Without A's NaNs, only B's flag (the prepared operand's, on the
    // `Egemm` path) keeps C's NaNs from meeting a fused NaN product.
    a.set(2, 3, 1.0);
    a.set(9, 30, -1.0);
    check_against_oracle(&a, &b, &c, "B-only NaN");
}

/// Infinities, out-of-range values and subnormals with no NaN operand
/// run the FMA kernels, and C's NaNs still come back as C's: FMA only
/// differs when a multiplicand is NaN.
#[test]
fn non_finite_nan_free_operands_bit_identical() {
    let (m, k, n) = (13usize, 40usize, 37usize);
    let mut a = Matrix::<f32>::random_uniform(m, k, 81);
    let mut b = Matrix::<f32>::random_uniform(k, n, 82);
    let mut c = Matrix::<f32>::random_uniform(m, n, 83);
    sprinkle(&mut a, &WILD, 5, 3);
    sprinkle(&mut b, &WILD, 9, 4);
    sprinkle(&mut c, &C_NANS.map(f32::from_bits), 17, 5);
    check_against_oracle(&a, &b, &c, "NaN-free");
}

/// The kMeans assignment shape: k = 60 leaves every A row a 4-element
/// SIMD tail (and a 12-element one under the small blocking's kc = 16),
/// n = 50 a ragged final B strip, and the centroid operand fits one
/// pack unit. Both split kernels' masked tails, at pools 1 and 4.
#[test]
fn kmeans_like_tails_bit_identical() {
    for (m, seed) in [(37usize, 91u64), (130, 95)] {
        let a = Matrix::<f32>::random_uniform(m, 60, seed);
        let b = Matrix::<f32>::random_uniform(60, 50, seed + 1);
        let c = Matrix::<f32>::random_uniform(m, 50, seed + 2);
        check_against_oracle(&a, &b, &c, "k = 60, n = 50");
    }
}

#[test]
fn row_sampling_validates_upfront() {
    let scheme = EmulationScheme::EgemmTc;
    let ops = operands(6, 8, 4, scheme, 9);
    let (a, b) = (&ops.a, &ops.b);
    // Valid ascending sample works and bit-matches the full product.
    let full = egemm::emulated_gemm(a, b, None, scheme);
    let sampled = emulated_gemm_rows(a, b, &[1, 4, 5], scheme);
    for (ri, &r) in [1usize, 4, 5].iter().enumerate() {
        for j in 0..4 {
            assert_eq!(sampled.get(ri, j).to_bits(), full.get(r, j).to_bits());
        }
    }
    // Out-of-range and unsorted inputs fail fast with clear messages.
    let oob = std::panic::catch_unwind(|| emulated_gemm_rows(a, b, &[6], scheme));
    let msg = *oob.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("out of range"), "{msg}");
    let dup = std::panic::catch_unwind(|| emulated_gemm_rows(a, b, &[2, 2], scheme));
    let msg = *dup.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("strictly ascending"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// JIT-dispatched execution bit-equals the interpreted microkernel
    /// across schemes, pool sizes, split-K offsets, ragged shapes and
    /// value landscapes: uniform, subnormal, past the binary16 range,
    /// and infinite entries, all NaN-free and so all on the FMA path.
    /// On hosts without a JIT backend both configs run interpreted and
    /// the property holds trivially; everywhere else this is the
    /// end-to-end check that compiled kernels are drop-in replacements.
    #[test]
    fn jit_bit_identical_to_interpreted(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        scheme_idx in 0usize..4,
        tk_idx in 0usize..3,
        pool_idx in 0usize..2,
        cut_num in 0usize..8,
        seed in 0u64..1000,
        landscape in 0usize..4,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let threads = [1usize, 4][pool_idx];
        let mut ops = operands(m, k, n, scheme, seed);
        let wild: &[f32] = match landscape {
            0 => &[],
            1 => &[1e-40, -3e-8, 6e-5, -2e-42],
            2 => &[7e4, -65520.0, 3e38, -1e10],
            _ => &[f32::INFINITY, f32::NEG_INFINITY],
        };
        if !wild.is_empty() {
            sprinkle(&mut ops.a, wild, 3, seed as usize);
            sprinkle(&mut ops.b, wild, 4, seed as usize + 1);
        }
        let base = EngineConfig { mc: 8, nc: 32, kc: 16, threads, ..Default::default() };
        let with_jit = |jit, k_range| Plan {
            k_range,
            tk,
            cfg: EngineConfig { jit, ..base },
            ..Plan::new(&ops.a, &ops.b, scheme)
        };

        let dj = run(with_jit(true, None));
        let di = run(with_jit(false, None));
        prop_assert_eq!(
            bits(&dj), bits(&di),
            "{:?} {}x{}x{} tk={} threads={}", scheme, m, k, n, tk, threads
        );

        // Split-K slice: kernels bake the panel depth, so an offset
        // range exercises short first/last panels under the JIT too.
        let range = Some(((cut_num * k / 8).min(k - 1), k));
        let rj = run(with_jit(true, range));
        let ri = run(with_jit(false, range));
        prop_assert_eq!(
            bits(&rj), bits(&ri),
            "range {:?} {:?} tk={} threads={}", range, scheme, tk, threads
        );
    }
}

#[test]
fn jit_edge_masks_bit_identical() {
    // Deterministic sweep over every column residue a tile can end
    // with: 1..=16 covers all single-strip (AVX) edge masks, 17..=32
    // all dual-strip (AVX-512) masks, 33 a dual-strip pair plus a lone
    // ragged strip. Each n runs one, two and three row blocks (the
    // third a lone last MR block beside the 16-accumulator two-block
    // tile) with the row residue cycling 1..=4; k = 20 with kc = 16
    // gives one looped panel (two tk=8 chunks) and one ragged-only
    // panel (4 deep).
    let scheme = EmulationScheme::MarkidisFourTerm; // most term planes
    for n in 1usize..=33 {
        for blocks in 0..3 {
            let m = 4 * blocks + (n % 4) + 1;
            let ops = operands(m, 20, n, scheme, n as u64);
            let base = EngineConfig {
                mc: 16,
                nc: 64,
                kc: 16,
                threads: 1,
                ..Default::default()
            };
            let with_jit = |jit| {
                run(Plan {
                    cfg: EngineConfig { jit, ..base },
                    ..Plan::new(&ops.a, &ops.b, scheme)
                })
            };
            assert_eq!(
                bits(&with_jit(true)),
                bits(&with_jit(false)),
                "edge sweep n={n} m={m}"
            );
        }
    }
}

#[test]
fn jit_cache_compiles_each_key_exactly_once() {
    // Same shapes, same runtime: the second call must be served
    // entirely by the compiled-kernel cache (and the per-worker memos)
    // without a single new compilation.
    let scheme = EmulationScheme::EgemmTc;
    let ops = operands(23, 29, 31, scheme, 91);
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 2,
        ..Default::default()
    });
    let cfg = EngineConfig {
        mc: 8,
        nc: 32,
        kc: 16,
        threads: 2,
        ..Default::default()
    };
    let plan = Plan {
        cfg,
        ..Plan::new(&ops.a, &ops.b, scheme)
    };
    let d1 = engine::gemm(&rt, &plan);
    let after1 = rt.cache_stats();
    let d2 = engine::gemm(&rt, &plan);
    let after2 = rt.cache_stats();
    assert_eq!(
        after1.jit_compiles, after2.jit_compiles,
        "a repeat call with identical shape classes recompiled kernels"
    );
    if egemm::jit_available() {
        assert!(
            after1.jit_compiles > 0,
            "JIT available but nothing compiled"
        );
        assert!(
            after2.jit_hits > after1.jit_hits,
            "second call never hit the compiled-kernel cache"
        );
        assert!(after2.jit_code_bytes > 0 && after2.jit_compile_ns > 0);
    } else {
        assert_eq!(after1.jit_compiles, 0, "JIT unavailable but compiled");
    }
    assert_eq!(bits(&d1), bits(&d2), "cached kernels changed the bits");
}
