//! Property-based tests of the tensorization: the explicit block/warp/TC
//! hierarchy must be numerically transparent at *every* valid tiling, and
//! its traffic counters must respond to FRAG caching correctly.

use egemm::tensorize::TensorizedGemm;
use egemm::{emulated_gemm, EmulationScheme, SplitMatrix, TilingConfig};
use egemm_matrix::Matrix;
use proptest::prelude::*;

/// Valid small tilings: TC-divisible warp tiles dividing block tiles.
fn arb_tiling() -> impl Strategy<Value = TilingConfig> {
    (1usize..=2, 1usize..=2, 1usize..=2, 1usize..=2, 1usize..=2).prop_map(
        |(wm_t, wn_t, bk_t, bm_w, bn_w)| {
            let wm = 16 * wm_t;
            let wn = 8 * wn_t;
            let wk = 8;
            TilingConfig {
                bm: wm * bm_w,
                bn: wn * bn_w,
                bk: wk * bk_t,
                wm,
                wn,
                wk,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tiled executor equals the flat executor bitwise at any valid
    /// tiling when the matrix divides the block grid evenly.
    #[test]
    fn tiled_equals_flat_at_any_tiling(cfg in arb_tiling(), seed in 0u64..500) {
        let m = cfg.bm * 2;
        let k = cfg.bk * 2;
        let n = cfg.bn * 2;
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, egemm_fp::SplitScheme::Round);
        let sb = SplitMatrix::split(&b, egemm_fp::SplitScheme::Round);
        let exec = TensorizedGemm { config: cfg, frag_caching: true };
        let (tiled, trace) = exec.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let flat = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        for (x, y) in tiled.as_slice().iter().zip(flat.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // HMMA count closed form.
        let expect = (m / 16) * (n / 8) * (k / 8) * 4;
        prop_assert_eq!(trace.hmma_count, expect as u64);
    }

    /// FRAG caching never increases traffic and never changes results, at
    /// any tiling.
    #[test]
    fn caching_monotone_at_any_tiling(cfg in arb_tiling(), seed in 0u64..200) {
        let m = cfg.bm;
        let k = cfg.bk * 2;
        let n = cfg.bn;
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 3);
        let sa = SplitMatrix::split(&a, egemm_fp::SplitScheme::Round);
        let sb = SplitMatrix::split(&b, egemm_fp::SplitScheme::Round);
        let (d_on, t_on) = TensorizedGemm { config: cfg, frag_caching: true }
            .execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let (d_off, t_off) = TensorizedGemm { config: cfg, frag_caching: false }
            .execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        prop_assert_eq!(d_on, d_off);
        prop_assert!(t_on.operand_smem_bytes <= t_off.operand_smem_bytes);
        prop_assert!(t_on.c_traffic_bytes <= t_off.c_traffic_bytes);
        prop_assert_eq!(t_on.gmem_bytes, t_off.gmem_bytes);
    }

    /// Split-K at any slice count stays within the fused error envelope
    /// and reduces to it at one slice.
    #[test]
    fn split_k_envelope(slices in 1usize..6, seed in 0u64..200) {
        let eng = egemm::Egemm::new(
            egemm_tcsim::DeviceSpec::t4(),
            TilingConfig::T4_PAPER,
        );
        let a = Matrix::<f32>::random_uniform(16, 160, seed);
        let b = Matrix::<f32>::random_uniform(160, 16, seed + 1);
        let fused = eng.gemm(&a, &b).d;
        let sk = eng.gemm_split_k(&a, &b, slices);
        for (x, y) in sk.d.as_slice().iter().zip(fused.as_slice()) {
            // Regrouping the 160-deep reduction moves results by at most
            // a few ULPs of the partial magnitudes.
            prop_assert!((x - y).abs() <= 1e-4, "{} vs {}", x, y);
        }
    }
}
