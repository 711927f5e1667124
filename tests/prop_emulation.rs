//! Property-based tests of the numeric core (proptest).
//!
//! Invariants of the split/emulation machinery over the whole input space,
//! not just the paper's U[-1,1] workloads.

use egemm::{emulated_gemm, emulated_gemm_entrywise, EmulationScheme, SplitMatrix};
use egemm_fp::{round_split, truncate_split, Half};
use egemm_matrix::Matrix;
use proptest::prelude::*;

/// Finite, normal-range f32 values (away from overflow/underflow of the
/// binary16 split).
fn workload_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0f32..=1.0,
        -1000.0f32..=1000.0,
        -1e-3f32..=1e-3,
        Just(0.0f32),
        Just(1.0f32),
        Just(-0.5f32),
    ]
}

proptest! {
    /// Round-split reconstructs within the extended-precision bound (with
    /// the subnormal-lo absolute floor).
    #[test]
    fn round_split_error_bound(x in workload_f32()) {
        let s = round_split(x);
        let err = (s.reconstruct() - x as f64).abs();
        let tol = (x.abs() as f64 * 2f64.powi(-21)).max(2f64.powi(-25)) * 1.0001;
        prop_assert!(err <= tol, "err {} tol {}", err, tol);
    }

    /// The hi part of a round-split is the nearest binary16.
    #[test]
    fn round_split_hi_is_nearest(x in workload_f32()) {
        let s = round_split(x);
        prop_assert_eq!(s.hi.to_bits(), Half::from_f32(x).to_bits());
    }

    /// Truncate-split parts never exceed the input magnitude and share its
    /// sign (or are zero).
    #[test]
    fn truncate_split_sign_structure(x in workload_f32()) {
        let s = truncate_split(x);
        if x > 0.0 {
            prop_assert!(!s.hi.is_sign_negative());
            prop_assert!(s.lo.is_zero() || !s.lo.is_sign_negative());
        }
        prop_assert!(s.hi.to_f64().abs() <= x.abs() as f64 * 1.0001 + 1e-30);
    }

    /// Round-split is at least as accurate as truncate-split, pointwise.
    #[test]
    fn round_beats_truncate_pointwise(x in workload_f32()) {
        let r = (round_split(x).reconstruct() - x as f64).abs();
        let t = (truncate_split(x).reconstruct() - x as f64).abs();
        prop_assert!(r <= t + 1e-30, "round {} > truncate {}", r, t);
    }

    /// Half conversions round-trip through f32 for arbitrary bit patterns
    /// (NaNs stay NaN).
    #[test]
    fn half_f32_roundtrip(bits in any::<u16>()) {
        let h = Half::from_bits(bits);
        let back = Half::from_f32(h.to_f32());
        if h.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(h.to_bits(), back.to_bits());
        }
    }

    /// Half addition is commutative (IEEE: same rounding either way).
    #[test]
    fn half_add_commutes(a in workload_f32(), b in workload_f32()) {
        let (x, y) = (Half::from_f32(a), Half::from_f32(b));
        prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
    }

    /// Half multiplication is commutative.
    #[test]
    fn half_mul_commutes(a in workload_f32(), b in workload_f32()) {
        let (x, y) = (Half::from_f32(a), Half::from_f32(b));
        prop_assert_eq!((x * y).to_bits(), (y * x).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat parallel executor equals the scalar entrywise oracle
    /// bitwise at random shapes, schemes and elements.
    #[test]
    fn executor_matches_oracle(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u64..1000,
        scheme_idx in 0usize..4,
    ) {
        let scheme = [
            EmulationScheme::EgemmTc,
            EmulationScheme::Markidis,
            EmulationScheme::MarkidisFourTerm,
            EmulationScheme::TcHalf,
        ][scheme_idx];
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        let d = emulated_gemm(&a, &b, None, scheme);
        let (i, j) = (m - 1, n - 1);
        let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j);
        prop_assert_eq!(d.get(i, j).to_bits(), e.to_bits());
        let e0 = emulated_gemm_entrywise(&sa, &sb, None, scheme, 0, 0);
        prop_assert_eq!(d.get(0, 0).to_bits(), e0.to_bits());
    }

    /// GEMM linearity in C: D(A, B, C) == D(A, B, 0) + C within one f32
    /// rounding per accumulation step... exactly: C enters as the
    /// accumulator seed, so the identity holds bitwise only when the
    /// additions commute; we assert the value-level property.
    #[test]
    fn c_seed_shifts_output(
        n in 1usize..16,
        seed in 0u64..500,
    ) {
        let a = Matrix::<f32>::random_uniform(n, n, seed);
        let b = Matrix::<f32>::random_uniform(n, n, seed + 1);
        let c = Matrix::from_fn(n, n, |_, _| 100.0f32);
        let d0 = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        let dc = emulated_gemm(&a, &b, Some(&c), EmulationScheme::EgemmTc);
        for (x, y) in dc.as_slice().iter().zip(d0.as_slice()) {
            // Relative tolerance: accumulating onto 100.0 changes rounding
            // of each partial sum by at most ulp(100) per step.
            let k = n as f32;
            prop_assert!((x - y - 100.0).abs() <= 4.0 * k * 100.0 * f32::EPSILON);
        }
    }
}
