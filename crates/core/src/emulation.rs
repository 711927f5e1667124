//! The lightweight emulation algorithm (§3.2, Algorithm 1).
//!
//! Given the profiling result — the Tensor Core's internal arithmetic is
//! single-precision — extended-precision GEMM needs only the four cross
//! products of the split operands:
//!
//! ```text
//! A·B  =  (A_hi + A_lo) · (B_hi + B_lo)
//!      =  A_lo·B_lo + A_lo·B_hi + A_hi·B_lo + A_hi·B_hi
//! ```
//!
//! each computed by one Tensor Core instruction accumulating into the
//! single-precision D (Algorithm 1 issues them in exactly that
//! least-significant-first order, which this module preserves —
//! accumulation order is part of the numerics).
//!
//! [`EmulationScheme`] also describes the baselines' schemes (Markidis'
//! published 3-term truncate-split refinement; the plain half-precision
//! scheme of cuBLAS-TC-Half; a 4-term Markidis ablation), so every
//! precision experiment runs through one code path.
//!
//! [`emulated_gemm`] is the *functional* executor: from raw binary32
//! operands it computes, bit-for-bit, the value the simulated tiled
//! Tensor-Core kernel produces, using the flattened accumulation order
//! (ascending k in `t_k`-sized chunks, the 4 terms per chunk).
//! [`emulated_gemm_entrywise`] recomputes single output elements from
//! explicitly split operands with scalar code — the independent oracle
//! the engine, the tiled simulator and the benchmark's result checks are
//! validated against bit for bit.

use crate::config::TilingConfig;
use crate::engine::{self, EngineRuntime, Plan};
use crate::split_matrix::SplitMatrix;
use egemm_fp::{PrecisionFormat, SplitScheme};
use egemm_matrix::Matrix;

/// An emulation scheme: a data-split technique plus the list of Tensor
/// Core product terms, in issue order. `(a_lo, b_lo)` selects which plane
/// of each operand a term multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmulationScheme {
    /// EGEMM-TC: round-split, 4 terms issued least-significant-first
    /// (Algorithm 1). 21 mantissa bits.
    EgemmTc,
    /// Markidis \[20\] as published: truncate-split, 3 terms issued
    /// most-significant-first (`C += Ahi·Bhi; C += Ahi·Blo; C += Alo·Bhi`
    /// — the lo·lo term is dropped). 20 mantissa bits.
    Markidis,
    /// Markidis upgraded with the fourth (lo·lo) term and
    /// least-significant-first issue — an ablation isolating the
    /// round-vs-truncate split from the term set.
    MarkidisFourTerm,
    /// No emulation: plain half-precision inputs with single-precision
    /// accumulation — the cuBLAS-TC-Half baseline.
    TcHalf,
}

impl EmulationScheme {
    /// The data-split technique the scheme uses.
    pub fn split_scheme(&self) -> SplitScheme {
        match self {
            EmulationScheme::EgemmTc => SplitScheme::Round,
            EmulationScheme::Markidis | EmulationScheme::MarkidisFourTerm => SplitScheme::Truncate,
            // TcHalf only uses the hi plane; round-split's hi is exactly
            // `Half::from_f32(x)`, the conversion cublasGemmEx performs.
            EmulationScheme::TcHalf => SplitScheme::Round,
        }
    }

    /// Product terms in issue order: `(a_lo, b_lo)`.
    pub fn terms(&self) -> &'static [(bool, bool)] {
        match self {
            // Algorithm 1 lines 5-8: lo·lo, lo·hi, hi·lo, hi·hi.
            EmulationScheme::EgemmTc => {
                &[(true, true), (true, false), (false, true), (false, false)]
            }
            // Markidis' precision refinement, most-significant term first.
            EmulationScheme::Markidis => &[(false, false), (true, false), (false, true)],
            EmulationScheme::MarkidisFourTerm => {
                &[(true, true), (true, false), (false, true), (false, false)]
            }
            EmulationScheme::TcHalf => &[(false, false)],
        }
    }

    /// Tensor Core instructions per emulated extended-precision tile — the
    /// "4x computation overhead" of §3.2.
    pub fn tc_instructions(&self) -> usize {
        self.terms().len()
    }

    /// Effective precision delivered (Table 1).
    pub fn format(&self) -> PrecisionFormat {
        match self {
            EmulationScheme::EgemmTc => PrecisionFormat::EXTENDED,
            EmulationScheme::Markidis => PrecisionFormat::MARKIDIS,
            EmulationScheme::MarkidisFourTerm => PrecisionFormat::MARKIDIS,
            EmulationScheme::TcHalf => PrecisionFormat::HALF,
        }
    }

    /// Human-readable name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EmulationScheme::EgemmTc => "EGEMM-TC",
            EmulationScheme::Markidis => "Markidis",
            EmulationScheme::MarkidisFourTerm => "Markidis-4term",
            EmulationScheme::TcHalf => "cuBLAS-TC-Half",
        }
    }
}

/// Functional emulated GEMM: `D = A·B + C` over raw binary32 operands,
/// producing exactly what the simulated tiled Tensor-Core kernel
/// computes from their `scheme` splits.
///
/// Accumulation semantics (the profiled Tensor-Core arithmetic): per
/// output element, k advances in `t_k`-sized chunks; within a chunk the
/// scheme's terms are issued in order; within a term the `t_k` products
/// are accumulated sequentially in binary32. Execution runs on the
/// blocked pack-and-tile engine ([`crate::engine::gemm`]) on the
/// process-wide runtime, parallel across 2D output tiles, with the
/// split fused into the engine's panel pack.
///
/// ```
/// use egemm::{emulated_gemm, EmulationScheme};
/// use egemm_matrix::Matrix;
/// let a = Matrix::<f32>::random_uniform(16, 16, 1);
/// let b = Matrix::<f32>::random_uniform(16, 16, 2);
/// let d = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
/// assert_eq!((d.rows(), d.cols()), (16, 16));
/// ```
///
/// # Panics
/// If the operand shapes disagree.
pub fn emulated_gemm(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
) -> Matrix<f32> {
    emulated_gemm_tk(a, b, c, scheme, TilingConfig::TC.k)
}

/// [`emulated_gemm`] with an explicit TC-primitive reduction depth `tk`.
///
/// EGEMM-TC's SASS kernel lowers to HMMA.1688 (`t_k = 8`); CUDA-level
/// WMMA kernels (the Markidis baseline) accumulate through the 16x16x16
/// `wmma::mma_sync` tile (`t_k = 16`), which changes the accumulation
/// grouping and therefore the low-order bits.
pub fn emulated_gemm_tk(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
    tk: usize,
) -> Matrix<f32> {
    engine::gemm(
        EngineRuntime::global(),
        &Plan {
            c,
            tk,
            ..Plan::new(a, b, scheme)
        },
    )
}

/// Row-sampled emulated GEMM: compute only the output rows in `rows`
/// (strictly ascending A row indices). Returns a `rows.len() x n`
/// matrix. This keeps the Figure 7 precision sweep tractable at
/// N = 4096/8192 while remaining bit-identical to the full computation on
/// those rows.
///
/// # Panics
/// If any index is out of range or `rows` is not strictly ascending —
/// both validated up front, before any compute.
pub fn emulated_gemm_rows(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    rows: &[usize],
    scheme: EmulationScheme,
) -> Matrix<f32> {
    engine::gemm(
        EngineRuntime::global(),
        &Plan {
            rows: Some(rows),
            ..Plan::new(a, b, scheme)
        },
    )
}

/// One simulated HMMA lane-step of the accumulation contract: the
/// separate binary32 multiply and add `acc + a*b`, with NaN propagation
/// pinned. A NaN `a` wins over a NaN `b` in the product, and a NaN
/// accumulator wins over a NaN product, each returned quieted: exactly
/// what `vmulps t, a, b; vaddps acc, acc, t` returns. Plain
/// `acc += a * b` leaves that choice to the compiler, which may commute
/// either operation; every other bit of the result is the same.
#[inline]
pub fn mul_add_step(acc: f32, a: f32, b: f32) -> f32 {
    let quiet = |x: f32| f32::from_bits(x.to_bits() | 0x0040_0000);
    if acc.is_nan() {
        quiet(acc)
    } else if a.is_nan() {
        quiet(a)
    } else if b.is_nan() {
        quiet(b)
    } else {
        acc + a * b
    }
}

/// Independent per-element oracle with identical numerics to
/// [`emulated_gemm`]: scalar code, no parallelism, no slicing tricks.
/// Each product is one [`mul_add_step`].
pub fn emulated_gemm_entrywise(
    a: &SplitMatrix,
    b: &SplitMatrix,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
    i: usize,
    j: usize,
) -> f32 {
    check(a, b, c, scheme);
    let (k, n) = (a.cols(), b.cols());
    let tk = TilingConfig::TC.k;
    let mut acc = c.map(|c0| c0.get(i, j)).unwrap_or(0.0);
    let mut kt = 0;
    while kt < k {
        let chunk = tk.min(k - kt);
        for &(a_lo, b_lo) in scheme.terms() {
            let ap = a.plane(a_lo);
            let bp = b.plane(b_lo);
            for kk in kt..kt + chunk {
                acc = mul_add_step(acc, ap[i * k + kk], bp[kk * n + j]);
            }
        }
        kt += chunk;
    }
    acc
}

fn check(a: &SplitMatrix, b: &SplitMatrix, c: Option<&Matrix<f32>>, scheme: EmulationScheme) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
    assert_eq!(a.scheme, scheme.split_scheme(), "A split scheme mismatch");
    assert_eq!(b.scheme, scheme.split_scheme(), "B split scheme mismatch");
    if let Some(c0) = c {
        assert_eq!((c0.rows(), c0.cols()), (a.rows(), b.cols()), "C shape");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::max_abs_error;
    use egemm_matrix::{gemm_f64_of_f32, Matrix};

    fn split_pair(
        m: usize,
        k: usize,
        n: usize,
        scheme: EmulationScheme,
        seed: u64,
    ) -> (Matrix<f32>, Matrix<f32>, SplitMatrix, SplitMatrix) {
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        (a, b, sa, sb)
    }

    #[test]
    fn scheme_catalogue() {
        assert_eq!(EmulationScheme::EgemmTc.tc_instructions(), 4);
        assert_eq!(EmulationScheme::Markidis.tc_instructions(), 3);
        assert_eq!(EmulationScheme::MarkidisFourTerm.tc_instructions(), 4);
        assert_eq!(EmulationScheme::TcHalf.tc_instructions(), 1);
        assert_eq!(EmulationScheme::EgemmTc.format().mantissa_bits, 21);
        assert_eq!(EmulationScheme::Markidis.format().mantissa_bits, 20);
        // Algorithm 1 order: lo·lo first, hi·hi last.
        assert_eq!(EmulationScheme::EgemmTc.terms()[0], (true, true));
        assert_eq!(EmulationScheme::EgemmTc.terms()[3], (false, false));
    }

    #[test]
    fn matches_entrywise_oracle_bitwise() {
        for scheme in [
            EmulationScheme::EgemmTc,
            EmulationScheme::Markidis,
            EmulationScheme::MarkidisFourTerm,
            EmulationScheme::TcHalf,
        ] {
            let (a, b, sa, sb) = split_pair(24, 40, 17, scheme, 11);
            let c = Matrix::<f32>::random_uniform(24, 17, 99);
            let d = emulated_gemm(&a, &b, Some(&c), scheme);
            for &(i, j) in &[(0usize, 0usize), (5, 3), (23, 16), (12, 8)] {
                let e = emulated_gemm_entrywise(&sa, &sb, Some(&c), scheme, i, j);
                assert_eq!(d.get(i, j).to_bits(), e.to_bits(), "{scheme:?} ({i},{j})");
            }
        }
    }

    #[test]
    fn row_sampled_matches_full() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, _, _) = split_pair(32, 64, 32, scheme, 21);
        let full = emulated_gemm(&a, &b, None, scheme);
        let rows = [0usize, 7, 31];
        let sampled = emulated_gemm_rows(&a, &b, &rows, scheme);
        for (ri, &r) in rows.iter().enumerate() {
            for j in 0..32 {
                assert_eq!(sampled.get(ri, j).to_bits(), full.get(r, j).to_bits());
            }
        }
    }

    #[test]
    fn extended_precision_close_to_f32_reference() {
        // The headline property: emulation error is hundreds of times
        // smaller than plain half-precision (Figure 7's 350x).
        let a = Matrix::<f32>::random_uniform(64, 64, 31);
        let b = Matrix::<f32>::random_uniform(64, 64, 32);
        let reference = gemm_f64_of_f32(&a, &b);
        let egemm = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        let half = emulated_gemm(&a, &b, None, EmulationScheme::TcHalf);
        let err_eg = max_abs_error(&egemm.to_f64_vec(), &reference.to_f64_vec());
        let err_half = max_abs_error(&half.to_f64_vec(), &reference.to_f64_vec());
        assert!(
            err_eg * 50.0 < err_half,
            "egemm err {err_eg} not ≪ half err {err_half}"
        );
    }

    #[test]
    fn egemm_beats_markidis() {
        let n = 96;
        let a = Matrix::<f32>::random_uniform(n, n, 41);
        let b = Matrix::<f32>::random_uniform(n, n, 42);
        let reference = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let eg = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        let mk = emulated_gemm(&a, &b, None, EmulationScheme::Markidis);
        let err_eg = max_abs_error(&eg.to_f64_vec(), &reference);
        let err_mk = max_abs_error(&mk.to_f64_vec(), &reference);
        assert!(
            err_eg < err_mk,
            "round-split should beat truncate-split: {err_eg} vs {err_mk}"
        );
    }

    #[test]
    fn published_markidis_worse_than_four_term_ablation() {
        let n = 96;
        let a = Matrix::<f32>::random_uniform(n, n, 51);
        let b = Matrix::<f32>::random_uniform(n, n, 52);
        let reference = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let four = emulated_gemm(&a, &b, None, EmulationScheme::MarkidisFourTerm);
        let three = emulated_gemm(&a, &b, None, EmulationScheme::Markidis);
        let e4 = max_abs_error(&four.to_f64_vec(), &reference);
        let e3 = max_abs_error(&three.to_f64_vec(), &reference);
        // Dropping lo·lo and issuing hi·hi first costs accuracy, but not
        // catastrophically.
        assert!(e3 >= e4 * 0.99, "3-term {e3} vs 4-term {e4}");
        assert!(e3 < e4 * 50.0);
    }

    #[test]
    fn accumulates_into_c() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, _, _) = split_pair(16, 16, 16, scheme, 61);
        let c = Matrix::from_fn(16, 16, |_, _| 1.0f32);
        let with_c = emulated_gemm(&a, &b, Some(&c), scheme);
        let without = emulated_gemm(&a, &b, None, scheme);
        for (x, y) in with_c.as_slice().iter().zip(without.as_slice()) {
            assert!((x - y - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn k_not_multiple_of_tk() {
        // k = 13 exercises the partial trailing chunk.
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, sa, sb) = split_pair(4, 13, 5, scheme, 71);
        let d = emulated_gemm(&a, &b, None, scheme);
        let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, 3, 4);
        assert_eq!(d.get(3, 4).to_bits(), e.to_bits());
    }

    #[test]
    #[should_panic(expected = "split scheme mismatch")]
    fn scheme_mismatch_rejected() {
        let a = Matrix::<f32>::zeros(4, 4);
        let sa = SplitMatrix::split(&a, SplitScheme::Truncate);
        let sb = SplitMatrix::split(&a, SplitScheme::Truncate);
        emulated_gemm_entrywise(&sa, &sb, None, EmulationScheme::EgemmTc, 0, 0);
    }
}
