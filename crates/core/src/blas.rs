//! BLAS-style front end: `D = alpha * op(A) * op(B) + beta * C`.
//!
//! The paper's kernel computes `D = A·B + C`; a library a downstream user
//! would adopt needs the full sgemm surface — scaling factors and operand
//! transposes. This module provides it on top of the emulated GEMM:
//!
//! * `op(A)` / `op(B)`: no-op or transpose (materialized; the simulated
//!   kernel would fold the transpose into its tile loads, which changes
//!   neither numerics nor the traffic model's byte counts);
//! * `alpha` is folded into **A** before its split when the scaled split
//!   planes stay exact (a power of two), otherwise applied as an
//!   epilogue scale;
//! * `beta * C` seeds the accumulator (exact when `beta == 1`, one f32
//!   rounding per element otherwise), matching how a fused kernel's
//!   epilogue behaves.

use crate::emulation::emulated_gemm;
use crate::gemm::Egemm;
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::KernelTiming;

/// Operand transpose selector, mirroring `cublasOperation_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Op {
    /// Use the operand as stored.
    #[default]
    None,
    /// Use the operand's transpose.
    Transpose,
}

impl Op {
    fn apply(self, m: &Matrix<f32>) -> Matrix<f32> {
        match self {
            Op::None => m.clone(),
            Op::Transpose => m.transpose(),
        }
    }

    fn dims(self, m: &Matrix<f32>) -> (usize, usize) {
        match self {
            Op::None => (m.rows(), m.cols()),
            Op::Transpose => (m.cols(), m.rows()),
        }
    }
}

/// A full sgemm-style request.
#[derive(Debug, Clone, Copy)]
pub struct GemmCall {
    /// Transpose of A.
    pub op_a: Op,
    /// Transpose of B.
    pub op_b: Op,
    /// Scale on the product.
    pub alpha: f32,
    /// Scale on the C accumulator.
    pub beta: f32,
}

impl Default for GemmCall {
    fn default() -> Self {
        GemmCall {
            op_a: Op::None,
            op_b: Op::None,
            alpha: 1.0,
            beta: 0.0,
        }
    }
}

/// Result of a BLAS-style call.
#[derive(Debug, Clone)]
pub struct BlasOutput {
    /// `alpha * op(A)·op(B) + beta * C`.
    pub d: Matrix<f32>,
    /// Simulated kernel timing for the underlying emulated GEMM.
    pub timing: KernelTiming,
}

/// `true` iff scaling A by `alpha` before splitting is lossless in the
/// binary16 *normal* range: powers of two neither touch the significand
/// nor overflow for well-scaled inputs. (Where an element's `lo` part is
/// subnormal, the pre-scaled split can differ from post-scaling by an
/// ulp of the subnormal quantum — the same envelope as the split itself.)
pub fn alpha_foldable(alpha: f32) -> bool {
    if !(alpha.is_finite()) || alpha == 0.0 {
        return false;
    }
    // Power of two with a safe exponent.
    let bits = alpha.abs().to_bits();
    let mantissa = bits & 0x7f_ffff;
    let exp = ((bits >> 23) & 0xff) as i32 - 127;
    mantissa == 0 && (-8..=8).contains(&exp)
}

impl Egemm {
    /// `D = alpha * op(A) * op(B) + beta * C` with the engine's emulation
    /// scheme. `c` may be `None` when `beta == 0`.
    ///
    /// # Panics
    /// On dimension mismatches, or `beta != 0` without a `c`.
    pub fn gemm_blas(
        &self,
        call: GemmCall,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
    ) -> BlasOutput {
        let (m, ka) = call.op_a.dims(a);
        let (kb, n) = call.op_b.dims(b);
        assert_eq!(
            ka, kb,
            "inner dimensions disagree: op(A) is {m}x{ka}, op(B) is {kb}x{n}"
        );
        if call.beta != 0.0 {
            let c0 = c.expect("beta != 0 requires a C operand");
            assert_eq!((c0.rows(), c0.cols()), (m, n), "C shape");
        }
        let a_eff = call.op_a.apply(a);
        let b_eff = call.op_b.apply(b);

        // beta*C accumulator seed.
        let seed: Option<Matrix<f32>> = if call.beta == 0.0 {
            None
        } else {
            let c0 = c.expect("checked above");
            Some(if call.beta == 1.0 {
                c0.clone()
            } else {
                c0.map(|x| x * call.beta)
            })
        };

        // alpha handling: fold exact powers of two into A pre-split,
        // otherwise scale the product in the epilogue.
        let fold = alpha_foldable(call.alpha);
        let a_scaled = if fold && call.alpha != 1.0 {
            a_eff.map(|x| x * call.alpha)
        } else {
            a_eff
        };
        let d = if fold || call.alpha == 1.0 {
            emulated_gemm(&a_scaled, &b_eff, seed.as_ref(), self.scheme)
        } else {
            // Epilogue scaling: compute alpha*(A·B) then add beta*C, as a
            // two-pass kernel epilogue would.
            let prod = emulated_gemm(&a_scaled, &b_eff, None, self.scheme);
            match seed {
                None => prod.map(|x| x * call.alpha),
                Some(s) => Matrix::from_fn(m, n, |i, j| call.alpha * prod.get(i, j) + s.get(i, j)),
            }
        };
        let timing = self.time(GemmShape::new(m, n, ka));
        BlasOutput { d, timing }
    }
}

/// Convenience: the default engine scheme applied as a free function,
/// mirroring `cublasSgemm`'s argument order.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_ex(
    engine: &Egemm,
    op_a: Op,
    op_b: Op,
    alpha: f32,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    beta: f32,
    c: Option<&Matrix<f32>>,
) -> BlasOutput {
    engine.gemm_blas(
        GemmCall {
            op_a,
            op_b,
            alpha,
            beta,
        },
        a,
        b,
        c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TilingConfig;
    use egemm_fp::max_abs_error;
    use egemm_matrix::gemm_f64_of_f32;
    use egemm_tcsim::DeviceSpec;

    fn engine() -> Egemm {
        Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER)
    }

    fn truth(
        call: GemmCall,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
    ) -> Vec<f64> {
        let a_eff = call.op_a.apply(a);
        let b_eff = call.op_b.apply(b);
        let p = gemm_f64_of_f32(&a_eff, &b_eff);
        (0..p.rows() * p.cols())
            .map(|idx| {
                let (i, j) = (idx / p.cols(), idx % p.cols());
                call.alpha as f64 * p.get(i, j)
                    + call.beta as f64 * c.map(|c0| c0.get(i, j) as f64).unwrap_or(0.0)
            })
            .collect()
    }

    #[test]
    fn plain_call_matches_gemm() {
        let a = Matrix::<f32>::random_uniform(48, 32, 1);
        let b = Matrix::<f32>::random_uniform(32, 40, 2);
        let eng = engine();
        let blas = eng.gemm_blas(GemmCall::default(), &a, &b, None);
        let plain = eng.gemm(&a, &b);
        assert_eq!(blas.d, plain.d);
    }

    #[test]
    fn transposes() {
        let a = Matrix::<f32>::random_uniform(32, 48, 3); // op(A)=A^T: 48x32
        let b = Matrix::<f32>::random_uniform(40, 32, 4); // op(B)=B^T: 32x40
        let call = GemmCall {
            op_a: Op::Transpose,
            op_b: Op::Transpose,
            ..Default::default()
        };
        let eng = engine();
        let out = eng.gemm_blas(call, &a, &b, None);
        assert_eq!((out.d.rows(), out.d.cols()), (48, 40));
        let t = truth(call, &a, &b, None);
        assert!(max_abs_error(&out.d.to_f64_vec(), &t) < 1e-3);
    }

    #[test]
    fn alpha_power_of_two_folds_exactly() {
        let a = Matrix::<f32>::random_uniform(16, 16, 5);
        let b = Matrix::<f32>::random_uniform(16, 16, 6);
        let eng = engine();
        let half_scale = eng.gemm_blas(
            GemmCall {
                alpha: 0.5,
                ..Default::default()
            },
            &a,
            &b,
            None,
        );
        let unit = eng.gemm(&a, &b);
        // Power-of-two alpha folds into A: every element is half, up to
        // the subnormal-lo envelope of the split itself.
        for (x, y) in half_scale.d.as_slice().iter().zip(unit.d.as_slice()) {
            assert!(
                (x - y * 0.5).abs() <= 16.0 * 2f32.powi(-24),
                "{x} vs {}",
                y * 0.5
            );
        }
        assert!(alpha_foldable(0.5));
        assert!(alpha_foldable(4.0));
        assert!(!alpha_foldable(3.0));
        assert!(!alpha_foldable(0.0));
        assert!(!alpha_foldable(f32::INFINITY));
    }

    #[test]
    fn general_alpha_beta() {
        let a = Matrix::<f32>::random_uniform(24, 24, 7);
        let b = Matrix::<f32>::random_uniform(24, 24, 8);
        let c = Matrix::<f32>::random_uniform(24, 24, 9);
        let call = GemmCall {
            alpha: 1.7,
            beta: -0.3,
            ..Default::default()
        };
        let out = engine().gemm_blas(call, &a, &b, Some(&c));
        let t = truth(call, &a, &b, Some(&c));
        assert!(max_abs_error(&out.d.to_f64_vec(), &t) < 1e-3);
    }

    #[test]
    fn beta_one_seeds_exactly() {
        let a = Matrix::<f32>::random_uniform(16, 16, 10);
        let b = Matrix::<f32>::random_uniform(16, 16, 11);
        let c = Matrix::<f32>::random_uniform(16, 16, 12);
        let eng = engine();
        let blas = eng.gemm_blas(
            GemmCall {
                beta: 1.0,
                ..Default::default()
            },
            &a,
            &b,
            Some(&c),
        );
        let direct = eng.gemm_with_c(&a, &b, Some(&c));
        assert_eq!(blas.d, direct.d);
    }

    #[test]
    fn sgemm_ex_entry_point() {
        let a = Matrix::<f32>::random_uniform(8, 8, 13);
        let b = Matrix::<f32>::random_uniform(8, 8, 14);
        let eng = engine();
        let out = sgemm_ex(&eng, Op::None, Op::None, 1.0, &a, &b, 0.0, None);
        assert_eq!(out.d, eng.gemm(&a, &b).d);
    }

    #[test]
    #[should_panic(expected = "beta != 0 requires a C operand")]
    fn beta_without_c_panics() {
        let a = Matrix::<f32>::zeros(4, 4);
        engine().gemm_blas(
            GemmCall {
                beta: 1.0,
                ..Default::default()
            },
            &a,
            &a,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn transposed_dims_checked() {
        let a = Matrix::<f32>::zeros(4, 8);
        let b = Matrix::<f32>::zeros(4, 8);
        // op(A)=A (4x8), op(B)=B (4x8): 8 != 4.
        engine().gemm_blas(GemmCall::default(), &a, &b, None);
    }
}
