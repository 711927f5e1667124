//! The register-tiled microkernel.
//!
//! One call advances an `MR x NR` accumulator tile through one k panel,
//! replaying the profiled Tensor-Core accumulation order exactly: the
//! panel is consumed in `tk`-sized chunks (the panel start is aligned to
//! the global chunk grid by the caller), each chunk issues the scheme's
//! terms in order, and each term accumulates its `tk` products
//! sequentially with a separate binary32 multiply and add. The 32
//! accumulators live in registers for the whole panel; C is loaded before
//! the first panel of a tile pass and stored after each, so the value
//! stream per output element is bit-identical to the scalar oracle.

use super::pack::{MR, NR};

/// Per-plane packed operand views for one row block / column strip.
/// Both planes are always packed; a scheme reads only the planes its
/// terms name.
#[derive(Clone, Copy)]
pub(crate) struct PlanePair<'a> {
    pub hi: &'a [f32],
    pub lo: &'a [f32],
}

impl<'a> PlanePair<'a> {
    #[inline]
    fn plane(&self, lo_part: bool) -> &'a [f32] {
        if lo_part {
            self.lo
        } else {
            self.hi
        }
    }
}

/// Load the accumulator tile from the output matrix. `rows` / `cols` are
/// the valid extents (edge tiles load zeros into padded lanes, which are
/// never stored back). Raw-pointer access lets concurrent workers read
/// and write disjoint tiles of one output buffer without manufacturing
/// aliasing `&mut` slices.
///
/// # Safety
/// `out` must be valid for reads of `rows x cols` elements at the given
/// offsets of an `_ x n` row-major buffer.
#[inline]
pub(crate) unsafe fn load_acc(
    out: *const f32,
    n: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, arow) in acc.iter_mut().enumerate().take(rows) {
        let src = out.add((i0 + r) * n + j0);
        for (c, lane) in arow.iter_mut().enumerate().take(cols) {
            *lane = *src.add(c);
        }
    }
    acc
}

/// Store the valid lanes of the accumulator tile back to the output.
///
/// # Safety
/// `out` must be valid for writes of `rows x cols` elements at the given
/// offsets, and no other thread may touch that region concurrently.
#[inline]
pub(crate) unsafe fn store_acc(
    acc: &[[f32; NR]; MR],
    out: *mut f32,
    n: usize,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
) {
    for (r, arow) in acc.iter().enumerate().take(rows) {
        let dst = out.add((i0 + r) * n + j0);
        for (c, &lane) in arow.iter().enumerate().take(cols) {
            *dst.add(c) = lane;
        }
    }
}

/// Advance `acc` through one k panel of depth `kcb`.
///
/// `a` points at this row block's packed slivers (`kcb x MR`), `b` at
/// this column strip's (`kcb x NR`). The caller guarantees the panel
/// start sits on a `tk` chunk boundary of the global (per-slice) chunk
/// grid, so chunking relative to the panel reproduces the global
/// sequence.
///
/// On x86-64 with AVX the hand-vectorized variant runs; it performs the
/// same IEEE binary32 multiply and add per lane in the same order, so
/// the two paths are bit-identical (the proptest suite and the engine
/// unit tests hold on either).
#[inline]
pub(crate) fn microkernel(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support just checked.
        unsafe { microkernel_avx(acc, a, b, kcb, tk, terms) };
        return;
    }
    microkernel_portable(acc, a, b, kcb, tk, terms)
}

/// Explicit AVX register allocation: eight 8-lane accumulator vectors
/// (4 rows x 2), enough independent dependency chains to cover the FP
/// add latency, plus two B vectors and one broadcast — comfortably
/// inside the 16 ymm registers. `vmulps`/`vaddps` stay separate
/// instructions (rustc never contracts to FMA), so every lane computes
/// exactly the portable path's `acc + a*b` rounding sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn microkernel_avx(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    use core::arch::x86_64::*;
    const _: () = assert!(
        NR == 16,
        "AVX microkernel assumes two 8-lane column vectors"
    );
    let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
    for (cr, ar) in c.iter_mut().zip(acc.iter()) {
        cr[0] = _mm256_loadu_ps(ar.as_ptr());
        cr[1] = _mm256_loadu_ps(ar.as_ptr().add(8));
    }
    let mut kt = 0;
    while kt < kcb {
        let chunk = tk.min(kcb - kt);
        for &(a_lo, b_lo) in terms {
            let ap = a.plane(a_lo).as_ptr();
            let bp = b.plane(b_lo).as_ptr();
            for kk in kt..kt + chunk {
                let av = ap.add(kk * MR);
                let bv = bp.add(kk * NR);
                let b0 = _mm256_loadu_ps(bv);
                let b1 = _mm256_loadu_ps(bv.add(8));
                for (r, cr) in c.iter_mut().enumerate() {
                    let ar = _mm256_set1_ps(*av.add(r));
                    cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(ar, b0));
                    cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(ar, b1));
                }
            }
        }
        kt += chunk;
    }
    for (cr, ar) in c.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(ar.as_mut_ptr(), cr[0]);
        _mm256_storeu_ps(ar.as_mut_ptr().add(8), cr[1]);
    }
}

/// Portable scalar microkernel — the reference the AVX path must match.
#[inline]
fn microkernel_portable(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    let mut kt = 0;
    while kt < kcb {
        let chunk = tk.min(kcb - kt);
        for &(a_lo, b_lo) in terms {
            let ap = &a.plane(a_lo)[kt * MR..(kt + chunk) * MR];
            let bp = &b.plane(b_lo)[kt * NR..(kt + chunk) * NR];
            // `chunks_exact` + array views hand LLVM constant extents, so
            // the accumulators vectorize with no bounds checks in the
            // innermost loops.
            for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                let av: &[f32; MR] = av.try_into().unwrap();
                let bv: &[f32; NR] = bv.try_into().unwrap();
                for r in 0..MR {
                    let ar = av[r];
                    for c in 0..NR {
                        // One simulated HMMA lane-step: a separate
                        // binary32 multiply and add (rustc never
                        // contracts these into an FMA).
                        acc[r][c] += ar * bv[c];
                    }
                }
            }
        }
        kt += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_roundtrip_edges() {
        let n = 5;
        let out: Vec<f32> = (0..3 * n).map(|x| x as f32).collect();
        // 2 valid rows, 3 valid cols at (1, 2).
        let acc = unsafe { load_acc(out.as_ptr(), n, 1, 2, 2, 3) };
        assert_eq!(acc[0][..3], [7.0, 8.0, 9.0]);
        assert_eq!(acc[1][..3], [12.0, 13.0, 14.0]);
        assert_eq!(acc[0][3], 0.0);
        assert_eq!(acc[2], [0.0; NR]);
        let mut back = out.clone();
        unsafe { store_acc(&acc, back.as_mut_ptr(), n, 1, 2, 2, 3) };
        assert_eq!(back, out);
    }

    #[test]
    fn microkernel_matches_scalar_order() {
        // kcb = 5 with tk = 2 exercises a ragged trailing chunk.
        let (kcb, tk) = (5usize, 2usize);
        let terms: &[(bool, bool)] = &[(true, true), (false, false)];
        let a_hi: Vec<f32> = (0..kcb * MR).map(|x| 0.25 + x as f32).collect();
        let a_lo: Vec<f32> = a_hi.iter().map(|x| x * 0.001).collect();
        let b_hi: Vec<f32> = (0..kcb * NR).map(|x| 0.5 - x as f32 * 0.1).collect();
        let b_lo: Vec<f32> = b_hi.iter().map(|x| x * 0.003).collect();
        let mut acc = [[1.0f32; NR]; MR];
        microkernel(
            &mut acc,
            PlanePair {
                hi: &a_hi,
                lo: &a_lo,
            },
            PlanePair {
                hi: &b_hi,
                lo: &b_lo,
            },
            kcb,
            tk,
            terms,
        );
        // Scalar replay for one lane.
        let (r, c) = (2usize, 6usize);
        let mut want = 1.0f32;
        let mut kt = 0;
        while kt < kcb {
            let chunk = tk.min(kcb - kt);
            for &(al, bl) in terms {
                let ap = if al { &a_lo } else { &a_hi };
                let bp = if bl { &b_lo } else { &b_hi };
                for kk in kt..kt + chunk {
                    want += ap[kk * MR + r] * bp[kk * NR + c];
                }
            }
            kt += chunk;
        }
        assert_eq!(acc[r][c].to_bits(), want.to_bits());
    }
}
