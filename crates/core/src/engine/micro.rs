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
//!
//! This kernel always issues a separate multiply and add. It is the
//! oracle every JIT kernel is verified against, including the fused
//! (`vfmadd231ps`) ones: each product multiplies two binary16 values
//! widened to binary32 and is therefore exact, so `fma(a, b, acc)`
//! rounds exactly where `acc + a*b` rounds its add. The two differ only
//! in which NaN a NaN accumulator times a NaN multiplicand returns; the
//! engine runs fused kernels only on NaN-free operands (`jit/ir.rs`).

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

/// The `idx`-th sliver of `len` elements of a packed plane; an empty
/// plane (one the scheme never reads) stays empty.
#[inline]
fn sub(plane: &[f32], idx: usize, len: usize) -> &[f32] {
    if plane.is_empty() {
        plane
    } else {
        &plane[idx * len..(idx + 1) * len]
    }
}

/// Advance the `rows x cols` output tile at `out` (row stride `n`)
/// through one k panel with the interpreted kernel, one `MR x NR`
/// register tile at a time. `a` holds `rows.div_ceil(MR)` consecutive
/// packed row-block slivers (`kcb x MR` each) and `b`
/// `cols.div_ceil(NR)` consecutive strip slivers (`kcb x NR` each):
/// exactly the operands a JIT kernel of the same shape reads.
///
/// # Safety
/// `out` must be valid for reads and writes of `rows x cols` elements
/// at row stride `n`, and no other thread may touch that region
/// concurrently.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tile(
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
    out: *mut f32,
    n: usize,
    (rows, cols): (usize, usize),
) {
    for blk in 0..rows.div_ceil(MR) {
        let a_blk = PlanePair {
            hi: sub(a.hi, blk, kcb * MR),
            lo: sub(a.lo, blk, kcb * MR),
        };
        let (i0, rows_b) = (blk * MR, MR.min(rows - blk * MR));
        for s in 0..cols.div_ceil(NR) {
            let b_s = PlanePair {
                hi: sub(b.hi, s, kcb * NR),
                lo: sub(b.lo, s, kcb * NR),
            };
            let (j0, cols_s) = (s * NR, NR.min(cols - s * NR));
            let mut acc = load_acc(out, n, i0, j0, rows_b, cols_s);
            microkernel(&mut acc, a_blk, b_s, kcb, tk, terms);
            store_acc(&acc, out, n, i0, j0, rows_b, cols_s);
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
/// inside the 16 ymm registers. Each row step is one `asm!` block of
/// separate `vmulps`/`vaddps` with fixed operand order (A before B,
/// accumulator before product), so every lane computes exactly
/// [`crate::mul_add_step`], NaN payloads included; intrinsics would let
/// the compiler commute either operation. `{vex3}` pins the 3-byte VEX
/// form: without it the assembler swaps the sources of a commutative op
/// whenever that reaches the shorter 2-byte prefix.
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
                    core::arch::asm!(
                        "{{vex3}} vmulps {t0}, {a}, {b0}",
                        "{{vex3}} vmulps {t1}, {a}, {b1}",
                        "{{vex3}} vaddps {c0}, {c0}, {t0}",
                        "{{vex3}} vaddps {c1}, {c1}, {t1}",
                        c0 = inout(ymm_reg) cr[0],
                        c1 = inout(ymm_reg) cr[1],
                        a = in(ymm_reg) ar,
                        b0 = in(ymm_reg) b0,
                        b1 = in(ymm_reg) b1,
                        t0 = out(ymm_reg) _,
                        t1 = out(ymm_reg) _,
                        options(pure, nomem, nostack, preserves_flags),
                    );
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
                        // binary32 multiply and add.
                        acc[r][c] = crate::mul_add_step(acc[r][c], ar, bv[c]);
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
                    want = crate::mul_add_step(want, ap[kk * MR + r], bp[kk * NR + c]);
                }
            }
            kt += chunk;
        }
        assert_eq!(acc[r][c].to_bits(), want.to_bits());
    }

    /// NaN payloads follow [`crate::mul_add_step`] on both paths: A's
    /// NaN before B's in the product, the accumulator's before the
    /// product's.
    #[test]
    fn nan_propagation_is_pinned() {
        let nan = |bits: u32| f32::from_bits(bits);
        let mut a_hi = vec![1.5f32; MR];
        a_hi[0] = nan(0x7fc0_0a00);
        a_hi[1] = nan(0xff80_0001); // signalling
        let mut b_hi: Vec<f32> = (0..NR).map(|c| c as f32 - 3.0).collect();
        b_hi[0] = nan(0x7fd0_0000);
        b_hi[9] = nan(0xffc0_0b00);
        b_hi[5] = f32::INFINITY;
        let mut acc0 = [[2.0f32; NR]; MR];
        acc0[0][1] = nan(0x7fc1_2345);
        acc0[2][9] = nan(0xff80_0042);
        acc0[3][5] = f32::NEG_INFINITY;
        let pair = |hi| PlanePair { hi, lo: &[] };
        let terms: &[(bool, bool)] = &[(false, false)];
        let mut fast = acc0;
        microkernel(&mut fast, pair(&a_hi), pair(&b_hi), 1, 1, terms);
        let mut portable = acc0;
        microkernel_portable(&mut portable, pair(&a_hi), pair(&b_hi), 1, 1, terms);
        for r in 0..MR {
            for c in 0..NR {
                let want = crate::mul_add_step(acc0[r][c], a_hi[r], b_hi[c]).to_bits();
                assert_eq!(fast[r][c].to_bits(), want, "({r}, {c})");
                assert_eq!(portable[r][c].to_bits(), want, "portable ({r}, {c})");
            }
        }
        assert_eq!(fast[0][0].to_bits(), 0x7fc0_0a00, "A's NaN before B's");
        assert_eq!(
            fast[0][1].to_bits(),
            0x7fc1_2345,
            "accumulator's before A's"
        );
        assert_eq!(fast[1][3].to_bits(), 0xffc0_0001, "quieted");
    }
}
