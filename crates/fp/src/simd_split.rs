//! SIMD data split: vectorized round/truncate split of binary32 slices.
//!
//! The split phase is `O(N²)` against the GEMM's `O(N³)`, but for the
//! skewed serving shapes the host engine targets (small `m`, large
//! `n = k`) it dominates wall time: the scalar
//! [`SplitScheme::split`](crate::SplitScheme::split) path routes every
//! element through a branchy binary64 decompose/round sequence
//! (~190 cycles/element measured). This module processes 8 lanes per
//! iteration on x86-64 with AVX + F16C: `vcvtps2ph` performs the same
//! correctly-rounded binary32→binary16 narrowing the software path
//! implements (RNE for round-split, RTZ for truncate-split),
//! `vcvtph2ps` the same exact widening, and a compare-and-mask replaces
//! the `is_finite` branch of the scalar residual computation.
//!
//! Three entry points, each one dispatch per call:
//!
//! * [`split_planes`] — a contiguous slice into all four planes (the
//!   binary16 encodings and their binary32 widenings);
//! * [`split_strips`] — a `rows x cols` block of a row-major operand
//!   into consecutive zero-padded row-major `rows x width` slivers of
//!   binary32 planes (a group of the engine's packed B strips);
//! * [`split_a_block`] — up to [`A_BLOCK_ROWS`] rows into a
//!   zero-padded column-major sliver (the engine's packed A register
//!   block), transposed in registers.
//!
//! Ragged ends run the same vector pipeline on a masked load whose
//! missing lanes read as zero; the split is elementwise, so a padding
//! lane can never change a valid one, and the split of `+0.0` is
//! `+0.0` in both planes — exactly the packed layouts' zero padding.
//!
//! **Bit identity is a hard contract**: for every input — normals,
//! subnormals, ±0, ±inf, NaNs, values on rounding ties, values past the
//! binary16 overflow threshold — the SIMD path must produce the same
//! `(hi, lo)` encodings and the same widened binary32 planes as the
//! scalar path, which remains both the portable fallback and the test
//! oracle (see this module's tests, including the opt-in sweep of every
//! binary32 value, `split_kernels_exhaustive`).

use crate::half::Half;
use crate::split::SplitScheme;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-lifetime counts of split calls served by the SIMD path vs
/// the scalar fallback. `egemm-fp` sits below the core crate's
/// telemetry, so these two relaxed counters are its whole contribution:
/// cheap enough to run unconditionally (one per call, and a call covers
/// a whole strip or register block), and enough for a report to show
/// which kernel the `Auto` dispatch actually resolved to.
static SIMD_CALLS: AtomicU64 = AtomicU64::new(0);
static SCALAR_CALLS: AtomicU64 = AtomicU64::new(0);

/// `(simd, scalar)` — how many split calls each path served so far in
/// this process. Monotone; read with relaxed ordering.
pub fn split_dispatch_counts() -> (u64, u64) {
    (
        SIMD_CALLS.load(Ordering::Relaxed),
        SCALAR_CALLS.load(Ordering::Relaxed),
    )
}

/// Which split implementation to run.
///
/// `Auto` dispatches to the SIMD path when the CPU supports it and is
/// the default everywhere; `Scalar` forces the portable path — used by
/// benches to measure the pre-SIMD baseline and by tests as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitKernel {
    /// Runtime-dispatched: SIMD when available, scalar otherwise.
    #[default]
    Auto,
    /// Portable scalar reference path.
    Scalar,
}

/// `true` iff the SIMD split path will be used by [`SplitKernel::Auto`]
/// on this machine.
pub fn simd_split_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `kernel` resolves to the SIMD path, counting the call on the
/// path it takes.
fn dispatch_simd(kernel: SplitKernel) -> bool {
    let simd = kernel == SplitKernel::Auto && simd_split_available();
    if simd { &SIMD_CALLS } else { &SCALAR_CALLS }.fetch_add(1, Ordering::Relaxed);
    simd
}

/// Split `xs` into the four parallel planes the GEMM engine consumes:
/// binary16 `hi`/`lo` encodings plus their exact binary32 widenings.
/// All four output slices must have the same length as `xs`.
///
/// Output is bit-identical regardless of `kernel` or CPU features.
pub fn split_planes(
    kernel: SplitKernel,
    scheme: SplitScheme,
    xs: &[f32],
    hi: &mut [Half],
    lo: &mut [Half],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    assert_eq!(xs.len(), hi.len(), "hi plane length mismatch");
    assert_eq!(xs.len(), lo.len(), "lo plane length mismatch");
    assert_eq!(xs.len(), hi_f32.len(), "hi_f32 plane length mismatch");
    assert_eq!(xs.len(), lo_f32.len(), "lo_f32 plane length mismatch");
    if dispatch_simd(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + F16C support just verified; lengths checked.
        unsafe {
            x86::planes(scheme, xs, hi, lo, hi_f32, lo_f32)
        };
        return;
    }
    split_planes_scalar(scheme, xs, hi, lo, hi_f32, lo_f32);
}

/// The portable scalar path: one [`SplitScheme::split`] per element.
/// This is the reference the SIMD path is verified against.
pub fn split_planes_scalar(
    scheme: SplitScheme,
    xs: &[f32],
    hi: &mut [Half],
    lo: &mut [Half],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    for (i, &x) in xs.iter().enumerate() {
        let s = scheme.split(x);
        hi[i] = s.hi;
        lo[i] = s.lo;
        hi_f32[i] = s.hi.to_f32();
        lo_f32[i] = s.lo.to_f32();
    }
}

/// Split a `rows x cols` block of a row-major operand (row stride
/// `stride`, starting at `src[0]`) into strips of row-major `rows x
/// width` binary32 planes, stored one after another: element `(r, c)`
/// lands at `hi[(c / width) * rows * width + r * width + c % width]`
/// (and likewise in `lo`), and the last strip's columns past `cols` are
/// zero. There are `max(1, ceil(cols / width))` strips, and `rows` is
/// `hi.len()` over their total width. This is the fused split+pack of
/// packed B strips (`width` = the microkernel's NR): one call covers a
/// whole group of `kcb x NR` slivers, so the dispatch, the length
/// checks and the counter update are paid once per group instead of
/// once per row, and the source is read row by row, `cols` contiguous
/// elements at a time.
///
/// Bit-identical to the `hi_f32`/`lo_f32` planes of [`split_planes`] on
/// the same elements, regardless of `kernel` or CPU features.
#[allow(clippy::too_many_arguments)]
pub fn split_strips(
    kernel: SplitKernel,
    scheme: SplitScheme,
    src: &[f32],
    stride: usize,
    cols: usize,
    width: usize,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let rows = strip_rows(src, stride, cols, width, hi, lo);
    if dispatch_simd(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + F16C support just verified; `strip_rows`
        // checked every source and output extent.
        unsafe {
            x86::strips(scheme, src, stride, rows, cols, width, hi, lo)
        };
        return;
    }
    split_strips_scalar(scheme, src, stride, cols, width, hi, lo);
}

/// Validate a strip group's extents; returns its row count.
fn strip_rows(
    src: &[f32],
    stride: usize,
    cols: usize,
    width: usize,
    hi: &[f32],
    lo: &[f32],
) -> usize {
    assert!(width > 0, "strip width must be positive");
    let span = cols.div_ceil(width).max(1) * width;
    assert_eq!(hi.len() % span, 0, "hi_f32 plane length mismatch");
    assert_eq!(hi.len(), lo.len(), "lo_f32 plane length mismatch");
    let rows = hi.len() / span;
    if rows > 0 && cols > 0 {
        assert!(
            src.len() >= (rows - 1) * stride + cols,
            "strip source too short"
        );
    }
    rows
}

/// Scalar reference for [`split_strips`].
fn split_strips_scalar(
    scheme: SplitScheme,
    src: &[f32],
    stride: usize,
    cols: usize,
    width: usize,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let rows = strip_rows(src, stride, cols, width, hi, lo);
    let span = cols.div_ceil(width).max(1) * width;
    for r in 0..rows {
        for c in 0..span {
            let (h, l) = if c < cols {
                let s = scheme.split(src[r * stride + c]);
                (s.hi.to_f32(), s.lo.to_f32())
            } else {
                (0.0, 0.0)
            };
            let at = (c / width) * rows * width + r * width + c % width;
            hi[at] = h;
            lo[at] = l;
        }
    }
}

/// Rows of one packed A register block: the microkernel's MR.
pub const A_BLOCK_ROWS: usize = 4;

/// Split up to [`A_BLOCK_ROWS`] equally long rows into column-major
/// `len x A_BLOCK_ROWS` binary32 planes, `len = hi.len() /
/// A_BLOCK_ROWS`: element `kk` of row `r` lands at `hi[kk *
/// A_BLOCK_ROWS + r]` / `lo[..]`, and rows past `rows.len()` are zero.
/// This is the fused split+pack of one packed A register block; the
/// SIMD path splits 8 elements of every row at once and transposes
/// them in registers, so each output vector is one contiguous store.
///
/// Bit-identical to the `hi_f32`/`lo_f32` planes of [`split_planes`] on
/// the same elements, regardless of `kernel` or CPU features.
pub fn split_a_block(
    kernel: SplitKernel,
    scheme: SplitScheme,
    rows: &[&[f32]],
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let len = block_len(rows, hi, lo);
    if dispatch_simd(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + F16C support just verified; `block_len`
        // checked every row and output extent.
        unsafe {
            x86::a_block(scheme, rows, len, hi, lo)
        };
        return;
    }
    split_a_block_scalar(scheme, rows, hi, lo);
}

/// Validate an A block's extents; returns its row length.
fn block_len(rows: &[&[f32]], hi: &[f32], lo: &[f32]) -> usize {
    assert!(
        rows.len() <= A_BLOCK_ROWS,
        "more rows than an A block holds"
    );
    assert_eq!(hi.len() % A_BLOCK_ROWS, 0, "hi_f32 plane length mismatch");
    assert_eq!(hi.len(), lo.len(), "lo_f32 plane length mismatch");
    let len = hi.len() / A_BLOCK_ROWS;
    for row in rows {
        assert_eq!(row.len(), len, "hi_f32 plane length mismatch");
    }
    len
}

/// Scalar reference for [`split_a_block`].
fn split_a_block_scalar(scheme: SplitScheme, rows: &[&[f32]], hi: &mut [f32], lo: &mut [f32]) {
    let len = block_len(rows, hi, lo);
    for kk in 0..len {
        for r in 0..A_BLOCK_ROWS {
            let (h, l) = match rows.get(r) {
                Some(row) => {
                    let s = scheme.split(row[kk]);
                    (s.hi.to_f32(), s.lo.to_f32())
                }
                None => (0.0, 0.0),
            };
            hi[kk * A_BLOCK_ROWS + r] = h;
            lo[kk * A_BLOCK_ROWS + r] = l;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// One 8-lane split: the binary16 encodings and their exact
    /// binary32 widenings of both parts.
    struct Lanes {
        h_bits: __m128i,
        l_bits: __m128i,
        h: __m256,
        l: __m256,
    }

    /// `vcvtps2ph` narrows (RNE or RTZ per `IMM`), `vcvtph2ps` widens
    /// back exactly, `x - hi` runs as one `vsubps`, and non-finite `hi`
    /// lanes have their residual masked to +0.0 — the vector form of
    /// the scalar `if hi.is_finite()` guard.
    ///
    /// Both split schemes are the same dataflow with a different
    /// narrowing rounding mode, so the rounding immediate is the only
    /// parameter. `vcvtps2ph` with RTZ saturates overflow to ±65504 and
    /// with RNE rounds it to ±inf — exactly the scalar conversions —
    /// and quiets NaNs while keeping the top 10 payload bits, matching
    /// `f64_to_f16_bits_round`'s NaN handling (the binary32→binary64
    /// hop in the scalar path shifts the payload by 29 bits, so both
    /// keep the same top-10 slice).
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn split8<const IMM: i32>(x: __m256) -> Lanes {
        let h_bits = _mm256_cvtps_ph::<IMM>(x);
        let h = _mm256_cvtph_ps(h_bits);
        // Finite iff |hi| <= 65504: the widened hi is an exact binary16
        // value, so the ordered compare is false only for ±inf and NaN
        // lanes (the scalar path zeroes those residuals; `and` with the
        // all-zeros mask lane produces the same +0.0).
        let finite = _mm256_cmp_ps::<_CMP_LE_OQ>(
            _mm256_andnot_ps(_mm256_set1_ps(-0.0), h),
            _mm256_set1_ps(65504.0),
        );
        let residual = _mm256_and_ps(_mm256_sub_ps(x, h), finite);
        let l_bits = _mm256_cvtps_ph::<IMM>(residual);
        Lanes {
            h_bits,
            l_bits,
            h,
            l: _mm256_cvtph_ps(l_bits),
        }
    }

    /// All-ones in the first `n` (<= 8) 32-bit lanes.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn lane_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Load `n` (<= 8) lanes from `p`; the rest read as +0.0. Masked-off
    /// lanes are never touched, so `p` only needs `n` valid elements.
    ///
    /// # Safety
    /// AVX2 and F16C must be available, `1 <= n <= 8`, and `p` must be
    /// valid for reading `n` consecutive `f32`s.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    unsafe fn load(p: *const f32, n: usize) -> __m256 {
        if n == 8 {
            _mm256_loadu_ps(p)
        } else {
            _mm256_maskload_ps(p, lane_mask(n))
        }
    }

    /// Store the first `n` (<= 8) lanes of `v` to `p`.
    ///
    /// # Safety
    /// AVX2 and F16C must be available, `1 <= n <= 8`, and `p` must be
    /// valid for writing `n` consecutive `f32`s.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    unsafe fn store(p: *mut f32, v: __m256, n: usize) {
        if n == 8 {
            _mm256_storeu_ps(p, v)
        } else {
            _mm256_maskstore_ps(p, lane_mask(n), v)
        }
    }

    /// [`split_planes`] on 8-lane vectors; the ragged end runs the same
    /// pipeline on a masked load and keeps only its valid lanes.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support; every slice must hold
    /// `xs.len()` elements.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn planes(
        scheme: SplitScheme,
        xs: &[f32],
        hi: &mut [Half],
        lo: &mut [Half],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
    ) {
        match scheme {
            SplitScheme::Round => {
                planes_imm::<{ _MM_FROUND_TO_NEAREST_INT }>(xs, hi, lo, hi_f32, lo_f32)
            }
            SplitScheme::Truncate => {
                planes_imm::<{ _MM_FROUND_TO_ZERO }>(xs, hi, lo, hi_f32, lo_f32)
            }
        }
    }

    /// # Safety
    /// As [`planes`].
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn planes_imm<const IMM: i32>(
        xs: &[f32],
        hi: &mut [Half],
        lo: &mut [Half],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
    ) {
        let mut i = 0;
        while i < xs.len() {
            let n = (xs.len() - i).min(8);
            let s = split8::<IMM>(load(xs.as_ptr().add(i), n));
            store(hi_f32.as_mut_ptr().add(i), s.h, n);
            store(lo_f32.as_mut_ptr().add(i), s.l, n);
            if n == 8 {
                _mm_storeu_si128(hi.as_mut_ptr().add(i) as *mut __m128i, s.h_bits);
                _mm_storeu_si128(lo.as_mut_ptr().add(i) as *mut __m128i, s.l_bits);
            } else {
                // No 16-bit masked store below AVX-512: stage the
                // encodings and copy the valid ones.
                let mut hb = [0u16; 8];
                let mut lb = [0u16; 8];
                _mm_storeu_si128(hb.as_mut_ptr() as *mut __m128i, s.h_bits);
                _mm_storeu_si128(lb.as_mut_ptr() as *mut __m128i, s.l_bits);
                for j in 0..n {
                    hi[i + j] = Half::from_bits(hb[j]);
                    lo[i + j] = Half::from_bits(lb[j]);
                }
            }
            i += n;
        }
    }

    /// [`split_strips`] on 8-lane vectors, row by row: each strip row
    /// runs one vector per 8 output lanes, and lanes past `cols` load as
    /// zero and so store the padding.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support and the extents
    /// [`strip_rows`] checks.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn strips(
        scheme: SplitScheme,
        src: &[f32],
        stride: usize,
        rows: usize,
        cols: usize,
        width: usize,
        hi: &mut [f32],
        lo: &mut [f32],
    ) {
        let (s, h, l) = (src.as_ptr(), hi.as_mut_ptr(), lo.as_mut_ptr());
        match scheme {
            SplitScheme::Round => {
                strips_imm::<{ _MM_FROUND_TO_NEAREST_INT }>(s, stride, rows, cols, width, h, l)
            }
            SplitScheme::Truncate => {
                strips_imm::<{ _MM_FROUND_TO_ZERO }>(s, stride, rows, cols, width, h, l)
            }
        }
    }

    /// # Safety
    /// As [`strips`], for the raw source and plane pointers: `src`
    /// readable for `(rows - 1) * stride + cols` elements when `rows`
    /// and `cols` are positive, `hi` and `lo` writable for `rows *
    /// max(1, ceil(cols / width)) * width`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn strips_imm<const IMM: i32>(
        src: *const f32,
        stride: usize,
        rows: usize,
        cols: usize,
        width: usize,
        hi: *mut f32,
        lo: *mut f32,
    ) {
        let span = cols.div_ceil(width).max(1) * width;
        for r in 0..rows {
            for c0 in (0..span).step_by(width) {
                let at = c0 * rows + r * width;
                let (h, l) = (hi.add(at), lo.add(at));
                let mut c = 0;
                while c < width {
                    // Pure padding reads nothing: its address may lie
                    // past the end of the source.
                    let valid = cols.saturating_sub(c0 + c).min(8);
                    let x = if valid == 0 {
                        _mm256_setzero_ps()
                    } else {
                        load(src.add(r * stride + c0 + c), valid)
                    };
                    let v = split8::<IMM>(x);
                    let n = (width - c).min(8);
                    store(h.add(c), v.h, n);
                    store(l.add(c), v.l, n);
                    c += 8;
                }
            }
        }
    }

    /// [`split_a_block`] on 8-lane vectors: 8 elements of each of the 4
    /// rows are split, then transposed in registers into 8 column-major
    /// groups of 4 — four contiguous 8-lane stores per plane. The ragged
    /// end loads masked (missing rows and columns read as zero) and
    /// stores only its `4 x len % 8` valid outputs.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support and the extents
    /// [`block_len`] checks.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn a_block(
        scheme: SplitScheme,
        rows: &[&[f32]],
        len: usize,
        hi: &mut [f32],
        lo: &mut [f32],
    ) {
        let (h, l) = (hi.as_mut_ptr(), lo.as_mut_ptr());
        match scheme {
            SplitScheme::Round => a_block_imm::<{ _MM_FROUND_TO_NEAREST_INT }>(rows, len, h, l),
            SplitScheme::Truncate => a_block_imm::<{ _MM_FROUND_TO_ZERO }>(rows, len, h, l),
        }
    }

    /// # Safety
    /// As [`a_block`]: every row holds `len` elements, and `hi` and `lo`
    /// are writable for `len * A_BLOCK_ROWS` elements.
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn a_block_imm<const IMM: i32>(rows: &[&[f32]], len: usize, hi: *mut f32, lo: *mut f32) {
        let mut kk = 0;
        while kk < len {
            let n = (len - kk).min(8);
            let mut h = [_mm256_setzero_ps(); A_BLOCK_ROWS];
            let mut l = [_mm256_setzero_ps(); A_BLOCK_ROWS];
            for (r, row) in rows.iter().enumerate() {
                let v = split8::<IMM>(load(row.as_ptr().add(kk), n));
                h[r] = v.h;
                l[r] = v.l;
            }
            store_transposed(hi.add(kk * A_BLOCK_ROWS), h, n);
            store_transposed(lo.add(kk * A_BLOCK_ROWS), l, n);
            kk += n;
        }
    }

    /// Store the 4 x 8 block `v` (row `r` = lanes of `v[r]`) column by
    /// column: `out[kk * 4 + r] = v[r][kk]` for the first `n` columns.
    ///
    /// # Safety
    /// AVX2 and F16C must be available, `n <= 8`, and `out` must be
    /// valid for writing `n * A_BLOCK_ROWS` `f32`s.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    unsafe fn store_transposed(out: *mut f32, v: [__m256; A_BLOCK_ROWS], n: usize) {
        // a0 b0 a1 b1 | a4 b4 a5 b5  and  a2 b2 a3 b3 | a6 b6 a7 b7
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        // Column kk's four rows, per 128-bit half: u0 = k0 | k4, u1 =
        // k1 | k5, u2 = k2 | k6, u3 = k3 | k7.
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let cols = [
            _mm256_permute2f128_ps::<0x20>(u0, u1), // k0 k1
            _mm256_permute2f128_ps::<0x20>(u2, u3), // k2 k3
            _mm256_permute2f128_ps::<0x31>(u0, u1), // k4 k5
            _mm256_permute2f128_ps::<0x31>(u2, u3), // k6 k7
        ];
        let valid = n * A_BLOCK_ROWS;
        for (j, c) in cols.into_iter().enumerate() {
            let lanes = valid.saturating_sub(8 * j).min(8);
            if lanes > 0 {
                store(out.add(8 * j), c, lanes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::f16_bits_to_f32;

    const SCHEMES: [SplitScheme; 2] = [SplitScheme::Round, SplitScheme::Truncate];
    const KERNELS: [SplitKernel; 2] = [SplitKernel::Auto, SplitKernel::Scalar];

    /// Adversarial inputs: every binary16 value widened (hits every
    /// exponent/mantissa pattern including subnormals, ±0, ±inf, NaNs),
    /// rounding ties, overflow-threshold neighbours, f32 subnormals,
    /// signalling/quiet NaNs with payloads, and a pseudo-random sweep.
    fn adversarial_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u16::MAX).map(f16_bits_to_f32).collect();
        xs.extend([
            0.0f32,
            -0.0,
            1.0 + 2f32.powi(-11),       // exact RNE tie at 1.0
            1.0 + 3.0 * 2f32.powi(-11), // tie, odd mantissa
            -(1.0 + 2f32.powi(-11)),
            1.0 + 2f32.powi(-11) + 2f32.powi(-22), // just above the tie
            65519.9,
            65520.0, // RNE overflow threshold
            65536.0,
            -65520.0,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 8.0, // f32 subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN, tiny payload
            f32::from_bits(0xffc0_1234), // quiet NaN with payload
            f32::from_bits(0x7fbf_ffff), // all-ones payload sNaN
            2f32.powi(-24) * 1.5,        // binary16 subnormal tie
            2f32.powi(-25),              // below half the f16 quantum
        ]);
        let mut s: u32 = 0x1234_5678;
        for _ in 0..40_000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            xs.push(f32::from_bits(s));
            let v = ((s >> 8) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0;
            xs.push(v);
        }
        xs
    }

    /// The scalar oracle's widened planes of `xs`.
    fn oracle_f32(scheme: SplitScheme, xs: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let n = xs.len();
        let (mut hi, mut lo) = (vec![Half::ZERO; n], vec![Half::ZERO; n]);
        let (mut hf, mut lf) = (vec![0f32; n], vec![0f32; n]);
        split_planes_scalar(scheme, xs, &mut hi, &mut lo, &mut hf, &mut lf);
        (hf, lf)
    }

    /// Assert [`split_planes`] equals the scalar oracle on `xs` in all
    /// four planes; returns the oracle's widened planes.
    fn assert_paths_identical(scheme: SplitScheme, xs: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let n = xs.len();
        let mut got = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        let mut want = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        split_planes(
            SplitKernel::Auto,
            scheme,
            xs,
            &mut got.0,
            &mut got.1,
            &mut got.2,
            &mut got.3,
        );
        split_planes_scalar(
            scheme,
            xs,
            &mut want.0,
            &mut want.1,
            &mut want.2,
            &mut want.3,
        );
        for (i, x) in xs.iter().enumerate().take(n) {
            assert_eq!(
                got.0[i].to_bits(),
                want.0[i].to_bits(),
                "{scheme:?} hi diverges for input {:#010x} ({})",
                x.to_bits(),
                x
            );
            assert_eq!(
                got.1[i].to_bits(),
                want.1[i].to_bits(),
                "{scheme:?} lo diverges for input {:#010x} ({})",
                x.to_bits(),
                x
            );
            assert_eq!(got.2[i].to_bits(), want.2[i].to_bits(), "hi_f32 at {i}");
            assert_eq!(got.3[i].to_bits(), want.3[i].to_bits(), "lo_f32 at {i}");
        }
        (want.2, want.3)
    }

    /// Assert `got` (a packed plane) holds `want` at `pos` and `+0.0`
    /// at every padding position (`None`), bit for bit.
    fn assert_plane(got: &[f32], want: impl Fn(usize) -> Option<f32>, what: &str) {
        for (pos, g) in got.iter().enumerate() {
            let w = want(pos).unwrap_or(0.0);
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: position {pos}");
        }
    }

    /// Run every element of `xs` through [`split_strips`] as contiguous
    /// strips `cols` wide (the last strip narrower when `cols` does not
    /// divide the length) at the engine's width of 16, and assert the
    /// packed planes equal `want` with zero padding.
    fn check_strips(
        kernel: SplitKernel,
        scheme: SplitScheme,
        xs: &[f32],
        want: &(Vec<f32>, Vec<f32>),
        cols: usize,
    ) {
        const WIDTH: usize = 16;
        let mut pos = 0;
        while pos < xs.len() {
            let c = cols.min(xs.len() - pos);
            let rows = ((xs.len() - pos) / c).min(64);
            let src = &xs[pos..pos + rows * c];
            let mut hi = vec![f32::NAN; rows * WIDTH];
            let mut lo = vec![f32::NAN; rows * WIDTH];
            split_strips(kernel, scheme, src, c, c, WIDTH, &mut hi, &mut lo);
            let at = |plane: &[f32], p: usize| {
                (p % WIDTH < c).then(|| plane[pos + p / WIDTH * c + p % WIDTH])
            };
            let what = format!("{scheme:?} {kernel:?} strip cols={c} at {pos}");
            assert_plane(&hi, |p| at(&want.0, p), &what);
            assert_plane(&lo, |p| at(&want.1, p), &what);
            pos += rows * c;
        }
    }

    /// Run every element of `xs` through [`split_a_block`] as blocks of
    /// `nrows` rows `len` long (fewer or shorter at the end), and
    /// assert the column-major planes equal `want` with zero rows.
    fn check_a_blocks(
        kernel: SplitKernel,
        scheme: SplitScheme,
        xs: &[f32],
        want: &(Vec<f32>, Vec<f32>),
        (nrows, len): (usize, usize),
    ) {
        let mut pos = 0;
        while pos < xs.len() {
            let l = len.min(xs.len() - pos);
            let nr = nrows.min((xs.len() - pos) / l);
            let rows: Vec<&[f32]> = (0..nr)
                .map(|r| &xs[pos + r * l..pos + (r + 1) * l])
                .collect();
            let mut hi = vec![f32::NAN; l * A_BLOCK_ROWS];
            let mut lo = vec![f32::NAN; l * A_BLOCK_ROWS];
            split_a_block(kernel, scheme, &rows, &mut hi, &mut lo);
            let at = |plane: &[f32], p: usize| {
                let (kk, r) = (p / A_BLOCK_ROWS, p % A_BLOCK_ROWS);
                (r < nr).then(|| plane[pos + r * l + kk])
            };
            let what = format!("{scheme:?} {kernel:?} A block {nr}x{l} at {pos}");
            assert_plane(&hi, |p| at(&want.0, p), &what);
            assert_plane(&lo, |p| at(&want.1, p), &what);
            pos += nr * l;
        }
    }

    #[test]
    fn simd_round_split_bit_identical_to_scalar() {
        assert_paths_identical(SplitScheme::Round, &adversarial_inputs());
    }

    #[test]
    fn simd_truncate_split_bit_identical_to_scalar() {
        assert_paths_identical(SplitScheme::Truncate, &adversarial_inputs());
    }

    #[test]
    fn ragged_tails_every_length() {
        // Lengths 0..=17 cover empty, sub-vector, and vector+tail cases.
        let base = adversarial_inputs();
        for len in 0..=17usize {
            assert_paths_identical(SplitScheme::Round, &base[100..100 + len]);
        }
    }

    #[test]
    fn forced_scalar_matches_auto() {
        let xs = [0.1f32, -0.25, 1.0, 0.333, -0.97, 1e30, f32::NAN, 0.5];
        let n = xs.len();
        let mut a = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        let mut b = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        split_planes(
            SplitKernel::Scalar,
            SplitScheme::Round,
            &xs,
            &mut a.0,
            &mut a.1,
            &mut a.2,
            &mut a.3,
        );
        split_planes(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut b.0,
            &mut b.1,
            &mut b.2,
            &mut b.3,
        );
        for i in 0..n {
            assert_eq!(a.0[i].to_bits(), b.0[i].to_bits());
            assert_eq!(a.1[i].to_bits(), b.1[i].to_bits());
        }
    }

    #[test]
    fn dispatch_counters_advance() {
        let (simd0, scalar0) = split_dispatch_counts();
        let xs = [1.0f32; 8];
        let mut hi = vec![Half::ZERO; 8];
        let mut lo = vec![Half::ZERO; 8];
        let mut hf = vec![0f32; 8];
        let mut lf = vec![0f32; 8];
        split_planes(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut hi,
            &mut lo,
            &mut hf,
            &mut lf,
        );
        split_planes(
            SplitKernel::Scalar,
            SplitScheme::Round,
            &xs,
            &mut hi,
            &mut lo,
            &mut hf,
            &mut lf,
        );
        let (simd1, scalar1) = split_dispatch_counts();
        // Both counters are process-global and other tests run
        // concurrently, so assert growth, not exact values. The forced
        // scalar call always lands in the scalar counter; the Auto call
        // lands in whichever path this machine dispatches.
        assert!(scalar1 > scalar0);
        assert!(simd1 + scalar1 >= simd0 + scalar0 + 2);
    }

    /// The f32-only strip split must produce exactly the
    /// `hi_f32`/`lo_f32` planes of the full split, on every adversarial
    /// input, for both schemes and both dispatch paths — as one
    /// full-width row and as 16-wide strips.
    fn assert_f32_paths_identical(scheme: SplitScheme, xs: &[f32]) {
        let n = xs.len();
        let want = oracle_f32(scheme, xs);
        for kernel in KERNELS {
            let mut hf = vec![0f32; n];
            let mut lf = vec![0f32; n];
            split_strips(kernel, scheme, xs, n, n, n.max(1), &mut hf, &mut lf);
            for i in 0..n {
                assert_eq!(
                    hf[i].to_bits(),
                    want.0[i].to_bits(),
                    "{scheme:?} {kernel:?} hi_f32 diverges for input {:#010x}",
                    xs[i].to_bits()
                );
                assert_eq!(
                    lf[i].to_bits(),
                    want.1[i].to_bits(),
                    "{scheme:?} {kernel:?} lo_f32 diverges for input {:#010x}",
                    xs[i].to_bits()
                );
            }
            check_strips(kernel, scheme, xs, &want, 16);
        }
    }

    #[test]
    fn f32_only_split_bit_identical_to_full_split() {
        let xs = adversarial_inputs();
        assert_f32_paths_identical(SplitScheme::Round, &xs);
        assert_f32_paths_identical(SplitScheme::Truncate, &xs);
    }

    #[test]
    fn f32_only_split_ragged_tails_every_length() {
        let base = adversarial_inputs();
        for len in 0..=17usize {
            assert_f32_paths_identical(SplitScheme::Round, &base[100..100 + len]);
        }
    }

    #[test]
    fn strip_split_reads_only_its_columns_at_any_stride() {
        // A strip inside a wider operand: columns past `cols` in each
        // source row belong to the next strip and must not leak in, and
        // output padding is +0.0 whatever the plane held before.
        let base = adversarial_inputs();
        for scheme in SCHEMES {
            for kernel in KERNELS {
                for (stride, cols, width, rows) in [
                    (37usize, 16usize, 16usize, 5usize),
                    (37, 5, 16, 3),
                    (9, 9, 12, 4),
                    (3, 0, 8, 2),
                ] {
                    let src = &base[300..300 + (rows - 1) * stride + cols];
                    let (mut hi, mut lo) =
                        (vec![f32::NAN; rows * width], vec![f32::NAN; rows * width]);
                    split_strips(kernel, scheme, src, stride, cols, width, &mut hi, &mut lo);
                    let at = |lo_plane: bool, p: usize| {
                        let (r, c) = (p / width, p % width);
                        (c < cols).then(|| {
                            let s = scheme.split(src[r * stride + c]);
                            if lo_plane {
                                s.lo.to_f32()
                            } else {
                                s.hi.to_f32()
                            }
                        })
                    };
                    let what =
                        format!("{scheme:?} {kernel:?} stride={stride} cols={cols} width={width}");
                    assert_plane(&hi, |p| at(false, p), &what);
                    assert_plane(&lo, |p| at(true, p), &what);
                }
            }
        }
    }

    #[test]
    fn a_block_split_matches_contiguous_at_every_length() {
        // Row counts cover an empty block through a full one; lengths
        // cover empty, tails, and multi-vector rows. Rows past the
        // block's count must come out +0.0 over the NaN poison.
        let base = adversarial_inputs();
        for scheme in SCHEMES {
            for len in [0usize, 1, 7, 8, 9, 16, 23, 64] {
                for nrows in 0..=A_BLOCK_ROWS {
                    let xs = &base[200..200 + nrows * len];
                    let want = oracle_f32(scheme, xs);
                    for kernel in KERNELS {
                        let rows: Vec<&[f32]> = xs.chunks(len.max(1)).collect();
                        let mut hf = vec![f32::NAN; len * A_BLOCK_ROWS];
                        let mut lf = vec![f32::NAN; len * A_BLOCK_ROWS];
                        split_a_block(kernel, scheme, &rows, &mut hf, &mut lf);
                        let at = |plane: &[f32], p: usize| {
                            let (kk, r) = (p / A_BLOCK_ROWS, p % A_BLOCK_ROWS);
                            (r < nrows).then(|| plane[r * len + kk])
                        };
                        let what = format!("{scheme:?} {kernel:?} {nrows} rows of {len}");
                        assert_plane(&hf, |p| at(&want.0, p), &what);
                        assert_plane(&lf, |p| at(&want.1, p), &what);
                    }
                }
            }
        }
    }

    /// Tier-1 twin of `split_kernels_exhaustive`: the adversarial inputs
    /// through both block layouts at every tail length 1–15, both
    /// schemes, both dispatch paths.
    #[test]
    fn block_kernels_match_oracle_at_every_tail() {
        let xs = adversarial_inputs();
        let xs = &xs[..xs.len() / 4];
        for scheme in SCHEMES {
            let want = oracle_f32(scheme, xs);
            for kernel in KERNELS {
                for tail in 1..=15usize {
                    check_strips(kernel, scheme, xs, &want, tail);
                    check_a_blocks(kernel, scheme, xs, &want, (1 + tail % A_BLOCK_ROWS, tail));
                    check_a_blocks(kernel, scheme, xs, &want, (A_BLOCK_ROWS, 32 + tail));
                }
            }
        }
    }

    /// Every binary32 value through every SIMD split kernel — the
    /// four-plane split, the B strip and the A block — against the
    /// scalar oracle, bit for bit, both schemes. The strip width cycles
    /// through 1..=16 columns and the A rows through 1..=64 elements and
    /// 1..=4 rows from one 2^16-value batch to the next, so every tail
    /// length and every padding shape is covered. Opt-in: the scalar
    /// oracle bounds it at a few minutes on two cores in release.
    #[test]
    #[ignore]
    fn split_kernels_exhaustive() {
        use std::sync::atomic::AtomicU32;
        const BATCH: u32 = 1 << 16;
        let batches = ((1u64 << 32) / BATCH as u64) as u32;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for scheme in SCHEMES {
            let next = AtomicU32::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= batches {
                            break;
                        }
                        let xs: Vec<f32> = (b * BATCH..)
                            .take(BATCH as usize)
                            .map(f32::from_bits)
                            .collect();
                        let want = assert_paths_identical(scheme, &xs);
                        let b = b as usize;
                        check_strips(SplitKernel::Auto, scheme, &xs, &want, 1 + b % 16);
                        let block = (1 + b / 16 % A_BLOCK_ROWS, 1 + b % 64);
                        check_a_blocks(SplitKernel::Auto, scheme, &xs, &want, block);
                    });
                }
            });
        }
    }

    #[test]
    fn fused_split_counters_advance() {
        let (simd0, scalar0) = split_dispatch_counts();
        let xs = [0.5f32; 16];
        let mut hf = vec![0f32; 16];
        let mut lf = vec![0f32; 16];
        split_strips(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            16,
            16,
            16,
            &mut hf,
            &mut lf,
        );
        let rows: Vec<&[f32]> = xs.chunks(4).collect();
        split_a_block(
            SplitKernel::Scalar,
            SplitScheme::Round,
            &rows,
            &mut hf,
            &mut lf,
        );
        let (simd1, scalar1) = split_dispatch_counts();
        assert!(scalar1 > scalar0);
        assert!(simd1 + scalar1 >= simd0 + scalar0 + 2);
    }

    #[test]
    #[should_panic(expected = "hi_f32 plane length mismatch")]
    fn a_block_outputs_too_short_rejected() {
        let xs = [1.0f32; 4];
        let mut hf = vec![0f32; 9]; // needs 4 x 4 = 16
        let mut lf = vec![0f32; 16];
        split_a_block(
            SplitKernel::Auto,
            SplitScheme::Round,
            &[&xs],
            &mut hf,
            &mut lf,
        );
    }

    #[test]
    #[should_panic(expected = "strip source too short")]
    fn strip_source_too_short_rejected() {
        let xs = [1.0f32; 20];
        let (mut hf, mut lf) = (vec![0f32; 32], vec![0f32; 32]);
        // Two rows at stride 16 need 16 + 8 source elements.
        split_strips(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            16,
            8,
            16,
            &mut hf,
            &mut lf,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_plane_lengths_rejected() {
        let xs = [1.0f32; 4];
        let mut hi = vec![Half::ZERO; 3];
        let mut lo = vec![Half::ZERO; 4];
        let mut hf = vec![0f32; 4];
        let mut lf = vec![0f32; 4];
        split_planes(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut hi,
            &mut lo,
            &mut hf,
            &mut lf,
        );
    }
}
