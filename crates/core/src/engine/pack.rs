//! Operand packing for the blocked execution engine.
//!
//! The microkernel consumes contiguous, zero-padded panels of both split
//! planes. Packing and splitting are one pass: each raw f32 element is
//! split into its hi/lo parts straight into its packed position, and the
//! layouts below hold for the hi plane and the lo plane alike.
//!
//! * **A block** — for a row range of `mcb` output rows and a k panel of
//!   depth `kcb`, the plane is laid out as `ceil(mcb/MR)` row blocks of
//!   `kcb x MR` column-major slivers: element `(rb, kk, r)` holds the
//!   split of `A[row(i0 + rb*MR + r), p0 + kk]`. Rows past `mcb` are
//!   zero.
//! * **B panel** — for a column range of `ncb` output columns, the plane
//!   is `ceil(ncb/NR)` strips of `kcb x NR` row-major slivers: element
//!   `(sb, kk, c)` holds the split of `B[p0 + kk, j0 + sb*NR + c]`.
//!   Columns past `ncb` are zero.
//!
//! Zero padding is numerically inert: each output element's accumulator
//! only ever combines its own row/column lane, and padded lanes are never
//! stored back (see `store_acc`). The `row` indirection supports the
//! row-sampled entry point (`emulated_gemm_rows`) without a gather copy
//! of A.

use egemm_fp::{split_planes_f32, split_planes_f32_strided, SplitKernel, SplitScheme};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Microkernel output rows (register tile height).
pub(crate) const MR: usize = 4;
/// Microkernel output columns (register tile width). 4 x 16 keeps eight
/// independent 8-lane accumulator vectors live — enough parallel chains
/// to cover FP add latency on two issue ports — while leaving headroom
/// for the operand loads and broadcasts.
pub(crate) const NR: usize = 16;

/// Fused split+pack of A for the row range `rows_idx` (global A row
/// indices of the `mcb` output rows) and k panel `[p0, p0 + kcb)`: read
/// raw f32 rows (row stride `k`) and emit both packed planes of the
/// A-block layout directly, with no split matrix materialized in
/// between. Each real row is split straight into its column-major
/// sliver lane (stride `MR`); padded rows are zeroed in both planes.
/// The split is elementwise, so each packed element holds exactly the
/// bits the scalar split of its source element produces. `hi` and `lo`
/// must hold `ceil(mcb/MR) * kcb * MR` elements.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a_fused(
    src: &[f32],
    k: usize,
    rows_idx: &[usize],
    p0: usize,
    kcb: usize,
    scheme: SplitScheme,
    kernel: SplitKernel,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let mcb = rows_idx.len();
    let row_blocks = mcb.div_ceil(MR);
    for rb in 0..row_blocks {
        let hb = &mut hi[rb * kcb * MR..(rb + 1) * kcb * MR];
        let lb = &mut lo[rb * kcb * MR..(rb + 1) * kcb * MR];
        for r in 0..MR {
            let i = rb * MR + r;
            if i < mcb {
                let arow = &src[rows_idx[i] * k + p0..rows_idx[i] * k + p0 + kcb];
                if kcb > 0 {
                    let end = (kcb - 1) * MR + r + 1;
                    split_planes_f32_strided(
                        kernel,
                        scheme,
                        arow,
                        &mut hb[r..end],
                        &mut lb[r..end],
                        MR,
                    );
                }
            } else {
                for kk in 0..kcb {
                    hb[kk * MR + r] = 0.0;
                    lb[kk * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Fused split+pack of B for the column range `[j0, j0 + ncb)` and k
/// panel `[p0, p0 + kcb)`: read raw f32 rows (row stride `n`) and emit
/// both packed planes of the B-panel layout directly. Each row segment
/// is split contiguously into its strip sliver; padding columns are
/// zeroed in both planes. `hi` and `lo` must hold
/// `ceil(ncb/NR) * kcb * NR` elements.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_fused(
    src: &[f32],
    n: usize,
    j0: usize,
    ncb: usize,
    p0: usize,
    kcb: usize,
    scheme: SplitScheme,
    kernel: SplitKernel,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let strips = ncb.div_ceil(NR);
    for sb in 0..strips {
        let hs = &mut hi[sb * kcb * NR..(sb + 1) * kcb * NR];
        let ls = &mut lo[sb * kcb * NR..(sb + 1) * kcb * NR];
        let jbase = j0 + sb * NR;
        let cols = NR.min(ncb - sb * NR);
        for kk in 0..kcb {
            let brow = &src[(p0 + kk) * n + jbase..(p0 + kk) * n + jbase + cols];
            let hd = &mut hs[kk * NR..kk * NR + NR];
            let ld = &mut ls[kk * NR..kk * NR + NR];
            split_planes_f32(kernel, scheme, brow, &mut hd[..cols], &mut ld[..cols]);
            for d in hd[cols..].iter_mut() {
                *d = 0.0;
            }
            for d in ld[cols..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Publication states of one [`PanelStore`] slot.
const SLOT_EMPTY: u8 = 0;
const SLOT_PACKING: u8 = 1;
const SLOT_READY: u8 = 2;

/// One cooperative (jc, pc) panel: an EMPTY → PACKING → READY state
/// machine over lazily-allocated hi/lo buffers. The worker that wins the
/// EMPTY → PACKING CAS is the slot's sole writer until its release store
/// of READY publishes the buffers; the acquire load that observes READY
/// is what makes the reads of every other worker sound.
struct PanelSlot {
    state: AtomicU8,
    hi: UnsafeCell<Vec<f32>>,
    lo: UnsafeCell<Vec<f32>>,
}

// SAFETY: the state machine above enforces single-writer / post-publish
// readers on the UnsafeCell contents.
unsafe impl Sync for PanelSlot {}

/// Cooperative shared store of packed B panels for one engine call: one
/// slot per (jc column block, k panel). The first worker to need a panel
/// packs and publishes it; every other worker waits for READY instead of
/// re-packing — so cold-path B packing is done exactly once per (jc, pc)
/// per call and parallelizes across workers instead of duplicating
/// O(workers) times. Bit-identity is unaffected: the packed bytes are a
/// pure function of (operand, jc, pc, blocking), independent of which
/// worker packs.
pub(crate) struct PanelStore {
    slots: Vec<PanelSlot>,
    /// k panels per jc block (slot index = `jc_idx * panels + pc_idx`).
    panels: usize,
}

impl PanelStore {
    pub(crate) fn new(jc_blocks: usize, panels: usize) -> PanelStore {
        let mut slots = Vec::with_capacity(jc_blocks * panels);
        for _ in 0..jc_blocks * panels {
            slots.push(PanelSlot {
                state: AtomicU8::new(SLOT_EMPTY),
                hi: UnsafeCell::new(Vec::new()),
                lo: UnsafeCell::new(Vec::new()),
            });
        }
        PanelStore { slots, panels }
    }

    /// The packed hi/lo planes of panel (`jc_idx`, `pc_idx`), packing
    /// them via `pack` if the calling worker arrives first. Returns the
    /// published planes (a plane an operand never uses stays empty) and
    /// whether this call did the packing.
    pub(crate) fn acquire(
        &self,
        jc_idx: usize,
        pc_idx: usize,
        pack: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>),
    ) -> (&[f32], &[f32], bool) {
        let slot = &self.slots[jc_idx * self.panels + pc_idx];
        match slot.state.compare_exchange(
            SLOT_EMPTY,
            SLOT_PACKING,
            Ordering::Acquire,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // SAFETY: winning the CAS makes this worker the slot's
                // sole writer until the READY store below.
                let (hi, lo) = unsafe { (&mut *slot.hi.get(), &mut *slot.lo.get()) };
                pack(hi, lo);
                slot.state.store(SLOT_READY, Ordering::Release);
                // SAFETY: READY published; the buffers are frozen.
                unsafe { (&*slot.hi.get(), &*slot.lo.get(), true) }
            }
            Err(mut s) => {
                // Another worker is packing this panel; packing is
                // bounded work, so spin briefly and yield the core so a
                // descheduled packer can finish (essential when workers
                // outnumber cores).
                let mut spins = 0u32;
                while s != SLOT_READY {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    s = slot.state.load(Ordering::Acquire);
                }
                // SAFETY: acquire of READY synchronizes with the
                // packer's release store; the buffers are frozen.
                unsafe { (&*slot.hi.get(), &*slot.lo.get(), false) }
            }
        }
    }
}

/// Both planes of a whole B operand packed once for reuse across calls.
///
/// Layout: `k.div_ceil(kc)` panels, each holding `n.div_ceil(NR)` strips
/// of `kcb x NR` row-major slivers — exactly what [`pack_b_fused`]
/// produces for the full column range of one k panel. Panels are stored at the stride
/// of a *full* panel (`strips * kc * NR`) so panel offsets don't depend
/// on the ragged depth of the final panel.
///
/// A macro-tile whose column origin `jc` is NR-aligned and whose k grid
/// starts at 0 with the same `kc` reads its slivers at global strip
/// `jc/NR + sb`, panel `pc/kc` — bit-for-bit the slivers a per-tile
/// [`pack_b_fused`] call would have produced, because strip contents depend
/// only on the global column range and zero padding matches at the right
/// edge. The engine asserts those alignment conditions before taking the
/// prepacked path.
pub(crate) struct PackedB {
    n: usize,
    k: usize,
    kc: usize,
    strips: usize,
    panel_stride: usize,
    hi: Vec<f32>,
    lo: Vec<f32>,
}

impl PackedB {
    /// Split and pack both planes of a raw operand with panel depth `kc`
    /// (>= 1, already clamped to the chunk grid by the caller), never
    /// materializing the split planes.
    pub(crate) fn pack_fused(
        src: &egemm_matrix::Matrix<f32>,
        scheme: SplitScheme,
        kernel: SplitKernel,
        kc: usize,
    ) -> PackedB {
        assert!(kc >= 1, "panel depth must be positive");
        let k = src.rows();
        let n = src.cols();
        let strips = n.div_ceil(NR);
        let panels = k.div_ceil(kc);
        let panel_stride = strips * kc * NR;
        let mut hi = vec![0f32; panels * panel_stride];
        let mut lo = vec![0f32; panels * panel_stride];
        let mut pc = 0usize;
        while pc < k {
            let kcb = kc.min(k - pc);
            let base = (pc / kc) * panel_stride;
            let len = strips * kcb * NR;
            pack_b_fused(
                src.as_slice(),
                n,
                0,
                n,
                pc,
                kcb,
                scheme,
                kernel,
                &mut hi[base..base + len],
                &mut lo[base..base + len],
            );
            pc += kcb;
        }
        PackedB {
            n,
            k,
            kc,
            strips,
            panel_stride,
            hi,
            lo,
        }
    }

    /// Panel depth the operand was packed with.
    pub(crate) fn kc(&self) -> usize {
        self.kc
    }

    /// Reduction depth (B rows).
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Output columns (B columns).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Resident bytes of both packed planes.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.hi.len() + self.lo.len())
    }

    /// The `kcb x NR` sliver of global strip `strip` in panel `panel`
    /// (whose actual depth is `kcb`).
    #[cfg(test)]
    pub(crate) fn sliver(&self, lo_plane: bool, panel: usize, kcb: usize, strip: usize) -> &[f32] {
        self.sliver_span(lo_plane, panel, kcb, strip, 1)
    }

    /// `take` consecutive strips' slivers as one `take x kcb x NR`
    /// slice — strips of one panel are packed contiguously, which is
    /// what lets the JIT's dual-strip kernels read a fused sliver.
    #[inline]
    pub(crate) fn sliver_span(
        &self,
        lo_plane: bool,
        panel: usize,
        kcb: usize,
        strip: usize,
        take: usize,
    ) -> &[f32] {
        debug_assert!(strip + take <= self.strips && kcb <= self.kc);
        let plane = if lo_plane { &self.lo } else { &self.hi };
        let base = panel * self.panel_stride + strip * kcb * NR;
        &plane[base..base + take * kcb * NR]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_matrix::Matrix;

    const SCHEMES: [SplitScheme; 2] = [SplitScheme::Round, SplitScheme::Truncate];
    const KERNELS: [SplitKernel; 2] = [SplitKernel::Scalar, SplitKernel::Auto];

    /// The scalar split of `x`, hi or lo part, widened to binary32.
    fn part(scheme: SplitScheme, x: f32, lo_plane: bool) -> f32 {
        let s = scheme.split(x);
        if lo_plane {
            s.lo.to_f32()
        } else {
            s.hi.to_f32()
        }
    }

    /// The documented B-panel layout over `[j0, j0 + ncb)` x `[p0, p0 +
    /// kcb)` of `src`, built element by element from the scalar split.
    fn want_b(
        src: &Matrix<f32>,
        scheme: SplitScheme,
        lo_plane: bool,
        (j0, ncb): (usize, usize),
        (p0, kcb): (usize, usize),
    ) -> Vec<f32> {
        let strips = ncb.div_ceil(NR);
        let mut want = vec![0f32; strips * kcb * NR];
        for sb in 0..strips {
            for kk in 0..kcb {
                for c in 0..NR {
                    let j = sb * NR + c;
                    if j < ncb {
                        let x = src.get(p0 + kk, j0 + j);
                        want[sb * kcb * NR + kk * NR + c] = part(scheme, x, lo_plane);
                    }
                }
            }
        }
        want
    }

    /// The documented A-panel layout of rows `rows_idx` x `[p0, p0 +
    /// kcb)` of `src`, built element by element from the scalar split.
    fn want_a(
        src: &Matrix<f32>,
        scheme: SplitScheme,
        lo_plane: bool,
        rows_idx: &[usize],
        (p0, kcb): (usize, usize),
    ) -> Vec<f32> {
        let blocks = rows_idx.len().div_ceil(MR);
        let mut want = vec![0f32; blocks * kcb * MR];
        for (i, &row) in rows_idx.iter().enumerate() {
            for kk in 0..kcb {
                let x = src.get(row, p0 + kk);
                want[(i / MR) * kcb * MR + kk * MR + i % MR] = part(scheme, x, lo_plane);
            }
        }
        want
    }

    /// Run `pack_a_fused` over `rows_idx` x `[p0, p0 + kcb)` and assert
    /// both planes equal the documented layout of the scalar split.
    fn check_pack_a(src: &Matrix<f32>, rows_idx: &[usize], (p0, kcb): (usize, usize)) {
        let blocks = rows_idx.len().div_ceil(MR);
        for scheme in SCHEMES {
            for kernel in KERNELS {
                let mut hi = vec![-1.0f32; blocks * kcb * MR];
                let mut lo = vec![-1.0f32; blocks * kcb * MR];
                pack_a_fused(
                    src.as_slice(),
                    src.cols(),
                    rows_idx,
                    p0,
                    kcb,
                    scheme,
                    kernel,
                    &mut hi,
                    &mut lo,
                );
                for (lo_plane, got) in [(false, hi), (true, lo)] {
                    let want = want_a(src, scheme, lo_plane, rows_idx, (p0, kcb));
                    assert_eq!(got, want, "{scheme:?} {kernel:?} lo={lo_plane}");
                }
            }
        }
    }

    /// Run `pack_b_fused` over `[j0, j0 + ncb)` x `[p0, p0 + kcb)` and
    /// assert both planes equal the documented layout of the scalar
    /// split.
    fn check_pack_b(src: &Matrix<f32>, (j0, ncb): (usize, usize), (p0, kcb): (usize, usize)) {
        let strips = ncb.div_ceil(NR);
        for scheme in SCHEMES {
            for kernel in KERNELS {
                let mut hi = vec![-1.0f32; strips * kcb * NR];
                let mut lo = vec![-1.0f32; strips * kcb * NR];
                pack_b_fused(
                    src.as_slice(),
                    src.cols(),
                    j0,
                    ncb,
                    p0,
                    kcb,
                    scheme,
                    kernel,
                    &mut hi,
                    &mut lo,
                );
                for (lo_plane, got) in [(false, hi), (true, lo)] {
                    let want = want_b(src, scheme, lo_plane, (j0, ncb), (p0, kcb));
                    assert_eq!(got, want, "{scheme:?} {kernel:?} lo={lo_plane}");
                }
            }
        }
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 3 rows (one short of MR), k = 5, panel [1, 4).
        let src = Matrix::<f32>::random_uniform(3, 5, 5);
        check_pack_a(&src, &[0, 1, 2], (1, 3));
    }

    #[test]
    fn pack_a_row_gather() {
        let k = 4;
        let src = Matrix::<f32>::random_uniform(6, k, 3);
        let rows_idx = [5usize, 2];
        let mut hi = vec![0.0f32; 2 * MR];
        let mut lo = vec![0.0f32; 2 * MR];
        let scheme = SplitScheme::Round;
        pack_a_fused(
            src.as_slice(),
            k,
            &rows_idx,
            2,
            2,
            scheme,
            SplitKernel::Auto,
            &mut hi,
            &mut lo,
        );
        assert_eq!(hi[0], part(scheme, src.get(5, 2), false));
        assert_eq!(hi[1], part(scheme, src.get(2, 2), false));
        assert_eq!(lo[MR], part(scheme, src.get(5, 3), true));
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // n = 12, columns [3, 3 + 9) span two strips, the second one
        // ragged; panel offset 1 of depth 2 inside a k = 4 operand.
        let src = Matrix::<f32>::random_uniform(4, 12, 11);
        check_pack_b(&src, (3, 9), (1, 2));
    }

    #[test]
    fn packed_b_slivers_match_per_tile_pack() {
        // A ragged shape: k = 23 over kc = 8 (final panel depth 7),
        // n = 37 over NR strips (final strip ragged). Every sliver of
        // the whole-operand pack must equal the sliver a per-tile pack
        // over an NR-aligned column range produces.
        let (k, n, kc) = (23usize, 37usize, 8usize);
        let src = Matrix::<f32>::random_uniform(k, n, 42);
        // Tile column origin jc = 16 (one NR strip in), width 21 (spans
        // strip 1 and the ragged final strip 2).
        let (jc, ncb) = (NR, (n - NR).min(2 * NR));
        let strips = ncb.div_ceil(NR);
        for scheme in SCHEMES {
            for kernel in KERNELS {
                let packed = PackedB::pack_fused(&src, scheme, kernel, kc);
                assert_eq!((packed.k(), packed.n(), packed.kc()), (k, n, kc));
                let mut pc = 0usize;
                while pc < k {
                    let kcb = kc.min(k - pc);
                    let mut hi = vec![-1.0f32; strips * kcb * NR];
                    let mut lo = vec![-1.0f32; strips * kcb * NR];
                    pack_b_fused(
                        src.as_slice(),
                        n,
                        jc,
                        ncb,
                        pc,
                        kcb,
                        scheme,
                        kernel,
                        &mut hi,
                        &mut lo,
                    );
                    for (lo_plane, tile) in [(false, &hi), (true, &lo)] {
                        for sb in 0..strips {
                            let want = &tile[sb * kcb * NR..(sb + 1) * kcb * NR];
                            let got = packed.sliver(lo_plane, pc / kc, kcb, jc / NR + sb);
                            assert_eq!(got, want, "lo={lo_plane} pc={pc} sb={sb}");
                        }
                    }
                    pc += kcb;
                }
            }
        }
    }

    #[test]
    fn pack_a_fused_bit_identical_to_staged() {
        // Ragged everything: 7 rows (the second row block one short of
        // MR), gathered out of order, panel offset 2, depth 5. Both
        // planes must equal the layout of the ahead-of-time scalar
        // split, for both schemes and kernels.
        let src = Matrix::<f32>::random_uniform(11, 9, 7);
        check_pack_a(&src, &[10, 3, 0, 7, 1, 4, 9], (2, 5));
    }

    #[test]
    fn pack_b_fused_bit_identical_to_staged() {
        // The column range spans a full strip plus a ragged one; panel
        // offset 1 of depth 3 inside a k = 6 operand.
        let src = Matrix::<f32>::random_uniform(6, 21, 13);
        check_pack_b(&src, (0, 21), (1, 3));
    }

    #[test]
    fn packed_b_fused_bit_identical_to_staged() {
        // Same ragged shape as the sliver test: final panel depth 7,
        // final strip ragged. Every sliver of the whole-operand pack
        // must be the layout of the ahead-of-time scalar split.
        let (k, n, kc) = (23usize, 37usize, 8usize);
        let src = Matrix::<f32>::random_uniform(k, n, 42);
        for scheme in SCHEMES {
            for kernel in KERNELS {
                let packed = PackedB::pack_fused(&src, scheme, kernel, kc);
                assert_eq!(
                    (packed.k(), packed.n(), packed.kc(), packed.bytes()),
                    (k, n, kc, 2 * 4 * k.div_ceil(kc) * kc * n.div_ceil(NR) * NR)
                );
                let mut pc = 0usize;
                while pc < k {
                    let kcb = kc.min(k - pc);
                    for sb in 0..n.div_ceil(NR) {
                        let cols = (sb * NR, NR.min(n - sb * NR));
                        for lo_plane in [false, true] {
                            let want = want_b(&src, scheme, lo_plane, cols, (pc, kcb));
                            let got = packed.sliver(lo_plane, pc / kc, kcb, sb);
                            assert_eq!(
                                got,
                                &want[..],
                                "{scheme:?} {kernel:?} lo={lo_plane} pc={pc} sb={sb}"
                            );
                        }
                    }
                    pc += kcb;
                }
            }
        }
    }

    #[test]
    fn panel_store_packs_once_and_publishes_to_all() {
        use std::sync::atomic::AtomicUsize;
        let store = PanelStore::new(2, 3);
        let packs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for jc_idx in 0..2 {
                        for pc_idx in 0..3 {
                            let (hi, lo, packed) = store.acquire(jc_idx, pc_idx, |hi, lo| {
                                hi.resize(4, (jc_idx * 3 + pc_idx) as f32);
                                lo.resize(4, -1.0);
                            });
                            if packed {
                                packs.fetch_add(1, Ordering::Relaxed);
                            }
                            assert_eq!(hi, vec![(jc_idx * 3 + pc_idx) as f32; 4]);
                            assert_eq!(lo, vec![-1.0f32; 4]);
                        }
                    }
                });
            }
        });
        // 6 slots, each packed by exactly one thread.
        assert_eq!(packs.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn panel_store_keeps_unused_plane_empty() {
        let store = PanelStore::new(1, 1);
        let (hi, lo, packed) = store.acquire(0, 0, |hi, _lo| hi.resize(2, 7.0));
        assert!(packed);
        assert_eq!(hi, &[7.0, 7.0]);
        assert!(lo.is_empty());
    }

    #[test]
    fn packed_b_bytes_accounting() {
        let src = Matrix::<f32>::random_uniform(8, 16, 1);
        let packed = PackedB::pack_fused(&src, SplitScheme::Round, SplitKernel::Auto, 8);
        // 1 panel x 1 strip x 8x16 x 2 planes x 4 bytes.
        assert_eq!(packed.bytes(), 2 * 4 * 8 * 16);
    }
}
