//! Blocked pack-and-tile execution engine for the emulated GEMM.
//!
//! The functional executor used to stream the whole B operand past every
//! output row — O(m·k·n) DRAM traffic over B and a store/reload of the C
//! row on every k step. This module is a BLIS-style replacement: the
//! output is cut into `mc x nc` macro-tiles, each tile walks the
//! reduction in `kc`-deep panels whose hi/lo operand planes are packed
//! into contiguous, cache-resident slivers, and an `MR x NR`
//! register-tiled microkernel keeps 32 accumulators in registers for a
//! whole panel. Workers claim macro-tiles from the 2D grid through a
//! locality-aware work-stealing scheduler ([`sched`]): each worker owns
//! a contiguous column-major run (all row tiles of a jc column block
//! before the next block, so the B panel it just touched stays hot) and
//! idle workers steal half-ranges from the most-loaded victim, so
//! skewed shapes (m = 64, n = k = 4096) parallelize across column tiles
//! where whole-row partitioning would idle every core but four. Cold B
//! panels are packed cooperatively through a per-call
//! [`pack::PanelStore`]: the first worker to reach a (jc, pc) panel
//! packs and publishes it, every other worker reuses it — once per
//! panel per call instead of once per tile per worker.
//!
//! The engine is numerically *invisible*: per output element it replays
//! exactly the profiled Tensor-Core accumulation order — ascending k in
//! `tk`-sized chunks, the scheme's terms in issue order within a chunk,
//! one separate binary32 multiply and add per product. Blocking over i/j
//! only reorders *which elements* are computed when, never the value
//! stream within one element. Blocking over k is only legal because `kc`
//! is forced to a multiple of `tk` (panel seams land on chunk
//! boundaries) and the partial accumulator is carried through the output
//! buffer in binary32 — a lossless round-trip.
//!
//! There is one pipeline and one entry point, [`gemm`] over a [`Plan`]:
//! A always arrives as raw f32 and is split into its hi/lo planes inside
//! the per-panel pack (the split is elementwise, so fusing it into the
//! pack cannot change a bit); B arrives raw (split and packed per panel
//! through the cooperative store) or as a [`PreparedOperand`] whose
//! panels [`prepare_b_fused`] packed once through the runtime cache.
//! No whole-operand split planes are ever materialized. The result is
//! bit-identical to the scalar [`crate::emulated_gemm_entrywise`]
//! oracle; the proptest suite in `tests/prop_engine.rs` enforces that
//! with `to_bits` equality.

mod cache;
mod counters;
pub(crate) mod jit;
mod micro;
mod pack;
pub mod runtime;
mod sched;

use crate::config::TilingConfig;
use crate::emulation::EmulationScheme;
use crate::telemetry;
pub use cache::fingerprint as content_fingerprint;
use cache::split_plane_bytes;
use egemm_fp::{SplitKernel, SplitScheme};
use egemm_matrix::Matrix;
pub use jit::{available as jit_available, exec_mappings as jit_exec_mappings};
use micro::PlanePair;
use pack::{pack_a_fused, pack_b_fused, Panel, PanelStore, MR, NR};
pub use runtime::{CacheStats, EngineRuntime, PreparedOperand, RuntimeConfig};
pub use sched::SchedStats;
use sched::{Claim, TileScheduler};

/// Cache-blocking and threading parameters of the execution engine.
///
/// Defaults target a generic x86 cache hierarchy: a `kc x NR` B sliver
/// (2 planes x 8 KiB) lives in L1 across a row block, the packed A block
/// (2 planes x `mc x kc` = 128 KiB) in L2, and the B panel in outer
/// cache. All sizes are clamped to legal values at run time (`kc` to a
/// multiple of the chunk depth `tk`, `mc`/`nc` to at least one register
/// tile), so any configuration computes correct — and bit-identical —
/// results; only throughput varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Output rows per macro-tile.
    pub mc: usize,
    /// Output columns per macro-tile.
    pub nc: usize,
    /// Reduction depth per packed panel (rounded down to a `tk`
    /// multiple, up to at least one chunk).
    pub kc: usize,
    /// Worker threads; `0` resolves `EGEMM_THREADS`, then
    /// `RAYON_NUM_THREADS`, then the machine's available parallelism.
    pub threads: usize,
    /// Dispatch tiles through JIT-compiled shape-specialized
    /// microkernels when the process supports them (x86-64 Linux with
    /// AVX, `EGEMM_JIT` not set to `0`). The interpreted microkernel
    /// remains the bit-identity oracle: every compiled kernel is
    /// verified against it before first use, and any tile the JIT does
    /// not cover falls back transparently. Default on.
    pub jit: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mc: 64,
            nc: 256,
            kc: 256,
            threads: 0,
            jit: true,
        }
    }
}

impl EngineConfig {
    /// The worker count this configuration resolves to *when queried
    /// directly*. The execution path no longer calls this per GEMM: a
    /// zero `threads` now defers to [`EngineRuntime::default_threads`],
    /// which resolved the same environment variables exactly once at
    /// runtime construction ([`RuntimeConfig::from_env`]).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        EngineRuntime::global().default_threads()
    }
}

/// Clamp a requested panel depth to the chunk grid: a positive multiple
/// of `tk`, so panel seams land on chunk boundaries. Shared by execution
/// and operand preparation so a prepacked B always matches the blocking
/// the engine will run.
pub(crate) fn clamp_kc(kc: usize, tk: usize) -> usize {
    (kc.max(tk) / tk) * tk
}

/// The right-hand operand of a [`Plan`].
#[derive(Debug, Clone, Copy)]
pub enum BOperand<'a> {
    /// Raw f32, split into hi/lo planes inside the per-panel pack.
    Raw(&'a Matrix<f32>),
    /// Panels prepacked by [`prepare_b_fused`]; workers read slivers
    /// straight from the handle. Requires the full k range and the
    /// blocking the operand was prepared with.
    Prepared(&'a PreparedOperand),
}

impl<'a> From<&'a Matrix<f32>> for BOperand<'a> {
    fn from(m: &'a Matrix<f32>) -> Self {
        BOperand::Raw(m)
    }
}

impl<'a> From<&'a PreparedOperand> for BOperand<'a> {
    fn from(p: &'a PreparedOperand) -> Self {
        BOperand::Prepared(p)
    }
}

impl BOperand<'_> {
    /// `(k, n)`: reduction depth and output columns.
    fn shape(&self) -> (usize, usize) {
        match self {
            BOperand::Raw(m) => (m.rows(), m.cols()),
            BOperand::Prepared(p) => (p.rows(), p.cols()),
        }
    }
}

/// One engine execution: `D = A·B (+ C)` over raw f32 A, optionally
/// restricted to a row gather and/or a reduction slice. Build one with
/// [`Plan::new`] and override fields with struct-update syntax:
///
/// ```
/// use egemm::engine::{self, EngineRuntime, Plan};
/// use egemm::EmulationScheme;
/// use egemm_matrix::Matrix;
/// let a = Matrix::<f32>::random_uniform(8, 32, 1);
/// let b = Matrix::<f32>::random_uniform(32, 8, 2);
/// let rows = [1usize, 5];
/// let plan = Plan {
///     rows: Some(&rows),
///     ..Plan::new(&a, &b, EmulationScheme::EgemmTc)
/// };
/// let d = engine::gemm(EngineRuntime::global(), &plan);
/// assert_eq!((d.rows(), d.cols()), (2, 8));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// Left operand, split per tile inside the workers' pack.
    pub a: &'a Matrix<f32>,
    /// Right operand, raw or prepared.
    pub b: BOperand<'a>,
    /// Accumulator seed, shaped like the output; `None` starts at zero.
    pub c: Option<&'a Matrix<f32>>,
    /// Compute only these output rows (strictly ascending A row
    /// indices); the output is then `rows.len() x n`, bit-identical to
    /// those rows of the full product.
    pub rows: Option<&'a [usize]>,
    /// Reduction slice `[k_lo, k_hi)` — the split-K partial product.
    /// Chunking restarts at `k_lo`. `None` is the whole reduction.
    pub k_range: Option<(usize, usize)>,
    /// Emulation scheme: split technique plus term order.
    pub scheme: EmulationScheme,
    /// Tensor-Core chunk depth of the accumulation order.
    pub tk: usize,
    /// Blocking, threading and JIT switches.
    pub cfg: EngineConfig,
}

impl<'a> Plan<'a> {
    /// The full product `A·B` at the HMMA.1688 chunk depth
    /// (`TilingConfig::TC.k`) under the default blocking.
    pub fn new(a: &'a Matrix<f32>, b: impl Into<BOperand<'a>>, scheme: EmulationScheme) -> Self {
        Plan {
            a,
            b: b.into(),
            c: None,
            rows: None,
            k_range: None,
            scheme,
            tk: TilingConfig::TC.k,
            cfg: EngineConfig::default(),
        }
    }
}

/// Execute `plan` on `rt`: the one engine entry point. Validates the
/// plan, allocates the output (a copy of C, or zeros) and runs the
/// blocked pipeline, which replays per output element the profiled
/// Tensor-Core accumulation order described in the module docs.
///
/// # Panics
/// If the shapes disagree, `tk` is zero, a row index is out of range or
/// the rows are not strictly ascending, the k range is out of bounds,
/// or a prepared B was packed under another split scheme or panel depth
/// or is paired with a partial k range.
pub fn gemm(rt: &EngineRuntime, plan: &Plan<'_>) -> Matrix<f32> {
    let a = plan.a;
    let (k, n) = plan.b.shape();
    assert_eq!(a.cols(), k, "inner dimensions disagree");
    assert!(plan.tk > 0, "tk must be positive");
    if let Some(rows) = plan.rows {
        for (pos, &r) in rows.iter().enumerate() {
            assert!(
                r < a.rows(),
                "sampled row {r} (position {pos}) out of range: A has {} rows",
                a.rows()
            );
            if pos > 0 {
                assert!(
                    rows[pos - 1] < r,
                    "sampled rows must be strictly ascending: rows[{}] = {} precedes {r}",
                    pos - 1,
                    rows[pos - 1]
                );
            }
        }
    }
    let (k_lo, k_hi) = plan.k_range.unwrap_or((0, k));
    assert!(
        k_lo <= k_hi && k_hi <= k,
        "k range [{k_lo}, {k_hi}) out of bounds"
    );
    let kc = clamp_kc(plan.cfg.kc, plan.tk);
    if let BOperand::Prepared(p) = plan.b {
        assert_eq!(
            p.scheme(),
            plan.scheme.split_scheme(),
            "B split scheme mismatch"
        );
        assert_eq!(
            p.packed.kc(),
            kc,
            "prepacked panel depth disagrees with the blocking in effect"
        );
        assert!(
            (k_lo, k_hi) == (0, k),
            "prepacked B requires a full k range, got [{k_lo}, {k_hi})"
        );
    }
    let m_out = plan.rows.map_or(a.rows(), <[usize]>::len);
    let mut out = match plan.c {
        Some(c0) => {
            assert_eq!((c0.rows(), c0.cols()), (m_out, n), "C shape");
            c0.clone()
        }
        None => Matrix::zeros(m_out, n),
    };
    // The split planes the per-panel packs never materialize: A's slice
    // always, B's only when it arrives raw (a prepared B was counted
    // once, when the cache packed it). Split-K slices each count their
    // own slice, so the slices of one call sum to the whole operands.
    let depth = k_hi - k_lo;
    let b_bytes = match plan.b {
        BOperand::Raw(_) => split_plane_bytes(depth, n),
        BOperand::Prepared(_) => 0,
    };
    rt.counters()
        .staging_saved
        .add((split_plane_bytes(m_out, depth) + b_bytes) as u64);
    execute(rt, plan, (k_lo, k_hi), kc, &mut out);
    out
}

/// Pack `src`'s B panels straight from the raw f32 data through `rt`'s
/// cache, for reuse as [`BOperand::Prepared`] under the same `tk`/`cfg`
/// blocking. A cache hit skips the pack; the returned handle pins the
/// panels independently of eviction.
pub fn prepare_b_fused(
    rt: &EngineRuntime,
    src: &Matrix<f32>,
    scheme: SplitScheme,
    tk: usize,
    cfg: EngineConfig,
) -> PreparedOperand {
    assert!(tk > 0, "tk must be positive");
    rt.prepare_b_fused(src, scheme, clamp_kc(cfg.kc, tk), cfg.threads)
}

/// `gemm` of raw A against a prepared B, under the argument list the
/// layered benchmark (`benchmark/src/layers.rs`) calls. New code builds
/// a [`Plan`] instead.
pub fn gemm_blocked_prepared_fused(
    rt: &EngineRuntime,
    a: &Matrix<f32>,
    b: &PreparedOperand,
    c: Option<&Matrix<f32>>,
    scheme: EmulationScheme,
    tk: usize,
    cfg: EngineConfig,
) -> Matrix<f32> {
    gemm(
        rt,
        &Plan {
            c,
            tk,
            cfg,
            ..Plan::new(a, b, scheme)
        },
    )
}

/// Shared output buffer handed to workers; tiles are disjoint by
/// construction, so concurrent raw-pointer writes never overlap.
struct SharedOut(*mut f32);
unsafe impl Send for SharedOut {}
unsafe impl Sync for SharedOut {}

/// Run a validated plan over the reduction slice `k_lo..k_hi` with
/// panel depth `kc` (already on the chunk grid), accumulating into
/// `out`.
fn execute(
    rt: &EngineRuntime,
    plan: &Plan<'_>,
    (k_lo, k_hi): (usize, usize),
    kc: usize,
    out: &mut Matrix<f32>,
) {
    let (m_out, n) = (out.rows(), out.cols());
    if m_out == 0 || n == 0 || k_lo >= k_hi {
        return; // nothing to accumulate; out already holds C (or zeros)
    }
    // Clamp the blocking to legal values: mc to at least one register
    // tile, nc to a positive multiple of NR so every macro-tile's column
    // origin is strip-aligned (which is what lets a whole-operand B pack
    // serve any tile). Tiling bounds never affect output bits — only
    // which elements are computed when.
    let mc = plan.cfg.mc.max(MR);
    let nc = plan.cfg.nc.div_ceil(NR).max(1) * NR;
    let tiles_m = m_out.div_ceil(mc);
    let tiles_n = n.div_ceil(nc);
    let n_tiles = tiles_m * tiles_n;
    let threads = if plan.cfg.threads > 0 {
        plan.cfg.threads
    } else {
        rt.default_threads()
    }
    .min(n_tiles)
    .max(1);

    // Tiles are linearized column-major (t = jc_idx * tiles_m + ic_idx),
    // so each worker's contiguous initial range walks all row tiles of
    // one jc column block before advancing — the packed B panel it
    // shares through the store stays hot across the whole run.
    let sched = TileScheduler::new(n_tiles, threads);
    // Cooperative B-panel store: present whenever B must be packed this
    // call (absent on the prepacked path, which reads slivers directly).
    let store = match plan.b {
        BOperand::Raw(_) => Some(PanelStore::new(tiles_n, (k_hi - k_lo).div_ceil(kc))),
        BOperand::Prepared(_) => None,
    };
    let shared = SharedOut(out.as_mut_slice().as_mut_ptr());
    let ctx = WorkerCtx {
        m_out,
        n,
        mc,
        nc,
        kc,
        k_lo,
        k_hi,
        tiles_m,
        kernel: rt.split_kernel(),
    };
    rt.run_parallel(threads, &|| {
        worker(&ctx, plan, &sched, store.as_ref(), rt, &shared)
    });
}

/// Geometry shared by all workers of one execution.
struct WorkerCtx {
    m_out: usize,
    n: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    k_lo: usize,
    k_hi: usize,
    tiles_m: usize,
    /// Split kernel of the per-panel fused packs.
    kernel: SplitKernel,
}

fn worker(
    ctx: &WorkerCtx,
    plan: &Plan<'_>,
    sched: &TileScheduler,
    store: Option<&PanelStore>,
    rt: &EngineRuntime,
    shared: &SharedOut,
) {
    let terms = plan.scheme.terms();
    let k = plan.a.cols();
    let split_scheme = plan.scheme.split_scheme();
    // Per-worker A pack scratch, reused across tiles and panels. The
    // fused pack emits both planes (the split computes them together);
    // the microkernel reads only the planes the scheme's terms name. B
    // panels come from the shared cooperative store (or the prepacked
    // operand), never from per-worker scratch.
    let a_cap = ctx.mc.div_ceil(MR) * MR * ctx.kc;
    let mut a_hi = vec![0f32; a_cap];
    let mut a_lo = vec![0f32; a_cap];
    let mut rowbuf: Vec<usize> = Vec::with_capacity(ctx.mc);
    let counters = rt.counters();
    // JIT dispatch state: the runtime's compiled-kernel cache (absent
    // when the call or the process opted out) plus a per-worker memo
    // that keeps the tile loop off the cache mutex.
    let jit_active = if plan.cfg.jit { rt.jit_cache() } else { None };
    let mut jit_memo = jit::KernelMemo::default();
    let me = sched.join();

    // One Worker span covers this thread's whole participation (claim
    // loop entry to exhaustion); nested spans time each pack and each
    // panel's compute. Span starts are 0 — and ends no-ops — when
    // tracing is off, so the loop pays one relaxed load per span site.
    let t_worker = telemetry::span_start();
    let mut tiles_claimed = 0u64;
    loop {
        let t_claim = telemetry::span_start();
        let t = match sched.next(me) {
            Claim::Done => break,
            Claim::Local(t) => t,
            Claim::Stolen { tile, batch } => {
                counters.steals.inc();
                counters.tiles_stolen.add(batch as u64);
                telemetry::span_end(telemetry::Phase::Steal, t_claim, batch as u64);
                tile
            }
        };
        tiles_claimed += 1;
        let ic_idx = t % ctx.tiles_m;
        let jc_idx = t / ctx.tiles_m;
        let ic = ic_idx * ctx.mc;
        let jc = jc_idx * ctx.nc;
        let mcb = ctx.mc.min(ctx.m_out - ic);
        let ncb = ctx.nc.min(ctx.n - jc);
        rowbuf.clear();
        match plan.rows {
            Some(rs) => rowbuf.extend_from_slice(&rs[ic..ic + mcb]),
            None => rowbuf.extend(ic..ic + mcb),
        }
        let row_blocks = mcb.div_ceil(MR);
        let strips = ncb.div_ceil(NR);

        // Panels start at k_lo and advance by kc (a tk multiple), so
        // every seam lands on the per-slice chunk grid; the accumulator
        // carries between panels through the output in exact binary32.
        let mut pc = ctx.k_lo;
        while pc < ctx.k_hi {
            let kcb = ctx.kc.min(ctx.k_hi - pc);
            let a_len = row_blocks * kcb * MR;
            let b_len = strips * kcb * NR;
            let t_fused = telemetry::span_start();
            let a_nan = pack_a_fused(
                plan.a.as_slice(),
                k,
                &rowbuf,
                pc,
                kcb,
                split_scheme,
                ctx.kernel,
                &mut a_hi[..a_len],
                &mut a_lo[..a_len],
            );
            telemetry::span_end(
                telemetry::Phase::FusedSplitPack,
                t_fused,
                (4 * 2 * a_len) as u64,
            );
            // A raw B's panels go through the cooperative store: the
            // first worker to reach (jc, pc) packs and publishes it,
            // everyone else reuses the published planes — the packed
            // bytes are a pure function of (operand, jc, pc, blocking),
            // so which worker packs cannot change a bit.
            let b_panel: Option<Panel<'_>> = match plan.b {
                BOperand::Prepared(_) => None, // slivers are read directly below
                BOperand::Raw(rb) => {
                    let store = store.expect("a raw B operand has a panel store");
                    let pc_idx = (pc - ctx.k_lo) / ctx.kc;
                    let t_pack = telemetry::span_start();
                    let (panel, packed_here) = store.acquire(jc_idx, pc_idx, |hi, lo| {
                        hi.resize(b_len, 0.0);
                        lo.resize(b_len, 0.0);
                        pack_b_fused(
                            rb.as_slice(),
                            ctx.n,
                            jc,
                            ncb,
                            pc,
                            kcb,
                            split_scheme,
                            ctx.kernel,
                            hi,
                            lo,
                        )
                    });
                    if packed_here {
                        counters.panels_packed.inc();
                        telemetry::span_end(
                            telemetry::Phase::FusedSplitPack,
                            t_pack,
                            (4 * 2 * b_len) as u64,
                        );
                    } else {
                        counters.panel_reuse_hits.inc();
                        telemetry::span_end(telemetry::Phase::PanelWait, t_pack, pc_idx as u64);
                    }
                    Some(panel)
                }
            };
            let b_nan = match (plan.b, &b_panel) {
                (BOperand::Prepared(p), _) => p.packed.has_nan(),
                (BOperand::Raw(_), panel) => panel.as_ref().is_some_and(|p| p.has_nan),
            };
            // Fused (FMA) kernels only for NaN-free operands: with a NaN
            // multiplicand FMA would return its payload where the
            // mul+add contract keeps a NaN accumulator's.
            let nan_free = !a_nan && !b_nan;
            let t_tile = telemetry::span_start();
            let mut sb = 0;
            while sb < strips {
                // On AVX-512 machines with the JIT active, adjacent B
                // strips fuse into one 32-lane dual-strip kernel — the
                // packed strips are contiguous in memory, so the fused
                // sliver is just twice as long. `take` only widens the
                // view; if the kernel ends up interpreted after all,
                // the fallback walks the strips one by one.
                let isa = match jit_active.map(jit::KernelCache::isa) {
                    Some(Some(jit::Isa::Avx512)) if sb + 1 < strips => jit::Isa::Avx512,
                    _ => jit::Isa::Avx,
                };
                let take = isa.strips();
                let fma = nan_free && jit_active.is_some_and(|c| c.fma(isa));
                // Prepacked slivers are bit-identical to what the
                // per-tile pack would have produced: jc is NR-aligned
                // (nc is clamped to an NR multiple) and the k grid
                // matches (k_lo = 0, same kc), so global strip jc/NR+sb
                // of panel pc/kc covers exactly the same column range
                // with the same zero padding.
                let b_pair = match (plan.b, &b_panel) {
                    (BOperand::Prepared(p), _) => PlanePair {
                        hi: p
                            .packed
                            .sliver_span(false, pc / ctx.kc, kcb, jc / NR + sb, take),
                        lo: p
                            .packed
                            .sliver_span(true, pc / ctx.kc, kcb, jc / NR + sb, take),
                    },
                    (BOperand::Raw(_), panel) => {
                        let panel = panel.as_ref().expect("store-packed panel present");
                        PlanePair {
                            hi: sliver_span(panel.hi, sb, kcb * NR, take),
                            lo: sliver_span(panel.lo, sb, kcb * NR, take),
                        }
                    }
                };
                let j0 = jc + sb * NR;
                let cols = (take * NR).min(ncb - sb * NR);
                let mut rb = 0;
                while rb < row_blocks {
                    // The same ISA covers two adjacent row blocks per
                    // call where it can (AVX-512: 8 rows x 2 zmm = 16
                    // accumulators); their A slivers are contiguous.
                    let blocks = isa.row_blocks().min(row_blocks - rb);
                    let a_pair = PlanePair {
                        hi: sliver_span(&a_hi, rb, kcb * MR, blocks),
                        lo: sliver_span(&a_lo, rb, kcb * MR, blocks),
                    };
                    let i0 = ic + rb * MR;
                    let rows = (blocks * MR).min(mcb - rb * MR);
                    let kernel = jit_active.and_then(|cache| {
                        let key = jit::KernelKey::new(isa, terms, plan.tk, kcb, (rows, cols), fma)?;
                        jit_memo.get(cache, key)
                    });
                    let out = shared.0.wrapping_add(i0 * ctx.n + j0);
                    match kernel {
                        // SAFETY: the kernel was compiled (and verified
                        // against the interpreted path) for exactly
                        // this (terms, tk, kcb, rows, cols), fused only
                        // when both operands are NaN-free; the pairs
                        // hold `blocks` A and `take` B packed slivers;
                        // tile regions (i0, j0, rows, cols) are
                        // disjoint across workers and in-bounds of the
                        // m_out x n output.
                        Some(f) => unsafe { jit::call(f, a_pair, b_pair, out, ctx.n) },
                        // SAFETY: as above — a disjoint, in-bounds tile
                        // region of the shared output.
                        None => unsafe {
                            micro::tile(
                                a_pair,
                                b_pair,
                                kcb,
                                plan.tk,
                                terms,
                                out,
                                ctx.n,
                                (rows, cols),
                            )
                        },
                    }
                    rb += blocks;
                }
                sb += take;
            }
            telemetry::span_end(telemetry::Phase::Tile, t_tile, t as u64);
            pc += kcb;
        }
    }
    telemetry::span_end(telemetry::Phase::Worker, t_worker, tiles_claimed);
}

/// `take` consecutive packed slivers starting at `idx` as one slice
/// (slivers are contiguous at stride `len`).
#[inline]
fn sliver_span(buf: &[f32], idx: usize, len: usize, take: usize) -> &[f32] {
    &buf[idx * len..(idx + take) * len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::emulated_gemm_entrywise;
    use crate::split_matrix::SplitMatrix;

    const SCHEMES: [EmulationScheme; 4] = [
        EmulationScheme::EgemmTc,
        EmulationScheme::Markidis,
        EmulationScheme::MarkidisFourTerm,
        EmulationScheme::TcHalf,
    ];

    fn raw_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
        (
            Matrix::<f32>::random_uniform(m, k, seed),
            Matrix::<f32>::random_uniform(k, n, seed + 1),
        )
    }

    /// Tiny tiles force interior and edge paths on small shapes.
    fn tight() -> EngineConfig {
        EngineConfig {
            mc: 5,
            nc: 9,
            kc: 7,
            threads: 2,
            ..Default::default()
        }
    }

    /// `engine::gemm` on the global runtime.
    fn run(plan: Plan<'_>) -> Matrix<f32> {
        gemm(EngineRuntime::global(), &plan)
    }

    /// Assert every element of `d` (the `[k_lo, k_hi)` product, seeded
    /// by `c`) bit-equals the scalar replay of the accumulation
    /// contract over the split operands, and — at the oracle's fixed
    /// tk = 8 over the whole reduction — [`emulated_gemm_entrywise`].
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_oracle(
        d: &Matrix<f32>,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
        tk: usize,
        (k_lo, k_hi): (usize, usize),
        what: &str,
    ) {
        let sa = SplitMatrix::split(a, scheme.split_scheme());
        let sb = SplitMatrix::split(b, scheme.split_scheme());
        let (k, n) = (a.cols(), b.cols());
        for i in 0..a.rows() {
            for j in 0..n {
                let mut want = c.map_or(0.0, |c0| c0.get(i, j));
                let mut kt = k_lo;
                while kt < k_hi {
                    let chunk = tk.min(k_hi - kt);
                    for &(al, bl) in scheme.terms() {
                        let (ap, bp) = (sa.plane(al), sb.plane(bl));
                        for kk in kt..kt + chunk {
                            want = crate::mul_add_step(want, ap[i * k + kk], bp[kk * n + j]);
                        }
                    }
                    kt += chunk;
                }
                let got = d.get(i, j).to_bits();
                assert_eq!(got, want.to_bits(), "{what}: {scheme:?} tk={tk} ({i},{j})");
                if tk == 8 && (k_lo, k_hi) == (0, k) {
                    let e = emulated_gemm_entrywise(&sa, &sb, c, scheme, i, j);
                    assert_eq!(got, e.to_bits(), "{what}: {scheme:?} oracle ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn bit_identical_to_oracle_all_schemes() {
        for scheme in SCHEMES {
            let (a, b) = raw_pair(11, 29, 13, 7);
            let c = Matrix::<f32>::random_uniform(11, 13, 77);
            for tk in [4usize, 8, 16] {
                let d = run(Plan {
                    c: Some(&c),
                    tk,
                    cfg: tight(),
                    ..Plan::new(&a, &b, scheme)
                });
                assert_matches_oracle(&d, &a, &b, Some(&c), scheme, tk, (0, 29), "raw B");
            }
        }
    }

    #[test]
    fn default_config_matches_oracle() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b) = raw_pair(10, 40, 12, 3);
        let d = run(Plan::new(&a, &b, scheme));
        assert_matches_oracle(&d, &a, &b, None, scheme, 8, (0, 40), "default");
    }

    #[test]
    fn degenerate_shapes() {
        let scheme = EmulationScheme::EgemmTc;
        // 1 x k x 1.
        let (a, b) = raw_pair(1, 17, 1, 9);
        let d = run(Plan {
            cfg: tight(),
            ..Plan::new(&a, &b, scheme)
        });
        assert_matches_oracle(&d, &a, &b, None, scheme, 8, (0, 17), "1xkx1");
        // k = 0: output is C unchanged.
        let (a0, b0) = raw_pair(3, 0, 4, 11);
        let c = Matrix::<f32>::random_uniform(3, 4, 13);
        let d0 = run(Plan {
            c: Some(&c),
            cfg: tight(),
            ..Plan::new(&a0, &b0, scheme)
        });
        assert_eq!(d0.as_slice(), c.as_slice());
    }

    #[test]
    fn rows_gather_matches_full() {
        let scheme = EmulationScheme::Markidis;
        let (a, b) = raw_pair(23, 31, 10, 15);
        let full = run(Plan {
            cfg: tight(),
            ..Plan::new(&a, &b, scheme)
        });
        let rows = [0usize, 2, 3, 9, 17, 22];
        let sampled = run(Plan {
            rows: Some(&rows),
            cfg: tight(),
            ..Plan::new(&a, &b, scheme)
        });
        for (ri, &r) in rows.iter().enumerate() {
            for j in 0..10 {
                assert_eq!(sampled.get(ri, j).to_bits(), full.get(r, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_out_of_range_rejected() {
        let (a, b) = raw_pair(4, 8, 4, 17);
        run(Plan {
            rows: Some(&[0, 4]),
            ..Plan::new(&a, &b, EmulationScheme::EgemmTc)
        });
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rows_descending_rejected() {
        let (a, b) = raw_pair(4, 8, 4, 17);
        run(Plan {
            rows: Some(&[2, 1]),
            ..Plan::new(&a, &b, EmulationScheme::EgemmTc)
        });
    }

    #[test]
    fn range_restarts_chunking_at_slice_start() {
        // A [k_lo, k_hi) slice must chunk from k_lo, like a fused kernel
        // run over the slice alone.
        let scheme = EmulationScheme::EgemmTc;
        let (a, b) = raw_pair(6, 37, 5, 19);
        let range = (13usize, 30usize);
        let d = run(Plan {
            k_range: Some(range),
            cfg: tight(),
            ..Plan::new(&a, &b, scheme)
        });
        assert_matches_oracle(&d, &a, &b, None, scheme, 8, range, "k range");
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b) = raw_pair(33, 48, 21, 23);
        let with_threads = |threads| {
            run(Plan {
                cfg: EngineConfig { threads, ..tight() },
                ..Plan::new(&a, &b, scheme)
            })
        };
        let (one, four) = (with_threads(1), with_threads(4));
        for (x, y) in one.as_slice().iter().zip(four.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn prepared_b_path_bit_identical() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        for scheme in SCHEMES {
            let (a, b) = raw_pair(11, 29, 13, 41);
            let c = Matrix::<f32>::random_uniform(11, 13, 45);
            for tk in [4usize, 8] {
                let pb = prepare_b_fused(&rt, &b, scheme.split_scheme(), tk, tight());
                let plan = Plan {
                    c: Some(&c),
                    tk,
                    cfg: tight(),
                    ..Plan::new(&a, &pb, scheme)
                };
                let d = gemm(&rt, &plan);
                assert_matches_oracle(&d, &a, &b, Some(&c), scheme, tk, (0, 29), "prepared B");
            }
        }
    }

    #[test]
    fn fused_entry_bit_identical_to_staged() {
        // The raw-operand entry splits inside the pack; per element it
        // must equal the scalar replay over ahead-of-time splits.
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 61);
            let b = Matrix::<f32>::random_uniform(29, 13, 63);
            let c = Matrix::<f32>::random_uniform(11, 13, 65);
            for tk in [4usize, 8] {
                let d = run(Plan {
                    c: Some(&c),
                    tk,
                    cfg: tight(),
                    ..Plan::new(&a, &b, scheme)
                });
                assert_matches_oracle(&d, &a, &b, Some(&c), scheme, tk, (0, 29), "raw entry");
            }
        }
    }

    #[test]
    fn fused_range_restarts_chunking_like_staged() {
        // Split-K chunk boundaries land where the scalar replay over
        // ahead-of-time splits puts them: full, interior, empty and tail
        // slices, on a cache-off runtime.
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(6, 37, 67);
        let b = Matrix::<f32>::random_uniform(37, 5, 69);
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            cache_bytes: 0,
            ..Default::default()
        });
        for range in [(0usize, 37usize), (13, 30), (8, 8), (5, 37)] {
            let d = gemm(
                &rt,
                &Plan {
                    k_range: Some(range),
                    cfg: tight(),
                    ..Plan::new(&a, &b, scheme)
                },
            );
            assert_matches_oracle(&d, &a, &b, None, scheme, 8, range, "k range");
        }
    }

    #[test]
    fn fused_prepared_path_bit_identical() {
        // The benchmark's argument-list entry point over a prepared B.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        for scheme in SCHEMES {
            let (a, b) = raw_pair(11, 29, 13, 71);
            let c = Matrix::<f32>::random_uniform(11, 13, 75);
            let pb = prepare_b_fused(&rt, &b, scheme.split_scheme(), 8, tight());
            let d = gemm_blocked_prepared_fused(&rt, &a, &pb, Some(&c), scheme, 8, tight());
            assert_matches_oracle(&d, &a, &b, Some(&c), scheme, 8, (0, 29), "benchmark entry");
        }
    }

    #[test]
    #[should_panic(expected = "prepacked panel depth disagrees")]
    fn prepared_b_blocking_mismatch_rejected() {
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let scheme = EmulationScheme::EgemmTc;
        let (a, b) = raw_pair(8, 32, 8, 51);
        let pb = prepare_b_fused(&rt, &b, scheme.split_scheme(), 8, tight());
        // Same shapes, different kc (16 vs tight()'s clamped 8).
        let other = EngineConfig { kc: 16, ..tight() };
        gemm_blocked_prepared_fused(&rt, &a, &pb, None, scheme, 8, other);
    }

    #[test]
    #[should_panic(expected = "prepacked B requires a full k range")]
    fn prepared_b_partial_k_range_rejected() {
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let scheme = EmulationScheme::EgemmTc;
        let (a, b) = raw_pair(8, 32, 8, 55);
        let pb = prepare_b_fused(&rt, &b, scheme.split_scheme(), 8, tight());
        gemm(
            &rt,
            &Plan {
                k_range: Some((8, 32)),
                cfg: tight(),
                ..Plan::new(&a, &pb, scheme)
            },
        );
    }

    #[test]
    fn fused_entry_tallies_staging_saved() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
            ..Default::default()
        });
        let (a, b) = raw_pair(8, 16, 8, 81);
        gemm(
            &rt,
            &Plan {
                cfg: tight(),
                ..Plan::new(&a, &b, EmulationScheme::EgemmTc)
            },
        );
        assert_eq!(
            rt.cache_stats().bytes_staging_saved,
            (12 * (8 * 16 + 16 * 8)) as u64
        );
    }

    #[test]
    fn explicit_threads_override_env() {
        assert_eq!(
            EngineConfig {
                threads: 3,
                ..Default::default()
            }
            .resolved_threads(),
            3
        );
        assert!(EngineConfig::default().resolved_threads() >= 1);
    }
}
