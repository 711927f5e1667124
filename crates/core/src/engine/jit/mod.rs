//! Runtime x86-64 JIT for shape-specialized microkernels.
//!
//! The interpreted microkernel ([`super::micro`]) is one generic
//! `MR x NR` kernel with runtime branches over the scheme's term list,
//! the chunk grid, and the tile's edge extents. This module compiles a
//! dedicated kernel per *shape class* — `(ISA, term planes, tk, panel
//! depth, valid rows, valid cols, fma)` — through a small pipeline:
//!
//! ```text
//! KernelSpec  --ir::lower-->  virtual-register ops
//!             --regalloc-->   ymm/zmm assignment
//!             --x86::emit-->  machine code (+ literal pool)
//!             --exec-->       W^X mmap'd buffer
//! ```
//!
//! The k loop is fully unrolled over the scheme's terms within each
//! `tk` chunk (no per-iteration branching), ragged edge tiles get
//! masked load/store forms instead of the scalar tail, and on
//! AVX-512F machines adjacent packed B strips and adjacent A row blocks
//! are fused into 8 x 32 kernels with sixteen zmm accumulators.
//! Compiled kernels live in a per-runtime [`KernelCache`] next to the
//! packed-operand cache, compiled exactly once per key.
//!
//! **FMA for NaN-free tiles.** Where the CPU has FMA (AVX-512F implies
//! the EVEX form), every term product is one `vfmadd231ps` instead of a
//! `vmulps` + `vaddps` pair. Every product of two widened binary16
//! values is exact in binary32, so the fused form rounds once, exactly
//! where the pair rounds its add: same bits. The single exception is a
//! NaN accumulator meeting a NaN multiplicand, where FMA returns the
//! multiplicand's payload and the add the accumulator's. Each pack
//! therefore records whether it produced a NaN, and a tile whose A block
//! or B panel holds one keys the mul+add kernel (`fma = false`).
//!
//! **The interpreted kernel stays the bit-identity oracle.** Every
//! freshly compiled kernel is replayed against it on a synthetic tile
//! before publication; a mismatch (an encoder bug, a CPU we
//! mis-detected) poisons that key and the engine silently keeps using
//! the interpreted path — degraded throughput, never corrupted bits.
//! `EGEMM_JIT=0` (or `EngineConfig::jit = false`) disables the whole
//! layer, in which case no executable page is ever mapped
//! ([`exec_mappings`] stays zero — enforced by `tests/jit_gate.rs`).

mod exec;
mod ir;
mod regalloc;
mod x86;

pub use exec::exec_mappings;
pub(crate) use ir::Isa;

use super::cache::lock_unpoisoned;
use super::counters::Counters;
use super::micro::{self, PlanePair};
use super::pack::{MR, NR};
use crate::envcfg::{self, EnvNum};
use crate::telemetry::hist::LogHistogram;
use crate::telemetry::{self, metrics};
use exec::ExecBuf;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Once, OnceLock};

/// The argument block a compiled kernel receives (pointer in `rdi`).
/// Only the output row stride is runtime-variable — everything else a
/// kernel needs is baked into its code. Plane pointers for planes the
/// scheme never reads may dangle; the kernel never dereferences them.
#[repr(C)]
pub(crate) struct KernelArgs {
    pub a_hi: *const f32,
    pub a_lo: *const f32,
    pub b_hi: *const f32,
    pub b_lo: *const f32,
    pub out: *mut f32,
    /// Output row stride in elements.
    pub n: usize,
}

/// Entry point of a compiled kernel.
pub(crate) type KernelFn = unsafe extern "sysv64" fn(*const KernelArgs);

/// Everything a kernel is specialized on, packed for cheap hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelKey {
    isa: Isa,
    /// Term planes, 2 bits each: bit `2i` = a_lo, bit `2i+1` = b_lo.
    terms: u8,
    nterms: u8,
    tk: u16,
    kcb: u16,
    rows: u8,
    cols: u8,
    /// One `vfmadd231ps` per product instead of `vmulps` + `vaddps`.
    fma: bool,
}

impl KernelKey {
    /// Build a key, or `None` when this shape is outside what the
    /// emitter specializes (huge `tk` would bloat the unrolled body;
    /// `kcb` beyond `u16` would overflow baked displacements) — the
    /// caller then uses the interpreted kernel. `rows` may span two row
    /// blocks on AVX-512 only; `fma` must only be set when the tile's
    /// packed operands hold no NaN and [`KernelCache::fma`] allows it.
    pub(crate) fn new(
        isa: Isa,
        terms: &[(bool, bool)],
        tk: usize,
        kcb: usize,
        (rows, cols): (usize, usize),
        fma: bool,
    ) -> Option<KernelKey> {
        if terms.is_empty() || terms.len() > 4 {
            return None;
        }
        if tk == 0 || tk > 64 || kcb == 0 || kcb > u16::MAX as usize {
            return None;
        }
        if rows == 0 || rows > isa.row_blocks() * MR || cols == 0 || cols > isa.strips() * NR {
            return None;
        }
        let mut code = 0u8;
        for (i, &(a_lo, b_lo)) in terms.iter().enumerate() {
            code |= (a_lo as u8) << (2 * i);
            code |= (b_lo as u8) << (2 * i + 1);
        }
        Some(KernelKey {
            isa,
            terms: code,
            nterms: terms.len() as u8,
            tk: tk as u16,
            kcb: kcb as u16,
            rows: rows as u8,
            cols: cols as u8,
            fma,
        })
    }

    fn spec(&self) -> ir::KernelSpec {
        let terms = (0..self.nterms as usize)
            .map(|i| {
                (
                    (self.terms >> (2 * i)) & 1 == 1,
                    (self.terms >> (2 * i + 1)) & 1 == 1,
                )
            })
            .collect();
        ir::KernelSpec {
            isa: self.isa,
            terms,
            tk: self.tk as usize,
            kcb: self.kcb as usize,
            rows: self.rows as usize,
            cols: self.cols as usize,
            fma: self.fma,
        }
    }
}

/// Best kernel ISA this machine supports, `None` where the emitter has
/// no backend. AVX-512F implies the AVX forms single-strip kernels
/// use, so `Avx512` means *both* shapes are available.
pub(crate) fn supported_isa() -> Option<Isa> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Isa::Avx512);
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return Some(Isa::Avx);
        }
        None
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        None
    }
}

/// `EGEMM_JIT` knob: unset or nonzero enables, `0` disables, garbage
/// warns once and keeps the default (on).
pub(crate) fn env_enabled() -> bool {
    static RESOLVED: OnceLock<bool> = OnceLock::new();
    static WARN: Once = Once::new();
    *RESOLVED.get_or_init(|| match envcfg::read_usize("EGEMM_JIT") {
        EnvNum::Unset => true,
        EnvNum::Parsed(v, _) => v != 0,
        EnvNum::Garbage(raw) => {
            envcfg::warn_once(&WARN, || {
                format!("egemm: ignoring unparsable EGEMM_JIT={raw:?}; JIT stays enabled")
            });
            true
        }
    })
}

/// Whether this machine can run `fma` kernels of `isa`: the EVEX
/// `vfmadd231ps` is part of AVX-512F, the VEX form needs the FMA CPUID
/// bit.
fn fma_supported(isa: Isa) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            Isa::Avx => std::arch::is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        false
    }
}

/// Whether engine calls on this process may run JIT-compiled kernels:
/// the `EGEMM_JIT` knob is on and the machine has a supported backend.
/// (`EngineConfig::jit` can still opt individual calls out.)
pub fn available() -> bool {
    env_enabled() && supported_isa().is_some()
}

/// One published kernel: the executable mapping plus its entry.
struct CompiledKernel {
    /// Keeps the mapping alive for as long as the cache entry exists;
    /// entries are never evicted, so `entry` stays valid for the
    /// lifetime of the owning [`KernelCache`].
    _buf: ExecBuf,
    entry: KernelFn,
}

/// Fingerprint-keyed table of compiled kernels, one per
/// [`super::EngineRuntime`] beside the packed-operand cache, counting
/// into the runtime's JIT instruments. A
/// `None` slot records a key whose compile or verification failed —
/// those fall back to the interpreted kernel forever instead of
/// recompiling every call.
pub(crate) struct KernelCache {
    isa: Option<Isa>,
    kernels: Mutex<HashMap<KernelKey, Option<CompiledKernel>>>,
    counters: Arc<Counters>,
}

impl KernelCache {
    /// A cache for this process's capabilities, counting into the
    /// runtime's `counters`.
    pub(crate) fn new(counters: Arc<Counters>) -> KernelCache {
        if metrics::enabled() {
            jit_compile_hist();
        }
        KernelCache {
            isa: if env_enabled() { supported_isa() } else { None },
            kernels: Mutex::new(HashMap::new()),
            counters,
        }
    }

    /// The ISA kernels are emitted for, `None` when the JIT is off for
    /// this process (env knob or unsupported machine).
    pub(crate) fn isa(&self) -> Option<Isa> {
        self.isa
    }

    /// Whether `fma` kernels of `isa` run on this machine. A tile may
    /// key one only if, in addition, its packed operands hold no NaN.
    pub(crate) fn fma(&self, isa: Isa) -> bool {
        self.isa.is_some() && fma_supported(isa)
    }

    /// Look up (or compile, verify, and publish) the kernel for `key`.
    /// `None` means this key is served by the interpreted kernel.
    /// Compilation happens under the table lock, so each key compiles
    /// exactly once per runtime no matter how many workers race here.
    pub(crate) fn get(&self, key: KernelKey) -> Option<KernelFn> {
        self.isa?;
        let mut map = lock_unpoisoned(&self.kernels);
        if let Some(slot) = map.get(&key) {
            self.counters.jit_hits.inc();
            return slot.as_ref().map(|k| k.entry);
        }
        let span = telemetry::span_start();
        let t0 = std::time::Instant::now();
        let compiled = compile(&key);
        let ns = t0.elapsed().as_nanos() as u64;
        let bytes = compiled.as_ref().map_or(0, |k| k._buf.len() as u64);
        self.counters.jit_compiles.inc();
        self.counters.jit_compile_ns.add(ns);
        self.counters.jit_code_bytes.add(bytes as i64);
        telemetry::span_end(telemetry::Phase::JitCompile, span, bytes);
        if metrics::enabled() {
            jit_compile_hist().observe(ns);
        }
        let entry = compiled.as_ref().map(|k| k.entry);
        map.insert(key, compiled);
        entry
    }
}

/// Process-wide compile-time distribution (gated, like every
/// histogram), registered with the first kernel cache so the exposition
/// carries the family even on hosts where nothing ever compiles.
fn jit_compile_hist() -> &'static LogHistogram {
    static H: OnceLock<Arc<LogHistogram>> = OnceLock::new();
    H.get_or_init(|| metrics::histogram("egemm_jit_compile_ns"))
}

/// Per-worker memo over [`KernelCache::get`]: a tiny linear-scan table
/// (a handful of keys per call) that keeps the hot tile loop off the
/// shared mutex.
#[derive(Default)]
pub(crate) struct KernelMemo {
    entries: Vec<(KernelKey, Option<KernelFn>)>,
}

impl KernelMemo {
    pub(crate) fn get(&mut self, cache: &KernelCache, key: KernelKey) -> Option<KernelFn> {
        if let Some((_, f)) = self.entries.iter().find(|(k, _)| *k == key) {
            return *f;
        }
        let f = cache.get(key);
        self.entries.push((key, f));
        f
    }
}

/// Invoke a compiled kernel on one tile.
///
/// # Safety
/// `f` must have been compiled for exactly this call's shape class
/// (same terms/tk/kcb/rows/cols as the [`KernelKey`] it was cached
/// under; an `fma` key only for NaN-free operands), the plane slices
/// must hold the packed slivers that key's kernel expects
/// (`rows.div_ceil(MR) x kcb x MR` per used A plane,
/// `strips x kcb x NR` per used B plane), and `out`/`n` must describe a
/// region where `rows x cols` elements at the row stride `n` are valid
/// for read/write with no concurrent access by other threads.
#[inline]
pub(crate) unsafe fn call(
    f: KernelFn,
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    out: *mut f32,
    n: usize,
) {
    let args = KernelArgs {
        a_hi: a.hi.as_ptr(),
        a_lo: a.lo.as_ptr(),
        b_hi: b.hi.as_ptr(),
        b_lo: b.lo.as_ptr(),
        out,
        n,
    };
    f(&args)
}

/// Compile and verify one kernel. `None` on any failure: allocation,
/// publication, or — the load-bearing gate — disagreement with the
/// interpreted kernel on a synthetic tile.
fn compile(key: &KernelKey) -> Option<CompiledKernel> {
    let spec = key.spec();
    let prog = ir::lower(&spec);
    let alloc = regalloc::allocate(&prog)?;
    let code = x86::emit(&prog, &alloc);
    let buf = ExecBuf::publish(&code)?;
    // SAFETY: the buffer holds a complete function emitted for the
    // sysv64 kernel ABI (see x86.rs); transmuting its entry to
    // KernelFn is the contract of that emitter.
    let entry: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
    if !verify(&spec, entry) {
        return None;
    }
    Some(CompiledKernel { _buf: buf, entry })
}

/// Deterministic value stream for verification tiles: uniform values
/// in `[-0.5, 0.5)` with 24 significant bits, or (`half`) the same
/// values rounded to binary16, the only operands the engine packs.
fn fill(state: &mut u64, len: usize, half: bool) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((*state >> 40) as f32) / (1u64 << 24) as f32 - 0.5;
            if half {
                egemm_fp::Half::from_f32(x).to_f32()
            } else {
                x
            }
        })
        .collect()
}

/// Replay a freshly compiled kernel against the interpreted microkernel
/// on a synthetic tile (non-trivial row stride, every term plane
/// populated, padded lanes seeded with sentinels) and demand `to_bits`
/// equality over the whole output buffer — including the lanes the
/// kernel must *not* touch. A mul+add kernel is fed 24-bit operands, so
/// an accidentally fused product fails the replay; an `fma` kernel gets
/// binary16 operands, whose products are exact.
fn verify(spec: &ir::KernelSpec, entry: KernelFn) -> bool {
    let kcb = spec.kcb;
    let strips = spec.isa.strips();
    let blocks = spec.row_blocks();
    let a_hi_used = spec.terms.iter().any(|t| !t.0);
    let a_lo_used = spec.terms.iter().any(|t| t.0);
    let b_hi_used = spec.terms.iter().any(|t| !t.1);
    let b_lo_used = spec.terms.iter().any(|t| t.1);

    let mut seed = 0x9E3779B97F4A7C15u64 ^ ((kcb as u64) << 32 | spec.cols as u64);
    let a_hi = fill(&mut seed, blocks * kcb * MR, spec.fma);
    let a_lo = fill(&mut seed, blocks * kcb * MR, spec.fma);
    let b_hi = fill(&mut seed, strips * kcb * NR, spec.fma);
    let b_lo = fill(&mut seed, strips * kcb * NR, spec.fma);
    let n = spec.cols + 3; // stride != cols exercises the row addressing
    let mut out_jit = fill(&mut seed, blocks * MR * n, false);
    let mut out_ref = out_jit.clone();

    // Mirror the worker exactly: planes a scheme never reads are empty
    // slices (dangling pointers a correct kernel never dereferences).
    fn plane(used: bool, v: &[f32]) -> &[f32] {
        if used {
            v
        } else {
            &[]
        }
    }
    let a_pair = PlanePair {
        hi: plane(a_hi_used, &a_hi),
        lo: plane(a_lo_used, &a_lo),
    };
    let b_pair = PlanePair {
        hi: plane(b_hi_used, &b_hi),
        lo: plane(b_lo_used, &b_lo),
    };
    // SAFETY: out_ref is (blocks * MR) x n with rows <= blocks * MR and
    // cols < n; the interpreted path is the fallback the worker would
    // run for this tile.
    unsafe {
        micro::tile(
            a_pair,
            b_pair,
            kcb,
            spec.tk,
            &spec.terms,
            out_ref.as_mut_ptr(),
            n,
            (spec.rows, spec.cols),
        )
    };
    // SAFETY: the kernel was emitted for exactly this spec; buffers
    // hold `blocks` A slivers, `strips` B slivers and the output region.
    unsafe { call(entry, a_pair, b_pair, out_jit.as_mut_ptr(), n) };

    out_jit
        .iter()
        .zip(&out_ref)
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::EmulationScheme;
    use crate::engine::{gemm, EngineConfig, EngineRuntime, Plan, RuntimeConfig};
    use egemm_fp::Half;
    use egemm_matrix::Matrix;

    const TERM_SETS: [&[(bool, bool)]; 4] = [
        &[(false, false)],
        &[(false, false), (true, false), (false, true)],
        &[(false, false), (true, false), (false, true), (true, true)],
        &[(true, true), (false, false)],
    ];

    fn isas() -> Vec<Isa> {
        match supported_isa() {
            Some(Isa::Avx512) => vec![Isa::Avx, Isa::Avx512],
            Some(Isa::Avx) => vec![Isa::Avx],
            None => vec![],
        }
    }

    /// `fma` settings worth compiling for `isa` on this host: always the
    /// mul+add family, plus the fused one where the CPU runs it.
    fn fma_modes(isa: Isa) -> Vec<bool> {
        if fma_supported(isa) {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    /// The whole pipeline, adversarially: every term set, ragged and
    /// full edges, one and two row blocks, short and ragged panels, and
    /// both product forms — each compiled kernel must survive the
    /// verify gate (which is itself a bit-exact replay against the
    /// interpreted kernel). Forcing `fma = false` on an FMA host keeps
    /// the mul+add family (what an AVX-without-FMA host runs) tested.
    #[test]
    fn compiled_kernels_verify_against_interpreter() {
        let mut checked = 0;
        for isa in isas() {
            let cols_cases: Vec<usize> = match isa {
                Isa::Avx => vec![16, 8, 11, 5, 1],
                Isa::Avx512 => vec![32, 23, 17, 31],
            };
            for fma in fma_modes(isa) {
                for terms in TERM_SETS {
                    for &(tk, kcb) in &[(8usize, 24usize), (8, 5), (8, 8), (4, 19), (16, 40)] {
                        for rows in 1..=isa.row_blocks() * MR {
                            for &cols in &cols_cases {
                                let key = KernelKey::new(isa, terms, tk, kcb, (rows, cols), fma)
                                    .expect("in-range key");
                                assert!(
                                    compile(&key).is_some(),
                                    "compile+verify failed: {isa:?} terms={terms:?} \
                                     tk={tk} kcb={kcb} rows={rows} cols={cols} fma={fma}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        // On a machine with no backend there is nothing to check.
        if supported_isa().is_some() {
            assert!(checked > 0);
        }
    }

    /// An `fma` key really compiles to fused code: fed 24-bit operands,
    /// whose products are inexact, it must disagree with the mul+add
    /// interpreter that it matches bit for bit on binary16 operands.
    #[test]
    fn fma_kernels_fuse_the_product() {
        for isa in isas().into_iter().filter(|&i| fma_supported(i)) {
            let cols = isa.strips() * NR;
            let key = KernelKey::new(isa, TERM_SETS[2], 8, 24, (MR, cols), true).unwrap();
            let k = compile(&key).expect("fma kernel verifies on binary16 operands");
            let unfused = ir::KernelSpec {
                fma: false,
                ..key.spec()
            };
            assert!(
                !verify(&unfused, k.entry),
                "{isa:?} fma kernel matched mul+add on inexact products"
            );
        }
    }

    #[test]
    fn key_roundtrips_terms_and_rejects_out_of_range() {
        let terms = [(false, true), (true, false), (true, true)];
        let key = KernelKey::new(Isa::Avx, &terms, 8, 100, (3, 12), true).unwrap();
        assert_eq!(key.spec().terms, terms.to_vec());
        assert_eq!(key.spec().kcb, 100);
        assert!(key.spec().fma);
        assert_ne!(
            Some(key),
            KernelKey::new(Isa::Avx, &terms, 8, 100, (3, 12), false),
            "fma is part of the key"
        );
        assert!(KernelKey::new(Isa::Avx, &terms, 0, 8, (4, 16), false).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 8, (4, 17), false).is_none());
        assert!(KernelKey::new(Isa::Avx512, &terms, 8, 8, (4, 33), false).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 1 << 17, (4, 16), false).is_none());
        assert!(KernelKey::new(Isa::Avx, &[], 8, 8, (4, 16), false).is_none());
        // Two row blocks exist only on AVX-512.
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 8, (5, 16), false).is_none());
        assert_eq!(
            KernelKey::new(Isa::Avx512, &terms, 8, 8, (8, 32), false)
                .unwrap()
                .spec()
                .row_blocks(),
            2
        );
        assert!(KernelKey::new(Isa::Avx512, &terms, 8, 8, (9, 32), false).is_none());
    }

    #[test]
    fn cache_compiles_once_and_counts_hits() {
        let cache = KernelCache::new(Arc::new(Counters::register()));
        if cache.isa().is_none() {
            return; // nothing to exercise on this host
        }
        let isa = Isa::Avx; // single-strip kernels exist on every backend
        let key = KernelKey::new(isa, TERM_SETS[1], 8, 16, (4, 16), false).unwrap();
        let f1 = cache.get(key).expect("first get compiles");
        let f2 = cache.get(key).expect("second get hits");
        assert_eq!(f1 as usize, f2 as usize, "hit must return the same code");
        let s = cache.counters.cache_stats();
        assert_eq!(s.jit_compiles, 1, "exactly one compile per key");
        assert_eq!(s.jit_hits, 1);
        assert!(s.jit_code_bytes > 0 && s.jit_compile_ns > 0);

        let mut memo = KernelMemo::default();
        assert!(memo.get(&cache, key).is_some()); // shared hit
        assert!(memo.get(&cache, key).is_some()); // memo hit
        let s = cache.counters.cache_stats();
        assert_eq!(s.jit_hits, 2, "memo must absorb repeat lookups");
    }

    /// The keys `rt`'s kernel cache has compiled so far.
    fn compiled_keys(rt: &EngineRuntime) -> Vec<KernelKey> {
        rt.jit_cache().map_or_else(Vec::new, |c| {
            lock_unpoisoned(&c.kernels).keys().copied().collect()
        })
    }

    /// One engine call under a small blocking (one 12-row tile of three
    /// row blocks, 16-deep panels) on a fresh single-worker runtime.
    fn run_small(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
        jit: bool,
    ) -> (Vec<u32>, Vec<KernelKey>) {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 1,
            ..Default::default()
        });
        let plan = Plan {
            c,
            cfg: EngineConfig {
                mc: 12,
                nc: 64,
                kc: 16,
                threads: 1,
                jit,
            },
            ..Plan::new(a, b, EmulationScheme::EgemmTc)
        };
        let d = gemm(&rt, &plan);
        let bits = d.as_slice().iter().map(|x| x.to_bits()).collect();
        (bits, compiled_keys(&rt))
    }

    #[test]
    fn finite_operands_compile_only_fma_keys() {
        let a = Matrix::<f32>::random_uniform(12, 40, 1);
        let b = Matrix::<f32>::random_uniform(40, 37, 2);
        let (got, keys) = run_small(&a, &b, None, true);
        assert_eq!(got, run_small(&a, &b, None, false).0);
        if !available() {
            assert!(keys.is_empty(), "JIT off, yet kernels compiled");
            return;
        }
        assert!(!keys.is_empty());
        for k in &keys {
            assert_eq!(k.fma, fma_supported(k.isa), "{k:?}");
        }
        // 12 rows = three row blocks: on AVX-512 a two-block kernel plus
        // a lone last block.
        if supported_isa() == Some(Isa::Avx512) {
            assert!(keys.iter().any(|k| k.rows == 8) && keys.iter().any(|k| k.rows == 4));
        }
    }

    /// A NaN in A's first k panel sends that panel's tiles to the mul+add
    /// kernel, while the NaN-free panels keep FMA. C holds a NaN in the
    /// NaN row, so an FMA there would return A's payload instead of C's.
    #[test]
    fn nan_panel_runs_the_mul_add_kernel() {
        let mut a = Matrix::<f32>::random_uniform(12, 40, 3);
        let b = Matrix::<f32>::random_uniform(40, 37, 4);
        let mut c = Matrix::<f32>::zeros(12, 37);
        a.set(1, 5, f32::from_bits(0x7fc0_2000)); // panel [0, 16)
        c.set(1, 3, f32::from_bits(0xffc0_0abc));
        let (got, keys) = run_small(&a, &b, Some(&c), true);
        assert_eq!(got, run_small(&a, &b, Some(&c), false).0);
        assert_eq!(got[37 + 3], 0xffc0_0abc, "C's NaN payload survives");
        if available() && keys.iter().any(|k| fma_supported(k.isa)) {
            assert!(
                keys.iter().any(|k| !k.fma),
                "NaN panel keyed no mul+add kernel"
            );
            assert!(keys.iter().any(|k| k.fma), "NaN-free panels lost FMA");
        }
    }

    /// The accumulators the contraction sweeps start from: signed zeros
    /// and ones, a subnormal, near-overflow magnitudes, infinities, two
    /// quiet NaN payloads and a signalling NaN. No NaN here has a
    /// payload a widened binary16 NaN can carry (their low 13 bits are
    /// never all zero), so every NaN-accumulator x NaN-multiplicand pair
    /// shows which operand's NaN came back.
    const ACCUMULATORS: [u32; 12] = [
        0x0000_0000,
        0x8000_0000,
        0x3f80_0000,
        0xbf80_0000,
        0x0000_1234,
        0x7f61_b1e6, // 3e38
        0xff61_b1e6, // -3e38
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0001,
        0xffc1_2345,
        0x7f80_0001,
    ];

    /// Counts from one contraction sweep.
    #[derive(Default)]
    struct Sweep {
        /// Lanes where the fused kernel and the interpreter disagree.
        divergent: u64,
        /// Pairs with a NaN multiplicand, times NaN accumulators.
        nan_pairs: u64,
        /// First disagreement that is *not* NaN-acc x NaN-multiplicand.
        bad: Option<(u32, u32, u32, u32, u32)>,
    }

    /// Run the single-term `tk = 1`, `kcb = 1` fused kernel of `isa`
    /// over every pair of `avals x bvals` (lengths multiples of the
    /// kernel's rows and columns) from every accumulator, against the
    /// interpreted mul+add kernel, on up to four threads.
    fn contraction_sweep(isa: Isa, avals: &[f32], bvals: &[f32]) -> Sweep {
        let (rows, cols) = (isa.row_blocks() * MR, isa.strips() * NR);
        let key = KernelKey::new(isa, &[(false, false)], 1, 1, (rows, cols), true).unwrap();
        let kernel = compile(&key).expect("tk = 1 fma kernel verifies");
        let a_chunks: Vec<&[f32]> = avals.chunks_exact(rows).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let per = a_chunks.len().div_ceil(threads);
        let entry = kernel.entry;
        let nans = |v: &[f32]| v.iter().filter(|x| x.is_nan()).count() as u64;
        let b_nans: Vec<u64> = bvals.chunks_exact(cols).map(nans).collect();
        let parts: Vec<Sweep> = std::thread::scope(|s| {
            let hs: Vec<_> = a_chunks
                .chunks(per)
                .map(|mine| {
                    let b_nans = &b_nans;
                    s.spawn(move || {
                        let mut sw = Sweep::default();
                        let (mut jit, mut oracle) =
                            (vec![0f32; rows * cols], vec![0f32; rows * cols]);
                        for &acc_bits in &ACCUMULATORS {
                            let acc = f32::from_bits(acc_bits);
                            for a in mine {
                                let a_pair = PlanePair { hi: a, lo: &[] };
                                let a_nans = nans(a);
                                for (b, &b_nans) in bvals.chunks_exact(cols).zip(b_nans) {
                                    let b_pair = PlanePair { hi: b, lo: &[] };
                                    jit.fill(acc);
                                    oracle.fill(acc);
                                    // SAFETY: the kernel was compiled for
                                    // exactly this (rows, cols, kcb = 1)
                                    // shape; both buffers are rows x cols.
                                    unsafe {
                                        call(entry, a_pair, b_pair, jit.as_mut_ptr(), cols);
                                        micro::tile(
                                            a_pair,
                                            b_pair,
                                            1,
                                            1,
                                            &[(false, false)],
                                            oracle.as_mut_ptr(),
                                            cols,
                                            (rows, cols),
                                        );
                                    }
                                    if acc.is_nan() {
                                        let clean = (rows as u64 - a_nans) * (cols as u64 - b_nans);
                                        sw.nan_pairs += (rows * cols) as u64 - clean;
                                    }
                                    let same = jit
                                        .iter()
                                        .zip(&oracle)
                                        .all(|(x, y)| x.to_bits() == y.to_bits());
                                    if same {
                                        continue;
                                    }
                                    for (lane, (x, y)) in jit.iter().zip(&oracle).enumerate() {
                                        if x.to_bits() == y.to_bits() {
                                            continue;
                                        }
                                        sw.divergent += 1;
                                        let (av, bv) = (a[lane / cols], b[lane % cols]);
                                        let nan_mul = av.is_nan() || bv.is_nan();
                                        if !(acc.is_nan() && nan_mul) && sw.bad.is_none() {
                                            sw.bad = Some((
                                                acc_bits,
                                                av.to_bits(),
                                                bv.to_bits(),
                                                x.to_bits(),
                                                y.to_bits(),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                        sw
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        parts.into_iter().fold(Sweep::default(), |t, p| Sweep {
            divergent: t.divergent + p.divergent,
            nan_pairs: t.nan_pairs + p.nan_pairs,
            bad: t.bad.or(p.bad),
        })
    }

    /// Assert the contraction contract on `avals x bvals` for every ISA
    /// with an FMA backend: bit equality for every pair without a NaN
    /// multiplicand, and the NaN-accumulator x NaN-multiplicand pairs as
    /// the only — and always — divergent lanes. The latter is why the
    /// engine keys `fma` kernels only for NaN-free tiles. Returns the
    /// divergent lane count of each ISA checked.
    fn check_contraction(avals: &[f32], bvals: &[f32]) -> Vec<u64> {
        let mut divergent = Vec::new();
        for isa in isas().into_iter().filter(|&i| fma_supported(i)) {
            let sw = contraction_sweep(isa, avals, bvals);
            if let Some((acc, a, b, got, want)) = sw.bad {
                panic!(
                    "{isa:?}: acc {acc:#010x} + a {a:#010x} * b {b:#010x}: \
                     fma {got:#010x}, mul+add {want:#010x}"
                );
            }
            assert_eq!(sw.divergent, sw.nan_pairs, "{isa:?}");
            assert!(sw.nan_pairs > 0, "{isa:?}: the sweep holds no NaN pair");
            divergent.push(sw.divergent);
        }
        divergent
    }

    /// Every binary16 bit pattern, widened to binary32.
    fn all_halves() -> Vec<f32> {
        (0..=u16::MAX)
            .map(|h| Half::from_bits(h).to_f32())
            .collect()
    }

    /// Every 2^32 binary16 (a, b) pair through the fused kernel of each
    /// ISA, from every accumulator in [`ACCUMULATORS`]. Opt-in and
    /// release-only in practice (about 1.2e11 lanes):
    /// `cargo test --release -p egemm --lib -- --ignored fma_contraction_exhaustive`.
    #[test]
    #[ignore = "exhaustive over 2^32 pairs; run in release with --ignored"]
    fn fma_contraction_exhaustive() {
        let all = all_halves();
        // 2046 NaN halves: 2^32 - (2^16 - 2046)^2 pairs hold one, and
        // each diverges under each of the three NaN accumulators.
        let nan_pairs = (1u64 << 32) - (65536 - 2046u64).pow(2);
        assert_eq!(nan_pairs, 263_987_196);
        for divergent in check_contraction(&all, &all) {
            assert_eq!(divergent, 3 * nan_pairs);
        }
    }

    /// Tier-1 twin of [`fma_contraction_exhaustive`]: a strided sample
    /// of each operand plus every special class (signed zeros,
    /// subnormals, extremes, infinities, quiet and signalling NaNs).
    #[test]
    fn fma_contraction_sampled() {
        let specials: [u16; 12] = [
            0x0000, 0x8000, 0x0001, 0x83ff, 0x0400, 0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00, 0xfd55,
            0x7c01,
        ];
        let sample = |stride: usize, pad_to: usize| {
            let mut v: Vec<f32> = (0..=u16::MAX)
                .step_by(stride)
                .chain(specials)
                .map(|h| Half::from_bits(h).to_f32())
                .collect();
            while !v.len().is_multiple_of(pad_to) {
                v.push(1.0);
            }
            v
        };
        // Multiples of both ISAs' tile rows (8) and columns (32).
        check_contraction(&sample(509, 8), &sample(257, 32));
    }
}
