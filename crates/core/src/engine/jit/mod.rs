//! Runtime x86-64 JIT for shape-specialized microkernels.
//!
//! The interpreted microkernel ([`super::micro`]) is one generic
//! `MR x NR` kernel with runtime branches over the scheme's term list,
//! the chunk grid, and the tile's edge extents. This module compiles a
//! dedicated kernel per *shape class* — `(ISA, term planes, tk, panel
//! depth, valid rows, valid cols)` — through a small pipeline:
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
//! AVX-512F machines adjacent packed B strips are fused into 32-lane
//! dual-strip kernels. Compiled kernels live in a per-runtime
//! [`KernelCache`] next to the packed-operand cache, compiled exactly
//! once per key.
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
use super::micro::{load_acc, microkernel, store_acc, PlanePair};
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
}

impl KernelKey {
    /// Build a key, or `None` when this shape is outside what the
    /// emitter specializes (huge `tk` would bloat the unrolled body;
    /// `kcb` beyond `u16` would overflow baked displacements) — the
    /// caller then uses the interpreted kernel.
    pub(crate) fn new(
        isa: Isa,
        terms: &[(bool, bool)],
        tk: usize,
        kcb: usize,
        rows: usize,
        cols: usize,
    ) -> Option<KernelKey> {
        if terms.is_empty() || terms.len() > 4 {
            return None;
        }
        if tk == 0 || tk > 64 || kcb == 0 || kcb > u16::MAX as usize {
            return None;
        }
        if rows == 0 || rows > MR || cols == 0 || cols > isa.strips() * NR {
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
/// under), the plane slices must hold the packed slivers that key's
/// kernel expects (`kcb x MR` per used A plane, `strips x kcb x NR`
/// per used B plane), and `out`/`n` must describe a region where
/// `rows x cols` elements at the row stride `n` are valid for
/// read/write with no concurrent access by other threads.
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

/// Deterministic value stream for verification tiles.
fn fill(state: &mut u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*state >> 40) as f32) / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// Replay a freshly compiled kernel against the interpreted microkernel
/// on a synthetic tile (non-trivial row stride, every term plane
/// populated, padded lanes seeded with sentinels) and demand `to_bits`
/// equality over the whole output buffer — including the lanes the
/// kernel must *not* touch.
fn verify(spec: &ir::KernelSpec, entry: KernelFn) -> bool {
    let (kcb, tk) = (spec.kcb, spec.tk);
    let strips = spec.isa.strips();
    let a_hi_used = spec.terms.iter().any(|t| !t.0);
    let a_lo_used = spec.terms.iter().any(|t| t.0);
    let b_hi_used = spec.terms.iter().any(|t| !t.1);
    let b_lo_used = spec.terms.iter().any(|t| t.1);

    let mut seed = 0x9E3779B97F4A7C15u64 ^ ((kcb as u64) << 32 | spec.cols as u64);
    let a_hi = fill(&mut seed, kcb * MR);
    let a_lo = fill(&mut seed, kcb * MR);
    let b_hi = fill(&mut seed, strips * kcb * NR);
    let b_lo = fill(&mut seed, strips * kcb * NR);
    let n = spec.cols + 3; // stride != cols exercises the row addressing
    let mut out_jit = fill(&mut seed, MR * n);
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

    // Interpreted reference, one strip at a time (exactly the fallback
    // path the worker would run for this tile).
    for s in 0..strips {
        let cols_s = NR.min(spec.cols.saturating_sub(s * NR));
        if cols_s == 0 {
            continue;
        }
        let b_pair = PlanePair {
            hi: plane(b_hi_used, &b_hi[s * kcb * NR..(s + 1) * kcb * NR]),
            lo: plane(b_lo_used, &b_lo[s * kcb * NR..(s + 1) * kcb * NR]),
        };
        // SAFETY: out_ref is MR x n with rows <= MR, s*NR + cols_s <= n.
        unsafe {
            let mut acc = load_acc(out_ref.as_ptr(), n, 0, s * NR, spec.rows, cols_s);
            microkernel(&mut acc, a_pair, b_pair, kcb, tk, &spec.terms);
            store_acc(&acc, out_ref.as_mut_ptr(), n, 0, s * NR, spec.rows, cols_s);
        }
    }

    let b_pair = PlanePair {
        hi: plane(b_hi_used, &b_hi),
        lo: plane(b_lo_used, &b_lo),
    };
    // SAFETY: the kernel was emitted for exactly this spec; buffers
    // hold `strips` packed slivers and an MR x n output region.
    unsafe { call(entry, a_pair, b_pair, out_jit.as_mut_ptr(), n) };

    out_jit
        .iter()
        .zip(&out_ref)
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The whole pipeline, adversarially: every term set, ragged and
    /// full edges, short and ragged panels — each compiled kernel must
    /// survive the verify gate (which is itself a bit-exact replay
    /// against the interpreted kernel).
    #[test]
    fn compiled_kernels_verify_against_interpreter() {
        let mut checked = 0;
        for isa in isas() {
            let cols_cases: Vec<usize> = match isa {
                Isa::Avx => vec![16, 8, 11, 5, 1],
                Isa::Avx512 => vec![32, 23, 17, 31],
            };
            for terms in TERM_SETS {
                for &(tk, kcb) in &[(8usize, 24usize), (8, 5), (8, 8), (4, 19), (16, 40)] {
                    for rows in 1..=MR {
                        for &cols in &cols_cases {
                            let key = KernelKey::new(isa, terms, tk, kcb, rows, cols)
                                .expect("in-range key");
                            assert!(
                                compile(&key).is_some(),
                                "compile+verify failed: {isa:?} terms={terms:?} \
                                 tk={tk} kcb={kcb} rows={rows} cols={cols}"
                            );
                            checked += 1;
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

    #[test]
    fn key_roundtrips_terms_and_rejects_out_of_range() {
        let terms = [(false, true), (true, false), (true, true)];
        let key = KernelKey::new(Isa::Avx, &terms, 8, 100, 3, 12).unwrap();
        assert_eq!(key.spec().terms, terms.to_vec());
        assert_eq!(key.spec().kcb, 100);
        assert!(KernelKey::new(Isa::Avx, &terms, 0, 8, 4, 16).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 8, 4, 17).is_none());
        assert!(KernelKey::new(Isa::Avx512, &terms, 8, 8, 4, 33).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 1 << 17, 4, 16).is_none());
        assert!(KernelKey::new(Isa::Avx, &[], 8, 8, 4, 16).is_none());
    }

    #[test]
    fn cache_compiles_once_and_counts_hits() {
        let cache = KernelCache::new(Arc::new(Counters::register()));
        if cache.isa().is_none() {
            return; // nothing to exercise on this host
        }
        let isa = Isa::Avx; // single-strip kernels exist on every backend
        let key = KernelKey::new(isa, TERM_SETS[1], 8, 16, 4, 16).unwrap();
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
}
