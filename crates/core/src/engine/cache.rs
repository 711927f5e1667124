//! Bounded LRU cache of prepared (split-and-packed) B operands.
//!
//! The host engine's per-call costs — the O(N²) hi/lo split and the
//! panel pack of B — are pure functions of the operand's *contents* and
//! a handful of layout parameters. For serving workloads one operand is
//! typically a long-lived weight matrix, so this cache keys prepared
//! operands by a 128-bit content fingerprint plus shape, split scheme
//! and blocking geometry, and hands back [`Arc`]s to the immutable
//! prepared data. A hit skips the preparation entirely; a miss
//! (including any mutation of the operand's data, which changes the
//! fingerprint) recomputes from scratch, so caching can never change an
//! output bit — it only decides whether the bit-identical preparation
//! work is reused or redone.
//!
//! An entry holds one artifact, attached lazily behind its mutex: the
//! packed B panels, split straight from the raw f32 operand
//! ([`get_or_pack`](PanelCache::get_or_pack)). No split planes are ever
//! resident; the split-plane bytes a pack never materialized are
//! tallied in [`CacheStats::bytes_staging_saved`].
//!
//! Concurrency: the map is a mutex-guarded `HashMap` of slots. Racing
//! callers for the same key agree on one entry under the map lock, then
//! exactly one of them runs the pack while holding the entry's mutex
//! and the others block on the result — so a batch
//! sharing one B operand prepares it exactly once (asserted by the
//! cache-stats test in `crates/core/src/batched.rs`).
//!
//! Eviction is LRU by total resident bytes. Evicted entries stay alive for as long as callers hold
//! their `Arc`s; the cache merely drops its reference.

use crate::telemetry;
use egemm_fp::SplitScheme;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use super::pack::PackedB;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Every structure in the engine guarded this way (cache map, pack
/// slots, pool state) is updated transactionally — counters and maps
/// are adjusted together under the lock — so the data is consistent
/// even when the holder unwound; the panic itself is surfaced to the
/// submitting caller separately (see `runtime::Pool::run`).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counters describing the cache's lifetime behaviour. All counters are
/// monotone except `bytes`, which is the current resident total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reused a prepared operand (including callers that
    /// waited on a concurrent preparation instead of redoing it).
    pub hits: u64,
    /// Lookups that had to prepare the operand.
    pub misses: u64,
    /// Entries dropped to respect the byte bound.
    pub evictions: u64,
    /// Bytes currently resident (packed panels).
    pub bytes: u64,
    /// Full-operand B packs actually executed (not served from cache).
    pub packs: u64,
    /// Split-plane bytes (12 per element) the fused split-and-pack
    /// avoided materializing — staging traffic a split-then-pack would
    /// have written and read back. Monotone.
    pub bytes_staging_saved: u64,
    /// Microkernel JIT compilations attempted (each key compiles at
    /// most once per runtime, successful or not).
    pub jit_compiles: u64,
    /// Compiled-kernel cache lookups served without compiling.
    pub jit_hits: u64,
    /// Nanoseconds spent compiling (IR lowering through verification).
    pub jit_compile_ns: u64,
    /// Bytes of executable kernel code resident (whole pages).
    pub jit_code_bytes: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups, 0.0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    /// One-line rendering shared by `profiling.rs` / `engine_bench`:
    /// `hits/misses/evictions + packs executed + resident KiB + hit
    /// ratio`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss / {} evict, {} pack run, {:.1} KiB resident, \
             {:.1} KiB staging saved, {:.1}% hit ratio, {} jit compile / {} jit hit \
             ({:.1} KiB code)",
            self.hits,
            self.misses,
            self.evictions,
            self.packs,
            self.bytes as f64 / 1024.0,
            self.bytes_staging_saved as f64 / 1024.0,
            100.0 * self.hit_ratio(),
            self.jit_compiles,
            self.jit_hits,
            self.jit_code_bytes as f64 / 1024.0
        )
    }
}

/// 128-bit content fingerprint of a binary32 buffer.
///
/// Two independent 64-bit multiply-rotate-xor lanes over the raw bit
/// patterns (wyhash-style absorption), finalized with distinct
/// avalanche mixes. ~4 bytes/cycle — negligible against the split it
/// guards — and any single-bit change to any element flips both lanes,
/// so a mutated operand always misses.
///
/// Public (as [`crate::engine::content_fingerprint`]) so layers above
/// the cache — the serving tier's shared-B bucketing in particular —
/// can group operands by exactly the key the cache will hit on.
pub fn fingerprint(data: &[f32]) -> (u64, u64) {
    const M1: u64 = 0x9E37_79B9_7F4A_7C15;
    const M2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut h1: u64 = data.len() as u64 ^ M1;
    let mut h2: u64 = (data.len() as u64).wrapping_mul(M2) ^ M2;
    let mut chunks = data.chunks_exact(4);
    for c in chunks.by_ref() {
        let w1 = (c[0].to_bits() as u64) | ((c[1].to_bits() as u64) << 32);
        let w2 = (c[2].to_bits() as u64) | ((c[3].to_bits() as u64) << 32);
        h1 = (h1 ^ w1).wrapping_mul(M1).rotate_left(29) ^ w2;
        h2 = (h2 ^ w2).wrapping_mul(M2).rotate_left(31) ^ w1;
    }
    for &x in chunks.remainder() {
        h1 = (h1 ^ x.to_bits() as u64).wrapping_mul(M1).rotate_left(29);
        h2 = (h2 ^ x.to_bits() as u64).wrapping_mul(M2).rotate_left(31);
    }
    (fmix64(h1), fmix64(h2 ^ h1.rotate_left(17)))
}

/// MurmurHash3 finalizer: full avalanche over 64 bits.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Cache key: content fingerprint + shape + split scheme. The packed-B
/// blocking geometry is validated per entry (see [`CacheEntry::packed`])
/// rather than keyed, since one `Egemm` uses one blocking config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub fp: (u64, u64),
    pub rows: usize,
    pub cols: usize,
    pub scheme: SplitScheme,
}

/// One prepared operand: its packed panels, attached lazily. The mutex
/// is held across the pack so racing callers run it exactly once.
#[derive(Default)]
pub(crate) struct CacheEntry {
    packed: Mutex<Option<Arc<PackedB>>>,
}

/// Resident bytes of split planes for an `rows x cols` operand:
/// binary16 hi/lo (2+2 bytes/element) plus the binary32 widenings
/// (4+4). Also the staging traffic a fused pack avoids writing.
pub(crate) fn split_plane_bytes(rows: usize, cols: usize) -> usize {
    12 * rows * cols
}

struct Slot {
    entry: Arc<CacheEntry>,
    /// LRU stamp, refreshed on every touch.
    last_used: u64,
    /// Bytes charged against the cache bound for this slot (its packed
    /// panels).
    charged: usize,
}

/// The bounded LRU map. `capacity_bytes == 0` disables retention
/// entirely: every lookup is a miss and nothing is stored, which is the
/// reference cold path the bit-identity tests compare against.
pub(crate) struct PanelCache {
    capacity_bytes: usize,
    map: Mutex<HashMap<CacheKey, Slot>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    packs: AtomicU64,
    staging_saved: AtomicU64,
}

impl PanelCache {
    pub(crate) fn new(capacity_bytes: usize) -> PanelCache {
        PanelCache {
            capacity_bytes,
            map: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            packs: AtomicU64::new(0),
            staging_saved: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            packs: self.packs.load(Ordering::Relaxed),
            bytes_staging_saved: self.staging_saved.load(Ordering::Relaxed),
            // The JIT series live in the runtime's kernel cache and are
            // merged in by EngineRuntime::cache_stats.
            jit_compiles: 0,
            jit_hits: 0,
            jit_compile_ns: 0,
            jit_code_bytes: 0,
        }
    }

    /// Tally split-plane bytes the fused pipeline avoided materializing
    /// outside the cache (per-tile fused packs in the workers).
    pub(crate) fn note_staging_saved(&self, bytes: u64) {
        self.staging_saved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Look up the entry for `key`, counting a hit if the slot already
    /// existed (including slots whose artifacts are still being
    /// prepared by a racing caller). With retention disabled
    /// (`capacity_bytes == 0`) every lookup is a miss on a fresh
    /// detached entry.
    pub(crate) fn entry_for_key(&self, key: CacheKey) -> Arc<CacheEntry> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(CacheEntry::default());
        }
        let t_lookup = telemetry::span_start();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let (entry, inserted) = {
            let mut map = lock_unpoisoned(&self.map);
            match map.get_mut(&key) {
                Some(s) => {
                    s.last_used = stamp;
                    (s.entry.clone(), false)
                }
                None => {
                    let entry = Arc::new(CacheEntry::default());
                    map.insert(
                        key,
                        Slot {
                            entry: entry.clone(),
                            last_used: stamp,
                            charged: 0,
                        },
                    );
                    (entry, true)
                }
            }
        };
        if inserted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, (!inserted) as u64);
        entry
    }

    /// Return the packed panels of `entry`, packing (charged to the
    /// `packs` counter) only if none exist yet or the stored geometry
    /// disagrees with `kc`. `pack_fn` goes straight from raw f32 to
    /// packed panels, so the span is attributed to the
    /// `fused_split_pack` phase and the split-plane bytes it never
    /// materialized are added to `bytes_staging_saved`. The entry's
    /// mutex is held across the pack so concurrent callers pack exactly
    /// once.
    pub(crate) fn get_or_pack(
        &self,
        key: CacheKey,
        entry: &CacheEntry,
        kc: usize,
        pack_fn: impl FnOnce() -> PackedB,
    ) -> Arc<PackedB> {
        let t_lookup = telemetry::span_start();
        let mut guard = lock_unpoisoned(&entry.packed);
        if let Some(p) = guard.as_ref() {
            if p.kc() == kc {
                telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, 1);
                return p.clone();
            }
        }
        telemetry::span_end(telemetry::Phase::CacheLookup, t_lookup, 0);
        self.packs.fetch_add(1, Ordering::Relaxed);
        self.note_staging_saved(split_plane_bytes(key.rows, key.cols) as u64);
        let t_pack = telemetry::span_start();
        let packed = Arc::new(pack_fn());
        let new_bytes = packed.bytes();
        telemetry::span_end(telemetry::Phase::FusedSplitPack, t_pack, new_bytes as u64);
        let old_bytes = guard.as_ref().map_or(0, |p| p.bytes());
        *guard = Some(packed.clone());
        drop(guard);
        if self.capacity_bytes > 0 {
            self.recharge(key, old_bytes, new_bytes);
        }
        packed
    }

    /// Replace `old_bytes` of `key`'s charge with `new_bytes` (a pack
    /// was swapped for one with different geometry), keeping the slot's
    /// `charged` and the global counter consistent, then re-enforce the
    /// bound. A slot evicted in the meantime already gave its whole
    /// charge back, so there is nothing to adjust.
    fn recharge(&self, key: CacheKey, old_bytes: usize, new_bytes: usize) {
        let mut map = lock_unpoisoned(&self.map);
        if let Some(s) = map.get_mut(&key) {
            s.charged = s.charged - old_bytes + new_bytes;
            if new_bytes >= old_bytes {
                self.bytes
                    .fetch_add((new_bytes - old_bytes) as u64, Ordering::Relaxed);
            } else {
                self.bytes
                    .fetch_sub((old_bytes - new_bytes) as u64, Ordering::Relaxed);
            }
        }
        self.evict_over_bound(&mut map, key);
    }

    /// Evict least-recently-used slots (never `keep`, never the last
    /// resident slot) until the byte bound holds.
    fn evict_over_bound(&self, map: &mut HashMap<CacheKey, Slot>, keep: CacheKey) {
        while self.bytes.load(Ordering::Relaxed) > self.capacity_bytes as u64 && map.len() > 1 {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            let Some(v) = victim else { break };
            if let Some(s) = map.remove(&v) {
                self.bytes.fetch_sub(s.charged as u64, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::SplitKernel;
    use egemm_matrix::Matrix;

    fn operand(m: usize, n: usize, seed: u64) -> (Matrix<f32>, CacheKey) {
        let mat = Matrix::<f32>::random_uniform(m, n, seed);
        let key = CacheKey {
            fp: fingerprint(mat.as_slice()),
            rows: m,
            cols: n,
            scheme: SplitScheme::Round,
        };
        (mat, key)
    }

    #[test]
    fn fingerprint_sensitive_to_every_element() {
        let base = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let h0 = fingerprint(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] = f32::from_bits(m[i].to_bits() ^ 1); // single-ULP flip
            assert_ne!(fingerprint(&m), h0, "insensitive to element {i}");
        }
        // Length is part of the absorption.
        assert_ne!(fingerprint(&base[..6]), h0);
        // And it is deterministic.
        assert_eq!(fingerprint(&base), h0);
    }

    /// Lookup + pack at panel depth 8, the shape most tests exercise.
    fn get_or_pack(
        cache: &PanelCache,
        key: CacheKey,
        pack_fn: impl FnOnce() -> PackedB,
    ) -> Arc<PackedB> {
        let entry = cache.entry_for_key(key);
        cache.get_or_pack(key, &entry, 8, pack_fn)
    }

    fn pack(mat: &Matrix<f32>) -> PackedB {
        PackedB::pack_fused(mat, SplitScheme::Round, SplitKernel::Scalar, 8)
    }

    #[test]
    fn hit_miss_and_pack_counting() {
        let cache = PanelCache::new(usize::MAX);
        let (mat, key) = operand(8, 8, 1);
        let p1 = get_or_pack(&cache, key, || pack(&mat));
        let p2 = get_or_pack(&cache, key, || panic!("second lookup must not pack"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs), (1, 1, 1));
        // 1 panel x 1 strip x 8x16 x 2 planes x 4 bytes.
        assert_eq!(s.bytes, 2 * 4 * 8 * 16);
    }

    #[test]
    fn zero_capacity_disables_retention() {
        let cache = PanelCache::new(0);
        let (mat, key) = operand(4, 4, 2);
        for _ in 0..3 {
            get_or_pack(&cache, key, || pack(&mat));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs, s.bytes), (0, 3, 3, 0));
    }

    #[test]
    fn lru_eviction_respects_byte_bound() {
        // Each 8x8 pack charges 1024 bytes; a bound of 2500 holds two
        // entries, so inserting a third evicts the least recently used.
        let cache = PanelCache::new(2500);
        let (m1, k1) = operand(8, 8, 3);
        let (m2, k2) = operand(8, 8, 4);
        let (m3, k3) = operand(8, 8, 5);
        get_or_pack(&cache, k1, || pack(&m1));
        get_or_pack(&cache, k2, || pack(&m2));
        // Touch k1 so k2 is the LRU victim.
        get_or_pack(&cache, k1, || panic!("k1 should be resident"));
        get_or_pack(&cache, k3, || pack(&m3));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 2500, "resident {} over bound", s.bytes);
        // k1 survived, k2 was evicted.
        get_or_pack(&cache, k1, || panic!("k1 evicted unexpectedly"));
        let before = cache.stats().packs;
        get_or_pack(&cache, k2, || pack(&m2));
        assert_eq!(cache.stats().packs, before + 1, "k2 should re-pack");
    }

    #[test]
    fn poisoned_pack_slot_recovers() {
        // Regression: a panicking pack_fn poisons the entry's pack
        // mutex; the next caller used to abort on `.unwrap()`. It must
        // recover the guard and pack normally instead.
        let cache = PanelCache::new(usize::MAX);
        let (mat, key) = operand(8, 16, 11);
        let entry = cache.entry_for_key(key);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_pack(key, &entry, 8, || panic!("pack failure"));
        }));
        assert!(poisoned.is_err());
        let packed = cache.get_or_pack(key, &entry, 8, || pack(&mat));
        assert_eq!(packed.kc(), 8);
        // And a further lookup hits the now-resident pack.
        let again = cache.get_or_pack(key, &entry, 8, || panic!("must be resident"));
        assert!(Arc::ptr_eq(&packed, &again));
    }

    #[test]
    fn fused_entries_charge_packed_bytes_only() {
        // Resident-bytes accounting: an entry holds no split planes, so
        // the counter must equal the packed allocation alone — after
        // hits it must not grow, and after eviction it must return
        // exactly to the surviving allocations.
        let cache = PanelCache::new(3000);
        let (m1, k1) = operand(8, 16, 21);
        let p1 = get_or_pack(&cache, k1, || pack(&m1));
        // 1 panel x 1 strip x 8x16 x 2 planes x 4 bytes — no 12-byte
        // per-element split residency on top.
        assert_eq!(p1.bytes(), 2 * 4 * 8 * 16);
        assert_eq!(cache.stats().bytes, p1.bytes() as u64);
        assert_eq!(
            cache.stats().bytes_staging_saved,
            split_plane_bytes(8, 16) as u64
        );
        // A hit reuses the allocation: resident bytes unchanged, no new
        // staging counted (nothing was packed).
        let p1b = get_or_pack(&cache, k1, || panic!("must be resident"));
        assert!(Arc::ptr_eq(&p1, &p1b));
        let s = cache.stats();
        assert_eq!(s.bytes, p1.bytes() as u64);
        assert_eq!(s.bytes_staging_saved, split_plane_bytes(8, 16) as u64);
        // Two more entries (1024 B each) push past the 3000-byte bound;
        // after the eviction the counter matches the surviving
        // allocations exactly.
        let (m2, k2) = operand(8, 16, 22);
        let p2 = get_or_pack(&cache, k2, || pack(&m2));
        let (m3, k3) = operand(8, 16, 23);
        let p3 = get_or_pack(&cache, k3, || pack(&m3));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, (p2.bytes() + p3.bytes()) as u64);
        assert_eq!(s.packs, 3);
    }

    #[test]
    fn display_formats_counters() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 2,
            bytes: 2048,
            packs: 1,
            bytes_staging_saved: 3072,
            jit_compiles: 4,
            jit_hits: 9,
            jit_compile_ns: 1_000,
            jit_code_bytes: 8192,
        };
        let text = s.to_string();
        assert!(text.contains("3 hit"), "{text}");
        assert!(text.contains("1 pack run"), "{text}");
        assert!(text.contains("2.0 KiB resident"), "{text}");
        assert!(text.contains("3.0 KiB staging saved"), "{text}");
        assert!(text.contains("75.0% hit ratio"), "{text}");
        assert!(text.contains("4 jit compile / 9 jit hit"), "{text}");
        assert!(text.contains("8.0 KiB code"), "{text}");
        // The idle stats line must not divide by zero.
        assert!(CacheStats::default().to_string().contains("0.0% hit ratio"));
    }

    #[test]
    fn mutation_changes_key() {
        let (mat, key) = operand(6, 6, 7);
        let mut mutated = mat.clone();
        let s = mutated.as_mut_slice();
        s[17] += 1.0;
        let key2 = CacheKey {
            fp: fingerprint(mutated.as_slice()),
            ..key
        };
        assert_ne!(key, key2);
    }
}
