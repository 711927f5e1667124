//! Content-addressed serving: in-flight request dedupe and the
//! memoized result cache.
//!
//! The engine already fingerprints operand *content* for its packed-
//! operand cache. This module exploits the same fingerprints one layer
//! up, where they are worth even more: two requests agreeing on every
//! bit of input ([`ResultKey`]) must produce bit-identical outputs —
//! the engine's own bit-identity guarantee — so the serving tier can
//!
//! 1. **dedupe in flight**: while a request with key `K` is queued or
//!    dispatched, an identical concurrent request attaches to it as a
//!    *follower* instead of entering the admission queue — one engine
//!    dispatch fans out to N tickets ([`InFlightTable`]);
//! 2. **memoize results**: a bounded, byte-budgeted LRU keyed by `K`
//!    returns the cached product without touching the queue at all
//!    ([`ResultCache`]) — the time-space tradeoff of the packed-operand
//!    cache applied to whole outputs.
//!
//! Neither layer can change a bit: a key covers the full content of A,
//! B, and C plus shape, scheme, and job kind, and any mutation of an
//! operand buffer changes its fingerprint, so a stale entry can never
//! be hit. Both layers only decide whether bit-identical work is
//! *reused* or *redone*.
//!
//! Fate-sharing rule: a primary that carries a deadline never accepts
//! followers (its pre-dispatch expiry would propagate a timeout to
//! requests that asked for none), so every fanned-out outcome is either
//! a served result (each follower's own deadline is still checked at
//! delivery), an engine failure, or shutdown — all of which the
//! follower would have observed had it dispatched alone.

use crate::queue::{lock_unpoisoned, TicketInner};
use crate::request::GemmRequest;
use egemm::telemetry::metrics::Gauge;
use egemm::{content_fingerprint, EmulationScheme};
use egemm_matrix::{GemmShape, Matrix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Full content address of a request: everything that can influence an
/// output bit. Two requests with equal keys are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub shape: GemmShape,
    pub scheme: EmulationScheme,
    /// Job-kind discriminant, same packing as `BucketKey::kind`
    /// (split-K slice count folded in).
    pub kind: u64,
    pub a_fp: (u64, u64),
    pub b_fp: (u64, u64),
    /// Fingerprint of C when present; `None` keys never collide with
    /// `Some` keys even at equal shape.
    pub c_fp: Option<(u64, u64)>,
}

impl ResultKey {
    /// Fingerprint a validated request. Hashing is ~4 bytes/cycle —
    /// negligible against the O(N²) split the engine would otherwise
    /// run — and A/B/C are fingerprinted at admission time, so any
    /// caller-side mutation of a buffer between calls yields a new key
    /// (the no-stale-hit guarantee).
    pub(crate) fn of(req: &GemmRequest, kind: u64) -> ResultKey {
        ResultKey {
            shape: req.shape(),
            scheme: req.scheme,
            kind,
            a_fp: content_fingerprint(req.a.as_slice()),
            b_fp: content_fingerprint(req.b.as_slice()),
            c_fp: req.c.as_ref().map(|c| content_fingerprint(c.as_slice())),
        }
    }
}

/// One deduped request riding on a primary's dispatch.
pub(crate) struct Follower {
    pub ticket: Arc<TicketInner>,
    pub admitted: Instant,
    pub deadline: Option<Instant>,
    pub request_id: u64,
}

/// State of one in-flight key.
struct InFlightEntry {
    /// Whether the primary carries a deadline; if so, followers are
    /// refused (see the module-level fate-sharing rule) and identical
    /// requests enqueue independently.
    primary_has_deadline: bool,
    followers: Vec<Follower>,
}

/// Keys with a request currently queued or dispatched. The primary
/// registers on admission and *must* clear its entry on every
/// resolution path (success, engine failure, shutdown drain) — the
/// server routes all of them through `Server::resolve`.
#[derive(Default)]
pub(crate) struct InFlightTable {
    map: Mutex<HashMap<ResultKey, InFlightEntry>>,
}

/// Outcome of offering a request to the in-flight table.
pub(crate) enum Attach {
    /// No identical request in flight: caller becomes the primary and
    /// must enqueue (and later resolve the key).
    Primary,
    /// Attached as a follower; the ticket will be fulfilled when the
    /// primary resolves. Nothing to enqueue.
    Followed,
    /// An identical primary is in flight but refuses followers (it has
    /// a deadline); caller must enqueue independently without
    /// registering the key.
    Refused,
}

impl InFlightTable {
    /// Register `key` or attach to its existing primary.
    pub(crate) fn offer(
        &self,
        key: ResultKey,
        has_deadline: bool,
        follower: impl FnOnce() -> Follower,
    ) -> Attach {
        let mut map = lock_unpoisoned(&self.map);
        match map.get_mut(&key) {
            None => {
                map.insert(
                    key,
                    InFlightEntry {
                        primary_has_deadline: has_deadline,
                        followers: Vec::new(),
                    },
                );
                Attach::Primary
            }
            Some(entry) if entry.primary_has_deadline => Attach::Refused,
            Some(entry) => {
                entry.followers.push(follower());
                Attach::Followed
            }
        }
    }

    /// Clear `key` and take every attached follower for fan-out. Called
    /// exactly once per primary, on its resolution path.
    pub(crate) fn resolve(&self, key: &ResultKey) -> Vec<Follower> {
        lock_unpoisoned(&self.map)
            .remove(key)
            .map(|e| e.followers)
            .unwrap_or_default()
    }

    /// Drop a registration that never enqueued (admission failed after
    /// the key was registered). No followers can have attached yet in
    /// that window only if the queue push failed immediately — any that
    /// did are returned so the caller can answer them.
    pub(crate) fn abort(&self, key: &ResultKey) -> Vec<Follower> {
        self.resolve(key)
    }
}

/// A memoized product. `d` is shared (`Arc`) between the cache and any
/// number of hits; delivery clones the matrix into the response, so a
/// later eviction never invalidates a delivered result.
struct CachedResult {
    d: Arc<Matrix<f32>>,
    bytes: i64,
    last_used: u64,
}

/// Byte-budgeted LRU over whole GEMM results, keyed by content.
/// Capacity 0 disables the cache entirely. The caller counts hits,
/// misses and evictions from the return values; the resident-bytes
/// gauge is the server's registry instrument.
pub(crate) struct ResultCache {
    map: Mutex<HashMap<ResultKey, CachedResult>>,
    cap_bytes: usize,
    clock: AtomicU64,
    bytes: Arc<Gauge>,
}

impl ResultCache {
    pub(crate) fn new(cap_bytes: usize, bytes: Arc<Gauge>) -> ResultCache {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            cap_bytes,
            clock: AtomicU64::new(0),
            bytes,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cap_bytes > 0
    }

    /// Look up a key, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &ResultKey) -> Option<Arc<Matrix<f32>>> {
        if !self.enabled() {
            return None;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = lock_unpoisoned(&self.map);
        map.get_mut(key).map(|entry| {
            entry.last_used = stamp;
            Arc::clone(&entry.d)
        })
    }

    /// Insert a computed result, evicting least-recently-used entries
    /// until the byte budget holds; returns how many were evicted. A
    /// result larger than the whole budget is not cached (it would
    /// evict everything for one entry that can never be held).
    pub(crate) fn insert(&self, key: ResultKey, d: &Matrix<f32>) -> u64 {
        let bytes = std::mem::size_of_val(d.as_slice()) as i64;
        if !self.enabled() || bytes > self.cap_bytes as i64 {
            return 0;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = lock_unpoisoned(&self.map);
        if let Some(old) = map.insert(
            key,
            CachedResult {
                d: Arc::new(d.clone()),
                bytes,
                last_used: stamp,
            },
        ) {
            self.bytes.add(-old.bytes);
        }
        self.bytes.add(bytes);
        let mut evicted = 0;
        while self.bytes.get() > self.cap_bytes as i64 && map.len() > 1 {
            let victim = map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = map.remove(&victim) {
                self.bytes.add(-e.bytes);
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> ResultKey {
        ResultKey {
            shape: GemmShape::new(4, 4, 4),
            scheme: EmulationScheme::EgemmTc,
            kind: 0,
            a_fp: (tag, tag),
            b_fp: (tag, !tag),
            c_fp: None,
        }
    }

    #[test]
    fn result_cache_lru_respects_byte_budget() {
        // 4x4 f32 = 64 bytes per entry; budget holds two.
        let cache = ResultCache::new(128, Arc::default());
        let m = Matrix::<f32>::random_uniform(4, 4, 1);
        assert_eq!(cache.insert(key(1), &m), 0);
        assert_eq!(cache.insert(key(2), &m), 0);
        assert_eq!(cache.bytes.get(), 128);
        assert!(cache.get(&key(1)).is_some(), "both entries fit");
        // Key 2 is now the LRU victim.
        assert_eq!(cache.insert(key(3), &m), 1, "one LRU entry evicted");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.bytes.get(), 128);
    }

    #[test]
    fn result_cache_capacity_zero_is_off() {
        let cache = ResultCache::new(0, Arc::default());
        let m = Matrix::<f32>::random_uniform(4, 4, 1);
        assert_eq!(cache.insert(key(1), &m), 0);
        assert!(cache.get(&key(1)).is_none());
        assert!(!cache.enabled(), "off = the server counts no lookups");
        assert_eq!(cache.bytes.get(), 0);
    }

    #[test]
    fn oversized_result_is_not_cached() {
        let cache = ResultCache::new(32, Arc::default());
        let m = Matrix::<f32>::random_uniform(4, 4, 1); // 64 bytes
        cache.insert(key(1), &m);
        assert_eq!(cache.bytes.get(), 0);
    }

    #[test]
    fn inflight_attach_and_resolve() {
        let table = InFlightTable::default();
        let mk = || Follower {
            ticket: TicketInner::new(),
            admitted: Instant::now(),
            deadline: None,
            request_id: 0,
        };
        assert!(matches!(table.offer(key(1), false, mk), Attach::Primary));
        assert!(matches!(table.offer(key(1), false, mk), Attach::Followed));
        assert!(matches!(table.offer(key(2), true, mk), Attach::Primary));
        // A deadline-carrying primary refuses followers.
        assert!(matches!(table.offer(key(2), false, mk), Attach::Refused));
        assert_eq!(table.resolve(&key(1)).len(), 1);
        assert_eq!(table.resolve(&key(1)).len(), 0, "entry cleared");
        assert_eq!(table.resolve(&key(2)).len(), 0);
    }
}
