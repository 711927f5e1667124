//! Serve-level counters and latency quantiles.
//!
//! The engine's `GemmReport` describes one call from the inside; these
//! counters describe the serving tier from the outside: how many
//! requests arrived, how many were rejected or expired, how well the
//! batcher coalesced, and what the request latency distribution looks
//! like. Every count is a registry instrument of the server's labelled
//! set (`server="N"`), bumped once per event with one relaxed add;
//! [`ServeStats`] (the `STATS` verb) and the Prometheus exposition (the
//! `METRICS` verb) both read those instruments, so they always agree.
//! Latency samples go into a fixed-size overwrite-oldest ring (the same
//! discipline as the telemetry trace rings — recording never allocates
//! after construction). Exporters mirror the `GemmReport` conventions:
//! `Display` for humans, [`ServeStats::to_json`] for machines.

use std::sync::{Arc, Mutex};

use egemm::telemetry::metrics::{Counter, Gauge, InstrumentSet};
use egemm::EngineRuntime;

use crate::queue::lock_unpoisoned;

/// Latency samples retained for quantile estimation.
const LATENCY_RING: usize = 4096;

/// One server's instruments (registered at start, removed from the
/// registry when the server and its last client drop; series families
/// in [`StatsInner::new`]) plus its latency ring. Counter fields are
/// named after the [`ServeStats`] field they back.
pub(crate) struct StatsInner {
    pub submitted: Arc<Counter>,
    pub admitted: Arc<Counter>,
    pub rejected_busy: Arc<Counter>,
    pub rejected_invalid: Arc<Counter>,
    pub timed_out_before: Arc<Counter>,
    pub timed_out_after: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub engine_failures: Arc<Counter>,
    pub engine_calls: Arc<Counter>,
    pub dispatched: Arc<Counter>,
    pub coalesced: Arc<Counter>,
    pub dedup_hits: Arc<Counter>,
    pub result_cache_hits: Arc<Counter>,
    pub result_cache_misses: Arc<Counter>,
    pub result_cache_evictions: Arc<Counter>,
    /// The result cache's resident bytes, which its budget is enforced
    /// against.
    pub result_cache_bytes: Arc<Gauge>,
    /// Event-frontend read pauses (not part of [`ServeStats`]).
    pub backpressure_pauses: Arc<Counter>,
    pub queue_depth: Arc<Gauge>,
    pub open_connections: Arc<Gauge>,
    set: InstrumentSet,
    latencies: Mutex<LatencyRing>,
}

struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
    full: bool,
}

impl StatsInner {
    pub(crate) fn new() -> StatsInner {
        let set = InstrumentSet::new("server");
        StatsInner {
            submitted: set.counter("egemm_serve_requests_total"),
            admitted: set.counter("egemm_serve_admitted_total"),
            rejected_busy: set.counter("egemm_serve_busy_rejects_total"),
            rejected_invalid: set.counter("egemm_serve_invalid_total"),
            timed_out_before: set.counter("egemm_serve_deadline_misses_total{stage=\"queued\"}"),
            timed_out_after: set.counter("egemm_serve_deadline_misses_total{stage=\"dispatched\"}"),
            completed: set.counter("egemm_serve_completed_total"),
            engine_failures: set.counter("egemm_serve_engine_failures_total"),
            engine_calls: set.counter("egemm_serve_engine_calls_total"),
            dispatched: set.counter("egemm_serve_dispatched_total"),
            coalesced: set.counter("egemm_serve_batched_requests_total"),
            dedup_hits: set.counter("egemm_serve_dedup_hits_total"),
            result_cache_hits: set.counter("egemm_serve_result_cache_hits_total"),
            result_cache_misses: set.counter("egemm_serve_result_cache_misses_total"),
            result_cache_evictions: set.counter("egemm_serve_result_cache_evictions_total"),
            result_cache_bytes: set.gauge("egemm_serve_result_cache_bytes"),
            backpressure_pauses: set.counter("egemm_serve_backpressure_pauses_total"),
            queue_depth: set.gauge("egemm_serve_queue_depth"),
            open_connections: set.gauge("egemm_serve_open_connections"),
            set,
            latencies: Mutex::new(LatencyRing {
                samples: Vec::with_capacity(LATENCY_RING),
                next: 0,
                full: false,
            }),
        }
    }

    /// The label on every series of this server, e.g. `server="4"`.
    pub(crate) fn label(&self) -> &str {
        self.set.label()
    }

    /// Record one admission-to-response latency.
    pub(crate) fn record_latency(&self, ns: u64) {
        let mut ring = lock_unpoisoned(&self.latencies);
        if ring.samples.len() < LATENCY_RING {
            ring.samples.push(ns);
        } else {
            ring.full = true;
            let at = ring.next;
            ring.samples[at] = ns;
        }
        ring.next = (ring.next + 1) % LATENCY_RING;
    }

    /// Read every counter, plus the engine-side totals that live on
    /// `rt`'s instruments (staging savings, steals, panel reuse).
    pub(crate) fn snapshot(&self, rt: &EngineRuntime) -> ServeStats {
        let (p50_ns, p99_ns) = {
            let ring = lock_unpoisoned(&self.latencies);
            quantiles(&ring.samples)
        };
        let cache = rt.cache_stats();
        let sched = rt.sched_stats();
        ServeStats {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            rejected_busy: self.rejected_busy.get(),
            rejected_invalid: self.rejected_invalid.get(),
            timed_out_before: self.timed_out_before.get(),
            timed_out_after: self.timed_out_after.get(),
            completed: self.completed.get(),
            engine_failures: self.engine_failures.get(),
            engine_calls: self.engine_calls.get(),
            dispatched: self.dispatched.get(),
            coalesced: self.coalesced.get(),
            dedup_hits: self.dedup_hits.get(),
            result_cache_hits: self.result_cache_hits.get(),
            result_cache_misses: self.result_cache_misses.get(),
            result_cache_evictions: self.result_cache_evictions.get(),
            result_cache_bytes: self.result_cache_bytes.get() as u64,
            bytes_staging_saved: cache.bytes_staging_saved,
            tiles_stolen: sched.tiles_stolen,
            panel_reuse_hits: sched.panel_reuse_hits,
            p50_ns,
            p99_ns,
        }
    }
}

/// Nearest-rank quantiles over the retained samples (0 when empty).
fn quantiles(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| {
        let i = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[i.clamp(1, sorted.len()) - 1]
    };
    (rank(0.50), rank(0.99))
}

/// Point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests presented to [`crate::Client::submit`].
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Rejected with [`crate::ServeError::Busy`] (queue full).
    pub rejected_busy: u64,
    /// Rejected at validation.
    pub rejected_invalid: u64,
    /// Deadline expired while queued (no engine time spent).
    pub timed_out_before: u64,
    /// Result computed but delivered past its deadline.
    pub timed_out_after: u64,
    /// Requests answered with a result inside their deadline.
    pub completed: u64,
    /// Requests answered [`crate::ServeError::Engine`] (caught panics).
    pub engine_failures: u64,
    /// Engine calls the scheduler issued.
    pub engine_calls: u64,
    /// Requests served through those engine calls.
    pub dispatched: u64,
    /// Requests that shared an engine call with at least one other.
    pub coalesced: u64,
    /// Requests answered by attaching to an identical in-flight request
    /// (the dedupe table): no queue slot, no engine dispatch of their
    /// own.
    pub dedup_hits: u64,
    /// Content-addressed result cache hits (served without any
    /// dispatch).
    pub result_cache_hits: u64,
    /// Result-cache lookups that missed (0 while the cache is disabled).
    pub result_cache_misses: u64,
    /// Results evicted to respect the cache's byte budget.
    pub result_cache_evictions: u64,
    /// Bytes currently resident in the result cache.
    pub result_cache_bytes: u64,
    /// Split-plane staging bytes the engine's fused split-and-pack
    /// pipeline avoided over the lifetime of the server's engine
    /// runtime. Read off the runtime's counters at snapshot time (not a
    /// serve-side counter), so it covers every dispatch through that
    /// runtime.
    pub bytes_staging_saved: u64,
    /// Tiles moved between engine workers by work-stealing (read off
    /// the engine runtime's counters, like `bytes_staging_saved`).
    pub tiles_stolen: u64,
    /// B panels served from the engine's cooperative panel store
    /// instead of being re-packed per tile (same runtime sourcing).
    pub panel_reuse_hits: u64,
    /// Median admission-to-response latency over the retained window.
    pub p50_ns: u64,
    /// 99th-percentile latency over the retained window.
    pub p99_ns: u64,
}

impl ServeStats {
    /// Requests per engine call: > 1.0 means the batcher is coalescing.
    /// 0.0 before the first dispatch.
    pub fn batched_ratio(&self) -> f64 {
        if self.engine_calls == 0 {
            0.0
        } else {
            self.dispatched as f64 / self.engine_calls as f64
        }
    }

    /// Result-cache hit ratio over all lookups while enabled, 0.0 idle.
    pub fn result_cache_hit_ratio(&self) -> f64 {
        let total = self.result_cache_hits + self.result_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.result_cache_hits as f64 / total as f64
        }
    }

    /// JSON rendering (hand-rolled like every exporter in this repo).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"admitted\":{},\"rejected_busy\":{},\"rejected_invalid\":{},\
             \"timed_out_before\":{},\"timed_out_after\":{},\"completed\":{},\
             \"engine_failures\":{},\"engine_calls\":{},\"dispatched\":{},\"coalesced\":{},\
             \"batched_ratio\":{:.4},\"dedup_hits\":{},\"result_cache_hits\":{},\
             \"result_cache_misses\":{},\"result_cache_evictions\":{},\"result_cache_bytes\":{},\
             \"bytes_staging_saved\":{},\"tiles_stolen\":{},\
             \"panel_reuse_hits\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            self.submitted,
            self.admitted,
            self.rejected_busy,
            self.rejected_invalid,
            self.timed_out_before,
            self.timed_out_after,
            self.completed,
            self.engine_failures,
            self.engine_calls,
            self.dispatched,
            self.coalesced,
            self.batched_ratio(),
            self.dedup_hits,
            self.result_cache_hits,
            self.result_cache_misses,
            self.result_cache_evictions,
            self.result_cache_bytes,
            self.bytes_staging_saved,
            self.tiles_stolen,
            self.panel_reuse_hits,
            self.p50_ns,
            self.p99_ns,
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted: {} ok, {} busy, {} invalid, {} expired ({} late), {} engine-failed; \
             {} engine call(s) for {} dispatched ({:.2}x batched); \
             {} deduped, {} memoized ({:.1} KiB resident, {} evicted); \
             {:.1} KiB staging saved; {} tile(s) stolen, {} panel(s) reused; \
             p50 {:.3} ms, p99 {:.3} ms",
            self.submitted,
            self.completed,
            self.rejected_busy,
            self.rejected_invalid,
            self.timed_out_before + self.timed_out_after,
            self.timed_out_after,
            self.engine_failures,
            self.engine_calls,
            self.dispatched,
            self.batched_ratio(),
            self.dedup_hits,
            self.result_cache_hits,
            self.result_cache_bytes as f64 / 1024.0,
            self.result_cache_evictions,
            self.bytes_staging_saved as f64 / 1024.0,
            self.tiles_stolen,
            self.panel_reuse_hits,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantiles(&xs), (50, 99));
        assert_eq!(quantiles(&[7]), (7, 7));
        assert_eq!(quantiles(&[]), (0, 0));
    }

    #[test]
    fn latency_ring_overwrites_oldest() {
        let s = StatsInner::new();
        for i in 0..(LATENCY_RING as u64 + 10) {
            s.record_latency(i);
        }
        let ring = lock_unpoisoned(&s.latencies);
        assert_eq!(ring.samples.len(), LATENCY_RING);
        assert!(ring.full);
        // The first 10 slots were overwritten by the newest samples.
        assert_eq!(ring.samples[0], LATENCY_RING as u64);
        assert_eq!(ring.samples[9], LATENCY_RING as u64 + 9);
        assert_eq!(ring.samples[10], 10);
    }

    #[test]
    fn batched_ratio_and_json() {
        let s = StatsInner::new();
        s.engine_calls.add(4);
        s.dispatched.add(10);
        let snap = s.snapshot(&EngineRuntime::new(Default::default()));
        assert!((snap.batched_ratio() - 2.5).abs() < 1e-12);
        let j = snap.to_json();
        assert!(j.contains("\"batched_ratio\":2.5000"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
