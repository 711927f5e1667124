//! The engine runtime's counters, one registry instrument each.
//!
//! Every count the packed-operand cache, the kernel cache and the tile
//! scheduler keep lives here and nowhere else: a labelled
//! [`InstrumentSet`] (`runtime="N"`) registered when the runtime is
//! built and removed from the registry when it drops. The cache,
//! kernel cache and workers bump these handles directly (one relaxed
//! add each), `render_prometheus` exports them as typed series, and
//! [`CacheStats`] / [`SchedStats`] are plain reads of the same values —
//! so the in-process views and the exposition can never disagree.
//!
//! The counters back snapshot views, so they are never gated by
//! `EGEMM_METRICS`.

use std::sync::Arc;

use crate::telemetry::metrics::{Counter, Gauge, InstrumentSet};

use super::cache::CacheStats;
use super::sched::SchedStats;

/// One runtime's instruments.
pub(crate) struct Counters {
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    /// Packed-panel bytes currently resident in the cache (a level).
    pub(crate) cache_bytes: Arc<Gauge>,
    pub(crate) packs: Arc<Counter>,
    pub(crate) staging_saved: Arc<Counter>,
    pub(crate) jit_compiles: Arc<Counter>,
    pub(crate) jit_hits: Arc<Counter>,
    pub(crate) jit_compile_ns: Arc<Counter>,
    /// Executable kernel bytes resident (a level).
    pub(crate) jit_code_bytes: Arc<Gauge>,
    pub(crate) steals: Arc<Counter>,
    pub(crate) tiles_stolen: Arc<Counter>,
    pub(crate) panels_packed: Arc<Counter>,
    pub(crate) panel_reuse_hits: Arc<Counter>,
    set: InstrumentSet,
}

impl Counters {
    /// Register a fresh, zeroed set under a new `runtime="N"` label.
    pub(crate) fn register() -> Counters {
        let set = InstrumentSet::new("runtime");
        Counters {
            cache_hits: set.counter("egemm_cache_hits_total"),
            cache_misses: set.counter("egemm_cache_misses_total"),
            cache_evictions: set.counter("egemm_cache_evictions_total"),
            cache_bytes: set.gauge("egemm_cache_resident_bytes"),
            packs: set.counter("egemm_cache_packs_total"),
            staging_saved: set.counter("egemm_bytes_staging_saved_total"),
            jit_compiles: set.counter("egemm_jit_compiles_total"),
            jit_hits: set.counter("egemm_jit_cache_hits_total"),
            jit_compile_ns: set.counter("egemm_jit_compile_ns_total"),
            jit_code_bytes: set.gauge("egemm_jit_code_bytes"),
            steals: set.counter("egemm_sched_steals_total"),
            tiles_stolen: set.counter("egemm_sched_tiles_stolen_total"),
            panels_packed: set.counter("egemm_sched_panels_packed_total"),
            panel_reuse_hits: set.counter("egemm_panel_reuse_hits_total"),
            set,
        }
    }

    /// The label on every series of this runtime, e.g. `runtime="3"`.
    pub(crate) fn label(&self) -> &str {
        self.set.label()
    }

    pub(crate) fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.get(),
            misses: self.cache_misses.get(),
            evictions: self.cache_evictions.get(),
            bytes: self.cache_bytes.get() as u64,
            packs: self.packs.get(),
            bytes_staging_saved: self.staging_saved.get(),
            jit_compiles: self.jit_compiles.get(),
            jit_hits: self.jit_hits.get(),
            jit_compile_ns: self.jit_compile_ns.get(),
            jit_code_bytes: self.jit_code_bytes.get() as u64,
        }
    }

    pub(crate) fn sched_stats(&self) -> SchedStats {
        SchedStats {
            steals: self.steals.get(),
            tiles_stolen: self.tiles_stolen.get(),
            panels_packed: self.panels_packed.get(),
            panel_reuse_hits: self.panel_reuse_hits.get(),
        }
    }
}
