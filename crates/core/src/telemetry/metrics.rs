//! Process-wide lock-free metrics registry: the one store for every
//! count the engine and the serving tier keep.
//!
//! The registry aggregates across calls and across time — unlike
//! [`GemmReport`](super::GemmReport), which is scoped to one traced
//! call. Process-wide series ([`counter`], [`gauge`], [`histogram`])
//! are registered once by name and kept for the process; call sites
//! cache the handle in a `OnceLock`. An [`InstrumentSet`] holds the
//! counters and gauges of one engine runtime or server, labelled with
//! the owner's process-unique id (`runtime="3"`) and removed from the
//! registry when the owner drops; the owner's snapshot views
//! (`CacheStats`, `SchedStats`, `ServeStats`) are plain reads of them.
//! Either way the hot path is one relaxed atomic add on a handle the
//! caller already holds.
//!
//! Series names may embed a fixed label set:
//! `egemm_engine_phase_ns_total{phase="tile"}`. The part before `{` is
//! the family name; [`snapshot`] sorts by family, then labels, so one
//! family's series render contiguously (`telemetry::render_prometheus`).
//!
//! Recording is on by default; `EGEMM_METRICS=0` (parsed once via
//! `envcfg`, same one-time-warning contract as `EGEMM_THREADS`) silences
//! the [`enabled`]-gated process-wide series: histograms, call and
//! phase totals, the probe. Instance-set counters back snapshot views
//! and always count.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

use crate::envcfg::{self, EnvNum};

use super::hist::{HistSnapshot, LogHistogram};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` (one relaxed atomic add).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depth, resident
/// bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value (one relaxed store).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta`, which may be negative (one relaxed atomic add).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<LogHistogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    /// The owning [`InstrumentSet`]'s id; 0 for process-wide series.
    owner: u64,
    slot: Slot,
}

static REGISTRY: Mutex<Vec<Series>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<Series>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The series named `name`, registering `fresh` if there is none.
/// Panics if the name is registered as a different instrument kind.
fn register(name: String, owner: u64, fresh: Slot) -> Slot {
    let mut reg = registry();
    if let Some(s) = reg.iter().find(|s| s.name == name) {
        let (have, want) = (s.slot.kind(), fresh.kind());
        assert_eq!(
            have, want,
            "metrics series {name:?} already registered as a {have}, requested as a {want}"
        );
        return s.slot.clone();
    }
    reg.push(Series {
        name,
        owner,
        slot: fresh.clone(),
    });
    fresh
}

fn counter_in(name: String, owner: u64) -> Arc<Counter> {
    match register(name, owner, Slot::Counter(Arc::default())) {
        Slot::Counter(c) => c,
        _ => unreachable!(),
    }
}

fn gauge_in(name: String, owner: u64) -> Arc<Gauge> {
    match register(name, owner, Slot::Gauge(Arc::default())) {
        Slot::Gauge(g) => g,
        _ => unreachable!(),
    }
}

/// Find or create the process-wide counter named `name` (labels may be
/// embedded: `foo_total{phase="tile"}`). Panics if the name is already
/// registered as a different instrument kind. Cache the result in a
/// `OnceLock` at the call site; this function takes the registry lock.
pub fn counter(name: &str) -> Arc<Counter> {
    counter_in(name.to_string(), 0)
}

/// Find or create the process-wide gauge named `name`. Same contract as
/// [`counter`].
pub fn gauge(name: &str) -> Arc<Gauge> {
    gauge_in(name.to_string(), 0)
}

/// Find or create the process-wide histogram named `name`. Same
/// contract as [`counter`].
pub fn histogram(name: &str) -> Arc<LogHistogram> {
    match register(
        name.to_string(),
        0,
        Slot::Hist(Arc::new(LogHistogram::new())),
    ) {
        Slot::Hist(h) => h,
        _ => unreachable!(),
    }
}

/// The counters and gauges of one engine runtime or server, registered
/// under a process-unique label and removed from the registry when the
/// set drops — so building a runtime per property-test case leaves no
/// series behind.
#[derive(Debug)]
pub struct InstrumentSet {
    id: u64,
    label: String,
}

impl InstrumentSet {
    /// A new, empty set labelled `{kind}="N"`, where `N` is unique for
    /// the life of the process.
    pub fn new(kind: &str) -> InstrumentSet {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        InstrumentSet {
            id,
            label: format!("{kind}=\"{id}\""),
        }
    }

    /// The label every series of this set carries, e.g. `runtime="3"`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// `family` (which may embed extra labels) with this set's label
    /// prepended to its label body.
    fn series(&self, family: &str) -> String {
        match family.split_once('{') {
            Some((f, rest)) => format!("{f}{{{},{rest}", self.label),
            None => format!("{family}{{{}}}", self.label),
        }
    }

    /// Register a counter of `family` in this set.
    pub fn counter(&self, family: &str) -> Arc<Counter> {
        counter_in(self.series(family), self.id)
    }

    /// Register a gauge of `family` in this set.
    pub fn gauge(&self, family: &str) -> Arc<Gauge> {
        gauge_in(self.series(family), self.id)
    }
}

impl Drop for InstrumentSet {
    fn drop(&mut self) {
        registry().retain(|s| s.owner != self.id);
    }
}

/// One series value in a [`snapshot`].
#[derive(Debug, Clone)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    /// Boxed: a snapshot is ~50 words, far larger than the scalar
    /// variants, and only exists on the scrape path.
    Hist(Box<HistSnapshot>),
}

/// Point-in-time copy of every registered series, sorted by family and
/// then labels so families render contiguously.
pub fn snapshot() -> Vec<(String, SeriesValue)> {
    let mut out: Vec<(String, SeriesValue)> = registry()
        .iter()
        .map(|s| {
            let value = match &s.slot {
                Slot::Counter(c) => SeriesValue::Counter(c.get()),
                Slot::Gauge(g) => SeriesValue::Gauge(g.get()),
                Slot::Hist(h) => SeriesValue::Hist(Box::new(h.snapshot())),
            };
            (s.name.clone(), value)
        })
        .collect();
    out.sort_by(|a, b| family_then_labels(&a.0).cmp(&family_then_labels(&b.0)));
    out
}

fn family_then_labels(series: &str) -> (&str, &str) {
    series.split_once('{').unwrap_or((series, ""))
}

// ---------------------------------------------------------------------------
// Recording gate (mirrors the tracing gate in telemetry/mod.rs, but
// defaults ON — metrics are the always-on plane, tracing is opt-in).

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_ONCE: Once = Once::new();

/// Whether metric recording is on (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically enable/disable recording. Wins over the
/// environment: consumes the env gate so a later [`init_from_env`] is a
/// no-op.
pub fn set_enabled(on: bool) {
    ENV_ONCE.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Apply `EGEMM_METRICS` once per process (`0` disables; anything else
/// that parses enables; garbage warns once and keeps the default ON).
pub fn init_from_env() {
    ENV_ONCE.call_once(|| match envcfg::read_usize("EGEMM_METRICS") {
        EnvNum::Unset => {}
        EnvNum::Parsed(v, _) => ENABLED.store(v != 0, Ordering::Relaxed),
        EnvNum::Garbage(raw) => {
            static WARN: Once = Once::new();
            envcfg::warn_once(&WARN, || {
                format!("egemm: ignoring EGEMM_METRICS={raw:?} (not an integer); metrics stay on")
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Engine-side recording helpers. Call sites cache handles so each event
// is one (or a few) relaxed adds.

/// Shape bucket for per-size throughput series, keyed by total flops
/// (2·m·n·k): tiny < 2^20 <= small < 2^26 <= medium < 2^32 <= large.
pub fn shape_bucket(flops: u64) -> &'static str {
    if flops < 1 << 20 {
        "tiny"
    } else if flops < 1 << 26 {
        "small"
    } else if flops < 1 << 32 {
        "medium"
    } else {
        "large"
    }
}

/// Record one engine-level GEMM call (`batch` problems solved in one
/// dispatch, `flops` total across the batch) taking `wall_ns`.
pub fn record_gemm_call(flops: u64, batch: u64, wall_ns: u64) {
    if !enabled() {
        return;
    }
    static CALLS: OnceLock<Arc<Counter>> = OnceLock::new();
    static WALL: OnceLock<Arc<LogHistogram>> = OnceLock::new();
    CALLS
        .get_or_init(|| counter("egemm_gemm_calls_total"))
        .add(batch);
    WALL.get_or_init(|| histogram("egemm_gemm_wall_ns"))
        .observe(wall_ns);
    // MFLOP/s into a per-shape-bucket histogram. Four fixed buckets, so
    // four cached handles.
    static MFLOPS: OnceLock<[Arc<LogHistogram>; 4]> = OnceLock::new();
    let hists = MFLOPS.get_or_init(|| {
        ["tiny", "small", "medium", "large"]
            .map(|b| histogram(&format!("egemm_gemm_mflops{{shape=\"{b}\"}}")))
    });
    let idx = match shape_bucket(flops) {
        "tiny" => 0,
        "small" => 1,
        "medium" => 2,
        _ => 3,
    };
    if wall_ns > 0 {
        let mflops = (flops as u128 * 1_000 / wall_ns as u128) as u64;
        hists[idx].observe(mflops);
    }
}

/// Fold a traced call's per-phase timings and drop count into the
/// registry (invoked by `GemmReport::collect`, so aggregate phase
/// accounting only accrues while tracing is on — untraced calls still
/// count through [`record_gemm_call`]).
pub fn record_report(phase_ns: &[u64], spans_dropped: u64) {
    if !enabled() {
        return;
    }
    static PHASES: OnceLock<Vec<Arc<Counter>>> = OnceLock::new();
    let phases = PHASES.get_or_init(|| {
        super::Phase::ALL
            .iter()
            .map(|p| {
                counter(&format!(
                    "egemm_engine_phase_ns_total{{phase=\"{}\"}}",
                    p.name()
                ))
            })
            .collect()
    });
    for (c, &ns) in phases.iter().zip(phase_ns.iter()) {
        if ns > 0 {
            c.add(ns);
        }
    }
    if spans_dropped > 0 {
        static DROPPED: OnceLock<Arc<Counter>> = OnceLock::new();
        DROPPED
            .get_or_init(|| counter("egemm_trace_spans_dropped_total"))
            .add(spans_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_or_create_returns_same_handle() {
        let a = counter("test_metrics_same_handle_total");
        let b = counter("test_metrics_same_handle_total");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_contains_registered_series_sorted() {
        counter("test_metrics_zzz_total").inc();
        gauge("test_metrics_aaa_depth").set(-4);
        histogram("test_metrics_mmm_ns").observe(9);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test_metrics_"))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"test_metrics_aaa_depth"));
        let gauge_val = snap
            .iter()
            .find(|(n, _)| n == "test_metrics_aaa_depth")
            .unwrap();
        match gauge_val.1 {
            SeriesValue::Gauge(v) => assert_eq!(v, -4),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn instrument_set_labels_series_and_unregisters_on_drop() {
        let set = InstrumentSet::new("test_owner");
        let id = set.label().to_string();
        set.counter("test_set_events_total").add(2);
        set.counter("test_set_stage_total{stage=\"queued\"}").inc();
        set.gauge("test_set_level").set(-3);
        let series = |name: &str| {
            snapshot()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
        };
        let events = format!("test_set_events_total{{{id}}}");
        let staged = format!("test_set_stage_total{{{id},stage=\"queued\"}}");
        assert!(matches!(series(&events), Some(SeriesValue::Counter(2))));
        assert!(matches!(series(&staged), Some(SeriesValue::Counter(1))));
        assert!(matches!(
            series(&format!("test_set_level{{{id}}}")),
            Some(SeriesValue::Gauge(-3))
        ));
        // A second set of the same kind gets a different label.
        assert_ne!(InstrumentSet::new("test_owner").label(), id);
        drop(set);
        assert!(series(&events).is_none() && series(&staged).is_none());
    }

    #[test]
    fn shape_buckets_split_at_documented_edges() {
        assert_eq!(shape_bucket((1 << 20) - 1), "tiny");
        assert_eq!(shape_bucket(1 << 20), "small");
        assert_eq!(shape_bucket(1 << 26), "medium");
        assert_eq!(shape_bucket(1 << 32), "large");
    }
}
