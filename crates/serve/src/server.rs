//! The server: admission, the bucketing scheduler thread, dispatch.

use crate::dedupe::{Attach, Follower, InFlightTable, ResultCache, ResultKey};
use crate::queue::{lock_unpoisoned, AdmissionQueue, BucketKey, Pending, Ticket, TicketInner};
use crate::request::{GemmRequest, JobKind, ServeError, ServeOutput};
use crate::stats::{ServeStats, StatsInner};
use egemm::telemetry::{self, GemmReport, RequestTrace};
use egemm::Egemm;
use egemm_matrix::Matrix;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving policy knobs. Defaults suit an interactive mixed-shape load;
/// the loadgen smoke profile shrinks the queue and stretches the window
/// to force the backpressure paths deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Admission queue bound; a full queue answers [`ServeError::Busy`].
    pub queue_cap: usize,
    /// Most requests coalesced into one engine call.
    pub max_batch: usize,
    /// How long the scheduler lingers after waking before it drains the
    /// queue, letting concurrent submitters join the same dispatch
    /// cycle (and therefore the same buckets). Zero dispatches eagerly.
    pub batch_window: Duration,
    /// Accept non-finite (NaN/Inf) operand values. Off by default: a
    /// NaN poisons every product it touches, so the serving tier
    /// rejects it at validation rather than burn engine time.
    pub allow_nonfinite: bool,
    /// Byte budget of the content-addressed result cache; `0` disables
    /// memoization entirely. Overridable per process via
    /// `EGEMM_SERVE_RESULT_CACHE_BYTES` (see [`ServerConfig::from_env`]).
    pub result_cache_bytes: usize,
    /// Coalesce identical concurrent requests into one engine dispatch
    /// (the in-flight dedupe table). On by default: the key covers the
    /// full content of every operand, so outputs are bit-identical
    /// either way and only the work count changes.
    pub dedupe: bool,
}

/// Default result-cache budget: big enough to absorb a hot working set
/// of repeated requests, small next to the engine's packed-operand
/// cache (256 MiB).
const DEFAULT_RESULT_CACHE_BYTES: usize = 32 << 20;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 256,
            max_batch: 64,
            batch_window: Duration::ZERO,
            allow_nonfinite: false,
            result_cache_bytes: DEFAULT_RESULT_CACHE_BYTES,
            dedupe: true,
        }
    }
}

impl ServerConfig {
    /// Defaults with environment overrides applied:
    /// `EGEMM_SERVE_RESULT_CACHE_BYTES` resizes (or, at `0`, disables)
    /// the memoized result cache. Follows the workspace-wide env
    /// contract ([`egemm::envcfg`]): read once, garbage ignored with one
    /// stderr warning.
    pub fn from_env() -> ServerConfig {
        use egemm::envcfg::{read_usize, warn_once, EnvNum};
        static WARN: std::sync::Once = std::sync::Once::new();
        let mut cfg = ServerConfig::default();
        match read_usize("EGEMM_SERVE_RESULT_CACHE_BYTES") {
            EnvNum::Unset => {}
            EnvNum::Parsed(v, _) => cfg.result_cache_bytes = v,
            EnvNum::Garbage(raw) => warn_once(&WARN, || {
                format!(
                    "egemm-serve: ignoring EGEMM_SERVE_RESULT_CACHE_BYTES={raw:?} \
                     (not a byte count); using {DEFAULT_RESULT_CACHE_BYTES}"
                )
            }),
        }
        cfg
    }
}

pub(crate) struct ServerInner {
    engine: Egemm,
    cfg: ServerConfig,
    queue: AdmissionQueue,
    stats: StatsInner,
    /// Source of process-unique request ids (starts at 1; 0 is never a
    /// valid id, so exporters can treat it as "untracked").
    next_request_id: AtomicU64,
    /// Keys with a primary currently queued or dispatched; identical
    /// concurrent requests attach here instead of enqueueing.
    inflight: InFlightTable,
    /// Memoized whole-result cache (content-addressed, byte-budgeted).
    results: ResultCache,
}

/// A primary's successful outcome as fanned to followers: the computed
/// product, how many requests shared the dispatch, and the dispatching
/// call's report if tracing collected one.
type PrimaryOk<'a> = (&'a Matrix<f32>, usize, Option<&'a Arc<GemmReport>>);

impl ServerInner {
    fn stats_snapshot(&self) -> ServeStats {
        self.stats.snapshot(self.engine.runtime())
    }

    /// Clear `key`'s in-flight entry and fan the primary's outcome out to
    /// every follower. On success the result is memoized *before* the
    /// entry is cleared, so a concurrent identical submit observes one of
    /// the two layers (in-flight or cache) and never recomputes in the
    /// handover window while the cache is on.
    fn resolve(&self, key: &ResultKey, outcome: Result<PrimaryOk<'_>, &ServeError>) {
        if let Ok((d, _, _)) = outcome {
            let evicted = self.results.insert(*key, d);
            self.stats.result_cache_evictions.add(evicted);
        }
        let followers = self.inflight.resolve(key);
        if followers.is_empty() {
            return;
        }
        let finished = Instant::now();
        for f in followers {
            match outcome {
                Err(e) => {
                    if matches!(e, ServeError::Engine(_)) {
                        self.stats.engine_failures.inc();
                    }
                    f.ticket.fulfill(Err(e.clone()));
                }
                Ok((d, batched_with, report)) => {
                    // A follower may carry its own deadline even though
                    // the primary did not; honour it at delivery.
                    if f.deadline.is_some_and(|dl| dl <= finished) {
                        self.stats.timed_out_after.inc();
                        f.ticket.fulfill(Err(ServeError::TimedOut {
                            after_dispatch: true,
                        }));
                        continue;
                    }
                    let total_ns = finished.duration_since(f.admitted).as_nanos() as u64;
                    self.stats.record_latency(total_ns);
                    self.stats.completed.inc();
                    f.ticket.fulfill(Ok(ServeOutput {
                        d: d.clone(),
                        request_id: f.request_id,
                        shape: key.shape,
                        batched_with,
                        cached: false,
                        queue_ns: total_ns,
                        total_ns,
                        report: report.cloned(),
                    }));
                }
            }
        }
    }
}

/// A running serving instance: one scheduler thread over one shared
/// [`Egemm`] (and therefore one persistent runtime: pool + cache).
/// Dropping the server performs a graceful shutdown — every admitted
/// request is answered before the scheduler exits.
pub struct Server {
    inner: Arc<ServerInner>,
    sched: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server around `engine`. The engine's runtime is shared
    /// by every dispatch, so bucket after bucket hits the same packed
    /// operand cache and parked worker pool.
    pub fn start(engine: Egemm, cfg: ServerConfig) -> Server {
        let stats = StatsInner::new();
        let inner = Arc::new(ServerInner {
            engine,
            queue: AdmissionQueue::new(cfg.queue_cap, stats.queue_depth.clone()),
            next_request_id: AtomicU64::new(1),
            inflight: InFlightTable::default(),
            results: ResultCache::new(cfg.result_cache_bytes, stats.result_cache_bytes.clone()),
            stats,
            cfg,
        });
        let sched_inner = Arc::clone(&inner);
        let sched = std::thread::Builder::new()
            .name("egemm-serve".into())
            .spawn(move || scheduler(&sched_inner))
            .expect("spawn serve scheduler");
        Server {
            inner,
            sched: Some(sched),
        }
    }

    /// A cloneable in-process submission handle.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_snapshot()
    }

    /// Graceful shutdown: stop admitting, drain everything already
    /// queued (every ticket is answered), join the scheduler.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.queue.close();
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// In-process client handle. Clone freely; all clones feed one queue.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ServerInner>,
}

impl Client {
    /// Validate and enqueue a request. Returns immediately: `Ok` with a
    /// [`Ticket`] to wait on, or the admission error ([`ServeError::Busy`],
    /// [`ServeError::Invalid`], [`ServeError::Shutdown`]).
    pub fn submit(&self, req: GemmRequest) -> Result<Ticket, ServeError> {
        let inner = &*self.inner;
        inner.stats.submitted.inc();
        if let Err(msg) = validate(&req, inner.cfg.allow_nonfinite) {
            inner.stats.rejected_invalid.inc();
            return Err(ServeError::Invalid(msg));
        }
        let admitted = Instant::now();
        let request_id = inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let deadline = req.deadline.map(|d| admitted + d);
        let ticket = TicketInner::new();

        // Content-address the request once; the bucket key reuses the B
        // fingerprint so operands are hashed exactly one time each.
        let content = ResultKey::of(&req, kind_discriminant(&req));

        // Layer 1: memoized result cache. A hit answers without touching
        // the queue at all (and therefore works even under Busy).
        if let Some(d) = inner.results.get(&content) {
            inner.stats.result_cache_hits.inc();
            let total_ns = admitted.elapsed().as_nanos() as u64;
            inner.stats.record_latency(total_ns);
            inner.stats.completed.inc();
            ticket.fulfill(Ok(ServeOutput {
                d: (*d).clone(),
                request_id,
                shape: content.shape,
                batched_with: 1,
                cached: true,
                queue_ns: 0,
                total_ns,
                report: None,
            }));
            return Ok(Ticket { inner: ticket });
        }
        if inner.results.enabled() {
            inner.stats.result_cache_misses.inc();
        }

        // Layer 2: in-flight dedupe. Attach to an identical primary (one
        // dispatch fans out to all of us) or become the primary.
        let result_key = if inner.cfg.dedupe {
            match inner
                .inflight
                .offer(content, deadline.is_some(), || Follower {
                    ticket: Arc::clone(&ticket),
                    admitted,
                    deadline,
                    request_id,
                }) {
                Attach::Followed => {
                    inner.stats.dedup_hits.inc();
                    inner.stats.admitted.inc();
                    return Ok(Ticket { inner: ticket });
                }
                Attach::Primary => Some(content),
                Attach::Refused => None,
            }
        } else {
            None
        };

        let pending = Pending {
            key: BucketKey {
                shape: content.shape,
                scheme: content.scheme,
                b_fp: content.b_fp,
                kind: content.kind,
            },
            admitted,
            deadline,
            ticket: Arc::clone(&ticket),
            request_id,
            admitted_ns: telemetry::now_ns(),
            result_key,
            req,
        };
        match inner.queue.push(pending) {
            Ok(()) => {
                inner.stats.admitted.inc();
                Ok(Ticket { inner: ticket })
            }
            Err(e) => {
                if matches!(e, ServeError::Busy { .. }) {
                    inner.stats.rejected_busy.inc();
                }
                // The primary never enqueued: clear its registration and
                // answer any follower that raced in with the same
                // admission verdict.
                if result_key.is_some() {
                    for f in inner.inflight.abort(&content) {
                        f.ticket.fulfill(Err(e.clone()));
                    }
                }
                Err(e)
            }
        }
    }

    /// Submit and block for the response.
    pub fn call(&self, req: GemmRequest) -> Result<ServeOutput, ServeError> {
        self.submit(req)?.wait()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats_snapshot()
    }

    /// The full Prometheus text exposition for this process
    /// ([`telemetry::render_prometheus`]): every engine and serve series
    /// in the registry, this server's under
    /// [`metrics_label`](Client::metrics_label) and its engine
    /// runtime's under `runtime.metrics_label()`. This is what the TCP
    /// frontends' `METRICS` verb returns.
    pub fn metrics_text(&self) -> String {
        telemetry::render_prometheus()
    }

    /// The label on every registry series of this server, e.g.
    /// `server="4"`. The series leave the registry when the server and
    /// its last client drop.
    pub fn metrics_label(&self) -> &str {
        self.inner.stats.label()
    }

    /// The server's instruments, for the frontends' connection and
    /// backpressure counts.
    pub(crate) fn counters(&self) -> &StatsInner {
        &self.inner.stats
    }
}

/// Admission-time validation: shape agreement and the finite-value
/// policy. Anything the engine would reject by panicking *for this
/// request alone* (e.g. a split-K slice count out of range) is instead
/// left to the dispatch panic barrier, which converts it into a
/// per-request [`ServeError::Engine`].
fn validate(req: &GemmRequest, allow_nonfinite: bool) -> Result<(), String> {
    let (m, k) = (req.a.rows(), req.a.cols());
    let (kb, n) = (req.b.rows(), req.b.cols());
    if m == 0 || k == 0 || n == 0 {
        return Err(format!("degenerate operands: A {m}x{k}, B {kb}x{n}"));
    }
    if k != kb {
        return Err(format!(
            "inner dimensions disagree: A is {m}x{k}, B is {kb}x{n}"
        ));
    }
    if let Some(c) = &req.c {
        if (c.rows(), c.cols()) != (m, n) {
            return Err(format!("C is {}x{}, expected {m}x{n}", c.rows(), c.cols()));
        }
    }
    if !allow_nonfinite {
        for (name, mat) in [
            ("A", Some(&req.a)),
            ("B", Some(&req.b)),
            ("C", req.c.as_ref()),
        ] {
            let Some(mat) = mat else { continue };
            if let Some(i) = mat.as_slice().iter().position(|x| !x.is_finite()) {
                return Err(format!(
                    "non-finite value {} in {name} at flat index {i} \
                     (finite-only policy; see ServerConfig::allow_nonfinite)",
                    mat.as_slice()[i]
                ));
            }
        }
    }
    Ok(())
}

/// Kind discriminant shared by [`BucketKey`] and [`ResultKey`]:
/// 0 = batchable gemm, 1 = gemm-with-C, split-K folds the slice count in.
fn kind_discriminant(req: &GemmRequest) -> u64 {
    match req.kind {
        JobKind::Gemm if req.c.is_none() => 0,
        JobKind::Gemm => 1,
        JobKind::SplitK { slices } => 2 | ((slices as u64) << 2),
    }
}

#[cfg(test)]
fn bucket_key(req: &GemmRequest) -> BucketKey {
    BucketKey {
        shape: req.shape(),
        scheme: req.scheme,
        b_fp: egemm::content_fingerprint(req.b.as_slice()),
        kind: kind_discriminant(req),
    }
}

/// Scheduler thread body. The inner loop is wrapped in a panic barrier:
/// if a cycle somehow unwinds outside the per-dispatch barrier, every
/// request it was holding is answered with [`ServeError::Engine`] and
/// the loop restarts — the server never silently stops answering.
fn scheduler(inner: &ServerInner) {
    loop {
        let exited = catch_unwind(AssertUnwindSafe(|| scheduler_loop(inner)));
        match exited {
            Ok(()) => return, // clean shutdown drain finished
            Err(_) => {
                // Answer anything still queued, then resume serving.
                let drained = inner
                    .queue
                    .drain_all(&mut lock_unpoisoned(&inner.queue.state));
                for p in drained {
                    inner.stats.engine_failures.inc();
                    let err =
                        ServeError::Engine("scheduler cycle panicked; request abandoned".into());
                    if let Some(k) = &p.result_key {
                        inner.resolve(k, Err(&err));
                    }
                    p.ticket.fulfill(Err(err));
                }
            }
        }
    }
}

fn scheduler_loop(inner: &ServerInner) {
    loop {
        let snapshot: Vec<Pending> = {
            let mut st = lock_unpoisoned(&inner.queue.state);
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .queue
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if !inner.cfg.batch_window.is_zero() && !st.shutdown {
                // Linger so concurrent submitters join this cycle: drop
                // the lock (admission must stay open), sleep, re-take.
                drop(st);
                std::thread::sleep(inner.cfg.batch_window);
                st = lock_unpoisoned(&inner.queue.state);
            }
            inner.queue.drain_all(&mut st)
        };
        dispatch_cycle(inner, snapshot);
    }
}

/// Group one queue snapshot into buckets (arrival order preserved both
/// across and within buckets) and dispatch each.
fn dispatch_cycle(inner: &ServerInner, snapshot: Vec<Pending>) {
    let mut order: Vec<(BucketKey, Vec<Pending>)> = Vec::new();
    let mut index: HashMap<BucketKey, usize> = HashMap::new();
    for p in snapshot {
        match index.get(&p.key) {
            Some(&i) => order[i].1.push(p),
            None => {
                index.insert(p.key, order.len());
                order.push((p.key, vec![p]));
            }
        }
    }
    for (key, bucket) in order {
        let mut rest = bucket;
        while !rest.is_empty() {
            let take = rest.len().min(inner.cfg.max_batch.max(1));
            let chunk: Vec<Pending> = rest.drain(..take).collect();
            dispatch_chunk(inner, key, chunk);
        }
    }
}

/// Dispatch one bucket chunk as a single engine call (or a short run of
/// single calls for non-batchable kinds), honouring deadlines on both
/// sides of the call and converting engine panics into per-request
/// errors.
/// Per-request metadata retained across the engine call (the matrices
/// themselves move into the call and are lost on a panic).
struct Meta {
    ticket: Arc<TicketInner>,
    admitted: Instant,
    deadline: Option<Instant>,
    request_id: u64,
    admitted_ns: u64,
    /// `Some` when this request is the dedupe primary for its content
    /// key — every outcome below must route through `ServerInner::resolve`.
    result_key: Option<ResultKey>,
}

fn dispatch_chunk(inner: &ServerInner, key: BucketKey, chunk: Vec<Pending>) {
    // Pre-dispatch deadline check: expired requests cost no engine time.
    let now = Instant::now();
    let mut live: Vec<Pending> = Vec::with_capacity(chunk.len());
    for p in chunk {
        if p.deadline.is_some_and(|d| d <= now) {
            inner.stats.timed_out_before.inc();
            let err = ServeError::TimedOut {
                after_dispatch: false,
            };
            // A deadline-carrying primary has no followers (fate-sharing
            // rule) but still owns an in-flight entry to clear.
            if let Some(k) = &p.result_key {
                inner.resolve(k, Err(&err));
            }
            p.ticket.fulfill(Err(err));
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }

    // Tear the metadata off before the matrices move into the engine
    // closure: on a panic the operands are lost mid-call, but every
    // ticket must still be answered.
    let batched_with = live.len();
    let dispatched_at = Instant::now();
    let dispatched_ns = telemetry::now_ns();
    let metas: Vec<Meta> = live
        .iter()
        .map(|p| Meta {
            ticket: Arc::clone(&p.ticket),
            admitted: p.admitted,
            deadline: p.deadline,
            request_id: p.request_id,
            admitted_ns: p.admitted_ns,
            result_key: p.result_key,
        })
        .collect();
    let reqs: Vec<GemmRequest> = live.into_iter().map(|p| p.req).collect();

    inner.stats.engine_calls.inc();
    let engine = inner.engine.clone().with_scheme(key.scheme);
    let result = catch_unwind(AssertUnwindSafe(|| run_engine(&engine, key, reqs)));

    match result {
        Ok((ds, report)) => {
            let finished = Instant::now();
            debug_assert_eq!(ds.len(), metas.len());
            // Stamp the serve-side request timeline into the engine's
            // trace report before sharing it, so exporters can draw
            // per-request spans and flow arrows into the engine lanes.
            let report = report.map(|mut rep| {
                rep.requests = metas
                    .iter()
                    .map(|m| RequestTrace {
                        id: m.request_id,
                        admitted_ns: m.admitted_ns,
                        dispatched_ns,
                    })
                    .collect();
                Arc::new(rep)
            });
            for (d, meta) in ds.into_iter().zip(metas) {
                let total_ns = finished.duration_since(meta.admitted).as_nanos() as u64;
                inner.stats.record_latency(total_ns);
                inner.stats.dispatched.inc();
                if batched_with >= 2 {
                    inner.stats.coalesced.inc();
                }
                // Memoize and fan out to followers before `d` moves into
                // the primary's own response.
                if let Some(k) = &meta.result_key {
                    inner.resolve(k, Ok((&d, batched_with, report.as_ref())));
                }
                if meta.deadline.is_some_and(|dl| dl <= finished) {
                    inner.stats.timed_out_after.inc();
                    meta.ticket.fulfill(Err(ServeError::TimedOut {
                        after_dispatch: true,
                    }));
                } else {
                    inner.stats.completed.inc();
                    meta.ticket.fulfill(Ok(ServeOutput {
                        shape: key.shape,
                        d,
                        request_id: meta.request_id,
                        batched_with,
                        cached: false,
                        queue_ns: dispatched_at.duration_since(meta.admitted).as_nanos() as u64,
                        total_ns,
                        report: report.clone(),
                    }));
                }
            }
        }
        Err(payload) => {
            let msg = panic_message(&payload);
            let err = ServeError::Engine(msg);
            for meta in metas {
                inner.stats.engine_failures.inc();
                if let Some(k) = &meta.result_key {
                    inner.resolve(k, Err(&err));
                }
                meta.ticket.fulfill(Err(err.clone()));
            }
        }
    }
}

/// The actual engine call for one chunk: batched for compatible plain
/// GEMMs, per-request otherwise. Returns per-request products in input
/// order plus the (shared) telemetry report.
#[allow(clippy::type_complexity)]
fn run_engine(
    engine: &Egemm,
    key: BucketKey,
    reqs: Vec<GemmRequest>,
) -> (Vec<Matrix<f32>>, Option<GemmReport>) {
    if key.kind == 0 && reqs.len() > 1 {
        let mut a = Vec::with_capacity(reqs.len());
        let mut b = Vec::with_capacity(reqs.len());
        for r in reqs {
            a.push(r.a);
            b.push(r.b);
        }
        let out = engine.gemm_batched(&a, &b);
        (out.d, out.report)
    } else {
        let mut ds = Vec::with_capacity(reqs.len());
        let mut report = None;
        for r in reqs {
            match r.kind {
                JobKind::Gemm => {
                    let out = engine.gemm_with_c(&r.a, &r.b, r.c.as_ref());
                    report = out.report.or(report);
                    ds.push(out.d);
                }
                JobKind::SplitK { slices } => {
                    let out = engine.gemm_split_k(&r.a, &r.b, slices);
                    report = out.report.or(report);
                    ds.push(out.d);
                }
            }
        }
        (ds, report)
    }
}

fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine call panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm::TilingConfig;
    use egemm_tcsim::DeviceSpec;

    fn server(cfg: ServerConfig) -> Server {
        Server::start(Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER), cfg)
    }

    #[test]
    fn serves_a_simple_request() {
        let s = server(ServerConfig::default());
        let c = s.client();
        let a = Matrix::<f32>::random_uniform(8, 8, 1);
        let b = Matrix::<f32>::random_uniform(8, 8, 2);
        let out = c.call(GemmRequest::gemm(a, b)).expect("served");
        assert_eq!((out.d.rows(), out.d.cols()), (8, 8));
        assert_eq!(out.batched_with, 1);
        assert!(out.total_ns >= out.queue_ns);
        let stats = s.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.engine_calls, 1);
        // The default engine runs the fused split-and-pack pipeline, and
        // its avoided-staging counter surfaces through the serve stats
        // (and therefore the in-band "stats" wire reply).
        assert!(
            stats.bytes_staging_saved > 0,
            "fused engine should report staging savings: {stats:?}"
        );
        let j = stats.to_json();
        assert!(j.contains("\"bytes_staging_saved\":"), "{j}");
        // Scheduler counters surface the same way (runtime snapshot).
        assert!(j.contains("\"tiles_stolen\":"), "{j}");
        assert!(j.contains("\"panel_reuse_hits\":"), "{j}");
        s.shutdown();
    }

    #[test]
    fn validation_rejects_shape_mismatch_and_nan() {
        let s = server(ServerConfig::default());
        let c = s.client();
        let err = c
            .call(GemmRequest::gemm(Matrix::zeros(4, 5), Matrix::zeros(4, 4)))
            .unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)), "{err}");

        let mut a = Matrix::<f32>::zeros(2, 2);
        a.set(1, 1, f32::NAN);
        let err = c
            .call(GemmRequest::gemm(a, Matrix::zeros(2, 2)))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Invalid(ref m) if m.contains("non-finite")),
            "{err}"
        );
        assert_eq!(s.stats().rejected_invalid, 2);
        s.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let s = server(ServerConfig::default());
        let c = s.client();
        s.shutdown();
        let a = Matrix::<f32>::random_uniform(4, 4, 1);
        let b = Matrix::<f32>::random_uniform(4, 4, 2);
        assert_eq!(
            c.call(GemmRequest::gemm(a, b)).unwrap_err(),
            ServeError::Shutdown
        );
    }

    #[test]
    fn bucket_key_distinguishes_content_and_scheme() {
        use egemm::EmulationScheme;
        let a = Matrix::<f32>::random_uniform(4, 6, 1);
        let b1 = Matrix::<f32>::random_uniform(6, 5, 2);
        let b2 = Matrix::<f32>::random_uniform(6, 5, 3);
        let r1 = GemmRequest::gemm(a.clone(), b1.clone());
        let r1b = GemmRequest::gemm(a.clone(), b1.clone());
        let r2 = GemmRequest::gemm(a.clone(), b2);
        let r3 = GemmRequest::gemm(a, b1).with_scheme(EmulationScheme::Markidis);
        assert_eq!(bucket_key(&r1), bucket_key(&r1b));
        assert_ne!(bucket_key(&r1), bucket_key(&r2), "content must separate");
        assert_ne!(bucket_key(&r1), bucket_key(&r3), "scheme must separate");
    }

    #[test]
    fn bucket_key_is_the_engine_cache_key() {
        // Requests bucketed together must hit one prepared operand: the
        // bucket's B fingerprint equals the one the engine's cache keys
        // on, which it computes on its pool, at every pool size.
        use egemm::engine::{EngineRuntime, RuntimeConfig};
        let a = Matrix::<f32>::random_uniform(2, 700, 1);
        let b = Matrix::<f32>::random_uniform(700, 300, 2);
        let key = bucket_key(&GemmRequest::gemm(a, b.clone()));
        for threads in [1, 2, 4] {
            let rt = EngineRuntime::new(RuntimeConfig {
                threads,
                ..Default::default()
            });
            assert_eq!(key.b_fp, rt.fingerprint(b.as_slice(), 0), "pool {threads}");
        }
    }
}
