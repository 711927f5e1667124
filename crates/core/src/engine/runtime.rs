//! The persistent engine runtime: worker pool + prepared-operand cache.
//!
//! The blocked engine used to rebuild its whole execution environment on
//! every call — resolve thread-count env vars, spawn a fresh
//! `thread::scope`, and re-split and re-pack every B panel.
//! [`EngineRuntime`] hoists all of that out of the call path:
//!
//! * **Worker pool** — a fixed set of parked threads created lazily and
//!   reused across calls. Dispatch hands the pool one type-erased job
//!   pointer per call (the engine's tile-claiming worker loop); workers
//!   claim it under a mutex, run it to completion, and park again.
//!   Nested calls (e.g. split-K slices computed on rayon threads) fall
//!   back to running solo instead of deadlocking on the busy pool.
//! * **Environment** — `EGEMM_THREADS` / `RAYON_NUM_THREADS` and
//!   `EGEMM_CACHE_BYTES` are read once at runtime construction
//!   ([`RuntimeConfig::from_env`]), never per call.
//! * **Prepared-operand cache** — see [`super::cache`]: packed B panels
//!   keyed by content fingerprint, plus the explicit [`PreparedOperand`]
//!   handle for zero-lookup reuse.
//!
//! None of this can change an output bit: the pool runs the exact worker
//! function `thread::scope` used to run (tile regions stay disjoint and
//! each element's accumulation order is fixed by the plan, not by the
//! thread that executes it), and the cache only decides whether
//! bit-identical preparation work is reused or redone.

use super::cache::{fingerprint_on, lock_unpoisoned, CacheKey, PanelCache};
use super::counters::Counters;
use super::jit;
use super::pack::PackedB;
use super::sched::SchedStats;
use crate::envcfg::{self, EnvNum};
use crate::telemetry;
use egemm_fp::{SplitKernel, SplitScheme};
use egemm_matrix::Matrix;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError, TryLockError};

pub use super::cache::CacheStats;

/// Runs a job on up to `n` participants — the calling thread plus pool
/// workers — and returns once every participant has returned; with
/// `n <= 1` the caller runs it alone, without a dispatch. Jobs claim
/// their own work items, so the participant count never changes what
/// they compute.
pub(crate) type Par<'a> = dyn Fn(usize, &(dyn Fn() + Sync)) + 'a;

/// Wait on a condvar, recovering the guard if another holder panicked
/// (see [`lock_unpoisoned`] for why the data stays consistent).
fn wait_unpoisoned<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Construction-time parameters of an [`EngineRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Pool width used when an [`super::EngineConfig`] leaves `threads`
    /// at 0. Must be >= 1 (use [`RuntimeConfig::from_env`] to resolve
    /// from the environment).
    pub threads: usize,
    /// Byte bound of the prepared-operand cache; 0 disables retention
    /// (every call re-prepares, the reference cold path).
    pub cache_bytes: usize,
    /// Split kernel used for every split issued through this runtime.
    pub split_kernel: SplitKernel,
}

/// Default cache bound: 256 MiB of packed panels.
const DEFAULT_CACHE_BYTES: usize = 256 << 20;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            threads: 1,
            cache_bytes: DEFAULT_CACHE_BYTES,
            split_kernel: SplitKernel::Auto,
        }
    }
}

impl RuntimeConfig {
    /// Resolve the configuration from the environment **once**.
    ///
    /// Pool-width fallback order:
    ///
    /// 1. `EGEMM_THREADS` — used as-is when set to a positive integer
    ///    (an explicit opt-in, allowed to oversubscribe the machine);
    /// 2. `RAYON_NUM_THREADS` — consulted next, same parsing rule, but
    ///    clamped to the machine's available parallelism (it usually
    ///    describes a rayon pool, not ours);
    /// 3. the machine's available parallelism (at least 1).
    ///
    /// A variable that is set but does not parse as a positive integer
    /// (garbage, negative, or `0` — zero means "unset" only for
    /// [`super::EngineConfig::threads`], never here) is *skipped*, and a
    /// one-time warning naming the worker count the fall-through
    /// resolved to is printed to stderr. The same rule applies to
    /// `EGEMM_CACHE_BYTES` (cache byte bound), except there an explicit
    /// `0` is meaningful — it disables retention — so only unparsable
    /// values warn and fall back to the 256 MiB default.
    pub fn from_env() -> RuntimeConfig {
        static WARN_THREADS: Once = Once::new();
        static WARN_CACHE: Once = Once::new();
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let mut threads = 0usize;
        let mut ignored: Option<(&str, String)> = None;
        for var in ["EGEMM_THREADS", "RAYON_NUM_THREADS"] {
            match envcfg::read_usize(var) {
                EnvNum::Unset => {}
                EnvNum::Parsed(t, _) if t > 0 => {
                    threads = if var == "EGEMM_THREADS" {
                        t
                    } else {
                        t.min(avail)
                    };
                    break;
                }
                EnvNum::Parsed(_, raw) | EnvNum::Garbage(raw) => {
                    if ignored.is_none() {
                        ignored = Some((var, raw));
                    }
                }
            }
        }
        if threads == 0 {
            threads = avail;
        }
        if let Some((var, raw)) = ignored {
            envcfg::warn_once(&WARN_THREADS, || {
                format!(
                    "egemm: ignoring {var}={raw:?} (not a positive integer); \
                     resolved worker count: {threads}"
                )
            });
        }
        let cache_bytes = match envcfg::read_usize("EGEMM_CACHE_BYTES") {
            EnvNum::Unset => DEFAULT_CACHE_BYTES,
            EnvNum::Parsed(b, _) => b,
            EnvNum::Garbage(raw) => {
                envcfg::warn_once(&WARN_CACHE, || {
                    format!(
                        "egemm: ignoring EGEMM_CACHE_BYTES={raw:?} (not an integer); \
                         using the {DEFAULT_CACHE_BYTES}-byte default"
                    )
                });
                DEFAULT_CACHE_BYTES
            }
        };
        RuntimeConfig {
            threads,
            cache_bytes,
            split_kernel: SplitKernel::Auto,
        }
    }
}

/// A B operand's packed panels, split straight from the raw f32 data,
/// handed back by [`crate::Egemm::prepare`] for zero-lookup reuse across
/// calls. The handle pins its data: it stays valid even after cache
/// eviction.
#[derive(Clone)]
pub struct PreparedOperand {
    pub(crate) packed: Arc<PackedB>,
    pub(crate) scheme: SplitScheme,
}

impl PreparedOperand {
    /// The split scheme the operand was prepared with.
    pub fn scheme(&self) -> SplitScheme {
        self.scheme
    }

    /// Reduction depth (B rows) of the prepared operand.
    pub fn rows(&self) -> usize {
        self.packed.k()
    }

    /// Output columns (B columns) of the prepared operand.
    pub fn cols(&self) -> usize {
        self.packed.n()
    }

    /// Resident bytes this handle pins (both packed planes).
    pub fn bytes(&self) -> usize {
        self.packed.bytes()
    }
}

impl std::fmt::Debug for PreparedOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedOperand")
            .field("rows", &self.rows())
            .field("cols", &self.cols())
            .field("scheme", &self.scheme)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Persistent execution state shared by every GEMM issued through one
/// [`crate::Egemm`] (or through the process-wide [`EngineRuntime::global`]).
pub struct EngineRuntime {
    default_threads: usize,
    split_kernel: SplitKernel,
    cache: PanelCache,
    jit: jit::KernelCache,
    counters: Arc<Counters>,
    pool: Pool,
}

impl std::fmt::Debug for EngineRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRuntime")
            .field("default_threads", &self.default_threads)
            .field("split_kernel", &self.split_kernel)
            .field("cache_stats", &self.cache_stats())
            .field("sched_stats", &self.sched_stats())
            .finish()
    }
}

impl EngineRuntime {
    /// Build a runtime with explicit parameters. Workers are spawned
    /// lazily on first multi-threaded dispatch and parked between calls.
    pub fn new(cfg: RuntimeConfig) -> Arc<EngineRuntime> {
        // First runtime construction is the natural "before any engine
        // work" point to honour EGEMM_TRACE, EGEMM_METRICS, and
        // EGEMM_PROBE_RATE.
        telemetry::init_from_env();
        telemetry::metrics::init_from_env();
        telemetry::probe::init_from_env();
        let counters = Arc::new(Counters::register());
        Arc::new(EngineRuntime {
            default_threads: cfg.threads.max(1),
            split_kernel: cfg.split_kernel,
            cache: PanelCache::new(cfg.cache_bytes, counters.clone()),
            jit: jit::KernelCache::new(counters.clone()),
            counters,
            pool: Pool::new(),
        })
    }

    /// The process-wide runtime, configured from the environment exactly
    /// once ([`RuntimeConfig::from_env`]). Every [`crate::Egemm`] uses it
    /// unless given a private runtime via [`crate::Egemm::with_runtime`].
    pub fn global() -> &'static Arc<EngineRuntime> {
        static GLOBAL: OnceLock<Arc<EngineRuntime>> = OnceLock::new();
        GLOBAL.get_or_init(|| EngineRuntime::new(RuntimeConfig::from_env()))
    }

    /// Pool width used when a call doesn't pin its own thread count.
    pub fn default_threads(&self) -> usize {
        self.default_threads
    }

    /// The split kernel this runtime dispatches.
    pub fn split_kernel(&self) -> SplitKernel {
        self.split_kernel
    }

    /// Lifetime cache counters (hits/misses/evictions/resident bytes,
    /// plus how many packs actually executed, plus the
    /// compiled-kernel cache's compiles/hits/compile-time/code-bytes),
    /// read off this runtime's registry instruments.
    pub fn cache_stats(&self) -> CacheStats {
        self.counters.cache_stats()
    }

    /// The compiled-kernel cache, `Some` only when this process can run
    /// JIT kernels at all (x86-64 Linux with AVX and `EGEMM_JIT` on);
    /// callers holding `None` use the interpreted microkernel.
    pub(crate) fn jit_cache(&self) -> Option<&jit::KernelCache> {
        if self.jit.isa().is_some() {
            Some(&self.jit)
        } else {
            None
        }
    }

    /// Lifetime scheduler counters: steals, tiles moved by steals, and
    /// cooperative panel-store packs vs. reuse hits. All monotone; take
    /// deltas ([`SchedStats::delta_since`]) for per-call views.
    pub fn sched_stats(&self) -> SchedStats {
        self.counters.sched_stats()
    }

    /// The label on every registry series of this runtime, e.g.
    /// `runtime="3"`: its cache, JIT and scheduler counters in the
    /// Prometheus exposition. The series leave the registry when the
    /// runtime drops.
    pub fn metrics_label(&self) -> &str {
        self.counters.label()
    }

    /// The instruments workers bump during a dispatch.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// [`content_fingerprint`](crate::engine::content_fingerprint) of
    /// `data` with its chunks digested on up to `threads` participants
    /// of this runtime's pool (0 = the runtime's default width). The
    /// value is the sequential fingerprint's, whatever the width.
    pub fn fingerprint(&self, data: &[f32], threads: usize) -> (u64, u64) {
        fingerprint_on(data, &self.par(threads))
    }

    /// The [`Par`] runner over this runtime's pool, capped at `threads`
    /// participants (0 = the runtime's default width).
    pub(crate) fn par(&self, threads: usize) -> impl Fn(usize, &(dyn Fn() + Sync)) + '_ {
        let cap = if threads > 0 {
            threads
        } else {
            self.default_threads
        };
        move |n, job| self.run_parallel(n.min(cap), job)
    }

    /// Pack `src`'s B panels straight from the raw f32 data for
    /// blocking depth `kc` (already clamped to the chunk grid), through
    /// the cache, never materializing the split planes. The cache-key
    /// fingerprint and a cache miss's pack both run on up to `threads`
    /// pool participants (0 = the runtime's default width).
    pub(crate) fn prepare_b_fused(
        &self,
        src: &Matrix<f32>,
        scheme: SplitScheme,
        kc: usize,
        threads: usize,
    ) -> PreparedOperand {
        let t_fp = telemetry::span_start();
        let key = CacheKey {
            fp: self.fingerprint(src.as_slice(), threads),
            rows: src.rows(),
            cols: src.cols(),
            scheme,
        };
        telemetry::span_end(
            telemetry::Phase::Fingerprint,
            t_fp,
            4 * src.as_slice().len() as u64,
        );
        let entry = self.cache.entry_for_key(key);
        let packed = self.cache.get_or_pack(key, &entry, kc, || {
            PackedB::pack_fused(src, scheme, self.split_kernel, kc, &self.par(threads))
        });
        PreparedOperand { packed, scheme }
    }

    /// Run `f` on `workers` threads: the caller plus `workers - 1` pool
    /// workers. Returns when every participant has returned. If the pool
    /// is already dispatching (a nested call from inside another job or
    /// a rayon task), the caller runs `f` alone — same results, since
    /// every engine job is a claim loop over a shared tile grid.
    ///
    /// A panic inside `f` (on any participant) is re-raised here, on the
    /// submitting thread, after every other participant has drained —
    /// the pool itself stays healthy and accepts the next dispatch.
    pub(crate) fn run_parallel(&self, workers: usize, f: &(dyn Fn() + Sync)) {
        if workers <= 1 {
            f();
            return;
        }
        // A previous dispatcher that panicked poisons this mutex as it
        // unwinds; the lock guards no data, so recover rather than
        // degrade every later call to solo.
        let _dispatch = match self.pool.dispatch.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                f();
                return;
            }
        };
        let t_dispatch = telemetry::span_start();
        self.pool.run(workers - 1, f);
        telemetry::span_end(telemetry::Phase::Dispatch, t_dispatch, workers as u64);
    }
}

impl Drop for EngineRuntime {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// Type-erased pointer to the per-call job closure. The dispatcher keeps
/// the closure alive (and its borrows valid) until every claimant has
/// finished, which `Pool::run` enforces before returning.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Fn() + Sync));
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

struct PoolState {
    /// Current job, present only while a dispatch is in flight.
    job: Option<JobRef>,
    /// Bumped per dispatch so parked workers can tell a new job from a
    /// spurious wakeup or an already-drained one.
    epoch: u64,
    /// Claims still available for the current job.
    unclaimed: usize,
    /// Workers currently inside the current job.
    active: usize,
    /// Worker threads spawned so far.
    spawned: usize,
    /// First panic payload raised by a worker inside the current job;
    /// collected by the dispatcher after the drain and re-raised on the
    /// submitting thread.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Parked-thread worker pool. One job at a time (serialized by
/// `dispatch`); workers live for the runtime's lifetime.
struct Pool {
    /// Serializes dispatches; `try_lock` failure = pool busy.
    dispatch: Mutex<()>,
    state: Arc<(Mutex<PoolState>, Condvar, Condvar)>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            dispatch: Mutex::new(()),
            state: Arc::new((
                Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    unclaimed: 0,
                    active: 0,
                    spawned: 0,
                    panic: None,
                    shutdown: false,
                }),
                Condvar::new(), // work: workers park here
                Condvar::new(), // done: dispatcher parks here
            )),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Dispatch `f` to `helpers` workers and run it on the calling
    /// thread too; return once all participants have finished. Caller
    /// must hold the `dispatch` lock. A panic on any participant is
    /// re-raised here after the drain (dispatcher's own panic first),
    /// leaving the pool ready for the next dispatch.
    fn run(&self, helpers: usize, f: &(dyn Fn() + Sync)) {
        self.ensure_workers(helpers);
        let (lock, work, done) = &*self.state;
        {
            let mut st = lock_unpoisoned(lock);
            // SAFETY: erasing the borrow lifetime is sound because this
            // function does not return until `unclaimed` and `active`
            // are both zero, i.e. no worker can still reach the pointer.
            let erased: &'static (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(f) };
            st.job = Some(JobRef(erased as *const _));
            st.epoch += 1;
            st.unclaimed = helpers;
            st.panic = None;
            work.notify_all();
        }
        // The dispatcher is a full participant. Catch its panic so the
        // drain below always runs — returning (or unwinding) before
        // `unclaimed` and `active` hit zero would free the closure while
        // workers still hold the type-erased pointer to it.
        let own_panic = catch_unwind(AssertUnwindSafe(f)).err();
        let mut st = lock_unpoisoned(lock);
        while st.unclaimed > 0 || st.active > 0 {
            st = wait_unpoisoned(done, st);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let Some(p) = own_panic.or(worker_panic) {
            resume_unwind(p);
        }
    }

    /// Grow the pool to at least `n` parked workers.
    fn ensure_workers(&self, n: usize) {
        let missing = {
            let st = lock_unpoisoned(&self.state.0);
            n.saturating_sub(st.spawned)
        };
        if missing == 0 {
            return;
        }
        let mut handles = lock_unpoisoned(&self.handles);
        let mut st = lock_unpoisoned(&self.state.0);
        while st.spawned < n {
            let state = Arc::clone(&self.state);
            let h = std::thread::Builder::new()
                .name("egemm-engine".into())
                .spawn(move || worker_loop(&state))
                .expect("spawn engine worker");
            handles.push(h);
            st.spawned += 1;
        }
    }

    fn shutdown(&self) {
        {
            let mut st = lock_unpoisoned(&self.state.0);
            st.shutdown = true;
            self.state.1.notify_all();
        }
        for h in lock_unpoisoned(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(state: &(Mutex<PoolState>, Condvar, Condvar)) {
    let (lock, work, done) = state;
    let mut seen_epoch = 0u64;
    loop {
        let t_park = telemetry::span_start();
        let (job, epoch) = {
            let mut st = lock_unpoisoned(lock);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    if st.unclaimed > 0 {
                        st.unclaimed -= 1;
                        st.active += 1;
                        break (st.job.expect("claimable epoch must carry a job"), st.epoch);
                    }
                    // Late to the party: the job is fully claimed; skip
                    // this epoch and park again.
                }
                st = wait_unpoisoned(work, st);
            }
        };
        telemetry::span_end(telemetry::Phase::Park, t_park, epoch);
        // SAFETY: the dispatcher keeps the closure alive until
        // `unclaimed == 0 && active == 0`, and this worker is counted in
        // `active` for exactly the duration of this call.
        //
        // Catch the job's panic instead of unwinding out of the loop: an
        // unwound worker would leave `active` stuck above zero (hanging
        // the dispatcher forever) and shrink the pool for all later
        // calls. The payload is handed to the dispatcher, which re-raises
        // it on the submitting thread after the drain.
        let panic = catch_unwind(AssertUnwindSafe(|| unsafe { (&*job.0)() })).err();
        let mut st = lock_unpoisoned(lock);
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.active -= 1;
        if st.unclaimed == 0 && st.active == 0 {
            done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::cache::{fingerprint, FP_CHUNK};
    use super::super::pack::{NR, PACK_UNIT_ELEMS};
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_job_on_all_participants() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 4,
            ..Default::default()
        });
        let counter = AtomicUsize::new(0);
        rt.run_parallel(4, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        // Workers parked, reusable: dispatch again.
        rt.run_parallel(3, &|| {
            counter.fetch_add(10, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 34);
    }

    #[test]
    fn single_worker_runs_inline() {
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let counter = AtomicUsize::new(0);
        rt.run_parallel(1, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_dispatch_degrades_to_solo() {
        // A job that itself dispatches must not deadlock: the inner call
        // finds the pool busy and runs solo.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        let counter = AtomicUsize::new(0);
        let rt2 = rt.clone();
        let inner_ran = &counter;
        rt.run_parallel(2, &|| {
            rt2.run_parallel(2, &|| {
                inner_ran.fetch_add(1, Ordering::SeqCst);
            });
        });
        // Outer job ran on 2 threads; each inner dispatch ran solo (1)
        // or, if the dispatch lock happened to be free again, on up to 2.
        let n = counter.load(Ordering::SeqCst);
        assert!((2..=4).contains(&n), "inner ran {n} times");
    }

    #[test]
    fn shutdown_joins_workers() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 3,
            ..Default::default()
        });
        rt.run_parallel(3, &|| {});
        drop(rt); // must not hang
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        // Regression: a panicking job used to poison the pool state
        // mutex and leave `active` stuck, hanging or aborting every
        // later dispatch. Now the panic surfaces on the submitting
        // thread and the pool keeps working.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 4,
            ..Default::default()
        });
        let hits = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run_parallel(4, &|| {
                // Exactly one participant blows up; the rest finish.
                if hits.fetch_add(1, Ordering::SeqCst) == 2 {
                    panic!("synthetic worker failure");
                }
            });
        }));
        let payload = caught.expect_err("the job's panic must reach the submitter");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("synthetic worker failure"), "payload: {msg}");
        // The pool must accept and complete subsequent dispatches on the
        // full complement of workers.
        for _ in 0..3 {
            let counter = AtomicUsize::new(0);
            rt.run_parallel(4, &|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        }
        drop(rt); // shutdown must still join cleanly
    }

    #[test]
    fn dispatcher_panic_leaves_pool_usable() {
        // The submitting thread's own share of the job can panic too;
        // the drain must still run (workers hold a pointer into the
        // dispatcher's frame) and the next dispatch must succeed.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        let main_id = std::thread::current().id();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run_parallel(2, &|| {
                if std::thread::current().id() == main_id {
                    panic!("dispatcher failure");
                }
            });
        }));
        assert!(caught.is_err());
        let counter = AtomicUsize::new(0);
        rt.run_parallel(2, &|| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    fn pools() -> [Arc<EngineRuntime>; 3] {
        [1, 2, 4].map(|threads| {
            EngineRuntime::new(RuntimeConfig {
                threads,
                ..Default::default()
            })
        })
    }

    #[test]
    fn fingerprint_independent_of_pool_size() {
        let data = Matrix::<f32>::random_uniform(1, 3 * FP_CHUNK + 5, 31);
        let rts = pools();
        for len in [
            0,
            1,
            15,
            16,
            17,
            FP_CHUNK - 1,
            FP_CHUNK,
            FP_CHUNK + 1,
            3 * FP_CHUNK + 5,
        ] {
            let xs = &data.as_slice()[..len];
            let want = fingerprint(xs);
            for rt in &rts {
                for threads in [0, 1, 2, 4] {
                    assert_eq!(
                        rt.fingerprint(xs, threads),
                        want,
                        "len {len}, pool {}, threads {threads}",
                        rt.default_threads()
                    );
                }
            }
        }
    }

    #[test]
    fn cache_key_is_the_content_fingerprint() {
        // The serve tier buckets shared-B requests by
        // `content_fingerprint`; a pool-parallel preparation must file
        // the operand under exactly that key, so a lookup built from it
        // hits.
        let b = Matrix::<f32>::random_uniform(2 * FP_CHUNK / 64 + 3, 64, 33);
        for rt in pools() {
            rt.prepare_b_fused(&b, SplitScheme::Round, 8, 0);
            let key = CacheKey {
                fp: fingerprint(b.as_slice()),
                rows: b.rows(),
                cols: b.cols(),
                scheme: SplitScheme::Round,
            };
            let hits = rt.cache_stats().hits;
            rt.cache.entry_for_key(key);
            assert_eq!(
                rt.cache_stats().hits,
                hits + 1,
                "pool {}",
                rt.default_threads()
            );
        }
    }

    #[test]
    fn pool_pack_bit_identical_to_serial() {
        // Ragged n (not an NR multiple) and ragged k (final panel 44
        // deep; and k < kc), each with several pack units per panel.
        let serial = |_: usize, job: &(dyn Fn() + Sync)| job();
        let rts = pools();
        for (k, n) in [(300usize, 16 * 40 + 7), (200, 16 * 45 + 3)] {
            let src = Matrix::<f32>::random_uniform(k, n, (k + n) as u64);
            assert!(256 * n > 2 * PACK_UNIT_ELEMS, "several units per panel");
            for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
                let want = PackedB::pack_fused(&src, scheme, SplitKernel::Scalar, 256, &serial);
                for rt in &rts {
                    let got = PackedB::pack_fused(&src, scheme, SplitKernel::Auto, 256, &rt.par(0));
                    let panels = [(0, k.min(256)), (1, k.saturating_sub(256))];
                    for (panel, kcb) in panels.into_iter().filter(|&(_, kcb)| kcb > 0) {
                        for lo_plane in [false, true] {
                            let whole = |p: &PackedB| {
                                bits(p.sliver_span(lo_plane, panel, kcb, 0, n.div_ceil(NR)))
                            };
                            assert_eq!(
                                whole(&got),
                                whole(&want),
                                "{k}x{n} {scheme:?} pool {} lo={lo_plane} panel {panel}",
                                rt.default_threads()
                            );
                        }
                    }
                    assert_eq!(got.bytes(), want.bytes());
                    assert!(!got.has_nan());
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn nan_in_last_pack_unit_flags_operand() {
        let (k, n) = (300usize, 16 * 40 + 7);
        let mut src = Matrix::<f32>::random_uniform(k, n, 37);
        src.set(k - 1, n - 1, f32::from_bits(0x7fc0_1234));
        for rt in pools() {
            let packed =
                PackedB::pack_fused(&src, SplitScheme::Round, SplitKernel::Auto, 256, &rt.par(0));
            assert!(packed.has_nan(), "pool {}", rt.default_threads());
        }
    }

    #[test]
    fn global_runtime_resolves_env_once() {
        let a = EngineRuntime::global();
        let b = EngineRuntime::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.default_threads() >= 1);
    }

    #[test]
    fn runtime_config_from_env_positive() {
        let cfg = RuntimeConfig::from_env();
        assert!(cfg.threads >= 1);
    }
}
