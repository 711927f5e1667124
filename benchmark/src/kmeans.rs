//! `kmeans_fit`: Lloyd kMeans to convergence through the EGEMM-TC
//! backend, the paper's "time to solution" application (Fig. 12).
//!
//! Every fit runs on fresh seeded Gaussian blobs, so a run's median is
//! over many datasets and does not hinge on one dataset's iteration
//! count. The dimension (60) and cluster count (50) are not multiples
//! of the register tile, so the ragged-edge JIT kernels run; the GEMMs
//! are tall and skinny, and the same points are re-split and re-packed
//! every iteration.

use crate::check;
use crate::host::{nproc, peak_rss_mb, CpuTicks};
use crate::layers::{self, engine, flops, runtime, Counters};
use crate::report::Report;
use crate::stats::{median, paired_overhead_pct, windowed_tail, Rng};
use crate::{set_ups, Opts};
use egemm::Egemm;
use egemm_baselines::{EgemmTc, GemmBaseline};
use egemm_matrix::{GemmShape, Matrix};
use egemm_sci::datasets::gaussian_blobs;
use egemm_sci::KMeans;
use egemm_tcsim::{DeviceSpec, KernelTiming};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Checked positions per distance GEMM.
const SAMPLES: usize = 8;

#[derive(Clone, Copy)]
pub struct Size {
    pub points: usize,
    pub dim: usize,
    pub clusters: usize,
}

fn size(opts: &Opts) -> Size {
    if opts.tiny {
        Size {
            points: 500,
            dim: 12,
            clusters: 5,
        }
    } else {
        Size {
            points: 8192,
            dim: 60,
            clusters: 50,
        }
    }
}

/// `GemmBaseline` wrapper that checks every backend call's output
/// against the oracle off the clock, times the call when tracing, and
/// (for the self-test) can corrupt one output.
struct Timed {
    inner: EgemmTc,
    /// Record a span per call: the traced run's instrumentation.
    trace: Cell<bool>,
    /// Start and end of every traced call since the last `reset`.
    calls: RefCell<Vec<(Instant, Instant)>>,
    check_secs: Cell<f64>,
    attempted: Cell<u64>,
    failed: Cell<u64>,
    corrupt_next: Cell<bool>,
    rng: RefCell<Rng>,
    /// Peak RSS once `RSS_CALLS` GEMMs have run.
    rss_mb: Cell<Option<f64>>,
}

impl Timed {
    fn new(eg: Egemm, rng: Rng) -> Timed {
        Timed {
            inner: EgemmTc(eg),
            trace: Cell::new(false),
            calls: RefCell::new(Vec::new()),
            check_secs: Cell::new(0.0),
            attempted: Cell::new(0),
            failed: Cell::new(0),
            corrupt_next: Cell::new(false),
            rng: RefCell::new(rng),
            rss_mb: Cell::new(None),
        }
    }

    fn reset(&self) {
        self.calls.borrow_mut().clear();
        self.check_secs.set(0.0);
    }
}

impl GemmBaseline for Timed {
    fn name(&self) -> &'static str {
        "EGEMM-TC (timed)"
    }

    fn compute(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        let t0 = self.trace.get().then(Instant::now);
        let mut d = self.inner.compute(a, b);
        let t1 = Instant::now();
        if let Some(t0) = t0 {
            self.calls.borrow_mut().push((t0, t1));
        }
        if self.corrupt_next.replace(false) {
            check::corrupt(&mut d, 0, 0);
        }
        // (0, 0) plus seeded positions, so a corrupted first element is
        // always among those checked.
        let mut rng = self.rng.borrow_mut();
        let mut at = vec![(0, 0)];
        at.extend((0..SAMPLES).map(|_| (rng.below(a.rows()), rng.below(b.cols()))));
        let exp = check::Expected {
            bits: check::oracle(a, b, &at),
            at,
        };
        self.attempted.set(self.attempted.get() + 1);
        if self.attempted.get() == RSS_CALLS {
            self.rss_mb.set(Some(peak_rss_mb()));
        }
        self.failed
            .set(self.failed.get() + u64::from(exp.mismatches(&d) > 0));
        self.check_secs
            .set(self.check_secs.get() + t1.elapsed().as_secs_f64());
        d
    }

    fn time(&self, spec: &DeviceSpec, shape: GemmShape) -> KernelTiming {
        self.inner.time(spec, shape)
    }
}

/// One fit, timed: the solution time (checks excluded), the split of
/// it into GEMM, epilogue per iteration (traced fits only), and the
/// result.
struct Fit {
    secs: f64,
    gemm_secs: f64,
    epilogue_secs: f64,
    iterations: usize,
    inertia: f64,
}

fn fit(backend: &Timed, sz: Size, seed: u64) -> Fit {
    let (data, _, _) = gaussian_blobs(sz.points, sz.dim, sz.clusters, 0.15, seed);
    backend.reset();
    let t = Instant::now();
    let r = KMeans::new(backend).fit(&data, sz.clusters, seed);
    let end = Instant::now();
    let calls = backend.calls.borrow();
    let secs = (end - t).as_secs_f64() - backend.check_secs.get();
    let gemm_secs: f64 = calls.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    let init = calls.first().map_or(0.0, |(a, _)| (*a - t).as_secs_f64());
    Fit {
        secs,
        gemm_secs,
        epilogue_secs: (secs - init - gemm_secs) / r.iterations.max(1) as f64,
        iterations: r.iterations,
        inertia: r.inertia,
    }
}

/// Distance GEMMs after which `peak_rss_mb` is read. The operand cache
/// keeps every distinct centroid matrix, so memory grows with the
/// number of GEMMs; reading after a fixed number of them, rather than
/// after however many the clock allowed, keeps a faster engine from
/// reading as a larger one.
const RSS_CALLS: u64 = 300;

/// Fits on fresh datasets until `secs` have been spent fitting.
fn fits(backend: &Timed, sz: Size, secs: f64, rng: &mut Rng) -> Vec<Fit> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while spent < secs || out.len() < 2 {
        let f = fit(backend, sz, rng.next_u64());
        spent += f.secs;
        out.push(f);
    }
    out
}

/// Fits each fresh dataset twice, untraced and traced, in alternating
/// order, until `secs` have been spent fitting; returns the (untraced,
/// traced) pairs and leaves tracing on.
fn paired_fits(backend: &Timed, sz: Size, secs: f64, rng: &mut Rng) -> Vec<(Fit, Fit)> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while spent < secs || out.len() < 3 {
        let seed = rng.next_u64();
        let traced_first = out.len() % 2 == 1;
        let mut one = |trace: bool| {
            backend.trace.set(trace);
            let f = fit(backend, sz, seed);
            spent += f.secs;
            f
        };
        let (plain, traced) = if traced_first {
            let t = one(true);
            (one(false), t)
        } else {
            let p = one(false);
            (p, one(true))
        };
        out.push((plain, traced));
    }
    backend.trace.set(true);
    out
}

/// Set-up: runtime construction and one distance GEMM of the
/// workload's shape, which compiles its JIT kernels.
fn set_up(sz: Size, rng: &mut Rng) -> (Egemm, f64) {
    let (a, b) = (
        rng.matrix(sz.points, sz.dim),
        rng.matrix(sz.dim, sz.clusters),
    );
    let t = Instant::now();
    let eg = engine(&runtime(nproc()));
    std::hint::black_box(eg.gemm(&a, &b));
    (eg, t.elapsed().as_secs_f64())
}

/// The `sci.*` metrics over `fits`.
fn report_sci(rep: &mut Report, fits: &[Fit]) {
    let share: Vec<f64> = fits.iter().map(|f| f.gemm_secs / f.secs).collect();
    let per_iter: Vec<f64> = fits
        .iter()
        .map(|f| 1e3 * f.gemm_secs / f.iterations as f64)
        .collect();
    let epi: Vec<f64> = fits.iter().map(|f| 1e3 * f.epilogue_secs).collect();
    rep.ratio(
        "sci.gemm_share",
        median(&share),
        "ratio",
        "GEMM time / fit time",
    );
    rep.set("sci.gemm_ms_per_iter", median(&per_iter), "ms");
    rep.set("sci.epilogue_ms", median(&epi), "ms");
    rep.set("sci.iterations", fits[0].iterations as f64, "count");
}

/// Refit the first dataset and demand the same iterations and the same
/// inertia bits: same seed, same solution.
fn determinism(backend: &Timed, sz: Size, seed: u64, first: &Fit, rep: &mut Report) {
    let again = fit(backend, sz, seed);
    let same =
        again.iterations == first.iterations && again.inertia.to_bits() == first.inertia.to_bits();
    println!(
        "kmeans first fit: {} iterations, inertia {:?} (refit {})",
        first.iterations,
        first.inertia,
        if same { "identical" } else { "DIFFERS" }
    );
    rep.ops(1, u64::from(!same));
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let sz = size(opts);
    let mut rng = Rng::new(opts.seed);
    let first_seed = Rng::new(opts.seed ^ 0xF17).next_u64();
    if !opts.trace {
        let (eg, setup, setup_steal) = set_ups(|| set_up(sz, &mut rng));
        let backend = Timed::new(eg, rng.fork());
        let first = fit(&backend, sz, first_seed);
        let ticks = CpuTicks::now();
        let all = fits(&backend, sz, opts.seconds, &mut rng);
        let steal = ticks.steal_share();
        determinism(&backend, sz, first_seed, &first, rep);
        rep.ops(backend.attempted.get(), backend.failed.get());
        let secs: Vec<f64> = all.iter().map(|f| 1e3 * f.secs).collect();
        let t = windowed_tail(&secs);
        rep.time_unstolen("setup_s", setup, "s", setup_steal);
        rep.set(
            "peak_rss_mb",
            backend.rss_mb.get().unwrap_or_else(peak_rss_mb),
            "MB",
        );
        println!("fits: steal share {:.2}%", 100.0 * steal);
        rep.time_unstolen("p50_ms", median(&secs), "ms", steal);
        rep.time_unstolen("tail_ms", t.value, "ms", steal);
        println!("{:<32} {:>14} {t} (fits: time to solution)", "", "");
        let rates: Vec<f64> = all
            .iter()
            .map(|f| f.iterations as f64 * flops(sz.points, sz.clusters, sz.dim) / f.secs / 1e9)
            .collect();
        rep.rate_unstolen("gflops", median(&rates), "GFLOP/s", steal);
        return;
    }

    let (eg, _) = set_up(sz, &mut rng);
    layers::jit(rep, eg.runtime());
    let backend = Timed::new(eg.clone(), rng.fork());
    backend.trace.set(true);
    let first = fit(&backend, sz, first_seed);
    // First the overhead pairs, then the traced fits the layer counters
    // and `sci.*` cover: fresh datasets fitted once, as the workload
    // runs them. A pair's second fit finds its centroids prepared and
    // hits the operand cache where the workload never would.
    let pairs = paired_fits(&backend, sz, opts.seconds / 2.0, &mut rng);
    let c0 = Counters::take(eg.runtime());
    let calls0 = backend.attempted.get();
    let traced = fits(&backend, sz, opts.seconds / 2.0, &mut rng);
    c0.report(
        rep,
        eg.runtime(),
        (backend.attempted.get() - calls0) as usize,
    );
    determinism(&backend, sz, first_seed, &first, rep);
    rep.ops(backend.attempted.get(), backend.failed.get());
    let p: Vec<f64> = pairs.iter().map(|(p, _)| p.secs).collect();
    let t: Vec<f64> = pairs.iter().map(|(_, t)| t.secs).collect();
    rep.ratio(
        "trace.overhead_pct",
        paired_overhead_pct(&p, &t),
        "%",
        &format!(
            "untraced fit p50 = {:.4} ms; median over {} datasets each fitted untraced and \
             with a span per backend GEMM",
            median(&p) * 1e3,
            t.len()
        ),
    );
    let mut all = vec![first];
    all.extend(traced);
    report_sci(rep, &all);
    let ceil = layers::host(rep, 5);
    let (a, b) = (
        rng.matrix(sz.points, sz.dim),
        rng.matrix(sz.dim, sz.clusters),
    );
    layers::fp(rep, &a, 5);
    layers::engine_layers(rep, &a, &b, &ceil, 5);
    layers::fingerprint_and_tcsim(
        rep,
        &eg,
        &b,
        &[GemmShape::new(sz.points, sz.clusters, sz.dim)],
    );
    layers::telemetry(rep, &eg, &mut rng, 30);
    crate::serve::probe(opts, rep, &mut rng);
}

/// The `sci.*` metrics for workloads that do not run kMeans: a few
/// small fits on a private runtime.
pub fn probe(opts: &Opts, rep: &mut Report, rng: &mut Rng) {
    let sz = if opts.tiny {
        size(opts)
    } else {
        Size {
            points: 2048,
            dim: 60,
            clusters: 50,
        }
    };
    let backend = Timed::new(engine(&runtime(nproc())), rng.fork());
    backend.trace.set(true);
    let fits: Vec<Fit> = (0..3).map(|_| fit(&backend, sz, rng.next_u64())).collect();
    rep.ops(backend.attempted.get(), backend.failed.get());
    report_sci(rep, &fits);
}

/// Self-test hook: run one fit whose first distance GEMM is corrupted
/// and return (attempted, failed) as the checks counted them.
#[cfg(test)]
pub fn corrupted_fit() -> (u64, u64) {
    let sz = Size {
        points: 300,
        dim: 12,
        clusters: 5,
    };
    let backend = Timed::new(engine(&runtime(1)), Rng::new(3));
    backend.corrupt_next.set(true);
    fit(&backend, sz, 11);
    (backend.attempted.get(), backend.failed.get())
}
