//! `gemm_cold` and `gemm_shared_b`: streams of `Egemm::gemm` calls.
//!
//! `gemm_cold` gives every call fresh A and B, so the prepared-operand
//! cache always misses and split, fused pack, the JIT microkernel and
//! the scheduler do all the work. `gemm_shared_b` gives every call a
//! fresh short-and-wide A against one long-lived B prepared in set-up:
//! each call fingerprints B, hits the cache, and packs only A.

use crate::check;
use crate::host::{nproc, peak_rss_mb, CpuTicks};
use crate::layers::{self, engine, flops, runtime, Counters};
use crate::report::Report;
use crate::stats::{median, ms, paired_overhead_pct, windowed_tail, Rng};
use crate::{set_ups, Opts};
use egemm::Egemm;
use egemm_matrix::{GemmShape, Matrix};
use std::time::{Duration, Instant};

/// Checked positions per output.
const SAMPLES: usize = 16;

struct Shape {
    m: usize,
    n: usize,
    k: usize,
    shared_b: bool,
}

fn shape(opts: &Opts) -> Shape {
    match (opts.workload.as_str(), opts.tiny) {
        ("gemm_cold", false) => Shape {
            m: 1024,
            n: 1024,
            k: 1024,
            shared_b: false,
        },
        ("gemm_cold", true) => Shape {
            m: 72,
            n: 80,
            k: 96,
            shared_b: false,
        },
        (_, false) => Shape {
            m: 64,
            n: 4096,
            k: 4096,
            shared_b: true,
        },
        (_, true) => Shape {
            m: 16,
            n: 256,
            k: 320,
            shared_b: true,
        },
    }
}

/// Set-up: runtime construction, B preparation (shared-B), and a first
/// call, which compiles the JIT kernels. Returns the engine and the
/// set-up time.
fn set_up(s: &Shape, b: &Matrix<f32>, rng: &mut Rng) -> (Egemm, f64) {
    let a = rng.matrix(s.m, s.k);
    let b0 = if s.shared_b {
        None
    } else {
        Some(rng.matrix(s.k, s.n))
    };
    let t = Instant::now();
    let eg = engine(&runtime(nproc()));
    if s.shared_b {
        eg.prepare(b);
    }
    std::hint::black_box(eg.gemm(&a, b0.as_ref().unwrap_or(b)));
    (eg, t.elapsed().as_secs_f64())
}

/// Calls timed in one window: latencies in ms of the untraced calls
/// and of the traced ones, and failed calls.
struct Window {
    lat: Vec<f64>,
    traced: Vec<f64>,
    failed: u64,
}

/// Call `eg.gemm` on fresh operands until `secs` have been spent in
/// calls; operand generation and checks stay outside the clock. With
/// `alternate`, every second call is traced: it snapshots the runtime's
/// counters around the call, as a per-call span would.
fn calls(
    eg: &Egemm,
    s: &Shape,
    b: &Matrix<f32>,
    secs: f64,
    alternate: bool,
    rng: &mut Rng,
) -> Window {
    let mut w = Window {
        lat: Vec::new(),
        traced: Vec::new(),
        failed: 0,
    };
    let mut spent = Duration::ZERO;
    let enough = |w: &Window| w.lat.len() >= 3 && (!alternate || w.traced.len() >= 3);
    for i in 0.. {
        if spent.as_secs_f64() >= secs && enough(&w) {
            break;
        }
        let traced = alternate && i % 2 == 1;
        let a = rng.matrix(s.m, s.k);
        let fresh_b = (!s.shared_b).then(|| rng.matrix(s.k, s.n));
        let b = fresh_b.as_ref().unwrap_or(b);
        let t = Instant::now();
        let before = traced.then(|| Counters::take(eg.runtime()));
        let d = eg.gemm(&a, b).d;
        std::hint::black_box(before.map(|b0| (b0, Counters::take(eg.runtime()))));
        let dt = t.elapsed();
        spent += dt;
        if traced { &mut w.traced } else { &mut w.lat }.push(ms(dt));
        w.failed += u64::from(check::sampled(&a, b, &d, SAMPLES, rng) > 0);
    }
    w
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let s = shape(opts);
    let mut rng = Rng::new(opts.seed);
    let b = if s.shared_b {
        rng.matrix(s.k, s.n)
    } else {
        Matrix::zeros(0, 0)
    };
    let op_flops = flops(s.m, s.n, s.k);
    if !opts.trace {
        let (eg, setup, setup_steal) = set_ups(|| set_up(&s, &b, &mut rng));
        let ticks = CpuTicks::now();
        let w = calls(&eg, &s, &b, opts.seconds, false, &mut rng);
        let steal = ticks.steal_share();
        rep.ops(w.lat.len() as u64, w.failed);
        let t = windowed_tail(&w.lat);
        rep.time_unstolen("setup_s", setup, "s", setup_steal);
        rep.set("peak_rss_mb", peak_rss_mb(), "MB");
        println!("calls: steal share {:.2}%", 100.0 * steal);
        rep.time_unstolen("p50_ms", median(&w.lat), "ms", steal);
        rep.time_unstolen("tail_ms", t.value, "ms", steal);
        println!("{:<32} {:>14} {t} (calls)", "", "");
        let gflops = op_flops / median(&w.lat) / 1e6;
        rep.rate_unstolen("gflops", gflops, "GFLOP/s", steal);
        return;
    }

    let (eg, _) = set_up(&s, &b, &mut rng);
    layers::jit(rep, eg.runtime());
    let c0 = Counters::take(eg.runtime());
    let w = calls(&eg, &s, &b, opts.seconds, true, &mut rng);
    let n = w.lat.len() + w.traced.len();
    c0.report(rep, eg.runtime(), n);
    rep.ops(n as u64, w.failed);
    rep.ratio(
        "trace.overhead_pct",
        paired_overhead_pct(&w.lat, &w.traced),
        "%",
        &format!(
            "untraced call p50 = {:.4} ms; median over {} interleaved pairs of an untraced \
             call and a call with per-call counter spans",
            median(&w.lat),
            w.traced.len()
        ),
    );
    let ceil = layers::host(rep, 5);
    let a = rng.matrix(s.m, s.k);
    let b_op = if s.shared_b { b } else { rng.matrix(s.k, s.n) };
    layers::fp(rep, &a, 5);
    layers::engine_layers(rep, &a, &b_op, &ceil, 3);
    layers::fingerprint_and_tcsim(rep, &eg, &b_op, &[GemmShape::new(s.m, s.n, s.k)]);
    layers::telemetry(rep, &eg, &mut rng, 30);
    crate::serve::probe(opts, rep, &mut rng);
    crate::kmeans::probe(opts, rep, &mut rng);
}
