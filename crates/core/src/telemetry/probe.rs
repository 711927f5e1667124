//! Sampled numerical-health probe.
//!
//! Extended precision is the product; this is the production signal
//! that it is holding. At a configurable 1-in-N call rate
//! (`EGEMM_PROBE_RATE`, or [`set_probe_rate`]; 0 = off, the default) a
//! completed GEMM has a handful of its output elements recomputed as
//! exact f64 dot products over the original f32 operands and compared
//! against the a-priori worst-case bound from `errbound` for that
//! element's actual operand ranges. Each sampled element feeds the
//! `egemm_numerical_health` histogram with its error-to-bound ratio in
//! parts-per-million (healthy extended precision sits 1–2 orders below
//! the worst case, i.e. well under 1e6 ppm); a ratio above 1e6 — a
//! measured error exceeding its proven bound — additionally bumps
//! `egemm_bound_violations_total`, which should stay at zero forever.
//!
//! The probe is a pure observer: it only *reads* the inputs and the
//! output. The probed-vs-unprobed bit-identity proptest in
//! `tests/telemetry.rs` enforces that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

use egemm_matrix::Matrix;

use crate::emulation::EmulationScheme;
use crate::envcfg::{self, EnvNum};
use crate::errbound;

use super::hist::LogHistogram;
use super::metrics::{self, Counter};

/// Elements recomputed per probed call — enough for a signal, cheap
/// enough (4 length-k f64 dots) to leave the call's cost unchanged.
const SAMPLES_PER_PROBE: usize = 4;

/// 1-in-N sampling rate; 0 disables the probe.
static RATE: AtomicU64 = AtomicU64::new(0);
/// Calls seen since process start (drives the 1-in-N cadence).
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Deterministic per-process stream for picking sample coordinates
/// (splitmix64 over a fetch-add'ed state: lock-free and seedless).
static RNG: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);

static ENV_ONCE: Once = Once::new();

/// Current sampling rate (0 = probe off).
pub fn probe_rate() -> u64 {
    RATE.load(Ordering::Relaxed)
}

/// Set the 1-in-N sampling rate programmatically (0 disables). Wins
/// over the environment, like `telemetry::set_enabled`.
pub fn set_probe_rate(n: u64) {
    ENV_ONCE.call_once(|| {});
    RATE.store(n, Ordering::Relaxed);
}

/// Apply `EGEMM_PROBE_RATE` once per process.
pub fn init_from_env() {
    ENV_ONCE.call_once(|| match envcfg::read_usize("EGEMM_PROBE_RATE") {
        EnvNum::Unset => {}
        EnvNum::Parsed(v, _) => RATE.store(v as u64, Ordering::Relaxed),
        EnvNum::Garbage(raw) => {
            static WARN: Once = Once::new();
            envcfg::warn_once(&WARN, || {
                format!(
                    "egemm: ignoring EGEMM_PROBE_RATE={raw:?} (not a non-negative integer); \
                     probe stays off"
                )
            });
        }
    });
}

/// Next value from the shared splitmix64 stream.
fn next_rand() -> u64 {
    let mut z = RNG.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform-ish index in `[0, n)` (n > 0) for sampling batch members.
pub(crate) fn pick(n: usize) -> usize {
    (next_rand() % n.max(1) as u64) as usize
}

/// Probe one completed GEMM if this call is sampled: `d` should be
/// `a·b (+ c)` computed by any emulation path. No-op unless the rate is
/// nonzero, the 1-in-N counter fires, and metrics recording is on.
pub(crate) fn maybe_probe(
    scheme: EmulationScheme,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: Option<&Matrix<f32>>,
    d: &Matrix<f32>,
) {
    let rate = probe_rate();
    if rate == 0 || !metrics::enabled() {
        return;
    }
    if !CALLS.fetch_add(1, Ordering::Relaxed).is_multiple_of(rate) {
        return;
    }
    probe_now(scheme, a, b, c, d);
}

/// Unconditionally probe the call (sampling already decided).
fn probe_now(
    scheme: EmulationScheme,
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    c: Option<&Matrix<f32>>,
    d: &Matrix<f32>,
) {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    static HEALTH: OnceLock<Arc<LogHistogram>> = OnceLock::new();
    static PROBES: OnceLock<Arc<Counter>> = OnceLock::new();
    static VIOLATIONS: OnceLock<Arc<Counter>> = OnceLock::new();
    let health = HEALTH.get_or_init(|| metrics::histogram("egemm_numerical_health"));
    let probes = PROBES.get_or_init(|| metrics::counter("egemm_numerical_health_probes_total"));
    let violations = VIOLATIONS.get_or_init(|| metrics::counter("egemm_bound_violations_total"));

    for _ in 0..SAMPLES_PER_PROBE {
        let i = pick(m);
        let j = pick(n);
        // Exact f64 recomputation of element (i, j), tracking the
        // operand range the bound needs.
        let mut exact = c.map_or(0.0f64, |c| c.get(i, j) as f64);
        let mut r: f64 = 0.0;
        for p in 0..k {
            let x = a.get(i, p) as f64;
            let y = b.get(p, j) as f64;
            exact += x * y;
            r = r.max(x.abs()).max(y.abs());
        }
        let c_abs = c.map_or(0.0f64, |c| (c.get(i, j) as f64).abs());
        let measured = (d.get(i, j) as f64 - exact).abs();
        let bound = errbound::dot_error_bound_with_c(scheme, k, r, c_abs);
        // ppm of the bound: 1_000_000 means "exactly at the worst
        // case". Zero bound (all-zero operand ranges) must yield a zero
        // error; treat any nonzero residual there as a violation.
        let ppm = if bound > 0.0 {
            (measured / bound * 1e6).min(u64::MAX as f64) as u64
        } else if measured == 0.0 {
            0
        } else {
            u64::MAX
        };
        probes.inc();
        health.observe(ppm);
        if ppm > 1_000_000 {
            violations.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_stays_in_range() {
        for n in [1usize, 2, 7, 1000] {
            for _ in 0..64 {
                assert!(pick(n) < n);
            }
        }
    }

    #[test]
    fn healthy_gemm_probes_clean() {
        // Drive probe_now directly on a correct emulated product: no
        // violations, and every sample lands under the bound.
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(24, 40, 11);
        let b = Matrix::<f32>::random_uniform(40, 16, 12);
        let d = crate::emulation::emulated_gemm(&a, &b, None, scheme);
        let before = metrics::counter("egemm_bound_violations_total").get();
        let probed = metrics::counter("egemm_numerical_health_probes_total").get();
        probe_now(scheme, &a, &b, None, &d);
        assert_eq!(
            metrics::counter("egemm_numerical_health_probes_total").get(),
            probed + SAMPLES_PER_PROBE as u64
        );
        assert_eq!(
            metrics::counter("egemm_bound_violations_total").get(),
            before,
            "correct output must not violate its own bound"
        );
    }

    #[test]
    fn corrupted_output_trips_the_violation_counter() {
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(8, 8, 21);
        let b = Matrix::<f32>::random_uniform(8, 8, 22);
        // A wildly wrong "output": every sampled element violates.
        let d = Matrix::from_fn(8, 8, |_, _| 1.0e6f32);
        let before = metrics::counter("egemm_bound_violations_total").get();
        probe_now(scheme, &a, &b, None, &d);
        assert!(
            metrics::counter("egemm_bound_violations_total").get() > before,
            "corrupt output must register violations"
        );
    }
}
