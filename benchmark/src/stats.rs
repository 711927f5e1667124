//! Seeded inputs and the order statistics every metric is reported with.

use egemm_matrix::Matrix;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A derived stream, independent of this one's future draws.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// `rows x cols` matrix, entries uniform in `[-1, 1)`.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<f32> {
        let data = (0..rows * cols)
            .map(|_| (2.0 * self.unit() - 1.0) as f32)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }
}

/// Median of `xs` (0.0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0.0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A tail: the highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    /// Samples per window.
    pub samples: usize,
    /// Windows whose tails the value is the median of.
    pub windows: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{} of {} samples", self.percentile, self.samples)?;
        if self.windows > 1 {
            write!(f, ", median over {} windows", self.windows)?;
        }
        Ok(())
    }
}

/// The highest of the standard percentiles (nearest rank) that leaves
/// at least ten samples above it; the maximum, flagged as percentile
/// 100, when there are too few samples for any.
pub fn tail(xs: &[f64]) -> Tail {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                value: s[rank - 1],
                percentile: p,
                samples: n,
                windows: 1,
            };
        }
    }
    Tail {
        value: s.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        samples: n,
        windows: 1,
    }
}

/// The tail of a long series, steadied: the series is cut, in arrival
/// order, into up to eight windows of at least 250 samples, and the
/// median of the windows' tails is reported (one window: the plain
/// tail). Each window's tail still has at least ten samples beyond it.
pub fn windowed_tail(xs: &[f64]) -> Tail {
    let windows = (xs.len() / 250).clamp(1, 8);
    let size = xs.len() / windows;
    let tails: Vec<Tail> = (0..windows)
        .map(|w| {
            tail(
                &xs[w * size..if w + 1 == windows {
                    xs.len()
                } else {
                    (w + 1) * size
                }],
            )
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        value: median(&values),
        percentile: tails[0].percentile,
        samples: size,
        windows,
    }
}

/// Sleep until `due`. No spinning: on a host with few cores a spinning
/// sender would take CPU from the server it measures. The sender's
/// lateness is reported (`loadgen.late_tail_ms`), and requests are timed
/// from when they were due, so oversleeping is never hidden.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tracing overhead in percent from interleaved pairs: the median over
/// pairs `i` of `traced[i] / plain[i] - 1`. Pairing each traced
/// operation with its untraced neighbour cancels the host's drift.
pub fn paired_overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let pairs: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| 100.0 * (t - p) / p)
        .collect();
    median(&pairs)
}

/// Run `f` `reps` times and return the median wall time in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 100.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }
}
