//! GEMM-based kMeans (Lloyd's algorithm) — §7.5's first application.
//!
//! The dominant cost of a Lloyd iteration is the point-to-centroid
//! distance computation, which the open-source GPU implementation the
//! paper compares against \[2\] casts as a GEMM:
//!
//! ```text
//! ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²
//! ```
//!
//! so assignments need only the cross-term `X · Cᵀ` — an
//! `(n, k_c, d)` GEMM — plus cheap norm vectors. The GEMM runs through a
//! pluggable [`GemmBaseline`]; everything else (argmin, centroid update)
//! is the "epilogue" the Figure 12 time model accounts separately.
//!
//! `‖x‖²` is constant across the argmin and is omitted from it, exactly
//! as the reference implementation does; it enters only the inertia,
//! and is computed once per fit (the points never change).
//!
//! **Seeding.** kMeans++ makes `k − 1` sequential passes over all the
//! points, each folding the squared distance to the latest seed into
//! every row's running minimum. A fit makes one column-major copy of
//! the points for these passes and drops it before the Lloyd loop. A
//! pass walks blocks of 256 rows column by column, holding one `f64`
//! accumulator per row in SIMD lanes (one portable kernel, with an
//! AVX-512F build of it picked at run time). A row's distance is still
//! `Σ_j ((x_ij − c_j) as f64)²`, summed over ascending `j` from `-0.0`
//! — the scalar per-row loop's roundings in its order — so every
//! distance, and with it every seed, is bit-identical to that loop's. The sum of the distances and the
//! weighted pick stay serial, in index order.

use egemm_baselines::GemmBaseline;
use egemm_matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Rows per seeding block: the block's accumulators (one `f64` per row)
/// stay in L1 while its columns stream past.
const SEED_BLOCK: usize = 256;

/// kMeans engine over a GEMM backend.
pub struct KMeans<'a> {
    /// GEMM kernel used for the distance cross-term.
    pub backend: &'a dyn GemmBaseline,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on the relative inertia improvement.
    pub tol: f64,
}

/// Result of a kMeans fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, `k x d`.
    pub centroids: Matrix<f32>,
    /// Per-point cluster assignment.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl<'a> KMeans<'a> {
    /// Build with default iteration budget.
    pub fn new(backend: &'a dyn GemmBaseline) -> KMeans<'a> {
        KMeans {
            backend,
            max_iters: 50,
            tol: 1e-6,
        }
    }

    /// Run Lloyd's algorithm on `data` (`n x d`) with `k` clusters,
    /// seeded by kMeans++.
    pub fn fit(&self, data: &Matrix<f32>, k: usize, seed: u64) -> KMeansResult {
        let n = data.rows();
        let d = data.cols();
        assert!(k > 0 && k <= n, "1 <= k <= n required");
        let mut rng = StdRng::seed_from_u64(seed);
        let chosen = kmeans_pp(data, k, &mut rng);
        let mut centroids = Matrix::from_fn(k, d, |c, j| data.get(chosen[c], j));
        // ‖x‖² per point, for the inertia.
        let mut x_norm = vec![0f32; n];
        x_norm
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, xn)| *xn = data.row(i).iter().map(|&v| v * v).sum());

        let mut assignments = vec![0usize; n];
        let mut last_inertia = f64::INFINITY;
        let mut iterations = 0;
        for it in 0..self.max_iters {
            iterations = it + 1;
            // GEMM phase: cross terms X·Cᵀ through the backend.
            let ct = centroids.transpose();
            let cross = self.backend.compute(data, &ct);
            // Epilogue: centroid norms + argmin.
            let c_norm: Vec<f32> = (0..k)
                .map(|c| centroids.row(c).iter().map(|&v| v * v).sum())
                .collect();
            let inertia: f64 = assignments
                .par_iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let row = cross.row(i);
                    let mut best = 0usize;
                    let mut best_score = f32::INFINITY;
                    for c in 0..k {
                        // argmin of ||x||^2 - 2 x·c + ||c||^2; drop ||x||^2.
                        let score = c_norm[c] - 2.0 * row[c];
                        if score < best_score {
                            best_score = score;
                            best = c;
                        }
                    }
                    *slot = best;
                    (x_norm[i] + best_score).max(0.0) as f64
                })
                .sum();
            // Update phase: new centroids as assigned means, each
            // coordinate summed over ascending point index.
            let mut sums = vec![0f64; k * d];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                for (s, &x) in sums[c * d..][..d].iter_mut().zip(data.row(i)) {
                    *s += x as f64;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random point.
                    let i = rng.random_range(0..n);
                    centroids.row_mut(c).copy_from_slice(data.row(i));
                } else {
                    for (x, &s) in centroids.row_mut(c).iter_mut().zip(&sums[c * d..][..d]) {
                        *x = (s / counts[c] as f64) as f32;
                    }
                }
            }
            if (last_inertia - inertia).abs() <= self.tol * inertia.max(1e-30) {
                last_inertia = inertia;
                break;
            }
            last_inertia = inertia;
        }
        KMeansResult {
            centroids,
            assignments,
            inertia: last_inertia,
            iterations,
        }
    }
}

/// kMeans++ initialization: the first seed uniform, each next one
/// sampled proportionally to the squared distance from the nearest seed
/// chosen so far — spreads the seeds across separated clusters. Returns
/// the seeds' row indices.
fn kmeans_pp(data: &Matrix<f32>, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = data.rows();
    let mut chosen = vec![rng.random_range(0..n)];
    // Column-major copy for the seeding passes; dropped on return.
    let cols = data.transpose();
    let mut d2 = vec![f64::MAX; n];
    while chosen.len() < k {
        let last = *chosen.last().expect("nonempty");
        seed_pass(&cols, data.row(last), &mut d2);
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        chosen.push(next);
    }
    chosen
}

/// One seeding pass: lower every `d2[i]` to the squared distance from
/// point `i` to `center` where that is smaller. `cols` is the points'
/// transpose (`d x n`).
fn seed_pass(cols: &Matrix<f32>, center: &[f32], d2: &mut [f64]) {
    for (b, block) in d2.chunks_mut(SEED_BLOCK).enumerate() {
        seed_block(cols, b * SEED_BLOCK, center, block);
    }
}

/// [`seed_pass`] on the at most [`SEED_BLOCK`] rows starting at `row0`,
/// whose running minima are `d2`.
fn seed_block(cols: &Matrix<f32>, row0: usize, center: &[f32], d2: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F support just verified.
        return unsafe { seed_block_avx512(cols, row0, center, d2) };
    }
    seed_block_portable(cols, row0, center, d2)
}

/// [`seed_block_portable`] compiled for AVX-512F: each column's rows
/// become sixteen-lane `vsubps`, `vcvtps2pd`, `vmulpd` and `vaddpd`.
/// Rust never fuses the multiply into the add, so the roundings stay
/// the scalar loop's.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn seed_block_avx512(cols: &Matrix<f32>, row0: usize, center: &[f32], d2: &mut [f64]) {
    seed_block_portable(cols, row0, center, d2)
}

/// [`seed_block`] with one accumulator lane per row.
#[inline(always)]
fn seed_block_portable(cols: &Matrix<f32>, row0: usize, center: &[f32], d2: &mut [f64]) {
    let mut dist = [-0.0f64; SEED_BLOCK];
    let dist = &mut dist[..d2.len()];
    for (j, &c) in center.iter().enumerate() {
        let col = &cols.row(j)[row0..][..dist.len()];
        for (acc, &x) in dist.iter_mut().zip(col) {
            let t = (x - c) as f64;
            *acc += t * t;
        }
    }
    // The scalar pass's compare, so a NaN distance never replaces a
    // minimum.
    for (m, &x) in d2.iter_mut().zip(dist.iter()) {
        if x < *m {
            *m = x;
        }
    }
}

/// Reference assignment step (no GEMM): for validating backends.
pub fn assign_naive(data: &Matrix<f32>, centroids: &Matrix<f32>) -> Vec<usize> {
    (0..data.rows())
        .map(|i| {
            let x = data.row(i);
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for c in 0..centroids.rows() {
                let dist: f64 = x
                    .iter()
                    .zip(centroids.row(c))
                    .map(|(&a, &b)| {
                        let t = (a - b) as f64;
                        t * t
                    })
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_blobs;
    use egemm_baselines::{CublasCudaFp32, EgemmTc};
    use egemm_tcsim::DeviceSpec;

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, labels, _) = gaussian_blobs(240, 16, 4, 0.01, 5);
        let backend = EgemmTc::auto(DeviceSpec::t4());
        let result = KMeans::new(&backend).fit(&data, 4, 42);
        assert!(result.iterations >= 1);
        // Clustering must be consistent with the ground truth up to a
        // label permutation: points with equal true labels share a
        // cluster.
        for i in 0..240 {
            for j in 0..240 {
                if labels[i] == labels[j] {
                    assert_eq!(
                        result.assignments[i], result.assignments[j],
                        "points {i},{j} from one blob split up"
                    );
                }
            }
        }
    }

    #[test]
    fn egemm_assignments_match_fp32_backend() {
        // The application-level correctness claim: extended precision is
        // enough — assignments agree with the single-precision backend.
        let (data, _, _) = gaussian_blobs(200, 32, 5, 0.05, 9);
        let eg = EgemmTc::auto(DeviceSpec::t4());
        let fp = CublasCudaFp32::new();
        let r_eg = KMeans::new(&eg).fit(&data, 5, 7);
        let r_fp = KMeans::new(&fp).fit(&data, 5, 7);
        let agree = r_eg
            .assignments
            .iter()
            .zip(&r_fp.assignments)
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree >= 198,
            "only {agree}/200 assignments agree between EGEMM and FP32"
        );
    }

    #[test]
    fn gemm_assignment_matches_naive_oracle() {
        let (data, _, centers) = gaussian_blobs(100, 8, 3, 0.05, 13);
        let backend = CublasCudaFp32::new();
        let cross = backend.compute(&data, &centers.transpose());
        let mut got = vec![0usize; 100];
        let cn: Vec<f32> = (0..3)
            .map(|c| (0..8).map(|j| centers.get(c, j) * centers.get(c, j)).sum())
            .collect();
        for (i, g) in got.iter_mut().enumerate() {
            let mut best = 0;
            let mut score = f32::INFINITY;
            for (c, &cnc) in cn.iter().enumerate() {
                let s = cnc - 2.0 * cross.get(i, c);
                if s < score {
                    score = s;
                    best = c;
                }
            }
            *g = best;
        }
        assert_eq!(got, assign_naive(&data, &centers));
    }

    #[test]
    fn inertia_decreases_monotonically_enough() {
        let (data, _, _) = gaussian_blobs(150, 8, 3, 0.2, 21);
        let backend = EgemmTc::auto(DeviceSpec::t4());
        let one = KMeans {
            backend: &backend,
            max_iters: 1,
            tol: 0.0,
        }
        .fit(&data, 3, 3);
        let many = KMeans {
            backend: &backend,
            max_iters: 20,
            tol: 0.0,
        }
        .fit(&data, 3, 3);
        assert!(
            many.inertia <= one.inertia * 1.0001,
            "{} vs {}",
            many.inertia,
            one.inertia
        );
    }

    /// The scalar seeding pass the blocked one replaced: per row, `get`
    /// by `get`, summed by `Iterator::sum`.
    fn seed_pass_oracle(data: &Matrix<f32>, last: usize, d2: &mut [f64]) {
        for (i, d2i) in d2.iter_mut().enumerate() {
            let dist: f64 = (0..data.cols())
                .map(|j| {
                    let t = (data.get(i, j) - data.get(last, j)) as f64;
                    t * t
                })
                .sum();
            if dist < *d2i {
                *d2i = dist;
            }
        }
    }

    /// Uniform points with ±0.0, subnormals, ±inf, NaN and extremes
    /// sprinkled over every third row.
    fn awkward_points(n: usize, d: usize) -> Matrix<f32> {
        const SPECIAL: [f32; 10] = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            -f32::MAX,
        ];
        let base = Matrix::<f32>::random_uniform(n, d, (n * 64 + d) as u64);
        Matrix::from_fn(n, d, |i, j| match (i * 7 + j * 3) % 13 {
            h if i % 3 == 0 && h < SPECIAL.len() => SPECIAL[h],
            _ => base.get(i, j),
        })
    }

    fn bits(d2: &[f64]) -> Vec<u64> {
        d2.iter().map(|x| x.to_bits()).collect()
    }

    /// The blocked seeding pass, and both block kernels called directly,
    /// against the scalar oracle, bit for bit, over point counts
    /// straddling the block size, ragged dimensions, and rows of special
    /// values; several passes in a row, so minima are both kept and
    /// replaced.
    #[test]
    fn blocked_seeding_matches_scalar_oracle() {
        type Kernel = fn(&Matrix<f32>, usize, &[f32], &mut [f64]);
        let mut kernels: Vec<(&str, Kernel)> = vec![("portable", seed_block_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support just verified.
            kernels.push(("avx512f", |cols, row0, center, d2| unsafe {
                seed_block_avx512(cols, row0, center, d2)
            }));
        }
        for d in [1, 7, 60, 61] {
            let sizes = [
                1,
                17,
                SEED_BLOCK - 1,
                SEED_BLOCK,
                SEED_BLOCK + 1,
                3 * SEED_BLOCK + 5,
            ];
            for n in sizes {
                let data = awkward_points(n, d);
                let cols = data.transpose();
                let mut want = vec![f64::MAX; n];
                let mut pass = want.clone();
                let mut direct = vec![want.clone(); kernels.len()];
                // Plain rows and special-value rows (multiples of 3).
                for last in [n / 2, 0, n - 1, (n - 1) / 3 * 3] {
                    let center = data.row(last);
                    seed_pass_oracle(&data, last, &mut want);
                    seed_pass(&cols, center, &mut pass);
                    assert_eq!(bits(&pass), bits(&want), "pass n={n} d={d} last={last}");
                    for ((name, kernel), got) in kernels.iter().zip(&mut direct) {
                        for (b, block) in got.chunks_mut(SEED_BLOCK).enumerate() {
                            kernel(&cols, b * SEED_BLOCK, center, block);
                        }
                        assert_eq!(bits(got), bits(&want), "{name} n={n} d={d} last={last}");
                    }
                }
            }
        }
    }

    #[test]
    fn assign_naive_matches_scalar_loop() {
        let data = awkward_points(97, 13);
        let centroids = Matrix::<f32>::random_uniform(6, 13, 4);
        let want: Vec<usize> = (0..97)
            .map(|i| {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for c in 0..6 {
                    let dist: f64 = (0..13)
                        .map(|j| {
                            let t = (data.get(i, j) - centroids.get(c, j)) as f64;
                            t * t
                        })
                        .sum();
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                best
            })
            .collect();
        assert_eq!(assign_naive(&data, &centroids), want);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn invalid_k_panics() {
        let data = Matrix::<f32>::zeros(4, 2);
        let backend = CublasCudaFp32::new();
        let _ = KMeans::new(&backend).fit(&data, 5, 0);
    }
}
