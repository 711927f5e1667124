//! Cross-crate integration spanning baselines + applications: the whole
//! Table 5 kernel zoo driving the §7.5 workloads, checked for numeric
//! agreement and modeled-performance consistency.

use egemm_baselines::{
    CublasCudaFp32, CublasTcEmulation, CublasTcHalf, EgemmTc, GemmBaseline, Markidis, SdkCudaFp32,
};
use egemm_matrix::{GemmShape, Matrix};
use egemm_sci::{
    app_speedup, gaussian_blobs, kmeans_iteration, knn_exact, knn_iteration, recall_at_k,
    uniform_cloud, KMeans, Knn, KMEANS_D, KMEANS_K, KNN_D, KNN_K,
};
use egemm_tcsim::DeviceSpec;

fn all_backends(spec: DeviceSpec) -> Vec<Box<dyn GemmBaseline>> {
    vec![
        Box::new(EgemmTc::auto(spec)),
        Box::new(CublasCudaFp32::new()),
        Box::new(CublasTcEmulation::new(spec)),
        Box::new(CublasTcHalf::new(spec)),
        Box::new(SdkCudaFp32::new()),
        Box::new(Markidis::new(spec)),
    ]
}

#[test]
fn every_backend_drives_kmeans() {
    let spec = DeviceSpec::t4();
    let (data, _, _) = gaussian_blobs(120, 16, 3, 0.01, 1);
    let mut reference: Option<Vec<usize>> = None;
    for backend in all_backends(spec) {
        let result = KMeans::new(backend.as_ref()).fit(&data, 3, 9);
        assert_eq!(result.assignments.len(), 120, "{}", backend.name());
        // Well-separated blobs: every backend, even half precision, finds
        // the same partition.
        match &reference {
            None => reference = Some(result.assignments),
            Some(r) => {
                // Compare up to label permutation via co-membership.
                for i in 0..120 {
                    for j in (i + 1)..120 {
                        assert_eq!(
                            r[i] == r[j],
                            result.assignments[i] == result.assignments[j],
                            "{}: pair ({i},{j})",
                            backend.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_backend_drives_knn_with_high_recall() {
    let spec = DeviceSpec::t4();
    let q = uniform_cloud(24, 32, 2);
    let r = uniform_cloud(160, 32, 3);
    let truth = knn_exact(&q, &r, 5);
    for backend in all_backends(spec) {
        let res = Knn::new(backend.as_ref()).search(&q, &r, 5);
        let recall = recall_at_k(&res.indices, &truth);
        // Sparse reference sets: even half precision ranks these.
        assert!(recall >= 0.9, "{}: recall {recall}", backend.name());
    }
}

#[test]
fn speedup_hierarchy_is_consistent_across_apps() {
    // The faster the GEMM backend, the faster the application: the
    // application model must preserve the GEMM ordering.
    let spec = DeviceSpec::t4();
    let eg = EgemmTc::auto(spec);
    let fp = CublasCudaFp32::new();
    let sdk = SdkCudaFp32::new();
    let n = 8192;
    let t_eg = kmeans_iteration(&spec, &eg, n, KMEANS_D, KMEANS_K);
    let t_fp = kmeans_iteration(&spec, &fp, n, KMEANS_D, KMEANS_K);
    let t_sdk = kmeans_iteration(&spec, &sdk, n, KMEANS_D, KMEANS_K);
    assert!(t_eg.total_s() < t_fp.total_s());
    assert!(t_fp.total_s() < t_sdk.total_s());
    // Speedups over the slowest backend are ordered accordingly.
    let s_eg = app_speedup(t_sdk, t_eg);
    let s_fp = app_speedup(t_sdk, t_fp);
    assert!(s_eg > s_fp && s_fp > 1.0);
}

#[test]
fn knn_gemm_dominates_at_scale_for_every_tc_backend() {
    let spec = DeviceSpec::t4();
    for backend in [
        &EgemmTc::auto(spec) as &dyn GemmBaseline,
        &CublasTcHalf::new(spec),
    ] {
        let t = knn_iteration(&spec, backend, 16384, KNN_D, KNN_K);
        assert!(
            t.gemm_fraction() > 0.3,
            "{}: GEMM fraction {}",
            backend.name(),
            t.gemm_fraction()
        );
    }
}

#[test]
fn backend_timings_are_self_consistent_across_shapes() {
    // tflops() and time() must agree through Eq. 9 for every backend and
    // a spread of shapes.
    let spec = DeviceSpec::t4();
    for backend in all_backends(spec) {
        for shape in [
            GemmShape::square(2048),
            GemmShape::skewed_k(2048),
            GemmShape::skewed_m(1024),
            GemmShape::new(512, 8192, 1024),
        ] {
            let t = backend.time(&spec, shape);
            let expect = shape.flops() as f64 / t.time_s / 1e12;
            assert!(
                (t.tflops - expect).abs() < 1e-9,
                "{} at {shape}: {} vs {}",
                backend.name(),
                t.tflops,
                expect
            );
        }
    }
}

#[test]
fn half_backend_loses_recall_on_dense_sets() {
    // The precision story end-to-end: densify the reference set until
    // half-precision misranks, then verify EGEMM-TC does not.
    let spec = DeviceSpec::t4();
    // Construct guaranteed near-ties: queries and references drawn as
    // small perturbations of one base point, so all distances are nearly
    // equal and the ranking hinges on digits below half precision.
    let d = 256;
    let base = uniform_cloud(1, d, 50);
    let jitter = |n: usize, seed: u64, scale: f32| {
        let noise = uniform_cloud(n, d, seed);
        Matrix::from_fn(n, d, |i, j| base.get(0, j) + scale * noise.get(i, j))
    };
    let q = jitter(32, 51, 0.02);
    let r = jitter(800, 52, 0.02);
    let truth = knn_exact(&q, &r, 10);
    let rec_half = recall_at_k(
        &Knn::new(&CublasTcHalf::new(spec))
            .search(&q, &r, 10)
            .indices,
        &truth,
    );
    let rec_eg = recall_at_k(
        &Knn::new(&EgemmTc::auto(spec)).search(&q, &r, 10).indices,
        &truth,
    );
    assert!(rec_eg > rec_half, "EGEMM {rec_eg} vs half {rec_half}");
    assert!(rec_half < 0.95, "half should visibly misrank: {rec_half}");
    assert!(rec_eg >= 0.95, "EGEMM recall {rec_eg}");
}

#[test]
fn matrix_products_agree_between_extended_backends() {
    // EGEMM-TC and the 4-launch emulation compute the same mathematical
    // object with different accumulation grouping: results agree to the
    // emulation error envelope, not bitwise.
    let spec = DeviceSpec::t4();
    let a = Matrix::<f32>::random_uniform(96, 96, 7);
    let b = Matrix::<f32>::random_uniform(96, 96, 8);
    let d1 = EgemmTc::auto(spec).compute(&a, &b);
    let d2 = CublasTcEmulation::new(spec).compute(&a, &b);
    let max = d1
        .as_slice()
        .iter()
        .zip(d2.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0f32, f32::max);
    assert!(max < 1e-4, "extended backends diverged by {max}");
    assert_ne!(d1, d2, "different grouping must differ in low bits");
}

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned fit: `(points, dim, clusters, seed, iterations,
/// inertia bits, FNV-1a of the assignments then the centroid bits)`.
type Golden = (usize, usize, usize, u64, usize, u64, u64);

/// Fit `gaussian_blobs(n, d, k, 0.15, seed)` through EGEMM-TC and demand
/// the pinned solution, bit for bit.
fn assert_golden_fit(&(n, d, k, seed, iterations, inertia_bits, digest): &Golden) {
    let (data, _, _) = gaussian_blobs(n, d, k, 0.15, seed);
    let r = KMeans::new(&EgemmTc::auto(DeviceSpec::t4())).fit(&data, k, seed);
    let got = fnv1a(
        r.assignments.iter().map(|&a| a as u64).chain(
            r.centroids
                .as_slice()
                .iter()
                .map(|c| u64::from(c.to_bits())),
        ),
    );
    assert_eq!(
        (r.iterations, r.inertia.to_bits(), got),
        (iterations, inertia_bits, digest),
        "{n}x{d} k={k} seed={seed}: inertia {}",
        r.inertia
    );
}

/// kMeans solutions pinned bit for bit: ragged point counts against the
/// seeding pass's row blocks, and dimensions and cluster counts that
/// are no multiple of 8, 16 or 256, so every ragged edge of the
/// seeding pass, the distance GEMM and the epilogue runs. The constants
/// were recorded before the seeding pass and the Lloyd epilogue were
/// vectorized; any change to either that moves one bit fails here.
#[test]
fn kmeans_solutions_are_pinned() {
    const GOLDEN: [Golden; 4] = [
        (
            500,
            12,
            5,
            11,
            3,
            0x4060_f25e_0880_0000,
            0x8fac_a373_203b_2c1a,
        ),
        (
            1001,
            7,
            9,
            12,
            20,
            0x406d_8197_2840_0000,
            0x7b38_6b70_17e2_5c06,
        ),
        (
            333,
            33,
            3,
            13,
            3,
            0x406e_7b05_ae00_0000,
            0x101a_f9c5_6fab_a7f1,
        ),
        (
            777,
            61,
            13,
            14,
            4,
            0x40a2_5c5d_ec20_0000,
            0x71f2_58e9_8d91_617e,
        ),
    ];
    GOLDEN.iter().for_each(assert_golden_fit);
}

/// The benchmark's `kmeans_fit` shape (8192x60, k = 50), pinned the
/// same way. Opt-in; CI runs it in release mode:
/// `cargo test --release -p egemm-sci -- --ignored`.
#[test]
#[ignore]
fn kmeans_benchmark_shape_is_pinned() {
    assert_golden_fit(&(
        8192,
        60,
        50,
        21,
        16,
        0x40ce_a98f_87c0_0000,
        0x3260_14a2_5904_ab06,
    ));
}
