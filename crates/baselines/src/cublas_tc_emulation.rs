//! cuBLAS-TC-Emulation: Algorithm 1 implemented with generic
//! `cublasGemmEx` calls (Table 5).
//!
//! The paper's "what if you emulate with the vendor library instead of a
//! custom kernel" baseline: the round-split is identical to EGEMM-TC's,
//! but each of the four product terms becomes a **separate full-k GEMM
//! launch** accumulating into D (`beta = 1`). Consequences the model
//! captures:
//!
//! * *numerics*: term-major accumulation — each launch reduces over all of
//!   k before the next term is added — instead of EGEMM-TC's fused
//!   per-k-chunk term interleaving; the results differ in the low bits;
//! * *performance*: 4 kernel launches; the C/D matrix makes a DRAM round
//!   trip between launches; no cross-term fragment reuse. On top, the
//!   vendor library's kernel-selection heuristic degrades on strongly
//!   K-skewed problems (Figure 9a: "significant slowdown when the matrix
//!   size exceeds 4096x4096x8192"): it switches to a split-K kernel with
//!   smaller tiles, which we model as the documented tile shrink plus
//!   per-slice C traffic.

use crate::GemmBaseline;
use egemm::{
    build_kernel, emulated_gemm_tk, EmulationScheme, KernelOpts, SplitMatrix, TilingConfig,
};
use egemm_fp::SplitScheme;
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{kernel_time, DeviceSpec, KernelTiming};

/// The 4-launch `cublasGemmEx` emulation baseline.
#[derive(Debug, Clone)]
pub struct CublasTcEmulation {
    /// Tiling of the vendor's regular TC kernel.
    pub config: TilingConfig,
}

impl CublasTcEmulation {
    /// Construct for a device.
    pub fn new(spec: DeviceSpec) -> CublasTcEmulation {
        let _ = spec;
        CublasTcEmulation {
            config: TilingConfig::T4_PAPER,
        }
    }

    /// The vendor heuristic's split-K slice count for a shape: regular
    /// kernels up to k = 8192 or mild skew; beyond that, k/8192 slices.
    pub fn split_k_slices(shape: GemmShape) -> u64 {
        if shape.k > 8192 && shape.k >= 2 * shape.m.max(shape.n) {
            (shape.k as u64).div_ceil(8192)
        } else {
            1
        }
    }
}

impl GemmBaseline for CublasTcEmulation {
    fn name(&self) -> &'static str {
        "cuBLAS-TC-Emulation"
    }

    fn compute(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        // Four separate GEMM launches in Algorithm-1 term order, each a
        // full-k reduction accumulating into D (beta = 1). Each launch is
        // a plain half-input TC GEMM over one (A-plane, B-plane) pair.
        let sa = SplitMatrix::split(a, SplitScheme::Round);
        let sb = SplitMatrix::split(b, SplitScheme::Round);
        let mut d: Option<Matrix<f32>> = None;
        for &(a_lo, b_lo) in EmulationScheme::EgemmTc.terms() {
            // Present the selected planes as a TcHalf-scheme operand pair:
            // the single-term kernel reads only the hi plane of its
            // round-split, which reproduces the widened plane values
            // exactly (they are binary16 already).
            let ap = plane_matrix(&sa, a_lo);
            let bp = plane_matrix(&sb, b_lo);
            let out = emulated_gemm_tk(
                &ap,
                &bp,
                d.as_ref(),
                EmulationScheme::TcHalf,
                TilingConfig::TC.k,
            );
            d = Some(out);
        }
        d.expect("four launches ran")
    }

    fn time(&self, spec: &DeviceSpec, shape: GemmShape) -> KernelTiming {
        // One launch = a single-term (TcHalf-like) vendor kernel; the
        // emulation issues 4 of them, with C read+written in between.
        let slices = Self::split_k_slices(shape);
        let config = if slices > 1 {
            // Split-K kernels run smaller tiles per slice.
            TilingConfig {
                bm: 64,
                bn: 64,
                bk: 32,
                wm: 32,
                wn: 32,
                wk: 8,
            }
        } else {
            self.config
        };
        let mut desc = build_kernel(
            spec,
            &config,
            shape,
            EmulationScheme::TcHalf,
            KernelOpts::default(),
        );
        let mn_bytes = (shape.m * shape.n * 4) as u64;
        // 4 launches: the A/B traffic quadruples relative to one launch
        // (each term re-reads its planes), C round-trips between launches
        // (3 reads + 4 writes instead of 1 write), and split-K adds a
        // partial-sum round trip per extra slice per launch.
        desc.dram_bytes = 4 * desc.dram_bytes + 3 * mn_bytes + 4 * (slices - 1) * 2 * mn_bytes;
        desc.launches = 4 * slices as u32;
        // Pipeline work: 4 passes over the k loop (per slice the k range
        // shrinks but the slice count multiplies back).
        desc.iterations_per_warp *= 4;
        desc.name = format!("cuBLAS-TC-Emulation[4x {}]", config);
        kernel_time(spec, &desc)
    }
}

/// Widen one plane of a split matrix back to f32 storage.
fn plane_matrix(s: &SplitMatrix, lo: bool) -> Matrix<f32> {
    Matrix::from_vec(s.rows(), s.cols(), s.plane(lo).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::max_abs_error;
    use egemm_matrix::gemm_f64_of_f32;

    #[test]
    fn same_extended_precision_as_egemm() {
        // Term-major vs chunk-major differ in low bits but both deliver
        // 21-bit emulation accuracy.
        let a = Matrix::<f32>::random_uniform(64, 64, 1);
        let b = Matrix::<f32>::random_uniform(64, 64, 2);
        let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let emu = CublasTcEmulation::new(DeviceSpec::t4()).compute(&a, &b);
        let eg = crate::EgemmTc::auto(DeviceSpec::t4()).compute(&a, &b);
        let e_emu = max_abs_error(&emu.to_f64_vec(), &truth);
        let e_eg = max_abs_error(&eg.to_f64_vec(), &truth);
        assert!(e_emu < 1e-3, "term-major emulation err {e_emu}");
        assert!(
            e_emu < 3.0 * e_eg + 1e-6,
            "within a small factor of fused: {e_emu} vs {e_eg}"
        );
        // And the orders genuinely differ.
        assert_ne!(emu, eg);
    }

    #[test]
    fn egemm_speedup_in_paper_band() {
        // §7.3: 1.35x average over cuBLAS-TC-Emulation on square sizes.
        let spec = DeviceSpec::t4();
        let mut speedups = Vec::new();
        for n in [2048usize, 4096, 8192, 16384] {
            let shape = GemmShape::square(n);
            let base = CublasTcEmulation::new(spec).tflops(&spec, shape);
            let eg = crate::EgemmTc::auto(spec).tflops(&spec, shape);
            speedups.push(eg / base);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (1.1..=1.8).contains(&avg),
            "avg speedup {avg} ({speedups:?})"
        );
    }

    #[test]
    fn split_k_cliff_on_skewed_shapes() {
        // Figure 9a: slowdown once the K-skewed family passes
        // 4096x4096x8192.
        assert_eq!(
            CublasTcEmulation::split_k_slices(GemmShape::skewed_k(4096)),
            1
        );
        assert!(CublasTcEmulation::split_k_slices(GemmShape::skewed_k(8192)) > 1);
        let spec = DeviceSpec::t4();
        let base = CublasTcEmulation::new(spec);
        let before = base.tflops(&spec, GemmShape::skewed_k(4096));
        let after = base.tflops(&spec, GemmShape::skewed_k(8192));
        assert!(
            after < before * 0.9,
            "expected a cliff: {before} -> {after} TFLOPS"
        );
        // EGEMM-TC stays consistent across the same boundary (§7.3).
        let eg = crate::EgemmTc::auto(spec);
        let eg_before = eg.tflops(&spec, GemmShape::skewed_k(4096));
        let eg_after = eg.tflops(&spec, GemmShape::skewed_k(8192));
        assert!(
            eg_after > eg_before * 0.9,
            "EGEMM: {eg_before} -> {eg_after}"
        );
    }
}
