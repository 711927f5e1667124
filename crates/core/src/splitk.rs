//! Split-K tensorization — an extension beyond the paper.
//!
//! The paper's kernel assigns each output block tile to one GPU block and
//! iterates the whole reduction dimension inside it. For tall reductions
//! with few output tiles (e.g. `(1024, 1024, 65536)`), the grid is too
//! small to fill the device. Split-K partitions the k range into `s`
//! slices, launches `s` times more blocks, and reduces the partial
//! results — trading extra C traffic and a reduction pass for occupancy.
//!
//! This is the technique the vendor library falls back to (and that the
//! Figure 9a cliff models for `cublasGemmEx`); implementing it *inside*
//! EGEMM-TC keeps the custom kernel's other optimizations, so the
//! crossover happens where occupancy demands it rather than where a
//! library heuristic guesses.
//!
//! Numerics: each slice accumulates in binary32 exactly like the fused
//! kernel over its k range; the final reduction adds the `s` partials in
//! ascending-slice order. The result therefore differs from the fused
//! kernel only in summation grouping, with the same error envelope.

use crate::config::TilingConfig;
use crate::engine::Plan;
use crate::gemm::Egemm;
use crate::kernel::build_kernel;
use crate::telemetry::GemmReport;
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{blocks_per_sm, kernel_time, DeviceSpec, KernelTiming};
use rayon::prelude::*;

/// Choose a slice count for `shape` on `spec`: the smallest power of two
/// that fills the device with at least two full waves (diminishing
/// returns beyond), capped so each slice still covers a few block-k
/// chunks.
pub fn choose_slices(spec: &DeviceSpec, config: &TilingConfig, shape: GemmShape) -> usize {
    let blocks = config.grid_blocks(shape.m, shape.n);
    let res = egemm_tcsim::BlockResources {
        smem_bytes: config.smem_bytes(),
        regs_per_thread: config.regs_per_thread(),
        threads: config.threads_per_block(),
    };
    let capacity = (spec.sm_count * blocks_per_sm(spec, &res).max(1)) as u64;
    let target = 2 * capacity;
    let mut s = 1usize;
    while (blocks * (2 * s) as u64) <= target && shape.k / (2 * s) >= 4 * config.bk {
        s *= 2;
    }
    s
}

/// Result of a split-K GEMM.
#[derive(Debug, Clone)]
pub struct SplitKOutput {
    /// The product.
    pub d: Matrix<f32>,
    /// Slices used.
    pub slices: usize,
    /// Telemetry for the call (all slices + reduction) —
    /// `Some` only while tracing is on.
    pub report: Option<GemmReport>,
}

impl Egemm {
    /// Emulated GEMM with split-K: partition the reduction into `slices`
    /// independent ranges, compute partials, reduce.
    ///
    /// `slices = 0` auto-selects via [`choose_slices`].
    pub fn gemm_split_k(&self, a: &Matrix<f32>, b: &Matrix<f32>, slices: usize) -> SplitKOutput {
        assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let s = if slices == 0 {
            choose_slices(&self.spec, &self.config, shape)
        } else {
            slices
        };
        assert!(s >= 1 && s <= shape.k, "slice count out of range");
        let mwin = Egemm::metrics_begin();
        let window = self.trace_begin();

        // Slice boundaries: contiguous, ascending, sizes within 1.
        let bounds: Vec<(usize, usize)> = (0..s)
            .map(|i| {
                let lo = shape.k * i / s;
                let hi = shape.k * (i + 1) / s;
                (lo, hi)
            })
            .collect();
        // Partials, computed in parallel over slices; each slice runs the
        // blocked engine over its k range (chunking restarts at the slice
        // start, like a fused kernel over the slice alone) and splits
        // straight from the raw operands into packed slivers. B cannot be
        // prepacked — the per-slice k grids start mid-operand.
        let partials: Vec<Matrix<f32>> = bounds
            .par_iter()
            .map(|&range| {
                self.run(Plan {
                    k_range: Some(range),
                    ..Plan::new(a, b, self.scheme)
                })
            })
            .collect();
        // Ascending-slice reduction, in f32 like the device's epilogue.
        let mut d = Matrix::<f32>::zeros(shape.m, shape.n);
        for p in &partials {
            for (acc, &x) in d.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *acc += x;
            }
        }
        let report = self.trace_end(
            window,
            format!("gemm_split_k {}x{}x{} s={s}", shape.m, shape.n, shape.k),
        );
        Egemm::metrics_end(mwin, shape, 1);
        SplitKOutput {
            d,
            slices: s,
            report,
        }
    }

    /// Timing of the split-K execution: the main kernel with `s`x blocks
    /// over k/s-deep slices, plus the partial-sum traffic and reduction.
    pub fn time_split_k(&self, shape: GemmShape, slices: usize) -> KernelTiming {
        let mut desc = build_kernel(&self.spec, &self.config, shape, self.scheme, self.opts);
        desc.blocks *= slices as u64;
        desc.iterations_per_warp = (shape.k / slices).div_ceil(self.config.wk) as u64;
        // Partials spill to DRAM and are re-read by the reduction pass.
        let mn_bytes = (shape.m * shape.n * 4) as u64;
        desc.dram_bytes += (slices as u64).saturating_sub(1) * 2 * mn_bytes;
        desc.launches += 1; // reduction kernel
        desc.name = format!("{} split-k={slices}", desc.name);
        kernel_time(&self.spec, &desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::max_abs_error;
    use egemm_matrix::gemm_f64_of_f32;

    fn engine() -> Egemm {
        Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER)
    }

    #[test]
    fn one_slice_matches_fused_bitwise() {
        let a = Matrix::<f32>::random_uniform(40, 64, 1);
        let b = Matrix::<f32>::random_uniform(64, 24, 2);
        let eng = engine();
        let fused = eng.gemm(&a, &b).d;
        let sk = eng.gemm_split_k(&a, &b, 1);
        assert_eq!(sk.slices, 1);
        for (x, y) in sk.d.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn multi_slice_same_error_envelope() {
        let a = Matrix::<f32>::random_uniform(24, 512, 3);
        let b = Matrix::<f32>::random_uniform(512, 24, 4);
        let eng = engine();
        let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let fused_err = max_abs_error(&eng.gemm(&a, &b).d.to_f64_vec(), &truth);
        for s in [2usize, 4, 8] {
            let sk = eng.gemm_split_k(&a, &b, s);
            let err = max_abs_error(&sk.d.to_f64_vec(), &truth);
            assert!(
                err <= fused_err * 3.0 + 1e-7,
                "{s} slices: err {err} vs fused {fused_err}"
            );
        }
    }

    #[test]
    fn slice_boundaries_handle_ragged_k() {
        // k = 97 over 4 slices exercises non-divisible boundaries and
        // partial tk chunks inside slices.
        let a = Matrix::<f32>::random_uniform(8, 97, 5);
        let b = Matrix::<f32>::random_uniform(97, 8, 6);
        let eng = engine();
        let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let sk = eng.gemm_split_k(&a, &b, 4);
        assert!(max_abs_error(&sk.d.to_f64_vec(), &truth) < 1e-4);
    }

    #[test]
    fn auto_slices_engage_on_skinny_grids() {
        let spec = DeviceSpec::t4();
        let cfg = TilingConfig::T4_PAPER;
        // 512x512 output = 16 blocks on a 40-SM device: split-K helps.
        let s_skinny = choose_slices(&spec, &cfg, GemmShape::new(512, 512, 131072));
        assert!(s_skinny >= 2, "expected split-K, got {s_skinny}");
        // 16384^2 output: grid already huge, no splitting.
        let s_big = choose_slices(&spec, &cfg, GemmShape::square(16384));
        assert_eq!(s_big, 1);
    }

    #[test]
    fn split_k_improves_simulated_time_on_skinny_shapes() {
        let eng = engine();
        let shape = GemmShape::new(512, 512, 131072);
        let fused = eng.time(shape);
        let s = choose_slices(&eng.spec, &eng.config, shape);
        assert!(s > 1);
        let split = eng.time_split_k(shape, s);
        assert!(
            split.time_s < fused.time_s,
            "split-k={s}: {} should beat fused {}",
            split.time_s,
            fused.time_s
        );
    }

    #[test]
    #[should_panic(expected = "slice count out of range")]
    fn absurd_slice_count_rejected() {
        let a = Matrix::<f32>::zeros(4, 4);
        engine().gemm_split_k(&a, &a, 999);
    }
}
