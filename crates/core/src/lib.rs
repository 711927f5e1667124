//! # EGEMM-TC — emulated extended-precision GEMM on Tensor Cores
//!
//! Rust reproduction of *EGEMM-TC: Accelerating Scientific Computing on
//! Tensor Cores with Extended Precision* (Feng et al., PPoPP '21), running
//! against the software Tensor-Core substrate of [`egemm_tcsim`].
//!
//! The paper's three techniques, and where they live here:
//!
//! 1. **Lightweight emulation algorithm** (§3) — [`emulation`]: split each
//!    binary32 operand into two binary16 values with *round-split*
//!    (Figure 4b) and recover extended precision (21 mantissa bits) with
//!    only **4** Tensor Core instructions per tile (Algorithm 1), relying
//!    on the profiled single-precision internal arithmetic of the Tensor
//!    Core instead of Dekker's 16 serialized half instructions.
//! 2. **Tensor-Core kernel optimizations** (§4, §5) — [`tensorize`],
//!    [`memaccess`], [`kernel`]: hierarchical block/warp/TC-tile
//!    decomposition with warp collaboration, intra-warp FRAG caching that
//!    cuts shared-memory traffic ~2x (Table 2), and SASS-level
//!    register-enhanced instruction scheduling for latency hiding
//!    (Figure 6) with cross-stage register reuse (§5.2).
//! 3. **Hardware-aware analytic model** (§6) — [`analytic`]: Eqs. 2–8 as
//!    code plus a solver that picks the 6 tiling hyper-parameters from a
//!    device's resource budget, reproducing Table 4 on the T4 budget.
//!
//! The top-level entry point is [`Egemm`]:
//!
//! ```
//! use egemm::Egemm;
//! use egemm_matrix::Matrix;
//! use egemm_tcsim::DeviceSpec;
//!
//! let eg = Egemm::auto(DeviceSpec::t4());
//! let a = Matrix::<f32>::random_uniform(64, 64, 1);
//! let b = Matrix::<f32>::random_uniform(64, 64, 2);
//! let out = eg.gemm(&a, &b);
//! assert_eq!(out.d.rows(), 64);
//! // The device model is separate from the compute path: ask for it.
//! println!("simulated: {:.2} TFLOPS", eg.time(out.shape).tflops);
//! ```

pub mod analytic;
pub mod batched;
pub mod blas;
pub mod config;
pub mod emulation;
pub mod engine;
pub mod envcfg;
pub mod errbound;
pub mod gemm;
pub mod kernel;
pub mod memaccess;
pub mod sass;
pub mod split_matrix;
pub mod splitk;
pub mod telemetry;
pub mod tensorize;

pub use analytic::{continuous_optimum, solve_tiling, AnalyticModel, Candidate};
pub use batched::BatchedOutput;
pub use blas::{sgemm_ex, BlasOutput, GemmCall, Op as BlasOp};
pub use config::TilingConfig;
pub use emulation::{
    emulated_gemm, emulated_gemm_entrywise, emulated_gemm_rows, emulated_gemm_tk, mul_add_step,
    EmulationScheme,
};
pub use engine::{
    content_fingerprint, gemm_blocked_prepared_fused, jit_available, jit_exec_mappings,
    prepare_b_fused, CacheStats, EngineConfig, EngineRuntime, PreparedOperand, RuntimeConfig,
    SchedStats,
};
pub use errbound::{crossover_k, dot_error_bound, dot_error_bound_with_c};
pub use gemm::{Egemm, GemmOutput, KernelOpts};
pub use kernel::{build_kernel, plane_counts, wave_reuse_ab_bytes, BYTES_PER_128B_INSTR};
pub use sass::{generate_sass, AllocationReport, SassKernel};
pub use split_matrix::SplitMatrix;
pub use splitk::{choose_slices, SplitKOutput};
pub use telemetry::{render_prometheus, set_probe_rate, GemmReport, RequestTrace};
