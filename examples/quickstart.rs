//! Quickstart: extended-precision GEMM on the simulated Tensor Cores.
//!
//! ```text
//! cargo run --release -p egemm --example quickstart
//! ```
//!
//! Multiplies two random matrices with EGEMM-TC, compares the result with
//! a plain half-precision Tensor-Core GEMM and the f64 ground truth, and
//! prints the simulated execution profile on a Tesla T4.

use egemm::{Egemm, EmulationScheme};
use egemm_fp::ErrorStats;
use egemm_matrix::{gemm_f64_of_f32, Matrix};
use egemm_tcsim::DeviceSpec;

fn main() {
    let n = 512;
    println!("EGEMM-TC quickstart — {n}x{n}x{n} GEMM, values U[-1,1]\n");

    let a = Matrix::<f32>::random_uniform(n, n, 42);
    let b = Matrix::<f32>::random_uniform(n, n, 43);

    // The engine: tiling auto-selected by the hardware-aware analytic
    // model from the T4's resource budget (Table 4 of the paper).
    let engine = Egemm::auto(DeviceSpec::t4());
    println!("analytic model chose: {}", engine.config);

    // Extended-precision emulated GEMM (Algorithm 1).
    let out = engine.gemm(&a, &b);
    // Plain half-precision Tensor-Core GEMM for contrast.
    let half = engine
        .clone()
        .with_scheme(EmulationScheme::TcHalf)
        .gemm(&a, &b);
    // Ground truth.
    let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();

    let err_eg = ErrorStats::compare(&out.d.to_f64_vec(), &truth);
    let err_half = ErrorStats::compare(&half.d.to_f64_vec(), &truth);

    println!("\n  scheme            max |err|      rms err");
    println!(
        "  EGEMM-TC        {:>11.3e} {:>12.3e}",
        err_eg.max_abs, err_eg.rms
    );
    println!(
        "  cuBLAS-TC-Half  {:>11.3e} {:>12.3e}",
        err_half.max_abs, err_half.rms
    );
    println!(
        "\n  max-error reduction: {:.0}x (paper: ~350x on average)",
        err_half.max_abs / err_eg.max_abs
    );

    // The device model is not on the compute path: cost the shape.
    let timing = engine.time(out.shape);
    println!("\nsimulated execution on {}:", engine.spec.name);
    println!("  time       : {:.3} ms", timing.time_s * 1e3);
    println!("  throughput : {:.2} TFLOPS (Eq. 9)", timing.tflops);
    println!("  bound      : {:?}", timing.bound);
    println!(
        "  occupancy  : {} block(s)/SM, {} wave(s)",
        timing.blocks_per_sm, timing.waves
    );
}
