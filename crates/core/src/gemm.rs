//! The top-level EGEMM-TC API.
//!
//! [`Egemm`] ties the pipeline together the way the paper's system does:
//! the O(N²) data split (the paper's CUDA-core side, fused here into the
//! engine's panel pack), tiled emulated GEMM on the Tensor-Core side
//! (functional executor, O(N³)), and the timing layer costing the kernel
//! the SASS generator would emit. The timing layer sits beside the
//! compute path, not on it: a GEMM call never runs the device model, and
//! modeled time comes only from [`Egemm::time`] (and its batched and
//! split-K twins), a pure function of the shape and this instance's
//! device, tiling, scheme and switches. [`Egemm::auto`] runs the §6
//! analytic model to pick the tiling for the device.

use crate::analytic::{solve_tiling, AnalyticModel};
use crate::config::TilingConfig;
use crate::emulation::EmulationScheme;
use crate::engine::{self, EngineRuntime, Plan, PreparedOperand};
use crate::kernel::build_kernel;
pub use crate::kernel::KernelOpts;
use crate::telemetry::{self, metrics, probe, GemmReport};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{kernel_time, DeviceSpec, KernelTiming};
use std::sync::Arc;

/// An EGEMM-TC GEMM engine bound to a device, tiling and emulation scheme.
#[derive(Debug, Clone)]
pub struct Egemm {
    /// Device the timing layer simulates.
    pub spec: DeviceSpec,
    /// Tiling hyper-parameters.
    pub config: TilingConfig,
    /// Emulation scheme (EGEMM-TC's round-split 4-term by default).
    pub scheme: EmulationScheme,
    /// Kernel optimization switches.
    pub opts: KernelOpts,
    /// Persistent execution state: worker pool + prepared-operand cache.
    /// The process-wide [`EngineRuntime::global`] unless overridden via
    /// [`Egemm::with_runtime`].
    runtime: Arc<EngineRuntime>,
}

/// Result of one emulated GEMM.
#[derive(Debug, Clone)]
pub struct GemmOutput {
    /// The computed `D = A·B (+ C)`, bit-exact per the simulated Tensor
    /// Core semantics.
    pub d: Matrix<f32>,
    /// Problem shape.
    pub shape: GemmShape,
    /// Telemetry for this call — `Some` only while tracing is on
    /// ([`telemetry::enabled`]): phase timers, per-worker lanes, cache
    /// deltas, and the exporters ([`GemmReport::chrome_trace`] et al.).
    pub report: Option<GemmReport>,
}

impl Egemm {
    /// Engine with an explicit tiling.
    pub fn new(spec: DeviceSpec, config: TilingConfig) -> Egemm {
        config.validate().expect("invalid tiling");
        Egemm {
            spec,
            config,
            scheme: EmulationScheme::EgemmTc,
            opts: KernelOpts::default(),
            runtime: EngineRuntime::global().clone(),
        }
    }

    /// Engine with the tiling chosen by the hardware-aware analytic model
    /// (§6) from the device's resource budget.
    pub fn auto(spec: DeviceSpec) -> Egemm {
        let model = AnalyticModel::for_device(&spec);
        let best =
            solve_tiling(&model).expect("analytic model found no feasible tiling for this device");
        Egemm::new(spec, best.config)
    }

    /// Use a different emulation scheme (builder style).
    pub fn with_scheme(mut self, scheme: EmulationScheme) -> Egemm {
        self.scheme = scheme;
        self
    }

    /// Use different optimization switches (builder style).
    pub fn with_opts(mut self, opts: KernelOpts) -> Egemm {
        self.opts = opts;
        self
    }

    /// Use a private [`EngineRuntime`] instead of the process-wide one
    /// (builder style) — its pool width, cache bound, and split kernel
    /// then govern every call through this instance.
    pub fn with_runtime(mut self, runtime: Arc<EngineRuntime>) -> Egemm {
        self.runtime = runtime;
        self
    }

    /// The runtime this instance executes on.
    pub fn runtime(&self) -> &Arc<EngineRuntime> {
        &self.runtime
    }

    /// Open a per-call trace window: `None` (zero further cost) unless
    /// tracing is on. Drains stale ring events so the closing
    /// [`GemmReport`] covers exactly this call's spans.
    pub(crate) fn trace_begin(&self) -> Option<(u64, engine::CacheStats, engine::SchedStats)> {
        telemetry::enabled().then(|| {
            telemetry::drain();
            (
                telemetry::now_ns(),
                self.runtime.cache_stats(),
                self.runtime.sched_stats(),
            )
        })
    }

    /// Open the aggregate-metrics window for one call: a wall-clock
    /// start when recording is on, `None` (one relaxed load) when off.
    pub(crate) fn metrics_begin() -> Option<std::time::Instant> {
        metrics::enabled().then(std::time::Instant::now)
    }

    /// Close a metrics window: record the call (and its `batch`
    /// problems) into the registry.
    pub(crate) fn metrics_end(window: Option<std::time::Instant>, shape: GemmShape, batch: u64) {
        if let Some(t0) = window {
            let flops = 2 * (shape.m as u64) * (shape.n as u64) * (shape.k as u64) * batch.max(1);
            metrics::record_gemm_call(flops, batch.max(1), t0.elapsed().as_nanos() as u64);
        }
    }

    /// Close a trace window opened by [`Egemm::trace_begin`].
    pub(crate) fn trace_end(
        &self,
        window: Option<(u64, engine::CacheStats, engine::SchedStats)>,
        label: String,
    ) -> Option<GemmReport> {
        window.map(|(t0, c0, s0)| {
            GemmReport::collect(
                label,
                t0,
                self.runtime.cache_stats().delta_since(&c0),
                self.runtime.sched_stats().delta_since(&s0),
            )
        })
    }

    /// Pack `b` for reuse as the right-hand operand of
    /// [`Egemm::gemm_prepared`]. The preparation runs at most once per
    /// distinct content; the handle afterwards skips even the cache
    /// lookup (and survives cache eviction). The panels are split and
    /// packed straight from the raw f32 data — no split matrix is
    /// materialized.
    pub fn prepare(&self, b: &Matrix<f32>) -> PreparedOperand {
        engine::prepare_b_fused(
            &self.runtime,
            b,
            self.scheme.split_scheme(),
            TilingConfig::TC.k,
            self.opts.engine,
        )
    }

    /// Run `plan` on this instance's runtime under its engine config.
    pub(crate) fn run(&self, plan: Plan<'_>) -> Matrix<f32> {
        engine::gemm(
            &self.runtime,
            &Plan {
                cfg: self.opts.engine,
                ..plan
            },
        )
    }

    /// `D = A·B (+ C)` with a prepared B operand: bit-identical to
    /// [`Egemm::gemm_with_c`] on the same data, minus the per-call B
    /// split and pack.
    ///
    /// # Panics
    /// If `b` was prepared under a different split scheme or blocking
    /// than this instance currently uses.
    pub fn gemm_prepared(
        &self,
        a: &Matrix<f32>,
        b: &PreparedOperand,
        c: Option<&Matrix<f32>>,
    ) -> GemmOutput {
        assert_eq!(
            b.scheme(),
            self.scheme.split_scheme(),
            "operand was prepared under a different split scheme"
        );
        assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let mwin = Egemm::metrics_begin();
        let window = self.trace_begin();
        let d = self.run(Plan {
            c,
            ..Plan::new(a, b, self.scheme)
        });
        let report = self.trace_end(
            window,
            format!("gemm_prepared {}x{}x{}", shape.m, shape.n, shape.k),
        );
        Egemm::metrics_end(mwin, shape, 1);
        GemmOutput { d, shape, report }
    }

    /// `D = A·B`: split and execute functionally. The modeled device
    /// time of the same shape is [`Egemm::time`].
    pub fn gemm(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> GemmOutput {
        self.gemm_with_c(a, b, None)
    }

    /// `D = A·B + C`.
    pub fn gemm_with_c(
        &self,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
    ) -> GemmOutput {
        assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let mwin = Egemm::metrics_begin();
        let window = self.trace_begin();
        // CUDA-core phase analogue: B's split-and-pack through the
        // runtime's prepared-operand cache — a content hit skips it
        // entirely. A is split per panel inside the workers' pack.
        let pb = self.prepare(b);
        // Tensor-core phase: O(N^3) tiled emulated GEMM on the blocked
        // engine, with this instance's blocking config.
        let d = self.run(Plan {
            c,
            ..Plan::new(a, &pb, self.scheme)
        });
        let report = self.trace_end(window, format!("gemm {}x{}x{}", shape.m, shape.n, shape.k));
        Egemm::metrics_end(mwin, shape, 1);
        // Sampled numerical-health check — reads a, b, c, d only.
        probe::maybe_probe(self.scheme, a, b, c, &d);
        GemmOutput { d, shape, report }
    }

    /// Modeled execution of `shape` on the device: the kernel the SASS
    /// generator would emit, costed by the timing layer. The only source
    /// of modeled time — no GEMM call runs it — and independent of
    /// operand values, so it costs shapes too large to compute.
    pub fn time(&self, shape: GemmShape) -> KernelTiming {
        let desc = build_kernel(&self.spec, &self.config, shape, self.scheme, self.opts);
        kernel_time(&self.spec, &desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::max_abs_error;
    use egemm_matrix::{gemm_f32_reference, gemm_f64_of_f32};

    #[test]
    fn auto_picks_table4_on_t4() {
        let eg = Egemm::auto(DeviceSpec::t4());
        assert_eq!(eg.config, TilingConfig::T4_PAPER);
    }

    #[test]
    fn end_to_end_small_gemm_accuracy() {
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER);
        let a = Matrix::<f32>::random_uniform(96, 64, 1);
        let b = Matrix::<f32>::random_uniform(64, 80, 2);
        let out = eg.gemm(&a, &b);
        assert_eq!((out.d.rows(), out.d.cols()), (96, 80));
        let reference = gemm_f64_of_f32(&a, &b);
        let err = max_abs_error(&out.d.to_f64_vec(), &reference.to_f64_vec());
        // 21-bit emulation over k=64 in [-1,1]: errors well below 1e-3.
        assert!(err < 1e-3, "max err {err}");
        // And dramatically closer to f32 than half would be.
        let mut ref32 = Matrix::<f32>::zeros(96, 80);
        gemm_f32_reference(&a, &b, &mut ref32);
        let err32 = max_abs_error(&out.d.to_f64_vec(), &ref32.to_f64_vec());
        assert!(err32 < 5e-4, "vs f32 reference: {err32}");
    }

    #[test]
    fn gemm_with_c_accumulates() {
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER);
        let a = Matrix::<f32>::random_uniform(16, 16, 3);
        let b = Matrix::<f32>::random_uniform(16, 16, 4);
        let c = Matrix::from_fn(16, 16, |_, _| 10.0f32);
        let with = eg.gemm_with_c(&a, &b, Some(&c));
        let without = eg.gemm(&a, &b);
        for (x, y) in with.d.as_slice().iter().zip(without.d.as_slice()) {
            assert!((x - y - 10.0).abs() < 1e-4);
        }
    }

    #[test]
    fn timing_scales_with_cube_of_size() {
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER);
        let t2 = eg.time(GemmShape::square(2048));
        let t8 = eg.time(GemmShape::square(8192));
        let ratio = t8.time_s / t2.time_s;
        assert!(
            (30.0..=90.0).contains(&ratio),
            "8192^3 should be ~64x the work of 2048^3: ratio {ratio}"
        );
        // Larger sizes get closer to peak (the §7.3 occupancy effect).
        assert!(t8.tflops >= t2.tflops);
    }

    #[test]
    fn scheme_switch_affects_numerics() {
        let a = Matrix::<f32>::random_uniform(64, 64, 7);
        let b = Matrix::<f32>::random_uniform(64, 64, 8);
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER);
        let mk = eg.clone().with_scheme(EmulationScheme::Markidis);
        let d_eg = eg.gemm(&a, &b).d;
        let d_mk = mk.gemm(&a, &b).d;
        assert_ne!(d_eg, d_mk, "round-split and truncate-split must differ");
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn shape_mismatch_panics() {
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER);
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(4, 4);
        eg.gemm(&a, &b);
    }
}
