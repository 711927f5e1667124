//! Layered, noise-aware benchmark of the EGEMM-TC reproduction.
//!
//! ```text
//! layerbench --workload <gemm_cold|gemm_shared_b|kmeans_fit>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! workload's own clock around each operation. `--trace 1` is the
//! separate traced run: it times calls into each layer's public
//! functions, reads the layers' counters, measures the host ceilings,
//! and reports its own overhead against untraced operations interleaved
//! with the traced ones. Every output the engine produces is checked bit for bit against
//! `egemm::emulated_gemm_entrywise` on seeded positions. The last line
//! of standard output is the JSON result; the process exits non-zero if
//! any check failed. See `README.md` beside this crate.

mod check;
mod gemm;
mod host;
mod kmeans;
mod layers;
mod report;
mod serve;
mod stats;

use report::Report;

/// End-to-end metrics, emitted by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("gflops", "GFLOP/s"),
];

/// Per-layer metrics, emitted by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.muladd_gflops", "GFLOP/s"),
    ("host.copy_gbs", "GB/s"),
    ("host.parallel_ceiling", "x"),
    ("fp.split_melem_s", "Melem/s"),
    ("pack.prepare_b_ms", "ms"),
    ("pack.gbs", "GB/s"),
    ("pack.pct_copy", "%"),
    ("micro.prepared_gflops", "GFLOP/s"),
    ("micro.pct_peak", "%"),
    ("micro.jit_over_interp", "x"),
    ("jit.compiles", "count"),
    ("jit.compile_ms", "ms"),
    ("cache.fingerprint_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MB"),
    ("sched.parallel_eff", "ratio"),
    ("sched.eff_over_ceiling", "ratio"),
    ("sched.steals", "count/op"),
    ("sched.panels_packed", "count/op"),
    ("sched.panel_reuse_hits", "count/op"),
    ("tcsim.time_ms", "ms"),
    ("telemetry.metrics_overhead_pct", "%"),
    ("serve.codec_us", "us"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.server_p50_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.batched_ratio", "ratio"),
    ("serve.dedup_hits", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.memo_evictions", "count"),
    ("serve.engine_calls_per_req", "ratio"),
    ("sci.gemm_share", "ratio"),
    ("sci.gemm_ms_per_iter", "ms"),
    ("sci.epilogue_ms", "ms"),
    ("sci.iterations", "count"),
    ("loadgen.late_tail_ms", "ms"),
    ("loadgen.high_p50_ms", "ms"),
    ("loadgen.high_tail_ms", "ms"),
    ("loadgen.max_rate_rps", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// A `--trace 0` run sets up at least `SETUPS` times and for at least
/// `SETUP_SECS`; `setup_s` is the median set-up.
const SETUPS: usize = 7;
const SETUP_SECS: f64 = 1.0;

/// Run `set_up` (which returns its product and its own time) repeatedly,
/// each product dropped before the next set-up. Returns the last
/// product, the median set-up time, and the steal share over the
/// set-ups (`host::CpuTicks::steal_share`).
pub fn set_ups<T>(mut set_up: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let ticks = host::CpuTicks::now();
    let (mut times, mut spent) = (Vec::new(), 0.0);
    let mut last = None;
    while times.len() < SETUPS || spent < SETUP_SECS {
        drop(last.take());
        let (x, t) = set_up();
        times.push(t);
        spent += t;
        last = Some(x);
    }
    let steal = ticks.steal_share();
    println!(
        "set-ups: {} in {spent:.3} s, steal share {:.2}%",
        times.len(),
        100.0 * steal
    );
    (last.expect("set up"), stats::median(&times), steal)
}

pub const WORKLOADS: &[&str] = &["gemm_cold", "gemm_shared_b", "kmeans_fit"];

/// One run's settings.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub tiny: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? != "0",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Run one workload; returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    match opts.workload.as_str() {
        "kmeans_fit" => kmeans::run(opts, &mut rep),
        _ => gemm::run(opts, &mut rep),
    }
    rep
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(2);
        }
    };
    let rates = format!(
        "{{\"low\": {}, \"high\": {}, \"ladder\": {:?}, \"tail_limit_ms\": {}}}",
        serve::RATE_LOW,
        serve::RATE_HIGH,
        serve::LADDER,
        serve::TAIL_LIMIT_MS
    );
    println!(
        "{}",
        host::stamp(
            &opts.workload,
            opts.seed,
            opts.trace,
            &[("serve_rates_rps", rates)]
        )
    );
    let ticks = host::CpuTicks::now();
    let rep = run(&opts);
    // Time the hypervisor gave to other guests: a run with much of it
    // measured a busier machine.
    println!(
        "host steal = {:.2}% of the CPU time the guest wanted during the run",
        100.0 * ticks.steal_share()
    );
    println!(
        "failed_ratio = {} / {} = {:.6}",
        rep.failed,
        rep.attempted,
        rep.failed_ratio()
    );
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", rep.render(names));
    if rep.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod selftest {
    //! A tiny-size pass over every workload, in both modes, asserting
    //! that every metric `BENCHMARK.json` names is emitted with its unit,
    //! and that a corrupted output raises the failure count.

    use super::*;
    use egemm_serve::wire::{parse, Value};

    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let Some(Value::Arr(list)) = doc.get(key) else {
            panic!("{key} missing")
        };
        list.iter()
            .map(|m| {
                let s = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_emitted_sets() {
        for (key, emitted) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = emitted
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(key), want, "{key}");
        }
    }

    #[test]
    fn tiny_pass_emits_every_metric_with_its_unit() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: w.to_string(),
                    seed: 5,
                    seconds: 0.2,
                    trace,
                    tiny: true,
                };
                let rep = run(&opts);
                let names = if trace { PER_LAYER } else { END_TO_END };
                let line = rep.render(names);
                for (n, u) in names {
                    assert!(
                        line.contains(&format!("\"{n}\": {{\"value\": "))
                            && line.contains(&format!("\"unit\": \"{u}\"")),
                        "{w}: {n} missing from {line}"
                    );
                }
                assert_eq!(rep.failed, 0, "{w} trace={trace}: {line}");
                assert!(line.starts_with("{\"correct\": true"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn a_non_finite_metric_prints_no_result() {
        let mut rep = Report::default();
        rep.ops(1, 0);
        rep.set("p50_ms", f64::NAN, "ms");
        rep.render(&[("p50_ms", "ms")]);
    }

    #[test]
    #[should_panic(expected = "no operation")]
    fn a_run_with_no_operations_prints_no_result() {
        let mut rep = Report::default();
        rep.set("p50_ms", 1.0, "ms");
        rep.render(&[("p50_ms", "ms")]);
    }

    #[test]
    fn a_corrupted_output_raises_failed_ratio() {
        let (attempted, failed) = kmeans::corrupted_fit();
        assert!(attempted > 1);
        assert_eq!(failed, 1, "exactly the corrupted GEMM fails its check");
        let mut rep = Report::default();
        rep.ops(attempted, 0);
        let clean = rep.failed_ratio();
        rep.ops(0, failed);
        assert!(rep.failed_ratio() > clean);
    }
}
