//! Trace a real engine execution end to end and emit a Chrome-trace
//! file: cold call (fused split-and-pack + compute), then a warm call
//! against the populated operand cache, on a multi-worker pool, with
//! sampled output elements bit-checked against the scalar entrywise
//! oracle.
//!
//! ```text
//! EGEMM_TRACE=1 cargo run --release -p egemm --example pipeline_trace
//! ```
//!
//! Writes `target/pipeline_trace.json` (override with `--out PATH`) —
//! load it in `chrome://tracing` or <https://ui.perfetto.dev> to see
//! split-and-pack/tile spans laid out per worker thread. Build artifacts
//! stay under `target/`; the repo root holds only tracked baselines.
//! The example then validates its own output (the CI
//! gate): the JSON must be well-formed, every engine phase must have
//! recorded at least one span, and compute spans must be attributed to
//! more than one worker thread. Any violation panics (nonzero exit).

use egemm::engine::{EngineRuntime, RuntimeConfig};
use egemm::telemetry::{self, Phase};
use egemm::{emulated_gemm_entrywise, Egemm, SplitMatrix, TilingConfig};
use egemm_matrix::Matrix;
use egemm_tcsim::DeviceSpec;

/// Minimal structural JSON check: balanced braces/brackets outside
/// string literals, legal escapes, no trailing garbage. (CI re-parses
/// the file with a real JSON parser; this catches corruption even when
/// run standalone.)
fn assert_json_well_formed(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close at byte {i}");
            }
            c if (c as u32) < 0x20 && c != '\n' && c != '\t' => {
                panic!("raw control character {:#04x} at byte {i}", c as u32)
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string literal");
    assert_eq!(depth, 0, "unbalanced braces/brackets");
}

fn main() {
    // Honour EGEMM_TRACE when set (the CI invocation); force tracing on
    // otherwise so the example is self-contained.
    telemetry::init_from_env();
    if !telemetry::enabled() {
        telemetry::set_enabled(true);
    }

    // A private runtime pins the worker count (>= 2 so spans land on
    // multiple threads) independent of the host's CPU count or env.
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 4,
        ..RuntimeConfig::default()
    });
    let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt.clone());

    // 256 x 512 output under the default 64 x 256 macro-tiles = 8 tiles:
    // enough for every pool worker to claim some.
    let a = Matrix::<f32>::random_uniform(256, 256, 1);
    let b = Matrix::<f32>::random_uniform(256, 512, 2);

    let cold = eg.gemm(&a, &b);
    let cold_report = cold.report.expect("tracing is on: cold call must report");
    println!("cold call (fused split-and-pack + compute):\n{cold_report}");

    let warm = eg.gemm(&a, &b);
    let warm_report = warm.report.expect("tracing is on: warm call must report");
    println!("warm call (cache hit on the packed B):\n{warm_report}");

    // A one-slice split-K call: the same product with B raw, so its
    // panels go through the per-call cooperative store instead of the
    // operand cache.
    let raw_b = eg.gemm_split_k(&a, &b, 1);
    let raw_b_report = raw_b
        .report
        .expect("tracing is on: split-K call must report");
    println!("raw-B call (per-call panel store):\n{raw_b_report}");

    // Bit-check sampled elements of every call against the scalar
    // entrywise oracle over explicitly split operands: corners, edges
    // and an interior stride.
    let scheme = eg.scheme;
    let sa = SplitMatrix::split(&a, scheme.split_scheme());
    let sb = SplitMatrix::split(&b, scheme.split_scheme());
    let (m, n) = (cold.d.rows(), cold.d.cols());
    let samples: Vec<(usize, usize)> = [(0, 0), (0, n - 1), (m - 1, 0), (m - 1, n - 1)]
        .into_iter()
        .chain((0..m).step_by(37).map(|i| (i, (i * 7 + 3) % n)))
        .collect();
    for &(i, j) in &samples {
        let want = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j).to_bits();
        for (call, d) in [("cold", &cold.d), ("warm", &warm.d), ("raw-B", &raw_b.d)] {
            assert_eq!(
                d.get(i, j).to_bits(),
                want,
                "{call} call diverges from the entrywise oracle at ({i},{j})"
            );
        }
    }
    println!(
        "{} sampled elements of every call bit-match the entrywise oracle",
        samples.len()
    );

    // Chrome-trace export of the cold call — the interesting timeline.
    // Default under target/ so the artifact never lands in the repo
    // root; --out redirects it.
    let trace = cold_report.chrome_trace();
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/pipeline_trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace output directory");
        }
    }
    std::fs::write(&path, &trace).expect("write trace file");
    println!(
        "wrote {path} ({} bytes) — load it in chrome://tracing or https://ui.perfetto.dev",
        trace.len()
    );

    // ---- Self-validation (the CI contract) ----
    assert_json_well_formed(&trace);

    // Every engine phase must have recorded at least one span over the
    // three calls: the cold call covers Fingerprint, FusedSplitPack,
    // Tile, CacheLookup, Dispatch, Park and Worker; the raw-B call
    // covers PanelWait (every panel-store visit after the first
    // packer's).
    // Split is not an engine phase — only `SplitMatrix::split` on the
    // oracle side records it — so it is exempt. Phases the cold call
    // recorded must also appear by name in its exported trace. JitCompile
    // is machine-dependent: it only fires where the process can publish
    // JIT kernels at all.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for phase in Phase::ALL.into_iter().filter(|&p| p != Phase::Split) {
        let n = cold_report.phase_count(phase)
            + warm_report.phase_count(phase)
            + raw_b_report.phase_count(phase);
        let machine_dependent = phase == Phase::JitCompile && !egemm::jit_available();
        assert!(
            n > 0 || machine_dependent,
            "phase {} recorded no spans",
            phase.name()
        );
        if cold_report.phase_count(phase) > 0 {
            assert!(
                trace.contains(&format!("\"name\":\"{}\"", phase.name())),
                "phase {} missing from the trace file",
                phase.name()
            );
        }
    }

    // Both calls through the operand cache fingerprint B exactly once
    // for its key — the warm call's hit included — and the raw-B call,
    // which never consults the cache, not at all.
    for (call, report, want) in [
        ("cold", &cold_report, 1),
        ("warm", &warm_report, 1),
        ("raw-B", &raw_b_report, 0),
    ] {
        assert_eq!(
            report.phase_count(Phase::Fingerprint),
            want,
            "{call} call's fingerprint spans"
        );
    }

    // The fused pipeline's signature: fused_split_pack spans on the
    // cold call (whole-operand B pack + per-panel A packs), no split
    // spans, and the avoided-staging counter both in the report and as
    // a Chrome counter track in the trace file.
    assert!(
        cold_report.phase_count(Phase::FusedSplitPack) > 0,
        "fused cold call recorded no fused_split_pack spans"
    );
    assert!(
        trace.contains("\"name\":\"fused_split_pack\""),
        "fused_split_pack missing from the trace file"
    );
    assert_eq!(
        cold_report.phase_count(Phase::Split),
        0,
        "the engine call materialized split planes"
    );
    let expect_saved = (12 * (256 * 256 + 256 * 512)) as u64; // both raw operands
    assert_eq!(
        cold_report.cache.bytes_staging_saved, expect_saved,
        "cold call's avoided staging delta is off"
    );
    assert!(
        trace.contains("\"ph\":\"C\"")
            && trace.contains(&format!("\"bytes_staging_saved\":{expect_saved}")),
        "bytes_staging_saved counter missing from the trace file"
    );

    // Compute spans must be attributed to the worker threads that ran
    // them: more than one lane carries Tile events (4 workers, 8 tiles),
    // and each such lane is a named track in the trace file.
    let tile_lanes: Vec<u32> = cold_report
        .lanes
        .iter()
        .filter(|l| l.events.iter().any(|e| e.phase == Phase::Tile))
        .map(|l| l.worker)
        .collect();
    assert!(
        tile_lanes.len() > 1 || cores < 2,
        "tile spans landed on a single thread: {tile_lanes:?}"
    );
    for w in &tile_lanes {
        assert!(
            trace.contains(&format!("\"tid\":{w}")),
            "worker {w} missing from the trace file"
        );
    }
    assert!(
        trace.contains("\"name\":\"thread_name\""),
        "trace lacks thread-name metadata"
    );
    assert_eq!(cold_report.dropped_events, 0, "cold call overflowed rings");

    // The warm call must show the cache working: no new packs — B's
    // packed panels are served from the cache, and only A's per-call
    // staging note accrues.
    assert_eq!(warm_report.cache.packs, 0, "warm call re-prepared B");
    assert_eq!(
        warm_report.cache.bytes_staging_saved,
        (12 * (256 * 256)) as u64,
        "warm call's avoided staging should cover A only"
    );
    println!(
        "validation passed: every phase recorded, tile spans on {} workers, \
         fused cold call avoided {:.1} MiB of staging, warm call fully cached",
        tile_lanes.len(),
        expect_saved as f64 / (1024.0 * 1024.0)
    );
}
