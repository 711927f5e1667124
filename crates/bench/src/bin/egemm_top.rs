//! `egemm-top`: a live terminal dashboard over the serving layer's
//! `METRICS` verb.
//!
//! Polls a running TCP frontend (`serve_loadgen --serve ADDR` or any
//! embedder of `egemm_serve::TcpServer`), parses the Prometheus-style
//! exposition, and redraws a compact ANSI dashboard: request and GEMM
//! call rates (from counter deltas between polls), queue depth, batching
//! ratio, cache and scheduler counters, engine phase split, and the
//! numerical-health histogram with its violation counter. Engine and
//! serve series carry a per-instance label (`runtime="N"`,
//! `server="N"`); the dashboard sums each family across them.
//!
//! ```text
//! egemm_top --connect 127.0.0.1:7070 [--interval MS] [--once]
//! ```
//!
//! `--once` prints a single frame without clearing the screen (useful in
//! scripts and CI); the default is a 1 s refresh loop until killed.

use egemm_serve::wire;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scrape: series name (labels included) -> value. Histograms
/// contribute their expanded `_bucket`/`_sum`/`_count` series.
type Scrape = BTreeMap<String, f64>;

fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    wire::write_frame(&mut conn, wire::encode_metrics_request(0).as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let frame = wire::read_frame(&mut conn)
        .map_err(|e| format!("read: {e}"))?
        .ok_or("connection closed before the metrics response")?;
    let v = wire::parse(std::str::from_utf8(&frame).map_err(|e| e.to_string())?)?;
    let text = v
        .get("metrics")
        .and_then(wire::Value::as_str)
        .ok_or("response carries no \"metrics\" payload")?;
    let mut out = Scrape::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(x) = value.parse::<f64>() {
                out.insert(name.to_string(), x);
            }
        }
    }
    Ok(out)
}

/// Sum of a family's series across every label set (0 when absent).
fn get(s: &Scrape, name: &str) -> f64 {
    s.iter()
        .filter(|(n, _)| n.split('{').next() == Some(name))
        .fold(0.0, |acc, (_, v)| acc + v)
}

/// Per-second rate of a counter between two scrapes (0 on first frame).
fn rate(prev: Option<&Scrape>, cur: &Scrape, name: &str, dt: f64) -> f64 {
    match prev {
        Some(p) if dt > 0.0 => ((get(cur, name) - get(p, name)) / dt).max(0.0),
        _ => 0.0,
    }
}

/// Nearest-rank quantile over an exposition histogram's `_bucket`
/// series: the `le` bound of the first bucket whose cumulative count
/// reaches `q * count`. `None` when the histogram is empty.
fn hist_quantile(s: &Scrape, family: &str, q: f64) -> Option<f64> {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = s
        .iter()
        .filter_map(|(name, &cum)| {
            let le = name.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, cum))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    let target = (total * q).ceil().max(1.0);
    buckets
        .iter()
        .find(|&&(_, cum)| cum >= target)
        .map(|&(bound, _)| bound)
}

/// Sum over every series of a family, any labels (e.g. the per-phase
/// counters).
fn family_series<'a>(s: &'a Scrape, family: &str) -> Vec<(&'a str, f64)> {
    let prefix = format!("{family}{{");
    s.iter()
        .filter(|(name, _)| name.strip_prefix(&prefix).is_some())
        .map(|(name, &v)| (name.as_str(), v))
        .collect()
}

fn fmt_si(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.1}")
    }
}

fn draw(addr: &str, prev: Option<&Scrape>, cur: &Scrape, dt: f64, clear: bool) {
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let bold = |s: &str| format!("\x1b[1m{s}\x1b[0m");
    out.push_str(&format!(
        "{} — {addr} — every {dt:.1}s\n\n",
        bold("egemm-top")
    ));

    let req_rate = rate(prev, cur, "egemm_serve_requests_total", dt);
    let call_rate = rate(prev, cur, "egemm_gemm_calls_total", dt);
    let dispatched = get(cur, "egemm_serve_dispatched_total");
    let engine_calls = get(cur, "egemm_serve_engine_calls_total");
    let batched = if engine_calls > 0.0 {
        dispatched / engine_calls
    } else {
        0.0
    };
    out.push_str(&bold("serve"));
    out.push('\n');
    out.push_str(&format!(
        "  requests  {:>10}  ({:>8}/s)   completed {:>10}   queue depth {:>4}\n",
        fmt_si(get(cur, "egemm_serve_requests_total")),
        fmt_si(req_rate),
        fmt_si(get(cur, "egemm_serve_completed_total")),
        get(cur, "egemm_serve_queue_depth"),
    ));
    out.push_str(&format!(
        "  busy      {:>10}   deadline miss {:>6}   invalid {:>6}   engine fail {:>4}\n",
        fmt_si(get(cur, "egemm_serve_busy_rejects_total")),
        fmt_si(get(cur, "egemm_serve_deadline_misses_total")),
        fmt_si(get(cur, "egemm_serve_invalid_total")),
        fmt_si(get(cur, "egemm_serve_engine_failures_total")),
    ));
    out.push_str(&format!(
        "  batched   {batched:>9.2}x   ({} requests over {} engine calls)\n",
        fmt_si(dispatched),
        fmt_si(engine_calls),
    ));
    out.push_str(&format!(
        "  conns     {:>10}   dedup hits {:>6}   memo h/m {:>6}/{:<6}   resident {:>8}B\n",
        get(cur, "egemm_serve_open_connections"),
        fmt_si(get(cur, "egemm_serve_dedup_hits_total")),
        fmt_si(get(cur, "egemm_serve_result_cache_hits_total")),
        fmt_si(get(cur, "egemm_serve_result_cache_misses_total")),
        fmt_si(get(cur, "egemm_serve_result_cache_bytes")),
    ));
    out.push_str(&format!(
        "  evictions {:>10}   backpressure pauses {:>6}\n\n",
        fmt_si(get(cur, "egemm_serve_result_cache_evictions_total")),
        fmt_si(get(cur, "egemm_serve_backpressure_pauses_total")),
    ));

    out.push_str(&bold("engine"));
    out.push('\n');
    out.push_str(&format!(
        "  gemm calls {:>9}  ({:>8}/s)   wall p50 {:>10}   p99 {:>10}\n",
        fmt_si(get(cur, "egemm_gemm_calls_total")),
        fmt_si(call_rate),
        hist_quantile(cur, "egemm_gemm_wall_ns", 0.50)
            .map_or("-".into(), |ns| format!("{:.2}ms", ns / 1e6)),
        hist_quantile(cur, "egemm_gemm_wall_ns", 0.99)
            .map_or("-".into(), |ns| format!("{:.2}ms", ns / 1e6)),
    ));
    out.push_str(&format!(
        "  cache hits {:>9}   misses {:>6}   resident {:>10}B   staging saved {:>10}B\n",
        fmt_si(get(cur, "egemm_cache_hits_total")),
        fmt_si(get(cur, "egemm_cache_misses_total")),
        fmt_si(get(cur, "egemm_cache_resident_bytes")),
        fmt_si(get(cur, "egemm_bytes_staging_saved_total")),
    ));
    out.push_str(&format!(
        "  steals     {:>9}   tiles stolen {:>6}   panel reuse {:>8}   spans dropped {:>6}\n",
        fmt_si(get(cur, "egemm_sched_steals_total")),
        fmt_si(get(cur, "egemm_sched_tiles_stolen_total")),
        fmt_si(get(cur, "egemm_panel_reuse_hits_total")),
        fmt_si(get(cur, "egemm_trace_spans_dropped_total")),
    ));
    out.push_str(&format!(
        "  jit compiles {:>7}   cache hits {:>8}   code {:>8}B   compile p50 {:>8}   p99 {:>8}\n",
        fmt_si(get(cur, "egemm_jit_compiles_total")),
        fmt_si(get(cur, "egemm_jit_cache_hits_total")),
        fmt_si(get(cur, "egemm_jit_code_bytes")),
        hist_quantile(cur, "egemm_jit_compile_ns", 0.50)
            .map_or("-".into(), |ns| format!("{:.0}us", ns / 1e3)),
        hist_quantile(cur, "egemm_jit_compile_ns", 0.99)
            .map_or("-".into(), |ns| format!("{:.0}us", ns / 1e3)),
    ));
    let mut phases = family_series(cur, "egemm_engine_phase_ns_total");
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    let phase_total: f64 = phases.iter().map(|&(_, v)| v).sum();
    if phase_total > 0.0 {
        out.push_str("  phase split ");
        for (name, v) in phases.iter().take(4) {
            let label = name
                .split("phase=\"")
                .nth(1)
                .and_then(|s| s.strip_suffix("\"}"))
                .unwrap_or(name);
            out.push_str(&format!(" {label} {:.0}%", 100.0 * v / phase_total));
        }
        out.push('\n');
    }
    out.push('\n');

    out.push_str(&bold("numerical health"));
    out.push('\n');
    let probes = get(cur, "egemm_numerical_health_probes_total");
    if probes > 0.0 {
        let count = get(cur, "egemm_numerical_health_count");
        let mean = if count > 0.0 {
            get(cur, "egemm_numerical_health_sum") / count
        } else {
            0.0
        };
        let violations = get(cur, "egemm_bound_violations_total");
        let badge = if violations > 0.0 {
            format!("\x1b[31m{} VIOLATION(S)\x1b[0m", fmt_si(violations))
        } else {
            "\x1b[32mok\x1b[0m".to_string()
        };
        out.push_str(&format!(
            "  probes {:>8}   residual/bound mean {:>8} ppm   p99 {:>8} ppm   {badge}\n",
            fmt_si(probes),
            fmt_si(mean),
            hist_quantile(cur, "egemm_numerical_health", 0.99).map_or("-".into(), fmt_si),
        ));
    } else {
        out.push_str("  probing off (EGEMM_PROBE_RATE=0)\n");
    }
    print!("{out}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(addr) = opt("--connect") else {
        eprintln!("usage: egemm_top --connect ADDR [--interval MS] [--once]");
        std::process::exit(2);
    };
    let interval = Duration::from_millis(
        opt("--interval")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1000),
    );
    let once = args.iter().any(|a| a == "--once");

    let mut prev: Option<Scrape> = None;
    let mut last = Instant::now();
    loop {
        let cur = match scrape(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("egemm_top: {e}");
                std::process::exit(1);
            }
        };
        let dt = if prev.is_some() {
            last.elapsed().as_secs_f64()
        } else {
            interval.as_secs_f64()
        };
        last = Instant::now();
        draw(&addr, prev.as_ref(), &cur, dt, !once);
        if once {
            return;
        }
        prev = Some(cur);
        std::thread::sleep(interval);
    }
}
