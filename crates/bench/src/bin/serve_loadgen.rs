//! Load generator and smoke harness for the serving layer.
//!
//! Modes:
//!
//! - `--smoke [--out PATH]` — the CI gate. Phase A starts a server plus
//!   TCP frontend and fires a concurrent mixed-shape shared-B burst,
//!   once with a 1-worker engine and once with a 4-worker engine: every
//!   request must get a response (zero drops), the batched ratio must
//!   exceed 1.0, and a sample of responses is checked bit-identical to
//!   direct cold `Egemm::gemm` calls. Phase B shrinks the queue to
//!   force the backpressure paths: at least one `busy` rejection and one
//!   deadline `timeout` must be observed, again with zero dropped
//!   responses, and both server and frontend must shut down cleanly.
//!   Records a `serve_throughput` entry (req/s, batched ratio, p50,
//!   p99, deadline misses, and busy rejects per engine worker count)
//!   into `BENCH_engine.json` (or `--out PATH`), preserving the entries
//!   the engine benchmark wrote. Phase C sweeps the epoll event
//!   frontend at 1/8/64/256 pipelined connections (binary codec, depth
//!   8, half the requests duplicated so the dedupe table and result
//!   cache engage) and phase D races the event frontend against the
//!   blocking one on an identical workload — on a multi-core host the
//!   event loop must win. Both record a `serve_event_scaling` entry
//!   (per-count req/s, dedupe/memo hit ratios, event vs blocking
//!   req/s).
//! - `--metrics-smoke [--out PATH]` — the metrics-plane CI gate: enables
//!   the 1-in-1 numerical-health probe, drives a shared-B burst through
//!   the TCP frontend, scrapes the `METRICS` verb, asserts the
//!   exposition carries nonzero engine, serve, and numerical-health
//!   series, and writes the raw exposition text to
//!   `target/metrics_exposition.txt` (or `--out PATH`) for the CI
//!   re-parse step.
//! - `--serve ADDR [--event]` — run a standalone server until killed,
//!   behind the blocking frontend or the epoll event loop.
//! - `--connect ADDR [--requests N] [--connections C] [--pipeline D]` —
//!   fire a burst at a running server (C parallel connections, D frames
//!   in flight each) and print the outcome.
//!
//! The wire protocol is documented in `egemm_serve::wire` and the
//! README's "Serving" section.

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::{GemmShape, Matrix};
use egemm_serve::{
    binwire, wire, EventServer, GemmRequest, ServeError, Server, ServerConfig, TcpServer,
};
use egemm_tcsim::DeviceSpec;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn engine(threads: usize) -> Egemm {
    let rt = EngineRuntime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    });
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt)
}

/// Tally of one connection's responses.
#[derive(Default, Debug, Clone, Copy)]
struct Outcome {
    sent: usize,
    responses: usize,
    ok: usize,
    busy: usize,
    timeout: usize,
    other_err: usize,
}

impl Outcome {
    fn absorb(&mut self, o: Outcome) {
        self.sent += o.sent;
        self.responses += o.responses;
        self.ok += o.ok;
        self.busy += o.busy;
        self.timeout += o.timeout;
        self.other_err += o.other_err;
    }
}

/// Send `requests` over one connection (one in flight at a time, the
/// protocol's per-connection discipline) and tally the responses.
/// `verify_against` bit-checks response `i` against the given cold
/// product.
fn run_connection(
    addr: std::net::SocketAddr,
    requests: &[GemmRequest],
    verify_against: &[Option<Matrix<f32>>],
) -> Outcome {
    let mut conn = TcpStream::connect(addr).expect("connect to serve frontend");
    let mut out = Outcome::default();
    for (i, req) in requests.iter().enumerate() {
        out.sent += 1;
        wire::write_frame(&mut conn, wire::encode_request(i as u64, req).as_bytes())
            .expect("write request frame");
        let frame = wire::read_frame(&mut conn)
            .expect("read response frame")
            .expect("connection closed mid-burst");
        let resp = wire::decode_response(&frame).expect("decode response");
        assert_eq!(resp.id, i as u64, "responses must arrive in order");
        out.responses += 1;
        match resp.result {
            Ok(served) => {
                out.ok += 1;
                if let Some(Some(want)) = verify_against.get(i) {
                    assert_eq!(
                        served.d.as_slice(),
                        want.as_slice(),
                        "served result differs from cold direct gemm"
                    );
                }
            }
            Err(ServeError::Busy { .. }) => out.busy += 1,
            Err(ServeError::TimedOut { .. }) => out.timeout += 1,
            Err(_) => out.other_err += 1,
        }
    }
    out
}

/// Send `requests` over one connection keeping up to `depth` frames in
/// flight (binary codec), matching replies by frame id — the event
/// frontend may complete them out of order. `verify_against[i]`
/// bit-checks the reply to request `i` against the given cold product.
fn run_pipelined_connection(
    addr: std::net::SocketAddr,
    requests: &[GemmRequest],
    depth: usize,
    verify_against: &[Option<Matrix<f32>>],
) -> Outcome {
    let mut conn = TcpStream::connect(addr).expect("connect to event frontend");
    let mut out = Outcome::default();
    let mut next = 0usize;
    let mut inflight = 0usize;
    let mut seen = vec![false; requests.len()];
    while out.responses < requests.len() {
        while next < requests.len() && inflight < depth.max(1) {
            wire::write_frame(
                &mut conn,
                &binwire::encode_request(next as u64, &requests[next]),
            )
            .expect("write request frame");
            next += 1;
            inflight += 1;
            out.sent += 1;
        }
        let frame = wire::read_frame(&mut conn)
            .expect("read response frame")
            .expect("connection closed mid-burst");
        let resp = binwire::decode_response(&frame).expect("decode response");
        let i = resp.id as usize;
        assert!(i < requests.len() && !seen[i], "reply id {i} unexpected");
        seen[i] = true;
        inflight -= 1;
        out.responses += 1;
        match resp.result {
            Ok(served) => {
                out.ok += 1;
                if let Some(Some(want)) = verify_against.get(i) {
                    assert_eq!(
                        served.d.as_slice(),
                        want.as_slice(),
                        "pipelined result differs from cold direct gemm"
                    );
                }
            }
            Err(ServeError::Busy { .. }) => out.busy += 1,
            Err(ServeError::TimedOut { .. }) => out.timeout += 1,
            Err(_) => out.other_err += 1,
        }
    }
    out
}

/// Fetch the server's counters over the wire.
fn fetch_stats(addr: std::net::SocketAddr) -> wire::Value {
    let mut conn = TcpStream::connect(addr).expect("connect for stats");
    wire::write_frame(&mut conn, wire::encode_stats_request(0).as_bytes())
        .expect("write stats request");
    let frame = wire::read_frame(&mut conn)
        .expect("read stats frame")
        .expect("stats response");
    let v = wire::parse(std::str::from_utf8(&frame).expect("utf-8")).expect("stats json");
    v.get("stats").cloned().expect("stats payload")
}

fn stat(v: &wire::Value, key: &str) -> f64 {
    v.get(key).and_then(wire::Value::as_f64).unwrap_or(0.0)
}

/// One phase-A run's numbers, recorded into `BENCH_engine.json`.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    req_s: f64,
    batched_ratio: f64,
    p50_ms: f64,
    p99_ms: f64,
    deadline_misses: u64,
    busy_rejects: u64,
}

/// Phase A: mixed-shape shared-B throughput burst against an engine
/// with the given worker count. Returns the numbers recorded into
/// `BENCH_engine.json`.
fn smoke_throughput(threads: usize) -> RunStats {
    let server = Server::start(
        engine(threads),
        ServerConfig {
            queue_cap: 64,
            batch_window: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client()).expect("bind frontend");
    let addr = tcp.local_addr();

    // Three shapes, one long-lived B each — requests of the same shape
    // from different connections share a bucket.
    let shapes = [
        GemmShape::new(64, 64, 64),
        GemmShape::new(32, 48, 96),
        GemmShape::new(80, 128, 16),
    ];
    let shared_b: Vec<Matrix<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| Matrix::random_uniform(s.k, s.n, 1000 + i as u64))
        .collect();
    let reference = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(
        EngineRuntime::new(RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
            ..RuntimeConfig::default()
        }),
    );

    let connections = 8usize;
    let per_conn = 5usize;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let mut requests = Vec::new();
            let mut verify = Vec::new();
            for r in 0..per_conn {
                let si = (c + r) % shapes.len();
                let s = shapes[si];
                let a = Matrix::<f32>::random_uniform(s.m, s.k, (c * 100 + r) as u64 + 1);
                // Bit-check the first response on every connection.
                verify.push((r == 0).then(|| reference.gemm(&a, &shared_b[si]).d));
                requests.push(GemmRequest::gemm(a, shared_b[si].clone()));
            }
            std::thread::spawn(move || run_connection(addr, &requests, &verify))
        })
        .collect();
    let mut total = Outcome::default();
    for h in handles {
        total.absorb(h.join().expect("connection thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = fetch_stats(addr);
    tcp.shutdown();
    server.shutdown();

    assert_eq!(
        total.responses, total.sent,
        "phase A dropped responses: {total:?}"
    );
    assert_eq!(total.ok, total.sent, "phase A had failures: {total:?}");
    let ratio = stat(&stats, "batched_ratio");
    assert!(
        ratio > 1.0,
        "batched ratio must exceed 1.0 under a shared-B burst, got {ratio} \
         ({} calls for {} dispatched)",
        stat(&stats, "engine_calls"),
        stat(&stats, "dispatched"),
    );
    let req_s = total.ok as f64 / elapsed;
    let p50_ms = stat(&stats, "p50_ns") / 1e6;
    let p99_ms = stat(&stats, "p99_ns") / 1e6;
    let deadline_misses =
        (stat(&stats, "timed_out_before") + stat(&stats, "timed_out_after")) as u64;
    let busy_rejects = stat(&stats, "rejected_busy") as u64;
    println!(
        "phase A ({threads} engine worker(s)): {} requests on {connections} connections \
         in {elapsed:.3} s -> {req_s:.1} req/s, batched ratio {ratio:.2}x, \
         p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms, \
         {deadline_misses} deadline miss(es), {busy_rejects} busy reject(s)",
        total.ok
    );
    RunStats {
        req_s,
        batched_ratio: ratio,
        p50_ms,
        p99_ms,
        deadline_misses,
        busy_rejects,
    }
}

/// Phase B: backpressure. A tiny queue plus a long batch window force
/// `busy` rejections; a millisecond deadline under that window forces a
/// pre-dispatch `timeout`. Every request still gets exactly one
/// response.
fn smoke_backpressure() {
    let server = Server::start(
        engine(2),
        ServerConfig {
            queue_cap: 2,
            batch_window: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client()).expect("bind frontend");
    let addr = tcp.local_addr();

    let shape = GemmShape::new(24, 24, 24);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 5);

    // Forced timeout: admitted first, deadline far below the 50 ms
    // linger the scheduler now enters.
    let doomed = GemmRequest::gemm(Matrix::random_uniform(shape.m, shape.k, 6), b.clone())
        .with_deadline(Duration::from_millis(1));
    let timeout_conn = std::thread::spawn(move || run_connection(addr, &[doomed], &[None]));
    // Let the doomed request wake the scheduler into its linger.
    std::thread::sleep(Duration::from_millis(15));

    // Queue-full burst: 12 one-shot connections against a 2-slot queue
    // mid-linger.
    let handles: Vec<_> = (0..12u64)
        .map(|i| {
            let req =
                GemmRequest::gemm(Matrix::random_uniform(shape.m, shape.k, 100 + i), b.clone());
            std::thread::spawn(move || run_connection(addr, &[req], &[None]))
        })
        .collect();

    let mut total = Outcome::default();
    total.absorb(timeout_conn.join().expect("timeout connection"));
    for h in handles {
        total.absorb(h.join().expect("burst connection"));
    }
    tcp.shutdown();
    server.shutdown();

    assert_eq!(
        total.responses, total.sent,
        "phase B dropped responses: {total:?}"
    );
    assert_eq!(total.other_err, 0, "unexpected errors: {total:?}");
    assert!(
        total.busy >= 1,
        "a 12-request burst against a 2-slot queue must see busy: {total:?}"
    );
    assert!(
        total.timeout >= 1,
        "the 1 ms deadline under a 50 ms window must time out: {total:?}"
    );
    println!(
        "phase B: {} requests -> {} ok, {} busy, {} timeout; zero dropped",
        total.sent, total.ok, total.busy, total.timeout
    );
}

/// One event-frontend sweep point plus the dedupe/memo ratios and the
/// frontend comparison, recorded into `BENCH_engine.json`.
struct EventStats {
    scaling: Vec<(usize, f64)>, // (connections, req/s)
    dedup_hit_ratio: f64,
    result_cache_hit_ratio: f64,
    event_req_s: f64,
    blocking_req_s: f64,
}

/// Build one connection's request list for the event sweep: pipelined
/// `depth` requests, even slots identical across connections (fresh
/// seeds per sweep, so concurrent copies hit the in-flight dedupe table
/// and repeats within a sweep hit the result cache), odd slots unique.
fn sweep_requests(
    sweep: usize,
    conn_id: usize,
    depth: usize,
    b: &Matrix<f32>,
    shape: GemmShape,
) -> Vec<GemmRequest> {
    (0..depth)
        .map(|r| {
            let seed = if r % 2 == 0 {
                7000 + (sweep * 100 + r) as u64
            } else {
                10_000 + (sweep * 100_000 + conn_id * 64 + r) as u64
            };
            GemmRequest::gemm(Matrix::random_uniform(shape.m, shape.k, seed), b.clone())
        })
        .collect()
}

/// Phase C: connection-scaling sweep over the event frontend — 1, 8,
/// 64, and 256 pipelined connections against one server, every reply
/// accounted for and a sample bit-checked. Half the requests are
/// duplicates, so the dedupe table and the result cache both light up.
/// Phase D: the same unique-operand workload through the event frontend
/// (pipeline depth 8) and the blocking frontend (one in flight per
/// connection, same binary codec), recording both throughputs; on a
/// multi-core host the event loop must win.
fn smoke_event() -> EventStats {
    let depth = 8usize;
    let shape = GemmShape::new(32, 32, 32);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 9000);

    // Cold reference for request 0 of every connection (seed 7000).
    let reference = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(
        EngineRuntime::new(RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
            ..RuntimeConfig::default()
        }),
    );
    let want0 = reference
        .gemm(&Matrix::random_uniform(shape.m, shape.k, 7000), &b)
        .d;

    let server = Server::start(
        engine(2),
        ServerConfig {
            batch_window: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    );
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind event frontend");
    let addr = evt.local_addr();

    let mut scaling = Vec::new();
    for (sweep, &connections) in [1usize, 8, 64, 256].iter().enumerate() {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let requests = sweep_requests(sweep, c, depth, &b, shape);
                let mut verify = vec![None; depth];
                if sweep == 0 {
                    verify[0] = Some(want0.clone());
                }
                std::thread::spawn(move || {
                    run_pipelined_connection(addr, &requests, depth, &verify)
                })
            })
            .collect();
        let mut total = Outcome::default();
        for h in handles {
            total.absorb(h.join().expect("sweep connection"));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            total.responses, total.sent,
            "event sweep at {connections} connections dropped replies: {total:?}"
        );
        assert_eq!(
            total.ok, total.sent,
            "event sweep must absorb overload via backpressure, not errors: {total:?}"
        );
        let req_s = total.ok as f64 / elapsed;
        println!(
            "phase C ({connections:>3} pipelined connection(s) x {depth}): \
             {} ok in {elapsed:.3} s -> {req_s:.1} req/s",
            total.ok
        );
        scaling.push((connections, req_s));
    }

    let stats = fetch_stats(addr);
    evt.shutdown();
    server.shutdown();

    let dedup_hits = stat(&stats, "dedup_hits");
    let memo_hits = stat(&stats, "result_cache_hits");
    let memo_misses = stat(&stats, "result_cache_misses");
    let requests = stat(&stats, "submitted").max(1.0);
    let dedup_hit_ratio = dedup_hits / requests;
    let result_cache_hit_ratio = memo_hits / (memo_hits + memo_misses).max(1.0);
    assert!(
        dedup_hits > 0.0,
        "concurrent duplicates across pipelined connections must hit the \
         in-flight dedupe table: {}",
        stats.to_json()
    );
    assert!(
        memo_hits > 0.0,
        "repeated requests within a sweep must hit the result cache: {}",
        stats.to_json()
    );
    println!(
        "phase C: dedupe hit ratio {dedup_hit_ratio:.3}, \
         result-cache hit ratio {result_cache_hit_ratio:.3} \
         ({dedup_hits} dedup + {memo_hits} memo hits over {requests} requests)"
    );

    // Phase D: identical unique-operand workloads through each frontend.
    let connections = 32usize;
    let frontend_run = |event: bool| -> f64 {
        let server = Server::start(
            engine(2),
            ServerConfig {
                batch_window: Duration::from_millis(2),
                // Unique operands below; disable the memo so the two
                // runs measure the frontends, not the cache.
                result_cache_bytes: 0,
                ..ServerConfig::default()
            },
        );
        let (addr, evt, tcp) = if event {
            let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
            (evt.local_addr(), Some(evt), None)
        } else {
            let tcp = TcpServer::bind("127.0.0.1:0", server.client()).expect("bind");
            (tcp.local_addr(), None, Some(tcp))
        };
        let t0 = Instant::now();
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let requests: Vec<GemmRequest> = (0..depth)
                    .map(|r| {
                        let seed = 50_000 + (c * 64 + r) as u64;
                        GemmRequest::gemm(Matrix::random_uniform(shape.m, shape.k, seed), b.clone())
                    })
                    .collect();
                let verify = vec![None; depth];
                // Blocking discipline = window of 1, same codec.
                let window = if event { depth } else { 1 };
                std::thread::spawn(move || {
                    run_pipelined_connection(addr, &requests, window, &verify)
                })
            })
            .collect();
        let mut total = Outcome::default();
        for h in handles {
            total.absorb(h.join().expect("comparison connection"));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(total.ok, total.sent, "comparison run failed: {total:?}");
        if let Some(e) = evt {
            e.shutdown();
        }
        if let Some(t) = tcp {
            t.shutdown();
        }
        server.shutdown();
        total.ok as f64 / elapsed
    };
    let blocking_req_s = frontend_run(false);
    let event_req_s = frontend_run(true);
    println!(
        "phase D ({connections} connections x {depth}): event {event_req_s:.1} req/s \
         vs blocking {blocking_req_s:.1} req/s"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            event_req_s > blocking_req_s,
            "on {cores} cores the pipelined event frontend must out-run the \
             blocking frontend ({event_req_s:.1} vs {blocking_req_s:.1} req/s)"
        );
    } else {
        println!("phase D: single-core host, event-vs-blocking assertion skipped");
    }

    EventStats {
        scaling,
        dedup_hit_ratio,
        result_cache_hit_ratio,
        event_req_s,
        blocking_req_s,
    }
}

/// Fetch the Prometheus-style exposition over the `METRICS` verb.
fn fetch_metrics(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect for metrics");
    wire::write_frame(&mut conn, wire::encode_metrics_request(0).as_bytes())
        .expect("write metrics request");
    let frame = wire::read_frame(&mut conn)
        .expect("read metrics frame")
        .expect("metrics response");
    let v = wire::parse(std::str::from_utf8(&frame).expect("utf-8")).expect("metrics json");
    v.get("metrics")
        .and_then(wire::Value::as_str)
        .expect("metrics payload")
        .to_string()
}

/// Sum of one exposition family across its label sets (`name` or
/// `name{...}`; comments skipped), `None` when no series matches.
fn series_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(n, _)| n.split('{').next() == Some(name))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .fold(None, |acc, v| Some(acc.unwrap_or(0.0) + v))
}

/// Metrics-plane smoke: probe every GEMM, drive a burst over TCP,
/// scrape the `METRICS` verb, assert the exposition carries the series
/// CI validates, and save the raw text for the re-parse step.
fn metrics_smoke(out_path: &str) {
    // Probe every call so the burst below is guaranteed to feed the
    // numerical-health histogram, and trace so collected reports feed
    // the per-phase duration counters.
    egemm::set_probe_rate(1);
    egemm::telemetry::set_enabled(true);

    let server = Server::start(
        engine(2),
        ServerConfig {
            queue_cap: 64,
            batch_window: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let tcp = TcpServer::bind("127.0.0.1:0", server.client()).expect("bind frontend");
    let addr = tcp.local_addr();

    let shape = GemmShape::new(48, 48, 48);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 77);
    let handles: Vec<_> = (0..4u64)
        .map(|c| {
            let requests: Vec<GemmRequest> = (0..4u64)
                .map(|r| {
                    GemmRequest::gemm(
                        Matrix::random_uniform(shape.m, shape.k, c * 10 + r + 1),
                        b.clone(),
                    )
                })
                .collect();
            let verify = vec![None; requests.len()];
            std::thread::spawn(move || run_connection(addr, &requests, &verify))
        })
        .collect();
    let mut total = Outcome::default();
    for h in handles {
        total.absorb(h.join().expect("connection thread"));
    }
    assert_eq!(
        total.ok, total.sent,
        "metrics smoke had failures: {total:?}"
    );

    // Every served response must carry a nonzero request id (ids start
    // at 1; 0 means untracked).
    let probe_req = GemmRequest::gemm(Matrix::random_uniform(shape.m, shape.k, 99), b.clone());
    let mut conn = TcpStream::connect(addr).expect("connect");
    wire::write_frame(&mut conn, wire::encode_request(1, &probe_req).as_bytes()).unwrap();
    let frame = wire::read_frame(&mut conn).unwrap().expect("response");
    let served = wire::decode_response(&frame)
        .unwrap()
        .result
        .expect("served");
    assert!(
        served.request_id > 0,
        "served responses must carry a request id"
    );
    // Repeat the identical request: the result cache (on by default)
    // must answer it, feeding the memo series CI validates.
    wire::write_frame(&mut conn, wire::encode_request(2, &probe_req).as_bytes()).unwrap();
    let frame = wire::read_frame(&mut conn).unwrap().expect("response");
    let memoized = wire::decode_response(&frame)
        .unwrap()
        .result
        .expect("served from cache");
    assert!(
        memoized.cached,
        "identical repeat must hit the result cache"
    );
    assert_eq!(
        memoized.d.as_slice(),
        served.d.as_slice(),
        "memoized reply must be bit-identical"
    );
    drop(conn); // the frontend joins handlers at shutdown; close first

    let exposition = fetch_metrics(addr);
    tcp.shutdown();
    server.shutdown();

    let require_positive = |name: &str| {
        let v = series_value(&exposition, name)
            .unwrap_or_else(|| panic!("exposition is missing {name}:\n{exposition}"));
        assert!(v > 0.0, "{name} must be positive, got {v}");
        v
    };
    require_positive("egemm_gemm_calls_total");
    require_positive("egemm_serve_requests_total");
    require_positive("egemm_serve_completed_total");
    require_positive("egemm_serve_result_cache_hits_total");
    require_positive("egemm_serve_result_cache_misses_total");
    require_positive("egemm_numerical_health_count");
    require_positive("egemm_numerical_health_probes_total");
    // The dedupe/backpressure/connection series must at least be
    // present in the exposition (registered at server start), even when
    // this single-in-flight burst leaves them at zero.
    for fam in [
        "egemm_serve_dedup_hits_total",
        "egemm_serve_result_cache_evictions_total",
        "egemm_serve_result_cache_bytes",
        "egemm_serve_backpressure_pauses_total",
        "egemm_serve_open_connections",
    ] {
        assert!(
            series_value(&exposition, fam).is_some(),
            "exposition is missing {fam}:\n{exposition}"
        );
    }
    assert_eq!(
        series_value(&exposition, "egemm_bound_violations_total").unwrap_or(0.0),
        0.0,
        "a healthy burst must not trip the bound-violation counter"
    );

    if let Some(dir) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out_path, &exposition).expect("write exposition");
    println!(
        "serve_loadgen --metrics-smoke: {} series scraped, exposition saved to {out_path}",
        exposition
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count()
    );
}

/// Render a [`wire::Value`] the way the engine benchmark formats
/// `BENCH_engine.json`: top-level and second-level objects multi-line,
/// everything deeper compact.
fn pretty(v: &wire::Value, depth: usize, out: &mut String) {
    match v {
        wire::Value::Obj(fields) if depth < 2 && !fields.is_empty() => {
            let pad = "  ".repeat(depth + 1);
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&format!("\"{k}\": "));
                pretty(val, depth + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        _ => out.push_str(&v.to_json()),
    }
}

/// Insert/replace one top-level entry in the benchmark baseline file,
/// preserving everything the engine benchmark and other phases recorded.
fn merge_entry(path: &str, key: &str, entry_json: &str) {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => wire::parse(&text).unwrap_or_else(|e| {
            panic!("{path} exists but is not valid JSON ({e}); refusing to overwrite")
        }),
        Err(_) => wire::Value::Obj(Vec::new()),
    };
    root.set(key, wire::parse(entry_json).expect("entry json"));
    let mut text = String::new();
    pretty(&root, 0, &mut text);
    text.push('\n');
    std::fs::write(path, text).expect("write benchmark baseline");
    eprintln!("recorded {key} in {path}");
}

/// Record the blocking-frontend throughput runs, one sub-object per
/// engine worker count.
fn record(path: &str, runs: &[(usize, RunStats)]) {
    let body: Vec<String> = runs
        .iter()
        .map(|&(threads, r)| {
            format!(
                "\"workers_{threads}\": {{\"req_s\": {:.1}, \
                 \"batched_ratio\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
                 \"deadline_misses\": {}, \"busy_rejects\": {}}}",
                r.req_s, r.batched_ratio, r.p50_ms, r.p99_ms, r.deadline_misses, r.busy_rejects
            )
        })
        .collect();
    merge_entry(
        path,
        "serve_throughput",
        &format!("{{{}}}", body.join(", ")),
    );
}

/// Record the event-frontend connection sweep, hit ratios, and the
/// event-vs-blocking comparison.
fn record_event(path: &str, ev: &EventStats) {
    let mut body: Vec<String> = ev
        .scaling
        .iter()
        .map(|&(conns, req_s)| format!("\"connections_{conns}\": {{\"req_s\": {req_s:.1}}}"))
        .collect();
    body.push(format!("\"dedup_hit_ratio\": {:.4}", ev.dedup_hit_ratio));
    body.push(format!(
        "\"result_cache_hit_ratio\": {:.4}",
        ev.result_cache_hit_ratio
    ));
    body.push(format!("\"event_req_s\": {:.1}", ev.event_req_s));
    body.push(format!("\"blocking_req_s\": {:.1}", ev.blocking_req_s));
    merge_entry(
        path,
        "serve_event_scaling",
        &format!("{{{}}}", body.join(", ")),
    );
}

fn serve_forever(addr: &str, event: bool) {
    let server = Server::start(engine(4), ServerConfig::default());
    if event {
        let evt = EventServer::bind(addr, server.client()).expect("bind event frontend");
        println!("serving (event loop) on {}", evt.local_addr());
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let tcp = TcpServer::bind(addr, server.client()).expect("bind frontend");
    println!("serving on {}", tcp.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Fire a burst at a running server: `connections` parallel sockets,
/// each keeping `pipeline` requests in flight (binary codec; a depth of
/// 1 reproduces the blocking discipline against either frontend).
fn connect_burst(addr: &str, n: usize, connections: usize, pipeline: usize) {
    let addr: std::net::SocketAddr = addr.parse().expect("parse address");
    let shape = GemmShape::new(64, 64, 64);
    let b = Matrix::<f32>::random_uniform(shape.k, shape.n, 1);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let requests: Vec<GemmRequest> = (0..n as u64)
                .map(|i| {
                    GemmRequest::gemm(
                        Matrix::random_uniform(shape.m, shape.k, (c as u64) << 32 | (10 + i)),
                        b.clone(),
                    )
                })
                .collect();
            let verify = vec![None; n];
            std::thread::spawn(move || run_pipelined_connection(addr, &requests, pipeline, &verify))
        })
        .collect();
    let mut total = Outcome::default();
    for h in handles {
        total.absorb(h.join().expect("burst connection"));
    }
    println!(
        "{total:?} in {:.3} s; server stats: {}",
        t0.elapsed().as_secs_f64(),
        fetch_stats(addr).to_json()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if flag("--smoke") {
        let runs: Vec<(usize, RunStats)> = [1usize, 4]
            .iter()
            .map(|&w| (w, smoke_throughput(w)))
            .collect();
        smoke_backpressure();
        let ev = smoke_event();
        let out = opt("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());
        record(&out, &runs);
        record_event(&out, &ev);
        println!("serve_loadgen --smoke: all serving assertions passed");
    } else if flag("--metrics-smoke") {
        let out = opt("--out").unwrap_or_else(|| "target/metrics_exposition.txt".to_string());
        metrics_smoke(&out);
    } else if let Some(addr) = opt("--serve") {
        serve_forever(&addr, flag("--event"));
    } else if let Some(addr) = opt("--connect") {
        let n = opt("--requests").and_then(|s| s.parse().ok()).unwrap_or(16);
        let connections = opt("--connections")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let pipeline = opt("--pipeline").and_then(|s| s.parse().ok()).unwrap_or(1);
        connect_burst(&addr, n, connections, pipeline);
    } else {
        eprintln!(
            "usage: serve_loadgen --smoke [--out PATH] | --metrics-smoke [--out PATH] \
             | --serve ADDR [--event] \
             | --connect ADDR [--requests N] [--connections N] [--pipeline D]"
        );
        std::process::exit(2);
    }
}
