//! The serve probe: an open loop over loopback into an in-process
//! `Server` + `EventServer` speaking binwire, run by every traced run
//! for the `serve.*` and `loadgen.*` metrics.
//!
//! One sender thread writes requests on a fixed schedule and one
//! receiver thread reads the replies, over one connection. Each request
//! is timed from when it was due, so a stall also charges the requests
//! queued behind it, and the sender's own lateness is reported.
//!
//! The client is the benchmark's own rather than `serve_loadgen`'s:
//! that one writes a frame as two writes (`wire::write_frame`: length,
//! then payload) on a socket without `TCP_NODELAY`, so a small request
//! waits on Nagle's algorithm and the peer's delayed ACK (measured on a
//! 2-core Xeon VM: 22 req/s at p50 44 ms, against 859 req/s at p50
//! 1.07 ms with `TCP_NODELAY`). Here every frame, length prefix and
//! payload, leaves in one write on a `TCP_NODELAY` socket.
//!
//! The mix, drawn from the seed (shapes 32 to 128):
//! - unique requests: a memo insert after a memo miss;
//! - repeats of earlier unique requests drawn from a window whose
//!   results outgrow the 32 MiB result memo, so hits and evictions
//!   both occur;
//! - identical pairs sent back to back, which the in-flight dedupe
//!   table can fold into one dispatch;
//! - shared-B requests (fresh A, one of two long-lived B), which the
//!   batcher can coalesce.

use crate::check::Expected;
use crate::host::nproc;
use crate::layers::{engine, runtime};
use crate::report::Report;
use crate::stats::{median, ms, sleep_until, windowed_tail, Rng};
use crate::Opts;
use egemm::EngineRuntime;
use egemm_matrix::{GemmShape, Matrix};
use egemm_serve::wire::{read_frame, WireRequest};
use egemm_serve::{binwire, EventServer, GemmRequest, ServeStats, Server, ServerConfig};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates, requests/s: `low` is about a quarter of the mix's
/// capacity on a 2-core Xeon VM, `high` about three quarters.
pub const RATE_LOW: f64 = 300.0;
pub const RATE_HIGH: f64 = 900.0;
/// The rate ladder for `max_rate`: rungs at most 10% apart.
pub const LADDER: &[f64] = &[
    400.0, 440.0, 480.0, 520.0, 570.0, 620.0, 680.0, 740.0, 810.0, 890.0, 970.0, 1060.0, 1160.0,
    1270.0, 1390.0, 1520.0, 1660.0, 1820.0, 2000.0,
];
/// Latency limit a ladder rung must meet at its tail.
pub const TAIL_LIMIT_MS: f64 = 20.0;

/// Unique request shapes (m, n, k).
const SHAPES: [(usize, usize, usize); 4] =
    [(64, 64, 64), (32, 128, 64), (128, 32, 96), (128, 128, 32)];
/// Unique requests kept for repeats; their results total ~42 MB, more
/// than the 32 MiB result memo holds.
const WINDOW: usize = 1500;
/// Checked positions per reply.
const SAMPLES: usize = 4;

/// A request as sent: its frame (length prefix and payload) and the
/// oracle's values at the checked positions.
struct Template {
    frame: Vec<u8>,
    exp: Expected,
}

/// One send: the template and whether it goes out together with the
/// previous send (the second of an identical pair).
type Send = (Arc<Template>, bool);

/// Seeded request mix.
pub struct Mix {
    rng: Rng,
    shared_b: Vec<Matrix<f32>>,
    window: VecDeque<Arc<Template>>,
    window_cap: usize,
}

impl Mix {
    pub fn new(rng: &mut Rng, tiny: bool) -> Mix {
        let mut rng = rng.fork();
        let shared_b = (0..2).map(|_| rng.matrix(64, 64)).collect();
        Mix {
            rng,
            shared_b,
            window: VecDeque::new(),
            window_cap: if tiny { 16 } else { WINDOW },
        }
    }

    fn template(&mut self, a: Matrix<f32>, b: Matrix<f32>) -> Arc<Template> {
        let exp = Expected::of(&a, &b, SAMPLES, &mut self.rng);
        let payload = binwire::encode_request(0, &GemmRequest::gemm(a, b));
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        Arc::new(Template { frame, exp })
    }

    fn unique(&mut self) -> Arc<Template> {
        let (m, n, k) = SHAPES[self.rng.below(SHAPES.len())];
        let (a, b) = (self.rng.matrix(m, k), self.rng.matrix(k, n));
        let t = self.template(a, b);
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        self.window.push_back(Arc::clone(&t));
        t
    }

    /// The next `n` sends of the mix.
    fn sends(&mut self, n: usize) -> Vec<Send> {
        let mut out = Vec::with_capacity(n + 1);
        while out.len() < n {
            let roll = self.rng.unit();
            if roll < 0.35 || self.window.is_empty() {
                out.push((self.unique(), false));
            } else if roll < 0.60 {
                let i = self.rng.below(self.window.len());
                out.push((Arc::clone(&self.window[i]), false));
            } else if roll < 0.70 {
                let (m, n, k) = SHAPES[self.rng.below(SHAPES.len())];
                let (a, b) = (self.rng.matrix(m, k), self.rng.matrix(k, n));
                let t = self.template(a, b);
                out.push((Arc::clone(&t), false));
                out.push((t, true));
            } else {
                let b = self.shared_b[self.rng.below(2)].clone();
                let a = self.rng.matrix(64, 64);
                out.push((self.template(a, b), false));
            }
        }
        out
    }
}

/// A running server, its frontend and one client connection.
pub struct Rig {
    server: Option<Server>,
    front: Option<EventServer>,
    rt: Arc<EngineRuntime>,
    conn: TcpStream,
    next_id: u64,
}

impl Rig {
    pub fn start(rt: Arc<EngineRuntime>) -> Rig {
        let server = Server::start(engine(&rt), ServerConfig::default());
        let front = EventServer::bind("127.0.0.1:0", server.client()).expect("bind loopback");
        let conn = connect(&front);
        Rig {
            server: Some(server),
            front: Some(front),
            rt,
            conn,
            next_id: 1,
        }
    }

    fn stats(&self) -> ServeStats {
        self.server.as_ref().expect("running").stats()
    }

    fn reconnect(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        self.conn = connect(self.front.as_ref().expect("running"));
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(f) = self.front.take() {
            f.shutdown();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn connect(front: &EventServer) -> TcpStream {
    let conn = TcpStream::connect(front.local_addr()).expect("connect loopback");
    conn.set_nodelay(true).expect("TCP_NODELAY");
    conn
}

/// One reply as the receiver saw it.
#[derive(Clone, Copy, Default)]
struct Reply {
    /// From due time to reply, ms.
    lat_ms: f64,
    /// From actual send to reply, minus the server's `total_ns`, ms.
    wire_ms: f64,
    queue_ms: f64,
    server_ms: f64,
    ok: bool,
}

/// What one open-loop phase measured.
struct Phase {
    replies: Vec<Option<Reply>>,
    late_ms: Vec<f64>,
    wall_s: f64,
}

impl Phase {
    fn lat(&self) -> Vec<f64> {
        self.replies.iter().flatten().map(|r| r.lat_ms).collect()
    }

    fn failed(&self) -> u64 {
        self.replies
            .iter()
            .filter(|r| !r.is_some_and(|r| r.ok))
            .count() as u64
    }

    fn field(&self, f: impl Fn(&Reply) -> f64) -> Vec<f64> {
        self.replies.iter().flatten().map(f).collect()
    }

    /// Tail within the limit, nothing failed, and no growing backlog:
    /// the last quarter's median latency stays within twice the first
    /// quarter's plus a millisecond.
    fn sustained(&self) -> bool {
        let lat = self.lat();
        let q = lat.len() / 4;
        self.failed() == 0
            && q > 0
            && windowed_tail(&lat).value <= TAIL_LIMIT_MS
            && median(&lat[lat.len() - q..]) <= 2.0 * median(&lat[..q]) + 1.0
    }
}

/// Send `sends` in an open loop, due on a fixed schedule at `rate` per
/// second (all at once when infinite), and collect every reply, giving
/// up on the missing ones 3 s after the last send.
fn phase(rig: &mut Rig, sends: &[Send], rate: f64) -> Phase {
    let n = sends.len();
    let base = rig.next_id;
    rig.next_id += n as u64;
    let start = Instant::now() + Duration::from_millis(2);
    // Due offsets: a pair's second send shares its first's slot.
    let mut due = Vec::with_capacity(n);
    for (i, (_, with_prev)) in sends.iter().enumerate() {
        let slot = if *with_prev { i - 1 } else { i };
        due.push(Duration::from_secs_f64(slot as f64 / rate));
    }
    let sent_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let mut reader = rig.conn.try_clone().expect("clone stream");
    let exp: Vec<Arc<Template>> = sends.iter().map(|s| Arc::clone(&s.0)).collect();
    let (due_r, sent_r) = (due.clone(), Arc::clone(&sent_ns));
    let receiver = std::thread::spawn(move || {
        let mut replies: Vec<Option<Reply>> = vec![None; n];
        let mut got = 0;
        while got < n {
            let Ok(Some(payload)) = read_frame(&mut reader) else {
                break;
            };
            let now = Instant::now();
            let Ok(resp) = binwire::decode_response(&payload) else {
                continue;
            };
            let Some(i) = resp
                .id
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < n)
            else {
                continue;
            };
            let sent = Duration::from_nanos(sent_r[i].load(Ordering::Acquire));
            let r = match resp.result {
                Ok(out) => Reply {
                    lat_ms: ms(now - (start + due_r[i])),
                    wire_ms: ms(now - (start + sent)) - out.total_ns as f64 / 1e6,
                    queue_ms: out.queue_ns as f64 / 1e6,
                    server_ms: out.total_ns as f64 / 1e6,
                    ok: exp[i].exp.mismatches(&out.d) == 0,
                },
                Err(_) => Reply::default(),
            };
            if replies[i].replace(r).is_none() {
                got += 1;
            }
        }
        (replies, Instant::now())
    });
    let mut late_ms = Vec::with_capacity(n);
    let mut buf = Vec::new();
    let mut write_failed = false;
    for (i, (t, _)) in sends.iter().enumerate() {
        let at = start + due[i];
        sleep_until(at);
        let now = Instant::now();
        late_ms.push(ms(now - at));
        buf.clear();
        buf.extend_from_slice(&t.frame);
        // The frame id sits right after the length prefix and the
        // 4-byte binwire header.
        buf[8..16].copy_from_slice(&(base + i as u64).to_le_bytes());
        sent_ns[i].store((now - start).as_nanos() as u64, Ordering::Release);
        if !write_failed && rig.conn.write_all(&buf).is_err() {
            write_failed = true;
        }
    }
    let give_up = Instant::now() + Duration::from_secs(3);
    while !receiver.is_finished() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stalled = !receiver.is_finished();
    if stalled {
        // Unblock the receiver; the missing replies count as failed.
        let _ = rig.conn.shutdown(Shutdown::Both);
    }
    let (replies, end) = receiver.join().expect("receiver");
    if stalled || write_failed {
        rig.reconnect();
    }
    Phase {
        replies,
        late_ms,
        wall_s: (end - start).as_secs_f64(),
    }
}

fn count(rate: f64, secs: f64) -> usize {
    ((rate * secs) as usize).max(24)
}

/// Climb the ladder from the rung nearest `RATE_HIGH` while rungs are
/// sustained, or, if that rung is missed, descend to the first one that
/// is; returns the highest sustained rung's phase. Every request sent
/// counts as an operation: a rung may miss its latency limit, but a
/// failed request still fails the run.
fn max_rate(rig: &mut Rig, mix: &mut Mix, rung_s: f64, rep: &mut Report) -> Option<Phase> {
    let mut rung = |rate: f64| {
        let p = phase(rig, &mix.sends(count(rate, rung_s)), rate);
        rep.ops(p.replies.len() as u64, p.failed());
        let ok = p.sustained();
        println!(
            "ladder rung {rate:>7.0} req/s: {} (p50 {:.3} ms, tail {:.3} ms, {} failed)",
            if ok { "sustained" } else { "missed" },
            median(&p.lat()),
            windowed_tail(&p.lat()).value,
            p.failed()
        );
        ok.then_some(p)
    };
    let start = LADDER.iter().rposition(|&r| r <= RATE_HIGH).unwrap_or(0);
    let mut best = None;
    for &rate in &LADDER[start..] {
        match rung(rate) {
            Some(p) => best = Some(p),
            None => break,
        }
    }
    best.or_else(|| LADDER[..start].iter().rev().find_map(|&rate| rung(rate)))
}

/// Set-up: runtime, server and frontend start, connection, and one
/// request of every shape (compiling their JIT kernels).
fn set_up(mix: &mut Mix, rng: &mut Rng) -> (Rig, f64) {
    let warm: Vec<Send> = SHAPES
        .iter()
        .map(|&(m, n, k)| (mix.template(rng.matrix(m, k), rng.matrix(k, n)), false))
        .collect();
    let t = Instant::now();
    let mut rig = Rig::start(runtime(nproc()));
    let p = phase(&mut rig, &warm, f64::INFINITY);
    assert_eq!(p.failed(), 0, "warm-up requests failed");
    (rig, t.elapsed().as_secs_f64())
}

/// `serve.*` and `loadgen.late_tail_ms` from the traced phases, plus the
/// codec and the in-process path timed on fresh requests of the mix.
fn serve_layers(rep: &mut Report, rig: &Rig, phases: &[&Phase], s0: &ServeStats, mix: &mut Mix) {
    let s = rig.stats();
    let field =
        |f: fn(&Reply) -> f64| -> Vec<f64> { phases.iter().flat_map(|p| p.field(f)).collect() };
    rep.set("serve.queue_p50_ms", median(&field(|r| r.queue_ms)), "ms");
    rep.set("serve.server_p50_ms", median(&field(|r| r.server_ms)), "ms");
    rep.set("serve.wire_p50_ms", median(&field(|r| r.wire_ms)), "ms");
    let dispatched = s.dispatched - s0.dispatched;
    let calls = (s.engine_calls - s0.engine_calls).max(1);
    let completed = (s.completed - s0.completed).max(1);
    rep.ratio(
        "serve.batched_ratio",
        dispatched as f64 / calls as f64,
        "ratio",
        &format!("{dispatched} dispatched requests / {calls} engine calls"),
    );
    rep.set(
        "serve.dedup_hits",
        (s.dedup_hits - s0.dedup_hits) as f64,
        "count",
    );
    let (h, m) = (
        s.result_cache_hits - s0.result_cache_hits,
        s.result_cache_misses - s0.result_cache_misses,
    );
    rep.ratio(
        "serve.memo_hit_ratio",
        h as f64 / (h + m).max(1) as f64,
        "ratio",
        &format!("{h} hits / {} lookups", h + m),
    );
    rep.set(
        "serve.memo_evictions",
        (s.result_cache_evictions - s0.result_cache_evictions) as f64,
        "count",
    );
    rep.ratio(
        "serve.engine_calls_per_req",
        calls as f64 / completed as f64,
        "ratio",
        &format!("{calls} engine calls / {completed} completed requests"),
    );
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    rep.set("loadgen.late_tail_ms", windowed_tail(&late).value, "ms");
    inproc_and_codec(rep, rig, mix, 64);
}

/// Fresh requests of the mix through `Client::call` (no sockets), and
/// the binwire round trip of the same frames: request encode and
/// decode, response encode and decode.
fn inproc_and_codec(rep: &mut Report, rig: &Rig, mix: &mut Mix, n: usize) {
    let client = rig.server.as_ref().expect("running").client();
    let (mut lat, mut codec) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for (t, _) in mix.sends(n) {
        let c0 = Instant::now();
        let Ok(WireRequest::Job { id, req }) = binwire::decode_request(&t.frame[4..]) else {
            failed += 1;
            continue;
        };
        std::hint::black_box(binwire::encode_request(id, &req));
        let mut codec_s = c0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = client.call(req);
        lat.push(ms(t0.elapsed()));
        let c1 = Instant::now();
        let frame = binwire::encode_response(id, &out);
        let back = binwire::decode_response(&frame);
        codec_s += c1.elapsed().as_secs_f64();
        codec.push(codec_s * 1e6);
        let ok =
            matches!(back, Ok(r) if r.result.as_ref().is_ok_and(|o| t.exp.mismatches(&o.d) == 0));
        failed += u64::from(!ok);
    }
    rep.ops(n as u64, failed);
    rep.set("serve.inproc_p50_ms", median(&lat), "ms");
    rep.set("serve.codec_us", median(&codec), "us");
}

/// The `serve.*` and `loadgen.*` metrics: `phase_s` at `low`, then at
/// `high`, then the ladder with `rung_s` rungs, every request counted
/// as an operation.
fn serve_metrics(rep: &mut Report, rig: &mut Rig, mix: &mut Mix, phase_s: f64, rung_s: f64) {
    let s0 = rig.stats();
    let low = phase(rig, &mix.sends(count(RATE_LOW, phase_s)), RATE_LOW);
    let high = phase(rig, &mix.sends(count(RATE_HIGH, phase_s)), RATE_HIGH);
    for p in [&low, &high] {
        rep.ops(p.replies.len() as u64, p.failed());
    }
    serve_layers(rep, rig, &[&low, &high], &s0, mix);
    let top = max_rate(rig, mix, rung_s, rep);
    let hl = high.lat();
    rep.set("loadgen.high_p50_ms", median(&hl), "ms");
    rep.set("loadgen.high_tail_ms", windowed_tail(&hl).value, "ms");
    rep.set(
        "loadgen.max_rate_rps",
        top.map_or(0.0, |p| p.replies.len() as f64 / p.wall_s),
        "1/s",
    );
}

/// The `serve.*` and `loadgen.*` metrics: short phases of the mix on a
/// private server. Also prints the timing model's cost on the mix's
/// shapes against `serve.server_p50_ms`, since every dispatch runs one
/// `Egemm::time` call; the workload's own `tcsim.time_ms` is taken on
/// its own shapes.
pub fn probe(opts: &Opts, rep: &mut Report, rng: &mut Rng) {
    let mut mix = Mix::new(rng, opts.tiny);
    let (mut rig, _) = set_up(&mut mix, rng);
    let (phase_s, rung_s) = if opts.tiny { (0.1, 0.05) } else { (1.0, 0.4) };
    serve_metrics(rep, &mut rig, &mut mix, phase_s, rung_s);
    let eg = engine(&rig.rt);
    let tcsim: Vec<f64> = (0..40)
        .map(|i| {
            let (m, n, k) = SHAPES[i % SHAPES.len()];
            let t = Instant::now();
            std::hint::black_box(eg.time(GemmShape::new(m, n, k)));
            ms(t.elapsed())
        })
        .collect();
    let (tcsim, server) = (median(&tcsim), rep.get("serve.server_p50_ms"));
    println!(
        "serve probe: Egemm::time on the mix's shapes = {tcsim:.4} ms per dispatch, \
         {:.0}% of serve.server_p50_ms = {server:.4} ms",
        100.0 * tcsim / server
    );
}
