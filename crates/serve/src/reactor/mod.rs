//! Event-loop serving frontend: one thread, one `epoll` instance, many
//! nonblocking connections with pipelined requests.
//!
//! Where the blocking frontend ([`crate::TcpServer`]) spends a thread
//! (and its stack, and its context switches) per connection, the
//! reactor multiplexes every connection over a single thread driven by
//! `epoll` ([`sys`] — raw syscalls, keeping the zero-dependency
//! policy). Clients may pipeline: many requests can be in flight per
//! connection, replies carry the client's frame id, and responses are
//! written in *completion* order, not arrival order.
//!
//! Responses arrive from the scheduler thread via the ticket waker hook
//! ([`crate::queue::Ticket::on_ready`]): the waker pushes a completion
//! token onto a shared list and pokes an `eventfd`, which wakes
//! `epoll_wait`; the reactor then collects the result with `try_wait`,
//! encodes it in the codec the request arrived in (JSON or
//! [`crate::binwire`], negotiated per frame by leading byte), and
//! queues it on the connection's write buffer.
//!
//! **Backpressure** is the load-shedding inversion of the blocking
//! frontend: when the admission queue answers `Busy`, the reactor does
//! *not* bounce the error back. It parks the decoded request
//! ([`conn::Stalled`]), stops polling that socket for readability, and
//! retries as completions free queue space — so overload propagates to
//! clients as TCP flow control (their sends eventually block), while
//! every other connection keeps being served. A write buffer past its
//! high-watermark pauses reading the same way (a peer that won't read
//! replies can't keep feeding us work).
//!
//! **Graceful drain** (shutdown): stop accepting, stop reading, answer
//! any stalled request with `shutdown`, wait for every in-flight ticket,
//! flush every write buffer, then half-close each connection
//! (`shutdown(Write)` — FIN after the last reply) before dropping it.
//! No admitted request loses its ticket and no flushed reply is cut off
//! by an RST. The frontend must be shut down *before* its `Server`,
//! which then answers anything still queued.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) mod conn;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) mod sys;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use imp::EventServer;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::conn::{Conn, PendingReply, Stalled};
    use super::sys;
    use crate::binwire;
    use crate::queue::lock_unpoisoned;
    use crate::request::ServeError;
    use crate::server::Client;
    use crate::wire;
    use std::collections::HashMap;
    use std::io::Write;
    use std::net::{Shutdown, SocketAddr, TcpListener, ToSocketAddrs};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// epoll cookie of the listener.
    const TOKEN_LISTENER: u64 = u64::MAX;
    /// epoll cookie of the wakeup eventfd.
    const TOKEN_WAKE: u64 = u64::MAX - 1;
    /// Idle tick: upper bound on stop-flag / stalled-retry latency when
    /// no I/O and no completions arrive.
    const TICK: Duration = Duration::from_millis(20);
    /// Drain safety valve: a peer that never reads its replies cannot
    /// wedge shutdown forever.
    const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

    /// State shared with ticket wakers (scheduler thread) and the
    /// shutdown caller.
    struct Shared {
        stop: AtomicBool,
        /// Completion tokens: `conn_id << 32 | seq`.
        completions: Mutex<Vec<u64>>,
        /// The eventfd, wrapped so any thread can `write` it through a
        /// shared reference.
        waker: std::fs::File,
    }

    impl Shared {
        fn wake(&self) {
            let _ = (&self.waker).write_all(&1u64.to_ne_bytes());
        }

        fn push_completion(&self, token: u64) {
            lock_unpoisoned(&self.completions).push(token);
            self.wake();
        }
    }

    /// A running event-loop frontend bound to one listener.
    pub struct EventServer {
        addr: SocketAddr,
        shared: Arc<Shared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl EventServer {
        /// Bind and start the reactor thread. Pass `"127.0.0.1:0"` to
        /// let the OS pick a free port.
        pub fn bind<A: ToSocketAddrs>(addr: A, client: Client) -> std::io::Result<EventServer> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;

            let epfd = sys::epoll_create()?;
            // SAFETY: fresh fd from epoll_create1; OwnedFd takes over
            // closing it (on any error path below too).
            let epoll = unsafe { OwnedFd::from_raw_fd(epfd) };
            let wake_fd = sys::eventfd()?;
            // SAFETY: fresh eventfd; File closes it on drop.
            let waker = unsafe { std::fs::File::from_raw_fd(wake_fd) };

            sys::epoll_ctl(
                epoll.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                listener.as_raw_fd(),
                sys::EPOLLIN,
                TOKEN_LISTENER,
            )?;
            sys::epoll_ctl(
                epoll.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                wake_fd,
                sys::EPOLLIN,
                TOKEN_WAKE,
            )?;

            let shared = Arc::new(Shared {
                stop: AtomicBool::new(false),
                completions: Mutex::new(Vec::new()),
                waker,
            });
            let reactor_shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("egemm-serve-epoll".into())
                .spawn(move || {
                    Reactor {
                        epoll,
                        listener,
                        client,
                        shared: reactor_shared,
                        conns: HashMap::new(),
                        next_conn_id: 0,
                        accepting: true,
                    }
                    .run()
                })
                .expect("spawn epoll reactor");
            Ok(EventServer {
                addr,
                shared,
                thread: Some(thread),
            })
        }

        /// The bound address.
        pub fn local_addr(&self) -> SocketAddr {
            self.addr
        }

        /// Graceful drain; see the module docs. Blocks until every
        /// pending reply is flushed and every connection half-closed.
        pub fn shutdown(mut self) {
            self.shutdown_impl();
        }

        fn shutdown_impl(&mut self) {
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.wake();
            if let Some(h) = self.thread.take() {
                let _ = h.join();
            }
        }
    }

    impl Drop for EventServer {
        fn drop(&mut self) {
            self.shutdown_impl();
        }
    }

    struct Reactor {
        epoll: OwnedFd,
        listener: TcpListener,
        client: Client,
        shared: Arc<Shared>,
        conns: HashMap<u64, Conn>,
        next_conn_id: u64,
        accepting: bool,
    }

    impl Reactor {
        fn run(mut self) {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
            let mut drain_started: Option<Instant> = None;
            // An Err from epoll itself means nothing is left to drive.
            while let Ok(n) =
                sys::epoll_wait(self.epoll.as_raw_fd(), &mut events, TICK.as_millis() as i32)
            {
                if self.shared.stop.load(Ordering::SeqCst) && drain_started.is_none() {
                    drain_started = Some(Instant::now());
                    self.begin_drain();
                }
                let mut dead: Vec<u64> = Vec::new();
                for ev in &events[..n] {
                    // Copy out of the packed struct before use.
                    let (data, mask) = (ev.data, ev.events);
                    match data {
                        TOKEN_WAKE => self.drain_wakeups(),
                        TOKEN_LISTENER => self.accept_burst(),
                        id => {
                            if !self.handle_conn_event(id, mask) {
                                dead.push(id);
                            }
                        }
                    }
                }
                self.deliver_completions(&mut dead);
                self.retry_stalled(&mut dead);
                self.sweep(&mut dead, drain_started.is_some());
                if let Some(started) = drain_started {
                    if self.conns.is_empty() || started.elapsed() > DRAIN_DEADLINE {
                        break;
                    }
                }
            }
            // Drain epilogue: every surviving connection is quiesced (or
            // the deadline passed) — half-close, then drop.
            for (_, conn) in self.conns.drain() {
                let _ = conn.stream.shutdown(Shutdown::Write);
                self.client.counters().open_connections.add(-1);
            }
        }

        /// Shutdown entered: stop accepting, stop reading, answer every
        /// stalled (never-admitted) request with `shutdown`.
        fn begin_drain(&mut self) {
            if self.accepting {
                let _ = sys::epoll_ctl(
                    self.epoll.as_raw_fd(),
                    sys::EPOLL_CTL_DEL,
                    self.listener.as_raw_fd(),
                    0,
                    0,
                );
                self.accepting = false;
            }
            for conn in self.conns.values_mut() {
                conn.draining = true;
                // A stalled frame was never admitted; it gets the same
                // answer a post-shutdown submit would.
                if let Some(st) = conn.stalled.take() {
                    let binary = binwire::is_binary(&st.payload);
                    let decoded = if binary {
                        binwire::decode_request(&st.payload)
                    } else {
                        wire::decode_request(&st.payload)
                    };
                    let wire_id = match decoded {
                        Ok(wire::WireRequest::Job { id, .. }) => id,
                        _ => 0,
                    };
                    conn.queue_reply(&encode_err(binary, wire_id, &ServeError::Shutdown));
                }
            }
        }

        fn drain_wakeups(&self) {
            use std::io::Read;
            let mut count = [0u8; 8];
            let _ = (&self.shared.waker).read_exact(&mut count);
        }

        fn accept_burst(&mut self) {
            if !self.accepting {
                return;
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        // Conn ids stay below 2^32 so completion tokens
                        // can pack `id << 32 | seq` without colliding
                        // with the reserved cookies.
                        let id = self.next_conn_id;
                        self.next_conn_id = (self.next_conn_id + 1) & (u32::MAX as u64);
                        let mut conn = Conn::new(stream);
                        conn.interest = sys::EPOLLIN;
                        if sys::epoll_ctl(
                            self.epoll.as_raw_fd(),
                            sys::EPOLL_CTL_ADD,
                            conn.stream.as_raw_fd(),
                            conn.interest,
                            id,
                        )
                        .is_err()
                        {
                            continue;
                        }
                        self.conns.insert(id, conn);
                        self.client.counters().open_connections.add(1);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            }
        }

        /// Returns `false` when the connection must be closed.
        fn handle_conn_event(&mut self, id: u64, mask: u32) -> bool {
            let Some(conn) = self.conns.get_mut(&id) else {
                return true; // already gone; stale event
            };
            if mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                return false;
            }
            if mask & sys::EPOLLOUT != 0 && conn.flush().is_err() {
                return false;
            }
            if mask & sys::EPOLLIN != 0 {
                match conn.fill_rbuf() {
                    Ok(true) => {}
                    Ok(false) => conn.peer_closed = true,
                    Err(_) => return false,
                }
                if !self.process_frames(id) {
                    return false;
                }
            }
            true
        }

        /// Decode and act on every complete frame buffered on `id`,
        /// stopping early if admission backpressure stalls the
        /// connection. Returns `false` on a protocol error that makes
        /// the stream unframeable.
        fn process_frames(&mut self, id: u64) -> bool {
            loop {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return true;
                };
                if conn.stalled.is_some() || conn.draining {
                    return true;
                }
                let payload = match conn.next_frame() {
                    Err(_) => return false,
                    Ok(None) => return true,
                    Ok(Some(p)) => p,
                };
                self.handle_frame(id, &payload, false);
            }
        }

        fn handle_frame(&mut self, conn_id: u64, payload: &[u8], retrying: bool) {
            let binary = binwire::is_binary(payload);
            let decoded = if binary {
                binwire::decode_request(payload)
            } else {
                wire::decode_request(payload)
            };
            let reply: Vec<u8> = match decoded {
                Err(msg) => encode_err(binary, 0, &ServeError::Invalid(msg)),
                Ok(wire::WireRequest::Stats { id }) => {
                    let stats = self.client.stats();
                    if binary {
                        binwire::encode_text_response(id, &stats.to_json())
                    } else {
                        wire::encode_stats_response(id, &stats).into_bytes()
                    }
                }
                Ok(wire::WireRequest::Metrics { id }) => {
                    let text = self.client.metrics_text();
                    if binary {
                        binwire::encode_text_response(id, &text)
                    } else {
                        wire::encode_metrics_response(id, &text).into_bytes()
                    }
                }
                Ok(wire::WireRequest::Job { id, req }) => {
                    match self.client.submit(req) {
                        Ok(ticket) => {
                            let conn = self.conns.get_mut(&conn_id).expect("conn exists");
                            let seq = conn.next_seq;
                            conn.next_seq = conn.next_seq.wrapping_add(1);
                            let token = (conn_id << 32) | seq as u64;
                            let shared = Arc::clone(&self.shared);
                            // May fire right here (memo hit): the token
                            // lands on the completion list and is
                            // delivered later this same loop pass.
                            ticket.on_ready(move || shared.push_completion(token));
                            conn.inflight.insert(
                                seq,
                                PendingReply {
                                    wire_id: id,
                                    binary,
                                    ticket,
                                },
                            );
                            return;
                        }
                        Err(ServeError::Busy { .. }) => {
                            // Backpressure: park the frame, pause
                            // reading (mask synced in `sweep`), retry as
                            // completions free queue space.
                            let conn = self.conns.get_mut(&conn_id).expect("conn exists");
                            debug_assert!(conn.stalled.is_none());
                            conn.stalled = Some(Stalled {
                                payload: payload.to_vec(),
                            });
                            if !retrying {
                                self.client.counters().backpressure_pauses.inc();
                            }
                            return;
                        }
                        Err(e) => encode_err(binary, id, &e),
                    }
                }
            };
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.queue_reply(&reply);
            }
        }

        /// Write out any completions the wakers queued.
        fn deliver_completions(&mut self, dead: &mut Vec<u64>) {
            let tokens: Vec<u64> = std::mem::take(&mut *lock_unpoisoned(&self.shared.completions));
            for token in tokens {
                let (conn_id, seq) = (token >> 32, token as u32);
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    continue; // connection closed while in flight
                };
                let Some(pr) = conn.inflight.remove(&seq) else {
                    continue;
                };
                let Some(result) = pr.ticket.try_wait() else {
                    // Waker fires strictly after the result is stored;
                    // defensive: put it back rather than lose a reply.
                    conn.inflight.insert(seq, pr);
                    continue;
                };
                let reply = if pr.binary {
                    binwire::encode_response(pr.wire_id, &result)
                } else {
                    wire::encode_response(pr.wire_id, &result).into_bytes()
                };
                conn.queue_reply(&reply);
                if conn.flush().is_err() {
                    dead.push(conn_id);
                }
            }
        }

        /// Re-offer stalled frames; completions may have freed queue
        /// space. A frame that no longer stalls unblocks its
        /// connection's read side and any frames buffered behind it.
        fn retry_stalled(&mut self, _dead: &mut [u64]) {
            let stalled_ids: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.stalled.is_some())
                .map(|(id, _)| *id)
                .collect();
            for id in stalled_ids {
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                let Some(st) = conn.stalled.take() else {
                    continue;
                };
                self.handle_frame(id, &st.payload, true);
                let unstalled = self.conns.get(&id).is_some_and(|c| c.stalled.is_none());
                if unstalled {
                    let _ = self.process_frames(id);
                }
            }
        }

        /// Flush, sync interest masks, and close finished connections.
        fn sweep(&mut self, dead: &mut Vec<u64>, draining: bool) {
            for (&id, conn) in self.conns.iter_mut() {
                if conn.unflushed() > 0 && conn.flush().is_err() {
                    dead.push(id);
                    continue;
                }
                let finished = (conn.peer_closed || draining) && conn.drained();
                if finished {
                    if draining && !conn.half_closed {
                        // Every reply is flushed: FIN before close.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.half_closed = true;
                    }
                    dead.push(id);
                    continue;
                }
                let wanted = conn.wanted_mask();
                if wanted != conn.interest {
                    if sys::epoll_ctl(
                        self.epoll.as_raw_fd(),
                        sys::EPOLL_CTL_MOD,
                        conn.stream.as_raw_fd(),
                        wanted,
                        id,
                    )
                    .is_err()
                    {
                        dead.push(id);
                        continue;
                    }
                    conn.interest = wanted;
                }
            }
            dead.sort_unstable();
            dead.dedup();
            for id in dead.drain(..) {
                if let Some(conn) = self.conns.remove(&id) {
                    let _ = sys::epoll_ctl(
                        self.epoll.as_raw_fd(),
                        sys::EPOLL_CTL_DEL,
                        conn.stream.as_raw_fd(),
                        0,
                        0,
                    );
                    self.client.counters().open_connections.add(-1);
                }
            }
        }
    }

    /// Encode an error reply in the request's codec.
    fn encode_err(binary: bool, id: u64, e: &ServeError) -> Vec<u8> {
        if binary {
            binwire::encode_error(id, e)
        } else {
            wire::encode_error(id, e).into_bytes()
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp_stub {
    use crate::server::Client;
    use std::net::{SocketAddr, ToSocketAddrs};

    /// Stub on platforms without the raw-syscall epoll backend; `bind`
    /// reports `Unsupported` (use [`crate::TcpServer`] instead).
    pub struct EventServer {
        never: std::convert::Infallible,
    }

    impl EventServer {
        pub fn bind<A: ToSocketAddrs>(_addr: A, _client: Client) -> std::io::Result<EventServer> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll event frontend requires x86-64 Linux",
            ))
        }

        pub fn local_addr(&self) -> SocketAddr {
            match self.never {}
        }

        pub fn shutdown(self) {}
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub use imp_stub::EventServer;
