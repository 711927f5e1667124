//! Per-connection state for the epoll reactor: nonblocking read/write
//! buffers, frame extraction, pipelining bookkeeping, and the
//! backpressure / drain state bits.
//!
//! A connection moves through a small set of states, all encoded as
//! flags here and driven by `reactor/mod.rs`:
//!
//! ```text
//! Reading ──queue full──▶ Stalled ──queue space──▶ Reading
//!    │  ▲                    │
//!    │  └──wbuf drained──────┤ (write high-watermark also pauses reads)
//!    │                       │
//!    └──peer EOF / shutdown──▶ Draining ──all replies flushed──▶
//!                              HalfClosed (shutdown(Write)) ──▶ closed
//! ```
//!
//! *Stalled* holds exactly one decoded-but-unadmitted request: when the
//! admission queue answers `Busy`, the reactor parks the request here
//! and stops reading the socket, so overload propagates to the client
//! as TCP flow control instead of an error. *Draining* flushes every
//! pending pipelined reply before the write side is half-closed, so a
//! graceful shutdown never drops an answered request on the floor.

use crate::queue::Ticket;
use crate::wire::MAX_FRAME;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Pause reading a connection once this many reply bytes are queued
/// unwritten: a peer that stops reading its responses must not grow our
/// write buffer without bound.
pub(crate) const WRITE_HIGH_WATERMARK: usize = 1 << 20;

/// Read chunk size.
const READ_CHUNK: usize = 64 * 1024;

/// A submitted request whose reply has not been written yet. Replies
/// carry the client's frame id, so pipelined responses may complete and
/// be written out of order.
pub(crate) struct PendingReply {
    pub wire_id: u64,
    /// Answer in the codec the request arrived in.
    pub binary: bool,
    pub ticket: Ticket,
}

/// A request frame the admission queue refused with `Busy`; kept as the
/// raw payload (decode is cheap next to the engine call) and re-offered
/// when completions free queue space. While one of these exists the
/// connection's read side is paused (backpressure).
pub(crate) struct Stalled {
    pub payload: Vec<u8>,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Raw bytes read; `rbuf[rpos..]` is not yet framed.
    rbuf: Vec<u8>,
    /// Consumed prefix of `rbuf` (compacted lazily, like `wpos`), so a
    /// deep pipeline is framed in time linear in its bytes instead of
    /// memmoving the unread remainder once per frame.
    rpos: usize,
    /// Encoded reply bytes (length prefixes included) not yet written.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf` (compacted lazily).
    wpos: usize,
    /// Event mask currently registered with epoll (reactor-maintained).
    pub interest: u32,
    /// Next per-connection sequence number for completion tokens.
    pub next_seq: u32,
    /// In-flight pipelined requests by sequence number.
    pub inflight: HashMap<u32, PendingReply>,
    pub stalled: Option<Stalled>,
    /// Read side saw EOF; flush what remains, then close.
    pub peer_closed: bool,
    /// Server-side drain (shutdown): stop reading, flush, half-close.
    pub draining: bool,
    /// `shutdown(Write)` already sent.
    pub half_closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            interest: 0,
            next_seq: 0,
            inflight: HashMap::new(),
            stalled: None,
            peer_closed: false,
            draining: false,
            half_closed: false,
        }
    }

    /// Drain the socket into `rbuf` until `WouldBlock`. Returns `false`
    /// if the peer closed its write side (EOF).
    pub(crate) fn fill_rbuf(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop one complete length-prefixed frame payload off `rbuf`, if a
    /// whole one has arrived. An oversized length is a protocol error
    /// that kills the connection (the stream can no longer be framed).
    pub(crate) fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let unread = &self.rbuf[self.rpos..];
        if unread.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(unread[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME} limit"
            ));
        }
        if unread.len() < 4 + len {
            return Ok(None);
        }
        let payload = unread[4..4 + len].to_vec();
        self.rpos += 4 + len;
        // Compact once everything (or more than half the buffer) was
        // consumed: each move then costs less than the bytes consumed
        // since the last one, so framing stays linear overall.
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > self.rbuf.len() / 2 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        Ok(Some(payload))
    }

    /// Queue one reply payload (framing added here).
    pub(crate) fn queue_reply(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Write queued bytes until empty or `WouldBlock`.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Compact once everything (or at least half the buffer) went out.
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > self.wbuf.len() / 2 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Unwritten reply bytes.
    pub(crate) fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the read side should be open right now: not draining or
    /// closed, no stalled request (admission backpressure), and the
    /// write buffer under its high-watermark.
    pub(crate) fn should_read(&self) -> bool {
        !self.draining
            && !self.peer_closed
            && self.stalled.is_none()
            && self.unflushed() < WRITE_HIGH_WATERMARK
    }

    /// The epoll mask this connection currently wants.
    pub(crate) fn wanted_mask(&self) -> u32 {
        let mut mask = 0;
        if self.should_read() {
            mask |= super::sys::EPOLLIN;
        }
        if self.unflushed() > 0 {
            mask |= super::sys::EPOLLOUT;
        }
        mask
    }

    /// Fully quiesced: nothing in flight, nothing stalled, nothing
    /// buffered in either direction.
    pub(crate) fn drained(&self) -> bool {
        self.inflight.is_empty() && self.stalled.is_none() && self.unflushed() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_pair() -> (Conn, TcpStream) {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (server_side, _) = l.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (Conn::new(server_side), peer)
    }

    #[test]
    fn frames_reassemble_across_partial_reads() {
        let (mut conn, mut peer) = conn_pair();
        let payload = b"hello frame";
        let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(payload);

        // First half, then the rest: no frame until all bytes land.
        peer.write_all(&framed[..6]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(conn.fill_rbuf().unwrap());
        assert!(conn.next_frame().unwrap().is_none());
        peer.write_all(&framed[6..]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(conn.fill_rbuf().unwrap());
        assert_eq!(conn.next_frame().unwrap().unwrap(), payload);
        assert!(conn.next_frame().unwrap().is_none());
    }

    #[test]
    fn pipelined_frames_come_back_in_order() {
        // Many frames arrive in one read, the last one split across two
        // reads (simulated by appending to the read buffer exactly as
        // `fill_rbuf` does); then an oversized header follows.
        let (mut conn, _peer) = conn_pair();
        let frame = |i: usize| -> Vec<u8> {
            let payload: Vec<u8> = (0..i % 97 + 1).map(|b| (b * 31 + i) as u8).collect();
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&payload);
            framed
        };
        let frames = 3000;
        let mut stream: Vec<u8> = (0..frames).flat_map(frame).collect();
        let split_at = stream.len() - 5; // inside the last frame's payload
        conn.rbuf.extend_from_slice(&stream[..split_at]);
        for i in 0..frames - 1 {
            assert_eq!(
                conn.next_frame().unwrap().unwrap(),
                frame(i)[4..],
                "frame {i}"
            );
        }
        assert!(
            conn.next_frame().unwrap().is_none(),
            "last frame is partial"
        );
        conn.rbuf.extend_from_slice(&stream[split_at..]);
        assert_eq!(conn.next_frame().unwrap().unwrap(), frame(frames - 1)[4..]);
        assert!(conn.next_frame().unwrap().is_none());
        assert!(
            conn.rbuf.is_empty() && conn.rpos == 0,
            "fully consumed buffer compacts"
        );

        // The MAX_FRAME rejection still fires behind consumed frames.
        stream = frame(7);
        stream.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        conn.rbuf.extend_from_slice(&stream);
        assert_eq!(conn.next_frame().unwrap().unwrap(), frame(7)[4..]);
        assert!(conn.next_frame().is_err());
    }

    #[test]
    fn oversized_frame_is_a_protocol_error() {
        let (mut conn, mut peer) = conn_pair();
        peer.write_all(&u32::MAX.to_be_bytes()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(conn.fill_rbuf().unwrap());
        assert!(conn.next_frame().is_err());
    }

    #[test]
    fn write_watermark_pauses_reading() {
        let (mut conn, _peer) = conn_pair();
        assert!(conn.should_read());
        conn.queue_reply(&vec![0u8; WRITE_HIGH_WATERMARK]);
        assert!(!conn.should_read(), "over-watermark wbuf pauses reads");
        assert_ne!(conn.wanted_mask() & super::super::sys::EPOLLOUT, 0);
    }
}
