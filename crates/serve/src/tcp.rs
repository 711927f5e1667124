//! TCP frontend: thread-per-connection over `std::net`.
//!
//! The listener runs nonblocking with a short sleep-poll so shutdown is
//! prompt without platform-specific wakeup machinery. Each accepted
//! connection gets a handler thread that reads request frames
//! ([`crate::wire`]), submits jobs through the in-process
//! [`Client`] — so TCP requests mix into the same admission queue and
//! buckets as in-process ones — and writes one response frame per
//! request, in order. `"stats"` and `"metrics"` queries are answered
//! inline without touching the queue.

use crate::binwire;
use crate::server::Client;
use crate::wire;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Accept-loop poll interval (shutdown latency upper bound).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A running TCP frontend bound to one listener.
pub struct TcpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl TcpServer {
    /// Bind and start accepting. Pass `"127.0.0.1:0"` to let the OS
    /// pick a free port (read it back with [`TcpServer::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, client: Client) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("egemm-serve-tcp".into())
            .spawn(move || accept_loop(&listener, &client, &stop_accept))
            .expect("spawn tcp accept loop");
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, then join every connection handler (each exits
    /// when its peer disconnects — clients should close their sockets
    /// before the frontend is shut down; requests already submitted by
    /// handlers are answered by the [`crate::Server`]'s own drain).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            if let Ok(handlers) = h.join() {
                for handler in handlers {
                    let _ = handler.join();
                }
            }
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, client: &Client, stop: &AtomicBool) -> Vec<JoinHandle<()>> {
    let mut handlers = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let client = client.clone();
                let h = std::thread::Builder::new()
                    .name("egemm-serve-conn".into())
                    .spawn(move || handle_connection(stream, &client))
                    .expect("spawn connection handler");
                handlers.push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    handlers
}

/// Serve one connection until EOF or an I/O error. Protocol errors
/// (undecodable frames) are answered in-band and the connection stays
/// up; only transport failures end the session. Both codecs are
/// accepted, negotiated per frame by leading byte (see
/// [`crate::binwire`]); the reply always uses the request's codec.
fn handle_connection(stream: TcpStream, client: &Client) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    client.counters().open_connections.add(1);
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    // The loop ends on EOF (`Ok(None)`) or a transport failure.
    while let Ok(Some(payload)) = wire::read_frame(&mut reader) {
        let binary = binwire::is_binary(&payload);
        let decoded = if binary {
            binwire::decode_request(&payload)
        } else {
            wire::decode_request(&payload)
        };
        let reply: Vec<u8> = match decoded {
            Ok(wire::WireRequest::Stats { id }) => {
                let stats = client.stats();
                if binary {
                    binwire::encode_text_response(id, &stats.to_json())
                } else {
                    wire::encode_stats_response(id, &stats).into_bytes()
                }
            }
            Ok(wire::WireRequest::Metrics { id }) => {
                let text = client.metrics_text();
                if binary {
                    binwire::encode_text_response(id, &text)
                } else {
                    wire::encode_metrics_response(id, &text).into_bytes()
                }
            }
            Ok(wire::WireRequest::Job { id, req }) => {
                // Blocking call: one in-flight request per connection,
                // responses naturally in request order. Concurrency is
                // per-connection by design (thread per connection).
                let result = client.call(req);
                if binary {
                    binwire::encode_response(id, &result)
                } else {
                    wire::encode_response(id, &result).into_bytes()
                }
            }
            Err(msg) => {
                let e = crate::ServeError::Invalid(msg);
                if binary {
                    binwire::encode_error(0, &e)
                } else {
                    wire::encode_error(0, &e).into_bytes()
                }
            }
        };
        if wire::write_frame(&mut writer, &reply).is_err() {
            break;
        }
    }
    client.counters().open_connections.add(-1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::GemmRequest;
    use crate::server::{Server, ServerConfig};
    use egemm::{Egemm, TilingConfig};
    use egemm_matrix::Matrix;
    use egemm_tcsim::DeviceSpec;

    #[test]
    fn tcp_roundtrip_and_stats() {
        let server = Server::start(
            Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER),
            ServerConfig::default(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", server.client()).expect("bind");
        let addr = tcp.local_addr();

        let mut conn = TcpStream::connect(addr).expect("connect");
        let a = Matrix::<f32>::random_uniform(8, 8, 11);
        let b = Matrix::<f32>::random_uniform(8, 8, 12);
        let req = GemmRequest::gemm(a.clone(), b.clone());
        wire::write_frame(&mut conn, wire::encode_request(1, &req).as_bytes()).unwrap();
        let frame = wire::read_frame(&mut conn).unwrap().expect("response");
        let resp = wire::decode_response(&frame).unwrap();
        assert_eq!(resp.id, 1);
        let out = resp.result.expect("served");
        let direct = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).gemm(&a, &b);
        assert_eq!(
            out.d.as_slice(),
            direct.d.as_slice(),
            "bit identity over TCP"
        );

        // Garbage frame: answered in-band, connection survives.
        wire::write_frame(&mut conn, b"this is not json").unwrap();
        let frame = wire::read_frame(&mut conn)
            .unwrap()
            .expect("error response");
        let resp = wire::decode_response(&frame).unwrap();
        assert!(matches!(resp.result, Err(crate::ServeError::Invalid(_))));

        // Metrics scrape on the same connection: the exposition carries
        // the serve counters the GEMM above just bumped.
        wire::write_frame(&mut conn, wire::encode_metrics_request(3).as_bytes()).unwrap();
        let frame = wire::read_frame(&mut conn)
            .unwrap()
            .expect("metrics response");
        let v = wire::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(wire::Value::as_bool), Some(true));
        let text = v
            .get("metrics")
            .and_then(wire::Value::as_str)
            .expect("metrics text");
        assert!(
            text.contains("egemm_serve_requests_total"),
            "exposition should list serve counters:\n{text}"
        );
        assert!(text.contains("egemm_serve_completed_total"));

        // Stats query still works on the same connection.
        wire::write_frame(&mut conn, wire::encode_stats_request(2).as_bytes()).unwrap();
        let frame = wire::read_frame(&mut conn)
            .unwrap()
            .expect("stats response");
        let v = wire::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(wire::Value::as_bool), Some(true));
        let completed = v
            .get("stats")
            .and_then(|s| s.get("completed"))
            .and_then(wire::Value::as_usize);
        assert_eq!(completed, Some(1));

        drop(conn);
        tcp.shutdown();
        server.shutdown();
    }
}
