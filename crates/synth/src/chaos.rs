//! Deterministic socket-level chaos clients for the serving daemon.
//!
//! [`faults`](crate::faults) breaks the daemon's *data*; this module
//! breaks its *clients*. A [`ChaosClient`] performs seeded hostile acts
//! against a listening TCP address — garbage requests, headers cut off
//! mid-line, disconnects before the response, slow-dripped (slowloris)
//! headers, oversized request heads, and rapid connect bursts — and
//! reports what the server did about it. The chaos matrix drives these
//! against `v6census serve` while a well-formed control client asserts
//! the daemon keeps answering consistently.
//!
//! Every byte sent derives from `(seed, salt)`, so a failing chaos run
//! reproduces bit-for-bit.

#![expect(
    clippy::let_underscore_must_use,
    reason = "a chaos client's socket I/O is best effort: the drill judges the daemon, not the client"
)]

use crate::rng::Entropy;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One species of hostile client behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosKind {
    /// Sends seeded garbage bytes (not HTTP) and reads the reply.
    Malformed,
    /// Sends a request head cut off mid-line, then half-closes.
    Truncated,
    /// Sends a well-formed request and disconnects without reading.
    Disconnect,
    /// Drips a valid header one byte at a time with pauses — the
    /// slowloris shape; a robust server answers 408 or closes.
    Slowloris {
        /// Pause between dripped bytes.
        pause: Duration,
        /// How many bytes to drip before giving up.
        bytes: usize,
    },
    /// Sends an endless header until the server caps it (431) or closes.
    Oversized {
        /// Upper bound on bytes the client will send before giving up.
        limit: usize,
    },
}

impl std::fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosKind::Malformed => write!(f, "malformed"),
            ChaosKind::Truncated => write!(f, "truncated"),
            ChaosKind::Disconnect => write!(f, "disconnect"),
            ChaosKind::Slowloris { pause, bytes } => {
                write!(f, "slowloris({bytes}B @ {}ms)", pause.as_millis())
            }
            ChaosKind::Oversized { limit } => write!(f, "oversized(≤{limit}B)"),
        }
    }
}

/// What one hostile act observed. The chaos matrix asserts on these —
/// chiefly that `status` is a controlled rejection, never a hang, and
/// that the daemon stays answerable afterwards.
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// The connection was established.
    pub connected: bool,
    /// Bytes the client managed to send.
    pub sent: usize,
    /// HTTP status parsed from the reply, when one arrived.
    pub status: Option<u16>,
    /// The server closed (or the act finished) within the client's own
    /// deadline — false means the server left the client hanging.
    pub finished: bool,
}

/// A seeded generator of hostile socket behavior.
#[derive(Clone, Copy, Debug)]
pub struct ChaosClient {
    ent: Entropy,
}

/// Reads a reply to end-of-stream (bounded) and parses the status line.
fn read_status(stream: &mut TcpStream) -> (Option<u16>, bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5_000)));
    let mut buf = Vec::with_capacity(512);
    let mut tmp = [0u8; 512];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => {
                if buf.len() < 64 * 1024 {
                    buf.extend_from_slice(&tmp[..n]);
                } // else: drain without buffering
            }
            Err(_) => return (parse_status(&buf), false),
        }
    }
    (parse_status(&buf), true)
}

fn parse_status(buf: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(buf);
    let line = text.lines().next()?;
    let code = line.split_whitespace().nth(1)?;
    code.parse().ok()
}

impl ChaosClient {
    /// Creates a client; every hostile byte derives from `seed`.
    pub const fn new(seed: u64) -> ChaosClient {
        ChaosClient {
            ent: Entropy::new(seed),
        }
    }

    /// Performs one hostile act against `addr`. `salt` differentiates
    /// repeated strikes of the same kind.
    pub fn strike(&self, addr: SocketAddr, kind: ChaosKind, salt: u64) -> ChaosOutcome {
        let mut out = ChaosOutcome::default();
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(2_000)) else {
            return out;
        };
        out.connected = true;
        let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
        let _ = stream.set_nodelay(true);
        match kind {
            ChaosKind::Malformed => {
                let mut garbage = Vec::with_capacity(64);
                for i in 0..64u64 {
                    let b = (self.ent.u64(b"chga", &[salt, i]) & 0xff) as u8;
                    // Keep newlines possible so the head can "complete"
                    // into a garbage request line.
                    garbage.push(if b == 0 { b'\n' } else { b });
                }
                garbage.extend_from_slice(b"\r\n\r\n");
                out.sent = write_some(&mut stream, &garbage);
                let (status, finished) = read_status(&mut stream);
                out.status = status;
                out.finished = finished;
            }
            ChaosKind::Truncated => {
                let cut = 3 + (self.ent.u64(b"chcu", &[salt]) % 14) as usize;
                let req = b"GET /stats HTTP/1.1\r\nHost: chaos\r\n\r\n";
                out.sent = write_some(&mut stream, &req[..cut.min(req.len())]);
                // Half-close the write side: the server sees EOF mid-head.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let (status, finished) = read_status(&mut stream);
                out.status = status;
                out.finished = finished;
            }
            ChaosKind::Disconnect => {
                out.sent = write_some(&mut stream, b"GET /stats HTTP/1.1\r\nHost: chaos\r\n\r\n");
                // Drop without reading: the server's write hits a closed
                // peer (EPIPE/ECONNRESET territory).
                drop(stream);
                out.finished = true;
            }
            ChaosKind::Slowloris { pause, bytes } => {
                let req = b"GET /stats HTTP/1.1\r\nX-Drip: ";
                let mut sent = 0usize;
                for i in 0..bytes {
                    let byte = [*req.get(i).unwrap_or(&b'a')];
                    match stream.write_all(&byte) {
                        Ok(()) => sent += 1,
                        Err(_) => break, // server gave up on us: the point
                    }
                    std::thread::sleep(pause);
                }
                out.sent = sent;
                let (status, finished) = read_status(&mut stream);
                out.status = status;
                out.finished = finished;
            }
            ChaosKind::Oversized { limit } => {
                let mut sent = write_some(&mut stream, b"GET /stats HTTP/1.1\r\n");
                let filler = [b'x'; 256];
                while sent < limit {
                    match stream.write_all(b"X-Pad: ") {
                        Ok(()) => sent += 7,
                        Err(_) => break,
                    }
                    match stream.write_all(&filler) {
                        Ok(()) => sent += filler.len(),
                        Err(_) => break,
                    }
                    match stream.write_all(b"\r\n") {
                        Ok(()) => sent += 2,
                        Err(_) => break,
                    }
                }
                out.sent = sent;
                let (status, finished) = read_status(&mut stream);
                out.status = status;
                out.finished = finished;
            }
        }
        out
    }
}

/// Writes as much of `bytes` as the peer accepts; hostile clients don't
/// care whether the write fully lands.
fn write_some(stream: &mut TcpStream, bytes: &[u8]) -> usize {
    match stream.write_all(bytes) {
        Ok(()) => {
            let _ = stream.flush();
            bytes.len()
        }
        Err(_) => 0,
    }
}

/// A minimal well-formed HTTP/1.1 GET: the control client of the chaos
/// matrix and the measurement client of the load bench. Returns the
/// status code and full body.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line in reply")
        })?;
    let body = match text.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn strikes_are_deterministic_and_bounded() {
        // A do-nothing server: accept, read a little, answer a canned
        // 400, close. Chaos outcomes against it must be stable.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..4 {
                let (mut s, _) = listener.accept().unwrap();
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                let _ = s.write_all(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n");
            }
        });
        let chaos = ChaosClient::new(11);
        let a = chaos.strike(addr, ChaosKind::Malformed, 0);
        assert!(a.connected);
        assert!(a.sent > 0);
        assert_eq!(a.status, Some(400));
        let b = chaos.strike(addr, ChaosKind::Truncated, 0);
        assert!(b.connected && b.sent >= 3 && b.sent <= 17);
        let c = chaos.strike(addr, ChaosKind::Disconnect, 0);
        assert!(c.connected && c.finished);
        let d = chaos.strike(
            addr,
            ChaosKind::Slowloris {
                pause: Duration::from_millis(1),
                bytes: 8,
            },
            0,
        );
        assert!(d.connected);
        server.join().unwrap();
    }

    #[test]
    fn http_get_parses_status_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"ok\":1}\n");
        });
        let (status, body) = http_get(addr, "/stats", Duration::from_millis(2_000)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":1}\n");
        server.join().unwrap();
        // Kind labels render.
        assert_eq!(ChaosKind::Malformed.to_string(), "malformed");
        assert!(ChaosKind::Oversized { limit: 9 }.to_string().contains("9"));
    }
}
