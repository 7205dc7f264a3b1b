//! A minimal HTTP client for the serving daemon: the control client of
//! the serve chaos drills and the measurement client of the load bench
//! and the benchmark.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A minimal well-formed HTTP/1.1 GET. Returns the status code and the
/// full body.
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
    #![expect(
        clippy::let_underscore_must_use,
        reason = "the canned server's socket I/O is best effort"
    )]
    use super::*;
    use std::net::TcpListener;

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
    }
}
