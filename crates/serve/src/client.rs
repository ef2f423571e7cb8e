//! A minimal HTTP/1.1 client: the loadgen smoke client and the serve
//! latency bench drive a running [`Server`](crate::Server) through a
//! keep-alive [`Client`]; the serve tests and the chaos bench send
//! one-shot requests through [`round_trip`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one request on a fresh connection that asks the server to close
/// it after answering, and reads the whole response: its status code,
/// head and body. `headers` holds extra header lines, each ending in
/// `\r\n`.
///
/// # Errors
/// Connection and I/O errors (30 s read timeout), and a response without a
/// head/body separator or a parsable status line.
pub fn round_trip(addr: SocketAddr, method: &str, path: &str, body: &str, headers: &str) -> io::Result<(u16, String, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    // One write per request (`write!` would issue one per format piece),
    // so a read-fault schedule sees the same server reads on every run.
    let request = format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n{body}", body.len());
    s.write_all(request.as_bytes())?;
    let mut out = String::new();
    s.read_to_string(&mut out)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what} in {out:?}"));
    let (head, body) = out.split_once("\r\n\r\n").ok_or_else(|| bad("no head/body separator"))?;
    let status = head.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad status line"))?;
    Ok((status, head.to_string(), body.to_string()))
}

/// One keep-alive client connection with its own read buffer, so bytes of
/// the next pipelined response are never lost between round-trips.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with Nagle off and a 30 s read timeout.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream, buf: Vec::new() })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Sends one request and reads one `Content-Length`-framed response:
    /// its status code and body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: desalign\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.flush()?;

        let header_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad status line in {head:?}")))?;
        let content_length: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(|v| v.trim().to_string()))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < header_end + content_length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[header_end..header_end + content_length]).into_owned();
        self.buf.drain(..header_end + content_length);
        Ok((status, body))
    }
}
