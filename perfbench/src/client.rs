//! A minimal keep-alive HTTP/1.1 client for the load generator. Requests
//! are rendered to bytes before timing starts, so the timed loop only
//! writes, reads and stamps.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply: status code and body.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Renders a complete request, head and body, into one buffer.
pub fn render(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with a read timeout that turns a hung server into a
    /// failed request rather than a hung benchmark.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one pre-rendered request and reads its reply.
    ///
    /// # Errors
    ///
    /// I/O failures, timeouts and malformed replies.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0u8; length.ok_or_else(|| bad("reply without Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

/// `GET /healthz` on a fresh or existing connection, parsed.
///
/// # Errors
///
/// I/O failures, a non-200 status, or a body that is not JSON.
pub fn healthz(conn: &mut Conn) -> std::io::Result<phishinghook::json::Value> {
    let reply = conn.exchange(&render("GET", "/healthz", b""))?;
    if reply.status != 200 {
        return Err(std::io::Error::other(format!(
            "healthz status {}",
            reply.status
        )));
    }
    std::str::from_utf8(&reply.body)
        .ok()
        .and_then(phishinghook::json::parse)
        .ok_or_else(|| std::io::Error::other("healthz body is not JSON"))
}
