//! A deliberately small HTTP/1.1 layer for `julie serve`: blocking reads,
//! `Content-Length` bodies, chunked responses for the streaming wait
//! endpoint. No keep-alive — every request gets `Connection: close`, which
//! keeps the connection lifecycle identical to the job-cancellation story
//! (a dropped socket is a dropped client).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body — nets are text, 16 MiB is generous.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Most unread input [`linger_close`] discards.
const LINGER_BYTES: usize = 1024 * 1024;
/// Longest [`linger_close`] waits for the client's remaining input.
const LINGER_TIME: Duration = Duration::from_secs(1);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads and parses one request from the stream. Returns `Ok(None)` on a
/// clean EOF before any bytes (client connected and went away).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // request line + headers, CRLF-terminated, bounded: each line is read
    // through the head's remaining allowance, so a client that never sends
    // a newline cannot make the server buffer without limit
    loop {
        let line_start = head.len();
        let allowance = (MAX_HEAD_BYTES + 1 - head.len()) as u64;
        let n = (&mut reader).take(allowance).read_until(b'\n', &mut head)?;
        if n == 0 {
            return if head.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            };
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if matches!(&head[line_start..], b"\r\n" | b"\n") {
            break;
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request head is not UTF-8"))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    for h in lines {
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, body }))
}

/// Closes a connection whose request was refused before it was read in
/// full. Closing a socket with unread input resets the connection, which
/// can discard the response before the client reads it; so this sends
/// the end of the response and discards the client's remaining input,
/// bounded in bytes and time, first.
pub fn linger_close(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIME;
    let mut buf = [0u8; 8192];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// The standard reason phrase for the handful of statuses serve uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete JSON response (with optional extra headers, e.g.
/// `Retry-After`) and flushes.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &Json,
) -> io::Result<()> {
    let payload = body.render();
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        payload.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// A chunked-transfer response writer for the streaming wait endpoint:
/// each [`ChunkedWriter::send`] is one chunk (a JSON line); the client
/// sees status updates as they happen. A write error means the client
/// disconnected — the caller turns that into a job cancellation.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Sends the response head and returns the writer.
    pub fn start(stream: &'a mut TcpStream, status: u16) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one line of payload as a chunk.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let data = format!("{line}\n");
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
