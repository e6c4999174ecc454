//! A deliberately small HTTP/1.1 server layer over `std::net`.
//!
//! The build is offline, so there is no tokio/hyper: requests are parsed
//! from a blocking [`TcpStream`] with hard caps on header and body size.
//! By default every connection serves exactly one request
//! (`Connection: close`); a daemon configured with a keep-alive budget may
//! honour `Connection: keep-alive` for a bounded number of requests per
//! connection — the parser surfaces the client's wish in
//! [`Request::keep_alive`], the daemon decides. That is all a loopback
//! control plane needs, and the small surface keeps the redaction review
//! tractable — responses are assembled only from static codes,
//! server-generated ids, and public release metadata.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled peer cannot pin a handler
/// thread forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target, query string stripped.
    pub path: String,
    /// Raw query string (bytes after the first `?`, empty when absent).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: keep-alive`. Advisory:
    /// the daemon caps requests per connection and closes when the budget
    /// is spent (or keep-alive is not enabled at all).
    pub keep_alive: bool,
}

impl Request {
    /// Whether the query string contains `key=value` as one `&`-separated
    /// component (exact match — no percent-decoding on this control
    /// plane).
    pub fn query_flag(&self, key: &str, value: &str) -> bool {
        self.query
            .split('&')
            .any(|pair| pair.split_once('=').is_some_and(|(k, v)| k == key && v == value))
    }
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Malformed request line, header, or length field.
    Malformed,
    /// The declared body exceeds `max_body`.
    TooLarge,
    /// The connection died or timed out mid-request.
    Io,
}

/// Reads one request from the stream.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, ReadError> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);

    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    read_head_line(&mut reader, &mut line, &mut budget)?;
    let mut parts = line.trim_end().split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || !target.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut keep_alive = false;
    loop {
        line.clear();
        read_head_line(&mut reader, &mut line, &mut budget)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ReadError::Malformed);
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.trim().parse().map_err(|_| ReadError::Malformed)?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
    }
    if content_length > max_body {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| ReadError::Io)?;
    Ok(Request { method, path, query, body, keep_alive })
}

/// Reads one newline-terminated head line, charging every byte against
/// `budget` as it arrives. The cap is enforced *while* reading, not after:
/// a peer streaming a newline-free line is cut off at the cap instead of
/// growing the buffer until a newline shows up.
fn read_head_line(
    reader: &mut BufReader<&mut TcpStream>,
    line: &mut String,
    budget: &mut usize,
) -> Result<(), ReadError> {
    let mut bytes = Vec::new();
    loop {
        if *budget == 0 {
            return Err(ReadError::TooLarge);
        }
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err(ReadError::Io),
            Ok(_) => {
                *budget -= 1;
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
            }
            Err(_) => return Err(ReadError::Io),
        }
    }
    line.push_str(std::str::from_utf8(&bytes).map_err(|_| ReadError::Malformed)?);
    Ok(())
}

/// A response under assembly.
#[derive(Debug)]
pub struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            headers: vec![("Content-Type", "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (Prometheus exposition, JSONL traces).
    pub fn text(status: u16, reason: &'static str, body: String) -> Self {
        Response {
            status,
            reason,
            headers: vec![("Content-Type", "text/plain; charset=utf-8".to_string())],
            body: body.into_bytes(),
        }
    }

    /// Adds a header (e.g. `Retry-After` on backpressure).
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// The status code (for tests and logging).
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serializes the response to the stream, announcing whether the
    /// daemon will close the connection afterwards. Head and body go out in
    /// one write: a body sent as a second small segment would wait on the
    /// peer's delayed ACK (Nagle's algorithm), about 40 ms per keep-alive
    /// response. Errors are swallowed: the peer hanging up mid-response is
    /// its problem, not the daemon's.
    pub fn write_to(self, stream: &mut TcpStream, close: bool) {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if close { "Connection: close\r\n\r\n" } else { "Connection: keep-alive\r\n\r\n" });
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        let _ = stream.write_all(&out).and_then(|()| stream.flush());
    }
}

/// An in-progress `Transfer-Encoding: chunked` response — the streaming
/// counterpart of [`Response`], used by the live trace endpoint. The
/// response head goes out when the writer is created; each
/// [`write_chunk`](ChunkedWriter::write_chunk) flushes one chunk so a
/// tailing client sees lines as they happen. Streaming responses always
/// end with `Connection: close`: a stream of unknown length cannot share
/// a keep-alive connection without the peer trusting our framing forever.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    alive: bool,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &'static str,
        content_type: &str,
    ) -> Self {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        let alive = stream.write_all(head.as_bytes()).and_then(|()| stream.flush()).is_ok();
        ChunkedWriter { stream, alive }
    }

    /// Sends one chunk (no-op for empty `data` — an empty chunk would
    /// terminate the stream). Returns whether the peer is still there;
    /// once false, the writer stays dead and the caller should stop
    /// producing.
    pub fn write_chunk(&mut self, data: &[u8]) -> bool {
        if !self.alive || data.is_empty() {
            return self.alive;
        }
        // Size line, data and CRLF in one write, for the reason given at
        // `Response::write_to`.
        let mut frame = format!("{:x}\r\n", data.len()).into_bytes();
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.alive = self.stream.write_all(&frame).and_then(|()| self.stream.flush()).is_ok();
        self.alive
    }

    /// Sends the zero-length terminating chunk.
    pub fn finish(mut self) {
        if self.alive {
            self.alive = self.stream.write_all(b"0\r\n\r\n").and_then(|()| self.stream.flush()).is_ok();
        }
    }
}

/// Escapes a string for inclusion in a JSON body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.flush().unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive, "no Connection header means close");
    }

    #[test]
    fn connection_header_drives_the_keep_alive_flag() {
        let req =
            round_trip(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        let req =
            round_trip(b"GET /healthz HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive, "header value is case-insensitive");
        let req = round_trip(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert_eq!(round_trip(b"NOT-HTTP\r\n\r\n").unwrap_err(), ReadError::Malformed);
        assert_eq!(
            round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: fifty\r\n\r\n").unwrap_err(),
            ReadError::Malformed
        );
        assert_eq!(
            round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err(),
            ReadError::TooLarge
        );
    }

    #[test]
    fn newline_free_floods_are_cut_off_at_the_head_cap() {
        // No newline ever arrives: the cap must fire while reading, with
        // memory bounded by MAX_HEAD_BYTES, not after a line completes.
        let flood = vec![b'A'; MAX_HEAD_BYTES + 1024];
        assert_eq!(round_trip(&flood).unwrap_err(), ReadError::TooLarge);
        // A header line that never ends is cut off the same way.
        let mut raw = b"POST /jobs HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat(b'x').take(MAX_HEAD_BYTES + 1024));
        assert_eq!(round_trip(&raw).unwrap_err(), ReadError::TooLarge);
    }

    #[test]
    fn json_escaping_covers_the_control_set() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
