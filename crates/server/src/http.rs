//! A minimal, total HTTP/1.1 layer over `std::net`.
//!
//! Only what the tenant API needs: request heads with `Content-Length`
//! bodies, keep-alive, and plain-text responses. The head parser
//! ([`parse_request`]) is **total**: any byte sequence either yields a
//! request, reports "incomplete, read more", or fails with an
//! [`HttpError`] carrying the 4xx/5xx status to answer with — it never
//! panics and never loops unboundedly (work is linear in the buffer, and
//! the buffer itself is capped by [`Limits`]). `saga-server`'s connection
//! loop leans on that contract to turn arbitrary network garbage into a
//! `400 Bad Request` instead of a wedged worker; the totality property is
//! pinned by seeded byte-soup cases in `tests/seeded_http.rs`, the same
//! pattern the `saga-analyze` lexer uses.

use std::io::{Read, Write};

/// Hard limits the parser and reader enforce, so one client cannot pin a
/// worker or balloon memory.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request head (start line + headers). Exceeding it
    /// fails with `431`.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` accepted. Exceeding it fails with `413`.
    pub max_body_bytes: usize,
    /// Maximum number of header lines. Exceeding it fails with `431`.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            max_headers: 64,
        }
    }
}

/// A failed request: the HTTP status to answer with plus a short reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpError {
    /// Response status (4xx for malformed input, 5xx for unsupported).
    pub status: u16,
    /// Human-readable reason, safe to echo in the response body.
    pub reason: &'static str,
}

impl HttpError {
    fn bad(reason: &'static str) -> Self {
        Self {
            status: 400,
            reason,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.reason)
    }
}

/// One parsed request (head plus fully-read body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Query component (after `?`, may be empty).
    pub query: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Head-parse outcome: the bytes may not hold a full head yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// No terminating blank line in the buffer yet — read more bytes.
    Incomplete,
    /// A complete head: the request (body still empty) plus the number of
    /// buffer bytes consumed (start line through terminating blank line)
    /// and the declared `Content-Length`.
    Head {
        /// The parsed request, body not yet attached.
        request: Request,
        /// Bytes of `buf` the head consumed.
        consumed: usize,
        /// Declared body length (0 when absent).
        content_length: usize,
    },
}

/// Finds the end of the head: the first `\r\n\r\n` (or the lenient bare
/// `\n\n`), returning the index one past it.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// True for the characters RFC 9110 allows in a token (method, header
/// name).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parses a request head out of `buf`. Total: every input yields
/// [`Parsed::Incomplete`], a head, or an [`HttpError`] — see the module
/// docs. The caller attaches the body afterwards.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed, HttpError> {
    let end = match head_end(buf) {
        Some(end) => end,
        None => {
            return if buf.len() > limits.max_head_bytes {
                Err(HttpError {
                    status: 431,
                    reason: "request head too large",
                })
            } else {
                Ok(Parsed::Incomplete)
            };
        }
    };
    if end > limits.max_head_bytes {
        return Err(HttpError {
            status: 431,
            reason: "request head too large",
        });
    }
    let head = std::str::from_utf8(&buf[..end])
        .map_err(|_| HttpError::bad("request head is not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let start = lines.next().ok_or_else(|| HttpError::bad("empty head"))?;

    // Start line: METHOD SP target SP HTTP/1.x — exactly three fields.
    let mut parts = start.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or_else(|| HttpError::bad("missing method"))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::bad("malformed start line"));
    }
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(HttpError::bad("malformed method token"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => {
            return Err(HttpError {
                status: 505,
                reason: "HTTP version not supported",
            })
        }
        _ => return Err(HttpError::bad("malformed HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(HttpError::bad("request target must be absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    // Header lines until the blank terminator.
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError {
                status: 431,
                reason: "too many headers",
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad("header line without colon"))?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::bad("malformed header name"));
        }
        let value = value.trim();
        if value.bytes().any(|b| b < 0x20 && b != b'\t') {
            return Err(HttpError::bad("control byte in header value"));
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    let mut content_length = 0usize;
    let mut seen_length: Option<&str> = None;
    for (name, value) in &headers {
        match name.as_str() {
            "content-length" => {
                if seen_length.is_some_and(|prev| prev != value) {
                    return Err(HttpError::bad("conflicting Content-Length headers"));
                }
                seen_length = Some(value);
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::bad("malformed Content-Length"))?;
            }
            "transfer-encoding" => {
                return Err(HttpError {
                    status: 501,
                    reason: "Transfer-Encoding not supported",
                })
            }
            _ => {}
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError {
            status: 413,
            reason: "request body too large",
        });
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    Ok(Parsed::Head {
        request: Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers,
            body: Vec::new(),
            keep_alive,
        },
        consumed: end,
        content_length,
    })
}

/// One connection's read state: a byte buffer that requests are parsed
/// out of as they complete.
#[derive(Debug)]
pub struct Conn<S> {
    stream: S,
    buf: Vec<u8>,
    limits: Limits,
}

/// Why [`Conn::next_request`] did not return a request.
#[derive(Debug)]
pub enum ConnError {
    /// The peer closed (or timed out) before a full request arrived;
    /// nothing to answer.
    Closed,
    /// Malformed request — answer with the error's status, then close.
    Bad(HttpError),
    /// Transport error.
    Io(std::io::Error),
}

impl<S: Read> Conn<S> {
    /// Wraps a stream (typically a `TcpStream` with a read timeout set).
    pub fn new(stream: S, limits: Limits) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            limits,
        }
    }

    /// The underlying stream (for writing the response).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads until one full request (head + declared body) is available
    /// and returns it. `Err(Closed)` on clean EOF between requests.
    pub fn next_request(&mut self) -> Result<Request, ConnError> {
        let mut chunk = [0u8; 4096];
        loop {
            match parse_request(&self.buf, &self.limits).map_err(ConnError::Bad)? {
                Parsed::Head {
                    mut request,
                    consumed,
                    content_length,
                } => {
                    while self.buf.len() < consumed + content_length {
                        let n = self.read_chunk(&mut chunk)?;
                        if n == 0 {
                            return Err(ConnError::Bad(HttpError::bad(
                                "connection closed mid-body",
                            )));
                        }
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                    request.body = self.buf[consumed..consumed + content_length].to_vec();
                    self.buf.drain(..consumed + content_length);
                    return Ok(request);
                }
                Parsed::Incomplete => {
                    let n = self.read_chunk(&mut chunk)?;
                    if n == 0 {
                        return if self.buf.iter().all(|&b| b == b'\r' || b == b'\n') {
                            Err(ConnError::Closed)
                        } else {
                            Err(ConnError::Bad(HttpError::bad("truncated request head")))
                        };
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    fn read_chunk(&mut self, chunk: &mut [u8]) -> Result<usize, ConnError> {
        match self.stream.read(chunk) {
            Ok(n) => Ok(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // A read timeout mid-request means the client stalled; the
                // caller closes rather than waiting forever.
                Err(ConnError::Closed)
            }
            Err(e) => Err(ConnError::Io(e)),
        }
    }
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the defaults (`Content-Length`,
    /// `Content-Type`, `Connection`).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// The canonical reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Serializes the response, with `Connection: close` unless
    /// `keep_alive`.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: text/plain; charset=utf-8\r\nconnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(input: &str) -> Request {
        match parse_request(input.as_bytes(), &Limits::default()).unwrap() {
            Parsed::Head { request, .. } => request,
            Parsed::Incomplete => panic!("incomplete: {input:?}"),
        }
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse_ok("GET /tenants/t1/status?full=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/tenants/t1/status");
        assert_eq!(r.query, "full=1");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn content_length_and_consumed_are_reported() {
        let input = b"POST /t HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        match parse_request(input, &Limits::default()).unwrap() {
            Parsed::Head {
                consumed,
                content_length,
                ..
            } => {
                assert_eq!(content_length, 5);
                assert_eq!(&input[consumed..consumed + 5], b"hello");
            }
            Parsed::Incomplete => panic!("incomplete"),
        }
    }

    #[test]
    fn incomplete_heads_ask_for_more() {
        for input in ["", "GET", "GET / HTTP/1.1\r\nHost: x\r\n"] {
            assert_eq!(
                parse_request(input.as_bytes(), &Limits::default()).unwrap(),
                Parsed::Incomplete,
                "{input:?}"
            );
        }
    }

    #[test]
    fn malformed_heads_get_4xx() {
        for (input, status) in [
            ("garbage\r\n\r\n", 400),
            ("GET /\r\n\r\n", 400),
            ("GET / HTTP/1.1 extra\r\n\r\n", 400),
            ("G@T / HTTP/1.1\r\n\r\n", 400),
            ("GET relative HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("GET / HTTQ\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\n: empty-name\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\ncontent-length: ten\r\n\r\n", 400),
            (
                "POST / HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 4\r\n\r\n",
                400,
            ),
            (
                "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                501,
            ),
        ] {
            match parse_request(input.as_bytes(), &Limits::default()) {
                Err(e) => assert_eq!(e.status, status, "{input:?}"),
                Ok(p) => panic!("{input:?} parsed as {p:?}"),
            }
        }
    }

    #[test]
    fn limits_are_enforced() {
        let limits = Limits {
            max_head_bytes: 32,
            max_body_bytes: 8,
            max_headers: 2,
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert_eq!(
            parse_request(long.as_bytes(), &limits).unwrap_err().status,
            431
        );
        // Over the head limit without a terminator yet: also 431, not an
        // unbounded buffer.
        let unterminated = "x".repeat(64);
        assert_eq!(
            parse_request(unterminated.as_bytes(), &limits)
                .unwrap_err()
                .status,
            431
        );
        let big_body = b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n";
        assert_eq!(
            parse_request(
                big_body,
                &Limits {
                    max_head_bytes: 1024,
                    max_headers: 8,
                    ..limits
                }
            )
            .unwrap_err()
            .status,
            413
        );
        let many = "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert_eq!(
            parse_request(
                many.as_bytes(),
                &Limits {
                    max_head_bytes: 1024,
                    max_body_bytes: 8,
                    max_headers: 2
                }
            )
            .unwrap_err()
            .status,
            431
        );
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let r = parse_ok("GET /x HTTP/1.1\nhost: y\n\n");
        assert_eq!(r.path, "/x");
        assert_eq!(r.header("host"), Some("y"));
    }

    #[test]
    fn connection_header_overrides_defaults() {
        assert!(!parse_ok("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(parse_ok("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(!parse_ok("GET / HTTP/1.0\r\n\r\n").keep_alive);
    }

    #[test]
    fn conn_reads_pipelined_requests_from_one_buffer() {
        let bytes: &[u8] =
            b"POST /a HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let mut conn = Conn::new(bytes, Limits::default());
        let a = conn.next_request().unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", b"hi".as_slice()));
        let b = conn.next_request().unwrap();
        assert_eq!(b.path, "/b");
        assert!(matches!(conn.next_request(), Err(ConnError::Closed)));
    }

    #[test]
    fn truncated_body_is_a_bad_request_not_a_hang() {
        let bytes: &[u8] = b"POST /a HTTP/1.1\r\ncontent-length: 10\r\n\r\nhi";
        let mut conn = Conn::new(bytes, Limits::default());
        match conn.next_request() {
            Err(ConnError::Bad(e)) => assert_eq!(e.status, 400),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        Response::text(429, "queue full\n")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nqueue full\n"), "{text}");
    }
}
