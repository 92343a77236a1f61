//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request at a time. `saga_server::Client` would do, but it parses
//! response heads with the server's request parser and so inherits its
//! 8 MB body cap, which a journal of a timed window exceeds.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent connection (opened lazily, reopened once when the server
/// closed it while idle).
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Conn {
    /// A connection to `addr`.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => {
                // The server drops connections idle for five seconds.
                self.stream = None;
                self.exchange(method, path, body)
            }
            other => other,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.request("GET", path, b"")
    }

    /// `POST path` with `body`.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        self.request("POST", path, body.as_bytes())
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            slot => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(60)))?;
                slot.insert(stream)
            }
        };
        let result = send(stream, method, path, body).and_then(|()| read_reply(stream));
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
    // Head and body leave in one write: with TCP_NODELAY two writes would
    // be two segments and the server would parse the head twice.
    let mut request = Vec::with_capacity(96 + body.len());
    write!(
        request,
        "{method} {path} HTTP/1.1\r\nhost: saga\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )?;
    request.extend_from_slice(body);
    stream.write_all(&request)
}

fn read_reply(stream: &mut TcpStream) -> io::Result<Reply> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        match stream.read(&mut chunk)? {
            0 => return Err(invalid("connection closed before the response head")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let (status, content_length) = parse_head(&buf[..head_end])?;
    let mut body = buf.split_off(head_end);
    body.reserve(content_length.saturating_sub(body.len()));
    while body.len() < content_length {
        match stream.read(&mut chunk)? {
            0 => return Err(invalid("connection closed mid-body")),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    Ok(Reply { status, body })
}

/// Status code and declared body length of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map_or(Ok(0), |(_, value)| value.trim().parse())
        .map_err(|_| invalid("malformed content-length"))?;
    Ok((status, content_length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parses() {
        let head = b"HTTP/1.1 202 Accepted\r\nContent-Length: 8\r\nconnection: keep-alive\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (202, 8));
        assert_eq!(
            parse_head(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap(),
            (204, 0)
        );
        assert!(parse_head(b"ICY 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n").is_err());
    }

    #[test]
    fn talks_to_an_in_process_server_past_the_stock_clients_body_cap() {
        let server = saga_server::Server::start(saga_server::ServerConfig::default()).unwrap();
        let mut conn = Conn::new(server.addr());
        assert_eq!(
            conn.post("/tenants", "name=big\ncapacity=32768\n")
                .unwrap()
                .status,
            201
        );
        // ~10 MB of journal: more than `saga_server::Client` will read.
        let body: String = (0..32_768u32)
            .map(|i| format!("{} {} 1.5\n", i, (i * 7 + 1) % 32_768))
            .collect();
        for sent in 1..=24 {
            assert_eq!(
                conn.post("/tenants/big/batches", &body).unwrap().status,
                202
            );
            while !conn
                .get("/tenants/big/status")
                .unwrap()
                .text()
                .contains(&format!("\nprocessed {sent}\n"))
            {
                std::thread::yield_now();
            }
        }
        let journal = conn.get("/tenants/big/journal").unwrap();
        assert_eq!(journal.status, 200);
        assert!(journal.body.len() > 9 << 20, "{} bytes", journal.body.len());
        assert_eq!(conn.get("/nope").unwrap().status, 404);
        server.shutdown();
    }
}
