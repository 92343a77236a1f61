//! Totality property tests for the HTTP/1.1 request parser: arbitrary
//! byte soup must never panic, and over a real socket a malformed request
//! must get a 4xx/5xx status line and a closed connection — never a hung
//! one.

use saga_server::http::{parse_request, Limits, Parsed};
use saga_server::server::{Server, ServerConfig};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

/// Up to `max` arbitrary bytes.
fn bytes(rng: &mut Xoshiro256PlusPlus, max: usize) -> Vec<u8> {
    rng.vec(0, max, |rng| rng.next_u64() as u8)
}

/// Arbitrary bytes, occasionally long enough to cross the head limit.
fn byte_soup(rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    bytes(rng, 511)
}

/// Fragments biased toward HTTP grammar trouble: half-valid start lines,
/// header separators, stray control bytes, conflicting lengths.
const FRAGMENTS: [&[u8]; 16] = [
    b"GET / HTTP/1.1\r\n",
    b"GET  /two-spaces HTTP/1.1\r\n",
    b"POST /tenants HTTP/2.0\r\n",
    b"get / http/1.1\r\n",
    b"GET noslash HTTP/1.1\r\n",
    b"content-length: 5\r\n",
    b"content-length: 7\r\n",
    b"content-length: banana\r\n",
    b"transfer-encoding: chunked\r\n",
    b"connection: keep-alive\r\n",
    b": no-name\r\n",
    b"no-colon\r\n",
    b"\r\n",
    b"\n",
    b"\x00\x01\x02",
    b"\xff\xfe",
];

/// Up to 11 fragments, each from the list above or a short byte run.
fn http_ish(rng: &mut Xoshiro256PlusPlus) -> Vec<u8> {
    rng.vec(0, 11, |rng| match rng.range(0, FRAGMENTS.len()) {
        i if i < FRAGMENTS.len() => FRAGMENTS[i].to_vec(),
        _ => bytes(rng, 15),
    })
    .concat()
}

/// Raw totality: any input yields Incomplete, a head, or an error whose
/// status is a well-formed 4xx/5xx — never a panic.
#[test]
fn parser_is_total_on_byte_soup() {
    for_each_seed(SEEDS, |rng| check_total(&byte_soup(rng)));
}

/// Same, on inputs shaped like broken HTTP.
#[test]
fn parser_is_total_on_http_ish_soup() {
    for_each_seed(SEEDS, |rng| check_total(&http_ish(rng)));
}

/// Adding bytes to an incomplete head never flips it to a *different*
/// error class arbitrarily: a prefix that already parsed to a head keeps
/// parsing to the same head (incremental reads are how `Conn` feeds this
/// parser).
#[test]
fn complete_heads_are_stable_under_suffixes() {
    let mut heads = 0;
    for_each_seed(SEEDS, |rng| {
        let (buf, extra) = (http_ish(rng), byte_soup(rng));
        let limits = Limits::default();
        if let Ok(Parsed::Head { request, consumed, content_length }) =
            parse_request(&buf, &limits)
        {
            heads += 1;
            let mut longer = buf.clone();
            longer.extend_from_slice(&extra);
            match parse_request(&longer, &limits) {
                Ok(Parsed::Head { request: r2, consumed: c2, content_length: l2 }) => {
                    assert_eq!(request, r2);
                    assert_eq!(consumed, c2);
                    assert_eq!(content_length, l2);
                }
                other => panic!("head became {other:?} after suffix"),
            }
        }
    });
    assert!(heads > 0, "no generated input parsed to a complete head");
}

fn check_total(buf: &[u8]) {
    let limits = Limits::default();
    match parse_request(buf, &limits) {
        Ok(Parsed::Incomplete) | Ok(Parsed::Head { .. }) => {}
        Err(e) => {
            assert!(
                (400..=599).contains(&e.status),
                "error status {} out of range",
                e.status
            );
        }
    }
}

/// The socket-level half of the satellite: every malformed request sent
/// to a live server gets a status line back and the connection closes.
/// A fixed adversarial corpus rather than seeded cases here — each case
/// costs a real TCP round trip.
#[test]
fn malformed_requests_get_4xx_not_a_hang() {
    let server = Server::start(ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("bind");
    let cases: &[&[u8]] = &[
        b"\x01\x02\x03\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/3.0\r\n\r\n",
        b"G\x00T / HTTP/1.1\r\n\r\n",
        b"GET noslash HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
        b"GET / HTTP/1.1\r\ncontent-length: zebra\r\n\r\n",
        b"GET / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\n",
        b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        b"POST /t HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n",
        b"\xff\xfe\xfd\n\n",
    ];
    for (i, case) in cases.iter().enumerate() {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(case).expect("send");
        let mut out = Vec::new();
        // read_to_end returning proves the server closed the connection —
        // the "no hung connection" half of the property. The 10s client
        // timeout (vs the server's 500ms) turns a hang into a test error.
        stream.read_to_end(&mut out).expect("server closed cleanly");
        let text = String::from_utf8_lossy(&out);
        assert!(
            text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5"),
            "case {i}: expected 4xx/5xx, got {text:?}"
        );
    }
    // An unterminated head (no blank line at all) must also resolve via
    // the read timeout rather than waiting forever.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"GET / HTTP/1.1\r\nhalf-a-head").expect("send");
    let mut out = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_end(&mut out).expect("server closed after timeout");
    server.shutdown();
}
