//! A hand-rolled HTTP/1.1 subset over `std::net`.
//!
//! The workspace vendors its few dependencies as std-only subsets, so
//! the daemon speaks exactly the slice of HTTP/1.1 it needs: request
//! line + headers + `Content-Length` bodies in, fixed-length responses
//! with keep-alive out. No chunked transfer, no TLS, no HTTP/2 — a
//! reverse proxy owns those concerns in any real deployment.
//!
//! One resumable parser per direction: the reactor feeds socket bytes
//! to a [`RequestParser`], and clients read responses with a
//! [`ResponseParser`] — directly when they multiplex sockets, through
//! the blocking [`read_response`] otherwise.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request/status line plus headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request head plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without the `?`), empty if none.
    pub query: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open.
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// A response about to be written (or, on the client side, just read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error response in the daemon's one error envelope, its
    /// [`crate::api::ApiError`] code inferred from the status. Used
    /// wherever the status alone names the failure: malformed HTTP,
    /// unknown routes, wrong verbs, most refusals. An error with another
    /// code or a backoff hint builds its `ApiError` and goes through
    /// [`crate::api::ApiVersion::error_response`].
    pub fn error(status: u16, message: &str) -> Response {
        let err = crate::api::ApiError::for_status(status, message);
        crate::api::ApiVersion::V2.error_response(status, &err)
    }

    /// A binary response (`application/octet-stream`) with the given
    /// status — the shard-to-shard trace wire format.
    pub fn octet(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/octet-stream".into())],
            body,
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// First value of a header, by lower-case name (client side).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The canonical reason phrase for the codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response to its exact wire bytes, marking the
/// connection keep-alive or close. Head and body share one buffer: two
/// small writes on a Nagle-enabled socket stall the second behind the
/// peer's delayed ACK, turning a microsecond handler into a
/// tens-of-ms request.
pub fn response_bytes(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut wire = Vec::with_capacity(head.len() + response.body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(&response.body);
    wire
}

/// Client side: a request's exact wire bytes, with an optional JSON
/// body, sent as given. Head and body share one buffer for the same
/// delayed-ACK reason as [`response_bytes`]; the load generator sends
/// these bytes as they are, so its requests and [`write_request`]'s
/// cannot drift apart.
pub fn request_bytes(method: &str, target: &str, body: Option<&[u8]>) -> Vec<u8> {
    let body = body.unwrap_or_default();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: sparseadapt-serve\r\ncontent-length: {}\r\n{}\r\n",
        body.len(),
        if body.is_empty() {
            ""
        } else {
            "content-type: application/json\r\n"
        },
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    wire
}

/// Client side: writes a request with an optional JSON body.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> io::Result<()> {
    stream.write_all(&request_bytes(method, target, body))?;
    stream.flush()
}

/// Client side: reads one response off the connection, blocking until
/// it is complete.
///
/// # Errors
///
/// Propagates socket errors (read timeouts included); malformed
/// responses surface as `InvalidData`, a connection closed before the
/// response completed as `UnexpectedEof`.
pub fn read_response(stream: &TcpStream) -> io::Result<Response> {
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(response) = parser.next_response()? {
            return Ok(response);
        }
        let n = match (&*stream).read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        parser.feed(&buf[..n]);
    }
}

// ---------------------------------------------------------------------------
// Resumable parsing
// ---------------------------------------------------------------------------

/// Outcome of one [`RequestParser::next_request`] attempt.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes buffered yet; feed more and try again.
    Incomplete,
    /// One complete request, consumed from the buffer.
    Request(Box<Request>),
    /// The buffered bytes can never form an acceptable request; the
    /// given response should be written and the connection closed.
    Malformed(Response),
}

/// Finds the end of the head section (the blank line) in `buf`.
/// Returns `(head_len, body_start)`: the head's byte length excluding
/// its final line terminator, and the offset where the body begins.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        // A newline followed by an (optionally CR-prefixed) newline
        // terminates the head.
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some((i, i + 3));
        }
        if buf.get(i + 1) == Some(&b'\n') {
            return Some((i, i + 2));
        }
        i += 1;
    }
    None
}

/// The head was over [`MAX_HEAD_BYTES`].
struct HeadTooLarge;

/// [`find_head_end`] under the head limit, applied alike whether or not
/// the head has fully arrived, so the verdict never depends on how the
/// bytes were split: a head is too large once more than
/// [`MAX_HEAD_BYTES`] bytes precede its final newline. A partial head
/// is rejected as soon as the buffer shows that, without waiting for
/// the terminator.
fn head_bounds(buf: &[u8]) -> Result<Option<(usize, usize)>, HeadTooLarge> {
    match find_head_end(buf) {
        Some((_, body_start)) if body_start - 1 > MAX_HEAD_BYTES => Err(HeadTooLarge),
        Some(bounds) => Ok(Some(bounds)),
        None if buf.len() > MAX_HEAD_BYTES => Err(HeadTooLarge),
        None => Ok(None),
    }
}

/// An incremental HTTP/1.1 request parser for the reactor: bytes arrive
/// in arbitrary fragments as the socket becomes readable, are buffered
/// here, and complete requests are peeled off the front (pipelined
/// requests queue naturally). A head longer than [`MAX_HEAD_BYTES`]
/// answers `431` as soon as the buffer shows it, without waiting for
/// more bytes; a body longer than [`MAX_BODY_BYTES`] answers `413`.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends newly-read socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to peel one complete request off the front of the buffer.
    pub fn next_request(&mut self) -> Parsed {
        // Tolerate stray CRLFs between pipelined requests (RFC 9112 §2.2).
        let start = self
            .buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        let (head_len, body_rel) = match head_bounds(&self.buf[start..]) {
            Ok(Some(bounds)) => bounds,
            Ok(None) => return Parsed::Incomplete,
            Err(HeadTooLarge) => {
                return Parsed::Malformed(Response::error(431, "request head too large"))
            }
        };
        let Ok(head) = std::str::from_utf8(&self.buf[start..start + head_len]) else {
            return Parsed::Malformed(Response::error(400, "malformed header line"));
        };

        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Parsed::Malformed(Response::error(400, "malformed request line"));
        };
        if !version.starts_with("HTTP/1.") {
            return Parsed::Malformed(Response::error(400, "unsupported HTTP version"));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Parsed::Malformed(Response::error(400, "malformed header line"));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse::<usize>());
        let body_len = match content_length {
            None => 0,
            Some(Err(_)) => {
                return Parsed::Malformed(Response::error(400, "unparseable content-length"))
            }
            Some(Ok(len)) if len > MAX_BODY_BYTES => {
                return Parsed::Malformed(Response::error(413, "request body too large"))
            }
            Some(Ok(len)) => len,
        };
        let body_start = start + body_rel;
        if self.buf.len() < body_start + body_len {
            return Parsed::Incomplete;
        }
        let body = self.buf[body_start..body_start + body_len].to_vec();
        let request = Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
        };
        self.buf.drain(..body_start + body_len);
        Parsed::Request(Box::new(request))
    }
}

/// The client-side twin of [`RequestParser`]: buffers fragmented
/// response bytes and peels complete responses off the front. The load
/// generator, which multiplexes its connections on one thread, feeds it
/// directly; every blocking client reads through [`read_response`].
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// A parser with an empty buffer.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Appends newly-read socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Tries to peel one complete response off the front of the buffer.
    /// `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` on malformed or oversized response heads.
    pub fn next_response(&mut self) -> io::Result<Option<Response>> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let Some((head_len, body_rel)) =
            head_bounds(&self.buf).map_err(|HeadTooLarge| bad("response head too large"))?
        else {
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("malformed header"))?;
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.split_whitespace();
        let status = match (parts.next(), parts.next()) {
            (Some(v), Some(code)) if v.starts_with("HTTP/1.") => {
                code.parse::<u16>().map_err(|_| bad("bad status code"))?
            }
            _ => return Err(bad("malformed status line")),
        };
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let len = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        if self.buf.len() < body_rel + len {
            return Ok(None);
        }
        let body = self.buf[body_rel..body_rel + len].to_vec();
        self.buf.drain(..body_rel + len);
        Ok(Some(Response {
            status,
            headers,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Asserts `resp` carries `code` in the error envelope.
    fn assert_enveloped(resp: &Response, code: &str) {
        let body = std::str::from_utf8(&resp.body).expect("UTF-8 body");
        let head = format!(r#"{{"v": 2, "data": null, "error": {{"code":"{code}","message":"#);
        assert!(body.starts_with(&head), "{body}");
    }

    /// Feeds `raw` in one piece and takes the first outcome.
    fn parse_one(raw: &[u8]) -> Parsed {
        let mut p = RequestParser::new();
        p.feed(raw);
        p.next_request()
    }

    #[test]
    fn parses_a_post_with_body() {
        let out = parse_one(
            b"POST /v2/simulate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        );
        let Parsed::Request(req) = out else {
            panic!("expected a request, got {out:?}");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v2/simulate");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honoured() {
        let out = parse_one(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        let Parsed::Request(req) = out else {
            panic!("expected a request, got {out:?}");
        };
        assert!(!req.keep_alive());
    }

    #[test]
    fn malformed_request_line_yields_400() {
        let Parsed::Malformed(resp) = parse_one(b"NONSENSE\r\n\r\n") else {
            panic!("expected malformed");
        };
        assert_eq!(resp.status, 400);
        assert_enveloped(&resp, "bad_request");
    }

    #[test]
    fn oversized_body_yields_413() {
        let raw = format!(
            "POST /v2/simulate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let Parsed::Malformed(resp) = parse_one(raw.as_bytes()) else {
            panic!("expected malformed");
        };
        assert_eq!(resp.status, 413);
        assert_enveloped(&resp, "payload_too_large");
    }

    #[test]
    fn response_round_trips_between_writer_and_client_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let resp = Response::json(200, "{\"ok\":true}").with_header("retry-after", "1");
            (&stream)
                .write_all(&response_bytes(&resp, true))
                .expect("write");
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let resp = read_response(&stream).expect("read");
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, b"{\"ok\":true}");
    }

    #[test]
    fn request_bytes_parse_back_through_the_request_parser() {
        for body in [None, Some(&b""[..]), Some(b"{\"k\": 1}")] {
            let mut p = RequestParser::new();
            p.feed(&request_bytes("POST", "/v2/simulate?x=1", body));
            let Parsed::Request(req) = p.next_request() else {
                panic!("expected a request for body {body:?}");
            };
            assert_eq!(req.method, "POST");
            assert_eq!(
                (req.path.as_str(), req.query.as_str()),
                ("/v2/simulate", "x=1")
            );
            let body = body.unwrap_or_default();
            assert_eq!(req.body, body);
            // Only a non-empty body is labelled JSON.
            assert_eq!(req.header("content-type").is_some(), !body.is_empty());
            assert_eq!(p.buffered(), 0, "one request, no trailing bytes");
        }
    }

    #[test]
    fn incremental_parser_resumes_across_fragments() {
        let raw = b"POST /v2/simulate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        let mut p = RequestParser::new();
        // Feed byte by byte: every prefix must report Incomplete, and
        // only the final byte completes the request.
        for (i, b) in raw.iter().enumerate() {
            p.feed(&[*b]);
            let parsed = p.next_request();
            if i + 1 < raw.len() {
                assert!(matches!(parsed, Parsed::Incomplete), "byte {i}: {parsed:?}");
            } else {
                let Parsed::Request(req) = parsed else {
                    panic!("expected a request, got {parsed:?}");
                };
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/v2/simulate");
                assert_eq!(req.query, "x=1");
                assert_eq!(req.header("host"), Some("h"));
                assert_eq!(req.body, b"body");
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn incremental_parser_peels_pipelined_requests() {
        let mut p = RequestParser::new();
        p.feed(b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\n\n");
        let Parsed::Request(a) = p.next_request() else {
            panic!("first request");
        };
        assert_eq!(a.path, "/healthz");
        let Parsed::Request(b) = p.next_request() else {
            panic!("second request (bare-LF dialect)");
        };
        assert_eq!(b.path, "/metrics");
        assert!(matches!(p.next_request(), Parsed::Incomplete));
    }

    #[test]
    fn incremental_parser_rejects_oversized_head_with_431() {
        let mut p = RequestParser::new();
        // A request line that never terminates: rejected as soon as the
        // buffered head exceeds the cap, without waiting for a newline.
        p.feed(&vec![b'A'; MAX_HEAD_BYTES + 2]);
        let Parsed::Malformed(resp) = p.next_request() else {
            panic!("expected malformed");
        };
        assert_eq!(resp.status, 431);
        assert_enveloped(&resp, "payload_too_large");
    }

    #[test]
    fn malformed_heads_yield_400() {
        let cases: [&[u8]; 3] = [
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: wat\r\n\r\n",
        ];
        for raw in cases {
            let Parsed::Malformed(resp) = parse_one(raw) else {
                panic!("expected malformed for {raw:?}");
            };
            assert_eq!(resp.status, 400, "{raw:?}");
            assert_enveloped(&resp, "bad_request");
        }
    }

    #[test]
    fn response_parser_round_trips_response_bytes() {
        let resp = Response::json(200, "{\"ok\":true}").with_header("retry-after", "1");
        let wire = response_bytes(&resp, true);
        let mut p = ResponseParser::new();
        // Fragmented feed: split mid-head and mid-body.
        p.feed(&wire[..10]);
        assert!(p.next_response().expect("parse").is_none());
        p.feed(&wire[10..wire.len() - 3]);
        assert!(p.next_response().expect("parse").is_none());
        p.feed(&wire[wire.len() - 3..]);
        let parsed = p.next_response().expect("parse").expect("complete");
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.body, resp.body);
        assert!(p.next_response().expect("parse").is_none());
    }
}
