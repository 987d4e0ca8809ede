//! Property suite for the resumable HTTP/1.1 parsers. The reactor feeds
//! [`RequestParser`] whatever each socket read returns, and clients read
//! responses through [`ResponseParser`], so where the byte stream
//! happens to be cut must never change what the parsers see:
//!
//! - any request sequence (valid, pipelined, bare-LF, stray CRLFs, bad
//!   request lines, bad `content-length` values, oversized bodies, heads
//!   at the size limit) parses to the same outcomes under every split as
//!   in one piece, and so do arbitrary bytes;
//! - the same holds for responses rendered by `response_bytes`;
//! - a head with no terminator within `MAX_HEAD_BYTES` answers 431 as
//!   soon as the buffer shows it, without waiting for more bytes.

use std::ops::Range;

use proptest::prelude::*;
use serve::http::{
    response_bytes, Parsed, Request, RequestParser, Response, ResponseParser, MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
};

/// What a parser made of a byte stream: the messages it peeled, then
/// `Some(reason)` if it rejected the stream (the connection closes
/// there) or `None` if it is waiting for more bytes.
type Outcome<T> = (Vec<T>, Option<String>);

/// A deterministic byte sequence from `seed` (a body, a path).
fn seeded_bytes(seed: u64, len: usize, alphabet: &[u8]) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            alphabet[(x % alphabet.len() as u64) as usize]
        })
        .collect()
}

/// One message of a request stream; `kind` picks the shape and `seed`
/// its details.
fn request_piece(kind: u8, seed: u64) -> Vec<u8> {
    let path = String::from_utf8(seeded_bytes(
        seed,
        1 + (seed % 12) as usize,
        b"abcxyz019/-_",
    ))
    .expect("ASCII path");
    let pick = |options: &[&str]| options[(seed % options.len() as u64) as usize].to_string();
    let wire = match kind {
        0 => format!(
            "GET /{path}?q={} HTTP/1.1\r\nhost: props\r\n\r\n",
            seed % 97
        ),
        1 => {
            let body = String::from_utf8(seeded_bytes(seed, (seed % 64) as usize, b"{}\"a: 1\r\n"))
                .expect("ASCII body");
            let len = body.len();
            format!("POST /{path} HTTP/1.1\r\ncontent-length: {len}\r\n\r\n{body}")
        }
        2 => format!("GET /{path} HTTP/1.1\nhost: bare-lf\n\n"),
        3 => pick(&["\r\n", "\n", "\r\n\r\n", "\n\n"]),
        4 => pick(&[
            "NONSENSE\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/1.1\r\nbroken\r\n\r\n",
        ]),
        5 => {
            let bad = pick(&["wat", "-1", "1e3", "", "99999999999999999999999"]);
            format!("POST /{path} HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n")
        }
        6 => {
            let len = MAX_BODY_BYTES + 1 + (seed % 1000) as usize;
            format!("POST /{path} HTTP/1.1\r\ncontent-length: {len}\r\n\r\n")
        }
        7 => format!("GET /{path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
        // A head within a few bytes of the limit, on either side.
        _ => {
            let head = MAX_HEAD_BYTES - 3 + (seed % 8) as usize;
            let pad = "p".repeat(head - "GET / HTTP/1.1\r\nx-pad: \r\n\r\n".len());
            format!("GET / HTTP/1.1\r\nx-pad: {pad}\r\n\r\n")
        }
    };
    wire.into_bytes()
}

/// A cut of the byte stream: `(at, near_end, back)`. With `near_end`
/// 0, it falls at `at` (modulo the length); otherwise `back` bytes
/// before the end of message `at` (modulo the count), where a parser's
/// bookkeeping is most likely to slip.
type Cut = (usize, u8, usize);

fn cuts() -> impl Strategy<Value = Vec<Cut>> {
    prop::collection::vec((0usize..=1 << 24, 0u8..2, 0usize..4), 0..24)
}

/// Concatenates `messages` and splits the result at `cuts` into chunk
/// ranges.
fn split(messages: &[Vec<u8>], cuts: &[Cut]) -> (Vec<u8>, Vec<Range<usize>>) {
    let bytes = messages.concat();
    let ends: Vec<usize> = messages
        .iter()
        .scan(0, |end, m| {
            *end += m.len();
            Some(*end)
        })
        .collect();
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|&(at, near_end, back)| match (near_end, ends.len()) {
            (0, _) | (_, 0) => at % (bytes.len() + 1),
            (_, n) => ends[at % n].saturating_sub(back),
        })
        .chain([0, bytes.len()])
        .collect();
    points.sort_unstable();
    points.dedup();
    let chunks = points.windows(2).map(|w| w[0]..w[1]).collect();
    (bytes, chunks)
}

/// Feeds `bytes` chunk by chunk, peeling every message `next` can after
/// each chunk, as the reactor (or a client) would.
fn feed_chunks<P, T>(
    mut parser: P,
    feed: fn(&mut P, &[u8]),
    next: fn(&mut P) -> Result<Option<T>, String>,
    bytes: &[u8],
    chunks: &[Range<usize>],
) -> Outcome<T> {
    let mut peeled = Vec::new();
    for range in chunks {
        feed(&mut parser, &bytes[range.clone()]);
        loop {
            match next(&mut parser) {
                Ok(Some(message)) => peeled.push(message),
                Ok(None) => break,
                Err(reason) => return (peeled, Some(reason)),
            }
        }
    }
    (peeled, None)
}

fn requests(bytes: &[u8], chunks: &[Range<usize>]) -> Outcome<Request> {
    let next = |p: &mut RequestParser| match p.next_request() {
        Parsed::Incomplete => Ok(None),
        Parsed::Request(req) => Ok(Some(*req)),
        Parsed::Malformed(resp) => Err(format!(
            "{} {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        )),
    };
    feed_chunks(
        RequestParser::new(),
        RequestParser::feed,
        next,
        bytes,
        chunks,
    )
}

fn responses(bytes: &[u8], chunks: &[Range<usize>]) -> Outcome<Response> {
    let next = |p: &mut ResponseParser| p.next_response().map_err(|e| e.to_string());
    feed_chunks(
        ResponseParser::new(),
        ResponseParser::feed,
        next,
        bytes,
        chunks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn request_parsing_ignores_how_bytes_are_split(
        pieces in prop::collection::vec((0u8..9, 0u64..=u64::MAX), 1..8),
        cuts in cuts(),
    ) {
        let messages: Vec<Vec<u8>> = pieces.iter().map(|&(k, s)| request_piece(k, s)).collect();
        let (bytes, whole) = split(&messages, &[]);
        let (_, chunks) = split(&messages, &cuts);
        prop_assert_eq!(requests(&bytes, &chunks), requests(&bytes, &whole));
    }

    /// Arbitrary bytes never panic either parser, and split delivery
    /// still agrees with one-shot delivery. Half the cases draw from an
    /// HTTP-ish alphabet so heads actually complete.
    #[test]
    fn arbitrary_bytes_parse_the_same_under_any_split(
        raw in prop::collection::vec(0u8..=255, 0..4096),
        httpish in 0u8..2,
        cuts in cuts(),
    ) {
        const ALPHABET: &[u8] = b"GET POST /v2 HTTP/1.1\r\n\r\ncontent-length: 12\n:x";
        let bytes: Vec<u8> = match httpish {
            0 => raw,
            _ => raw.iter().map(|b| ALPHABET[*b as usize % ALPHABET.len()]).collect(),
        };
        let (_, whole) = split(std::slice::from_ref(&bytes), &[]);
        let (_, chunks) = split(std::slice::from_ref(&bytes), &cuts);
        prop_assert_eq!(requests(&bytes, &chunks), requests(&bytes, &whole));
        prop_assert_eq!(responses(&bytes, &chunks), responses(&bytes, &whole));
    }

    /// Responses rendered by `response_bytes` parse back to themselves,
    /// identically under any split.
    #[test]
    fn response_parsing_ignores_how_bytes_are_split(
        specs in prop::collection::vec((0usize..6, 0u64..=u64::MAX, 0usize..3), 1..6),
        near_limit in 0usize..10,
        cuts in cuts(),
    ) {
        let statuses = [200u16, 202, 400, 404, 429, 503];
        let mut sent: Vec<Response> = specs
            .iter()
            .map(|&(status, seed, headers)| {
                let body = seeded_bytes(seed, (seed % 200) as usize, b"{}\"ab:1\r\n");
                (0..headers).fold(
                    Response { status: statuses[status], headers: Vec::new(), body },
                    |r, h| r.with_header(&format!("x-h{h}"), (seed % 1000).to_string()),
                )
            })
            .collect();
        // A head within a few bytes of the limit, on either side.
        if near_limit < 8 {
            let plain = response_bytes(&Response::json(200, "{}"), true).len();
            let pad = MAX_HEAD_BYTES - 3 + near_limit - plain - "x-pad: \r\n".len();
            sent.push(Response::json(200, "{}").with_header("x-pad", "p".repeat(pad)));
        }
        let messages: Vec<Vec<u8>> = sent.iter().map(|r| response_bytes(r, true)).collect();
        let (bytes, whole) = split(&messages, &[]);
        let (_, chunks) = split(&messages, &cuts);
        let (got, rejected) = responses(&bytes, &whole);
        prop_assert_eq!(responses(&bytes, &chunks), (got.clone(), rejected));
        // Every response that fits the head limit comes back intact.
        for (got, sent) in got.iter().zip(&sent) {
            prop_assert_eq!((got.status, &got.body), (sent.status, &sent.body));
        }
    }

    /// A head that has not ended within `MAX_HEAD_BYTES` answers 431 at
    /// the first read that shows it, however the bytes arrive.
    #[test]
    fn unterminated_head_answers_431_without_waiting(
        extra in 1usize..4096,
        seed in 0u64..=u64::MAX,
        cuts in cuts(),
    ) {
        let head = seeded_bytes(seed, MAX_HEAD_BYTES + extra, b"GET /abc: HTTP/1.1x");
        // A message end at the limit steers cuts to either side of it.
        let at_limit = [head[..MAX_HEAD_BYTES].to_vec(), head[MAX_HEAD_BYTES..].to_vec()];
        let (_, chunks) = split(&at_limit, &cuts);
        let mut p = RequestParser::new();
        for range in chunks {
            let fed = range.end;
            p.feed(&head[range]);
            match p.next_request() {
                Parsed::Incomplete => prop_assert!(fed <= MAX_HEAD_BYTES, "waited at {fed}"),
                Parsed::Malformed(resp) => {
                    prop_assert!(fed > MAX_HEAD_BYTES, "rejected early at {fed}");
                    prop_assert_eq!(resp.status, 431);
                    let body = String::from_utf8_lossy(&resp.body).into_owned();
                    prop_assert!(body.contains("\"payload_too_large\""), "body: {body}");
                    return Ok(());
                }
                Parsed::Request(req) => prop_assert!(false, "parsed {req:?}"),
            }
        }
        prop_assert!(false, "never rejected");
    }
}
