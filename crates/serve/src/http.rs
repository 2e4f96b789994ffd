//! Minimal HTTP/1.1 request parsing and response rendering — hand-rolled
//! like the vendor stand-ins (the build environment has no registry
//! access), covering exactly the subset the briefing server speaks:
//! `Content-Length` bodies, keep-alive and pipelined connections.
//!
//! The core is [`RequestParser`], an incremental state machine the event
//! loop drives over a persistent per-connection read buffer: feed it the
//! buffer after every read, get back [`Parsed::NeedMore`] or a complete
//! request plus the exact number of bytes it consumed. Bytes beyond
//! `consumed` stay in the connection buffer — that is what makes
//! pipelined requests servable instead of silently discarded. Framing
//! errors are terminal: the caller answers 400-class and closes, never
//! resynchronizes (resyncing on a smuggling-shaped request is how
//! request-smuggling attacks work).

/// Upper bound on the request line + headers, generous for any real client.
const MAX_HEAD_BYTES: usize = 32 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-case as sent.
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw query string after the `?` (empty when the target has none).
    pub query: String,
    /// Header `(name, value)` pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when the request carries none).
    pub body: Vec<u8>,
    /// Whether the request line declared `HTTP/1.1` (vs `HTTP/1.0`).
    pub http11: bool,
}

impl Request {
    /// The value of the first header named `name` (give it lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key` (`?key=value&…`), undecoded.
    /// A bare `?key` yields an empty string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// HTTP/1.1 keep-alive semantics: 1.1 persists unless the client says
    /// `Connection: close`; 1.0 closes unless it says
    /// `Connection: keep-alive`. The header is a comma-separated token
    /// list and `close` wins over anything else in it.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => {
                let mut keep = None;
                for token in v.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        return false;
                    }
                    if token.eq_ignore_ascii_case("keep-alive") {
                        keep = Some(true);
                    }
                }
                keep.unwrap_or(self.http11)
            }
            None => self.http11,
        }
    }
}

/// A request that could not be read; each variant maps to one status code.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The request did not arrive in full before its deadline → 408.
    Timeout,
    /// The declared `Content-Length` exceeds the configured limit → 413.
    BodyTooLarge {
        /// The declared body size.
        declared: usize,
        /// The configured limit it exceeded.
        limit: usize,
    },
    /// The head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// `Transfer-Encoding: chunked` (or any transfer coding) → 501.
    UnsupportedTransferEncoding,
    /// Anything else malformed (bad request line, bad `Content-Length`,
    /// early EOF) → 400.
    Malformed(String),
}

impl HttpError {
    /// The HTTP status code this error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Timeout => 408,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::HeadTooLarge => 431,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::Malformed(_) => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Timeout => "timed out reading the request".to_string(),
            HttpError::BodyTooLarge { declared, limit } => {
                format!("request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::UnsupportedTransferEncoding => {
                "transfer codings are not supported; send a Content-Length body".to_string()
            }
            HttpError::Malformed(m) => m.clone(),
        }
    }
}

/// Result of one [`RequestParser::step`] over the connection buffer.
#[derive(Debug)]
pub enum Parsed {
    /// The buffer does not yet hold a complete request; read more.
    NeedMore,
    /// A complete request. Exactly `consumed` bytes of the buffer belong
    /// to it; the caller must drain them (bytes beyond `consumed` are the
    /// start of the next pipelined request) before stepping again.
    Request {
        /// The parsed request.
        req: Request,
        /// How many buffer bytes the request occupied (head + body).
        consumed: usize,
    },
}

/// The head fields, parsed once when the blank line arrives and cached so
/// body-trickle steps do not re-parse headers.
struct ParsedHead {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    http11: bool,
}

/// Incremental request parser over an externally owned read buffer.
///
/// Stateless about I/O: the caller appends whatever bytes arrive and calls
/// [`step`](Self::step). The parser remembers how far it has scanned for
/// the head terminator (so trickled heads cost O(n), not O(n²) — each byte
/// is scanned once) and caches the parsed head while the body fills in.
/// After a completed request it resets itself for the next one.
pub struct RequestParser {
    /// Next unscanned offset in the head-terminator search; rewound 3
    /// bytes per step so a `\r\n\r\n` split across reads is still found.
    scan_from: usize,
    /// Byte offset of `\r\n\r\n` once found.
    head_end: Option<usize>,
    head: Option<ParsedHead>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser positioned at the start of a request.
    pub fn new() -> Self {
        RequestParser { scan_from: 0, head_end: None, head: None }
    }

    /// Forgets all progress (used when the caller discards the buffer).
    pub fn reset(&mut self) {
        *self = RequestParser::new();
    }

    /// Whether any bytes of the current request have been examined.
    pub fn started(&self) -> bool {
        self.scan_from > 0 || self.head_end.is_some()
    }

    /// Advances over `buf` (the connection's accumulated unconsumed
    /// bytes). Errors are terminal: answer with `err.status()` and close.
    /// On `Parsed::Request` the parser has already reset itself; drain
    /// `consumed` bytes from the buffer before the next step.
    pub fn step(&mut self, buf: &[u8], max_body_bytes: usize) -> Result<Parsed, HttpError> {
        let head_end = match self.head_end {
            Some(h) => h,
            None => {
                let start = self.scan_from.min(buf.len());
                match buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
                    Some(pos) => {
                        let h = start + pos;
                        self.head_end = Some(h);
                        h
                    }
                    None => {
                        // Resume next step just before the tail, in case
                        // the terminator straddles this read boundary.
                        self.scan_from = buf.len().saturating_sub(3);
                        if buf.len() > MAX_HEAD_BYTES {
                            return Err(HttpError::HeadTooLarge);
                        }
                        return Ok(Parsed::NeedMore);
                    }
                }
            }
        };
        if self.head.is_none() {
            self.head = Some(parse_head(&buf[..head_end])?);
        }
        let head = self.head.as_ref().expect("head cached above");
        if head.content_length > max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: head.content_length,
                limit: max_body_bytes,
            });
        }
        let total = head_end + 4 + head.content_length;
        if buf.len() < total {
            return Ok(Parsed::NeedMore);
        }
        let head = self.head.take().expect("head cached above");
        let req = Request {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body: buf[head_end + 4..total].to_vec(),
            http11: head.http11,
        };
        self.reset();
        Ok(Parsed::Request { req, consumed: total })
    }
}

/// Strict `Content-Length` syntax: one or more ASCII digits, nothing else.
/// `str::parse::<usize>` alone would accept `+5` — a classic smuggling
/// vector, since intermediaries disagree on what it means.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed(format!("bad Content-Length `{value}`")));
    }
    value
        .parse()
        .map_err(|_| HttpError::Malformed(format!("Content-Length `{value}` overflows")))
}

fn parse_head(head: &[u8]) -> Result<ParsedHead, HttpError> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line `{request_line}`"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported protocol `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        // A header line without a colon is not a header; skipping it
        // (the old behavior) means client and server disagree about what
        // was sent — reject the request instead.
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("header line without a colon `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        if name == "content-length" {
            let parsed = parse_content_length(value)?;
            match content_length {
                // Duplicate headers that agree are harmless repetition;
                // ones that disagree are a framing attack.
                Some(prev) if prev != parsed => {
                    return Err(HttpError::Malformed(format!(
                        "conflicting Content-Length headers ({prev} vs {parsed})"
                    )));
                }
                _ => content_length = Some(parsed),
            }
        }
        headers.push((name, value.to_string()));
    }
    Ok(ParsedHead {
        method: method.to_string(),
        path,
        query,
        headers,
        content_length: content_length.unwrap_or(0),
        http11: version == "HTTP/1.1",
    })
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Renders a complete response into bytes. `keep_alive` controls the
/// `Connection:` header; the body always carries an exact
/// `Content-Length` so clients can frame it either way.
pub fn render_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Builds the `{"error": …}` JSON body used by every non-200 response.
pub fn error_body(detail: &str) -> Vec<u8> {
    let body = std::collections::BTreeMap::from([("error".to_string(), detail)]);
    serde_json::to_string(&body).expect("an error body serialises").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps the parser once over `raw`, which must hold a whole request
    /// (or a framing error).
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        match RequestParser::new().step(raw, max_body)? {
            Parsed::Request { req, .. } => Ok(req),
            Parsed::NeedMore => panic!("incomplete request: {raw:?}"),
        }
    }

    /// Steps the incremental parser over `raw` split into `chunk`-byte
    /// pieces, collecting every completed request.
    fn parse_chunked(raw: &[u8], chunk: usize, max_body: usize) -> Vec<Request> {
        let mut parser = RequestParser::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut out = Vec::new();
        for piece in raw.chunks(chunk.max(1)) {
            buf.extend_from_slice(piece);
            loop {
                match parser.step(&buf, max_body).expect("framing") {
                    Parsed::NeedMore => break,
                    Parsed::Request { req, consumed } => {
                        buf.drain(..consumed);
                        out.push(req);
                    }
                }
            }
        }
        assert!(buf.is_empty(), "unconsumed trailing bytes: {buf:?}");
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_raw(
            b"POST /brief?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/brief");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.body, b"hello");
        assert!(req.http11);
    }

    #[test]
    fn query_params_parse_pairs_and_bare_keys() {
        let req =
            parse_raw(b"GET /metrics?format=prometheus&raw HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("raw"), Some(""));
        let req = parse_raw(b"GET /metrics HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.query, "");
        assert_eq!(req.query_param("format"), None);
    }

    #[test]
    fn headers_are_kept_lowercased_and_trimmed() {
        let req = parse_raw(
            b"POST /brief HTTP/1.1\r\nX-Deadline-Ms:  250 \r\nContent-Length: 0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.header("content-length"), Some("0"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_from_header_alone() {
        let err = parse_raw(b"POST /brief HTTP/1.1\r\nContent-Length: 99999\r\n\r\n", 1024)
            .unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.detail().contains("99999"), "{}", err.detail());
    }

    #[test]
    fn rejects_chunked_transfer_encoding() {
        let err =
            parse_raw(b"POST /brief HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 1024)
                .unwrap_err();
        assert_eq!(err, HttpError::UnsupportedTransferEncoding);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn rejects_garbage_and_bad_content_length() {
        assert_eq!(parse_raw(b"NONSENSE\r\n\r\n", 1024).unwrap_err().status(), 400);
        let err =
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 1024).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_signed_and_decorated_content_length() {
        // `str::parse::<usize>` accepts a leading `+`; the framing layer
        // must not (smuggling vector: intermediaries disagree on `+5`).
        for bad in ["+5", "-5", " 5 x", "5 5", "0x5", "5.0", ""] {
            let raw = format!("POST /brief HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let err = parse_raw(raw.as_bytes(), 1024).unwrap_err();
            assert_eq!(err.status(), 400, "Content-Length `{bad}` must be rejected");
        }
        // Plain digits with leading zeros are fine (still unambiguous).
        let req = parse_raw(b"POST /brief HTTP/1.1\r\nContent-Length: 05\r\n\r\nhello", 1024)
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_conflicting_duplicate_content_length() {
        let err = parse_raw(
            b"POST /brief HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.detail().contains("conflicting"), "{}", err.detail());
        // Agreeing duplicates are harmless repetition.
        let req = parse_raw(
            b"POST /brief HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_header_line_without_colon() {
        let err = parse_raw(
            b"GET /healthz HTTP/1.1\r\nHost: a\r\nthis-is-not-a-header\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.detail().contains("colon"), "{}", err.detail());
    }

    #[test]
    fn incremental_parser_handles_any_split() {
        // Two pipelined requests, fed at every chunk size from 1 byte up:
        // the parser must produce both, with identical content, at every
        // split — including splits inside `\r\n\r\n` and inside the body.
        let raw = b"POST /brief HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz?q=1 HTTP/1.1\r\nHost: t\r\n\r\n";
        for chunk in 1..=raw.len() {
            let reqs = parse_chunked(raw, chunk, 1024);
            assert_eq!(reqs.len(), 2, "chunk={chunk}");
            assert_eq!(reqs[0].method, "POST", "chunk={chunk}");
            assert_eq!(reqs[0].body, b"hello", "chunk={chunk}");
            assert_eq!(reqs[1].method, "GET", "chunk={chunk}");
            assert_eq!(reqs[1].path, "/healthz", "chunk={chunk}");
            assert!(reqs[1].body.is_empty(), "chunk={chunk}");
        }
    }

    #[test]
    fn pipelined_bytes_are_preserved_not_discarded() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        let mut buf = raw.to_vec();
        let Parsed::Request { req, consumed } = parser.step(&buf, 1024).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(req.path, "/a");
        buf.drain(..consumed);
        assert_eq!(buf, b"GET /b HTTP/1.1\r\n\r\n", "second request must survive");
        let Parsed::Request { req, consumed } = parser.step(&buf, 1024).unwrap() else {
            panic!("second request must parse");
        };
        assert_eq!(req.path, "/b");
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn head_scan_resumes_instead_of_rescanning() {
        // Feed a long header value one byte at a time; scan_from must
        // track the tail (minus the 3-byte overlap), proving each byte is
        // examined a bounded number of times rather than once per read.
        let mut parser = RequestParser::new();
        let raw = b"GET / HTTP/1.1\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n";
        let mut buf = Vec::new();
        for (i, b) in raw.iter().enumerate() {
            buf.push(*b);
            let step = parser.step(&buf, 1024).unwrap();
            if i + 1 < raw.len() {
                assert!(matches!(step, Parsed::NeedMore));
                assert_eq!(parser.scan_from, buf.len().saturating_sub(3));
            } else {
                assert!(matches!(step, Parsed::Request { .. }));
            }
        }
    }

    #[test]
    fn keep_alive_semantics_follow_version_and_connection_header() {
        let req = |extra: &str, v: &str| {
            let raw = format!("GET / {v}\r\nHost: a\r\n{extra}\r\n");
            let mut parser = RequestParser::new();
            match parser.step(raw.as_bytes(), 1024).unwrap() {
                Parsed::Request { req, .. } => req,
                Parsed::NeedMore => panic!("complete request expected"),
            }
        };
        assert!(req("", "HTTP/1.1").wants_keep_alive(), "1.1 defaults to keep-alive");
        assert!(!req("Connection: close\r\n", "HTTP/1.1").wants_keep_alive());
        assert!(!req("Connection: Close\r\n", "HTTP/1.1").wants_keep_alive());
        assert!(!req("", "HTTP/1.0").wants_keep_alive(), "1.0 defaults to close");
        assert!(req("Connection: keep-alive\r\n", "HTTP/1.0").wants_keep_alive());
        assert!(
            !req("Connection: keep-alive, close\r\n", "HTTP/1.1").wants_keep_alive(),
            "close wins over other tokens"
        );
    }

    #[test]
    fn render_response_marks_keep_alive() {
        let bytes = render_response(200, "application/json", b"{}", &[], true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
    }

    #[test]
    fn error_body_escapes_json() {
        let b = String::from_utf8(error_body("a \"quoted\"\npath\\x")).unwrap();
        assert_eq!(b, "{\"error\":\"a \\\"quoted\\\"\\npath\\\\x\"}");
        let v: serde_json::Value = serde_json::from_str(&b).unwrap();
        assert!(v.get("error").is_some());
    }
}
