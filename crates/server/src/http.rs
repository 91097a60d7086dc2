//! Minimal HTTP/1.1 on `std`: request parsing and response writing, and
//! the one client, with its bounded response reader, that the fleet
//! front and the load generator both speak through.
//!
//! Scope is exactly what the serving layer needs (no hyper, no tokio):
//!
//! * request line + headers + optional `Content-Length` body (bodies are
//!   read and discarded — every route is a GET); a `Transfer-Encoding`
//!   request is refused as malformed, since its body cannot be drained;
//! * persistent connections: HTTP/1.1 defaults to keep-alive,
//!   `Connection: close` (or HTTP/1.0 without `keep-alive`) closes;
//! * fixed `Content-Length` responses — no chunked encoding;
//! * hard limits on request-line, header and body sizes so a hostile
//!   client cannot balloon memory.
//!
//! Responses carry no `Date` header and a fixed header order, so the
//! bytes on the wire are a pure function of the response content — the
//! property the determinism tests and CI byte-diffs rely on.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of headers.
pub const MAX_HEADERS: usize = 64;
/// Maximum single header line length in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted request body in bytes.
pub const MAX_BODY: usize = 64 * 1024;
/// Largest response body [`read_response`] reads, thousands of times the
/// largest a server here renders (a graphs document or a `/v1/metrics`
/// exposition, a few KB each). A peer announcing more is broken or
/// hostile: its answer is an error before any buffer is sized from the
/// announced length.
pub const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `HEAD`, ...).
    pub method: String,
    /// Decoded path component, e.g. `/v1/bid`.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// True when the client asked for (or defaults to) keep-alive.
    pub keep_alive: bool,
}

impl Request {
    /// First query parameter named `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive; pass lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The request target rebuilt from path + query, in parse order.
    /// Equal request lines produce equal targets, which is what makes a
    /// target-derived trace id a pure function of the request.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            return self.path.clone();
        }
        let mut out = self.path.clone();
        for (i, (k, v)) in self.query.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            out.push_str(k);
            if !v.is_empty() {
                out.push('=');
                out.push_str(v);
            }
        }
        out
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// Clean end of stream before any request bytes (normal keep-alive
    /// close).
    Eof,
    /// The client sent something that is not HTTP; the connection should
    /// get a 400 and close.
    Malformed(&'static str),
    /// A size limit was exceeded; 431/413 territory — close.
    TooLarge(&'static str),
    /// Transport error (including read timeouts from the per-connection
    /// deadline).
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<ParseError> for io::Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Io(e) => e,
            ParseError::Eof => io::ErrorKind::UnexpectedEof.into(),
            ParseError::Malformed(msg) | ParseError::TooLarge(msg) => {
                io::Error::new(io::ErrorKind::InvalidData, msg)
            }
        }
    }
}

/// Reads one CRLF- (or LF-) terminated line, bounded by `max` bytes.
pub(crate) fn read_line(
    reader: &mut impl BufRead,
    max: usize,
) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::new();
    let mut limited = <&mut _ as io::Read>::take(&mut *reader, max as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > max {
        return Err(ParseError::TooLarge("line too long"));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseError::Malformed("non-utf8 line"))
}

/// Parses one request from the stream (blocking until the deadline set on
/// the underlying socket).
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let line = match read_line(reader, MAX_REQUEST_LINE)? {
        None => return Err(ParseError::Eof),
        Some(l) if l.is_empty() => {
            // Tolerate a stray CRLF between pipelined requests.
            match read_line(reader, MAX_REQUEST_LINE)? {
                None => return Err(ParseError::Eof),
                Some(l2) if l2.is_empty() => {
                    return Err(ParseError::Malformed("empty request line"))
                }
                Some(l2) => l2,
            }
        }
        Some(l) => l,
    };

    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra request-line tokens"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed("unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(ParseError::Malformed(
            "request target must be absolute path",
        ));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEADER_LINE)?
            .ok_or(ParseError::Malformed("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // A body framed any other way than by Content-Length would stay on
    // the stream and parse as the next request: refuse it (the server
    // answers 400 and closes).
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::Malformed("transfer-encoding not supported"));
    }
    // Drain (and discard) any Content-Length body so the next request on
    // the connection starts at a clean boundary.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge("body too large"));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        io::Read::read_exact(reader, &mut body)?;
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        keep_alive,
    })
}

/// A response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes (always sent with an exact `Content-Length`).
    pub body: Vec<u8>,
    /// Extra headers (name, value) appended after the fixed set.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// The canonical JSON error body `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let mut body = String::from("{\"error\":");
        crate::json::write_str(&mut body, msg);
        body.push('}');
        Response::json(status, body)
    }

    /// The load-shed response: 503 with a `Retry-After` hint.
    pub fn overloaded(retry_after_secs: u32) -> Response {
        let mut r = Response::error(503, "server overloaded, retry later");
        r.extra_headers
            .push(("Retry-After", retry_after_secs.to_string()));
        r
    }
}

/// Reason phrase for the status codes the server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto `writer`.
///
/// Header order is fixed and no `Date` header is sent: the wire bytes
/// depend only on the response content and `keep_alive`.
pub fn write_response(
    writer: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: separate writes would emit two TCP
    // segments and trip Nagle/delayed-ACK stalls on loopback latencies.
    let mut frame = head.into_bytes();
    frame.extend_from_slice(&resp.body);
    writer.write_all(&frame)?;
    writer.flush()
}

/// A response as a client reads it back.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The body: exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// The `Retry-After` seconds, when the server sent a numeric hint.
    pub retry_after: Option<u64>,
    /// True when the server closes the connection after this response.
    pub close: bool,
}

/// Reads one response, every size bounded before it is read: the status
/// and header lines by [`MAX_HEADER_LINE`], their number by
/// [`MAX_HEADERS`] and the body by [`MAX_RESPONSE_BODY`].
pub fn read_response(reader: &mut impl BufRead) -> io::Result<ClientResponse> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut line = || read_line(reader, MAX_HEADER_LINE)?.ok_or(ParseError::Eof);
    let status = line()?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut response = ClientResponse {
        status,
        body: Vec::new(),
        retry_after: None,
        close: false,
    };
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let line = line()?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            response.close = true;
        } else if name.eq_ignore_ascii_case("retry-after") {
            response.retry_after = value.parse().ok();
        }
    }
    if content_length > MAX_RESPONSE_BODY {
        return Err(invalid("response body too large"));
    }
    response.body = vec![0u8; content_length];
    reader.read_exact(&mut response.body)?;
    Ok(response)
}

/// A keep-alive HTTP/1.1 client over one TCP connection, the one client
/// here: the fleet front's shard legs and the load generator use it.
///
/// A GET is [`Client::send`] then [`Client::finish`], so a scatter can
/// write every leg before it reads any answer; [`Client::get`] does both.
/// One retry rule: a failed attempt is retried once on a fresh
/// connection unless it hit the deadline. A torn keep-alive or a refused
/// connect is worth one more try; a retried timeout would only double
/// the wait. A connection that errs or that the server closes is dropped.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// The request last sent, for the retry.
    request: String,
    retry_after: Option<u64>,
}

impl Client {
    /// A client for `addr`; `timeout` is each connection's read and
    /// write deadline.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            request: String::new(),
            retry_after: None,
        }
    }

    /// The `Retry-After` seconds from the most recent response, if the
    /// server sent the header (load-shed 503s do).
    pub fn retry_after(&self) -> Option<u64> {
        self.retry_after
    }

    /// Issues `GET path`, returning `(status, body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.get_traced(path, None)
    }

    /// [`Client::get`] carrying an `x-drafts-trace` context header when
    /// `trace` is `Some` — the server propagates it through fleet legs
    /// and echoes it on the response.
    pub fn get_traced(&mut self, path: &str, trace: Option<&str>) -> io::Result<(u16, Vec<u8>)> {
        let sent = self.send(path, trace);
        self.finish(sent)
    }

    /// Writes `GET path`, with `trace` as its `x-drafts-trace` header.
    pub fn send(&mut self, path: &str, trace: Option<&str>) -> io::Result<()> {
        self.request = match trace {
            Some(ctx) => format!(
                "GET {path} HTTP/1.1\r\nHost: drafts\r\n{}: {ctx}\r\n\r\n",
                obs::TRACE_HEADER
            ),
            None => format!("GET {path} HTTP/1.1\r\nHost: drafts\r\n\r\n"),
        };
        self.write()
    }

    /// Reads the answer to the request whose [`Client::send`] returned
    /// `sent`, retrying once under the retry rule.
    pub fn finish(&mut self, sent: io::Result<()>) -> io::Result<(u16, Vec<u8>)> {
        match self.attempt(sent) {
            // A read past its deadline is `WouldBlock` on Unix.
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let sent = self.write();
                self.attempt(sent)
            }
            answer => answer,
        }
    }

    /// Writes the last request, connecting first when no connection is
    /// open.
    fn write(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.get_mut().write_all(self.request.as_bytes())
    }

    /// Reads the answer to a write that returned `sent`, keeping the
    /// connection only when it answered and stays open.
    fn attempt(&mut self, sent: io::Result<()>) -> io::Result<(u16, Vec<u8>)> {
        let response =
            sent.and_then(|()| read_response(self.conn.as_mut().expect("written to a connection")));
        self.retry_after = response.as_ref().ok().and_then(|r| r.retry_after);
        if !matches!(&response, Ok(r) if !r.close) {
            self.conn = None;
        }
        response.map(|r| (r.status, r.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req = parse(
            "GET /v1/bid?duration=3600&p=0.95 HTTP/1.1\r\n\
             Host: localhost\r\n\
             X-Thing: spaced value \r\n\
             \r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/bid");
        assert_eq!(req.query_param("duration"), Some("3600"));
        assert_eq!(req.query_param("p"), Some("0.95"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-thing"), Some("spaced value"));
        assert_eq!(req.target(), "/v1/bid?duration=3600&p=0.95");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn drains_content_length_bodies_to_a_clean_boundary() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /y HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request(&mut reader).unwrap();
        assert_eq!(first.method, "POST");
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.path, "/y");
    }

    #[test]
    fn eof_and_malformed_are_distinguished() {
        assert!(matches!(parse(""), Err(ParseError::Eof)));
        assert!(matches!(
            parse("garbage\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn refuses_transfer_encoded_bodies() {
        // A chunked body is not drained, so its chunk lines would parse
        // as the next request: the request is refused outright.
        let raw = "GET /v1/health HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(ParseError::Malformed("transfer-encoding not supported"))
        ));
    }

    #[test]
    fn size_limits_are_enforced() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert!(matches!(parse(&long_target), Err(ParseError::TooLarge(_))));
        let mut many_headers = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many_headers.push_str(&format!("X-H{i}: v\r\n"));
        }
        many_headers.push_str("\r\n");
        assert!(matches!(parse(&many_headers), Err(ParseError::TooLarge(_))));
        let big_body = "POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n";
        assert!(matches!(parse(big_body), Err(ParseError::TooLarge(_))));
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let resp = Response::json(200, "{\"a\":1}".to_string());
        let mut a = Vec::new();
        write_response(&mut a, &resp, true).unwrap();
        let mut b = Vec::new();
        write_response(&mut b, &resp, true).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Date:"), "Date would break determinism");
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::overloaded(1), false).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn error_bodies_equal_the_tree_encoding() {
        use crate::json::Json;
        for msg in ["no such route", "say \"no\"\n", "é\\日本"] {
            let want = Json::obj(vec![("error", Json::str(msg))]).render();
            assert_eq!(Response::error(400, msg).body, want.into_bytes(), "{msg:?}");
        }
    }
}
