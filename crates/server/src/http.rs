//! A small HTTP/1.1 server on `std::net`, executing requests as jobs on
//! the shared worker pool ([`maprat_core::pool`]).
//!
//! Scope: exactly what the demo front-end needs — `GET` requests with
//! percent-decoded query strings, `POST` requests with `Content-Length`
//! bodies (the typed JSON API), fixed-length responses, graceful
//! shutdown. Not a general-purpose web server. Method policy (which
//! routes accept which verbs) lives in the handler, so error responses
//! can use the application's structured shape.
//!
//! The server owns no request-handling threads: a bounded-concurrency
//! accept loop dispatches each connection to [`maprat_core::pool`] as a
//! detached job, so explain/timeline work and the serving path share one
//! execution substrate — N concurrent requests occupy N pool workers and
//! their solves' restart fan-outs adaptively borrow whatever workers are
//! idle, instead of each spawning `min(restarts, cores)` OS threads.
//!
//! Connections are **keep-alive** by default (HTTP/1.1 semantics): a
//! client loop pays connection setup once, not per request — the lever
//! that un-bounds closed-loop throughput from TCP handshakes. An idle
//! connection is closed after `MAPRAT_KEEPALIVE_SECS` (default 5;
//! `0` disables keep-alive entirely and every response closes). A
//! held-open connection keeps its admission permit, so size
//! `max_in_flight` to at least the expected number of concurrent
//! persistent clients.

use maprat_core::pool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method (`GET`, …).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters (last value wins).
    pub query: HashMap<String, String>,
    /// Raw header lines, lower-cased names.
    pub headers: HashMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client's HTTP version + `Connection` header ask for
    /// the connection to stay open after this response (HTTP/1.1 unless
    /// `Connection: close`; HTTP/1.0 only with `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// A query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// A query parameter parsed to a type.
    pub fn param_as<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.param(name)?.parse().ok()
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// A response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (e.g. `X-MapRat-Cache`), emitted verbatim.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(body: String) -> Response {
        Response::json_bytes(body.into_bytes())
    }

    /// 200 with a JSON body that is already UTF-8 bytes (e.g. a stored
    /// rendering).
    pub fn json_bytes(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: "application/json; charset=utf-8",
            body,
            headers: Vec::new(),
        }
    }

    /// 200 with an HTML body.
    pub fn html(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// 200 with an SVG body.
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            body: body.into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: message.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Adds a response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Internal Server Error",
        }
    }

    fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        // One write for head + body: a second small segment behind an
        // unacked first would sit out Nagle + delayed-ACK (~40 ms on
        // loopback) — fatal to keep-alive request/response latency.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)?;
        stream.flush()
    }
}

/// Percent-decodes a URL component (`%41` → `A`, `+` → space).
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Need two ASCII hex digits after '%'; fall through to a
                // literal '%' when they are absent or invalid. Checked on
                // raw bytes — the following characters may be multi-byte.
                if i + 2 < bytes.len()
                    && bytes[i + 1].is_ascii_hexdigit()
                    && bytes[i + 2].is_ascii_hexdigit()
                {
                    let hex = |b: u8| (b as char).to_digit(16).expect("hex checked") as u8;
                    out.push(hex(bytes[i + 1]) * 16 + hex(bytes[i + 2]));
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string into a map.
pub fn parse_query(query: &str) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for pair in query.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, ""),
        };
        map.insert(percent_decode(k), percent_decode(v));
    }
    map
}

/// Upper bound on accepted request bodies (the typed API's JSON requests
/// are tiny; anything bigger is abuse).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request head (request line plus headers, line
/// endings included). The read timeout applies per read, so without a
/// byte cap a client trickling one endless line would make a pool
/// worker buffer it without limit; the cap also bounds the header count.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How long the server waits for a declared `Content-Length` body once
/// the head has fully arrived. Deliberately much shorter than the head
/// read timeout: a client that sent its headers but dribbles (or
/// abandons) its body is pinning a pool worker and an admission permit.
const BODY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Why a request could not be parsed — drives the status code of the
/// error response (where one is owed at all).
#[derive(Debug)]
pub enum ParseError {
    /// Stream-level failure while reading the head. On a keep-alive
    /// connection that has already served a request this is the normal
    /// idle-timeout close and earns no response.
    Read(String),
    /// Syntactically invalid request → 400.
    Malformed(String),
    /// The head ran past [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// The declared `Content-Length` body stopped arriving before the
    /// body read timeout → 408: the request was well-formed, the client
    /// was just too slow to finish it.
    BodyTimeout(String),
    /// The connection closed (EOF) with the body still short of its
    /// declared `Content-Length` → 400.
    ShortBody(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Read(e) => write!(f, "read error: {e}"),
            ParseError::Malformed(e) => f.write_str(e),
            ParseError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            ParseError::BodyTimeout(e) => write!(f, "body read timed out: {e}"),
            ParseError::ShortBody(e) => write!(f, "short body: {e}"),
        }
    }
}

/// A parsed request head: everything before the body.
pub struct RequestHead {
    method: String,
    path: String,
    query: HashMap<String, String>,
    headers: HashMap<String, String>,
    keep_alive: bool,
    content_length: usize,
}

impl RequestHead {
    /// The declared `Content-Length` (0 when absent).
    pub fn content_length(&self) -> usize {
        self.content_length
    }
}

/// Reads one head line into `line`, charging its bytes to `budget`, the
/// head's remaining allowance. Running out of budget before the line
/// (or the head) ends is [`ParseError::HeadTooLarge`].
fn read_head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    budget: &mut usize,
) -> Result<usize, ParseError> {
    if *budget == 0 {
        return Err(ParseError::HeadTooLarge);
    }
    let n = reader
        .by_ref()
        .take(*budget as u64)
        .read_line(line)
        .map_err(|e| ParseError::Read(e.to_string()))?;
    *budget -= n;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(ParseError::HeadTooLarge);
    }
    Ok(n)
}

/// Parses the head (request line + headers) of an HTTP/1.1 request, at
/// most [`MAX_HEAD_BYTES`] of it. `Ok(None)` is a clean end-of-stream:
/// the client closed an idle (keep-alive) connection between requests.
pub fn parse_head(reader: &mut impl BufRead) -> Result<Option<RequestHead>, ParseError> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    let n = read_head_line(reader, &mut line, &mut budget)?;
    if n == 0 {
        return Ok(None);
    }
    let malformed = |msg: &str| ParseError::Malformed(msg.to_string());
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("missing method"))?
        .to_string();
    let target = parts.next().ok_or_else(|| malformed("missing target"))?;
    let version = parts.next().ok_or_else(|| malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let http11 = version != "HTTP/1.0";
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = HashMap::new();
    loop {
        let mut hline = String::new();
        read_head_line(reader, &mut hline, &mut budget)?;
        let trimmed = hline.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.insert(name.trim().to_lowercase(), value.trim().to_string());
        }
    }
    let content_length = match headers.get("content-length") {
        Some(raw) => {
            let len: usize = raw
                .parse()
                .map_err(|_| ParseError::Malformed(format!("bad content-length {raw:?}")))?;
            if len > MAX_BODY_BYTES {
                return Err(ParseError::Malformed(format!(
                    "body of {len} bytes exceeds {MAX_BODY_BYTES}"
                )));
            }
            len
        }
        None => 0,
    };
    let keep_alive = match headers.get("connection").map(|v| v.to_ascii_lowercase()) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http11,
    };
    Ok(Some(RequestHead {
        method,
        path: percent_decode(path_raw),
        query: parse_query(query_raw),
        headers,
        keep_alive,
        content_length,
    }))
}

/// Reads the head's declared body and assembles the full [`Request`],
/// distinguishing a stalled client ([`ParseError::BodyTimeout`] → 408)
/// from one that hung up mid-body ([`ParseError::ShortBody`] → 400).
pub fn read_body(reader: &mut impl BufRead, head: RequestHead) -> Result<Request, ParseError> {
    let mut body = vec![0u8; head.content_length];
    if !body.is_empty() {
        reader.read_exact(&mut body).map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ParseError::BodyTimeout(e.to_string())
            }
            std::io::ErrorKind::UnexpectedEof => ParseError::ShortBody(e.to_string()),
            _ => ParseError::Read(e.to_string()),
        })?;
    }
    Ok(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
        keep_alive: head.keep_alive,
    })
}

/// Parses a complete HTTP/1.1 request (head plus `Content-Length` body)
/// from a buffered stream. `Ok(None)` is a clean end-of-stream. The
/// serving loop uses the split [`parse_head`] / [`read_body`] form so it
/// can arm the shorter body timeout in between; this convenience exists
/// for non-socket readers and tests.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
    match parse_head(reader)? {
        Some(head) => Ok(Some(read_body(reader, head)?)),
        None => Ok(None),
    }
}

/// The idle keep-alive timeout from `MAPRAT_KEEPALIVE_SECS`; `None`
/// means keep-alive is disabled (value `0`).
fn keepalive_timeout() -> Option<std::time::Duration> {
    match std::env::var("MAPRAT_KEEPALIVE_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(0) => None,
        Some(secs) => Some(std::time::Duration::from_secs(secs)),
        None => Some(std::time::Duration::from_secs(5)),
    }
}

/// The request handler signature.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A counting gate bounding how many requests are in flight at once.
///
/// The acceptor acquires a permit per connection and blocks when the
/// server is saturated — back-pressure lands in the TCP accept backlog
/// instead of an unbounded job queue. Permits release through the RAII
/// [`Permit`], so a panicking handler (caught by the pool) frees its slot
/// during unwinding and can never wedge the server.
struct Gate {
    max: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(max: usize) -> Arc<Gate> {
        Arc::new(Gate {
            max: max.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        })
    }

    /// Blocks until a slot frees up; returns `None` once `shutdown` is
    /// observed, so a saturated acceptor can still wind down promptly
    /// (the wait polls the flag — a shutdown needs no condvar kick).
    fn acquire(self: &Arc<Gate>, shutdown: &AtomicBool) -> Option<Permit> {
        let mut in_flight = self.in_flight.lock().unwrap();
        while *in_flight >= self.max {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(in_flight, std::time::Duration::from_millis(50))
                .unwrap();
            in_flight = guard;
        }
        *in_flight += 1;
        Some(Permit(Arc::clone(self)))
    }
}

/// An in-flight-request slot, returned to the [`Gate`] on drop.
struct Permit(Arc<Gate>);

impl Drop for Permit {
    fn drop(&mut self) {
        let mut in_flight = self.0.in_flight.lock().unwrap();
        *in_flight -= 1;
        self.0.freed.notify_one();
    }
}

/// A running server: one acceptor thread dispatching connections to the
/// shared worker pool under a bounded-concurrency gate.
pub struct HttpServer {
    port: u16,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `handler` with at most `max_in_flight` requests handled
    /// concurrently. Requests execute as shared-pool jobs — the server
    /// spawns only its acceptor thread.
    pub fn start(
        addr: &str,
        max_in_flight: usize,
        handler: Handler,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let port = listener.local_addr()?.port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let gate = Gate::new(max_in_flight);

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Some(permit) = gate.acquire(&shutdown) else {
                        break; // shutdown arrived while saturated
                    };
                    let handler = Arc::clone(&handler);
                    pool::global().spawn(move || {
                        serve_connection(stream, &handler);
                        drop(permit);
                    });
                }
            })
        };

        Ok(HttpServer {
            port,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests shutdown and joins the acceptor. Requests already
    /// dispatched to the pool finish on their own.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Kick the blocking accept with a dummy connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection: parse, handle, respond — looping while the
/// client keeps the connection alive. Read *and* write timeouts keep a
/// silent (or never-reading) client from pinning a pool worker (and its
/// permit) forever — a full kernel send buffer would otherwise block
/// `write_to` indefinitely. Between keep-alive requests the (shorter)
/// idle timeout applies; hitting it closes the connection silently, as
/// does a clean client EOF.
fn serve_connection(mut stream: TcpStream, handler: &Handler) {
    let idle_timeout = keepalive_timeout();
    // Request/response on one connection is latency-bound, not
    // bandwidth-bound: never let Nagle hold a response segment back.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut served_any = false;
    let head_timeout = |served: bool| {
        if served {
            idle_timeout
        } else {
            Some(std::time::Duration::from_secs(10))
        }
    };
    loop {
        let parsed = match parse_head(&mut reader) {
            Ok(Some(head)) => {
                // The head is in hand: the client now owes exactly
                // `Content-Length` more bytes, and gets only the (short)
                // body timeout to deliver them.
                if head.content_length() > 0 {
                    let _ = stream.set_read_timeout(Some(BODY_TIMEOUT));
                    let req = read_body(&mut reader, head);
                    let _ = stream.set_read_timeout(head_timeout(served_any));
                    req.map(Some)
                } else {
                    read_body(&mut reader, head).map(Some)
                }
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        };
        match parsed {
            Ok(Some(req)) => {
                let keep = req.keep_alive && idle_timeout.is_some();
                let response = handler(&req);
                if response.write_to(&mut stream, keep).is_err() || !keep {
                    return;
                }
                if !served_any {
                    // First response sent: subsequent reads wait at most
                    // the idle timeout (clones share the socket, so this
                    // applies to `reader` too).
                    let _ = stream.set_read_timeout(idle_timeout);
                    served_any = true;
                }
            }
            Ok(None) => return, // client closed an idle connection
            Err(e) => {
                // An idle-timeout between keep-alive requests is a normal
                // close; anything else earns a structured error response:
                // 408 for a client too slow to finish its declared body,
                // 431 for an oversized head, 400 for malformed or
                // truncated requests.
                let response = match &e {
                    ParseError::BodyTimeout(_) => Some(Response::error(408, e.to_string())),
                    ParseError::HeadTooLarge => Some(Response::error(431, e.to_string())),
                    ParseError::Malformed(_) | ParseError::ShortBody(_) => {
                        Some(Response::error(400, e.to_string()))
                    }
                    ParseError::Read(_) if served_any => None,
                    ParseError::Read(_) => Some(Response::error(400, e.to_string())),
                };
                if let Some(response) = response {
                    let _ = response.write_to(&mut stream, false);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(port: u16, target: &str) -> (u16, String) {
        // EOF-framed helper: ask the server to close after one response.
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let status: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    /// Reads one `Content-Length`-framed response off a persistent
    /// connection, returning (status, headers, body).
    fn read_framed(reader: &mut BufReader<TcpStream>) -> (u16, HashMap<String, String>, String) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut headers = HashMap::new();
        loop {
            let mut hline = String::new();
            reader.read_line(&mut hline).unwrap();
            let trimmed = hline.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                headers.insert(name.trim().to_lowercase(), value.trim().to_string());
            }
        }
        let len: usize = headers.get("content-length").unwrap().parse().unwrap();
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(reader, &mut body).unwrap();
        (status, headers, String::from_utf8(body).unwrap())
    }

    fn echo_server() -> HttpServer {
        HttpServer::start(
            "127.0.0.1:0",
            2,
            Arc::new(|req: &Request| {
                let q = req.param("q").unwrap_or("-");
                Response::json(format!("{{\"path\":\"{}\",\"q\":\"{}\"}}", req.path, q))
            }),
        )
        .unwrap()
    }

    #[test]
    fn serves_and_parses_query() {
        let server = echo_server();
        let (status, body) = get(server.port(), "/api/test?q=Toy%20Story&x=1");
        assert_eq!(status, 200);
        assert!(body.contains("\"q\":\"Toy Story\""));
        assert!(body.contains("\"path\":\"/api/test\""));
    }

    #[test]
    fn plus_decodes_to_space() {
        let server = echo_server();
        let (_, body) = get(server.port(), "/x?q=Tom+Hanks");
        assert!(body.contains("Tom Hanks"));
    }

    #[test]
    fn post_body_reaches_handler() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request| {
                Response::json(format!(
                    "{{\"method\":\"{}\",\"body\":\"{}\"}}",
                    req.method,
                    req.body_text()
                ))
            }),
        )
        .unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let body = "hello=world";
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: l\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        assert!(buf.contains("\"method\":\"POST\""));
        assert!(buf.contains("hello=world"));
    }

    #[test]
    fn oversized_body_rejected() {
        let server = echo_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn stalled_body_times_out_with_408() {
        let server = echo_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Declare 50 bytes, deliver 5, then go silent holding the
        // connection open: the body timeout (not the 10s head timeout)
        // must fire and answer 408.
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: l\r\nContent-Length: 50\r\n\r\nhello"
        )
        .unwrap();
        let start = std::time::Instant::now();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 408"), "{buf}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(8),
            "the short body timeout should fire well before the head timeout"
        );
    }

    #[test]
    fn truncated_body_is_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // Declare 50 bytes, deliver 5, then hang up: an EOF short of the
        // declared length is the client's error.
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: l\r\nContent-Length: 50\r\n\r\nhello"
        )
        .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert!(buf.contains("short body"), "{buf}");
    }

    #[test]
    fn slow_but_complete_body_is_served() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request| Response::json(format!("\"{}\"", req.body_text()))),
        )
        .unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        write!(
            stream,
            "POST /x HTTP/1.1\r\nHost: l\r\nConnection: close\r\nContent-Length: 10\r\n\r\nhello"
        )
        .unwrap();
        // A pause well inside the body timeout, then the rest.
        std::thread::sleep(std::time::Duration::from_millis(150));
        write!(stream, "world").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        assert!(buf.contains("helloworld"), "{buf}");
    }

    #[test]
    fn oversized_head_is_431_and_the_server_keeps_serving() {
        let server = echo_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        // One header line longer than the whole head allowance, sent in
        // full: the server must stop reading at the cap, not buffer it.
        let big = "a".repeat(MAX_HEAD_BYTES + 4096);
        write!(stream, "GET /x HTTP/1.1\r\nHost: l\r\nX-Big: {big}\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let (status, headers, body) = read_framed(&mut reader);
        assert_eq!(status, 431, "{body}");
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
        assert!(body.contains("request head exceeds"), "{body}");

        // A normal request on a fresh connection is served.
        let (status, body) = get(server.port(), "/after?q=ok");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"q\":\"ok\""), "{body}");
    }

    #[test]
    fn head_at_the_cap_is_accepted() {
        use std::io::Cursor;
        let prefix = "GET /x HTTP/1.1\r\nX-Pad: ";
        let suffix = "\r\n\r\n";
        let pad = "p".repeat(MAX_HEAD_BYTES - prefix.len() - suffix.len());
        let exact = format!("{prefix}{pad}{suffix}");
        assert_eq!(exact.len(), MAX_HEAD_BYTES);
        let head = parse_head(&mut Cursor::new(exact.as_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(head.headers.get("x-pad").map(String::len), Some(pad.len()));

        let over = format!("{prefix}{pad}p{suffix}");
        assert!(matches!(
            parse_head(&mut Cursor::new(over.as_bytes())),
            Err(ParseError::HeadTooLarge)
        ));
    }

    #[test]
    fn malformed_request_is_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        write!(stream, "GARBAGE\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let port = server.port();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let (status, body) = get(port, &format!("/t?q=v{i}"));
                    assert_eq!(status, 200);
                    assert!(body.contains(&format!("v{i}")));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn requests_beyond_the_gate_are_served_not_dropped() {
        // max_in_flight = 1: the gate serializes, nothing is rejected.
        let server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request| Response::json(format!("\"{}\"", req.param("q").unwrap()))),
        )
        .unwrap();
        let port = server.port();
        let handles: Vec<_> = (0..12)
            .map(|i| {
                std::thread::spawn(move || {
                    let (status, body) = get(port, &format!("/t?q=v{i}"));
                    assert_eq!(status, 200);
                    assert_eq!(body, format!("\"v{i}\""));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn panicking_handler_does_not_wedge_the_server() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &Request| {
                if req.path == "/boom" {
                    panic!("handler panic");
                }
                Response::json("\"ok\"".to_string())
            }),
        )
        .unwrap();
        // The panicking request drops its connection; the permit must be
        // released during unwinding, or (with max_in_flight = 1) every
        // later request would hang.
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        write!(stream, "GET /boom HTTP/1.1\r\nHost: l\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf); // empty: handler died
        for _ in 0..3 {
            let (status, body) = get(server.port(), "/fine");
            assert_eq!((status, body.as_str()), (200, "\"ok\""));
        }
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = echo_server();
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..5 {
            write!(writer, "GET /t?q=v{i} HTTP/1.1\r\nHost: l\r\n\r\n").unwrap();
            let (status, headers, body) = read_framed(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(
                headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
            assert!(body.contains(&format!("v{i}")), "{body}");
        }
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server();
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Both requests hit the socket before either response is read.
        write!(
            writer,
            "GET /a?q=first HTTP/1.1\r\nHost: l\r\n\r\nGET /b?q=second HTTP/1.1\r\nHost: l\r\n\r\n"
        )
        .unwrap();
        let (_, _, body1) = read_framed(&mut reader);
        let (_, _, body2) = read_framed(&mut reader);
        assert!(body1.contains("first"), "{body1}");
        assert!(body2.contains("second"), "{body2}");
    }

    #[test]
    fn connection_close_is_honored() {
        let server = echo_server();
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(
            writer,
            "GET /t?q=x HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, headers, _) = read_framed(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "server closed after the response");
    }

    #[test]
    fn http10_defaults_to_close() {
        let server = echo_server();
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(writer, "GET /t?q=x HTTP/1.0\r\nHost: l\r\n\r\n").unwrap();
        let (status, headers, _) = read_framed(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty());
    }

    #[test]
    fn custom_headers_are_emitted() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|_req: &Request| {
                Response::json("{}".to_string()).with_header("X-MapRat-Cache", "miss")
            }),
        )
        .unwrap();
        let stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write!(writer, "GET / HTTP/1.1\r\nHost: l\r\n\r\n").unwrap();
        let (_, headers, _) = read_framed(&mut reader);
        assert_eq!(
            headers.get("x-maprat-cache").map(String::as_str),
            Some("miss")
        );
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn parse_query_pairs() {
        let q = parse_query("a=1&b=&c&a=2");
        assert_eq!(q.get("a").map(String::as_str), Some("2"));
        assert_eq!(q.get("b").map(String::as_str), Some(""));
        assert_eq!(q.get("c").map(String::as_str), Some(""));
    }

    #[test]
    fn shutdown_is_prompt_even_when_saturated() {
        // Fill the gate with a client that sends nothing (its pool job
        // blocks reading; the permit stays held), queue one more
        // connection so the acceptor blocks in acquire(), then shut
        // down: the acceptor must notice the flag and exit promptly.
        let mut server = HttpServer::start(
            "127.0.0.1:0",
            1,
            Arc::new(|_req: &Request| Response::json("\"ok\"".to_string())),
        )
        .unwrap();
        let port = server.port();
        let _holder = TcpStream::connect(("127.0.0.1", port)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100)); // let it be accepted
        let _queued = TcpStream::connect(("127.0.0.1", port)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(100));

        let watchdog = std::thread::spawn(move || server.shutdown());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !watchdog.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "shutdown must not hang behind a saturated gate"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        watchdog.join().unwrap();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let port = server.port();
        server.shutdown();
        // After shutdown the acceptor is gone; connects may succeed at the
        // TCP level (backlog) but never get served. Just assert shutdown
        // returned and a follow-up shutdown is a no-op.
        server.shutdown();
        let _ = port;
    }
}
