//! A minimal HTTP/1.1 front end over [`Service`] using only `std::net`.
//!
//! One request per connection (`Connection: close`), bodies delimited by
//! `Content-Length`. Routes:
//!
//! * `POST /simulate` — a [`crate::request::SimRequest`] body; responds
//!   200 (success), 400 (malformed request), 422 (structured simulation
//!   error), 429/503 (shed, with `Retry-After`), 500/504 (supervision
//!   exhausted, structured body). Success responses carry `X-Cache:
//!   HIT|MISS`; bodies are byte-identical either way.
//! * `GET /healthz` — `200 ok` (or `503 draining`).
//! * `GET /stats` — service counters as JSON.
//! * `POST /admin/drain` — stop admitting (graceful drain), then answer
//!   the caller.
//!
//! Concurrency: one handler thread per connection. The admission gates
//! bound simulation work; the tiny header parser bounds everything else
//! (16 KiB of headers, 1 MiB of body), so a slow or hostile client costs
//! one blocked thread, not the service.

use crate::request::SimRequest;
use crate::service::{Response, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// The running HTTP server.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `service` until [`HttpServer::stop`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve(addr: &str, service: Arc<Service>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            // Blocking accept. `stop` sets the flag and then wakes this
            // loop with a throwaway connection, so checking the flag after
            // every accept is enough to observe it.
            loop {
                let accepted = listener.accept();
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        let svc = Arc::clone(&service);
                        std::thread::spawn(move || handle_connection(stream, &svc));
                    }
                    // A real accept failure (EMFILE and the like) would
                    // recur at once; back off briefly instead of spinning.
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                }
            }
        });
        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting; in-flight handlers finish on their own threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one `\n`-terminated line, accumulating at most `cap` bytes. The
/// cap is enforced *while reading*, not after: a hostile client streaming
/// an endless line without a terminator gets an error at `cap` bytes
/// instead of growing the buffer without bound.
fn read_line_bounded<R: BufRead>(reader: &mut R, cap: usize) -> Result<String, String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(|e| e.to_string())?;
        if buf.is_empty() {
            break; // EOF mid-line: return what arrived.
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if line.len() + take > cap {
            return Err("headers too large".into());
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| "header is not UTF-8".to_string())
}

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line_bounded(&mut reader, MAX_HEADER_BYTES)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut content_length = 0usize;
    let mut header_bytes = request_line.len();
    loop {
        let line = read_line_bounded(&mut reader, MAX_HEADER_BYTES - header_bytes)?;
        if line.is_empty() {
            return Err("connection closed before end of headers".into());
        }
        header_bytes += line.len();
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad content-length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body larger than {MAX_BODY_BYTES} bytes"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&str, String)],
) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_text(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_json(kind: &str, message: &str) -> String {
    crate::json::Json::Obj(vec![(
        "error".into(),
        crate::json::Json::Obj(vec![
            ("kind".into(), crate::json::Json::Str(kind.into())),
            ("message".into(), crate::json::Json::Str(message.into())),
        ]),
    )])
    .render()
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            write_response(&mut stream, 400, &error_json("bad_request", &e), &[]);
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/simulate") => {
            let req = match SimRequest::from_json(&request.body) {
                Ok(r) => r,
                Err(e) => {
                    write_response(&mut stream, 400, &error_json("bad_request", &e), &[]);
                    return;
                }
            };
            let Response {
                status,
                body,
                cached,
                retry_after,
            } = service.submit(req);
            let mut headers: Vec<(&str, String)> = Vec::new();
            if status == 200 {
                headers.push(("X-Cache", if cached { "HIT" } else { "MISS" }.to_string()));
            }
            if let Some(s) = retry_after {
                headers.push(("Retry-After", s.to_string()));
            }
            write_response(&mut stream, status, &body, &headers);
        }
        ("GET", "/healthz") => {
            if service.draining() {
                write_response(&mut stream, 503, "{\"status\":\"draining\"}", &[]);
            } else {
                write_response(&mut stream, 200, "{\"status\":\"ok\"}", &[]);
            }
        }
        ("GET", "/stats") => {
            write_response(&mut stream, 200, &service.stats_json().render(), &[]);
        }
        ("POST", "/admin/drain") => {
            service.start_drain();
            write_response(&mut stream, 200, "{\"status\":\"draining\"}", &[]);
        }
        (_, "/simulate" | "/healthz" | "/stats" | "/admin/drain") => {
            write_response(
                &mut stream,
                405,
                &error_json("method_not_allowed", "wrong method for this path"),
                &[],
            );
        }
        _ => {
            write_response(&mut stream, 404, &error_json("not_found", "no such route"), &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_line_bounded_caps_unterminated_lines() {
        // 100 KiB with no newline: the error must fire at the cap, long
        // before the whole stream is buffered.
        let junk = vec![b'a'; 100_000];
        let mut r = BufReader::new(&junk[..]);
        assert!(read_line_bounded(&mut r, MAX_HEADER_BYTES).is_err());

        let mut r = BufReader::new(&b"hello\nworld\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "hello\n");
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "world\n");
        // EOF with no data: empty line.
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "");

        // A line exactly at the cap passes; one byte over fails.
        let mut r = BufReader::new(&b"abcd\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 5).unwrap(), "abcd\n");
        let mut r = BufReader::new(&b"abcd\n"[..]);
        assert!(read_line_bounded(&mut r, 4).is_err());
    }
}

/// A tiny blocking HTTP client for the load generator and tests.
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// A parsed response.
    #[derive(Debug, Clone)]
    pub struct HttpResponse {
        pub status: u16,
        pub body: String,
        /// `X-Cache` header value, if present.
        pub x_cache: Option<String>,
        /// `Retry-After` header value, if present.
        pub retry_after: Option<u64>,
    }

    /// POST `body` to `path`, returning the parsed response.
    ///
    /// # Errors
    ///
    /// A description of the transport failure.
    pub fn post(addr: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
        request(addr, "POST", path, body)
    }

    /// GET `path`.
    ///
    /// # Errors
    ///
    /// A description of the transport failure.
    pub fn get(addr: &str, path: &str) -> Result<HttpResponse, String> {
        request(addr, "GET", path, "")
    }

    fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
        stream.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).map_err(|e| e.to_string())?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", status_line.trim()))?;
        let mut content_length = 0usize;
        let mut x_cache = None;
        let mut retry_after = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| "bad content-length")?;
                } else if name.eq_ignore_ascii_case("x-cache") {
                    x_cache = Some(value.to_string());
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        Ok(HttpResponse {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
            x_cache,
            retry_after,
        })
    }
}
