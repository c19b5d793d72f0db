//! A minimal HTTP/1.1 client for `Connection: close` JSON exchanges —
//! the counterpart of the server's private `http` reader.
//!
//! Shared by the shard router (request relay, health probes, metrics
//! fan-out) and the `dynex-load` harness. Speaks exactly the dialect the
//! service emits: one request per connection, a status line, headers
//! terminated by a blank line, and a `Content-Length`-framed body (read to
//! EOF when the header is absent). Everything else is rejected loudly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest accepted status or header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per response.
const MAX_HEADERS: usize = 64;
/// Largest accepted response body, in bytes. Larger than the server's
/// request-body cap because merged `/metrics` bodies carry histograms.
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The numeric status code.
    pub status: u16,
    /// The `X-Dynex-Trace` header value, when the server sent one.
    pub trace: Option<String>,
    /// The response body.
    pub body: String,
}

/// Reads one CRLF-terminated head line, rejecting oversized lines.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-response".to_owned()),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(format!("response header line exceeds {MAX_LINE} bytes"));
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| "response header line is not UTF-8".to_owned())
}

/// Performs one request/response round trip against `addr`.
///
/// `timeout` bounds the connect and each socket read/write individually (a
/// stalled peer cannot wedge the caller for more than one timeout per
/// read). Errors are human-readable transport/framing messages; HTTP error
/// statuses are *not* errors — the caller inspects [`HttpResponse::status`].
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts on {addr}: {e}"))?;

    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write to {addr}: {e}"))?;

    let mut reader = BufReader::new(stream);
    let status_line = read_head_line(&mut reader)?;
    let mut parts = status_line.split_whitespace();
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return Err(format!("bad status line {status_line:?}")),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("status line {status_line:?} has no status code"))?;

    let mut content_length: Option<usize> = None;
    let mut trace = None;
    let mut saw_blank = false;
    for _ in 0..=MAX_HEADERS {
        let line = read_head_line(&mut reader)?;
        if line.is_empty() {
            saw_blank = true;
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed response header {line:?}"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = Some(value.parse().ok().filter(|&n| n <= MAX_BODY).ok_or_else(
                || format!("bad content-length {value:?} (integer up to {MAX_BODY})"),
            )?);
        } else if name == "x-dynex-trace" {
            trace = Some(value.to_owned());
        } else if name == "transfer-encoding" {
            return Err("chunked transfer encoding is not supported".to_owned());
        }
    }
    if !saw_blank {
        return Err(format!("more than {MAX_HEADERS} response headers"));
    }

    let body = match content_length {
        Some(length) => {
            let mut buffer = vec![0u8; length];
            reader
                .read_exact(&mut buffer)
                .map_err(|e| format!("short response body (wanted {length} bytes): {e}"))?;
            String::from_utf8(buffer).map_err(|_| "response body is not UTF-8".to_owned())?
        }
        None => {
            // Connection: close framing — the body runs to EOF.
            let mut buffer = String::new();
            reader
                .take(MAX_BODY as u64 + 1)
                .read_to_string(&mut buffer)
                .map_err(|e| format!("read response body: {e}"))?;
            if buffer.len() > MAX_BODY {
                return Err(format!("response body exceeds {MAX_BODY} bytes"));
            }
            buffer
        }
    };
    Ok(HttpResponse {
        status,
        trace,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `raw` bytes to one connection, discarding the request.
    fn serve_once(raw: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the request head so the client's write never blocks.
            let mut discard = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut discard);
            stream.write_all(raw.as_bytes()).unwrap();
        });
        addr
    }

    fn call_it(raw: &'static str) -> Result<HttpResponse, String> {
        call(serve_once(raw), "GET", "/x", "", Duration::from_secs(5))
    }

    #[test]
    fn parses_a_framed_response_with_trace_header() {
        let response = call_it(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             X-Dynex-Trace: 00c0ffee00c0ffee\r\nConnection: close\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.trace.as_deref(), Some("00c0ffee00c0ffee"));
        assert_eq!(response.body, "{}");
    }

    #[test]
    fn reads_to_eof_without_content_length() {
        let response = call_it("HTTP/1.1 503 Service Unavailable\r\n\r\nbody-to-eof").unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.trace, None);
        assert_eq!(response.body, "body-to-eof");
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(call_it("ICMP nope\r\n\r\n")
            .unwrap_err()
            .contains("bad status line"));
        assert!(call_it("HTTP/1.1 OK\r\n\r\n")
            .unwrap_err()
            .contains("no status code"));
        assert!(call_it("HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n")
            .unwrap_err()
            .contains("bad content-length"));
        assert!(
            call_it("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap_err()
                .contains("short response body")
        );
    }

    #[test]
    fn connect_refused_is_an_error() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let err = call(addr, "GET", "/x", "", Duration::from_millis(500)).unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }
}
