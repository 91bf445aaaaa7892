//! A minimal HTTP/1.1 server-side codec: parse one request from a stream,
//! write one response, close.  One request per connection keeps the
//! concurrency story trivial (no keep-alive pipelining state) — clients
//! that care about latency amortize elsewhere, and the thread pool absorbs
//! the connection churn.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed HTTP request: method, path, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Largest accepted request body; bigger requests are rejected rather than
/// buffered (a statement that big is not a query, it is a mistake).
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted request head (request line plus headers).  The head is
/// read through a byte cap, so a client trickling an endless line can
/// neither grow the server's memory nor hold a worker past this many bytes.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// Read and parse one request from the stream.  `Err` means the connection
/// is unusable (malformed request line, oversized head or body, IO error)
/// and should just be dropped after a `400`.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64));
    let mut request_line = String::new();
    read_head_line(&mut reader, &mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let path = target
        .split_once('?')
        .map(|(p, _)| p.to_string())
        .unwrap_or(target);

    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        read_head_line(&mut reader, &mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    // the head cap no longer applies: the body is bounded by its length
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Read one line of the request head.  A line cut short by the
/// [`MAX_HEAD_BYTES`] cap (no newline, cap exhausted) is an error, not a
/// truncated header.
fn read_head_line(
    reader: &mut BufReader<io::Take<&mut TcpStream>>,
    line: &mut String,
) -> io::Result<()> {
    reader.read_line(line)?;
    if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request head too large",
        ));
    }
    Ok(())
}

/// Write one `application/json` response and flush.  `Connection: close`
/// matches the one-request-per-connection policy.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_a_posted_body_and_writes_a_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let body = r#"{"db":"d"}"#;
            let request = format!(
                "POST /query?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            stream.write_all(request.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        let (mut stream, _) = listener.accept().unwrap();
        let request = read_request(&mut stream).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/query");
        assert_eq!(request.body, r#"{"db":"d"}"#);
        write_response(&mut stream, 200, r#"{"ok":true}"#).unwrap();
        drop(stream);
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.ends_with(r#"{"ok":true}"#), "{response}");
    }

    #[test]
    fn an_oversized_header_line_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let header = "a".repeat(100 << 10);
            let request = format!("GET /healthz HTTP/1.1\r\nX-Big: {header}\r\n\r\n");
            // the server stops reading at the cap and closes, so the tail
            // of this write may fail; only the server's verdict matters
            let _ = stream.write_all(request.as_bytes());
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        drop(stream);
        client.join().unwrap();
    }
}
