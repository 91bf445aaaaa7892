//! The server under test as a child process, and the client side of its
//! HTTP/1.1 protocol (one request per connection, `Connection: close`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a single exchange may take before it counts as timed out.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// One HTTP exchange: connect, send, read to end of stream.  Returns the
/// status code and the response body.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, EXCHANGE_TIMEOUT)?;
    send(&mut stream, method, path, body)?;
    receive(&mut stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
    stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())
}

fn receive(stream: &mut TcpStream) -> io::Result<(u16, Vec<u8>)> {
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response has no header terminator"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    raw.drain(..head_end + 4);
    Ok((status, raw))
}

/// The raw (still JSON-escaped) contents of the `"value"` string member of
/// a `/query` response body.
pub fn value_slice(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"value\":\"";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let mut escaped = false;
    for (offset, &byte) in body[start..].iter().enumerate() {
        match byte {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some(&body[start..start + offset]),
            _ => {}
        }
    }
    None
}

/// FNV-1a, for comparing response values without keeping them.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A running `or-server`.  Dropping it kills the process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// From spawning the process to the first `200` from `/healthz`.
    pub setup_s: f64,
}

impl ServerProc {
    /// Start `binary` with its default flags on one database script and
    /// wait until `/healthz` answers.
    pub fn spawn(binary: &Path, db_script: &Path, log: &Path) -> Result<ServerProc, String> {
        let mut last_error = String::new();
        for _ in 0..5 {
            // an ephemeral port the kernel just handed out and took back
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("cannot find a free port: {e}"))?
                .port();
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let log_file =
                std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
            let started = Instant::now();
            let child = Command::new(binary)
                .arg("--addr")
                .arg(addr.to_string())
                .arg("--db")
                .arg(format!("bench={}", db_script.display()))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log_file)
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
            let mut server = ServerProc {
                child,
                addr,
                setup_s: 0.0,
            };
            match server.await_healthy(started) {
                Ok(()) => return Ok(server),
                Err(e) => last_error = e,
            }
        }
        let log_text = std::fs::read_to_string(log).unwrap_or_default();
        Err(format!("or-server did not start: {last_error}\n{log_text}"))
    }

    fn await_healthy(&mut self, started: Instant) -> Result<(), String> {
        let deadline = started + Duration::from_secs(120);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("exited early with {status}"));
            }
            // the listener binds before the database loads, so this
            // connects early and the request waits in the accept queue
            match exchange(self.addr, "GET", "/healthz", "") {
                Ok((200, _)) => {
                    self.setup_s = started.elapsed().as_secs_f64();
                    return Ok(());
                }
                Ok((status, _)) => return Err(format!("/healthz answered {status}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Err("no answer from /healthz".to_string())
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// `GET /stats`, parsed.
    pub fn stats(&self) -> Result<or_server::Json, String> {
        let (status, body) =
            exchange(self.addr, "GET", "/stats", "").map_err(|e| format!("/stats: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(format!("/stats answered {status}: {text}"));
        }
        or_server::Json::parse(&text).map_err(|e| format!("/stats: {e}"))
    }

    /// Graceful shutdown through `POST /shutdown`; kills the process if it
    /// has not exited within a few seconds.
    pub fn shutdown(mut self) {
        let _ = exchange(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps it
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
