//! The load generators: an open loop that sends on a Poisson schedule and
//! a closed loop whose clients each wait for their reply.  Both use at
//! most `conns` client threads, each with one connection at a time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::gen::Request;
use crate::http::{exchange, fnv, value_slice};

/// What came back for one request.  Only a hash of the value is kept, so
/// a run with large answers stays small.
#[derive(Debug, Clone)]
pub enum Reply {
    /// `200` with the hash of the JSON-escaped value.
    Ok { value_hash: u64 },
    /// Anything else: a non-200 status, a transport error, a bad body.
    Failed(String),
}

impl Reply {
    pub fn from_exchange(result: std::io::Result<(u16, Vec<u8>)>) -> Reply {
        match result {
            Ok((200, body)) => match value_slice(&body) {
                Some(value) => Reply::Ok {
                    value_hash: fnv(value),
                },
                None => Reply::Failed("200 without a value".to_string()),
            },
            Ok((status, body)) => {
                let text = String::from_utf8_lossy(&body);
                Reply::Failed(format!(
                    "{status}: {}",
                    text.chars().take(300).collect::<String>()
                ))
            }
            Err(e) => Reply::Failed(e.to_string()),
        }
    }
}

/// One request's record.  Times are seconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Sample {
    pub request: Request,
    /// When the schedule said to send it (the send time in a closed loop).
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// How late the generator itself sent it: send time minus the later of
    /// its due time and the moment a connection was free.
    pub lag: f64,
    pub reply: Reply,
}

impl Sample {
    /// Latency from when the request was due, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Send `requests[i]` at `start + due[i]` seconds, from `conns` threads.
/// A request that comes due while every connection is busy waits, and the
/// wait counts toward its latency.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    due: &[f64],
    conns: usize,
    epoch: Instant,
) -> Vec<Sample> {
    let start = since(epoch);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests.len() {
                    break;
                }
                let free = since(epoch);
                let body = requests[i].body();
                let due_at = start + due[i];
                let now = since(epoch);
                if due_at > now {
                    std::thread::sleep(Duration::from_secs_f64(due_at - now));
                }
                let sent = since(epoch);
                let result = exchange(addr, "POST", "/query", &body);
                let done = since(epoch);
                let sample = Sample {
                    request: requests[i].clone(),
                    due: due_at,
                    sent,
                    done,
                    lag: sent - due_at.max(free),
                    reply: Reply::from_exchange(result),
                };
                samples.lock().unwrap().push(sample);
            });
        }
    });
    samples.into_inner().unwrap()
}

/// `conns` clients each send their next request only after the previous
/// reply, for `seconds`.  Request indices continue from `first`.  Returns
/// the samples and the phase's wall time in seconds.
pub fn closed_loop(
    addr: SocketAddr,
    request: &(dyn Fn(u64) -> Request + Sync),
    first: u64,
    seconds: f64,
    conns: usize,
    epoch: Instant,
) -> (Vec<Sample>, f64) {
    let start = since(epoch);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                while since(epoch) - start < seconds {
                    let i = first + next.fetch_add(1, Ordering::Relaxed) as u64;
                    let request = request(i);
                    let body = request.body();
                    let sent = since(epoch);
                    let result = exchange(addr, "POST", "/query", &body);
                    let done = since(epoch);
                    let sample = Sample {
                        request,
                        due: sent,
                        sent,
                        done,
                        lag: 0.0,
                        reply: Reply::from_exchange(result),
                    };
                    samples.lock().unwrap().push(sample);
                }
            });
        }
    });
    let samples = samples.into_inner().unwrap();
    let end = samples.iter().map(|s| s.done).fold(start, f64::max);
    (samples, end - start)
}
