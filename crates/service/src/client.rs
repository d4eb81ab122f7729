//! A blocking protocol client and a closed-loop load generator.
//!
//! The client frames responses by the protocol invariant: the *last* line
//! of every response starts with `OK`, `BUSY`, or `ERR`, so it reads lines
//! until one does. The load generator drives N connections in lock-step
//! closed loops (each issues its next request only after the previous
//! response lands) and aggregates latency/throughput — `repro service` and
//! the many-client service tests run on it.
//!
//! ## Retries
//!
//! [`Client::request_with_retry`] retries `BUSY` rejections and transient
//! transport failures (connection reset / broken pipe / EOF mid-response,
//! which is what a worker crash or server restart looks like from outside)
//! with capped exponential backoff plus deterministic jitter. Jitter draws
//! come from a seeded SplitMix64 counter, never from wall-clock entropy, so
//! a retry schedule is reproducible in tests.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ceci_query::splitmix64;

use crate::metrics::LatencyHistogram;

/// One response: all payload lines plus the terminal line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Payload lines (`STAT ...`, `| ...`), possibly empty.
    pub payload: Vec<String>,
    /// The terminal line (starts with `OK`, `BUSY`, or `ERR`).
    pub terminal: String,
}

impl Response {
    /// `true` when the terminal line starts with `OK`.
    pub fn is_ok(&self) -> bool {
        self.terminal.starts_with("OK")
    }

    /// `true` for a `BUSY` rejection.
    pub fn is_busy(&self) -> bool {
        self.terminal.starts_with("BUSY")
    }

    /// Extracts `key=value` fields from the terminal line (the `OK MATCH`
    /// / `OK LOADED` convention).
    pub fn field(&self, key: &str) -> Option<&str> {
        self.terminal
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// [`Response::field`] parsed as `u64`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }
}

fn terminal_line(line: &str) -> bool {
    line.starts_with("OK") || line.starts_with("BUSY") || line.starts_with("ERR")
}

/// Asynchronous server push (continuous-query deltas). Never terminal and
/// never part of a response payload; the client stashes these aside.
fn event_line(line: &str) -> bool {
    line.starts_with("EVENT ")
}

/// Retry policy for [`Client::request_with_retry`]: capped exponential
/// backoff with deterministic jitter in `[0.5, 1.5)`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay × 2^n` (pre-jitter)...
    pub base_delay: Duration,
    /// ...capped at this much (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the jitter draws; same seed, same schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0xCEC1,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let h = splitmix64(self.jitter_seed ^ splitmix64(attempt as u64));
        let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64; // [0.5, 1.5)
        exp.mul_f64(jitter)
    }
}

/// Is this transport error worth a reconnect-and-retry? Resets, broken
/// pipes, aborts, and mid-response EOF are what server-side worker crashes
/// and restarts look like from the client; read/write timeouts are what a
/// stalled peer looks like (`TimedOut` or `WouldBlock` depending on
/// platform); anything else (refused, bad address) is not transient.
fn transient_io_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// Outcome of [`Client::request_with_retry`].
#[derive(Clone, Debug)]
pub struct RetryOutcome {
    /// The final response (not `BUSY` unless retries ran out).
    pub response: Response,
    /// Total attempts made (≥ 1).
    pub attempts: u32,
    /// Reconnections performed after transient transport errors.
    pub reconnects: u32,
}

/// A blocking, single-connection protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Resolved peer address, kept for reconnects.
    peer: SocketAddr,
    /// Read/write timeout applied to the socket; survives reconnects.
    io_timeout: Option<Duration>,
    /// `EVENT ...` pushes received so far and not yet taken. The server may
    /// interleave them between responses on a connection with `REGISTER`ed
    /// continuous queries; `request` stashes them here instead of treating
    /// them as payload.
    events: Vec<String>,
}

impl Client {
    /// Connects to a running `ceci-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connects with a bound on the TCP handshake itself — a down-but-
    /// routable peer fails in `timeout` instead of the OS connect default
    /// (minutes). The address must resolve; the first resolved address is
    /// dialed.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr()?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            peer,
            io_timeout: None,
            events: Vec::new(),
        })
    }

    /// Sets (or clears, with `None`) the socket read/write timeout. A peer
    /// that accepts but never answers — stalled worker, half-open socket —
    /// then surfaces as `TimedOut`/`WouldBlock` instead of hanging the
    /// caller forever. The setting survives [`Client::reconnect`].
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// `EVENT` lines received so far and not yet [taken](Client::take_events).
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// Drains the stashed `EVENT` lines, oldest first.
    pub fn take_events(&mut self) -> Vec<String> {
        std::mem::take(&mut self.events)
    }

    /// Blocks until at least one `EVENT` line is available (serving a
    /// stashed one first) and returns the oldest. Use on a connection that
    /// issued `REGISTER` and is now waiting for mutation-driven deltas.
    pub fn wait_event(&mut self) -> std::io::Result<String> {
        loop {
            if !self.events.is_empty() {
                return Ok(self.events.remove(0));
            }
            let mut buf = String::new();
            let n = self.reader.read_line(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed while waiting for an event",
                ));
            }
            let line = buf.trim_end_matches(['\r', '\n']).to_string();
            if event_line(&line) {
                return Ok(line);
            }
            // A non-event line here is out-of-band for this client (no
            // request is in flight); drop it rather than corrupt state.
        }
    }

    /// Drops the current connection and dials the same peer again. Stashed
    /// events survive the reconnect; server-side continuous registrations
    /// bound to the old connection do not (their sink is gone).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let mut fresh = match self.io_timeout {
            Some(t) => Client::connect_with_timeout(self.peer, t)?,
            None => Client::connect(self.peer)?,
        };
        fresh.set_io_timeout(self.io_timeout)?;
        fresh.events = std::mem::take(&mut self.events);
        *self = fresh;
        Ok(())
    }

    /// [`Client::request`] with retry on `BUSY` and on transient transport
    /// errors (after reconnecting). Non-transient IO errors and `ERR`
    /// responses are returned immediately — `ERR` is a deterministic server
    /// answer, not a transient condition.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> std::io::Result<RetryOutcome> {
        let mut attempts = 0u32;
        let mut reconnects = 0u32;
        loop {
            attempts += 1;
            let retry_no = attempts - 1; // 0-based index of the *next* retry
            match self.request(line) {
                Ok(resp) if resp.is_busy() && retry_no < policy.max_retries => {
                    std::thread::sleep(policy.backoff(retry_no));
                }
                Ok(response) => {
                    return Ok(RetryOutcome {
                        response,
                        attempts,
                        reconnects,
                    })
                }
                Err(e) if transient_io_error(&e) && retry_no < policy.max_retries => {
                    std::thread::sleep(policy.backoff(retry_no));
                    self.reconnect()?;
                    reconnects += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request line and reads the full (possibly multi-line)
    /// response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut payload = Vec::new();
        loop {
            let mut buf = String::new();
            let n = self.reader.read_line(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            let line = buf.trim_end_matches(['\r', '\n']).to_string();
            if event_line(&line) {
                self.events.push(line);
                continue;
            }
            if terminal_line(&line) {
                return Ok(Response {
                    payload,
                    terminal: line,
                });
            }
            payload.push(line);
        }
    }
}

/// Load-generator configuration: `clients` closed loops, each issuing
/// `requests_per_client` copies of `request`.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub clients: usize,
    /// Requests per connection.
    pub requests_per_client: usize,
    /// The request line every client repeats (one shot: no retry).
    pub request: String,
    /// Think time between requests, per client loop, in milliseconds. With
    /// thousands of mostly-idle connections this is what keeps the *offered*
    /// load constant while the connection count scales (Little's law:
    /// `offered_rps ≈ clients × 1000 / think_ms`). Client loop `i` also
    /// staggers its first request by `i × think_ms / clients` so ramp-up
    /// spreads over one think interval instead of thundering in together.
    pub think_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            requests_per_client: 100,
            request: "PING".to_string(),
            think_ms: 0,
        }
    }
}

/// Aggregated load-generator outcome.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Responses whose terminal line started with `OK`.
    pub ok: u64,
    /// `BUSY` rejections (admission control working, not an error).
    pub busy: u64,
    /// `ERR` responses.
    pub err: u64,
    /// Transport failures (connect/read/write).
    pub io_errors: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Per-request latency over successful responses.
    pub latency: LatencyHistogram,
}

impl LoadReport {
    /// Completed requests (any response) per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let total = (self.ok + self.busy + self.err) as f64;
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            total / secs
        } else {
            0.0
        }
    }
}

#[derive(Default)]
struct Tallies {
    ok: std::sync::atomic::AtomicU64,
    busy: std::sync::atomic::AtomicU64,
    err: std::sync::atomic::AtomicU64,
    io_errors: std::sync::atomic::AtomicU64,
    latency: LatencyHistogram,
}

fn bump(c: &std::sync::atomic::AtomicU64, v: u64) {
    c.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
}

/// Dials `addr`, retrying briefly on transient connect failures. Opening
/// thousands of sockets at once can transiently exhaust the accept backlog
/// or ephemeral state; a refused/reset connect at ramp-up is congestion,
/// not a down server, so back off and try again a few times.
fn connect_patiently(addr: std::net::SocketAddr) -> std::io::Result<Client> {
    let mut delay = Duration::from_millis(5);
    for attempt in 0..6 {
        match Client::connect_with_timeout(addr, Duration::from_secs(2)) {
            Ok(c) => return Ok(c),
            Err(e) if attempt == 5 => return Err(e),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    unreachable!("loop returns on last attempt")
}

/// Runs the closed-loop workload against `addr` and aggregates the outcome.
pub fn run_load(addr: std::net::SocketAddr, config: &LoadConfig) -> LoadReport {
    let tallies = std::sync::Arc::new(Tallies::default());
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..config.clients {
        let loop_tallies = std::sync::Arc::clone(&tallies);
        let line = config.request.clone();
        let n = config.requests_per_client;
        let think = Duration::from_millis(config.think_ms);
        // Stagger client i's first request across one think interval.
        let stagger = Duration::from_millis(
            config.think_ms.saturating_mul(client_idx as u64) / config.clients.max(1) as u64,
        );
        // Default thread stacks are 2–8 MB of reserved address space; at
        // thousands of client loops that adds up. These loops recurse
        // nowhere, so a small fixed stack keeps a 10k-client run cheap.
        let builder = std::thread::Builder::new()
            .name(format!("ceci-load-{client_idx}"))
            .stack_size(256 * 1024);
        let spawned = builder.spawn(move || {
            let tallies = loop_tallies;
            let mut client = match connect_patiently(addr) {
                Ok(c) => c,
                Err(_) => {
                    bump(&tallies.io_errors, n as u64);
                    return;
                }
            };
            if !stagger.is_zero() {
                std::thread::sleep(stagger);
            }
            for req_idx in 0..n {
                if req_idx > 0 && !think.is_zero() {
                    std::thread::sleep(think);
                }
                let t = Instant::now();
                match client.request(&line) {
                    Ok(resp) if resp.is_ok() => {
                        tallies.latency.record(t.elapsed());
                        bump(&tallies.ok, 1);
                    }
                    Ok(resp) if resp.is_busy() => bump(&tallies.busy, 1),
                    Ok(_) => bump(&tallies.err, 1),
                    Err(_) => {
                        bump(&tallies.io_errors, 1);
                        return; // connection is unusable now
                    }
                }
            }
        });
        match spawned {
            Ok(h) => handles.push(h),
            Err(_) => bump(&tallies.io_errors, n as u64),
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let wall = t0.elapsed();
    let tallies = std::sync::Arc::try_unwrap(tallies)
        .unwrap_or_else(|_| panic!("load threads joined; no clones remain"));
    let g = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    LoadReport {
        ok: g(&tallies.ok),
        busy: g(&tallies.busy),
        err: g(&tallies.err),
        io_errors: g(&tallies.io_errors),
        wall,
        latency: tallies.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction() {
        let r = Response {
            payload: vec![],
            terminal: "OK MATCH count=42 status=OK cache=HIT build_us=0".to_string(),
        };
        assert!(r.is_ok());
        assert!(!r.is_busy());
        assert_eq!(r.field("count"), Some("42"));
        assert_eq!(r.field_u64("count"), Some(42));
        assert_eq!(r.field("cache"), Some("HIT"));
        assert_eq!(r.field("missing"), None);
    }

    #[test]
    fn terminal_detection() {
        assert!(terminal_line("OK PONG"));
        assert!(terminal_line("BUSY"));
        assert!(terminal_line("ERR nope"));
        assert!(!terminal_line("STAT requests_total 3"));
        assert!(!terminal_line("| plan line"));
    }

    #[test]
    fn event_lines_are_neither_terminal_nor_payload_shaped() {
        let ev = "EVENT DELTA query=q graph=g batch=3 new=2 retired=1 total=9";
        assert!(event_line(ev));
        assert!(!terminal_line(ev));
        assert!(!event_line("EVENTUALLY not an event"));
        assert!(!event_line("OK MATCH count=1"));
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::default();
        // Deterministic: same policy, same schedule.
        let q = RetryPolicy::default();
        for a in 0..8 {
            assert_eq!(p.backoff(a), q.backoff(a));
        }
        // Jitter keeps each delay within [0.5, 1.5)× the exponential value.
        for a in 0..8u32 {
            let raw = p
                .base_delay
                .saturating_mul(1 << a)
                .min(p.max_delay)
                .as_secs_f64();
            let b = p.backoff(a).as_secs_f64();
            assert!(b >= raw * 0.5 && b < raw * 1.5, "attempt {a}: {b} vs {raw}");
        }
        // The cap binds for large attempt numbers (pre-jitter ≤ max_delay).
        assert!(p.backoff(30) < p.max_delay.mul_f64(1.5));
        // Different seeds give different schedules.
        let r = RetryPolicy {
            jitter_seed: 99,
            ..RetryPolicy::default()
        };
        assert_ne!(p.backoff(1), r.backoff(1));
    }

    #[test]
    fn transient_error_classification() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::ConnectionAborted,
            ErrorKind::UnexpectedEof,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(transient_io_error(&Error::new(kind, "x")), "{kind:?}");
        }
        assert!(!transient_io_error(&Error::new(
            ErrorKind::ConnectionRefused,
            "down"
        )));
        assert!(!transient_io_error(&Error::new(
            ErrorKind::InvalidInput,
            "bad"
        )));
    }
}
