//! Event-driven server core: a single epoll readiness loop owning every
//! client connection as a buffered state machine, so 10k+ mostly-idle
//! connections (dashboards, continuous-query subscribers, think-time
//! clients) no longer pin one thread each.
//!
//! ## Shape
//!
//! * The loop thread (`ceci-loop`) owns the nonblocking listener, a wakeup
//!   `eventfd`, and one [`Conn`] per client. This module is IO only: it
//!   feeds the bytes it reads to the connection's sans-IO state machine
//!   ([`LineConn`]), dispatches the frames that come out, queues the
//!   write-out, and sets epoll interest from the state machine's answers.
//! * **Control-plane** verbs run inline on the loop thread (they are cheap
//!   by construction). **Data-plane** verbs are submitted to the bounded
//!   [`WorkerPool`](crate::pool::WorkerPool) with one request in flight per
//!   connection; the worker pushes its response into
//!   [`LoopShared::completions`] and wakes the loop via the eventfd.
//! * Responses and pushed `EVENT` lines go through a bounded per-connection
//!   byte queue ([`QueuedSink`]). Backpressure degrades before memory does:
//!   a full worker queue answers `BUSY`, a reader that stops draining its
//!   socket overflows its write queue and is disconnected
//!   (`slow_reader_disconnects`), and accepts beyond
//!   [`ServeConfig::max_conns`](crate::ServeConfig) are refused with `BUSY`.
//! * While a request is in flight, pipelined input is parked in the state
//!   machine; once it stops asking for input the connection's `EPOLLIN`
//!   interest is dropped (level-triggered epoll re-arms it once the request
//!   completes), so a firehose client cannot balloon the buffer.
//!
//! The per-connection state machine and the backpressure ladder are
//! documented in DESIGN.md ("Event-driven server core").

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::conn::LineConn;
use crate::metrics::ServerMetrics;
use crate::pool::{Admission, Completion, PoolHandle};
use crate::protocol::{ErrorCode, Request};
use crate::server::{route, DataJob, Routed, ServerState};

/// Token of the listening socket in the epoll interest set.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wakeup eventfd.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Per-connection write-queue cap in bytes; overflowing it marks the
/// connection a slow reader and disconnects it.
const WRITE_QUEUE_CAP: usize = 256 * 1024;
/// Bytes read per `read(2)` call.
const READ_CHUNK: usize = 4096;

/// Locks a mutex, recovering from poisoning instead of panicking: every
/// protected structure here (write queues, completion lists, registration
/// maps) stays internally consistent across a panic, and propagating the
/// poison would turn one caught worker panic into a dead server.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thin RAII wrapper over an epoll instance.
struct Poller {
    epfd: libc::c_int,
}

impl Poller {
    fn new() -> std::io::Result<Poller> {
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: libc::c_int,
        fd: libc::c_int,
        token: u64,
        events: u32,
    ) -> std::io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: libc::c_int, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: libc::c_int, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, events)
    }

    fn delete(&self, fd: libc::c_int) {
        let rc =
            unsafe { libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        let _ = rc; // best-effort: the fd is about to be closed anyway
    }

    /// Waits for readiness; returns the number of events filled. `EINTR`
    /// surfaces as `Ok(0)` (the loop re-checks `stopping` and re-waits).
    fn wait(&self, events: &mut [libc::epoll_event], timeout_ms: i32) -> usize {
        let n = unsafe {
            libc::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as libc::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.epfd);
        }
    }
}

/// The wakeup eventfd: worker completions, queued-sink writes from other
/// threads, and shutdown all write 8 bytes here to interrupt `epoll_wait`.
struct WakeFd {
    fd: libc::c_int,
}

impl WakeFd {
    fn new() -> std::io::Result<WakeFd> {
        let fd = unsafe { libc::eventfd(0, libc::EFD_NONBLOCK | libc::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    fn wake(&self) {
        let one: u64 = 1;
        // Failure modes are a full counter (the loop is already signalled)
        // or a closed fd (the loop is gone); both are safe to ignore.
        unsafe {
            libc::write(self.fd, &one as *const u64 as *const libc::c_void, 8);
        }
    }

    fn drain(&self) {
        let mut counter: u64 = 0;
        unsafe {
            libc::read(self.fd, &mut counter as *mut u64 as *mut libc::c_void, 8);
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.fd);
        }
    }
}

// An eventfd is just an i32; reads/writes from any thread are the point.
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

/// State shared between the loop thread and everyone who needs to reach it:
/// pool workers delivering completions, other threads pushing `EVENT` lines
/// into queued sinks, and shutdown.
pub(crate) struct LoopShared {
    wake: WakeFd,
    /// `(connection token, response lines)` pairs from finished pool jobs.
    completions: Mutex<Vec<(u64, Vec<String>)>>,
    /// Tokens whose queued sink received new bytes and needs a flush.
    dirty: Mutex<Vec<u64>>,
}

impl LoopShared {
    fn new() -> std::io::Result<Arc<LoopShared>> {
        Ok(Arc::new(LoopShared {
            wake: WakeFd::new()?,
            completions: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
        }))
    }

    /// Interrupts `epoll_wait` (used by shutdown and by sink writers).
    pub(crate) fn wake(&self) {
        self.wake.wake();
    }

    fn push_completion(&self, token: u64, lines: Vec<String>) {
        lock_recover(&self.completions).push((token, lines));
        self.wake();
    }

    fn push_dirty(&self, token: u64) {
        lock_recover(&self.dirty).push(token);
        self.wake();
    }

    fn take_completions(&self) -> Vec<(u64, Vec<String>)> {
        std::mem::take(&mut *lock_recover(&self.completions))
    }

    fn take_dirty(&self) -> Vec<u64> {
        let mut tokens = std::mem::take(&mut *lock_recover(&self.dirty));
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }
}

/// A connection's response sink: a bounded byte queue drained by the loop
/// thread. Any thread may append (worker completions, `EVENT` fan-out from
/// mutation jobs); appends past `cap` mark the connection overflowed and it
/// is disconnected rather than buffered without bound. Whole responses (and
/// whole events) are appended atomically, so an `EVENT` line can interleave
/// *between* responses but never inside one.
pub struct QueuedSink {
    token: u64,
    cap: usize,
    buf: Mutex<VecDeque<u8>>,
    closed: AtomicBool,
    overflowed: AtomicBool,
    shared: Arc<LoopShared>,
}

/// The response sink of one client connection, shared (`Arc`) so
/// continuous-query events can be pushed to it from mutation jobs on other
/// threads.
pub(crate) type SharedWriter = Arc<QueuedSink>;

impl QueuedSink {
    fn new(token: u64, cap: usize, shared: Arc<LoopShared>) -> SharedWriter {
        Arc::new(QueuedSink {
            token,
            cap,
            buf: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            overflowed: AtomicBool::new(false),
            shared,
        })
    }

    /// Writes one whole response (or event) atomically. An error means the
    /// connection is effectively dead (closed, or its write queue
    /// overflowed) — callers drop the connection or registration.
    pub(crate) fn write_lines(&self, lines: &[String]) -> std::io::Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        let added: usize = lines.iter().map(|l| l.len() + 1).sum();
        {
            let mut buf = lock_recover(&self.buf);
            if buf.len() + added > self.cap {
                // Slow reader: the socket stopped draining while responses
                // or events kept queueing. Mark it; the loop disconnects.
                self.overflowed.store(true, Ordering::Release);
                self.closed.store(true, Ordering::Release);
                drop(buf);
                self.shared.push_dirty(self.token);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "per-connection write queue overflow",
                ));
            }
            for l in lines {
                buf.extend(l.as_bytes());
                buf.push_back(b'\n');
            }
        }
        self.shared.push_dirty(self.token);
        Ok(())
    }

    fn has_pending(&self) -> bool {
        !lock_recover(&self.buf).is_empty()
    }
}

/// One connection, owned by the loop thread: its socket, its output queue,
/// and its protocol state.
struct Conn {
    stream: TcpStream,
    sink: SharedWriter,
    line: LineConn,
    /// Currently registered epoll interest bits.
    interest: u32,
}

/// Outcome of one socket-flush attempt.
enum Flush {
    /// Queue fully drained.
    Drained,
    /// Socket would block with bytes still queued (needs `EPOLLOUT`).
    Pending,
    /// Socket error or EOF on write: the connection is dead.
    Dead,
    /// The sink overflowed its byte cap (slow reader).
    Overflowed,
}

/// The epoll readiness loop. Built on the caller's thread (so bind/epoll
/// setup errors surface synchronously from `start`), then moved onto the
/// dedicated `ceci-loop` thread and run to completion.
pub(crate) struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: PoolHandle,
    shared: Arc<LoopShared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    pub(crate) fn new(
        listener: TcpListener,
        state: Arc<ServerState>,
        pool: PoolHandle,
    ) -> std::io::Result<(EventLoop, Arc<LoopShared>)> {
        listener.set_nonblocking(true)?;
        let shared = LoopShared::new()?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, libc::EPOLLIN)?;
        poller.add(shared.wake.fd, TOKEN_WAKE, libc::EPOLLIN)?;
        Ok((
            EventLoop {
                poller,
                listener,
                state,
                pool,
                shared: Arc::clone(&shared),
                conns: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
            },
            shared,
        ))
    }

    /// Runs until [`ServerState::stopping`] is observed (the shutdown path
    /// sets it and wakes the eventfd).
    pub(crate) fn run(mut self) {
        let mut events = vec![libc::epoll_event::default(); 256];
        // The wait timeout doubles as the idle-sweep tick; keep it a small
        // fraction of the io timeout so expiry is reasonably prompt.
        let tick_ms: i32 = if self.state.config().io_timeout_ms > 0 {
            (self.state.config().io_timeout_ms / 4).clamp(10, 1_000) as i32
        } else {
            500
        };
        loop {
            let n = self.poller.wait(&mut events, tick_ms);
            if self.state.stopping.load(Ordering::SeqCst) {
                break;
            }
            let mut readable: Vec<u64> = Vec::new();
            let mut writable: Vec<u64> = Vec::new();
            let mut errored: Vec<u64> = Vec::new();
            for ev in &events[..n] {
                // Copy out of the (packed) struct before matching.
                let token = ev.u64;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    t => {
                        if bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                            errored.push(t);
                        } else {
                            if bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0 {
                                readable.push(t);
                            }
                            if bits & libc::EPOLLOUT != 0 {
                                writable.push(t);
                            }
                        }
                    }
                }
            }
            for t in errored {
                self.disconnect(t);
            }
            for t in readable {
                self.read_ready(t);
            }
            for t in writable {
                self.flush_token(t);
            }
            self.drain_completions();
            self.drain_dirty();
            self.sweep_idle();
        }
        // Teardown: mark every sink closed so in-flight jobs and later
        // EVENT pushes fail fast, then drop the sockets.
        for (_, conn) in self.conns.drain() {
            conn.sink.closed.store(true, Ordering::Release);
            ServerMetrics::dec(&self.state.metrics.connections_open);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.state.config().max_conns {
                        // Over the connection cap: refuse with BUSY instead
                        // of letting accepted-but-unserviced sockets pile up.
                        ServerMetrics::inc(&self.state.metrics.connections_rejected);
                        let mut s = stream;
                        let _ = s.write_all(b"BUSY\n");
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = libc::EPOLLIN | libc::EPOLLRDHUP;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, interest)
                        .is_err()
                    {
                        continue;
                    }
                    let sink = QueuedSink::new(token, WRITE_QUEUE_CAP, Arc::clone(&self.shared));
                    ServerMetrics::inc(&self.state.metrics.connections_accepted);
                    ServerMetrics::inc(&self.state.metrics.connections_open);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            sink,
                            line: LineConn::new(Instant::now()),
                            interest,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.line.wants_read() {
                break; // interest update below drops EPOLLIN
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.line.feed_eof();
                    break;
                }
                Ok(n) => conn.line.feed(&chunk[..n], Instant::now()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.disconnect(token);
                    return;
                }
            }
        }
        self.process_lines(token);
        self.update_interest(token);
        self.maybe_close(token);
    }

    /// Dispatches the frames the connection's state machine releases; it
    /// stops releasing them at the first data-plane request (one in flight
    /// per connection keeps responses in request order).
    fn process_lines(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(frame) = conn.line.next_frame() else {
                return;
            };
            let request = match frame.request() {
                Ok(None) => continue,
                Ok(Some(r)) => r,
                Err(reply) => {
                    ServerMetrics::inc(&self.state.metrics.errors);
                    if conn.sink.write_lines(&[reply]).is_err() {
                        self.slow_reader(token);
                        return;
                    }
                    continue;
                }
            };
            ServerMetrics::inc(&self.state.metrics.requests);
            let quit = matches!(request, Request::Quit);
            match route(request, &self.state, &conn.sink) {
                Routed::Inline(lines) => {
                    if quit {
                        conn.line.close_after_drain();
                    }
                    if conn.sink.write_lines(&lines).is_err() {
                        self.slow_reader(token);
                        return;
                    }
                }
                // In flight, or an inline BUSY: either way the state
                // machine decides whether another frame comes out.
                Routed::Data(job) => self.submit_data(token, job),
            }
        }
    }

    /// Submits a routed data-plane job to the pool with this connection's
    /// token; the completion guard delivers response lines back through
    /// [`LoopShared`] exactly once, even if the worker panics mid-job.
    fn submit_data(&mut self, token: u64, job: DataJob) {
        let shared = Arc::clone(&self.shared);
        let panic_shared = Arc::clone(&self.shared);
        let state = Arc::clone(&self.state);
        let panic_state = Arc::clone(&self.state);
        let submitted = Instant::now();
        let admitted = self.pool.submit(Box::new(move || {
            // Armed only once the job actually runs: a rejected submission
            // drops this closure un-run and must not fire the panic path.
            let completion = Completion::new(
                move |lines| shared.push_completion(token, lines),
                move || {
                    ServerMetrics::inc(&panic_state.metrics.worker_drops);
                    ServerMetrics::inc(&panic_state.metrics.errors);
                    panic_shared.push_completion(
                        token,
                        vec![ErrorCode::WorkerDropped.line(
                            "worker panicked while handling this request (worker respawned)",
                        )],
                    );
                },
            );
            let queue_wait = submitted.elapsed();
            let stall = state.chaos_stall_ms.load(Ordering::SeqCst);
            if stall > 0 {
                std::thread::sleep(Duration::from_millis(stall));
            }
            let lines = job(&state, queue_wait);
            completion.deliver(lines);
        }));
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match admitted {
            Admission::Accepted => conn.line.begin(),
            Admission::Rejected => {
                ServerMetrics::inc(&self.state.metrics.rejected_busy);
                if conn.sink.write_lines(&[String::from("BUSY")]).is_err() {
                    self.slow_reader(token);
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        for (token, lines) in self.shared.take_completions() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while its job ran
            };
            conn.line.complete(Instant::now());
            if conn.sink.write_lines(&lines).is_err() {
                self.slow_reader(token);
                continue;
            }
            // Pipelined requests may have accumulated while in flight.
            self.process_lines(token);
            self.update_interest(token);
            self.maybe_close(token);
        }
    }

    fn drain_dirty(&mut self) {
        for token in self.shared.take_dirty() {
            self.flush_token(token);
        }
    }

    /// Drains a connection's write queue into its socket as far as the
    /// kernel will take it, managing `EPOLLOUT` interest and close-on-drain.
    fn flush_token(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let result = flush_sink(&conn.stream, &conn.sink);
        match result {
            Flush::Overflowed => {
                self.slow_reader(token);
            }
            Flush::Dead => {
                self.disconnect(token);
            }
            Flush::Drained | Flush::Pending => {
                self.update_interest(token);
                if matches!(result, Flush::Drained) {
                    self.maybe_close(token);
                }
            }
        }
    }

    /// Recomputes and applies a connection's epoll interest set: `EPOLLIN`
    /// while the state machine wants input; `EPOLLOUT` only while bytes are
    /// queued.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = libc::EPOLLRDHUP;
        if conn.line.wants_read() {
            want |= libc::EPOLLIN;
        }
        if conn.sink.has_pending() {
            want |= libc::EPOLLOUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Closes the connection once the state machine says nothing remains to
    /// do for it and the write queue has drained.
    fn maybe_close(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.line.finished(conn.sink.has_pending()) {
            self.disconnect(token);
        }
    }

    /// Disconnects a slow reader (write-queue overflow).
    fn slow_reader(&mut self, token: u64) {
        if self.conns.contains_key(&token) {
            ServerMetrics::inc(&self.state.metrics.slow_reader_disconnects);
        }
        self.disconnect(token);
    }

    fn disconnect(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.poller.delete(conn.stream.as_raw_fd());
        conn.sink.closed.store(true, Ordering::Release);
        ServerMetrics::dec(&self.state.metrics.connections_open);
        // Continuous-query registrations bound to this sink are cleaned up
        // lazily: the next EVENT push observes the closed sink, fails, and
        // auto-unregisters (bumping `event_push_failures`).
    }

    /// Expires idle connections against the configured io timeout. A
    /// connection with a live continuous-query registration and an empty
    /// read buffer is exempt — it legitimately sits waiting for pushed
    /// events. In-flight requests are exempt (the data plane owns them).
    fn sweep_idle(&mut self) {
        let timeout_ms = self.state.config().io_timeout_ms;
        if timeout_ms == 0 {
            return;
        }
        let timeout = Duration::from_millis(timeout_ms);
        let now = Instant::now();
        let mut expired: Vec<u64> = Vec::new();
        for (t, conn) in &self.conns {
            let subscribed = || self.state.continuous.has_sink(&conn.sink);
            if conn.line.idle_expired(now, timeout, subscribed) {
                expired.push(*t);
            }
        }
        for token in expired {
            ServerMetrics::inc(&self.state.metrics.timeouts);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.line.close_after_drain();
            let notice = ErrorCode::Timeout.line(format!(
                "no complete request within {timeout_ms}ms; closing connection"
            ));
            if conn.sink.write_lines(&[notice]).is_err() {
                self.slow_reader(token);
                continue;
            }
            self.flush_token(token);
        }
    }
}

/// Writes queued bytes into the socket until drained or `EWOULDBLOCK`.
fn flush_sink(stream: &TcpStream, q: &QueuedSink) -> Flush {
    if q.overflowed.load(Ordering::Acquire) {
        return Flush::Overflowed;
    }
    let mut buf = lock_recover(&q.buf);
    loop {
        if buf.is_empty() {
            return Flush::Drained;
        }
        let (front, _) = buf.as_slices();
        match (&*stream).write(front) {
            Ok(0) => return Flush::Dead,
            Ok(n) => {
                buf.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_sink(cap: usize) -> (SharedWriter, Arc<LoopShared>) {
        let shared = LoopShared::new().expect("eventfd");
        (QueuedSink::new(7, cap, Arc::clone(&shared)), shared)
    }

    #[test]
    fn queued_sink_appends_and_marks_dirty() {
        let (sink, shared) = test_sink(1024);
        sink.write_lines(&["OK PONG".to_string()]).unwrap();
        assert_eq!(shared.take_dirty(), vec![7]);
        let buf = lock_recover(&sink.buf);
        let bytes: Vec<u8> = buf.iter().copied().collect();
        assert_eq!(bytes, b"OK PONG\n");
    }

    #[test]
    fn queued_sink_overflow_closes_and_errors() {
        let (sink, _shared) = test_sink(16);
        // First write fits; the second would exceed the 16-byte cap.
        sink.write_lines(&["0123456789".to_string()]).unwrap();
        let err = sink
            .write_lines(&["0123456789".to_string()])
            .expect_err("overflow must error");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // Once overflowed the sink is closed: later writes fail fast, which
        // is what auto-unregisters a dead continuous-query subscriber.
        let err = sink.write_lines(&["x".to_string()]).expect_err("closed");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn completions_round_trip_through_shared() {
        let shared = LoopShared::new().expect("eventfd");
        shared.push_completion(3, vec!["OK".to_string()]);
        shared.push_completion(4, vec!["BUSY".to_string()]);
        let got = shared.take_completions();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 3);
        assert_eq!(got[1].1, vec!["BUSY".to_string()]);
        assert!(shared.take_completions().is_empty());
    }
}
