//! The line protocol's connection state machine, sans IO: bytes in, frames
//! out. [`LineConn`] owns every framing and sequencing decision of a
//! connection — the [`MAX_LINE`] cap, `\r\n` trimming, blank-line skipping,
//! the UTF-8 verdict, "EOF without a trailing newline is still a request",
//! one data-plane request in flight with pipelined input parked behind it,
//! when to stop reading, and when the connection is finished. It holds no
//! socket, no epoll fd and no server state, and reads no clock: callers hand
//! it the bytes they read and the `Instant` they read them at.
//!
//! The epoll loop (`crate::event_loop`) feeds it, from readiness events;
//! `ceci-serve` and `ceci-shard` both run that loop (`start_with_state`).

use std::time::{Duration, Instant};

use crate::protocol::{parse_request, ErrorCode, Request};

/// Longest accepted request line in bytes; beyond it the connection gets
/// `ERR E_PARSE` and is closed (a line that long is a protocol violation
/// or an attack, not a request).
const MAX_LINE: usize = 1 << 20;
/// Buffered-input high-water mark while a request is in flight: past this
/// the connection stops reading until the request completes, so a firehose
/// client cannot balloon the buffer.
const READ_PAUSE: usize = 64 * 1024;

/// One unit of input, in arrival order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame<'a> {
    /// A non-blank request line, line terminator removed.
    Line(&'a str),
    /// A line that is not valid UTF-8; the stream stays line-synchronised.
    NotUtf8,
    /// A line longer than [`MAX_LINE`]; the connection closes after the
    /// reply, and no further frame is produced.
    Oversized,
}

impl Frame<'_> {
    /// The request this frame carries (`None` for a comment line), or the
    /// `ERR E_PARSE` line that answers it.
    pub(crate) fn request(&self) -> Result<Option<Request>, String> {
        match self {
            Frame::Line(line) => parse_request(line).map_err(|e| ErrorCode::Parse.line(e)),
            Frame::NotUtf8 => Err(ErrorCode::Parse.line("request line is not valid UTF-8")),
            Frame::Oversized => {
                Err(ErrorCode::Parse
                    .line(format!("request line exceeds {MAX_LINE} bytes; closing")))
            }
        }
    }
}

/// One connection's protocol state.
pub(crate) struct LineConn {
    /// Received bytes; `buf[start..]` is not yet framed.
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scanned]` holds no newline (a long line arriving in
    /// small pieces is not searched again from its beginning).
    scanned: usize,
    /// One data-plane request is outstanding; frames are withheld so
    /// responses stay in request order.
    in_flight: bool,
    /// Close once the output drains (`QUIT`, timeout, oversized line).
    closing: bool,
    /// The peer closed its write half; serve what is buffered, then close.
    eof: bool,
    last_activity: Instant,
}

impl LineConn {
    pub(crate) fn new(now: Instant) -> LineConn {
        LineConn {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            in_flight: false,
            closing: false,
            eof: false,
            last_activity: now,
        }
    }

    /// Appends bytes read from the peer at `now`.
    pub(crate) fn feed(&mut self, bytes: &[u8], now: Instant) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.last_activity = now;
    }

    /// The peer closed its write half: a final line without a newline is
    /// still a request.
    pub(crate) fn feed_eof(&mut self) {
        self.eof = true;
    }

    /// The next frame, or `None` when input is incomplete, a request is in
    /// flight, or the connection is closing.
    pub(crate) fn next_frame(&mut self) -> Option<Frame<'_>> {
        let line = loop {
            if self.in_flight || self.closing {
                return None;
            }
            let pending = self.buf.len() - self.start;
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            let end = match newline {
                Some(offset) => self.scanned + offset,
                // No terminator will come, or none came within the cap.
                None if pending > MAX_LINE || (self.eof && pending > 0) => self.buf.len(),
                None => {
                    self.scanned = self.buf.len();
                    return None;
                }
            };
            if end - self.start > MAX_LINE {
                self.buf.clear();
                (self.start, self.scanned) = (0, 0);
                self.closing = true;
                return Some(Frame::Oversized);
            }
            let mut line = &self.buf[self.start..end];
            while let [rest @ .., b'\r'] = line {
                line = rest;
            }
            let range = self.start..self.start + line.len();
            self.start = (end + 1).min(self.buf.len());
            self.scanned = self.start;
            if !line.iter().all(u8::is_ascii_whitespace) {
                break range;
            }
        };
        Some(match std::str::from_utf8(&self.buf[line]) {
            Ok(text) => Frame::Line(text),
            Err(_) => Frame::NotUtf8,
        })
    }

    /// A data-plane request was handed to the pool: withhold further frames
    /// until [`complete`](Self::complete).
    pub(crate) fn begin(&mut self) {
        self.in_flight = true;
    }

    /// The in-flight request's response is ready (at `now`).
    pub(crate) fn complete(&mut self, now: Instant) {
        self.in_flight = false;
        self.last_activity = now;
    }

    /// Stop framing input and close once the output has drained.
    pub(crate) fn close_after_drain(&mut self) {
        self.closing = true;
    }

    /// Whether the caller should keep reading from the peer. False once the
    /// peer half-closed or the connection is closing, while a request is in
    /// flight with [`READ_PAUSE`] bytes parked behind it, and whenever more
    /// than a maximal line is buffered — which bounds the buffer.
    pub(crate) fn wants_read(&self) -> bool {
        let cap = if self.in_flight {
            READ_PAUSE
        } else {
            MAX_LINE + 1
        };
        !self.eof && !self.closing && self.buf.len() - self.start < cap
    }

    /// Whether the connection is done: nothing in flight, no output left to
    /// write, and either closing or at EOF with every buffered line framed.
    pub(crate) fn finished(&self, output_pending: bool) -> bool {
        !self.in_flight
            && !output_pending
            && (self.closing || (self.eof && self.start == self.buf.len()))
    }

    /// Whether the connection has sat for `timeout` without a byte or a
    /// completed request. A connection waiting on its own request is never
    /// idle, and one with nothing half-read is exempt when `may_idle` says so
    /// (a continuous-query subscriber waiting for pushed events).
    pub(crate) fn idle_expired(
        &self,
        now: Instant,
        timeout: Duration,
        may_idle: impl FnOnce() -> bool,
    ) -> bool {
        let stalled =
            !self.in_flight && !self.closing && now.duration_since(self.last_activity) >= timeout;
        let half_read = self.start < self.buf.len();
        stalled && (half_read || !may_idle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An owned copy of a frame: the line, or which error frame it was.
    type Owned = Result<String, &'static str>;

    fn owned(frame: Frame<'_>) -> Owned {
        match frame {
            Frame::Line(line) => Ok(line.to_string()),
            Frame::NotUtf8 => Err("not-utf8"),
            Frame::Oversized => Err("oversized"),
        }
    }

    fn drain(conn: &mut LineConn) -> Vec<Owned> {
        std::iter::from_fn(|| conn.next_frame().map(owned)).collect()
    }

    /// Feeds `script` in pieces of the given sizes (cycled), then EOF, and
    /// collects every frame. With `gated`, every frame is treated as a
    /// data-plane request: it goes in flight and completes only after the
    /// next piece has arrived behind it.
    fn run(script: &[u8], sizes: &[usize], gated: bool) -> Vec<Owned> {
        let now = Instant::now();
        let mut conn = LineConn::new(now);
        let mut out = Vec::new();
        let mut pump = |conn: &mut LineConn| loop {
            conn.complete(now);
            let Some(frame) = conn.next_frame().map(owned) else {
                return;
            };
            out.push(frame);
            if gated {
                conn.begin();
                assert_eq!(conn.next_frame(), None, "frame released while in flight");
                return;
            }
        };
        let mut rest = script;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(size.min(rest.len()));
            conn.feed(piece, now);
            rest = tail;
            pump(&mut conn);
        }
        conn.feed_eof();
        while !conn.finished(false) {
            pump(&mut conn);
        }
        out
    }

    /// What the framing rules say `script` holds, computed the slow way.
    fn model(script: &[u8]) -> Vec<Owned> {
        script
            .split(|&b| b == b'\n')
            .map(|mut line| {
                while let [rest @ .., b'\r'] = line {
                    line = rest;
                }
                line
            })
            .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
            .map(|line| match std::str::from_utf8(line) {
                Ok(text) => Ok(text.to_string()),
                Err(_) => Err("not-utf8"),
            })
            .collect()
    }

    /// Bytes from a small alphabet in which newlines, carriage returns,
    /// blanks and an invalid UTF-8 byte are all common.
    fn scripts() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![
            Just(b'\n'),
            Just(b'\r'),
            Just(b' '),
            Just(0xffu8),
            b'a'..=b'e'
        ];
        collection::vec(byte, 0..96)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_split_yields_the_same_frames_as_the_whole(
            script in scripts(),
            sizes in collection::vec(1usize..9, 1..12),
        ) {
            let whole = run(&script, &[script.len().max(1)], false);
            prop_assert_eq!(&whole, &model(&script));
            prop_assert_eq!(&run(&script, &sizes, false), &whole);
        }

        #[test]
        fn input_parked_behind_a_request_comes_out_in_order(
            script in scripts(),
            sizes in collection::vec(1usize..9, 1..12),
        ) {
            prop_assert_eq!(run(&script, &sizes, true), model(&script));
        }
    }

    #[test]
    fn mid_line_eof_yields_the_partial_line_as_a_final_frame() {
        let now = Instant::now();
        let mut conn = LineConn::new(now);
        conn.feed(b"PING\r\nSTA", now);
        assert_eq!(drain(&mut conn), vec![Ok("PING".to_string())]);
        assert!(!conn.finished(false));
        conn.feed_eof();
        assert!(!conn.finished(false), "a request is still buffered");
        assert_eq!(drain(&mut conn), vec![Ok("STA".to_string())]);
        assert!(!conn.finished(true), "its response is not written yet");
        assert!(conn.finished(false));
    }

    #[test]
    fn oversized_line_is_reported_once_and_closes() {
        let now = Instant::now();
        for tail in [&b""[..], b"\n", b"\nPING\n"] {
            let mut conn = LineConn::new(now);
            conn.feed(&vec![b'A'; MAX_LINE], now);
            assert_eq!(conn.next_frame(), None, "{MAX_LINE} bytes may still end");
            assert!(conn.wants_read());
            conn.feed(b"A", now);
            conn.feed(tail, now);
            assert_eq!(drain(&mut conn), vec![Err("oversized")]);
            assert!(!conn.wants_read());
            assert!(conn.finished(false));
            conn.feed(b"PING\n", now);
            assert_eq!(conn.next_frame(), None, "closing: no frame after the error");
        }
        // A line of exactly the cap is a request; its newline is not counted.
        let mut conn = LineConn::new(now);
        conn.feed(&vec![b'A'; MAX_LINE], now);
        conn.feed(b"\nPING\n", now);
        let frames = drain(&mut conn);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].as_ref().map(String::len), Ok(MAX_LINE));
        assert_eq!(frames[1], Ok("PING".to_string()));
    }

    #[test]
    fn invalid_utf8_is_one_frame_and_the_stream_stays_in_step() {
        let now = Instant::now();
        let mut conn = LineConn::new(now);
        conn.feed(b"MATCH g \xff\xfe\xfd\nPING\n", now);
        assert_eq!(
            drain(&mut conn),
            vec![Err("not-utf8"), Ok("PING".to_string())]
        );
        assert!(Frame::NotUtf8
            .request()
            .unwrap_err()
            .starts_with("ERR E_PARSE"));
    }

    #[test]
    fn reading_pauses_behind_an_in_flight_request_and_resumes() {
        let now = Instant::now();
        let mut conn = LineConn::new(now);
        conn.feed(b"CHAOS DELAY 1\n", now);
        assert_eq!(drain(&mut conn), vec![Ok("CHAOS DELAY 1".to_string())]);
        conn.begin();
        conn.feed(&b"PING\n".repeat(READ_PAUSE / 5), now);
        assert!(conn.wants_read(), "just under the high-water mark");
        conn.feed(b"PING\n", now);
        assert!(!conn.wants_read());
        conn.complete(now);
        assert!(conn.wants_read());
        assert_eq!(drain(&mut conn).len(), READ_PAUSE / 5 + 1);
    }

    #[test]
    fn idleness_is_judged_against_the_clock_it_is_handed() {
        let t0 = Instant::now();
        let timeout = Duration::from_millis(200);
        let late = t0 + timeout;
        let mut conn = LineConn::new(t0);
        assert!(!conn.idle_expired(t0 + timeout / 2, timeout, || false));
        assert!(conn.idle_expired(late, timeout, || false));
        assert!(!conn.idle_expired(late, timeout, || true), "subscriber");
        // Half a request is a stalled peer, subscriber or not.
        conn.feed(b"PIN", t0);
        assert!(conn.idle_expired(late, timeout, || true));
        // Bytes and completions both count as activity; in-flight never idles.
        conn.feed(b"G\n", late);
        assert!(!conn.idle_expired(late, timeout, || false));
        assert_eq!(drain(&mut conn), vec![Ok("PING".to_string())]);
        conn.begin();
        assert!(!conn.idle_expired(late + timeout, timeout, || false));
        conn.complete(late + timeout);
        assert!(!conn.idle_expired(late + timeout, timeout, || false));
        assert!(conn.idle_expired(late + timeout * 2, timeout, || false));
    }
}
