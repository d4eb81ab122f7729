//! The `ceci-serve` text protocol as a client sees it: one request line
//! out, payload lines and one terminal line (`OK …` / `BUSY` / `ERR …`)
//! back, with out-of-band `EVENT …` lines possible between responses.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a response ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    Ok,
    Busy,
    Err,
}

/// One framed response.
#[derive(Clone, Debug)]
pub struct Reply {
    pub terminal: Terminal,
    /// The terminal line, verbatim.
    pub line: String,
    /// Payload lines before the terminal one (`STAT …`, `| …`).
    pub payload: Vec<String>,
    /// `EVENT …` lines that arrived while waiting.
    pub events: Vec<String>,
}

/// Classifies one received line: `Some(terminal)` ends a response.
pub fn terminal_of(line: &str) -> Option<Terminal> {
    match line.split(' ').next() {
        Some("OK") => Some(Terminal::Ok),
        Some("BUSY") => Some(Terminal::Busy),
        Some("ERR") => Some(Terminal::Err),
        _ => None,
    }
}

/// Frames already-received lines into one reply (the pure half of
/// [`Conn::request`], kept separate so it can be tested on captured lines).
/// `None` when no terminal line is present.
pub fn frame<S: AsRef<str>>(lines: &[S]) -> Option<Reply> {
    let mut payload = Vec::new();
    let mut events = Vec::new();
    for line in lines.iter().map(AsRef::as_ref) {
        if let Some(terminal) = terminal_of(line) {
            return Some(Reply {
                terminal,
                line: line.to_string(),
                payload,
                events,
            });
        }
        if line.starts_with("EVENT ") {
            events.push(line.to_string());
        } else {
            payload.push(line.to_string());
        }
    }
    None
}

/// The value of `key=` on a response line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ')
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

/// Which path a `MATCH` took, read off its response line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Path {
    Hit,
    Miss,
    Repaired,
    Rejected,
    Other,
}

/// The fields of an `OK MATCH …` line the ledger attributes time with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchReply {
    pub count: u64,
    pub path: Path,
    /// `batch=LEAD|SHARED` present.
    pub batched: bool,
    pub build_us: u64,
    pub enum_us: u64,
    pub total_us: u64,
}

/// Parses an `OK MATCH` terminal line; `None` for anything else, for a
/// non-`OK` status (a partial count), and for the `APPROX` / `SHARDED`
/// modes this benchmark never requests.
pub fn parse_match(line: &str) -> Option<MatchReply> {
    let rest = line.strip_prefix("OK MATCH ")?;
    if field(rest, "status")? != "OK" || field(rest, "mode").is_some() {
        return None;
    }
    let path = match (field(rest, "filter"), field(rest, "cache")?) {
        (Some("REJECTED"), _) => Path::Rejected,
        (_, "HIT") => Path::Hit,
        (_, "MISS") => Path::Miss,
        (_, "REPAIRED") => Path::Repaired,
        _ => Path::Other,
    };
    Some(MatchReply {
        count: field_u64(rest, "count")?,
        path,
        batched: field(rest, "batch").is_some(),
        build_us: field_u64(rest, "build_us")?,
        enum_us: field_u64(rest, "enum_us")?,
        total_us: field_u64(rest, "total_us")?,
    })
}

/// `STATS` / `STATS PROM` payload rows as one map. `STAT <key> <value>` rows
/// keep their key; Prometheus samples `ceci_<key>[_total] <value>` drop the
/// prefix and the counter suffix, so `cache_hits` names the same counter in
/// both forms. Comment rows and labeled samples (histogram buckets) are
/// skipped; the exact `<hist>_us_sum` / `<hist>_us_count` pairs are kept.
pub fn parse_stats(payload: &[String]) -> BTreeMap<String, f64> {
    payload
        .iter()
        .filter(|row| !row.starts_with('#') && !row.contains('{'))
        .filter_map(|row| {
            let mut it = row.strip_prefix("STAT ").unwrap_or(row).split(' ');
            let key = it.next()?;
            let key = key.strip_prefix("ceci_").unwrap_or(key);
            let key = key.strip_suffix("_total").unwrap_or(key);
            Some((key.to_string(), it.next()?.parse().ok()?))
        })
        .collect()
}

/// The `total=` of an `EVENT DELTA` line and the query it belongs to.
pub fn parse_event(line: &str) -> Option<(&str, u64)> {
    let rest = line.strip_prefix("EVENT DELTA ")?;
    Some((field(rest, "query")?, field_u64(rest, "total")?))
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its framed response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut lines = Vec::new();
        loop {
            let got = self.read_line()?;
            let done = terminal_of(&got).is_some();
            lines.push(got);
            if done {
                return Ok(frame(&lines).expect("the last line is terminal"));
            }
        }
    }

    /// Reads one pushed line (an `EVENT` on a subscriber connection).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut buf = String::new();
        if self.reader.read_line(&mut buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.truncate(buf.trim_end().len());
        Ok(buf)
    }
}

/// A spawned `ceci-serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns the server with **all defaults** on an ephemeral loopback
    /// port and waits for its `listening on <addr>` line.
    pub fn spawn(binary: &std::path::Path) -> std::io::Result<Server> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        match (read, first.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr: addr.to_string(),
                _stdout: stdout,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "ceci-serve did not announce its address: {read:?} {first:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Wall-clock milliseconds of `f`.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Lines captured from a live `ceci-serve`.
    const HIT: &str = "OK MATCH count=35814 status=OK cache=HIT build_us=0 enum_us=9312 total_us=9398 batch=SHARED";
    const MISS: &str =
        "OK MATCH count=12 status=OK cache=MISS build_us=1840 enum_us=22 total_us=1991 batch=LEAD";
    const REPAIRED: &str =
        "OK MATCH count=7 status=OK cache=REPAIRED build_us=5210 enum_us=31 total_us=5302";
    const REJECTED: &str =
        "OK MATCH count=0 status=OK filter=REJECTED cache=NONE build_us=0 enum_us=0 total_us=14";

    #[test]
    fn parses_match_lines() {
        let hit = parse_match(HIT).unwrap();
        assert_eq!(
            hit,
            MatchReply {
                count: 35814,
                path: Path::Hit,
                batched: true,
                build_us: 0,
                enum_us: 9312,
                total_us: 9398
            }
        );
        let miss = parse_match(MISS).unwrap();
        assert_eq!(
            (miss.path, miss.batched, miss.build_us),
            (Path::Miss, true, 1840)
        );
        let rep = parse_match(REPAIRED).unwrap();
        assert_eq!(
            (rep.path, rep.batched, rep.count),
            (Path::Repaired, false, 7)
        );
        let rej = parse_match(REJECTED).unwrap();
        assert_eq!((rej.path, rej.count, rej.total_us), (Path::Rejected, 0, 14));
    }

    #[test]
    fn refuses_what_is_not_a_complete_exact_match() {
        assert!(parse_match("OK PONG").is_none());
        assert!(parse_match("BUSY").is_none());
        assert!(parse_match("ERR E_QUERY query load failed: nope").is_none());
        assert!(parse_match(
            "OK MATCH count=3 status=DEADLINE_EXCEEDED cache=HIT build_us=0 enum_us=9 total_us=12"
        )
        .is_none());
        assert!(parse_match(
            "OK MATCH count=90 status=OK mode=APPROX mean=90.2 std_error=1.0 ci95_lo=88.0 \
             ci95_hi=92.0 walks=64 cache=HIT build_us=0 enum_us=0 total_us=400"
        )
        .is_none());
    }

    #[test]
    fn frames_payload_events_and_terminals() {
        let r = frame(&[
            "EVENT DELTA query=qa graph=g batch=3 new=5 retired=1 total=44",
            "STAT cache_hits 10",
            "STAT plan_score_mean_us 212",
            "# TYPE ceci_cache_misses_total counter",
            "ceci_cache_misses_total 4",
            "ceci_plan_score_us_bucket{le=\"8\"} 3",
            "ceci_plan_score_us_sum 1234",
            "ceci_cache_bytes 4096",
            "OK STATS",
            "ignored: belongs to the next response",
        ])
        .unwrap();
        assert_eq!(r.terminal, Terminal::Ok);
        assert_eq!(r.events.len(), 1);
        assert_eq!(parse_event(&r.events[0]), Some(("qa", 44)));
        let stats = parse_stats(&r.payload);
        assert_eq!(stats["cache_hits"], 10.0);
        assert_eq!(stats["plan_score_mean_us"], 212.0);
        assert_eq!(stats["cache_misses"], 4.0);
        assert_eq!(stats["plan_score_us_sum"], 1234.0);
        assert_eq!(stats["cache_bytes"], 4096.0);
        assert_eq!(stats.len(), 5, "comments and bucket rows are skipped");

        assert_eq!(frame(&["BUSY"]).unwrap().terminal, Terminal::Busy);
        let e = frame(&["ERR E_UNKNOWN_GRAPH unknown graph \"g\""]).unwrap();
        assert_eq!(e.terminal, Terminal::Err);
        assert_eq!(e.line.split(' ').nth(1), Some("E_UNKNOWN_GRAPH"));
        assert!(frame(&["STAT a 1", "| plan"]).is_none());
        // A payload row never frames a response, whatever it starts with.
        assert_eq!(terminal_of("OKAY"), None);
        assert_eq!(terminal_of("STAT errors 0"), None);
    }

    #[test]
    fn reads_fields_of_other_verbs() {
        let m = "OK MUTATED graph=g added=950 deleted=50 sub_epoch=33 pending=32900 compacted=1";
        assert_eq!(field_u64(m, "compacted"), Some(1));
        assert_eq!(field_u64(m, "added"), Some(950));
        assert_eq!(field(m, "graph"), Some("g"));
        assert_eq!(field(m, "absent"), None);
        let l = "OK LOADED name=g vertices=45056 edges=56123 epoch=4";
        assert_eq!(field_u64(l, "vertices"), Some(45056));
    }
}
