//! The little JSON the ledger emits: the one-line run result and the
//! Chrome `trace_event` file. Hand-written because the benchmark depends on
//! nothing but `std`.

use std::fmt::Write as _;

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with every digit the measurement has. Non-finite values
/// have no JSON spelling and mean a harness bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            number(m.value),
            escape(m.unit)
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

/// One recorded span: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The request (template, batch) the call belongs to.
    pub request: u64,
}

/// Chrome `trace_event` JSON (complete `X` events, microsecond timestamps)
/// — loadable in Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\": [\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let layer = span.name.split('.').next().unwrap_or("ledger");
        write!(
            s,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"request\": {}}}}}",
            escape(span.name),
            escape(layer),
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.parent.map_or(-1, |p| p as i64),
            span.request,
        )
        .unwrap();
    }
    s.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric {
                    name: "match_p50_ms".into(),
                    value: 1.2034,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.8127,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"match_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn escapes_and_traces() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        let t = chrome_trace(&[Span {
            name: "core.enumerate",
            start_ns: 1_500,
            end_ns: 4_000,
            parent: None,
            request: 7,
        }]);
        assert!(t.contains("\"name\": \"core.enumerate\", \"cat\": \"core\""));
        assert!(t.contains("\"ts\": 1.500, \"dur\": 2.500"));
        assert!(t.contains("\"parent\": -1, \"request\": 7"));
    }
}
