//! Prometheus text-exposition writer and a tiny validating parser.
//!
//! The writer emits version 0.0.4 text format (`# HELP` / `# TYPE` headers,
//! one sample per line). The parser is deliberately small — just enough to
//! validate what this workspace emits — and is used by the service tests
//! and CI so no external Prometheus dependency is needed to prove the
//! exposition is well-formed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental text-exposition writer.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl PromWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emit a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Emit a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Emit a full histogram family.
    ///
    /// `cumulative` holds `(inclusive upper bound, cumulative count)` pairs in
    /// ascending bound order, **excluding** the `+Inf` bucket, which is
    /// emitted automatically with `count`. `sum` is the sum of all observed
    /// values in the histogram's native unit.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        cumulative: &[(u64, u64)],
        sum: u64,
        count: u64,
    ) {
        self.header(name, help, "histogram");
        for &(le, c) in cumulative {
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {c}");
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(self.out, "{name}_sum {sum}");
        let _ = writeln!(self.out, "{name}_count {count}");
    }

    /// Finish and return the exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms, includes the `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value. `+Inf`/`-Inf`/`NaN` parse to the IEEE specials.
    pub value: f64,
}

impl Sample {
    /// Look up a label value by key.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Validation summary returned by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Number of `# TYPE`-declared metric families.
    pub families: usize,
    /// Number of sample lines.
    pub samples: usize,
    /// Number of families declared as histograms.
    pub histograms: usize,
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}")),
    }
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',').trim_start();
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_name(&key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted: {rest:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape in label value: {other:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key, value));
        rest = &rest[end + 1..];
    }
}

/// Parse exposition text into samples. Returns an error on the first
/// malformed line.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("HELP ") || comment.starts_with("TYPE ") {
                let mut parts = comment.splitn(3, ' ');
                let kw = parts.next().unwrap_or_default();
                let name = parts.next().unwrap_or_default();
                if !valid_name(name) {
                    return Err(format!(
                        "line {}: {kw} for invalid metric name {name:?}",
                        lineno + 1
                    ));
                }
                if kw == "TYPE" {
                    let ty = parts.next().unwrap_or_default().trim();
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {}: unknown metric type {ty:?}", lineno + 1));
                    }
                }
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = if let Some(brace) = line.find('{') {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {}: unbalanced '{{'", lineno + 1))?;
            if close < brace {
                return Err(format!("line {}: unbalanced '{{'", lineno + 1));
            }
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        } else {
            (line.split_whitespace().next().unwrap_or_default(), None)
        };
        let name = name_part.trim().to_string();
        if !valid_name(&name) {
            return Err(format!("line {}: invalid metric name {name:?}", lineno + 1));
        }
        let (labels, value_part) = match rest {
            Some((labels_src, tail)) => (
                parse_labels(labels_src).map_err(|e| format!("line {}: {e}", lineno + 1))?,
                tail.trim(),
            ),
            None => (Vec::new(), line[name_part.len()..].trim()),
        };
        let mut fields = value_part.split_whitespace();
        let value_str = fields
            .next()
            .ok_or_else(|| format!("line {}: missing sample value", lineno + 1))?;
        let value = parse_value(value_str).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {}: bad timestamp {ts:?}", lineno + 1));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {}: trailing tokens after sample", lineno + 1));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Parse and validate exposition text.
///
/// Beyond per-line syntax this checks histogram invariants for every family
/// declared `# TYPE <name> histogram`: a `+Inf` bucket exists, bucket counts
/// are monotone non-decreasing in source order, and the `+Inf` cumulative
/// count equals `<name>_count`.
pub fn validate(text: &str) -> Result<Summary, String> {
    let samples = parse(text)?;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(ty)) = (parts.next(), parts.next()) {
                types.insert(name.to_string(), ty.to_string());
            }
        }
    }
    let mut histograms = 0usize;
    for (family, ty) in &types {
        if ty != "histogram" {
            continue;
        }
        histograms += 1;
        let bucket_name = format!("{family}_bucket");
        let count_name = format!("{family}_count");
        let sum_name = format!("{family}_sum");
        let buckets: Vec<&Sample> = samples.iter().filter(|s| s.name == bucket_name).collect();
        if buckets.is_empty() {
            return Err(format!("histogram {family}: no _bucket samples"));
        }
        let mut prev = 0.0f64;
        let mut inf = None;
        for b in &buckets {
            let le = b
                .label("le")
                .ok_or_else(|| format!("histogram {family}: bucket without le label"))?;
            if b.value + 1e-9 < prev {
                return Err(format!(
                    "histogram {family}: bucket counts not monotone at le={le}"
                ));
            }
            prev = b.value;
            if le == "+Inf" {
                inf = Some(b.value);
            }
        }
        let inf = inf.ok_or_else(|| format!("histogram {family}: missing +Inf bucket"))?;
        let count = samples
            .iter()
            .find(|s| s.name == count_name)
            .ok_or_else(|| format!("histogram {family}: missing _count"))?;
        if samples.iter().all(|s| s.name != sum_name) {
            return Err(format!("histogram {family}: missing _sum"));
        }
        if (count.value - inf).abs() > 1e-9 {
            return Err(format!(
                "histogram {family}: +Inf bucket {} != _count {}",
                inf, count.value
            ));
        }
    }
    Ok(Summary {
        families: types.len(),
        samples: samples.len(),
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_roundtrips_through_validator() {
        let mut w = PromWriter::new();
        w.counter("ceci_requests_total", "Total requests.", 17);
        w.gauge("ceci_cache_bytes", "Cache bytes in use.", 12345);
        w.histogram(
            "ceci_match_latency_us",
            "Match latency (microseconds).",
            &[(1, 2), (3, 5), (7, 9)],
            420,
            10,
        );
        let text = w.finish();
        let summary = validate(&text).expect("valid exposition");
        assert_eq!(summary.families, 3);
        assert_eq!(summary.histograms, 1);
        // 2 scalar samples + 3 buckets + Inf + sum + count
        assert_eq!(summary.samples, 8);
        let samples = parse(&text).unwrap();
        let inf = samples
            .iter()
            .find(|s| s.name == "ceci_match_latency_us_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 10.0);
    }

    #[test]
    fn rejects_non_monotone_histogram() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        let err = validate(text).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn rejects_missing_inf_bucket() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_sum 1
h_count 5
";
        let err = validate(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 1
h_count 5
";
        let err = validate(text).unwrap_err();
        assert!(err.contains("_count"), "{err}");
    }

    #[test]
    fn rejects_bad_names_and_values() {
        assert!(parse("9bad_name 1").is_err());
        assert!(parse("ok_name notanumber").is_err());
        assert!(parse("ok_name 1 2 3").is_err());
        assert!(validate("# TYPE x rainbow\nx 1").is_err());
    }

    #[test]
    fn parses_labels_with_escapes() {
        let samples = parse("m{path=\"a\\\"b\\\\c\",le=\"+Inf\"} 3").unwrap();
        assert_eq!(samples[0].label("path"), Some("a\"b\\c"));
        assert_eq!(samples[0].label("le"), Some("+Inf"));
        assert_eq!(samples[0].value, 3.0);
    }

    #[test]
    fn parses_special_values() {
        let samples = parse("m 1e9\nn +Inf\no NaN").unwrap();
        assert_eq!(samples[0].value, 1e9);
        assert!(samples[1].value.is_infinite());
        assert!(samples[2].value.is_nan());
    }
}
