//! Prometheus text exposition format — render and parse.
//!
//! [`render`] turns a registry's [`SeriesSnapshot`]s into the
//! Prometheus text format (version 0.0.4) served on `/metrics`:
//!
//! * counters → `# TYPE <name> counter` + one sample per series,
//! * histograms → `# TYPE <name> summary`: per-series `{quantile="…"}`
//!   samples plus `<name>_sum` / `<name>_count` / `<name>_max`
//!   (the max is exported as a separate gauge family, since the
//!   summary type has no max sample).
//!
//! Metric names are sanitized (`engine.search_ns` →
//! `engine_search_ns`); label values are escaped per the exposition
//! format (`\\`, `\"`, `\n`).
//!
//! [`parse`] is the matching reader. It exists so the repo's tests can
//! validate its own exposition without any HTTP/metrics dependency —
//! it accepts exactly the subset `render` emits plus unknown comment
//! lines, and round-trips sample values.

use std::fmt::Write as _;

use crate::registry::{MetricSnapshot, SeriesSnapshot};

/// The quantiles exported for every histogram series.
pub const QUANTILES: &[(&str, f64)] = &[("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)];

/// Sanitize a metric name for the exposition format: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (so `engine.search_ns` →
/// `engine_search_ns`), and a leading digit gains a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Render series snapshots as Prometheus text. Series must be sorted
/// by family (they are, coming from `Registry::series`); each family
/// gets one `# TYPE` line.
pub fn render(series: &[SeriesSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family: Option<(String, &'static str)> = None;
    for s in series {
        let fam = sanitize_name(&s.name);
        let kind = match &s.value {
            MetricSnapshot::Counter(_) => "counter",
            MetricSnapshot::Histogram(_) => "summary",
        };
        if last_family.as_ref().is_none_or(|(f, _)| *f != fam) {
            let _ = writeln!(out, "# TYPE {fam} {kind}");
            if kind == "summary" {
                let _ = writeln!(out, "# TYPE {fam}_max gauge");
            }
            last_family = Some((fam.clone(), kind));
        }
        match &s.value {
            MetricSnapshot::Counter(v) => {
                out.push_str(&fam);
                write_labels(&mut out, &s.labels, None);
                let _ = writeln!(out, " {v}");
            }
            MetricSnapshot::Histogram(h) => {
                for &(q, p) in QUANTILES {
                    out.push_str(&fam);
                    write_labels(&mut out, &s.labels, Some(("quantile", q)));
                    let _ = writeln!(out, " {}", h.quantile(p));
                }
                let _ = write!(out, "{fam}_sum");
                write_labels(&mut out, &s.labels, None);
                let _ = writeln!(out, " {}", h.sum);
                let _ = write!(out, "{fam}_count");
                write_labels(&mut out, &s.labels, None);
                let _ = writeln!(out, " {}", h.count);
                let _ = write!(out, "{fam}_max");
                write_labels(&mut out, &s.labels, None);
                let _ = writeln!(out, " {}", h.max);
            }
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (family name, possibly with a `_sum`/`_count`/`_max`
    /// suffix for summaries).
    pub name: String,
    /// Label pairs in appearance order (includes `quantile` for
    /// summary quantile samples).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: samples plus the `# TYPE` declarations.
#[derive(Debug, Clone, Default)]
pub struct PromText {
    /// All sample lines, in order.
    pub samples: Vec<PromSample>,
    /// `# TYPE` declarations as `(family, kind)`.
    pub types: Vec<(String, String)>,
}

impl PromText {
    /// All samples with the given name.
    pub fn with_name<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a PromSample> {
        let name = name.to_string();
        self.samples.iter().filter(move |s| s.name == name)
    }

    /// The first sample matching `name` and all `labels` pairs.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels.iter().all(|&(k, v)| s.label(k) == Some(v))
        })
    }
}

/// Parse Prometheus text exposition (the subset [`render`] emits;
/// unknown `#` comment lines are skipped). Returns an error naming the
/// first malformed line.
pub fn parse(text: &str) -> Result<PromText, String> {
    let mut out = PromText::default();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let fam = it.next().ok_or_else(|| format!("line {}: empty TYPE", ln + 1))?;
                let kind =
                    it.next().ok_or_else(|| format!("line {}: TYPE without kind", ln + 1))?;
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return Err(format!("line {}: unknown TYPE kind '{kind}'", ln + 1));
                }
                out.types.push((fam.to_string(), kind.to_string()));
            }
            continue; // HELP and arbitrary comments are legal
        }
        out.samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    // Split `name{labels} value` / `name value`, honouring quotes and
    // escapes inside the label block (a label value may contain `}`).
    let (name_labels, value_str) = match line.find('{') {
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let n = it.next().unwrap_or_default();
            (n, it.next().unwrap_or_default().trim())
        }
        Some(_) => {
            let mut in_quotes = false;
            let mut escaped = false;
            let mut close = None;
            for (i, c) in line.char_indices() {
                if escaped {
                    escaped = false;
                } else if in_quotes {
                    match c {
                        '\\' => escaped = true,
                        '"' => in_quotes = false,
                        _ => {}
                    }
                } else if c == '"' {
                    in_quotes = true;
                } else if c == '}' {
                    close = Some(i);
                    break;
                }
            }
            let close = close.ok_or("unterminated label block")?;
            let (nl, rest) = line.split_at(close + 1);
            (nl, rest.trim())
        }
    };
    let value: f64 = value_str
        .split_whitespace()
        .next()
        .ok_or("missing value")?
        .parse()
        .map_err(|_| format!("bad value '{value_str}'"))?;

    let (name, labels) = match name_labels.find('{') {
        None => (name_labels.trim().to_string(), Vec::new()),
        Some(open) => {
            let name = name_labels[..open].trim().to_string();
            let body = name_labels[open + 1..]
                .strip_suffix('}')
                .ok_or("unterminated label block")?;
            (name, parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name '{name}'"));
    }
    Ok(PromSample { name, labels, value })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip separators / whitespace.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err("empty label key".into());
        }
        if chars.next() != Some('"') {
            return Err(format!("label '{key}': value not quoted"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        for c in chars.by_ref() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other, // covers \\ and \"
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("label '{key}': unterminated value"));
        }
        labels.push((key, value));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("engine.searches").add(42);
        r.counter_with("sim.requests", &[("outcome", "booked")]).add(7);
        r.counter_with("sim.requests", &[("outcome", "created")]).add(3);
        let h = r.histogram_with("engine.search_ns", &[("tier", "t2")]);
        for v in [100u64, 2_000, 50_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn renders_types_labels_and_summaries() {
        let text = render(&sample_registry().series());
        assert!(text.contains("# TYPE engine_searches counter"), "{text}");
        assert!(text.contains("engine_searches 42"), "{text}");
        assert!(text.contains("sim_requests{outcome=\"booked\"} 7"), "{text}");
        assert!(text.contains("# TYPE engine_search_ns summary"), "{text}");
        assert!(text.contains("engine_search_ns{tier=\"t2\",quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("engine_search_ns_count{tier=\"t2\"} 3"), "{text}");
        assert!(text.contains("engine_search_ns_sum{tier=\"t2\"} 52100"), "{text}");
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE sim_requests counter").count(), 1);
    }

    #[test]
    fn round_trips_through_the_parser() {
        let reg = sample_registry();
        let text = render(&reg.series());
        let parsed = parse(&text).expect("own exposition must parse");
        assert_eq!(
            parsed.find("sim_requests", &[("outcome", "booked")]).map(|s| s.value),
            Some(7.0)
        );
        assert_eq!(
            parsed.find("engine_search_ns_count", &[("tier", "t2")]).map(|s| s.value),
            Some(3.0)
        );
        let p99 = parsed
            .find("engine_search_ns", &[("tier", "t2"), ("quantile", "0.99")])
            .expect("p99 sample");
        assert!(p99.value >= 2_000.0, "{}", p99.value);
        assert!(parsed.types.contains(&("engine_search_ns".into(), "summary".into())));
        // Every sample the renderer emitted is present.
        assert_eq!(parsed.samples.len(), text.lines().filter(|l| !l.starts_with('#')).count());
    }

    #[test]
    fn escapes_label_values() {
        let r = Registry::new();
        r.counter_with("c", &[("path", "a\"b\\c\nd")]).inc();
        let text = render(&r.series());
        let parsed = parse(&text).expect("escaped exposition parses");
        assert_eq!(parsed.samples[0].label("path"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("ok_name 1\nbad name 2").is_err());
        assert!(parse("x{unterminated=\"v} 1").is_err());
        assert!(parse("x{k=unquoted} 1").is_err());
        assert!(parse("x{k=\"v\"} notanumber").is_err());
        assert!(parse("9leading_digit 1").is_err());
        // Unknown comments are fine.
        assert!(parse("# anything goes\n# HELP x help text\nx 1").is_ok());
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("engine.search_ns"), "engine_search_ns");
        assert_eq!(sanitize_name("9x"), "_9x");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }
}
