//! Prometheus text exposition (format version 0.0.4) and its in-tree
//! validating parser.
//!
//! The live server's `GET /metrics` renders the registry through
//! [`prometheus_text`]: counters and gauges become single samples,
//! indexed families (`name.3`) become one family with an `idx="3"`
//! label, and histograms expand to `_bucket{le=...}`/`_sum`/`_count`
//! sample groups (cumulative counts over the registry's log buckets,
//! empty buckets elided). A `saga_build_info{version=...} 1` gauge and
//! `saga_uptime_seconds` ride along.
//!
//! Registry names are arbitrary strings, Prometheus names are
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` — sanitization maps every other byte to
//! `_`. Two raw names may therefore collide after sanitization; the
//! renderer keeps the output well-formed by attaching a `raw="<original>"`
//! label to the later sample (duplicate series are invalid exposition),
//! and a family whose sanitized name is already taken by a different
//! *kind* gets a kind suffix. Both rules are deterministic, so
//! [`parse_prometheus`] round-trips the rendered model exactly — the
//! property the `seeded_expose` suite drives with hostile names.
//!
//! The parser doubles as the validator used by the server smoke tests
//! and `cargo xtask check-metrics`: it enforces the name/label grammar,
//! label-value escaping, histogram bucket monotonicity (cumulative
//! counts non-decreasing, `le` ascending, `+Inf` last and equal to
//! `_count`), and `_sum`/`_count` presence.

use crate::metrics::{histogram_details, HistogramDetail, MetricsSnapshot};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Metric family kinds representable in the exposition format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl PromKind {
    fn as_str(self) -> &'static str {
        match self {
            PromKind::Counter => "counter",
            PromKind::Gauge => "gauge",
            PromKind::Histogram => "histogram",
        }
    }
}

/// One sample line within a family.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Name suffix: `""`, `"_bucket"`, `"_sum"`, or `"_count"`.
    pub suffix: String,
    /// Label pairs in rendered order (values unescaped).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One `# TYPE` family and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PromFamily {
    /// Sanitized family name.
    pub name: String,
    /// Family kind.
    pub kind: PromKind,
    /// Samples in rendered order.
    pub samples: Vec<PromSample>,
}

/// Maps an arbitrary registry name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c == '_'
            || c == ':'
            || c.is_ascii_alphabetic()
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits `name.3`-style indexed-family members into `(family, index)`;
/// everything else keeps its full name and no index.
fn split_indexed(raw: &str) -> (&str, Option<&str>) {
    match raw.rsplit_once('.') {
        Some((family, idx))
            if !family.is_empty() && !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) =>
        {
            (family, Some(idx))
        }
        _ => (raw, None),
    }
}

/// Escapes a label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Builds the family model for a registry snapshot: sanitized names,
/// indexed families folded into `idx` labels, histograms expanded to
/// bucket groups, collisions disambiguated (see the module docs).
pub fn build_families(
    snap: &MetricsSnapshot,
    details: &[(String, HistogramDetail)],
) -> Vec<PromFamily> {
    let mut families: Vec<PromFamily> = Vec::new();
    // (family index in `families`) keyed by sanitized name.
    let mut by_name: Vec<(String, usize)> = Vec::new();
    // Sample uniqueness within a family: (family idx, suffix, label string).
    let mut seen: Vec<(usize, String)> = Vec::new();

    let family_for = |families: &mut Vec<PromFamily>,
                          by_name: &mut Vec<(String, usize)>,
                          raw_family: &str,
                          kind: PromKind|
     -> usize {
        let mut name = sanitize_name(raw_family);
        loop {
            match by_name.iter().find(|(n, _)| *n == name) {
                Some(&(_, fi)) if families[fi].kind == kind => return fi,
                Some(_) => {
                    // Same sanitized name, different kind: a family may
                    // have only one TYPE, so suffix the later kind.
                    name.push('_');
                    name.push_str(kind.as_str());
                }
                None => {
                    families.push(PromFamily {
                        name: name.clone(),
                        kind,
                        samples: Vec::new(),
                    });
                    by_name.push((name, families.len() - 1));
                    return families.len() - 1;
                }
            }
        }
    };

    let push_sample = |families: &mut Vec<PromFamily>,
                           seen: &mut Vec<(usize, String)>,
                           fi: usize,
                           suffix: &str,
                           mut labels: Vec<(String, String)>,
                           value: f64,
                           raw: &str| {
        let key = |labels: &[(String, String)]| {
            let mut k = suffix.to_string();
            for (n, v) in labels {
                k.push('|');
                k.push_str(n);
                k.push('=');
                k.push_str(v);
            }
            k
        };
        if seen.iter().any(|(i, k)| *i == fi && *k == key(&labels)) {
            // Raw names that sanitize onto an existing series stay
            // distinguishable (and the exposition stays duplicate-free).
            labels.push(("raw".to_string(), raw.to_string()));
        }
        seen.push((fi, key(&labels)));
        families[fi].samples.push(PromSample {
            suffix: suffix.to_string(),
            labels,
            value,
        });
    };

    for (raw, v) in &snap.counters {
        let (family, idx) = split_indexed(raw);
        let fi = family_for(&mut families, &mut by_name, family, PromKind::Counter);
        let labels = idx
            .map(|i| vec![("idx".to_string(), i.to_string())])
            .unwrap_or_default();
        push_sample(&mut families, &mut seen, fi, "", labels, *v as f64, raw);
    }
    for (raw, v) in &snap.gauges {
        let (family, idx) = split_indexed(raw);
        let fi = family_for(&mut families, &mut by_name, family, PromKind::Gauge);
        let labels = idx
            .map(|i| vec![("idx".to_string(), i.to_string())])
            .unwrap_or_default();
        push_sample(&mut families, &mut seen, fi, "", labels, *v, raw);
    }
    for (raw, d) in details {
        let fi = family_for(&mut families, &mut by_name, raw, PromKind::Histogram);
        // A sanitized-name collision between two histograms would
        // interleave their bucket series; label the later one instead.
        let extra = if families[fi].samples.is_empty() {
            Vec::new()
        } else {
            vec![("raw".to_string(), raw.clone())]
        };
        for &(le, cum) in &d.buckets {
            let mut labels = extra.clone();
            labels.push(("le".to_string(), le.to_string()));
            push_sample(&mut families, &mut seen, fi, "_bucket", labels, cum as f64, raw);
        }
        let mut inf = extra.clone();
        inf.push(("le".to_string(), "+Inf".to_string()));
        push_sample(&mut families, &mut seen, fi, "_bucket", inf, d.count as f64, raw);
        push_sample(&mut families, &mut seen, fi, "_sum", extra.clone(), d.sum as f64, raw);
        push_sample(&mut families, &mut seen, fi, "_count", extra, d.count as f64, raw);
    }
    families
}

/// Renders a family model as exposition text.
pub fn render_families(families: &[PromFamily]) -> String {
    let mut out = String::new();
    for f in families {
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
        for s in &f.samples {
            out.push_str(&f.name);
            out.push_str(&s.suffix);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (n, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{n}=\"{}\"", escape_label(v));
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&fmt_value(s.value));
            out.push('\n');
        }
    }
    out
}

/// Process start marker for `saga_uptime_seconds` — pinned by the first
/// of [`mark_started`] / [`prometheus_text`].
static STARTED: OnceLock<Instant> = OnceLock::new();

/// Pins the uptime epoch; the server calls this at bind time.
pub fn mark_started() {
    let _ = STARTED.get_or_init(Instant::now);
}

/// Seconds since [`mark_started`].
pub fn uptime_seconds() -> f64 {
    STARTED.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Renders the whole live registry (plus build info and uptime) as
/// Prometheus exposition text — the `GET /metrics` body.
pub fn prometheus_text() -> String {
    let mut families = vec![
        PromFamily {
            name: "saga_build_info".to_string(),
            kind: PromKind::Gauge,
            samples: vec![PromSample {
                suffix: String::new(),
                labels: vec![(
                    "version".to_string(),
                    env!("CARGO_PKG_VERSION").to_string(),
                )],
                value: 1.0,
            }],
        },
        PromFamily {
            name: "saga_uptime_seconds".to_string(),
            kind: PromKind::Gauge,
            samples: vec![PromSample {
                suffix: String::new(),
                labels: Vec::new(),
                value: uptime_seconds(),
            }],
        },
    ];
    families.extend(build_families(
        &crate::metrics::snapshot(),
        &histogram_details(),
    ));
    render_families(&families)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        s => s.parse().map_err(|_| format!("bad value `{s}`")),
    }
}

/// A parsed series prefix: metric name, `(label, value)` pairs, and the
/// unparsed remainder of the line (the sample value text).
type ParsedSeries<'a> = (String, Vec<(String, String)>, &'a str);

/// Parses one `name{label="v",...}` prefix, returning the name, labels,
/// and the rest of the line (the value).
fn parse_series(line: &str) -> Result<ParsedSeries<'_>, String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("no value separator in `{line}`"))?;
    let name = &line[..name_end];
    let mut labels = Vec::new();
    let rest = if line.as_bytes()[name_end] == b'{' {
        let mut chars = line[name_end + 1..].char_indices();
        let close;
        'outer: loop {
            // Label name: chars up to `=`, or `}` closing the set.
            let mut lname = String::new();
            loop {
                match chars.next() {
                    Some((_, '=')) => break,
                    Some((i, '}')) if lname.is_empty() => {
                        close = i;
                        break 'outer;
                    }
                    Some((_, c)) if c != '"' && c != ',' && c != '}' => lname.push(c),
                    other => return Err(format!("bad label name char {other:?}")),
                }
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label `{lname}` value not quoted")),
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some((_, '"')) => break,
                    Some((_, c)) => value.push(c),
                    None => return Err("unterminated label value".to_string()),
                }
            }
            if !valid_label_name(&lname) {
                return Err(format!("bad label name `{lname}`"));
            }
            labels.push((lname, value));
            match chars.next() {
                Some((_, ',')) => {}
                Some((i, '}')) => {
                    close = i;
                    break;
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
        &line[name_end + 1 + close + 1..]
    } else {
        &line[name_end..]
    };
    Ok((name.to_string(), labels, rest))
}

/// Parses and validates an exposition document, returning the family
/// model (see the module docs for the enforced invariants).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or(format!("line {ln}: malformed TYPE"))?;
            if !valid_name(name) {
                return Err(format!("line {ln}: bad family name `{name}`"));
            }
            if families.iter().any(|f| f.name == name) {
                return Err(format!("line {ln}: duplicate TYPE for `{name}`"));
            }
            let kind = match kind {
                "counter" => PromKind::Counter,
                "gauge" => PromKind::Gauge,
                "histogram" => PromKind::Histogram,
                k => return Err(format!("line {ln}: unknown kind `{k}`")),
            };
            families.push(PromFamily {
                name: name.to_string(),
                kind,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, labels, rest) = parse_series(line).map_err(|e| format!("line {ln}: {e}"))?;
        let value =
            parse_value(rest.trim()).map_err(|e| format!("line {ln}: {e}"))?;
        let family = families
            .last_mut()
            .ok_or(format!("line {ln}: sample before any TYPE"))?;
        let suffix = name
            .strip_prefix(&family.name)
            .ok_or_else(|| format!("line {ln}: `{name}` outside family `{}`", family.name))?;
        let suffix_ok = match family.kind {
            PromKind::Histogram => matches!(suffix, "_bucket" | "_sum" | "_count"),
            _ => suffix.is_empty(),
        };
        if !suffix_ok {
            return Err(format!(
                "line {ln}: suffix `{suffix}` invalid for {} family",
                family.kind.as_str()
            ));
        }
        if !valid_name(&name) {
            return Err(format!("line {ln}: bad sample name `{name}`"));
        }
        // Duplicate series check within the family.
        if family
            .samples
            .iter()
            .any(|s| s.suffix == suffix && s.labels == labels)
        {
            return Err(format!("line {ln}: duplicate series `{name}`"));
        }
        family.samples.push(PromSample {
            suffix: suffix.to_string(),
            labels,
            value,
        });
    }
    for f in &families {
        if f.kind == PromKind::Histogram {
            validate_histogram(f)?;
        }
    }
    Ok(families)
}

/// Histogram family invariants: per series group (labels minus `le`),
/// cumulative bucket counts non-decreasing in ascending `le` order with
/// `+Inf` last, `+Inf` count equal to the `_count` sample, and a `_sum`
/// sample present.
fn validate_histogram(f: &PromFamily) -> Result<(), String> {
    // Group key: labels without `le`.
    let group_key = |labels: &[(String, String)]| {
        labels
            .iter()
            .filter(|(n, _)| n != "le")
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut groups: Vec<String> = Vec::new();
    for s in &f.samples {
        let k = group_key(&s.labels);
        if !groups.contains(&k) {
            groups.push(k);
        }
    }
    for g in groups {
        let buckets: Vec<&PromSample> = f
            .samples
            .iter()
            .filter(|s| s.suffix == "_bucket" && group_key(&s.labels) == g)
            .collect();
        if buckets.is_empty() {
            return Err(format!("{}: histogram group `{g}` has no buckets", f.name));
        }
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = 0.0;
        for (i, b) in buckets.iter().enumerate() {
            let le = b
                .labels
                .iter()
                .find(|(n, _)| n == "le")
                .map(|(_, v)| v.as_str())
                .ok_or(format!("{}: bucket without le", f.name))?;
            let le = parse_value(le).map_err(|e| format!("{}: {e}", f.name))?;
            let last = i == buckets.len() - 1;
            if last != (le == f64::INFINITY) {
                return Err(format!("{}: +Inf bucket must come last, once", f.name));
            }
            if !last && le <= prev_le {
                return Err(format!("{}: le not ascending in group `{g}`", f.name));
            }
            if b.value < prev_count {
                return Err(format!(
                    "{}: cumulative counts decrease in group `{g}`",
                    f.name
                ));
            }
            prev_le = le;
            prev_count = b.value;
        }
        let count = f
            .samples
            .iter()
            .find(|s| s.suffix == "_count" && group_key(&s.labels) == g)
            .ok_or(format!("{}: group `{g}` missing _count", f.name))?;
        if (count.value - prev_count).abs() > f64::EPSILON * prev_count.abs() {
            return Err(format!(
                "{}: +Inf bucket ({prev_count}) != _count ({}) in group `{g}`",
                f.name, count.value
            ));
        }
        f.samples
            .iter()
            .find(|s| s.suffix == "_sum" && group_key(&s.labels) == g)
            .ok_or(format!("{}: group `{g}` missing _sum", f.name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(
        counters: Vec<(&str, u64)>,
        gauges: Vec<(&str, f64)>,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            gauges: gauges.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn renders_and_parses_basic_families() {
        let snap = snap_with(
            vec![
                ("server.requests", 42),
                ("bsp.shard_messages.0", 10),
                ("bsp.shard_messages.1", 12),
            ],
            vec![("server.queue_depth.3", 5.0)],
        );
        let details = vec![(
            "server.request_ns".to_string(),
            HistogramDetail {
                buckets: vec![(1023, 4), (2047, 9)],
                count: 9,
                sum: 12_345,
            },
        )];
        let families = build_families(&snap, &details);
        let text = render_families(&families);
        assert!(text.contains("# TYPE server_requests counter"));
        assert!(text.contains("bsp_shard_messages{idx=\"0\"} 10"));
        assert!(text.contains("server_queue_depth{idx=\"3\"} 5"));
        assert!(text.contains("server_request_ns_bucket{le=\"1023\"} 4"));
        assert!(text.contains("server_request_ns_bucket{le=\"+Inf\"} 9"));
        assert!(text.contains("server_request_ns_sum 12345"));
        assert!(text.contains("server_request_ns_count 9"));
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, families);
    }

    #[test]
    fn colliding_sanitized_names_stay_unique() {
        let snap = snap_with(vec![("a.b", 1), ("a_b", 2), ("a b", 3)], vec![]);
        let families = build_families(&snap, &[]);
        let text = render_families(&families);
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, families);
        // Three samples survive, distinguished by raw labels.
        let fam = parsed.iter().find(|f| f.name == "a_b").unwrap();
        assert_eq!(fam.samples.len(), 3);
        let raws: Vec<_> = fam
            .samples
            .iter()
            .flat_map(|s| s.labels.iter().filter(|(n, _)| n == "raw"))
            .collect();
        assert_eq!(raws.len(), 2);
    }

    #[test]
    fn kind_conflict_gets_suffixed_family() {
        let snap = snap_with(vec![("shared.name", 1)], vec![("shared/name", 2.0)]);
        let families = build_families(&snap, &[]);
        let text = render_families(&families);
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, families);
        assert!(parsed.iter().any(|f| f.name == "shared_name"));
        assert!(parsed.iter().any(|f| f.name == "shared_name_gauge"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (bad, why) in [
            ("server_requests 1\n", "sample before TYPE"),
            ("# TYPE a counter\n1bad 2\n", "bad name"),
            ("# TYPE a counter\na 1\na 2\n", "duplicate series"),
            ("# TYPE a counter\nb 1\n", "outside family"),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
                "+Inf != count",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"1\"} 4\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n",
                "le not ascending",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
                "counts decrease",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
                "missing _sum",
            ),
        ] {
            assert!(parse_prometheus(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn label_values_escape_and_roundtrip() {
        let families = vec![PromFamily {
            name: "weird".to_string(),
            kind: PromKind::Gauge,
            samples: vec![PromSample {
                suffix: String::new(),
                labels: vec![("raw".to_string(), "a\"b\\c\nd".to_string())],
                value: -0.5,
            }],
        }];
        let text = render_families(&families);
        assert!(text.contains("raw=\"a\\\"b\\\\c\\nd\""));
        assert_eq!(parse_prometheus(&text).unwrap(), families);
    }

    #[test]
    fn special_values_roundtrip() {
        let families = vec![PromFamily {
            name: "g".to_string(),
            kind: PromKind::Gauge,
            samples: vec![
                PromSample {
                    suffix: String::new(),
                    labels: vec![("idx".to_string(), "0".to_string())],
                    value: f64::INFINITY,
                },
                PromSample {
                    suffix: String::new(),
                    labels: vec![("idx".to_string(), "1".to_string())],
                    value: f64::NEG_INFINITY,
                },
            ],
        }];
        let text = render_families(&families);
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, families);
    }

    #[test]
    fn prometheus_text_includes_build_info_and_uptime() {
        let text = prometheus_text();
        assert!(text.contains("# TYPE saga_build_info gauge"));
        assert!(text.contains("saga_build_info{version=\""));
        assert!(text.contains("saga_uptime_seconds "));
        parse_prometheus(&text).unwrap();
    }
}
