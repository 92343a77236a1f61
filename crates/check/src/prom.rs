//! The Prometheus text-exposition validator (format version 0.0.4).
//!
//! `saga_trace::expose` renders `GET /metrics`; this module reads it back
//! from outside, as [`crate::tracecheck`] does for the Chrome trace
//! exporter, so the renderer's tests never certify their own output.
//! [`parse_prometheus`] backs `cargo xtask check-metrics` (CI's obs-smoke
//! scrape) and `tests/obs.rs`; `tests/seeded_expose.rs` pins render →
//! parse as the identity on the family model. Lines are read on the
//! workspace's one text cursor. The validator enforces the name/label
//! grammar, one `# TYPE` per family with every sample inside it under a
//! suffix its kind allows, no duplicate series, the label-value escapes
//! `\\`, `\"` and `\n` and no others (JSON's wider set is not
//! Prometheus's), and the histogram invariants: cumulative counts
//! non-decreasing, `le` ascending, `+Inf` last and equal to `_count`, and
//! `_sum`/`_count` present.

use saga_trace::expose::{PromFamily, PromKind, PromSample};
use saga_utils::scan::Cursor;

/// Parses and validates an exposition document, returning the family
/// model (see the module docs for the enforced invariants).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        read_line(&mut families, line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    for f in families.iter().filter(|f| f.kind == PromKind::Histogram) {
        validate_histogram(f)?;
    }
    Ok(families)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
        })
}

/// Prometheus's label-value escape set.
fn unescape(e: char, c: &mut Cursor<'_>) -> Result<char, String> {
    match e {
        '\\' | '"' => Ok(e),
        'n' => Ok('\n'),
        _ => Err(c.error(format!("bad escape '\\{e}'"))),
    }
}

/// Reads one line into the family model: a `# TYPE` opens a family, other
/// `#` lines and blank ones are skipped, anything else is a sample
/// `name{label="value",...} value` of the family opened last.
fn read_line(families: &mut Vec<PromFamily>, line: &str) -> Result<(), String> {
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        let mut c = Cursor::new(rest);
        let (Some(name), Some(kind)) = (c.token(), c.token()) else {
            return Err("malformed TYPE".to_string());
        };
        c.end()?;
        if !valid_name(name) {
            return Err(format!("bad family name `{name}`"));
        }
        if families.iter().any(|f| f.name == name) {
            return Err(format!("duplicate TYPE for `{name}`"));
        }
        let kind = [PromKind::Counter, PromKind::Gauge, PromKind::Histogram]
            .into_iter()
            .find(|k| k.as_str() == kind)
            .ok_or_else(|| format!("unknown kind `{kind}`"))?;
        families.push(PromFamily { name: name.to_string(), kind, samples: Vec::new() });
        return Ok(());
    }
    if line.trim().is_empty() || line.starts_with('#') {
        return Ok(()); // HELP or comment
    }
    let mut c = Cursor::new(line);
    let name = c.take_while(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':');
    if !valid_name(name) {
        return Err(c.error(format!("bad sample name `{name}`")));
    }
    let mut labels = Vec::new();
    if c.eat("{") {
        while !c.eat("}") {
            let label = c.ident().ok_or_else(|| c.error("bad label name"))?;
            c.expect("=")?;
            labels.push((label.to_string(), c.quoted(unescape)?));
            if !c.eat(",") {
                c.expect("}")?;
                break;
            }
        }
    }
    let value: f64 = c.parse()?;
    c.end()?;
    let family = families.last_mut().ok_or("sample before any TYPE")?;
    let suffix = name
        .strip_prefix(&family.name)
        .ok_or_else(|| format!("`{name}` outside family `{}`", family.name))?;
    let suffix_ok = match family.kind {
        PromKind::Histogram => matches!(suffix, "_bucket" | "_sum" | "_count"),
        _ => suffix.is_empty(),
    };
    if !suffix_ok {
        return Err(format!("suffix `{suffix}` invalid for {} family", family.kind.as_str()));
    }
    if family.samples.iter().any(|s| s.suffix == suffix && s.labels == labels) {
        return Err(format!("duplicate series `{name}`"));
    }
    family.samples.push(PromSample { suffix: suffix.to_string(), labels, value });
    Ok(())
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
            let le: f64 = le.parse().map_err(|_| format!("{}: bad le `{le}`", f.name))?;
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
    use saga_trace::expose::{build_families, prometheus_text, render_families};
    use saga_trace::metrics::{HistogramSummary, Label, MetricsSnapshot, SeriesKey};

    fn key(family: &str, label: Label) -> SeriesKey {
        SeriesKey { family: family.to_string(), label }
    }

    fn snap_with(counters: Vec<(&str, u64)>, gauges: Vec<(&str, f64)>) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.into_iter().map(|(n, v)| (key(n, None), v)).collect(),
            gauges: gauges.into_iter().map(|(n, v)| (key(n, None), v)).collect(),
            histograms: Vec::new(),
        }
    }

    fn summary(count: u64, sum: u64) -> HistogramSummary {
        HistogramSummary { count, sum, mean: 0.0, min: 0, p50: 0, p90: 0, p99: 0, p999: 0, max: 0 }
    }

    #[test]
    fn renders_and_parses_basic_families() {
        let shard = |s: &str| Some(("shard", s.to_string()));
        let mut snap = snap_with(vec![("server.requests", 42)], vec![]);
        snap.counters.push((key("bsp.shard_messages", shard("0")), 10));
        snap.counters.push((key("bsp.shard_messages", shard("1")), 12));
        snap.gauges.push((key("server.queue_depth", Some(("tenant", "a\"b".to_string()))), 5.0));
        snap.histograms.push((key("server.request_ns", None), summary(9, 12_345), vec![(1023, 4), (2047, 9)]));
        let tenant = Some(("tenant", "serial".to_string()));
        snap.histograms.push((key("server.tenant_batch_ns", tenant), summary(1, 7), vec![(7, 1)]));
        let families = build_families(&snap);
        let text = render_families(&families);
        assert!(text.contains("# TYPE server_requests counter"));
        assert!(text.contains("bsp_shard_messages{shard=\"0\"} 10"));
        assert!(text.contains("server_queue_depth{tenant=\"a\\\"b\"} 5"));
        assert!(text.contains("server_request_ns_bucket{le=\"1023\"} 4"));
        assert!(text.contains("server_request_ns_bucket{le=\"+Inf\"} 9"));
        assert!(text.contains("server_request_ns_sum 12345"));
        assert!(text.contains("server_request_ns_count 9"));
        assert!(text.contains("server_tenant_batch_ns_bucket{tenant=\"serial\",le=\"+Inf\"} 1"));
        assert!(text.contains("server_tenant_batch_ns_sum{tenant=\"serial\"} 7"));
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, families);
    }

    #[test]
    fn colliding_sanitized_names_stay_unique() {
        let snap = snap_with(vec![("a.b", 1), ("a_b", 2), ("a b", 3)], vec![]);
        let families = build_families(&snap);
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
        let families = build_families(&snap);
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
            ("# TYPE a gauge\na{x=\"\\t\"} 1\n", "escape outside \\\\ \\\" \\n"),
            ("# TYPE a gauge\na{x=\"1\"} 1 2\n", "trailing token"),
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
