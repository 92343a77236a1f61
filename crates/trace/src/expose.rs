//! Prometheus text exposition (format version 0.0.4): the renderer.
//!
//! The live server's `GET /metrics` renders one registry snapshot through
//! [`prometheus_text`]: counters and gauges become single samples, a
//! series' label (`tenant="serial"`, `shard="3"`) becomes its sample's
//! label, and histograms expand to `_bucket{le=...}`/`_sum`/`_count`
//! sample groups (cumulative counts over the registry's log buckets,
//! empty buckets elided). A `saga_build_info{version=...} 1` gauge and
//! `saga_uptime_seconds` ride along.
//!
//! Registry family names are arbitrary strings, Prometheus names are
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` — sanitization maps every other byte to
//! `_`. Two raw families may therefore collide after sanitization; the
//! renderer keeps the output well-formed by attaching a `raw="<original>"`
//! label to every sample of the raw family that did not open the
//! sanitized one (duplicate series are invalid exposition), and a family
//! whose sanitized name is already taken by a different *kind* gets a
//! kind suffix. Both rules are deterministic, so the rendered text reads
//! back to exactly the [`PromFamily`] model.
//!
//! Renderers live here and validators in `saga-check`, the way the Chrome
//! trace exporter and `saga_check::tracecheck` split: the validating
//! parser is `saga_check::prom::parse_prometheus` (behind `cargo xtask
//! check-metrics`), and its `seeded_expose` suite drives render → parse
//! with hostile names.

use crate::metrics::{MetricsSnapshot, SeriesKey};
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
    /// The kind's `# TYPE` spelling.
    pub fn as_str(self) -> &'static str {
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
/// series labels carried over, histograms expanded to bucket groups,
/// collisions disambiguated (see the module docs).
pub fn build_families(snap: &MetricsSnapshot) -> Vec<PromFamily> {
    let mut families: Vec<PromFamily> = Vec::new();
    // Per family: the raw registry family that opened it. Its samples are
    // unique by the registry's key; every other raw family's carry `raw`.
    let mut owners: Vec<String> = Vec::new();
    let mut push = |key: &SeriesKey, kind: PromKind, samples: Vec<(&str, Option<String>, f64)>| {
        let mut name = sanitize_name(&key.family);
        let fi = loop {
            match families.iter().position(|f| f.name == name) {
                Some(fi) if families[fi].kind == kind => break fi,
                // Same sanitized name, different kind: a family may have
                // only one TYPE, so suffix the later kind.
                Some(_) => {
                    name.push('_');
                    name.push_str(kind.as_str());
                }
                None => {
                    families.push(PromFamily { name, kind, samples: Vec::new() });
                    owners.push(key.family.clone());
                    break families.len() - 1;
                }
            }
        };
        let mut labels: Vec<(String, String)> = Vec::new();
        if let Some((k, v)) = &key.label {
            labels.push((k.to_string(), v.clone()));
        }
        if owners[fi] != key.family {
            labels.push(("raw".to_string(), key.family.clone()));
        }
        for (suffix, le, value) in samples {
            let mut labels = labels.clone();
            if let Some(le) = le {
                labels.push(("le".to_string(), le));
            }
            families[fi].samples.push(PromSample { suffix: suffix.to_string(), labels, value });
        }
    };
    for (key, v) in &snap.counters {
        push(key, PromKind::Counter, vec![("", None, *v as f64)]);
    }
    for (key, v) in &snap.gauges {
        push(key, PromKind::Gauge, vec![("", None, *v)]);
    }
    for (key, summary, buckets) in &snap.histograms {
        // The total is the final cumulative bucket count, so `+Inf` and
        // `_count` agree by construction even when the snapshot raced
        // recorders; `_sum` may lag by the in-flight recordings, which
        // Prometheus semantics tolerate.
        let count = buckets.last().map_or(0, |&(_, c)| c) as f64;
        let mut samples: Vec<_> =
            buckets.iter().map(|&(le, cum)| ("_bucket", Some(le.to_string()), cum as f64)).collect();
        samples.push(("_bucket", Some("+Inf".to_string()), count));
        samples.push(("_sum", None, summary.sum as f64));
        samples.push(("_count", None, count));
        push(key, PromKind::Histogram, samples);
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
    families.extend(build_families(&crate::metrics::snapshot()));
    render_families(&families)
}
