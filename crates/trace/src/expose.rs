//! Prometheus text exposition (format version 0.0.4): the renderer.
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
//! *kind* gets a kind suffix. Both rules are deterministic, so the
//! rendered text reads back to exactly the [`PromFamily`] model.
//!
//! Renderers live here and validators in `saga-check`, the way the Chrome
//! trace exporter and `saga_check::tracecheck` split: the validating
//! parser is `saga_check::prom::parse_prometheus` (behind `cargo xtask
//! check-metrics`), and its `seeded_expose` suite drives render → parse
//! with hostile names.

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
