//! Seeded property tests for the Prometheus exposition pair: arbitrary
//! (and hostile) registry names, label values, and histogram shapes must
//! render to text that the in-tree validating parser accepts and maps
//! back to the *identical* family model. This is the contract the
//! `/metrics` endpoint, the CI smoke scrape, and `cargo xtask
//! check-metrics` all lean on: if render → parse is the identity on the
//! model, any document the validator rejects really is malformed. The
//! renderer is `saga_trace::expose`, the validator `saga_check::prom`.

use saga_check::prom::parse_prometheus;
use saga_trace::expose::{build_families, render_families, PromFamily, PromKind, PromSample};
use saga_trace::metrics::{Buckets, HistogramSummary, Label, MetricsSnapshot, SeriesKey};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};
use std::collections::BTreeMap;

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

/// The characters real call sites use in registry names (letters,
/// digits, `.`-separated segments) plus the ones
/// the sanitizer and escaper exist for: spaces, quotes, backslashes,
/// newlines, and punctuation that collides after sanitization.
const NAME_ALPHABET: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '1', '9', '.', '_', ':', '-', '!', '/', '\\', '"', ' ', '\n',
];

/// Label values get the full hostile treatment: escape-relevant
/// characters, control characters, and multi-byte Unicode.
const VALUE_ALPHABET: &[char] = &[
    'a', 'Z', '7', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'λ', '∞', '字', ' ', '=', ',',
    '{', '}',
];

/// `lo..=hi` characters of `alphabet`.
fn word(rng: &mut Xoshiro256PlusPlus, alphabet: &[char], lo: usize, hi: usize) -> String {
    rng.vec(lo, hi, |rng| alphabet[rng.range(0, alphabet.len() - 1)]).into_iter().collect()
}

fn raw_name(rng: &mut Xoshiro256PlusPlus) -> String {
    word(rng, NAME_ALPHABET, 1, 15)
}

/// A registry key: a hostile family name, and half the time a label of
/// one of the keys call sites use with a hostile value.
fn series_key(rng: &mut Xoshiro256PlusPlus) -> SeriesKey {
    let label: Label = match rng.range(0, 3) {
        0 => Some(("tenant", word(rng, VALUE_ALPHABET, 0, 7))),
        1 => Some(("shard", rng.range(0, 3).to_string())),
        _ => None,
    };
    SeriesKey { family: raw_name(rng), label }
}

/// Finite values plus both infinities; `NaN` is excluded only because
/// the model comparison uses `==` (the renderer and parser both handle
/// `NaN` — covered by a unit test in `prom.rs`).
fn metric_value(rng: &mut Xoshiro256PlusPlus) -> f64 {
    match rng.range(0, 9) {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        _ => {
            let bits = rng.next_u64();
            let v = f64::from_bits(bits);
            if v.is_finite() { v } else { bits as f64 }
        }
    }
}

/// A valid-by-construction histogram entry: strictly ascending bucket
/// bounds and non-decreasing cumulative counts. Only `sum` of the summary
/// row reaches the exposition (the count is the last bucket's). Bounds
/// stay far below 2^53 so their decimal rendering parses back to distinct
/// `f64`s.
fn histogram(rng: &mut Xoshiro256PlusPlus) -> (SeriesKey, HistogramSummary, Buckets) {
    let (mut bound, mut cum) = (0u64, 0u64);
    let buckets = rng.vec(0, 5, |rng| {
        bound += rng.range(1, 999) as u64;
        cum += rng.range(0, 999) as u64;
        (bound, cum)
    });
    let summary = HistogramSummary {
        count: cum,
        sum: rng.next_u64() >> 32,
        mean: 0.0,
        min: 0,
        p50: 0,
        p90: 0,
        p99: 0,
        p999: 0,
        max: 0,
    };
    (series_key(rng), summary, buckets)
}

/// Registry key uniqueness (the live registry is a map) via `BTreeMap`
/// collapse; generated duplicates just overwrite.
fn unique<V>(pairs: Vec<(SeriesKey, V)>) -> Vec<(SeriesKey, V)> {
    pairs.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect()
}

/// [`unique`] for histogram entries.
fn unique_histograms(
    entries: Vec<(SeriesKey, HistogramSummary, Buckets)>,
) -> Vec<(SeriesKey, HistogramSummary, Buckets)> {
    let by_key: BTreeMap<_, _> = entries.into_iter().map(|(k, s, b)| (k, (s, b))).collect();
    by_key.into_iter().map(|(k, (s, b))| (k, s, b)).collect()
}

/// Renders, parses back (the validator must accept what the renderer
/// wrote) and returns the parsed model.
fn roundtrip(families: &[PromFamily]) -> Vec<PromFamily> {
    let text = render_families(families);
    parse_prometheus(&text).unwrap_or_else(|e| {
        panic!("validator rejected rendered text: {e}\n--- document ---\n{text}")
    })
}

/// The headline property: any registry contents — colliding sanitized
/// names, kind conflicts, labelled families, hostile characters — survive
/// render → parse unchanged.
#[test]
fn registry_snapshot_roundtrips_through_exposition() {
    for_each_seed(SEEDS, |rng| {
        let snap = MetricsSnapshot {
            counters: unique(rng.vec(0, 7, |rng| (series_key(rng), rng.next_u64()))),
            gauges: unique(rng.vec(0, 7, |rng| (series_key(rng), metric_value(rng)))),
            histograms: unique_histograms(rng.vec(0, 3, histogram)),
        };
        let families = build_families(&snap);
        assert_eq!(roundtrip(&families), families);
    });
}

/// Label *values* are arbitrary (quotes, backslashes, newlines, control
/// characters, multi-byte Unicode); escaping must be lossless through
/// the parser.
#[test]
fn hostile_label_values_roundtrip() {
    for_each_seed(SEEDS, |rng| {
        let samples = (0..rng.range(1, 4))
            .map(|i| PromSample {
                suffix: String::new(),
                // Distinct `shard` keeps series unique even when values repeat.
                labels: vec![
                    ("shard".to_string(), i.to_string()),
                    ("raw".to_string(), word(rng, VALUE_ALPHABET, 0, 11)),
                ],
                value: i as f64,
            })
            .collect();
        let families = vec![PromFamily {
            name: "hostile_labels".to_string(),
            kind: PromKind::Gauge,
            samples,
        }];
        assert_eq!(roundtrip(&families), families);
    });
}

/// Rendered histograms always satisfy the exposition invariants the
/// validator checks: `le` ascending with `+Inf` last, cumulative counts
/// non-decreasing, `+Inf == _count`, `_sum` present.
#[test]
fn rendered_histograms_satisfy_bucket_invariants() {
    for_each_seed(SEEDS, |rng| {
        let snap = MetricsSnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: unique_histograms(rng.vec(1, 3, histogram)),
        };
        // `parse_prometheus` runs `validate_histogram` over every
        // histogram family; acceptance *is* the invariant check.
        for f in &roundtrip(&build_families(&snap)) {
            assert_eq!(f.kind, PromKind::Histogram);
            assert!(f.samples.iter().any(|s| s.suffix == "_count"));
            assert!(f.samples.iter().any(|s| s.suffix == "_sum"));
        }
    });
}
