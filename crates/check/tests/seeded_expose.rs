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
use saga_trace::metrics::{HistogramDetail, MetricsSnapshot};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};
use std::collections::BTreeMap;

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

/// The characters real call sites use in registry names (letters,
/// digits, `.`-separated segments, indexed `.N` suffixes) plus the ones
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

/// Valid-by-construction bucket detail: strictly ascending bounds,
/// non-decreasing cumulative counts, total count at least the last
/// bucket. Bounds stay far below 2^53 so their decimal rendering
/// parses back to distinct `f64`s.
fn hist_detail(rng: &mut Xoshiro256PlusPlus) -> HistogramDetail {
    let (mut bound, mut cum) = (0u64, 0u64);
    let buckets = rng.vec(0, 5, |rng| {
        bound += rng.range(1, 999) as u64;
        cum += rng.range(0, 999) as u64;
        (bound, cum)
    });
    HistogramDetail {
        buckets,
        count: cum + rng.range(0, 999) as u64,
        sum: rng.next_u64() >> 32,
    }
}

/// Registry name uniqueness (the live registry is a map) via `BTreeMap`
/// collapse; generated duplicates just overwrite.
fn unique<V>(pairs: Vec<(String, V)>) -> Vec<(String, V)> {
    pairs.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect()
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
/// names, kind conflicts, indexed families, hostile characters — survive
/// render → parse unchanged.
#[test]
fn registry_snapshot_roundtrips_through_exposition() {
    for_each_seed(SEEDS, |rng| {
        let snap = MetricsSnapshot {
            counters: unique(rng.vec(0, 7, |rng| (raw_name(rng), rng.next_u64()))),
            gauges: unique(rng.vec(0, 7, |rng| (raw_name(rng), metric_value(rng)))),
            histograms: Vec::new(),
        };
        let details = unique(rng.vec(0, 3, |rng| (raw_name(rng), hist_detail(rng))));
        let families = build_families(&snap, &details);
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
                // Distinct `idx` keeps series unique even when values repeat.
                labels: vec![
                    ("idx".to_string(), i.to_string()),
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
            histograms: Vec::new(),
        };
        let details = unique(rng.vec(1, 3, |rng| (raw_name(rng), hist_detail(rng))));
        // `parse_prometheus` runs `validate_histogram` over every
        // histogram family; acceptance *is* the invariant check.
        for f in &roundtrip(&build_families(&snap, &details)) {
            assert_eq!(f.kind, PromKind::Histogram);
            assert!(f.samples.iter().any(|s| s.suffix == "_count"));
            assert!(f.samples.iter().any(|s| s.suffix == "_sum"));
        }
    });
}
