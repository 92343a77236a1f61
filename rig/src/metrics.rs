//! The metric catalogue: every name the rig prints, with its unit and the
//! direction that is better. `BENCHMARK.json` at the repository root lists
//! the same names (a unit test compares the two).

use crate::json::Json;

/// Definition of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change is rejected; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the library or a client of the server feels. Measured
/// with tracing off, reported by every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("edges_per_s", "1/s", "higher", 0.25),
    e2e("batch_ms_mid", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

/// One number per layer, from the traced pass. Reported by every workload
/// on that workload's own inputs.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("stream.gen_s", "s", "lower"),
    layer("stream.parse_ns_per_op", "ns", "lower"),
    layer("http.parse_us", "us", "lower"),
    layer("http.write_us", "us", "lower"),
    layer("api.handle_us", "us", "lower"),
    layer("tenant.hop_us", "us", "lower"),
    layer("journal.append_ns_per_op", "ns", "lower"),
    layer("tenant.snapshot_ms", "ms", "lower"),
    layer("core.step_ms", "ms", "lower"),
    layer("core.update_share", "ratio", "lower"),
    layer("graph.update_ns_per_edge.AS", "ns", "lower"),
    layer("graph.update_ns_per_edge.AC", "ns", "lower"),
    layer("graph.update_ns_per_edge.Stinger", "ns", "lower"),
    layer("graph.update_ns_per_edge.DAH", "ns", "lower"),
    layer("graph.update_ns_per_edge.DeltaCSR", "ns", "lower"),
    layer("graph.delete_ns_per_edge.AS", "ns", "lower"),
    layer("graph.delete_ns_per_edge.AC", "ns", "lower"),
    layer("graph.delete_ns_per_edge.Stinger", "ns", "lower"),
    layer("graph.delete_ns_per_edge.DAH", "ns", "lower"),
    layer("graph.delete_ns_per_edge.DeltaCSR", "ns", "lower"),
    layer("graph.scan_ns_per_edge.AS", "ns", "lower"),
    layer("graph.scan_ns_per_edge.AC", "ns", "lower"),
    layer("graph.scan_ns_per_edge.Stinger", "ns", "lower"),
    layer("graph.scan_ns_per_edge.DAH", "ns", "lower"),
    layer("graph.scan_ns_per_edge.DeltaCSR", "ns", "lower"),
    layer("alg.tracker_ms", "ms", "lower"),
    layer("alg.affected_share", "ratio", "lower"),
    layer("alg.compute_ms", "ms", "lower"),
    layer("alg.repair_ok_share", "ratio", "higher"),
    layer("bsp.batch_ms", "ms", "lower"),
    layer("bsp.over_serial", "ratio", "lower"),
    layer("bsp.checkpoints", "count", "lower"),
    layer("core.mode_s.serial", "s", "lower"),
    layer("core.mode_s.partitioned", "s", "lower"),
    layer("core.mode_s.pipelined", "s", "lower"),
    layer("core.mode_s.sharded", "s", "lower"),
    layer("core.mode_over_serial.partitioned", "ratio", "lower"),
    layer("core.mode_over_serial.pipelined", "ratio", "lower"),
    layer("core.mode_over_serial.sharded", "ratio", "lower"),
    layer("pool.dispatch_us", "us", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("path.batch_us", "us", "lower"),
    layer("path.compute_share", "ratio", "lower"),
    layer("path.update_share", "ratio", "lower"),
    layer("path.outside_share", "ratio", "lower"),
    layer("path.unattributed_us", "us", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the catalogue.
    pub name: String,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit from the catalogue.
    pub unit: &'static str,
}

/// Measured values in catalogue order; building one checks that exactly
/// the catalogue's names were measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Orders `values` by `catalogue`.
    ///
    /// # Panics
    ///
    /// Panics when a catalogue name was not measured or a measured name is
    /// not in the catalogue: either is a bug in the rig.
    pub fn from_catalogue(catalogue: &[MetricDef], mut values: Vec<(String, f64)>) -> Metrics {
        let metrics = catalogue
            .iter()
            .map(|def| {
                let at = values
                    .iter()
                    .position(|(name, _)| name == def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                let (name, value) = values.swap_remove(at);
                Metric {
                    name,
                    value,
                    unit: def.unit,
                }
            })
            .collect();
        assert!(
            values.is_empty(),
            "measured values outside the catalogue: {values:?}"
        );
        Metrics(metrics)
    }

    /// `{name: {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_check::json::{parse, Json as Parsed};

    fn listed(doc: &Parsed, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let field = |m: &Parsed, k: &str| {
            m.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string()
        };
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(|b| b.as_f64()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
                .unwrap();
        let want = |defs: &[MetricDef]| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect();
        let names: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                def.name
            );
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    #[test]
    fn metrics_follow_catalogue_order() {
        let values = vec![("b".to_string(), 2.0), ("a".to_string(), 1.0)];
        let metrics = Metrics::from_catalogue(
            &[layer("a", "s", "lower"), layer("b", "ms", "lower")],
            values,
        );
        assert_eq!(
            metrics.to_json().compact(),
            r#"{"a":{"value":1,"unit":"s"},"b":{"value":2,"unit":"ms"}}"#
        );
    }
}
