//! The `--aa N` self-check: the same code, the same seed, N sets of runs
//! in alternating workload order. A metric whose values differ across the
//! sets by more than its own regression bound cannot gate anything.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::median;

/// The end-to-end metrics one run of one workload reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Workload name.
    pub workload: &'static str,
    /// `(metric name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

impl Measured {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// One metric of one workload across the sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// One value per set.
    pub values: Vec<f64>,
    /// `(max − min) ÷ median` of the values.
    pub spread: f64,
    /// The metric's regression bound.
    pub bound: f64,
}

impl Row {
    /// Whether the sets agree within the bound.
    pub fn ok(&self) -> bool {
        self.spread <= self.bound
    }
}

/// The order of workload indices in set `k`: forward, then backward, ...
pub fn order(workloads: usize, k: usize) -> Vec<usize> {
    if k.is_multiple_of(2) {
        (0..workloads).collect()
    } else {
        (0..workloads).rev().collect()
    }
}

/// Compares the end-to-end metrics of `sets[k][w]` (set × workload; every
/// set holds the same workloads in the same positions).
pub fn compare(sets: &[Vec<Measured>]) -> Vec<Row> {
    let first = sets.first().map_or(&[][..], Vec::as_slice);
    let mut rows = Vec::new();
    for (w, outcome) in first.iter().enumerate() {
        for def in &END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|set| set[w].get(def.name)).collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            rows.push(Row {
                workload: outcome.workload,
                metric: def.name,
                spread: (max - min) / median(&values).abs().max(f64::MIN_POSITIVE),
                values,
                bound: def.bound.expect("end-to-end metrics carry a bound"),
            });
        }
    }
    rows
}

/// The table as JSON, one object per row.
pub fn to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::obj([
                    ("workload", Json::str(row.workload)),
                    ("metric", Json::str(row.metric)),
                    (
                        "values",
                        Json::Arr(row.values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                    ("spread", Json::Num(row.spread)),
                    ("bound", Json::Num(row.bound)),
                    ("within_bound", Json::Bool(row.ok())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(edges_per_s: f64) -> Measured {
        let value = |name: &str| {
            if name == "edges_per_s" {
                edges_per_s
            } else {
                1.0
            }
        };
        Measured {
            workload: "lib.fs-sweep",
            metrics: END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), value(d.name)))
                .collect(),
        }
    }

    #[test]
    fn a_metric_that_moves_more_than_its_bound_fails_the_check() {
        let rows = compare(&[vec![outcome(100.0)], vec![outcome(103.0)]]);
        let eps = rows.iter().find(|r| r.metric == "edges_per_s").unwrap();
        assert!((eps.spread - 3.0 / 101.5).abs() < 1e-12 && eps.ok());
        let rows = compare(&[vec![outcome(100.0)], vec![outcome(140.0)]]);
        assert!(!rows
            .iter()
            .find(|r| r.metric == "edges_per_s")
            .unwrap()
            .ok());
        assert!(rows
            .iter()
            .filter(|r| r.metric != "edges_per_s")
            .all(|r| r.spread == 0.0 && r.ok()));
    }

    #[test]
    fn sets_alternate_workload_order() {
        assert_eq!(order(3, 0), [0, 1, 2]);
        assert_eq!(order(3, 1), [2, 1, 0]);
        assert_eq!(order(3, 2), [0, 1, 2]);
    }
}
