//! Rig-owned spans: the traced pass wraps each call into a layer's public
//! function in a span (name, start, end, parent, batch id), keeps them in
//! memory, and derives each layer's self time — its spans' duration minus
//! the part their child spans cover — when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`graph.update`, `http.parse`, ...).
    pub name: &'static str,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The batch (request) the span belongs to.
    pub batch: u64,
}

/// Collects spans on one thread. A disabled recorder takes the same calls
/// and records nothing, so one replay function serves both the traced and
/// the untraced side of the overhead comparison.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// A recorder; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.enter_at(name, batch, start_ns)
    }

    /// [`enter`](Self::enter) with an explicit start time (tests, and
    /// spans stamped from timestamps taken elsewhere).
    pub fn enter_at(&mut self, name: &'static str, batch: u64, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.exit_at(id, end_ns);
    }

    /// [`exit`](Self::exit) with an explicit end time.
    pub fn exit_at(&mut self, id: SpanId, end_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, batch);
        let out = f();
        self.exit(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part covered by their children.
    pub self_ns: u64,
}

/// Self-time table: for every span name, count, total and self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let total = span.end_ns.saturating_sub(span.start_ns);
        // Children may overlap each other (parallel parts): subtract the
        // union of their intervals, clipped to the parent.
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, span.start_ns);
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(span.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let row = table.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += total;
        row.self_ns += total - covered.min(total);
    }
    table
}

/// Sum of the self times of every name for which `pick` holds.
pub fn self_ns_where(
    table: &BTreeMap<&'static str, LayerTime>,
    pick: impl Fn(&str) -> bool,
) -> u64 {
    table
        .iter()
        .filter(|(name, _)| pick(name))
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// The span file: the self-time table first, then every span.
pub fn to_json(spans: &[Span]) -> Json {
    let table = self_times(spans);
    let all_self: u64 = table.values().map(|t| t.self_ns).sum();
    let rows = table.iter().map(|(name, t)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("count", Json::count(t.count)),
            ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
            ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
            (
                "self_share",
                Json::Num(t.self_ns as f64 / all_self.max(1) as f64),
            ),
        ])
    });
    let events = spans.iter().enumerate().map(|(id, s)| {
        Json::obj([
            ("id", Json::count(id)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
            ("parent", s.parent.map_or(Json::Null, Json::count)),
            ("batch", Json::Int(s.batch as i64)),
        ])
    });
    Json::obj([
        ("self_time", Json::Arr(rows.collect())),
        ("spans", Json::Arr(events.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut rec = Recorder::new(true);
        let root = rec.enter_at("batch", 7, 0);
        let update = rec.enter_at("graph.update", 7, 10);
        rec.exit_at(update, 40);
        let compute = rec.enter_at("alg.compute", 7, 50);
        let inner = rec.enter_at("pool.dispatch", 7, 60);
        rec.exit_at(inner, 70);
        rec.exit_at(compute, 90);
        rec.exit_at(root, 100);

        let table = self_times(rec.spans());
        assert_eq!(
            table["batch"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(table["graph.update"].self_ns, 30);
        assert_eq!(
            table["alg.compute"],
            LayerTime {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(table["pool.dispatch"].self_ns, 10);
        // Self times partition the root's duration.
        assert_eq!(self_ns_where(&table, |_| true), 100);
        assert_eq!(rec.spans()[inner].parent, Some(compute));
        assert_eq!(rec.spans()[inner].batch, 7);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                batch: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                batch: 0,
            },
            Span {
                name: "b",
                start_ns: 40,
                end_ns: 80,
                parent: Some(0),
                batch: 0,
            },
        ];
        assert_eq!(self_times(&spans)["root"].self_ns, 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let out = rec.scope("x", 0, || 5);
        assert_eq!(out, 5);
        assert!(rec.spans().is_empty());
    }
}
