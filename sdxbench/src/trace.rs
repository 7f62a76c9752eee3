//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the program.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the event (update, burst, policy push, packet batch) it belongs
//! to. Spans stay in memory while a run measures and are written out as
//! JSON lines when it ends. A span's *self time* is its duration minus
//! the part of its interval that its children cover; an event's
//! *residual* is its end-to-end time minus the time attributed to named
//! layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use sdx_telemetry::Json;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The event this span belongs to.
    pub event: u64,
    /// Layer boundary name, e.g. `churn.prepare`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (≥ start).
    pub end: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle to a recorded span (`None` when tracing is off, so callers
/// never branch on the mode).
pub type SpanId = Option<usize>;

/// The span recorder. With tracing off every call is a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span over `[start, end]`.
    pub fn record(
        &mut self,
        event: u64,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            event,
            name,
            start,
            end: end.max(start),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span at `start`; its children can refer to it before it
    /// is [closed](Self::close).
    pub fn open(
        &mut self,
        event: u64,
        name: &'static str,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        self.record(event, name, parent, start, start)
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            let end = self.ns(end);
            let s = &mut self.spans[i];
            s.end = end.max(s.start);
        }
    }

    /// Per-name totals of self time (ns) and span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let span = Json::obj([
                ("id".to_string(), Json::from(i)),
                ("event".to_string(), Json::from(s.event)),
                ("name".to_string(), Json::from(s.name)),
                ("start_ns".to_string(), Json::from(s.start)),
                ("end_ns".to_string(), Json::from(s.end)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, Json::from),
                ),
            ]);
            writeln!(w, "{span}")?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn span_self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Per-name totals of self time (ns) and span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(span_self_times(spans)) {
        let slot = out.entry(s.name).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    out
}

/// End-to-end time not attributed to any named layer.
pub fn residual(e2e: f64, attributed: &[f64]) -> f64 {
    e2e - attributed.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            event: 1,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("burst", 0, 100, None),
            span("fastpath", 0, 30, Some(0)),
            span("prepare", 30, 90, Some(0)),
            span("compile", 40, 50, Some(2)),
        ];
        let own = span_self_times(&spans);
        assert_eq!(own, vec![10, 30, 50, 10]);
        // Self times of a tree sum to the root's inclusive time.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur());
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),  // overhangs the start
            span("b", 15, 30, Some(0)), // overlaps a
            span("c", 45, 70, Some(0)), // overhangs the end
        ];
        // Covered: [10, 30) and [45, 50) → 25 of 40.
        assert_eq!(span_self_times(&spans)[0], 15);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("batch", 0, 10, None),
            span("classify", 0, 4, Some(0)),
            span("batch", 10, 30, None),
            span("classify", 10, 18, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"], (18, 2));
        assert_eq!(t["classify"], (12, 2));
    }

    #[test]
    fn residual_is_what_layers_leave() {
        assert_eq!(residual(100.0, &[30.0, 50.0]), 20.0);
        assert_eq!(residual(10.0, &[]), 10.0);
        // Over-attribution shows as a negative residual, not a clamp.
        assert_eq!(residual(10.0, &[12.0]), -2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record(1, "x", None, now, now), None);
        assert!(t.self_times().is_empty());
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let root = t.open(1, "x", None, now);
        assert_eq!(root, Some(0));
        t.record(1, "y", root, now, now + Duration::from_micros(3));
        t.close(root, now + Duration::from_micros(10));
        assert_eq!(t.self_times()["x"], (7_000, 1));
        assert_eq!(t.self_times()["y"], (3_000, 1));
    }
}
