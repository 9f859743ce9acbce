//! In-memory spans for the traced pass (`--trace 1`).
//!
//! The benchmark wraps its own calls into each layer — nothing inside the
//! program is instrumented (that is ROADMAP item 4). Spans live in a
//! vector until the run ends and are then written as one JSON file. A
//! span's *self time* is its duration minus the part of that interval its
//! child spans cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by all spans of one request.
    pub req: Option<u64>,
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer for the traced pass, or — with `enabled` false — one that
    /// records nothing, so the timed pass runs the same code without spans.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.add(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now.max(span.start_ns);
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, indexed like the spans: duration minus
    /// the union of the children's intervals, clipped to the parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The whole trace as a JSON value: the spans and the per-name totals.
    pub fn to_json(&self) -> Value {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Value::Object(vec![
                    ("id".into(), Value::Int(id as i64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Int(s.start_ns as i64)),
                    ("end_ns".into(), Value::Int(s.end_ns as i64)),
                    ("self_ns".into(), Value::Int(self_ns as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    (
                        "request".into(),
                        s.req.map_or(Value::Null, |r| Value::Int(r as i64)),
                    ),
                ])
            })
            .collect();
        let totals = self
            .totals_by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::Int(t.count as i64)),
                        ("total_ns".into(), Value::Int(t.total_ns as i64)),
                        ("self_ns".into(), Value::Int(t.self_ns as i64)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("totals_by_name".into(), Value::Object(totals)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let o = Instant::now();
        let mut t = Tracer::new(o, true);
        let root = t.add("request", at(o, 0), at(o, 100), None, Some(7));
        // Two overlapping children cover [10, 60]; a third sticks out past
        // the parent's end and is clipped to [90, 100].
        t.add("push", at(o, 10), at(o, 40), Some(root), Some(7));
        let wait = t.add("queue_wait", at(o, 30), at(o, 60), Some(root), Some(7));
        t.add("service", at(o, 90), at(o, 130), Some(root), Some(7));
        // A grandchild only reduces its own parent.
        t.add("inner", at(o, 35), at(o, 45), Some(wait), Some(7));
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 40_000); // 100 - 50 - 10
        assert_eq!(selfs[wait as usize], 20_000); // 30 - 10
        assert_eq!(selfs[1], 30_000);
        let totals = t.totals_by_name();
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 1,
                total_ns: 100_000,
                self_ns: 40_000
            }
        );
    }

    #[test]
    fn open_close_and_json_shape() {
        let mut t = Tracer::new(Instant::now(), true);
        let a = t.open("phase", None);
        let b = t.open("call", Some(a));
        t.close(b);
        t.close(a);
        assert_eq!(t.len(), 2);
        let json = serde_json::to_string(&t.to_json()).unwrap();
        assert!(json.starts_with("{\"totals_by_name\":{\"call\":{\"count\":1"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":null"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let a = t.open("phase", None);
        t.add("call", Instant::now(), Instant::now(), Some(a), None);
        t.close(a);
        assert_eq!(t.len(), 0);
        assert!(!t.enabled());
    }
}
