//! The in-memory span list of a traced run.
//!
//! Spans are recorded by the benchmark round each call into a public
//! function of the program, kept in a pre-sized vector, and written out as
//! `trace_<workload>.json` when the run ends. Nothing inside the program is
//! instrumented.

use std::time::Instant;

use ndirect_support::Json;

/// Index of a span inside its [`Trace`].
pub type SpanId = u32;

/// One timed interval: the call `name`, made while serving operation `op`
/// (sweep / inference / request number), caused by span `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A bounded span list. When full, further spans are counted in
/// [`Trace::dropped`] instead of growing the vector inside a timed loop.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    pub dropped: u64,
}

impl Trace {
    pub fn with_capacity(capacity: usize) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; `None` when the list is full.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> Option<SpanId> {
        self.record(name, Instant::now(), None, parent, op)
    }

    /// Closes a span opened with [`Trace::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span from timestamps the caller already took (the timed
    /// loops read the clock once and use it for both sample and span).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Option<Instant>,
        parent: Option<SpanId>,
        op: u32,
    ) -> Option<SpanId> {
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end.map_or(start_ns, |e| self.ns(e)),
            parent,
            op,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Some(Instant::now()), parent, op);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-operation totals of every span called `name`, in milliseconds,
    /// one entry per operation that has such a span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::<u32, u64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.duration_ns();
        }
        by_op.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// For every span called `name`, the part of it its children cover,
    /// in milliseconds: the span minus its self time.
    pub fn covered_per_op_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| (s.duration_ns() - own) as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &own)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ("self_ns".into(), Json::Num(own as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op".into(), Json::Num(f64::from(s.op))),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("clock".into(), Json::str("ns since the trace was created")),
            ("dropped".into(), Json::Num(self.dropped as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children may overlap each other; the covered part is
/// the union of their intervals clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1: child, 20 long
            span(20, 50, Some(0)),  // 2: overlaps 1 -> union with 1 is 10..50
            span(60, 70, Some(0)),  // 3: disjoint child
            span(25, 45, Some(2)),  // 4: grandchild counts against 2, not the root
            span(90, 120, Some(0)), // 5: runs past the root, clipped to 90..100
            span(200, 260, None),   // 6: second root, no children
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 10, 20, 30, 60]);
    }

    #[test]
    fn a_full_trace_counts_what_it_drops() {
        let mut trace = Trace::with_capacity(2);
        let root = trace.open("root", None, 0);
        trace.span("child", root, 0, || ());
        trace.span("lost", root, 0, || ());
        trace.close(root);
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.dropped, 1);
        assert!(trace.spans()[0].end_ns >= trace.spans()[1].end_ns);
    }

    #[test]
    fn per_op_totals_group_by_operation() {
        let mut trace = Trace::with_capacity(8);
        let t = Instant::now();
        let later = |ms| Some(t + std::time::Duration::from_millis(ms));
        trace.record("a", t, later(2), None, 0);
        trace.record("a", t, later(3), None, 0);
        trace.record("a", t, later(7), None, 1);
        trace.record("b", t, later(1), None, 1);
        assert_eq!(trace.per_op_ms("a"), vec![5.0, 7.0]);
        assert_eq!(trace.per_op_ms("b"), vec![1.0]);
    }
}
