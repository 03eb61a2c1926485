//! In-memory spans around calls into each layer, for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that was open when it began (its parent), and
//! the run or request id it belongs to. Spans are kept in memory and
//! written out as JSON lines when the run ends. The traced run is serial,
//! so one stack of open spans gives every span its parent.

use simt_serve::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `workloads.prepare`.
    pub name: &'static str,
    /// Figure cell index or service request id.
    pub run: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. Cheap to share by reference; internally locked.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for run/request `run`.
    pub fn span<R>(&self, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut st = self
                .state
                .lock()
                .expect("tracer lock poisoned by a panicking span");
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let start_ns = self.now_ns();
            st.spans.push(Span {
                id,
                parent,
                name,
                run,
                start_ns,
                end_ns: start_ns,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = self
            .state
            .lock()
            .expect("tracer lock poisoned by a panicking span");
        st.spans[id].end_ns = self.now_ns();
        st.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .spans
            .clone()
    }
}

/// `f` inside a span when a tracer is given, plain `f` otherwise.
pub(crate) fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    run: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, run, f),
        None => f(),
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of each span: its duration minus the part of it that its
/// children cover. Indexed like `spans`.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - covered(s.start_ns, s.end_ns, kids).min(dur)
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub(crate) fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Total duration per span name, in seconds (for derived differences).
pub(crate) fn total_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let j = Json::Obj(vec![
            ("id".into(), Json::UInt(s.id as u64)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
            ),
            ("name".into(), Json::Str(s.name.into())),
            ("run".into(), Json::UInt(s.run)),
            ("start_ns".into(), Json::UInt(s.start_ns)),
            ("end_ns".into(), Json::UInt(s.end_ns)),
        ]);
        out.push_str(&j.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn nested_self_time_subtracts_child_coverage() {
        // root [0,100) with children [10,30) and [20,50) (overlapping)
        // and a grandchild [12,18) inside the first child.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            span(3, Some(1), "c", 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![60, 14, 30, 6]);
        // Overlapping siblings both keep [20,30) as self time...
        assert_eq!(st.iter().sum::<u64>(), 100 + 10);
        // ...without overlap the self times partition the root exactly.
        let flat = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 30, 50),
            span(3, Some(1), "c", 12, 18),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 100);
        let by = self_seconds_by_name(&flat);
        assert!((by["root"] - 60e-9).abs() < 1e-18);
        assert!((by["a"] - 14e-9).abs() < 1e-18);
    }

    #[test]
    fn tracer_records_parents_and_order() {
        let t = Tracer::new();
        let v = t.span("outer", 7, || t.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let st = self_times(&spans);
        assert_eq!(
            st[0] + st[1],
            spans[0].end_ns - spans[0].start_ns,
            "self times of a serial trace add up to the root"
        );
        let jl = to_jsonl(&spans);
        assert_eq!(jl.lines().count(), 2);
        assert!(jl.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
