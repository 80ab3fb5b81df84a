//! In-memory spans recorded by the harness around its calls into each
//! layer: name, start, end, and the span that caused it. Nothing inside
//! the measured crates is instrumented; a span brackets a public call.
//!
//! Spans are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this interval brackets.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. Switched off it reads no clock and stores nothing,
/// so the same harness loop serves the spans-on and the spans-off pass.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            // Room for a full sweep pass (2880 cells x 4 spans) so the
            // recorder does not reallocate inside what it is timing.
            spans: Vec::with_capacity(if on { 16_384 } else { 0 }),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span. Spans close innermost first.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Move the recorded spans out (the recorder keeps recording).
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "take() with a span still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed over all spans of that name. Children of
/// one parent never overlap here (one thread, strict nesting), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(*c);
    }
    out
}

/// The spans as a JSON array, one object per span, `id` = array index.
pub fn to_json(groups: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\n");
    for (g, (workload, spans)) in groups.iter().enumerate() {
        let _ = writeln!(out, "  \"{workload}\": [");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]{}", if g + 1 < groups.len() { "," } else { "" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100) > cell [10,60) > build [10,20), run [20,55)
        //              > cell [60,90) > run [62,88)
        let spans = vec![
            span("pass", 0, 100, None),
            span("cell", 10, 60, Some(0)),
            span("build", 10, 20, Some(1)),
            span("run", 20, 55, Some(1)),
            span("cell", 60, 90, Some(0)),
            span("run", 62, 88, Some(4)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], 100 - 50 - 30);
        assert_eq!(st["cell"], (50 - 10 - 35) + (30 - 26));
        assert_eq!(st["build"], 10);
        assert_eq!(st["run"], 35 + 26);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = vec![
            span("a", 0, 10, None),
            span("b", 2, 8, Some(0)),
            span("c", 3, 5, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!((st["a"], st["b"], st["c"]), (4, 4, 2));
    }

    #[test]
    fn recorder_nests_and_switches_off() {
        let mut r = Recorder::new(true);
        let a = r.enter("outer");
        let b = r.enter("inner");
        r.exit(b);
        r.exit(a);
        let s = r.take();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Recorder::new(false);
        let a = off.enter("outer");
        off.exit(a);
        assert!(off.take().is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let spans = vec![span("pass", 0, 9, None), span("run", 1, 8, Some(0))];
        let doc = to_json(&[("bulk_quic", &spans)]);
        assert!(doc.contains("\"bulk_quic\": ["));
        assert!(
            doc.contains("\"name\": \"pass\", \"start_ns\": 0, \"end_ns\": 9, \"parent\": null")
        );
        assert!(doc.contains(
            "\"id\": 1, \"name\": \"run\", \"start_ns\": 1, \"end_ns\": 8, \"parent\": 0"
        ));
    }
}
