//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory while the benchmark runs and written out once
//! at the end, so recording costs one `Instant::now()` and one push per
//! boundary. When recording is off, `enter`/`exit` do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One recorded span: a named interval of host time and the span that
/// enclosed it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when recording was off at `enter`.
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new() -> Self {
        Spans {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Number of spans recorded so far (a mark for [`Self::sums`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Self::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in stack order");
        }
    }

    /// Total seconds per span name over the spans recorded in `range`.
    pub fn sums(&self, range: Range<usize>) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for span in &self.spans[range] {
            *out.entry(span.name).or_insert(0.0) += span.seconds();
        }
        out
    }

    /// The recorded spans as a JSON array of
    /// `{"id", "name", "start_ns", "end_ns", "parent"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut spans = Spans::new();
        let off = spans.enter("ignored");
        spans.exit(off);
        assert_eq!(spans.len(), 0);

        spans.set_enabled(true);
        let outer = spans.enter("pass");
        for _ in 0..2 {
            let inner = spans.enter("core.scan.row");
            spans.exit(inner);
        }
        spans.exit(outer);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        let sums = spans.sums(0..spans.len());
        assert!(sums["pass"] >= sums["core.scan.row"]);
        assert!(spans.to_json().contains("\"parent\": 0"));
    }
}
