//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API.
//! Each records its name, start, end, parent and op id; self time is the
//! span minus the part its children cover. When disabled, `enter` and
//! `exit` never read the clock, so the untraced run pays one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans written to the trace file; the rest stay in the per-name totals.
const WRITE_CAP: usize = 65_536;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u32,
}

/// Per-name totals over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Span time minus child-span time, in nanoseconds.
    pub self_ns: u64,
    /// Whole span time, in nanoseconds.
    pub total_ns: u64,
    /// Spans closed.
    pub calls: u64,
}

/// A token returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: (index into `spans`, child time accumulated so far).
    stack: Vec<(u32, u64)>,
    op: u32,
    window: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            window: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let parent = self.stack.last().map(|&(p, _)| p);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push((idx, 0));
        Open(Some(idx))
    }

    /// Closes the span `open`, which must be the innermost open one.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        let Some((top, child_ns)) = self.stack.pop() else {
            return;
        };
        debug_assert_eq!(top, idx, "spans close innermost first");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        let total = end.saturating_sub(span.start_ns);
        let name = span.name;
        if let Some(parent) = self.stack.last_mut() {
            parent.1 += total;
        }
        let t = self.window.entry(name).or_default();
        t.self_ns += total.saturating_sub(child_ns);
        t.total_ns += total;
        t.calls += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Per-name totals since the last call, and starts a new window.
    pub fn take_window(&mut self) -> BTreeMap<&'static str, Totals> {
        std::mem::take(&mut self.window)
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as a chrome://tracing JSON document, capped at
    /// the first [`WRITE_CAP`] spans; `header` lines go in as metadata.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\"metadata\": {");
        for (i, (k, v)) in header.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", json_escape(k), json_escape(v));
        }
        let _ = write!(
            out,
            ", \"spans_recorded\": \"{}\", \"spans_written\": \"{}\"}},\n\"traceEvents\": [",
            self.spans.len(),
            self.spans.len().min(WRITE_CAP)
        );
        for (i, s) in self.spans.iter().take(WRITE_CAP).enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escapes `s` for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let w = t.take_window();
        let (outer, inner) = (w["outer"], w["inner"]);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(t.to_json(&[]).contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", |_| ());
        assert!(t.take_window().is_empty());
        assert_eq!(t.span_count(), 0);
    }
}
