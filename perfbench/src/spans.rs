//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented). Each
//! span keeps its name, start, end, parent span and frame id; the whole
//! set is written out once, at exit, as a Chrome trace.

use esca_telemetry::ChromeTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span of one traced frame.
pub const FRAME: &str = "frame";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the repository module the span times).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Frame the span belongs to (`u64::MAX` outside any frame).
    pub frame: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Total duration minus the part covered by child spans, ns.
    pub self_ns: u64,
    /// Total duration, ns.
    pub total_ns: u64,
}

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            frame: u64::MAX,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            frame: self.frame,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns().max(start_ns);
        out
    }

    /// Runs `f` as the root span of frame `frame`.
    pub fn frame<R>(&mut self, frame: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let prev = std::mem::replace(&mut self.frame, frame);
        let out = self.span(FRAME, f);
        self.frame = prev;
        out
    }

    /// Records an already-finished interval (a gap between two calls the
    /// benchmark observed from outside) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied(),
            frame: self.frame,
        });
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Per-name self time: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Share of traced frame time covered by named child spans.
    pub fn frame_coverage(&self) -> f64 {
        let mut frame_ns = 0u64;
        let mut covered_ns = 0u64;
        for s in &self.spans {
            if s.name == FRAME {
                frame_ns += s.dur_ns();
            } else if let Some(p) = s.parent {
                if self.spans[p].name == FRAME {
                    covered_ns += s.dur_ns();
                }
            }
        }
        if frame_ns == 0 {
            0.0
        } else {
            covered_ns as f64 / frame_ns as f64
        }
    }

    /// Total duration of all frame spans, ns.
    pub fn frame_ns(&self) -> u64 {
        self.total_ns(FRAME)
    }

    /// The spans as a Chrome trace (one track, µs timestamps); the
    /// category is the span's module and the detail carries span id,
    /// parent id and frame id.
    pub fn to_chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "none".to_string(), |p| p.to_string());
            let frame = if s.frame == u64::MAX {
                "none".to_string()
            } else {
                s.frame.to_string()
            };
            let module = s.name.split('.').next().unwrap_or(s.name);
            trace.push_complete(
                module,
                s.name,
                s.start_ns / 1000,
                s.dur_ns() / 1000,
                1,
                1,
                &format!("span={i} parent={parent} frame={frame}"),
            );
        }
        // Spans are pushed at their start, but gap spans are recorded
        // after later-starting siblings may exist: keep ts monotone.
        trace
            .traceEvents
            .sort_by_key(|e| (e.ts, std::cmp::Reverse(e.dur)));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.frame(0, |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let st = t.self_times();
        assert_eq!(st["a"].calls, 1);
        assert!(st["a"].self_ns < st["b"].self_ns);
        assert_eq!(st["b"].self_ns, st["b"].total_ns);
        assert!(t.frame_coverage() > 0.9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].frame, 0);
    }
}
