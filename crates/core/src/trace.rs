//! Pipeline span tracing — the machine-readable form of the paper's
//! Fig. 7(b) pipeline diagram.
//!
//! When [`crate::EscaConfig::record_trace`] is set, the accelerator emits
//! structured spans `(stage, cycle_start, cycle_end, detail)`; contiguous
//! same-stage/same-detail activity coalesces into one span.
//! `examples/pipeline_trace.rs` renders them as a Gantt-style text chart,
//! and [`PipelineTrace::to_chrome_trace`] exports Chrome trace-event /
//! Perfetto JSON for standard tooling.
//!
//! A span's detail is a [`SpanDetail`]: a small `Copy` value holding the
//! structured ids of the work item (line, SRF centre, match group, kernel
//! tap). It is formatted to text only at export — by
//! [`PipelineTrace::to_chrome_trace`] or its `Display` impl — so the
//! simulator's per-cycle path never allocates for tracing, and a disabled
//! trace costs one branch per call.

use esca_telemetry::ChromeTrace;
use esca_tensor::Coord3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pipeline stage a span belongs to (the paper's matching steps plus
/// the computing core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Read masks from the mask buffer (one SRF z-slice per cycle).
    ReadMasks,
    /// Judge whether the SRF centre is active.
    JudgeState,
    /// Generate the per-column (A, B) state index.
    GenStateIndex,
    /// Fetch activations `(A−B, A]` from the activation buffer.
    FetchActivations,
    /// Computing array consumes a match (one IC×OC group iteration).
    Compute,
    /// Accumulator drains an output (requantize + output-buffer write).
    Drain,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::ReadMasks,
        Stage::JudgeState,
        Stage::GenStateIndex,
        Stage::FetchActivations,
        Stage::Compute,
        Stage::Drain,
    ];

    /// Short label used in the text chart.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::ReadMasks => "read masks",
            Stage::JudgeState => "judge state",
            Stage::GenStateIndex => "state index",
            Stage::FetchActivations => "fetch acts",
            Stage::Compute => "compute",
            Stage::Drain => "drain",
        }
    }

    /// Stable lane index (position in [`Stage::ALL`]), used as the
    /// Chrome trace `tid` so every export lays stages out identically.
    pub fn lane(&self) -> u32 {
        match self {
            Stage::ReadMasks => 0,
            Stage::JudgeState => 1,
            Stage::GenStateIndex => 2,
            Stage::FetchActivations => 3,
            Stage::Compute => 4,
            Stage::Drain => 5,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The work item a span belongs to, as structured ids. `Display` gives the
/// exported text (`fill line (x, y)`, `srf (x, y, z)`, `group N`,
/// `match gN tapM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanDetail {
    /// Pipeline fill at the start of the `(x, y)` line.
    FillLine {
        /// Line x.
        x: i32,
        /// Line y.
        y: i32,
    },
    /// The sparse receptive field centred at a site.
    Srf(Coord3),
    /// A match group (one active centre).
    Group(usize),
    /// One match of a group, at a kernel tap.
    Match {
        /// Match-group ordinal.
        group: usize,
        /// Kernel tap index.
        tap: usize,
    },
}

impl fmt::Display for SpanDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanDetail::FillLine { x, y } => write!(f, "fill line ({x}, {y})"),
            SpanDetail::Srf(c) => write!(f, "srf {c}"),
            SpanDetail::Group(g) => write!(f, "group {g}"),
            SpanDetail::Match { group, tap } => write!(f, "match g{group} tap{tap}"),
        }
    }
}

impl SpanDetail {
    /// Parses the `Display` text back (`None` for anything else).
    fn parse(text: &str) -> Option<Self> {
        /// `(a, b, ..)` with exactly `N` integers.
        fn tuple<const N: usize>(text: &str) -> Option<[i32; N]> {
            let mut parts = text.strip_prefix('(')?.strip_suffix(')')?.split(", ");
            let mut out = [0; N];
            for v in &mut out {
                *v = parts.next()?.parse().ok()?;
            }
            parts.next().is_none().then_some(out)
        }
        if let Some(rest) = text.strip_prefix("fill line ") {
            let [x, y] = tuple(rest)?;
            Some(SpanDetail::FillLine { x, y })
        } else if let Some(rest) = text.strip_prefix("srf ") {
            let [x, y, z] = tuple(rest)?;
            Some(SpanDetail::Srf(Coord3::new(x, y, z)))
        } else if let Some(rest) = text.strip_prefix("group ") {
            Some(SpanDetail::Group(rest.parse().ok()?))
        } else {
            let (group, tap) = text.strip_prefix("match g")?.split_once(" tap")?;
            Some(SpanDetail::Match {
                group: group.parse().ok()?,
                tap: tap.parse().ok()?,
            })
        }
    }
}

// Manual impls: the vendored serde derive handles unit variants only, and
// the exported text is the JSON shape trace consumers already read.
impl Serialize for SpanDetail {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.to_string())
    }
}

impl Deserialize for SpanDetail {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let text = content
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a span detail string"))?;
        SpanDetail::parse(text)
            .ok_or_else(|| serde::Error::custom(format!("malformed span detail {text:?}")))
    }
}

/// One structured pipeline span: a stage busy for the half-open cycle
/// range `[cycle_start, cycle_end)` on one piece of work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The stage that was active.
    pub stage: Stage,
    /// First busy cycle (tile-local).
    pub cycle_start: u64,
    /// One past the last busy cycle.
    pub cycle_end: u64,
    /// The work item (e.g. the SRF centre or match id).
    pub detail: SpanDetail,
}

impl TraceSpan {
    /// Span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle_end.saturating_sub(self.cycle_start)
    }
}

/// When recording at `cycle`, a coalescable predecessor span (same
/// stage, ends exactly at `cycle`) lies at most this many spans back:
/// each stage records at most once per cycle, so at most `|Stage::ALL| −
/// 1` spans from the rest of the previous cycle plus the same from the
/// current cycle can sit in between.
const COALESCE_WINDOW: usize = 2 * Stage::ALL.len();

/// A recorded pipeline trace: structured spans in emission order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineTrace {
    spans: Vec<TraceSpan>,
    enabled: bool,
}

impl PipelineTrace {
    /// Creates a trace; spans are only stored when `enabled`.
    pub fn new(enabled: bool) -> Self {
        PipelineTrace {
            spans: Vec::new(),
            enabled,
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one busy cycle for `stage` (no-op when disabled).
    ///
    /// Contiguous recordings with the same stage *and* detail extend the
    /// previous span; anything else opens a new span, so per-work-item
    /// details (one per match, group or SRF) keep a 1:1 span mapping.
    #[inline]
    pub fn record(&mut self, cycle: u64, stage: Stage, detail: SpanDetail) {
        if self.enabled {
            self.push(cycle, stage, detail);
        }
    }

    /// The enabled half of [`PipelineTrace::record`], kept out of line so
    /// the disabled check inlines into the simulator loop on its own.
    #[inline(never)]
    fn push(&mut self, cycle: u64, stage: Stage, detail: SpanDetail) {
        let coalesced = self
            .spans
            .iter_mut()
            .rev()
            .take(COALESCE_WINDOW)
            .find(|s| s.stage == stage)
            .filter(|s| s.cycle_end == cycle && s.detail == detail)
            .map(|s| s.cycle_end = cycle + 1)
            .is_some();
        if !coalesced {
            self.spans.push(TraceSpan {
                stage,
                cycle_start: cycle,
                cycle_end: cycle + 1,
                detail,
            });
        }
    }

    /// The recorded spans in emission order.
    #[inline]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Appends another trace's spans (shard-merge for the parallel tile
    /// path; spans are tile-local and a new tile restarts at cycle 0, so
    /// concatenation in tile order matches the sequential emission order
    /// exactly — no cross-tile coalescing can occur because a span's
    /// `cycle_end` is always ≥ 1).
    pub fn extend(&mut self, other: &PipelineTrace) {
        if self.enabled {
            self.spans.extend_from_slice(&other.spans);
        }
    }

    /// Renders a Gantt-style text chart (stages × cycles), Fig. 7(b)
    /// fashion. `max_cycles` clips the horizontal extent.
    pub fn render(&self, max_cycles: u64) -> String {
        let horizon = self
            .spans
            .iter()
            .map(|s| s.cycle_end)
            .max()
            .unwrap_or(0)
            .min(max_cycles);
        let mut out = String::new();
        for stage in Stage::ALL {
            out.push_str(&format!("{:>12} |", stage.label()));
            for c in 0..horizon {
                let busy = self
                    .spans
                    .iter()
                    .any(|s| s.stage == stage && s.cycle_start <= c && c < s.cycle_end);
                out.push(if busy { '#' } else { '.' });
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>12} +{}\n",
            "cycle",
            "-".repeat(horizon as usize)
        ));
        out
    }

    /// Exports the spans as a Chrome trace-event / Perfetto trace: one
    /// complete (`"X"`) event per span, `ts`/`dur` in simulated cycles,
    /// one `tid` lane per stage.
    pub fn to_chrome_trace(&self, pid: u32) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for s in &self.spans {
            trace.push_complete(
                "stage",
                s.stage.label(),
                s.cycle_start,
                s.cycles(),
                pid,
                s.stage.lane(),
                &s.detail.to_string(),
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_details_format_as_the_exported_text() {
        let cases = [
            (SpanDetail::FillLine { x: 8, y: -1 }, "fill line (8, -1)"),
            (SpanDetail::Srf(Coord3::new(1, 2, 3)), "srf (1, 2, 3)"),
            (SpanDetail::Group(17), "group 17"),
            (SpanDetail::Match { group: 4, tap: 13 }, "match g4 tap13"),
        ];
        for (detail, text) in cases {
            assert_eq!(detail.to_string(), text);
            assert_eq!(SpanDetail::parse(text), Some(detail));
        }
        for bad in [
            "",
            "group",
            "group x",
            "srf (1, 2)",
            "fill line (1, 2, 3)",
            "match g1",
        ] {
            assert_eq!(SpanDetail::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = PipelineTrace::new(false);
        t.record(0, Stage::Compute, SpanDetail::Group(0));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = PipelineTrace::new(true);
        t.record(0, Stage::ReadMasks, SpanDetail::Srf(Coord3::new(0, 0, 0)));
        t.record(1, Stage::JudgeState, SpanDetail::Srf(Coord3::new(0, 0, 0)));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].stage, Stage::ReadMasks);
    }

    #[test]
    fn contiguous_same_detail_cycles_coalesce() {
        let mut t = PipelineTrace::new(true);
        let fill = SpanDetail::FillLine { x: 1, y: 2 };
        t.record(3, Stage::ReadMasks, fill);
        t.record(4, Stage::ReadMasks, fill);
        // Interleaved other-stage activity must not break coalescing.
        t.record(4, Stage::Compute, SpanDetail::Match { group: 0, tap: 0 });
        t.record(5, Stage::ReadMasks, fill);
        // A gap or a new detail opens a fresh span.
        t.record(7, Stage::ReadMasks, fill);
        t.record(8, Stage::ReadMasks, SpanDetail::Srf(Coord3::new(0, 0, 0)));
        let masks: Vec<&TraceSpan> = t
            .spans()
            .iter()
            .filter(|s| s.stage == Stage::ReadMasks)
            .collect();
        assert_eq!(masks.len(), 3, "{masks:?}");
        assert_eq!((masks[0].cycle_start, masks[0].cycle_end), (3, 6));
        assert_eq!(masks[0].cycles(), 3);
        assert_eq!((masks[1].cycle_start, masks[1].cycle_end), (7, 8));
    }

    #[test]
    fn render_marks_busy_cycles() {
        let mut t = PipelineTrace::new(true);
        t.record(0, Stage::ReadMasks, SpanDetail::Group(0));
        t.record(2, Stage::Compute, SpanDetail::Group(1));
        let chart = t.render(10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains("read masks"));
        assert!(lines[0].ends_with("#.."));
        let compute_line = lines.iter().find(|l| l.contains("compute")).unwrap();
        assert!(compute_line.ends_with("..#"));
    }

    #[test]
    fn render_clips_to_max_cycles() {
        let mut t = PipelineTrace::new(true);
        t.record(100, Stage::Drain, SpanDetail::Group(0));
        let chart = t.render(5);
        // Horizon clipped to 5 columns.
        assert!(chart.lines().next().unwrap().ends_with("....."));
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let mut t = PipelineTrace::new(true);
        let srf = SpanDetail::Srf(Coord3::new(1, 2, 3));
        t.record(0, Stage::ReadMasks, srf);
        t.record(1, Stage::ReadMasks, srf);
        t.record(5, Stage::Drain, SpanDetail::Group(0));
        let trace = t.to_chrome_trace(1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.traceEvents[0].args.detail, "srf (1, 2, 3)");
        assert_eq!(trace.traceEvents[1].args.detail, "group 0");
        assert_eq!(trace.traceEvents[0].ts, 0);
        assert_eq!(trace.traceEvents[0].dur, 2);
        assert_eq!(trace.traceEvents[0].tid, Stage::ReadMasks.lane());
        assert_eq!(trace.traceEvents[1].name, "drain");
        assert_eq!(trace.traceEvents[1].pid, 1);
    }
}
