//! Chrome trace-event JSON export (viewable in Perfetto / `chrome://tracing`).
//!
//! [`chrome_trace_json`] renders a [`SpanCollector`] as a JSON
//! object with a `traceEvents` array:
//!
//! * every span becomes a complete (`"ph": "X"`) slice — one slice per span, in span-index
//!   order, all on `pid` 1 / `tid` 1 so slices nest by interval containment.  The span's
//!   deterministic costs (rounds/messages/total_bits/max_edge_bits) ride in `args`,
//!   together with the span kind, the collector index of the parent slice, and the
//!   advisory executor wall buckets (`deliver_ns`/`step_ns`/`commit_ns`, zero on phase
//!   slices) and the frontier statistics of its rounds (`peak_frontier`, the largest
//!   per-round frontier, and `frontier_steps`, their sum; zero on phase slices);
//! * every round of an executor span becomes an instant (`"ph": "i"`) event placed at the
//!   round's cumulative wall-clock offset within its span.
//!
//! Timestamps are microseconds from the collector's epoch.  Wall time is advisory, so
//! child intervals are clamped into their parent's interval before emission — the RAII
//! span API guarantees logical nesting, and the clamp makes the emitted integers honor it
//! exactly despite rounding.  Load the file via Perfetto's "Open trace file" (the legacy
//! JSON format is auto-detected).

use super::{SpanCollector, SpanKind, SpanRecord};
use std::fmt::Write as _;

/// Escapes `text` as the body of a JSON string literal.
fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A span's emission interval in integer microseconds, clamped into its parent.
fn slice_bounds(spans: &[SpanRecord], now_ns: u64) -> Vec<(u64, u64)> {
    let mut bounds: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for span in spans {
        let end_ns = if span.open { now_ns } else { span.start_ns.saturating_add(span.wall_ns) };
        let (mut start_us, mut end_us) = (span.start_ns / 1_000, end_ns / 1_000);
        if let Some(parent) = span.parent {
            // Parents always precede children in collector order, so bounds[parent] exists.
            let (parent_start, parent_end) = bounds[parent];
            start_us = start_us.clamp(parent_start, parent_end);
            end_us = end_us.clamp(start_us, parent_end);
        } else {
            end_us = end_us.max(start_us);
        }
        bounds.push((start_us, end_us));
    }
    bounds
}

/// Renders the collector as Chrome trace-event JSON (see the module docs).
pub fn chrome_trace_json(collector: &SpanCollector) -> String {
    let spans = collector.snapshot();
    let bounds = slice_bounds(&spans, collector.elapsed_ns());
    let mut events: Vec<String> = Vec::with_capacity(spans.len());
    for (index, span) in spans.iter().enumerate() {
        let (start_us, end_us) = bounds[index];
        let category = match span.kind {
            SpanKind::Phase => "phase",
            SpanKind::Exec => "exec",
        };
        let parent = match span.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        events.push(format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
                "\"ts\":{},\"dur\":{},\"args\":{{\"parent\":{},\"rounds\":{},",
                "\"messages\":{},\"total_bits\":{},\"max_edge_bits\":{},",
                "\"peak_frontier\":{},\"frontier_steps\":{},",
                "\"deliver_ns\":{},\"step_ns\":{},\"commit_ns\":{}}}}}"
            ),
            escape_json(&span.name),
            category,
            start_us,
            end_us - start_us,
            parent,
            span.report.rounds,
            span.report.messages,
            span.report.total_bits,
            span.report.max_edge_bits,
            span.rounds.iter().map(|r| r.frontier).max().unwrap_or(0),
            span.rounds.iter().map(|r| r.frontier).sum::<usize>(),
            span.buckets.deliver_ns,
            span.buckets.step_ns,
            span.buckets.commit_ns,
        ));
    }
    // Instants after all slices, so a slice's array index equals its collector index.
    for (index, span) in spans.iter().enumerate() {
        let (start_us, end_us) = bounds[index];
        let mut offset_ns: u64 = 0;
        for round in &span.rounds {
            let ts = (start_us + offset_ns / 1_000).min(end_us);
            offset_ns = offset_ns.saturating_add(round.wall_ns);
            events.push(format!(
                concat!(
                    "{{\"name\":\"round {}\",\"cat\":\"round\",\"ph\":\"i\",\"s\":\"t\",",
                    "\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{\"span\":{},\"frontier\":{},",
                    "\"messages\":{},\"total_bits\":{}}}}}"
                ),
                round.round, ts, index, round.frontier, round.messages, round.total_bits,
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RoundReport;
    use crate::obs::{self, SpanCollector};

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn slices_nest_and_instants_follow() {
        let collector = SpanCollector::new();
        let _guard = obs::install(&collector);
        {
            let outer = obs::phase("outer");
            outer.charge(RoundReport::new(4, 10));
            {
                let exec = obs::exec_span("flood");
                exec.charge(RoundReport::new(4, 10));
                let rounds = vec![
                    obs::RoundInstant { round: 1, frontier: 3, messages: 10, ..Default::default() },
                    obs::RoundInstant { round: 2, frontier: 2, ..Default::default() },
                ];
                exec.record_rounds(
                    obs::WallBuckets { deliver_ns: 7, step_ns: 8, commit_ns: 9 },
                    rounds,
                );
            }
            obs::record_leaf("leaf", RoundReport::new(1, 2));
        }
        let json = chrome_trace_json(&collector);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"cat\":\"exec\""));
        assert!(json.contains("\"name\":\"round 1\"") && json.contains("\"name\":\"round 2\""));
        // Frontier statistics are derived from the rounds.
        assert!(json.contains("\"peak_frontier\":3,\"frontier_steps\":5"));
        assert!(json.contains("\"ph\":\"i\""));
        // The child slices reference the outer span (collector index 0).
        assert!(json.contains("\"parent\":0"));
        // Deterministic costs ride in args.
        assert!(json.contains("\"rounds\":4,\"messages\":10"));
        // So do the executor's wall buckets.
        assert!(json.contains("\"deliver_ns\":7,\"step_ns\":8,\"commit_ns\":9"));
    }

    #[test]
    fn child_bounds_are_clamped_into_the_parent() {
        let collector = SpanCollector::new();
        let _guard = obs::install(&collector);
        {
            let _outer = obs::phase("outer");
            let _inner = obs::phase("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = collector.snapshot();
        let bounds = slice_bounds(&spans, collector.elapsed_ns());
        let (outer_start, outer_end) = bounds[0];
        let (inner_start, inner_end) = bounds[1];
        assert!(outer_start <= inner_start);
        assert!(inner_start <= inner_end);
        assert!(inner_end <= outer_end);
    }
}
