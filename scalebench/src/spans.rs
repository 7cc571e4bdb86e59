//! Self-time arithmetic over the spans an `obs::SpanCollector` recorded.

use arbcolor_runtime::obs::SpanRecord;

/// Wall time of each span's direct children, summed, indexed like `spans`.
pub fn children_wall_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.wall_ns;
        }
    }
    children
}

/// A span's self time in milliseconds: its wall time minus its direct children's.  Negative
/// only if children overlap their parent, which the layer-sum checks report.
pub fn self_ms(spans: &[SpanRecord], children: &[u64], index: usize) -> f64 {
    (spans[index].wall_ns as f64 - children[index] as f64) / 1e6
}

pub fn wall_ms(span: &SpanRecord) -> f64 {
    span.wall_ns as f64 / 1e6
}
