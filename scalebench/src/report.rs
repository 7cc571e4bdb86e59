//! Sample statistics, the metric catalogue, and the result lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports in an untraced run (`--trace 0`), with
/// their units.  `BENCHMARK.json` lists the same names; what each one measures on each
/// workload is tabulated in README.md.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("latency_norm_ms", "ms")];

/// The per-layer metrics every workload of `BENCHMARK.json` reports in a traced run
/// (`--trace 1`).  A layer a workload leaves idle reports 0.  Metrics that only the
/// workloads outside `BENCHMARK.json` measure (the read path of serve-read) appear in the
/// `report` line alone.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The issue-level figures of each workload, measured in the traced run too.
    ("latency_p50_ms", "ms"),
    ("host.reference_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("writes_per_s", "1/s"),
    ("failed_share", "share"),
    ("served_colors", "count"),
    ("be_s", "s"),
    ("gk_s", "s"),
    ("be_colors", "count"),
    ("gk_colors", "count"),
    ("be_rounds", "count"),
    ("gk_rounds", "count"),
    // service.protocol
    ("protocol.decode_us.apply", "us"),
    ("protocol.encode_us.snapshot", "us"),
    ("protocol.frame_bytes.apply", "bytes"),
    ("protocol.frame_bytes.snapshot", "bytes"),
    // service.server (derived: client latency minus in-process decode + handle + encode)
    ("server.wait_ms.write", "ms"),
    // service.state
    ("service.load_s", "s"),
    ("service.new_s", "s"),
    ("service.handle_ms.apply", "ms"),
    ("service.handle_ms.snapshot", "ms"),
    ("service.snapshot_copy_ms", "ms"),
    // core.dynamic
    ("dynamic.apply_ms", "ms"),
    ("dynamic.apply_self_ms", "ms"),
    ("dynamic.new_edges_per_batch", "count"),
    ("dynamic.frontier_per_batch", "count"),
    ("dynamic.repaired_per_batch", "count"),
    ("dynamic.repaired_over_frontier", "share"),
    ("dynamic.strategy.none", "count"),
    ("dynamic.strategy.local", "count"),
    ("dynamic.strategy.full", "count"),
    // graph
    ("graph.patch_ms", "ms"),
    ("graph.patch_bytes", "bytes"),
    ("graph.is_legal_ms", "ms"),
    // core.repair
    ("repair.local_ms", "ms"),
    ("repair.full_ms", "ms"),
    ("repair.rounds", "count"),
    // runtime.executor
    ("executor.be.runs", "count"),
    ("executor.be.rounds", "count"),
    ("executor.be.messages", "count"),
    ("executor.be.wall_share", "share"),
    ("executor.be.ns_per_message", "ns"),
    ("executor.be.sharded2_speedup", "x"),
    ("executor.gk.runs", "count"),
    ("executor.gk.rounds", "count"),
    ("executor.gk.messages", "count"),
    ("executor.gk.wall_share", "share"),
    ("executor.gk.ns_per_message", "ns"),
    ("executor.gk.sharded2_speedup", "x"),
    // decompose and core phases: self time by span name
    ("be.root_ms", "ms"),
    ("be.legal-coloring_ms", "ms"),
    ("be.h-partition_ms", "ms"),
    ("be.iterative-recoloring_ms", "ms"),
    ("be.greedy-sweep_ms", "ms"),
    ("be.other_ms", "ms"),
    ("gk.root_ms", "ms"),
    ("gk.levels_ms", "ms"),
    ("gk.halving-split_ms", "ms"),
    ("gk.iterative-recoloring_ms", "ms"),
    ("gk.scheduled-list-color_ms", "ms"),
    ("gk.greedy-sweep_ms", "ms"),
    ("gk.deferred-cleanup_ms", "ms"),
    ("gk.other_ms", "ms"),
    // graph.palette
    ("palette.be.colors_struck", "count"),
    ("palette.be.picks_served", "count"),
    ("palette.be.words_cleared", "count"),
    ("palette.be.strikes_per_pick", "share"),
    ("palette.gk.colors_struck", "count"),
    ("palette.gk.picks_served", "count"),
    ("palette.gk.words_cleared", "count"),
    ("palette.gk.strikes_per_pick", "share"),
    // obs
    ("trace.overhead_share", "share"),
];

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A set of timings (or other samples) of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples in the order they were pushed.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Interquartile range as a share of the median (0 for fewer than two samples).
    pub fn iqr_share(&self) -> f64 {
        let sorted = self.sorted();
        let median = quantile(&sorted, 0.5);
        if sorted.len() < 2 || median == 0.0 {
            return 0.0;
        }
        (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / median
    }
}

/// FNV-1a over a coloring — the fingerprint compared between the daemon and the replay.
pub fn fingerprint(colors: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &color in colors {
        for byte in color.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One correctness or layer-sum check.
#[derive(Debug, Clone)]
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// One named figure of the human-readable report: value, unit, and within-run spread.
#[derive(Debug, Clone)]
struct Figure {
    name: String,
    value: f64,
    unit: String,
    samples: usize,
    iqr_share: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Workload description for the report: loop type, rates, client counts, sizes.
    shape: Vec<(String, String)>,
    checks: Vec<Check>,
    metrics: BTreeMap<String, f64>,
    figures: Vec<Figure>,
}

impl Outcome {
    pub fn describe(&mut self, key: &str, value: impl ToString) {
        self.shape.push((key.to_string(), value.to_string()));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.to_string(), ok, detail: detail.into() });
    }

    /// Records a metric.  The result line carries those of `END_TO_END` or `PER_LAYER`;
    /// the `report` line carries all of them.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a human-readable figure (with its within-run sample count and spread).
    pub fn figure(&mut self, name: &str, value: f64, unit: &str, samples: &Samples) {
        self.figures.push(Figure {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples: samples.len(),
            iqr_share: samples.iqr_share(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable figure lines, then the `report` JSON line (provenance, workload
    /// shape, figures, checks, every metric set).
    pub fn report_lines(&self, provenance: &[(String, String)]) -> String {
        let mut out = String::new();
        for f in &self.figures {
            let _ = write!(out, "{:<34} {:>14.4} {:<6}", f.name, f.value, f.unit);
            if f.samples > 0 {
                let _ = write!(out, " (samples {}, iqr/median {:.3})", f.samples, f.iqr_share);
            }
            out.push('\n');
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<44} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        let pairs = |items: &[(String, String)]| {
            items
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let figures = self
            .figures
            .iter()
            .map(|f| {
                format!(
                    "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{},\"iqr_share\":{}}}",
                    json_str(&f.name),
                    json_num(f.value),
                    json_str(&f.unit),
                    f.samples,
                    json_num(f.iqr_share)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let checks = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_str(&c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| format!("{}:{}", json_str(name), json_num(*value)))
            .collect::<Vec<_>>()
            .join(",");
        let _ = writeln!(
            out,
            "{{\"report\":{{\"provenance\":{{{}}},\"workload\":{{{}}},\"figures\":[{}],\"checks\":[{}],\"metrics\":{{{}}}}}}}",
            pairs(provenance),
            pairs(&self.shape),
            figures,
            checks,
            metrics
        );
        out
    }

    /// The result line: every metric of the catalogue selected by `trace`.
    pub fn result_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.5), 2.5);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 4.0);
        assert!((quantile(&sorted, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn every_catalogue_name_is_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
