//! The per-PR performance-tracking document and the regression gate that diffs two of them.
//!
//! `experiments --perf-out FILE` serializes a [`PerfDoc`] (schema `arbcolor-perf-v1`)
//! holding the rows of the perf-tracked experiments ([`PERF_EXPERIMENTS`]).  CI writes the
//! fresh document to the uncommitted `perf-current.json` and the `perf_gate` binary compares
//! it against the one baseline committed at the repo root, `BENCH_PR29.json`:
//!
//! * **deterministic columns** (colors, rounds, messages, …) are *gated* — any worsening
//!   fails the build, because the whole stack is seeded and bit-reproducible, so a drift
//!   here is a behavioural change, not noise;
//! * **wall-clock columns** (`wall_*`, `speedup_*`) are *advisory* — logged with their
//!   ratios, never gated, because CI hardware varies.
//!
//! The vendored `serde_json` stand-in can only serialize, so this module carries its own
//! minimal JSON reader ([`JsonValue::parse`]) for the documents it itself writes.

use crate::row::Row;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The experiments whose rows are collected into the perf document: the sharded-scale and
/// routing races (PR 3/4), the ingestion and dynamic-recoloring workloads (PR 5), the
/// frontier-collapse activity trace (PR 6), the CONGEST bandwidth race (PR 7), the
/// per-phase cost breakdown (PR 8), the palette-engine pick-path race (PR 9), and the
/// sustained-update service benchmark (PR 10).
pub const PERF_EXPERIMENTS: [&str; 9] =
    ["E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25"];

/// Value columns that must not worsen between PRs (the stack is deterministic, so any
/// change is a real behavioural difference).  Lower is better for all of these —
/// including `strategy`, whose encoding (0 = no conflict, 1 = local repair, 2 = full
/// recolor) orders repairs by how much of the graph they touch, and the two bandwidth
/// columns (`total_bits`, `max_edge_bits`), which are *gated*, not advisory: the bit
/// accounting is seeded and bit-reproducible, so a pipeline quietly growing chattier on
/// the wire is a real behavioural regression.
/// (`new_edges` is deliberately *not* here: it is fixed by graph + batch, so like `n`/`m`
/// it gates on any change via the undirectioned fallback rather than passing decreases.)
/// (The E25 sustained-update columns follow the same logic: a smaller conflict frontier,
/// fewer repaired vertices, fewer full-recolor escalations, and a tighter post-compaction
/// palette are all unambiguous improvements on a fixed seeded workload.  So are E21's
/// `frontier_steps` and `peak_frontier`, the sum and the maximum of its per-round
/// `frontier`.)
const GATED_LOWER_IS_BETTER: [&str; 15] = [
    "colors",
    "rounds",
    "messages",
    "frontier",
    "repaired_vertices",
    "full_rounds",
    "strategy",
    "total_bits",
    "max_edge_bits",
    "colors_after_compact",
    "frontier_total",
    "repaired_total",
    "full_recolors",
    "frontier_steps",
    "peak_frontier",
];

/// Whether a gated column is lower-is-better: the columns listed above, and E23's per-phase
/// vertex steps `ph_<phase>_steps` (a phase that steps fewer vertices for the same report
/// does strictly less work).
fn is_lower_better(column: &str) -> bool {
    GATED_LOWER_IS_BETTER.contains(&column)
        || (column.starts_with("ph_") && column.ends_with("_steps"))
}

/// Gated columns where *higher* is better (a drop fails the gate): legality, and E21's
/// `savings_factor` (active-vertex steps per frontier step).
const GATED_HIGHER_IS_BETTER: [&str; 2] = ["legal", "savings_factor"];

/// Whether a column is advisory (never gated): wall-clock and speedup measurements, which
/// vary with CI hardware.  Any `wall_`-prefixed column qualifies (`wall_ms`, `wall_ns`,
/// per-contender variants like `wall_ms_seq`), so new timing columns never need to be
/// registered here.  Every other column in a perf row is deterministic — if it has no
/// entry in the directioned lists above, *any* change gates (e.g. an `m` or `degeneracy`
/// drift on the same workload means the graph itself changed).
fn is_advisory(column: &str) -> bool {
    column.starts_with("wall_") || column.starts_with("speedup_")
}

/// The machine-readable performance-tracking document `--perf-out` writes.
#[derive(Debug, Clone, Serialize)]
pub struct PerfDoc {
    /// Document schema identifier (`arbcolor-perf-v1`).
    pub schema: String,
    /// Size tier the rows were produced at (`smoke` or `scale`).
    pub size: String,
    /// Experiment ids contributing rows, in run order.
    pub experiments: Vec<String>,
    /// The collected rows.
    pub rows: Vec<Row>,
}

impl PerfDoc {
    /// The schema identifier this module reads and writes.
    pub const SCHEMA: &'static str = "arbcolor-perf-v1";

    /// Assembles a document from collected rows.
    pub fn new(size: &str, experiments: Vec<String>, rows: Vec<Row>) -> Self {
        PerfDoc { schema: PerfDoc::SCHEMA.to_string(), size: size.to_string(), experiments, rows }
    }

    /// Parses a document previously written by `--perf-out`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed construct.
    pub fn parse(text: &str) -> Result<PerfDoc, String> {
        let value = JsonValue::parse(text)?;
        let obj = value.as_object().ok_or("top level is not an object")?;
        let schema = obj
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `schema`")?
            .to_string();
        if schema != PerfDoc::SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {:?})", PerfDoc::SCHEMA));
        }
        let size = obj
            .get("size")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `size`")?
            .to_string();
        let experiments = obj
            .get("experiments")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field `experiments`")?
            .iter()
            .map(|v| v.as_str().map(str::to_string).ok_or("non-string experiment id".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = obj
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field `rows`")?
            .iter()
            .map(parse_row)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PerfDoc { schema, size, experiments, rows })
    }
}

fn parse_row(value: &JsonValue) -> Result<Row, String> {
    let obj = value.as_object().ok_or("row is not an object")?;
    let experiment =
        obj.get("experiment").and_then(JsonValue::as_str).ok_or("row is missing `experiment`")?;
    let workload =
        obj.get("workload").and_then(JsonValue::as_str).ok_or("row is missing `workload`")?;
    let mut row = Row::new(experiment, workload);
    let values = obj.get("values").and_then(JsonValue::as_object).ok_or("row missing `values`")?;
    for (key, v) in values {
        let number = v.as_f64().ok_or_else(|| format!("value {key:?} is not a number"))?;
        row = row.with(key, number);
    }
    Ok(row)
}

/// Outcome of diffing a fresh perf document against a committed baseline.
#[derive(Debug, Default)]
pub struct PerfComparison {
    /// Rows present in both documents (the rows the gate actually inspected).  Callers
    /// should treat `matched_rows == 0` with a non-empty baseline as a configuration
    /// error — a blanket workload rename would otherwise disable the gate silently.
    pub matched_rows: usize,
    /// Gate failures: a deterministic column worsened.
    pub regressions: Vec<String>,
    /// Deterministic columns that got strictly better (candidate baseline updates).
    pub improvements: Vec<String>,
    /// Advisory wall-clock / speedup drift, never gated.
    pub advisory: Vec<String>,
    /// Rows present only in the current document (new workloads — informational).
    pub added_rows: Vec<String>,
    /// Rows present only in the baseline (renamed or dropped workloads — informational).
    pub removed_rows: Vec<String>,
}

impl PerfComparison {
    /// Whether the gate passes (no deterministic column worsened).
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the full report as the text the CI log shows.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let section = |out: &mut String, title: &str, lines: &[String]| {
            if !lines.is_empty() {
                let _ = writeln!(out, "{title}:");
                for line in lines {
                    let _ = writeln!(out, "  {line}");
                }
            }
        };
        section(&mut out, "REGRESSIONS (gate failures)", &self.regressions);
        section(&mut out, "improvements", &self.improvements);
        section(&mut out, "advisory wall-clock drift (not gated)", &self.advisory);
        section(&mut out, "rows only in the current document", &self.added_rows);
        section(&mut out, "rows only in the baseline", &self.removed_rows);
        if out.is_empty() {
            out.push_str("no differences in tracked rows\n");
        }
        out
    }
}

/// Key identifying a row across documents.
fn row_key(row: &Row) -> (String, String) {
    (row.experiment.clone(), row.workload.clone())
}

/// Diffs `current` against `baseline`: deterministic columns gate, wall columns advise.
///
/// Rows are matched by `(experiment, workload)`; unmatched rows are reported but never fail
/// the gate (workloads legitimately come and go between PRs — the baseline is updated in
/// the same commit).
pub fn compare_docs(baseline: &PerfDoc, current: &PerfDoc) -> PerfComparison {
    let mut cmp = PerfComparison::default();
    let base: BTreeMap<(String, String), &Row> =
        baseline.rows.iter().map(|r| (row_key(r), r)).collect();
    let cur: BTreeMap<(String, String), &Row> =
        current.rows.iter().map(|r| (row_key(r), r)).collect();

    for (key, row) in &cur {
        let Some(base_row) = base.get(key) else {
            cmp.added_rows.push(format!("{} · {}", key.0, key.1));
            continue;
        };
        cmp.matched_rows += 1;
        for (column, &new) in &row.values {
            let Some(&old) = base_row.values.get(column) else { continue };
            let label = format!("{} · {} · {column}: {old} -> {new}", key.0, key.1);
            if is_advisory(column) {
                if new != old {
                    if old == 0.0 {
                        cmp.advisory.push(label);
                    } else {
                        cmp.advisory.push(format!("{label} ({:.2}x)", new / old));
                    }
                }
            } else if is_lower_better(column) {
                if new > old {
                    cmp.regressions.push(label);
                } else if new < old {
                    cmp.improvements.push(label);
                }
            } else if GATED_HIGHER_IS_BETTER.contains(&column.as_str()) {
                if new < old {
                    cmp.regressions.push(label);
                } else if new > old {
                    cmp.improvements.push(label);
                }
            } else if new != old {
                // A deterministic column with no known better-direction (n, m, degeneracy,
                // …): any drift on the same workload is a behavioural change and gates.
                cmp.regressions.push(label);
            }
        }
        // A deterministic column that disappeared from the current row escapes every
        // comparison above — surface it instead of silently ungating it.
        for (column, &old) in &base_row.values {
            if !is_advisory(column) && !row.values.contains_key(column) {
                cmp.regressions.push(format!(
                    "{} · {} · {column}: {old} -> (column no longer emitted)",
                    key.0, key.1
                ));
            }
        }
    }
    for key in base.keys() {
        if !cur.contains_key(key) {
            cmp.removed_rows.push(format!("{} · {}", key.0, key.1));
        }
    }
    cmp
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (the vendored serde_json stand-in is write-only)
// ---------------------------------------------------------------------------

/// A parsed JSON value.  Covers exactly the constructs our own serializer emits (objects,
/// arrays, strings, f64 numbers, booleans, null) — enough to read any `--perf-out` file.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what NaN serializes to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order preserved via `BTreeMap`'s sorted order, which is also the
    /// order our serializer writes).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a description with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs do not occur in our own output; map them to the
                        // replacement character rather than failing the whole document.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences arrive via the str input,
                // so re-slicing is safe at char boundaries found by the leading byte).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let ch = rest.chars().next().expect("non-empty by the match above");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: Vec<Row>) -> PerfDoc {
        PerfDoc::new("smoke", vec!["E17".to_string()], rows)
    }

    #[test]
    fn perf_doc_round_trips_through_the_reader() {
        let original = doc(vec![
            Row::new("E17", "forests n=4000 · be · threads=1")
                .with("colors", 7.0)
                .with("rounds", 120.0)
                .with("wall_ms", 3.25),
            Row::new("E18", "dense n=1500 · flood").with("messages", 42_000.0),
        ]);
        let text = serde_json::to_string(&original).unwrap();
        let back = PerfDoc::parse(&text).unwrap();
        assert_eq!(back.schema, PerfDoc::SCHEMA);
        assert_eq!(back.size, "smoke");
        assert_eq!(back.rows, original.rows);
    }

    #[test]
    fn reader_handles_escapes_and_rejects_garbage() {
        let v = JsonValue::parse(r#"{"a":"x\n\"y\\z","b":[1,-2.5e1,true,null]}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["a"].as_str(), Some("x\n\"y\\z"));
        assert_eq!(obj["b"].as_array().unwrap()[1].as_f64(), Some(-25.0));
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("{\"a\"").is_err());
        assert!(PerfDoc::parse("[]").is_err());
        assert!(
            PerfDoc::parse(r#"{"schema":"other","size":"x","experiments":[],"rows":[]}"#).is_err()
        );
    }

    #[test]
    fn gate_fails_on_deterministic_regressions_only() {
        let baseline = doc(vec![Row::new("E17", "w")
            .with("colors", 5.0)
            .with("messages", 100.0)
            .with("wall_ms", 10.0)
            .with("legal", 1.0)]);
        // Wall-clock doubles (advisory), messages regress (gate).
        let current = doc(vec![Row::new("E17", "w")
            .with("colors", 5.0)
            .with("messages", 120.0)
            .with("wall_ms", 20.0)
            .with("legal", 1.0)]);
        let cmp = compare_docs(&baseline, &current);
        assert!(!cmp.is_pass());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("messages"));
        assert_eq!(cmp.advisory.len(), 1);
        assert!(cmp.report().contains("REGRESSIONS"));
    }

    #[test]
    fn gate_passes_on_improvements_and_new_rows() {
        let baseline = doc(vec![
            Row::new("E17", "w").with("rounds", 50.0).with("legal", 1.0),
            Row::new("E17", "gone").with("rounds", 9.0),
        ]);
        let current = doc(vec![
            Row::new("E17", "w").with("rounds", 40.0).with("legal", 1.0),
            Row::new("E19", "karate · be").with("colors", 5.0),
        ]);
        let cmp = compare_docs(&baseline, &current);
        assert!(cmp.is_pass());
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.added_rows.len(), 1);
        assert_eq!(cmp.removed_rows.len(), 1);
    }

    #[test]
    fn frontier_summary_columns_gate_in_their_direction() {
        let summary = |steps: f64, peak: f64, savings: f64| {
            doc(vec![Row::new("E21", "ba · summary")
                .with("frontier_steps", steps)
                .with("peak_frontier", peak)
                .with("savings_factor", savings)])
        };
        let baseline = summary(4846.0, 2729.0, 1.0);
        let better = compare_docs(&baseline, &summary(4000.0, 2000.0, 1.2));
        assert!(better.is_pass());
        assert_eq!(better.improvements.len(), 3);
        for (worse, column) in [
            (summary(4847.0, 2729.0, 1.0), "frontier_steps"),
            (summary(4846.0, 2730.0, 1.0), "peak_frontier"),
            (summary(4846.0, 2729.0, 0.9), "savings_factor"),
        ] {
            let cmp = compare_docs(&baseline, &worse);
            assert!(!cmp.is_pass(), "{column} worsening must gate");
            assert_eq!(cmp.regressions.len(), 1);
            assert!(cmp.regressions[0].contains(column));
        }
    }

    #[test]
    fn phase_step_columns_gate_lower_is_better() {
        let phases = |steps: f64, rounds: f64| {
            doc(vec![Row::new("E23", "star · ghaffari_kuhn")
                .with("ph_halving_steps", steps)
                .with("ph_halving_rounds", rounds)])
        };
        let baseline = phases(900.0, 26.0);
        let fewer = compare_docs(&baseline, &phases(200.0, 26.0));
        assert!(fewer.is_pass());
        assert_eq!(fewer.improvements.len(), 1);
        assert!(!compare_docs(&baseline, &phases(901.0, 26.0)).is_pass(), "more steps gate");
        // The phase's other columns keep gating on any change.
        assert!(!compare_docs(&baseline, &phases(900.0, 25.0)).is_pass());
    }

    #[test]
    fn legality_drop_is_a_regression() {
        let baseline = doc(vec![Row::new("E19", "w").with("legal", 1.0)]);
        let current = doc(vec![Row::new("E19", "w").with("legal", 0.0)]);
        assert!(!compare_docs(&baseline, &current).is_pass());
    }

    #[test]
    fn strategy_escalation_is_a_regression() {
        // A batch degrading from local repair (1) to full recolor (2) must fail the gate.
        let baseline = doc(vec![Row::new("E20", "w · batch 1").with("strategy", 1.0)]);
        let current = doc(vec![Row::new("E20", "w · batch 1").with("strategy", 2.0)]);
        let cmp = compare_docs(&baseline, &current);
        assert!(!cmp.is_pass());
        assert!(cmp.regressions[0].contains("strategy"));
        // ...including an escalation away from a 0.0 baseline (no conflict → full).
        let baseline = doc(vec![Row::new("E20", "w · batch 1").with("strategy", 0.0)]);
        assert!(!compare_docs(&baseline, &current).is_pass());
    }

    #[test]
    fn matched_row_count_exposes_vacuous_comparisons() {
        let baseline = doc(vec![Row::new("E17", "old label").with("rounds", 5.0)]);
        let current = doc(vec![Row::new("E17", "renamed label").with("rounds", 50.0)]);
        let cmp = compare_docs(&baseline, &current);
        // Nothing matched: is_pass() alone would report success, so callers must check
        // matched_rows (perf_gate fails on 0 matches against a non-empty baseline).
        assert!(cmp.is_pass());
        assert_eq!(cmp.matched_rows, 0);
        let same = compare_docs(&baseline, &baseline);
        assert_eq!(same.matched_rows, 1);
    }

    #[test]
    fn any_wall_prefixed_column_is_advisory() {
        for column in ["wall_ms", "wall_ms_seq", "wall_ns_round", "speedup_vs_seq"] {
            assert!(is_advisory(column), "{column} must be advisory");
        }
        for column in ["rounds", "ph_halving_rounds", "total_bits", "walltime"] {
            assert!(!is_advisory(column), "{column} must gate");
        }
    }

    #[test]
    fn advisory_changes_from_a_zero_baseline_are_still_reported() {
        let baseline = doc(vec![Row::new("E17", "w").with("wall_ms", 0.0)]);
        let current = doc(vec![Row::new("E17", "w").with("wall_ms", 5.0)]);
        let cmp = compare_docs(&baseline, &current);
        assert!(cmp.is_pass());
        assert_eq!(cmp.advisory.len(), 1);
    }

    #[test]
    fn undirectioned_deterministic_columns_gate_on_any_change() {
        // `m` has no better-direction: the graph itself changed, so both directions fail.
        let baseline = doc(vec![Row::new("E19", "karate").with("m", 78.0)]);
        for drifted in [77.0, 79.0] {
            let current = doc(vec![Row::new("E19", "karate").with("m", drifted)]);
            let cmp = compare_docs(&baseline, &current);
            assert!(!cmp.is_pass(), "m drift {drifted} must gate");
            assert!(cmp.advisory.is_empty());
        }
        // Same for `new_edges`: a decrease means batch edges were silently lost, so it must
        // gate rather than pass as an "improvement".
        let baseline = doc(vec![Row::new("E20", "w · batch 1").with("new_edges", 10.0)]);
        let current = doc(vec![Row::new("E20", "w · batch 1").with("new_edges", 9.0)]);
        assert!(!compare_docs(&baseline, &current).is_pass());
    }

    #[test]
    fn dropping_a_deterministic_column_gates() {
        let baseline = doc(vec![Row::new("E17", "w").with("messages", 100.0).with("wall_ms", 3.0)]);
        // messages vanished (wall_ms vanishing is fine — advisory columns may come and go).
        let current = doc(vec![Row::new("E17", "w").with("rounds", 9.0)]);
        let cmp = compare_docs(&baseline, &current);
        assert!(!cmp.is_pass());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("no longer emitted"));
    }
}
