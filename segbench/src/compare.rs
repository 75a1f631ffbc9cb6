//! `segbench compare A B`: two sets of run records, one row per (metric,
//! workload).
//!
//! End-to-end timings are judged against the metric's bound in
//! `BENCHMARK.json`: a median worse by more than the bound is a
//! regression, unless either side's run-to-run spread (interquartile
//! range over median) exceeds the bound, which makes the row
//! *unresolved* — except when every B run beats every A run (with at
//! least three runs a side). Counts are checked exactly between runs of
//! the same seed.

use std::collections::{BTreeMap, BTreeSet};

use segstack_core::trace::json::JsonValue;

use crate::report::RunRecord;
use crate::stats::{median, spread};

/// How an end-to-end metric is judged.
#[derive(Clone, Debug)]
pub struct Bound {
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of A's median.
    pub bound: f64,
}

/// The end-to-end bounds from a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// A missing or mistyped `end_to_end` entry.
pub fn bounds(benchmark: &JsonValue) -> Result<BTreeMap<String, Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str).ok_or("metric without name")?;
            let better =
                m.get("better").and_then(JsonValue::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(JsonValue::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), Bound { lower_is_better: better == "lower", bound }))
        })
        .collect()
}

/// Parses a file of run records, one JSON object per line.
///
/// # Errors
///
/// The first line that is not a record.
pub fn parse_records(text: &str) -> Result<Vec<RunRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            let v =
                segstack_core::trace::json::parse(l).map_err(|e| format!("line {}: {e}", i + 1))?;
            RunRecord::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

type Key = (String, String, bool); // (metric, workload, traced)

fn values(records: &[RunRecord]) -> BTreeMap<Key, Vec<(u64, f64, String)>> {
    let mut out: BTreeMap<Key, Vec<(u64, f64, String)>> = BTreeMap::new();
    for r in records {
        for m in &r.metrics {
            out.entry((m.name.clone(), r.workload.clone(), r.trace)).or_default().push((
                r.seed,
                m.value,
                m.unit.clone(),
            ));
        }
    }
    out
}

fn pct(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0))
}

/// Same-seed pairs of `a` and `b` that differ, as `seed: a -> b` texts.
fn exact_mismatches(a: &[(u64, f64, String)], b: &[(u64, f64, String)]) -> (usize, Vec<String>) {
    let mut pairs = 0;
    let mut diffs = Vec::new();
    for (seed, va, _) in a {
        for (_, vb, _) in b.iter().filter(|(s, _, _)| s == seed) {
            pairs += 1;
            if va != vb {
                diffs.push(format!("seed {seed}: {va} -> {vb}"));
            }
        }
    }
    (pairs, diffs)
}

/// Compares run sets `a` (the base) and `b`; returns the report and
/// whether any end-to-end metric regressed.
pub fn compare(
    a: &[RunRecord],
    b: &[RunRecord],
    bounds: &BTreeMap<String, Bound>,
) -> (String, bool) {
    let (va, vb) = (values(a), values(b));
    let mut rows = vec![[
        "metric", "workload", "A median", "B median", "change", "A spread", "B spread", "bound",
        "verdict",
    ]
    .map(str::to_string)];
    let mut regressed = false;
    let keys: BTreeSet<&Key> = va.keys().chain(vb.keys()).collect();
    for key in keys {
        let (name, workload, _) = key;
        let (Some(ra), Some(rb)) = (va.get(key), vb.get(key)) else {
            rows.push([
                name.clone(),
                workload.clone(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "only in one set".into(),
            ]);
            continue;
        };
        let xs: Vec<f64> = ra.iter().map(|r| r.1).collect();
        let ys: Vec<f64> = rb.iter().map(|r| r.1).collect();
        let (ma, mb) = (median(&xs), median(&ys));
        let change = if ma != 0.0 { Some((mb - ma) / ma.abs()) } else { None };
        let (sa, sb) = (spread(&xs), spread(&ys));
        let (bound_text, verdict) = match bounds.get(name) {
            Some(bd) => {
                let better = |x: f64, y: f64| if bd.lower_is_better { y < x } else { y > x };
                let all_better = xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)));
                let sign = if bd.lower_is_better { 1.0 } else { -1.0 };
                let worse = change.is_some_and(|c| sign * c > bd.bound);
                let noisy = [sa, sb].iter().any(|s| s.is_none_or(|s| s > bd.bound));
                // Dominance means something only with a few runs a side.
                let dominates = all_better && xs.len().min(ys.len()) >= 3;
                let verdict = if dominates {
                    "better"
                } else if noisy {
                    "unresolved"
                } else if worse {
                    regressed = true;
                    "REGRESSED"
                } else {
                    "within bound"
                };
                (pct(Some(bd.bound)), verdict.to_string())
            }
            None if ra[0].2 == "count" => {
                let (pairs, diffs) = exact_mismatches(ra, rb);
                let verdict = match (pairs, diffs.first()) {
                    (0, _) => "no same-seed pair".to_string(),
                    (_, None) => "exact".to_string(),
                    (_, Some(d)) => format!("changed ({d})"),
                };
                ("exact".into(), verdict)
            }
            None => ("-".into(), "reported".into()),
        };
        rows.push([
            name.clone(),
            workload.clone(),
            format!("{ma:.4}"),
            format!("{mb:.4}"),
            pct(change),
            pct(sa),
            pct(sb),
            bound_text,
            verdict,
        ]);
    }
    let mut report = render(&rows);
    report.push_str(&counter_summary(a, b));
    (report, regressed)
}

/// One line per workload on the exact counters of same-seed runs.
fn counter_summary(a: &[RunRecord], b: &[RunRecord]) -> String {
    let mut out = String::new();
    let workloads: BTreeSet<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let (mut same, mut changed) = (0, Vec::new());
        for ra in a.iter().filter(|r| r.workload == w) {
            for rb in
                b.iter().filter(|r| r.workload == w && r.seed == ra.seed && r.trace == ra.trace)
            {
                for (k, v) in &ra.counters {
                    match rb.counters.get(k) {
                        Some(x) if x == v => same += 1,
                        other => changed.push(format!("{k} {v} -> {other:?}")),
                    }
                }
            }
        }
        out.push_str(&format!("counters {w}: {same} exact, {} changed", changed.len()));
        for c in changed.iter().take(8) {
            out.push_str(&format!("\n  {c}"));
        }
        out.push('\n');
    }
    out
}

fn render(rows: &[[String; 9]]) -> String {
    let mut widths = [0usize; 9];
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = String::new();
    for r in rows {
        let cells: Vec<String> = r.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn rec(seed: u64, latency: f64) -> RunRecord {
        RunRecord {
            workload: "calls".into(),
            seed,
            metrics: vec![Metric {
                name: "latency_ms_min".into(),
                value: latency,
                unit: "ms".into(),
            }],
            ..RunRecord::default()
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let bounds = BTreeMap::from([(
            "latency_ms_min".to_string(),
            Bound { lower_is_better: true, bound: 0.1 },
        )]);
        let a: Vec<_> = [100.0, 101.0, 99.0, 100.5]
            .iter()
            .enumerate()
            .map(|(i, &v)| rec(i as u64, v))
            .collect();
        let slower: Vec<_> = a
            .iter()
            .map(|r| rec(r.seed, r.metrics[0].value * 1.2 + (r.seed as f64) * 0.1))
            .collect();
        let (report, regressed) = compare(&a, &slower, &bounds);
        assert!(regressed, "{report}");
        let (report, regressed) = compare(&a, &a, &bounds);
        assert!(!regressed && report.contains("within bound"), "{report}");
        let noisy: Vec<_> = [50.0, 150.0, 100.0, 200.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| rec(i as u64, v))
            .collect();
        let (report, regressed) = compare(&a, &noisy, &bounds);
        assert!(!regressed && report.contains("unresolved"), "{report}");
    }
}
