//! Metric names and units, and the run record every workload produces.

use std::collections::BTreeMap;

use segstack_baselines::Strategy;
use segstack_core::trace::json::JsonValue;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms_min", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, ungrouped by strategy.
const LAYER: [(&str, &str); 46] = [
    ("reader.ms", "ms"),
    ("reader.setup_ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.setup_ms", "ms"),
    ("compile.instrs", "count"),
    ("compile.chunks", "count"),
    ("vm.ms", "ms"),
    ("vm.ns_per_call_op", "ns"),
    ("vm.superinstructions", "count"),
    ("vm.ic_hit_ratio", "ratio"),
    ("vm.allocs", "count"),
    ("vm.alloc_bytes", "bytes"),
    ("core.call_ops", "count"),
    ("core.checks_executed", "count"),
    ("core.checks_elided", "count"),
    ("core.overflows", "count"),
    ("core.underflows", "count"),
    ("core.captures", "count"),
    ("core.reinstatements", "count"),
    ("core.relink_ratio", "ratio"),
    ("core.slots_copied", "count"),
    ("core.slots_copied_per_reinstate", "count"),
    ("core.splits", "count"),
    ("core.segments_allocated", "count"),
    ("core.segment_reuse_ratio", "ratio"),
    ("core.sim.call_return_ns", "ns"),
    ("core.sim.capture_ns", "ns"),
    ("core.sim.reinstate_ns", "ns"),
    ("core.sim.relink_ns", "ns"),
    ("control.step_us_p50", "us"),
    ("control.step_us_p99", "us"),
    ("control.quanta", "count"),
    ("serve.busy_ms_per_job", "ms"),
    ("serve.quanta_per_job", "count"),
    ("serve.quantum_us_p50", "us"),
    ("serve.quantum_us_p99", "us"),
    ("serve.captures_per_quantum", "count"),
    ("serve.slots_copied_per_quantum", "count"),
    ("serve.utilization", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.runset_wait_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.refused", "count"),
];

/// Per-layer metrics: every traced run reports each of them, in this
/// order. `baselines.<s>.vs_segmented` exists for the five baselines only
/// (it is 1 by definition for the segmented stack).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for s in Strategy::ALL {
        out.push((format!("baselines.{s}.ms"), "ms"));
        out.push((format!("baselines.{s}.slots_copied"), "count"));
        out.push((format!("baselines.{s}.heap_frames"), "count"));
        if s != Strategy::Segmented {
            out.push((format!("baselines.{s}.vs_segmented"), "ratio"));
        }
    }
    out.push(("trace.overhead".to_string(), "ratio"));
    out
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Operations attempted (program evaluations, engine jobs, serve jobs).
    pub attempted: u64,
    /// Operations that failed: wrong values, errors, panics, refused or
    /// lost jobs, and counter mismatches between the traced pipeline and
    /// the engine.
    pub failed: u64,
    /// The reported metrics: the end-to-end set untraced, the per-layer
    /// set traced.
    pub metrics: Vec<Metric>,
    /// Exact counters over the fixed counter window.
    pub counters: BTreeMap<String, u64>,
    /// Sample counts behind the timings.
    pub samples: BTreeMap<String, u64>,
    /// Observations that are not metrics (validity, coverage, failures).
    pub notes: Vec<String>,
}

/// Collects a run's metrics by name and orders them by the registry.
#[derive(Default)]
pub struct Collector {
    values: BTreeMap<String, f64>,
}

impl Collector {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The registry's metrics for this mode, in registry order.
    ///
    /// # Panics
    ///
    /// If the run left a registered metric unset, which is a bug in the
    /// benchmark.
    pub fn finish(self, trace: bool) -> Vec<Metric> {
        let registry: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        };
        registry
            .into_iter()
            .map(|(name, unit)| {
                let value = *self
                    .values
                    .get(&name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                Metric { name, value, unit: unit.to_string() }
            })
            .collect()
    }
}

/// What a run accumulates while it measures.
#[derive(Default)]
pub struct Run {
    /// Metrics by name.
    pub metrics: Collector,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Sample counts behind the timings.
    pub samples: BTreeMap<String, u64>,
    /// Exact counters over the counter window.
    pub counters: BTreeMap<String, u64>,
    /// Observations that are not metrics.
    pub notes: Vec<String>,
}

/// Counts attempted and failed operations, keeping the first few failure
/// descriptions as notes.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    const KEPT: usize = 20;

    /// Records one operation whose printed result was `got`.
    pub fn check(&mut self, what: &str, got: Result<String, String>, expect: &str) {
        self.attempted += 1;
        match got {
            Ok(v) if v == expect => {}
            Ok(v) => self.fail(format!("{what}: got {v}, expected {expect}")),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    /// Records one failed operation (already counted as attempted, or not
    /// an operation of its own, like a counter mismatch).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < Self::KEPT {
            self.failures.push(why);
        }
    }
}

/// Runs `f`, turning a panic into an error so one broken evaluation is
/// counted as a failure instead of ending the run.
pub fn catch<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".to_string()))
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// A finite number as JSON (non-finite values become 0, which no metric
/// may legitimately read, so they stand out).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                esc(&m.name),
                num(m.value),
                esc(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

impl RunRecord {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The full record as one JSON line.
    pub fn to_json(&self) -> String {
        let map = |m: &BTreeMap<String, u64>| {
            let items: Vec<String> = m.iter().map(|(k, v)| format!("\"{}\":{v}", esc(k))).collect();
            format!("{{{}}}", items.join(","))
        };
        let notes: Vec<String> = self.notes.iter().map(|n| format!("\"{}\"", esc(n))).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"metrics\":{},\"counters\":{},\"samples\":{},\
             \"notes\":[{}]}}",
            esc(&self.workload),
            self.seed,
            self.trace,
            num(self.seconds),
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
            map(&self.counters),
            map(&self.samples),
            notes.join(",")
        )
    }

    /// Parses a record written by [`RunRecord::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped member.
    pub fn from_json(v: &JsonValue) -> Result<RunRecord, String> {
        let field = |k: &str| v.get(k).ok_or(format!("record lacks {k:?}"));
        let u64_map = |k: &str| -> Result<BTreeMap<String, u64>, String> {
            field(k)?
                .as_object()
                .ok_or(format!("{k:?} is not an object"))?
                .iter()
                .map(|(name, n)| {
                    Ok((name.clone(), n.as_u64().ok_or(format!("{k}.{name} is not a count"))?))
                })
                .collect()
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or(format!("{name}: no value"))?,
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or(format!("{name}: no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            workload: field("workload")?.as_str().ok_or("workload is not a string")?.to_string(),
            seed: field("seed")?.as_u64().ok_or("seed is not a count")?,
            trace: matches!(field("trace")?, JsonValue::Bool(true)),
            seconds: field("seconds")?.as_f64().ok_or("seconds is not a number")?,
            attempted: field("attempted")?.as_u64().ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
            counters: u64_map("counters")?,
            samples: u64_map("samples")?,
            notes: field("notes")?
                .as_array()
                .ok_or("notes is not an array")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
///
/// # Errors
///
/// When the file or the line is missing (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut r = RunRecord {
            workload: "calls".into(),
            seed: 7,
            trace: true,
            seconds: 1.5,
            attempted: 10,
            failed: 1,
            metrics: vec![Metric { name: "vm.ms".into(), value: 1.25, unit: "ms".into() }],
            notes: vec!["a \"note\"".into()],
            ..RunRecord::default()
        };
        r.counters.insert("segmented.calls".into(), 42);
        r.samples.insert("passes".into(), 3);
        let parsed = segstack_core::trace::json::parse(&r.to_json()).unwrap();
        assert_eq!(RunRecord::from_json(&parsed).unwrap(), r);
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before - END_TO_END.len() <= 128);
    }
}
