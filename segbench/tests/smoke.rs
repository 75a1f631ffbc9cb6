//! Every workload at smoke-test sizes: outputs are correct, every metric
//! `BENCHMARK.json` names is emitted with its unit, exact counters repeat
//! for the same seed, and the traced pipeline's counters equal the
//! engine's.

use segbench::programs::{Scale, WORKLOADS};
use segbench::report::RunRecord;
use segbench::{run_workload, RunConfig};
use segstack_core::trace::json::{self, JsonValue};

fn run(workload: &str, trace: bool) -> RunRecord {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        spans_out: None,
    };
    let record = run_workload(&cfg).expect("the workload runs");
    assert_eq!(record.failed, 0, "{workload} (traced: {trace}): {:?}", record.notes);
    assert!(record.attempted > 0);
    record
}

fn declared(section: &str) -> Vec<(String, String)> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(record: &RunRecord, section: &str) {
    let emitted: Vec<(String, String)> =
        record.metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect();
    assert_eq!(
        emitted,
        declared(section),
        "{} emits exactly the {section} metrics",
        record.workload
    );
    for m in &record.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{}: {} = {}",
            record.workload,
            m.name,
            m.value
        );
    }
}

#[test]
fn every_workload_is_correct_and_emits_every_declared_metric() {
    for w in WORKLOADS {
        let untraced = run(w, false);
        assert_emits(&untraced, "end_to_end");
        // A traced run fails any counter that differs between the traced
        // pipeline and `Engine::eval` over the counter window, so
        // `failed == 0` above also covers that cross-check.
        let traced = run(w, true);
        assert_emits(&traced, "per_layer");
        if w != "serve" {
            assert_eq!(traced.counters, untraced.counters, "{w}: traced pipeline vs engine");
        }
    }
}

#[test]
fn exact_counters_repeat_for_the_same_seed() {
    for w in WORKLOADS {
        let (a, b) = (run(w, false), run(w, false));
        assert!(!a.counters.is_empty(), "{w} reports exact counters");
        assert_eq!(a.counters, b.counters, "{w}");
    }
}
