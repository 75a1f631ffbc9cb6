//! Observability end to end: ring-buffer event tracing, histogram
//! readouts, and a Perfetto-loadable timeline.
//!
//! Three layers, one sink:
//!
//! 1. an engine records every capture / reinstate / overflow / underflow
//!    into a [`RingSink`] (an engine built without one records nothing;
//!    both run the same machine, and every event site is off the
//!    call/return path, so call-only work costs the same either way —
//!    see experiment E18);
//! 2. the running Scheme program reads its own per-kind histograms with
//!    the `(trace-stats)` primitive;
//! 3. a traced serve runtime drains one timeline per worker, rendered as
//!    Chrome trace-event JSON for https://ui.perfetto.dev.
//!
//! Run with `cargo run --example tracing`.

use std::cell::RefCell;
use std::rc::Rc;

use segstack::baselines::Strategy;
use segstack::core::trace::{chrome_trace_json, flame_summary, validate_chrome_trace, RingSink};
use segstack::scheme::Engine;
use segstack::serve::{Request, Runtime, RuntimeConfig};

fn main() {
    // -- 1. an engine recording into a ring ------------------------------
    let sink = Rc::new(RefCell::new(RingSink::new()));
    let mut engine = Engine::builder()
        .strategy(Strategy::Segmented)
        .trace_sink(sink.clone())
        .build()
        .expect("engine construction");

    let program = "(define (spin n)
                     (if (= n 0)
                         'done
                         (call/cc (lambda (k) (k (spin (- n 1)))))))
                   (spin 2000)";
    engine.eval(program).expect("traced program");
    println!("== ring aggregates after 2000 capture/reinstate cycles ==");
    let ring = sink.borrow();
    println!("events recorded: {} (dropped {})", ring.total_recorded(), ring.dropped());
    for (kind, s) in ring.summaries() {
        println!(
            "{:<16} count={:<6} p50={:<6} p99={:<6} max={}",
            kind.name(),
            s.count,
            s.p50,
            s.p99,
            s.max
        );
    }
    drop(ring);

    // -- 2. the program reads its own trace: (trace-stats) ---------------
    let alist = engine.eval("(assq 'capture (trace-stats))").expect("trace-stats primitive");
    println!("\n== (assq 'capture (trace-stats)) from inside Scheme ==");
    println!("{alist}    ; (kind count p50 p90 p99 max)");

    // -- 3. a traced serve runtime, exported for Perfetto ----------------
    let rt = Runtime::start(RuntimeConfig::with_workers(2).quantum(2_000).tracing(true));
    for i in 0..6 {
        let src = format!(
            "(let fib ((n {})) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
            14 + i % 3
        );
        rt.submit(Request::new(src)).expect("submit").wait().result.expect("job result");
    }
    let (snapshot, traces) = rt.shutdown_traced();
    println!("\n== serve snapshot (latency histograms ride along) ==");
    print!("{snapshot}");

    let doc = chrome_trace_json(&traces);
    let stats = validate_chrome_trace(&doc).expect("exported trace validates");
    let path = std::env::temp_dir().join("segstack-trace.json");
    std::fs::write(&path, &doc).expect("write trace file");
    println!(
        "\nwrote {} — {} events ({} spans, {} job spans) on {} track(s)",
        path.display(),
        stats.events,
        stats.spans,
        stats.async_spans,
        stats.tracks
    );
    println!("open it in https://ui.perfetto.dev or chrome://tracing\n");
    println!("== flame summary ==\n{}", flame_summary(&traces));
}
