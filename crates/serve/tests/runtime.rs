//! End-to-end tests of the serve runtime: fairness, deadlines, fuel,
//! cancellation, shutdown draining, and multi-strategy submission.

use std::time::Duration;

use segstack_baselines::Strategy;
use segstack_serve::{JobError, Request, Runtime, RuntimeConfig};

/// A compute-bound program taking a few thousand procedure calls.
fn fib(n: u32) -> String {
    format!("(let fib ((n {n})) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
}

const DIVERGE: &str = "(let loop () (loop))";

#[test]
fn round_robin_is_fair_across_equal_jobs() {
    // One worker interleaving four identical jobs: round-robin over
    // engine quanta must grant each job the same number of quanta (the
    // timer counts procedure calls, so this is fully deterministic).
    let rt =
        Runtime::start(RuntimeConfig::with_workers(1).quantum(500).max_inflight(8).queue_depth(16));
    let handles: Vec<_> = (0..4).map(|_| rt.submit(Request::new(fib(18))).unwrap()).collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    for o in &outcomes {
        assert_eq!(o.result.as_deref(), Ok("2584"), "job {} failed", o.id);
        assert!(o.quanta > 1, "job {} should need several quanta", o.id);
    }
    let quanta: Vec<u64> = outcomes.iter().map(|o| o.quanta).collect();
    let spread = quanta.iter().max().unwrap() - quanta.iter().min().unwrap();
    assert!(spread <= 1, "equal jobs diverged by {spread} quanta: {quanta:?}");
    rt.shutdown();
}

#[test]
fn deadline_cancels_divergent_job_mid_computation() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(1_000));
    // The deadline runs from submission, so building the worker's kit
    // (compiling the prelude: tens of ms in a debug build) must not eat
    // it: a first job builds the kit, and the deadline leaves many
    // quanta of slack for the divergent job to start running.
    let warm = rt.submit(Request::new("(* 6 7)")).unwrap().wait();
    assert_eq!(warm.result.unwrap(), "42");
    let doomed = rt.submit(Request::new(DIVERGE).deadline(Duration::from_millis(200))).unwrap();
    let outcome = doomed.wait();
    assert_eq!(outcome.result.unwrap_err(), JobError::DeadlineExceeded);
    // The loop never returns, so the only way to stop it is the engine
    // timer preempting it inside the computation.
    assert!(outcome.quanta >= 1, "must have been preempted mid-computation");

    // The worker that hosted the divergent job is still healthy.
    let after = rt.submit(Request::new("(* 6 7)")).unwrap().wait();
    assert_eq!(after.result.unwrap(), "42");

    let snap = rt.shutdown();
    assert_eq!(snap.total().deadline_exceeded, 1);
    assert_eq!(snap.total().completed, 2);
}

#[test]
fn fuel_budget_cancels_divergent_job() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(500));
    let doomed = rt.submit(Request::new(DIVERGE).fuel(2_000)).unwrap();
    let outcome = doomed.wait();
    assert_eq!(outcome.result.unwrap_err(), JobError::FuelExhausted);
    assert!(outcome.ticks >= 2_000, "spent {} ticks", outcome.ticks);
    // Worker survives here too.
    assert_eq!(rt.submit(Request::new("(+ 1 1)")).unwrap().wait().result.unwrap(), "2");
    rt.shutdown();
}

#[test]
fn default_fuel_applies_when_request_sets_none() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(500).default_fuel(1_500));
    let outcome = rt.submit(Request::new(DIVERGE)).unwrap().wait();
    assert_eq!(outcome.result.unwrap_err(), JobError::FuelExhausted);
    rt.shutdown();
}

#[test]
fn handle_cancel_stops_job_at_next_preemption_point() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(500));
    let handle = rt.submit(Request::new(DIVERGE)).unwrap();
    handle.cancel();
    let outcome = handle.wait();
    assert_eq!(outcome.result.unwrap_err(), JobError::Cancelled);
    let snap = rt.shutdown();
    assert_eq!(snap.total().cancelled, 1);
}

#[test]
fn shutdown_drains_queue_before_returning() {
    // More jobs than workers * max_inflight, then shut down immediately:
    // every job must still reach a real outcome (no Lost results).
    let rt = Runtime::start(
        RuntimeConfig::with_workers(2).quantum(2_000).max_inflight(2).queue_depth(64),
    );
    let handles: Vec<_> = (0..24).map(|_| rt.submit(Request::new(fib(12))).unwrap()).collect();
    let snap = rt.shutdown();
    assert_eq!(snap.total().completed, 24);
    assert_eq!(snap.queued, 0);
    for h in handles {
        assert_eq!(h.wait().result.as_deref(), Ok("144"));
    }
}

#[test]
fn errors_are_reported_and_do_not_poison_workers() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1));
    let unread = rt.submit(Request::new("(unclosed")).unwrap().wait();
    assert!(matches!(unread.result, Err(JobError::Eval(_))), "{:?}", unread.result);
    let unbound = rt.submit(Request::new("(no-such-procedure 1)")).unwrap().wait();
    assert!(matches!(unbound.result, Err(JobError::Eval(_))), "{:?}", unbound.result);
    let ok = rt.submit(Request::new("(+ 2 3)")).unwrap().wait();
    assert_eq!(ok.result.unwrap(), "5");
    let snap = rt.shutdown();
    assert_eq!(snap.total().eval_errors, 2);
    assert_eq!(snap.total().completed, 1);
}

#[test]
fn worker_ticks_are_the_sum_of_the_outcomes_ticks() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(500));
    let requests = [
        Request::new("(+ 1 2)"),
        Request::new(fib(18)),
        Request::new(DIVERGE).fuel(2_000),
        Request::new("(car '())"),
        Request::new(format!("(begin {} (car '()))", fib(15))),
    ];
    let handles: Vec<_> = requests.into_iter().map(|r| rt.submit(r).unwrap()).collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    assert_eq!(outcomes[0].quanta, 1, "one quantum");
    assert!(outcomes[1].quanta > 1, "several quanta");
    assert_eq!(outcomes[2].result, Err(JobError::FuelExhausted));
    assert!(outcomes[3..].iter().all(|o| matches!(o.result, Err(JobError::Eval(_)))));
    assert!(outcomes[4].quanta > 1, "an error after several quanta");
    let snap = rt.shutdown();
    assert_eq!(snap.total().ticks, outcomes.iter().map(|o| o.ticks).sum::<u64>());
}

#[test]
fn every_strategy_serves_jobs() {
    let rt = Runtime::start(RuntimeConfig::with_workers(2));
    let handles: Vec<_> = Strategy::ALL
        .iter()
        .map(|&s| rt.submit(Request::new(fib(10)).strategy(s)).unwrap())
        .collect();
    for h in handles {
        assert_eq!(h.wait().result.as_deref(), Ok("55"));
    }
    rt.shutdown();
}

#[test]
fn call_cc_heavy_jobs_survive_preemption() {
    // A generator-driven sum: captures continuations on every yield, so
    // preemption interleaves with first-class continuation use.
    let program = "(begin \
       (define (gen-sum n) \
         (let ((g (make-generator (lambda (yield) \
                    (let loop ((i 0)) (when (< i n) (yield i) (loop (+ i 1)))))))) \
           (let loop ((acc 0)) \
             (let ((v (g))) \
               (if (eq? v 'done) acc (loop (+ acc v))))))) \
       (gen-sum 200))";
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(300));
    let outcome = rt.submit(Request::new(program)).unwrap().wait();
    assert_eq!(outcome.result.as_deref(), Ok("19900"));
    assert!(outcome.quanta > 1, "should span quanta, got {}", outcome.quanta);
    rt.shutdown();
}

#[test]
fn try_submit_reports_queue_full_and_hands_request_back() {
    // Stall the single worker with a divergent (but cancellable) job so
    // the tiny queue fills up behind it.
    let rt = Runtime::start(
        RuntimeConfig::with_workers(1).quantum(100_000).max_inflight(1).queue_depth(1),
    );
    let blocker = rt.submit(Request::new(DIVERGE)).unwrap();
    // Give the worker time to claim the blocker, then fill the queue.
    let filler = loop {
        match rt.try_submit(Request::new("(+ 1 2)")) {
            Ok(h) if rt.metrics().queued == 1 => break h,
            Ok(h) => {
                // Worker claimed it before the queue registered as full;
                // wait it out and try again.
                let _ = h.wait();
            }
            // The worker may not have claimed the blocker yet, leaving
            // the depth-1 queue momentarily full; give it a beat.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let bounced = rt.try_submit(Request::new("(+ 3 4)"));
    match bounced {
        Err(segstack_serve::SubmitError::QueueFull(req)) => {
            assert_eq!(req.program, "(+ 3 4)");
        }
        Err(other) => panic!("expected QueueFull, got {other}"),
        Ok(_) => panic!("expected QueueFull, got a handle"),
    }
    blocker.cancel();
    assert_eq!(filler.wait().result.unwrap(), "3");
    rt.shutdown();
}

#[test]
fn drop_aborts_unbounded_divergent_jobs() {
    // Dropping the runtime (no graceful shutdown) must not hang even
    // though the in-flight job would never finish on its own.
    let rt = Runtime::start(RuntimeConfig::with_workers(1).quantum(1_000));
    let doomed = rt.submit(Request::new(DIVERGE)).unwrap();
    // Let the worker actually start the job before tearing down.
    while rt.metrics().total().admitted == 0 {
        std::thread::yield_now();
    }
    drop(rt);
    assert_eq!(doomed.wait().result.unwrap_err(), JobError::Cancelled);
}

#[test]
fn snapshot_json_is_well_formed_and_complete() {
    let rt = Runtime::start(RuntimeConfig::with_workers(2));
    for _ in 0..4 {
        rt.submit(Request::new(fib(10))).unwrap().wait();
    }
    let snap = rt.shutdown();
    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"total\":"));
    assert_eq!(json.matches("\"admitted\":").count(), 3, "{json}");
    assert_eq!(snap.total().completed, 4);
}

#[test]
fn traced_runtime_exports_a_valid_chrome_timeline() {
    use segstack_core::trace::{chrome_trace_json, flame_summary, validate_chrome_trace};

    let rt =
        Runtime::start(RuntimeConfig::with_workers(2).quantum(500).max_inflight(4).tracing(true));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            // A mix of plain compute and continuation-heavy work so the
            // trace carries capture/reinstate events inside quanta.
            let program = if i % 2 == 0 {
                fib(16)
            } else {
                "(let loop ((n 200) (acc 0))
                   (if (= n 0) acc
                       (loop (- n 1) (+ acc (call/cc (lambda (k) (k 1)))))))"
                    .to_string()
            };
            rt.submit(Request::new(program)).unwrap()
        })
        .collect();
    for h in handles {
        assert!(h.wait().result.is_ok());
    }
    let (snapshot, traces) = rt.shutdown_traced();

    // Service counters and histograms reflect the run.
    let total = snapshot.total();
    assert_eq!(total.completed, 6);
    assert_eq!(total.latency.count(), 6, "one latency sample per job");
    assert_eq!(total.quantum_nanos.count(), total.quanta, "one sample per quantum");

    // Every worker that ran drained exactly one trace; the export is a
    // valid, properly nested Chrome trace document.
    assert!(!traces.is_empty() && traces.len() <= 2);
    let doc = chrome_trace_json(&traces);
    let stats = validate_chrome_trace(&doc).expect("serve trace must validate");
    assert_eq!(stats.tracks, traces.len());
    assert!(stats.spans >= total.quanta as usize, "every quantum is a span");
    assert_eq!(stats.async_spans, 6, "every job opens and closes an async span");
    assert!(doc.contains("\"name\":\"quantum\""), "{doc:.300}");
    assert!(doc.contains("\"queue_depth\""));

    // The flame summary names the worker tracks.
    let flame = flame_summary(&traces);
    assert!(flame.contains("worker-"), "{flame}");
}

#[test]
fn untraced_runtime_returns_no_traces() {
    let rt = Runtime::start(RuntimeConfig::with_workers(1));
    rt.submit(Request::new(fib(10))).unwrap().wait();
    let (snapshot, traces) = rt.shutdown_traced();
    assert_eq!(snapshot.total().completed, 1);
    assert!(traces.is_empty());
}
