//! Overflow, underflow and failure-injection tests.
//!
//! §5 of the paper: overflow is an implicit capture, underflow an implicit
//! reinstatement, and a correct implementation recovers gracefully at any
//! segment size. These tests run real programs under absurdly small
//! segments, exhausted memory budgets, and pathological copy bounds.

use segstack::baselines::Strategy;
use segstack::core::{Config, StackError};
use segstack::scheme::{Engine, SchemeError};

fn tiny_cfg(segment: usize, copy_bound: usize) -> Config {
    Config::builder().segment_slots(segment).frame_bound(48).copy_bound(copy_bound).build().unwrap()
}

#[test]
fn deep_recursion_under_tiny_segments() {
    // Segments barely larger than the reserve: nearly every call overflows.
    let cfg = tiny_cfg(160, 16);
    let mut e = Engine::builder().config(cfg).max_steps(100_000_000).build().unwrap();
    let v = e.eval("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 20000)").unwrap();
    assert_eq!(v.to_string(), "200010000");
    let m = e.metrics();
    assert!(m.overflows > 1000, "only {} overflows", m.overflows);
    assert!(m.underflows >= m.overflows);
}

#[test]
fn copy_bound_one_frame_still_works() {
    // A copy bound below the frame size: every reinstatement splits down to
    // single frames (the paper's "it would be sufficient to split off a
    // single frame").
    let cfg = tiny_cfg(4096, 1);
    let mut e = Engine::builder().config(cfg).max_steps(100_000_000).build().unwrap();
    let v = e
        .eval(
            "(define k #f)
             (define pass 0)
             (define (deep n) (if (= n 0) (call/cc (lambda (c) (set! k c) 0)) (+ 1 (deep (- n 1)))))
             (define v (deep 500))
             (set! pass (+ pass 1))
             (if (< pass 3) (k 0) (list v pass))",
        )
        .unwrap();
    assert_eq!(v.to_string(), "(500 3)");
    assert!(e.metrics().splits > 100, "splits: {}", e.metrics().splits);
}

#[test]
fn ctak_under_every_tiny_config() {
    for (segment, copy_bound) in [(160, 4), (256, 16), (512, 64), (1024, 1)] {
        let cfg = tiny_cfg(segment, copy_bound);
        let mut e = Engine::builder().config(cfg).max_steps(100_000_000).build().unwrap();
        let v = e.eval(include_str!("programs/ctak.scm")).unwrap();
        assert_eq!(v.to_string(), "5", "segment={segment} copy_bound={copy_bound}");
    }
}

#[test]
fn budget_exhaustion_is_a_clean_error() {
    // A hard cap on stack memory: deep recursion must fail with
    // OutOfStackMemory, not a panic — and the engine must stay usable.
    let cfg = Config::builder()
        .segment_slots(256)
        .frame_bound(48)
        .copy_bound(32)
        .max_total_slots(4096)
        .pool_segments(0)
        .build()
        .unwrap();
    let mut e = Engine::builder().config(cfg).max_steps(100_000_000).build().unwrap();
    let err =
        e.eval("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 1000000)").unwrap_err();
    match err {
        SchemeError::Stack(StackError::OutOfStackMemory { .. }) => {}
        other => panic!("expected OutOfStackMemory, got {other}"),
    }
    // Note: the budget is consumed; shallow evaluation still works because
    // the engine reset retained the final segment.
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
}

#[test]
fn reset_under_an_exhausted_budget_is_a_clean_error() {
    // As above, but every frame's continuation is saved in a global, so the
    // live segment is shared when the error resets the stack. The reset
    // cannot start over at the segment's bottom, and the budget leaves no
    // fresh one: it must keep the segment, not panic.
    let cfg = Config::builder()
        .segment_slots(256)
        .frame_bound(48)
        .copy_bound(32)
        .max_total_slots(4096)
        .pool_segments(0)
        .build()
        .unwrap();
    let mut e = Engine::builder().config(cfg).max_steps(100_000_000).build().unwrap();
    let err = e
        .eval(
            "(define saved #f)
             (define (sum n)
               (if (= n 0) 0 (+ n (call/cc (lambda (k) (set! saved k) (sum (- n 1)))))))
             (sum 1000000)",
        )
        .unwrap_err();
    match err {
        SchemeError::Stack(StackError::OutOfStackMemory { .. }) => {}
        other => panic!("expected OutOfStackMemory, got {other}"),
    }
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
}

#[test]
fn overflow_boundary_loop_does_not_bounce_on_segmented() {
    // Park the stack near a segment boundary, then run a call/return loop
    // across it. The segmented model allocates a fresh segment on overflow
    // and keeps running inside it — the Bartley–Jensen cache would flush
    // and refill on every iteration (E9 measures this; here we assert the
    // structural fact).
    let cfg = tiny_cfg(512, 32);
    let mut seg = Engine::builder()
        .strategy(Strategy::Segmented)
        .config(cfg.clone())
        .max_steps(100_000_000)
        .build()
        .unwrap();
    let mut cache = Engine::builder()
        .strategy(Strategy::Cache)
        .config(cfg)
        .max_steps(100_000_000)
        .build()
        .unwrap();
    let program = "
        (define (leaf x) (+ x 1))
        (define (spin depth iters)
          (if (= depth 0)
              (let loop ((i iters) (acc 0))
                (if (= i 0) acc (loop (- i 1) (leaf acc))))
              (+ 0 (spin (- depth 1) iters))))
        (spin 40 2000)";
    for e in [&mut seg, &mut cache] {
        e.eval("1").unwrap();
        e.reset_metrics();
        assert_eq!(e.eval_to_string(program).unwrap(), "2000");
    }
    let seg_ovf = seg.metrics().overflows;
    let cache_ovf = cache.metrics().overflows;
    assert!(
        seg_ovf <= 5,
        "segmented overflowed {seg_ovf} times; it should settle into one segment"
    );
    // The cache model has a fixed boundary; with the loop parked next to it
    // the comparison in E9 shows the bouncing cost. Structurally we only
    // assert it recovered correctly here.
    assert!(cache_ovf < 4000);
}

#[test]
fn engine_reset_recovers_from_stack_errors_on_all_strategies() {
    let cfg = Config::builder().segment_slots(256).frame_bound(48).copy_bound(32).build().unwrap();
    for s in Strategy::ALL {
        let mut e =
            Engine::builder().strategy(s).config(cfg.clone()).max_steps(400_000).build().unwrap();
        // Exhaust the step budget mid-recursion: the stack is left deep.
        let err = e.eval("(define (spin n) (spin (+ n 1))) (spin 0)").unwrap_err();
        assert!(err.to_string().contains("step budget"), "{s}: {err}");
        // The engine must recover to a clean stack.
        assert_eq!(e.eval_to_string("(* 6 7)").unwrap(), "42", "{s}");
    }
}

#[test]
fn very_deep_data_structures_drop_safely() {
    // A million-element list must be constructed and torn down without
    // blowing the native Rust stack (iterative Drop).
    let mut e = Engine::builder().max_steps(200_000_000).build().unwrap();
    let v = e
        .eval(
            "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))
             (length (build 1000000 '()))",
        )
        .unwrap();
    assert_eq!(v.to_string(), "1000000");
    drop(e);
}

#[test]
fn deep_nests_of_every_aggregate_drop_safely() {
    // A value nested 100,000 deep through each aggregate that holds
    // values: a car, a vector, a closure, a `set!` cell (which a closure
    // captures) and a multiple-values object. Freeing it must not recurse
    // on the native stack. Value teardown does not depend on the strategy,
    // so the default engine suffices.
    let mut e = Engine::builder().max_steps(200_000_000).build().unwrap();
    e.eval("(define (nest n wrap acc) (if (= n 0) acc (nest (- n 1) wrap (wrap acc))))").unwrap();
    for wrap in [
        "(lambda (acc) (cons acc '()))",
        "vector",
        "(lambda (acc) (lambda () acc))",
        "(lambda (acc) (let ((c #f)) (set! c acc) (lambda () c)))",
        "(lambda (acc) (values acc 1))",
    ] {
        e.eval(&format!("(define v (nest 100000 {wrap} '()))")).unwrap();
        e.eval("(set! v #f)").unwrap();
        assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3", "{wrap}");
    }
    drop(e);
}

#[test]
fn chains_of_continuations_drop_safely_on_all_strategies() {
    // Each captured continuation's saved state contains the previous one:
    // a 60000-deep ownership chain at teardown (iterative Drop).
    for s in Strategy::ALL {
        let mut e = Engine::builder().strategy(s).max_steps(200_000_000).build().unwrap();
        e.eval(
            "(define (looper n k) (if (= n 0) 'done (looper (- n 1) (call/cc (lambda (c) c)))))
             (looper 60000 #f)",
        )
        .unwrap_or_else(|err| panic!("{s}: {err}"));
        drop(e);
    }
}

#[test]
fn segment_pool_reuse_keeps_allocation_bounded() {
    let cfg = Config::builder()
        .segment_slots(512)
        .frame_bound(48)
        .copy_bound(32)
        .pool_segments(4)
        .build()
        .unwrap();
    let mut e = Engine::builder().config(cfg).max_steps(200_000_000).build().unwrap();
    // A recursion just deep enough to cross one segment boundary, repeated:
    // each cycle overflows (needs a segment) and underflows (salvages it),
    // so steady state runs entirely from the pool.
    e.eval("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1)))))").unwrap();
    e.eval("(sum 100)").unwrap();
    e.reset_metrics();
    e.eval("(do ((i 0 (+ i 1))) ((= i 50)) (sum 100))").unwrap();
    let m = e.metrics();
    assert!(m.overflows >= 50, "each cycle must overflow (got {})", m.overflows);
    assert!(
        m.segments_reused >= 40 && m.segments_allocated <= 10,
        "steady state should run from the pool: {} fresh vs {} reused",
        m.segments_allocated,
        m.segments_reused
    );
}
