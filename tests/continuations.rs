//! Continuation torture tests, run on every control-stack strategy.
//!
//! These exercise exactly the behaviors that distinguish the paper's
//! segmented stack from simpler schemes: escapes, multi-shot re-entry,
//! continuations outliving their capture context, capture at depth,
//! reinstatement across overflow boundaries, and the tail-capture rule.

use segstack::baselines::Strategy;
use segstack::core::Config;
use segstack::scheme::{CheckPolicy, Engine};

fn engine(strategy: Strategy) -> Engine {
    Engine::builder().strategy(strategy).max_steps(200_000_000).build().unwrap()
}

#[track_caller]
fn check_all(src: &str, expected: &str) {
    for s in Strategy::ALL {
        let mut e = engine(s);
        let got = e.eval_to_string(src).unwrap_or_else(|err| panic!("{s}: {err}\n{src}"));
        assert_eq!(got, expected, "strategy {s}, program:\n{src}");
    }
}

#[test]
fn escaping_continuations() {
    check_all("(call/cc (lambda (k) 42))", "42");
    check_all("(call/cc (lambda (k) (k 42)))", "42");
    check_all("(+ 1 (call/cc (lambda (k) (k 1) 99)))", "2");
    check_all("(* 3 (call/cc (lambda (k) (+ 1 (k 5)))))", "15");
    // Escape from deep inside a recursion.
    check_all(
        "(define (find-first pred lst fail)
           (cond ((null? lst) (fail 'not-found))
                 ((pred (car lst)) (car lst))
                 (else (find-first pred (cdr lst) fail))))
         (call/cc (lambda (k) (find-first even? '(1 3 5 7 9) k)))",
        "not-found",
    );
}

#[test]
fn continuation_as_first_class_value() {
    check_all(
        "(define k-cell #f)
         (define (capture) (call/cc (lambda (k) (set! k-cell k) 0)))
         (define count 0)
         (define r (capture))
         (set! count (+ count 1))
         (if (< r 3) (k-cell (+ r 1)) (list r count))",
        "(3 4)",
    );
}

#[test]
fn reentering_an_earlier_init_reruns_a_later_procedure_init() {
    // `loop` needs no cell: no init before it refers to it. Re-entering
    // `n`'s continuation runs `loop`'s init again, and `r` reads the
    // latest `n` through its cell.
    check_all(
        "(define (t)
           (define k #f)
           (define n (call/cc (lambda (c) (set! k c) 0)))
           (define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc n))))
           (define r (loop 3 0))
           (if (< n 2) (k (+ n 1)) (list n r)))
         (t)",
        "(2 6)",
    );
}

#[test]
fn multi_shot_reentry_from_saved_continuation() {
    check_all(
        "(define k #f)
         (define log '())
         (define v (* 2 (call/cc (lambda (c) (set! k c) 1))))
         (set! log (cons v log))
         (if (< v 8) (k (+ v 1)) (reverse log))",
        "(2 6 14)",
    );
}

#[test]
fn ctak_on_every_strategy() {
    check_all(include_str!("programs/ctak.scm"), "5");
}

#[test]
fn capture_deep_then_unwind_and_reenter() {
    // Capture at depth 2000, unwind fully, re-enter three times.
    check_all(
        "(define k #f)
         (define pass 0)
         (define (deep n) (if (= n 0) (call/cc (lambda (c) (set! k c) 1)) (+ 1 (deep (- n 1)))))
         (define first (deep 2000))
         (set! pass (+ pass 1))
         (if (< pass 3) (k 0) (list first pass))",
        "(2000 3)",
    );
}

#[test]
fn continuations_escape_iteration() {
    check_all(
        "(define (product lst)
           (call/cc (lambda (exit)
             (let loop ((l lst) (acc 1))
               (cond ((null? l) acc)
                     ((= (car l) 0) (exit 0))
                     (else (loop (cdr l) (* acc (car l)))))))))
         (list (product '(1 2 3)) (product '(1 0 3)))",
        "(6 0)",
    );
}

#[test]
fn reentry_replays_only_the_post_capture_suffix() {
    check_all(
        "(define trace '())
         (define (note x) (set! trace (cons x trace)))
         (define k1 #f)
         (define n 0)
         (note 'a)
         (call/cc (lambda (k) (set! k1 k)))
         (note 'b)
         (set! n (+ n 1))
         (if (< n 3) (k1 #f) (reverse trace))",
        "(a b b b)",
    );
}

#[test]
fn the_paper_looper_runs_in_constant_segments() {
    // The exact §4 example: tail-position call/cc in a tail-recursive loop.
    for s in Strategy::ALL {
        let mut e = engine(s);
        e.eval(
            "(define (looper n)
               (if (= n 0) 'done (looper (- n 1) (call/cc (lambda (k) k)))))
             (define (looper2 n . ignored)
               (if (= n 0) 'done (looper2 (- n 1) (call/cc (lambda (k) k)))))
             (looper2 50000)",
        )
        .unwrap();
        let st = e.stack_stats();
        assert!(
            st.chain_records <= 3,
            "{s}: looper grew the continuation chain to {}",
            st.chain_records
        );
    }
}

#[test]
fn segmented_looper_allocates_no_extra_segments() {
    // The paper's exact looper shape: call/cc in tail position, recursion
    // in the receiver's tail position (§4).
    let mut e = engine(Strategy::Segmented);
    e.eval("(define (looper n) (if (= n 0) 'done (call/cc (lambda (k) (looper (- n 1))))))")
        .unwrap();
    e.reset_metrics();
    e.eval("(looper 100000)").unwrap();
    let m = e.metrics();
    assert_eq!(m.captures, 100_000);
    assert_eq!(m.segments_allocated, 0, "the tail-capture rule avoids all segment growth");
    assert_eq!(m.overflows, 0);
    assert_eq!(m.slots_copied, 0, "capture never copies");
}

#[test]
fn deep_recursion_across_overflow_with_reentry() {
    // Capture below several segment boundaries, then re-enter after a full
    // unwind: reinstatement must chain through split segments.
    let cfg = Config::builder().segment_slots(512).frame_bound(64).copy_bound(64).build().unwrap();
    for s in Strategy::ALL {
        let mut e = Engine::builder()
            .strategy(s)
            .config(cfg.clone())
            .max_steps(200_000_000)
            .build()
            .unwrap();
        let got = e
            .eval_to_string(
                "(define k #f)
                 (define reentered #f)
                 (define (deep n)
                   (if (= n 0)
                       (call/cc (lambda (c) (set! k c) 1))
                       (+ 1 (deep (- n 1)))))
                 (define v (deep 300))
                 (if reentered v (begin (set! reentered #t) (k 1)))",
            )
            .unwrap();
        assert_eq!(got, "301", "{s}");
    }
}

#[test]
fn dynamic_wind_reroots_on_jumps_every_strategy() {
    check_all(
        "(define trace '())
         (define (note x) (set! trace (cons x trace)))
         (define k #f)
         (define pass 0)
         (dynamic-wind
           (lambda () (note 'enter))
           (lambda ()
             (call/cc (lambda (c) (set! k c)))
             (note 'body))
           (lambda () (note 'leave)))
         (set! pass (+ pass 1))
         (if (< pass 3) (k #f) (reverse trace))",
        "(enter body leave enter body leave enter body leave)",
    );
}

#[test]
fn exit_continuation_halts_any_depth() {
    check_all(
        "(define (spin k n) (if (= n 0) (k 'halted) (spin k (- n 1))))
         (call/cc (lambda (k) (spin k 10000)))",
        "halted",
    );
}

#[test]
fn continuation_identity_semantics() {
    check_all("(call/cc procedure?)", "#t");
    check_all(
        "(define k (call/cc (lambda (c) c)))
         (if (procedure? k) (k 42) k)",
        "42",
    );
}

#[test]
fn call_cc_receivers_behave_alike_at_every_call_site() {
    // A value, or the first error line up to any continuation printout
    // (two captures of the same point print differently).
    fn outcome(s: Strategy, src: &str) -> String {
        match engine(s).eval_to_string(src) {
            Ok(v) => v,
            Err(e) => {
                let msg = e.to_string();
                let line = msg.lines().next().unwrap_or_default();
                format!("error: {}", line.split("#<continuation").next().unwrap_or_default())
            }
        }
    }
    // The VM-dispatched primitives, each as the receiver of a `call/cc`.
    let receivers = [
        "%call/cc",
        "%call/1cc",
        "apply",
        "eval",
        "set-timer",
        "set-timer-handler!",
        "stack-frames",
        "trace-stats",
    ];
    for p in receivers {
        let tail = format!("(procedure? ((lambda () (%call/cc {p}))))");
        let non_tail = format!("(procedure? ((lambda () (car (list (%call/cc {p}))))))");
        for s in Strategy::ALL {
            assert_eq!(outcome(s, &tail), outcome(s, &non_tail), "strategy {s}, receiver {p}");
        }
    }
    check_all("(list ((%call/cc %call/cc) (lambda (x) 7)))", "(7)");
}

#[test]
fn check_policies_do_not_change_semantics() {
    for policy in [CheckPolicy::Always, CheckPolicy::Elide] {
        let mut e = Engine::builder().check_policy(policy).max_steps(200_000_000).build().unwrap();
        let v = e.eval_to_string(include_str!("programs/ctak.scm")).unwrap();
        assert_eq!(v, "5", "{policy:?}");
        let v = e
            .eval_to_string("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 100000)")
            .unwrap();
        assert_eq!(v, "5000050000", "{policy:?}");
    }
}

#[test]
fn strategies_report_expected_capture_costs() {
    // The quantitative shape of the paper (E2): repeated capture of a deep
    // stack copies the whole stack every time in the copy model, and a
    // bounded amount in the segmented model.
    let program = "(define ks '())
                   (define (grab i)
                     (if (= i 0)
                         0
                         (begin
                           (call/cc (lambda (k) (set! ks (cons k ks))))
                           (grab (- i 1)))))
                   (define (deep n thunk)
                     (if (= n 0) (thunk) (+ 1 (deep (- n 1) thunk))))
                   (deep 300 (lambda () (grab 20)))";
    let copied = |s: Strategy| {
        let mut e = engine(s);
        e.eval("1").unwrap();
        e.reset_metrics();
        e.eval(program).unwrap();
        e.metrics().slots_copied
    };
    let seg = copied(Strategy::Segmented);
    let copy = copied(Strategy::Copy);
    assert!(
        copy > 20 * 300 && copy > 3 * seg,
        "copy model pays O(depth) per capture (copy={copy}, segmented={seg})"
    );
}

// ---- code lives while something can still run it --------------------------
//
// A closure owns its chunk and every frame holds its closure in slot 1, a
// top level's included; the code store only indexes chunks weakly. Each
// program below makes the frames of a continuation the only owners of
// some code, then runs that code.

#[test]
fn a_continuation_returns_into_a_procedure_redefined_since() {
    for s in Strategy::ALL {
        let mut e = engine(s);
        e.eval("(define k #f) (define (f) (+ 100 (call/cc (lambda (c) (set! k c) 1))))").unwrap();
        assert_eq!(e.eval_to_string("(f)").unwrap(), "101", "{s}");
        e.eval("(define (f) 'redefined)").unwrap();
        assert_eq!(e.eval_to_string("(k 5)").unwrap(), "105", "{s}");
        assert_eq!(e.eval_to_string("(k 6)").unwrap(), "106", "{s}");
        assert_eq!(e.eval_to_string("(f)").unwrap(), "redefined", "{s}");
    }
}

#[test]
fn a_continuation_reenters_eval_after_it_returned() {
    for s in Strategy::ALL {
        let mut e = engine(s);
        e.eval("(define k #f) (define log '())").unwrap();
        e.eval("(set! log (cons (eval '(+ 1 (call/cc (lambda (c) (set! k c) 1)))) log))").unwrap();
        e.eval("(if (< (length log) 3) (k (* 10 (length log))))").unwrap();
        e.eval("(if (< (length log) 3) (k (* 10 (length log))))").unwrap();
        assert_eq!(e.eval_to_string("log").unwrap(), "(21 11 2)", "{s}");
    }
}

#[test]
fn stack_frames_name_a_procedure_redefined_since() {
    for s in Strategy::ALL {
        let mut e = engine(s);
        e.eval(
            "(define (probe) (stack-frames))
             (define (outer) (set! outer #f) (cons 'in (probe)))",
        )
        .unwrap();
        let frames = e.eval_to_string("(outer)").unwrap();
        assert!(frames.starts_with("(in outer"), "{s}: {frames}");
    }
}

#[test]
fn freed_code_disassembles_to_a_note() {
    for s in Strategy::ALL {
        let mut e = engine(s);
        e.eval("(define (f) 1)").unwrap();
        let top = e.chunk_count() as u32 - 1;
        assert_eq!(e.eval_to_string("(f)").unwrap(), "1", "{s}");
        let note = e.disassemble(top);
        assert_eq!(note.lines().count(), 1, "{s}: {note}");
        assert!(note.contains("freed"), "{s}: {note}");
        assert!(e.disassemble_last().contains("chunk \"toplevel\""), "{s}");
        assert!(e.disassemble(top - 1).contains("chunk \"f\""), "{s}: `f` still owns its code");
    }
}

#[test]
fn runs_that_reinstate_start_the_next_at_the_segment_bottom() {
    let mut e = engine(Strategy::Segmented);
    e.eval("(+ 1 (call/cc (lambda (k) (k 1))))").unwrap();
    let (free, segments) = (e.stack_stats().current_free_slots, e.metrics().segments_allocated);
    for _ in 0..2000 {
        assert_eq!(e.eval_to_string("(+ 1 (call/cc (lambda (k) (k 1))))").unwrap(), "2");
    }
    assert_eq!(e.stack_stats().current_free_slots, free);
    assert_eq!(e.metrics().segments_allocated, segments);

    let mut kit = segstack::control::Control::new(Strategy::Segmented).unwrap();
    let mut job = || {
        let mut job = kit.spawn_job("(+ 1 2)").unwrap();
        let step = kit.step_job(&mut job, 1_000_000).unwrap();
        assert!(matches!(step, segstack::control::Step::Done { .. }));
        (kit.engine().stack_stats().current_free_slots, kit.engine().metrics().segments_allocated)
    };
    let first = job();
    for _ in 0..2000 {
        assert_eq!(job(), first);
    }
}
