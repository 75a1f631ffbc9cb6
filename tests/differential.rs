//! Differential testing: the six control-stack strategies must be
//! observationally identical.
//!
//! The assignment-conversion invariant (frame slots are single-assignment
//! per activation) is exactly what makes frame *sharing* (heap, hybrid)
//! equivalent to frame *copying* (copy, cache, segmented). These tests
//! check that equivalence on a fixed corpus, and delegate the generative
//! side to the shared `segstack-fuzz` generators: trace-level sequences
//! against the vector-of-frames oracle, and program-level `call/cc`-heavy
//! expressions through full engines. Failing seeds from fuzz campaigns
//! get checked in as named `tests/programs/fuzz_*.scm` regressions.

use segstack::baselines::Strategy;
use segstack::core::Config;
use segstack::scheme::{CheckPolicy, Engine};
use segstack_fuzz::progs::{agree_on, gen_driven_program, gen_program, run_on, stressed_cfg};
use segstack_fuzz::{fuzz_trace, TraceSpec};

#[track_caller]
fn agree(cfg: &Config, src: &str) {
    if let Err(e) = agree_on(cfg, src) {
        panic!("{e}");
    }
}

fn default_cfg() -> Config {
    Config::default()
}

const CORPUS: &[(&str, &str)] = &[
    ("fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 17)"),
    (
        "tak",
        "(define (tak x y z)
           (if (not (< y x)) z
               (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
         (tak 14 10 5)",
    ),
    ("ctak", include_str!("programs/ctak.scm")),
    ("sort", include_str!("programs/sort.scm")),
    ("deriv", include_str!("programs/deriv.scm")),
    ("queens", include_str!("programs/queens.scm")),
    ("generators", include_str!("programs/generators.scm")),
    ("boyer", include_str!("programs/boyer.scm")),
    // Named regressions minted by the fuzzer's program generator.
    ("fuzz-escape", include_str!("programs/fuzz_escape.scm")),
    ("fuzz-branchy", include_str!("programs/fuzz_branchy.scm")),
    ("fuzz-nested-k", include_str!("programs/fuzz_nested_k.scm")),
    ("fuzz-ic-redefine", include_str!("programs/fuzz_ic_redefine.scm")),
    ("fuzz-interproc-poison", include_str!("programs/fuzz_interproc_poison.scm")),
    ("deep-sum", "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 30000)"),
    (
        "ackermann",
        "(define (ack m n)
           (cond ((= m 0) (+ n 1))
                 ((= n 0) (ack (- m 1) 1))
                 (else (ack (- m 1) (ack m (- n 1))))))
         (list (ack 2 3) (ack 3 3))",
    ),
    (
        "string-churn",
        "(define (churn n acc)
           (if (= n 0)
               (string-length acc)
               (churn (- n 1)
                      (substring (string-append acc (number->string n)) 0
                                 (min 40 (string-length (string-append acc \"x\")))))))
         (churn 200 \"\")",
    ),
    (
        "mutual-tail",
        "(define (ev? n) (if (= n 0) #t (od? (- n 1))))
         (define (od? n) (if (= n 0) #f (ev? (- n 1))))
         (list (ev? 100000) (od? 99999))",
    ),
    (
        "escape-product",
        "(define (product lst)
           (call/cc (lambda (exit)
             (let loop ((l lst) (acc 1))
               (cond ((null? l) acc)
                     ((= (car l) 0) (exit 0))
                     (else (loop (cdr l) (* acc (car l)))))))))
         (list (product '(1 2 3 4)) (product '(9 9 0 9)))",
    ),
    (
        "io-ordering",
        "(define (countdown n)
           (if (= n 0) (display \"go\") (begin (display n) (display \" \") (countdown (- n 1)))))
         (countdown 5)",
    ),
    ("errors", "(define (boom) (car 42)) (boom)"),
];

#[test]
fn corpus_agrees_on_default_config() {
    for (name, src) in CORPUS {
        if let Err(e) = agree_on(&default_cfg(), src) {
            panic!("{name}: {e}");
        }
    }
}

#[test]
fn corpus_agrees_under_stress_config() {
    for (name, src) in CORPUS {
        if let Err(e) = agree_on(&stressed_cfg(), src) {
            panic!("{name} (stressed): {e}");
        }
    }
}

#[test]
fn corpus_agrees_across_check_policies() {
    // The overflow-check policy must never change results, only counters.
    for (name, src) in CORPUS {
        let [always, elide] = [CheckPolicy::Always, CheckPolicy::Elide].map(|policy| {
            let mut e =
                Engine::builder().check_policy(policy).max_steps(50_000_000).build().unwrap();
            e.eval(src).map(|v| v.to_string()).map_err(|e| e.to_string())
        });
        assert_eq!(always, elide, "{name} diverges across check policies");
    }
}

#[test]
fn named_fuzz_regressions_have_stable_results() {
    // The checked-in regressions must keep evaluating to the same values:
    // a change here means evaluator semantics moved, not just the fuzzer.
    let cfg = default_cfg();
    let expected: &[(&str, &str)] = &[
        ("fuzz-escape", "|1"),
        ("fuzz-branchy", "|40"),
        ("fuzz-nested-k", "|14"),
        ("fuzz-ic-redefine", "|(11 20 7 10 100)"),
        ("fuzz-interproc-poison", "|(2026 done)"),
    ];
    for (name, want) in expected {
        let (_, src) = CORPUS.iter().find(|(n, _)| n == name).unwrap();
        let got = run_on(Strategy::Segmented, &cfg, src).unwrap();
        assert_eq!(&got, want, "{name} changed value");
    }
}

// ---- property-based random traces and programs ----------------------------

/// Machine-level traces: every strategy against the shared oracle, with
/// invariant audits on the segmented machine. This is the same harness the
/// `segstack-fuzz` CLI drives at scale; a failure message includes the
/// shrunk replay seed.
#[test]
fn random_traces_agree_with_the_oracle() {
    for seed in 0..300u64 {
        let spec = TraceSpec::generate(seed, 64);
        if let Err(e) = fuzz_trace(&spec) {
            panic!("replay with `cargo run -p segstack-fuzz -- --seed {seed} --ops 64`:\n{e}");
        }
    }
}

/// Random programs evaluate identically on all six strategies, both on
/// the default and on the stressed configuration.
#[test]
fn random_programs_agree() {
    for seed in 0..64u64 {
        let src = gen_program(seed, 4);
        agree(&default_cfg(), &src);
        agree(&stressed_cfg(), &src);
    }
}

/// Random programs under a deep driver: run the generated expression
/// inside a non-tail recursion so captures happen at depth and
/// overflow/underflow paths engage under the stressed configuration.
#[test]
fn random_programs_agree_at_depth() {
    // A disjoint seed range from `random_programs_agree`, for variety.
    for seed in 5000..5064u64 {
        let program = gen_driven_program(seed, 3);
        agree(&stressed_cfg(), &program);
    }
}
