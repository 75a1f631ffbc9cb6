//! Language-level integration tests: R3RS-style behavior of the Scheme
//! system on the segmented stack.

use segstack::baselines::Strategy;
use segstack::scheme::Engine;

fn eval(src: &str) -> String {
    let mut e = Engine::builder().max_steps(100_000_000).build().unwrap();
    e.eval_to_string(src).unwrap_or_else(|err| panic!("{src}: {err}"))
}

#[track_caller]
fn check(src: &str, expected: &str) {
    assert_eq!(eval(src), expected, "program: {src}");
}

/// Evaluates `src` on every strategy.
fn eval_everywhere(src: &str) -> Vec<(Strategy, Result<String, String>)> {
    Strategy::ALL
        .into_iter()
        .map(|s| {
            let mut e = Engine::builder().strategy(s).max_steps(100_000_000).build().unwrap();
            (s, e.eval_to_string(src).map_err(|err| err.to_string()))
        })
        .collect()
}

#[track_caller]
fn check_everywhere(src: &str, expected: &str) {
    for (s, got) in eval_everywhere(src) {
        assert_eq!(got.as_deref(), Ok(expected), "strategy {s}, program: {src}");
    }
}

#[track_caller]
fn fails_everywhere(src: &str, needle: &str) {
    for (s, got) in eval_everywhere(src) {
        let err = got.expect_err(src);
        assert!(err.contains(needle), "strategy {s}, program: {src}: {err}");
    }
}

#[test]
fn self_evaluating() {
    check("42", "42");
    check("-3", "-3");
    check("2.5", "2.5");
    check("#t", "#t");
    check("#\\a", "#\\a");
    check("\"str\"", "\"str\"");
}

#[test]
fn quoting() {
    check("'a", "a");
    check("'(1 2 3)", "(1 2 3)");
    check("''a", "(quote a)");
    check("'#(1 2)", "#(1 2)");
    check("'()", "()");
}

#[test]
fn conditionals() {
    check("(if #t 'yes 'no)", "yes");
    check("(if #f 'yes 'no)", "no");
    check("(if 0 'yes 'no)", "yes");
    check("(if '() 'yes 'no)", "yes");
    check("(cond (#f 1) (#t 2) (else 3))", "2");
    check("(cond (#f 1) (else 3))", "3");
    check("(cond ((assv 'b '((a 1) (b 2))) => cadr) (else 'none))", "2");
    check("(cond (42))", "42");
    check("(case (* 2 3) ((2 3 5 7) 'prime) ((1 4 6 8 9) 'composite))", "composite");
    check("(case 'z ((a) 1) (else 'other))", "other");
    check("(and 1 2 3)", "3");
    check("(and 1 #f 3)", "#f");
    check("(and)", "#t");
    check("(or #f #f 3)", "3");
    check("(or #f)", "#f");
    check("(or)", "#f");
    check("(when (> 3 2) 'big)", "big");
    check("(unless (> 3 2) 'small)", "#<unspecified>");
}

#[test]
fn binding_forms() {
    check("(let ((x 2) (y 3)) (* x y))", "6");
    check("(let ((x 2)) (let ((x 7) (y x)) (* x y)))", "14");
    check("(let* ((x 2) (y (* x 3))) (* x y))", "12");
    check(
        "(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
                    (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
           (even? 88))",
        "#t",
    );
    check("(let loop ((n 5) (acc 1)) (if (= n 0) acc (loop (- n 1) (* acc n))))", "120");
    check(
        "(do ((v (make-vector 5)) (i 0 (+ i 1))) ((= i 5) v) (vector-set! v i i))",
        "#(0 1 2 3 4)",
    );
}

#[test]
fn lambdas_and_closures() {
    check("((lambda (x) (+ x x)) 4)", "8");
    check("((lambda (x . rest) (list x rest)) 1 2 3)", "(1 (2 3))");
    check("((lambda args args) 3 4 5 6)", "(3 4 5 6)");
    check(
        "(define compose (lambda (f g) (lambda (x) (f (g x)))))
           ((compose car cdr) '(a b c))",
        "b",
    );
    check(
        "(define (curry2 f) (lambda (a) (lambda (b) (f a b))))
           (((curry2 +) 1) 2)",
        "3",
    );
}

#[test]
fn assignment_and_state() {
    check("(define x 1) (set! x 11) x", "11");
    check(
        "(define (make-cell v)
             (cons (lambda () v) (lambda (nv) (set! v nv))))
           (define c (make-cell 1))
           ((cdr c) 99)
           ((car c))",
        "99",
    );
}

#[test]
fn numeric_tower() {
    check("(+ 1 2.5)", "3.5");
    check("(* 1000000 1000000)", "1000000000000");
    check("(quotient 17 5)", "3");
    check("(modulo -7 3)", "2");
    check("(remainder -7 3)", "-1");
    check("(max 1 2.0 3)", "3.0");
    check("(expt 2 16)", "65536");
    check("(- 5)", "-5");
    check("(< 1 2 3 4)", "#t");
    check("(<= 1 1 2)", "#t");
    check("(= 2 2 2)", "#t");
    check("(exact->inexact 1)", "1.0");
}

#[test]
fn list_library() {
    check("(append '(1) '(2 3) '() '(4))", "(1 2 3 4)");
    check("(reverse '(1 2 3))", "(3 2 1)");
    check("(length '(a b c))", "3");
    check("(list-tail '(a b c d) 2)", "(c d)");
    check("(memq 'c '(a b c d))", "(c d)");
    check("(assv 2 '((1 a) (2 b)))", "(2 b)");
    check("(map cadr '((a 1) (b 2)))", "(1 2)");
    check("(map + '(1 2 3) '(10 20 30))", "(11 22 33)");
    check("(filter pair? '(1 (2) () (3 4)))", "((2) (3 4))");
    check("(fold-left cons '() '(1 2 3))", "(((() . 1) . 2) . 3)");
    check("(fold-right cons '() '(1 2 3))", "(1 2 3)");
}

#[test]
fn equality_predicates() {
    check("(eq? 'a 'a)", "#t");
    check("(eq? '(a) '(a))", "#f");
    check("(eqv? 1.5 1.5)", "#t");
    check("(equal? '(1 (2)) '(1 (2)))", "#t");
    check("(equal? \"ab\" \"ab\")", "#t");
    check("(eq? \"ab\" \"ab\")", "#f");
    check("(equal? #(1 2) #(1 2))", "#t");
}

#[test]
fn vectors_and_strings() {
    check("(define v (make-vector 3 'x)) (vector-set! v 1 'y) v", "#(x y x)");
    check("(vector->list #(1 2 3))", "(1 2 3)");
    check("(list->vector '(a b))", "#(a b)");
    check("(string-append \"foo\" \"bar\")", "\"foobar\"");
    check("(substring \"hello\" 1 4)", "\"ell\"");
    check("(string->list \"ab\")", "(#\\a #\\b)");
    check("(list->string '(#\\x #\\y))", "\"xy\"");
    check("(string->symbol \"sym\")", "sym");
    check("(number->string 42)", "\"42\"");
    check("(string->number \"3.5\")", "3.5");
}

#[test]
fn proper_tail_calls_do_not_grow_the_stack() {
    // One million iterations: impossible without proper tail calls.
    check("(define (loop n) (if (= n 0) 'done (loop (- n 1)))) (loop 1000000)", "done");
    // Mutual recursion in tail position.
    check(
        "(define (even? n) (if (= n 0) #t (odd? (- n 1))))
         (define (odd? n) (if (= n 0) #f (even? (- n 1))))
         (even? 300000)",
        "#t",
    );
}

#[test]
fn shadowing_and_hygiene_basics() {
    check("(let ((else #f)) (cond (else 'hit) (#t 'fallthrough)))", "fallthrough");
    check("(let ((quote list)) (quote 1 2))", "(1 2)");
    check("(define (f lambda) (lambda 3 4)) (f +)", "7");
}

#[test]
fn internal_defines() {
    check(
        "(define (outer x)
           (define doubled (* x 2))
           (define (helper y) (+ doubled y))
           (helper 1))
         (outer 10)",
        "21",
    );
    // Mutually recursive internal defines (letrec* semantics).
    check(
        "(define (f n)
           (define (even? n) (if (= n 0) #t (odd? (- n 1))))
           (define (odd? n) (if (= n 0) #f (even? (- n 1))))
           (even? n))
         (f 10)",
        "#t",
    );
}

#[test]
fn letrec_procedures_keep_their_semantics() {
    // A procedure that refers to itself is the closure its binding holds.
    check_everywhere("(letrec ((f (lambda () f))) (eq? f (f)))", "#t");
    // A later `set!` of an internal define is seen by every reader.
    check_everywhere("(define (t) (define (f) 1) (set! f (lambda () 2)) (f)) (t)", "2");
    // An earlier define may refer to a later one.
    check_everywhere("(define (t) (define (g) (f)) (define (f) 7) (g)) (t)", "7");
    // Local procedures still name themselves in arity errors.
    fails_everywhere("((lambda () (define (f x) x) (f)))", "f: expected 1 arguments, got 0");
}

#[test]
fn apply_spreads_past_the_frame_bound() {
    check_everywhere("(apply + (iota 100000))", "4999950000");
    check_everywhere("(apply (lambda args (length args)) (iota 100000))", "100000");
    // The rest list is fresh, never the list `apply` was given.
    check_everywhere("(let ((l (list 1 2))) (eq? l (apply (lambda args args) l)))", "#f");
    fails_everywhere("(apply (lambda (a b) a) (iota 100))", "expected 2 arguments, got 100");
}

#[test]
fn io_effects_are_ordered() {
    let mut e = Engine::new().unwrap();
    e.eval("(for-each (lambda (x) (display x) (display \" \")) '(1 2 3))").unwrap();
    assert_eq!(e.take_output(), "1 2 3 ");
}

#[test]
fn deep_structures_print_and_compare() {
    check(
        "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
         (length (build 10000))",
        "10000",
    );
    check(
        "(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
         (equal? (build 2000) (build 2000))",
        "#t",
    );
}

#[test]
fn error_messages_are_informative() {
    let mut e = Engine::new().unwrap();
    for (src, needle) in [
        ("(car '())", "car"),
        ("(vector-ref (vector 1) 3)", "out of range"),
        ("(undefined-proc 1)", "unbound"),
        ("((lambda (x) x))", "expected 1"),
        ("(let ((x)) x)", "binding"),
        ("(if)", "if"),
    ] {
        let err = e.eval(src).unwrap_err().to_string();
        assert!(err.contains(needle), "{src}: {err}");
    }
}

#[test]
fn runtime_errors_carry_backtraces() {
    for s in Strategy::ALL {
        let mut e = Engine::with_strategy(s).unwrap();
        let err = e
            .eval(
                "(define (innermost x) (+ 1 (car x)))
                 (define (middle x) (+ 1 (innermost x)))
                 (define (outer x) (+ 1 (middle x)))
                 (outer 5)",
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a pair"), "{s}: {err}");
        assert!(err.contains("in middle"), "{s}: missing frame: {err}");
        assert!(err.contains("in outer"), "{s}: missing frame: {err}");
        // Innermost first.
        let mid = err.find("in middle").unwrap();
        let out = err.find("in outer").unwrap();
        assert!(mid < out, "{s}: frames out of order: {err}");
    }
}

#[test]
fn backtraces_cross_segment_boundaries() {
    use segstack::core::Config;
    let cfg = Config::builder().segment_slots(160).frame_bound(48).copy_bound(16).build().unwrap();
    let mut e = Engine::builder().strategy(Strategy::Segmented).config(cfg).build().unwrap();
    // Deep recursion spans many segments; the walk must cross the sealed
    // records.
    e.eval("(define (deep n) (if (= n 0) (car 'boom) (+ 1 (deep (- n 1)))))").unwrap();
    let err = e.eval("(deep 50)").unwrap_err().to_string();
    let count = err.matches("in deep").count();
    assert!(count >= 10, "walk stopped early ({count} frames): {err}");
}

#[test]
fn delay_and_force_memoize() {
    check(
        "(define count 0)
         (define p (delay (begin (set! count (+ count 1)) (* 6 7))))
         (list (force p) (force p) count)",
        "(42 42 1)",
    );
    // Unforced promises never run.
    check("(define p2 (delay (error \"never\"))) 'ok", "ok");
}

#[test]
fn transcendental_functions() {
    check("(sin 0)", "0.0");
    check("(cos 0)", "1.0");
    check("(exp 0)", "1.0");
    check("(log 1)", "0.0");
    check("(atan 0)", "0.0");
    check("(< (abs (- (atan 1 1) 0.7853981633974483)) 0.000001)", "#t");
    check("(< 2.71 (exp 1) 2.72)", "#t");
    check("(exact? 1)", "#t");
    check("(exact? 1.0)", "#f");
    check("(inexact? 1.5)", "#t");
}

#[test]
fn extended_comparisons() {
    check("(char>? #\\b #\\a)", "#t");
    check("(char<=? #\\a #\\a)", "#t");
    check("(char>=? #\\a #\\b)", "#f");
    check("(string>? \"b\" \"a\")", "#t");
    check("(string<=? \"ab\" \"ab\")", "#t");
    check("(string>=? \"a\" \"b\")", "#f");
}

#[test]
fn string_ports() {
    check(
        "(call-with-output-string
           (lambda (port)
             (display \"x = \" port)
             (write \"s\" port)
             (newline port)
             (display '(1 2) port)))",
        "\"x = \\\"s\\\"\\n(1 2)\"",
    );
    check("(port? (open-output-string))", "#t");
    check("(port? \"not a port\")", "#f");
    // Ports are independent of the engine's main output.
    let mut e = Engine::new().unwrap();
    let v = e
        .eval(
            "(define p (open-output-string))
             (display \"to-port\" p)
             (display \"to-main\")
             (get-output-string p)",
        )
        .unwrap();
    assert_eq!(v.to_string(), "\"to-port\"");
    assert_eq!(e.take_output(), "to-main");
}

#[test]
fn syntax_rules_macros_end_to_end() {
    // A swap! macro (the classic non-hygienic demo).
    check(
        "(define-syntax swap!
           (syntax-rules ()
             ((_ a b) (let ((tmp a)) (set! a b) (set! b tmp)))))
         (define x 1) (define y 2)
         (swap! x y)
         (list x y)",
        "(2 1)",
    );
    // A while loop built from named let.
    check(
        "(define-syntax while
           (syntax-rules ()
             ((_ test body ...)
              (let loop ()
                (when test body ... (loop))))))
         (define i 0) (define acc '())
         (while (< i 5) (set! acc (cons i acc)) (set! i (+ i 1)))
         (reverse acc)",
        "(0 1 2 3 4)",
    );
    // my-let via ellipsis over structured subpatterns.
    check(
        "(define-syntax my-let
           (syntax-rules ()
             ((_ ((name val) ...) body ...)
              ((lambda (name ...) body ...) val ...))))
         (my-let ((a 2) (b 3)) (* a b))",
        "6",
    );
    // Recursive macro: my-and.
    check(
        "(define-syntax my-and
           (syntax-rules ()
             ((_) #t)
             ((_ e) e)
             ((_ e rest ...) (if e (my-and rest ...) #f))))
         (list (my-and) (my-and 1 2 3) (my-and 1 #f 3))",
        "(#t 3 #f)",
    );
    // Macros whose expansion defines things at top level.
    check(
        "(define-syntax defconst
           (syntax-rules ()
             ((_ name val) (define name val))))
         (defconst answer 42)
         answer",
        "42",
    );
    // Literals direct rule choice.
    check(
        "(define-syntax arrow
           (syntax-rules (->)
             ((_ a -> b) (cons a b))
             ((_ a b) (list a b))))
         (list (arrow 1 -> 2) (arrow 1 2))",
        "((1 . 2) (1 2))",
    );
}

#[test]
fn syntax_rules_errors() {
    let mut e = Engine::new().unwrap();
    // Divergent macro hits the depth guard, not a hang.
    let err = e
        .eval(
            "(define-syntax diverge (syntax-rules () ((_ x) (diverge x))))
             (diverge 1)",
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("divergent"), "{err}");
    // define-syntax is top-level only.
    let err = e
        .eval("(define (f) (define-syntax m (syntax-rules () ((_ ) 1))) (m))")
        .unwrap_err()
        .to_string();
    assert!(err.contains("top level"), "{err}");
    // No matching rule.
    e.eval("(define-syntax one (syntax-rules () ((_ a) a)))").unwrap();
    let err = e.eval("(one 1 2)").unwrap_err().to_string();
    assert!(err.contains("no syntax-rules pattern"), "{err}");
}

#[test]
fn shadowed_macro_names_are_ordinary_variables() {
    check(
        "(define-syntax twice (syntax-rules () ((_ e) (begin e e))))
         (let ((twice (lambda (x) (* 2 x))))
           (twice 21))",
        "42",
    );
}

#[test]
fn multiple_values() {
    check("(call-with-values (lambda () (values 1 2 3)) list)", "(1 2 3)");
    check("(call-with-values (lambda () (values)) (lambda () 'none))", "none");
    check("(call-with-values (lambda () 42) (lambda (x) (* x 2)))", "84");
    check("(call-with-values (lambda () (values 3 4)) +)", "7");
    check("(values 9)", "9");
    // Through a continuation boundary.
    check(
        "(call-with-values
           (lambda () (call/cc (lambda (k) (k (values 1 2)))))
           list)",
        "(1 2)",
    );
}

#[test]
fn prelude_sort() {
    check("(sort '(3 1 2) <)", "(1 2 3)");
    check("(sort '() <)", "()");
    check("(sort '(5) <)", "(5)");
    check("(sort '(1 2 3 4) >)", "(4 3 2 1)");
    check("(sort '(\"pear\" \"apple\" \"fig\") string<?)", "(\"apple\" \"fig\" \"pear\")");
    // Stable enough to be deterministic on duplicates.
    check("(sort '(2 1 2 1) <)", "(1 1 2 2)");
}

#[test]
fn stack_frames_introspection() {
    for s in Strategy::ALL {
        let mut e = Engine::with_strategy(s).unwrap();
        let v = e
            .eval(
                "(define (innermost) (stack-frames))
                 (define (middle) (cons 'm (innermost)))
                 (define (outer) (cons 'o (middle)))
                 (outer)",
            )
            .unwrap()
            .to_string();
        // Walking from inside `innermost`: the pending returns are into
        // middle, then outer, then the toplevel chunk.
        assert!(v.contains("middle"), "{s}: {v}");
        assert!(v.contains("outer"), "{s}: {v}");
        let m = v.find("middle").unwrap();
        let o = v.find("outer").unwrap();
        assert!(m < o, "{s}: innermost first: {v}");
    }
    // The limit argument truncates the walk.
    let mut e = Engine::new().unwrap();
    let v = e
        .eval(
            "(define (deep n) (if (= n 0) (length (stack-frames 3)) (+ 0 (deep (- n 1)))))
             (deep 50)",
        )
        .unwrap();
    assert_eq!(v.to_string(), "3");
}

#[test]
fn string_mutation() {
    check(
        "(define s (make-string 3 #\\a))
         (string-set! s 1 #\\b)
         s",
        "\"aba\"",
    );
    check(
        "(define s (string-copy \"xyz\"))
         (string-fill! s #\\q)
         s",
        "\"qqq\"",
    );
    // string-copy detaches storage.
    check(
        "(define a \"abc\")
         (define b (string-copy a))
         (string-set! b 0 #\\z)
         (list a b)",
        "(\"abc\" \"zbc\")",
    );
    let mut e = Engine::new().unwrap();
    assert!(e.eval("(string-set! \"abc\" 9 #\\x)").is_err());
}

#[test]
fn block_comments_in_programs() {
    check("(+ 1 #| one |# 2 #| #| nested |# |# 3)", "6");
}

#[test]
fn runtime_eval() {
    check("(eval '(+ 1 2))", "3");
    check("(eval (list '+ 1 2))", "3");
    // eval sees and affects the global environment.
    check("(define x 10) (eval '(define y (* x 2))) (+ x y)", "30");
    // Data built at runtime, compiled at runtime.
    check(
        "(define (make-adder-src n) (list 'lambda '(v) (list '+ 'v n)))
         ((eval (make-adder-src 5)) 37)",
        "42",
    );
    // eval in tail position.
    check("(define (run d) (eval d)) (run '(if #t 'yes 'no))", "yes");
    // read + eval round trip.
    check("(eval (read-from-string \"(* 6 7)\"))", "42");
    // Errors inside eval'd code surface normally.
    let mut e = Engine::new().unwrap();
    assert!(e.eval("(eval '(car 5))").is_err());
    assert!(e.eval("(eval '(unbound-in-eval))").is_err());
    // And the engine recovers.
    assert_eq!(e.eval_to_string("(eval '(+ 2 2))").unwrap(), "4");
    // Macros are visible to runtime eval (shared expander).
    check(
        "(define-syntax twice (syntax-rules () ((_ e) (begin e e))))
         (define n 0)
         (eval '(twice (set! n (+ n 1))))
         n",
        "2",
    );
    // call/cc interacts with eval'd code.
    check("(+ 1 (call/cc (lambda (k) (eval (list k 41)))))", "42");
}
