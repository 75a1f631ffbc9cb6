//! The Scheme workload corpus used by the experiments.
//!
//! "Typical" programs (call-intensive, no continuations) drive the claims
//! about ordinary procedure-call cost; "continuation-intensive" programs
//! drive the capture/reinstate claims.

/// Doubly recursive Fibonacci — the canonical call-intensive benchmark.
pub fn fib(n: u32) -> String {
    format!("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib {n})")
}

/// Takeuchi's function — deep non-tail recursion.
pub fn tak(x: i32, y: i32, z: i32) -> String {
    format!(
        "(define (tak x y z)
           (if (not (< y x)) z
               (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
         (tak {x} {y} {z})"
    )
}

/// Deep non-tail summation: every level pushes a frame.
pub fn deep_sum(n: u32) -> String {
    format!("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum {n})")
}

/// A tight tail loop: the "leaf routines and tight tail-recursive loops
/// need not check for overflow" case.
pub fn tail_loop(n: u32) -> String {
    format!("(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc 1)))) (loop {n} 0)")
}

/// Continuation-intensive tak: a continuation is captured at every level
/// and every result is delivered by invoking one.
pub fn ctak(x: i32, y: i32, z: i32) -> String {
    format!(
        "(define (ctak x y z) (call/cc (lambda (k) (ctak-aux k x y z))))
         (define (ctak-aux k x y z)
           (if (not (< y x))
               (k z)
               (call/cc (lambda (k)
                 (ctak-aux k
                   (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))
                   (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))
                   (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))))
         (ctak {x} {y} {z})"
    )
}

/// The paper's §4 looper: tail-position capture in a tail loop.
pub fn looper(n: u32) -> String {
    format!(
        "(define (looper n) (if (= n 0) 'done (call/cc (lambda (k) (looper (- n 1))))))
         (looper {n})"
    )
}

/// Merge sort over an LCG-generated list.
pub fn sort(n: u32) -> String {
    format!(
        "(define (make-list-lcg n seed)
           (let loop ((i n) (s seed) (acc '()))
             (if (= i 0)
                 acc
                 (let ((next (modulo (+ (* s 1103515245) 12345) 2147483648)))
                   (loop (- i 1) next (cons (modulo next 1000) acc))))))
         (define (merge a b)
           (cond ((null? a) b)
                 ((null? b) a)
                 ((<= (car a) (car b)) (cons (car a) (merge (cdr a) b)))
                 (else (cons (car b) (merge a (cdr b))))))
         (define (split lst)
           (if (or (null? lst) (null? (cdr lst)))
               (cons lst '())
               (let ((rest (split (cddr lst))))
                 (cons (cons (car lst) (car rest))
                       (cons (cadr lst) (cdr rest))))))
         (define (merge-sort lst)
           (if (or (null? lst) (null? (cdr lst)))
               lst
               (let ((halves (split lst)))
                 (merge (merge-sort (car halves)) (merge-sort (cdr halves))))))
         (fold-left + 0 (merge-sort (make-list-lcg {n} 42)))"
    )
}

/// Symbolic differentiation of a nested product.
pub fn deriv(levels: u32) -> String {
    format!(
        "(define (deriv exp var)
           (cond ((number? exp) 0)
                 ((symbol? exp) (if (eq? exp var) 1 0))
                 ((eq? (car exp) '+)
                  (list '+ (deriv (cadr exp) var) (deriv (caddr exp) var)))
                 ((eq? (car exp) '*)
                  (list '+
                        (list '* (cadr exp) (deriv (caddr exp) var))
                        (list '* (deriv (cadr exp) var) (caddr exp))))
                 (else (error \"unknown operator\"))))
         (define (nest exp n)
           (if (= n 0) exp (nest (list '* exp (list '+ 'x n)) (- n 1))))
         (define d (deriv (nest 'x {levels}) 'x))
         (length d)"
    )
}

/// Plain-recursion n-queens (no continuations).
pub fn queens_plain(n: u32) -> String {
    format!(
        "(define (safe? row placed dist)
           (cond ((null? placed) #t)
                 ((= (car placed) row) #f)
                 ((= (abs (- (car placed) row)) dist) #f)
                 (else (safe? row (cdr placed) (+ dist 1)))))
         (define (count-queens n)
           (define (try col placed)
             (if (= col n)
                 1
                 (let loop ((row 0) (acc 0))
                   (if (= row n)
                       acc
                       (loop (+ row 1)
                             (if (safe? row placed 1)
                                 (+ acc (try (+ col 1) (cons row placed)))
                                 acc))))))
           (try 0 '()))
         (count-queens {n})"
    )
}

/// A re-entrant generator drained `rounds` times over a `width`-element
/// list: continuation-heavy with multi-shot reinstatement.
pub fn generator_drain(width: u32, rounds: u32) -> String {
    format!(
        "(define (make-gen lst)
           (define return #f)
           (define resume #f)
           (define (start)
             (for-each (lambda (x)
                         (call/cc (lambda (r) (set! resume r) (return x))))
                       lst)
             (return 'done))
           (lambda ()
             (call/cc (lambda (k)
               (set! return k)
               (if resume (resume #f) (start))))))
         (define (drain g acc)
           (let ((v (g)))
             (if (eq? v 'done) acc (drain g (+ acc v)))))
         (let loop ((i 0) (acc 0))
           (if (= i {rounds})
               acc
               (loop (+ i 1) (drain (make-gen (iota {width})) acc))))"
    )
}

/// Captures one continuation at recursion depth `depth`, discarding it,
/// `rounds` times — the capture-cost probe for E2/E5.
pub fn capture_at_depth(depth: u32, rounds: u32) -> String {
    format!(
        "(define (grab i)
           (if (= i 0) 0 (begin (%call/cc (lambda (k) k)) (grab (- i 1)))))
         (define (deep n thunk) (if (= n 0) (thunk) (+ 1 (deep (- n 1) thunk))))
         (deep {depth} (lambda () (grab {rounds})))"
    )
}

/// Captures once at depth `depth` and reinstates the continuation
/// `rounds` times — the reinstatement-cost probe for E3/E6.
pub fn reinstate_at_depth(depth: u32, rounds: u32) -> String {
    format!(
        "(define k #f)
         (define count 0)
         (define (deep n)
           (if (= n 0) (call/cc (lambda (c) (set! k c) 0)) (+ 1 (deep (- n 1)))))
         (deep {depth})
         (set! count (+ count 1))
         (if (< count {rounds}) (k 0) count)"
    )
}

/// Coroutine ping-pong for E16: two sides, each parked `spacer` non-tail
/// frames deep in its own region of the stack, pass control back and forth
/// `rounds` times. Every switch captures a fresh continuation of the
/// suspending side with `cap` (`"%call/cc"` or `"%call/1cc"`) and jumps to
/// the other side's saved one, so each continuation is reinstated exactly
/// once — the shape where one-shot capture lets the segmented stack relink
/// the suspended side's segment chain instead of copying it.
pub fn pingpong(cap: &str, spacer: u32, rounds: u32) -> String {
    format!(
        "(define k-a #f)
         (define k-b #f)
         (define k-exit #f)
         (define count 0)
         (define (dig n thunk) (if (= n 0) (thunk) (+ 1 (dig (- n 1) thunk))))
         (define (b-loop)
           ({cap} (lambda (k) (set! k-b k) (k-a 0)))
           (b-loop))
         (define (a-loop)
           (if (< count {rounds})
               (begin
                 (set! count (+ count 1))
                 ({cap} (lambda (k) (set! k-a k) (k-b 0)))
                 (a-loop))
               (k-exit count)))
         (%call/cc
           (lambda (k)
             (set! k-exit k)
             (dig {spacer}
               (lambda ()
                 ({cap} (lambda (k2)
                          (set! k-a k2)
                          (dig {spacer} (lambda () (b-loop)))))
                 (a-loop)))))"
    )
}

/// A tail loop whose body is a `let`-shaped LCG step: every iteration makes
/// one checked non-tail call to `step`, whose `let` body only calls
/// primitives (E8, E19).
pub fn lcg_let_loop(n: u32) -> String {
    format!(
        "(define (step s)
           (let ((t (modulo (+ (* s 1103515245) 12345) 2147483648)))
             (modulo t 1000)))
         (define (loop i s) (if (= i 0) s (loop (- i 1) (step s))))
         (loop {n} 42)"
    )
}

/// A bounded helper chain driven from a tail loop: every iteration makes a
/// non-tail call to `sumsq`, which makes two non-tail calls to `sq`. These
/// calls go through globals rather than direct lambda applications, so the
/// paper's leaf elision keeps all three checks (E19).
pub fn nested_helper(n: u32) -> String {
    format!(
        "(define (sq x) (* x x))
         (define (sumsq a b) (+ (sq a) (sq b)))
         (define (loop i acc)
           (if (= i 0) acc (loop (- i 1) (+ acc (sumsq i 3)))))
         (loop {n} 0)"
    )
}

/// The Boyer-style rewriting theorem prover over `n` theorem instances:
/// the classic symbol/list-intensive Gabriel workload shape.
pub fn boyer(n: u32) -> String {
    let base = include_str!("../../../tests/programs/boyer.scm");
    // Strip the file's own driver expression (the final `(list …)` form)
    // and substitute a parameterised one.
    let cut = base.rfind("(list (run-boyer").expect("driver present");
    format!("{}\n(car (run-boyer {n}))", &base[..cut])
}

/// The boundary "bouncing" probe for E9: parks the stack `depth` frames
/// deep, then runs `iters` call+return pairs across that point.
pub fn boundary_loop(depth: u32, iters: u32) -> String {
    format!(
        "(define (leaf x) (+ x 1))
         (define (cross i acc)
           (if (= i 0) acc (cross (- i 1) (modulo (+ acc (leaf acc)) 1000))))
         (define (park d i)
           (if (= d 0) (cross i 0) (+ 0 (park (- d 1) i))))
         (park {depth} {iters})"
    )
}

#[cfg(test)]
mod tests {
    use segstack_scheme::Engine;

    fn eval(src: &str) -> String {
        let mut e = Engine::builder().max_steps(500_000_000).build().unwrap();
        e.eval_to_string(src).unwrap()
    }

    #[test]
    fn workloads_produce_expected_values() {
        assert_eq!(eval(&super::fib(15)), "610");
        assert_eq!(eval(&super::tak(12, 8, 4)), "5");
        assert_eq!(eval(&super::deep_sum(1000)), "500500");
        assert_eq!(eval(&super::tail_loop(10000)), "10000");
        assert_eq!(eval(&super::ctak(12, 8, 4)), "5");
        assert_eq!(eval(&super::looper(1000)), "done");
        assert_eq!(eval(&super::sort(100)), eval(&super::sort(100)));
        assert_eq!(eval(&super::queens_plain(6)), "4");
        assert_eq!(eval(&super::capture_at_depth(50, 10)), "50");
        assert_eq!(eval(&super::boyer(2)), "122");
        assert_eq!(eval(&super::reinstate_at_depth(100, 5)), "5");
        assert_eq!(eval(&super::generator_drain(10, 3)), "135");
        assert_eq!(eval(&super::pingpong("%call/cc", 20, 50)), "50");
        assert_eq!(eval(&super::pingpong("%call/1cc", 20, 50)), "50");
        assert_eq!(eval(&super::lcg_let_loop(100)), eval(&super::lcg_let_loop(100)));
        let d = eval(&super::deriv(5));
        assert_eq!(d, "3");
        assert_eq!(eval(&super::boundary_loop(10, 100)), eval(&super::boundary_loop(10, 100)));
    }
}
