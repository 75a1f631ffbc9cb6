//! The Scheme sources of the control-abstraction libraries.
//!
//! Everything here is built from `call/cc` (and, for engines, the timer
//! interrupt), following the constructions the paper cites: coroutines
//! (Friedman, Haynes & Wand \[8\]), engines (Haynes & Friedman \[10\];
//! Dybvig & Hieb \[7\]), and nonblind backtracking (Sussman & Steele
//! \[16\]).

/// Coroutines: `(spawn-coroutine body)` where `body` receives a `yield`
/// procedure; the result is a resumer taking the value to send in. Includes
/// tree walkers and the classic same-fringe test, the canonical coroutine
/// workload.
pub const COROUTINES: &str = r#"
(define (spawn-coroutine body)
  (let ((return #f) (resume #f))
    (define (entry v)
      (body (lambda (out)
              (call/cc (lambda (k)
                         (set! resume k)
                         (return out))))
            v)
      (return 'coroutine-done))
    (lambda (v)
      (call/cc (lambda (k)
                 (set! return k)
                 (if resume (resume v) (entry v)))))))

;; A generator yields each leaf of a tree (pairs are interior nodes).
(define (tree->fringe-coroutine tree)
  (spawn-coroutine
    (lambda (yield ignored)
      (define (walk t)
        (if (pair? t)
            (begin (walk (car t)) (walk (cdr t)))
            (if (null? t) (void) (yield t))))
      (walk tree)
      (yield 'fringe-end))))

(define (same-fringe? t1 t2)
  (let ((g1 (tree->fringe-coroutine t1))
        (g2 (tree->fringe-coroutine t2)))
    (let loop ()
      (let ((a (g1 #f)) (b (g2 #f)))
        (cond ((not (eqv? a b)) #f)
              ((eq? a 'fringe-end) #t)
              (else (loop)))))))

;; A two-party ping-pong: each resume transfers control to the other side.
(define (coroutine-pingpong rounds)
  (define pong
    (spawn-coroutine
      (lambda (yield first)
        (let loop ((v first))
          (loop (yield (+ v 1)))))))
  (let loop ((i 0) (v 0))
    (if (= i rounds)
        v
        (loop (+ i 1) (pong v)))))
"#;

/// Generators (one-way coroutines) with a small combinator set.
pub const GENERATORS: &str = r#"
(define (make-generator producer)
  ;; producer receives a yield procedure; the generator returns 'done when
  ;; the producer finishes.
  (let ((return #f) (resume #f))
    (define (entry)
      (producer (lambda (out)
                  (call/cc (lambda (k)
                             (set! resume k)
                             (return out)))))
      (return 'done))
    (lambda ()
      (call/cc (lambda (k)
                 (set! return k)
                 (if resume (resume #f) (entry)))))))

(define (list->generator lst)
  (make-generator (lambda (yield) (for-each yield lst))))

(define (generator->list g)
  (let loop ((acc '()))
    (let ((v (g)))
      (if (eq? v 'done) (reverse acc) (loop (cons v acc))))))

(define (generator-take g n)
  (let loop ((i 0) (acc '()))
    (if (= i n)
        (reverse acc)
        (let ((v (g)))
          (if (eq? v 'done) (reverse acc) (loop (+ i 1) (cons v acc)))))))

(define (integers-from n)
  (make-generator
    (lambda (yield)
      (let loop ((i n)) (yield i) (loop (+ i 1))))))

(define (generator-map f g)
  (make-generator
    (lambda (yield)
      (let loop ()
        (let ((v (g)))
          (if (eq? v 'done) (void) (begin (yield (f v)) (loop))))))))

(define (generator-filter pred g)
  (make-generator
    (lambda (yield)
      (let loop ()
        (let ((v (g)))
          (if (eq? v 'done)
              (void)
              (begin (if (pred v) (yield v) (void)) (loop))))))))
"#;

/// Engines: timed preemption from continuations and the timer interrupt
/// (the classic construction of Dybvig & Hieb, "Engines from
/// Continuations"). `(make-engine thunk)` gives `(engine ticks complete
/// expire)`; `complete` receives the value and leftover ticks, `expire`
/// receives a fresh engine for the remainder of the computation.
pub const ENGINES: &str = r#"
(define (start-timer ticks handler)
  (set-timer-handler! handler)
  (set-timer ticks))

(define (stop-timer) (set-timer 0))

(define make-engine
  (let ((do-complete #f) (do-expire #f))
    (define (timer-handler)
      (start-timer (call/cc do-expire) timer-handler))
    ;; A quantum always leaves through `escape` with a thunk; once it has,
    ;; `escape` is dead, and dropping it lets its stack go too.
    (define (new-engine resume)
      (lambda (ticks complete expire)
        (let ((then
                (call/cc
                  (lambda (escape)
                    (set! do-complete
                      (lambda (value ticks)
                        (escape (lambda () (complete value ticks)))))
                    (set! do-expire
                      (lambda (resume)
                        (escape (lambda () (expire (new-engine resume))))))
                    (resume ticks)))))
          (set! do-complete #f)
          (set! do-expire #f)
          (then))))
    (lambda (thunk)
      (new-engine
        (lambda (ticks)
          (start-timer ticks timer-handler)
          (let ((value (thunk)))
            (let ((leftover (stop-timer)))
              (do-complete value leftover))))))))

;; Runs engines round-robin with a fixed quantum until all complete;
;; returns the values in completion order.
(define (round-robin engines quantum)
  (if (null? engines)
      '()
      ((car engines)
       quantum
       (lambda (value ticks)
         (cons value (round-robin (cdr engines) quantum)))
       (lambda (eng)
         (round-robin (append (cdr engines) (list eng)) quantum)))))

;; Runs an engine to completion, counting how many quanta it needed.
(define (engine-run-to-completion eng quantum)
  (let loop ((eng eng) (quanta 1))
    (eng quantum
         (lambda (value ticks) (cons value quanta))
         (lambda (next) (loop next (+ quanta 1))))))
"#;

/// Nonblind backtracking (`amb`) via continuations.
pub const AMB: &str = r#"
(define %amb-fail #f)

(define (amb-reset!)
  (set! %amb-fail (lambda () (error "amb: no more choices"))))

(amb-reset!)

;; Nondeterministically chooses an element; on failure, later elements are
;; tried, then the enclosing choice point.
(define (choose lst)
  (call/cc
    (lambda (k)
      (let ((prev %amb-fail))
        (define (try items)
          (if (null? items)
              (begin (set! %amb-fail prev) (prev))
              (begin
                (set! %amb-fail (lambda () (try (cdr items))))
                (k (car items)))))
        (try lst)))))

(define (amb-require ok) (if ok #t (%amb-fail)))

;; Collects every solution of thunk by failing after each success.
(define (amb-collect thunk)
  (let ((results '()))
    (call/cc
      (lambda (done)
        (amb-reset!)
        (set! %amb-fail (lambda () (done #f)))
        (let ((v (thunk)))
          (set! results (cons v results))
          (%amb-fail))))
    (reverse results)))

;; The n-queens puzzle with amb: the canonical backtracking workload.
(define (queens-ok? row placed dist)
  (cond ((null? placed) #t)
        ((= (car placed) row) #f)
        ((= (abs (- (car placed) row)) dist) #f)
        (else (queens-ok? row (cdr placed) (+ dist 1)))))

(define (queens n)
  (define (place col placed)
    (if (= col n)
        placed
        (let ((row (choose (iota n))))
          (amb-require (queens-ok? row placed 1))
          (place (+ col 1) (cons row placed)))))
  (amb-collect (lambda () (place 0 '()))))

(define (queens-count n) (length (queens n)))
"#;

/// Cooperative threads with preemptive time slicing, built on engines — the
/// direction of the paper's closing line ("we are investigating the use of
/// similar mechanisms in the implementation of concurrent continuations",
/// citing Hieb & Dybvig's PPoPP 1990 paper). Each thread is an engine; the
/// scheduler round-robins quanta; `thread-yield` surrenders the rest of a
/// quantum; channels provide producer/consumer communication.
pub const THREADS: &str = r#"
(define %threads '())
(define %results '())
(define %thread-counter 0)
(define %current-thread #f)

(define (spawn thunk)
  (set! %thread-counter (+ %thread-counter 1))
  (let ((tid %thread-counter))
    (set! %threads (append %threads (list (cons tid (make-engine thunk)))))
    tid))

;; Surrenders the remainder of the current quantum: the timer fires at the
;; very next call, expiring the engine back to the scheduler.
(define (thread-yield) (set-timer 1) (void))

;; Runs every spawned thread to completion with the given quantum; returns
;; an association list of (tid . value) in completion order.
(define (run-threads quantum)
  (define (loop)
    (if (null? %threads)
        (reverse %results)
        (let ((entry (car %threads)))
          (set! %threads (cdr %threads))
          (set! %current-thread (car entry))
          ((cdr entry) quantum
           (lambda (value ticks)
             (set! %results (cons (cons (car entry) value) %results))
             (loop))
           (lambda (eng)
             (set! %threads (append %threads (list (cons (car entry) eng))))
             (loop))))))
  (set! %results '())
  (loop))

(define (thread-result tid results)
  (let ((hit (assv tid results)))
    (if hit (cdr hit) (error "no such thread" tid))))

;; ---- channels (cooperative, unbounded) -------------------------------------

(define (make-channel) (vector '()))

(define (channel-send! ch v)
  (vector-set! ch 0 (append (vector-ref ch 0) (list v))))

(define (channel-empty? ch) (null? (vector-ref ch 0)))

;; Blocks (cooperatively) until a value is available.
(define (channel-recv! ch)
  (if (channel-empty? ch)
      (begin (thread-yield) (channel-recv! ch))
      (let ((v (car (vector-ref ch 0))))
        (vector-set! ch 0 (cdr (vector-ref ch 0)))
        v)))
"#;

/// Every library, in load order.
pub const ALL: &[(&str, &str)] = &[
    ("coroutines", COROUTINES),
    ("generators", GENERATORS),
    ("engines", ENGINES),
    ("amb", AMB),
    ("threads", THREADS),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libraries_parse() {
        for (name, src) in ALL {
            let forms = segstack_scheme::read_all(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!forms.is_empty(), "{name} is empty");
        }
    }
}
