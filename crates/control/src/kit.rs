//! A ready-to-use engine with every control library loaded, plus typed
//! helpers for the classic continuation workloads.

use std::cell::RefCell;
use std::rc::Rc;

use segstack_baselines::Strategy;
use segstack_core::{Config, Metrics, RingSink};
use segstack_scheme::{CheckPolicy, Chunk, Engine, SchemeError, Value};

use crate::libs;

/// A Scheme engine with the coroutine, generator, engine and amb libraries
/// installed.
///
/// # Examples
///
/// ```
/// use segstack_control::Control;
/// use segstack_baselines::Strategy;
///
/// let mut kit = Control::new(Strategy::Segmented)?;
/// assert!(kit.same_fringe("'((1 2) 3)", "'(1 (2 3))")?);
/// assert_eq!(kit.queens_count(6)?, 4);
/// # Ok::<(), segstack_scheme::SchemeError>(())
/// ```
#[derive(Debug)]
pub struct Control {
    engine: Engine,
    /// The quantum driver's top-level chunk, compiled on the first
    /// [`Control::step_job`] and rerun by every later one.
    pub(crate) driver: Option<Rc<Chunk>>,
}

impl Control {
    /// Creates a kit over the given control-stack strategy with default
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates engine construction or library loading failures.
    pub fn new(strategy: Strategy) -> Result<Self, SchemeError> {
        Self::with_config(strategy, Config::default(), CheckPolicy::default())
    }

    /// Creates a kit with explicit stack configuration and check policy.
    ///
    /// # Errors
    ///
    /// Propagates engine construction or library loading failures.
    pub fn with_config(
        strategy: Strategy,
        config: Config,
        policy: CheckPolicy,
    ) -> Result<Self, SchemeError> {
        let engine =
            Engine::builder().strategy(strategy).config(config).check_policy(policy).build()?;
        Self::with_engine(engine)
    }

    /// Creates a kit whose engine records trace events into a shared
    /// ring (see [`segstack_core::trace`]). Only the segmented strategy
    /// is instrumented; other strategies accept the sink and record
    /// nothing. Several kits may share one ring through clones of the
    /// same handle.
    ///
    /// # Errors
    ///
    /// Propagates engine construction or library loading failures.
    pub fn with_trace_sink(
        strategy: Strategy,
        sink: Rc<RefCell<RingSink>>,
    ) -> Result<Self, SchemeError> {
        let engine = Engine::builder().strategy(strategy).trace_sink(sink).build()?;
        Self::with_engine(engine)
    }

    /// Installs the libraries into an existing engine.
    ///
    /// # Errors
    ///
    /// Propagates library compilation failures.
    pub fn with_engine(mut engine: Engine) -> Result<Self, SchemeError> {
        for (_, src) in libs::ALL {
            engine.eval(src)?;
        }
        Ok(Control { engine, driver: None })
    }

    /// The underlying engine.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Evaluates arbitrary Scheme.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn eval(&mut self, src: &str) -> Result<Value, SchemeError> {
        self.engine.eval(src)
    }

    /// Control-stack operation counters.
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// Do two trees (as Scheme expressions) have the same fringe? Uses two
    /// coroutines walking the trees in lockstep — the canonical coroutine
    /// workload.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn same_fringe(&mut self, tree1: &str, tree2: &str) -> Result<bool, SchemeError> {
        let v = self.engine.eval(&format!("(same-fringe? {tree1} {tree2})"))?;
        Ok(v.is_truthy())
    }

    /// Runs the two-coroutine ping-pong for `rounds` control transfers,
    /// returning the final counter.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn coroutine_pingpong(&mut self, rounds: u32) -> Result<i64, SchemeError> {
        self.engine.eval(&format!("(coroutine-pingpong {rounds})"))?.as_fixnum()
    }

    /// Counts the solutions of the `n`-queens puzzle via `amb`
    /// backtracking.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn queens_count(&mut self, n: u32) -> Result<usize, SchemeError> {
        Ok(self.engine.eval(&format!("(queens-count {n})"))?.as_fixnum()? as usize)
    }

    /// Runs `k` engines round-robin, each counting down from `n`, with the
    /// given tick quantum; returns their values in completion order.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn round_robin_countdowns(
        &mut self,
        k: u32,
        n: u32,
        quantum: u32,
    ) -> Result<Vec<i64>, SchemeError> {
        let src = format!(
            "(round-robin
               (map (lambda (id)
                      (make-engine (lambda ()
                        (let loop ((i {n})) (if (= i 0) id (loop (- i 1)))))))
                    (iota {k}))
               {quantum})"
        );
        let v = self.engine.eval(&src)?;
        v.list_to_vec()?.iter().map(Value::as_fixnum).collect()
    }

    /// Spawns one cooperative thread per Scheme thunk source and runs them
    /// all with the given quantum; returns `(thread-id, value)` pairs in
    /// completion order. Threads are engines under the hood: preemption is
    /// continuation capture at a timer interrupt.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn run_threads(
        &mut self,
        thunks: &[&str],
        quantum: u32,
    ) -> Result<Vec<(i64, Value)>, SchemeError> {
        for thunk in thunks {
            self.engine.eval(&format!("(spawn {thunk})"))?;
        }
        let v = self.engine.eval(&format!("(run-threads {quantum})"))?;
        v.list_to_vec()?
            .into_iter()
            .map(|pair| Ok((pair.car()?.as_fixnum()?, pair.cdr()?)))
            .collect()
    }

    /// Runs the ctak benchmark (continuation-intensive tak).
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn ctak(&mut self, x: i64, y: i64, z: i64) -> Result<i64, SchemeError> {
        self.engine.eval(CTAK)?;
        self.engine.eval(&format!("(ctak {x} {y} {z})"))?.as_fixnum()
    }
}

/// The ctak benchmark source (continuation-intensive tak).
pub const CTAK: &str = "
(define (ctak x y z) (call/cc (lambda (k) (ctak-aux k x y z))))
(define (ctak-aux k x y z)
  (if (not (< y x))
      (k z)
      (call/cc (lambda (k)
        (ctak-aux k
          (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))
          (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))
          (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))))";

#[cfg(test)]
mod tests {
    use super::*;

    fn kit() -> Control {
        Control::new(Strategy::Segmented).unwrap()
    }

    #[test]
    fn same_fringe_positive_and_negative() {
        let mut k = kit();
        assert!(k.same_fringe("'((1 2) 3)", "'(1 (2 3))").unwrap());
        assert!(k.same_fringe("'(1 2 3)", "'(((1) 2) (3))").unwrap());
        assert!(!k.same_fringe("'(1 2 3)", "'(1 2 4)").unwrap());
        assert!(!k.same_fringe("'(1 2 3)", "'(1 2)").unwrap());
        assert!(!k.same_fringe("'(1 2)", "'(1 2 3)").unwrap());
    }

    #[test]
    fn pingpong_transfers_control() {
        let mut k = kit();
        assert_eq!(k.coroutine_pingpong(100).unwrap(), 100);
    }

    #[test]
    fn generators_compose() {
        let mut k = kit();
        assert_eq!(
            k.eval("(generator->list (list->generator '(1 2 3)))").unwrap().to_string(),
            "(1 2 3)"
        );
        assert_eq!(
            k.eval("(generator-take (integers-from 10) 4)").unwrap().to_string(),
            "(10 11 12 13)"
        );
        assert_eq!(
            k.eval(
                "(generator-take
                   (generator-map (lambda (x) (* x x))
                     (generator-filter even? (integers-from 0)))
                   4)"
            )
            .unwrap()
            .to_string(),
            "(0 4 16 36)"
        );
    }

    #[test]
    fn engines_complete_and_expire() {
        let mut k = kit();
        // A fast thunk completes within one quantum.
        let v = k.eval("(engine-run-to-completion (make-engine (lambda () 42)) 1000)").unwrap();
        assert_eq!(v.to_string(), "(42 . 1)");
        // A slow loop needs several quanta.
        let v = k
            .eval(
                "(engine-run-to-completion
                   (make-engine (lambda () (let loop ((i 2000)) (if (= i 0) 'slow (loop (- i 1))))))
                   100)",
            )
            .unwrap();
        let s = v.to_string();
        assert!(s.starts_with("(slow . "), "{s}");
        let quanta: i64 = s[8..s.len() - 1].trim().parse().unwrap();
        assert!(quanta > 5, "only {quanta} quanta used");
    }

    #[test]
    fn round_robin_interleaves_fairly() {
        let mut k = kit();
        // Equal workloads complete in submission order under round-robin.
        let order = k.round_robin_countdowns(3, 500, 100).unwrap();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn amb_solves_queens() {
        let mut k = kit();
        assert_eq!(k.queens_count(4).unwrap(), 2);
        assert_eq!(k.queens_count(5).unwrap(), 10);
        assert_eq!(k.queens_count(6).unwrap(), 4);
    }

    #[test]
    fn amb_choose_and_require() {
        let mut k = kit();
        assert_eq!(
            k.eval(
                "(amb-collect (lambda ()
                   (let ((x (choose '(1 2 3))) (y (choose '(1 2 3))))
                     (amb-require (= (+ x y) 4))
                     (list x y))))"
            )
            .unwrap()
            .to_string(),
            "((1 3) (2 2) (3 1))"
        );
    }

    #[test]
    fn ctak_runs_on_all_strategies() {
        for s in Strategy::ALL {
            let mut k = Control::new(s).unwrap();
            assert_eq!(k.ctak(7, 5, 2).unwrap(), 3, "{s}");
        }
    }

    #[test]
    fn workloads_run_on_all_strategies() {
        for s in Strategy::ALL {
            let mut k = Control::new(s).unwrap();
            assert!(k.same_fringe("'((1 2) 3)", "'(1 (2 3))").unwrap(), "{s}");
            assert_eq!(k.queens_count(5).unwrap(), 10, "{s}");
            assert_eq!(k.coroutine_pingpong(50).unwrap(), 50, "{s}");
        }
    }
}

#[cfg(test)]
mod thread_tests {
    use super::*;

    fn kit() -> Control {
        Control::new(Strategy::Segmented).unwrap()
    }

    #[test]
    fn threads_run_to_completion_in_order() {
        let mut k = kit();
        let results = k
            .run_threads(
                &[
                    "(lambda () (let loop ((i 400)) (if (= i 0) 'first (loop (- i 1)))))",
                    "(lambda () (let loop ((i 400)) (if (= i 0) 'second (loop (- i 1)))))",
                ],
                100,
            )
            .unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1.to_string(), "first");
        assert_eq!(results[1].1.to_string(), "second");
    }

    #[test]
    fn short_threads_finish_before_long_ones() {
        let mut k = kit();
        let results = k
            .run_threads(
                &[
                    "(lambda () (let loop ((i 5000)) (if (= i 0) 'long (loop (- i 1)))))",
                    "(lambda () 'instant)",
                ],
                50,
            )
            .unwrap();
        assert_eq!(results[0].1.to_string(), "instant");
        assert_eq!(results[1].1.to_string(), "long");
    }

    #[test]
    fn thread_yield_interleaves_voluntarily() {
        let mut k = kit();
        // Two threads appending to a shared trace, yielding every step with
        // a huge quantum: interleaving can only come from thread-yield.
        k.eval("(define trace '())").unwrap();
        let results = k
            .run_threads(
                &[
                    "(lambda ()
                       (let loop ((i 3))
                         (if (= i 0) 'a
                             (begin (set! trace (cons 'a trace)) (thread-yield) (loop (- i 1))))))",
                    "(lambda ()
                       (let loop ((i 3))
                         (if (= i 0) 'b
                             (begin (set! trace (cons 'b trace)) (thread-yield) (loop (- i 1))))))",
                ],
                1_000_000,
            )
            .unwrap();
        assert_eq!(results.len(), 2);
        let trace = k.eval("(reverse trace)").unwrap().to_string();
        assert_eq!(trace, "(a b a b a b)", "yield must alternate the threads");
    }

    #[test]
    fn channels_connect_producer_and_consumer() {
        let mut k = kit();
        k.eval("(define ch (make-channel))").unwrap();
        let results = k
            .run_threads(
                &[
                    // Consumer spawned FIRST: it must block until values arrive.
                    "(lambda ()
                       (let loop ((n 3) (acc '()))
                         (if (= n 0) (reverse acc)
                             (loop (- n 1) (cons (channel-recv! ch) acc)))))",
                    "(lambda ()
                       (for-each (lambda (x) (channel-send! ch x) (thread-yield)) '(10 20 30))
                       'sent)",
                ],
                200,
            )
            .unwrap();
        let consumer = results.iter().find(|(tid, _)| *tid == 1).unwrap();
        assert_eq!(consumer.1.to_string(), "(10 20 30)");
    }

    #[test]
    fn many_threads_share_fairly() {
        let mut k = kit();
        let thunks: Vec<String> = (0..8)
            .map(|i| format!("(lambda () (let loop ((n 300)) (if (= n 0) {i} (loop (- n 1)))))"))
            .collect();
        let refs: Vec<&str> = thunks.iter().map(String::as_str).collect();
        let results = k.run_threads(&refs, 60).unwrap();
        assert_eq!(results.len(), 8);
        // Equal work + round-robin => completion in spawn order.
        let order: Vec<String> = results.iter().map(|(_, v)| v.to_string()).collect();
        assert_eq!(order, ["0", "1", "2", "3", "4", "5", "6", "7"]);
    }

    #[test]
    fn threads_work_on_all_strategies() {
        for s in Strategy::ALL {
            let mut k = Control::new(s).unwrap();
            let results = k
                .run_threads(
                    &[
                        "(lambda () (let loop ((i 500)) (if (= i 0) 'x (loop (- i 1)))))",
                        "(lambda () (let loop ((i 200)) (if (= i 0) 'y (loop (- i 1)))))",
                    ],
                    60,
                )
                .unwrap();
            assert_eq!(results.len(), 2, "{s}");
            assert_eq!(results[0].1.to_string(), "y", "{s}: shorter finishes first");
        }
    }
}
