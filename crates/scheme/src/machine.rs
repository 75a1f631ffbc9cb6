//! The embedding API: a complete Scheme engine over a chosen control-stack
//! strategy.

use std::cell::RefCell;
use std::rc::Rc;

use segstack_baselines::Strategy;
use segstack_core::{Config, ControlStack, Metrics, RingSink, SegmentedStack, StackStats};

use crate::code::{Chunk, CodeStore, Globals};
use crate::codegen::{compile_toplevel, CheckPolicy, CompileOptions};
use crate::error::SchemeError;
use crate::expand::Expander;
use crate::intern::Symbol;
use crate::prelude::PRELUDE;
use crate::primitives;
use crate::reader::read_all;
use crate::value::Value;
use crate::vm::{run, TimerState, VmOptions};

/// Builder for [`Engine`].
///
/// # Examples
///
/// ```
/// use segstack_scheme::Engine;
/// use segstack_baselines::Strategy;
///
/// let mut engine = Engine::builder()
///     .strategy(Strategy::Segmented)
///     .build()?;
/// assert_eq!(engine.eval("(+ 1 2)")?.to_string(), "3");
/// # Ok::<(), segstack_scheme::SchemeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    strategy: Strategy,
    config: Config,
    policy: CheckPolicy,
    max_steps: Option<u64>,
    prelude: bool,
    trace_sink: Option<Rc<RefCell<RingSink>>>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            strategy: Strategy::Segmented,
            config: Config::default(),
            policy: CheckPolicy::default(),
            max_steps: None,
            prelude: true,
            trace_sink: None,
        }
    }
}

impl EngineBuilder {
    /// Chooses the control-stack strategy (default: segmented).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the control-stack configuration (segment size, copy bound,
    /// frame bound, …).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Sets the overflow-check policy used by the compiler (experiment E8).
    pub fn check_policy(mut self, policy: CheckPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps VM steps per [`Engine::eval`] call (guard for tests).
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Skips loading the Scheme prelude (library procedures,
    /// `dynamic-wind`). Raw primitives remain available.
    pub fn without_prelude(mut self) -> Self {
        self.prelude = false;
        self
    }

    /// Attaches a shared trace ring to the engine's control stack.
    ///
    /// Only the segmented strategy is instrumented; with any other
    /// strategy the sink is accepted but records nothing. Several engines
    /// (e.g. the jobs multiplexed on one serve worker) may share a single
    /// ring through clones of the same handle. The Scheme program can read
    /// the ring's aggregates with `(trace-stats)`.
    pub fn trace_sink(mut self, sink: Rc<RefCell<RingSink>>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Builds the engine (installing primitives and loading the prelude).
    ///
    /// # Errors
    ///
    /// Stack allocation failures under a configured budget, or (never in a
    /// released build) prelude compilation errors.
    pub fn build(self) -> Result<Engine, SchemeError> {
        let store = Rc::new(CodeStore::new());
        let mut globals = Globals::new();
        primitives::install(&mut globals);
        let stack = match self.strategy {
            Strategy::Segmented => EngineStack::Seg(Box::new(SegmentedStack::with_sink(
                self.config.clone(),
                store.clone(),
                self.trace_sink,
            )?)),
            _ => {
                EngineStack::Dyn(self.strategy.build::<Value>(self.config.clone(), store.clone())?)
            }
        };
        let vm_opts =
            VmOptions { max_steps: self.max_steps, frame_bound: self.config.frame_bound() };
        let copts = CompileOptions { policy: self.policy, frame_bound: self.config.frame_bound() };
        let mut engine = Engine {
            strategy: self.strategy,
            store,
            globals,
            stack,
            expander: Expander::new(),
            out: String::new(),
            timer: TimerState::default(),
            vm_opts,
            copts,
            last: None,
        };
        if self.prelude {
            engine.eval(PRELUDE)?;
            engine.out.clear();
        }
        Ok(engine)
    }
}

/// The engine's control stack: the segmented strategy, traced or not, is
/// stored concretely so the VM monomorphizes over it (static dispatch on
/// every push, pop and check); the five baselines go through dynamic
/// dispatch.
enum EngineStack {
    /// The segmented stack, statically dispatched (boxed only to keep the
    /// enum small; the VM still monomorphizes over the concrete type).
    Seg(Box<SegmentedStack<Value>>),
    /// One of the five baseline strategies, type-erased.
    Dyn(Box<dyn ControlStack<Value>>),
}

impl EngineStack {
    fn as_dyn(&self) -> &dyn ControlStack<Value> {
        match self {
            EngineStack::Seg(s) => &**s,
            EngineStack::Dyn(s) => &**s,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn ControlStack<Value> {
        match self {
            EngineStack::Seg(s) => &mut **s,
            EngineStack::Dyn(s) => &mut **s,
        }
    }
}

/// A Scheme system: reader, compiler and VM over a pluggable control stack.
///
/// # Examples
///
/// Continuations are first class and multi-shot:
///
/// ```
/// use segstack_scheme::Engine;
///
/// let mut engine = Engine::new()?;
/// engine.eval("(define k #f)")?;
/// let v = engine.eval("(+ 1 (call/cc (lambda (c) (set! k c) 1)))")?;
/// assert_eq!(v.to_string(), "2");
/// // Re-entering the captured continuation restarts the addition.
/// assert_eq!(engine.eval("(k 41)")?.to_string(), "42");
/// assert_eq!(engine.eval("(k 99)")?.to_string(), "100");
/// # Ok::<(), segstack_scheme::SchemeError>(())
/// ```
pub struct Engine {
    strategy: Strategy,
    store: Rc<CodeStore>,
    globals: Globals,
    stack: EngineStack,
    expander: Expander,
    out: String,
    timer: TimerState,
    vm_opts: VmOptions,
    copts: CompileOptions,
    /// The top level compiled last, kept for [`Engine::disassemble_last`].
    last: Option<Rc<Chunk>>,
}

impl Engine {
    /// Creates an engine with the segmented strategy and default
    /// configuration.
    ///
    /// # Errors
    ///
    /// See [`EngineBuilder::build`].
    pub fn new() -> Result<Engine, SchemeError> {
        Engine::builder().build()
    }

    /// Creates an engine with the given strategy and defaults otherwise.
    ///
    /// # Errors
    ///
    /// See [`EngineBuilder::build`].
    pub fn with_strategy(strategy: Strategy) -> Result<Engine, SchemeError> {
        Engine::builder().strategy(strategy).build()
    }

    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Reads, compiles and runs `src` as one program unit, returning the
    /// last form's value: [`Engine::compile`], then [`Engine::run`].
    ///
    /// The whole input is compiled together (top-level forms splice as if
    /// wrapped in `begin`), so a continuation captured in one form re-enters
    /// the forms after it — file semantics, matching what `load` would do.
    ///
    /// # Errors
    ///
    /// Lexing, parsing, compilation or runtime errors. On error the control
    /// stack is reset (metrics are preserved).
    pub fn eval(&mut self, src: &str) -> Result<Value, SchemeError> {
        match self.compile(src)? {
            Some(chunk) => self.run(chunk),
            None => Ok(Value::Unspecified),
        }
    }

    /// Reads and compiles `src` as one program unit without running it,
    /// returning its top-level chunk, or `None` if `src` holds no forms.
    /// The chunk owns the code of the whole unit: once nothing holds it
    /// (or a closure, frame or continuation made from it), the code is
    /// freed. The engine keeps the last unit it compiled for
    /// [`Engine::disassemble_last`].
    ///
    /// # Errors
    ///
    /// Lexing, parsing or compilation errors; nothing has run.
    pub fn compile(&mut self, src: &str) -> Result<Option<Rc<Chunk>>, SchemeError> {
        let forms = read_all(src)?;
        if forms.is_empty() {
            return Ok(None);
        }
        let unit = if forms.len() == 1 {
            forms.into_iter().next().expect("length checked")
        } else {
            let mut items = vec![Value::sym("begin")];
            items.extend(forms);
            Value::list(items)
        };
        let chunk = compile_toplevel(
            &unit,
            &mut self.expander,
            &self.store,
            &mut self.globals,
            &self.copts,
        )?;
        self.last = Some(chunk.clone());
        Ok(Some(chunk))
    }

    /// Runs a top-level chunk [`Engine::compile`] returned, and returns its
    /// value. A chunk may run any number of times: each run makes fresh
    /// closures for its lambdas and reads the globals as they are then.
    ///
    /// # Errors
    ///
    /// Runtime errors, carrying a backtrace. On error the control stack is
    /// reset (metrics are preserved).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is not a chunk of this engine.
    pub fn run(&mut self, chunk: Rc<Chunk>) -> Result<Value, SchemeError> {
        let result = match &mut self.stack {
            EngineStack::Seg(stack) => run(
                &mut **stack,
                &self.store,
                &mut self.globals,
                &mut self.out,
                &mut self.timer,
                &self.vm_opts,
                &mut self.expander,
                &self.copts,
                chunk,
            ),
            EngineStack::Dyn(stack) => run(
                &mut **stack,
                &self.store,
                &mut self.globals,
                &mut self.out,
                &mut self.timer,
                &self.vm_opts,
                &mut self.expander,
                &self.copts,
                chunk,
            ),
        };
        match result {
            Ok(v) => Ok(v),
            Err(e) => {
                // Walk the stack before resetting it so runtime errors carry
                // a backtrace (the paper's §3 debugger use of frame-size
                // words).
                let e = match e {
                    SchemeError::Runtime { message } => {
                        let frames = self.backtrace(16);
                        if frames.is_empty() {
                            SchemeError::Runtime { message }
                        } else {
                            SchemeError::Runtime {
                                message: format!("{message}\n  in {}", frames.join("\n  in ")),
                            }
                        }
                    }
                    other => other,
                };
                self.stack.as_dyn_mut().reset();
                self.timer = TimerState::default();
                Err(e)
            }
        }
    }

    /// Walks the live control stack, naming up to `limit` pending
    /// procedures, innermost first. Works on every strategy; this is the
    /// debugger/exception-handler stack walk the paper's frame-size words
    /// exist for (§3).
    pub fn backtrace(&self, limit: usize) -> Vec<String> {
        self.stack
            .as_dyn()
            .backtrace(limit)
            .into_iter()
            .map(|ra| self.store.chunk(ra.chunk()).name.as_str())
            .collect()
    }

    /// Reads, compiles and runs a Scheme source file as one program unit.
    ///
    /// # Errors
    ///
    /// I/O failures are reported as [`SchemeError::Runtime`]; everything
    /// else as in [`Engine::eval`].
    pub fn eval_file<P: AsRef<std::path::Path>>(&mut self, path: P) -> Result<Value, SchemeError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path)
            .map_err(|e| SchemeError::runtime(format!("cannot load {}: {e}", path.display())))?;
        self.eval(&src)
    }

    /// Like [`Engine::eval`], but returns the printed (write-style)
    /// representation of the result.
    ///
    /// # Errors
    ///
    /// See [`Engine::eval`].
    pub fn eval_to_string(&mut self, src: &str) -> Result<String, SchemeError> {
        Ok(self.eval(src)?.to_string())
    }

    /// Takes and clears everything `display`/`write`/`newline` produced.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Defines a global variable from Rust.
    pub fn define(&mut self, name: &str, value: Value) {
        let slot = self.globals.slot(Symbol::intern(name));
        self.globals.define(slot, value);
    }

    /// Reads a global variable.
    pub fn global(&self, name: &str) -> Option<Value> {
        let slot = self.globals.lookup(Symbol::intern(name))?;
        self.globals.get(slot).ok()
    }

    /// The control-stack strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Control-stack operation counters.
    pub fn metrics(&self) -> &Metrics {
        self.stack.as_dyn().metrics()
    }

    /// Zeroes the operation counters (e.g. after warmup).
    pub fn reset_metrics(&mut self) {
        self.stack.as_dyn_mut().metrics_mut().reset();
    }

    /// Control-stack structural snapshot.
    pub fn stack_stats(&self) -> StackStats {
        self.stack.as_dyn().stats()
    }

    /// Resets the control stack to an empty initial state.
    pub fn reset_stack(&mut self) {
        self.stack.as_dyn_mut().reset();
    }

    /// Static frame sizes of every live chunk (experiment E14): the code
    /// something can still run.
    pub fn frame_sizes(&self) -> Vec<u16> {
        self.store.frame_sizes()
    }

    /// Structurally verifies every live chunk (the Figure 4 code-stream
    /// invariants; see [`CodeStore::verify`]).
    pub fn verify_code(&self) -> Vec<crate::code::VerifyError> {
        self.store.verify()
    }

    /// Number of code chunks compiled so far, freed ones included (chunk
    /// ids run from 0 to this count).
    pub fn chunk_count(&self) -> usize {
        self.store.len()
    }

    /// A disassembly listing of chunk `id` (one instruction per line,
    /// including the `FrameSize` data words around every call — the
    /// paper's Figure 4 layout, visible), or a one-line note if that
    /// chunk has been freed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below [`Engine::chunk_count`].
    pub fn disassemble(&self, id: u32) -> String {
        assert!((id as usize) < self.store.len(), "chunk {id} was never compiled");
        match self.store.get(id) {
            Some(chunk) => chunk.to_string(),
            None => format!(";; chunk {id} has been freed\n"),
        }
    }

    /// Disassembles the top level most recently compiled (e.g. the last
    /// `eval`'s), which the engine keeps for this.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been compiled yet.
    pub fn disassemble_last(&self) -> String {
        self.last.as_ref().expect("nothing compiled yet").to_string()
    }

    /// Disassembles the procedure a global name is bound to, if it is
    /// bound to a closure.
    pub fn disassemble_global(&self, name: &str) -> Option<String> {
        match self.global(name)? {
            Value::Closure(c) => Some(c.chunk.to_string()),
            _ => None,
        }
    }

    /// Direct access to the control stack (instrumentation, tests).
    pub fn stack_mut(&mut self) -> &mut dyn ControlStack<Value> {
        self.stack.as_dyn_mut()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("strategy", &self.strategy)
            .field("chunks", &self.store.len())
            .field("globals", &self.globals.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::builder().max_steps(50_000_000).build().unwrap()
    }

    fn eval(src: &str) -> String {
        engine().eval_to_string(src).unwrap()
    }

    #[test]
    fn arithmetic_and_printing() {
        assert_eq!(eval("(+ 1 2 3)"), "6");
        assert_eq!(eval("(* 2 (- 10 4))"), "12");
        assert_eq!(eval("(/ 7 2)"), "3.5");
        assert_eq!(eval("'(1 2 . 3)"), "(1 2 . 3)");
        assert_eq!(eval("(list 1 \"two\" #\\3)"), "(1 \"two\" #\\3)");
    }

    #[test]
    fn definitions_and_closures() {
        let mut e = engine();
        e.eval("(define (make-adder n) (lambda (x) (+ x n)))").unwrap();
        assert_eq!(e.eval_to_string("((make-adder 3) 4)").unwrap(), "7");
        e.eval("(define add2 (make-adder 2))").unwrap();
        assert_eq!(e.eval_to_string("(add2 40)").unwrap(), "42");
    }

    #[test]
    fn set_and_shared_state() {
        assert_eq!(
            eval(
                "(define (counter)
                   (let ((n 0))
                     (lambda () (set! n (+ n 1)) n)))
                 (define c (counter))
                 (c) (c) (c)"
            ),
            "3"
        );
    }

    #[test]
    fn recursion_fib_and_tak() {
        assert_eq!(
            eval("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 20)"),
            "6765"
        );
        assert_eq!(
            eval(
                "(define (tak x y z)
                   (if (not (< y x)) z
                       (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
                 (tak 18 12 6)"
            ),
            "7"
        );
    }

    #[test]
    fn deep_tail_recursion_is_constant_space() {
        let mut e = engine();
        let v = e
            .eval("(define (count n acc) (if (= n 0) acc (count (- n 1) (+ acc 1)))) (count 100000 0)")
            .unwrap();
        assert_eq!(v.to_string(), "100000");
        assert_eq!(e.metrics().overflows, 0, "tail recursion must not grow the stack");
    }

    #[test]
    fn deep_non_tail_recursion_overflows_gracefully() {
        let mut e = engine();
        let v = e.eval("(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 50000)").unwrap();
        assert_eq!(v.to_string(), "1250025000");
        assert!(e.metrics().overflows > 0, "depth 50000 must overflow 16k segments");
        assert!(e.metrics().underflows >= e.metrics().overflows);
    }

    #[test]
    fn named_let_and_do_loops() {
        assert_eq!(
            eval("(let loop ((i 0) (acc 1)) (if (= i 5) acc (loop (+ i 1) (* acc 2))))"),
            "32"
        );
        assert_eq!(eval("(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 5) s))"), "10");
    }

    #[test]
    fn variadic_procedures() {
        assert_eq!(eval("((lambda args args) 1 2 3)"), "(1 2 3)");
        assert_eq!(eval("((lambda (a . rest) (cons a rest)) 1 2 3)"), "(1 2 3)");
        assert_eq!(eval("((lambda (a . rest) rest) 1)"), "()");
        assert!(engine().eval("((lambda (a b) a) 1)").is_err());
        assert!(engine().eval("((lambda (a . r) a))").is_err());
    }

    #[test]
    fn apply_spreads_arguments() {
        assert_eq!(eval("(apply + 1 2 '(3 4))"), "10");
        assert_eq!(eval("(apply list '(1 2))"), "(1 2)");
        assert_eq!(eval("(apply (lambda (a b c) (* a (+ b c))) '(2 3 4))"), "14");
        assert!(engine().eval("(apply + 1)").is_err(), "last arg must be a list");
    }

    #[test]
    fn call_cc_escape() {
        assert_eq!(eval("(call/cc (lambda (k) (+ 1 (k 41))))"), "41");
        assert_eq!(eval("(+ 1 (call/cc (lambda (k) 1)))"), "2");
        assert_eq!(eval("(+ 1 (call/cc (lambda (k) (k 1) 99)))"), "2");
    }

    #[test]
    fn call_1cc_escape_and_one_shot_error() {
        assert_eq!(eval("(call/1cc (lambda (k) (+ 1 (k 41))))"), "41");
        assert_eq!(eval("(+ 1 (call/1cc (lambda (k) 1)))"), "2");
        let mut e = engine();
        e.eval("(define k #f)").unwrap();
        assert_eq!(e.eval_to_string("(+ 1 (call/1cc (lambda (c) (set! k c) 1)))").unwrap(), "2");
        assert_eq!(e.eval_to_string("(k 41)").unwrap(), "42");
        let err = e.eval("(k 99)").unwrap_err();
        assert!(err.to_string().contains("one-shot"), "{err}");
    }

    #[test]
    fn call_1cc_cross_eval_reinstate_relinks() {
        let mut e = engine();
        e.eval("(define k #f)").unwrap();
        e.eval("(+ 1 (call/1cc (lambda (c) (set! k c) 1)))").unwrap();
        // The capturing program has returned: the machine no longer
        // references the saved record, so the single shot may relink.
        let relinked = e.metrics().reinstates_relinked;
        assert_eq!(e.eval_to_string("(k 41)").unwrap(), "42");
        assert!(e.metrics().reinstates_relinked > relinked, "one-shot reinstate should relink");
        assert!(e.metrics().slots_copy_avoided > 0);
    }

    #[test]
    fn raw_one_shot_capture_works_in_tail_position() {
        // %call/1cc in tail position exercises the tail-capture rule
        // interaction; the wrapper still delivers exactly one shot.
        assert_eq!(eval("(define (f) (%call/1cc (lambda (k) (k 7)))) (f)"), "7");
    }

    #[test]
    fn call_cc_multi_shot_generator() {
        let src = "
          (define (make-gen lst)
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
          (define g (make-gen '(1 2 3)))
          (list (g) (g) (g) (g))";
        assert_eq!(eval(src), "(1 2 3 done)");
    }

    #[test]
    fn ctak_runs() {
        let src = "
          (define (ctak x y z) (call/cc (lambda (k) (ctak-aux k x y z))))
          (define (ctak-aux k x y z)
            (if (not (< y x))
                (k z)
                (call/cc (lambda (k)
                  (ctak-aux k
                    (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))
                    (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))
                    (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))))
          (ctak 12 8 4)";
        assert_eq!(eval(src), "5");
    }

    #[test]
    fn looper_stays_in_constant_space() {
        let mut e = engine();
        e.eval(
            "(define (looper n) (if (= n 0) 'done (begin (call/cc (lambda (k) k)) (looper (- n 1)))))
             (looper 20000)",
        )
        .unwrap();
        let st = e.stack_stats();
        assert!(
            st.chain_records <= 2,
            "tail-recursive capture grew the chain to {}",
            st.chain_records
        );
    }

    #[test]
    fn dynamic_wind_with_escapes() {
        let src = "
          (define trace '())
          (define (note x) (set! trace (cons x trace)))
          (define k #f)
          (dynamic-wind
            (lambda () (note 'in))
            (lambda () (call/cc (lambda (c) (set! k c))) (note 'body))
            (lambda () (note 'out)))
          (if (memq 'again trace)
              'finished
              (begin (note 'again) (k #f)))";
        let mut e = engine();
        e.eval(src).unwrap();
        // First pass: in body out; after the jump: in body out again.
        assert_eq!(e.eval_to_string("(reverse trace)").unwrap(), "(in body out again in body out)");
    }

    #[test]
    fn timer_and_handler_preempt() {
        let src = "
          (define hits 0)
          (set-timer-handler! (lambda () (set! hits (+ hits 1)) (set-timer 100)))
          (set-timer 100)
          (define (spin n) (if (= n 0) 'done (spin (- n 1))))
          (spin 5000)
          (set-timer 0)
          hits";
        let got: i64 = eval(src).parse().unwrap();
        assert!(got >= 40, "timer fired only {got} times");
    }

    #[test]
    fn output_capture() {
        let mut e = engine();
        e.eval(r#"(display "x = ") (write "s") (newline) (display '(1 2))"#).unwrap();
        assert_eq!(e.take_output(), "x = \"s\"\n(1 2)");
        assert_eq!(e.take_output(), "", "take drains");
    }

    #[test]
    fn prelude_library_procedures() {
        assert_eq!(eval("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
        assert_eq!(eval("(map + '(1 2) '(10 20))"), "(11 22)");
        assert_eq!(eval("(filter odd? '(1 2 3 4 5))"), "(1 3 5)");
        assert_eq!(eval("(fold-left + 0 '(1 2 3 4))"), "10");
        assert_eq!(eval("(fold-right cons '() '(1 2 3))"), "(1 2 3)");
        assert_eq!(eval("(iota 5)"), "(0 1 2 3 4)");
        assert_eq!(eval("(last-pair '(1 2 3))"), "(3)");
        assert_eq!(eval("(force (make-promise (lambda () 42)))"), "42");
    }

    #[test]
    fn quasiquote_evaluates() {
        assert_eq!(eval("(define x 5) `(a ,x ,@(list 1 2) b)"), "(a 5 1 2 b)");
        assert_eq!(eval("`(1 `(2 ,(+ 1 2)))"), "(1 (quasiquote (2 (unquote (+ 1 2)))))");
        assert_eq!(eval("(define v 9) `#(1 ,v)"), "#(1 9)");
    }

    #[test]
    fn errors_are_reported_and_stack_resets() {
        let mut e = engine();
        assert!(e.eval("(car 5)").is_err());
        assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3", "engine recovers after error");
        let err = e.eval("(error \"custom\" 1 2)").unwrap_err();
        assert_eq!(err.to_string(), "runtime error: custom 1 2");
        let err = e.eval("unbound-thing").unwrap_err();
        assert!(err.to_string().contains("unbound-thing"));
        let err = e.eval("(1 2)").unwrap_err();
        assert!(err.to_string().contains("non-procedure"));
    }

    #[test]
    fn step_budget_guards_infinite_loops() {
        let mut e = Engine::builder().max_steps(100_000).build().unwrap();
        let err = e.eval("(define (f) (f)) (f)").unwrap_err();
        assert!(err.to_string().contains("step budget"));
    }

    #[test]
    fn define_and_global_access_from_rust() {
        let mut e = engine();
        e.define("answer", Value::Fixnum(42));
        assert_eq!(e.eval_to_string("(* answer 2)").unwrap(), "84");
        assert_eq!(e.global("answer").unwrap(), Value::Fixnum(42));
        assert!(e.global("missing").is_none());
    }

    #[test]
    fn all_strategies_run_the_same_programs() {
        use segstack_baselines::Strategy;
        for s in Strategy::ALL {
            let mut e = Engine::builder().strategy(s).max_steps(50_000_000).build().unwrap();
            assert_eq!(
                e.eval_to_string(
                    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)"
                )
                .unwrap(),
                "610",
                "{s}"
            );
            assert_eq!(
                e.eval_to_string("(call/cc (lambda (k) (+ 1 (k 41))))").unwrap(),
                "41",
                "{s}"
            );
        }
    }

    #[test]
    fn continuations_survive_across_toplevel_evals() {
        let mut e = engine();
        e.eval("(define k #f)").unwrap();
        assert_eq!(e.eval_to_string("(* 2 (call/cc (lambda (c) (set! k c) 1)))").unwrap(), "2");
        assert_eq!(e.eval_to_string("(k 21)").unwrap(), "42");
        assert_eq!(e.eval_to_string("(k 5)").unwrap(), "10");
    }

    #[test]
    fn shadowing_keywords_works_at_runtime() {
        assert_eq!(eval("(let ((if (lambda (a b c) 'shadowed))) (if 1 2 3))"), "shadowed");
    }

    #[test]
    fn frame_sizes_are_observable() {
        let mut e = engine();
        e.eval("(define (f a b c) (+ a b c))").unwrap();
        let sizes = e.frame_sizes();
        assert!(!sizes.is_empty());
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn check_policies_compile_and_agree() {
        for policy in [CheckPolicy::Always, CheckPolicy::Elide] {
            let mut e = Engine::builder().check_policy(policy).build().unwrap();
            assert_eq!(
                e.eval_to_string(
                    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)"
                )
                .unwrap(),
                "144",
                "{policy:?}"
            );
        }
    }

    #[test]
    fn bad_counts_are_errors_and_the_engine_survives() {
        let mut e = engine();
        for src in [
            "(make-vector -1 0)",
            "(make-string -1)",
            "(make-vector 100000000000 0)",
            "(make-string 4611686018427387904)",
            "(substring \"abc\" -1 2)",
            "(string-set! (make-string 3) -1 #\\x)",
        ] {
            let err = e.eval(src).unwrap_err();
            assert!(matches!(err, SchemeError::Runtime { .. }), "{src}: {err}");
            assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3", "after {src}");
        }
    }
}

#[cfg(test)]
mod disassembly_tests {
    use super::*;

    #[test]
    fn listings_show_frame_size_words_around_calls() {
        let mut e = Engine::builder().without_prelude().build().unwrap();
        e.eval("(define (f g) (+ 1 (g 2)))").unwrap();
        let mut found = None;
        for id in 0..e.chunk_count() as u32 {
            let text = e.disassemble(id);
            if text.contains("chunk \"f\"") {
                found = Some(text);
            }
        }
        let listing = found.expect("chunk for f");
        assert!(listing.contains("FrameSize"), "{listing}");
        assert!(listing.contains("Call"), "{listing}");
        // The word before the return point is the displacement (Fig 4):
        // a FrameSize line must appear right after the Call line.
        let lines: Vec<&str> = listing.lines().collect();
        let call_line = lines.iter().position(|l| l.contains("Call {")).unwrap();
        assert!(lines[call_line + 1].contains("FrameSize"), "{listing}");
        assert!(lines[call_line - 1].contains("FrameSize"), "{listing}");
    }

    #[test]
    fn disassemble_last_names_the_toplevel() {
        let mut e = Engine::builder().without_prelude().build().unwrap();
        e.eval("(+ 1 2)").unwrap();
        assert!(e.disassemble_last().contains("toplevel"));
    }

    #[test]
    #[should_panic(expected = "was not compiled into this code store")]
    fn running_another_engines_chunk_panics() {
        let mut a = Engine::builder().without_prelude().build().unwrap();
        let mut b = Engine::builder().without_prelude().build().unwrap();
        let chunk = a.compile("(+ 1 2)").unwrap().unwrap();
        let _ = b.run(chunk);
    }
}

#[cfg(test)]
mod vm_edge_tests {
    use super::*;

    fn engine() -> Engine {
        Engine::builder().max_steps(50_000_000).build().unwrap()
    }

    #[track_caller]
    fn check(src: &str, expected: &str) {
        assert_eq!(engine().eval_to_string(src).unwrap(), expected, "{src}");
    }

    #[test]
    fn apply_in_tail_position() {
        check("(define (f) (apply + 1 '(2 3))) (f)", "6");
        check("(define (g . xs) (apply list xs)) (g 1 2)", "(1 2)");
        // apply of apply.
        check("(apply apply (list + '(1 2 3)))", "6");
        // apply of a continuation escapes.
        check("(+ 1 (call/cc (lambda (k) (apply k '(41)))))", "42");
        // apply of a variadic closure.
        check("(apply (lambda (a . rest) (cons a rest)) 1 '(2 3))", "(1 2 3)");
    }

    #[test]
    fn call_cc_of_unusual_receivers() {
        // The classic self-reference: a continuation flows back to its own
        // definition site and gets invoked with a plain value.
        check(
            "(define count 0)
             (define k1 (call/cc (lambda (c) c)))
             (set! count (+ count 1))
             (if (and (procedure? k1) (< count 5)) (k1 42) (list count k1))",
            "(2 42)",
        );
        // call/cc in operator position.
        check("((call/cc (lambda (k) (lambda (x) (* x 2)))) 21)", "42");
    }

    #[test]
    fn timer_fires_during_tail_loops_and_disarms() {
        let mut e = engine();
        let v = e
            .eval(
                "(define fired 0)
                 (set-timer-handler! (lambda () (set! fired (+ fired 1))))
                 (set-timer 50)
                 (define (spin n) (if (= n 0) fired (spin (- n 1))))
                 (spin 500)",
            )
            .unwrap();
        // Fired exactly once: the handler did not rearm.
        assert_eq!(v.to_string(), "1");
        // Timer state does not leak into the next evaluation.
        assert_eq!(e.eval_to_string("(set-timer 0)").unwrap(), "0");
    }

    #[test]
    fn timer_handler_sees_consistent_pending_call() {
        // The handler runs, then the interrupted call re-executes with its
        // staged arguments intact.
        check(
            "(define log '())
             (set-timer-handler! (lambda () (set! log (cons 'tick log))))
             (define (observe a b) (list a b (length log)))
             (set-timer 2)
             (observe (+ 1 1) (+ 2 2))",
            "(2 4 1)",
        );
    }

    #[test]
    fn apply_spreads_past_the_frame_bound() {
        let mut e = engine();
        assert_eq!(e.eval_to_string("(apply + (iota 200))").unwrap(), "19900");
        assert_eq!(e.eval_to_string("(apply + (iota 20))").unwrap(), "190");
        assert_eq!(
            e.eval_to_string("(apply (lambda (a . r) (length r)) (iota 200))").unwrap(),
            "199"
        );
        let err = e.eval("(apply (lambda (a) a) (iota 200))").unwrap_err().to_string();
        assert!(err.contains("expected 1 arguments, got 200"), "{err}");
        let err = e.eval("(%call/cc (lambda (k) (apply k (iota 200))))").unwrap_err().to_string();
        assert!(err.contains("continuation: expected 1 arguments, got 200"), "{err}");
    }

    #[test]
    fn continuations_in_data_structures() {
        check(
            "(define ks (map (lambda (i) (call/cc (lambda (k) (cons i k)))) '(1 2)))
             (if (pair? (car ks)) (list (car (car ks)) (car (cadr ks))) 'reentered)",
            "(1 2)",
        );
    }

    #[test]
    fn varargs_arity_edges() {
        let mut e = engine();
        assert!(e.eval("((lambda (a b . r) r) 1)").is_err(), "too few for variadic");
        assert_eq!(e.eval_to_string("((lambda (a b . r) r) 1 2)").unwrap(), "()");
        assert!(e.eval("(car)").is_err());
        assert!(e.eval("(car '(1) '(2))").is_err());
        assert!(e.eval("(newline 1 2)").is_err());
    }

    #[test]
    fn set_timer_returns_remaining_fuel() {
        check(
            "(set-timer 1000)
             (define (burn n) (if (= n 0) 'x (burn (- n 1))))
             (burn 100)
             (define left (set-timer 0))
             (and (< left 1000) (> left 400))",
            "#t",
        );
    }

    #[test]
    fn accumulator_not_clobbered_across_branch_joins() {
        check("(if (begin 1 #f) 'a (begin 'dead 'b))", "b");
        check("(+ (if #t 1 2) (if #f 3 4))", "5");
    }

    #[test]
    fn global_redefinition_is_visible_to_old_callers() {
        check(
            "(define (f) 1)
             (define (caller) (f))
             (define first (caller))
             (define (f) 2)
             (list first (caller))",
            "(1 2)",
        );
    }
}

#[cfg(test)]
mod trace_stats_tests {
    use super::*;

    /// A program that captures and re-enters a continuation, so the traced
    /// machine must record `capture` and `reinstate_*` events.
    const CALLCC_LOOP: &str = "
        (define (count n)
          (if (= n 0)
              'done
              (call/cc (lambda (k) (k (count (- n 1)))))))
        (count 50)";

    #[test]
    fn untraced_machine_reports_an_empty_alist() {
        let mut e = Engine::new().unwrap();
        e.eval(CALLCC_LOOP).unwrap();
        assert_eq!(e.eval_to_string("(trace-stats)").unwrap(), "()");
    }

    #[test]
    fn traced_machine_reports_per_kind_histograms() {
        let sink = Rc::new(RefCell::new(RingSink::new()));
        let mut e = Engine::builder().trace_sink(sink.clone()).build().unwrap();
        e.eval(CALLCC_LOOP).unwrap();
        // Read the alist from inside the language: every entry is
        // (kind count p50 p90 p99 max) and the capture count matches the
        // machine's own counter.
        let captures = e
            .eval_to_string("(cadr (assq 'capture (trace-stats)))")
            .unwrap()
            .parse::<u64>()
            .unwrap();
        assert_eq!(captures, e.metrics().captures, "alist disagrees with Metrics");
        assert!(captures >= 50, "the loop captures at least once per iteration");
        assert_eq!(
            e.eval_to_string("(length (cdr (assq 'reinstate_end (trace-stats))))").unwrap(),
            "5",
            "each entry carries count p50 p90 p99 max"
        );
        // The engine-side handle sees the same ring the VM wrote through.
        assert!(sink.borrow().total_recorded() > 0);
    }

    #[test]
    fn traced_and_untraced_segmented_engines_dispatch_statically() {
        let sink = Rc::new(RefCell::new(RingSink::new()));
        for e in [Engine::new().unwrap(), Engine::builder().trace_sink(sink).build().unwrap()] {
            assert!(matches!(e.stack, EngineStack::Seg(_)));
        }
    }

    #[test]
    fn tail_position_trace_stats_also_answers() {
        let sink = Rc::new(RefCell::new(RingSink::new()));
        let mut e = Engine::builder().trace_sink(sink).build().unwrap();
        e.eval(CALLCC_LOOP).unwrap();
        assert_eq!(e.eval_to_string("(define (f) (trace-stats)) (pair? (f))").unwrap(), "#t");
    }
}

#[cfg(test)]
mod disassemble_global_tests {
    use super::*;

    #[test]
    fn finds_named_procedures() {
        let mut e = Engine::builder().without_prelude().build().unwrap();
        e.eval("(define (square x) (* x x))").unwrap();
        let listing = e.disassemble_global("square").unwrap();
        assert!(listing.contains("chunk \"square\""), "{listing}");
        assert!(e.disassemble_global("nope").is_none());
        e.eval("(define notproc 42)").unwrap();
        assert!(e.disassemble_global("notproc").is_none());
    }
}
