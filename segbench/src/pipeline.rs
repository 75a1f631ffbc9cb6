//! The evaluation pipeline driven from outside: `read_all` →
//! `compile_toplevel` → `vm::run`, with a span around each layer call.
//!
//! It assembles the same parts `Engine::eval` uses, in the same order and
//! on the same stack types (the segmented stack concretely, every other
//! strategy behind `Box<dyn ControlStack>`), so its control-stack counters
//! must equal the engine's exactly; the traced run checks that.

use std::rc::Rc;

use segstack_baselines::Strategy;
use segstack_core::{Config, ControlStack, Metrics, SegmentedStack};
use segstack_scheme::expand::Expander;
use segstack_scheme::prelude::PRELUDE;
use segstack_scheme::{
    compile_toplevel, primitives, read_all, run, CodeStore, CompileOptions, Globals, SchemeError,
    TimerState, Value, VmOptions,
};

use crate::alloc::CountScope;
use crate::spans::Spans;

enum Stack {
    Seg(Box<SegmentedStack<Value>>),
    Dyn(Box<dyn ControlStack<Value>>),
}

/// What one evaluation added to the code store and allocated in the VM.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalCost {
    /// Instructions in the chunks compiled for this evaluation.
    pub instrs: u64,
    /// Chunks compiled for this evaluation.
    pub chunks: u64,
    /// Heap allocations during `vm::run`.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl EvalCost {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: EvalCost) {
        self.instrs += other.instrs;
        self.chunks += other.chunks;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// A Scheme system assembled from the public pipeline functions.
pub struct Pipeline {
    store: Rc<CodeStore>,
    globals: Globals,
    stack: Stack,
    expander: Expander,
    out: String,
    timer: TimerState,
    vm_opts: VmOptions,
    copts: CompileOptions,
}

impl Pipeline {
    /// Builds a pipeline over `strategy` with the default configuration,
    /// loading the prelude and, if `libs`, the control libraries. The
    /// loading is recorded in `spans` under one `setup` root.
    ///
    /// # Errors
    ///
    /// Stack allocation or library compilation failures.
    pub fn new(strategy: Strategy, libs: bool, spans: &mut Spans) -> Result<Self, SchemeError> {
        let config = Config::default();
        let store = Rc::new(CodeStore::new());
        let mut globals = Globals::new();
        primitives::install(&mut globals);
        let stack = match strategy {
            Strategy::Segmented => {
                Stack::Seg(Box::new(SegmentedStack::new(config.clone(), store.clone())?))
            }
            _ => Stack::Dyn(strategy.build::<Value>(config.clone(), store.clone())?),
        };
        let mut p = Pipeline {
            store,
            globals,
            stack,
            expander: Expander::new(),
            out: String::new(),
            timer: TimerState::default(),
            vm_opts: VmOptions { max_steps: None, frame_bound: config.frame_bound() },
            copts: CompileOptions {
                frame_bound: config.frame_bound(),
                ..CompileOptions::default()
            },
        };
        let root = spans.open("setup", None, 0);
        p.eval(PRELUDE, spans, root)?;
        p.out.clear();
        if libs {
            for (_, src) in segstack_control::libs::ALL {
                p.eval(src, spans, root)?;
            }
        }
        spans.close(root);
        Ok(p)
    }

    /// Reads, compiles and runs `src` as one unit, recording `reader`,
    /// `compile` and `vm` spans under `parent`.
    ///
    /// # Errors
    ///
    /// Any error of the three layers; the stack is reset after a failed
    /// run, as `Engine::eval` does.
    pub fn eval(
        &mut self,
        src: &str,
        spans: &mut Spans,
        parent: usize,
    ) -> Result<(Value, EvalCost), SchemeError> {
        let unit = spans.time(parent, "reader", || {
            read_all(src).map(|forms| match forms.len() {
                0 => None,
                1 => forms.into_iter().next(),
                _ => {
                    let mut items = vec![Value::sym("begin")];
                    items.extend(forms);
                    Some(Value::list(items))
                }
            })
        })?;
        let Some(unit) = unit else {
            return Ok((Value::Unspecified, EvalCost::default()));
        };
        let before = self.store.len();
        let chunk = spans.time(parent, "compile", || {
            compile_toplevel(&unit, &mut self.expander, &self.store, &mut self.globals, &self.copts)
        })?;
        let after = self.store.len();
        let instrs =
            (before..after).map(|id| self.store.chunk(id as u32).instrs.len() as u64).sum();
        let (result, (allocs, alloc_bytes)) = spans.time(parent, "vm", || {
            let scope = CountScope::start();
            let result = match &mut self.stack {
                Stack::Seg(stack) => run(
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
                Stack::Dyn(stack) => run(
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
            (result, scope.stop())
        });
        let cost = EvalCost { instrs, chunks: (after - before) as u64, allocs, alloc_bytes };
        match result {
            Ok(v) => Ok((v, cost)),
            Err(e) => {
                self.stack_mut().reset();
                self.timer = TimerState::default();
                Err(e)
            }
        }
    }

    fn stack_mut(&mut self) -> &mut dyn ControlStack<Value> {
        match &mut self.stack {
            Stack::Seg(s) => &mut **s,
            Stack::Dyn(s) => &mut **s,
        }
    }

    /// The control stack's operation counters since the last call, which
    /// zeroes them. The counters never influence evaluation, so this does
    /// not make the pipeline diverge from an engine.
    pub fn take_metrics(&mut self) -> Metrics {
        let metrics = self.stack_mut().metrics_mut();
        std::mem::take(metrics)
    }

    /// Chunks compiled so far.
    pub fn chunk_count(&self) -> usize {
        self.store.len()
    }
}
