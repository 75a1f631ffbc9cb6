//! The bytecode interpreter.
//!
//! An accumulator machine whose activation records live entirely in a
//! pluggable [`ControlStack`]: the paper's segmented stack or any of the
//! four baseline strategies. The VM follows the paper's protocol — staged
//! partial frames, displacement-adjusted frame pointer, return address at
//! the frame base, proper tail calls by frame reuse — and implements
//! `call/cc` as: perform the call, then capture (the sealed segment's
//! return address is the `call/cc` call's return point).
//!
//! A Chez-style engine timer is included: `(set-timer ticks)` arms a
//! countdown decremented at every call; when it reaches zero the installed
//! handler is invoked as if inserted at the pending call, which re-executes
//! after the handler returns. This is what `segstack-control` builds
//! engines from.

use std::rc::Rc;

use segstack_core::{CodeAddr, ControlStack, ReturnAddress};

use crate::code::{Check, Chunk, CodeStore, Globals, IcTarget, Instr};
use crate::codegen::{compile_toplevel, CompileOptions};
use crate::error::SchemeError;
use crate::expand::Expander;
use crate::primitives::{arity_ok, def_of, fast_op, FastOp, PrimCtx, PrimKind, PRIMITIVES};
use crate::value::{Closure, Primitive, Value};

/// Primitive calls with at most this many arguments marshal them through a
/// stack-allocated buffer instead of a fresh `Vec` — fixnum/bool-heavy
/// loops call `+`/`<`/`car` millions of times and the per-call allocation
/// dominates otherwise.
const PRIM_ARG_BUF: usize = 8;

/// VM execution limits and knobs.
#[derive(Clone, Debug)]
pub struct VmOptions {
    /// Abort after this many instructions (`None` = unlimited). A guard
    /// for tests and property-based fuzzing.
    pub max_steps: Option<u64>,
    /// Frame bound used to validate `apply` spreads; must match the
    /// control stack's configured frame bound.
    pub frame_bound: usize,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions { max_steps: None, frame_bound: 64 }
    }
}

/// Engine-timer state carried across top-level evaluations.
#[derive(Clone, Debug, Default)]
pub struct TimerState {
    /// Remaining ticks; 0 = disarmed.
    pub fuel: i64,
    /// The installed interrupt handler (a procedure, or unspecified).
    pub handler: Value,
}

/// Runs the top-level chunk `entry` to completion, in the current frame
/// and under a closure over it in the frame's slot 1: like every other
/// frame, the top level's pins the chunk its return points are in. A run
/// that completes tells the stack it has [exited](ControlStack::exited).
///
/// # Errors
///
/// Any [`SchemeError`] raised by the program, plus stack errors and the
/// step-budget guard.
///
/// # Panics
///
/// Panics if `entry` was not added to `store`: its return points would
/// resolve to another chunk.
#[allow(clippy::too_many_arguments)]
pub fn run<S: ControlStack<Value> + ?Sized>(
    stack: &mut S,
    store: &CodeStore,
    globals: &mut Globals,
    out: &mut String,
    timer: &mut TimerState,
    opts: &VmOptions,
    expander: &mut Expander,
    copts: &CompileOptions,
    entry: Rc<Chunk>,
) -> Result<Value, SchemeError> {
    assert!(store.holds(&entry), "chunk {} was not compiled into this code store", entry.id());
    stack.set(1, Value::Closure(Rc::new(Closure { chunk: entry.clone(), free: Box::new([]) })));
    let result = Vm {
        stack,
        store,
        globals,
        out,
        timer,
        opts,
        expander,
        copts,
        chunk: entry,
        pc: 0,
        acc: Value::Unspecified,
        steps: 0,
    }
    .run();
    if result.is_ok() {
        stack.exited();
    }
    result
}

/// Where a call's operator and arguments are staged, which decides how
/// [`Vm::apply`] gives the callee a frame and how it continues after a
/// value. The helpers that match on it are `#[inline(always)]`, so each
/// call instruction's arm knows its site statically: call-heavy programs
/// ran about 5% slower when they were not inlined.
#[derive(Clone, Copy)]
enum Site {
    /// Non-tail call at displacement `d`: operator at `frame[d+1]`,
    /// arguments above it, return point two words past the call.
    Call { d: u16, check: Check },
    /// Tail call: operator at `frame[src]`, arguments above it; the
    /// callee reuses the current frame.
    Tail { src: u16 },
    /// The callee's frame is already pushed, operator at slot 1: the
    /// `call/cc` receiver and the timer handler.
    Pushed,
}

impl Site {
    /// The slot holding the operator; the arguments follow it.
    fn op_slot(self) -> usize {
        match self {
            Site::Call { d, .. } => d as usize + 1,
            Site::Tail { src } => src as usize,
            Site::Pushed => 1,
        }
    }
}

struct Vm<'a, S: ControlStack<Value> + ?Sized> {
    stack: &'a mut S,
    store: &'a CodeStore,
    globals: &'a mut Globals,
    out: &'a mut String,
    timer: &'a mut TimerState,
    opts: &'a VmOptions,
    expander: &'a mut Expander,
    copts: &'a CompileOptions,
    /// The running chunk; the frame's closure in slot 1 owns it too.
    chunk: Rc<Chunk>,
    pc: usize,
    acc: Value,
    steps: u64,
}

impl<S: ControlStack<Value> + ?Sized> Vm<'_, S> {
    fn jump(&mut self, addr: CodeAddr) {
        if addr.chunk() != self.chunk.id() {
            self.chunk = self.store.chunk(addr.chunk());
        }
        self.pc = addr.offset() as usize;
    }

    /// Pops the current frame; `Some(value)` means the computation is done.
    fn do_return(&mut self) -> Result<Option<Value>, SchemeError> {
        match self.stack.ret()? {
            ReturnAddress::Code(r) => {
                self.jump(r);
                Ok(None)
            }
            ReturnAddress::Exit => Ok(Some(std::mem::take(&mut self.acc))),
            ReturnAddress::Underflow => unreachable!("underflow is handled inside ret"),
        }
    }

    fn closure_cell(&self) -> Result<Rc<Closure>, SchemeError> {
        match self.stack.get(1) {
            Value::Closure(c) => Ok(c),
            other => Err(SchemeError::runtime(format!(
                "corrupted frame: slot 1 holds {other}, not the closure"
            ))),
        }
    }

    fn run(&mut self) -> Result<Value, SchemeError> {
        loop {
            if let Some(max) = self.opts.max_steps {
                self.steps += 1;
                if self.steps > max {
                    return Err(SchemeError::runtime(format!(
                        "step budget of {max} instructions exceeded"
                    )));
                }
            }
            let instr = self.chunk.instrs[self.pc].clone();
            match instr {
                Instr::Const(i) => {
                    self.acc = self.chunk.consts[i as usize].clone();
                    self.pc += 1;
                }
                Instr::Fix(n) => {
                    self.acc = Value::Fixnum(n);
                    self.pc += 1;
                }
                Instr::True => {
                    self.acc = Value::Bool(true);
                    self.pc += 1;
                }
                Instr::False => {
                    self.acc = Value::Bool(false);
                    self.pc += 1;
                }
                Instr::Nil => {
                    self.acc = Value::Nil;
                    self.pc += 1;
                }
                Instr::Unspec => {
                    self.acc = Value::Unspecified;
                    self.pc += 1;
                }
                Instr::LocalRef(s) => {
                    self.acc = self.stack.get(s as usize);
                    self.pc += 1;
                }
                Instr::LocalSet(s) => {
                    self.stack.set(s as usize, self.acc.clone());
                    self.pc += 1;
                }
                Instr::CellRef(s) => {
                    self.acc = match self.stack.get(s as usize) {
                        Value::Cell(c) => c.borrow().clone(),
                        other => {
                            return Err(SchemeError::runtime(format!(
                                "corrupted frame: slot {s} holds {other}, not a cell"
                            )))
                        }
                    };
                    self.pc += 1;
                }
                Instr::CellSet(s) => {
                    match self.stack.get(s as usize) {
                        Value::Cell(c) => *c.borrow_mut() = self.acc.clone(),
                        other => {
                            return Err(SchemeError::runtime(format!(
                                "corrupted frame: slot {s} holds {other}, not a cell"
                            )))
                        }
                    }
                    self.pc += 1;
                }
                Instr::FreeRef(i) => {
                    self.acc = self.closure_cell()?.free[i as usize].clone();
                    self.pc += 1;
                }
                Instr::FreeCellRef(i) => {
                    self.acc = match &self.closure_cell()?.free[i as usize] {
                        Value::Cell(c) => c.borrow().clone(),
                        other => {
                            return Err(SchemeError::runtime(format!(
                                "corrupted closure: capture {i} holds {other}, not a cell"
                            )))
                        }
                    };
                    self.pc += 1;
                }
                Instr::FreeCellSet(i) => {
                    match &self.closure_cell()?.free[i as usize] {
                        Value::Cell(c) => *c.borrow_mut() = self.acc.clone(),
                        other => {
                            return Err(SchemeError::runtime(format!(
                                "corrupted closure: capture {i} holds {other}, not a cell"
                            )))
                        }
                    }
                    self.pc += 1;
                }
                Instr::WrapCell(s) => {
                    let v = self.stack.get(s as usize);
                    self.stack.set(s as usize, Value::cell(v));
                    self.pc += 1;
                }
                Instr::GlobalRef(g) => {
                    self.acc = self.globals.get(g)?;
                    self.pc += 1;
                }
                Instr::GlobalSet(g) => {
                    self.globals.set(g, self.acc.clone())?;
                    self.pc += 1;
                }
                Instr::GlobalDef(g) => {
                    self.globals.define(g, self.acc.clone());
                    self.pc += 1;
                }
                Instr::MakeClosure { lambda, src, nfree } => {
                    let free: Box<[Value]> =
                        (0..nfree).map(|i| self.stack.get((src + i) as usize)).collect();
                    let chunk = self.chunk.lambdas[lambda as usize].clone();
                    self.acc = Value::Closure(Rc::new(Closure { chunk, free }));
                    self.pc += 1;
                }
                Instr::Jump(t) => self.pc = t as usize,
                Instr::JumpIfFalse(t) => {
                    if self.acc.is_truthy() {
                        self.pc += 1;
                    } else {
                        self.pc = t as usize;
                    }
                }
                Instr::FrameSize(_) => self.pc += 1, // data word: no-op in sequence
                Instr::Return => {
                    if let Some(v) = self.do_return()? {
                        return Ok(v);
                    }
                }
                Instr::Call { d, nargs, check } => {
                    if self.timer_fires()? {
                        continue;
                    }
                    let site = Site::Call { d, check };
                    if let Some(v) = self.apply(self.stack.get(site.op_slot()), site, nargs)? {
                        return Ok(v);
                    }
                }
                Instr::TailCall { src, nargs } => {
                    if self.timer_fires()? {
                        continue;
                    }
                    let site = Site::Tail { src };
                    if let Some(v) = self.apply(self.stack.get(site.op_slot()), site, nargs)? {
                        return Ok(v);
                    }
                }
                Instr::Move { src, dst } => {
                    let v = self.stack.get(src as usize);
                    self.stack.set(dst as usize, v);
                    self.stack.metrics_mut().superinstructions_dispatched += 1;
                    self.pc += 1;
                }
                Instr::FixStage { n, dst } => {
                    self.stack.set(dst as usize, Value::Fixnum(n));
                    self.stack.metrics_mut().superinstructions_dispatched += 1;
                    self.pc += 1;
                }
                Instr::GlobalStage { g, dst } => {
                    let v = self.globals.get(g)?;
                    self.stack.set(dst as usize, v);
                    self.stack.metrics_mut().superinstructions_dispatched += 1;
                    self.pc += 1;
                }
                Instr::CallGlobal { g, ic, d, nargs, check } => {
                    if self.timer_fires()? {
                        continue;
                    }
                    if let Some(v) = self.call_global(g, ic, Site::Call { d, check }, nargs)? {
                        return Ok(v);
                    }
                }
                Instr::TailCallGlobal { g, ic, src, nargs } => {
                    if self.timer_fires()? {
                        continue;
                    }
                    if let Some(v) = self.call_global(g, ic, Site::Tail { src }, nargs)? {
                        return Ok(v);
                    }
                }
            }
        }
    }

    /// Continues after the call at `site` produced `v` without entering a
    /// frame: past the return point's frame-size word, or out of the
    /// current frame.
    #[inline(always)]
    fn deliver(&mut self, site: Site, v: Value) -> Result<Option<Value>, SchemeError> {
        self.acc = v;
        match site {
            Site::Call { .. } => {
                self.pc += 2;
                Ok(None)
            }
            Site::Tail { .. } | Site::Pushed => self.do_return(),
        }
    }

    /// Gives the callee at `site` its frame, whose first `size` slots
    /// (operator and arguments) are staged: a non-tail site pushes it, a
    /// tail site reuses the current one, a pushed frame is already there.
    #[inline(always)]
    fn push(&mut self, site: Site, size: u16) -> Result<(), SchemeError> {
        match site {
            Site::Call { d, check } => {
                let ret = CodeAddr::new(self.chunk.id(), self.pc as u32 + 2);
                self.stack.call(d as usize, ret, size as usize, check.performs_check())?;
            }
            Site::Tail { src } => self.stack.tail_call(src as usize, size as usize),
            Site::Pushed => {}
        }
        Ok(())
    }

    /// Pushes the callee's frame (see [`Vm::push`]) and enters `chunk`.
    #[inline(always)]
    fn enter(
        &mut self,
        site: Site,
        size: u16,
        chunk: &Rc<Chunk>,
    ) -> Result<Option<Value>, SchemeError> {
        self.push(site, size)?;
        if !Rc::ptr_eq(&self.chunk, chunk) {
            self.chunk = chunk.clone();
        }
        self.pc = 0;
        Ok(None)
    }

    /// Dispatches an inline-cached call to global `g`. On a primitive hit
    /// the operator is never staged and the primitive runs without the
    /// generic `Value` dispatch; on a closure hit (matching arity) the
    /// arity adjustment is skipped. Anything else stages the operator and
    /// goes through [`Vm::apply`], exactly like `Instr::Call`.
    #[inline(always)]
    fn call_global(
        &mut self,
        g: u32,
        ic: u32,
        site: Site,
        nargs: u16,
    ) -> Result<Option<Value>, SchemeError> {
        self.stack.metrics_mut().superinstructions_dispatched += 1;
        let ver = self.globals.version(g);
        let slot = &self.chunk.ics[ic as usize];
        if slot.version.get() == ver {
            match slot.target.get() {
                IcTarget::Prim { p, fast } => {
                    self.stack.metrics_mut().ic_hits += 1;
                    let v = self.run_primitive(Primitive(p), fast, site.op_slot() + 1, nargs)?;
                    return self.deliver(site, v);
                }
                IcTarget::Closure => {
                    self.stack.metrics_mut().ic_hits += 1;
                    let op = self.globals.get(g)?;
                    self.stack.set(site.op_slot(), op.clone());
                    let Value::Closure(c) = op else {
                        unreachable!("an unchanged global still holds its closure")
                    };
                    return self.enter(site, 1 + nargs, &c.chunk);
                }
                _ => {}
            }
        }
        self.stack.metrics_mut().ic_misses += 1;
        let op = self.globals.get(g)?;
        self.fill_ic(ic, ver, &op, nargs);
        self.stack.set(site.op_slot(), op.clone());
        self.apply(op, site, nargs)
    }

    /// Fills an inline-cache slot from the operator just looked up.
    /// Primitives are cached only when `Normal` and arity-valid for this
    /// site's fixed argument count, and closures only when they take
    /// exactly that count (so hits skip the checks); anything else
    /// records `Empty` and keeps taking the generic path.
    fn fill_ic(&mut self, ic: u32, ver: u32, op: &Value, nargs: u16) {
        let target = match op {
            Value::Primitive(p)
                if matches!(def_of(*p).kind, PrimKind::Normal(_)) && arity_ok(*p, nargs) =>
            {
                IcTarget::Prim { p: p.0, fast: fast_op(*p, nargs) }
            }
            Value::Closure(c) if !c.chunk.variadic && c.chunk.nparams == nargs => IcTarget::Closure,
            _ => IcTarget::Empty,
        };
        let slot = &self.chunk.ics[ic as usize];
        slot.version.set(ver);
        slot.target.set(target);
    }

    /// Runs normal primitive `p`, whose arity is already checked, on the
    /// `nargs` arguments staged at `argbase`. With a `fast` op (cached at
    /// an IC site), two-fixnum arithmetic/comparison runs without touching
    /// the general function; overflow and non-fixnum operands fall back to
    /// it, so observable semantics are the same either way.
    fn run_primitive(
        &mut self,
        p: Primitive,
        fast: FastOp,
        argbase: usize,
        nargs: u16,
    ) -> Result<Value, SchemeError> {
        // Primitives are leaf routines: no frame, no overflow check (§5).
        self.stack.metrics_mut().checks_elided += 1;
        if fast != FastOp::None {
            if let (Value::Fixnum(x), Value::Fixnum(y)) =
                (self.stack.get(argbase), self.stack.get(argbase + 1))
            {
                let r = match fast {
                    FastOp::Add2 => x.checked_add(y).map(Value::Fixnum),
                    FastOp::Sub2 => x.checked_sub(y).map(Value::Fixnum),
                    FastOp::Mul2 => x.checked_mul(y).map(Value::Fixnum),
                    FastOp::Lt2 => Some(Value::Bool(x < y)),
                    FastOp::Le2 => Some(Value::Bool(x <= y)),
                    FastOp::Gt2 => Some(Value::Bool(x > y)),
                    FastOp::Ge2 => Some(Value::Bool(x >= y)),
                    FastOp::NumEq2 => Some(Value::Bool(x == y)),
                    FastOp::None => unreachable!(),
                };
                if let Some(v) = r {
                    return Ok(v);
                }
            }
        }
        let PrimKind::Normal(f) = &def_of(p).kind else {
            unreachable!("special primitives are dispatched by apply")
        };
        if nargs as usize <= PRIM_ARG_BUF {
            let mut buf: [Value; PRIM_ARG_BUF] = std::array::from_fn(|_| Value::Unspecified);
            for (j, slot) in buf.iter_mut().enumerate().take(nargs as usize) {
                *slot = self.stack.get(argbase + j);
            }
            f(&mut PrimCtx { out: self.out }, &buf[..nargs as usize])
        } else {
            let args: Vec<Value> =
                (0..nargs as usize).map(|j| self.stack.get(argbase + j)).collect();
            f(&mut PrimCtx { out: self.out }, &args)
        }
    }

    /// Decrements the engine timer; if it expires, pushes a handler frame
    /// whose return point is the pending call instruction itself (the
    /// `FrameSize` word before every call instruction makes that a valid
    /// walkable return point).
    fn timer_fires(&mut self) -> Result<bool, SchemeError> {
        if self.timer.fuel <= 0 {
            return Ok(false);
        }
        self.timer.fuel -= 1;
        if self.timer.fuel > 0 {
            return Ok(false);
        }
        let handler = self.timer.handler.clone();
        if !handler.is_procedure() {
            return Ok(false);
        }
        let Instr::FrameSize(dh) = self.chunk.instrs[self.pc - 1] else {
            unreachable!("call instructions are preceded by a frame-size word")
        };
        let ra = CodeAddr::new(self.chunk.id(), self.pc as u32);
        self.stack.set(dh as usize + 1, handler.clone());
        self.stack.call(dh as usize, ra, 1, true)?;
        match self.apply(handler, Site::Pushed, 0)? {
            None => Ok(true),
            Some(_) => {
                Err(SchemeError::runtime("timer handler exited through a dead continuation"))
            }
        }
    }

    /// `(stack-frames [limit])`: names of the pending procedures, walking
    /// the live control state (innermost first).
    fn stack_frames(&mut self, limit: Option<Value>) -> Result<Value, SchemeError> {
        let limit = match limit {
            Some(v) => usize::try_from(v.as_fixnum()?)
                .map_err(|_| SchemeError::runtime("stack-frames: negative limit"))?,
            None => 64,
        };
        let names = self
            .stack
            .backtrace(limit)
            .into_iter()
            .map(|ra| Value::Sym(self.store.chunk(ra.chunk()).name))
            .collect::<Vec<_>>();
        Ok(Value::list(names))
    }

    /// `(trace-stats)`: one alist entry `(kind count p50 p90 p99 max)` per
    /// event kind the machine's trace sink has seen (nanoseconds or slots,
    /// depending on the kind — see the event vocabulary). Untraced
    /// machines return `()`.
    fn trace_stats(&self) -> Value {
        let fix = |v: u64| Value::Fixnum(v.min(i64::MAX as u64) as i64);
        Value::list(self.stack.trace_summaries().into_iter().map(|(kind, s)| {
            Value::cons(
                Value::sym(kind.name()),
                Value::list([fix(s.count), fix(s.p50), fix(s.p90), fix(s.p99), fix(s.max)]),
            )
        }))
    }

    /// Checks a closure call's argument count and, for a variadic
    /// closure, collects the staged extras into a rest list at
    /// `argbase + required`. Returns the effective argument count.
    fn adjust_arity(&mut self, c: &Chunk, argbase: usize, nargs: u16) -> Result<u16, SchemeError> {
        if c.variadic {
            let required = c.nparams - 1;
            if nargs < required {
                return Err(closure_arity_error(c, nargs.into()));
            }
            let rest = Value::list((required..nargs).map(|j| self.stack.get(argbase + j as usize)));
            self.stack.set(argbase + required as usize, rest);
            Ok(c.nparams)
        } else if nargs != c.nparams {
            Err(closure_arity_error(c, nargs.into()))
        } else {
            Ok(nargs)
        }
    }

    fn check_prim_arity(&self, p: Primitive, n: usize) -> Result<(), SchemeError> {
        let def = def_of(p);
        if n < def.min_args || def.max_args.is_some_and(|m| n > m) {
            let want = match def.max_args {
                Some(m) if m == def.min_args => format!("{m}"),
                Some(m) => format!("{} to {m}", def.min_args),
                None => format!("at least {}", def.min_args),
            };
            return Err(arity_error(def.name, &want, n));
        }
        Ok(())
    }

    /// Runs `(apply f a… lst)`, staged at `site`: calls `f` on the
    /// explicit middles, then the final list's elements. Only what the
    /// callee's frame holds is staged: a normal primitive runs on the
    /// spread arguments where they are, and a variadic closure gets its
    /// required arguments and a fresh rest list, so neither meets the
    /// frame bound.
    fn apply_spread(&mut self, site: Site, nargs: u16) -> Result<Option<Value>, SchemeError> {
        let argbase = site.op_slot() + 1;
        let f = self.stack.get(argbase);
        let last = self.stack.get(argbase + nargs as usize - 1);
        let Some(spread) = last.list_len() else {
            return Err(SchemeError::runtime(format!(
                "apply: last argument must be a proper list, got {last}"
            )));
        };
        // One vector, reserved once: the explicit middles, then the list.
        let mut args = Vec::with_capacity(nargs as usize - 2 + spread);
        args.extend((1..nargs as usize - 1).map(|j| self.stack.get(argbase + j)));
        let mut rest = last;
        while let Value::Pair(p) = rest {
            args.push(p.car.borrow().clone());
            rest = p.cdr.borrow().clone();
        }
        let mut enter = None;
        match &f {
            Value::Primitive(p) => {
                self.check_prim_arity(*p, args.len())?;
                if let PrimKind::Normal(call) = def_of(*p).kind {
                    self.stack.metrics_mut().checks_elided += 1;
                    let v = call(&mut PrimCtx { out: self.out }, &args)?;
                    return self.deliver(site, v);
                }
            }
            Value::Closure(c) if c.chunk.variadic => {
                let required = c.chunk.nparams as usize - 1;
                if args.len() < required {
                    return Err(closure_arity_error(&c.chunk, args.len()));
                }
                let rest = Value::list(args.drain(required..));
                self.stack.set(argbase + required, rest);
                enter = Some(c.chunk.clone());
            }
            Value::Closure(c) if args.len() != usize::from(c.chunk.nparams) => {
                return Err(closure_arity_error(&c.chunk, args.len()));
            }
            Value::Kont(_) if args.len() != 1 => {
                return Err(arity_error("continuation", "1", args.len()));
            }
            _ => {}
        }
        // Only `apply` applied to itself, or a non-procedure, gets here
        // with more arguments than a frame holds.
        if args.len() + 2 > self.opts.frame_bound {
            return Err(SchemeError::runtime(format!(
                "apply: {} arguments exceed the frame bound of {}",
                args.len(),
                self.opts.frame_bound
            )));
        }
        let n = args.len() as u16;
        self.stack.set(argbase - 1, f.clone());
        for (j, v) in args.into_iter().enumerate() {
            self.stack.set(argbase + j, v);
        }
        match enter {
            Some(chunk) => self.enter(site, 1 + chunk.nparams, &chunk),
            None => self.apply(f, site, n),
        }
    }

    /// Applies `op` to the `nargs` arguments staged above its slot at
    /// `site`: the machine's one calling protocol. Only [`Vm::deliver`] and
    /// [`Vm::push`] act on the site (`call/cc` reads it to capture in the
    /// right frame). `Some(value)` means the computation halted (an exit
    /// continuation was invoked).
    fn apply(&mut self, op: Value, site: Site, nargs: u16) -> Result<Option<Value>, SchemeError> {
        let argbase = site.op_slot() + 1;
        match op {
            Value::Closure(c) => {
                let eff = self.adjust_arity(&c.chunk, argbase, nargs)?;
                self.enter(site, 1 + eff, &c.chunk)
            }
            Value::Primitive(p) => {
                self.check_prim_arity(p, nargs.into())?;
                match def_of(p).kind {
                    PrimKind::Normal(_) => {
                        let v = self.run_primitive(p, FastOp::None, argbase, nargs)?;
                        self.deliver(site, v)
                    }
                    PrimKind::CallCC | PrimKind::CallCC1 => {
                        // `(call/cc f)` is `(f k)`, where `k` returns
                        // wherever this call returns, so `k` is captured in
                        // the frame it returns from: a non-tail site pushes
                        // it with `f` as its operator; tail and pushed sites
                        // already run in it, and their frame reuse then
                        // moves `[f, k]` down together.
                        let f = self.stack.get(argbase);
                        self.stack.set(argbase - 1, f.clone());
                        let site = match site {
                            Site::Call { .. } => {
                                self.push(site, 1)?;
                                Site::Pushed
                            }
                            other => other,
                        };
                        let k = match def_of(p).kind {
                            PrimKind::CallCC1 => self.stack.capture_one_shot(),
                            _ => self.stack.capture(),
                        };
                        self.stack.set(site.op_slot() + 1, Value::Kont(k));
                        self.apply(f, site, 1)
                    }
                    PrimKind::Apply => self.apply_spread(site, nargs),
                    PrimKind::SetTimer => {
                        let ticks = self.stack.get(argbase).as_fixnum()?;
                        let left = std::mem::replace(&mut self.timer.fuel, ticks);
                        self.deliver(site, Value::Fixnum(left.max(0)))
                    }
                    PrimKind::SetTimerHandler => {
                        self.timer.handler = self.stack.get(argbase);
                        self.deliver(site, Value::Unspecified)
                    }
                    PrimKind::StackFrames => {
                        let limit = (nargs == 1).then(|| self.stack.get(argbase));
                        let v = self.stack_frames(limit)?;
                        self.deliver(site, v)
                    }
                    PrimKind::TraceStats => {
                        let v = self.trace_stats();
                        self.deliver(site, v)
                    }
                    PrimKind::Eval => {
                        let datum = self.stack.get(argbase);
                        let entry = compile_toplevel(
                            &datum,
                            self.expander,
                            self.store,
                            self.globals,
                            self.copts,
                        )?;
                        // Run the fresh chunk like a 0-parameter procedure,
                        // under a closure over it that its frame's slot 1
                        // keeps, as `run` does for a top level.
                        let op = Closure { chunk: entry.clone(), free: Box::new([]) };
                        self.stack.set(site.op_slot(), Value::Closure(Rc::new(op)));
                        self.enter(site, 1, &entry)
                    }
                }
            }
            Value::Kont(k) => {
                if nargs != 1 {
                    return Err(arity_error("continuation", "1", nargs.into()));
                }
                let v = self.stack.get(argbase);
                match self.stack.reinstate(&k)? {
                    ReturnAddress::Code(r) => {
                        self.acc = v;
                        self.jump(r);
                        Ok(None)
                    }
                    ReturnAddress::Exit => Ok(Some(v)),
                    ReturnAddress::Underflow => unreachable!(),
                }
            }
            other => Err(SchemeError::runtime(format!("attempt to apply non-procedure {other}"))),
        }
    }
}

/// The arity error of `who`, which wants `want` arguments and got `got`.
fn arity_error(who: impl std::fmt::Display, want: &str, got: usize) -> SchemeError {
    SchemeError::runtime(format!("{who}: expected {want} arguments, got {got}"))
}

/// The arity error of a closure over `c` called with `got` arguments. Its
/// name is formatted here, never on a call whose arity matches.
fn closure_arity_error(c: &Chunk, got: usize) -> SchemeError {
    let want =
        if c.variadic { format!("at least {}", c.nparams - 1) } else { c.nparams.to_string() };
    arity_error(c.name, &want, got)
}

/// Sanity check used by the primitive table: the VM assumes `PRIMITIVES`
/// fits in the `u16` index space.
const _: () = assert!(PRIMITIVES.len() < u16::MAX as usize);
