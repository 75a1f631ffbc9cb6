//! Bytecode generation from resolved core forms.
//!
//! The generated code follows the paper's calling convention (§3):
//!
//! * the caller stages the callee's partial frame at the current frame
//!   displacement (operator at `d+1`, arguments above it), then transfers
//!   control;
//! * a `FrameSize` data word is emitted immediately before every return
//!   point — and before every `Call`/`TailCall` instruction, which serves
//!   as the re-entry point for timer interrupts — so stack walkers can
//!   recover frame boundaries from return addresses alone (Figure 4);
//! * tail calls reuse the current frame (arguments are staged above the
//!   live slots and shuffled down);
//! * overflow checks are emitted per call site according to the
//!   [`CheckPolicy`]; direct applications of *leaf* lambdas skip the check,
//!   the paper's §5 elision.

use std::fmt;

use crate::code::{Check, Chunk, CodeStore, IcSlot, Instr};
use crate::error::SchemeError;
use crate::expand::Expander;
use crate::primitives::PrimKind;
use crate::resolve::{resolve_toplevel, Capture, RExpr, RLambda, PARAM_BASE};
use crate::value::Value;

/// When call sites emit the stack-overflow check (Figure 8 / §5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckPolicy {
    /// Every call site checks.
    Always,
    /// Direct applications of leaf lambdas skip the check (sound under the
    /// two-frame reserve); everything else checks. The default.
    #[default]
    Elide,
    /// No call site checks. Sound only when the segment is known to be
    /// deeper than the program's recursion (used as the experiment E8
    /// lower bound).
    Never,
}

/// Compilation options.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Overflow-check policy.
    pub policy: CheckPolicy,
    /// Maximum frame size in slots; compilation fails beyond it. Should
    /// match the control stack's configured frame bound.
    pub frame_bound: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { policy: CheckPolicy::default(), frame_bound: 64 }
    }
}

/// Compiles one top-level datum to a chunk in `store`, returning its id.
///
/// # Errors
///
/// [`SchemeError::Compile`] for malformed programs or frames exceeding the
/// frame bound.
pub fn compile_toplevel(
    datum: &Value,
    expander: &mut Expander,
    store: &CodeStore,
    globals: &mut crate::code::Globals,
    opts: &CompileOptions,
) -> Result<u32, SchemeError> {
    let ast = expander.expand_toplevel(datum)?;
    let rexpr = resolve_toplevel(&ast, globals)?;
    let mut g =
        Gen { store, opts, globals, instrs: Vec::new(), consts: Vec::new(), max_stage: 1, ics: 0 };
    g.gen_tail(&rexpr, 1)?;
    let name = format!("toplevel-{}", store.len());
    Ok(store.add(g.finish(name, 0, false)))
}

struct Gen<'a> {
    store: &'a CodeStore,
    opts: &'a CompileOptions,
    /// Global bindings as of compilation time, consulted when choosing
    /// between the inline-cached and the generic call paths.
    globals: &'a crate::code::Globals,
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    max_stage: u16,
    /// Inline-cache slots allocated so far in this chunk.
    ics: u32,
}

impl Gen<'_> {
    fn compile_lambda(&self, l: &RLambda) -> Result<u32, SchemeError> {
        let wm = PARAM_BASE + l.nparams;
        if wm as usize > self.opts.frame_bound {
            return Err(SchemeError::compile(format!(
                "procedure {} has too many parameters for the frame bound ({})",
                l.name.map(|s| s.as_str()).unwrap_or_else(|| "anonymous".into()),
                self.opts.frame_bound
            )));
        }
        let mut g = Gen {
            store: self.store,
            opts: self.opts,
            globals: self.globals,
            instrs: Vec::new(),
            consts: Vec::new(),
            max_stage: wm,
            ics: 0,
        };
        for (i, boxed) in l.boxed_params.iter().enumerate() {
            if *boxed {
                g.instrs.push(Instr::WrapCell(PARAM_BASE + i as u16));
            }
        }
        g.gen_tail(&l.body, wm)?;
        let name = l.name.map(|s| s.as_str()).unwrap_or_else(|| "lambda".into());
        Ok(self.store.add(g.finish(name, l.nparams, l.variadic)))
    }

    /// Packages the finished chunk.
    fn finish(self, name: String, nparams: u16, variadic: bool) -> Chunk {
        Chunk {
            instrs: self.instrs,
            consts: self.consts,
            nparams,
            variadic,
            name,
            frame_slots: self.max_stage,
            ics: (0..self.ics).map(|_| IcSlot::default()).collect(),
        }
    }

    /// Allocates an inline-cache slot for a `CallGlobal`-family site.
    fn new_ic(&mut self) -> u32 {
        let ic = self.ics;
        self.ics += 1;
        ic
    }

    /// Checks the frame bound and records the high-water mark for a slot
    /// about to be written.
    fn reserve(&mut self, slot: u16) -> Result<(), SchemeError> {
        let top = slot + 1;
        if top as usize > self.opts.frame_bound {
            return Err(SchemeError::compile(format!(
                "expression needs a frame of {top} slots, beyond the frame bound of {}; \
                 split the expression or raise the bound",
                self.opts.frame_bound
            )));
        }
        self.max_stage = self.max_stage.max(top);
        Ok(())
    }

    fn stage(&mut self, slot: u16) -> Result<(), SchemeError> {
        self.reserve(slot)?;
        self.instrs.push(Instr::LocalSet(slot));
        Ok(())
    }

    /// Evaluates `e` directly into `frame[slot]`. Simple operands fuse
    /// the value and the store into one superinstruction that bypasses
    /// the accumulator — sound here because every staging context
    /// overwrites the accumulator before it is next read.
    fn gen_staged(&mut self, e: &RExpr, slot: u16) -> Result<(), SchemeError> {
        match e {
            RExpr::Quote(Value::Fixnum(n)) => {
                self.reserve(slot)?;
                self.instrs.push(Instr::FixStage { n: *n, dst: slot });
                Ok(())
            }
            RExpr::LocalRef(s) => {
                self.reserve(slot)?;
                self.instrs.push(Instr::Move { src: *s, dst: slot });
                Ok(())
            }
            RExpr::GlobalRef(g) => {
                self.reserve(slot)?;
                self.instrs.push(Instr::GlobalStage { g: *g, dst: slot });
                Ok(())
            }
            _ => {
                self.gen(e, slot)?;
                self.stage(slot)
            }
        }
    }

    fn constant(&mut self, v: &Value) {
        let instr = match v {
            Value::Fixnum(n) => Instr::Fix(*n),
            Value::Bool(true) => Instr::True,
            Value::Bool(false) => Instr::False,
            Value::Nil => Instr::Nil,
            Value::Unspecified => Instr::Unspec,
            other => {
                let idx = self.consts.len() as u32;
                self.consts.push(other.clone());
                Instr::Const(idx)
            }
        };
        self.instrs.push(instr);
    }

    /// Generates code leaving the expression's value in the accumulator.
    fn gen(&mut self, e: &RExpr, wm: u16) -> Result<(), SchemeError> {
        match e {
            RExpr::Quote(v) => {
                self.constant(v);
                Ok(())
            }
            RExpr::LocalRef(s) => {
                self.instrs.push(Instr::LocalRef(*s));
                Ok(())
            }
            RExpr::LocalCellRef(s) => {
                self.instrs.push(Instr::CellRef(*s));
                Ok(())
            }
            RExpr::FreeRef(i) => {
                self.instrs.push(Instr::FreeRef(*i));
                Ok(())
            }
            RExpr::FreeCellRef(i) => {
                self.instrs.push(Instr::FreeCellRef(*i));
                Ok(())
            }
            RExpr::GlobalRef(g) => {
                self.instrs.push(Instr::GlobalRef(*g));
                Ok(())
            }
            RExpr::LocalCellSet(s, v) => {
                self.gen(v, wm)?;
                self.instrs.push(Instr::CellSet(*s));
                self.instrs.push(Instr::Unspec);
                Ok(())
            }
            RExpr::FreeCellSet(i, v) => {
                self.gen(v, wm)?;
                self.instrs.push(Instr::FreeCellSet(*i));
                self.instrs.push(Instr::Unspec);
                Ok(())
            }
            RExpr::GlobalSet(g, v) => {
                self.gen(v, wm)?;
                self.instrs.push(Instr::GlobalSet(*g));
                self.instrs.push(Instr::Unspec);
                Ok(())
            }
            RExpr::GlobalDef(g, v) => {
                self.gen(v, wm)?;
                self.instrs.push(Instr::GlobalDef(*g));
                self.instrs.push(Instr::Unspec);
                Ok(())
            }
            RExpr::If(c, t, els) => {
                self.gen(c, wm)?;
                let jf = self.emit_patch(Instr::JumpIfFalse(0));
                self.gen(t, wm)?;
                let j = self.emit_patch(Instr::Jump(0));
                self.patch(jf);
                self.gen(els, wm)?;
                self.patch(j);
                Ok(())
            }
            RExpr::Begin(es) => {
                let Some((last, init)) = es.split_last() else {
                    self.instrs.push(Instr::Unspec);
                    return Ok(());
                };
                for e in init {
                    self.gen(e, wm)?;
                }
                self.gen(last, wm)
            }
            RExpr::Lambda(l) => self.gen_closure(l, wm),
            RExpr::Call(op, args) => self.gen_call(op, args, wm, false),
        }
    }

    /// Generates code in tail position: always ends in `Return` or
    /// `TailCall`.
    fn gen_tail(&mut self, e: &RExpr, wm: u16) -> Result<(), SchemeError> {
        match e {
            RExpr::If(c, t, els) => {
                self.gen(c, wm)?;
                let jf = self.emit_patch(Instr::JumpIfFalse(0));
                self.gen_tail(t, wm)?;
                self.patch(jf);
                self.gen_tail(els, wm)
            }
            RExpr::Begin(es) => {
                let Some((last, init)) = es.split_last() else {
                    self.instrs.push(Instr::Unspec);
                    self.instrs.push(Instr::Return);
                    return Ok(());
                };
                for e in init {
                    self.gen(e, wm)?;
                }
                self.gen_tail(last, wm)
            }
            // src ≥ 2 + nargs keeps the staged slots disjoint from the
            // target slots 1..=1+nargs of the frame reuse shuffle.
            RExpr::Call(op, args) => self.gen_call(op, args, wm.max(1 + args.len() as u16), true),
            other => {
                self.gen(other, wm)?;
                self.instrs.push(Instr::Return);
                Ok(())
            }
        }
    }

    /// Stages a call's partial frame at displacement `d` (operator at
    /// `d+1`, arguments above it) and emits the call. A global operator is
    /// staged by the VM itself, through the site's inline cache.
    fn gen_call(
        &mut self,
        op: &RExpr,
        args: &[RExpr],
        d: u16,
        tail: bool,
    ) -> Result<(), SchemeError> {
        let nargs = args.len() as u16;
        let global = self.ic_operator(op);
        match global {
            // The operator slot is still part of the frame.
            Some(_) => self.reserve(d + 1)?,
            None => self.gen_staged(op, d + 1)?,
        }
        for (j, a) in args.iter().enumerate() {
            self.gen_staged(a, d + 2 + j as u16)?;
        }
        // Re-entry word for timer interrupts: a handler frame is pushed
        // above the staged partial frame.
        self.instrs.push(Instr::FrameSize(u32::from(d + 2 + nargs)));
        let (src, check) = (d + 1, self.check_for(op));
        let call = match global.map(|g| (g, self.new_ic())) {
            Some((g, ic)) if tail => Instr::TailCallGlobal { g, ic, src, nargs },
            Some((g, ic)) => Instr::CallGlobal { g, ic, d, nargs, check },
            None if tail => Instr::TailCall { src, nargs },
            None => Instr::Call { d, nargs, check },
        };
        self.instrs.push(call);
        if !tail {
            // The word before the return point: the displacement.
            self.instrs.push(Instr::FrameSize(u32::from(d)));
        }
        Ok(())
    }

    fn gen_closure(&mut self, l: &RLambda, wm: u16) -> Result<(), SchemeError> {
        let chunk = self.compile_lambda(l)?;
        let nfree = l.captures.len() as u16;
        for (i, cap) in l.captures.iter().enumerate() {
            let dst = wm + i as u16;
            match cap {
                Capture::Local(slot) => {
                    self.reserve(dst)?;
                    self.instrs.push(Instr::Move { src: *slot, dst });
                }
                Capture::Free(idx) => {
                    self.instrs.push(Instr::FreeRef(*idx));
                    self.stage(dst)?;
                }
            }
        }
        self.instrs.push(Instr::MakeClosure { chunk, src: wm, nfree });
        Ok(())
    }

    /// Can this operator go through the inline-cached `CallGlobal`
    /// family? Globals currently bound to VM-dispatched special
    /// primitives (`call/cc`, `apply`, the timer hooks, …) stay on the
    /// generic path: they can never be cached, so an IC site would count
    /// a miss on every execution.
    fn ic_operator(&self, op: &RExpr) -> Option<u32> {
        let RExpr::GlobalRef(g) = op else { return None };
        match self.globals.get(*g) {
            Ok(Value::Primitive(p))
                if !matches!(crate::primitives::def_of(p).kind, PrimKind::Normal(_)) =>
            {
                None
            }
            _ => Some(*g),
        }
    }

    /// The §5 check-elision decision for a call site with operator `op`.
    fn check_for(&self, op: &RExpr) -> Check {
        match self.opts.policy {
            CheckPolicy::Always => Check::Yes,
            CheckPolicy::Never => Check::Elided,
            CheckPolicy::Elide => match op {
                RExpr::Lambda(l) if l.leaf => Check::Elided,
                _ => Check::Yes,
            },
        }
    }

    fn emit_patch(&mut self, instr: Instr) -> usize {
        let at = self.instrs.len();
        self.instrs.push(instr);
        at
    }

    fn patch(&mut self, at: usize) {
        let target = self.instrs.len() as u32;
        match &mut self.instrs[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => *t = target,
            other => panic!("patching a non-jump instruction {other:?}"),
        }
    }
}

impl fmt::Display for CheckPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckPolicy::Always => "always",
            CheckPolicy::Elide => "elide",
            CheckPolicy::Never => "never",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Globals;
    use crate::reader::read_one;

    fn compile(src: &str) -> (CodeStore, Globals, u32) {
        compile_with(src, CheckPolicy::Elide)
    }

    fn compile_with(src: &str, policy: CheckPolicy) -> (CodeStore, Globals, u32) {
        let store = CodeStore::new();
        let mut globals = Globals::new();
        let mut ex = Expander::new();
        let opts = CompileOptions { policy, ..CompileOptions::default() };
        let id = compile_toplevel(&read_one(src).unwrap(), &mut ex, &store, &mut globals, &opts)
            .unwrap();
        (store, globals, id)
    }

    #[test]
    fn constant_compiles_to_inline_and_return() {
        let (store, _, id) = compile("42");
        let c = store.chunk(id);
        assert_eq!(c.instrs, vec![Instr::Fix(42), Instr::Return]);
    }

    #[test]
    fn large_constants_go_to_the_pool() {
        let (store, _, id) = compile("\"hello\"");
        let c = store.chunk(id);
        assert!(matches!(c.instrs[0], Instr::Const(0)));
        assert_eq!(c.consts.len(), 1);
    }

    #[test]
    fn call_emits_frame_size_words_around_it() {
        let (store, _, id) = compile("(f 1 2)");
        let c = store.chunk(id);
        // Tail position at top level; the unbound-global operator goes
        // through the inline-cached superinstruction, still preceded by
        // its FrameSize word.
        let tc = c.instrs.iter().position(|i| matches!(i, Instr::TailCallGlobal { .. })).unwrap();
        assert!(matches!(c.instrs[tc - 1], Instr::FrameSize(_)));
    }

    #[test]
    fn non_tail_call_has_displacement_word_before_return_point() {
        let (store, _, id) = compile("(g (f 1))");
        let c = store.chunk(id);
        let call_at = c
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::CallGlobal { .. }))
            .expect("inner call is non-tail");
        assert!(matches!(c.instrs[call_at - 1], Instr::FrameSize(_)), "re-entry word");
        let Instr::CallGlobal { d, nargs, .. } = c.instrs[call_at] else { unreachable!() };
        assert_eq!(c.instrs[call_at + 1], Instr::FrameSize(u32::from(d)));
        assert_eq!(nargs, 1);
    }

    #[test]
    fn lambda_chunks_are_compiled_with_params() {
        let (store, _, id) = compile("(lambda (a b) a)");
        let c = store.chunk(id);
        let Instr::MakeClosure { chunk, nfree, .. } =
            *c.instrs.iter().find(|i| matches!(i, Instr::MakeClosure { .. })).unwrap()
        else {
            unreachable!()
        };
        assert_eq!(nfree, 0);
        let body = store.chunk(chunk);
        assert_eq!(body.nparams, 2);
        assert_eq!(body.instrs, vec![Instr::LocalRef(2), Instr::Return]);
    }

    #[test]
    fn boxed_params_get_wrap_cell_prologue() {
        let (store, _, id) = compile("(lambda (a) (set! a 1) a)");
        let c = store.chunk(id);
        let Instr::MakeClosure { chunk, .. } =
            *c.instrs.iter().find(|i| matches!(i, Instr::MakeClosure { .. })).unwrap()
        else {
            unreachable!()
        };
        let body = store.chunk(chunk);
        assert_eq!(body.instrs[0], Instr::WrapCell(2));
        assert!(body.instrs.contains(&Instr::CellSet(2)));
        assert!(body.instrs.contains(&Instr::CellRef(2)));
    }

    #[test]
    fn captures_are_staged_before_make_closure() {
        let (store, _, id) = compile("(lambda (a) (lambda () a))");
        let c = store.chunk(id);
        let Instr::MakeClosure { chunk: outer_chunk, .. } =
            *c.instrs.iter().find(|i| matches!(i, Instr::MakeClosure { .. })).unwrap()
        else {
            unreachable!()
        };
        let outer = store.chunk(outer_chunk);
        // Outer body: Move{2→3}; MakeClosure{src:3,nfree:1}; Return
        assert_eq!(outer.instrs[0], Instr::Move { src: 2, dst: 3 });
        assert!(matches!(outer.instrs[1], Instr::MakeClosure { nfree: 1, src: 3, .. }));
    }

    #[test]
    fn check_policy_always_vs_never() {
        for (policy, expect) in
            [(CheckPolicy::Always, Check::Yes), (CheckPolicy::Never, Check::Elided)]
        {
            let (store, _, id) = compile_with("(g (f 1))", policy);
            let c = store.chunk(id);
            let Some(Instr::CallGlobal { check, .. }) =
                c.instrs.iter().find(|i| matches!(i, Instr::CallGlobal { .. }))
            else {
                unreachable!()
            };
            assert_eq!(*check, expect, "{policy:?}");
        }
    }

    #[test]
    fn elide_skips_checks_for_direct_leaf_lambdas() {
        // ((lambda (x) x) (f 1)) — outer call is direct to a leaf.
        let (store, _, id) = compile("(g ((lambda (x) x) 1))");
        let c = store.chunk(id);
        let checks: Vec<Check> = c
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Call { check, .. } => Some(*check),
                _ => None,
            })
            .collect();
        assert_eq!(checks, vec![Check::Elided], "direct leaf application is uncheck");
    }

    #[test]
    fn elide_keeps_checks_for_non_leaf_lambdas() {
        // (let ((t 1)) (* t t)) expands to a direct lambda application whose
        // body calls a primitive, so the lambda is not a leaf and the call
        // keeps its check.
        let store = CodeStore::new();
        let mut globals = Globals::new();
        crate::primitives::install(&mut globals);
        let mut ex = Expander::new();
        let id = compile_toplevel(
            &read_one("(g (let ((t 1)) (* t t)))").unwrap(),
            &mut ex,
            &store,
            &mut globals,
            &CompileOptions::default(),
        )
        .unwrap();
        let c = store.chunk(id);
        let checks: Vec<Check> = c
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Call { check, .. } => Some(*check),
                _ => None,
            })
            .collect();
        assert_eq!(checks, vec![Check::Yes]);
    }

    #[test]
    fn if_compiles_with_patched_jumps() {
        let (store, _, id) = compile("(if #t 1 2)");
        let c = store.chunk(id);
        assert!(matches!(c.instrs[0], Instr::True));
        let Instr::JumpIfFalse(t) = c.instrs[1] else { panic!("{:?}", c.instrs) };
        // In tail position both arms end with Return; the false target is
        // past the then-arm.
        assert!(matches!(c.instrs[t as usize], Instr::Fix(2)));
    }

    #[test]
    fn frame_bound_violation_is_a_compile_error() {
        let args = (0..70).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        let store = CodeStore::new();
        let mut globals = Globals::new();
        let mut ex = Expander::new();
        let opts = CompileOptions { policy: CheckPolicy::Elide, ..CompileOptions::default() };
        let err = compile_toplevel(
            &read_one(&format!("(f {args})")).unwrap(),
            &mut ex,
            &store,
            &mut globals,
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, SchemeError::Compile { .. }));
    }

    #[test]
    fn frame_slots_are_recorded_for_e14() {
        let (store, _, id) = compile("(f (g 1 2) (h 3))");
        let c = store.chunk(id);
        assert!(c.frame_slots >= 5, "frame slots: {}", c.frame_slots);
    }
}
