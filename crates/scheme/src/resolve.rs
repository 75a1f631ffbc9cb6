//! Variable resolution, assignment conversion and closure conversion.
//!
//! Three analyses fused into one pass over the core AST:
//!
//! * **Scoping**: every variable reference becomes a frame slot, a closure
//!   free-variable index, or a global slot.
//! * **Assignment conversion**: any parameter targeted by `set!` (anywhere
//!   in its scope) is *boxed* — the frame slot holds a heap cell, and all
//!   reads/writes go through it. This is the paper's "pointers to cells in
//!   the heap containing the actual parameters if the parameters are
//!   assignable" (§3), and it is what makes frame slots single-assignment,
//!   so sealed stack segments can be shared or copied freely.
//! * **Closure conversion**: each lambda gets a flat capture list; a
//!   captured boxed variable captures the *cell*, preserving sharing.
//!
//! A `letrec`-bound procedure is the one exception to boxing. The expander
//! gives `letrec`, internal defines, named `let` and `do` one shape, a
//! lambda whose body opens with `(set! v init)…` for its own parameters,
//! and a `v` whose only assignment is that `set!` and whose `init` is a
//! lambda is assigned just once, to that lambda's closure (Keep, Hearn &
//! Dybvig, "Optimizing Closures in O(0) Time"):
//!
//! * inside the init lambda, and lambdas nested in it, `v` is the running
//!   closure in frame slot 1, so the closure captures neither itself nor
//!   a cell;
//! * if no earlier init refers to `v`, nothing reads `v` before its init
//!   runs, so `v` needs no cell at all, and its `set!` initialises the
//!   plain slot ([`RExpr::LocalInit`]). Re-entering an earlier init's
//!   continuation runs the init again before anything reads `v`.
//!
//! A `v` that an earlier init refers to (mutual recursion, forward
//! references) keeps its cell for everyone but itself.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::ast::{Ast, AstLambda, LambdaId};
use crate::code::Globals;
use crate::error::SchemeError;
use crate::intern::Symbol;
use crate::value::Value;

/// A resolved expression.
#[derive(Clone, Debug)]
pub enum RExpr {
    /// Literal.
    Quote(Value),
    /// Read an unboxed frame slot.
    LocalRef(u16),
    /// Read through the cell in a frame slot.
    LocalCellRef(u16),
    /// Read an unboxed captured value.
    FreeRef(u16),
    /// Read through a captured cell.
    FreeCellRef(u16),
    /// Read a global.
    GlobalRef(u32),
    /// Write through the cell in a frame slot.
    LocalCellSet(u16, Box<RExpr>),
    /// Initialise a plain frame slot: the `set!` that binds a cell-free
    /// `letrec` procedure.
    LocalInit(u16, Box<RExpr>),
    /// Write through a captured cell.
    FreeCellSet(u16, Box<RExpr>),
    /// `set!` a global.
    GlobalSet(u32, Box<RExpr>),
    /// `define` a global (top level only).
    GlobalDef(u32, Box<RExpr>),
    /// Conditional.
    If(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// Sequence.
    Begin(Vec<RExpr>),
    /// Procedure call.
    Call(Box<RExpr>, Vec<RExpr>),
    /// Lambda (closure template).
    Lambda(Rc<RLambda>),
}

/// How a lambda loads one captured value, evaluated in the *enclosing*
/// frame at closure-creation time. Boxed variables capture their cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capture {
    /// Raw read of an enclosing frame slot.
    Local(u16),
    /// Raw read of the enclosing closure's capture.
    Free(u16),
}

/// A resolved lambda.
#[derive(Clone, Debug)]
pub struct RLambda {
    /// Required parameter count.
    pub nparams: u16,
    /// Rest-parameter flag (rest list bound to the last parameter).
    pub variadic: bool,
    /// Which parameters are assignment-converted (boxed at entry).
    pub boxed_params: Vec<bool>,
    /// Captured free variables, in capture-list order.
    pub captures: Vec<Capture>,
    /// The body.
    pub body: RExpr,
    /// Name for diagnostics.
    pub name: Option<Symbol>,
    /// Whether the body performs no calls (leaf procedure — eligible for
    /// overflow-check elision at call sites, §5).
    pub leaf: bool,
}

/// Offset of parameter 0 within a frame: slot 0 is the return address,
/// slot 1 the closure.
pub const PARAM_BASE: u16 = 2;

/// Resolves a top-level core expression.
///
/// # Errors
///
/// [`SchemeError::Compile`] on malformed programs (`define` in expression
/// position).
pub fn resolve_toplevel(ast: &Ast, globals: &mut Globals) -> Result<RExpr, SchemeError> {
    let assigned = collect_assigned(ast);
    let mut r = Resolver {
        assigned,
        self_inits: HashMap::new(),
        referenced: HashSet::new(),
        globals,
        frames: Vec::new(),
    };
    r.resolve(ast, true)
}

/// A binding site: which lambda, which parameter.
type BindId = (LambdaId, usize);

/// Counts the `set!`s targeting each binding anywhere in its scope.
fn collect_assigned(ast: &Ast) -> HashMap<BindId, u32> {
    fn walk(ast: &Ast, scope: &mut Vec<(LambdaId, Vec<Symbol>)>, out: &mut HashMap<BindId, u32>) {
        match ast {
            Ast::Quote(_) | Ast::Var(_) => {}
            Ast::Set(name, value) => {
                // Find the innermost binder of `name`.
                for (id, params) in scope.iter().rev() {
                    if let Some(i) = params.iter().rposition(|p| p == name) {
                        *out.entry((*id, i)).or_default() += 1;
                        break;
                    }
                }
                walk(value, scope, out);
            }
            Ast::If(c, t, e) => {
                walk(c, scope, out);
                walk(t, scope, out);
                walk(e, scope, out);
            }
            Ast::Lambda(l) => {
                scope.push((l.id, l.params.clone()));
                walk(&l.body, scope, out);
                scope.pop();
            }
            Ast::Call(op, args) => {
                walk(op, scope, out);
                for a in args {
                    walk(a, scope, out);
                }
            }
            Ast::Begin(es) => {
                for e in es {
                    walk(e, scope, out);
                }
            }
            Ast::Define(_, value) => walk(value, scope, out),
        }
    }
    let mut out = HashMap::new();
    walk(ast, &mut Vec::new(), &mut out);
    out
}

/// One lambda's scope during resolution.
struct FrameScope {
    id: LambdaId,
    params: Vec<Symbol>,
    /// The `letrec` binding whose init this lambda is: slot 1 holds its
    /// value.
    self_bind: Option<BindId>,
    /// Free variables accumulated so far (append-only; indices are final).
    free: Vec<Symbol>,
}

struct Resolver<'a> {
    /// `set!` counts per binding; a cell-free `letrec` binding is removed,
    /// since its one `set!` initialises its slot.
    assigned: HashMap<BindId, u32>,
    /// Init lambdas of `letrec` procedure bindings, by lambda.
    self_inits: HashMap<LambdaId, BindId>,
    /// Bindings referred to so far, in program order.
    referenced: HashSet<BindId>,
    globals: &'a mut Globals,
    frames: Vec<FrameScope>,
}

impl Resolver<'_> {
    /// Is binding `b` boxed?
    fn boxed(&self, b: BindId) -> bool {
        self.assigned.contains_key(&b)
    }

    /// Finds the binding frame of `sym` and threads it as a free variable
    /// through every intervening lambda. Returns `None` for globals,
    /// `Some((kind, boxed))` otherwise, where kind is Local/Free relative
    /// to the innermost frame.
    fn lookup(&mut self, sym: Symbol) -> Option<(Capture, bool)> {
        let n = self.frames.len();
        if n == 0 {
            return None;
        }
        // Innermost binding frame.
        let db = (0..n).rev().find(|&d| self.frames[d].params.contains(&sym))?;
        let pidx = self.frames[db].params.iter().rposition(|p| *p == sym).expect("just found");
        let bind = (self.frames[db].id, pidx);
        self.referenced.insert(bind);
        // The frame whose slot holds the value: inside its own init
        // lambda, a `letrec` procedure is that lambda's running closure.
        let self_frame = (db + 1..n).find(|&d| self.frames[d].self_bind == Some(bind));
        let (home, slot, boxed) = match self_frame {
            Some(d) => (d, 1, false),
            None => (db, PARAM_BASE + pidx as u16, self.boxed(bind)),
        };
        if home == n - 1 {
            return Some((Capture::Local(slot), boxed));
        }
        // Thread through frames home+1 ..= n-1.
        for d in home + 1..n {
            if !self.frames[d].free.contains(&sym) {
                self.frames[d].free.push(sym);
            }
        }
        let idx = self.frames[n - 1].free.iter().position(|f| *f == sym).expect("just added");
        Some((Capture::Free(idx as u16), boxed))
    }

    fn resolve(&mut self, ast: &Ast, toplevel: bool) -> Result<RExpr, SchemeError> {
        match ast {
            Ast::Quote(v) => Ok(RExpr::Quote(v.clone())),
            Ast::Var(sym) => Ok(match self.lookup(*sym) {
                Some((Capture::Local(slot), false)) => RExpr::LocalRef(slot),
                Some((Capture::Local(slot), true)) => RExpr::LocalCellRef(slot),
                Some((Capture::Free(idx), false)) => RExpr::FreeRef(idx),
                Some((Capture::Free(idx), true)) => RExpr::FreeCellRef(idx),
                None => RExpr::GlobalRef(self.globals.slot(*sym)),
            }),
            Ast::Set(sym, value) => {
                let value = Box::new(self.resolve(value, false)?);
                Ok(match self.lookup(*sym) {
                    Some((Capture::Local(slot), true)) => RExpr::LocalCellSet(slot, value),
                    Some((Capture::Free(idx), true)) => RExpr::FreeCellSet(idx, value),
                    // Only a cell-free binding's own init assigns it.
                    Some((Capture::Local(slot), false)) => RExpr::LocalInit(slot, value),
                    Some((Capture::Free(_), false)) => {
                        unreachable!("set! target not marked assigned")
                    }
                    None => RExpr::GlobalSet(self.globals.slot(*sym), value),
                })
            }
            Ast::If(c, t, e) => Ok(RExpr::If(
                Box::new(self.resolve(c, false)?),
                Box::new(self.resolve(t, false)?),
                Box::new(self.resolve(e, false)?),
            )),
            Ast::Begin(es) => {
                let rs =
                    es.iter().map(|e| self.resolve(e, toplevel)).collect::<Result<Vec<_>, _>>()?;
                Ok(RExpr::Begin(rs))
            }
            Ast::Call(op, args) => Ok(RExpr::Call(
                Box::new(self.resolve(op, false)?),
                args.iter().map(|a| self.resolve(a, false)).collect::<Result<Vec<_>, _>>()?,
            )),
            Ast::Define(name, value) => {
                if !toplevel {
                    return Err(SchemeError::compile(format!(
                        "define of {name} in expression position"
                    )));
                }
                let g = self.globals.slot(*name);
                let value = Box::new(self.resolve(value, false)?);
                Ok(RExpr::GlobalDef(g, value))
            }
            Ast::Lambda(l) => self.resolve_lambda(l),
        }
    }

    /// Records the init lambda of each `letrec` procedure among `l`'s
    /// parameters: a `v` of the `(set! v init)…` that open `l`'s body
    /// whose only assignment is that `set!` and whose init is a lambda.
    fn find_letrec_procedures(&mut self, l: &AstLambda) {
        let seq = match &l.body {
            Ast::Begin(es) => es.as_slice(),
            one => std::slice::from_ref(one),
        };
        for e in seq {
            let Ast::Set(v, init) = e else { break };
            let Some(i) = l.params.iter().rposition(|p| p == v) else { break };
            if let Ast::Lambda(f) = &**init {
                if self.assigned.get(&(l.id, i)) == Some(&1) {
                    self.self_inits.insert(f.id, (l.id, i));
                }
            }
        }
    }

    fn resolve_lambda(&mut self, l: &AstLambda) -> Result<RExpr, SchemeError> {
        let leaf = !l.body.contains_call();
        self.find_letrec_procedures(l);
        let self_bind = self.self_inits.get(&l.id).copied();
        if let Some(b) = self_bind {
            // Resolution follows program order, so a reference seen by
            // now is one from an earlier init. Without one, nothing reads
            // the binding before this init runs, and it needs no cell.
            if !self.referenced.contains(&b) {
                self.assigned.remove(&b);
            }
        }
        self.frames.push(FrameScope {
            id: l.id,
            params: l.params.clone(),
            self_bind,
            free: Vec::new(),
        });
        let body = self.resolve(&l.body, false)?;
        let frame = self.frames.pop().expect("frame pushed above");
        let boxed_params = (0..l.params.len()).map(|i| self.boxed((l.id, i))).collect();
        // Resolve captures in the (now innermost) enclosing context; boxed
        // variables capture the cell itself, so raw reads either way.
        let mut captures = Vec::with_capacity(frame.free.len());
        for sym in &frame.free {
            let (cap, _boxed) =
                self.lookup(*sym).expect("free variable must be bound in an enclosing frame");
            captures.push(cap);
        }
        Ok(RExpr::Lambda(Rc::new(RLambda {
            nparams: l.params.len() as u16,
            variadic: l.variadic,
            boxed_params,
            captures,
            body,
            name: l.name,
            leaf,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::Expander;
    use crate::reader::read_one;

    fn resolve(src: &str) -> (RExpr, Globals) {
        let ast = Expander::new().expand_toplevel(&read_one(src).unwrap()).unwrap();
        let mut globals = Globals::new();
        let r = resolve_toplevel(&ast, &mut globals).unwrap();
        (r, globals)
    }

    fn lambda_of(r: &RExpr) -> Rc<RLambda> {
        match r {
            RExpr::Lambda(l) => l.clone(),
            _ => panic!("expected lambda, got {r:?}"),
        }
    }

    #[test]
    fn globals_are_allocated() {
        let (r, globals) = resolve("x");
        assert!(matches!(r, RExpr::GlobalRef(0)));
        assert_eq!(globals.name(0), Symbol::intern("x"));
    }

    #[test]
    fn params_resolve_to_slots() {
        let (r, _) = resolve("(lambda (a b) b)");
        let l = lambda_of(&r);
        assert!(matches!(l.body, RExpr::LocalRef(3)), "b is the second param: slot 3");
        assert_eq!(l.boxed_params, vec![false, false]);
        assert!(l.leaf);
    }

    #[test]
    fn assigned_params_are_boxed() {
        let (r, _) = resolve("(lambda (a) (set! a 1) a)");
        let l = lambda_of(&r);
        assert_eq!(l.boxed_params, vec![true]);
        let RExpr::Begin(es) = &l.body else { panic!() };
        assert!(matches!(es[0], RExpr::LocalCellSet(2, _)));
        assert!(matches!(es[1], RExpr::LocalCellRef(2)));
    }

    #[test]
    fn free_variables_are_captured() {
        let (r, _) = resolve("(lambda (a) (lambda (b) a))");
        let outer = lambda_of(&r);
        let inner = lambda_of(&outer.body);
        assert_eq!(inner.captures, vec![Capture::Local(2)]);
        assert!(matches!(inner.body, RExpr::FreeRef(0)));
    }

    #[test]
    fn free_variables_thread_through_intermediate_lambdas() {
        let (r, _) = resolve("(lambda (a) (lambda (b) (lambda (c) a)))");
        let l1 = lambda_of(&r);
        let l2 = lambda_of(&l1.body);
        let l3 = lambda_of(&l2.body);
        assert_eq!(
            l2.captures,
            vec![Capture::Local(2)],
            "middle captures a from its enclosing frame"
        );
        assert_eq!(
            l3.captures,
            vec![Capture::Free(0)],
            "inner captures a from the middle's closure"
        );
        assert!(matches!(l3.body, RExpr::FreeRef(0)));
    }

    #[test]
    fn assigned_free_variables_use_cells_at_both_levels() {
        let (r, _) = resolve("(lambda (a) (lambda () (set! a 1)) a)");
        let outer = lambda_of(&r);
        assert_eq!(outer.boxed_params, vec![true]);
        let RExpr::Begin(es) = &outer.body else { panic!() };
        let inner = lambda_of(&es[0]);
        assert_eq!(inner.captures, vec![Capture::Local(2)], "captures the cell slot raw");
        assert!(matches!(inner.body, RExpr::FreeCellSet(0, _)));
        assert!(matches!(es[1], RExpr::LocalCellRef(2)), "outer read goes through the cell");
    }

    #[test]
    fn set_on_global() {
        let (r, _) = resolve("(lambda () (set! g 1))");
        let l = lambda_of(&r);
        assert!(matches!(l.body, RExpr::GlobalSet(0, _)));
    }

    #[test]
    fn leaf_detection() {
        let (r, _) = resolve("(lambda (a) (+ a 1))");
        assert!(!lambda_of(&r).leaf, "a call to + is still a call");
        let (r, _) = resolve("(lambda (a) (if a 1 2))");
        assert!(lambda_of(&r).leaf);
    }

    #[test]
    fn let_bound_variables_are_params_after_expansion() {
        let (r, _) = resolve("(let ((x 1)) (let ((y 2)) (set! x y) x))");
        let RExpr::Call(op, _) = r else { panic!() };
        let outer = lambda_of(&op);
        assert_eq!(outer.boxed_params, vec![true], "x is assigned in the inner let");
    }

    #[test]
    fn same_name_shadowing_resolves_innermost() {
        let (r, _) = resolve("(lambda (x) (lambda (x) x))");
        let outer = lambda_of(&r);
        let inner = lambda_of(&outer.body);
        assert!(inner.captures.is_empty(), "inner x shadows; no capture needed");
        assert!(matches!(inner.body, RExpr::LocalRef(2)));
    }

    /// The `letrec` lambda of a `((lambda (v…) …) #unspecified…)` call.
    fn letrec_of(r: &RExpr) -> Rc<RLambda> {
        let RExpr::Call(op, _) = r else { panic!("expected a call, got {r:?}") };
        lambda_of(op)
    }

    /// The `i`th element of a lambda's body sequence.
    fn body_at(l: &RLambda, i: usize) -> &RExpr {
        let RExpr::Begin(es) = &l.body else { panic!("expected a sequence, got {:?}", l.body) };
        &es[i]
    }

    #[test]
    fn named_let_procedure_needs_no_cell() {
        let (r, _) = resolve("(let loop ((i 3)) (if (= i 0) 0 (loop (- i 1))))");
        let block = letrec_of(&r);
        assert_eq!(block.boxed_params, vec![false], "no cell for loop");
        let RExpr::LocalInit(2, init) = body_at(&block, 0) else { panic!("{:?}", block.body) };
        let proc = lambda_of(init);
        assert!(proc.captures.is_empty(), "loop captures neither itself nor a cell");
        let RExpr::If(_, _, els) = &proc.body else { panic!("{:?}", proc.body) };
        let RExpr::Call(op, _) = &**els else { panic!("{els:?}") };
        assert!(matches!(**op, RExpr::LocalRef(1)), "the self-call's operator is slot 1");
    }

    #[test]
    fn nested_lambdas_capture_the_running_closure() {
        let (r, _) = resolve("(letrec ((f (lambda () (lambda () f)))) f)");
        let block = letrec_of(&r);
        let RExpr::LocalInit(2, init) = body_at(&block, 0) else { panic!("{:?}", block.body) };
        let inner = lambda_of(&lambda_of(init).body);
        assert_eq!(inner.captures, vec![Capture::Local(1)], "captured from f's slot 1");
        assert!(matches!(inner.body, RExpr::FreeRef(0)));
    }

    #[test]
    fn a_binding_an_earlier_init_refers_to_keeps_its_cell() {
        let (r, _) = resolve(
            "(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
                      (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
               (even? 4))",
        );
        let block = letrec_of(&r);
        assert_eq!(block.boxed_params, vec![false, true], "odd? is read before its init");
        let RExpr::LocalCellSet(3, init) = body_at(&block, 1) else { panic!("{:?}", block.body) };
        let odd = lambda_of(init);
        assert_eq!(odd.captures, vec![Capture::Local(2)], "odd? captures even? but not itself");
    }

    #[test]
    fn a_binding_assigned_again_keeps_its_cell() {
        let (r, _) = resolve("(letrec ((f (lambda () f))) (set! f 1) f)");
        let block = letrec_of(&r);
        assert_eq!(block.boxed_params, vec![true]);
        let RExpr::LocalCellSet(2, init) = body_at(&block, 0) else { panic!("{:?}", block.body) };
        let f = lambda_of(init);
        assert_eq!(f.captures, vec![Capture::Local(2)], "f reads its cell, not slot 1");
        assert!(matches!(f.body, RExpr::FreeCellRef(0)));
    }

    #[test]
    fn a_non_lambda_init_keeps_its_cell() {
        let (r, _) = resolve("(letrec ((x 1)) x)");
        assert_eq!(letrec_of(&r).boxed_params, vec![true]);
    }

    #[test]
    fn toplevel_define_resolves() {
        let (r, globals) = resolve("(define x 42)");
        assert!(matches!(r, RExpr::GlobalDef(0, _)));
        assert_eq!(globals.name(0), Symbol::intern("x"));
    }
}
