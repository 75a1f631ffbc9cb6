//! The expander: s-expressions → core forms.
//!
//! Rewrites every derived form into the eight core forms of [`Ast`]:
//! `let`/`let*`/`letrec`/named `let` become lambda applications, `cond`,
//! `case`, `and`, `or`, `when`, `unless` become `if` trees, `do` becomes a
//! recursive lambda, quasiquotation becomes `cons`/`append`/`list->vector`
//! calls, and internal defines become a `letrec*`-style binding block.
//!
//! Keywords are only recognized when not shadowed by a lexical binding, so
//! `(let ((if list)) (if 1 2 3))` means what R3RS says it means.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::ast::{Ast, AstLambda, LambdaId};
use crate::error::SchemeError;
use crate::intern::Symbol;
use crate::macros::MacroDef;
use crate::value::Value;

/// Expands one top-level datum into core forms.
///
/// # Errors
///
/// [`SchemeError::Compile`] on malformed special forms.
///
/// # Examples
///
/// ```
/// use segstack_scheme::{expand::Expander, read_one};
/// let mut ex = Expander::new();
/// let ast = ex.expand_toplevel(&read_one("(let ((x 1)) x)")?)?;
/// // `let` became ((lambda (x) x) 1)
/// assert!(matches!(ast, segstack_scheme::ast::Ast::Call(..)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Expander {
    next_lambda: u32,
    next_gensym: u32,
    macros: HashMap<Symbol, MacroDef>,
    macro_depth: u32,
}

/// Lexically bound names, used to suppress shadowed keywords.
type Scope = HashSet<Symbol>;

impl Expander {
    /// Creates an expander.
    pub fn new() -> Self {
        Expander::default()
    }

    /// Expands a top-level datum (definitions allowed).
    ///
    /// # Errors
    ///
    /// [`SchemeError::Compile`] on malformed input.
    pub fn expand_toplevel(&mut self, datum: &Value) -> Result<Ast, SchemeError> {
        self.macro_depth = 0;
        // Gensyms bind only locals of the unit being expanded, so each unit
        // can reuse the names of the last: the interner, which never frees
        // a name, stops growing with every eval.
        self.next_gensym = 0;
        self.expand_toplevel_inner(datum)
    }

    fn expand_toplevel_inner(&mut self, datum: &Value) -> Result<Ast, SchemeError> {
        let scope = Scope::new();
        if let Some((head, rest)) = self.special_head(datum, &scope) {
            match head.as_str().as_str() {
                "define" => return self.expand_define(&rest, &scope),
                "define-syntax" => {
                    let [name, spec] = self.exactly::<2>("define-syntax", rest)?;
                    let Value::Sym(name) = name else {
                        return Err(self.err(format!("define-syntax: bad name {name}")));
                    };
                    let def = MacroDef::parse(&spec)?;
                    self.macros.insert(name, def);
                    return Ok(Ast::unspecified());
                }
                _ if self.macros.contains_key(&head) => {
                    let expanded = self.apply_macro(head, datum)?;
                    return self.expand_toplevel_inner(&expanded);
                }
                "begin" => {
                    // Top-level begin splices: each form may define.
                    let mut out = Vec::new();
                    for d in &rest {
                        out.push(self.expand_toplevel_inner(d)?);
                    }
                    return Ok(match out.len() {
                        0 => Ast::unspecified(),
                        1 => out.into_iter().next().unwrap(),
                        _ => Ast::Begin(out),
                    });
                }
                _ => {}
            }
        }
        self.expand(datum, &scope)
    }

    fn err(&self, msg: impl Into<String>) -> SchemeError {
        SchemeError::compile(msg.into())
    }

    /// Expands one macro use. The counter accumulates across the whole
    /// top-level expansion (it is reset per [`Expander::expand_toplevel`]),
    /// guarding against divergent self-reproducing macros.
    fn apply_macro(&mut self, name: Symbol, form: &Value) -> Result<Value, SchemeError> {
        self.macro_depth += 1;
        if self.macro_depth > 500 {
            return Err(
                self.err(format!("macro expansion of {name} exceeds 500 steps (divergent macro?)"))
            );
        }
        self.macros[&name].expand(form)
    }

    fn gensym(&mut self, hint: &str) -> Symbol {
        self.next_gensym += 1;
        // The leading space makes gensyms unutterable in source text.
        Symbol::intern(&format!(" {hint}{}", self.next_gensym))
    }

    fn lambda_id(&mut self) -> LambdaId {
        self.next_lambda += 1;
        LambdaId(self.next_lambda)
    }

    /// If `datum` is a list headed by an unshadowed keyword-position
    /// symbol, returns the head's name and the remaining forms.
    fn special_head(&self, datum: &Value, scope: &Scope) -> Option<(Symbol, Vec<Value>)> {
        let Value::Pair(_) = datum else { return None };
        let items = datum.list_to_vec().ok()?;
        let (first, rest) = items.split_first()?;
        let Value::Sym(s) = first else { return None };
        if scope.contains(s) {
            return None;
        }
        Some((*s, rest.to_vec()))
    }

    /// Expands an expression (definitions not allowed here).
    fn expand(&mut self, datum: &Value, scope: &Scope) -> Result<Ast, SchemeError> {
        match datum {
            Value::Sym(s) => Ok(Ast::Var(*s)),
            Value::Fixnum(_)
            | Value::Flonum(_)
            | Value::Bool(_)
            | Value::Char(_)
            | Value::Str(_)
            | Value::Vector(_)
            | Value::Unspecified
            // Runtime values spliced into constructed source (e.g. a
            // continuation inside a datum handed to `eval`) are literals.
            | Value::Closure(_)
            | Value::Primitive(_)
            | Value::Kont(_)
            | Value::Port(_) => Ok(Ast::Quote(datum.clone())),
            Value::Nil => Err(self.err("illegal empty combination ()")),
            Value::Pair(_) => self.expand_form(datum, scope),
            other => Err(self.err(format!("cannot evaluate {other}"))),
        }
    }

    fn expand_form(&mut self, datum: &Value, scope: &Scope) -> Result<Ast, SchemeError> {
        if let Some((head, rest)) = self.special_head(datum, scope) {
            match head.as_str().as_str() {
                "quote" => {
                    let [x] = self.exactly::<1>("quote", rest)?;
                    return Ok(Ast::Quote(x));
                }
                "if" => return self.expand_if(rest, scope),
                "set!" => {
                    let [name, value] = self.exactly::<2>("set!", rest)?;
                    let Value::Sym(s) = name else {
                        return Err(self.err(format!("set!: not an identifier: {name}")));
                    };
                    return Ok(Ast::Set(s, Box::new(self.expand(&value, scope)?)));
                }
                "lambda" => return self.expand_lambda(rest, scope, None),
                "begin" => {
                    if rest.is_empty() {
                        return Ok(Ast::unspecified());
                    }
                    return self.expand_body(&rest, scope);
                }
                "define" => {
                    return Err(
                        self.err("define is only allowed at top level or at the head of a body")
                    )
                }
                "let" => return self.expand_let(rest, scope),
                "let*" => return self.expand_let_star(rest, scope),
                "letrec" | "letrec*" => return self.expand_letrec(rest, scope),
                "cond" => return self.expand_cond(rest, scope),
                "case" => return self.expand_case(rest, scope),
                "and" => return self.expand_and(rest, scope),
                "or" => return self.expand_or(rest, scope),
                "when" => return self.expand_when_unless(rest, scope, true),
                "unless" => return self.expand_when_unless(rest, scope, false),
                "do" => return self.expand_do(rest, scope),
                "delay" => {
                    // (delay e) → (make-promise (lambda () e))
                    let [e] = self.exactly::<1>("delay", rest)?;
                    let body = self.expand(&e, scope)?;
                    let thunk = Ast::Lambda(Rc::new(AstLambda {
                        id: self.lambda_id(),
                        params: vec![],
                        variadic: false,
                        body,
                        name: None,
                    }));
                    return Ok(Ast::Call(
                        Box::new(Ast::Var(Symbol::intern("make-promise"))),
                        vec![thunk],
                    ));
                }
                "quasiquote" => {
                    let [x] = self.exactly::<1>("quasiquote", rest)?;
                    let qq = self.quasi(&x, 1)?;
                    return self.expand(&qq, scope);
                }
                "unquote" | "unquote-splicing" => {
                    return Err(self.err(format!("{head} outside quasiquote")));
                }
                "define-syntax" => {
                    return Err(self.err("define-syntax is only allowed at top level"));
                }
                _ => {
                    if self.macros.contains_key(&head) {
                        let expanded = self.apply_macro(head, datum)?;
                        return self.expand(&expanded, scope);
                    }
                }
            }
        }
        // An ordinary combination.
        let items =
            datum.list_to_vec().map_err(|_| self.err(format!("improper combination: {datum}")))?;
        let mut it = items.into_iter();
        let op = self.expand(&it.next().expect("non-empty by construction"), scope)?;
        let args = it.map(|d| self.expand(&d, scope)).collect::<Result<Vec<_>, _>>()?;
        Ok(Ast::Call(Box::new(op), args))
    }

    fn exactly<const N: usize>(
        &self,
        form: &str,
        rest: Vec<Value>,
    ) -> Result<[Value; N], SchemeError> {
        <[Value; N]>::try_from(rest)
            .map_err(|v| self.err(format!("{form}: expected {N} forms, got {}", v.len())))
    }

    fn expand_if(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        match rest.len() {
            2 | 3 => {}
            n => return Err(self.err(format!("if: expected 2 or 3 forms, got {n}"))),
        }
        let test = self.expand(&rest[0], scope)?;
        let then = self.expand(&rest[1], scope)?;
        let els = match rest.get(2) {
            Some(e) => self.expand(e, scope)?,
            None => Ast::unspecified(),
        };
        Ok(Ast::If(Box::new(test), Box::new(then), Box::new(els)))
    }

    /// Parses a lambda parameter list: `(a b)`, `(a b . r)`, or `r`.
    fn param_list(&self, formals: &Value) -> Result<(Vec<Symbol>, bool), SchemeError> {
        let mut params = Vec::new();
        let mut cur = formals.clone();
        loop {
            match cur {
                Value::Nil => return Ok((params, false)),
                Value::Sym(s) => {
                    params.push(s);
                    return Ok((params, true));
                }
                Value::Pair(p) => {
                    let car = p.car.borrow().clone();
                    let Value::Sym(s) = car else {
                        return Err(self.err(format!("lambda: bad parameter: {car}")));
                    };
                    params.push(s);
                    let next = p.cdr.borrow().clone();
                    cur = next;
                }
                other => return Err(self.err(format!("lambda: bad parameter list tail: {other}"))),
            }
        }
    }

    fn expand_lambda(
        &mut self,
        rest: Vec<Value>,
        scope: &Scope,
        name: Option<Symbol>,
    ) -> Result<Ast, SchemeError> {
        let Some((formals, body)) = rest.split_first() else {
            return Err(self.err("lambda: missing parameter list"));
        };
        if body.is_empty() {
            return Err(self.err("lambda: empty body"));
        }
        let (params, variadic) = self.param_list(formals)?;
        {
            let mut seen = HashSet::new();
            for p in &params {
                if !seen.insert(*p) {
                    return Err(self.err(format!("lambda: duplicate parameter {p}")));
                }
            }
        }
        let mut inner = scope.clone();
        inner.extend(params.iter().copied());
        let body = self.expand_body(body, &inner)?;
        Ok(Ast::Lambda(Rc::new(AstLambda { id: self.lambda_id(), params, variadic, body, name })))
    }

    /// Expands a body: leading internal defines become a `letrec*`-style
    /// block, the rest a sequence.
    fn expand_body(&mut self, forms: &[Value], scope: &Scope) -> Result<Ast, SchemeError> {
        let mut defines: Vec<(Symbol, Value)> = Vec::new();
        let mut i = 0;
        while i < forms.len() {
            let Some((head, rest)) = self.special_head(&forms[i], scope) else { break };
            match head.as_str().as_str() {
                "define" => {
                    defines.push(self.parse_define(rest)?);
                    i += 1;
                }
                "begin"
                    if !rest.is_empty()
                        && rest.iter().all(|f| {
                            self.special_head(f, scope).is_some_and(|(h, _)| h.as_str() == "define")
                        }) =>
                {
                    for f in &rest {
                        let (_, r) = self.special_head(f, scope).expect("checked above");
                        defines.push(self.parse_define(r)?);
                    }
                    i += 1;
                }
                _ => break,
            }
        }
        let exprs = &forms[i..];
        if exprs.is_empty() {
            return Err(self.err("body has definitions but no expressions"));
        }
        if defines.is_empty() {
            let mut out = Vec::with_capacity(exprs.len());
            for e in exprs {
                out.push(self.expand(e, scope)?);
            }
            return Ok(if out.len() == 1 {
                out.into_iter().next().unwrap()
            } else {
                Ast::Begin(out)
            });
        }
        let mut inner = scope.clone();
        inner.extend(defines.iter().map(|(s, _)| *s));
        let mut binds = Vec::with_capacity(defines.len());
        for (name, value) in &defines {
            binds.push((*name, self.expand_named(value, &inner, Some(*name))?));
        }
        let mut body = Vec::with_capacity(exprs.len());
        for e in exprs {
            body.push(self.expand(e, &inner)?);
        }
        Ok(self.letrec(binds, body))
    }

    /// `((lambda (v…) (set! v init)… body…) #unspecified…)`: the one
    /// shape of `letrec`, internal defines, named `let` and `do`. The
    /// resolver compiles a procedure bound this way without a cell when
    /// nothing can read it before its init (`resolve.rs`).
    fn letrec(&mut self, binds: Vec<(Symbol, Ast)>, body: Vec<Ast>) -> Ast {
        let params = binds.iter().map(|(v, _)| *v).collect();
        let args = binds.iter().map(|_| Ast::unspecified()).collect();
        let mut seq: Vec<Ast> =
            binds.into_iter().map(|(v, init)| Ast::Set(v, Box::new(init))).collect();
        seq.extend(body);
        let lambda = Ast::Lambda(Rc::new(AstLambda {
            id: self.lambda_id(),
            params,
            variadic: false,
            body: Ast::Begin(seq),
            name: None,
        }));
        Ast::Call(Box::new(lambda), args)
    }

    /// Parses `(define name value)` / `(define (name . formals) body…)`
    /// into `(name, value-datum)` with procedure sugar resolved.
    fn parse_define(&mut self, rest: Vec<Value>) -> Result<(Symbol, Value), SchemeError> {
        let Some((target, value_forms)) = rest.split_first() else {
            return Err(self.err("define: missing name"));
        };
        match target {
            Value::Sym(s) => match value_forms.len() {
                0 => Ok((*s, Value::Unspecified)),
                1 => Ok((*s, value_forms[0].clone())),
                n => Err(self.err(format!("define: expected one value form, got {n}"))),
            },
            Value::Pair(p) => {
                // (define (name . formals) body…) → (define name (lambda formals body…))
                let name = p.car.borrow().clone();
                let Value::Sym(s) = name else {
                    return Err(self.err(format!("define: bad procedure name: {name}")));
                };
                let formals = p.cdr.borrow().clone();
                let mut lam = vec![Value::sym("lambda"), formals];
                lam.extend(value_forms.iter().cloned());
                Ok((s, Value::list(lam)))
            }
            other => Err(self.err(format!("define: bad target: {other}"))),
        }
    }

    fn expand_define(&mut self, rest: &[Value], scope: &Scope) -> Result<Ast, SchemeError> {
        let (name, value) = self.parse_define(rest.to_vec())?;
        let value_ast = self.expand_named(&value, scope, Some(name))?;
        Ok(Ast::Define(name, Box::new(value_ast)))
    }

    /// Expands `value`, attaching `name` if it is a lambda (diagnostics).
    fn expand_named(
        &mut self,
        value: &Value,
        scope: &Scope,
        name: Option<Symbol>,
    ) -> Result<Ast, SchemeError> {
        if let Some((head, rest)) = self.special_head(value, scope) {
            if head.as_str() == "lambda" {
                return self.expand_lambda(rest, scope, name);
            }
        }
        self.expand(value, scope)
    }

    /// Parses a binding list `((name init) …)`.
    fn bindings(&self, form: &Value) -> Result<Vec<(Symbol, Value)>, SchemeError> {
        let items =
            form.list_to_vec().map_err(|_| self.err(format!("bad binding list: {form}")))?;
        items
            .into_iter()
            .map(|b| {
                let pair = b.list_to_vec().map_err(|_| self.err(format!("bad binding: {b}")))?;
                match <[Value; 2]>::try_from(pair) {
                    Ok([Value::Sym(s), init]) => Ok((s, init)),
                    Ok([name, _]) => Err(self.err(format!("bad binding name: {name}"))),
                    Err(v) => Err(self.err(format!("bad binding of {} forms", v.len()))),
                }
            })
            .collect()
    }

    fn expand_let(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        // Named let: (let loop ((v i)…) body…)
        if let Some(Value::Sym(loop_name)) = rest.first() {
            let loop_name = *loop_name;
            let binds = self.bindings(&rest[1])?;
            let body = &rest[2..];
            if body.is_empty() {
                return Err(self.err("named let: empty body"));
            }
            // (letrec ((loop (lambda (v…) body…))) (loop i…))
            let lambda = {
                let mut inner = scope.clone();
                inner.insert(loop_name);
                let mut inner2 = inner.clone();
                inner2.extend(binds.iter().map(|(s, _)| *s));
                let body_ast = self.expand_body(body, &inner2)?;
                Ast::Lambda(Rc::new(AstLambda {
                    id: self.lambda_id(),
                    params: binds.iter().map(|(s, _)| *s).collect(),
                    variadic: false,
                    body: body_ast,
                    name: Some(loop_name),
                }))
            };
            let inits =
                binds.iter().map(|(_, i)| self.expand(i, scope)).collect::<Result<Vec<_>, _>>()?;
            let call_loop = Ast::Call(Box::new(Ast::Var(loop_name)), inits);
            return Ok(self.letrec(vec![(loop_name, lambda)], vec![call_loop]));
        }
        let Some((binds_form, body)) = rest.split_first() else {
            return Err(self.err("let: missing bindings"));
        };
        if body.is_empty() {
            return Err(self.err("let: empty body"));
        }
        let binds = self.bindings(binds_form)?;
        let mut inner = scope.clone();
        inner.extend(binds.iter().map(|(s, _)| *s));
        let body_ast = self.expand_body(body, &inner)?;
        let lambda = Ast::Lambda(Rc::new(AstLambda {
            id: self.lambda_id(),
            params: binds.iter().map(|(s, _)| *s).collect(),
            variadic: false,
            body: body_ast,
            name: None,
        }));
        let inits =
            binds.iter().map(|(_, i)| self.expand(i, scope)).collect::<Result<Vec<_>, _>>()?;
        Ok(Ast::Call(Box::new(lambda), inits))
    }

    fn expand_let_star(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        let Some((binds_form, body)) = rest.split_first() else {
            return Err(self.err("let*: missing bindings"));
        };
        let binds = self.bindings(binds_form)?;
        if binds.len() <= 1 {
            let mut forms = vec![binds_form.clone()];
            forms.extend(body.iter().cloned());
            return self.expand_let(forms, scope);
        }
        // (let ((v1 i1)) (let* rest body…))
        let (first, others) = binds.split_first().expect("len > 1");
        let rest_binds =
            Value::list(others.iter().map(|(s, i)| Value::list([Value::Sym(*s), i.clone()])));
        let mut inner_form = vec![Value::sym("let*"), rest_binds];
        inner_form.extend(body.iter().cloned());
        let outer_binds = Value::list([Value::list([Value::Sym(first.0), first.1.clone()])]);
        self.expand_let(vec![outer_binds, Value::list(inner_form)], scope)
    }

    fn expand_letrec(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        let Some((binds_form, body)) = rest.split_first() else {
            return Err(self.err("letrec: missing bindings"));
        };
        if body.is_empty() {
            return Err(self.err("letrec: empty body"));
        }
        let binds = self.bindings(binds_form)?;
        let mut inner = scope.clone();
        inner.extend(binds.iter().map(|(s, _)| *s));
        let mut inits = Vec::with_capacity(binds.len());
        for (name, init) in &binds {
            inits.push((*name, self.expand_named(init, &inner, Some(*name))?));
        }
        let body_ast = self.expand_body(body, &inner)?;
        Ok(self.letrec(inits, vec![body_ast]))
    }

    fn expand_cond(&mut self, clauses: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        let mut out = Ast::unspecified();
        for clause in clauses.into_iter().rev() {
            let parts =
                clause.list_to_vec().map_err(|_| self.err(format!("cond: bad clause {clause}")))?;
            let Some((test, body)) = parts.split_first() else {
                return Err(self.err("cond: empty clause"));
            };
            let is_else =
                matches!(test, Value::Sym(s) if s.as_str() == "else" && !scope.contains(s));
            if is_else {
                if body.is_empty() {
                    return Err(self.err("cond: empty else clause"));
                }
                out = self.expand_body(body, scope)?;
                continue;
            }
            if body.first().is_some_and(
                |b| matches!(b, Value::Sym(s) if s.as_str() == "=>" && !scope.contains(s)),
            ) {
                // (test => receiver): ((lambda (t) (if t (receiver t) else)) test)
                let [_, receiver] = self
                    .exactly::<2>("cond =>", body.to_vec())
                    .map_err(|_| self.err("cond: => clause needs exactly one receiver"))?;
                let t = self.gensym("t");
                let mut inner = scope.clone();
                inner.insert(t);
                let recv = self.expand(&receiver, &inner)?;
                let branch = Ast::If(
                    Box::new(Ast::Var(t)),
                    Box::new(Ast::Call(Box::new(recv), vec![Ast::Var(t)])),
                    Box::new(out),
                );
                let lambda = Ast::Lambda(Rc::new(AstLambda {
                    id: self.lambda_id(),
                    params: vec![t],
                    variadic: false,
                    body: branch,
                    name: None,
                }));
                out = Ast::Call(Box::new(lambda), vec![self.expand(test, scope)?]);
                continue;
            }
            let test_ast = self.expand(test, scope)?;
            if body.is_empty() {
                // (test): the test's value if true.
                let t = self.gensym("t");
                let branch = Ast::If(Box::new(Ast::Var(t)), Box::new(Ast::Var(t)), Box::new(out));
                let lambda = Ast::Lambda(Rc::new(AstLambda {
                    id: self.lambda_id(),
                    params: vec![t],
                    variadic: false,
                    body: branch,
                    name: None,
                }));
                out = Ast::Call(Box::new(lambda), vec![test_ast]);
            } else {
                let body_ast = self.expand_body(body, scope)?;
                out = Ast::If(Box::new(test_ast), Box::new(body_ast), Box::new(out));
            }
        }
        Ok(out)
    }

    fn expand_case(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        let Some((key, clauses)) = rest.split_first() else {
            return Err(self.err("case: missing key"));
        };
        // (let ((t key)) (cond ((memv t '(d…)) body…) … (else …)))
        let t = self.gensym("k");
        let mut inner = scope.clone();
        inner.insert(t);
        let mut out = Ast::unspecified();
        for clause in clauses.iter().rev() {
            let parts =
                clause.list_to_vec().map_err(|_| self.err(format!("case: bad clause {clause}")))?;
            let Some((data, body)) = parts.split_first() else {
                return Err(self.err("case: empty clause"));
            };
            if body.is_empty() {
                return Err(self.err("case: clause without body"));
            }
            let body_ast = self.expand_body(body, &inner)?;
            let is_else =
                matches!(data, Value::Sym(s) if s.as_str() == "else" && !scope.contains(s));
            if is_else {
                out = body_ast;
                continue;
            }
            let data_list =
                data.list_to_vec().map_err(|_| self.err(format!("case: bad datum list {data}")))?;
            let test = Ast::Call(
                Box::new(Ast::Var(Symbol::intern("memv"))),
                vec![Ast::Var(t), Ast::Quote(Value::list(data_list))],
            );
            out = Ast::If(Box::new(test), Box::new(body_ast), Box::new(out));
        }
        let lambda = Ast::Lambda(Rc::new(AstLambda {
            id: self.lambda_id(),
            params: vec![t],
            variadic: false,
            body: out,
            name: None,
        }));
        Ok(Ast::Call(Box::new(lambda), vec![self.expand(key, scope)?]))
    }

    fn expand_and(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        match rest.split_first() {
            None => Ok(Ast::Quote(Value::Bool(true))),
            Some((only, [])) => self.expand(only, scope),
            Some((first, others)) => {
                let first_ast = self.expand(first, scope)?;
                let rest_ast = self.expand_and(others.to_vec(), scope)?;
                Ok(Ast::If(
                    Box::new(first_ast),
                    Box::new(rest_ast),
                    Box::new(Ast::Quote(Value::Bool(false))),
                ))
            }
        }
    }

    fn expand_or(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        match rest.split_first() {
            None => Ok(Ast::Quote(Value::Bool(false))),
            Some((only, [])) => self.expand(only, scope),
            Some((first, others)) => {
                // ((lambda (t) (if t t (or …))) first)
                let t = self.gensym("t");
                let mut inner = scope.clone();
                inner.insert(t);
                let rest_ast = self.expand_or(others.to_vec(), &inner)?;
                let branch =
                    Ast::If(Box::new(Ast::Var(t)), Box::new(Ast::Var(t)), Box::new(rest_ast));
                let lambda = Ast::Lambda(Rc::new(AstLambda {
                    id: self.lambda_id(),
                    params: vec![t],
                    variadic: false,
                    body: branch,
                    name: None,
                }));
                Ok(Ast::Call(Box::new(lambda), vec![self.expand(first, scope)?]))
            }
        }
    }

    fn expand_when_unless(
        &mut self,
        rest: Vec<Value>,
        scope: &Scope,
        when: bool,
    ) -> Result<Ast, SchemeError> {
        let form = if when { "when" } else { "unless" };
        let Some((test, body)) = rest.split_first() else {
            return Err(self.err(format!("{form}: missing test")));
        };
        if body.is_empty() {
            return Err(self.err(format!("{form}: empty body")));
        }
        let test_ast = self.expand(test, scope)?;
        let body_ast = self.expand_body(body, scope)?;
        Ok(if when {
            Ast::If(Box::new(test_ast), Box::new(body_ast), Box::new(Ast::unspecified()))
        } else {
            Ast::If(Box::new(test_ast), Box::new(Ast::unspecified()), Box::new(body_ast))
        })
    }

    fn expand_do(&mut self, rest: Vec<Value>, scope: &Scope) -> Result<Ast, SchemeError> {
        if rest.len() < 2 {
            return Err(self.err("do: expected bindings and a test clause"));
        }
        let specs = rest[0].list_to_vec().map_err(|_| self.err("do: bad binding list"))?;
        let mut vars = Vec::new();
        for spec in &specs {
            let parts =
                spec.list_to_vec().map_err(|_| self.err(format!("do: bad binding {spec}")))?;
            match parts.as_slice() {
                [Value::Sym(s), init] => vars.push((*s, init.clone(), Value::Sym(*s))),
                [Value::Sym(s), init, step] => vars.push((*s, init.clone(), step.clone())),
                _ => return Err(self.err(format!("do: bad binding {spec}"))),
            }
        }
        let test_clause = rest[1].list_to_vec().map_err(|_| self.err("do: bad test clause"))?;
        let Some((test, result)) = test_clause.split_first() else {
            return Err(self.err("do: empty test clause"));
        };
        let body = &rest[2..];
        // (let loop ((v init)…)
        //   (if test (begin result…) (begin body… (loop step…))))
        let loop_name = self.gensym("do-loop");
        let mut inner = scope.clone();
        inner.insert(loop_name);
        inner.extend(vars.iter().map(|(s, _, _)| *s));

        let test_ast = self.expand(test, &inner)?;
        let result_ast =
            if result.is_empty() { Ast::unspecified() } else { self.expand_body(result, &inner)? };
        let steps = vars
            .iter()
            .map(|(_, _, step)| self.expand(step, &inner))
            .collect::<Result<Vec<_>, _>>()?;
        let recur = Ast::Call(Box::new(Ast::Var(loop_name)), steps);
        let mut iter_seq = Vec::new();
        for b in body {
            iter_seq.push(self.expand(b, &inner)?);
        }
        iter_seq.push(recur);
        let loop_body = Ast::If(
            Box::new(test_ast),
            Box::new(result_ast),
            Box::new(if iter_seq.len() == 1 {
                iter_seq.into_iter().next().unwrap()
            } else {
                Ast::Begin(iter_seq)
            }),
        );
        let lambda = Ast::Lambda(Rc::new(AstLambda {
            id: self.lambda_id(),
            params: vars.iter().map(|(s, _, _)| *s).collect(),
            variadic: false,
            body: loop_body,
            name: Some(loop_name),
        }));
        let inits = vars
            .iter()
            .map(|(_, init, _)| self.expand(init, scope))
            .collect::<Result<Vec<_>, _>>()?;
        let call_loop = Ast::Call(Box::new(Ast::Var(loop_name)), inits);
        Ok(self.letrec(vec![(loop_name, lambda)], vec![call_loop]))
    }

    /// Quasiquote expansion (R3RS, with nesting) producing a plain datum to
    /// re-expand.
    fn quasi(&mut self, datum: &Value, depth: u32) -> Result<Value, SchemeError> {
        match datum {
            Value::Pair(p) => {
                let car = p.car.borrow().clone();
                let cdr = p.cdr.borrow().clone();
                // (unquote e)
                if let Value::Sym(s) = &car {
                    if s.as_str() == "unquote" {
                        let e = cdr.car()?;
                        return if depth == 1 {
                            Ok(e)
                        } else {
                            Ok(Value::list([
                                Value::sym("list"),
                                Value::list([Value::sym("quote"), Value::sym("unquote")]),
                                self.quasi(&e, depth - 1)?,
                            ]))
                        };
                    }
                    if s.as_str() == "quasiquote" {
                        let e = cdr.car()?;
                        return Ok(Value::list([
                            Value::sym("list"),
                            Value::list([Value::sym("quote"), Value::sym("quasiquote")]),
                            self.quasi(&e, depth + 1)?,
                        ]));
                    }
                }
                // ((unquote-splicing e) . d)
                if let Value::Pair(inner) = &car {
                    let icar = inner.car.borrow().clone();
                    if matches!(&icar, Value::Sym(s) if s.as_str() == "unquote-splicing") {
                        let e = inner.cdr.borrow().car()?;
                        if depth == 1 {
                            return Ok(Value::list([
                                Value::sym("append"),
                                e,
                                self.quasi(&cdr, depth)?,
                            ]));
                        }
                    }
                }
                Ok(Value::list([
                    Value::sym("cons"),
                    self.quasi(&car, depth)?,
                    self.quasi(&cdr, depth)?,
                ]))
            }
            Value::Vector(items) => {
                let as_list = Value::list(items.borrow().iter().cloned());
                Ok(Value::list([Value::sym("list->vector"), self.quasi(&as_list, depth)?]))
            }
            other => Ok(Value::list([Value::sym("quote"), other.clone()])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_one;

    fn expand(src: &str) -> Ast {
        Expander::new().expand_toplevel(&read_one(src).unwrap()).unwrap()
    }

    fn expand_err(src: &str) -> SchemeError {
        Expander::new().expand_toplevel(&read_one(src).unwrap()).unwrap_err()
    }

    #[test]
    fn atoms_and_quote() {
        assert!(matches!(expand("42"), Ast::Quote(Value::Fixnum(42))));
        assert!(matches!(expand("x"), Ast::Var(_)));
        assert!(matches!(expand("'(1 2)"), Ast::Quote(_)));
        assert!(matches!(expand("\"s\""), Ast::Quote(_)));
    }

    #[test]
    fn if_two_and_three_arm() {
        assert!(matches!(expand("(if 1 2 3)"), Ast::If(..)));
        let Ast::If(_, _, els) = expand("(if 1 2)") else { panic!() };
        assert!(matches!(*els, Ast::Quote(Value::Unspecified)));
        assert!(matches!(expand_err("(if 1)"), SchemeError::Compile { .. }));
    }

    #[test]
    fn lambda_forms() {
        let Ast::Lambda(l) = expand("(lambda (a b) a)") else { panic!() };
        assert_eq!(l.params.len(), 2);
        assert!(!l.variadic);
        let Ast::Lambda(l) = expand("(lambda (a . r) a)") else { panic!() };
        assert_eq!(l.params.len(), 2);
        assert!(l.variadic);
        let Ast::Lambda(l) = expand("(lambda args args)") else { panic!() };
        assert_eq!(l.params.len(), 1);
        assert!(l.variadic);
        assert!(matches!(expand_err("(lambda (a a) a)"), SchemeError::Compile { .. }));
        assert!(matches!(expand_err("(lambda (a))"), SchemeError::Compile { .. }));
    }

    #[test]
    fn define_sugar() {
        let Ast::Define(name, value) = expand("(define (f x) x)") else { panic!() };
        assert_eq!(name, Symbol::intern("f"));
        let Ast::Lambda(l) = *value else { panic!() };
        assert_eq!(l.name, Some(Symbol::intern("f")));
        assert_eq!(l.params.len(), 1);
    }

    #[test]
    fn let_becomes_lambda_application() {
        let Ast::Call(op, args) = expand("(let ((x 1) (y 2)) x)") else { panic!() };
        assert!(matches!(*op, Ast::Lambda(_)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn named_let_and_do_expand_to_loops() {
        assert!(matches!(
            expand("(let loop ((i 0)) (if (< i 10) (loop (+ i 1)) i))"),
            Ast::Call(..)
        ));
        assert!(matches!(expand("(do ((i 0 (+ i 1))) ((= i 10) i))"), Ast::Call(..)));
    }

    #[test]
    fn shadowed_keywords_are_ordinary_variables() {
        // `if` bound by the lambda: the inner (if 1 2 3) is a call.
        let Ast::Lambda(l) = expand("(lambda (if) (if 1 2 3))") else { panic!() };
        assert!(matches!(&l.body, Ast::Call(..)));
    }

    #[test]
    fn and_or_expand() {
        assert!(matches!(expand("(and)"), Ast::Quote(Value::Bool(true))));
        assert!(matches!(expand("(or)"), Ast::Quote(Value::Bool(false))));
        assert!(matches!(expand("(and 1 2)"), Ast::If(..)));
        assert!(matches!(expand("(or 1 2)"), Ast::Call(..)));
    }

    #[test]
    fn cond_with_else_and_arrow() {
        assert!(matches!(expand("(cond (#t 1) (else 2))"), Ast::If(..)));
        assert!(matches!(expand("(cond ((assv 1 x) => cdr) (else 2))"), Ast::Call(..)));
        assert!(matches!(expand("(cond (1))"), Ast::Call(..)));
    }

    #[test]
    fn internal_defines_become_a_binding_block() {
        let src = "(lambda (x) (define y 1) (define (z) y) (z))";
        let Ast::Lambda(l) = expand(src) else { panic!() };
        let Ast::Call(inner_op, inner_args) = &l.body else { panic!("body: {:?}", l.body) };
        assert!(matches!(&**inner_op, Ast::Lambda(_)));
        assert_eq!(inner_args.len(), 2);
    }

    #[test]
    fn toplevel_begin_splices_defines() {
        let src = "(begin (define a 1) (define b 2))";
        let Ast::Begin(forms) = expand(src) else { panic!() };
        assert!(forms.iter().all(|f| matches!(f, Ast::Define(..))));
    }

    #[test]
    fn define_in_expression_position_fails() {
        assert!(matches!(expand_err("(+ 1 (define x 2))"), SchemeError::Compile { .. }));
    }

    #[test]
    fn quasiquote_expansion() {
        // `(1 ,x ,@ys 2) → (cons '1 (cons x (append ys (cons '2 '()))))
        let ast = expand("`(1 ,x ,@ys 2)");
        assert!(matches!(ast, Ast::Call(..)));
        // Nested quasiquote keeps inner unquotes quoted.
        assert!(matches!(expand("``(a ,(b))"), Ast::Call(..)));
        // Vectors.
        assert!(matches!(expand("`#(1 ,x)"), Ast::Call(..)));
    }

    #[test]
    fn empty_combination_is_an_error() {
        assert!(matches!(expand_err("()"), SchemeError::Compile { .. }));
    }

    #[test]
    fn case_expands_to_memv_chain() {
        assert!(matches!(expand("(case 1 ((1 2) 'a) (else 'b))"), Ast::Call(..)));
    }

    #[test]
    fn when_unless() {
        assert!(matches!(expand("(when 1 2 3)"), Ast::If(..)));
        assert!(matches!(expand("(unless 1 2)"), Ast::If(..)));
    }
}
