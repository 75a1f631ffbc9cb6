//! Primitive procedures.
//!
//! Primitives are leaf routines: they never push a stack frame, so calls to
//! them cost no frame allocation and no overflow check — they are the
//! "leaf routines need not check for overflow" case of paper §5.
//!
//! A few primitives require VM cooperation and are dispatched specially by
//! the interpreter: `call/cc` (continuation capture), `apply` (argument
//! spreading), and the engine timer (`set-timer`, `set-timer-handler!`).

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::SchemeError;
use crate::intern::Symbol;
use crate::value::{Displayed, Primitive, Value, VectorStore};

/// Host context available to primitives.
#[derive(Debug)]
pub struct PrimCtx<'a> {
    /// Output buffer for `display`/`write`/`newline`.
    pub out: &'a mut String,
}

/// Implementation kinds.
pub enum PrimKind {
    /// An ordinary function of its arguments.
    Normal(fn(&mut PrimCtx<'_>, &[Value]) -> Result<Value, SchemeError>),
    /// `call-with-current-continuation` — handled by the VM.
    CallCC,
    /// `call/1cc` — one-shot continuation capture, handled by the VM. The
    /// captured continuation may be invoked (or returned into) at most
    /// once; reuse raises an error. The restriction lets the segmented
    /// strategy reinstate by relinking instead of copying.
    CallCC1,
    /// `apply` — handled by the VM.
    Apply,
    /// `(set-timer ticks)` — arms the VM's engine timer, returns the
    /// previous remaining ticks.
    SetTimer,
    /// `(set-timer-handler! proc)` — installs the timer-interrupt handler.
    SetTimerHandler,
    /// `(stack-frames [limit])` — walks the live control stack and returns
    /// the pending procedures' names as a list of symbols (innermost
    /// first). Paper §3's debugger stack walk, surfaced in the language.
    StackFrames,
    /// `(trace-stats)` — reads the histogram aggregates of the trace sink
    /// attached to the engine's control stack (handled by the VM). Returns
    /// an alist `((kind count p50 p90 p99 max) ...)` with one entry per
    /// event kind seen so far; the empty list when the machine is
    /// untraced.
    TraceStats,
    /// `(eval datum)` — compiles and runs a datum in the global
    /// environment (handled by the VM: it re-enters the compiler and then
    /// calls the fresh chunk like a procedure).
    Eval,
}

/// A primitive's descriptor.
pub struct PrimDef {
    /// The global name it is bound to.
    pub name: &'static str,
    /// Minimum argument count.
    pub min_args: usize,
    /// Maximum argument count (`None` = variadic).
    pub max_args: Option<usize>,
    /// Implementation.
    pub kind: PrimKind,
}

/// The name of a primitive, for printing.
pub fn name_of(p: Primitive) -> &'static str {
    PRIMITIVES[p.0 as usize].name
}

/// Looks up the descriptor of a primitive.
pub fn def_of(p: Primitive) -> &'static PrimDef {
    &PRIMITIVES[p.0 as usize]
}

/// Fixnum fast-path operation for a two-argument arithmetic/comparison
/// primitive, dispatched by the inline-cached call superinstructions
/// without entering the generic primitive function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FastOp {
    /// No fast path; run the primitive's general function.
    #[default]
    None,
    /// `(+ a b)` — checked fixnum add.
    Add2,
    /// `(- a b)` — checked fixnum subtract.
    Sub2,
    /// `(* a b)` — checked fixnum multiply.
    Mul2,
    /// `(< a b)` on two fixnums.
    Lt2,
    /// `(<= a b)` on two fixnums.
    Le2,
    /// `(> a b)` on two fixnums.
    Gt2,
    /// `(>= a b)` on two fixnums.
    Ge2,
    /// `(= a b)` on two fixnums.
    NumEq2,
}

/// The fixnum fast path for primitive `p` applied to `nargs` arguments
/// (`FastOp::None` when there is none). Overflow and non-fixnum operands
/// fall back to the general function, so observable semantics — including
/// the `fixnum overflow` error — are unchanged.
pub fn fast_op(p: Primitive, nargs: u16) -> FastOp {
    if nargs != 2 {
        return FastOp::None;
    }
    match def_of(p).name {
        "+" => FastOp::Add2,
        "-" => FastOp::Sub2,
        "*" => FastOp::Mul2,
        "<" => FastOp::Lt2,
        "<=" => FastOp::Le2,
        ">" => FastOp::Gt2,
        ">=" => FastOp::Ge2,
        "=" => FastOp::NumEq2,
        _ => FastOp::None,
    }
}

/// Whether `nargs` is a valid argument count for primitive `p` (the
/// inline cache only caches primitives at sites whose fixed argument
/// count already passed this, so hits skip the arity check).
pub fn arity_ok(p: Primitive, nargs: u16) -> bool {
    let def = def_of(p);
    let n = nargs as usize;
    n >= def.min_args && def.max_args.is_none_or(|m| n <= m)
}

/// Defines every primitive in the global table.
pub fn install(globals: &mut crate::code::Globals) {
    for (i, def) in PRIMITIVES.iter().enumerate() {
        let slot = globals.slot(Symbol::intern(def.name));
        globals.define(slot, Value::Primitive(Primitive(i as u16)));
    }
}

// ---- numeric helpers ------------------------------------------------------

/// A number coerced for arithmetic.
#[derive(Clone, Copy)]
enum Num {
    Fix(i64),
    Flo(f64),
}

fn num(v: &Value, who: &str) -> Result<Num, SchemeError> {
    match v {
        Value::Fixnum(n) => Ok(Num::Fix(*n)),
        Value::Flonum(x) => Ok(Num::Flo(*x)),
        _ => Err(SchemeError::runtime(format!("{who}: not a number: {v}"))),
    }
}

impl Num {
    fn to_value(self) -> Value {
        match self {
            Num::Fix(n) => Value::Fixnum(n),
            Num::Flo(x) => Value::Flonum(x),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Num::Fix(n) => n as f64,
            Num::Flo(x) => x,
        }
    }
}

fn arith(
    who: &'static str,
    a: Num,
    b: Num,
    fx: fn(i64, i64) -> Option<i64>,
    fl: fn(f64, f64) -> f64,
) -> Result<Num, SchemeError> {
    match (a, b) {
        (Num::Fix(x), Num::Fix(y)) => match fx(x, y) {
            Some(r) => Ok(Num::Fix(r)),
            None => Err(SchemeError::runtime(format!("{who}: fixnum overflow"))),
        },
        (a, b) => Ok(Num::Flo(fl(a.as_f64(), b.as_f64()))),
    }
}

fn fold_arith(
    who: &'static str,
    init: Num,
    args: &[Value],
    fx: fn(i64, i64) -> Option<i64>,
    fl: fn(f64, f64) -> f64,
) -> Result<Value, SchemeError> {
    let mut acc = init;
    for v in args {
        acc = arith(who, acc, num(v, who)?, fx, fl)?;
    }
    Ok(acc.to_value())
}

fn compare_chain(
    who: &'static str,
    args: &[Value],
    ok: fn(std::cmp::Ordering) -> bool,
) -> Result<Value, SchemeError> {
    for w in args.windows(2) {
        let a = num(&w[0], who)?;
        let b = num(&w[1], who)?;
        let ord = match (a, b) {
            (Num::Fix(x), Num::Fix(y)) => x.cmp(&y),
            (a, b) => a
                .as_f64()
                .partial_cmp(&b.as_f64())
                .ok_or_else(|| SchemeError::runtime(format!("{who}: unordered comparison")))?,
        };
        if !ok(ord) {
            return Ok(Value::Bool(false));
        }
    }
    Ok(Value::Bool(true))
}

fn want_fixnum(v: &Value, who: &str) -> Result<i64, SchemeError> {
    v.as_fixnum().map_err(|_| SchemeError::runtime(format!("{who}: expected a fixnum, got {v}")))
}

/// A length or index argument: a non-negative fixnum, as a `usize`.
fn want_count(v: &Value, who: &str) -> Result<usize, SchemeError> {
    let n = want_fixnum(v, who)?;
    usize::try_from(n).map_err(|_| {
        SchemeError::runtime(format!("{who}: expected a non-negative fixnum, got {n}"))
    })
}

/// The error for a `who` object of `n` elements the host cannot allocate.
fn too_large(who: &str, n: usize) -> SchemeError {
    SchemeError::runtime(format!("{who}: cannot allocate {n} elements"))
}

fn want_string(v: &Value, who: &str) -> Result<Rc<RefCell<String>>, SchemeError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(SchemeError::runtime(format!("{who}: expected a string, got {v}"))),
    }
}

fn want_char(v: &Value, who: &str) -> Result<char, SchemeError> {
    match v {
        Value::Char(c) => Ok(*c),
        _ => Err(SchemeError::runtime(format!("{who}: expected a char, got {v}"))),
    }
}

fn want_vector(v: &Value, who: &str) -> Result<Rc<VectorStore>, SchemeError> {
    match v {
        Value::Vector(items) => Ok(items.clone()),
        _ => Err(SchemeError::runtime(format!("{who}: expected a vector, got {v}"))),
    }
}

fn want_symbol(v: &Value, who: &str) -> Result<Symbol, SchemeError> {
    match v {
        Value::Sym(s) => Ok(*s),
        _ => Err(SchemeError::runtime(format!("{who}: expected a symbol, got {v}"))),
    }
}

// ---- primitive implementations -------------------------------------------

fn p_cons(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::cons(a[0].clone(), a[1].clone()))
}

fn p_car(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    a[0].car()
}

fn p_cdr(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    a[0].cdr()
}

fn p_set_car(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match &a[0] {
        Value::Pair(p) => {
            *p.car.borrow_mut() = a[1].clone();
            Ok(Value::Unspecified)
        }
        other => Err(SchemeError::runtime(format!("set-car!: not a pair: {other}"))),
    }
}

fn p_set_cdr(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match &a[0] {
        Value::Pair(p) => {
            *p.cdr.borrow_mut() = a[1].clone();
            Ok(Value::Unspecified)
        }
        other => Err(SchemeError::runtime(format!("set-cdr!: not a pair: {other}"))),
    }
}

fn compose_cxr(path: &str, v: &Value) -> Result<Value, SchemeError> {
    // path is applied right-to-left, e.g. "ad" = (car (cdr x)).
    let mut cur = v.clone();
    for c in path.chars().rev() {
        cur = if c == 'a' { cur.car()? } else { cur.cdr()? };
    }
    Ok(cur)
}

macro_rules! cxr {
    ($name:ident, $path:literal) => {
        fn $name(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
            compose_cxr($path, &a[0])
        }
    };
}

cxr!(p_caar, "aa");
cxr!(p_cadr, "ad");
cxr!(p_cdar, "da");
cxr!(p_cddr, "dd");
cxr!(p_caddr, "add");
cxr!(p_cdddr, "ddd");
cxr!(p_cadddr, "addd");

fn p_list(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::list(a.iter().cloned()))
}

fn p_length(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match a[0].list_len() {
        Some(n) => Ok(Value::Fixnum(n as i64)),
        None => Err(SchemeError::runtime(format!("length: not a proper list: {}", a[0]))),
    }
}

fn p_append(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let Some((last, init)) = a.split_last() else { return Ok(Value::Nil) };
    let mut out = last.clone();
    for lst in init.iter().rev() {
        for v in lst.list_to_vec()?.into_iter().rev() {
            out = Value::cons(v, out);
        }
    }
    Ok(out)
}

fn p_reverse(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut out = Value::Nil;
    for v in a[0].list_to_vec()? {
        out = Value::cons(v, out);
    }
    Ok(out)
}

fn p_list_tail(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut cur = a[0].clone();
    for _ in 0..want_fixnum(&a[1], "list-tail")? {
        cur = cur.cdr()?;
    }
    Ok(cur)
}

fn p_list_ref(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut cur = a[0].clone();
    for _ in 0..want_fixnum(&a[1], "list-ref")? {
        cur = cur.cdr()?;
    }
    cur.car()
}

fn member_by(a: &[Value], pred: fn(&Value, &Value) -> bool) -> Result<Value, SchemeError> {
    let mut cur = a[1].clone();
    loop {
        match cur {
            Value::Nil => return Ok(Value::Bool(false)),
            Value::Pair(ref p) => {
                if pred(&p.car.borrow(), &a[0]) {
                    return Ok(cur.clone());
                }
                let next = p.cdr.borrow().clone();
                cur = next;
            }
            other => return Err(SchemeError::runtime(format!("improper list ends in {other}"))),
        }
    }
}

fn p_memq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    member_by(a, |x, y| x.eq_value(y))
}

fn p_memv(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    member_by(a, |x, y| x.eqv_value(y))
}

fn p_member(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    member_by(a, |x, y| x.equal_value(y))
}

fn assoc_by(a: &[Value], pred: fn(&Value, &Value) -> bool) -> Result<Value, SchemeError> {
    for entry in a[1].list_to_vec()? {
        if pred(&entry.car()?, &a[0]) {
            return Ok(entry);
        }
    }
    Ok(Value::Bool(false))
}

fn p_assq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    assoc_by(a, |x, y| x.eq_value(y))
}

fn p_assv(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    assoc_by(a, |x, y| x.eqv_value(y))
}

fn p_assoc(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    assoc_by(a, |x, y| x.equal_value(y))
}

fn p_add(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    fold_arith("+", Num::Fix(0), a, i64::checked_add, |x, y| x + y)
}

fn p_mul(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    fold_arith("*", Num::Fix(1), a, i64::checked_mul, |x, y| x * y)
}

fn p_sub(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let first = num(&a[0], "-")?;
    if a.len() == 1 {
        return arith("-", Num::Fix(0), first, i64::checked_sub, |x, y| x - y).map(Num::to_value);
    }
    let mut acc = first;
    for v in &a[1..] {
        acc = arith("-", acc, num(v, "-")?, i64::checked_sub, |x, y| x - y)?;
    }
    Ok(acc.to_value())
}

fn p_div(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let div2 = |x: Num, y: Num| -> Result<Num, SchemeError> {
        match (x, y) {
            (_, Num::Fix(0)) => Err(SchemeError::runtime("/: division by zero")),
            (Num::Fix(p), Num::Fix(q)) if p % q == 0 => Ok(Num::Fix(p / q)),
            (x, y) => Ok(Num::Flo(x.as_f64() / y.as_f64())),
        }
    };
    let first = num(&a[0], "/")?;
    if a.len() == 1 {
        return div2(Num::Fix(1), first).map(Num::to_value);
    }
    let mut acc = first;
    for v in &a[1..] {
        acc = div2(acc, num(v, "/")?)?;
    }
    Ok(acc.to_value())
}

fn int2(a: &[Value], who: &str) -> Result<(i64, i64), SchemeError> {
    let x = want_fixnum(&a[0], who)?;
    let y = want_fixnum(&a[1], who)?;
    if y == 0 {
        return Err(SchemeError::runtime(format!("{who}: division by zero")));
    }
    Ok((x, y))
}

fn p_quotient(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let (x, y) = int2(a, "quotient")?;
    Ok(Value::Fixnum(x / y))
}

fn p_remainder(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let (x, y) = int2(a, "remainder")?;
    Ok(Value::Fixnum(x % y))
}

fn p_modulo(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let (x, y) = int2(a, "modulo")?;
    let r = x % y;
    // The result takes the sign of the divisor (R3RS).
    Ok(Value::Fixnum(if r != 0 && (r < 0) != (y < 0) { r + y } else { r }))
}

fn p_num_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    compare_chain("=", a, |o| o == std::cmp::Ordering::Equal)
}

fn p_lt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    compare_chain("<", a, |o| o == std::cmp::Ordering::Less)
}

fn p_gt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    compare_chain(">", a, |o| o == std::cmp::Ordering::Greater)
}

fn p_le(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    compare_chain("<=", a, |o| o != std::cmp::Ordering::Greater)
}

fn p_ge(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    compare_chain(">=", a, |o| o != std::cmp::Ordering::Less)
}

fn p_zero(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(match num(&a[0], "zero?")? {
        Num::Fix(n) => n == 0,
        Num::Flo(x) => x == 0.0,
    }))
}

fn p_positive(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(num(&a[0], "positive?")?.as_f64() > 0.0))
}

fn p_negative(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(num(&a[0], "negative?")?.as_f64() < 0.0))
}

fn p_odd(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_fixnum(&a[0], "odd?")? % 2 != 0))
}

fn p_even(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_fixnum(&a[0], "even?")? % 2 == 0))
}

fn p_min(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut acc = num(&a[0], "min")?;
    let mut inexact = matches!(acc, Num::Flo(_));
    for v in &a[1..] {
        let n = num(v, "min")?;
        inexact |= matches!(n, Num::Flo(_));
        if n.as_f64() < acc.as_f64() {
            acc = n;
        }
    }
    Ok(if inexact { Value::Flonum(acc.as_f64()) } else { acc.to_value() })
}

fn p_max(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut acc = num(&a[0], "max")?;
    let mut inexact = matches!(acc, Num::Flo(_));
    for v in &a[1..] {
        let n = num(v, "max")?;
        inexact |= matches!(n, Num::Flo(_));
        if n.as_f64() > acc.as_f64() {
            acc = n;
        }
    }
    Ok(if inexact { Value::Flonum(acc.as_f64()) } else { acc.to_value() })
}

fn p_abs(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(match num(&a[0], "abs")? {
        Num::Fix(n) => Value::Fixnum(n.abs()),
        Num::Flo(x) => Value::Flonum(x.abs()),
    })
}

fn p_gcd(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a.abs()
        } else {
            gcd(b, a % b)
        }
    }
    let mut acc = 0;
    for v in a {
        acc = gcd(acc, want_fixnum(v, "gcd")?);
    }
    Ok(Value::Fixnum(acc))
}

fn p_expt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match (num(&a[0], "expt")?, num(&a[1], "expt")?) {
        (Num::Fix(b), Num::Fix(e)) if e >= 0 => match b.checked_pow(
            u32::try_from(e).map_err(|_| SchemeError::runtime("expt: exponent too large"))?,
        ) {
            Some(r) => Ok(Value::Fixnum(r)),
            None => Err(SchemeError::runtime("expt: fixnum overflow")),
        },
        (b, e) => Ok(Value::Flonum(b.as_f64().powf(e.as_f64()))),
    }
}

fn p_sqrt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = num(&a[0], "sqrt")?.as_f64();
    let r = x.sqrt();
    if let Num::Fix(_) = num(&a[0], "sqrt")? {
        let ri = r as i64;
        if ri * ri == x as i64 {
            return Ok(Value::Fixnum(ri));
        }
    }
    Ok(Value::Flonum(r))
}

fn round_like(a: &[Value], who: &str, f: fn(f64) -> f64) -> Result<Value, SchemeError> {
    Ok(match num(&a[0], who)? {
        Num::Fix(n) => Value::Fixnum(n),
        Num::Flo(x) => Value::Flonum(f(x)),
    })
}

fn p_floor(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    round_like(a, "floor", f64::floor)
}

fn p_ceiling(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    round_like(a, "ceiling", f64::ceil)
}

fn p_truncate(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    round_like(a, "truncate", f64::trunc)
}

fn p_round(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    round_like(a, "round", |x| {
        // Round to even, per R3RS.
        let r = x.round();
        if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
            r - (r - x).signum()
        } else {
            r
        }
    })
}

fn p_exact_to_inexact(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Flonum(num(&a[0], "exact->inexact")?.as_f64()))
}

fn p_inexact_to_exact(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match num(&a[0], "inexact->exact")? {
        Num::Fix(n) => Ok(Value::Fixnum(n)),
        Num::Flo(x) if x.fract() == 0.0 => Ok(Value::Fixnum(x as i64)),
        Num::Flo(x) => Err(SchemeError::runtime(format!("inexact->exact: not an integer: {x}"))),
    }
}

fn p_number_to_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    num(&a[0], "number->string")?;
    Ok(Value::string(a[0].to_string()))
}

fn p_string_to_number(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string->number")?;
    let s = s.borrow();
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Fixnum(n));
    }
    match s.parse::<f64>() {
        Ok(x) => Ok(Value::Flonum(x)),
        Err(_) => Ok(Value::Bool(false)),
    }
}

// Type predicates.

macro_rules! pred {
    ($name:ident, $pat:pat) => {
        fn $name(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
            Ok(Value::Bool(matches!(&a[0], $pat)))
        }
    };
}

pred!(p_pair, Value::Pair(_));
pred!(p_null, Value::Nil);
pred!(p_number, Value::Fixnum(_) | Value::Flonum(_));
pred!(p_integer, Value::Fixnum(_));
pred!(p_real, Value::Fixnum(_) | Value::Flonum(_));
pred!(p_boolean, Value::Bool(_));
pred!(p_symbol, Value::Sym(_));
pred!(p_string_p, Value::Str(_));
pred!(p_char_p, Value::Char(_));
pred!(p_vector_p, Value::Vector(_));

fn p_procedure(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(a[0].is_procedure()))
}

fn p_list_p(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(a[0].list_len().is_some()))
}

fn p_not(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(!a[0].is_truthy()))
}

fn p_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(a[0].eq_value(&a[1])))
}

fn p_eqv(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(a[0].eqv_value(&a[1])))
}

fn p_equal(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(a[0].equal_value(&a[1])))
}

// Symbols and strings.

fn p_symbol_to_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::string(want_symbol(&a[0], "symbol->string")?.as_str()))
}

fn p_string_to_symbol(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string->symbol")?;
    let name = s.borrow().clone();
    Ok(Value::Sym(Symbol::intern(&name)))
}

fn p_string_length(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string-length")?;
    let n = s.borrow().chars().count();
    Ok(Value::Fixnum(n as i64))
}

fn p_string_ref(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string-ref")?;
    let i = want_fixnum(&a[1], "string-ref")?;
    let c = s.borrow().chars().nth(i as usize);
    c.map(Value::Char)
        .ok_or_else(|| SchemeError::runtime(format!("string-ref: index {i} out of range")))
}

fn p_substring(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "substring")?;
    let start = want_count(&a[1], "substring")?;
    let end = want_count(&a[2], "substring")?;
    let s = s.borrow();
    let chars: Vec<char> = s.chars().collect();
    if start > end || end > chars.len() {
        return Err(SchemeError::runtime(format!("substring: bad range {start}..{end}")));
    }
    Ok(Value::string(chars[start..end].iter().collect::<String>()))
}

fn p_string_append(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut out = String::new();
    for v in a {
        out.push_str(&want_string(v, "string-append")?.borrow());
    }
    Ok(Value::string(out))
}

fn p_string_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string=?")?;
    let y = want_string(&a[1], "string=?")?;
    let r = *x.borrow() == *y.borrow();
    Ok(Value::Bool(r))
}

fn p_string_lt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string<?")?;
    let y = want_string(&a[1], "string<?")?;
    let r = *x.borrow() < *y.borrow();
    Ok(Value::Bool(r))
}

fn p_string_to_list(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string->list")?;
    let chars: Vec<Value> = s.borrow().chars().map(Value::Char).collect();
    Ok(Value::list(chars))
}

fn p_list_to_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut out = String::new();
    for v in a[0].list_to_vec()? {
        out.push(want_char(&v, "list->string")?);
    }
    Ok(Value::string(out))
}

fn p_make_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let n = want_count(&a[0], "make-string")?;
    let c = match a.get(1) {
        Some(v) => want_char(v, "make-string")?,
        None => ' ',
    };
    let mut out = String::new();
    n.checked_mul(c.len_utf8())
        .and_then(|bytes| out.try_reserve_exact(bytes).ok())
        .ok_or_else(|| too_large("make-string", n))?;
    out.extend(std::iter::repeat_n(c, n));
    Ok(Value::string(out))
}

fn p_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut out = String::new();
    for v in a {
        out.push(want_char(v, "string")?);
    }
    Ok(Value::string(out))
}

fn p_string_set(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string-set!")?;
    let i = want_count(&a[1], "string-set!")?;
    let c = want_char(&a[2], "string-set!")?;
    let mut s = s.borrow_mut();
    let chars: Vec<char> = s.chars().collect();
    if i >= chars.len() {
        return Err(SchemeError::runtime(format!("string-set!: index {i} out of range")));
    }
    *s = chars.iter().enumerate().map(|(j, &ch)| if j == i { c } else { ch }).collect();
    Ok(Value::Unspecified)
}

fn p_string_fill(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string-fill!")?;
    let c = want_char(&a[1], "string-fill!")?;
    let mut s = s.borrow_mut();
    let n = s.chars().count();
    *s = std::iter::repeat_n(c, n).collect();
    Ok(Value::Unspecified)
}

fn p_string_copy(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "string-copy")?;
    let copied = s.borrow().clone();
    Ok(Value::string(copied))
}

fn float_fn(a: &[Value], who: &str, f: fn(f64) -> f64) -> Result<Value, SchemeError> {
    Ok(Value::Flonum(f(num(&a[0], who)?.as_f64())))
}

fn p_sin(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    float_fn(a, "sin", f64::sin)
}

fn p_cos(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    float_fn(a, "cos", f64::cos)
}

fn p_tan(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    float_fn(a, "tan", f64::tan)
}

fn p_exp(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    float_fn(a, "exp", f64::exp)
}

fn p_log(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    float_fn(a, "log", f64::ln)
}

fn p_atan(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match a.len() {
        1 => float_fn(a, "atan", f64::atan),
        _ => Ok(Value::Flonum(num(&a[0], "atan")?.as_f64().atan2(num(&a[1], "atan")?.as_f64()))),
    }
}

fn p_char_gt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char>?")? > want_char(&a[1], "char>?")?))
}

fn p_char_le(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char<=?")? <= want_char(&a[1], "char<=?")?))
}

fn p_char_ge(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char>=?")? >= want_char(&a[1], "char>=?")?))
}

fn p_string_gt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string>?")?;
    let y = want_string(&a[1], "string>?")?;
    let r = *x.borrow() > *y.borrow();
    Ok(Value::Bool(r))
}

fn p_string_le(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string<=?")?;
    let y = want_string(&a[1], "string<=?")?;
    let r = *x.borrow() <= *y.borrow();
    Ok(Value::Bool(r))
}

fn p_string_ge(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string>=?")?;
    let y = want_string(&a[1], "string>=?")?;
    let r = *x.borrow() >= *y.borrow();
    Ok(Value::Bool(r))
}

fn p_exact_p(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(matches!(&a[0], Value::Fixnum(_))))
}

fn p_inexact_p(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(matches!(&a[0], Value::Flonum(_))))
}

// Characters.

fn p_char_to_integer(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Fixnum(want_char(&a[0], "char->integer")? as i64))
}

fn p_integer_to_char(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let n = want_fixnum(&a[0], "integer->char")?;
    u32::try_from(n)
        .ok()
        .and_then(char::from_u32)
        .map(Value::Char)
        .ok_or_else(|| SchemeError::runtime(format!("integer->char: bad code point {n}")))
}

fn p_char_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char=?")? == want_char(&a[1], "char=?")?))
}

fn p_char_lt(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char<?")? < want_char(&a[1], "char<?")?))
}

fn p_char_ci_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_char(&a[0], "char-ci=?")?.to_ascii_lowercase();
    let y = want_char(&a[1], "char-ci=?")?.to_ascii_lowercase();
    Ok(Value::Bool(x == y))
}

fn p_string_ci_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let x = want_string(&a[0], "string-ci=?")?;
    let y = want_string(&a[1], "string-ci=?")?;
    let r = x.borrow().to_lowercase() == y.borrow().to_lowercase();
    Ok(Value::Bool(r))
}

fn p_boolean_eq(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match (&a[0], &a[1]) {
        (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(x == y)),
        _ => {
            let offender = if matches!(&a[0], Value::Bool(_)) { &a[1] } else { &a[0] };
            Err(SchemeError::runtime(format!("boolean=?: not a boolean: {offender}")))
        }
    }
}

fn p_char_upcase(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Char(want_char(&a[0], "char-upcase")?.to_ascii_uppercase()))
}

fn p_char_downcase(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Char(want_char(&a[0], "char-downcase")?.to_ascii_lowercase()))
}

fn p_char_alphabetic(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char-alphabetic?")?.is_alphabetic()))
}

fn p_char_numeric(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char-numeric?")?.is_numeric()))
}

fn p_char_whitespace(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(want_char(&a[0], "char-whitespace?")?.is_whitespace()))
}

// Vectors.

fn p_make_vector(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let n = want_count(&a[0], "make-vector")?;
    let fill = a.get(1).cloned().unwrap_or(Value::Fixnum(0));
    let mut items = Vec::new();
    items.try_reserve_exact(n).map_err(|_| too_large("make-vector", n))?;
    items.resize(n, fill);
    Ok(Value::vector(items))
}

fn p_vector(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::vector(a.to_vec()))
}

fn p_vector_length(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let v = want_vector(&a[0], "vector-length")?;
    let n = v.borrow().len();
    Ok(Value::Fixnum(n as i64))
}

fn p_vector_ref(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let v = want_vector(&a[0], "vector-ref")?;
    let i = want_fixnum(&a[1], "vector-ref")?;
    let v = v.borrow();
    usize::try_from(i)
        .ok()
        .and_then(|i| v.get(i))
        .cloned()
        .ok_or_else(|| SchemeError::runtime(format!("vector-ref: index {i} out of range")))
}

fn p_vector_set(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let v = want_vector(&a[0], "vector-set!")?;
    let i = want_fixnum(&a[1], "vector-set!")?;
    let mut v = v.borrow_mut();
    let len = v.len();
    let slot = usize::try_from(i).ok().and_then(|i| v.get_mut(i)).ok_or_else(|| {
        SchemeError::runtime(format!("vector-set!: index {i} out of range 0..{len}"))
    })?;
    *slot = a[2].clone();
    Ok(Value::Unspecified)
}

fn p_vector_to_list(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let v = want_vector(&a[0], "vector->list")?;
    let items = v.borrow().clone();
    Ok(Value::list(items))
}

fn p_list_to_vector(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::vector(a[0].list_to_vec()?))
}

fn p_vector_fill(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let v = want_vector(&a[0], "vector-fill!")?;
    v.borrow_mut().fill(a[1].clone());
    Ok(Value::Unspecified)
}

// I/O. `display`/`write`/`newline` take an optional string port; without
// one they write to the engine's captured output.

fn emit(ctx: &mut PrimCtx<'_>, port: Option<&Value>, text: &str) -> Result<Value, SchemeError> {
    match port {
        None => ctx.out.push_str(text),
        Some(Value::Port(p)) => p.borrow_mut().push_str(text),
        Some(other) => return Err(SchemeError::runtime(format!("expected a port, got {other}"))),
    }
    Ok(Value::Unspecified)
}

fn p_display(ctx: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    emit(ctx, a.get(1), &Displayed(&a[0]).to_string())
}

fn p_write(ctx: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    emit(ctx, a.get(1), &a[0].to_string())
}

fn p_newline(ctx: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    emit(ctx, a.first(), "\n")
}

fn p_open_output_string(_: &mut PrimCtx<'_>, _: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::string_port())
}

fn p_get_output_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match &a[0] {
        Value::Port(p) => Ok(Value::string(p.borrow().clone())),
        other => {
            Err(SchemeError::runtime(format!("get-output-string: expected a port, got {other}")))
        }
    }
}

fn p_port_p(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(matches!(&a[0], Value::Port(_))))
}

fn p_error(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let mut msg = match &a[0] {
        Value::Str(s) => s.borrow().clone(),
        other => other.to_string(),
    };
    for irritant in &a[1..] {
        msg.push(' ');
        msg.push_str(&irritant.to_string());
    }
    Err(SchemeError::Runtime { message: msg })
}

fn p_void(_: &mut PrimCtx<'_>, _: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Unspecified)
}

fn p_read_from_string(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    let s = want_string(&a[0], "read-from-string")?;
    let src = s.borrow().clone();
    crate::reader::read_one(&src)
        .map_err(|e| SchemeError::runtime(format!("read-from-string: {e}")))
}

fn p_values(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    // A single value passes through untagged (R5RS: `(values v)` ≡ `v`).
    match a {
        [v] => Ok(v.clone()),
        _ => Ok(Value::values(a.to_vec())),
    }
}

fn p_values_p(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    Ok(Value::Bool(matches!(&a[0], Value::Values(_))))
}

fn p_values_to_list(_: &mut PrimCtx<'_>, a: &[Value]) -> Result<Value, SchemeError> {
    match &a[0] {
        Value::Values(vs) => Ok(Value::list(vs.iter().cloned())),
        other => Ok(Value::list([other.clone()])),
    }
}

/// The primitive table. Order is the [`Primitive`] index space; append
/// only.
pub static PRIMITIVES: &[PrimDef] = &[
    PrimDef { name: "cons", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_cons) },
    PrimDef { name: "car", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_car) },
    PrimDef { name: "cdr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cdr) },
    PrimDef { name: "set-car!", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_set_car) },
    PrimDef { name: "set-cdr!", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_set_cdr) },
    PrimDef { name: "caar", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_caar) },
    PrimDef { name: "cadr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cadr) },
    PrimDef { name: "cdar", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cdar) },
    PrimDef { name: "cddr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cddr) },
    PrimDef { name: "caddr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_caddr) },
    PrimDef { name: "cdddr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cdddr) },
    PrimDef { name: "cadddr", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cadddr) },
    PrimDef { name: "list", min_args: 0, max_args: None, kind: PrimKind::Normal(p_list) },
    PrimDef { name: "length", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_length) },
    PrimDef { name: "append", min_args: 0, max_args: None, kind: PrimKind::Normal(p_append) },
    PrimDef { name: "reverse", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_reverse) },
    PrimDef {
        name: "list-tail",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_list_tail),
    },
    PrimDef {
        name: "list-ref",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_list_ref),
    },
    PrimDef { name: "memq", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_memq) },
    PrimDef { name: "memv", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_memv) },
    PrimDef { name: "member", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_member) },
    PrimDef { name: "assq", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_assq) },
    PrimDef { name: "assv", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_assv) },
    PrimDef { name: "assoc", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_assoc) },
    PrimDef { name: "+", min_args: 0, max_args: None, kind: PrimKind::Normal(p_add) },
    PrimDef { name: "-", min_args: 1, max_args: None, kind: PrimKind::Normal(p_sub) },
    PrimDef { name: "*", min_args: 0, max_args: None, kind: PrimKind::Normal(p_mul) },
    PrimDef { name: "/", min_args: 1, max_args: None, kind: PrimKind::Normal(p_div) },
    PrimDef {
        name: "quotient",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_quotient),
    },
    PrimDef {
        name: "remainder",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_remainder),
    },
    PrimDef { name: "modulo", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_modulo) },
    PrimDef { name: "=", min_args: 2, max_args: None, kind: PrimKind::Normal(p_num_eq) },
    PrimDef { name: "<", min_args: 2, max_args: None, kind: PrimKind::Normal(p_lt) },
    PrimDef { name: ">", min_args: 2, max_args: None, kind: PrimKind::Normal(p_gt) },
    PrimDef { name: "<=", min_args: 2, max_args: None, kind: PrimKind::Normal(p_le) },
    PrimDef { name: ">=", min_args: 2, max_args: None, kind: PrimKind::Normal(p_ge) },
    PrimDef { name: "zero?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_zero) },
    PrimDef {
        name: "positive?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_positive),
    },
    PrimDef {
        name: "negative?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_negative),
    },
    PrimDef { name: "odd?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_odd) },
    PrimDef { name: "even?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_even) },
    PrimDef { name: "min", min_args: 1, max_args: None, kind: PrimKind::Normal(p_min) },
    PrimDef { name: "max", min_args: 1, max_args: None, kind: PrimKind::Normal(p_max) },
    PrimDef { name: "abs", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_abs) },
    PrimDef { name: "gcd", min_args: 0, max_args: None, kind: PrimKind::Normal(p_gcd) },
    PrimDef { name: "expt", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_expt) },
    PrimDef { name: "sqrt", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_sqrt) },
    PrimDef { name: "floor", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_floor) },
    PrimDef { name: "ceiling", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_ceiling) },
    PrimDef {
        name: "truncate",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_truncate),
    },
    PrimDef { name: "round", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_round) },
    PrimDef {
        name: "exact->inexact",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_exact_to_inexact),
    },
    PrimDef {
        name: "inexact->exact",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_inexact_to_exact),
    },
    PrimDef {
        name: "number->string",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_number_to_string),
    },
    PrimDef {
        name: "string->number",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_string_to_number),
    },
    PrimDef { name: "pair?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_pair) },
    PrimDef { name: "null?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_null) },
    PrimDef { name: "list?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_list_p) },
    PrimDef { name: "number?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_number) },
    PrimDef { name: "integer?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_integer) },
    PrimDef { name: "real?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_real) },
    PrimDef { name: "boolean?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_boolean) },
    PrimDef { name: "symbol?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_symbol) },
    PrimDef { name: "string?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_string_p) },
    PrimDef { name: "char?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_char_p) },
    PrimDef { name: "vector?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_vector_p) },
    PrimDef {
        name: "procedure?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_procedure),
    },
    PrimDef { name: "not", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_not) },
    PrimDef { name: "eq?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_eq) },
    PrimDef { name: "eqv?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_eqv) },
    PrimDef { name: "equal?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_equal) },
    PrimDef {
        name: "symbol->string",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_symbol_to_string),
    },
    PrimDef {
        name: "string->symbol",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_string_to_symbol),
    },
    PrimDef {
        name: "string-length",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_string_length),
    },
    PrimDef {
        name: "string-ref",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_ref),
    },
    PrimDef {
        name: "substring",
        min_args: 3,
        max_args: Some(3),
        kind: PrimKind::Normal(p_substring),
    },
    PrimDef {
        name: "string-append",
        min_args: 0,
        max_args: None,
        kind: PrimKind::Normal(p_string_append),
    },
    PrimDef {
        name: "string=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_eq),
    },
    PrimDef {
        name: "string<?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_lt),
    },
    PrimDef {
        name: "string->list",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_string_to_list),
    },
    PrimDef {
        name: "list->string",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_list_to_string),
    },
    PrimDef {
        name: "make-string",
        min_args: 1,
        max_args: Some(2),
        kind: PrimKind::Normal(p_make_string),
    },
    PrimDef { name: "string", min_args: 0, max_args: None, kind: PrimKind::Normal(p_string) },
    PrimDef {
        name: "string-set!",
        min_args: 3,
        max_args: Some(3),
        kind: PrimKind::Normal(p_string_set),
    },
    PrimDef {
        name: "string-fill!",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_fill),
    },
    PrimDef {
        name: "string-copy",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_string_copy),
    },
    PrimDef { name: "sin", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_sin) },
    PrimDef { name: "cos", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_cos) },
    PrimDef { name: "tan", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_tan) },
    PrimDef { name: "exp", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_exp) },
    PrimDef { name: "log", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_log) },
    PrimDef { name: "atan", min_args: 1, max_args: Some(2), kind: PrimKind::Normal(p_atan) },
    PrimDef { name: "char>?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_char_gt) },
    PrimDef { name: "char<=?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_char_le) },
    PrimDef { name: "char>=?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_char_ge) },
    PrimDef {
        name: "string>?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_gt),
    },
    PrimDef {
        name: "string<=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_le),
    },
    PrimDef {
        name: "string>=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_ge),
    },
    PrimDef { name: "exact?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_exact_p) },
    PrimDef {
        name: "inexact?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_inexact_p),
    },
    PrimDef {
        name: "char->integer",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_to_integer),
    },
    PrimDef {
        name: "integer->char",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_integer_to_char),
    },
    PrimDef { name: "char=?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_char_eq) },
    PrimDef { name: "char<?", min_args: 2, max_args: Some(2), kind: PrimKind::Normal(p_char_lt) },
    PrimDef {
        name: "char-ci=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_char_ci_eq),
    },
    PrimDef {
        name: "string-ci=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_string_ci_eq),
    },
    PrimDef {
        name: "boolean=?",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_boolean_eq),
    },
    PrimDef {
        name: "char-upcase",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_upcase),
    },
    PrimDef {
        name: "char-downcase",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_downcase),
    },
    PrimDef {
        name: "char-alphabetic?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_alphabetic),
    },
    PrimDef {
        name: "char-numeric?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_numeric),
    },
    PrimDef {
        name: "char-whitespace?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_char_whitespace),
    },
    PrimDef {
        name: "make-vector",
        min_args: 1,
        max_args: Some(2),
        kind: PrimKind::Normal(p_make_vector),
    },
    PrimDef { name: "vector", min_args: 0, max_args: None, kind: PrimKind::Normal(p_vector) },
    PrimDef {
        name: "vector-length",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_vector_length),
    },
    PrimDef {
        name: "vector-ref",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_vector_ref),
    },
    PrimDef {
        name: "vector-set!",
        min_args: 3,
        max_args: Some(3),
        kind: PrimKind::Normal(p_vector_set),
    },
    PrimDef {
        name: "vector->list",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_vector_to_list),
    },
    PrimDef {
        name: "list->vector",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_list_to_vector),
    },
    PrimDef {
        name: "vector-fill!",
        min_args: 2,
        max_args: Some(2),
        kind: PrimKind::Normal(p_vector_fill),
    },
    PrimDef { name: "display", min_args: 1, max_args: Some(2), kind: PrimKind::Normal(p_display) },
    PrimDef { name: "write", min_args: 1, max_args: Some(2), kind: PrimKind::Normal(p_write) },
    PrimDef { name: "newline", min_args: 0, max_args: Some(1), kind: PrimKind::Normal(p_newline) },
    PrimDef {
        name: "open-output-string",
        min_args: 0,
        max_args: Some(0),
        kind: PrimKind::Normal(p_open_output_string),
    },
    PrimDef {
        name: "get-output-string",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_get_output_string),
    },
    PrimDef { name: "port?", min_args: 1, max_args: Some(1), kind: PrimKind::Normal(p_port_p) },
    PrimDef { name: "error", min_args: 1, max_args: None, kind: PrimKind::Normal(p_error) },
    PrimDef { name: "void", min_args: 0, max_args: Some(0), kind: PrimKind::Normal(p_void) },
    PrimDef { name: "values", min_args: 0, max_args: None, kind: PrimKind::Normal(p_values) },
    PrimDef {
        name: "%values?",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_values_p),
    },
    PrimDef {
        name: "%values->list",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_values_to_list),
    },
    // Stack introspection (the paper's §3 debugger walk, from Scheme).
    PrimDef { name: "stack-frames", min_args: 0, max_args: Some(1), kind: PrimKind::StackFrames },
    // Trace-sink readout (the observability layer, from Scheme).
    PrimDef { name: "trace-stats", min_args: 0, max_args: Some(0), kind: PrimKind::TraceStats },
    PrimDef { name: "eval", min_args: 1, max_args: Some(1), kind: PrimKind::Eval },
    PrimDef {
        name: "read-from-string",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::Normal(p_read_from_string),
    },
    PrimDef {
        name: "call-with-current-continuation",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::CallCC,
    },
    PrimDef { name: "call/cc", min_args: 1, max_args: Some(1), kind: PrimKind::CallCC },
    // Raw capture without the prelude's dynamic-wind rerooting wrapper.
    PrimDef { name: "%call/cc", min_args: 1, max_args: Some(1), kind: PrimKind::CallCC },
    // Raw one-shot capture; `call/1cc` in the prelude adds the rerooting
    // wrapper.
    PrimDef { name: "%call/1cc", min_args: 1, max_args: Some(1), kind: PrimKind::CallCC1 },
    PrimDef { name: "apply", min_args: 2, max_args: None, kind: PrimKind::Apply },
    PrimDef { name: "set-timer", min_args: 1, max_args: Some(1), kind: PrimKind::SetTimer },
    PrimDef {
        name: "set-timer-handler!",
        min_args: 1,
        max_args: Some(1),
        kind: PrimKind::SetTimerHandler,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Result<Value, SchemeError> {
        let idx = PRIMITIVES.iter().position(|d| d.name == name).expect("unknown primitive");
        let PrimKind::Normal(f) = &PRIMITIVES[idx].kind else { panic!("not a normal primitive") };
        let mut out = String::new();
        f(&mut PrimCtx { out: &mut out }, args)
    }

    #[test]
    fn table_names_are_unique() {
        let mut names: Vec<_> = PRIMITIVES.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(call("+", &[]).unwrap(), Value::Fixnum(0));
        assert_eq!(call("+", &[1.into(), 2.into(), 3.into()]).unwrap(), Value::Fixnum(6));
        assert_eq!(call("-", &[5.into()]).unwrap(), Value::Fixnum(-5));
        assert_eq!(call("-", &[5.into(), 2.into(), 1.into()]).unwrap(), Value::Fixnum(2));
        assert_eq!(call("*", &[3.into(), 4.into()]).unwrap(), Value::Fixnum(12));
        assert_eq!(call("/", &[6.into(), 3.into()]).unwrap(), Value::Fixnum(2));
        assert_eq!(call("/", &[1.into(), 2.into()]).unwrap(), Value::Flonum(0.5));
        assert_eq!(call("+", &[1.into(), Value::Flonum(0.5)]).unwrap(), Value::Flonum(1.5));
        assert!(call("/", &[1.into(), 0.into()]).is_err());
        assert!(call("+", &[Value::sym("x")]).is_err());
        assert!(call("+", &[Value::Fixnum(i64::MAX), 1.into()]).is_err());
    }

    #[test]
    fn integer_division() {
        assert_eq!(call("quotient", &[7.into(), 2.into()]).unwrap(), Value::Fixnum(3));
        assert_eq!(call("remainder", &[7.into(), 2.into()]).unwrap(), Value::Fixnum(1));
        assert_eq!(call("remainder", &[(-7).into(), 2.into()]).unwrap(), Value::Fixnum(-1));
        assert_eq!(call("modulo", &[(-7).into(), 2.into()]).unwrap(), Value::Fixnum(1));
        assert_eq!(call("modulo", &[7.into(), (-2).into()]).unwrap(), Value::Fixnum(-1));
        assert_eq!(call("modulo", &[7.into(), 2.into()]).unwrap(), Value::Fixnum(1));
    }

    #[test]
    fn comparisons_chain() {
        assert_eq!(call("<", &[1.into(), 2.into(), 3.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("<", &[1.into(), 3.into(), 2.into()]).unwrap(), Value::Bool(false));
        assert_eq!(call("=", &[2.into(), 2.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call(">=", &[3.into(), 3.into(), 1.into()]).unwrap(), Value::Bool(true));
        assert_eq!(
            call("=", &[2.into(), Value::Flonum(2.0)]).unwrap(),
            Value::Bool(true),
            "mixed exact/inexact comparison"
        );
    }

    #[test]
    fn list_operations() {
        let l = call("list", &[1.into(), 2.into(), 3.into()]).unwrap();
        assert_eq!(call("length", std::slice::from_ref(&l)).unwrap(), Value::Fixnum(3));
        assert_eq!(call("reverse", std::slice::from_ref(&l)).unwrap().to_string(), "(3 2 1)");
        assert_eq!(call("list-ref", &[l.clone(), 1.into()]).unwrap(), Value::Fixnum(2));
        assert_eq!(call("list-tail", &[l.clone(), 2.into()]).unwrap().to_string(), "(3)");
        let l2 = call("list", &[4.into()]).unwrap();
        assert_eq!(call("append", &[l, l2]).unwrap().to_string(), "(1 2 3 4)");
        assert_eq!(call("append", &[]).unwrap(), Value::Nil);
    }

    #[test]
    fn member_and_assoc() {
        let l = call("list", &[1.into(), 2.into(), 3.into()]).unwrap();
        assert_eq!(call("memv", &[2.into(), l.clone()]).unwrap().to_string(), "(2 3)");
        assert_eq!(call("memv", &[9.into(), l]).unwrap(), Value::Bool(false));
        let alist = Value::list([
            Value::cons(Value::sym("a"), 1.into()),
            Value::cons(Value::sym("b"), 2.into()),
        ]);
        assert_eq!(call("assq", &[Value::sym("b"), alist.clone()]).unwrap().to_string(), "(b . 2)");
        assert_eq!(call("assq", &[Value::sym("z"), alist]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn cxr_compositions() {
        let l = crate::reader::read_one("((1 2) (3 4))").unwrap();
        assert_eq!(call("caar", std::slice::from_ref(&l)).unwrap(), Value::Fixnum(1));
        assert_eq!(call("cadr", std::slice::from_ref(&l)).unwrap().to_string(), "(3 4)");
        assert_eq!(call("cddr", std::slice::from_ref(&l)).unwrap(), Value::Nil);
    }

    #[test]
    fn string_operations() {
        assert_eq!(call("string-length", &["hello".into()]).unwrap(), Value::Fixnum(5));
        assert_eq!(call("string-ref", &["abc".into(), 1.into()]).unwrap(), Value::Char('b'));
        assert_eq!(
            call("substring", &["hello".into(), 1.into(), 3.into()]).unwrap(),
            Value::string("el")
        );
        assert_eq!(
            call("string-append", &["ab".into(), "cd".into()]).unwrap(),
            Value::string("abcd")
        );
        assert_eq!(call("string=?", &["a".into(), "a".into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("string<?", &["a".into(), "b".into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("string->symbol", &["foo".into()]).unwrap(), Value::sym("foo"));
        assert_eq!(call("symbol->string", &[Value::sym("foo")]).unwrap(), Value::string("foo"));
        assert_eq!(call("string->number", &["42".into()]).unwrap(), Value::Fixnum(42));
        assert_eq!(call("string->number", &["nope".into()]).unwrap(), Value::Bool(false));
        assert_eq!(call("number->string", &[42.into()]).unwrap(), Value::string("42"));
    }

    #[test]
    fn vector_operations() {
        let v = call("make-vector", &[3.into(), Value::sym("x")]).unwrap();
        assert_eq!(call("vector-length", std::slice::from_ref(&v)).unwrap(), Value::Fixnum(3));
        call("vector-set!", &[v.clone(), 1.into(), 9.into()]).unwrap();
        assert_eq!(call("vector-ref", &[v.clone(), 1.into()]).unwrap(), Value::Fixnum(9));
        assert!(call("vector-ref", &[v.clone(), 5.into()]).is_err());
        assert!(call("vector-ref", &[v.clone(), (-1).into()]).is_err());
        assert_eq!(call("vector->list", &[v]).unwrap().to_string(), "(x 9 x)");
    }

    #[test]
    fn negative_counts_are_errors_naming_the_value() {
        let s: Value = "abc".into();
        for (name, args) in [
            ("make-vector", vec![(-1).into(), 0.into()]),
            ("make-string", vec![(-1).into()]),
            ("substring", vec![s.clone(), (-1).into(), 2.into()]),
            ("string-set!", vec![s, (-1).into(), 'x'.into()]),
        ] {
            let e = call(name, &args).unwrap_err().to_string();
            assert!(e.contains(&format!("{name}: expected a non-negative fixnum, got -1")), "{e}");
        }
    }

    #[test]
    fn unallocatable_sizes_are_errors() {
        // 2^62 elements exceed any address space, so the reservation
        // fails on every host instead of committing memory.
        let n = 1i64 << 62;
        for name in ["make-vector", "make-string"] {
            let e = call(name, &[n.into()]).unwrap_err().to_string();
            assert!(e.contains(&format!("{name}: cannot allocate {n} elements")), "{e}");
        }
        assert_eq!(call("make-string", &[2.into(), 'λ'.into()]).unwrap(), Value::string("λλ"));
        assert_eq!(call("make-vector", &[0.into()]).unwrap().to_string(), "#()");
    }

    #[test]
    fn predicates() {
        assert_eq!(call("pair?", &[Value::cons(1.into(), Value::Nil)]).unwrap(), Value::Bool(true));
        assert_eq!(call("null?", &[Value::Nil]).unwrap(), Value::Bool(true));
        assert_eq!(call("list?", &[Value::cons(1.into(), 2.into())]).unwrap(), Value::Bool(false));
        assert_eq!(call("not", &[Value::Bool(false)]).unwrap(), Value::Bool(true));
        assert_eq!(call("not", &[0.into()]).unwrap(), Value::Bool(false));
        assert_eq!(call("even?", &[4.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("odd?", &[(-3).into()]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn numeric_extras() {
        assert_eq!(call("min", &[3.into(), 1.into(), 2.into()]).unwrap(), Value::Fixnum(1));
        assert_eq!(call("max", &[3.into(), Value::Flonum(4.5)]).unwrap(), Value::Flonum(4.5));
        assert_eq!(call("abs", &[(-3).into()]).unwrap(), Value::Fixnum(3));
        assert_eq!(call("gcd", &[12.into(), 18.into()]).unwrap(), Value::Fixnum(6));
        assert_eq!(call("expt", &[2.into(), 10.into()]).unwrap(), Value::Fixnum(1024));
        assert_eq!(call("sqrt", &[9.into()]).unwrap(), Value::Fixnum(3));
        assert_eq!(call("sqrt", &[2.into()]).unwrap(), Value::Flonum(2f64.sqrt()));
        assert_eq!(call("floor", &[Value::Flonum(2.7)]).unwrap(), Value::Flonum(2.0));
        assert_eq!(call("round", &[Value::Flonum(2.5)]).unwrap(), Value::Flonum(2.0));
        assert_eq!(call("round", &[Value::Flonum(3.5)]).unwrap(), Value::Flonum(4.0));
        assert_eq!(call("exact->inexact", &[2.into()]).unwrap(), Value::Flonum(2.0));
        assert_eq!(call("inexact->exact", &[Value::Flonum(2.0)]).unwrap(), Value::Fixnum(2));
    }

    #[test]
    fn char_operations() {
        assert_eq!(call("char->integer", &['A'.into()]).unwrap(), Value::Fixnum(65));
        assert_eq!(call("integer->char", &[97.into()]).unwrap(), Value::Char('a'));
        assert_eq!(call("char=?", &['a'.into(), 'a'.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("char<?", &['a'.into(), 'b'.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("char-upcase", &['a'.into()]).unwrap(), Value::Char('A'));
        assert_eq!(call("char-alphabetic?", &['a'.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("char-numeric?", &['7'.into()]).unwrap(), Value::Bool(true));
        assert_eq!(call("char-whitespace?", &[' '.into()]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn io_writes_to_ctx() {
        let idx = PRIMITIVES.iter().position(|d| d.name == "display").unwrap();
        let PrimKind::Normal(f) = &PRIMITIVES[idx].kind else { panic!() };
        let mut out = String::new();
        f(&mut PrimCtx { out: &mut out }, &["hi".into()]).unwrap();
        assert_eq!(out, "hi");
        let idx = PRIMITIVES.iter().position(|d| d.name == "write").unwrap();
        let PrimKind::Normal(f) = &PRIMITIVES[idx].kind else { panic!() };
        f(&mut PrimCtx { out: &mut out }, &["hi".into()]).unwrap();
        assert_eq!(out, "hi\"hi\"");
    }

    #[test]
    fn error_raises() {
        let e = call("error", &["boom".into(), 42.into()]).unwrap_err();
        assert_eq!(e.to_string(), "runtime error: boom 42");
    }

    #[test]
    fn mutation_primitives() {
        let p = Value::cons(1.into(), 2.into());
        call("set-car!", &[p.clone(), 10.into()]).unwrap();
        call("set-cdr!", &[p.clone(), 20.into()]).unwrap();
        assert_eq!(p.to_string(), "(10 . 20)");
    }

    #[test]
    fn install_defines_all() {
        let mut globals = crate::code::Globals::new();
        install(&mut globals);
        let g = globals.lookup(Symbol::intern("call/cc")).unwrap();
        assert!(matches!(globals.get(g).unwrap(), Value::Primitive(_)));
        assert_eq!(globals.len(), PRIMITIVES.len());
    }
}
