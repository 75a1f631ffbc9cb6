//! Runtime values.
//!
//! A [`Value`] is both a Scheme datum and a machine word: frames in the
//! control stack hold `Value`s directly (the `StackSlot` impl), so copying
//! a stack segment clones values — one clone is one "slot copied" in the
//! cost model.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use segstack_core::{defer_slots, Continuation, ReturnAddress, StackSlot};

use crate::code::Chunk;
use crate::error::SchemeError;
use crate::intern::Symbol;

/// A cons cell with mutable fields (`set-car!` / `set-cdr!`).
#[derive(Debug)]
pub struct Pair {
    /// The car field.
    pub car: RefCell<Value>,
    /// The cdr field.
    pub cdr: RefCell<Value>,
}

// Every aggregate hands the values it holds to the deferred-drop queue
// (`segstack_core::defer_slots`) when it dies: data nests through any of
// them without bound, and a recursive drop of a deep nest would overflow
// the native stack.

impl Drop for Pair {
    fn drop(&mut self) {
        defer_slots(&mut [self.car.take(), self.cdr.take()]);
    }
}

/// A compiled procedure: a code chunk plus captured free-variable values
/// (flat "display" closures, as in Chez). The closure owns its chunk,
/// which carries the procedure's arity and name.
#[derive(Debug)]
pub struct Closure {
    /// The compiled body.
    pub chunk: Rc<Chunk>,
    /// Captured free-variable values.
    pub free: Box<[Value]>,
}

impl Drop for Closure {
    fn drop(&mut self) {
        defer_slots(&mut self.free);
    }
}

/// A vector's elements.
#[derive(Debug)]
pub struct VectorStore(RefCell<Vec<Value>>);

impl Deref for VectorStore {
    type Target = RefCell<Vec<Value>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for VectorStore {
    fn drop(&mut self) {
        defer_slots(self.0.get_mut());
    }
}

/// The contents of an assignment-converted variable's cell.
#[derive(Debug)]
pub struct CellStore(RefCell<Value>);

impl Deref for CellStore {
    type Target = RefCell<Value>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for CellStore {
    fn drop(&mut self) {
        defer_slots(std::slice::from_mut(self.0.get_mut()));
    }
}

/// The values of a `values` call.
#[derive(Debug)]
pub struct ValuesStore(Box<[Value]>);

impl Deref for ValuesStore {
    type Target = [Value];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for ValuesStore {
    fn drop(&mut self) {
        defer_slots(&mut self.0);
    }
}

/// Index into the primitive-procedure table (see
/// [`crate::primitives::PRIMITIVES`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Primitive(pub u16);

/// A Scheme runtime value.
///
/// Immediate values (`Fixnum`, `Bool`, …) are unboxed; aggregates are
/// reference-counted with interior mutability, matching Scheme's object
/// identity semantics.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// Exact integer.
    Fixnum(i64),
    /// Inexact real.
    Flonum(f64),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// The empty list `()`.
    Nil,
    /// The unspecified value (result of `set!`, `define`, …).
    #[default]
    Unspecified,
    /// Interned symbol.
    Sym(Symbol),
    /// Mutable string.
    Str(Rc<RefCell<String>>),
    /// Cons cell.
    Pair(Rc<Pair>),
    /// Mutable vector.
    Vector(Rc<VectorStore>),
    /// Compiled closure.
    Closure(Rc<Closure>),
    /// Primitive procedure.
    Primitive(Primitive),
    /// First-class continuation.
    Kont(Continuation<Value>),
    /// Assignment-converted variable cell ("pointers to cells in the heap
    /// containing the actual parameters if the parameters are assignable",
    /// paper §3).
    Cell(Rc<CellStore>),
    /// An in-memory output port (`open-output-string`).
    Port(Rc<RefCell<String>>),
    /// Multiple return values (`values`); consumed by
    /// `call-with-values`.
    Values(Rc<ValuesStore>),
    /// A return address occupying a frame-base slot (never a user datum).
    Ra(ReturnAddress),
}

impl Value {
    /// Builds a cons cell.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(Pair { car: RefCell::new(car), cdr: RefCell::new(cdr) }))
    }

    /// Builds a proper list from the items.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value
    where
        I::IntoIter: DoubleEndedIterator,
    {
        let mut out = Value::Nil;
        for v in items.into_iter().rev() {
            out = Value::cons(v, out);
        }
        out
    }

    /// Builds an interned symbol value.
    pub fn sym(name: &str) -> Value {
        Value::Sym(Symbol::intern(name))
    }

    /// Builds a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::Str(Rc::new(RefCell::new(s.into())))
    }

    /// Builds a vector value.
    pub fn vector(items: Vec<Value>) -> Value {
        Value::Vector(Rc::new(VectorStore(RefCell::new(items))))
    }

    /// Builds a fresh assignment-conversion cell holding `v`.
    pub fn cell(v: Value) -> Value {
        Value::Cell(Rc::new(CellStore(RefCell::new(v))))
    }

    /// Builds a multiple-values object.
    pub fn values(items: Vec<Value>) -> Value {
        Value::Values(Rc::new(ValuesStore(items.into_boxed_slice())))
    }

    /// Builds a fresh string output port.
    pub fn string_port() -> Value {
        Value::Port(Rc::new(RefCell::new(String::new())))
    }

    /// Scheme truthiness: everything but `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// Returns the car of a pair.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if `self` is not a pair.
    pub fn car(&self) -> Result<Value, SchemeError> {
        match self {
            Value::Pair(p) => Ok(p.car.borrow().clone()),
            _ => Err(SchemeError::runtime(format!("car: not a pair: {self}"))),
        }
    }

    /// Returns the cdr of a pair.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if `self` is not a pair.
    pub fn cdr(&self) -> Result<Value, SchemeError> {
        match self {
            Value::Pair(p) => Ok(p.cdr.borrow().clone()),
            _ => Err(SchemeError::runtime(format!("cdr: not a pair: {self}"))),
        }
    }

    /// Collects a proper list into a vector of its elements.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if `self` is not a proper list.
    pub fn list_to_vec(&self) -> Result<Vec<Value>, SchemeError> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Nil => return Ok(out),
                Value::Pair(p) => {
                    out.push(p.car.borrow().clone());
                    let next = p.cdr.borrow().clone();
                    cur = next;
                }
                other => {
                    return Err(SchemeError::runtime(format!("improper list ends in {other}")))
                }
            }
        }
    }

    /// Length of a proper list, or `None` for non-lists/improper lists.
    pub fn list_len(&self) -> Option<usize> {
        let mut n = 0;
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Nil => return Some(n),
                Value::Pair(p) => {
                    n += 1;
                    let next = p.cdr.borrow().clone();
                    cur = next;
                }
                _ => return None,
            }
        }
    }

    /// Identity equality (`eq?`): pointer identity for aggregates,
    /// value identity for immediates.
    pub fn eq_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Fixnum(a), Value::Fixnum(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Nil, Value::Nil) => true,
            (Value::Unspecified, Value::Unspecified) => true,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Rc::ptr_eq(a, b),
            (Value::Pair(a), Value::Pair(b)) => Rc::ptr_eq(a, b),
            (Value::Vector(a), Value::Vector(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Primitive(a), Value::Primitive(b)) => a == b,
            (Value::Kont(a), Value::Kont(b)) => a.ptr_eq(b),
            (Value::Cell(a), Value::Cell(b)) => Rc::ptr_eq(a, b),
            (Value::Port(a), Value::Port(b)) => Rc::ptr_eq(a, b),
            (Value::Values(a), Value::Values(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Operational equivalence (`eqv?`): `eq?` plus numeric equality of
    /// flonums of the same kind.
    pub fn eqv_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Flonum(a), Value::Flonum(b)) => a == b,
            _ => self.eq_value(other),
        }
    }

    /// Structural equality (`equal?`). Walks a list's cdr chain in a loop,
    /// so only car and vector-element nesting uses the host stack.
    pub fn equal_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => *a.borrow() == *b.borrow(),
            (Value::Pair(a), Value::Pair(b)) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                loop {
                    if Rc::ptr_eq(&a, &b) {
                        return true;
                    }
                    if !a.car.borrow().equal_value(&b.car.borrow()) {
                        return false;
                    }
                    let next = match (&*a.cdr.borrow(), &*b.cdr.borrow()) {
                        (Value::Pair(x), Value::Pair(y)) => (x.clone(), y.clone()),
                        (x, y) => return x.equal_value(y),
                    };
                    (a, b) = next;
                }
            }
            (Value::Vector(a), Value::Vector(b)) => {
                Rc::ptr_eq(a, b) || {
                    let (a, b) = (a.borrow(), b.borrow());
                    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equal_value(y))
                }
            }
            _ => self.eqv_value(other),
        }
    }

    /// The name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Fixnum(_) => "fixnum",
            Value::Flonum(_) => "flonum",
            Value::Bool(_) => "boolean",
            Value::Char(_) => "char",
            Value::Nil => "null",
            Value::Unspecified => "unspecified",
            Value::Sym(_) => "symbol",
            Value::Str(_) => "string",
            Value::Pair(_) => "pair",
            Value::Vector(_) => "vector",
            Value::Closure(_) => "procedure",
            Value::Primitive(_) => "procedure",
            Value::Kont(_) => "continuation",
            Value::Cell(_) => "cell",
            Value::Port(_) => "port",
            Value::Values(_) => "values",
            Value::Ra(_) => "return-address",
        }
    }

    /// Returns the fixnum payload or a type error.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if `self` is not a fixnum.
    pub fn as_fixnum(&self) -> Result<i64, SchemeError> {
        match self {
            Value::Fixnum(n) => Ok(*n),
            _ => Err(SchemeError::runtime(format!("expected a fixnum, got {self}"))),
        }
    }

    /// Is this value a procedure (closure, primitive or continuation)?
    pub fn is_procedure(&self) -> bool {
        matches!(self, Value::Closure(_) | Value::Primitive(_) | Value::Kont(_))
    }
}

/// `PartialEq` is Scheme's `equal?` (structural equality) — convenient for
/// tests; use [`Value::eq_value`] / [`Value::eqv_value`] for the finer
/// predicates.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.equal_value(other)
    }
}

impl StackSlot for Value {
    fn from_return_address(ra: ReturnAddress) -> Self {
        Value::Ra(ra)
    }

    fn as_return_address(&self) -> Option<ReturnAddress> {
        match self {
            Value::Ra(ra) => Some(*ra),
            _ => None,
        }
    }

    fn empty() -> Self {
        Value::Unspecified
    }

    /// Immediates own no heap data and stay as they are: a release scans
    /// whole dead spans, and writing only the heap slots keeps it cheap. A
    /// new variant must join the immediates or get its handle below.
    fn release(&mut self) -> Option<Rc<dyn Any>> {
        if matches!(
            self,
            Value::Fixnum(_)
                | Value::Flonum(_)
                | Value::Bool(_)
                | Value::Char(_)
                | Value::Nil
                | Value::Unspecified
                | Value::Sym(_)
                | Value::Primitive(_)
                | Value::Ra(_)
        ) {
            return None;
        }
        let handle: Rc<dyn Any> = match std::mem::take(self) {
            Value::Str(s) | Value::Port(s) => s,
            Value::Pair(p) => p,
            Value::Vector(v) => v,
            Value::Closure(c) => c,
            Value::Kont(k) => k.into_any(),
            Value::Cell(c) => c,
            Value::Values(vs) => vs,
            immediate => unreachable!("{immediate} is not listed as an immediate"),
        };
        Some(handle)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Fixnum(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Flonum(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<char> for Value {
    fn from(c: char) -> Value {
        Value::Char(c)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::string(s)
    }
}

const PRINT_DEPTH_LIMIT: usize = 64;

/// Writes `v` in `write` style (strings quoted, chars as `#\x`).
fn write_value(v: &Value, f: &mut fmt::Formatter<'_>, display: bool, depth: usize) -> fmt::Result {
    if depth > PRINT_DEPTH_LIMIT {
        return write!(f, "...");
    }
    match v {
        Value::Fixnum(n) => write!(f, "{n}"),
        Value::Flonum(x) => {
            if x.fract() == 0.0 && x.is_finite() {
                write!(f, "{x:.1}")
            } else {
                write!(f, "{x}")
            }
        }
        Value::Bool(true) => write!(f, "#t"),
        Value::Bool(false) => write!(f, "#f"),
        Value::Char(c) if display => write!(f, "{c}"),
        Value::Char(' ') => write!(f, "#\\space"),
        Value::Char('\n') => write!(f, "#\\newline"),
        Value::Char(c) => write!(f, "#\\{c}"),
        Value::Nil => write!(f, "()"),
        Value::Unspecified => write!(f, "#<unspecified>"),
        Value::Sym(s) => write!(f, "{s}"),
        Value::Str(s) if display => write!(f, "{}", s.borrow()),
        Value::Str(s) => write!(f, "{:?}", s.borrow()),
        Value::Pair(_) => {
            write!(f, "(")?;
            let mut cur = v.clone();
            let mut first = true;
            let mut steps = 0;
            loop {
                match cur {
                    Value::Pair(ref p) => {
                        if !first {
                            write!(f, " ")?;
                        }
                        first = false;
                        steps += 1;
                        if steps > 1000 {
                            write!(f, "...")?;
                            break;
                        }
                        write_value(&p.car.borrow(), f, display, depth + 1)?;
                        let next = p.cdr.borrow().clone();
                        cur = next;
                    }
                    Value::Nil => break,
                    other => {
                        write!(f, " . ")?;
                        write_value(&other, f, display, depth + 1)?;
                        break;
                    }
                }
            }
            write!(f, ")")
        }
        Value::Vector(items) => {
            write!(f, "#(")?;
            for (i, x) in items.borrow().iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write_value(x, f, display, depth + 1)?;
            }
            write!(f, ")")
        }
        Value::Closure(c) => write!(f, "#<procedure {}>", c.chunk.name),
        Value::Primitive(p) => write!(f, "#<primitive {}>", crate::primitives::name_of(*p)),
        Value::Kont(k) => write!(f, "#<continuation {} records>", k.chain_len()),
        Value::Cell(c) => {
            write!(f, "#<cell ")?;
            write_value(&c.borrow(), f, display, depth + 1)?;
            write!(f, ">")
        }
        Value::Port(p) => write!(f, "#<string-port {} chars>", p.borrow().chars().count()),
        Value::Values(vs) => {
            write!(f, "#<values")?;
            for v in vs.iter() {
                write!(f, " ")?;
                write_value(v, f, display, depth + 1)?;
            }
            write!(f, ">")
        }
        Value::Ra(ra) => write!(f, "#<{ra}>"),
    }
}

impl fmt::Display for Value {
    /// `write`-style representation (strings quoted).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f, false, 0)
    }
}

/// Wrapper whose `Display` renders `display` style (strings unquoted).
#[derive(Debug, Clone)]
pub struct Displayed<'a>(pub &'a Value);

impl fmt::Display for Displayed<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self.0, f, true, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_construction_and_flattening() {
        let l = Value::list([Value::Fixnum(1), Value::Fixnum(2), Value::Fixnum(3)]);
        assert_eq!(l.list_len(), Some(3));
        assert_eq!(l.list_to_vec().unwrap(), vec![1.into(), 2.into(), 3.into()]);
        assert_eq!(l.car().unwrap(), Value::Fixnum(1));
        assert_eq!(l.cdr().unwrap().car().unwrap(), Value::Fixnum(2));
    }

    #[test]
    fn improper_lists_are_detected() {
        let d = Value::cons(1.into(), 2.into());
        assert_eq!(d.list_len(), None);
        assert!(d.list_to_vec().is_err());
        assert!(Value::Fixnum(1).car().is_err());
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Nil.is_truthy());
        assert!(Value::Fixnum(0).is_truthy());
        assert!(Value::Unspecified.is_truthy());
    }

    #[test]
    fn eq_eqv_equal_hierarchy() {
        let a = Value::list([1.into(), 2.into()]);
        let b = Value::list([1.into(), 2.into()]);
        assert!(!a.eq_value(&b));
        assert!(!a.eqv_value(&b));
        assert!(a.equal_value(&b));
        assert!(a.eq_value(&a.clone()));

        assert!(Value::Flonum(1.5).eqv_value(&Value::Flonum(1.5)));
        assert!(!Value::Flonum(1.5).eq_value(&Value::Flonum(1.5)));

        let s1 = Value::string("hi");
        let s2 = Value::string("hi");
        assert!(!s1.eq_value(&s2));
        assert!(s1.equal_value(&s2));

        assert!(Value::sym("x").eq_value(&Value::sym("x")));
    }

    #[test]
    fn equal_walks_long_lists_without_recursing_on_the_cdr() {
        let long = |last: i64| Value::list((0..300_000).map(Value::Fixnum).chain([last.into()]));
        assert!(long(-1).equal_value(&long(-1)));
        assert!(!long(-1).equal_value(&long(-2)));
        assert!(!long(-1).equal_value(&Value::list((0..300_000).map(Value::Fixnum))));
    }

    #[test]
    fn partial_eq_is_structural() {
        assert_eq!(Value::list([1.into()]), Value::list([1.into()]));
        assert_ne!(Value::Fixnum(1), Value::Fixnum(2));
    }

    #[test]
    fn write_representations() {
        let l = Value::list(["a".into(), Value::sym("b"), 3.into()]);
        assert_eq!(l.to_string(), r#"("a" b 3)"#);
        assert_eq!(Displayed(&l).to_string(), "(a b 3)");
        assert_eq!(Value::cons(1.into(), 2.into()).to_string(), "(1 . 2)");
        assert_eq!(Value::Bool(true).to_string(), "#t");
        assert_eq!(Value::Char(' ').to_string(), "#\\space");
        assert_eq!(Displayed(&Value::Char('x')).to_string(), "x");
        assert_eq!(Value::Flonum(2.0).to_string(), "2.0");
        assert_eq!(Value::Nil.to_string(), "()");
        let v = Value::vector(vec![1.into(), 2.into()]);
        assert_eq!(v.to_string(), "#(1 2)");
    }

    #[test]
    fn cyclic_structures_print_without_hanging() {
        let p =
            Rc::new(Pair { car: RefCell::new(Value::Fixnum(1)), cdr: RefCell::new(Value::Nil) });
        *p.cdr.borrow_mut() = Value::Pair(p.clone());
        let s = Value::Pair(p).to_string();
        assert!(s.contains("..."));
    }

    #[test]
    fn stack_slot_round_trip() {
        let ra = ReturnAddress::Underflow;
        let v = Value::from_return_address(ra);
        assert_eq!(v.as_return_address(), Some(ra));
        assert_eq!(Value::Fixnum(1).as_return_address(), None);
        assert!(matches!(Value::empty(), Value::Unspecified));
    }

    #[test]
    fn cells_share_state() {
        let c = Value::cell(1.into());
        let c2 = c.clone();
        if let Value::Cell(inner) = &c {
            *inner.borrow_mut() = 2.into();
        }
        if let Value::Cell(inner) = &c2 {
            assert_eq!(*inner.borrow(), Value::Fixnum(2));
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Fixnum(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from('c'), Value::Char('c'));
        assert_eq!(Value::from(2.5), Value::Flonum(2.5));
        assert_eq!(Value::from("s"), Value::string("s"));
        assert_eq!(Value::Fixnum(3).as_fixnum().unwrap(), 3);
        assert!(Value::Bool(true).as_fixnum().is_err());
    }
}
