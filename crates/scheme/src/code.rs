//! Compiled code: instructions, chunks, the code store, and the global
//! table.
//!
//! The code store is the Scheme system's "code stream". Exactly as in the
//! paper (§3, Figure 4), a [`Instr::FrameSize`] data word sits immediately
//! before every return point; the store's
//! [`FrameSizeTable`](segstack_core::FrameSizeTable) implementation reads
//! `instrs[ra - 1]` to recover frame displacements for stack walking,
//! continuation splitting and frame migration.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use segstack_core::{CodeAddr, FrameSizeTable};

use crate::error::SchemeError;
use crate::intern::Symbol;
use crate::primitives::FastOp;
use crate::value::Value;

/// How a non-tail call site treats the stack-overflow check (Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    /// The site performs the overflow check, re-establishing the
    /// two-frame reserve for its callee.
    Yes,
    /// The check is statically elided: the callee is a leaf lambda and
    /// provably stays within the reserve, or the `never` policy is in
    /// force.
    Elided,
}

impl Check {
    /// Whether the VM must execute the overflow check at this site.
    pub fn performs_check(self) -> bool {
        matches!(self, Check::Yes)
    }
}

/// Monomorphic inline-cache target for a global-operator call site.
///
/// Only metadata that is `Copy` is cached; the operator *value* is still
/// read from the global table on a hit (the version match guarantees it
/// is the same binding the cache was filled from).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IcTarget {
    /// Nothing cached (never executed, or the operator is uncacheable —
    /// a continuation, a special form primitive, etc.).
    #[default]
    Empty,
    /// A `PrimKind::Normal` primitive whose arity already validated for
    /// this site's fixed argument count.
    Prim {
        /// Primitive table index.
        p: u16,
        /// Fixnum fast-path operation, if the primitive has one.
        fast: FastOp,
    },
    /// A closure; arity metadata lets the hit path skip `adjust_arity`.
    Closure {
        /// Code chunk of the closure body.
        chunk: u32,
        /// Required parameter count.
        nparams: u16,
        /// Whether extra arguments form a rest list.
        variadic: bool,
    },
}

/// One inline-cache slot. Interior-mutable: chunks are shared behind
/// `Rc` in a single-threaded engine, and the cache is pure memoization —
/// resetting it never changes behaviour, only dispatch cost.
#[derive(Debug, Default)]
pub struct IcSlot {
    /// Global-table version the cache entry was filled at.
    pub version: Cell<u32>,
    /// The cached target.
    pub target: Cell<IcTarget>,
}

/// A bytecode instruction.
///
/// Slot indices are relative to the current frame base: slot 0 is the
/// return address, slot 1 the operator (closure), slots `2..2+nparams` the
/// arguments, temporaries above.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `acc = consts[i]`.
    Const(u32),
    /// `acc = fixnum`.
    Fix(i64),
    /// `acc = #t` / `#f` / `()` / unspecified.
    True,
    /// See [`Instr::True`].
    False,
    /// See [`Instr::True`].
    Nil,
    /// See [`Instr::True`].
    Unspec,
    /// `acc = frame[slot]`.
    LocalRef(u16),
    /// `frame[slot] = acc`.
    LocalSet(u16),
    /// `acc = cell-contents(frame[slot])` (assignment-converted variable).
    CellRef(u16),
    /// `cell-contents(frame[slot]) = acc`.
    CellSet(u16),
    /// `acc = closure.free[i]` (closure is `frame[1]`).
    FreeRef(u16),
    /// `acc = cell-contents(closure.free[i])`.
    FreeCellRef(u16),
    /// `cell-contents(closure.free[i]) = acc`.
    FreeCellSet(u16),
    /// `frame[slot] = new cell(frame[slot])` — prologue boxing of assigned
    /// parameters (paper §3: assignable parameters live in heap cells).
    WrapCell(u16),
    /// `acc = globals[g]`, erroring if unbound.
    GlobalRef(u32),
    /// `globals[g] = acc`, erroring if not yet defined.
    GlobalSet(u32),
    /// `globals[g] = acc`, defining.
    GlobalDef(u32),
    /// `acc = closure { chunk, free: frame[src..src+nfree] }`.
    MakeClosure {
        /// Code chunk of the body.
        chunk: u32,
        /// First staged free-variable slot.
        src: u16,
        /// Number of free variables.
        nfree: u16,
    },
    /// Unconditional jump to an offset in the current chunk.
    Jump(u32),
    /// Jump if `acc` is `#f`.
    JumpIfFalse(u32),
    /// Non-tail call: operator staged at `frame[d+1]`, arguments at
    /// `frame[d+2..]`. Always preceded by a `FrameSize` word (the handler
    /// re-entry point) and followed by `FrameSize(d)` then the return
    /// point.
    Call {
        /// Frame displacement.
        d: u16,
        /// Number of arguments staged.
        nargs: u16,
        /// How this site treats the stack-overflow check.
        check: Check,
    },
    /// Tail call: operator staged at `frame[src]`, arguments after it.
    /// Always preceded by a `FrameSize` word.
    TailCall {
        /// Operator slot.
        src: u16,
        /// Number of arguments staged.
        nargs: u16,
    },
    /// Superinstruction: `frame[dst] = frame[src]` without touching the
    /// accumulator (fused `LocalRef(src); LocalSet(dst)`). Only emitted
    /// where the accumulator is provably dead.
    Move {
        /// Source slot.
        src: u16,
        /// Destination slot.
        dst: u16,
    },
    /// Superinstruction: `frame[dst] = fixnum` without touching the
    /// accumulator (fused `Fix(n); LocalSet(dst)`).
    FixStage {
        /// The fixnum staged.
        n: i64,
        /// Destination slot.
        dst: u16,
    },
    /// Superinstruction: `frame[dst] = globals[g]` without touching the
    /// accumulator (fused `GlobalRef(g); LocalSet(dst)`), erroring if
    /// unbound.
    GlobalStage {
        /// Global slot.
        g: u32,
        /// Destination slot.
        dst: u16,
    },
    /// Superinstruction: fused `GlobalRef(g); LocalSet(d+1); Call` with a
    /// monomorphic inline cache. The VM stages the operator itself; on a
    /// cache hit a primitive runs without the generic dispatch and a
    /// closure call skips the arity adjustment. Framing invariants are
    /// identical to [`Instr::Call`] (a `FrameSize` word before and
    /// after).
    CallGlobal {
        /// Global slot of the operator.
        g: u32,
        /// Inline-cache index into [`Chunk::ics`].
        ic: u32,
        /// Frame displacement.
        d: u16,
        /// Number of arguments staged.
        nargs: u16,
        /// How this site treats the stack-overflow check.
        check: Check,
    },
    /// Superinstruction: fused `GlobalRef(g); LocalSet(src); TailCall`
    /// with a monomorphic inline cache. Preceded by a `FrameSize` word
    /// like [`Instr::TailCall`].
    TailCallGlobal {
        /// Global slot of the operator.
        g: u32,
        /// Inline-cache index into [`Chunk::ics`].
        ic: u32,
        /// Operator slot.
        src: u16,
        /// Number of arguments staged.
        nargs: u16,
    },
    /// Return `acc` to the current frame's return address.
    Return,
    /// The frame-size data word placed in the code stream (never executed;
    /// stack walkers read it through the return address).
    FrameSize(u32),
}

// The dispatch loop clones one `Instr` per step. A fused test+branch call
// with one more `u32` field once made every instruction 24 bytes, and the
// call-heavy workload measurably slower; keep the enum at 16.
const _: () = assert!(std::mem::size_of::<Instr>() <= 16);

/// A compiled code chunk: one lambda body or one top-level form.
#[derive(Debug)]
pub struct Chunk {
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Required parameter count (lambda chunks).
    pub nparams: u16,
    /// Whether extra arguments are collected into a rest list.
    pub variadic: bool,
    /// Name for diagnostics.
    pub name: String,
    /// Maximum frame slots used (static frame size — experiment E14).
    pub frame_slots: u16,
    /// Inline-cache slots, one per `CallGlobal`-family site.
    pub ics: Vec<IcSlot>,
}

/// Append-only store of compiled chunks; the system's code stream.
///
/// Implements [`FrameSizeTable`] by reading the data word before each
/// return point, exactly as the paper's stack walker does.
#[derive(Debug, Default)]
pub struct CodeStore {
    chunks: RefCell<Vec<Rc<Chunk>>>,
}

impl CodeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        CodeStore::default()
    }

    /// Adds a chunk, returning its id.
    pub fn add(&self, chunk: Chunk) -> u32 {
        let mut chunks = self.chunks.borrow_mut();
        let id = chunks.len() as u32;
        chunks.push(Rc::new(chunk));
        id
    }

    /// Fetches a chunk by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this store.
    pub fn chunk(&self, id: u32) -> Rc<Chunk> {
        self.chunks.borrow()[id as usize].clone()
    }

    /// Number of chunks compiled so far.
    pub fn len(&self) -> usize {
        self.chunks.borrow().len()
    }

    /// Returns `true` if no chunks have been compiled.
    pub fn is_empty(&self) -> bool {
        self.chunks.borrow().is_empty()
    }

    /// Static frame sizes of every compiled chunk (experiment E14's input).
    pub fn frame_sizes(&self) -> Vec<u16> {
        self.chunks.borrow().iter().map(|c| c.frame_slots).collect()
    }
}

/// A violation found by [`CodeStore::verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Chunk the violation is in.
    pub chunk: u32,
    /// Instruction offset.
    pub offset: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk {} @{}: {}", self.chunk, self.offset, self.message)
    }
}

impl CodeStore {
    /// Structurally verifies every compiled chunk:
    ///
    /// * every `Call` is preceded by a `FrameSize` word (the timer re-entry
    ///   point) **and** followed by one (the word before the return point —
    ///   the paper's Figure 4 invariant that makes stacks walkable);
    /// * every `TailCall` is preceded by a `FrameSize` word;
    /// * jump targets stay inside the chunk;
    /// * constant-pool and closure-chunk references resolve;
    /// * staged slots stay within the recorded frame size.
    ///
    /// Returns every violation found (empty = verified).
    pub fn verify(&self) -> Vec<VerifyError> {
        let chunks = self.chunks.borrow();
        let mut errors = Vec::new();
        for (id, chunk) in chunks.iter().enumerate() {
            let id32 = id as u32;
            let n = chunk.instrs.len();
            let mut err = |offset: usize, message: String| {
                errors.push(VerifyError { chunk: id32, offset, message });
            };
            for (i, instr) in chunk.instrs.iter().enumerate() {
                let framesize_at =
                    |j: usize| matches!(chunk.instrs.get(j), Some(Instr::FrameSize(_)));
                if let Instr::CallGlobal { ic, .. } | Instr::TailCallGlobal { ic, .. } = instr {
                    if *ic as usize >= chunk.ics.len() {
                        err(
                            i,
                            format!("inline-cache index {ic} outside table of {}", chunk.ics.len()),
                        );
                    }
                }
                match instr {
                    Instr::Call { d, nargs, .. } | Instr::CallGlobal { d, nargs, .. } => {
                        if i == 0 || !framesize_at(i - 1) {
                            err(i, "call not preceded by a frame-size word".into());
                        }
                        if !framesize_at(i + 1) {
                            err(i, "call's return point lacks its frame-size word".into());
                        }
                        if usize::from(d + 2 + nargs) > usize::from(chunk.frame_slots) {
                            err(
                                i,
                                format!(
                                    "call stages {} slots beyond the recorded frame size {}",
                                    d + 2 + nargs,
                                    chunk.frame_slots
                                ),
                            );
                        }
                    }
                    Instr::TailCall { src, nargs } | Instr::TailCallGlobal { src, nargs, .. } => {
                        if i == 0 || !framesize_at(i - 1) {
                            err(i, "tail call not preceded by a frame-size word".into());
                        }
                        if usize::from(src + 1 + nargs) > usize::from(chunk.frame_slots) {
                            err(i, "tail call stages beyond the recorded frame size".into());
                        }
                    }
                    Instr::Move { src, dst } => {
                        for slot in [src, dst] {
                            if usize::from(*slot) >= usize::from(chunk.frame_slots) {
                                err(
                                    i,
                                    format!(
                                        "move slot {slot} beyond recorded frame size {}",
                                        chunk.frame_slots
                                    ),
                                );
                            }
                        }
                    }
                    Instr::FixStage { dst, .. } | Instr::GlobalStage { dst, .. }
                        if usize::from(*dst) >= usize::from(chunk.frame_slots) =>
                    {
                        err(
                            i,
                            format!(
                                "staged slot {dst} beyond recorded frame size {}",
                                chunk.frame_slots
                            ),
                        );
                    }
                    Instr::Jump(t) | Instr::JumpIfFalse(t) if *t as usize > n => {
                        err(i, format!("jump target {t} outside chunk of {n}"));
                    }
                    Instr::Const(c) if *c as usize >= chunk.consts.len() => {
                        err(i, format!("constant {c} outside pool of {}", chunk.consts.len()));
                    }
                    Instr::MakeClosure { chunk: target, .. }
                        if *target as usize >= chunks.len() =>
                    {
                        err(i, format!("closure chunk {target} does not exist"));
                    }
                    Instr::LocalSet(slot)
                        if usize::from(*slot) >= usize::from(chunk.frame_slots) =>
                    {
                        err(
                            i,
                            format!(
                                "slot {slot} written beyond recorded frame size {}",
                                chunk.frame_slots
                            ),
                        );
                    }
                    _ => {}
                }
            }
        }
        errors
    }
}

impl FrameSizeTable for CodeStore {
    fn displacement(&self, ra: CodeAddr) -> usize {
        let chunks = self.chunks.borrow();
        let chunk = &chunks[ra.chunk() as usize];
        match chunk.instrs[ra.offset() as usize - 1] {
            Instr::FrameSize(d) => d as usize,
            ref other => panic!(
                "return point {ra} in chunk {:?} is not preceded by a frame-size word (found {other:?})",
                chunk.name
            ),
        }
    }
}

/// The global-variable table.
///
/// Globals are indexed slots so compiled code avoids hashing; unbound
/// references fail at runtime with the variable's name.
#[derive(Debug, Default)]
pub struct Globals {
    names: Vec<Symbol>,
    values: Vec<Option<Value>>,
    /// Per-slot write version, bumped on every `define`/`set!` — the
    /// invalidation signal for inline caches keyed on a global operator.
    versions: Vec<u32>,
    map: HashMap<Symbol, u32>,
}

impl Globals {
    /// Creates an empty global table.
    pub fn new() -> Self {
        Globals::default()
    }

    /// Returns the slot for `name`, creating an (unbound) one if needed.
    pub fn slot(&mut self, name: Symbol) -> u32 {
        if let Some(&id) = self.map.get(&name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name);
        self.values.push(None);
        self.versions.push(0);
        self.map.insert(name, id);
        id
    }

    /// Looks up a slot without creating it.
    pub fn lookup(&self, name: Symbol) -> Option<u32> {
        self.map.get(&name).copied()
    }

    /// Reads global `g`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if the variable has never been defined.
    pub fn get(&self, g: u32) -> Result<Value, SchemeError> {
        self.values[g as usize].clone().ok_or_else(|| {
            SchemeError::runtime(format!("unbound variable: {}", self.names[g as usize]))
        })
    }

    /// Writes global `g` via `set!`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Runtime`] if the variable has never been defined.
    pub fn set(&mut self, g: u32, v: Value) -> Result<(), SchemeError> {
        let slot = &mut self.values[g as usize];
        if slot.is_none() {
            return Err(SchemeError::runtime(format!(
                "set!: unbound variable: {}",
                self.names[g as usize]
            )));
        }
        *slot = Some(v);
        self.versions[g as usize] = self.versions[g as usize].wrapping_add(1);
        Ok(())
    }

    /// Defines (or redefines) global `g`.
    pub fn define(&mut self, g: u32, v: Value) {
        self.values[g as usize] = Some(v);
        self.versions[g as usize] = self.versions[g as usize].wrapping_add(1);
    }

    /// The write version of slot `g` (bumped on every `define`/`set!`).
    /// Inline caches record the version they were filled at and treat any
    /// difference as an invalidation.
    pub fn version(&self, g: u32) -> u32 {
        self.versions[g as usize]
    }

    /// The name of global slot `g`.
    pub fn name(&self, g: u32) -> Symbol {
        self.names[g as usize]
    }

    /// Is slot `g` currently bound?
    pub fn is_bound(&self, g: u32) -> bool {
        self.values[g as usize].is_some()
    }

    /// Number of global slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Display for Chunk {
    /// Disassembly listing, for debugging and tests.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; chunk {:?} params={} variadic={} frame={}",
            self.name, self.nparams, self.variadic, self.frame_slots
        )?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:4}  {instr:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_store_round_trips_chunks() {
        let store = CodeStore::new();
        assert!(store.is_empty());
        let id = store.add(Chunk {
            instrs: vec![Instr::Fix(1), Instr::Return],
            consts: vec![],
            nparams: 0,
            variadic: false,
            name: "t".into(),
            frame_slots: 1,
            ics: Vec::new(),
        });
        assert_eq!(id, 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.chunk(0).instrs.len(), 2);
        assert_eq!(store.frame_sizes(), vec![1]);
    }

    #[test]
    fn displacement_reads_the_word_before_the_return_point() {
        let store = CodeStore::new();
        let id = store.add(Chunk {
            instrs: vec![
                Instr::FrameSize(9),
                Instr::Call { d: 3, nargs: 1, check: Check::Yes },
                Instr::FrameSize(3),
                Instr::Return, // return point at offset 3
            ],
            consts: vec![],
            nparams: 0,
            variadic: false,
            name: "t".into(),
            frame_slots: 6,
            ics: Vec::new(),
        });
        assert_eq!(store.displacement(CodeAddr::new(id, 3)), 3);
        assert_eq!(store.displacement(CodeAddr::new(id, 1)), 9);
    }

    #[test]
    #[should_panic(expected = "not preceded by a frame-size word")]
    fn displacement_panics_on_non_return_point() {
        let store = CodeStore::new();
        let id = store.add(Chunk {
            instrs: vec![Instr::Fix(1), Instr::Return],
            consts: vec![],
            nparams: 0,
            variadic: false,
            name: "t".into(),
            frame_slots: 1,
            ics: Vec::new(),
        });
        store.displacement(CodeAddr::new(id, 1));
    }

    #[test]
    fn globals_define_set_get() {
        let mut g = Globals::new();
        let x = g.slot(Symbol::intern("x"));
        assert_eq!(g.slot(Symbol::intern("x")), x, "slots are stable");
        assert!(!g.is_bound(x));
        assert!(g.get(x).is_err());
        assert!(g.set(x, Value::Fixnum(1)).is_err(), "set! before define fails");
        g.define(x, Value::Fixnum(1));
        assert_eq!(g.get(x).unwrap(), Value::Fixnum(1));
        g.set(x, Value::Fixnum(2)).unwrap();
        assert_eq!(g.get(x).unwrap(), Value::Fixnum(2));
        assert_eq!(g.name(x), Symbol::intern("x"));
        assert_eq!(g.lookup(Symbol::intern("x")), Some(x));
        assert_eq!(g.lookup(Symbol::intern("y")), None);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn chunk_disassembly_is_nonempty() {
        let c = Chunk {
            instrs: vec![Instr::Nil, Instr::Return],
            consts: vec![],
            nparams: 1,
            variadic: true,
            name: "f".into(),
            frame_slots: 3,
            ics: Vec::new(),
        };
        let listing = c.to_string();
        assert!(listing.contains("chunk \"f\""));
        assert!(listing.contains("Return"));
    }
}
