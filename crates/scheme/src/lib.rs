//! # segstack-scheme
//!
//! A complete Scheme system — lexer, reader, expander, compiler, bytecode
//! VM — whose activation records live in a pluggable control stack. It is
//! the workload substrate for reproducing *Representing Control in the
//! Presence of First-Class Continuations* (Hieb, Dybvig & Bruggeman, PLDI
//! 1990): the same programs run unchanged over the paper's segmented stack
//! and over the four baseline strategies it is compared against.
//!
//! The implementation follows the paper's calling convention: the return
//! address sits at the frame base (so tail calls need not move it, §3),
//! partial frames are staged at compile-time-known displacements, the frame
//! pointer is adjusted by constants at call and return, frame-size words
//! precede every return point in the code stream (Figure 4), and assigned
//! variables are boxed in heap cells so frame slots are single-assignment
//! (§3) — the invariant that lets sealed stack segments be copied or shared
//! safely.
//!
//! ## Quick start
//!
//! ```
//! use segstack_scheme::Engine;
//!
//! let mut engine = Engine::new()?;
//! let v = engine.eval(
//!     "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
//!      (fib 15)",
//! )?;
//! assert_eq!(v.to_string(), "610");
//!
//! // First-class continuations, the paper's subject:
//! let v = engine.eval("(call/cc (lambda (k) (+ 1 (k 41))))")?;
//! assert_eq!(v.to_string(), "41");
//! # Ok::<(), segstack_scheme::SchemeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod code;
mod codegen;
mod error;
pub mod expand;
mod intern;
pub mod lexer;
mod machine;
pub mod macros;
pub mod prelude;
pub mod primitives;
mod reader;
pub mod resolve;
mod value;
mod vm;

pub use code::{Check, Chunk, CodeStore, Globals, IcSlot, IcTarget, Instr, VerifyError};
pub use codegen::{compile_toplevel, CheckPolicy, CompileOptions};
pub use error::{SchemeError, SourcePos};
pub use intern::Symbol;
pub use machine::{Engine, EngineBuilder};
pub use reader::{read_all, read_one};
pub use value::{Closure, Displayed, Pair, Primitive, Value};
pub use vm::{run, TimerState, VmOptions};
