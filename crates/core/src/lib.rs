//! # segstack-core
//!
//! A faithful implementation of the segmented control stack from
//! *Representing Control in the Presence of First-Class Continuations*
//! (Robert Hieb, R. Kent Dybvig, Carl Bruggeman — PLDI 1990), the technique
//! adopted by Chez Scheme for `call/cc`.
//!
//! The control stack is represented as a linked list of *stack segments*,
//! each a true stack of activation records described by a *stack record*
//! (base, link, size, and the return address of its topmost frame):
//!
//! * **Capturing a continuation is O(1)** and copies nothing: the current
//!   segment is split in place at the top frame (Figure 5).
//! * **Reinstating a continuation copies a bounded amount**: saved segments
//!   larger than the *copy bound* are first split at a frame boundary
//!   (Figures 6–7), and the rest is reinstalled lazily through stack
//!   underflow.
//! * **Overflow and underflow are implicit capture and reinstatement**
//!   (§5), detected by a single register compare against an end-of-stack
//!   pointer with a two-frame reserve (Figure 8) — leaf procedures and tail
//!   loops never check.
//! * **Frames carry no dynamic links**: walkers recover frame boundaries
//!   from frame-size words the compiler places in the code stream just
//!   before each return point (Figure 4), modeled by [`FrameSizeTable`].
//!
//! The [`ControlStack`] trait abstracts the activation-record protocol so
//! that the baseline strategies the paper compares against (heap, naive
//! copy, stack cache, hybrid stack/heap — see the `segstack-baselines`
//! crate) are drop-in replacements under the same VM.
//!
//! ## Quick start
//!
//! ```
//! use segstack_core::{Config, ControlStack, ReturnAddress, SegmentedStack, TestCode, TestSlot};
//! use std::rc::Rc;
//!
//! let code = Rc::new(TestCode::new());
//! let mut stack = SegmentedStack::<TestSlot>::new(Config::default(), code.clone())?;
//!
//! // Make a call: stage the argument, then transfer control.
//! let ra = code.ret_point(4);
//! stack.set(5, TestSlot::Int(1));
//! stack.call(4, ra, 1, true)?;
//!
//! // Capture the current continuation: O(1), no copying.
//! let k = stack.capture();
//!
//! // Return "past" the capture point, then come back by reinstating.
//! assert_eq!(stack.ret()?, ReturnAddress::Code(ra));
//! assert_eq!(stack.reinstate(&k)?, ReturnAddress::Code(ra));
//! # Ok::<(), segstack_core::StackError>(())
//! ```
//!
//! For a full language driving this machinery, see the `segstack-scheme`
//! crate (a Scheme compiler and VM with first-class `call/cc`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod drops;
mod error;
mod metrics;
mod record;
pub mod rng;
mod segment;
mod segmented;
pub mod sim;
mod slot;
mod traits;
pub mod walker;

/// The observability layer (the recording ring and its `emit` helper,
/// histograms, Chrome/Perfetto export), re-exported for downstream crates.
pub use segstack_trace as trace;
/// Key tracing types, re-exported at the crate root: the recording ring
/// a traced [`SegmentedStack`] writes into, and the event vocabulary.
pub use segstack_trace::{EventKind, RingSink};

pub use addr::{CodeAddr, FrameSizeTable, ReturnAddress, TestCode};
pub use config::{Config, ConfigBuilder};
pub use drops::{defer_drop, defer_slots};
pub use error::StackError;
pub use metrics::Metrics;
pub use record::{Continuation, ExitKont, KontRepr, Resume};
pub use segment::{Buffer, SegmentAllocator};
pub use segmented::SegmentedStack;
pub use slot::{StackSlot, TestSlot};
pub use traits::{ControlStack, StackStats};
