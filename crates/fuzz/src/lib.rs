//! Deterministic control-trace fuzzer for the segstack workspace.
//!
//! Three layers, all seeded by [`SplitMix64`](segstack_core::rng::SplitMix64)
//! so every failure replays from a number:
//!
//! 1. **Trace fuzzing** ([`trace`], [`oracle`], [`driver`]): weighted
//!    random sequences of `call` / `tail_call` / `ret` / `capture` /
//!    `reinstate` / slot ops run through [`SegmentedStack`](segstack_core::SegmentedStack)
//!    and all five baselines via the
//!    [`ControlStack`](segstack_core::ControlStack) trait, compared
//!    observation-by-observation against a vector-of-frames reference
//!    oracle.
//! 2. **Invariant audits** ([`audit`]): the same traces replayed on the
//!    concrete segmented machine, checking the paper-level properties
//!    after every op — record well-formedness, the two-frame overflow
//!    reserve (Figure 8), zero-copy capture and the §4 tail-capture rule,
//!    and the `max(copy_bound, frame_bound)` reinstatement bound
//!    (Figures 6–7).
//! 3. **Program fuzzing** ([`progs`], [`serve_fuzz`]): fuel-bounded,
//!    `call/cc`-heavy Scheme programs run differentially on full engines,
//!    directly and through the `serve` runtime under preemption.
//!
//! Failures shrink automatically ([`shrink`](mod@shrink)) to a locally
//! minimal trace and print as a replayable `--seed` literal; see
//! `docs/FUZZING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod driver;
pub mod oracle;
pub mod progs;
pub mod serve_fuzz;
pub mod shrink;
pub mod trace;

pub use driver::fuzz_trace;
pub use shrink::shrink;
pub use trace::{Op, TraceSpec};
