//! The pluggable control-stack interface.
//!
//! The Scheme VM (and the synthetic simulator) drive activation-record
//! management exclusively through [`ControlStack`], so the paper's segmented
//! strategy and the four baseline strategies it is compared against are
//! interchangeable. The interface mirrors the paper's machine-level
//! protocol:
//!
//! * the caller stages the callee's arguments in its own frame at the call
//!   displacement ("partial frames for procedure calls initiated but not yet
//!   completed", §3), then issues [`ControlStack::call`];
//! * returning pops by re-adjusting the frame pointer using the frame-size
//!   word found via the return address (no dynamic links);
//! * capture/reinstate implement `call/cc`.

use segstack_trace::{EventKind, HistSummary};

use crate::addr::{CodeAddr, ReturnAddress};
use crate::error::StackError;
use crate::metrics::Metrics;
use crate::record::Continuation;
use crate::slot::StackSlot;

/// Point-in-time structural information about a control stack, used by
/// tests and the benchmark harness (not on any hot path).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Records in the current link chain, excluding the exit record. For
    /// the segmented strategy this is the number of sealed segments the
    /// current computation would underflow through.
    pub chain_records: usize,
    /// Slots retained by the current link chain.
    pub chain_slots: usize,
    /// Slots in use in the current segment (`fp` and above are excluded:
    /// only the portion a capture would seal, plus the live frame base).
    pub current_used_slots: usize,
    /// Slots still available in the current segment before overflow.
    pub current_free_slots: usize,
}

/// A strategy for representing control (activation records and first-class
/// continuations).
///
/// Slot indices given to [`get`](ControlStack::get) and
/// [`set`](ControlStack::set) are relative to the current frame base: index
/// 0 is the return-address word, arguments start at index 1, locals and
/// temporaries follow, and a callee's partial frame starts at the call
/// displacement.
///
/// # Protocol
///
/// For a non-tail call with displacement `d`, `nargs` arguments and return
/// point `ra`:
///
/// 1. the caller writes argument `j` to slot `d + 1 + j`;
/// 2. the caller issues `call(d, ra, nargs, check)`;
/// 3. the callee runs with its own frame base; its arguments are slots
///    `1..=nargs`;
/// 4. the callee eventually issues `ret()`, and execution resumes at the
///    returned address with the frame pointer back on the caller's frame.
///
/// For `call/cc`: perform the call to the receiver procedure as usual, then
/// immediately [`capture`](ControlStack::capture) — the resulting
/// continuation returns to the `call/cc` call's return point. Invoking a
/// continuation object is [`reinstate`](ControlStack::reinstate), which
/// yields the address at which execution resumes.
pub trait ControlStack<S: StackSlot> {
    /// The strategy's name (`"segmented"`, `"heap"`, `"copy"`, `"cache"`,
    /// `"hybrid"`, `"incremental"`).
    fn name(&self) -> &'static str;

    /// Reads slot `i` of the current frame.
    fn get(&self, i: usize) -> S;

    /// Writes slot `i` of the current frame.
    fn set(&mut self, i: usize, v: S);

    /// Performs a non-tail call: the callee's frame starts `d` slots above
    /// the current frame base and `nargs` argument slots have already been
    /// staged there. `check` states whether this call site performs the
    /// stack-overflow check (Figure 8); sites proven safe by the two-frame
    /// reserve pass `false`.
    ///
    /// # Errors
    ///
    /// [`StackError::FrameTooLarge`] if `d` or the partial frame exceed the
    /// frame bound; [`StackError::OutOfStackMemory`] if overflow recovery
    /// cannot allocate a segment under a configured budget.
    fn call(&mut self, d: usize, ra: CodeAddr, nargs: usize, check: bool)
        -> Result<(), StackError>;

    /// Performs a proper tail call: moves `nargs` staged argument slots from
    /// `src..src + nargs` down to slots `1..=nargs` of the current frame.
    /// The frame is reused (strategies that cannot reuse frames, like the
    /// heap model, allocate a replacement — that cost is the point).
    fn tail_call(&mut self, src: usize, nargs: usize);

    /// Returns from the current frame, yielding the address to resume at.
    /// Underflow (returning off the base of a segment) is handled
    /// internally as an implicit reinstatement; [`ReturnAddress::Exit`]
    /// means the computation is complete.
    ///
    /// # Errors
    ///
    /// [`StackError::OutOfStackMemory`] if underflow recovery cannot
    /// allocate under a configured budget.
    fn ret(&mut self) -> Result<ReturnAddress, StackError>;

    /// Captures the current continuation: the rest of the computation as of
    /// the current frame's return point. The live frame itself is *not*
    /// part of the continuation.
    fn capture(&mut self) -> Continuation<S>;

    /// Captures the current continuation as a *one-shot* continuation
    /// (`call/1cc`): the continuation object may be used to reinstate at
    /// most once; a second reinstatement through it fails with
    /// [`StackError::OneShotReused`]. Returning through the capture point
    /// normally (without invoking the object) does not consume the shot.
    ///
    /// The default implementation wraps [`capture`](ControlStack::capture)
    /// in [`Continuation::one_shot`], which is correct for every strategy.
    /// The restriction is what it buys: clones circulate the *wrapper*, so
    /// the underlying record usually stays uniquely referenced and the
    /// segmented strategy can reinstate it with a zero-copy relink instead
    /// of the bounded copy.
    fn capture_one_shot(&mut self) -> Continuation<S> {
        Continuation::one_shot(self.capture())
    }

    /// Reinstates a continuation, replacing the current control state. The
    /// returned address is where execution resumes
    /// ([`ReturnAddress::Exit`] if the exit continuation was invoked).
    ///
    /// # Errors
    ///
    /// [`StackError::ForeignContinuation`] if the continuation was created
    /// by a different strategy; [`StackError::OutOfStackMemory`] under an
    /// exhausted budget.
    fn reinstate(&mut self, k: &Continuation<S>) -> Result<ReturnAddress, StackError>;

    /// Accumulated operation counters.
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the counters (e.g. to reset between phases).
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// Structural snapshot for tests and reporting.
    fn stats(&self) -> StackStats;

    /// Clears all control state back to an initial empty stack (metrics are
    /// preserved). Used between top-level evaluations.
    fn reset(&mut self);

    /// Walks the live control state from the current frame downwards,
    /// returning up to `limit` return addresses (innermost first). This is
    /// the paper's §3 motivation for the code-stream frame-size words:
    /// "exception handlers, debuggers, and other tools that need to walk
    /// through the frames on the stack." The walk crosses segment/record
    /// boundaries.
    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        let _ = limit;
        Vec::new()
    }

    /// Per-event-kind histogram readouts from the strategy's attached
    /// trace ring, if any. Strategies without tracing (the baselines) and
    /// untraced segmented stacks return an empty vector. This is how
    /// `(trace-stats)` in the Scheme layer reads the machine's own event
    /// aggregates.
    fn trace_summaries(&self) -> Vec<(EventKind, HistSummary)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_stats_default_is_zeroed() {
        let s = StackStats::default();
        assert_eq!(s.chain_records, 0);
        assert_eq!(s.chain_slots, 0);
        assert_eq!(s.current_used_slots, 0);
        assert_eq!(s.current_free_slots, 0);
    }
}
