//! Invariant-audit mode: replays a trace on the concrete
//! [`SegmentedStack`] and checks the paper-level properties after every
//! single operation.
//!
//! Structural well-formedness (record shapes, the two-frame overflow
//! reserve, base-word/link agreement) is delegated to
//! [`SegmentedStack::audit_invariants`]; this module adds the *cost*
//! properties, checked as per-op metric deltas:
//!
//! * capture copies zero slots and grows the record chain by at most one
//!   record — and by **zero** records in tail position (`fp == base`), the
//!   §4 `looper` rule;
//! * reinstatement (explicit, or implicit through underflow) copies at
//!   most `max(copy_bound, frame_bound)` slots (Figures 6–7);
//! * an overflowing call copies only the staged arguments (§5);
//! * everything else copies nothing.
//!
//! The audit stack also records into a tracing ring
//! ([`segstack_core::RingSink`]), and the run ends with an
//! event/metrics cross-check: every counter the machine reports must
//! equal the number of events the instrumentation emitted for it. A
//! divergence means an instrumentation hook was skipped or
//! double-fired on some path the fuzzer found.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use segstack_core::trace::EventKind;
use segstack_core::{ControlStack, Metrics, RingSink, SegmentedStack, TestSlot};

use crate::driver::{apply_op, drain, CompiledTrace};
use crate::trace::{Op, TraceSpec};

/// Replays the trace on a segmented stack, auditing after every op.
pub fn run_audited(spec: &TraceSpec, compiled: &CompiledTrace) -> Result<(), String> {
    let at_op = Cell::new(usize::MAX);
    let outcome = catch_unwind(AssertUnwindSafe(|| audit_loop(spec, compiled, &at_op)));
    match outcome {
        Ok(r) => r,
        Err(e) => {
            let msg = e
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(match at_op.get() {
                usize::MAX => format!("audit: panicked during setup: {msg}"),
                i => format!("audit: panicked at op [{i}]: {msg}"),
            })
        }
    }
}

fn audit_loop(
    spec: &TraceSpec,
    compiled: &CompiledTrace,
    at_op: &Cell<usize>,
) -> Result<(), String> {
    let ring = Rc::new(RefCell::new(RingSink::new()));
    let mut stack = SegmentedStack::<TestSlot>::with_sink(
        spec.config(),
        compiled.code.clone(),
        Some(ring.clone()),
    )
    .map_err(|e| format!("audit: cannot build segmented stack: {e}"))?;
    let reinstate_bound = spec.copy_bound.max(spec.frame_bound) as u64;
    let mut saved = Vec::new();
    let mut captures = 0usize;
    stack.audit_invariants().map_err(|e| format!("audit: initial state: {e}"))?;
    for (i, op) in spec.ops.iter().enumerate() {
        at_op.set(i);
        let fail = |what: String| Err(format!("audit: op [{i}] {op:?}: {what}"));
        let before = stack.metrics().clone();
        let (fp_before, base_before) = (stack.fp(), stack.segment_base());
        let chain_before = stack.stats().chain_records;
        apply_op(&mut stack, op, compiled.ras[i], &mut saved, &mut captures);
        stack.audit_invariants().or_else(&fail)?;
        let m = stack.metrics();
        let copied = m.slots_copied - before.slots_copied;
        let underflows = m.underflows - before.underflows;
        let relinked = m.reinstates_relinked - before.reinstates_relinked;
        match op {
            Op::Capture | Op::CaptureOneShot => {
                if copied != 0 {
                    return fail(format!("capture copied {copied} slots; must copy none"));
                }
                let chain_after = stack.stats().chain_records;
                if fp_before == base_before {
                    // Tail position: the link itself is the continuation —
                    // the chain must not grow and the machine not move.
                    if chain_after != chain_before {
                        return fail(format!(
                            "tail capture grew the chain {chain_before} -> {chain_after}"
                        ));
                    }
                    if stack.fp() != fp_before || stack.segment_base() != base_before {
                        return fail("tail capture moved the frame pointer".into());
                    }
                } else if chain_after != chain_before + 1 {
                    return fail(format!(
                        "capture changed the chain {chain_before} -> {chain_after}; \
                         must add exactly one record"
                    ));
                }
            }
            Op::Reinstate { .. } => {
                // The relink fast path is zero-copy by definition: a
                // reinstatement either relinks (no slots move) or takes
                // the bounded copy path — never both.
                if relinked > 0 && copied != 0 {
                    return fail(format!("relinked reinstatement still copied {copied} slots"));
                }
                if relinked > 1 {
                    return fail(format!("one reinstate relinked {relinked} times"));
                }
                if copied > reinstate_bound {
                    return fail(format!(
                        "reinstate copied {copied} slots; bound is {reinstate_bound}"
                    ));
                }
            }
            Op::Ret => {
                if relinked > 0 && copied != 0 {
                    return fail(format!(
                        "relinked underflow reinstatement still copied {copied} slots"
                    ));
                }
                if underflows > 0 && copied > reinstate_bound {
                    return fail(format!(
                        "underflow reinstatement copied {copied} slots; bound is {reinstate_bound}"
                    ));
                }
                if underflows == 0 && copied != 0 {
                    return fail(format!("plain return copied {copied} slots"));
                }
            }
            Op::Call { nargs, .. } => {
                let overflowed = m.overflows - before.overflows;
                if overflowed > 0 && copied != *nargs as u64 {
                    return fail(format!(
                        "overflow moved {copied} slots; only the {nargs} staged args may move"
                    ));
                }
                if overflowed == 0 && copied != 0 {
                    return fail(format!("non-overflowing call copied {copied} slots"));
                }
            }
            Op::LeafCall { .. } => {
                if m.checks_elided != before.checks_elided + 1 {
                    return fail("leaf call did not elide its check".into());
                }
                if copied != 0 {
                    return fail(format!("leaf call copied {copied} slots"));
                }
            }
            Op::TailCall { .. } | Op::Set { .. } | Op::Get { .. } | Op::Backtrace { .. } => {
                if copied != 0 {
                    return fail(format!("{op:?} copied {copied} slots"));
                }
            }
        }
    }
    at_op.set(usize::MAX);
    // Drain with the reserve/record invariants still holding at each step.
    let before = stack.metrics().clone();
    drain(&mut stack);
    stack.audit_invariants().map_err(|e| format!("audit: after drain: {e}"))?;
    let m = stack.metrics();
    let underflows = m.underflows - before.underflows;
    let copied = m.slots_copied - before.slots_copied;
    if copied > underflows * (spec.copy_bound.max(spec.frame_bound) as u64) {
        return Err(format!(
            "audit: drain copied {copied} slots over {underflows} underflows; \
             each is bounded by {}",
            spec.copy_bound.max(spec.frame_bound)
        ));
    }
    let events = ring.borrow();
    cross_check_events(stack.metrics(), &events)
}

/// Event-vs-metrics cross-check: each traced operation must have emitted
/// exactly as many events as the machine counted (segment allocations are
/// `<=` because the untraced constructor/reset sites also allocate).
fn cross_check_events(m: &Metrics, ring: &RingSink) -> Result<(), String> {
    // Relinked switches get a single packed `Relink` write; only the copy
    // path opens a Begin/End span.
    let copy_reinstates = m.reinstatements - m.reinstates_relinked;
    let exact: [(EventKind, u64); 7] = [
        (EventKind::Capture, m.captures),
        (EventKind::ReinstateBegin, copy_reinstates),
        (EventKind::ReinstateEnd, copy_reinstates),
        (EventKind::Relink, m.reinstates_relinked),
        (EventKind::OverflowBegin, m.overflows),
        (EventKind::OverflowEnd, m.overflows),
        (EventKind::Underflow, m.underflows),
    ];
    for (kind, counter) in exact {
        let events = ring.kind_count(kind);
        if events != counter {
            return Err(format!(
                "audit: {} events ({events}) disagree with the metrics counter ({counter})",
                kind.name()
            ));
        }
    }
    // Splits happen on capture-path sealing *and* on bounded reinstates;
    // both sites are traced, so the counts must still agree exactly.
    if ring.kind_count(EventKind::Split) != m.splits {
        return Err(format!(
            "audit: split events ({}) disagree with the metrics counter ({})",
            ring.kind_count(EventKind::Split),
            m.splits
        ));
    }
    let allocs = ring.kind_count(EventKind::SegmentAlloc);
    if allocs > m.segments_allocated + m.segments_reused {
        return Err(format!(
            "audit: {allocs} segment_alloc events exceed allocations ({} + {} reused)",
            m.segments_allocated, m.segments_reused
        ));
    }
    Ok(())
}
