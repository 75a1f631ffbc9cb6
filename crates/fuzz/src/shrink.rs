//! Trace shrinking: delete-chunk, then per-op simplification.
//!
//! The failing predicate is re-run on every candidate, so whatever failure
//! mode was observed (divergence, audit violation, panic) only needs to
//! *still fail* — it does not need to fail identically. Every candidate is
//! a legal trace by construction: op constraints are positional (validated
//! against the trace's frame bound, which shrinking never changes) and
//! continuation selectors resolve modulo the ring at run time.

use crate::trace::{Op, TraceSpec};

/// Shrinks `spec` to a locally minimal failing trace. `failing` must hold
/// for `spec` itself; the result still satisfies it, no single remaining
/// chunk deletion of any tried granularity makes it fail, and no tried
/// per-op simplification preserves the failure.
pub fn shrink(spec: &TraceSpec, failing: &dyn Fn(&TraceSpec) -> bool) -> TraceSpec {
    let mut cur = spec.clone();
    // Pass 1: delete runs of ops, halving the run length down to one.
    let mut chunk = (cur.ops.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < cur.ops.len() {
            let mut cand = cur.clone();
            let hi = (i + chunk).min(cand.ops.len());
            cand.ops.drain(i..hi);
            if failing(&cand) {
                cur = cand; // keep position: the next chunk shifted into `i`
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    // Pass 2: simplify ops in place until a fixpoint (bounded).
    for _ in 0..8 {
        let mut changed = false;
        for i in 0..cur.ops.len() {
            for simpler in simplify(&cur.ops[i]) {
                if simpler == cur.ops[i] {
                    continue;
                }
                let mut cand = cur.clone();
                cand.ops[i] = simpler;
                if failing(&cand) {
                    cur = cand;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    cur
}

/// Simplification candidates for one op, most aggressive first.
fn simplify(op: &Op) -> Vec<Op> {
    match op {
        Op::Call { d, nargs, args } => vec![
            Op::Call { d: 1, nargs: 0, args: vec![] },
            Op::Call { d: *d, nargs: 0, args: vec![] },
            Op::Call { d: 1, nargs: *nargs, args: args.clone() },
            Op::Call { d: *d, nargs: *nargs, args: vec![0; *nargs] },
        ],
        Op::LeafCall { d, nargs, args: _ } => vec![
            Op::LeafCall { d: 1, nargs: 0, args: vec![] },
            Op::LeafCall { d: *d, nargs: 0, args: vec![] },
            Op::LeafCall { d: *d, nargs: *nargs, args: vec![0; *nargs] },
        ],
        Op::TailCall { .. } => vec![Op::TailCall { src: 1, nargs: 0 }],
        Op::Set { i, .. } => vec![Op::Set { i: 1, v: 0 }, Op::Set { i: *i, v: 0 }],
        Op::Get { .. } => vec![Op::Get { i: 1 }],
        Op::Reinstate { .. } => vec![Op::Reinstate { k: 0 }],
        Op::Backtrace { .. } => vec![Op::Backtrace { limit: 1 }],
        // A one-shot capture is "more" than a plain capture (it adds the
        // reuse failure mode); try downgrading it when the failure does
        // not depend on one-shot semantics.
        Op::CaptureOneShot => vec![Op::Capture],
        // Likewise a finish is a return that also ends the computation.
        Op::Finish => vec![Op::Ret],
        Op::Ret | Op::Capture => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpec;

    /// A synthetic failure: "contains a capture (either kind) and, later,
    /// a Reinstate". Shrinking must find the minimal two-op witness — and
    /// the per-op pass downgrades a surviving `CaptureOneShot` to the
    /// simpler `Capture`.
    #[test]
    fn shrinks_to_the_minimal_witness() {
        let spec = TraceSpec::generate(7, 200);
        let failing = |t: &TraceSpec| {
            let cap = t.ops.iter().position(|o| matches!(o, Op::Capture | Op::CaptureOneShot));
            match cap {
                Some(c) => t.ops[c..].iter().any(|o| matches!(o, Op::Reinstate { .. })),
                None => false,
            }
        };
        if !failing(&spec) {
            // The seed is fixed, so this is a deterministic precondition.
            panic!("seed 7 no longer produces a capture+reinstate trace");
        }
        let small = shrink(&spec, &failing);
        assert_eq!(small.ops.len(), 2, "got: {small}");
        assert!(matches!(small.ops[0], Op::Capture));
        assert!(matches!(small.ops[1], Op::Reinstate { k: 0 }));
    }

    /// Shrinking preserves the failure and never grows the trace.
    #[test]
    fn shrunk_traces_still_fail_and_are_no_longer() {
        for seed in 0..8u64 {
            let spec = TraceSpec::generate(seed, 64);
            let failing =
                |t: &TraceSpec| t.ops.iter().filter(|o| matches!(o, Op::Ret)).count() >= 3;
            if !failing(&spec) {
                continue;
            }
            let small = shrink(&spec, &failing);
            assert!(failing(&small));
            assert!(small.ops.len() <= spec.ops.len());
            assert_eq!(small.ops.len(), 3, "minimal witness is three rets: {small}");
        }
    }
}
