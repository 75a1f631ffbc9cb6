//! The trace grammar and its seeded generator.
//!
//! A trace is a configuration (segment size, frame bound, copy bound) plus a
//! sequence of control operations expressed directly against the
//! [`ControlStack`](segstack_core::ControlStack) protocol. Every draw comes
//! from [`SplitMix64`], so a trace is fully determined by its seed: a
//! failure replays from the seed alone.
//!
//! The generator is weighted toward adversarial interleavings: bursts of
//! calls that force segment overflow, bursts of returns that force
//! underflow through sealed records, captures at every depth (including the
//! `looper` tail position), and repeated reinstatement of saved
//! continuations across unrelated stack shapes.

use std::fmt;

use segstack_core::rng::SplitMix64;
use segstack_core::Config;

/// One control operation. Indices and sizes are pre-validated by the
/// generator against the trace's frame bound, so every op is legal to
/// execute on every strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Stage `args` at slots `d + 1 + j`, then `call(d, ra, nargs, true)`.
    /// The return address is pre-assigned per op index at compile time.
    Call {
        /// Caller frame size (displacement), `1..=frame_bound`.
        d: usize,
        /// Number of staged arguments, `1 + nargs <= frame_bound`.
        nargs: usize,
        /// Argument values, length `nargs`.
        args: Vec<i64>,
    },
    /// A self-contained leaf call with the overflow check elided
    /// (`check = false`): stage, call, read the arguments back, return.
    /// Exercises the two-frame reserve that makes check elision sound
    /// (Figure 8).
    LeafCall {
        /// Caller frame size, `1..=frame_bound`.
        d: usize,
        /// Number of staged arguments.
        nargs: usize,
        /// Argument values, length `nargs`.
        args: Vec<i64>,
    },
    /// `tail_call(src, nargs)`: shuffle `nargs` slots from `src..` down to
    /// `1..`. Generated with `src >= 1` and `src + nargs <= frame_bound + 1`.
    TailCall {
        /// Source offset of the staged arguments.
        src: usize,
        /// Number of slots to shuffle.
        nargs: usize,
    },
    /// `ret()`: observable return address (code, or exit at the bottom).
    Ret,
    /// `ret()`, then [`exited()`](segstack_core::ControlStack::exited) if
    /// that reached the exit routine: how the VM ends a top-level run.
    /// Ends every unwind burst.
    Finish,
    /// `set(i, Int(v))` with `1 <= i < 2 * frame_bound`.
    Set {
        /// Slot index relative to the frame pointer.
        i: usize,
        /// Value to store.
        v: i64,
    },
    /// `get(i)` with `1 <= i < 2 * frame_bound`; compared against the
    /// oracle only when the slot is definitely-written (see
    /// [`oracle`](crate::oracle)).
    Get {
        /// Slot index relative to the frame pointer.
        i: usize,
    },
    /// `capture()`, saving the continuation into a ring of eight.
    Capture,
    /// `capture_one_shot()`, saving the one-shot continuation into the same
    /// ring. Reinstating it a second time must fail with
    /// [`StackError::OneShotReused`](segstack_core::StackError::OneShotReused)
    /// on every strategy — and leave the machine state untouched.
    CaptureOneShot,
    /// `reinstate` the `k % saved.len()`-th saved continuation (skipped as
    /// a no-op while nothing has been captured yet).
    Reinstate {
        /// Ring selector, resolved modulo the current number saved.
        k: usize,
    },
    /// `backtrace(limit)`: the observable return-address spine.
    Backtrace {
        /// Maximum number of frames reported.
        limit: usize,
    },
}

/// A complete generated trace: the seed it came from, the stack
/// configuration it runs under, and the operation sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Seed the trace was generated from (kept for replay reporting).
    pub seed: u64,
    /// Segment (or cache) size in slots.
    pub segment_slots: usize,
    /// Maximum frame size in slots.
    pub frame_bound: usize,
    /// Reinstatement copy bound in slots.
    pub copy_bound: usize,
    /// The operation sequence.
    pub ops: Vec<Op>,
}

impl TraceSpec {
    /// Builds the stack [`Config`] for this trace. No total-slot budget is
    /// set: budget exhaustion is strategy-dependent by design (the heap and
    /// copy models have no segments), so it is not a differential
    /// observable.
    pub fn config(&self) -> Config {
        Config::builder()
            .segment_slots(self.segment_slots)
            .frame_bound(self.frame_bound)
            .copy_bound(self.copy_bound)
            .build()
            .expect("generated configurations are always valid")
    }

    /// Generates the trace for `seed` with roughly `max_ops` operations.
    pub fn generate(seed: u64, max_ops: usize) -> TraceSpec {
        let mut rng = SplitMix64::new(seed);
        let fb = *rng.choose(&[4usize, 6, 8, 12, 16]);
        let seg_choices = [3 * fb, 4 * fb, 6 * fb, 128, 256];
        let segment_slots = *rng.choose(&seg_choices);
        let cb_choices =
            [1, 2, (fb / 2).max(1), fb, 2 * fb, (segment_slots / 2).max(1), segment_slots];
        let copy_bound = *rng.choose(&cb_choices);

        let mut ops = Vec::with_capacity(max_ops);
        // Logical frame depth, tracked so return bursts can be sized to
        // punch through every sealed record down to the exit. The ring
        // mirror carries `(depth, one_shot, consumed)` so reinstates of
        // already-consumed one-shots (which are errors, not jumps) do not
        // perturb the depth estimate.
        let mut depth: usize = 0;
        let mut saved: Vec<(usize, bool, bool)> = Vec::new();
        let mut captures: usize = 0;
        while ops.len() < max_ops {
            // Occasionally emit a burst instead of a single op.
            if rng.gen_range(0, 24) == 0 {
                if rng.gen_bool() {
                    // Overflow burst: enough calls to cross a segment.
                    let n = segment_slots / 2 + 2;
                    for _ in 0..n {
                        ops.push(gen_call(&mut rng, fb, false));
                        depth += 1;
                    }
                } else {
                    // Unwind burst: force underflows, possibly to the exit,
                    // and end the computation there as a finished run does.
                    let n = depth + 2;
                    for _ in 1..n {
                        ops.push(Op::Ret);
                    }
                    ops.push(Op::Finish);
                    depth = 0;
                }
                continue;
            }
            match rng.gen_range(0, 100) {
                0..=29 => {
                    ops.push(gen_call(&mut rng, fb, false));
                    depth += 1;
                }
                30..=37 => ops.push(gen_call(&mut rng, fb, true)),
                38..=45 => {
                    let src = rng.gen_range(1, fb as u64 + 1) as usize;
                    let nargs = rng.gen_range(0, (fb + 2 - src) as u64) as usize;
                    ops.push(Op::TailCall { src, nargs });
                }
                46..=67 => {
                    ops.push(Op::Ret);
                    depth = depth.saturating_sub(1);
                }
                68..=77 => {
                    let i = rng.gen_range(1, 2 * fb as u64) as usize;
                    ops.push(Op::Set { i, v: rng.gen_range_i64(-1000, 1000) });
                }
                78..=83 => {
                    ops.push(Op::Get { i: rng.gen_range(1, 2 * fb as u64) as usize });
                }
                84..=89 => {
                    let one_shot = rng.gen_bool();
                    ops.push(if one_shot { Op::CaptureOneShot } else { Op::Capture });
                    // Mirror the driver's ring-of-eight bookkeeping.
                    let slot = captures % 8;
                    if slot < saved.len() {
                        saved[slot] = (depth, one_shot, false);
                    } else {
                        saved.push((depth, one_shot, false));
                    }
                    captures += 1;
                }
                90..=95 => {
                    let k = rng.gen_range(0, 64) as usize;
                    ops.push(Op::Reinstate { k });
                    if !saved.is_empty() {
                        let len = saved.len();
                        let entry = &mut saved[k % len];
                        // A consumed one-shot errors instead of jumping.
                        if !(entry.1 && entry.2) {
                            depth = entry.0;
                            if entry.1 {
                                entry.2 = true;
                            }
                        }
                    }
                }
                _ => {
                    ops.push(Op::Backtrace { limit: rng.gen_range(1, 41) as usize });
                }
            }
        }
        ops.truncate(max_ops);
        TraceSpec { seed, segment_slots, frame_bound: fb, copy_bound, ops }
    }
}

/// Draws a `Call` (or, when `leaf`, a `LeafCall`) within the frame bound.
fn gen_call(rng: &mut SplitMix64, fb: usize, leaf: bool) -> Op {
    let d = rng.gen_range(1, fb as u64 + 1) as usize;
    let nargs = rng.gen_range(0, fb as u64) as usize;
    let args = (0..nargs).map(|_| rng.gen_range_i64(-1000, 1000)).collect();
    if leaf {
        Op::LeafCall { d, nargs, args }
    } else {
        Op::Call { d, nargs, args }
    }
}

impl fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed={} segment_slots={} frame_bound={} copy_bound={} ops={}",
            self.seed,
            self.segment_slots,
            self.frame_bound,
            self.copy_bound,
            self.ops.len()
        )?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  [{i:3}] {op:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = TraceSpec::generate(42, 64);
        let b = TraceSpec::generate(42, 64);
        assert_eq!(a, b);
        assert_eq!(a.ops.len(), 64);
    }

    #[test]
    fn distinct_seeds_give_distinct_traces() {
        let a = TraceSpec::generate(1, 64);
        let b = TraceSpec::generate(2, 64);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn both_capture_kinds_and_reuse_candidates_are_generated() {
        let mut plain = 0usize;
        let mut one_shot = 0usize;
        for seed in 0..50 {
            let t = TraceSpec::generate(seed, 256);
            plain += t.ops.iter().filter(|o| matches!(o, Op::Capture)).count();
            one_shot += t.ops.iter().filter(|o| matches!(o, Op::CaptureOneShot)).count();
        }
        assert!(plain > 0, "multi-shot captures vanished from the grammar");
        assert!(one_shot > 0, "one-shot captures vanished from the grammar");
    }

    #[test]
    fn some_traces_end_a_computation() {
        let finishes: usize = (0..50)
            .map(|seed| {
                TraceSpec::generate(seed, 256).ops.iter().filter(|o| **o == Op::Finish).count()
            })
            .sum();
        assert!(finishes > 0, "unwind bursts no longer end with a finish");
    }

    #[test]
    fn generated_ops_respect_the_frame_bound() {
        for seed in 0..50 {
            let t = TraceSpec::generate(seed, 128);
            let fb = t.frame_bound;
            assert!(t.segment_slots >= 3 * fb, "seed {seed}");
            for op in &t.ops {
                match op {
                    Op::Call { d, nargs, args } | Op::LeafCall { d, nargs, args } => {
                        assert!((1..=fb).contains(d), "seed {seed}: {op:?}");
                        assert!(*nargs < fb, "seed {seed}: {op:?}");
                        assert_eq!(args.len(), *nargs);
                    }
                    Op::TailCall { src, nargs } => {
                        assert!(*src >= 1 && src + nargs <= fb + 1, "seed {seed}: {op:?}");
                    }
                    Op::Set { i, .. } | Op::Get { i } => {
                        assert!((1..2 * fb).contains(i), "seed {seed}: {op:?}");
                    }
                    Op::Backtrace { limit } => assert!(*limit >= 1),
                    Op::Ret
                    | Op::Finish
                    | Op::Capture
                    | Op::CaptureOneShot
                    | Op::Reinstate { .. } => {}
                }
            }
        }
    }
}
