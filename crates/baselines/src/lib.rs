//! # segstack-baselines
//!
//! The baseline control-stack strategies that *Representing Control in the
//! Presence of First-Class Continuations* (Hieb, Dybvig & Bruggeman, PLDI
//! 1990) compares its segmented stack against:
//!
//! | Strategy | Paper source | Character |
//! |---|---|---|
//! | [`HeapStack`] | Figure 1, §2 | every frame heap-allocated and linked; O(1) capture/reinstate; every call (even tail calls) allocates |
//! | [`CopyStack`] | Figure 2, §2 (McDermott 1980) | one contiguous stack; capture/reinstate copy the whole stack image |
//! | [`CacheStack`] | §2 (Bartley & Jensen 1986) | bounded stack cache; flush/refill on overflow/underflow — exhibits "bouncing" |
//! | [`HybridStack`] | §6 (Clinger, Hartheimer & Ost 1988) | frames migrate to the heap on capture and are never copied back; returns check stack-vs-heap |
//! | [`IncrementalStack`] | Clinger et al.'s fourth strategy | frames migrate to the heap on capture; returns copy one frame back at a time |
//!
//! All implement [`segstack_core::ControlStack`], so they are drop-in
//! replacements for [`segstack_core::SegmentedStack`] under the same VM —
//! which is how every experiment in this workspace compares them.
//!
//! The models share their machinery and keep only the rule that makes each
//! one that model:
//!
//! - `Flat` (flat.rs) is the one contiguous stack under copy, cache, hybrid
//!   and incremental: the exit word at the base, the push, the pop through
//!   the frame-size word (§3, Figure 4), check counting, the tail-call move,
//!   reset and stats.
//! - `ImageKont` (flat.rs) is the one saved stack image. The copy model
//!   grows its stack instead of overflowing, and saves and restores the
//!   whole stack with no link. The cache model flushes a block, linked to
//!   the block below, on overflow and on capture, and refills on underflow.
//! - `HeapFrame` and `FrameKont` (frames.rs) are the heap, hybrid and
//!   incremental models' one activation record and one continuation record.
//!   The heap model, and the hybrid model while it runs in the heap, tail
//!   call, return and capture through the same `HeapFrame` functions.
//! - `OverHeap` (frames.rs) is a `Flat` over a heap-frame chain: overflow
//!   and capture migrate the frames below the live one into the chain, and
//!   the backtrace walks the stack and then the chain. The hybrid model
//!   adds returning into heap frames and running there, never copying them
//!   back; the incremental model copies one frame back per return off the
//!   stack base.
//!
//! Continuations are told apart by the name of the strategy that captured
//! them, so each model reinstates only its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod copy;
mod flat;
mod frames;
mod heap;
mod hybrid;
mod incremental;

use std::rc::Rc;

pub use cache::CacheStack;
pub use copy::CopyStack;
pub use heap::HeapStack;
pub use hybrid::HybridStack;
pub use incremental::IncrementalStack;

use segstack_core::{Config, ControlStack, FrameSizeTable, SegmentedStack, StackError, StackSlot};

/// Identifies one of the six control-stack strategies.
///
/// # Examples
///
/// ```
/// use segstack_baselines::Strategy;
/// let s: Strategy = "segmented".parse()?;
/// assert_eq!(s, Strategy::Segmented);
/// assert_eq!(s.to_string(), "segmented");
/// # Ok::<(), segstack_baselines::ParseStrategyError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// The paper's segmented stack ([`SegmentedStack`]).
    Segmented,
    /// The heap model ([`HeapStack`]).
    Heap,
    /// The naive stack-copy model ([`CopyStack`]).
    Copy,
    /// The bounded stack-cache model ([`CacheStack`]).
    Cache,
    /// The hybrid stack/heap model ([`HybridStack`]).
    Hybrid,
    /// The incremental stack/heap model ([`IncrementalStack`]).
    Incremental,
}

impl Strategy {
    /// All strategies, in the order the experiments report them.
    pub const ALL: [Strategy; 6] = [
        Strategy::Segmented,
        Strategy::Heap,
        Strategy::Copy,
        Strategy::Cache,
        Strategy::Hybrid,
        Strategy::Incremental,
    ];

    /// The strategy's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Segmented => "segmented",
            Strategy::Heap => "heap",
            Strategy::Copy => "copy",
            Strategy::Cache => "cache",
            Strategy::Hybrid => "hybrid",
            Strategy::Incremental => "incremental",
        }
    }

    /// Builds a boxed control stack of this strategy.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::OutOfStackMemory`] if the segmented strategy
    /// cannot allocate its initial segment under a configured budget.
    pub fn build<S: StackSlot>(
        self,
        cfg: Config,
        code: Rc<dyn FrameSizeTable>,
    ) -> Result<Box<dyn ControlStack<S>>, StackError> {
        Ok(match self {
            Strategy::Segmented => Box::new(SegmentedStack::<S>::new(cfg, code)?),
            Strategy::Heap => Box::new(HeapStack::new(cfg)),
            Strategy::Copy => Box::new(CopyStack::new(cfg, code)),
            Strategy::Cache => Box::new(CacheStack::new(cfg, code)),
            Strategy::Hybrid => Box::new(HybridStack::new(cfg, code)),
            Strategy::Incremental => Box::new(IncrementalStack::new(cfg, code)),
        })
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Strategy`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseStrategyError {
    input: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown strategy {:?}; expected one of segmented, heap, copy, cache, hybrid, incremental",
            self.input
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "segmented" => Ok(Strategy::Segmented),
            "heap" => Ok(Strategy::Heap),
            "copy" => Ok(Strategy::Copy),
            "cache" => Ok(Strategy::Cache),
            "hybrid" => Ok(Strategy::Hybrid),
            "incremental" => Ok(Strategy::Incremental),
            _ => Err(ParseStrategyError { input: s.to_owned() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, ReturnAddress, StackError, TestCode, TestSlot};

    #[test]
    fn parse_and_display_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert!("bogus".parse::<Strategy>().is_err());
    }

    #[test]
    fn factory_builds_working_stacks() {
        for s in Strategy::ALL {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder().segment_slots(512).frame_bound(16).build().unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            assert_eq!(stack.name(), s.name());
            sim::push_frames(&mut *stack, &code, 10, 4);
            assert_eq!(sim::unwind_all(&mut *stack), 11, "{s}");
        }
    }

    /// The cross-strategy behavioral contract: identical call/return/
    /// capture/reinstate observable behavior on the same synthetic program.
    #[test]
    fn strategies_agree_on_capture_reinstate_observables() {
        for s in Strategy::ALL {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder()
                .segment_slots(512)
                .frame_bound(16)
                .copy_bound(32)
                .build()
                .unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            let ras = sim::push_frames(&mut *stack, &code, 8, 4);
            let k = stack.capture();
            // Unwind to the top, reinstate, observe identical resumption.
            assert_eq!(sim::unwind_all(&mut *stack), 9, "{s}");
            assert_eq!(
                stack.reinstate(&k).unwrap(),
                ReturnAddress::Code(ras[7]),
                "{s}: resumption address"
            );
            assert_eq!(stack.get(1), TestSlot::Int(6), "{s}: caller frame argument");
            assert_eq!(sim::unwind_all(&mut *stack), 8, "{s}: remaining unwind");
        }
    }

    /// The `call/1cc` contract on every strategy: a one-shot continuation
    /// resumes exactly like its multi-shot counterpart the first time, and
    /// every later reinstatement fails with `OneShotReused` without
    /// touching machine state.
    #[test]
    fn one_shot_contract_holds_on_all_strategies() {
        for s in Strategy::ALL {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder()
                .segment_slots(512)
                .frame_bound(16)
                .copy_bound(32)
                .build()
                .unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            let ras = sim::push_frames(&mut *stack, &code, 8, 4);
            let k = stack.capture_one_shot();
            assert!(k.is_one_shot(), "{s}");
            assert_eq!(k.strategy(), s.name(), "{s}: wrapper reports the creator");
            assert_eq!(sim::unwind_all(&mut *stack), 9, "{s}");
            assert_eq!(
                stack.reinstate(&k).unwrap(),
                ReturnAddress::Code(ras[7]),
                "{s}: first shot resumes normally"
            );
            assert_eq!(stack.get(1), TestSlot::Int(6), "{s}: caller frame argument");
            assert_eq!(sim::unwind_all(&mut *stack), 8, "{s}: remaining unwind");
            // The shot is spent: reuse is an error and leaves the (now
            // quiescent) machine reusable.
            assert_eq!(stack.reinstate(&k).unwrap_err(), StackError::OneShotReused, "{s}");
            assert!(k.one_shot_consumed(), "{s}");
            sim::push_frames(&mut *stack, &code, 3, 4);
            assert_eq!(sim::unwind_all(&mut *stack), 4, "{s}: machine still works");
        }
    }

    /// One frame bound for all six: a displacement or a partial frame past
    /// it is `FrameTooLarge`, and the stack keeps working.
    #[test]
    fn every_strategy_enforces_the_frame_bound() {
        for s in Strategy::ALL {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder().segment_slots(512).frame_bound(16).build().unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            let too_large = Err(StackError::FrameTooLarge { requested: 17, bound: 16 });
            assert_eq!(stack.call(17, code.ret_point(17), 1, true), too_large, "{s}: displacement");
            assert_eq!(stack.call(4, code.ret_point(4), 16, true), too_large, "{s}: partial frame");
            sim::push_frames(&mut *stack, &code, 3, 16);
            assert_eq!(sim::unwind_all(&mut *stack), 4, "{s}: a rejected call changes nothing");
        }
    }

    /// A continuation reinstates only on the strategy that captured it.
    /// The heap, hybrid and incremental models share one record type, and
    /// so do copy and cache, so this is what tells their continuations
    /// apart.
    #[test]
    fn every_strategy_rejects_the_others_continuations() {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder().segment_slots(512).frame_bound(16).build().unwrap();
        let build = |s: Strategy| s.build::<TestSlot>(cfg.clone(), code.clone()).unwrap();
        for from in Strategy::ALL {
            let k = sim::capture_at_depth(&mut *build(from), &code, 3, 4);
            assert_eq!(k.strategy(), from.name());
            for to in Strategy::ALL.into_iter().filter(|&to| to != from) {
                let mut stack = build(to);
                assert_eq!(
                    stack.reinstate(&k),
                    Err(StackError::ForeignContinuation { strategy: to.name() }),
                    "{from} → {to}"
                );
            }
        }
    }

    /// Every call on a stack strategy executes or elides one overflow
    /// check, wherever its caller's frame lives: here hybrid calls from a
    /// heap frame. The heap model counts none, since it cannot overflow.
    #[test]
    fn every_stack_strategy_counts_one_check_per_call() {
        for s in Strategy::ALL.into_iter().filter(|&s| s != Strategy::Heap) {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder().segment_slots(512).frame_bound(16).build().unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            sim::push_frames(&mut *stack, &code, 5, 4);
            let _k = stack.capture();
            stack.ret().unwrap();
            stack.call(4, code.ret_point(4), 1, true).unwrap();
            let m = stack.metrics();
            assert_eq!((m.calls, m.checks_executed, m.checks_elided), (6, 6, 0), "{s}");
        }
    }

    /// `StackStats` as (chain records, chain slots, used, free) after 80
    /// frames of 4 on a 256-slot stack, a capture, three returns and a
    /// call, on every strategy.
    #[test]
    fn every_strategy_reports_its_stack_stats() {
        const MAX: usize = usize::MAX;
        let want = [
            (
                Strategy::Segmented,
                [(1, 228, 92, 132), (2, 320, 0, 132), (1, 228, 80, 52), (1, 228, 84, 48)],
            ),
            (
                Strategy::Heap,
                [(80, 480, 2, MAX), (80, 480, 2, MAX), (77, 462, 6, MAX), (78, 468, 2, MAX)],
            ),
            (
                Strategy::Copy,
                [(0, 0, 320, 160), (0, 0, 320, 160), (0, 0, 308, 172), (0, 0, 312, 168)],
            ),
            (
                Strategy::Cache,
                [(1, 228, 92, 132), (2, 320, 0, 224), (1, 228, 80, 144), (1, 228, 84, 140)],
            ),
            (
                Strategy::Hybrid,
                [(56, 224, 96, 128), (80, 320, 0, 224), (77, 308, 0, 224), (78, 314, 0, 224)],
            ),
            (
                Strategy::Incremental,
                [(56, 224, 96, 128), (80, 320, 0, 224), (77, 308, 0, 224), (77, 308, 4, 220)],
            ),
        ];
        for (s, want) in want {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder().segment_slots(256).frame_bound(16).build().unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            let snap = |stack: &dyn ControlStack<TestSlot>| {
                let st = stack.stats();
                (st.chain_records, st.chain_slots, st.current_used_slots, st.current_free_slots)
            };
            sim::push_frames(&mut *stack, &code, 80, 4);
            let pushed = snap(&*stack);
            let _k = stack.capture();
            let captured = snap(&*stack);
            for _ in 0..3 {
                stack.ret().unwrap();
            }
            let returned = snap(&*stack);
            stack.set(5, TestSlot::Int(99));
            stack.call(4, code.ret_point(4), 1, true).unwrap();
            assert_eq!([pushed, captured, returned, snap(&*stack)], want, "{s}");
        }
    }

    #[test]
    fn looper_is_constant_space_on_all_strategies() {
        for s in Strategy::ALL {
            let code = Rc::new(TestCode::new());
            let cfg = Config::builder().segment_slots(512).frame_bound(16).build().unwrap();
            let mut stack: Box<dyn ControlStack<TestSlot>> = s.build(cfg, code.clone()).unwrap();
            let max_chain = sim::looper_workload(&mut *stack, &code, 300, 4);
            assert!(max_chain <= 1, "{s}: looper grew the chain to {max_chain}");
        }
    }
}
