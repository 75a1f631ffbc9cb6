//! Executes traces on the oracle and on every strategy, and compares the
//! observables.
//!
//! A trace is compiled once — return addresses are pre-assigned per op
//! index into one shared [`TestCode`] table — so the oracle and all six
//! strategies see byte-identical code addresses and the comparison is
//! plain equality. Each strategy run executes under `catch_unwind`, so a
//! strategy panic (including a `debug_assert` tripping inside the machine)
//! is reported as a divergence at the op where it happened instead of
//! killing the fuzz campaign.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use segstack_baselines::Strategy;
use segstack_core::{
    CodeAddr, Continuation, ControlStack, ReturnAddress, StackError, TestCode, TestSlot,
};

use crate::audit::run_audited;
use crate::oracle::Oracle;
use crate::trace::{Op, TraceSpec};

/// Bound on the end-of-trace unwind, far above any reachable depth.
const DRAIN_CAP: usize = 20_000_000;

/// One observation: what a single op made visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obs {
    /// A call completed (possibly overflowing into a new segment).
    CallOk,
    /// A tail call completed.
    TailOk,
    /// A slot write completed.
    SetOk,
    /// `ret()` yielded this return address.
    Ret(ReturnAddress),
    /// `get` on a definitely-written slot yielded this value.
    Got(TestSlot),
    /// `get` on a possibly-junk slot: strategies legitimately differ, the
    /// oracle predicts a wildcard.
    GotAny,
    /// A leaf call read back its staged arguments.
    Leaf(Vec<TestSlot>),
    /// A continuation was captured (and saved in the ring).
    Captured,
    /// `reinstate` resumed at this return address.
    Resumed(ReturnAddress),
    /// `reinstate` with nothing captured yet: a no-op on every machine.
    Skipped,
    /// `reinstate` of an already-consumed one-shot continuation failed
    /// with [`StackError::OneShotReused`], leaving the machine untouched.
    OneShotReuse,
    /// The observable return-address spine.
    Backtrace(Vec<CodeAddr>),
}

/// Does the strategy observation `got` satisfy the oracle prediction
/// `want`? Exact equality, except the [`Obs::GotAny`] wildcard.
pub fn obs_matches(want: &Obs, got: &Obs) -> bool {
    matches!(want, Obs::GotAny) && matches!(got, Obs::Got(_) | Obs::GotAny) || want == got
}

/// A trace with pre-assigned return addresses: `ras[i]` is `Some` exactly
/// for `Call`/`LeafCall` ops. All runs share `code`, so displacements and
/// address equality line up across machines.
pub struct CompiledTrace {
    /// The shared frame-size table.
    pub code: Rc<TestCode>,
    /// Per-op return address, aligned with `spec.ops`.
    pub ras: Vec<Option<CodeAddr>>,
}

/// Pre-assigns return addresses for every call in the trace.
pub fn compile(spec: &TraceSpec) -> CompiledTrace {
    let code = Rc::new(TestCode::new());
    let ras = spec
        .ops
        .iter()
        .map(|op| match op {
            Op::Call { d, .. } | Op::LeafCall { d, .. } => Some(code.ret_point(*d)),
            _ => None,
        })
        .collect();
    CompiledTrace { code, ras }
}

/// Everything observable about one run of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLog {
    /// Per-op observations, aligned with the trace.
    pub obs: Vec<Obs>,
    /// Return addresses seen while unwinding to the exit after the trace.
    pub drain: Vec<ReturnAddress>,
    /// Strategy-independent counters: calls, tail calls, returns, captures.
    /// (Reinstatements, overflows and underflows legitimately differ —
    /// e.g. the segmented and cache machines reinstate internally on
    /// underflow.)
    pub counters: [u64; 4],
}

/// Applies one op to a strategy through the [`ControlStack`] protocol.
/// `saved` is the ring of up to eight captured continuations; `captures`
/// counts capture ops to drive the ring deterministically.
pub fn apply_op(
    stack: &mut dyn ControlStack<TestSlot>,
    op: &Op,
    ra: Option<CodeAddr>,
    saved: &mut Vec<Continuation<TestSlot>>,
    captures: &mut usize,
) -> Obs {
    match op {
        Op::Call { d, nargs, args } => {
            for (j, &a) in args.iter().enumerate() {
                stack.set(d + 1 + j, TestSlot::Int(a));
            }
            stack
                .call(*d, ra.expect("call ops carry a return address"), *nargs, true)
                .expect("generated calls stay within every budget");
            Obs::CallOk
        }
        Op::LeafCall { d, nargs, args } => {
            for (j, &a) in args.iter().enumerate() {
                stack.set(d + 1 + j, TestSlot::Int(a));
            }
            stack
                .call(*d, ra.expect("call ops carry a return address"), *nargs, false)
                .expect("leaf calls stay within the reserve");
            let vals = (0..*nargs).map(|j| stack.get(1 + j)).collect();
            let back = stack.ret().expect("leaf return cannot fail");
            assert!(matches!(back, ReturnAddress::Code(_)), "leaf return hit {back:?}");
            Obs::Leaf(vals)
        }
        Op::TailCall { src, nargs } => {
            stack.tail_call(*src, *nargs);
            Obs::TailOk
        }
        Op::Ret => Obs::Ret(stack.ret().expect("ret cannot fail")),
        Op::Finish => {
            let ra = stack.ret().expect("ret cannot fail");
            if ra == ReturnAddress::Exit {
                stack.exited();
            }
            Obs::Ret(ra)
        }
        Op::Set { i, v } => {
            stack.set(*i, TestSlot::Int(*v));
            Obs::SetOk
        }
        Op::Get { i } => Obs::Got(stack.get(*i)),
        Op::Capture | Op::CaptureOneShot => {
            let k = match op {
                Op::CaptureOneShot => stack.capture_one_shot(),
                _ => stack.capture(),
            };
            let slot = *captures % 8;
            if slot < saved.len() {
                saved[slot] = k;
            } else {
                saved.push(k);
            }
            *captures += 1;
            Obs::Captured
        }
        Op::Reinstate { k } => {
            if saved.is_empty() {
                Obs::Skipped
            } else {
                let kont = saved[k % saved.len()].clone();
                match stack.reinstate(&kont) {
                    Ok(ra) => Obs::Resumed(ra),
                    Err(StackError::OneShotReused) => Obs::OneShotReuse,
                    Err(e) => panic!("same-strategy reinstate cannot fail: {e}"),
                }
            }
        }
        Op::Backtrace { limit } => Obs::Backtrace(stack.backtrace(*limit)),
    }
}

/// Unwinds the machine to the exit, logging every return address seen.
pub fn drain(stack: &mut dyn ControlStack<TestSlot>) -> Vec<ReturnAddress> {
    let mut out = Vec::new();
    for _ in 0..DRAIN_CAP {
        let ra = stack.ret().expect("drain ret cannot fail");
        out.push(ra);
        if ra == ReturnAddress::Exit {
            return out;
        }
    }
    panic!("drain did not reach the exit within {DRAIN_CAP} returns");
}

/// Runs the trace on one strategy. A panic anywhere inside the machine is
/// reported as an error naming the op that triggered it. A stack strategy
/// must also have counted one overflow check, executed or elided, per call,
/// or the run is an error; the heap model, which cannot overflow, counts
/// none.
pub fn run_strategy(
    spec: &TraceSpec,
    compiled: &CompiledTrace,
    strategy: Strategy,
) -> Result<RunLog, String> {
    let at_op = Cell::new(usize::MAX);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut stack = strategy
            .build::<TestSlot>(spec.config(), compiled.code.clone())
            .expect("configuration fits every strategy");
        let mut saved = Vec::new();
        let mut captures = 0usize;
        let mut obs = Vec::with_capacity(spec.ops.len());
        for (i, op) in spec.ops.iter().enumerate() {
            at_op.set(i);
            obs.push(apply_op(&mut *stack, op, compiled.ras[i], &mut saved, &mut captures));
        }
        at_op.set(usize::MAX - 1);
        let drained = drain(&mut *stack);
        let m = stack.metrics();
        let log = RunLog {
            obs,
            drain: drained,
            counters: [m.calls, m.tail_calls, m.returns, m.captures],
        };
        (log, m.checks_executed + m.checks_elided)
    }));
    let (log, checks) = result.map_err(|e| {
        let msg = panic_text(&e);
        match at_op.get() {
            usize::MAX => format!("{strategy}: panicked during setup: {msg}"),
            i if i == usize::MAX - 1 => format!("{strategy}: panicked during drain: {msg}"),
            i => format!("{strategy}: panicked at op [{i}] {:?}: {msg}", spec.ops[i]),
        }
    })?;
    let calls = log.counters[0];
    if strategy != Strategy::Heap && checks != calls {
        return Err(format!("{strategy}: {checks} overflow checks counted for {calls} calls"));
    }
    Ok(log)
}

/// Runs the trace on the reference oracle.
pub fn run_oracle(spec: &TraceSpec, compiled: &CompiledTrace) -> Result<RunLog, String> {
    let at_op = Cell::new(usize::MAX);
    catch_unwind(AssertUnwindSafe(|| {
        let mut oracle = Oracle::new(compiled.code.clone(), spec.frame_bound);
        let mut obs = Vec::with_capacity(spec.ops.len());
        for (i, op) in spec.ops.iter().enumerate() {
            at_op.set(i);
            obs.push(oracle.apply(op, compiled.ras[i]));
        }
        at_op.set(usize::MAX - 1);
        let mut drained = Vec::new();
        for _ in 0..DRAIN_CAP {
            let Obs::Ret(ra) = oracle.apply(&Op::Ret, None) else { unreachable!() };
            drained.push(ra);
            if ra == ReturnAddress::Exit {
                break;
            }
        }
        // The oracle's op counts are just the trace's shape.
        let calls =
            spec.ops.iter().filter(|o| matches!(o, Op::Call { .. } | Op::LeafCall { .. })).count()
                as u64;
        let tails = spec.ops.iter().filter(|o| matches!(o, Op::TailCall { .. })).count() as u64;
        let leafs = spec.ops.iter().filter(|o| matches!(o, Op::LeafCall { .. })).count() as u64;
        let rets = spec.ops.iter().filter(|o| matches!(o, Op::Ret | Op::Finish)).count() as u64
            + leafs
            + drained.len() as u64;
        let caps = spec.ops.iter().filter(|o| matches!(o, Op::Capture | Op::CaptureOneShot)).count()
            as u64;
        RunLog { obs, drain: drained, counters: [calls, tails, rets, caps] }
    }))
    .map_err(|e| {
        let msg = panic_text(&e);
        match at_op.get() {
            i if i < usize::MAX - 1 => {
                format!("oracle: panicked at op [{i}] {:?}: {msg}", spec.ops[i])
            }
            _ => format!("oracle: panicked: {msg}"),
        }
    })
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Compares a strategy log against the oracle log.
pub fn compare(
    spec: &TraceSpec,
    strategy: &str,
    want: &RunLog,
    got: &RunLog,
) -> Result<(), String> {
    for (i, (w, g)) in want.obs.iter().zip(&got.obs).enumerate() {
        if !obs_matches(w, g) {
            return Err(format!(
                "{strategy}: op [{i}] {:?}: oracle saw {w:?}, strategy saw {g:?}",
                spec.ops[i]
            ));
        }
    }
    if want.drain != got.drain {
        return Err(format!(
            "{strategy}: drain diverged: oracle unwound {:?}, strategy {:?}",
            want.drain, got.drain
        ));
    }
    if want.counters != got.counters {
        return Err(format!(
            "{strategy}: counters [calls, tail_calls, returns, captures] diverged: \
             oracle {:?}, strategy {:?}",
            want.counters, got.counters
        ));
    }
    Ok(())
}

/// Fuzzes one trace: oracle vs. all six strategies, plus the invariant
/// audit of the segmented machine. Returns a diagnosis on any divergence.
pub fn fuzz_trace(spec: &TraceSpec) -> Result<(), String> {
    let compiled = compile(spec);
    let reference = run_oracle(spec, &compiled)?;
    for strategy in Strategy::ALL {
        let log = run_strategy(spec, &compiled, strategy)?;
        compare(spec, strategy.name(), &reference, &log)?;
    }
    run_audited(spec, &compiled)
}
