//! The heap model (paper Figure 1, §2).
//!
//! "The simplest way to support continuation operations is to abandon the
//! use of a reusable stack to store activation records and to maintain
//! activation records as a linked list in the heap. ... A continuation may
//! be captured or reinstated for little more than the cost of an ordinary
//! procedure call."
//!
//! The price, which this implementation pays faithfully, is that *every*
//! call (including tail calls — frames may never be reused or modified once
//! linked) allocates a fresh heap frame and copies the staged arguments
//! into it, and every call maintains an explicit dynamic link.

use std::rc::Rc;

use segstack_core::{
    CodeAddr, Config, Continuation, ControlStack, Metrics, Resume, ReturnAddress, StackError,
    StackSlot, StackStats,
};

use crate::frames::{FrameKont, HeapFrame};

/// Control stack strategy that allocates every activation record in the
/// heap (Figure 1).
///
/// # Examples
///
/// ```
/// use segstack_baselines::HeapStack;
/// use segstack_core::{Config, ControlStack, ReturnAddress, TestCode, TestSlot};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let mut stack = HeapStack::<TestSlot>::new(Config::default());
/// let ra = code.ret_point(4);
/// stack.set(5, TestSlot::Int(1));
/// stack.call(4, ra, 1, true)?;
/// let k = stack.capture(); // O(1): just the chain pointer + resume address
/// assert_eq!(stack.ret()?, ReturnAddress::Code(ra));
/// assert_eq!(stack.reinstate(&k)?, ReturnAddress::Code(ra));
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Debug)]
pub struct HeapStack<S: StackSlot> {
    cur: Rc<HeapFrame<S>>,
    cfg: Config,
    metrics: Metrics,
}

impl<S: StackSlot> HeapStack<S> {
    /// Creates a heap-model stack. Of the configuration only the frame
    /// bound applies: the heap model has no segments or overflow checks.
    pub fn new(cfg: Config) -> Self {
        HeapStack { cur: Self::initial_frame(), cfg, metrics: Metrics::new() }
    }

    fn initial_frame() -> Rc<HeapFrame<S>> {
        HeapFrame::new(None, vec![S::from_return_address(ReturnAddress::Exit)])
    }

    /// Depth of the current frame chain (including the initial frame).
    pub fn depth(&self) -> usize {
        self.cur.footprint().0
    }
}

impl<S: StackSlot> Default for HeapStack<S> {
    fn default() -> Self {
        HeapStack::new(Config::default())
    }
}

impl<S: StackSlot> ControlStack<S> for HeapStack<S> {
    fn name(&self) -> &'static str {
        "heap"
    }

    fn get(&self, i: usize) -> S {
        self.cur.get(i)
    }

    fn set(&mut self, i: usize, v: S) {
        self.cur.set(i, v);
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        _check: bool,
    ) -> Result<(), StackError> {
        self.metrics.calls += 1;
        self.cfg.check_frame(d, nargs)?;
        let ra = S::from_return_address(ReturnAddress::Code(ra));
        self.cur = self.cur.callee(Some(self.cur.clone()), ra, d + 1, nargs, &mut self.metrics);
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        HeapFrame::tail_call(&mut self.cur, src, nargs, &mut self.metrics);
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        Ok(HeapFrame::ret(&mut self.cur, &mut self.metrics))
    }

    fn capture(&mut self) -> Continuation<S> {
        self.cur.capture(self.name(), &mut self.metrics)
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<FrameKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        self.cur = kont.frame.clone();
        HeapFrame::make_private(&mut self.cur, &mut self.metrics);
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn stats(&self) -> StackStats {
        let (chain_records, chain_slots) = self.cur.link.as_ref().map_or((0, 0), |f| f.footprint());
        StackStats {
            chain_records,
            chain_slots,
            current_used_slots: self.cur.slots.borrow().len(),
            current_free_slots: usize::MAX, // the heap never overflows
        }
    }

    fn reset(&mut self) {
        self.cur = Self::initial_frame();
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        self.cur.return_addresses().take(limit).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, TestCode, TestSlot};

    fn setup() -> (Rc<TestCode>, HeapStack<TestSlot>) {
        (Rc::new(TestCode::new()), HeapStack::new(Config::default()))
    }

    #[test]
    fn call_return_round_trip() {
        let (code, mut stack) = setup();
        let ras = sim::push_frames(&mut stack, &code, 3, 4);
        assert_eq!(stack.get(1), TestSlot::Int(2));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[2]));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[1]));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[0]));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn every_call_allocates_a_heap_frame() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 10, 4);
        assert_eq!(stack.metrics().heap_frames_allocated, 10);
        assert!(stack.metrics().heap_slots_allocated >= 20);
    }

    #[test]
    fn tail_calls_also_allocate() {
        let (code, mut stack) = setup();
        sim::tail_loop_workload(&mut stack, &code, 100, 4);
        assert_eq!(stack.metrics().tail_calls, 100);
        assert_eq!(stack.metrics().heap_frames_allocated, 101);
        // But the *chain* does not grow: proper tail calls.
        assert_eq!(stack.depth(), 1);
    }

    #[test]
    fn capture_and_reinstate_are_o1() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 100, 4);
        let copied = stack.metrics().slots_copied;
        let k = stack.capture();
        assert_eq!(stack.metrics().slots_copied, copied, "capture copies nothing");
        assert_eq!(k.chain_len(), 100, "chain excludes the live frame, includes the initial frame");
        stack.reinstate(&k).unwrap();
        // Re-entering a shared frame clones just that frame (never the
        // chain), so the continuation's view stays frozen.
        assert!(
            stack.metrics().slots_copied - copied <= 8,
            "reinstate cost is one frame, not O(depth)"
        );
        assert_eq!(stack.get(1), TestSlot::Int(98), "resumed on the caller's frame");
    }

    #[test]
    fn reinstate_resumes_and_unwinds() {
        let (code, mut stack) = setup();
        let ras = sim::push_frames(&mut stack, &code, 5, 4);
        let k = stack.capture();
        assert_eq!(sim::unwind_all(&mut stack), 6);
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[4]));
        // Resumed below frame 4: the remaining returns are ras[3..0] + exit.
        assert_eq!(sim::unwind_all(&mut stack), 5);
    }

    #[test]
    fn multiple_reinstatements_share_frames() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 5, 4);
        let k = stack.capture();
        let retained = k.retained_slots();
        for _ in 0..3 {
            stack.reinstate(&k).unwrap();
            assert_eq!(k.retained_slots(), retained, "no duplication in the heap model");
            sim::unwind_all(&mut stack);
        }
    }

    #[test]
    fn capture_at_toplevel_is_exit() {
        let (_code, mut stack) = setup();
        let k = stack.capture();
        assert!(k.is_exit());
        sim::push_frames(&mut stack, &Rc::new(TestCode::new()), 2, 4);
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Exit);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn looper_rule_holds() {
        let (code, mut stack) = setup();
        let max_chain = sim::looper_workload(&mut stack, &code, 1000, 4);
        assert_eq!(max_chain, 1, "heap-model looper keeps a constant chain");
    }

    #[test]
    fn reset_restores_initial_state() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 5, 4);
        stack.reset();
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
        assert_eq!(stack.stats().chain_records, 0);
    }
}
