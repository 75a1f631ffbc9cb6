//! The hybrid stack/heap model (Clinger, Hartheimer & Ost 1988; paper §6).
//!
//! Frames are allocated on a stack and *moved into a heap-allocated linked
//! list when a continuation is created*. The list stays in the heap
//! indefinitely; frames are never copied back onto the stack — execution
//! returns *into* heap frames. Its advantage is that "there is never more
//! than one copy of a given frame"; its costs, which this implementation
//! pays faithfully, are that every return must check whether it returns to
//! a stack frame or a heap frame, objects with dynamic extent cannot be
//! stack allocated (frames move on capture), and the stack must be kept
//! small to bound capture cost.

use std::rc::Rc;

use segstack_core::{
    CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, Metrics, Resume, ReturnAddress,
    StackError, StackSlot, StackStats,
};

use crate::frames::{FrameKont, HeapFrame, OverHeap};

/// Control-stack strategy with stack allocation and migrate-to-heap
/// continuation capture (the Clinger et al. hybrid). Its continuation is the
/// head of the heap frame list plus the resume address; because frames were
/// *moved* (not copied) into the heap, capture after the first one is O(1)
/// until new stack frames accumulate.
///
/// `cfg.segment_slots()` is the stack size; the model itself requires it to
/// be small "so that the cost of creating a continuation is bounded" (§6) —
/// at the price of more frequent overflow migrations.
///
/// # Examples
///
/// ```
/// use segstack_baselines::HybridStack;
/// use segstack_core::{Config, ControlStack, TestCode, TestSlot, sim};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let cfg = Config::builder().segment_slots(512).frame_bound(16).build()?;
/// let mut stack = HybridStack::<TestSlot>::new(cfg, code.clone());
/// sim::push_frames(&mut stack, &code, 10, 4);
/// let k = stack.capture(); // migrates the 10 stack frames into the heap
/// assert_eq!(stack.metrics().heap_frames_allocated, 10); // callers + initial frame
/// let _ = k;
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Debug)]
pub struct HybridStack<S: StackSlot> {
    stack: OverHeap<S>,
    /// Execution returned into a migrated frame, the head of the chain, and
    /// runs there; the stack is empty.
    in_heap: bool,
}

impl<S: StackSlot> HybridStack<S> {
    /// Creates a hybrid stack with a stack buffer of `cfg.segment_slots()`
    /// slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        HybridStack { stack: OverHeap::new(cfg, code), in_heap: false }
    }

    /// Returns `true` when the current frame lives in the heap (execution
    /// returned into a migrated frame).
    pub fn in_heap(&self) -> bool {
        self.in_heap
    }

    /// The head of the heap chain, the frame execution runs in while
    /// [`in_heap`](HybridStack::in_heap), and the counters.
    fn head(&mut self) -> (&mut Rc<HeapFrame<S>>, &mut Metrics) {
        let OverHeap { flat, deep } = &mut self.stack;
        (deep.as_mut().expect("a heap frame to run in"), &mut flat.metrics)
    }

    /// Runs in the head of the chain, cloned first if a captured
    /// continuation still references it (frames in the heap list are
    /// immutable once shared, §6). Whatever it replaced must already be
    /// gone, or the clone would be made for a reference about to drop.
    fn run_in_head(&mut self) {
        self.in_heap = true;
        self.stack.flat.fp = 0;
        let (head, metrics) = self.head();
        HeapFrame::make_private(head, metrics);
    }
}

impl<S: StackSlot> ControlStack<S> for HybridStack<S> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn get(&self, i: usize) -> S {
        match &self.stack.deep {
            Some(h) if self.in_heap => h.get(i),
            _ => self.stack.flat.get(i),
        }
    }

    fn set(&mut self, i: usize, v: S) {
        match &self.stack.deep {
            Some(h) if self.in_heap => h.set(i, v),
            _ => self.stack.flat.set(i, v),
        }
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        if !self.in_heap {
            return self.stack.call(d, ra, nargs, check);
        }
        // Push the callee at the stack base; the heap frame stays the head
        // of the chain beneath the stack. An empty stack cannot overflow,
        // but the call site's check is counted all the same.
        let OverHeap { flat, deep } = &mut self.stack;
        flat.count_call(d, nargs)?;
        flat.count_check(check);
        let h = deep.as_ref().expect("a heap frame to run in");
        flat.buf[0] = S::from_return_address(ReturnAddress::Code(ra));
        for j in 0..nargs {
            flat.buf[1 + j] = h.get(d + 1 + j);
        }
        flat.metrics.slots_copied += nargs as u64;
        self.in_heap = false;
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        if self.in_heap {
            let (head, metrics) = self.head();
            HeapFrame::tail_call(head, src, nargs, metrics);
        } else {
            // Stack frames are private: reuse in place (the hybrid model's
            // advantage over the pure heap model).
            self.stack.flat.tail_call(src, nargs);
        }
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        // Every return pays the "stack or heap?" check — the small extra
        // return cost the paper attributes to this model (§6).
        if self.in_heap {
            let (head, metrics) = self.head();
            return Ok(HeapFrame::ret(head, metrics));
        }
        if let Some(ra) = self.stack.flat.ret() {
            return Ok(ra);
        }
        // Returning off the stack base: into the heap chain, or to the exit.
        let ra = self.stack.flat.top_ra();
        if ra.is_code() {
            self.run_in_head();
        }
        Ok(ra)
    }

    fn capture(&mut self) -> Continuation<S> {
        let name = self.name();
        if !self.in_heap {
            return self.stack.capture(name);
        }
        let (head, metrics) = self.head();
        head.capture(name, metrics)
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<FrameKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // Execution resumes *in* the heap frame; nothing is copied back to
        // the *stack*, though a shared frame is cloned within the heap so
        // the continuation can be re-entered again.
        self.stack.deep = Some(kont.frame.clone());
        self.run_in_head();
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.stack.flat.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.stack.flat.metrics
    }

    fn stats(&self) -> StackStats {
        let chain = match &self.stack.deep {
            Some(h) if self.in_heap => h.link.as_deref(),
            deep => deep.as_deref(),
        };
        self.stack.flat.stats(chain.map_or((0, 0), HeapFrame::footprint))
    }

    fn reset(&mut self) {
        self.stack.reset();
        self.in_heap = false;
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        match &self.stack.deep {
            Some(h) if self.in_heap => h.return_addresses().take(limit).collect(),
            _ => self.stack.backtrace(limit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, TestCode, TestSlot};

    fn setup(stack_slots: usize) -> (Rc<TestCode>, HybridStack<TestSlot>) {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder().segment_slots(stack_slots).frame_bound(16).build().unwrap();
        let stack = HybridStack::new(cfg, code.clone() as Rc<dyn FrameSizeTable>);
        (code, stack)
    }

    #[test]
    fn call_return_round_trip_on_stack() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 5, 4);
        assert!(!stack.in_heap());
        assert_eq!(stack.get(1), TestSlot::Int(4));
        assert_eq!(sim::unwind_all(&mut stack), 6);
        assert_eq!(stack.metrics().heap_frames_allocated, 0, "no captures, no heap frames");
    }

    #[test]
    fn capture_migrates_frames_once() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 10, 4);
        let k1 = stack.capture();
        assert_eq!(stack.metrics().heap_frames_allocated, 10, "9 caller frames + initial");
        assert_eq!(k1.chain_len(), 10, "chain head is the live frame's caller");
        // A second capture from the same point is O(1): frames are already
        // in the heap (fp == 0 now).
        let allocated = stack.metrics().heap_frames_allocated;
        let k2 = stack.capture();
        assert_eq!(stack.metrics().heap_frames_allocated, allocated);
        assert_eq!(k2.retained_slots(), k1.retained_slots());
    }

    #[test]
    fn returns_into_heap_frames_work() {
        let (code, mut stack) = setup(512);
        let ras = sim::push_frames(&mut stack, &code, 5, 4);
        let _k = stack.capture();
        // Unwind through the migrated heap frames.
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[4]));
        assert!(stack.in_heap(), "returned into a migrated frame");
        assert_eq!(stack.get(1), TestSlot::Int(3));
        assert_eq!(sim::unwind_all(&mut stack), 5);
    }

    #[test]
    fn calls_from_heap_frames_push_on_the_stack() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 3, 4);
        let _k = stack.capture();
        stack.ret().unwrap(); // now in a heap frame
        assert!(stack.in_heap());
        let ra = code.ret_point(4);
        stack.set(5, TestSlot::Int(99));
        stack.call(4, ra, 1, true).unwrap();
        assert!(!stack.in_heap(), "callee frame is on the stack");
        assert_eq!(stack.get(1), TestSlot::Int(99));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra));
        assert!(stack.in_heap(), "returned back into the heap frame");
    }

    #[test]
    fn reinstate_never_copies_frames_back() {
        let (code, mut stack) = setup(512);
        let ras = sim::push_frames(&mut stack, &code, 10, 4);
        let k = stack.capture();
        sim::unwind_all(&mut stack);
        let copied = stack.metrics().slots_copied;
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[9]));
        // At most the one re-entered frame is cloned (within the heap);
        // nothing is copied back to the stack.
        assert!(
            stack.metrics().slots_copied - copied <= 8,
            "reinstate cost is one frame, not O(depth)"
        );
        assert!(stack.in_heap());
        assert_eq!(sim::unwind_all(&mut stack), 10);
    }

    #[test]
    fn single_copy_property_holds_across_repeated_capture() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 20, 4);
        let k1 = stack.capture();
        let k2 = stack.capture();
        let k3 = stack.capture();
        // All three continuations share the same migrated frames: "there is
        // never more than one copy of a given frame".
        assert_eq!(stack.metrics().heap_frames_allocated, 20);
        assert_eq!(k1.retained_slots(), k2.retained_slots());
        assert_eq!(k2.retained_slots(), k3.retained_slots());
    }

    #[test]
    fn overflow_migrates_and_continues() {
        let (code, mut stack) = setup(128);
        sim::push_frames(&mut stack, &code, 100, 8);
        assert!(stack.metrics().overflows > 0);
        assert!(stack.metrics().heap_frames_allocated > 50);
        assert_eq!(sim::unwind_all(&mut stack), 101);
    }

    #[test]
    fn looper_rule_holds() {
        let (code, mut stack) = setup(512);
        let max_chain = sim::looper_workload(&mut stack, &code, 500, 4);
        assert!(max_chain <= 1, "looper must not grow the chain (got {max_chain})");
    }

    #[test]
    fn capture_at_toplevel_is_exit() {
        let (_code, mut stack) = setup(512);
        assert!(stack.capture().is_exit());
    }

    #[test]
    fn reset_restores_initial_state() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 5, 4);
        let _k = stack.capture();
        stack.reset();
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }
}
