//! The incremental stack/heap model (Clinger, Hartheimer & Ost 1988).
//!
//! The fourth strategy in Clinger's taxonomy, sitting between the hybrid
//! stack/heap model and the paper's segmented stack: frames migrate to the
//! heap when a continuation is captured (like the hybrid model), but a
//! return *into* a heap frame copies that one frame back onto the stack and
//! execution continues there. Returns stay cheap and uniform; the price is
//! one frame's copy per underflow and the same capture-time migration cost
//! as the hybrid model. The paper's §6 comparison of duplication bounds
//! applies to this model directly: at most one copy of one frame is made
//! per re-entry.

use std::rc::Rc;

use segstack_core::{
    CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, Metrics, Resume, ReturnAddress,
    StackError, StackSlot, StackStats,
};

use crate::frames::{FrameKont, HeapFrame, OverHeap};

/// Control-stack strategy with migrate-on-capture and copy-one-frame-back
/// on underflow (Clinger et al.'s "incremental stack/heap"). Its
/// continuation is the head of the migrated frame list plus the resume
/// address.
///
/// `cfg.segment_slots()` is the stack size.
///
/// # Examples
///
/// ```
/// use segstack_baselines::IncrementalStack;
/// use segstack_core::{Config, ControlStack, TestCode, TestSlot, sim};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let cfg = Config::builder().segment_slots(512).frame_bound(16).build()?;
/// let mut stack = IncrementalStack::<TestSlot>::new(cfg, code.clone());
/// sim::push_frames(&mut stack, &code, 10, 4);
/// let k = stack.capture();                 // migrates frames to the heap
/// stack.ret()?;                            // copies one frame back
/// assert!(stack.metrics().slots_copied > 0);
/// let _ = k;
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Debug)]
pub struct IncrementalStack<S: StackSlot> {
    stack: OverHeap<S>,
}

impl<S: StackSlot> IncrementalStack<S> {
    /// Creates an incremental stack/heap strategy with a stack buffer of
    /// `cfg.segment_slots()` slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        IncrementalStack { stack: OverHeap::new(cfg, code) }
    }

    /// Copies heap frame `h` onto the stack base and makes it current: the
    /// defining "incremental" move. The heap original stays frozen for any
    /// continuations that share it.
    fn install_at_base(&mut self, h: &HeapFrame<S>) {
        self.stack.flat.load(&h.slots.borrow());
        self.stack.flat.fp = 0;
        self.stack.deep = h.link.clone();
    }
}

impl<S: StackSlot> ControlStack<S> for IncrementalStack<S> {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn get(&self, i: usize) -> S {
        self.stack.flat.get(i)
    }

    fn set(&mut self, i: usize, v: S) {
        self.stack.flat.set(i, v);
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        self.stack.call(d, ra, nargs, check)
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        self.stack.flat.tail_call(src, nargs);
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        if let Some(ra) = self.stack.flat.ret() {
            return Ok(ra);
        }
        let ra = self.stack.flat.top_ra();
        if ra.is_code() {
            // Returning off the stack base: copy the next heap frame back
            // onto the stack — the incremental step.
            let h = self.stack.deep.clone().expect("a stack base returning into code has a chain");
            self.stack.flat.metrics.underflows += 1;
            self.install_at_base(&h);
        }
        Ok(ra)
    }

    fn capture(&mut self) -> Continuation<S> {
        self.stack.capture(self.name())
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<FrameKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // Copy the topmost saved frame onto the stack; the rest arrives
        // incrementally as returns pull frames back.
        self.install_at_base(&kont.frame);
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.stack.flat.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.stack.flat.metrics
    }

    fn stats(&self) -> StackStats {
        self.stack.flat.stats(self.stack.deep.as_deref().map_or((0, 0), HeapFrame::footprint))
    }

    fn reset(&mut self) {
        self.stack.reset();
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        self.stack.backtrace(limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, TestCode, TestSlot};

    fn setup(stack_slots: usize) -> (Rc<TestCode>, IncrementalStack<TestSlot>) {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder().segment_slots(stack_slots).frame_bound(16).build().unwrap();
        let stack = IncrementalStack::new(cfg, code.clone() as Rc<dyn FrameSizeTable>);
        (code, stack)
    }

    #[test]
    fn plain_calls_never_touch_the_heap() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 5, 4);
        assert_eq!(sim::unwind_all(&mut stack), 6);
        assert_eq!(stack.metrics().heap_frames_allocated, 0);
    }

    #[test]
    fn returns_after_capture_copy_one_frame_each() {
        let (code, mut stack) = setup(512);
        let ras = sim::push_frames(&mut stack, &code, 10, 4);
        let _k = stack.capture();
        let copied_after_capture = stack.metrics().slots_copied;
        // Each of the next returns pulls exactly one 4-slot frame back.
        for i in (0..10).rev() {
            assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[i]));
        }
        let per_frame = stack.metrics().slots_copied - copied_after_capture;
        assert_eq!(per_frame, 40, "ten frames of four slots, one at a time");
        assert_eq!(stack.metrics().underflows, 10);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn reinstate_costs_one_frame_and_resumes() {
        let (code, mut stack) = setup(512);
        let ras = sim::push_frames(&mut stack, &code, 10, 4);
        let k = stack.capture();
        sim::unwind_all(&mut stack);
        let before = stack.metrics().slots_copied;
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[9]));
        assert_eq!(stack.metrics().slots_copied - before, 4, "one frame copied back");
        assert_eq!(stack.get(1), TestSlot::Int(8));
        assert_eq!(sim::unwind_all(&mut stack), 10);
        // Multi-shot.
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[9]));
        assert_eq!(sim::unwind_all(&mut stack), 10);
    }

    #[test]
    fn overflow_migrates_and_continues() {
        let (code, mut stack) = setup(128);
        sim::push_frames(&mut stack, &code, 100, 8);
        assert!(stack.metrics().overflows > 0);
        assert_eq!(sim::unwind_all(&mut stack), 101);
    }

    #[test]
    fn looper_rule_holds() {
        let (code, mut stack) = setup(512);
        let max_chain = sim::looper_workload(&mut stack, &code, 500, 4);
        assert!(max_chain <= 1, "chain grew to {max_chain}");
    }

    #[test]
    fn capture_at_base_is_o1() {
        let (code, mut stack) = setup(512);
        sim::push_frames(&mut stack, &code, 5, 4);
        let k1 = stack.capture(); // migrates; fp now 0
        let copied = stack.metrics().slots_copied;
        let k2 = stack.capture(); // chain already in heap
        assert_eq!(stack.metrics().slots_copied, copied, "second capture copies nothing");
        assert_eq!(k1.retained_slots(), k2.retained_slots());
    }
}
