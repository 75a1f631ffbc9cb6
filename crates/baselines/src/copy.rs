//! The naive stack-copy model (paper Figure 2, §2; McDermott 1980).
//!
//! Ordinary stack management until a continuation operation happens: capture
//! copies the *entire* occupied stack into the heap, reinstatement copies the
//! entire image back. "Unless continuation operations are relatively rare or
//! the size of the stack is usually quite small, the cost of copying stack
//! images makes continuation operations inordinately expensive" — and
//! repeated captures of the same deep stack duplicate it wholesale (Danvy's
//! observation, §6). Experiments E2/E11 quantify exactly this.

use std::rc::Rc;

use segstack_core::{
    CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, Metrics, Resume, ReturnAddress,
    StackError, StackSlot, StackStats,
};

use crate::flat::{Flat, ImageKont};

/// Control-stack strategy using one contiguous stack with whole-stack
/// copying for continuation operations (Figure 2).
///
/// The stack grows by doubling when exhausted (counted in the metrics); the
/// naive model has no segmentation to recover with.
///
/// # Examples
///
/// ```
/// use segstack_baselines::CopyStack;
/// use segstack_core::{Config, ControlStack, TestCode, TestSlot};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let mut stack = CopyStack::<TestSlot>::new(Config::default(), code.clone());
/// let ra = code.ret_point(4);
/// stack.call(4, ra, 0, true)?;
/// let before = stack.metrics().slots_copied;
/// let _k = stack.capture();
/// assert!(stack.metrics().slots_copied > before, "capture copies the stack");
/// # Ok::<(), segstack_core::StackError>(())
/// ```
#[derive(Debug)]
pub struct CopyStack<S: StackSlot> {
    flat: Flat<S>,
}

impl<S: StackSlot> CopyStack<S> {
    /// Creates a copy-model stack with an initial buffer of
    /// `cfg.segment_slots()` slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        CopyStack { flat: Flat::new(cfg, code) }
    }

    /// The frame pointer (absolute index of the current frame base).
    pub fn fp(&self) -> usize {
        self.flat.fp
    }

    /// Current stack capacity in slots.
    pub fn capacity(&self) -> usize {
        self.flat.buf.len()
    }

    /// Grows the stack so that `need` slots are addressable, doubling to
    /// amortize. The whole occupied portion is copied (and counted).
    fn ensure(&mut self, need: usize) {
        let flat = &mut self.flat;
        if need <= flat.buf.len() {
            return;
        }
        let new_len = need.max(flat.buf.len() * 2);
        flat.metrics.slots_copied += flat.fp as u64; // realloc moves the live stack
        flat.buf.resize_with(new_len, S::empty);
    }
}

impl<S: StackSlot> ControlStack<S> for CopyStack<S> {
    fn name(&self) -> &'static str {
        "copy"
    }

    fn get(&self, i: usize) -> S {
        self.flat.buf.get(self.flat.fp + i).cloned().unwrap_or_else(S::empty)
    }

    fn set(&mut self, i: usize, v: S) {
        self.ensure(self.flat.fp + i + 1);
        self.flat.set(i, v);
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        self.flat.count_call(d, nargs)?;
        // The stack grows instead of overflowing.
        self.flat.count_check(check);
        self.ensure(self.flat.fp + d + self.flat.cfg.esp_reserve());
        self.flat.push(d, ra);
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        self.ensure(self.flat.fp + src + nargs);
        self.flat.tail_call(src, nargs);
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        // The whole stack stays resident: the base frame returns to the
        // exit routine.
        Ok(self.flat.ret().unwrap_or(ReturnAddress::Exit))
    }

    fn capture(&mut self) -> Continuation<S> {
        self.flat.metrics.captures += 1;
        let Some(ra) = self.flat.live_ra() else {
            return Continuation::exit();
        };
        // "When a continuation is captured, the stack is copied into the
        // heap" — all of it, every time.
        self.flat.save(self.flat.fp, ra, None, self.name())
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<ImageKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // "When a continuation is invoked, the stack image in the heap is
        // copied into the stack area."
        self.ensure(kont.image.len() + self.flat.cfg.esp_reserve());
        Ok(self.flat.restore(&kont.image, kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.flat.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.flat.metrics
    }

    fn stats(&self) -> StackStats {
        self.flat.stats((0, 0)) // continuations are flat images, never chained
    }

    fn reset(&mut self) {
        self.flat.reset();
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        self.flat.walk().map(|f| f.ra).take(limit).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, TestCode, TestSlot};

    fn setup() -> (Rc<TestCode>, CopyStack<TestSlot>) {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder().segment_slots(256).frame_bound(16).build().unwrap();
        let stack = CopyStack::new(cfg, code.clone() as Rc<dyn FrameSizeTable>);
        (code, stack)
    }

    #[test]
    fn call_return_round_trip() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 5, 4);
        assert_eq!(stack.get(1), TestSlot::Int(4));
        assert_eq!(sim::unwind_all(&mut stack), 6);
    }

    #[test]
    fn capture_cost_is_proportional_to_depth() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 50, 4);
        let before = stack.metrics().slots_copied;
        let k = stack.capture();
        assert_eq!(stack.metrics().slots_copied - before, 200);
        assert_eq!(k.retained_slots(), 200);
    }

    #[test]
    fn repeated_capture_duplicates_the_stack() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 50, 4);
        let konts: Vec<_> = (0..4).map(|_| stack.capture()).collect();
        let total: usize = konts.iter().map(|k| k.retained_slots()).sum();
        assert_eq!(total, 800, "four captures retain four full copies (Danvy's concern)");
    }

    #[test]
    fn reinstate_restores_and_resumes() {
        let (code, mut stack) = setup();
        let ras = sim::push_frames(&mut stack, &code, 5, 4);
        let k = stack.capture();
        sim::unwind_all(&mut stack);
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[4]));
        assert_eq!(stack.get(1), TestSlot::Int(3), "resumed on the caller frame");
        assert_eq!(sim::unwind_all(&mut stack), 5);
    }

    #[test]
    fn multiple_reinstatements_are_stable() {
        let (code, mut stack) = setup();
        let ras = sim::push_frames(&mut stack, &code, 5, 4);
        let k = stack.capture();
        for _ in 0..3 {
            assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[4]));
            assert_eq!(sim::unwind_all(&mut stack), 5);
        }
    }

    #[test]
    fn deep_recursion_grows_the_buffer() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 500, 8);
        assert!(stack.capacity() >= 4000 + 32);
        assert_eq!(sim::unwind_all(&mut stack), 501);
    }

    #[test]
    fn capture_at_toplevel_is_exit() {
        let (_code, mut stack) = setup();
        assert!(stack.capture().is_exit());
    }

    #[test]
    fn looper_rule_holds() {
        let (code, mut stack) = setup();
        // The copy model has no chain; the important property is that the
        // captured image stays one frame deep, not that copying is avoided.
        let max_chain = sim::looper_workload(&mut stack, &code, 100, 4);
        assert_eq!(max_chain, 0);
        assert_eq!(stack.metrics().captures, 100);
    }

    #[test]
    fn reset_restores_initial_state() {
        let (code, mut stack) = setup();
        sim::push_frames(&mut stack, &code, 5, 4);
        stack.reset();
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }
}
