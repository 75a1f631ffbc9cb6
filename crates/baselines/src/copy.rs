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
    walker, CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, KontRepr, Metrics,
    Resume, ReturnAddress, StackError, StackSlot, StackStats,
};

/// Continuation representation of the copy model: a full copy of the stack
/// below the capture point.
#[derive(Debug)]
struct CopyKont<S: StackSlot> {
    image: Vec<S>,
    ra: CodeAddr,
}

impl<S: StackSlot> Drop for CopyKont<S> {
    fn drop(&mut self) {
        // The image may hold further continuation values (chains of saved
        // stacks); hand them to the deferred-drop queue.
        segstack_core::defer_slots(&mut self.image);
    }
}

impl<S: StackSlot> KontRepr<S> for CopyKont<S> {
    fn footprint(&self) -> (usize, usize) {
        (1, self.image.len())
    }

    fn link(&self) -> Option<Continuation<S>> {
        None
    }

    fn strategy(&self) -> &'static str {
        "copy"
    }
}

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
pub struct CopyStack<S: StackSlot> {
    code: Rc<dyn FrameSizeTable>,
    cfg: Config,
    buf: Vec<S>,
    fp: usize,
    metrics: Metrics,
}

impl<S: StackSlot> std::fmt::Debug for CopyStack<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CopyStack")
            .field("fp", &self.fp)
            .field("capacity", &self.buf.len())
            .finish()
    }
}

impl<S: StackSlot> CopyStack<S> {
    /// Creates a copy-model stack with an initial buffer of
    /// `cfg.segment_slots()` slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        let mut buf: Vec<S> = std::iter::repeat_with(S::empty).take(cfg.segment_slots()).collect();
        buf[0] = S::from_return_address(ReturnAddress::Exit);
        CopyStack { code, cfg, buf, fp: 0, metrics: Metrics::new() }
    }

    /// The frame pointer (absolute index of the current frame base).
    pub fn fp(&self) -> usize {
        self.fp
    }

    /// Current stack capacity in slots.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Grows the stack so that `need` slots are addressable, doubling to
    /// amortize. The whole occupied portion is copied (and counted).
    fn ensure(&mut self, need: usize) {
        if need <= self.buf.len() {
            return;
        }
        let new_len = need.max(self.buf.len() * 2);
        self.metrics.slots_copied += self.fp as u64; // realloc moves the live stack
        self.buf.resize_with(new_len, S::empty);
    }
}

impl<S: StackSlot> ControlStack<S> for CopyStack<S> {
    fn name(&self) -> &'static str {
        "copy"
    }

    fn get(&self, i: usize) -> S {
        self.buf.get(self.fp + i).cloned().unwrap_or_else(S::empty)
    }

    fn set(&mut self, i: usize, v: S) {
        self.ensure(self.fp + i + 1);
        self.buf[self.fp + i] = v;
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        debug_assert!(d >= 1);
        self.metrics.calls += 1;
        self.cfg.check_frame(d, nargs)?;
        if check {
            self.metrics.checks_executed += 1;
        } else {
            self.metrics.checks_elided += 1;
        }
        let new_fp = self.fp + d;
        self.ensure(new_fp + self.cfg.esp_reserve());
        self.buf[new_fp] = S::from_return_address(ReturnAddress::Code(ra));
        self.fp = new_fp;
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        debug_assert!(src >= 1);
        self.metrics.tail_calls += 1;
        self.ensure(self.fp + src + nargs);
        for j in 0..nargs {
            self.buf[self.fp + 1 + j] = self.buf[self.fp + src + j].clone();
        }
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        self.metrics.returns += 1;
        let ra =
            self.buf[self.fp].as_return_address().expect("frame base must hold a return address");
        match ra {
            ReturnAddress::Code(r) => {
                self.fp -= self.code.displacement(r);
                Ok(ra)
            }
            ReturnAddress::Exit => Ok(ra),
            ReturnAddress::Underflow => {
                unreachable!("the copy model keeps the whole stack resident")
            }
        }
    }

    fn capture(&mut self) -> Continuation<S> {
        self.metrics.captures += 1;
        if self.fp == 0 {
            return Continuation::exit();
        }
        let ra = self.buf[self.fp]
            .as_return_address()
            .expect("frame base must hold a return address")
            .code()
            .expect("a live frame above the stack base has a code return address");
        // "When a continuation is captured, the stack is copied into the
        // heap" — all of it, every time.
        let image: Vec<S> = self.buf[..self.fp].to_vec();
        self.metrics.slots_copied += image.len() as u64;
        self.metrics.heap_slots_allocated += image.len() as u64;
        self.metrics.stack_records_allocated += 1;
        Continuation::from_repr(Rc::new(CopyKont { image, ra }))
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<CopyKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // "When a continuation is invoked, the stack image in the heap is
        // copied into the stack area."
        self.ensure(kont.image.len() + self.cfg.esp_reserve());
        for (i, s) in kont.image.iter().enumerate() {
            self.buf[i] = s.clone();
        }
        self.metrics.slots_copied += kont.image.len() as u64;
        self.fp = kont.image.len() - self.code.displacement(kont.ra);
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn stats(&self) -> StackStats {
        StackStats {
            chain_records: 0, // continuations are flat images, never chained
            chain_slots: 0,
            current_used_slots: self.fp,
            current_free_slots: self.buf.len().saturating_sub(self.fp + self.cfg.esp_reserve()),
        }
    }

    fn reset(&mut self) {
        self.fp = 0;
        self.buf[0] = S::from_return_address(ReturnAddress::Exit);
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        walker::walk_live(&self.buf, 0, self.fp, &*self.code).map(|f| f.ra).take(limit).collect()
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
