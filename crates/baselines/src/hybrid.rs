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

use crate::frames::{self, FrameKont, HeapFrame};

/// Where execution currently lives.
#[derive(Debug)]
enum Mode<S: StackSlot> {
    /// Current frame on the stack; `deep` is the heap chain beneath the
    /// stack's bottom frame.
    Stack { deep: Option<Rc<HeapFrame<S>>> },
    /// Current frame in the heap (we returned into a migrated frame).
    Heap(Rc<HeapFrame<S>>),
}

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
pub struct HybridStack<S: StackSlot> {
    code: Rc<dyn FrameSizeTable>,
    cfg: Config,
    buf: Vec<S>,
    fp: usize,
    mode: Mode<S>,
    metrics: Metrics,
}

impl<S: StackSlot> std::fmt::Debug for HybridStack<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridStack")
            .field("fp", &self.fp)
            .field("stack", &self.buf.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl<S: StackSlot> HybridStack<S> {
    /// Creates a hybrid stack with a stack buffer of `cfg.segment_slots()`
    /// slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        let mut buf: Vec<S> = std::iter::repeat_with(S::empty).take(cfg.segment_slots()).collect();
        buf[0] = S::from_return_address(ReturnAddress::Exit);
        HybridStack {
            code,
            cfg,
            buf,
            fp: 0,
            mode: Mode::Stack { deep: None },
            metrics: Metrics::new(),
        }
    }

    /// Returns `true` when the current frame lives in the heap (execution
    /// returned into a migrated frame).
    pub fn in_heap(&self) -> bool {
        matches!(self.mode, Mode::Heap(_))
    }

    fn esp(&self) -> usize {
        self.buf.len() - self.cfg.esp_reserve()
    }

    /// Migrates every stack frame below `fp` into the heap chain beneath
    /// the stack, slides `width` slots of the live frame to the base, and
    /// returns the chain's new head (the live frame's caller).
    fn migrate_below(&mut self, width: usize) -> Rc<HeapFrame<S>> {
        let Mode::Stack { deep } = &mut self.mode else {
            unreachable!("migration only happens in stack mode")
        };
        frames::migrate_below(
            &mut self.buf,
            &mut self.fp,
            width,
            &*self.code,
            deep,
            &mut self.metrics,
        )
    }

    /// Runs in the heap frame `h`, cloned first if a captured continuation
    /// still references it once the current mode is gone (frames in the
    /// heap list are immutable once shared, §6).
    fn run_in_heap(&mut self, h: Rc<HeapFrame<S>>) {
        self.mode = Mode::Heap(h);
        if let Mode::Heap(h) = &mut self.mode {
            HeapFrame::make_private(h, &mut self.metrics);
        }
    }
}

impl<S: StackSlot> ControlStack<S> for HybridStack<S> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn get(&self, i: usize) -> S {
        match &self.mode {
            Mode::Stack { .. } => self.buf[self.fp + i].clone(),
            Mode::Heap(h) => h.get(i),
        }
    }

    fn set(&mut self, i: usize, v: S) {
        match &self.mode {
            Mode::Stack { .. } => self.buf[self.fp + i] = v,
            Mode::Heap(h) => h.set(i, v),
        }
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
        match &self.mode {
            Mode::Heap(h) => {
                // Push the callee at the stack base; the heap frame becomes
                // the chain beneath the stack.
                let h = h.clone();
                self.buf[0] = S::from_return_address(ReturnAddress::Code(ra));
                for j in 0..nargs {
                    self.buf[1 + j] = h.get(d + 1 + j);
                }
                self.metrics.slots_copied += nargs as u64;
                self.fp = 0;
                self.mode = Mode::Stack { deep: Some(h) };
                Ok(())
            }
            Mode::Stack { .. } => {
                if check {
                    self.metrics.checks_executed += 1;
                    if self.fp + d > self.esp() {
                        // Stack overflow: migrate everything below the live
                        // frame into the heap and slide the live frame (and
                        // the staged partial frame) to the base.
                        self.metrics.overflows += 1;
                        if self.fp > 0 {
                            self.migrate_below(d + 1 + nargs);
                        }
                    }
                } else {
                    self.metrics.checks_elided += 1;
                }
                self.fp += d;
                self.buf[self.fp] = S::from_return_address(ReturnAddress::Code(ra));
                Ok(())
            }
        }
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        debug_assert!(src >= 1);
        self.metrics.tail_calls += 1;
        match &self.mode {
            Mode::Stack { .. } => {
                // Stack frames are private: reuse in place (the hybrid
                // model's advantage over the pure heap model).
                for j in 0..nargs {
                    self.buf[self.fp + 1 + j] = self.buf[self.fp + src + j].clone();
                }
            }
            Mode::Heap(h) => {
                // Heap frames may be shared with captured continuations and
                // can never be reused.
                let callee = h.callee(h.link.clone(), h.get(0), src, nargs, &mut self.metrics);
                self.mode = Mode::Heap(callee);
            }
        }
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        self.metrics.returns += 1;
        // Every return pays the "stack or heap?" check — the small extra
        // return cost the paper attributes to this model (§6).
        match &self.mode {
            Mode::Stack { deep } => {
                let ra = self.buf[self.fp]
                    .as_return_address()
                    .expect("frame base must hold a return address");
                match ra {
                    ReturnAddress::Code(r) => {
                        if self.fp == 0 {
                            // Returning off the stack into the heap chain.
                            let h =
                                deep.clone().expect("stack base with code ra implies a heap chain");
                            self.run_in_heap(h);
                        } else {
                            self.fp -= self.code.displacement(r);
                        }
                        Ok(ra)
                    }
                    ReturnAddress::Exit => Ok(ra),
                    ReturnAddress::Underflow => {
                        unreachable!("the hybrid model has no underflow handler")
                    }
                }
            }
            Mode::Heap(h) => {
                let ra =
                    h.get(0).as_return_address().expect("frame slot 0 must hold a return address");
                match ra {
                    ReturnAddress::Code(_) => {
                        let link = h.link.clone().expect("a code return address implies a caller");
                        self.run_in_heap(link);
                        Ok(ra)
                    }
                    ReturnAddress::Exit => Ok(ra),
                    ReturnAddress::Underflow => {
                        unreachable!("the hybrid model has no underflow handler")
                    }
                }
            }
        }
    }

    fn capture(&mut self) -> Continuation<S> {
        self.metrics.captures += 1;
        match &self.mode {
            Mode::Heap(h) => {
                let ra =
                    h.get(0).as_return_address().expect("frame slot 0 must hold a return address");
                match ra {
                    ReturnAddress::Code(ra) => {
                        let frame = h.link.clone().expect("a code return address implies a caller");
                        FrameKont::capture(self.name(), frame, ra, &mut self.metrics)
                    }
                    _ => Continuation::exit(),
                }
            }
            Mode::Stack { deep } => {
                let ra = self.buf[self.fp]
                    .as_return_address()
                    .expect("frame base must hold a return address");
                let ReturnAddress::Code(live_ra) = ra else {
                    // Live frame at the stack base: the continuation is the
                    // existing heap chain (or exit) — O(1), no migration.
                    return Continuation::exit();
                };
                let frame = if self.fp == 0 {
                    deep.clone().expect("stack base with code ra implies a heap chain")
                } else {
                    // Migrate the frames below the live frame into the heap;
                    // they are never copied back.
                    self.migrate_below(self.cfg.frame_bound())
                };
                FrameKont::capture(self.name(), frame, live_ra, &mut self.metrics)
            }
        }
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<FrameKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // Execution resumes *in* the heap frame; nothing is copied back to
        // the *stack*, though a shared frame is cloned within the heap so
        // the continuation can be re-entered again.
        self.run_in_heap(kont.frame.clone());
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn stats(&self) -> StackStats {
        let chain = match &self.mode {
            Mode::Stack { deep } => deep,
            Mode::Heap(h) => &h.link,
        };
        let (chain_records, chain_slots) = chain.as_ref().map_or((0, 0), |f| f.footprint());
        let (used, free) = match &self.mode {
            Mode::Stack { .. } => (self.fp, self.esp().saturating_sub(self.fp)),
            Mode::Heap(_) => (0, self.esp()),
        };
        StackStats {
            chain_records,
            chain_slots,
            current_used_slots: used,
            current_free_slots: free,
        }
    }

    fn reset(&mut self) {
        self.fp = 0;
        self.buf[0] = S::from_return_address(ReturnAddress::Exit);
        self.mode = Mode::Stack { deep: None };
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        match &self.mode {
            Mode::Stack { deep } => {
                frames::stack_backtrace(&self.buf, self.fp, &*self.code, deep.as_deref(), limit)
            }
            Mode::Heap(h) => h.return_addresses().take(limit).collect(),
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
