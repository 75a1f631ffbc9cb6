//! The stack-cache model (Bartley & Jensen, PC Scheme; paper §2).
//!
//! Frames are "optimistically" allocated in a stack cache of limited size.
//! Overflowing the cache flushes all but the top frame to the heap — an
//! implicit continuation capture *with copying* — and underflow copies the
//! most recent flushed block back. This bounds continuation-operation cost
//! by the cache size, but "there is a direct relationship between the bound
//! on the cost of continuation operations and the bound on the depth of
//! recursion without stack overflows": a small cache makes deep recursion
//! pay flush/refill costs constantly, and a loop straddling the cache
//! boundary exhibits the worst-case "bouncing" the paper describes.
//! Experiment E9 reproduces that phenomenon.

use std::rc::Rc;

use segstack_core::{
    walker, CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, KontRepr, Metrics,
    Resume, ReturnAddress, StackError, StackSlot, StackStats,
};

/// A flushed block of frames: a copied stack image plus the usual record
/// fields (return address of the topmost frame, link to the next block).
#[derive(Debug)]
struct CacheKont<S: StackSlot> {
    image: Vec<S>,
    ra: CodeAddr,
    link: Option<Continuation<S>>,
}

impl<S: StackSlot> Drop for CacheKont<S> {
    fn drop(&mut self) {
        // Both the block chain and the saved images can hold long chains
        // of continuations; hand them to the deferred-drop queue.
        segstack_core::defer_slots(&mut self.image);
        if let Some(link) = self.link.take() {
            segstack_core::defer_drop(link.into_any());
        }
    }
}

impl<S: StackSlot> KontRepr<S> for CacheKont<S> {
    fn footprint(&self) -> (usize, usize) {
        (1, self.image.len())
    }

    fn link(&self) -> Option<Continuation<S>> {
        self.link.clone()
    }

    fn strategy(&self) -> &'static str {
        "cache"
    }
}

/// Control-stack strategy using a bounded stack cache with flush-to-heap on
/// overflow and capture, and refill-from-heap on underflow.
///
/// `cfg.segment_slots()` is the cache size; keep it small to see the model's
/// characteristic behavior (that is the model's own requirement — the cache
/// size *is* the continuation-cost bound).
///
/// # Examples
///
/// ```
/// use segstack_baselines::CacheStack;
/// use segstack_core::{Config, ControlStack, TestCode, TestSlot, sim};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let cfg = Config::builder().segment_slots(256).frame_bound(16).build()?;
/// let mut stack = CacheStack::<TestSlot>::new(cfg, code.clone());
/// sim::push_frames(&mut stack, &code, 100, 8); // deep recursion…
/// assert!(stack.metrics().overflows > 0);      // …bounces through the cache
/// # Ok::<(), segstack_core::StackError>(())
/// ```
pub struct CacheStack<S: StackSlot> {
    code: Rc<dyn FrameSizeTable>,
    cfg: Config,
    buf: Vec<S>,
    fp: usize,
    link: Option<Continuation<S>>,
    metrics: Metrics,
}

impl<S: StackSlot> std::fmt::Debug for CacheStack<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStack")
            .field("fp", &self.fp)
            .field("cache", &self.buf.len())
            .field("linked", &self.link.is_some())
            .finish()
    }
}

impl<S: StackSlot> CacheStack<S> {
    /// Creates a cache-model stack with a cache of `cfg.segment_slots()`
    /// slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        let mut buf: Vec<S> = std::iter::repeat_with(S::empty).take(cfg.segment_slots()).collect();
        buf[0] = S::from_return_address(ReturnAddress::Exit);
        CacheStack { code, cfg, buf, fp: 0, link: None, metrics: Metrics::new() }
    }

    /// The frame pointer (absolute index within the cache).
    pub fn fp(&self) -> usize {
        self.fp
    }

    fn esp(&self) -> usize {
        self.buf.len() - self.cfg.esp_reserve()
    }

    /// Flushes the occupied cache below `seal_top` into a heap block whose
    /// topmost frame resumes at `ra`, chaining it onto the current link.
    fn flush(&mut self, seal_top: usize, ra: CodeAddr) -> Continuation<S> {
        let image: Vec<S> = self.buf[..seal_top].to_vec();
        self.metrics.slots_copied += image.len() as u64;
        self.metrics.heap_slots_allocated += image.len() as u64;
        self.metrics.stack_records_allocated += 1;
        Continuation::from_repr(Rc::new(CacheKont { image, ra, link: self.link.take() }))
    }
}

impl<S: StackSlot> ControlStack<S> for CacheStack<S> {
    fn name(&self) -> &'static str {
        "cache"
    }

    fn get(&self, i: usize) -> S {
        self.buf[self.fp + i].clone()
    }

    fn set(&mut self, i: usize, v: S) {
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
        let new_fp = self.fp + d;
        if check {
            self.metrics.checks_executed += 1;
            if new_fp > self.esp() {
                // Cache overflow: flush everything below the callee frame.
                self.metrics.overflows += 1;
                let k = self.flush(new_fp, ra);
                self.buf[0] = S::from_return_address(ReturnAddress::Underflow);
                for j in 0..nargs {
                    self.buf[1 + j] = self.buf[new_fp + 1 + j].clone();
                }
                self.metrics.slots_copied += nargs as u64;
                self.fp = 0;
                self.link = Some(k);
                return Ok(());
            }
        } else {
            self.metrics.checks_elided += 1;
        }
        self.buf[new_fp] = S::from_return_address(ReturnAddress::Code(ra));
        self.fp = new_fp;
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        debug_assert!(src >= 1);
        self.metrics.tail_calls += 1;
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
            ReturnAddress::Underflow => {
                debug_assert_eq!(self.fp, 0);
                self.metrics.underflows += 1;
                let k = self.link.clone().expect("underflow with no linked block");
                self.reinstate(&k)
            }
            ReturnAddress::Exit => Ok(ra),
        }
    }

    fn capture(&mut self) -> Continuation<S> {
        self.metrics.captures += 1;
        if self.fp == 0 {
            return self.link.clone().unwrap_or_else(Continuation::exit);
        }
        let ra = self.buf[self.fp]
            .as_return_address()
            .expect("frame base must hold a return address")
            .code()
            .expect("a live frame above the cache base has a code return address");
        let k = self.flush(self.fp, ra);
        // Slide the live frame down to the cache base. Without a stack
        // pointer its extent is unknown; one frame bound is always enough.
        let width = self.cfg.frame_bound().min(self.buf.len() - self.fp);
        for i in 0..width {
            self.buf[i] = self.buf[self.fp + i].clone();
        }
        self.metrics.slots_copied += width as u64;
        self.buf[0] = S::from_return_address(ReturnAddress::Underflow);
        self.fp = 0;
        self.link = Some(k.clone());
        k
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<CacheKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // The whole block is copied back: the cache model has no splitting,
        // so every underflow refills (and every overflow flushed) up to a
        // cache-full of slots — the "bouncing" cost.
        for (i, s) in kont.image.iter().enumerate() {
            self.buf[i] = s.clone();
        }
        self.metrics.slots_copied += kont.image.len() as u64;
        self.fp = kont.image.len() - self.code.displacement(kont.ra);
        self.link = kont.link.clone();
        Ok(ReturnAddress::Code(kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn stats(&self) -> StackStats {
        let (chain_records, chain_slots) = match &self.link {
            Some(k) => (k.chain_len(), k.retained_slots()),
            None => (0, 0),
        };
        StackStats {
            chain_records,
            chain_slots,
            current_used_slots: self.fp,
            current_free_slots: self.esp().saturating_sub(self.fp),
        }
    }

    fn reset(&mut self) {
        self.fp = 0;
        self.buf[0] = S::from_return_address(ReturnAddress::Exit);
        self.link = None;
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        let mut out = Vec::new();
        let mut at_base =
            walker::walk_live(&self.buf, 0, self.fp, &*self.code).backtrace_into(&mut out, limit);
        let mut link = self.link.as_ref();
        // Below the underflow handler the walk goes on in the flushed block.
        while at_base == Some(ReturnAddress::Underflow) {
            let Some(block) = link.and_then(|k| k.downcast_ref::<CacheKont<S>>()) else {
                break;
            };
            at_base = walker::walk(&block.image, 0, block.image.len(), block.ra, &*self.code)
                .backtrace_into(&mut out, limit);
            link = block.link.as_ref();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::{sim, TestCode, TestSlot};

    fn setup(cache: usize) -> (Rc<TestCode>, CacheStack<TestSlot>) {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder().segment_slots(cache).frame_bound(16).build().unwrap();
        let stack = CacheStack::new(cfg, code.clone() as Rc<dyn FrameSizeTable>);
        (code, stack)
    }

    #[test]
    fn call_return_round_trip() {
        let (code, mut stack) = setup(256);
        sim::push_frames(&mut stack, &code, 5, 4);
        assert_eq!(stack.get(1), TestSlot::Int(4));
        assert_eq!(sim::unwind_all(&mut stack), 6);
        assert_eq!(stack.metrics().overflows, 0);
    }

    #[test]
    fn deep_recursion_flushes_and_refills() {
        let (code, mut stack) = setup(128);
        sim::push_frames(&mut stack, &code, 200, 8);
        assert!(stack.metrics().overflows > 10);
        let flushed = stack.metrics().slots_copied;
        assert!(flushed > 1000, "each overflow copies ~a cacheful ({flushed})");
        assert_eq!(sim::unwind_all(&mut stack), 201);
        assert_eq!(stack.metrics().underflows, stack.metrics().overflows);
    }

    #[test]
    fn bouncing_returns_and_calls_across_the_boundary() {
        let (code, mut stack) = setup(128);
        // Park the stack right at the overflow boundary (esp = 96, frame 8).
        sim::push_frames(&mut stack, &code, 12, 8);
        let base_ovf = stack.metrics().overflows;
        // Now a loop that calls (overflow) and returns (underflow) each
        // iteration: the worst case the paper warns about.
        for _ in 0..50 {
            let ra = code.ret_point(8);
            stack.call(8, ra, 0, true).unwrap();
            stack.ret().unwrap();
        }
        let ovf = stack.metrics().overflows - base_ovf;
        assert_eq!(ovf, 50, "every iteration overflows");
        assert_eq!(stack.metrics().underflows, stack.metrics().overflows);
    }

    #[test]
    fn capture_flushes_the_cache() {
        let (code, mut stack) = setup(256);
        sim::push_frames(&mut stack, &code, 10, 4);
        let before = stack.metrics().slots_copied;
        let k = stack.capture();
        assert!(stack.metrics().slots_copied - before >= 40);
        assert_eq!(k.retained_slots(), 40);
        assert_eq!(stack.fp(), 0, "live frame slid to the cache base");
    }

    #[test]
    fn capture_then_return_underflows_into_block() {
        let (code, mut stack) = setup(256);
        let ras = sim::push_frames(&mut stack, &code, 10, 4);
        let _k = stack.capture();
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[9]));
        assert_eq!(stack.get(1), TestSlot::Int(8));
        assert_eq!(sim::unwind_all(&mut stack), 10);
    }

    #[test]
    fn reinstate_after_unwind_resumes_correctly() {
        let (code, mut stack) = setup(256);
        let ras = sim::push_frames(&mut stack, &code, 10, 4);
        let k = stack.capture();
        sim::unwind_all(&mut stack);
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[9]));
        assert_eq!(sim::unwind_all(&mut stack), 10);
    }

    #[test]
    fn multi_block_continuations_survive_multiple_reinstatement() {
        let (code, mut stack) = setup(128);
        let ras = sim::push_frames(&mut stack, &code, 60, 8);
        let k = stack.capture();
        assert!(k.chain_len() > 1, "deep capture spans several flushed blocks");
        for _ in 0..2 {
            assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[59]));
            assert_eq!(sim::unwind_all(&mut stack), 60);
        }
    }

    #[test]
    fn looper_rule_holds() {
        let (code, mut stack) = setup(256);
        let max_chain = sim::looper_workload(&mut stack, &code, 1000, 4);
        assert_eq!(max_chain, 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let (code, mut stack) = setup(256);
        sim::push_frames(&mut stack, &code, 5, 4);
        stack.reset();
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }
}
