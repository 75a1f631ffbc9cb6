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
    walker, CodeAddr, Config, Continuation, ControlStack, FrameSizeTable, Metrics, Resume,
    ReturnAddress, StackError, StackSlot, StackStats,
};

use crate::flat::{Flat, ImageKont};

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
#[derive(Debug)]
pub struct CacheStack<S: StackSlot> {
    flat: Flat<S>,
    /// The most recently flushed block, where an underflow refills from.
    link: Option<Continuation<S>>,
}

impl<S: StackSlot> CacheStack<S> {
    /// Creates a cache-model stack with a cache of `cfg.segment_slots()`
    /// slots.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        CacheStack { flat: Flat::new(cfg, code), link: None }
    }

    /// The frame pointer (absolute index within the cache).
    pub fn fp(&self) -> usize {
        self.flat.fp
    }

    /// Flushes the cache below `top` into a heap block whose topmost frame
    /// resumes at `ra`, linked to the block flushed before it.
    fn flush(&mut self, top: usize, ra: CodeAddr) -> Continuation<S> {
        self.flat.save(top, ra, self.link.take(), self.name())
    }
}

impl<S: StackSlot> ControlStack<S> for CacheStack<S> {
    fn name(&self) -> &'static str {
        "cache"
    }

    fn get(&self, i: usize) -> S {
        self.flat.get(i)
    }

    fn set(&mut self, i: usize, v: S) {
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
        if self.flat.overflows(d, check) {
            // Cache overflow: flush everything below the callee frame and
            // move the staged arguments to the base.
            let new_fp = self.flat.fp + d;
            let k = self.flush(new_fp, ra);
            let buf = &mut self.flat.buf;
            buf[0] = S::from_return_address(ReturnAddress::Underflow);
            for j in 0..nargs {
                buf[1 + j] = buf[new_fp + 1 + j].clone();
            }
            self.flat.metrics.slots_copied += nargs as u64;
            self.flat.fp = 0;
            self.link = Some(k);
        } else {
            self.flat.push(d, ra);
        }
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        self.flat.tail_call(src, nargs);
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        if let Some(ra) = self.flat.ret() {
            return Ok(ra);
        }
        match self.flat.top_ra() {
            ReturnAddress::Underflow => {
                self.flat.metrics.underflows += 1;
                let k = self.link.clone().expect("underflow with no linked block");
                self.reinstate(&k)
            }
            exit => Ok(exit),
        }
    }

    fn capture(&mut self) -> Continuation<S> {
        self.flat.metrics.captures += 1;
        let Some(ra) = self.flat.live_ra() else {
            return self.link.clone().unwrap_or_else(Continuation::exit);
        };
        let k = self.flush(self.flat.fp, ra);
        self.flat.slide(self.flat.cfg.frame_bound());
        self.flat.buf[0] = S::from_return_address(ReturnAddress::Underflow);
        self.link = Some(k.clone());
        k
    }

    fn resume(&mut self, r: Resume<'_, S>) -> Result<ReturnAddress, StackError> {
        let Some(kont) = r.record::<ImageKont<S>>(self.name())? else {
            self.reset();
            return Ok(ReturnAddress::Exit);
        };
        // The whole block is copied back: the cache model has no splitting,
        // so every underflow refills (and every overflow flushed) up to a
        // cache-full of slots — the "bouncing" cost.
        self.link = kont.link.clone();
        Ok(self.flat.restore(&kont.image, kont.ra))
    }

    fn metrics(&self) -> &Metrics {
        &self.flat.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.flat.metrics
    }

    fn stats(&self) -> StackStats {
        self.flat.stats(self.link.as_ref().map_or((0, 0), |k| (k.chain_len(), k.retained_slots())))
    }

    fn reset(&mut self) {
        self.flat.reset();
        self.link = None;
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        let mut out = Vec::new();
        let mut at_base = self.flat.walk().backtrace_into(&mut out, limit);
        let mut link = self.link.as_ref();
        // Below the underflow handler the walk goes on in the flushed block.
        while at_base == Some(ReturnAddress::Underflow) {
            let Some(block) = link.and_then(|k| k.downcast_ref::<ImageKont<S>>()) else {
                break;
            };
            at_base = walker::walk(&block.image, 0, block.image.len(), block.ra, &*self.flat.code)
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
