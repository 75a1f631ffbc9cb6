//! The one contiguous stack under the copy, cache, hybrid and incremental
//! models, and the stack image the copy and cache models save.
//!
//! All four run frames on a buffer with a frame pointer: the exit word at
//! the base, a call's return address at the callee's frame base, and a
//! return that finds its caller through the frame-size word before its
//! return point (paper §3, Figure 4). They differ only in what happens when
//! the stack runs out, when a continuation is captured, and when a return
//! reaches the base.

use std::rc::Rc;

use segstack_core::walker::{self, FrameWalker};
use segstack_core::{
    CodeAddr, Config, Continuation, FrameSizeTable, KontRepr, Metrics, ReturnAddress, StackError,
    StackSlot, StackStats,
};

/// A contiguous stack: the code table, configuration, buffer, frame
/// pointer and counters of one strategy.
pub(crate) struct Flat<S: StackSlot> {
    pub(crate) code: Rc<dyn FrameSizeTable>,
    pub(crate) cfg: Config,
    pub(crate) buf: Vec<S>,
    /// The frame pointer: the absolute index of the live frame's base.
    pub(crate) fp: usize,
    pub(crate) metrics: Metrics,
}

impl<S: StackSlot> std::fmt::Debug for Flat<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flat").field("fp", &self.fp).field("slots", &self.buf.len()).finish()
    }
}

impl<S: StackSlot> Flat<S> {
    /// A stack of `cfg.segment_slots()` slots whose base word is the exit
    /// routine.
    pub(crate) fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        let mut buf: Vec<S> = std::iter::repeat_with(S::empty).take(cfg.segment_slots()).collect();
        buf[0] = S::from_return_address(ReturnAddress::Exit);
        Flat { code, cfg, buf, fp: 0, metrics: Metrics::new() }
    }

    /// The overflow limit: a callee frame based past it leaves less than the
    /// two-frame reserve (Figure 8).
    fn esp(&self) -> usize {
        self.buf.len() - self.cfg.esp_reserve()
    }

    /// Reads slot `i` of the live frame.
    pub(crate) fn get(&self, i: usize) -> S {
        self.buf[self.fp + i].clone()
    }

    /// Writes slot `i` of the live frame.
    pub(crate) fn set(&mut self, i: usize, v: S) {
        self.buf[self.fp + i] = v;
    }

    /// Counts a call and checks it against the frame bound.
    pub(crate) fn count_call(&mut self, d: usize, nargs: usize) -> Result<(), StackError> {
        debug_assert!(d >= 1);
        self.metrics.calls += 1;
        self.cfg.check_frame(d, nargs)
    }

    /// Counts a call site's overflow check: executed if `check`, elided
    /// otherwise.
    pub(crate) fn count_check(&mut self, check: bool) {
        if check {
            self.metrics.checks_executed += 1;
        } else {
            self.metrics.checks_elided += 1;
        }
    }

    /// Counts the check of a call with displacement `d`, and whether an
    /// executed check finds the callee's frame past `esp` (an overflow,
    /// also counted).
    pub(crate) fn overflows(&mut self, d: usize, check: bool) -> bool {
        self.count_check(check);
        let over = check && self.fp + d > self.esp();
        if over {
            self.metrics.overflows += 1;
        }
        over
    }

    /// Pushes the callee frame `d` slots up, returning to `ra`.
    pub(crate) fn push(&mut self, d: usize, ra: CodeAddr) {
        self.fp += d;
        self.buf[self.fp] = S::from_return_address(ReturnAddress::Code(ra));
    }

    /// Counts a tail call and moves its `nargs` staged arguments from
    /// `src..` down to slot 1: a stack frame is private, so it is reused in
    /// place.
    pub(crate) fn tail_call(&mut self, src: usize, nargs: usize) {
        debug_assert!(src >= 1);
        self.metrics.tail_calls += 1;
        for j in 0..nargs {
            self.buf[self.fp + 1 + j] = self.buf[self.fp + src + j].clone();
        }
    }

    /// The word at the live frame's base.
    pub(crate) fn top_ra(&self) -> ReturnAddress {
        self.buf[self.fp].as_return_address().expect("frame base must hold a return address")
    }

    /// The live frame's return address, or `None` for a frame at the base
    /// that returns to the exit or underflow routine.
    pub(crate) fn live_ra(&self) -> Option<CodeAddr> {
        self.top_ra().code()
    }

    /// Counts a return. A frame above the base pops to its caller and its
    /// return address is the result. `None` leaves a return from the base
    /// frame to the model, which reads the base word with
    /// [`top_ra`](Flat::top_ra). The frame pointer decides which, before
    /// the pop: a return may land on the base frame.
    pub(crate) fn ret(&mut self) -> Option<ReturnAddress> {
        self.metrics.returns += 1;
        if self.fp == 0 {
            return None;
        }
        let ra = self.live_ra().expect("a frame above the base returns into code");
        self.fp -= self.code.displacement(ra);
        Some(ReturnAddress::Code(ra))
    }

    /// The frames below the live frame, top down (paper Figure 4).
    pub(crate) fn walk(&self) -> FrameWalker<'_, S, dyn FrameSizeTable> {
        walker::walk_live(&self.buf, 0, self.fp, &*self.code)
    }

    /// Saves the stack below `top` to the heap as a record of `strategy`
    /// that resumes at `ra` and links to `link`.
    pub(crate) fn save(
        &mut self,
        top: usize,
        ra: CodeAddr,
        link: Option<Continuation<S>>,
        strategy: &'static str,
    ) -> Continuation<S> {
        let image = self.buf[..top].to_vec();
        self.metrics.slots_copied += image.len() as u64;
        self.metrics.heap_slots_allocated += image.len() as u64;
        self.metrics.stack_records_allocated += 1;
        Continuation::from_repr(Rc::new(ImageKont { image, ra, link, strategy }))
    }

    /// Copies `slots` to the bottom of the buffer.
    pub(crate) fn load(&mut self, slots: &[S]) {
        self.buf[..slots.len()].clone_from_slice(slots);
        self.metrics.slots_copied += slots.len() as u64;
    }

    /// Copies a saved image back to the bottom of the buffer and resumes in
    /// it at `ra`, on the frame `ra` returns into.
    pub(crate) fn restore(&mut self, image: &[S], ra: CodeAddr) -> ReturnAddress {
        self.load(image);
        self.fp = image.len() - self.code.displacement(ra);
        ReturnAddress::Code(ra)
    }

    /// Slides the first `width` slots of the live frame (clamped to the
    /// buffer) down to the base. Without a stack pointer the live frame's
    /// extent is unknown, so its callers pass a bound on it.
    pub(crate) fn slide(&mut self, width: usize) {
        let width = width.min(self.buf.len() - self.fp);
        for i in 0..width {
            self.buf[i] = self.buf[self.fp + i].clone();
        }
        self.metrics.slots_copied += width as u64;
        self.fp = 0;
    }

    /// Back to an empty stack whose base word is the exit routine.
    pub(crate) fn reset(&mut self) {
        self.fp = 0;
        self.buf[0] = S::from_return_address(ReturnAddress::Exit);
    }

    /// The stack's snapshot, given the records and slots of the chain
    /// beneath it.
    pub(crate) fn stats(&self, (chain_records, chain_slots): (usize, usize)) -> StackStats {
        StackStats {
            chain_records,
            chain_slots,
            current_used_slots: self.fp,
            current_free_slots: self.esp().saturating_sub(self.fp),
        }
    }
}

/// A stack image saved in the heap: the copy model's continuation (the
/// whole stack, no link) and the cache model's flushed block (linked to the
/// block below). The strategy's name tells the two apart.
#[derive(Debug)]
pub(crate) struct ImageKont<S: StackSlot> {
    pub(crate) image: Vec<S>,
    /// Where execution resumes, on the frame it returns into.
    pub(crate) ra: CodeAddr,
    pub(crate) link: Option<Continuation<S>>,
    strategy: &'static str,
}

impl<S: StackSlot> Drop for ImageKont<S> {
    fn drop(&mut self) {
        // Both the block chain and the saved images can hold long chains
        // of continuations; hand them to the deferred-drop queue.
        segstack_core::defer_slots(&mut self.image);
        if let Some(link) = self.link.take() {
            segstack_core::defer_drop(link.into_any());
        }
    }
}

impl<S: StackSlot> KontRepr<S> for ImageKont<S> {
    fn footprint(&self) -> (usize, usize) {
        (1, self.image.len())
    }

    fn link(&self) -> Option<Continuation<S>> {
        self.link.clone()
    }

    fn strategy(&self) -> &'static str {
        self.strategy
    }
}
