//! Heap-allocated activation records, shared by the heap, hybrid and
//! incremental models: their frames, their one continuation record type,
//! and what they do with them (clone a shared frame before running in it,
//! allocate a callee's frame, tail call, return and capture in a heap
//! frame, walk a heap-frame chain). Beneath the hybrid and incremental
//! models' flat stack lies such a chain: [`OverHeap`] is that machine,
//! which migrates stack frames into the heap.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use segstack_core::{
    CodeAddr, Config, Continuation, FrameSizeTable, KontRepr, Metrics, ReturnAddress, StackError,
    StackSlot,
};

use crate::flat::Flat;

/// Continuation representation of the heap-frame models: the caller's
/// frame chain plus the resume address, so capture and reinstatement are
/// O(1). The chain is shared with any number of captures. The strategy's
/// name tells the heap, hybrid and incremental models' records apart.
#[derive(Debug)]
pub struct FrameKont<S: StackSlot> {
    /// The head of the saved frame chain (the capturing frame's caller).
    pub frame: Rc<HeapFrame<S>>,
    /// Where execution resumes in `frame`.
    pub ra: CodeAddr,
    strategy: &'static str,
}

impl<S: StackSlot> FrameKont<S> {
    /// Captures the chain `frame`, to resume at `ra`, as a continuation of
    /// `strategy`.
    pub fn capture(
        strategy: &'static str,
        frame: Rc<HeapFrame<S>>,
        ra: CodeAddr,
        metrics: &mut Metrics,
    ) -> Continuation<S> {
        metrics.stack_records_allocated += 1;
        Continuation::from_repr(Rc::new(FrameKont { frame, ra, strategy }))
    }
}

impl<S: StackSlot> KontRepr<S> for FrameKont<S> {
    fn footprint(&self) -> (usize, usize) {
        self.frame.footprint()
    }

    fn link(&self) -> Option<Continuation<S>> {
        None
    }

    fn strategy(&self) -> &'static str {
        self.strategy
    }
}

/// A heap-allocated activation record (paper Figure 1).
///
/// Slot 0 holds the frame's return address, exactly as for stack frames;
/// the explicit `link` field is the dynamic link the paper's segmented
/// model avoids ("the frame pointer must be saved and restored on each
/// call, resulting in an extra memory write and read for each recursive
/// call", §2).
pub struct HeapFrame<S: StackSlot> {
    /// The caller's frame, or `None` for the initial frame.
    pub link: Option<Rc<HeapFrame<S>>>,
    /// Frame slots; index 0 is the return-address word.
    pub slots: RefCell<Vec<S>>,
}

impl<S: StackSlot> HeapFrame<S> {
    /// Allocates a frame with the given link and initial slots.
    pub fn new(link: Option<Rc<HeapFrame<S>>>, slots: Vec<S>) -> Rc<Self> {
        Rc::new(HeapFrame { link, slots: RefCell::new(slots) })
    }

    /// Reads slot `i`, yielding the empty slot for indices never written.
    pub fn get(&self, i: usize) -> S {
        self.slots.borrow().get(i).cloned().unwrap_or_else(S::empty)
    }

    /// Writes slot `i`, growing the frame as needed.
    pub fn set(&self, i: usize, v: S) {
        let mut slots = self.slots.borrow_mut();
        if i >= slots.len() {
            slots.resize_with(i + 1, S::empty);
        }
        slots[i] = v;
    }

    /// Makes `frame` privately owned before execution writes into it. "The
    /// frame cannot be reused or modified" once it is part of a captured
    /// continuation (§2): returning or re-entering into a frame some
    /// continuation still references clones it first, so the
    /// continuation's view stays frozen. The cost is bounded by the frame
    /// size, never by the stack depth.
    pub fn make_private(frame: &mut Rc<Self>, metrics: &mut Metrics) {
        if Rc::strong_count(frame) > 1 {
            let slots = frame.slots.borrow().clone();
            metrics.heap_frames_allocated += 1;
            metrics.heap_slots_allocated += slots.len() as u64;
            metrics.slots_copied += slots.len() as u64;
            *frame = HeapFrame::new(frame.link.clone(), slots);
        }
    }

    /// Allocates a callee's frame: slot 0 holds `ra` and the arguments are
    /// this frame's slots `src..src + nargs`. `link` is this frame for a
    /// call, and this frame's caller for a tail call.
    pub fn callee(
        &self,
        link: Option<Rc<Self>>,
        ra: S,
        src: usize,
        nargs: usize,
        metrics: &mut Metrics,
    ) -> Rc<Self> {
        let mut slots = Vec::with_capacity(1 + nargs);
        slots.push(ra);
        slots.extend((src..src + nargs).map(|i| self.get(i)));
        metrics.slots_copied += nargs as u64;
        metrics.heap_frames_allocated += 1;
        metrics.heap_slots_allocated += (1 + nargs) as u64;
        HeapFrame::new(link, slots)
    }

    /// A tail call from the running frame `frame`. Even a tail call
    /// allocates: the frame may be shared with a captured continuation
    /// (§2 — "the frame cannot be reused or modified").
    pub fn tail_call(frame: &mut Rc<Self>, src: usize, nargs: usize, metrics: &mut Metrics) {
        metrics.tail_calls += 1;
        *frame = frame.callee(frame.link.clone(), frame.get(0), src, nargs, metrics);
    }

    /// Returns from the running frame `frame`: its caller, made private,
    /// runs next. "The called procedure uses the link to restore the old
    /// frame pointer before returning" — the extra memory read of the heap
    /// model. The initial frame returns to the exit routine and stays.
    pub fn ret(frame: &mut Rc<Self>, metrics: &mut Metrics) -> ReturnAddress {
        metrics.returns += 1;
        let ra = frame.get(0).as_return_address().expect("frame slot 0 must hold a return address");
        if ra.is_code() {
            *frame = frame.link.clone().expect("a code return address implies a caller");
            Self::make_private(frame, metrics);
        }
        ra
    }

    /// Captures the continuation of the computation running in this frame:
    /// its caller chain, resuming at its return address (the exit
    /// continuation in the initial frame). O(1).
    pub fn capture(&self, strategy: &'static str, metrics: &mut Metrics) -> Continuation<S> {
        metrics.captures += 1;
        let ra = self.get(0).as_return_address().expect("frame slot 0 must hold a return address");
        let ReturnAddress::Code(ra) = ra else {
            return Continuation::exit();
        };
        let frame = self.link.clone().expect("a code return address implies a caller");
        FrameKont::capture(strategy, frame, ra, metrics)
    }

    /// The frames of the chain starting here, each followed by its caller.
    pub fn chain(&self) -> impl Iterator<Item = &HeapFrame<S>> {
        std::iter::successors(Some(self), |f| f.link.as_deref())
    }

    /// The return addresses down the chain from this frame: each frame's
    /// slot 0, up to the initial frame, whose slot 0 holds the exit routine.
    pub fn return_addresses(&self) -> impl Iterator<Item = CodeAddr> + '_ {
        self.chain().map_while(|f| f.slots.borrow().first()?.as_return_address()?.code())
    }

    /// The frames in the chain starting here and the slots they hold.
    pub fn footprint(&self) -> (usize, usize) {
        self.chain().fold((0, 0), |(n, slots), f| (n + 1, slots + f.slots.borrow().len()))
    }
}

impl<S: StackSlot> Drop for HeapFrame<S> {
    fn drop(&mut self) {
        // Dynamic-link chains are as long as the recursion was deep, and
        // frame slots may hold continuation values whose saved frames hold
        // further continuations; hand both to the deferred-drop queue.
        if let Some(link) = self.link.take() {
            segstack_core::defer_drop(link);
        }
        segstack_core::defer_slots(self.slots.get_mut());
    }
}

impl<S: StackSlot> fmt::Debug for HeapFrame<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapFrame")
            .field("slots", &self.slots.borrow().len())
            .field("linked", &self.link.is_some())
            .finish()
    }
}

/// A flat stack over a heap-frame chain: the hybrid and incremental
/// models' machine while they run on the stack. The base word either is
/// the exit routine or returns into `deep`, the chain beneath the stack's
/// bottom frame.
#[derive(Debug)]
pub(crate) struct OverHeap<S: StackSlot> {
    pub(crate) flat: Flat<S>,
    pub(crate) deep: Option<Rc<HeapFrame<S>>>,
}

impl<S: StackSlot> OverHeap<S> {
    pub(crate) fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Self {
        OverHeap { flat: Flat::new(cfg, code), deep: None }
    }

    /// Moves every stack frame below the live frame into the heap, on top
    /// of `deep`, then slides the first `width` slots of the live frame
    /// down to the stack base. The new head of `deep`, the live frame's
    /// caller, is also the result. The walker finds the frames; they are
    /// *moved*, never copied back, which is the one-copy-only property of
    /// the hybrid model (§6).
    pub(crate) fn migrate_below(&mut self, width: usize) -> Rc<HeapFrame<S>> {
        let flat = &mut self.flat;
        let frames: Vec<_> = flat.walk().collect();
        for f in frames.iter().rev() {
            flat.metrics.heap_frames_allocated += 1;
            flat.metrics.heap_slots_allocated += f.size() as u64;
            flat.metrics.slots_copied += f.size() as u64;
            self.deep = Some(HeapFrame::new(self.deep.take(), flat.buf[f.base..f.top].to_vec()));
        }
        flat.slide(width);
        self.deep.clone().expect("at least the base frame migrated")
    }

    /// A call from a stack frame. An overflow migrates everything below the
    /// live frame into the heap and slides the live frame, with the staged
    /// partial frame, down to the base.
    pub(crate) fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        self.flat.count_call(d, nargs)?;
        if self.flat.overflows(d, check) && self.flat.fp > 0 {
            self.migrate_below(d + 1 + nargs);
        }
        self.flat.push(d, ra);
        Ok(())
    }

    /// Captures from a stack frame: the frames below the live frame migrate
    /// into the heap, where they stay, and the continuation is the chain
    /// they head. Once they have, capture is O(1) until new stack frames
    /// accumulate.
    pub(crate) fn capture(&mut self, strategy: &'static str) -> Continuation<S> {
        self.flat.metrics.captures += 1;
        let Some(ra) = self.flat.live_ra() else {
            return Continuation::exit();
        };
        let frame = if self.flat.fp == 0 {
            self.deep.clone().expect("a stack base that returns into code implies a heap chain")
        } else {
            // The live frame's extent is unknown without a stack pointer;
            // one frame bound always covers it.
            self.migrate_below(self.flat.cfg.frame_bound())
        };
        FrameKont::capture(strategy, frame, ra, &mut self.flat.metrics)
    }

    pub(crate) fn reset(&mut self) {
        self.flat.reset();
        self.deep = None;
    }

    /// Walks the stack from the live frame down, then the heap chain its
    /// base word returns into.
    pub(crate) fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        let mut out = Vec::new();
        if let Some(ReturnAddress::Code(r)) = self.flat.walk().backtrace_into(&mut out, limit) {
            out.push(r);
            let room = limit - out.len();
            out.extend(self.deep.iter().flat_map(|h| h.return_addresses()).take(room));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_core::TestSlot;

    #[test]
    fn get_and_set_grow_on_demand() {
        let f = HeapFrame::<TestSlot>::new(None, Vec::new());
        assert_eq!(f.get(3), TestSlot::Empty);
        f.set(3, TestSlot::Int(7));
        assert_eq!(f.get(3), TestSlot::Int(7));
        assert_eq!(f.get(0), TestSlot::Empty);
        assert_eq!(f.slots.borrow().len(), 4);
    }

    #[test]
    fn chain_measurements() {
        let a = HeapFrame::<TestSlot>::new(None, vec![TestSlot::Empty; 2]);
        let b = HeapFrame::new(Some(a.clone()), vec![TestSlot::Empty; 3]);
        let c = HeapFrame::new(Some(b.clone()), vec![TestSlot::Empty; 5]);
        assert_eq!(c.footprint(), (3, 10));
        assert_eq!(a.footprint(), (1, 2));
    }
}
