//! Heap-allocated activation records, shared by the heap, hybrid and
//! incremental models, and the walks those models share: down a heap-frame
//! chain, and over a stack whose base word returns into one.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use segstack_core::{walker, CodeAddr, FrameSizeTable, Metrics, ReturnAddress, StackSlot};

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

    /// The frames of the chain starting here, each followed by its caller.
    pub fn chain(&self) -> impl Iterator<Item = &HeapFrame<S>> {
        std::iter::successors(Some(self), |f| f.link.as_deref())
    }

    /// The return addresses down the chain from this frame: each frame's
    /// slot 0, up to the initial frame, whose slot 0 holds the exit routine.
    pub fn return_addresses(&self) -> impl Iterator<Item = CodeAddr> + '_ {
        self.chain().map_while(|f| f.slots.borrow().first()?.as_return_address()?.code())
    }

    /// Number of frames in the chain starting here.
    pub fn chain_len(&self) -> usize {
        self.chain().count()
    }

    /// Total slots held by the chain starting here.
    pub fn chain_slots(&self) -> usize {
        self.chain().map(|f| f.slots.borrow().len()).sum()
    }
}

/// Backtrace of a stack (based at 0, live frame at `fp`) whose base word
/// either is the exit routine or returns into the heap-frame chain `deep`,
/// as on the hybrid and incremental stacks.
pub fn stack_backtrace<S: StackSlot>(
    buf: &[S],
    fp: usize,
    code: &dyn FrameSizeTable,
    deep: Option<&HeapFrame<S>>,
    limit: usize,
) -> Vec<CodeAddr> {
    let mut out = Vec::new();
    if let Some(ReturnAddress::Code(r)) =
        walker::walk_live(buf, 0, fp, code).backtrace_into(&mut out, limit)
    {
        out.push(r);
        let room = limit - out.len();
        out.extend(deep.into_iter().flat_map(HeapFrame::return_addresses).take(room));
    }
    out
}

/// Moves every stack frame below the live frame at `fp` into the heap, on
/// top of the chain `deep`, and makes the new head (the live frame's
/// caller) the chain `deep` and the result. The walker finds the frames;
/// they are *moved*, never copied back, which is the one-copy-only property
/// of the hybrid model (§6).
pub fn migrate_below<S: StackSlot>(
    buf: &[S],
    fp: usize,
    code: &dyn FrameSizeTable,
    deep: &mut Option<Rc<HeapFrame<S>>>,
    metrics: &mut Metrics,
) -> Rc<HeapFrame<S>> {
    let frames: Vec<_> = walker::walk_live(buf, 0, fp, code).collect();
    for f in frames.iter().rev() {
        metrics.heap_frames_allocated += 1;
        metrics.heap_slots_allocated += f.size() as u64;
        metrics.slots_copied += f.size() as u64;
        *deep = Some(HeapFrame::new(deep.take(), buf[f.base..f.top].to_vec()));
    }
    deep.clone().expect("at least the base frame migrated")
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
        assert_eq!(c.chain_len(), 3);
        assert_eq!(c.chain_slots(), 10);
        assert_eq!(a.chain_len(), 1);
    }
}
