//! Stack-segment storage and the segment allocator.
//!
//! A stack segment is a contiguous run of slots (paper §3, Figure 3). The
//! same underlying buffer may simultaneously hold several sealed
//! continuation segments (below) and the current segment (above): capturing
//! a continuation *splits* the segment in place without copying (Figure 5),
//! so sealed records keep shared references into the buffer.
//!
//! The allocator hands out buffers, optionally reuses retired ones, and can
//! enforce a hard memory cap for failure-injection tests.

use std::cell::RefCell;
use std::rc::Rc;

use crate::config::Config;
use crate::error::StackError;
use crate::metrics::Metrics;
use crate::slot::StackSlot;

/// A shared, interior-mutable stack-segment buffer.
///
/// Sealed continuations and the live stack may alias the same buffer at
/// disjoint index ranges, so shared ownership with dynamic borrow checking
/// is the natural safe-Rust representation of the paper's raw stack memory.
pub type Buffer<S> = Rc<RefCell<Box<[S]>>>;

/// Allocates a fresh buffer of `len` slots filled with `S::empty()`.
fn fresh_buffer<S: StackSlot>(len: usize) -> Buffer<S> {
    Rc::new(RefCell::new(
        std::iter::repeat_with(S::empty).take(len).collect::<Vec<_>>().into_boxed_slice(),
    ))
}

/// Empties every heap-owning slot of `buf[lo..hi]` (`hi` is clamped to the
/// buffer) and hands what they owned to the deferred-drop queue, which
/// drains only after the borrow ends. No slot write drops a value under a
/// borrow either, so the buffer is never borrowed when a record dies and
/// a dying record can release its region here at once.
pub(crate) fn release_slots<S: StackSlot>(buf: &Buffer<S>, lo: usize, hi: usize) {
    crate::drops::deferring(|| {
        let mut b = buf.borrow_mut();
        let hi = hi.min(b.len());
        crate::drops::defer_slots(b.get_mut(lo..hi).unwrap_or_default());
    });
}

/// Allocator for stack-segment buffers with a small reuse pool.
///
/// "Stack segments are allocated in large chunks to reduce the frequency of
/// stack overflows" (§4). Retired segments whose continuations have all been
/// dropped are pooled for reuse so steady-state overflow/underflow cycles do
/// not thrash the system allocator.
#[derive(Debug)]
pub struct SegmentAllocator<S: StackSlot> {
    default_len: usize,
    pool: Vec<Buffer<S>>,
    pool_cap: usize,
    budget: Option<usize>,
}

impl<S: StackSlot> SegmentAllocator<S> {
    /// Creates an allocator following `cfg`'s segment size, pool size and
    /// (optional) total-memory budget.
    pub fn new(cfg: &Config) -> Self {
        SegmentAllocator {
            default_len: cfg.segment_slots(),
            pool: Vec::new(),
            pool_cap: cfg.pool_segments(),
            budget: cfg.max_total_slots(),
        }
    }

    /// The default segment length, in slots.
    pub fn default_len(&self) -> usize {
        self.default_len
    }

    /// Allocates a buffer of at least `min_len` slots (at least the default
    /// segment size), reusing a pooled buffer when possible.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::OutOfStackMemory`] when a configured budget is
    /// exhausted (failure injection).
    pub fn alloc(
        &mut self,
        min_len: usize,
        metrics: &mut Metrics,
    ) -> Result<Buffer<S>, StackError> {
        let want = min_len.max(self.default_len);
        // Best fit: the smallest sufficient pooled buffer. First fit would
        // let a small request consume a huge buffer and force a fresh
        // allocation for the next big request.
        let best = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.borrow().len() >= want)
            .min_by_key(|(_, b)| b.borrow().len())
            .map(|(i, _)| i);
        if let Some(pos) = best {
            metrics.segments_reused += 1;
            return Ok(self.pool.swap_remove(pos));
        }
        if let Some(budget) = self.budget.as_mut() {
            if *budget < want {
                return Err(StackError::OutOfStackMemory { requested: want, available: *budget });
            }
            *budget -= want;
        }
        metrics.segments_allocated += 1;
        Ok(fresh_buffer(want))
    }

    /// Offers a retired buffer back to the pool. Only buffers with no other
    /// owners (no live continuations pointing into them) are retained.
    pub fn retire(&mut self, buf: Buffer<S>) {
        if Rc::strong_count(&buf) == 1 && self.pool.len() < self.pool_cap {
            self.pool.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Remaining allocation budget in slots, if a cap was configured.
    pub fn budget_remaining(&self) -> Option<usize> {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::TestSlot;

    fn cfg(segment: usize, pool: usize) -> Config {
        Config::builder()
            .segment_slots(segment)
            .frame_bound(16)
            .pool_segments(pool)
            .build()
            .unwrap()
    }

    #[test]
    fn alloc_honors_minimum_and_default() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 2));
        assert_eq!(a.default_len(), 64);
        let b = a.alloc(10, &mut m).unwrap();
        assert_eq!(b.borrow().len(), 64);
        let big = a.alloc(1000, &mut m).unwrap();
        assert_eq!(big.borrow().len(), 1000);
        assert_eq!(m.segments_allocated, 2);
    }

    #[test]
    fn fresh_buffers_are_empty_slots() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 2));
        let b = a.alloc(0, &mut m).unwrap();
        assert!(b.borrow().iter().all(|s| *s == TestSlot::Empty));
    }

    #[test]
    fn retire_and_reuse() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 2));
        let b = a.alloc(0, &mut m).unwrap();
        a.retire(b);
        assert_eq!(a.pooled(), 1);
        let _ = a.alloc(32, &mut m).unwrap();
        assert_eq!(a.pooled(), 0);
        assert_eq!(m.segments_reused, 1);
        assert_eq!(m.segments_allocated, 1);
    }

    #[test]
    fn alloc_picks_the_best_fitting_pooled_buffer() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 4));
        let big = a.alloc(1000, &mut m).unwrap();
        let small = a.alloc(0, &mut m).unwrap();
        a.retire(big); // pooled first, so first fit would hand it out
        a.retire(small);
        assert_eq!(a.pooled(), 2);
        assert_eq!(m.segments_allocated, 2);
        // A small request must take the 64-slot buffer, not the 1000-slot
        // one, leaving the big buffer available for the big request.
        let b1 = a.alloc(32, &mut m).unwrap();
        assert_eq!(b1.borrow().len(), 64, "best fit picks the smallest sufficient buffer");
        let b2 = a.alloc(1000, &mut m).unwrap();
        assert_eq!(b2.borrow().len(), 1000);
        assert_eq!(m.segments_reused, 2);
        assert_eq!(m.segments_allocated, 2, "no fresh allocation was needed");
    }

    #[test]
    fn retire_refuses_shared_buffers() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 2));
        let b = a.alloc(0, &mut m).unwrap();
        let alias = b.clone();
        a.retire(b);
        assert_eq!(a.pooled(), 0, "buffer still referenced by a continuation");
        drop(alias);
    }

    #[test]
    fn retire_respects_pool_cap() {
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg(64, 1));
        let b1 = a.alloc(0, &mut m).unwrap();
        let b2 = a.alloc(0, &mut m).unwrap();
        a.retire(b1);
        a.retire(b2);
        assert_eq!(a.pooled(), 1);
    }

    #[test]
    fn budget_exhaustion_errors() {
        let cfg = Config::builder()
            .segment_slots(64)
            .frame_bound(16)
            .max_total_slots(100)
            .build()
            .unwrap();
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg);
        let _b = a.alloc(0, &mut m).unwrap();
        assert_eq!(a.budget_remaining(), Some(36));
        let err = a.alloc(0, &mut m).unwrap_err();
        assert!(matches!(err, StackError::OutOfStackMemory { requested: 64, available: 36 }));
    }

    #[test]
    fn pool_reuse_does_not_consume_budget() {
        let cfg = Config::builder()
            .segment_slots(64)
            .frame_bound(16)
            .max_total_slots(64)
            .pool_segments(2)
            .build()
            .unwrap();
        let mut m = Metrics::new();
        let mut a = SegmentAllocator::<TestSlot>::new(&cfg);
        let b = a.alloc(0, &mut m).unwrap();
        a.retire(b);
        // Budget is spent, but the pooled buffer can be reused forever.
        let b = a.alloc(0, &mut m).unwrap();
        a.retire(b);
        let _ = a.alloc(0, &mut m).unwrap();
    }
}
