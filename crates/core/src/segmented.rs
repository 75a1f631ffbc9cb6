//! The paper's contribution: the segmented control stack (§3–§5).
//!
//! The control stack is a linked list of stack segments, each described by a
//! stack record (base, link, size, return address of the topmost frame).
//! Continuation capture splits the current segment in place — no copying
//! (Figure 5). Continuation reinstatement copies a *bounded* amount, first
//! splitting over-large saved segments at a frame boundary (Figures 6–7).
//! Stack overflow is an implicit capture; returning off the base of a
//! segment (underflow) is an implicit reinstatement (§5).

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use segstack_trace::{emit, EventKind, RingSink};

use crate::addr::{CodeAddr, FrameSizeTable, ReturnAddress};
use crate::config::Config;
use crate::error::StackError;
use crate::metrics::Metrics;
use crate::record::{Continuation, KontRepr};
use crate::segment::{drain_releases, release_later, release_slots, Buffer, SegmentAllocator};
use crate::slot::StackSlot;
use crate::traits::{ControlStack, StackStats};
use crate::walker::split_point;

/// Placeholder return address stored in size-zero ablation records; never
/// read (reinstatement skips through empty records before touching `ra`).
const EMPTY_RECORD_RA: CodeAddr = CodeAddr::new(u32::MAX, u32::MAX);

/// A sealed stack segment: the paper's stack record, in its continuation
/// role.
struct SealedSeg<S: StackSlot> {
    /// The (possibly shared) buffer this record points into.
    buf: Buffer<S>,
    /// Base of the sealed segment within `buf`.
    base: usize,
    /// Occupied size in slots.
    size: usize,
    /// Return address of the topmost frame (stored here because the word at
    /// the frame base was replaced by the underflow handler).
    ra: CodeAddr,
    /// The next stack record down, or `None` for the exit routine.
    link: Option<Continuation<S>>,
    /// Set when the relink fast path adopted this record's segment as the
    /// live stack. A consumed record must never be reinstated again (its
    /// slots are being overwritten by live execution); the unshared-handle
    /// precondition makes this unreachable, so the flag is a defensive
    /// poison checked by `reinstate` and `audit_invariants`.
    consumed: bool,
}

impl<S: StackSlot> fmt::Debug for SealedSeg<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SealedSeg")
            .field("base", &self.base)
            .field("size", &self.size)
            .field("ra", &self.ra)
            .field("linked", &self.link.is_some())
            .field("consumed", &self.consumed)
            .finish()
    }
}

/// Continuation representation of the segmented strategy.
///
/// Interior mutability is required because reinstating an over-large
/// continuation restructures it in place (splits it at a frame boundary);
/// the restructuring is semantically neutral, so sharing is safe.
#[derive(Debug)]
struct SegKont<S: StackSlot>(RefCell<SealedSeg<S>>);

impl<S: StackSlot> Drop for SegKont<S> {
    fn drop(&mut self) {
        // Record chains can be long (one record per overflow), and segment
        // buffers hold continuation values pointing at further buffers;
        // tear both down iteratively.
        let s = self.0.get_mut();
        if let Some(link) = s.link.take() {
            crate::drops::defer_drop(link);
        }
        if Rc::strong_count(&s.buf) > 1 {
            // The buffer outlives this record, so its region must not: the
            // dead values there may hold continuations whose records share
            // the buffer, a cycle no count would ever free. Nothing else
            // reads the region (sealed regions are disjoint), but the
            // buffer may be borrowed right now, so the release is queued.
            if s.size > 0 {
                release_later(s.buf.clone(), s.base, s.base + s.size);
            }
        } else if !s.consumed {
            // A consumed record already traded its buffer for an empty one.
            let empty: Buffer<S> = Rc::new(RefCell::new(Vec::new().into_boxed_slice()));
            crate::drops::defer_drop(std::mem::replace(&mut s.buf, empty));
        }
    }
}

impl<S: StackSlot> KontRepr<S> for SegKont<S> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn retained_slots(&self) -> usize {
        // Iterative: record chains grow one record per overflow, so a deep
        // recursion can leave hundreds of thousands of links — recursing
        // here would overflow the native stack this crate exists to avoid.
        let mut total = 0;
        let mut link = {
            let s = self.0.borrow();
            total += s.size;
            s.link.clone()
        };
        while let Some(k) = link {
            match k.repr().as_any().downcast_ref::<SegKont<S>>() {
                Some(sk) => {
                    let s = sk.0.borrow();
                    total += s.size;
                    link = s.link.clone();
                }
                None => {
                    total += k.retained_slots();
                    break;
                }
            }
        }
        total
    }

    fn chain_len(&self) -> usize {
        let mut n = 1;
        let mut link = self.0.borrow().link.clone();
        while let Some(k) = link {
            match k.repr().as_any().downcast_ref::<SegKont<S>>() {
                Some(sk) => {
                    n += 1;
                    link = sk.0.borrow().link.clone();
                }
                None => {
                    n += k.chain_len();
                    break;
                }
            }
        }
        n
    }

    fn strategy(&self) -> &'static str {
        "segmented"
    }
}

/// The segmented control stack of Hieb, Dybvig & Bruggeman (PLDI 1990).
///
/// * `call`/`ret` cost what a traditional stack costs: a frame-pointer
///   adjustment (§3), plus one register compare per checked call (Figure 8).
/// * [`capture`](ControlStack::capture) is O(1) and copies nothing.
/// * [`reinstate`](ControlStack::reinstate) copies at most
///   `max(copy_bound, frame_bound)` slots, splitting larger saved segments.
/// * Overflow allocates a new segment and seals the old one as a
///   continuation; underflow reinstates the link — so recursion depth is
///   unbounded and there is no overflow/underflow "bouncing" (§5).
///
/// # Examples
///
/// ```
/// use segstack_core::{Config, ControlStack, ReturnAddress, SegmentedStack, TestCode, TestSlot};
/// use std::rc::Rc;
///
/// let code = Rc::new(TestCode::new());
/// let mut stack = SegmentedStack::<TestSlot>::new(Config::default(), code.clone())?;
/// let ra = code.ret_point(4);
/// stack.set(5, TestSlot::Int(42)); // stage the argument at d + 1
/// stack.call(4, ra, 1, true)?;
/// assert_eq!(stack.get(1), TestSlot::Int(42)); // callee sees its argument
/// assert_eq!(stack.ret()?, ReturnAddress::Code(ra));
/// # Ok::<(), segstack_core::StackError>(())
/// ```
///
/// # Tracing
///
/// A machine built by [`SegmentedStack::with_sink`] with a ring records
/// observability events into it (capture/reinstate/relink/overflow/
/// underflow/split/segment allocation, with per-event cost payloads)
/// through [`segstack_trace::emit`]. Every event site is off the
/// call/return path: `call`, `get`, `set`, `tail_call` and a
/// code-address `ret` never test the sink, so a traced machine costs
/// what an untraced one does until an event fires.
pub struct SegmentedStack<S: StackSlot> {
    code: Rc<dyn FrameSizeTable>,
    cfg: Config,
    alloc: SegmentAllocator<S>,
    /// Buffer holding the current segment (possibly shared with sealed
    /// continuations below `base`).
    buf: Buffer<S>,
    /// Base of the current stack record within `buf`.
    base: usize,
    /// Exclusive end of the current segment within `buf`.
    end: usize,
    /// The frame pointer: base of the current frame. There is no stack
    /// pointer (§3).
    fp: usize,
    /// High-water mark: the highest frame pointer a checked call, a
    /// reinstatement or a relink has set since `buf` became live.
    /// Unchecked calls are leaf calls inside the Figure 8 reserve, so no
    /// slot at or above `hw + esp_reserve` was written in this stint, and
    /// releasing the dead span when the stack leaves `buf` stops there.
    hw: usize,
    /// Link field of the current stack record.
    link: Option<Continuation<S>>,
    metrics: Metrics,
    /// Trace-event destination; `None` when untraced.
    sink: Option<Rc<RefCell<RingSink>>>,
}

impl<S: StackSlot> SegmentedStack<S> {
    /// Creates a segmented stack with an initial segment of
    /// `cfg.segment_slots()` slots whose base holds the exit routine.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::OutOfStackMemory`] if a configured budget
    /// cannot cover the initial segment.
    pub fn new(cfg: Config, code: Rc<dyn FrameSizeTable>) -> Result<Self, StackError> {
        SegmentedStack::with_sink(cfg, code, None)
    }

    /// Like [`SegmentedStack::new`], recording trace events into `sink`
    /// when it is `Some`. The caller keeps its own handle to the ring to
    /// read or drain it.
    ///
    /// # Errors
    ///
    /// As for [`SegmentedStack::new`].
    pub fn with_sink(
        cfg: Config,
        code: Rc<dyn FrameSizeTable>,
        sink: Option<Rc<RefCell<RingSink>>>,
    ) -> Result<Self, StackError> {
        let mut metrics = Metrics::new();
        let mut alloc = SegmentAllocator::new(&cfg);
        let buf = alloc.alloc(cfg.segment_slots(), &mut metrics)?;
        let end = buf.borrow().len();
        buf.borrow_mut()[0] = S::from_return_address(ReturnAddress::Exit);
        Ok(SegmentedStack {
            code,
            cfg,
            alloc,
            buf,
            base: 0,
            end,
            fp: 0,
            hw: 0,
            link: None,
            metrics,
            sink,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The frame pointer (absolute index of the current frame base).
    pub fn fp(&self) -> usize {
        self.fp
    }

    /// Base of the current stack record.
    pub fn segment_base(&self) -> usize {
        self.base
    }

    /// The end-of-stack pointer: `esp` sits two frame bounds before the
    /// segment end (Figure 8), so the overflow check is a single compare
    /// that ignores frame sizes, and leaf frames need no check at all.
    pub fn esp(&self) -> usize {
        self.end - self.cfg.esp_reserve()
    }

    /// Segments currently pooled by the allocator (reuse diagnostics).
    pub fn pooled_segments(&self) -> usize {
        self.alloc.pooled()
    }

    /// Resumes at `fp` after a reinstatement or relink.
    fn resume_at(&mut self, fp: usize) {
        self.fp = fp;
        self.hw = self.hw.max(fp);
    }

    /// Releases the dead span `[lo, hw + esp_reserve)` of the live buffer
    /// before the stack leaves it or starts over in it, then runs the
    /// queued releases, so that buffer owner counts are exact again.
    /// Every record sharing the live buffer ends at or below `base`, so no
    /// record reads the span; the live frames in it are being abandoned.
    fn release_dead_span(&self, lo: usize) {
        release_slots(&self.buf, lo, self.hw + self.cfg.esp_reserve());
        drain_releases();
    }

    /// Overflow recovery: "If stack overflow can be detected while the
    /// system is in a known state, overflow can be treated as an implicit
    /// continuation capture" (§5). Seals everything through the caller's
    /// frame (including the staged partial frame boundary) and moves only
    /// the partial frame to a fresh segment.
    ///
    /// Kept out of line: inlined, its bulk would make every checked call
    /// save registers it only needs on the rare overflow.
    #[cold]
    #[inline(never)]
    fn overflow_call(&mut self, d: usize, ra: CodeAddr, nargs: usize) -> Result<(), StackError> {
        self.metrics.overflows += 1;
        let seal_top = self.fp + d;
        emit(&self.sink, EventKind::OverflowBegin, (seal_top - self.base) as u64, nargs as u64);
        let reused_before = self.metrics.segments_reused;
        let newbuf = self.alloc.alloc(self.cfg.segment_slots(), &mut self.metrics)?;
        emit(
            &self.sink,
            EventKind::SegmentAlloc,
            newbuf.borrow().len() as u64,
            (self.metrics.segments_reused > reused_before) as u64,
        );
        let sealed = SealedSeg {
            buf: self.buf.clone(),
            base: self.base,
            size: seal_top - self.base,
            ra,
            link: self.link.take(),
            consumed: false,
        };
        self.metrics.stack_records_allocated += 1;
        let k = Continuation::from_repr(Rc::new(SegKont(RefCell::new(sealed))));
        let newlen = newbuf.borrow().len();
        {
            let src = self.buf.borrow();
            let mut dst = newbuf.borrow_mut();
            dst[0] = S::from_return_address(ReturnAddress::Underflow);
            for j in 0..nargs {
                dst[1 + j] = src[seal_top + 1 + j].clone();
            }
        }
        self.metrics.slots_copied += nargs as u64;
        self.release_dead_span(seal_top);
        self.buf = newbuf;
        self.base = 0;
        self.end = newlen;
        self.fp = 0;
        self.hw = 0;
        self.link = Some(k);
        emit(&self.sink, EventKind::OverflowEnd, nargs as u64, newlen as u64);
        Ok(())
    }

    /// Splits an over-large saved segment before reinstatement (Figure 7).
    /// The bottom part becomes a new record spliced into the chain; the
    /// original record is narrowed to the top part. The only mutation to
    /// sealed stack words is writing the underflow handler at the split
    /// frame's base, which is semantically neutral.
    fn maybe_split(&mut self, kont: &SegKont<S>) {
        if kont.0.borrow().size <= self.cfg.copy_bound() {
            return;
        }
        let mut s = kont.0.borrow_mut();
        let top = s.base + s.size;
        let sp = {
            let buf = s.buf.borrow();
            split_point(&buf, s.base, top, s.ra, &*self.code, self.cfg.copy_bound())
        };
        let Some(sp) = sp else { return };
        let bottom_ra = s.buf.borrow()[sp]
            .as_return_address()
            .expect("split point must be a frame base")
            .code()
            .expect("a frame base above the segment base holds a code return address");
        let bottom = SealedSeg {
            buf: s.buf.clone(),
            base: s.base,
            size: sp - s.base,
            ra: bottom_ra,
            link: s.link.take(),
            consumed: false,
        };
        let deferred = bottom.size;
        s.buf.borrow_mut()[sp] = S::from_return_address(ReturnAddress::Underflow);
        s.base = sp;
        s.size = top - sp;
        s.link = Some(Continuation::from_repr(Rc::new(SegKont(RefCell::new(bottom)))));
        self.metrics.splits += 1;
        self.metrics.stack_records_allocated += 1;
        emit(&self.sink, EventKind::Split, deferred as u64, 0);
    }

    /// Zero-copy reinstatement: the relink fast path.
    ///
    /// When the caller holds the *only* handle to the target record
    /// (`Rc::strong_count == 1`) **and** that handle dies with the current
    /// reinstatement (the `owned` contract of
    /// [`reinstate_resolved`](Self::reinstate_resolved)), nothing can ever
    /// reinstate it again, so instead of copying its slots the machine may
    /// adopt the record's segment — and, transitively, its whole chain —
    /// as the current stack. `Rc` uniqueness plus handle ownership is the
    /// safe-Rust analogue of the paper's ownership argument: with no other
    /// reference to the stack record, no observer can distinguish
    /// relinking it in place from copying it out. One-shot continuations
    /// (`call/1cc`) and the underflow handler's link reach this state by
    /// construction; a borrowed multi-shot handle never qualifies, because
    /// the caller's binding *is* the one handle and survives the call.
    ///
    /// Two geometries qualify:
    ///
    /// * **same buffer** — the record seals the region immediately below
    ///   the current base (capture never copied it out), so the base is
    ///   simply lowered back over it;
    /// * **cross buffer** — every handle to the record's buffer is
    ///   accounted for by records inside the continuation's own chain, so
    ///   no foreign record can alias the region above the adopted segment.
    ///   The accounting walk is bounded; longer chains fall back to the
    ///   bounded copy.
    ///
    /// Returns `None` (and mutates nothing) when the fast path does not
    /// apply; the caller then takes the ordinary Figure 6–7 copy path.
    fn try_relink(&mut self, k: &Continuation<S>) -> Option<ReturnAddress> {
        /// Chain prefix inspected by the cross-buffer accounting walk.
        const RELINK_WALK_BUDGET: usize = 32;
        if k.repr_strong_count() != 1 {
            return None;
        }
        let head = k.repr().as_any().downcast_ref::<SegKont<S>>()?;
        let (head_buf, head_base, size, ra) = {
            let s = head.0.borrow();
            if s.consumed || s.size == 0 {
                return None;
            }
            (s.buf.clone(), s.base, s.size, s.ra)
        };
        let disp = self.code.displacement(ra);
        if disp == 0 || disp > size {
            return None;
        }
        let buf_len = head_buf.borrow().len();
        let top = head_base + size;
        if top > buf_len {
            return None;
        }
        let new_fp = top - disp;
        // The adopted state must satisfy the full Figure 8 reserve — two
        // frame bounds above the frame pointer: one for the resumed frame
        // and one for a leaf call it may make without a check.
        if new_fp + self.cfg.esp_reserve() > buf_len {
            return None;
        }
        let same_buffer = Rc::ptr_eq(&head_buf, &self.buf);
        if same_buffer {
            // Same-buffer: only a seal sitting flush under the current
            // base merges back by lowering the base over it.
            if top != self.base {
                return None;
            }
        } else {
            // Cross-buffer: tally chain-internal handles to the adopted
            // buffer (our `head_buf` clone is the one transient extra).
            let target = Rc::strong_count(&head_buf) - 1;
            let mut tally = 0usize;
            let mut accounted = false;
            let mut steps = 0usize;
            let mut cur = Some(k.clone());
            while let Some(c) = cur {
                steps += 1;
                if c.is_exit() || steps > RELINK_WALK_BUDGET {
                    break;
                }
                let Some(sk) = c.repr().as_any().downcast_ref::<SegKont<S>>() else {
                    break; // foreign record: its buffer use is opaque
                };
                let next = {
                    let s = sk.0.borrow();
                    if s.consumed {
                        break;
                    }
                    if Rc::ptr_eq(&s.buf, &head_buf) {
                        tally += 1;
                    }
                    s.link.clone()
                };
                if tally == target {
                    accounted = true;
                    break;
                }
                cur = next;
            }
            if !accounted {
                return None;
            }
        }
        // Commit: consume the record and adopt its segment as the live
        // stack. The record keeps existing until the caller's handle drops,
        // but it is poisoned (and releases its buffer handle) so a buggy
        // second reinstatement cannot read slots live execution now owns.
        let link = {
            let mut s = head.0.borrow_mut();
            s.consumed = true;
            s.size = 0;
            s.buf = Rc::new(RefCell::new(Vec::new().into_boxed_slice()));
            s.link.take()
        };
        if !same_buffer {
            self.release_dead_span(self.base);
            let old = std::mem::replace(&mut self.buf, head_buf);
            self.alloc.retire(old);
            self.hw = 0;
        }
        self.base = head_base;
        self.end = buf_len;
        self.resume_at(new_fp);
        self.link = link;
        self.metrics.reinstates_relinked += 1;
        self.metrics.slots_copy_avoided += size as u64;
        emit(&self.sink, EventKind::Relink, size as u64, same_buffer as u64);
        Some(ReturnAddress::Code(ra))
    }

    /// Reinstatement of an unwrapped (never one-shot-wrapped) continuation.
    ///
    /// `owned` declares that the caller's handle dies with this call — it
    /// is a one-shot inner just taken out of its wrapper, or the underflow
    /// handler's own link — which is what entitles the relink fast path to
    /// consume the record. A borrowed multi-shot handle may legally be
    /// reinstated again later *even when it is the only live handle* (the
    /// caller's binding is that one handle and survives the call), so it
    /// always takes the bounded-copy path.
    fn reinstate_resolved(
        &mut self,
        k: &Continuation<S>,
        owned: bool,
    ) -> Result<ReturnAddress, StackError> {
        // Unshared owned chain: relink instead of copying. The whole
        // switch is ~1µs of pointer swaps, so it gets exactly one packed
        // ring write (the `Relink` event inside `try_relink`) instead of a
        // Begin/Relink/End span — the span protocol below is reserved for
        // the copy path, whose End event carries the realized copy cost.
        if owned && !k.is_exit() {
            // Queued releases hold buffer handles; the relink's owner
            // count must not see them.
            drain_releases();
            if let Some(ra) = self.try_relink(k) {
                self.metrics.reinstatements += 1;
                return Ok(ra);
            }
        }
        if self.sink.is_none() {
            return self.reinstate_inner(k);
        }
        // Span-paired: the end event carries the realized cost (slots
        // copied) as a metric delta, so the Figure 6–7 copy bound becomes
        // a per-event assertion in the trace.
        let target_size = k
            .repr()
            .as_any()
            .downcast_ref::<SegKont<S>>()
            .map_or(0, |sk| sk.0.borrow().size as u64);
        emit(&self.sink, EventKind::ReinstateBegin, target_size, owned as u64);
        let copied_before = self.metrics.slots_copied;
        let result = self.reinstate_inner(k);
        emit(&self.sink, EventKind::ReinstateEnd, self.metrics.slots_copied - copied_before, 0);
        result
    }

    /// The copy path of [`reinstate_resolved`](Self::reinstate_resolved)
    /// (the relink fast path has already been tried and declined).
    fn reinstate_inner(&mut self, k: &Continuation<S>) -> Result<ReturnAddress, StackError> {
        self.metrics.reinstatements += 1;
        if k.is_exit() {
            self.buf.borrow_mut()[self.base] = S::from_return_address(ReturnAddress::Exit);
            self.resume_at(self.base);
            self.link = None;
            return Ok(ReturnAddress::Exit);
        }
        // Skip through empty ablation records (size 0) to the first real
        // segment — linear in the chain, which is the ablation's point.
        let mut resolved = k.clone();
        loop {
            let Some(sk) = resolved.repr().as_any().downcast_ref::<SegKont<S>>() else {
                return Err(StackError::ForeignContinuation { strategy: "segmented" });
            };
            let sealed = sk.0.borrow();
            if sealed.consumed {
                // A relink consumed this record; reinstating it again
                // would read slots live execution now owns.
                return Err(StackError::OneShotReused);
            }
            if sealed.size > 0 {
                break;
            }
            match &sealed.link {
                Some(inner) => {
                    let inner = inner.clone();
                    drop(sealed);
                    resolved = inner;
                    if resolved.is_exit() {
                        drop(resolved);
                        self.buf.borrow_mut()[self.base] =
                            S::from_return_address(ReturnAddress::Exit);
                        self.resume_at(self.base);
                        self.link = None;
                        return Ok(ReturnAddress::Exit);
                    }
                }
                None => {
                    drop(sealed);
                    self.buf.borrow_mut()[self.base] = S::from_return_address(ReturnAddress::Exit);
                    self.resume_at(self.base);
                    self.link = None;
                    return Ok(ReturnAddress::Exit);
                }
            }
        }
        let k = &resolved;
        let kont = k
            .repr()
            .as_any()
            .downcast_ref::<SegKont<S>>()
            .ok_or(StackError::ForeignContinuation { strategy: "segmented" })?;
        self.maybe_split(kont);
        let (src_buf, src_base, size, ra, klink) = {
            let s = kont.0.borrow();
            (s.buf.clone(), s.base, s.size, s.ra, s.link.clone())
        };
        if self.base + size + self.cfg.esp_reserve() > self.end {
            let reused_before = self.metrics.segments_reused;
            let newbuf = self.alloc.alloc(size + self.cfg.esp_reserve(), &mut self.metrics)?;
            let newlen = newbuf.borrow().len();
            emit(
                &self.sink,
                EventKind::SegmentAlloc,
                newlen as u64,
                (self.metrics.segments_reused > reused_before) as u64,
            );
            self.release_dead_span(self.base);
            let old = std::mem::replace(&mut self.buf, newbuf);
            self.alloc.retire(old);
            self.base = 0;
            self.end = newlen;
            self.hw = 0;
        }
        if Rc::ptr_eq(&src_buf, &self.buf) {
            // The saved segment lives below the current base in the very
            // same buffer (capture never copied it out); the regions are
            // disjoint by construction.
            debug_assert!(src_base + size <= self.base);
            let mut b = self.buf.borrow_mut();
            for i in 0..size {
                b[self.base + i] = b[src_base + i].clone();
            }
        } else {
            let srcb = src_buf.borrow();
            let mut b = self.buf.borrow_mut();
            for i in 0..size {
                b[self.base + i] = srcb[src_base + i].clone();
            }
        }
        self.metrics.slots_copied += size as u64;
        self.resume_at(self.base + size - self.code.displacement(ra));
        self.link = klink;
        Ok(ReturnAddress::Code(ra))
    }

    /// Audits the paper-level structural invariants of the whole machine
    /// state: pointer ordering, the overflow reserve (Figure 8 — at least
    /// one frame bound of the reserve survives even an unchecked call),
    /// frame well-formedness of the live region, agreement between the
    /// segment's base word and its link field, and well-formedness of every
    /// sealed record reachable through the link chain.
    ///
    /// It also checks what releasing the dead span relies on: the frame
    /// pointer sits at or below the high-water mark, and every chain
    /// record that shares the live buffer ends at or below `base`. An
    /// unchecked (leaf) call may run one frame above the mark, so the
    /// audit belongs between operations, not inside a leaf frame.
    ///
    /// Unlike the [`walker`](crate::walker) helpers this never panics on
    /// corrupt state; it returns a description of the first violation
    /// found. The fuzz harness calls it after every operation. The cost is
    /// linear in the total retained stack, so it is a debugging aid, not a
    /// production check.
    pub fn audit_invariants(&self) -> Result<(), String> {
        let bound = self.cfg.frame_bound();
        {
            let buf = self.buf.borrow();
            if !(self.base <= self.fp && self.fp <= self.end && self.end <= buf.len()) {
                return Err(format!(
                    "pointer order violated: base={} fp={} end={} buf={}",
                    self.base,
                    self.fp,
                    self.end,
                    buf.len()
                ));
            }
            // Relinking adopts foreign-length buffers, so the machine-wide
            // `end == buffer length` identity must be re-established there;
            // check it holds everywhere.
            if self.end != buf.len() {
                return Err(format!(
                    "segment end {} disagrees with buffer length {}",
                    self.end,
                    buf.len()
                ));
            }
            if self.fp + bound > self.end {
                return Err(format!(
                    "overflow reserve exhausted: fp={} + frame_bound={} > end={}",
                    self.fp, bound, self.end
                ));
            }
            if self.fp > self.hw {
                return Err(format!(
                    "frame pointer {} above the high-water mark {}",
                    self.fp, self.hw
                ));
            }
            audit_frames(&buf, self.base, self.fp, &*self.code, bound)
                .map_err(|e| format!("live segment: {e}"))?;
            audit_base_word(&buf, self.base, self.link.is_some(), self.cfg.tail_capture_rule())
                .map_err(|e| format!("live segment: {e}"))?;
        }
        let mut link = self.link.clone();
        let mut depth: usize = 0;
        while let Some(k) = link {
            depth += 1;
            let Some(sk) = k.repr().as_any().downcast_ref::<SegKont<S>>() else {
                return Err(format!(
                    "record {depth}: foreign strategy {} in the chain",
                    k.strategy()
                ));
            };
            let next = {
                let s = sk.0.borrow();
                if s.consumed {
                    return Err(format!(
                        "record {depth} was consumed by a relink but is still reachable"
                    ));
                }
                if Rc::ptr_eq(&s.buf, &self.buf) && s.base + s.size > self.base {
                    return Err(format!(
                        "record {depth} shares the live buffer but ends at {}, above the base {}",
                        s.base + s.size,
                        self.base
                    ));
                }
                let sbuf = s.buf.borrow();
                if s.base + s.size > sbuf.len() {
                    return Err(format!(
                        "record {depth} overruns its buffer: base={} size={} buf={}",
                        s.base,
                        s.size,
                        sbuf.len()
                    ));
                }
                if s.size == 0 {
                    if self.cfg.tail_capture_rule() {
                        return Err(format!(
                            "record {depth} is empty but the tail-capture rule is active"
                        ));
                    }
                } else {
                    let top = s.base + s.size;
                    let d = self.code.displacement(s.ra);
                    if d == 0 || d > bound {
                        return Err(format!(
                            "record {depth}: topmost displacement {d} outside bound {bound}"
                        ));
                    }
                    if d > s.size {
                        return Err(format!(
                            "record {depth}: topmost displacement {d} underruns size {}",
                            s.size
                        ));
                    }
                    audit_frames(&sbuf, s.base, top - d, &*self.code, bound)
                        .map_err(|e| format!("record {depth}: {e}"))?;
                    audit_base_word(&sbuf, s.base, s.link.is_some(), self.cfg.tail_capture_rule())
                        .map_err(|e| format!("record {depth}: {e}"))?;
                }
                s.link.clone()
            };
            link = next;
        }
        Ok(())
    }
}

/// Non-panicking frame walk from the frame base at `fp` down to `base`:
/// every boundary must hold a return address, code displacements must be
/// nonzero, within the frame bound, and must not underrun `base`, and the
/// underflow/exit word may appear only exactly at `base`.
fn audit_frames<S: StackSlot>(
    buf: &[S],
    base: usize,
    fp: usize,
    code: &dyn FrameSizeTable,
    bound: usize,
) -> Result<(), String> {
    let mut pos = fp;
    loop {
        match buf[pos].as_return_address() {
            Some(ReturnAddress::Code(r)) => {
                if pos == base {
                    return Err(format!("code return address {r} at the segment base {base}"));
                }
                let d = code.displacement(r);
                if d == 0 || d > bound {
                    return Err(format!("frame at {pos}: displacement {d} outside bound {bound}"));
                }
                if d > pos - base {
                    return Err(format!("frame at {pos}: displacement {d} underruns base {base}"));
                }
                pos -= d;
            }
            Some(ReturnAddress::Underflow | ReturnAddress::Exit) => {
                if pos != base {
                    return Err(format!("underflow/exit word above the base at {pos}"));
                }
                return Ok(());
            }
            None => return Err(format!("frame base at {pos} does not hold a return address")),
        }
    }
}

/// The base word and the link field must agree: an underflow handler means
/// a record is linked below; the exit routine means the chain ends (the
/// tail-capture ablation legitimately parks empty linked records above an
/// exit word, so that direction is only checked when the rule is active).
fn audit_base_word<S: StackSlot>(
    buf: &[S],
    base: usize,
    linked: bool,
    tail_rule: bool,
) -> Result<(), String> {
    match buf[base].as_return_address() {
        Some(ReturnAddress::Underflow) => {
            if !linked {
                return Err("underflow handler at the base with no linked record".into());
            }
            Ok(())
        }
        Some(ReturnAddress::Exit) => {
            if tail_rule && linked {
                return Err("exit routine at the base but a record is linked".into());
            }
            Ok(())
        }
        other => Err(format!("base holds {other:?}, not the underflow handler or exit")),
    }
}

impl<S: StackSlot> ControlStack<S> for SegmentedStack<S> {
    fn name(&self) -> &'static str {
        "segmented"
    }

    fn get(&self, i: usize) -> S {
        debug_assert!(self.fp + i < self.end, "slot read beyond segment end");
        self.buf.borrow()[self.fp + i].clone()
    }

    fn set(&mut self, i: usize, v: S) {
        debug_assert!(self.fp + i < self.end, "slot write beyond segment end");
        self.buf.borrow_mut()[self.fp + i] = v;
    }

    fn call(
        &mut self,
        d: usize,
        ra: CodeAddr,
        nargs: usize,
        check: bool,
    ) -> Result<(), StackError> {
        debug_assert!(d >= 1, "a caller frame occupies at least its return-address slot");
        self.metrics.calls += 1;
        let bound = self.cfg.frame_bound();
        if d > bound || 1 + nargs > bound {
            return Err(StackError::FrameTooLarge { requested: d.max(1 + nargs), bound });
        }
        let new_fp = self.fp + d;
        if check {
            self.metrics.checks_executed += 1;
            if new_fp > self.esp() {
                return self.overflow_call(d, ra, nargs);
            }
            self.hw = self.hw.max(new_fp);
        } else {
            self.metrics.checks_elided += 1;
            debug_assert!(
                new_fp + bound <= self.end,
                "unchecked call escaped the two-frame reserve"
            );
        }
        self.buf.borrow_mut()[new_fp] = S::from_return_address(ReturnAddress::Code(ra));
        self.fp = new_fp;
        Ok(())
    }

    fn tail_call(&mut self, src: usize, nargs: usize) {
        // An ascending copy with dst below src never reads a clobbered
        // slot, so src merely needs to sit at or above the target base.
        debug_assert!(src >= 1, "tail-call staging below the frame base");
        self.metrics.tail_calls += 1;
        let mut b = self.buf.borrow_mut();
        for j in 0..nargs {
            b[self.fp + 1 + j] = b[self.fp + src + j].clone();
        }
    }

    fn ret(&mut self) -> Result<ReturnAddress, StackError> {
        self.metrics.returns += 1;
        let ra = self.buf.borrow()[self.fp]
            .as_return_address()
            .expect("frame base must hold a return address");
        match ra {
            ReturnAddress::Code(r) => {
                self.fp -= self.code.displacement(r);
                Ok(ra)
            }
            ReturnAddress::Underflow => {
                debug_assert_eq!(self.fp, self.base, "underflow handler off the segment base");
                self.metrics.underflows += 1;
                let k = self.link.take().expect("underflow with no linked continuation");
                if self.sink.is_some() {
                    let size = k
                        .repr()
                        .as_any()
                        .downcast_ref::<SegKont<S>>()
                        .map_or(0, |sk| sk.0.borrow().size as u64);
                    emit(&self.sink, EventKind::Underflow, size, 0);
                }
                // The taken link is owned: it dies at the end of this arm,
                // so the relink fast path may consume the record.
                let result = self.reinstate_resolved(&k, true);
                // An underflow consumes its record; if this was the last
                // reference to the record's buffer, salvage it for reuse.
                // The clone is taken only *after* reinstating so it cannot
                // defeat the relink fast path's buffer accounting, and a
                // relinked record needs no salvage: its buffer *became*
                // the live segment.
                let salvage = k.repr().as_any().downcast_ref::<SegKont<S>>().and_then(|sk| {
                    let s = sk.0.borrow();
                    if s.consumed {
                        None
                    } else {
                        Some(s.buf.clone())
                    }
                });
                drop(k);
                if let Some(buf) = salvage {
                    // A record that just died queued the release of its
                    // region, which holds a buffer handle; run it so
                    // `retire` sees the buffer's true owners.
                    drain_releases();
                    if !Rc::ptr_eq(&buf, &self.buf) {
                        self.alloc.retire(buf); // pooled only if unshared
                    }
                }
                result
            }
            ReturnAddress::Exit => Ok(ra),
        }
    }

    fn capture(&mut self) -> Continuation<S> {
        self.metrics.captures += 1;
        if self.fp == self.base {
            if self.cfg.tail_capture_rule() {
                // Empty current segment: "no changes are made to the current
                // stack record and the link field of the current stack record
                // serves as the new continuation" (§4). This is what keeps
                // `(define (looper) (call/cc (lambda (k) (looper))))` in
                // constant space.
                emit(&self.sink, EventKind::Capture, 0, 1);
                return self.link.clone().unwrap_or_else(Continuation::exit);
            }
            // Ablation: the naive behaviour the paper warns against — chain
            // a fresh empty record on every capture. "The control stack
            // would grow progressively longer and the program would
            // eventually run out of memory" (§4).
            let sealed = SealedSeg {
                buf: self.buf.clone(),
                base: self.base,
                size: 0,
                ra: EMPTY_RECORD_RA,
                link: self.link.take(),
                consumed: false,
            };
            self.metrics.stack_records_allocated += 1;
            let k = Continuation::from_repr(Rc::new(SegKont(RefCell::new(sealed))));
            self.link = Some(k.clone());
            emit(&self.sink, EventKind::Capture, 0, 0);
            return k;
        }
        let live_ra = self.buf.borrow()[self.fp]
            .as_return_address()
            .expect("frame base must hold a return address")
            .code()
            .expect("a live frame above the segment base has a code return address");
        let sealed = SealedSeg {
            buf: self.buf.clone(),
            base: self.base,
            size: self.fp - self.base,
            ra: live_ra,
            link: self.link.take(),
            consumed: false,
        };
        self.metrics.stack_records_allocated += 1;
        let k = Continuation::from_repr(Rc::new(SegKont(RefCell::new(sealed))));
        self.buf.borrow_mut()[self.fp] = S::from_return_address(ReturnAddress::Underflow);
        emit(&self.sink, EventKind::Capture, (self.fp - self.base) as u64, 0);
        self.base = self.fp;
        self.link = Some(k.clone());
        k
    }

    fn reinstate(&mut self, k: &Continuation<S>) -> Result<ReturnAddress, StackError> {
        // `call/1cc`: take the inner continuation out of a one-shot
        // wrapper. A spent wrapper errors before any state changes. The
        // taken inner is *owned*: by the one-shot contract a second
        // reinstatement must fail anyway, so the record may be consumed.
        let taken;
        let (k, owned) = match k.unwrap_one_shot() {
            None => (k, false),
            Some(Err(e)) => return Err(e),
            Some(Ok(inner)) => {
                taken = inner;
                (&taken, true)
            }
        };
        self.reinstate_resolved(k, owned)
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
            current_used_slots: self.fp - self.base,
            current_free_slots: self.esp().saturating_sub(self.fp),
        }
    }

    fn backtrace(&self, limit: usize) -> Vec<CodeAddr> {
        let mut out = Vec::new();
        let mut buf = self.buf.clone();
        let mut pos = self.fp;
        let mut link = self.link.clone();
        loop {
            let ra = buf.borrow()[pos].as_return_address().expect("frame base holds an address");
            match ra {
                ReturnAddress::Code(r) => {
                    out.push(r);
                    if out.len() >= limit {
                        return out;
                    }
                    pos -= self.code.displacement(r);
                }
                ReturnAddress::Underflow => {
                    // Continue the walk inside the linked sealed segment.
                    let Some(k) = link.take() else { return out };
                    let Some(sk) = k.repr().as_any().downcast_ref::<SegKont<S>>() else {
                        return out;
                    };
                    let sealed = sk.0.borrow();
                    if sealed.size == 0 {
                        // Empty ablation record: nothing to walk, follow on.
                        let next = sealed.link.clone();
                        drop(sealed);
                        link = next;
                        continue;
                    }
                    out.push(sealed.ra);
                    if out.len() >= limit {
                        return out;
                    }
                    pos = sealed.base + sealed.size - self.code.displacement(sealed.ra);
                    buf = sealed.buf.clone();
                    link = sealed.link.clone();
                }
                ReturnAddress::Exit => return out,
            }
        }
    }

    fn reset(&mut self) {
        self.link = None;
        self.release_dead_span(self.base);
        if Rc::strong_count(&self.buf) > 1 || self.buf.borrow().len() < self.cfg.segment_slots() {
            let fresh = self
                .alloc
                .alloc(self.cfg.segment_slots(), &mut self.metrics)
                .expect("segment budget exhausted during reset");
            let old = std::mem::replace(&mut self.buf, fresh);
            self.alloc.retire(old);
        }
        self.end = self.buf.borrow().len();
        self.base = 0;
        self.fp = 0;
        self.hw = 0;
        self.buf.borrow_mut()[0] = S::from_return_address(ReturnAddress::Exit);
    }

    fn trace_summaries(&self) -> Vec<(EventKind, segstack_trace::HistSummary)> {
        self.sink.as_ref().map_or_else(Vec::new, |ring| ring.borrow().summaries())
    }
}

impl<S: StackSlot> Drop for SegmentedStack<S> {
    fn drop(&mut self) {
        // The live frames die with the machine; if sealed records keep the
        // buffer alive, the values in those frames must not keep the
        // records alive in turn.
        self.link = None;
        self.release_dead_span(self.base);
    }
}

impl<S: StackSlot> fmt::Debug for SegmentedStack<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentedStack")
            .field("base", &self.base)
            .field("fp", &self.fp)
            .field("end", &self.end)
            .field("linked", &self.link.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::TestCode;
    use crate::slot::TestSlot;

    fn small_cfg() -> Config {
        Config::builder().segment_slots(256).frame_bound(16).copy_bound(32).build().unwrap()
    }

    fn setup(cfg: Config) -> (Rc<TestCode>, SegmentedStack<TestSlot>) {
        let code = Rc::new(TestCode::new());
        let stack = SegmentedStack::new(cfg, code.clone() as Rc<dyn FrameSizeTable>).unwrap();
        (code, stack)
    }

    /// Stages one argument and calls with displacement `d`.
    fn call1(
        stack: &mut SegmentedStack<TestSlot>,
        code: &TestCode,
        d: usize,
        arg: i64,
        check: bool,
    ) -> CodeAddr {
        let ra = code.ret_point(d);
        stack.set(d + 1, TestSlot::Int(arg));
        stack.call(d, ra, 1, check).unwrap();
        ra
    }

    #[test]
    fn call_and_return_round_trip() {
        let (code, mut stack) = setup(small_cfg());
        let ra = call1(&mut stack, &code, 4, 7, true);
        assert_eq!(stack.fp(), 4);
        assert_eq!(stack.get(0), TestSlot::Ra(ReturnAddress::Code(ra)));
        assert_eq!(stack.get(1), TestSlot::Int(7));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra));
        assert_eq!(stack.fp(), 0);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let (code, mut stack) = setup(small_cfg());
        let ra1 = call1(&mut stack, &code, 3, 1, true);
        let ra2 = call1(&mut stack, &code, 5, 2, true);
        let ra3 = call1(&mut stack, &code, 2, 3, true);
        assert_eq!(stack.fp(), 10);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra3));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra2));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra1));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
        assert_eq!(stack.metrics().calls, 3);
        assert_eq!(stack.metrics().returns, 4);
    }

    #[test]
    fn tail_call_shuffles_arguments_in_place() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 7, true);
        let fp_before = stack.fp();
        stack.set(5, TestSlot::Int(100));
        stack.set(6, TestSlot::Int(200));
        stack.tail_call(5, 2);
        assert_eq!(stack.fp(), fp_before, "tail call reuses the frame");
        assert_eq!(stack.get(1), TestSlot::Int(100));
        assert_eq!(stack.get(2), TestSlot::Int(200));
        assert_eq!(stack.metrics().tail_calls, 1);
    }

    #[test]
    fn capture_is_o1_and_copies_nothing() {
        let (code, mut stack) = setup(small_cfg());
        for i in 0..10 {
            call1(&mut stack, &code, 4, i, true);
        }
        let copied_before = stack.metrics().slots_copied;
        let k = stack.capture();
        assert_eq!(stack.metrics().slots_copied, copied_before, "capture copies nothing");
        assert_eq!(k.chain_len(), 1);
        assert_eq!(k.retained_slots(), 40);
        // The live frame's return address was replaced by the underflow
        // handler and the current record now starts at fp.
        assert_eq!(stack.segment_base(), stack.fp());
        assert_eq!(stack.get(0), TestSlot::Ra(ReturnAddress::Underflow));
    }

    #[test]
    fn capture_then_return_underflows_into_continuation() {
        let (code, mut stack) = setup(small_cfg());
        let ra1 = call1(&mut stack, &code, 4, 1, true);
        let ra2 = call1(&mut stack, &code, 4, 2, true);
        let _k = stack.capture();
        // Returning from the live frame goes through the underflow handler
        // and reinstates the sealed segment, resuming at ra2.
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra2));
        assert_eq!(stack.metrics().underflows, 1);
        assert_eq!(stack.metrics().reinstatements, 1);
        // And the reinstated copy unwinds normally from there.
        assert_eq!(stack.get(1), TestSlot::Int(1), "caller frame contents restored");
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra1));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn reinstate_restores_control_multiple_times() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        let ra2 = call1(&mut stack, &code, 4, 2, true);
        let k = stack.capture();
        for round in 0..3 {
            let resumed = stack.reinstate(&k).unwrap();
            assert_eq!(resumed, ReturnAddress::Code(ra2), "round {round}");
            assert_eq!(stack.get(1), TestSlot::Int(1));
        }
        assert_eq!(stack.metrics().reinstatements, 3);
    }

    #[test]
    fn capture_on_empty_segment_returns_link_tail_rule() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        let k1 = stack.capture();
        // fp == base now; a second capture must reuse the link, not grow
        // the chain (the `looper` rule, §4).
        let k2 = stack.capture();
        assert!(k1.ptr_eq(&k2));
        assert_eq!(stack.stats().chain_records, 1);
    }

    #[test]
    fn capture_at_toplevel_returns_exit() {
        let (_code, mut stack) = setup(small_cfg());
        let k = stack.capture();
        assert!(k.is_exit());
    }

    #[test]
    fn reinstate_exit_continuation_halts() {
        let (code, mut stack) = setup(small_cfg());
        let k = Continuation::exit();
        call1(&mut stack, &code, 4, 1, true);
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Exit);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn overflow_allocates_new_segment_and_seals_old() {
        let (code, mut stack) = setup(small_cfg());
        // segment 256, reserve 32 -> esp = 224; frames of 8 slots.
        let mut depth = 0;
        while stack.metrics().overflows == 0 {
            call1(&mut stack, &code, 8, depth, true);
            depth += 1;
            assert!(depth < 100, "overflow never triggered");
        }
        assert_eq!(stack.metrics().segments_allocated, 2);
        assert_eq!(stack.fp(), 0, "execution continued at the new segment base");
        assert_eq!(stack.get(0), TestSlot::Ra(ReturnAddress::Underflow));
        assert_eq!(stack.get(1), TestSlot::Int(depth - 1), "partial frame moved");
        assert_eq!(stack.stats().chain_records, 1);
    }

    #[test]
    fn deep_recursion_unwinds_across_segments() {
        let (code, mut stack) = setup(small_cfg());
        let mut ras = Vec::new();
        for i in 0..500 {
            ras.push(call1(&mut stack, &code, 8, i, true));
        }
        assert!(stack.metrics().overflows > 10);
        for (i, ra) in ras.into_iter().enumerate().rev() {
            assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra), "return {i}");
            if i > 0 {
                assert_eq!(
                    stack.get(1),
                    TestSlot::Int(i as i64 - 1),
                    "caller arg after return {i}"
                );
            }
        }
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
        // Every overflow's seal is unwound through at least one underflow;
        // splitting of large seals can add more.
        assert!(stack.metrics().underflows >= stack.metrics().overflows);
    }

    #[test]
    fn underflow_reinstate_is_bounded_by_copy_bound() {
        let cfg =
            Config::builder().segment_slots(4096).frame_bound(16).copy_bound(32).build().unwrap();
        let (code, mut stack) = setup(cfg);
        for i in 0..100 {
            call1(&mut stack, &code, 8, i, true);
        }
        let k = stack.capture();
        assert_eq!(k.retained_slots(), 800);
        let before = stack.metrics().slots_copied;
        stack.reinstate(&k).unwrap();
        let copied = stack.metrics().slots_copied - before;
        assert!(copied <= 32, "reinstate copied {copied} slots, bound is 32");
        assert_eq!(stack.metrics().splits, 1);
    }

    #[test]
    fn split_preserves_full_unwind() {
        let cfg =
            Config::builder().segment_slots(4096).frame_bound(16).copy_bound(24).build().unwrap();
        let (code, mut stack) = setup(cfg);
        let mut ras = Vec::new();
        for i in 0..50 {
            ras.push(call1(&mut stack, &code, 8, i, true));
        }
        let k = stack.capture();
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[49]));
        // We resumed at call 50's return point with the frame pointer on
        // frame 48; unwinding yields ras[48]..ras[0] and then the exit.
        for i in (0..49).rev() {
            assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[i]), "return {i}");
        }
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
        assert!(stack.metrics().splits >= 1);
    }

    #[test]
    fn multiple_reinstatements_after_split_are_consistent() {
        let cfg =
            Config::builder().segment_slots(4096).frame_bound(16).copy_bound(24).build().unwrap();
        let (code, mut stack) = setup(cfg);
        for i in 0..50 {
            call1(&mut stack, &code, 8, i, true);
        }
        let k = stack.capture();
        let first = stack.reinstate(&k).unwrap();
        // Unwind fully to exit.
        loop {
            if stack.ret().unwrap() == ReturnAddress::Exit {
                break;
            }
        }
        // Reinstate the same continuation again; it must resume identically
        // even though it was split in place by the first reinstatement.
        let second = stack.reinstate(&k).unwrap();
        assert_eq!(first, second);
        // The frame pointer sits on frame 48, the topmost *sealed* frame
        // (the frame live at capture time is not part of the continuation).
        assert_eq!(stack.get(1), TestSlot::Int(48));
        loop {
            if stack.ret().unwrap() == ReturnAddress::Exit {
                break;
            }
        }
    }

    #[test]
    fn reinstate_foreign_continuation_errors() {
        #[derive(Debug)]
        struct Foreign;
        impl KontRepr<TestSlot> for Foreign {
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn retained_slots(&self) -> usize {
                0
            }
            fn chain_len(&self) -> usize {
                0
            }
            fn strategy(&self) -> &'static str {
                "foreign"
            }
        }
        let (_code, mut stack) = setup(small_cfg());
        let k = Continuation::from_repr(Rc::new(Foreign));
        assert_eq!(
            stack.reinstate(&k).unwrap_err(),
            StackError::ForeignContinuation { strategy: "segmented" }
        );
    }

    #[test]
    fn frame_bound_is_enforced() {
        let (code, mut stack) = setup(small_cfg());
        let ra = code.ret_point(17);
        let err = stack.call(17, ra, 0, true).unwrap_err();
        assert!(matches!(err, StackError::FrameTooLarge { requested: 17, bound: 16 }));
        let ra = code.ret_point(4);
        let err = stack.call(4, ra, 16, true).unwrap_err();
        assert!(matches!(err, StackError::FrameTooLarge { .. }));
    }

    #[test]
    fn budget_exhaustion_surfaces_from_overflow() {
        let cfg = Config::builder()
            .segment_slots(128)
            .frame_bound(16)
            .copy_bound(32)
            .max_total_slots(128)
            .pool_segments(0)
            .build()
            .unwrap();
        let (code, mut stack) = setup(cfg);
        let mut result = Ok(());
        for i in 0..100 {
            let ra = code.ret_point(8);
            stack.set(9, TestSlot::Int(i));
            result = stack.call(8, ra, 1, true);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(StackError::OutOfStackMemory { .. })));
    }

    #[test]
    fn unchecked_calls_skip_the_compare() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        call1(&mut stack, &code, 4, 2, false);
        assert_eq!(stack.metrics().checks_executed, 1);
        assert_eq!(stack.metrics().checks_elided, 1);
    }

    #[test]
    fn reset_clears_state_for_reuse() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        let _k = stack.capture();
        stack.reset();
        assert_eq!(stack.fp(), 0);
        assert_eq!(stack.segment_base(), 0);
        assert_eq!(stack.stats().chain_records, 0);
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn stats_reflect_usage() {
        let (code, mut stack) = setup(small_cfg());
        assert_eq!(stack.stats().current_used_slots, 0);
        call1(&mut stack, &code, 4, 1, true);
        call1(&mut stack, &code, 4, 2, true);
        let st = stack.stats();
        assert_eq!(st.current_used_slots, 8);
        assert_eq!(st.current_free_slots, 256 - 32 - 8);
        let _k = stack.capture();
        let st = stack.stats();
        assert_eq!(st.chain_records, 1);
        assert_eq!(st.chain_slots, 8);
        assert_eq!(st.current_used_slots, 0);
    }

    #[test]
    fn audit_passes_through_overflow_capture_and_reinstate() {
        let (code, mut stack) = setup(small_cfg());
        stack.audit_invariants().unwrap();
        let mut konts = Vec::new();
        for i in 0..120 {
            call1(&mut stack, &code, 8, i, true);
            stack.audit_invariants().unwrap();
            if i % 17 == 0 {
                konts.push(stack.capture());
                stack.audit_invariants().unwrap();
            }
        }
        for k in &konts {
            stack.reinstate(k).unwrap();
            stack.audit_invariants().unwrap();
        }
        while stack.ret().unwrap() != ReturnAddress::Exit {
            stack.audit_invariants().unwrap();
        }
        stack.audit_invariants().unwrap();
    }

    #[test]
    fn audit_flags_a_clobbered_frame_base() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        call1(&mut stack, &code, 4, 2, true);
        // Smash the caller's return-address word with data.
        stack.set(0, TestSlot::Int(99));
        let err = stack.audit_invariants().unwrap_err();
        assert!(err.contains("does not hold a return address"), "{err}");
    }

    #[test]
    fn audit_flags_a_forged_underflow_word() {
        let (code, mut stack) = setup(small_cfg());
        call1(&mut stack, &code, 4, 1, true);
        call1(&mut stack, &code, 4, 2, true);
        // An underflow handler strictly above the base is corruption.
        stack.set(0, TestSlot::Ra(ReturnAddress::Underflow));
        let err = stack.audit_invariants().unwrap_err();
        assert!(err.contains("underflow"), "{err}");
    }

    #[test]
    fn dropped_capture_underflows_by_relink_in_same_buffer() {
        let (code, mut stack) = setup(small_cfg());
        let ra1 = call1(&mut stack, &code, 4, 1, true);
        let ra2 = call1(&mut stack, &code, 4, 2, true);
        // Capture and immediately drop the handle: only the machine's link
        // still references the record, so the underflow may consume it.
        drop(stack.capture());
        let copied = stack.metrics().slots_copied;
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra2));
        assert_eq!(stack.metrics().slots_copied, copied, "relink copies nothing");
        assert_eq!(stack.metrics().reinstates_relinked, 1);
        assert_eq!(stack.metrics().slots_copy_avoided, 8);
        stack.audit_invariants().unwrap();
        assert_eq!(stack.get(1), TestSlot::Int(1), "caller frame contents intact");
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ra1));
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
    }

    #[test]
    fn underflow_after_overflow_relinks_without_copying() {
        let (code, mut stack) = setup(small_cfg());
        while stack.metrics().overflows == 0 {
            call1(&mut stack, &code, 8, 7, true);
        }
        // The overflow moved the partial frame; from here the unwind back
        // into the sealed segment must not copy at all.
        let copied = stack.metrics().slots_copied;
        while stack.metrics().underflows == 0 {
            stack.ret().unwrap();
        }
        assert_eq!(stack.metrics().slots_copied, copied, "underflow relinked, no copy");
        assert_eq!(stack.metrics().reinstates_relinked, 1);
        assert!(stack.metrics().slots_copy_avoided > 0);
        stack.audit_invariants().unwrap();
        while stack.ret().unwrap() != ReturnAddress::Exit {}
    }

    #[test]
    fn one_shot_reinstate_relinks_across_buffers() {
        let (code, mut stack) = setup(small_cfg());
        let mut ras = Vec::new();
        for i in 0..10 {
            ras.push(call1(&mut stack, &code, 4, i, true));
        }
        let k = stack.capture_one_shot();
        assert!(k.is_one_shot());
        assert_eq!(k.retained_slots(), 40);
        // Reset drops the machine's handle on the inner record; only the
        // wrapper remains, so the reinstatement may adopt the old buffer.
        stack.reset();
        let copied = stack.metrics().slots_copied;
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[9]));
        assert_eq!(stack.metrics().slots_copied, copied, "relink copies nothing");
        assert_eq!(stack.metrics().reinstates_relinked, 1);
        assert_eq!(stack.metrics().slots_copy_avoided, 40);
        stack.audit_invariants().unwrap();
        assert_eq!(stack.get(1), TestSlot::Int(8), "resumed on the topmost sealed frame");
        // The adopted chain unwinds exactly like a copied one would.
        for i in (0..9).rev() {
            assert_eq!(stack.ret().unwrap(), ReturnAddress::Code(ras[i]), "return {i}");
        }
        assert_eq!(stack.ret().unwrap(), ReturnAddress::Exit);
        // The shot is spent: reinstating again is an error, not corruption.
        assert_eq!(stack.reinstate(&k).unwrap_err(), StackError::OneShotReused);
        assert!(k.one_shot_consumed());
    }

    #[test]
    fn one_shot_with_live_link_falls_back_to_copy() {
        let (code, mut stack) = setup(small_cfg());
        let mut ras = Vec::new();
        for i in 0..5 {
            ras.push(call1(&mut stack, &code, 4, i, true));
        }
        let k = stack.capture_one_shot();
        // The machine's own link still references the inner record, so the
        // fast path must decline; the copy path still consumes the shot.
        let copied = stack.metrics().slots_copied;
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[4]));
        assert!(stack.metrics().slots_copied > copied, "shared inner must copy");
        assert_eq!(stack.metrics().reinstates_relinked, 0);
        stack.audit_invariants().unwrap();
        assert_eq!(stack.reinstate(&k).unwrap_err(), StackError::OneShotReused);
    }

    #[test]
    fn one_shot_of_exit_continuation_reinstates_once() {
        let (_code, mut stack) = setup(small_cfg());
        let k = stack.capture_one_shot();
        assert!(k.is_one_shot());
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Exit);
        assert_eq!(stack.reinstate(&k).unwrap_err(), StackError::OneShotReused);
    }

    #[test]
    fn relink_preserves_chained_multi_shot_records_below() {
        let (code, mut stack) = setup(small_cfg());
        for i in 0..4 {
            call1(&mut stack, &code, 4, i, true);
        }
        let pinned = stack.capture(); // multi-shot record below, user-held
        let mut ras = Vec::new();
        for i in 0..4 {
            ras.push(call1(&mut stack, &code, 4, 10 + i, true));
        }
        let k = stack.capture_one_shot();
        stack.reset();
        assert_eq!(stack.reinstate(&k).unwrap(), ReturnAddress::Code(ras[3]));
        stack.audit_invariants().unwrap();
        // Unwind through the relinked region and straight through the
        // pinned record's region; both must be intact.
        while stack.ret().unwrap() != ReturnAddress::Exit {}
        // The pinned multi-shot continuation still reinstates by copying.
        let before = stack.metrics().slots_copied;
        stack.reinstate(&pinned).unwrap();
        assert!(stack.metrics().slots_copied > before);
        assert_eq!(stack.get(1), TestSlot::Int(2));
        stack.audit_invariants().unwrap();
    }

    #[test]
    fn segments_are_pooled_after_reinstatement_replacement() {
        let cfg = Config::builder()
            .segment_slots(128)
            .frame_bound(16)
            .copy_bound(64)
            .pool_segments(2)
            .build()
            .unwrap();
        let (code, mut stack) = setup(cfg);
        // Force a couple of overflows, then unwind everything so old
        // buffers become unshared and poolable on subsequent replacement.
        for i in 0..40 {
            call1(&mut stack, &code, 8, i, true);
        }
        while stack.ret().unwrap() != ReturnAddress::Exit {}
        assert!(stack.metrics().overflows >= 1);
        // Unwinding through underflow reinstated old segments; ensure the
        // system is still consistent and reusable.
        call1(&mut stack, &code, 8, 5, true);
        assert_eq!(stack.get(1), TestSlot::Int(5));
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::addr::TestCode;
    use crate::sim;
    use crate::slot::TestSlot;

    /// The §4 rule ablated: every tail-position capture chains an empty
    /// record, so the looper grows without bound — exactly the failure the
    /// paper describes.
    #[test]
    fn without_the_tail_rule_the_looper_chain_grows() {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder()
            .segment_slots(512)
            .frame_bound(16)
            .disable_tail_capture_rule()
            .build()
            .unwrap();
        let mut stack = SegmentedStack::<TestSlot>::new(cfg, code.clone()).unwrap();
        let grown = sim::looper_workload(&mut stack, &code, 500, 4);
        assert!(grown >= 500, "chain stayed at {grown}; ablation should grow it");
        // The machine still works: returning unwinds through all the empty
        // records to the real segment and out to the exit.
        assert_eq!(sim::unwind_all(&mut stack), 2);
    }

    #[test]
    fn ablated_continuations_still_reinstate_correctly() {
        let code = Rc::new(TestCode::new());
        let cfg = Config::builder()
            .segment_slots(512)
            .frame_bound(16)
            .disable_tail_capture_rule()
            .build()
            .unwrap();
        let mut stack = SegmentedStack::<TestSlot>::new(cfg, code.clone()).unwrap();
        let ras = sim::push_frames(&mut stack, &code, 5, 4);
        let k1 = stack.capture();
        let k2 = stack.capture(); // empty-segment capture: chains a record
        assert!(!k1.ptr_eq(&k2), "ablation mints a fresh record");
        assert_eq!(stack.reinstate(&k2).unwrap(), ReturnAddress::Code(ras[4]));
        assert_eq!(sim::unwind_all(&mut stack), 5);
        assert_eq!(stack.reinstate(&k1).unwrap(), ReturnAddress::Code(ras[4]));
        assert_eq!(sim::unwind_all(&mut stack), 5);
    }
}

#[cfg(test)]
mod release_tests {
    //! The buffer-retention rule: a buffer keeps a heap value only where a
    //! live frame or a live record can read it. `Probe` is heap data whose
    //! death the tests observe through a `Weak`.

    use std::rc::Weak;

    use super::*;
    use crate::addr::TestCode;

    // The payloads are owned, never read: owning is what is under test.
    #[allow(dead_code)]
    #[derive(Clone, Debug)]
    enum KSlot {
        Empty,
        Ra(ReturnAddress),
        K(Continuation<KSlot>),
        Probe(Rc<()>),
    }

    impl StackSlot for KSlot {
        fn from_return_address(ra: ReturnAddress) -> Self {
            KSlot::Ra(ra)
        }

        fn as_return_address(&self) -> Option<ReturnAddress> {
            match self {
                KSlot::Ra(ra) => Some(*ra),
                _ => None,
            }
        }

        fn empty() -> Self {
            KSlot::Empty
        }

        fn holds_heap(&self) -> bool {
            matches!(self, KSlot::K(_) | KSlot::Probe(_))
        }
    }

    fn setup() -> (Rc<TestCode>, SegmentedStack<KSlot>) {
        let cfg = Config::builder().segment_slots(256).frame_bound(16).copy_bound(32).build();
        let code = Rc::new(TestCode::new());
        (code.clone(), SegmentedStack::new(cfg.unwrap(), code).unwrap())
    }

    fn call(stack: &mut SegmentedStack<KSlot>, code: &TestCode, d: usize) -> CodeAddr {
        let ra = code.ret_point(d);
        stack.call(d, ra, 0, true).unwrap();
        ra
    }

    fn probe() -> (KSlot, Weak<()>) {
        let rc = Rc::new(());
        let weak = Rc::downgrade(&rc);
        (KSlot::Probe(rc), weak)
    }

    #[test]
    fn reset_releases_a_continuation_stored_in_a_dead_frame() {
        let (code, mut stack) = setup();
        call(&mut stack, &code, 4);
        call(&mut stack, &code, 4);
        // The live frame stores its own continuation: the frame reads it,
        // and its record shares the frame's buffer.
        let k = stack.capture();
        let (p, alive) = probe();
        stack.set(1, KSlot::K(k));
        stack.set(2, p);
        stack.reset();
        assert!(alive.upgrade().is_none(), "the dead frame's values were released");
        stack.audit_invariants().unwrap();
    }

    #[test]
    fn a_record_dying_inside_a_slot_write_releases_its_region_later() {
        let (code, mut stack) = setup();
        let ra0 = call(&mut stack, &code, 4);
        let k0 = stack.capture();
        let (p, alive) = probe();
        stack.set(1, p);
        call(&mut stack, &code, 4);
        // k1's region holds the probe. Reinstating k0 leaves k1's record
        // out of the machine's chain: only `k1` holds it.
        let k1 = stack.capture();
        stack.reinstate(&k0).unwrap();
        stack.set(3, KSlot::K(k1));
        // Overwriting the last handle drops the record while the buffer is
        // borrowed for the write; the release must wait, not panic.
        stack.set(3, KSlot::Empty);
        assert!(alive.upgrade().is_some(), "the release waits for a cold path");
        stack.reset();
        assert!(alive.upgrade().is_none(), "the dead record's region was released");
        assert_eq!(stack.reinstate(&k0).unwrap(), ReturnAddress::Code(ra0));
        stack.audit_invariants().unwrap();
    }

    #[test]
    fn overflow_releases_the_staging_it_leaves() {
        let (code, mut stack) = setup();
        while stack.fp() + 8 <= stack.esp() {
            call(&mut stack, &code, 8);
        }
        // Above the seal and beyond the staged arguments: dead once the
        // overflowing call moves to a fresh segment.
        let (p, alive) = probe();
        stack.set(8 + 5, p);
        call(&mut stack, &code, 8);
        assert_eq!(stack.metrics().overflows, 1);
        assert!(alive.upgrade().is_none(), "staging above the seal was released");
        stack.audit_invariants().unwrap();
    }

    #[test]
    fn records_in_the_live_buffer_survive_every_release() {
        let (code, mut stack) = setup();
        let (p, alive) = probe();
        stack.set(1, p);
        call(&mut stack, &code, 4);
        let k = stack.capture();
        stack.reset();
        for _ in 0..3 {
            stack.reinstate(&k).unwrap();
            assert!(matches!(stack.get(1), KSlot::Probe(_)), "the record's region is intact");
            stack.reset();
        }
        assert!(alive.upgrade().is_some());
        drop(k);
        stack.reset();
        assert!(alive.upgrade().is_none());
    }

    #[test]
    fn dropping_the_machine_releases_its_live_frames() {
        let (code, mut stack) = setup();
        call(&mut stack, &code, 4);
        let k = stack.capture();
        let (p, alive) = probe();
        stack.set(1, KSlot::K(k));
        stack.set(2, p);
        drop(stack);
        assert!(alive.upgrade().is_none(), "the live frames died with the machine");
    }

    #[test]
    fn audit_flags_a_frame_pointer_above_the_high_water_mark() {
        let (code, mut stack) = setup();
        call(&mut stack, &code, 4);
        stack.hw = 0;
        let err = stack.audit_invariants().unwrap_err();
        assert!(err.contains("high-water mark"), "{err}");
    }
}
