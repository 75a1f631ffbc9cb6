//! Stack walking via code-stream frame-size words (paper §3, Figure 4).
//!
//! "The return address field of a continuation stack record points to an
//! instruction in the code stream, which is preceded by a data word
//! containing the frame size. This frame size is used to find the base of
//! the top frame, where its return address is stored. This return address is
//! used to find the frame size of the next frame down, ..." — Figure 4.
//!
//! This is the one routine that walks frames by their frame-size words. It
//! underlies continuation splitting (Figure 7), every strategy's
//! [`backtrace`](crate::ControlStack::backtrace) and the hybrid and
//! incremental models' migration of stack frames into the heap, and it is
//! exactly the mechanism exception handlers and debuggers would use. A walk
//! reads the buffer in place and copies nothing.

use crate::addr::{CodeAddr, FrameSizeTable, ReturnAddress};
use crate::slot::StackSlot;

/// One frame discovered by a stack walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkedFrame {
    /// Absolute index of the frame base within the buffer (the slot holding
    /// the frame's return address — or the segment base word for the frame
    /// at a segment base).
    pub base: usize,
    /// Absolute index one past the frame's extent: the base of the frame
    /// above, or the segment's occupied top for the topmost frame.
    pub top: usize,
    /// The return address whose frame-size word gave this frame's extent:
    /// the one stored at `top` (or in the stack record, for a record's
    /// topmost frame). It points into this frame's code.
    pub ra: CodeAddr,
}

impl WalkedFrame {
    /// The frame's extent in slots.
    pub fn size(&self) -> usize {
        self.top - self.base
    }
}

/// Iterator walking a stack segment from its topmost frame down to its base.
///
/// Created by [`walk`] or [`walk_live`]. Yields [`WalkedFrame`]s top-down
/// and stops at the first frame whose base is the segment base. After
/// exhaustion, [`FrameWalker::base_word`] is the word found there: the
/// underflow handler or exit routine of a well-formed segment, or, on the
/// hybrid and incremental stacks, a code address into the heap-frame chain
/// beneath the stack.
#[derive(Debug)]
pub struct FrameWalker<'a, S, T: ?Sized> {
    buf: &'a [S],
    base: usize,
    top: usize,
    ra: Option<CodeAddr>,
    code: &'a T,
    end: Option<ReturnAddress>,
}

/// Starts a walk over the occupied segment `buf[base..top]` whose topmost
/// frame has return address `top_ra` (the stack record's return-address
/// field).
///
/// # Examples
///
/// See the unit tests below and [`crate::SegmentedStack`]'s splitting logic.
pub fn walk<'a, S: StackSlot, T: FrameSizeTable + ?Sized>(
    buf: &'a [S],
    base: usize,
    top: usize,
    top_ra: CodeAddr,
    code: &'a T,
) -> FrameWalker<'a, S, T> {
    FrameWalker { buf, base, top, ra: Some(top_ra), code, end: None }
}

/// Starts a walk at the live frame pointer `fp` of the segment based at
/// `base`. The live frame's own extent is unknown (there is no stack
/// pointer), so the walk yields the frames below it, beginning with the
/// caller whose return address the live frame's base slot holds.
pub fn walk_live<'a, S: StackSlot, T: FrameSizeTable + ?Sized>(
    buf: &'a [S],
    base: usize,
    fp: usize,
    code: &'a T,
) -> FrameWalker<'a, S, T> {
    let mut w = FrameWalker { buf, base, top: fp, ra: None, code, end: None };
    w.ra = w.read(fp);
    w
}

impl<S: StackSlot, T: FrameSizeTable + ?Sized> FrameWalker<'_, S, T> {
    /// Reads the word at frame base `at`: the return address of the next
    /// frame down, or `None` once the walk has reached the segment base
    /// (recording the word found there).
    fn read(&mut self, at: usize) -> Option<CodeAddr> {
        let word = self.buf[at]
            .as_return_address()
            .unwrap_or_else(|| panic!("frame base slot at {at} does not hold a return address"));
        match word {
            ReturnAddress::Code(next) if at > self.base => Some(next),
            _ => {
                if at == self.base {
                    self.end = Some(word);
                }
                None
            }
        }
    }

    /// Pushes the return address of each remaining frame onto `out` until
    /// it holds `limit` addresses. Returns the segment base word when the
    /// walk reached it with room left in `out`, so the caller can go on
    /// into the next record or heap frame.
    pub fn backtrace_into(
        mut self,
        out: &mut Vec<CodeAddr>,
        limit: usize,
    ) -> Option<ReturnAddress> {
        while out.len() < limit {
            let Some(frame) = self.next() else { return self.end };
            out.push(frame.ra);
        }
        None
    }
}

impl<S: StackSlot, T: FrameSizeTable + ?Sized> Iterator for FrameWalker<'_, S, T> {
    type Item = WalkedFrame;

    fn next(&mut self) -> Option<WalkedFrame> {
        let ra = self.ra?;
        let d = self.code.displacement(ra);
        assert!(
            d <= self.top - self.base,
            "stack walk underran the segment base: displacement {d} at {ra} with only {} slots",
            self.top - self.base
        );
        let frame = WalkedFrame { base: self.top - d, top: self.top, ra };
        self.top = frame.base;
        self.ra = self.read(frame.base);
        Some(frame)
    }
}

impl<S, T: ?Sized> FrameWalker<'_, S, T> {
    /// After the iterator is exhausted: the word at the segment base, if
    /// the walk ended exactly there. `None` before exhaustion, and for a
    /// malformed segment whose underflow or exit word sits above its base.
    pub fn base_word(&self) -> Option<ReturnAddress> {
        self.end
    }
}

/// Collects the frames of the occupied segment `buf[base..top]`, top-down,
/// asserting the walk ends on the segment base.
pub fn frames<S: StackSlot, T: FrameSizeTable + ?Sized>(
    buf: &[S],
    base: usize,
    top: usize,
    top_ra: CodeAddr,
    code: &T,
) -> Vec<WalkedFrame> {
    let mut w = walk(buf, base, top, top_ra, code);
    let out: Vec<_> = w.by_ref().collect();
    assert!(w.base_word().is_some(), "segment walk did not terminate at the segment base");
    out
}

/// Finds the split point for reinstating an over-large segment (Figure 7).
///
/// Returns the absolute index `s`, strictly between `base` and `top`, such
/// that the suffix `[s, top)` is the largest run of whole frames not
/// exceeding `bound` slots — "it is more efficient to split off as much as
/// possible without exceeding the bound" (§4). If even the single topmost
/// frame exceeds the bound, its base is returned anyway ("it would be
/// sufficient to split off a single frame"); the frame bound, not the copy
/// bound, then governs the worst case. Returns `None` when the segment
/// holds a single frame (nothing to split).
pub fn split_point<S: StackSlot, T: FrameSizeTable + ?Sized>(
    buf: &[S],
    base: usize,
    top: usize,
    top_ra: CodeAddr,
    code: &T,
    bound: usize,
) -> Option<usize> {
    let mut chosen: Option<usize> = None;
    for frame in walk(buf, base, top, top_ra, code) {
        let suffix = top - frame.base;
        if chosen.is_none() || suffix <= bound {
            chosen = Some(frame.base);
        }
        if suffix >= bound {
            break;
        }
    }
    chosen.filter(|&s| s > base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::TestCode;
    use crate::slot::TestSlot;

    /// Builds a synthetic occupied segment of `sizes.len()` frames (bottom
    /// to top) with the given displacements, returning (buffer, top, top_ra).
    fn build(code: &TestCode, sizes: &[usize]) -> (Vec<TestSlot>, usize, CodeAddr) {
        let total: usize = sizes.iter().sum();
        let mut buf = vec![TestSlot::Empty; total + 8];
        let mut fbase = 0;
        buf[0] = TestSlot::Ra(ReturnAddress::Exit);
        let mut prev_ra: Option<CodeAddr> = None;
        for &d in sizes {
            // The frame at `fbase` has size d; its caller stored its return
            // address at fbase, and the next frame starts at fbase + d.
            if let Some(ra) = prev_ra {
                buf[fbase] = TestSlot::Ra(ReturnAddress::Code(ra));
            }
            let ra = code.ret_point(d);
            prev_ra = Some(ra);
            fbase += d;
        }
        (buf, fbase, prev_ra.unwrap())
    }

    #[test]
    fn walks_a_three_frame_segment() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[4, 6, 3]);
        let fs = frames(&buf, 0, top, ra, &code);
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], WalkedFrame { base: 10, top: 13, ra });
        assert_eq!(fs[0].size(), 3);
        assert_eq!(fs[1].base, 4);
        assert_eq!(fs[1].size(), 6);
        assert_eq!(fs[2].base, 0);
        assert_eq!(fs[2].size(), 4);
    }

    #[test]
    fn walks_a_single_frame_segment() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[5]);
        let fs = frames(&buf, 0, top, ra, &code);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0], WalkedFrame { base: 0, top: 5, ra });
    }

    #[test]
    fn base_word_is_none_before_exhaustion() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[4, 6]);
        let mut w = walk(buf.as_slice(), 0, top, ra, &code);
        assert_eq!(w.base_word(), None);
        w.next();
        assert_eq!(w.base_word(), None);
        w.next();
        assert_eq!(w.base_word(), Some(ReturnAddress::Exit));
        assert!(w.next().is_none());
    }

    #[test]
    fn walk_live_starts_at_the_frame_pointer() {
        let code = TestCode::new();
        let (mut buf, top, ra) = build(&code, &[4, 6, 3]);
        // A live frame at `top`: its base slot holds the return address
        // into the topmost built frame, exactly as a call leaves it.
        buf[top] = TestSlot::Ra(ReturnAddress::Code(ra));
        let fs: Vec<_> = walk_live(buf.as_slice(), 0, top, &code).collect();
        assert_eq!(fs, frames(&buf, 0, top, ra, &code));
        // A live frame at the base has no frame below it.
        let mut w = walk_live(buf.as_slice(), 0, 0, &code);
        assert!(w.next().is_none());
        assert_eq!(w.base_word(), Some(ReturnAddress::Exit));
    }

    #[test]
    fn walk_stops_at_a_code_address_at_the_base() {
        let code = TestCode::new();
        let (mut buf, top, ra) = build(&code, &[4, 6, 3]);
        // As on the hybrid and incremental stacks: the base word returns
        // into a heap-frame chain beneath the stack.
        let into_heap = code.ret_point(5);
        buf[0] = TestSlot::Ra(ReturnAddress::Code(into_heap));
        let mut w = walk(buf.as_slice(), 0, top, ra, &code);
        assert_eq!(w.by_ref().map(|f| f.base).collect::<Vec<_>>(), [10, 4, 0]);
        assert_eq!(w.base_word(), Some(ReturnAddress::Code(into_heap)));
        // A backtrace takes the frames' addresses, then hands back the
        // base word with room left for the heap chain...
        let mut out = Vec::new();
        let at_base = walk(buf.as_slice(), 0, top, ra, &code).backtrace_into(&mut out, 4);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], ra);
        assert_eq!(at_base, Some(ReturnAddress::Code(into_heap)));
        // ...but not once `limit` addresses are taken.
        let mut out = Vec::new();
        assert_eq!(walk(buf.as_slice(), 0, top, ra, &code).backtrace_into(&mut out, 3), None);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn walk_respects_nonzero_base() {
        let code = TestCode::new();
        let (mut buf, top, ra) = build(&code, &[4, 6, 3]);
        // Shift the segment up by 5 slots to a nonzero base.
        let shift = 5;
        let mut shifted = vec![TestSlot::Empty; buf.len() + shift];
        for (i, s) in buf.drain(..).enumerate() {
            shifted[i + shift] = s;
        }
        shifted[shift] = TestSlot::Ra(ReturnAddress::Underflow);
        let fs = frames(&shifted, shift, top + shift, ra, &code);
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[2].base, shift);
    }

    #[test]
    fn split_point_takes_largest_suffix_within_bound() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[4, 6, 3, 2]);
        // Suffix sizes from the top: 2, 5, 11, 15.
        assert_eq!(split_point(&buf, 0, top, ra, &code, 5), Some(top - 5));
        assert_eq!(split_point(&buf, 0, top, ra, &code, 10), Some(top - 5));
        assert_eq!(split_point(&buf, 0, top, ra, &code, 11), Some(top - 11));
        assert_eq!(split_point(&buf, 0, top, ra, &code, 2), Some(top - 2));
    }

    #[test]
    fn split_point_with_oversized_top_frame_returns_its_base() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[4, 9]);
        // The top frame (9 slots) exceeds the bound (3); split it off alone.
        assert_eq!(split_point(&buf, 0, top, ra, &code, 3), Some(top - 9));
    }

    #[test]
    fn split_point_on_single_frame_is_none() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[7]);
        assert_eq!(split_point(&buf, 0, top, ra, &code, 3), None);
    }

    #[test]
    fn split_point_never_returns_the_base() {
        let code = TestCode::new();
        let (buf, top, ra) = build(&code, &[4, 6]);
        // Bound large enough for both frames: the only candidate below the
        // bound is the segment base itself, which is not a valid split.
        assert_eq!(split_point(&buf, 0, top, ra, &code, 100), None);
    }

    #[test]
    #[should_panic(expected = "does not hold a return address")]
    fn walk_panics_on_corrupt_frame_base() {
        let code = TestCode::new();
        let (mut buf, top, ra) = build(&code, &[4, 6]);
        buf[4] = TestSlot::Int(42);
        frames(&buf, 0, top, ra, &code);
    }

    #[test]
    #[should_panic(expected = "underran")]
    fn walk_panics_when_displacement_exceeds_segment() {
        let code = TestCode::new();
        let ra = code.ret_point(50);
        let buf = vec![TestSlot::Empty; 10];
        frames(&buf, 0, 10, ra, &code);
    }
}
