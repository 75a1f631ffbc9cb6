//! The vector-of-frames reference oracle.
//!
//! One flat `Vec` of slots, a frame pointer, and — the part no real
//! strategy needs — a per-frame *definitely-written* bitmask. The oracle
//! executes the same trace as the strategies and predicts every observable:
//! return addresses, backtraces, and slot reads. A slot read is only
//! compared when the oracle knows the slot was written by the current
//! activation; otherwise the strategies legitimately disagree among
//! themselves (flat buffers return stale words, heap frames return
//! `Empty`, the hybrid's overflow migration drops caller slots above the
//! staged region), so the oracle reports a wildcard.
//!
//! Capture clones the live prefix; reinstatement writes it back. That is
//! the semantics all six strategies must agree on — the paper's segmented
//! machine merely implements it without the copying.

use std::rc::Rc;

use segstack_core::{CodeAddr, FrameSizeTable, ReturnAddress, TestCode, TestSlot};

use crate::driver::Obs;
use crate::trace::Op;

/// A saved oracle continuation: the stack prefix below the live frame, the
/// validity masks of those frames, and the return address to resume at.
#[derive(Clone)]
enum SavedKont {
    /// Captured at the stack bottom: reinstating empties the stack.
    Exit,
    /// Captured at depth: `image` is `stack[0..fp]`, `resume` the live
    /// frame's return address, `valid` the masks of the saved frames.
    Deep { image: Vec<TestSlot>, valid: Vec<u128>, resume: CodeAddr },
}

/// A ring entry: the saved continuation plus its one-shot bookkeeping.
/// Every strategy consumes a one-shot exactly on a successful explicit
/// reinstatement through the continuation object — returning through the
/// capture point normally does not consume the shot — so the oracle can
/// predict the [`Obs::OneShotReuse`] error with two booleans.
#[derive(Clone)]
struct SavedEntry {
    kont: SavedKont,
    one_shot: bool,
    consumed: bool,
}

/// The reference machine. Observationally equivalent to every
/// [`ControlStack`](segstack_core::ControlStack) strategy by construction.
pub struct Oracle {
    code: Rc<TestCode>,
    frame_bound: usize,
    stack: Vec<TestSlot>,
    fp: usize,
    /// Definitely-written bitmask per live frame, bottom to top. Bit `i`
    /// set means slot `fp + i` of that frame holds a value every strategy
    /// reproduces. The live frame's mask is `valid.last()`.
    valid: Vec<u128>,
    saved: Vec<SavedEntry>,
    captures: usize,
}

impl Oracle {
    /// Creates the empty oracle stack sharing the trace's code table.
    /// `frame_bound` is the trace's frame bound: slots at or above it are
    /// staging space whose contents do not survive a capture (the cache
    /// and hybrid models slide exactly one frame bound of the live frame).
    pub fn new(code: Rc<TestCode>, frame_bound: usize) -> Oracle {
        Oracle {
            code,
            frame_bound,
            stack: vec![TestSlot::Ra(ReturnAddress::Exit)],
            fp: 0,
            valid: vec![0],
            saved: Vec::new(),
            captures: 0,
        }
    }

    fn put(&mut self, idx: usize, v: TestSlot) {
        if idx >= self.stack.len() {
            self.stack.resize(idx + 1, TestSlot::Empty);
        }
        self.stack[idx] = v;
    }

    fn read(&self, idx: usize) -> TestSlot {
        self.stack.get(idx).cloned().unwrap_or(TestSlot::Empty)
    }

    fn live_mask(&mut self) -> &mut u128 {
        self.valid.last_mut().expect("at least the root frame is live")
    }

    fn do_call(&mut self, d: usize, nargs: usize, args: &[i64], ra: CodeAddr) {
        for (j, &a) in args.iter().enumerate() {
            self.put(self.fp + d + 1 + j, TestSlot::Int(a));
        }
        self.put(self.fp + d, TestSlot::Ra(ReturnAddress::Code(ra)));
        // The caller's definitely-written slots stop at its own frame: the
        // callee and everything it stages live above `d` and are dead once
        // control returns (strategies that migrate or reallocate frames do
        // not preserve them).
        *self.live_mask() &= (1u128 << d) - 1;
        // The callee definitely holds its staged arguments at 1..=nargs.
        let mut mask = 0u128;
        for j in 0..nargs {
            mask |= 1 << (1 + j);
        }
        self.valid.push(mask);
        self.fp += d;
    }

    fn do_ret(&mut self) -> ReturnAddress {
        match self.read(self.fp) {
            TestSlot::Ra(ReturnAddress::Code(r)) => {
                self.fp -= self.code.displacement(r);
                self.valid.pop();
                ReturnAddress::Code(r)
            }
            TestSlot::Ra(ReturnAddress::Exit) => ReturnAddress::Exit,
            other => panic!("oracle frame base holds {other:?}"),
        }
    }

    fn do_capture(&mut self, one_shot: bool) -> Obs {
        // A frame's guaranteed extent is one frame bound: capture
        // slides (cache) or migrates (hybrid, incremental) at most
        // that much of the live frame, so staging slots above the
        // bound do not survive.
        let fb = self.frame_bound;
        *self.live_mask() &= (1u128 << fb) - 1;
        let kont = if self.fp == 0 {
            SavedKont::Exit
        } else {
            let resume = match self.read(self.fp) {
                TestSlot::Ra(ReturnAddress::Code(r)) => r,
                other => panic!("oracle live frame base holds {other:?}"),
            };
            SavedKont::Deep {
                image: self.stack[..self.fp].to_vec(),
                valid: self.valid[..self.valid.len() - 1].to_vec(),
                resume,
            }
        };
        let entry = SavedEntry { kont, one_shot, consumed: false };
        let slot = self.captures % 8;
        if slot < self.saved.len() {
            self.saved[slot] = entry;
        } else {
            self.saved.push(entry);
        }
        self.captures += 1;
        Obs::Captured
    }

    /// Executes one op, returning the predicted observation.
    ///
    /// `ra` is the pre-assigned return address for `Call`/`LeafCall` ops
    /// (see [`CompiledTrace`](crate::driver::CompiledTrace)).
    pub fn apply(&mut self, op: &Op, ra: Option<CodeAddr>) -> Obs {
        match op {
            Op::Call { d, nargs, args } => {
                self.do_call(*d, *nargs, args, ra.expect("call ops carry a return address"));
                Obs::CallOk
            }
            Op::LeafCall { d, nargs, args } => {
                self.do_call(*d, *nargs, args, ra.expect("call ops carry a return address"));
                let vals = (0..*nargs).map(|j| self.read(self.fp + 1 + j)).collect();
                let back = self.do_ret();
                debug_assert!(matches!(back, ReturnAddress::Code(_)));
                Obs::Leaf(vals)
            }
            Op::TailCall { src, nargs } => {
                let mut mask = 0u128;
                let old = *self.live_mask();
                for j in 0..*nargs {
                    let v = self.read(self.fp + src + j);
                    self.put(self.fp + 1 + j, v);
                    if old & (1 << (src + j)) != 0 {
                        mask |= 1 << (1 + j);
                    }
                }
                // Everything outside the shuffled arguments is dead: the
                // heap model allocates a fresh [ra, args...] frame.
                *self.live_mask() = mask;
                Obs::TailOk
            }
            Op::Ret => Obs::Ret(self.do_ret()),
            Op::Finish => {
                let ra = self.do_ret();
                if ra == ReturnAddress::Exit {
                    // The finished computation's exit frame is dead.
                    *self.live_mask() = 0;
                }
                Obs::Ret(ra)
            }
            Op::Set { i, v } => {
                self.put(self.fp + i, TestSlot::Int(*v));
                *self.live_mask() |= 1 << i;
                Obs::SetOk
            }
            Op::Get { i } => {
                if *self.live_mask() & (1 << i) != 0 {
                    Obs::Got(self.read(self.fp + i))
                } else {
                    Obs::GotAny
                }
            }
            Op::Capture => self.do_capture(false),
            Op::CaptureOneShot => self.do_capture(true),
            Op::Reinstate { k } => {
                if self.saved.is_empty() {
                    return Obs::Skipped;
                }
                let idx = k % self.saved.len();
                let entry = self.saved[idx].clone();
                if entry.one_shot && entry.consumed {
                    // The strategies fail before touching any control
                    // state, so the oracle state stays put too.
                    return Obs::OneShotReuse;
                }
                if entry.one_shot {
                    self.saved[idx].consumed = true;
                }
                match entry.kont {
                    SavedKont::Exit => {
                        self.fp = 0;
                        self.stack.clear();
                        self.stack.push(TestSlot::Ra(ReturnAddress::Exit));
                        self.valid = vec![0];
                        Obs::Resumed(ReturnAddress::Exit)
                    }
                    SavedKont::Deep { image, valid, resume } => {
                        for (i, v) in image.iter().enumerate() {
                            self.put(i, *v);
                        }
                        self.fp = image.len() - self.code.displacement(resume);
                        self.valid = valid;
                        Obs::Resumed(ReturnAddress::Code(resume))
                    }
                }
            }
            Op::Backtrace { limit } => {
                let mut out = Vec::new();
                let mut pos = self.fp;
                while let TestSlot::Ra(ReturnAddress::Code(r)) = self.read(pos) {
                    out.push(r);
                    if out.len() >= *limit {
                        break;
                    }
                    pos -= self.code.displacement(r);
                }
                Obs::Backtrace(out)
            }
        }
    }
}
