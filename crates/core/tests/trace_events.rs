//! The tracing counter gate: the observability layer must not perturb
//! the machine.
//!
//! The same deterministic workload runs twice — once untraced and once
//! recording into a [`RingSink`] — and every architecture-independent
//! counter must come out identical. The traced run is then
//! cross-checked: event counts must agree with the metrics, per-event
//! payloads must respect the paper's bounds, and the exported Chrome
//! trace must validate.

use std::cell::RefCell;
use std::rc::Rc;

use segstack_core::trace::{chrome_trace_json, validate_chrome_trace, EventKind, RingSink};
use segstack_core::{sim, Config, ControlStack, SegmentedStack, TestCode, TestSlot};

fn small_cfg() -> Config {
    Config::builder().segment_slots(256).frame_bound(16).copy_bound(32).build().unwrap()
}

/// A workload exercising every traced path: deep calls (overflow +
/// segment alloc), capture, multi-shot reinstate (bounded copy + split),
/// one-shot reinstate (relink), and a full unwind (underflow).
fn workload(stack: &mut SegmentedStack<TestSlot>, code: &TestCode) {
    // Overflow phase: deep calls overflow several 256-slot segments,
    // then unwind back through every sealed record (underflows).
    sim::push_frames(stack, code, 120, 8);
    sim::unwind_all(stack);
    stack.reset();
    // Copy phase: a 160-slot multi-shot capture reinstated twice must
    // split (copy_bound 32) and take the bounded-copy path.
    sim::push_frames(stack, code, 20, 8);
    {
        let k = stack.capture();
        sim::push_frames(stack, code, 5, 8);
        stack.reinstate(&k).expect("multi-shot reinstate");
        stack.reinstate(&k).expect("multi-shot reinstate again");
    }
    // Relink phase: a uniquely-owned one-shot adopted as the live stack.
    stack.reset();
    sim::push_frames(stack, code, 30, 8);
    let k1 = stack.capture_one_shot();
    stack.reset(); // drop the machine's own handle so the one-shot is unshared
    stack.reinstate(&k1).expect("one-shot reinstate");
    sim::unwind_all(stack);
}

/// Runs the workload on a machine recording into a fresh ring, returning
/// both (the test keeps its own handle to the ring).
fn traced_run(cfg: Config) -> (SegmentedStack<TestSlot>, Rc<RefCell<RingSink>>) {
    let code = Rc::new(TestCode::new());
    let ring = Rc::new(RefCell::new(RingSink::new()));
    let mut stack =
        SegmentedStack::<TestSlot>::with_sink(cfg, code.clone(), Some(ring.clone())).unwrap();
    workload(&mut stack, &code);
    (stack, ring)
}

#[test]
fn untraced_and_traced_runs_produce_identical_metrics() {
    let code = Rc::new(TestCode::new());
    let mut untraced = SegmentedStack::<TestSlot>::new(small_cfg(), code.clone()).unwrap();
    workload(&mut untraced, &code);
    let (traced, ring) = traced_run(small_cfg());

    assert_eq!(
        untraced.metrics(),
        traced.metrics(),
        "recording events must not change what the machine does"
    );
    assert!(ring.borrow().total_recorded() > 0, "the traced run must actually record");
}

#[test]
fn event_counts_cross_check_against_metrics() {
    let (stack, ring) = traced_run(small_cfg());
    let m = stack.metrics().clone();
    let ring = ring.borrow();

    assert_eq!(ring.kind_count(EventKind::Capture), m.captures);
    // Relinked switches write a single packed Relink event; the Begin/End
    // span protocol covers only the copy path.
    let copy_reinstates = m.reinstatements - m.reinstates_relinked;
    assert_eq!(ring.kind_count(EventKind::ReinstateBegin), copy_reinstates);
    assert_eq!(ring.kind_count(EventKind::ReinstateEnd), copy_reinstates);
    assert_eq!(ring.kind_count(EventKind::Relink), m.reinstates_relinked);
    assert_eq!(ring.kind_count(EventKind::OverflowBegin), m.overflows);
    assert_eq!(ring.kind_count(EventKind::OverflowEnd), m.overflows);
    assert_eq!(ring.kind_count(EventKind::Underflow), m.underflows);
    assert_eq!(ring.kind_count(EventKind::Split), m.splits);
    assert!(
        ring.kind_count(EventKind::SegmentAlloc) <= m.segments_allocated + m.segments_reused,
        "segment events only come from traced allocation sites"
    );
    // The workload was built to hit every interesting path.
    assert!(m.overflows > 0 && m.underflows > 0 && m.splits > 0);
    assert!(m.reinstates_relinked > 0, "the one-shot reinstate must relink");
}

#[test]
fn per_event_payloads_respect_the_paper_bounds() {
    let bound = 32u64; // max(copy_bound=32, frame_bound=16)
    let (_stack, ring) = traced_run(small_cfg());
    let ring = ring.borrow();
    // ReinstateEnd's first payload word is slots copied: Figures 6–7 say
    // every single reinstatement is bounded, and the histogram's max is
    // exactly that per-event assertion.
    let h = ring.histogram(EventKind::ReinstateEnd);
    assert!(h.count() > 0);
    assert!(h.max() <= bound, "a reinstatement copied {} slots; bound {bound}", h.max());
    // A relinked reinstatement copies nothing and writes no span: its one
    // Relink event carries the adopted size, never a copy cost.
    let rh = ring.histogram(EventKind::Relink);
    assert!(rh.count() > 0, "the one-shot reinstate must relink");
    assert!(rh.max() > 0, "relink events carry the adopted segment size");
}

#[test]
fn core_trace_exports_as_valid_chrome_json() {
    let (_stack, ring) = traced_run(small_cfg());
    let trace = ring.borrow_mut().take_trace("core-workload", 1);
    let doc = chrome_trace_json(&[trace]);
    let stats = validate_chrome_trace(&doc).expect("exported trace must validate");
    assert!(stats.spans > 0, "reinstate/overflow spans must appear");
    assert!(stats.instants > 0, "capture/relink/underflow instants must appear");
    assert_eq!(stats.tracks, 1);
}
