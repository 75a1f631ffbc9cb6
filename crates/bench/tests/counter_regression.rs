//! Counter-based regression gates for the reinstatement fast path.
//!
//! Wall-clock comparisons live in the harness (E16/E17) and depend on the
//! host; these tests pin the *architecture-independent* counters the fast
//! path is about, so a regression that silently sends one-shot
//! reinstatements back down the copy path fails `cargo test` anywhere.

use std::cell::RefCell;
use std::rc::Rc;

use segstack_baselines::Strategy;
use segstack_core::{
    sim, Config, ControlStack, EventKind, RingSink, SegmentedStack, TestCode, TestSlot,
};
use segstack_scheme::Engine;

/// The E17 core shape: a uniquely-owned one-shot tower reinstated from a
/// detached machine must relink every round and copy exactly zero slots.
#[test]
fn unshared_one_shot_reinstatement_copies_nothing() {
    let depth = 512usize;
    let rounds = 50u64;
    let slots = depth * 8 + 4096;
    let cfg =
        Config::builder().segment_slots(slots).frame_bound(64).copy_bound(slots).build().unwrap();
    let code = Rc::new(TestCode::new());
    let mut stack = SegmentedStack::<TestSlot>::new(cfg, code.clone()).unwrap();
    sim::push_frames(&mut stack, &code, depth, 8);
    stack.metrics_mut().reset();
    for _ in 0..rounds {
        sim::push_frames(&mut stack, &code, 1, 8);
        let k = stack.capture_one_shot();
        stack.reset();
        stack.reinstate(&k).expect("reinstate");
    }
    let m = stack.metrics();
    assert_eq!(m.slots_copied, 0, "the relink fast path must copy no slots");
    assert_eq!(m.reinstates_relinked, rounds, "every reinstatement must take the fast path");
    assert!(m.slots_copy_avoided >= rounds * (depth as u64) * 8, "avoided-copy accounting");
}

/// The same tower reinstated through a *kept* multi-shot handle must take
/// the copy path — if this ever relinks, the multi-shot contract broke.
#[test]
fn shared_multi_shot_reinstatement_takes_the_copy_path() {
    let depth = 512usize;
    let slots = depth * 8 + 4096;
    let cfg =
        Config::builder().segment_slots(slots).frame_bound(64).copy_bound(slots).build().unwrap();
    let code = Rc::new(TestCode::new());
    let mut stack = SegmentedStack::<TestSlot>::new(cfg, code.clone()).unwrap();
    sim::push_frames(&mut stack, &code, depth, 8);
    stack.metrics_mut().reset();
    let k = stack.capture();
    stack.reset();
    stack.reinstate(&k).expect("first reinstate");
    stack.reinstate(&k).expect("multi-shot handles reinstate repeatedly");
    let m = stack.metrics();
    assert_eq!(m.reinstates_relinked, 0, "a borrowed multi-shot handle must never relink");
    assert!(m.slots_copied >= 2 * (depth as u64) * 8, "both reinstatements copy the image");
}

/// Scheme-level gate: the E16 ping-pong under `%call/1cc` on the segmented
/// engine must relink nearly every switch, and total slot traffic must stay
/// a small constant (setup only) instead of scaling with `switches x
/// copy_bound` as the copy path does.
#[test]
fn pingpong_one_shot_switches_relink_with_constant_copy_traffic() {
    let cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let (spacer, rounds) = (600u32, 500u64);
    let src = segstack_bench::workloads::pingpong("%call/1cc", spacer, rounds as u32);
    let mut e =
        Engine::builder().strategy(Strategy::Segmented).config(cfg.clone()).build().unwrap();
    e.reset_metrics();
    let v = e.eval(&src).expect("pingpong");
    assert_eq!(v.to_string(), rounds.to_string());
    let m = e.metrics();
    let switches = 2 * rounds; // one capture+jump per side per round
    assert!(
        m.reinstates_relinked >= switches - 50,
        "steady-state switches must relink: {} of ~{switches}",
        m.reinstates_relinked
    );
    // Setup (digging both sides in) pays bounded overflow/underflow copies;
    // steady-state switches pay none. The ceiling is deliberately generous
    // but far below the copy path's switches * copy_bound (= 128000 here).
    assert!(
        m.slots_copied < 20_000,
        "one-shot ping-pong copied {} slots; copy traffic must not scale with switches",
        m.slots_copied
    );
    // The multi-shot run of the identical workload must cost at least the
    // copy bound per switch on this segment geometry — the gap is the point.
    let src_cc = segstack_bench::workloads::pingpong("%call/cc", spacer, rounds as u32);
    let mut e2 = Engine::builder().strategy(Strategy::Segmented).config(cfg).build().unwrap();
    e2.reset_metrics();
    e2.eval(&src_cc).expect("pingpong cc");
    assert!(
        e2.metrics().slots_copied > m.slots_copied * 4,
        "copy-path ping-pong ({}) should dwarf relink ping-pong ({})",
        e2.metrics().slots_copied,
        m.slots_copied
    );
}

/// Segment-allocation ceiling: steady-state relinking must recycle the two
/// side buffers (adopt one, retire the other to the pool) instead of
/// allocating fresh segments per switch.
#[test]
fn pingpong_one_shot_does_not_thrash_the_allocator() {
    let cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let src = segstack_bench::workloads::pingpong("%call/1cc", 600, 500);
    let mut e = Engine::builder().strategy(Strategy::Segmented).config(cfg).build().unwrap();
    e.reset_metrics();
    e.eval(&src).expect("pingpong");
    let m = e.metrics();
    assert!(
        m.segments_allocated < 40,
        "1000 one-shot switches allocated {} fresh segments; switches must reuse \
         the side buffers",
        m.segments_allocated
    );
}

/// Default-codegen gate: on the helper-chain programs the default engine
/// (`elide`) checks every non-tail closure call — three per iteration of
/// nested-helper (`sumsq`, two `sq`), one of lcg-let-loop (`step`) — and
/// counts each of the six primitive calls per iteration, plus one at top
/// level, as elided. A change to check placement moves these pinned counts.
#[test]
fn default_policy_check_counts_are_pinned_on_helper_chains() {
    let n = 10_000u64;
    for (name, src, executed) in [
        ("nested-helper", segstack_bench::workloads::nested_helper(n as u32), 3 * n),
        ("lcg-let-loop", segstack_bench::workloads::lcg_let_loop(n as u32), n),
    ] {
        let mut e = Engine::new().unwrap();
        e.reset_metrics();
        e.eval(&src).unwrap();
        let m = e.metrics();
        assert_eq!(m.checks_executed, executed, "{name}: checks executed");
        assert_eq!(m.checks_elided, 6 * n + 1, "{name}: checks elided");
    }
}

/// Inline-cache gate: a hot global-recursion workload must run almost
/// entirely out of the caches, and the fused call superinstructions must
/// carry the traffic.
#[test]
fn inline_caches_hit_in_steady_state() {
    let mut e = Engine::new().unwrap();
    e.reset_metrics();
    e.eval("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 20)").unwrap();
    let m = e.metrics().clone();
    assert!(m.ic_hits > 10_000, "ic hits: {}", m.ic_hits);
    assert!(m.ic_misses < m.ic_hits / 100, "ic misses: {} vs hits {}", m.ic_misses, m.ic_hits);
    assert!(
        m.superinstructions_dispatched > m.ic_hits,
        "fused ops must carry the hot path: {} vs {}",
        m.superinstructions_dispatched,
        m.ic_hits
    );
}

/// Invalidation gate: redefining or assigning a cached global operator
/// must miss (and refill) on the next dispatch, never serve the stale
/// callee.
#[test]
fn inline_caches_invalidate_on_global_redefinition() {
    let mut e = Engine::new().unwrap();
    e.eval("(define (f) 1) (define (caller) (f))").unwrap();
    assert_eq!(e.eval_to_string("(caller)").unwrap(), "1");
    assert_eq!(e.eval_to_string("(caller)").unwrap(), "1"); // warm the cache
    let warm_misses = e.metrics().ic_misses;
    e.eval("(define (f) 2)").unwrap();
    assert_eq!(e.eval_to_string("(caller)").unwrap(), "2", "stale cache served");
    assert!(
        e.metrics().ic_misses > warm_misses,
        "redefinition must force a miss: {} vs {}",
        e.metrics().ic_misses,
        warm_misses
    );
}

/// Engine-level trace gate: a traced default engine runs the very machine
/// an untraced one does — equal `Metrics` after continuation, relink and
/// overflow work — and its ring holds exactly one event per counted
/// capture, overflow, underflow and relink.
#[test]
fn traced_engine_matches_untraced_and_its_events_match_metrics() {
    let ring = Rc::new(RefCell::new(RingSink::new()));
    let mut untraced = Engine::new().unwrap();
    let mut traced = Engine::builder().trace_sink(ring.clone()).build().unwrap();
    for src in [
        segstack_bench::workloads::ctak(12, 8, 4),
        segstack_bench::workloads::pingpong("%call/1cc", 600, 500),
        segstack_bench::workloads::deep_sum(50_000),
    ] {
        let want = untraced.eval_to_string(&src).unwrap();
        assert_eq!(traced.eval_to_string(&src).unwrap(), want, "traced result");
    }
    let m = traced.metrics();
    assert_eq!(untraced.metrics(), m, "tracing must not change what the machine does");
    let ring = ring.borrow();
    for (kind, counter) in [
        (EventKind::Capture, m.captures),
        (EventKind::OverflowBegin, m.overflows),
        (EventKind::Underflow, m.underflows),
        (EventKind::Relink, m.reinstates_relinked),
    ] {
        assert!(counter > 0, "the workloads must exercise {}", kind.name());
        assert_eq!(ring.kind_count(kind), counter, "{} events vs. Metrics", kind.name());
    }
}
