//! Memory-retention gates.
//!
//! A stack buffer may keep a heap value only where a live frame or a live
//! stack record can read it. Before that rule, a sealed record kept its
//! whole buffer alive while the buffer's dead slots held continuations
//! pointing back at the record, a cycle reference counting never frees:
//! hundreds of KB per run of ctak or a ping-pong.
//!
//! A `letrec`-bound procedure that refers to itself through its own frame
//! needs no cell, so it makes no closure→cell→closure cycle, and a call to
//! it allocates nothing.
//!
//! Compiled code is owned by the closures, chunks and frames that can run
//! it, so an evaluation or a job that is over leaves none of it behind.
//! The names the expander makes up for a unit's locals are reused by the
//! next unit, so the symbol interner does not grow with every eval.
//!
//! A stack walk reads the stack in place: a backtrace copies no buffer.
//!
//! A chain of closures, each closing over the last, is freed through the
//! deferred-drop queue, and freeing it leaves nothing behind.
//!
//! Live heap bytes, allocations and allocated bytes are counted by this
//! binary's global allocator. The file holds a single `#[test]` so that no other test
//! thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use segstack_baselines::Strategy;
use segstack_bench::workloads as w;
use segstack_control::{Control, Step};
use segstack_scheme::{Engine, Symbol};

static LIVE: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, tracking the bytes currently allocated and
/// counting allocations and the bytes they asked for (reallocations
/// included).
struct Live;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping touches two atomics and never allocates.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// Bytes still allocated per run after `runs` runs, measured after `warm`
/// warm-up runs so one-time growth (global tables, pooled segments, the
/// code store's capacity) is not charged to the steady state.
fn retained_per_run(warm: usize, runs: usize, mut run: impl FnMut()) -> i64 {
    for _ in 0..warm {
        run();
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..runs {
        run();
    }
    (LIVE.load(Ordering::Relaxed) - before) / runs as i64
}

/// One gate's line of the report, and whether it holds.
type Report = Vec<(String, bool)>;

#[test]
fn warm_engines_retain_no_garbage() {
    let mut report = Report::new();
    captures_retain_no_dead_segments(&mut report);
    letrec_procedures_make_no_cycles(&mut report);
    finished_code_is_freed(&mut report);
    expansions_reuse_their_names(&mut report);
    backtraces_copy_no_buffer(&mut report);
    closure_chains_are_freed(&mut report);
    for (line, _) in &report {
        println!("{line}");
    }
    let over: Vec<&str> = report.iter().filter(|(_, ok)| !ok).map(|(r, _)| r.as_str()).collect();
    assert!(over.is_empty(), "over the bound: {}", over.join("; "));
}

fn captures_retain_no_dead_segments(report: &mut Report) {
    const RUN_BOUND: i64 = 32 * 1024;
    const JOB_BOUND: i64 = 64 * 1024;
    let programs = [
        ("ctak 12 8 4", w::ctak(12, 8, 4), "5"),
        ("%call/1cc ping-pong 600 deep", w::pingpong("%call/1cc", 600, 200), "200"),
        ("%call/cc ping-pong 600 deep", w::pingpong("%call/cc", 600, 20), "20"),
        ("capture at depth 200 x 50", w::capture_at_depth(200, 50), "200"),
    ];
    for (name, src, expect) in &programs {
        let mut engine = Engine::new().expect("default engine");
        let per_run = retained_per_run(3, 20, || {
            let got = engine.eval_to_string(src).expect("program runs");
            assert_eq!(&got, expect, "{name}");
        });
        report.push((format!("{name}: {per_run} B/run (bound {RUN_BOUND})"), per_run <= RUN_BOUND));
    }

    // A preempted deep recursion: every expired quantum captures the
    // job's stack, and the next quantum reinstates it.
    let mut kit = Control::new(Strategy::Segmented).expect("control kit");
    let src = w::deep_sum(5000);
    let per_job = retained_per_run(3, 20, || {
        let mut job = kit.spawn_job(&src).expect("spawn");
        let value = loop {
            match kit.step_job(&mut job, 1000).expect("step") {
                Step::Done { value, .. } => break value,
                Step::Expired => {}
            }
        };
        assert_eq!(value.to_string(), "12502500");
        assert!(job.quanta() > 1, "the job was preempted");
    });
    report.push((
        format!("deep-sum 5000 job: {per_job} B/job (bound {JOB_BOUND})"),
        per_job <= JOB_BOUND,
    ));
}

/// Each program is compiled once and its chunk rerun, so the code store
/// does not grow; what a run keeps is what its closures keep.
fn letrec_procedures_make_no_cycles(report: &mut Report) {
    const RUN_BOUND: i64 = 16;
    const LOOP_ALLOCS: u64 = 16;
    let gated = [
        ("named-let entry", "(let loop ((i 0)) (if (< i 10) (loop (+ i 1)) i))", "10"),
        (
            "self-recursive internal define",
            "((lambda () (define (down n) (if (= n 0) 0 (down (- n 1)))) (down 10)))",
            "0",
        ),
        (
            "letrec of two self-recursive procedures",
            "(letrec ((f (lambda (n) (if (= n 0) 0 (f (- n 1)))))
                      (g (lambda (n) (if (= n 0) 1 (g (- n 1))))))
               (+ (f 5) (g 5)))",
            "1",
        ),
    ];
    let mut engine = Engine::new().expect("default engine");
    let mut rerun = |src: &str, expect: &str| {
        let chunk = engine.compile(src).expect("compiles").expect("one form");
        retained_per_run(3, 200, || {
            assert_eq!(engine.run(chunk.clone()).expect("runs").to_string(), expect, "{src}");
        })
    };
    for (name, src, expect) in gated {
        let per_run = rerun(src, expect);
        report.push((format!("{name}: {per_run} B/run (bound {RUN_BOUND})"), per_run <= RUN_BOUND));
    }
    // Not gated: `od?` is read by the earlier init `ev?`, so it keeps its
    // cell, and the closure that captures the cell is the cell's value.
    let mutual = rerun(
        "(letrec ((ev? (lambda (n) (if (= n 0) #t (od? (- n 1)))))
                  (od? (lambda (n) (if (= n 0) #f (ev? (- n 1))))))
           (ev? 10))",
        "#t",
    );
    report.push((format!("mutually recursive letrec: {mutual} B/run (not gated)"), true));

    let src = "((lambda () (define (loop i) (if (= i 0) 'done (loop (- i 1)))) (loop 100000)))";
    let chunk = engine.compile(src).expect("compiles").expect("one form");
    engine.run(chunk.clone()).expect("warm-up run");
    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(engine.run(chunk).expect("runs").to_string(), "done");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    report.push((
        format!(
            "100,000-iteration internal-define loop: {allocs} allocations (bound {LOOP_ALLOCS})"
        ),
        allocs <= LOOP_ALLOCS,
    ));
}

/// Each program is compiled anew on every run, as `Engine::eval` and
/// `spawn_job` do; once a run is over nothing owns its code, so the code
/// store keeps no more than an id's share of its index.
fn finished_code_is_freed(report: &mut Report) {
    const RUN_BOUND: i64 = 16;
    const JOB_BOUND: i64 = 64;
    let evaluated = [
        ("eval of a lambda application", "((lambda (x) (+ x 1)) 41)", "42"),
        ("eval of a named let", "(let loop ((i 0)) (if (< i 10) (loop (+ i 1)) i))", "10"),
        (
            "eval of a letrec of two procedures",
            "(letrec ((f (lambda (n) (if (= n 0) 0 (f (- n 1)))))
                      (g (lambda (n) (if (= n 0) 1 (g (- n 1))))))
               (+ (f 5) (g 5)))",
            "1",
        ),
    ];
    let mut engine = Engine::new().expect("default engine");
    for (name, src, expect) in evaluated {
        let per_run = retained_per_run(3, 200, || {
            assert_eq!(engine.eval_to_string(src).expect("runs"), expect, "{src}");
        });
        report.push((format!("{name}: {per_run} B/run (bound {RUN_BOUND})"), per_run <= RUN_BOUND));
    }

    // A job that finishes in its first quantum: spawning compiles it, and
    // finishing drops it. The heap strategy keeps no stack buffer, so what
    // a job leaves is its code; the segmented figure is printed beside it.
    let src = w::tak(12, 8, 4);
    let per_job = |strategy: Strategy| {
        let mut kit = Control::new(strategy).expect("control kit");
        retained_per_run(3, 200, || {
            let mut job = kit.spawn_job(&src).expect("spawn");
            match kit.step_job(&mut job, 1_000_000).expect("step") {
                Step::Done { value, .. } => assert_eq!(value.to_string(), "5"),
                Step::Expired => panic!("tak 12 8 4 finishes in one quantum"),
            }
        })
    };
    let heap = per_job(Strategy::Heap);
    report.push((
        format!("one-quantum tak 12 8 4 job, heap: {heap} B/job (bound {JOB_BOUND})"),
        heap <= JOB_BOUND,
    ));
    let segmented = per_job(Strategy::Segmented);
    report.push((
        format!("one-quantum tak 12 8 4 job, segmented: {segmented} B/job (not gated)"),
        true,
    ));
}

/// `or`, `case` and `do` bind locals under names the expander makes up;
/// every eval compiles a new unit, which reuses the last unit's names. The
/// interner's tables grow by doubling, so the bytes a run keeps depend on
/// where a doubling falls; the count of names it gained is exact.
fn expansions_reuse_their_names(report: &mut Report) {
    const RUN_BOUND: i64 = 16;
    let evaluated = [
        ("eval of an or", "(or #f 1)", "1"),
        ("eval of a case", "(case 2 ((1) 'a) ((2) 'b))", "b"),
        ("eval of a three-step do", "(do ((i 0 (+ i 1))) ((= i 3) i))", "3"),
    ];
    let mut engine = Engine::new().expect("default engine");
    for (name, src, expect) in evaluated {
        let mut eval = || assert_eq!(engine.eval(src).expect("runs").to_string(), expect, "{src}");
        eval();
        // A fresh name's id is the count of names interned before it.
        let interned = |when: &str| Symbol::intern(&format!("{name} probe {when}")).id();
        let before = interned("before");
        let per_run = retained_per_run(3, 200, eval);
        let names = interned("after") - before - 1;
        report.push((
            format!("{name}: {per_run} B/run (bound {RUN_BOUND}), {names} new names (bound 0)"),
            per_run <= RUN_BOUND && names == 0,
        ));
    }
}

/// The stack cache's backtrace once cloned its whole cache (16,384 slots)
/// and every flushed block it passed; the walker reads them in place.
fn backtraces_copy_no_buffer(report: &mut Report) {
    const WALK_BYTES: u64 = 1024;
    let mut engine = Engine::builder().strategy(Strategy::Cache).build().expect("cache engine");
    assert_eq!(engine.eval(&w::fib(15)).expect("runs").to_string(), "610");
    let before = ALLOCATED.load(Ordering::Relaxed);
    engine.backtrace(16);
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    report.push((
        format!("backtrace(16) on a warm cache engine: {bytes} B allocated (bound {WALK_BYTES})"),
        bytes < WALK_BYTES,
    ));
}

/// Each run builds a 10,000-long chain of closures and drops it; the
/// chunk is compiled once and rerun, so what a run keeps is what the
/// chain's teardown leaves.
fn closure_chains_are_freed(report: &mut Report) {
    const RUN_BOUND: i64 = 16;
    let mut engine = Engine::new().expect("default engine");
    engine
        .eval("(define (chain n acc) (if (= n 0) acc (chain (- n 1) (lambda () acc))))")
        .expect("defines");
    let chunk =
        engine.compile("(procedure? (chain 10000 #f))").expect("compiles").expect("one form");
    let per_run = retained_per_run(3, 200, || {
        assert_eq!(engine.run(chunk.clone()).expect("runs").to_string(), "#t");
    });
    report.push((
        format!("10,000-long closure chain: {per_run} B/run (bound {RUN_BOUND})"),
        per_run <= RUN_BOUND,
    ));
}
