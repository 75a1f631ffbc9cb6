//! The experiment suite: one function per table/figure of DESIGN.md §4.
//!
//! Every experiment reports wall-clock time *and* architecture-independent
//! counters (slots copied, frames allocated, checks executed), so the
//! paper's comparative claims are checked both ways. Absolute times depend
//! on the host; the *shape* — who wins, by what factor, where crossovers
//! fall — is the reproduction target.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use segstack_baselines::Strategy;
use segstack_core::trace::{OwnerTrace, RingSink};
use segstack_core::{sim, Config, ControlStack, Metrics, SegmentedStack, TestCode, TestSlot};
use segstack_scheme::{CheckPolicy, Engine, Value};

use crate::table::{fmt_ns, fmt_ratio, Table};
use crate::workloads as w;

/// Result of one measured run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Wall-clock nanoseconds for the measured phase.
    pub nanos: f64,
    /// Counters accumulated during the measured phase.
    pub metrics: Metrics,
    /// Printed result value (for validation).
    pub value: String,
}

/// Builds an engine for an experiment.
pub fn engine(strategy: Strategy, cfg: &Config, policy: CheckPolicy) -> Engine {
    Engine::builder()
        .strategy(strategy)
        .config(cfg.clone())
        .check_policy(policy)
        .build()
        .expect("engine construction")
}

/// Evaluates `setup` unmeasured, then measures `src`.
pub fn measure(e: &mut Engine, setup: &str, src: &str) -> Run {
    if !setup.is_empty() {
        e.eval(setup).expect("setup");
    }
    e.reset_metrics();
    let start = Instant::now();
    let v = e.eval(src).expect("measured program");
    let nanos = start.elapsed().as_nanos() as f64;
    Run { nanos, metrics: e.metrics().clone(), value: v.to_string() }
}

/// Measures `src` on a fresh engine per strategy.
pub fn measure_on(strategy: Strategy, cfg: &Config, src: &str) -> Run {
    let mut e = engine(strategy, cfg, CheckPolicy::Elide);
    // Warm once: compiles a separate chunk; run-time state (globals) from
    // the warm run is discarded by using a fresh engine.
    let mut warm = engine(strategy, cfg, CheckPolicy::Elide);
    warm.eval(src).expect("warmup");
    measure(&mut e, "", src)
}

fn cfg_default() -> Config {
    Config::default()
}

/// E1 — ordinary procedure calls across all strategies (Fig 1 vs Fig 3;
/// §1: heap allocation slows ordinary calls).
pub fn e01_calls() -> Table {
    let mut t = Table::new(
        "E1: ordinary call/return cost by strategy",
        "heap allocation makes ordinary calls slower; the segmented stack keeps the \
         traditional stack's cheap call interface (§1, §2, Fig 1-3)",
        &["workload", "strategy", "time", "ns/call-op", "heap frames", "slots copied"],
    );
    let workloads = [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("tail-loop 300k", w::tail_loop(300_000)),
    ];
    for (name, src) in &workloads {
        for s in Strategy::ALL {
            let r = measure_on(s, &cfg_default(), src);
            let ops = r.metrics.call_interface_ops().max(1) as f64;
            t.row([
                name.to_string(),
                s.to_string(),
                fmt_ns(r.nanos),
                format!("{:.1}", r.nanos / ops),
                r.metrics.heap_frames_allocated.to_string(),
                r.metrics.slots_copied.to_string(),
            ]);
        }
    }
    t.note(
        "the heap model allocates a frame per call AND per tail call; stack-based \
            strategies allocate none",
    );
    t
}

/// E2 — capture cost as a function of stack depth (Fig 2 vs Fig 5).
pub fn e02_capture_depth() -> Table {
    let mut t = Table::new(
        "E2: continuation capture cost vs. stack depth",
        "naive copying makes capture O(stack depth); segmented/heap/hybrid capture is \
         O(1) (Fig 2 vs Fig 5)",
        &["depth", "strategy", "ns/capture-cycle", "slots copied/cycle"],
    );
    let rounds = 2_000u32;
    for depth in [10u32, 100, 500, 2000] {
        for s in Strategy::ALL {
            let src = w::capture_at_depth(depth, rounds);
            let r = measure_on(s, &cfg_default(), &src);
            let caps = r.metrics.captures.max(1) as f64;
            t.row([
                depth.to_string(),
                s.to_string(),
                format!("{:.0}", r.nanos / caps),
                format!("{:.1}", r.metrics.slots_copied as f64 / caps),
            ]);
        }
    }
    t.note(
        "a cycle is capture + return past the seal; segmented pays a bounded \
            underflow copy per cycle while copy/cache pay the whole stack depth",
    );
    t
}

/// The reinstatement-latency probe: capture once at depth, then jump back
/// and forth `rounds` times without ever unwinding the deep stack.
fn reinstate_latency(depth: u32, rounds: u32) -> String {
    format!(
        "(define k-deep #f)
         (define k-top #f)
         (define count 0)
         (define (deep n)
           (if (= n 0)
               (begin (%call/cc (lambda (c) (set! k-deep c))) (k-top 0))
               (+ 1 (deep (- n 1)))))
         (%call/cc (lambda (c) (set! k-top c) (deep {depth})))
         (set! count (+ count 1))
         (if (< count {rounds}) (k-deep 0) count)"
    )
}

/// E3 — reinstatement cost as a function of continuation size (Fig 6-7).
pub fn e03_reinstate_size() -> Table {
    let mut t = Table::new(
        "E3: reinstatement cost vs. continuation size (segmented, copy bound 128)",
        "reinstatement copies at most the copy bound; larger saved segments are split \
         first, so cost is flat in continuation size (§4, Fig 6-7)",
        &["depth", "strategy", "ns/reinstate", "slots copied/reinstate", "splits"],
    );
    let rounds = 2_000u32;
    for depth in [50u32, 200, 1000, 4000] {
        for s in [Strategy::Segmented, Strategy::Copy, Strategy::Heap, Strategy::Incremental] {
            let src = reinstate_latency(depth, rounds);
            let r = measure_on(s, &cfg_default(), &src);
            let n = r.metrics.reinstatements.max(1) as f64;
            t.row([
                depth.to_string(),
                s.to_string(),
                format!("{:.0}", r.nanos / n),
                format!("{:.1}", r.metrics.slots_copied as f64 / n),
                r.metrics.splits.to_string(),
            ]);
        }
    }
    t.note(
        "copy reinstates the whole image (linear in depth); segmented copies a \
            bounded prefix and splits the rest lazily; heap shares frames",
    );
    t
}

/// E4 — stack walking via code-stream frame-size words (Fig 4).
pub fn e04_walk() -> Table {
    let mut t = Table::new(
        "E4: stack-walk cost vs. frame count (core, synthetic frames)",
        "walkers recover every frame boundary from return addresses alone, in time \
         linear in the frame count (Fig 4)",
        &["frames", "time/walk", "ns/frame"],
    );
    let code = std::rc::Rc::new(TestCode::new());
    for frames in [16usize, 256, 4096] {
        let cfg =
            Config::builder().segment_slots(frames * 8 + 1024).frame_bound(64).build().unwrap();
        let mut stack = SegmentedStack::<TestSlot>::new(cfg, code.clone()).unwrap();
        sim::push_frames(&mut stack, &code, frames, 8);
        let k = stack.capture();
        // Walk the sealed segment through the public walker API.
        let iters = 2_000;
        let start = Instant::now();
        let mut total = 0usize;
        for _ in 0..iters {
            // The capture sealed [0, frames*8); rebuild the walk each time.
            total += k.chain_len();
            total += k.retained_slots();
        }
        let retained_nanos = start.elapsed().as_nanos() as f64 / iters as f64;
        // Direct frame walk over a reconstructed buffer.
        let buf: Vec<TestSlot> = {
            // Reconstruct an equivalent occupied segment for the walker.
            let code2 = TestCode::new();
            let mut b = vec![TestSlot::Empty; frames * 8 + 8];
            b[0] = TestSlot::Ra(segstack_core::ReturnAddress::Exit);
            let mut fbase = 0usize;
            let mut prev = None;
            for _ in 0..frames {
                if let Some(ra) = prev {
                    b[fbase] = TestSlot::Ra(segstack_core::ReturnAddress::Code(ra));
                }
                prev = Some(code2.ret_point(8));
                fbase += 8;
            }
            let start = Instant::now();
            let mut n = 0usize;
            for _ in 0..iters {
                n += segstack_core::walker::frames(&b, 0, fbase, prev.unwrap(), &code2).len();
            }
            let nanos = start.elapsed().as_nanos() as f64 / iters as f64;
            t.row([frames.to_string(), fmt_ns(nanos), format!("{:.1}", nanos / frames as f64)]);
            let _ = n;
            let _ = retained_nanos;
            b
        };
        let _ = (buf, total);
    }
    t.note(
        "linear in frames with a small per-frame constant: one displacement \
            lookup and one slot read per frame",
    );
    t
}

/// E5 — capture microbenchmark across all strategies at fixed depth.
pub fn e05_capture_all() -> Table {
    let mut t = Table::new(
        "E5: capture at depth 1000, all strategies",
        "capture is O(1) for segmented/heap/hybrid, O(n) for copy, and a cache flush \
         for the stack cache (Fig 5, §2)",
        &["strategy", "ns/capture", "slots copied/capture", "heap slots/capture"],
    );
    let src = w::capture_at_depth(1000, 2000);
    for s in Strategy::ALL {
        let r = measure_on(s, &cfg_default(), &src);
        let caps = r.metrics.captures.max(1) as f64;
        t.row([
            s.to_string(),
            format!("{:.0}", r.nanos / caps),
            format!("{:.1}", r.metrics.slots_copied as f64 / caps),
            format!("{:.1}", r.metrics.heap_slots_allocated as f64 / caps),
        ]);
    }
    t
}

/// E6 — reinstatement microbenchmark across all strategies.
pub fn e06_reinstate_all() -> Table {
    let mut t = Table::new(
        "E6: reinstate a depth-1000 continuation, all strategies",
        "reinstatement is bounded for segmented (copy bound), O(n) for copy, block \
         refill for cache, O(1) for heap/hybrid (Fig 6, §6)",
        &["strategy", "ns/reinstate", "slots copied/reinstate"],
    );
    let src = reinstate_latency(1000, 2000);
    for s in Strategy::ALL {
        let r = measure_on(s, &cfg_default(), &src);
        let n = r.metrics.reinstatements.max(1) as f64;
        t.row([
            s.to_string(),
            format!("{:.0}", r.nanos / n),
            format!("{:.1}", r.metrics.slots_copied as f64 / n),
        ]);
    }
    t
}

/// E7 — the copy-bound parameter sweep (§4: "determined only by
/// experimentation").
pub fn e07_copybound_sweep() -> Table {
    let mut t = Table::new(
        "E7: copy-bound sweep (segmented)",
        "small bounds split often; huge bounds copy too much per reinstatement; the \
         best value sits in between and can only be found by experiment (§4)",
        &["copy bound", "workload", "time", "splits", "slots copied"],
    );
    for bound in [4usize, 16, 64, 128, 512, 2048] {
        let cfg = Config::builder()
            .segment_slots(16 * 1024)
            .frame_bound(64)
            .copy_bound(bound)
            .build()
            .unwrap();
        for (name, src) in [
            ("ctak 14 10 4", w::ctak(14, 10, 4)),
            ("reinstate d=2000", reinstate_latency(2000, 2000)),
            ("deep-sum 60k", w::deep_sum(60_000)),
        ] {
            let r = measure_on(Strategy::Segmented, &cfg, &src);
            t.row([
                bound.to_string(),
                name.to_string(),
                fmt_ns(r.nanos),
                r.metrics.splits.to_string(),
                r.metrics.slots_copied.to_string(),
            ]);
        }
    }
    t
}

/// E8 — overflow-check cost and elision (Fig 8, §5).
pub fn e08_overflow_checks() -> Table {
    let mut t = Table::new(
        "E8: overflow-check policies (segmented)",
        "explicit checks are one register compare per call; leaves and tail loops \
         never check (Fig 8, §5)",
        &["workload", "policy", "time", "checks executed", "checks elided"],
    );
    // `Never` is only sound when the segment outruns the recursion.
    let big = Config::builder().segment_slots(4 * 1024 * 1024).frame_bound(64).build().unwrap();
    for (name, src) in [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("tail-loop 300k", w::tail_loop(300_000)),
        ("leaf-heavy sort 600", w::sort(600)),
        ("lcg-let-loop 300k", w::lcg_let_loop(300_000)),
    ] {
        for (label, policy) in [
            ("always", CheckPolicy::Always),
            ("elide", CheckPolicy::Elide),
            ("never", CheckPolicy::Never),
        ] {
            let mut e = Engine::builder()
                .strategy(Strategy::Segmented)
                .config(big.clone())
                .check_policy(policy)
                .build()
                .expect("engine construction");
            let r = measure(&mut e, "", &src);
            t.row([
                name.to_string(),
                label.to_string(),
                fmt_ns(r.nanos),
                r.metrics.checks_executed.to_string(),
                r.metrics.checks_elided.to_string(),
            ]);
        }
    }
    t.note(
        "primitive applications never push frames, so they are check-free leaf \
            calls by construction; tail calls never check in any policy",
    );
    t
}

/// E9 — the overflow/underflow "bouncing" phenomenon (§2).
pub fn e09_bouncing() -> Table {
    let mut t = Table::new(
        "E9: boundary loop — stack cache bouncing vs. segmented recovery",
        "a loop straddling the cache boundary makes the worst case the average case \
         for the stack-cache model; the segmented stack settles into a new segment \
         (§2, §5)",
        &["park depth", "strategy", "time", "overflows", "underflows", "slots copied"],
    );
    let cfg = Config::builder().segment_slots(512).frame_bound(48).copy_bound(32).build().unwrap();
    let iters = 20_000u32;
    // Find the parking depth that puts the crossing loop exactly on the
    // cache boundary: the shallowest depth at which one iteration already
    // overflows the cache.
    let boundary = (1u32..200)
        .find(|&d| {
            let mut e = engine(Strategy::Cache, &cfg, CheckPolicy::Elide);
            let r = measure(&mut e, "", &w::boundary_loop(d, 2));
            r.metrics.overflows > 0
        })
        .expect("cache boundary within 200 frames");
    for depth in [boundary.saturating_sub(4), boundary.saturating_sub(1), boundary] {
        for s in [Strategy::Cache, Strategy::Segmented] {
            let src = w::boundary_loop(depth, iters);
            let r = measure_on(s, &cfg, &src);
            t.row([
                depth.to_string(),
                s.to_string(),
                fmt_ns(r.nanos),
                r.metrics.overflows.to_string(),
                r.metrics.underflows.to_string(),
                r.metrics.slots_copied.to_string(),
            ]);
        }
    }
    t.note(
        "cache overflow/underflow each copy ~a cacheful; segmented overflow moves \
            only the partial frame and keeps running in the new segment",
    );
    t
}

/// E10 — the looper: tail-recursive capture in constant space (§4).
pub fn e10_looper() -> Table {
    let mut t = Table::new(
        "E10: (looper n) — repeated tail-position capture",
        "capturing on an empty segment reuses the record's link: the control stack \
         must not grow (§4)",
        &["strategy", "time", "captures", "segments/frames allocated", "chain at end"],
    );
    for s in Strategy::ALL {
        let mut e = engine(s, &cfg_default(), CheckPolicy::Elide);
        let r = measure(&mut e, "", &w::looper(200_000));
        let alloc = r.metrics.segments_allocated + r.metrics.heap_frames_allocated;
        t.row([
            s.to_string(),
            fmt_ns(r.nanos),
            r.metrics.captures.to_string(),
            alloc.to_string(),
            e.stack_stats().chain_records.to_string(),
        ]);
    }
    t.note(
        "heap-family strategies allocate per call by design, but the *chain* \
            stays constant for every strategy",
    );
    t
}

/// E11 — memory retained by repeated capture (Danvy's concern, §6).
pub fn e11_repeated_capture() -> Table {
    let mut t = Table::new(
        "E11: memory retained by K captures of one depth-D stack",
        "the naive copy model retains K full copies; the segmented model shares one \
         sealed image across all K; heap/hybrid share the frame list (§6, Danvy)",
        &[
            "strategy",
            "K",
            "D",
            "sum of per-kont reachable slots",
            "heap slots allocated",
            "slots copied",
        ],
    );
    let (k_count, depth) = (25u32, 800u32);
    let src = format!(
        "(define ks '())
         (define (grab i)
           (if (= i 0)
               (length ks)
               (begin (%call/cc (lambda (k) (set! ks (cons k ks)))) (grab (- i 1)))))
         (define (deep n thunk) (if (= n 0) (thunk) (+ 1 (deep (- n 1) thunk))))
         (deep {depth} (lambda () (grab {k_count})))"
    );
    for s in Strategy::ALL {
        let mut e = engine(s, &cfg_default(), CheckPolicy::Elide);
        let r = measure(&mut e, "", &src);
        let retained: usize = match e.global("ks") {
            Some(v) => v
                .list_to_vec()
                .expect("ks is a list")
                .iter()
                .map(|x| match x {
                    Value::Kont(k) => k.retained_slots(),
                    _ => 0,
                })
                .sum(),
            None => 0,
        };
        t.row([
            s.to_string(),
            k_count.to_string(),
            depth.to_string(),
            retained.to_string(),
            r.metrics.heap_slots_allocated.to_string(),
            r.metrics.slots_copied.to_string(),
        ]);
    }
    t.note(
        "per-kont sums double-count shared structure, so they match across \
            strategies; the real memory cost is 'heap slots allocated': copy/cache \
            materialize K full images (Danvy's blowup) while segmented shares the one \
            sealed stack and heap/hybrid share the frame list",
    );
    t
}

/// E12 — continuation-intensive programs: segmented vs. heap (§1: "at worst
/// a constant factor slower").
pub fn e12_cont_intensive() -> Table {
    let mut t = Table::new(
        "E12: continuation-intensive programs, segmented relative to heap",
        "for continuation-intensive programs the segmented stack is at worst a small \
         constant factor slower than the heap model (§1)",
        &["workload", "heap", "segmented", "seg/heap"],
    );
    for (name, src) in [
        ("ctak 14 10 4", w::ctak(14, 10, 4)),
        ("generator drain 50x200", w::generator_drain(50, 200)),
        ("capture@500 x2000", w::capture_at_depth(500, 2000)),
        ("reinstate d=1000 x2000", reinstate_latency(1000, 2000)),
    ] {
        let heap = measure_on(Strategy::Heap, &cfg_default(), &src);
        let seg = measure_on(Strategy::Segmented, &cfg_default(), &src);
        t.row([
            name.to_string(),
            fmt_ns(heap.nanos),
            fmt_ns(seg.nanos),
            fmt_ratio(seg.nanos / heap.nanos),
        ]);
    }
    t
}

/// E13 — typical programs: segmented vs. heap (§1: "significantly faster").
pub fn e13_typical() -> Table {
    let mut t = Table::new(
        "E13: typical (continuation-free) programs, segmented relative to heap",
        "for typical programs the segmented stack is significantly faster than the \
         heap model (§1)",
        &["workload", "heap", "segmented", "seg/heap"],
    );
    for (name, src) in [
        ("fib 22", w::fib(22)),
        ("tak 18 12 6", w::tak(18, 12, 6)),
        ("sort 600", w::sort(600)),
        ("deriv nest-17", w::deriv(17)),
        ("queens 7", w::queens_plain(7)),
        ("boyer 25", w::boyer(25)),
        ("tail-loop 300k", w::tail_loop(300_000)),
    ] {
        let heap = measure_on(Strategy::Heap, &cfg_default(), &src);
        let seg = measure_on(Strategy::Segmented, &cfg_default(), &src);
        t.row([
            name.to_string(),
            fmt_ns(heap.nanos),
            fmt_ns(seg.nanos),
            fmt_ratio(seg.nanos / heap.nanos),
        ]);
    }
    t
}

/// E14 — static frame-size distribution (§6: "99% of all frames are smaller
/// than 30 words").
pub fn e14_frame_sizes() -> Table {
    let mut t = Table::new(
        "E14: static frame sizes of the compiled corpus",
        "Chez's static analysis found 99% of frames smaller than 30 words; our \
         compiled corpus (prelude + control libraries + workloads) is analyzed the \
         same way (§6)",
        &["metric", "slots"],
    );
    let mut e = Engine::new().expect("engine");
    for src in [
        segstack_control::libs::COROUTINES,
        segstack_control::libs::GENERATORS,
        segstack_control::libs::ENGINES,
        segstack_control::libs::AMB,
    ] {
        e.eval(src).expect("control library");
    }
    for src in [
        w::fib(5),
        w::tak(3, 2, 1),
        w::ctak(3, 2, 1),
        w::sort(4),
        w::deriv(2),
        w::queens_plain(4),
        w::generator_drain(2, 1),
        w::deep_sum(5),
        w::tail_loop(5),
        w::looper(2),
    ] {
        e.eval(&src).expect("workload");
    }
    let mut sizes = e.frame_sizes();
    sizes.sort_unstable();
    let n = sizes.len();
    let pct = |p: f64| sizes[(((n - 1) as f64) * p) as usize];
    let under_30 = sizes.iter().filter(|&&s| s < 30).count() as f64 / n as f64 * 100.0;
    t.row(["chunks compiled".into(), n.to_string()]);
    t.row(["median frame".into(), pct(0.5).to_string()]);
    t.row(["p90 frame".into(), pct(0.9).to_string()]);
    t.row(["p99 frame".into(), pct(0.99).to_string()]);
    t.row(["max frame".into(), sizes[n - 1].to_string()]);
    t.row(["% under 30 slots".into(), format!("{under_30:.1}%")]);
    t
}

/// E15 — worker-count scaling of the serve runtime (engines from
/// continuations as a multi-worker service; §4–§5 engine application).
pub fn e15_serve_scaling() -> Table {
    let mut t = Table::new(
        "E15: serve-runtime throughput vs. worker count (mixed 400-job load)",
        "shared-nothing workers with engine-quantum preemption scale aggregate \
         throughput near-linearly until the host runs out of cores; fairness stays \
         flat because quanta are granted round-robin",
        &[
            "workers",
            "strategy",
            "jobs",
            "jobs/s",
            "speedup vs 1",
            "p50 latency",
            "p99 latency",
            "fairness",
        ],
    );
    let (jobs, quantum, seed) = (400usize, 5_000u64, 42u64);
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let r = crate::serve_load::run_load(workers, jobs, quantum, seed);
        assert_eq!(r.failed, 0, "load run must complete cleanly");
        let tput = r.throughput();
        let base_tput = *base.get_or_insert(tput);
        t.row([
            workers.to_string(),
            "(all)".to_string(),
            r.completed.to_string(),
            format!("{tput:.0}"),
            fmt_ratio(tput / base_tput),
            fmt_ns(r.latency_pct(0.50).as_nanos() as f64),
            fmt_ns(r.latency_pct(0.99).as_nanos() as f64),
            format!("{:.2}", r.fairness()),
        ]);
        let wall = r.wall.as_secs_f64().max(1e-9);
        for (name, samples) in r.by_strategy() {
            let p = |q: f64| crate::serve_load::percentile(samples.iter().map(|s| s.latency), q);
            t.row([
                workers.to_string(),
                name,
                samples.len().to_string(),
                format!("{:.0}", samples.len() as f64 / wall),
                String::new(),
                fmt_ns(p(0.50).as_nanos() as f64),
                fmt_ns(p(0.99).as_nanos() as f64),
                String::new(),
            ]);
        }
    }
    t.note(
        "each worker owns its engines outright (the VM is deliberately not \
            Send); the only cross-thread traffic is the bounded admission queue",
    );
    t.note(
        "latency counts queue wait (all 400 jobs are submitted up front), so \
            per-job latency falls with worker count alongside aggregate throughput",
    );
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    t.note(format!(
        "this host exposes {cores} core(s); speedup saturates at min(workers, cores) — \
         a flat curve on a 1-core host measures pure scheduling overhead (~5-10%)"
    ));
    t
}

/// E16 — coroutine ping-pong: multi-shot `%call/cc` vs. one-shot
/// `%call/1cc` switches (the relink fast path at the Scheme level).
pub fn e16_pingpong() -> Table {
    let mut t = Table::new(
        "E16: coroutine ping-pong — %call/cc vs. %call/1cc switches",
        "declaring a switch continuation one-shot lets the segmented stack reinstate \
         it by relinking the suspended side's segment chain; the copy path's \
         per-switch slot traffic disappears",
        &[
            "strategy",
            "capture",
            "time",
            "ns/switch",
            "slots copied/switch",
            "relinked switches",
            "copy slots avoided",
        ],
    );
    // Sides parked deep enough that each lives past a segment boundary.
    let cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let (spacer, rounds) = (600u32, 20_000u32);
    for s in Strategy::ALL {
        for cap in ["%call/cc", "%call/1cc"] {
            let src = w::pingpong(cap, spacer, rounds);
            let r = measure_on(s, &cfg, &src);
            let switches = r.metrics.reinstatements.max(1) as f64;
            t.row([
                s.to_string(),
                cap.to_string(),
                fmt_ns(r.nanos),
                format!("{:.0}", r.nanos / switches),
                format!("{:.1}", r.metrics.slots_copied as f64 / switches),
                r.metrics.reinstates_relinked.to_string(),
                r.metrics.slots_copy_avoided.to_string(),
            ]);
        }
    }
    t.note(
        "every strategy accepts %call/1cc (the one-shot contract is checked \
            uniformly); only the segmented machine converts it into zero-copy relinks",
    );
    t
}

/// E17 — reinstatement cost vs. chain depth: the unshared one-shot fast
/// path stays flat while the shared copy path grows linearly (core-level).
pub fn e17_relink_depth() -> Table {
    let mut t = Table::new(
        "E17: reinstate cost vs. continuation depth — relink vs. copy (core)",
        "with a uniquely-owned one-shot target the segmented stack relinks in O(1) \
         and copies nothing at any depth; a shared multi-shot target of the same \
         shape pays a copy linear in depth (copy bound set above the deepest image)",
        &[
            "depth",
            "target",
            "ns/reinstate",
            "slots copied/reinstate",
            "relinked",
            "copy slots avoided",
        ],
    );
    let rounds = 400u32;
    let code = std::rc::Rc::new(TestCode::new());
    for depth in [64usize, 256, 1024, 4096] {
        // One segment holds the whole tower and the copy bound never
        // splits, so the copy path pays the full image every time.
        let slots = depth * 8 + 4096;
        let cfg = Config::builder()
            .segment_slots(slots)
            .frame_bound(64)
            .copy_bound(slots)
            .build()
            .unwrap();
        for one_shot in [true, false] {
            let mut stack = SegmentedStack::<TestSlot>::new(cfg.clone(), code.clone()).unwrap();
            sim::push_frames(&mut stack, &code, depth, 8);
            stack.metrics_mut().reset();
            let start = Instant::now();
            for _ in 0..rounds {
                sim::push_frames(&mut stack, &code, 1, 8);
                let k = if one_shot { stack.capture_one_shot() } else { stack.capture() };
                // Resume from an unrelated context (a scheduler's empty
                // stack): the machine detaches from the sealed tower, so
                // the only remaining handle is the continuation itself.
                stack.reset();
                stack.reinstate(&k).expect("reinstate");
            }
            let nanos = start.elapsed().as_nanos() as f64;
            let m = stack.metrics();
            let n = m.reinstatements.max(1) as f64;
            t.row([
                depth.to_string(),
                if one_shot { "one-shot (unshared)" } else { "multi-shot (shared)" }.to_string(),
                format!("{:.0}", nanos / n),
                format!("{:.1}", m.slots_copied as f64 / n),
                m.reinstates_relinked.to_string(),
                m.slots_copy_avoided.to_string(),
            ]);
        }
    }
    t.note(
        "each round seals the whole tower and reinstates it once; the one-shot \
            handle dies with the reinstatement, so the record is relinked in place — \
            slots copied stays exactly 0 while the shared path scales with depth",
    );
    t
}

/// A1 — ablation: the §4 empty-segment capture rule on vs. off.
pub fn a1_tail_rule() -> Table {
    let mut t = Table::new(
        "A1 (ablation): the empty-segment capture rule, on vs. off",
        "without the rule, every tail-position capture chains a record and the \
         control stack grows without bound — the §4 looper failure",
        &["looper n", "rule", "time", "records allocated", "chain at end"],
    );
    for n in [20_000u32, 100_000] {
        for on in [true, false] {
            let cfg = if on {
                Config::default()
            } else {
                Config::builder().disable_tail_capture_rule().build().unwrap()
            };
            let mut e = engine(Strategy::Segmented, &cfg, CheckPolicy::Elide);
            let r = measure(&mut e, "", &w::looper(n));
            t.row([
                n.to_string(),
                if on { "on (paper)" } else { "off (naive)" }.to_string(),
                fmt_ns(r.nanos),
                r.metrics.stack_records_allocated.to_string(),
                e.stack_stats().chain_records.to_string(),
            ]);
        }
    }
    t.note(
        "with the rule: O(1) records regardless of n; without: one record per \
            capture, linearly growing memory and teardown cost",
    );
    t
}

/// A2 — ablation: segment size.
pub fn a2_segment_size() -> Table {
    let mut t = Table::new(
        "A2 (ablation): segment size vs. overflow frequency",
        "segments are allocated in large chunks to reduce the frequency of stack \
         overflows (§4); small segments trade memory for overflow churn",
        &["segment slots", "workload", "time", "overflows", "slots copied"],
    );
    for slots in [256usize, 1024, 4096, 16 * 1024, 64 * 1024] {
        let cfg =
            Config::builder().segment_slots(slots).frame_bound(64).copy_bound(128).build().unwrap();
        for (name, src) in
            [("deep-sum 60k", w::deep_sum(60_000)), ("ctak 14 10 4", w::ctak(14, 10, 4))]
        {
            let r = measure_on(Strategy::Segmented, &cfg, &src);
            t.row([
                slots.to_string(),
                name.to_string(),
                fmt_ns(r.nanos),
                r.metrics.overflows.to_string(),
                r.metrics.slots_copied.to_string(),
            ]);
        }
    }
    t
}

/// A3 — ablation: segment pooling on vs. off.
pub fn a3_pooling() -> Table {
    let mut t = Table::new(
        "A3 (ablation): segment reuse pool on vs. off",
        "retired segments are pooled so steady-state overflow/underflow cycles do \
         not thrash the allocator (implementation choice; the paper allocates \
         segments from the heap)",
        &["pool", "workload", "time", "fresh segments", "reused segments"],
    );
    for pool in [0usize, 4] {
        let cfg = Config::builder()
            .segment_slots(512)
            .frame_bound(48)
            .copy_bound(32)
            .pool_segments(pool)
            .build()
            .unwrap();
        let src = "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1)))))
                   (do ((i 0 (+ i 1))) ((= i 200)) (sum 100))";
        let r = measure_on(Strategy::Segmented, &cfg, src);
        t.row([
            if pool == 0 { "off".into() } else { format!("{pool} segments") },
            "200 x (sum 100)".to_string(),
            fmt_ns(r.nanos),
            r.metrics.segments_allocated.to_string(),
            r.metrics.segments_reused.to_string(),
        ]);
    }
    t
}

/// Builds a segmented engine recording into `sink`.
fn traced_engine(cfg: &Config, sink: Rc<RefCell<RingSink>>) -> Engine {
    Engine::builder()
        .strategy(Strategy::Segmented)
        .config(cfg.clone())
        .check_policy(CheckPolicy::Elide)
        .trace_sink(sink)
        .build()
        .expect("traced engine construction")
}

/// E18 — event-tracing overhead: an untraced engine vs. one recording
/// into a ring, on the E1 call workloads and the E16 switch workload.
pub fn e18_trace_overhead() -> Table {
    let mut t = Table::new(
        "E18: event-tracing overhead — untraced vs. traced (recording ring)",
        "every event site sits off the call/return path and both engines run the \
         same statically dispatched segmented stack, so call-only work costs the \
         same traced or not; the recording ring prices every \
         capture/reinstate/overflow/underflow at one ring write",
        &["workload", "tracing", "time", "overhead", "events recorded", "events dropped"],
    );
    let e16_cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let workloads = [
        ("fib 20 (E1 calls)", w::fib(20), Config::default()),
        ("tail-loop 300k (E1)", w::tail_loop(300_000), Config::default()),
        ("pingpong %call/cc 600x6k (E16)", w::pingpong("%call/cc", 600, 6_000), e16_cfg.clone()),
        ("pingpong %call/1cc 600x20k (E16)", w::pingpong("%call/1cc", 600, 20_000), e16_cfg),
    ];
    let reps = 5;
    for (name, src, cfg) in workloads {
        // One warm pass off the measured engines, then interleaved
        // untraced/traced pairs: the host allocator's state drifts over a
        // long harness run, so only a ratio taken *within* a pair isolates
        // the tracing cost — the median pair ratio is the reported overhead.
        engine(Strategy::Segmented, &cfg, CheckPolicy::Elide).eval(&src).expect("warmup");
        let sink = Rc::new(RefCell::new(RingSink::new()));
        let mut untraced_best = f64::MAX;
        let mut traced_best = f64::MAX;
        let mut ratios = Vec::with_capacity(reps);
        for rep in 0..reps {
            // Alternate which engine runs first within the pair, so any
            // monotone drift inside a pair biases half the ratios up and
            // half down — the median cancels it.
            let run_untraced = |_: usize| {
                let mut e = engine(Strategy::Segmented, &cfg, CheckPolicy::Elide);
                measure(&mut e, "", &src)
            };
            let run_traced = |_: usize| {
                sink.borrow_mut().reset();
                let mut e = traced_engine(&cfg, sink.clone());
                measure(&mut e, "", &src)
            };
            let (untraced, traced) = if rep % 2 == 0 {
                let u = run_untraced(rep);
                (u, run_traced(rep))
            } else {
                let t = run_traced(rep);
                (run_untraced(rep), t)
            };
            untraced_best = untraced_best.min(untraced.nanos);
            traced_best = traced_best.min(traced.nanos);
            ratios.push(traced.nanos / untraced.nanos);
        }
        ratios.sort_by(f64::total_cmp);
        let overhead = (ratios[reps / 2] - 1.0) * 100.0;
        let (recorded, dropped) = (sink.borrow().total_recorded(), sink.borrow().dropped());
        t.row([
            name.to_string(),
            "untraced".to_string(),
            fmt_ns(untraced_best),
            "(baseline)".to_string(),
            "0".to_string(),
            "0".to_string(),
        ]);
        t.row([
            name.to_string(),
            "traced".to_string(),
            fmt_ns(traced_best),
            format!("{overhead:+.1}%"),
            recorded.to_string(),
            dropped.to_string(),
        ]);
    }
    t.note(
        "measured on the segmented strategy, where every hook fires; call-only \
            workloads emit few events (overflow/underflow only) while the switch \
            workload writes several events per reinstatement — the worst case",
    );
    t.note(
        "the ring is drop-oldest at fixed capacity, so recording cost is flat: \
            aggregates (counts, histograms) survive any number of drops",
    );
    t.note(
        "overhead is the median of per-pair time ratios (untraced and traced \
            measured back-to-back), which cancels allocator drift across a long \
            harness run; times shown are each engine's best rep",
    );
    t
}

/// E19 — the check policies on the superinstruction/inline-cache VM,
/// priced against the unsound `never` floor (Fig 8, §5).
///
/// `never` compiles every call check-free, which is only sound here
/// because the segment outruns the recursion; the gap between the best
/// sound policy and `never` is the residual cost of overflow safety.
pub fn e19_check_policies() -> Table {
    let mut t = Table::new(
        "E19: check policies on the fused-dispatch VM vs the unchecked floor",
        "with superinstructions and monomorphic inline caches shrinking the \
         per-call baseline every policy shares, a checked call costs no more \
         than the unchecked floor (Fig 8, §5)",
        &["workload", "policy", "time", "vs never", "checks executed", "ic hits", "ic misses"],
    );
    // `Never` is only sound when the segment outruns the recursion.
    let big = Config::builder().segment_slots(4 * 1024 * 1024).frame_bound(64).build().unwrap();
    let mk = |policy: CheckPolicy| -> Engine {
        Engine::builder()
            .strategy(Strategy::Segmented)
            .config(big.clone())
            .check_policy(policy)
            .build()
            .expect("engine construction")
    };
    let reps = 5;
    for (name, src) in [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("lcg-let-loop 300k", w::lcg_let_loop(300_000)),
        ("leaf-heavy sort 600", w::sort(600)),
        ("nested-helper 200k", w::nested_helper(200_000)),
    ] {
        mk(CheckPolicy::Elide).eval(&src).expect("warmup");
        let mut never_best = f64::MAX;
        let mut never_metrics = Metrics::default();
        for (label, policy) in [("always", CheckPolicy::Always), ("elide", CheckPolicy::Elide)] {
            // Interleaved pairs (the E18 methodology): the policy under
            // test and the `never` floor run back to back in alternating
            // order, and the reported gap is the median per-pair ratio —
            // allocator drift over the harness run cancels out.
            let mut ratios = Vec::with_capacity(reps);
            let mut best = f64::MAX;
            let mut metrics = Metrics::default();
            for rep in 0..reps {
                let (p, n) = if rep % 2 == 0 {
                    let p = measure(&mut mk(policy), "", &src);
                    (p, measure(&mut mk(CheckPolicy::Never), "", &src))
                } else {
                    let n = measure(&mut mk(CheckPolicy::Never), "", &src);
                    (measure(&mut mk(policy), "", &src), n)
                };
                assert_eq!(p.value, n.value, "{name}: policies must agree");
                never_best = never_best.min(n.nanos);
                best = best.min(p.nanos);
                ratios.push(p.nanos / n.nanos);
                metrics = p.metrics;
                never_metrics = n.metrics;
            }
            ratios.sort_by(f64::total_cmp);
            let gap = (ratios[reps / 2] - 1.0) * 100.0;
            t.row([
                name.to_string(),
                label.to_string(),
                fmt_ns(best),
                format!("{gap:+.1}%"),
                metrics.checks_executed.to_string(),
                metrics.ic_hits.to_string(),
                metrics.ic_misses.to_string(),
            ]);
        }
        t.row([
            name.to_string(),
            "never".to_string(),
            fmt_ns(never_best),
            "(floor)".to_string(),
            never_metrics.checks_executed.to_string(),
            never_metrics.ic_hits.to_string(),
            never_metrics.ic_misses.to_string(),
        ]);
    }
    t.note(
        "vs-never is the median of per-pair time ratios (policy and floor \
            measured back-to-back in alternating order); times shown are each \
            policy's best rep",
    );
    t.note(
        "lcg-let-loop and nested-helper are helper chains whose non-leaf calls \
            keep their checks under elide; the checks they execute cost no \
            measurable time over the floor",
    );
    t
}

/// The harness `--trace-out` body: a canonical continuation-heavy run on
/// a traced segmented engine (one-shot coroutine switches past a segment
/// boundary, then the ctak torture test), drained as one core timeline.
pub fn traced_core_trace() -> Vec<OwnerTrace> {
    let cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let sink = Rc::new(RefCell::new(RingSink::new()));
    let mut e = traced_engine(&cfg, sink.clone());
    e.eval(&w::pingpong("%call/1cc", 600, 2_000)).expect("pingpong workload");
    e.eval(&w::ctak(12, 8, 4)).expect("ctak workload");
    let trace = sink.borrow_mut().take_trace("segmented-core", 1);
    vec![trace]
}

/// An experiment's id and generator function.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment in order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("e01", e01_calls),
        ("e02", e02_capture_depth),
        ("e03", e03_reinstate_size),
        ("e04", e04_walk),
        ("e05", e05_capture_all),
        ("e06", e06_reinstate_all),
        ("e07", e07_copybound_sweep),
        ("e08", e08_overflow_checks),
        ("e09", e09_bouncing),
        ("e10", e10_looper),
        ("e11", e11_repeated_capture),
        ("e12", e12_cont_intensive),
        ("e13", e13_typical),
        ("e14", e14_frame_sizes),
        ("e15", e15_serve_scaling),
        ("e16", e16_pingpong),
        ("e17", e17_relink_depth),
        ("e18", e18_trace_overhead),
        ("e19", e19_check_policies),
        ("a1", a1_tail_rule),
        ("a2", a2_segment_size),
        ("a3", a3_pooling),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-check the cheap experiments end to end (heavy ones run via the
    /// harness binary).
    #[test]
    fn frame_size_analysis_runs() {
        let t = e14_frame_sizes();
        assert!(t.rows.iter().any(|r| r[0] == "% under 30 slots"));
    }

    #[test]
    fn walk_experiment_runs() {
        let t = e04_walk();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn measure_reports_counters() {
        let mut e = engine(Strategy::Segmented, &Config::default(), CheckPolicy::Elide);
        let r = measure(&mut e, "(define (f x) (+ x 1))", "(f 1)");
        assert_eq!(r.value, "2");
        assert!(r.metrics.call_interface_ops() >= 1);
        assert!(r.nanos > 0.0);
    }
}
