//! The experiment suite: one function per table/figure of DESIGN.md §4.
//!
//! Every experiment reports wall-clock time *and* architecture-independent
//! counters (slots copied, frames allocated, checks executed), so the
//! paper's comparative claims are checked both ways. Absolute times depend
//! on the host; the *shape* — who wins, by what factor, where crossovers
//! fall — is the reproduction target.
//!
//! Every time comes from one sampler, [`sample`]. It takes the variants of
//! one row group (one program on several strategies, configurations or
//! check policies, traced or not), runs each once unmeasured, then runs
//! [`ROUNDS`] rounds, each variant on a fresh engine and in alternating
//! order. Each variant's times reduce to a median with quartiles, and to
//! per-round ratios against the first variant. The sampler also asserts
//! that every round repeats its variant's counters exactly and that every
//! variant prints the same value.

use std::cell::RefCell;
use std::fmt::Debug;
use std::rc::Rc;
use std::time::Instant;

use segstack_baselines::Strategy;
use segstack_core::trace::{OwnerTrace, RingSink};
use segstack_core::{
    sim, walker, Config, ControlStack, Metrics, ReturnAddress, SegmentedStack, TestCode, TestSlot,
};
use segstack_scheme::{CheckPolicy, Engine, Value};

use crate::table::{Cell, Stat, Table};
use crate::workloads as w;

/// Timed rounds per variant, after one unmeasured warm-up run.
pub const ROUNDS: usize = 7;

/// One timed run of a variant: its wall time, the counters it
/// accumulated, and the value it printed.
#[derive(Clone, Debug)]
pub struct Run<C = Metrics> {
    /// Wall-clock nanoseconds of the measured phase.
    pub nanos: f64,
    /// Counters of the measured phase; every round must repeat them.
    pub counters: C,
    /// Printed result; every variant must print the same.
    pub value: String,
}

impl Run {
    /// Adds state read after the run (a chain length, an event count) to
    /// the counters every round must repeat.
    pub fn with<T>(self, extra: T) -> Run<(Metrics, T)> {
        Run { nanos: self.nanos, counters: (self.counters, extra), value: self.value }
    }
}

/// One variant's rounds.
#[derive(Clone, Debug)]
pub struct Sampled<C = Metrics> {
    /// The counters every round repeated.
    pub counters: C,
    /// Wall-clock nanoseconds, one per round.
    pub nanos: Vec<f64>,
    /// Each round's time over the first variant's time in the same round.
    pub ratios: Vec<f64>,
}

impl<C> Sampled<C> {
    /// The round times.
    pub fn time(&self) -> Stat {
        Stat::of(&self.nanos, "ns")
    }

    /// The round times divided by `ops` operations, in `unit`.
    pub fn per(&self, ops: u64, unit: &'static str) -> Stat {
        let ops = ops.max(1) as f64;
        let per: Vec<f64> = self.nanos.iter().map(|n| n / ops).collect();
        Stat::of(&per, unit)
    }

    /// The per-round time ratios to the first variant.
    pub fn ratio(&self) -> Stat {
        Stat::of(&self.ratios, "x")
    }
}

/// Samples `variants` ways of running one program; `run(v)` runs variant
/// `v` once, on a fresh engine or stack.
///
/// Each variant runs once unmeasured, then [`ROUNDS`] times. Even rounds
/// run the variants in order and odd rounds in reverse, so drift during a
/// round biases half of each variant's ratios up and half down, and the
/// median cancels it.
///
/// # Panics
///
/// If a variant's counters differ between rounds, or two variants print
/// different values.
pub fn sample<C: PartialEq + Debug>(
    variants: usize,
    mut run: impl FnMut(usize) -> Run<C>,
) -> Vec<Sampled<C>> {
    assert!(variants > 0, "nothing to sample");
    for v in 0..variants {
        run(v);
    }
    let mut runs: Vec<Vec<Run<C>>> = (0..variants).map(|_| Vec::with_capacity(ROUNDS)).collect();
    for round in 0..ROUNDS {
        for k in 0..variants {
            let v = if round % 2 == 0 { k } else { variants - 1 - k };
            runs[v].push(run(v));
        }
    }
    let value = runs[0][0].value.clone();
    let first: Vec<f64> = runs[0].iter().map(|r| r.nanos).collect();
    runs.into_iter()
        .enumerate()
        .map(|(v, rounds)| {
            for r in &rounds {
                assert_eq!(
                    r.counters, rounds[0].counters,
                    "variant {v}: counters differ between rounds"
                );
                assert_eq!(r.value, value, "variant {v} printed a different value than variant 0");
            }
            let nanos: Vec<f64> = rounds.iter().map(|r| r.nanos).collect();
            let ratios = nanos.iter().zip(&first).map(|(n, f)| n / f).collect();
            let counters = rounds.into_iter().next().expect("at least one round").counters;
            Sampled { counters, nanos, ratios }
        })
        .collect()
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

/// Times one `eval` of `src` on `e`, counting from zeroed counters.
pub fn timed_eval(e: &mut Engine, src: &str) -> Run {
    e.reset_metrics();
    let start = Instant::now();
    let v = e.eval(src).expect("measured program");
    let nanos = start.elapsed().as_nanos() as f64;
    Run { nanos, counters: e.metrics().clone(), value: v.to_string() }
}

/// Samples `src` on each of `strategies`.
fn on_strategies(strategies: &[Strategy], cfg: &Config, src: &str) -> Vec<Sampled> {
    sample(strategies.len(), |v| {
        timed_eval(&mut engine(strategies[v], cfg, CheckPolicy::Elide), src)
    })
}

/// Samples `src` on the segmented stack under each of `cfgs`.
fn on_configs(cfgs: &[Config], src: &str) -> Vec<Sampled> {
    sample(cfgs.len(), |v| {
        timed_eval(&mut engine(Strategy::Segmented, &cfgs[v], CheckPolicy::Elide), src)
    })
}

/// `count` per operation, as an exact cell.
fn per_op(count: u64, ops: u64) -> Cell {
    (count as f64 / ops.max(1) as f64).into()
}

/// A strategy's name as a cell.
fn name(s: Strategy) -> Cell {
    s.to_string().into()
}

fn cfg_default() -> Config {
    Config::default()
}

/// The note every strategy comparison of engine run times carries.
const DISPATCH_NOTE: &str = "the segmented rows run statically dispatched and the baseline rows \
                             behind Box<dyn ControlStack>, so baseline times include dynamic \
                             dispatch on every stack operation";

/// E1 — ordinary procedure calls across all strategies (Fig 1 vs Fig 3;
/// §1: heap allocation slows ordinary calls).
pub fn e01_calls() -> Table {
    let mut t = Table::new(
        "E1: ordinary call/return cost by strategy",
        "heap allocation makes ordinary calls slower; the segmented stack keeps the \
         traditional stack's cheap call interface (§1, §2, Fig 1-3)",
        &[
            "workload",
            "strategy",
            "time",
            "ns/call-op",
            "vs segmented",
            "heap frames",
            "slots copied",
        ],
    );
    for (workload, src) in [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("tail-loop 300k", w::tail_loop(300_000)),
    ] {
        let runs = on_strategies(&Strategy::ALL, &cfg_default(), &src);
        for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
            let m = &r.counters;
            t.row(vec![
                workload.into(),
                name(s),
                r.time().into(),
                r.per(m.call_interface_ops(), "ns/call-op").into(),
                r.ratio().into(),
                m.heap_frames_allocated.into(),
                m.slots_copied.into(),
            ]);
        }
    }
    t.note(
        "the heap model allocates a frame per call AND per tail call; stack-based \
            strategies allocate none",
    );
    t.note(DISPATCH_NOTE);
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
    for depth in [10u32, 100, 500, 2000] {
        let runs =
            on_strategies(&Strategy::ALL, &cfg_default(), &w::capture_at_depth(depth, 2_000));
        for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
            let caps = r.counters.captures;
            t.row(vec![
                depth.into(),
                name(s),
                r.per(caps, "ns/capture-cycle").into(),
                per_op(r.counters.slots_copied, caps),
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
    let strategies = [Strategy::Segmented, Strategy::Copy, Strategy::Heap, Strategy::Incremental];
    for depth in [50u32, 200, 1000, 4000] {
        let runs = on_strategies(&strategies, &cfg_default(), &reinstate_latency(depth, 2_000));
        for (s, r) in strategies.into_iter().zip(&runs) {
            let n = r.counters.reinstatements;
            t.row(vec![
                depth.into(),
                name(s),
                r.per(n, "ns/reinstate").into(),
                per_op(r.counters.slots_copied, n),
                r.counters.splits.into(),
            ]);
        }
    }
    t.note(
        "copy reinstates the whole image (linear in depth); segmented copies a \
            bounded prefix and splits the rest lazily; heap shares frames",
    );
    t
}

/// Times `walks` walks over a synthetic segment of `frames` 8-slot frames,
/// whose boundaries only the code stream's frame-size words record;
/// counts the frames the walks found.
fn walk_frames(frames: usize, walks: u64) -> Run<usize> {
    let code = TestCode::new();
    let mut buf = vec![TestSlot::Empty; frames * 8 + 8];
    buf[0] = TestSlot::Ra(ReturnAddress::Exit);
    let mut top = 0;
    let mut ra = None;
    for _ in 0..frames {
        if let Some(ra) = ra {
            buf[top] = TestSlot::Ra(ReturnAddress::Code(ra));
        }
        ra = Some(code.ret_point(8));
        top += 8;
    }
    let ra = ra.expect("at least one frame");
    let start = Instant::now();
    let mut found = 0;
    for _ in 0..walks {
        found += walker::frames(&buf, 0, top, ra, &code).len();
    }
    Run { nanos: start.elapsed().as_nanos() as f64, counters: found, value: String::new() }
}

/// E4 — stack walking via code-stream frame-size words (Fig 4).
pub fn e04_walk() -> Table {
    let mut t = Table::new(
        "E4: stack-walk cost vs. frame count (core, synthetic frames)",
        "walkers recover every frame boundary from return addresses alone, in time \
         linear in the frame count (Fig 4)",
        &["frames", "time/walk", "ns/frame"],
    );
    let walks = 2_000u64;
    for frames in [16usize, 256, 4096] {
        let runs = sample(1, |_| walk_frames(frames, walks));
        let r = &runs[0];
        t.row(vec![
            frames.into(),
            r.per(walks, "ns").into(),
            r.per(walks * frames as u64, "ns/frame").into(),
        ]);
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
    let runs = on_strategies(&Strategy::ALL, &cfg_default(), &w::capture_at_depth(1000, 2000));
    for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
        let caps = r.counters.captures;
        t.row(vec![
            name(s),
            r.per(caps, "ns/capture").into(),
            per_op(r.counters.slots_copied, caps),
            per_op(r.counters.heap_slots_allocated, caps),
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
    let runs = on_strategies(&Strategy::ALL, &cfg_default(), &reinstate_latency(1000, 2000));
    for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
        let n = r.counters.reinstatements;
        t.row(vec![name(s), r.per(n, "ns/reinstate").into(), per_op(r.counters.slots_copied, n)]);
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
        &["workload", "copy bound", "time", "splits", "slots copied"],
    );
    let bounds = [4usize, 16, 64, 128, 512, 2048];
    let cfgs: Vec<Config> = bounds
        .iter()
        .map(|&b| {
            Config::builder()
                .segment_slots(16 * 1024)
                .frame_bound(64)
                .copy_bound(b)
                .build()
                .unwrap()
        })
        .collect();
    for (workload, src) in [
        ("ctak 14 10 4", w::ctak(14, 10, 4)),
        ("reinstate d=2000", reinstate_latency(2000, 2000)),
        ("deep-sum 60k", w::deep_sum(60_000)),
    ] {
        for (bound, r) in bounds.into_iter().zip(&on_configs(&cfgs, &src)) {
            t.row(vec![
                workload.into(),
                bound.into(),
                r.time().into(),
                r.counters.splits.into(),
                r.counters.slots_copied.into(),
            ]);
        }
    }
    t
}

/// A segment the check-policy experiments' recursion never outruns, so
/// `never` is sound.
fn unchecked_safe() -> Config {
    Config::builder().segment_slots(4 * 1024 * 1024).frame_bound(64).build().unwrap()
}

/// Samples `src` on the segmented stack under each of `policies`.
fn on_policies(policies: &[CheckPolicy], src: &str) -> Vec<Sampled> {
    let cfg = unchecked_safe();
    sample(policies.len(), |v| timed_eval(&mut engine(Strategy::Segmented, &cfg, policies[v]), src))
}

/// E8 — overflow-check cost and elision (Fig 8, §5).
pub fn e08_overflow_checks() -> Table {
    let mut t = Table::new(
        "E8: overflow-check policies (segmented)",
        "explicit checks are one register compare per call; leaves and tail loops \
         never check (Fig 8, §5)",
        &["workload", "policy", "time", "checks executed", "checks elided"],
    );
    let policies = [CheckPolicy::Always, CheckPolicy::Elide, CheckPolicy::Never];
    for (workload, src) in [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("tail-loop 300k", w::tail_loop(300_000)),
        ("leaf-heavy sort 600", w::sort(600)),
        ("lcg-let-loop 300k", w::lcg_let_loop(300_000)),
    ] {
        for (label, r) in
            ["always", "elide", "never"].into_iter().zip(&on_policies(&policies, &src))
        {
            t.row(vec![
                workload.into(),
                label.into(),
                r.time().into(),
                r.counters.checks_executed.into(),
                r.counters.checks_elided.into(),
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
    // Find the parking depth that puts the crossing loop exactly on the
    // cache boundary: the shallowest depth at which one iteration already
    // overflows the cache.
    let boundary = (1u32..200)
        .find(|&d| {
            let mut e = engine(Strategy::Cache, &cfg, CheckPolicy::Elide);
            timed_eval(&mut e, &w::boundary_loop(d, 2)).counters.overflows > 0
        })
        .expect("cache boundary within 200 frames");
    let strategies = [Strategy::Cache, Strategy::Segmented];
    for depth in [boundary.saturating_sub(4), boundary.saturating_sub(1), boundary] {
        let runs = on_strategies(&strategies, &cfg, &w::boundary_loop(depth, 20_000));
        for (s, r) in strategies.into_iter().zip(&runs) {
            t.row(vec![
                depth.into(),
                name(s),
                r.time().into(),
                r.counters.overflows.into(),
                r.counters.underflows.into(),
                r.counters.slots_copied.into(),
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
    let src = w::looper(200_000);
    let runs = sample(Strategy::ALL.len(), |v| {
        let mut e = engine(Strategy::ALL[v], &cfg_default(), CheckPolicy::Elide);
        let r = timed_eval(&mut e, &src);
        r.with(e.stack_stats().chain_records)
    });
    for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
        let (m, chain) = &r.counters;
        t.row(vec![
            name(s),
            r.time().into(),
            m.captures.into(),
            (m.segments_allocated + m.heap_frames_allocated).into(),
            (*chain).into(),
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
            "time",
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
    let runs = sample(Strategy::ALL.len(), |v| {
        let mut e = engine(Strategy::ALL[v], &cfg_default(), CheckPolicy::Elide);
        let r = timed_eval(&mut e, &src);
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
        r.with(retained)
    });
    for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
        let (m, retained) = &r.counters;
        t.row(vec![
            name(s),
            k_count.into(),
            depth.into(),
            r.time().into(),
            (*retained).into(),
            m.heap_slots_allocated.into(),
            m.slots_copied.into(),
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

/// Samples each workload on the heap model and the segmented stack, one
/// row per workload with the segmented/heap ratio.
fn heap_vs_segmented(t: &mut Table, workloads: &[(&str, String)]) {
    for (workload, src) in workloads {
        let runs = on_strategies(&[Strategy::Heap, Strategy::Segmented], &cfg_default(), src);
        t.row(vec![
            (*workload).into(),
            runs[0].time().into(),
            runs[1].time().into(),
            runs[1].ratio().into(),
        ]);
    }
    t.note(DISPATCH_NOTE);
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
    heap_vs_segmented(
        &mut t,
        &[
            ("ctak 14 10 4", w::ctak(14, 10, 4)),
            ("generator drain 50x200", w::generator_drain(50, 200)),
            ("capture@500 x2000", w::capture_at_depth(500, 2000)),
            ("reinstate d=1000 x2000", reinstate_latency(1000, 2000)),
        ],
    );
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
    heap_vs_segmented(
        &mut t,
        &[
            ("fib 22", w::fib(22)),
            ("tak 18 12 6", w::tak(18, 12, 6)),
            ("sort 600", w::sort(600)),
            ("deriv nest-17", w::deriv(17)),
            ("queens 7", w::queens_plain(7)),
            ("boyer 25", w::boyer(25)),
            ("tail-loop 300k", w::tail_loop(300_000)),
        ],
    );
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
    let pct = |p: f64| u64::from(sizes[(((n - 1) as f64) * p) as usize]);
    let under_30 = sizes.iter().filter(|&&s| s < 30).count() as f64 / n as f64 * 100.0;
    t.row(vec!["chunks compiled".into(), n.into()]);
    t.row(vec!["median frame".into(), pct(0.5).into()]);
    t.row(vec!["p90 frame".into(), pct(0.9).into()]);
    t.row(vec!["p99 frame".into(), pct(0.99).into()]);
    t.row(vec!["max frame".into(), u64::from(sizes[n - 1]).into()]);
    t.row(vec!["% under 30 slots".into(), under_30.into()]);
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
            "vs %call/cc",
            "ns/switch",
            "slots copied/switch",
            "relinked switches",
            "copy slots avoided",
        ],
    );
    // Sides parked deep enough that each lives past a segment boundary.
    let cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let caps = ["%call/cc", "%call/1cc"];
    let srcs = caps.map(|cap| w::pingpong(cap, 600, 20_000));
    for s in Strategy::ALL {
        let runs =
            sample(caps.len(), |v| timed_eval(&mut engine(s, &cfg, CheckPolicy::Elide), &srcs[v]));
        for (v, r) in runs.iter().enumerate() {
            let m = &r.counters;
            let switches = m.reinstatements;
            t.row(vec![
                name(s),
                caps[v].into(),
                r.time().into(),
                if v == 0 { "(baseline)".into() } else { r.ratio().into() },
                r.per(switches, "ns/switch").into(),
                per_op(m.slots_copied, switches),
                m.reinstates_relinked.into(),
                m.slots_copy_avoided.into(),
            ]);
        }
    }
    t.note(
        "every strategy accepts %call/1cc (the one-shot contract is checked \
            uniformly); only the segmented machine converts it into zero-copy relinks",
    );
    t
}

/// Runs `rounds` capture/reset/reinstate rounds over a `depth`-frame core
/// stack and times them; the one-shot target is uniquely owned, so it can
/// be relinked, while the multi-shot one is copied.
fn reinstate_rounds(cfg: &Config, depth: usize, rounds: u32, one_shot: bool) -> Run {
    let code = Rc::new(TestCode::new());
    let mut stack = SegmentedStack::<TestSlot>::new(cfg.clone(), code.clone()).unwrap();
    sim::push_frames(&mut stack, &code, depth, 8);
    stack.metrics_mut().reset();
    let start = Instant::now();
    for _ in 0..rounds {
        sim::push_frames(&mut stack, &code, 1, 8);
        let k = if one_shot { stack.capture_one_shot() } else { stack.capture() };
        // Resume from an unrelated context (a scheduler's empty stack):
        // the machine detaches from the sealed tower, so the only
        // remaining handle is the continuation itself.
        stack.reset();
        stack.reinstate(&k).expect("reinstate");
    }
    let nanos = start.elapsed().as_nanos() as f64;
    Run { nanos, counters: stack.metrics().clone(), value: String::new() }
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
    let targets = ["one-shot (unshared)", "multi-shot (shared)"];
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
        let runs = sample(targets.len(), |v| reinstate_rounds(&cfg, depth, 400, v == 0));
        for (target, r) in targets.into_iter().zip(&runs) {
            let m = &r.counters;
            let n = m.reinstatements;
            t.row(vec![
                depth.into(),
                target.into(),
                r.per(n, "ns/reinstate").into(),
                per_op(m.slots_copied, n),
                m.reinstates_relinked.into(),
                m.slots_copy_avoided.into(),
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
    let cfgs = [Config::default(), Config::builder().disable_tail_capture_rule().build().unwrap()];
    for n in [20_000u32, 100_000] {
        let src = w::looper(n);
        let runs = sample(cfgs.len(), |v| {
            let mut e = engine(Strategy::Segmented, &cfgs[v], CheckPolicy::Elide);
            let r = timed_eval(&mut e, &src);
            r.with(e.stack_stats().chain_records)
        });
        for (rule, r) in ["on (paper)", "off (naive)"].into_iter().zip(&runs) {
            let (m, chain) = &r.counters;
            t.row(vec![
                n.into(),
                rule.into(),
                r.time().into(),
                m.stack_records_allocated.into(),
                (*chain).into(),
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
        &["workload", "segment slots", "time", "overflows", "slots copied"],
    );
    let sizes = [256usize, 1024, 4096, 16 * 1024, 64 * 1024];
    let cfgs: Vec<Config> = sizes
        .iter()
        .map(|&slots| {
            Config::builder().segment_slots(slots).frame_bound(64).copy_bound(128).build().unwrap()
        })
        .collect();
    for (workload, src) in
        [("deep-sum 60k", w::deep_sum(60_000)), ("ctak 14 10 4", w::ctak(14, 10, 4))]
    {
        for (slots, r) in sizes.into_iter().zip(&on_configs(&cfgs, &src)) {
            t.row(vec![
                workload.into(),
                slots.into(),
                r.time().into(),
                r.counters.overflows.into(),
                r.counters.slots_copied.into(),
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
    let pools = [0usize, 4];
    let cfgs: Vec<Config> = pools
        .iter()
        .map(|&pool| {
            Config::builder()
                .segment_slots(512)
                .frame_bound(48)
                .copy_bound(32)
                .pool_segments(pool)
                .build()
                .unwrap()
        })
        .collect();
    let src = "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1)))))
               (do ((i 0 (+ i 1))) ((= i 200)) (sum 100))";
    for (pool, r) in pools.into_iter().zip(&on_configs(&cfgs, src)) {
        t.row(vec![
            if pool == 0 { "off".into() } else { format!("{pool} segments").into() },
            "200 x (sum 100)".into(),
            r.time().into(),
            r.counters.segments_allocated.into(),
            r.counters.segments_reused.into(),
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
        &["workload", "tracing", "time", "vs untraced", "events recorded", "events dropped"],
    );
    let e16_cfg =
        Config::builder().segment_slots(2048).frame_bound(64).copy_bound(128).build().unwrap();
    let workloads = [
        ("fib 20 (E1 calls)", w::fib(20), Config::default()),
        ("tail-loop 300k (E1)", w::tail_loop(300_000), Config::default()),
        ("pingpong %call/cc 600x6k (E16)", w::pingpong("%call/cc", 600, 6_000), e16_cfg.clone()),
        ("pingpong %call/1cc 600x20k (E16)", w::pingpong("%call/1cc", 600, 20_000), e16_cfg),
    ];
    for (workload, src, cfg) in workloads {
        let runs = sample(2, |v| {
            if v == 0 {
                return timed_eval(
                    &mut engine(Strategy::Segmented, &cfg, CheckPolicy::Elide),
                    &src,
                )
                .with((0, 0));
            }
            let sink = Rc::new(RefCell::new(RingSink::new()));
            let r = timed_eval(&mut traced_engine(&cfg, sink.clone()), &src);
            let ring = sink.borrow();
            r.with((ring.total_recorded(), ring.dropped()))
        });
        for (v, tracing) in ["untraced", "traced"].into_iter().enumerate() {
            let r = &runs[v];
            let (recorded, dropped) = r.counters.1;
            t.row(vec![
                workload.into(),
                tracing.into(),
                r.time().into(),
                if v == 0 { "(baseline)".into() } else { r.ratio().into() },
                recorded.into(),
                dropped.into(),
            ]);
        }
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
    let policies = [CheckPolicy::Never, CheckPolicy::Always, CheckPolicy::Elide];
    for (workload, src) in [
        ("fib 22", w::fib(22)),
        ("tak 16 10 4", w::tak(16, 10, 4)),
        ("lcg-let-loop 300k", w::lcg_let_loop(300_000)),
        ("leaf-heavy sort 600", w::sort(600)),
        ("nested-helper 200k", w::nested_helper(200_000)),
    ] {
        let runs = on_policies(&policies, &src);
        for (v, label) in [(1, "always"), (2, "elide"), (0, "never")] {
            let (r, m) = (&runs[v], &runs[v].counters);
            t.row(vec![
                workload.into(),
                label.into(),
                r.time().into(),
                if v == 0 { "(floor)".into() } else { r.ratio().into() },
                m.checks_executed.into(),
                m.ic_hits.into(),
                m.ic_misses.into(),
            ]);
        }
    }
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
        ("e16", e16_pingpong),
        ("e17", e17_relink_depth),
        ("e18", e18_trace_overhead),
        ("e19", e19_check_policies),
        ("a1", a1_tail_rule),
        ("a2", a2_segment_size),
        ("a3", a3_pooling),
    ]
}

/// The experiments `ids` name, in suite order; every experiment when
/// `ids` is empty.
///
/// # Errors
///
/// Names the first unknown id and lists the known ones.
pub fn select(ids: &[String]) -> Result<Vec<Experiment>, String> {
    let all = all();
    if let Some(bad) = ids.iter().find(|id| !all.iter().any(|(known, _)| known == id)) {
        let known: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
        return Err(format!("unknown experiment id `{bad}`; known ids: {}", known.join(" ")));
    }
    Ok(all.into_iter().filter(|(id, _)| ids.is_empty() || ids.iter().any(|i| i == id)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that took `nanos` and counted `counter`.
    fn fake(nanos: f64, counter: u64, value: &str) -> Run<u64> {
        Run { nanos, counters: counter, value: value.to_string() }
    }

    /// Smoke-check the cheap experiments end to end (heavy ones run via the
    /// harness binary).
    #[test]
    fn frame_size_analysis_runs() {
        let t = e14_frame_sizes();
        assert!(t.rows.iter().any(|r| r[0] == Cell::from("% under 30 slots")));
    }

    #[test]
    fn walk_experiment_runs() {
        let t = e04_walk();
        assert_eq!(t.rows.len(), 3);
        assert!(t.rows.iter().all(|r| matches!(r[1], Cell::Sampled(Stat { reps: ROUNDS, .. }))));
    }

    #[test]
    fn timed_eval_reports_counters() {
        let mut e = engine(Strategy::Segmented, &Config::default(), CheckPolicy::Elide);
        e.eval("(define (f x) (+ x 1))").unwrap();
        let r = timed_eval(&mut e, "(f 1)");
        assert_eq!(r.value, "2");
        assert!(r.counters.call_interface_ops() >= 1);
        assert!(r.nanos > 0.0);
    }

    #[test]
    fn sampler_warms_up_then_alternates_order() {
        let mut order = Vec::new();
        sample(3, |v| {
            order.push(v);
            fake(1.0, 0, "")
        });
        let (warm, rounds) = order.split_at(3);
        assert_eq!(warm, [0, 1, 2]);
        assert_eq!(rounds.len(), 3 * ROUNDS);
        for (round, chunk) in rounds.chunks(3).enumerate() {
            let expect = if round % 2 == 0 { [0, 1, 2] } else { [2, 1, 0] };
            assert_eq!(chunk, expect, "round {round}");
        }
    }

    #[test]
    fn sampler_reports_quartiles_and_paired_ratios() {
        // Variant 0 takes 10, 70, 30, 50, 20, 60, 40 ns over the rounds;
        // variant 1 always takes twice as long as variant 0 in its round.
        let times = [10.0, 70.0, 30.0, 50.0, 20.0, 60.0, 40.0];
        let mut calls = [0usize; 2];
        let runs = sample(2, |v| {
            // The warm-up run is call 0 of each variant.
            let round = calls[v].saturating_sub(1);
            calls[v] += 1;
            fake(times[round] * (v + 1) as f64, 9, "ok")
        });
        let t0 = runs[0].time();
        assert_eq!((t0.q1, t0.median, t0.q3, t0.reps, t0.unit), (30.0, 40.0, 60.0, ROUNDS, "ns"));
        let per = runs[0].per(10, "ns/op");
        assert_eq!((per.q1, per.median, per.q3), (3.0, 4.0, 6.0));
        let ratio = runs[1].ratio();
        assert_eq!((ratio.q1, ratio.median, ratio.q3, ratio.unit), (2.0, 2.0, 2.0, "x"));
        assert!(runs[0].ratios.iter().all(|&r| r == 1.0));
        assert_eq!(runs[1].counters, 9);
    }

    #[test]
    #[should_panic(expected = "variant 1: counters differ between rounds")]
    fn sampler_rejects_counters_that_do_not_repeat() {
        let mut calls = 0;
        sample(2, |v| {
            calls += 1;
            fake(1.0, if v == 1 { calls } else { 0 }, "")
        });
    }

    #[test]
    #[should_panic(expected = "variant 1 printed a different value")]
    fn sampler_rejects_variants_that_disagree() {
        sample(2, |v| fake(1.0, 0, if v == 0 { "1" } else { "2" }));
    }

    #[test]
    fn select_runs_known_ids_in_suite_order() {
        let ids = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let picked = select(&ids(&["a1", "e02"])).unwrap();
        assert_eq!(picked.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ["e02", "a1"]);
        assert_eq!(select(&[]).unwrap().len(), 21);
        for bad in [&["e14", "bogus"][..], &["e15"], &["all"]] {
            let err = select(&ids(bad)).expect_err("unknown id is an error");
            assert!(err.contains(bad[bad.len() - 1]), "{err}");
            assert!(err.contains("e01") && err.contains("a3"), "{err}");
        }
    }
}
