//! The evaluation workloads (`calls`, `conts`, `strategies`): passes of
//! every program on warm engines, untraced for the end-to-end metrics and
//! through the traced pipeline for the per-layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use segstack_baselines::Strategy;
use segstack_control::{Control, Step};
use segstack_core::rng::SplitMix64;
use segstack_core::Metrics;
use segstack_scheme::{Engine, SchemeError};

use crate::pipeline::{EvalCost, Pipeline};
use crate::programs::{self, EvalWorkload, RoundRobin, Scale};
use crate::report::{catch, Run, Tally};
use crate::spans::Spans;
use crate::stats::{median, min, percentile};
use crate::{ledger, serverun, RunConfig};

/// Measured passes whose counters form the exact-counter window. The
/// window is fixed (not time-bounded) so same-seed runs repeat it
/// bit for bit.
pub const COUNTER_PASSES: usize = 2;

/// Consecutive passes whose completion rate is one `throughput_per_s`
/// sample.
const THROUGHPUT_WINDOW: usize = 5;

/// One step of a pass.
#[derive(Clone, Copy, Debug)]
pub enum Item {
    /// Program `program` on the workload's strategy number `strategy`.
    Prog {
        /// Index into the workload's strategies.
        strategy: usize,
        /// Index into the workload's programs.
        program: usize,
    },
    /// The workload's engine round-robin.
    RoundRobin,
}

/// A pass: every program on every strategy of the workload, plus the
/// round-robin if any, in an order drawn from `rng`.
pub fn pass_order(wl: &EvalWorkload, rng: &mut SplitMix64) -> Vec<Item> {
    let mut items: Vec<Item> = (0..wl.strategies.len())
        .flat_map(|strategy| {
            (0..wl.programs.len()).map(move |program| Item::Prog { strategy, program })
        })
        .collect();
    if wl.round_robin.is_some() {
        items.push(Item::RoundRobin);
    }
    rng.shuffle(&mut items);
    items
}

/// An engine over `strategy` with the prelude and, if `libs`, the control
/// libraries loaded.
///
/// # Errors
///
/// Engine construction or library compilation failures.
pub fn build_engine(strategy: Strategy, libs: bool) -> Result<Engine, SchemeError> {
    let mut engine = Engine::with_strategy(strategy)?;
    if libs {
        for (_, src) in segstack_control::libs::ALL {
            engine.eval(src)?;
        }
    }
    Ok(engine)
}

/// Adds `metrics` and `chunks` to `out` under `<strategy>.<counter>`.
pub fn add_counters(
    out: &mut BTreeMap<String, u64>,
    strategy: Strategy,
    metrics: &Metrics,
    chunks: usize,
) {
    for (name, v) in Metrics::FIELD_NAMES.iter().zip(metrics.fields()) {
        out.insert(format!("{strategy}.{name}"), v);
    }
    out.insert(format!("{strategy}.chunks"), chunks as u64);
}

/// `after - before`, key by key.
pub fn window(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0))).collect()
}

/// The untraced engines a pass runs on.
pub struct EngineSet {
    engines: Vec<Engine>,
    rr: Option<Control>,
}

impl EngineSet {
    /// Builds one engine per strategy of `wl`, plus the round-robin kit.
    ///
    /// # Errors
    ///
    /// Construction failures, as text.
    pub fn build(wl: &EvalWorkload) -> Result<Self, String> {
        let engines = wl
            .strategies
            .iter()
            .map(|&s| build_engine(s, wl.libs))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("engine construction: {e}"))?;
        let rr = match wl.round_robin {
            Some(_) => {
                Some(Control::new(Strategy::Segmented).map_err(|e| format!("control kit: {e}"))?)
            }
            None => None,
        };
        Ok(EngineSet { engines, rr })
    }

    /// Runs one pass in `order`; returns its wall time.
    pub fn pass(&mut self, wl: &EvalWorkload, order: &[Item], tally: &mut Tally) -> Duration {
        let start = Instant::now();
        for item in order {
            match *item {
                Item::Prog { strategy, program } => {
                    let p = &wl.programs[program];
                    let engine = &mut self.engines[strategy];
                    let got = catch(|| {
                        engine.eval(&p.src).map(|v| v.to_string()).map_err(|e| e.to_string())
                    });
                    tally.check(p.name, got, &p.expect);
                }
                Item::RoundRobin => {
                    let (kit, rr) = (self.rr.as_mut(), wl.round_robin.as_ref());
                    round_robin(
                        kit.expect("kit built with the workload"),
                        rr.expect("listed"),
                        tally,
                    );
                }
            }
        }
        start.elapsed()
    }

    /// The engines' exact counters.
    pub fn counters(&self, wl: &EvalWorkload) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, e) in wl.strategies.iter().zip(&self.engines) {
            add_counters(&mut out, *s, e.metrics(), e.chunk_count());
        }
        out
    }
}

/// Steps `rr.jobs` engine jobs round-robin on `kit` until all finish,
/// checking each value.
pub fn round_robin(kit: &mut Control, rr: &RoundRobin, tally: &mut Tally) {
    let mut pending = Vec::new();
    for j in 0..rr.jobs {
        match kit.spawn_job(&rr.job_src(j)) {
            Ok(job) => pending.push((j, job)),
            Err(e) => tally.check("round-robin spawn", Err(e.to_string()), ""),
        }
    }
    // Far above the quanta the jobs need; a job still running then is a bug.
    let mut budget = 100_000u32;
    while !pending.is_empty() && budget > 0 {
        budget -= 1;
        let (j, mut job) = pending.remove(0);
        match catch(|| kit.step_job(&mut job, rr.quantum).map_err(|e| e.to_string())) {
            Ok(Step::Done { value, .. }) => {
                tally.check("round-robin job", Ok(value.to_string()), &rr.job_expect(j));
            }
            Ok(Step::Expired) => pending.push((j, job)),
            Err(e) => tally.check("round-robin job", Err(e), ""),
        }
    }
    for _ in pending {
        tally.check("round-robin job", Err("never finished".into()), "");
    }
}

/// The untraced run: `setup_s`, pass latency and throughput.
///
/// # Errors
///
/// Engine construction failures.
pub fn run_untraced(wl: &EvalWorkload, cfg: &RunConfig, run: &mut Run) -> Result<(), String> {
    let mut set = EngineSet::build(wl)?;
    let mut rng = SplitMix64::new(cfg.seed);
    set.pass(wl, &pass_order(wl, &mut rng), &mut run.tally);
    let before = set.counters(wl);
    let passes = cfg.passes(wl.pass_rate, 1.0, COUNTER_PASSES);
    // A construction takes well under a millisecond, so the fresh
    // constructions for `setup_s` are timed between measured passes,
    // spread over the run, rather than back to back at process start,
    // where they mostly timed the host waking up.
    let every = (passes / cfg.setup_reps()).max(1);
    let mut setups = Vec::new();
    let time_setup = |setups: &mut Vec<f64>| -> Result<(), String> {
        let start = Instant::now();
        let built = EngineSet::build(wl)?;
        setups.push(start.elapsed().as_secs_f64());
        drop(built);
        Ok(())
    };
    let mut times = Vec::new();
    for i in 0..passes {
        if i % every == 0 && setups.len() < cfg.setup_reps() {
            time_setup(&mut setups)?;
        }
        let order = pass_order(wl, &mut rng);
        times.push(set.pass(wl, &order, &mut run.tally).as_secs_f64() * 1e3);
        if times.len() == COUNTER_PASSES {
            run.counters = window(&before, &set.counters(wl));
        }
    }
    // The host's memory-contention episodes slow a pass by up to 1.6x for
    // seconds at a time, so the end-to-end figures are the least
    // disturbed ones: the fastest pass, and the fastest run of
    // `THROUGHPUT_WINDOW` consecutive passes.
    while setups.len() < cfg.setup_reps() {
        time_setup(&mut setups)?;
    }
    run.metrics.set("setup_s", median(&setups));
    run.samples.insert("setup".into(), setups.len() as u64);
    run.metrics.set("latency_ms_min", min(&times));
    let windows: Vec<f64> = times
        .chunks(THROUGHPUT_WINDOW.min(times.len()))
        .filter(|w| w.len() == THROUGHPUT_WINDOW.min(times.len()))
        .map(|w| w.len() as f64 * 1e3 / w.iter().sum::<f64>())
        .collect();
    run.metrics.set("throughput_per_s", windows.iter().copied().fold(0.0, f64::max));
    run.notes.push(format!(
        "pass time p50 {:.3} ms, p90 {:.3} ms",
        median(&times),
        percentile(&times, 0.9)
    ));
    run.samples.insert("passes".into(), times.len() as u64);
    Ok(())
}

/// The traced pipelines, one per strategy of the workload.
struct PipelineSet {
    pipelines: Vec<Pipeline>,
    rr: Option<Control>,
}

impl PipelineSet {
    fn build(wl: &EvalWorkload, spans: &mut Spans) -> Result<Self, String> {
        let pipelines = wl
            .strategies
            .iter()
            .map(|&s| Pipeline::new(s, wl.libs, spans))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("pipeline construction: {e}"))?;
        let rr = match wl.round_robin {
            Some(_) => {
                Some(Control::new(Strategy::Segmented).map_err(|e| format!("control kit: {e}"))?)
            }
            None => None,
        };
        Ok(PipelineSet { pipelines, rr })
    }

    /// One traced pass under a new root span named `root`.
    fn pass(
        &mut self,
        wl: &EvalWorkload,
        order: &[Item],
        tally: &mut Tally,
        spans: &mut Spans,
        (root, pass): (&'static str, u64),
    ) -> TracedPass {
        let chunks_before: Vec<usize> = self.pipelines.iter().map(Pipeline::chunk_count).collect();
        let root = spans.open(root, None, pass);
        let mut cost = EvalCost::default();
        for item in order {
            match *item {
                Item::Prog { strategy, program } => {
                    let p = &wl.programs[program];
                    let pipeline = &mut self.pipelines[strategy];
                    let got =
                        catch(|| pipeline.eval(&p.src, spans, root).map_err(|e| e.to_string()));
                    let got = got.map(|(v, c)| {
                        cost.add(c);
                        v.to_string()
                    });
                    tally.check(p.name, got, &p.expect);
                }
                Item::RoundRobin => {
                    let (kit, rr) = (self.rr.as_mut(), wl.round_robin.as_ref());
                    spans.time(root, "control", || {
                        round_robin(kit.expect("kit built"), rr.expect("listed"), tally)
                    });
                }
            }
        }
        spans.close(root);
        let per_strategy = self
            .pipelines
            .iter_mut()
            .zip(chunks_before)
            .map(|(p, before)| (p.take_metrics(), p.chunk_count() - before))
            .collect();
        TracedPass { root, cost, per_strategy }
    }
}

/// What one traced pass measured.
struct TracedPass {
    /// Index of the pass's root span.
    root: usize,
    /// Compiled code and VM allocations.
    cost: EvalCost,
    /// Control-stack counters and chunks compiled, per strategy.
    per_strategy: Vec<(Metrics, usize)>,
}

impl TracedPass {
    fn metrics(&self) -> Metrics {
        let mut total = Metrics::default();
        for (m, _) in &self.per_strategy {
            total.merge(m);
        }
        total
    }
}

/// Exact counters of `passes`, keyed like [`EngineSet::counters`].
fn pipeline_window(wl: &EvalWorkload, passes: &[TracedPass]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (i, s) in wl.strategies.iter().enumerate() {
        let mut m = Metrics::default();
        let mut chunks = 0;
        for p in passes {
            m.merge(&p.per_strategy[i].0);
            chunks += p.per_strategy[i].1;
        }
        add_counters(&mut out, *s, &m, chunks);
    }
    out
}

/// Medians of the traced and untraced pass times, for `trace.overhead`.
pub struct PassTimes {
    /// Median traced (pipeline) pass, ms.
    pub traced_ms: f64,
    /// Median untraced (engine) pass, ms.
    pub untraced_ms: f64,
}

/// The layer passes of a traced run: untraced engine passes interleaved
/// with traced pipeline passes over the same orders, enough of both to
/// fill `share` of the run. Sets the reader, compile, vm and core ledger,
/// checks that the pipeline's counters equal the engine's over the
/// counter window, and returns both pass medians.
///
/// # Errors
///
/// Construction failures.
pub fn layer_passes(
    wl: &EvalWorkload,
    cfg: &RunConfig,
    share: f64,
    run: &mut Run,
    spans: &mut Spans,
) -> Result<PassTimes, String> {
    // Set-up cost of the layers: the prelude (and libraries) through the
    // reader and the compiler, summed over the workload's pipelines.
    let (mut reader_setup, mut compile_setup) = (Vec::new(), Vec::new());
    let mut pipes = None;
    for _ in 0..cfg.ledger_setup_reps() {
        let first = spans.spans.len();
        let built = PipelineSet::build(wl, spans)?;
        let layer_sum = |name: &str| {
            spans.spans[first..].iter().filter(|s| s.name == name).map(|s| s.nanos()).sum::<u64>()
        };
        reader_setup.push(layer_sum("reader") as f64 / 1e6);
        compile_setup.push(layer_sum("compile") as f64 / 1e6);
        pipes = Some(built);
    }
    let mut pipes = pipes.expect("at least one set-up repetition");
    run.metrics.set("reader.setup_ms", median(&reader_setup));
    run.metrics.set("compile.setup_ms", median(&compile_setup));
    let mut engines = EngineSet::build(wl)?;

    let mut rng = SplitMix64::new(cfg.seed);
    let order = pass_order(wl, &mut rng);
    engines.pass(wl, &order, &mut run.tally);
    pipes.pass(wl, &order, &mut run.tally, spans, ("warmup", 0));
    let eng_before = engines.counters(wl);

    let mut traced: Vec<TracedPass> = Vec::new();
    let mut untraced_ms = Vec::new();
    for pass in 1..=cfg.passes(wl.pass_rate, share / 2.0, cfg.min_traced_passes()) as u64 {
        let order = pass_order(wl, &mut rng);
        // Alternate which side runs first so neither always meets caches
        // the other warmed.
        let mut engine_pass = |run: &mut Run| {
            untraced_ms.push(engines.pass(wl, &order, &mut run.tally).as_secs_f64() * 1e3);
        };
        if pass % 2 == 1 {
            engine_pass(run);
        }
        traced.push(pipes.pass(wl, &order, &mut run.tally, spans, ("pass", pass)));
        if pass % 2 == 0 {
            engine_pass(run);
        }
        if traced.len() == COUNTER_PASSES {
            let eng = window(&eng_before, &engines.counters(wl));
            let pipe = pipeline_window(wl, &traced);
            for (k, v) in &eng {
                if pipe.get(k) != Some(v) {
                    run.tally.fail(format!("counter {k}: engine {v}, pipeline {:?}", pipe.get(k)));
                }
            }
            run.counters = eng;
        }
    }

    // Layer self times per traced pass.
    let by_root = spans.self_by_root();
    let layer_ms =
        |root: usize, name: &str| by_root[&root].get(name).copied().unwrap_or(0) as f64 / 1e6;
    let per_pass = |name: &str| traced.iter().map(|t| layer_ms(t.root, name)).collect::<Vec<_>>();
    run.metrics.set("reader.ms", median(&per_pass("reader")));
    run.metrics.set("compile.ms", median(&per_pass("compile")));
    run.metrics.set("vm.ms", median(&per_pass("vm")));
    let ns_per_op: Vec<f64> = traced
        .iter()
        .map(|t| layer_ms(t.root, "vm") * 1e6 / t.metrics().call_interface_ops().max(1) as f64)
        .collect();
    run.metrics.set("vm.ns_per_call_op", median(&ns_per_op));
    let pass_ms: Vec<f64> =
        traced.iter().map(|t| spans.spans[t.root].nanos() as f64 / 1e6).collect();
    let layers_ms: Vec<f64> = traced
        .iter()
        .map(|t| ["reader", "compile", "vm", "control"].iter().map(|n| layer_ms(t.root, n)).sum())
        .collect();
    run.notes.push(format!(
        "traced layer self time covers {:.2}% of traced pass time",
        100.0 * layers_ms.iter().sum::<f64>() / pass_ms.iter().sum::<f64>()
    ));
    run.samples.insert("traced_passes".into(), traced.len() as u64);
    run.samples.insert("untraced_passes".into(), untraced_ms.len() as u64);

    // Exact counts, per pass over the counter window.
    let window_passes = &traced[..COUNTER_PASSES.min(traced.len())];
    let mut m = Metrics::default();
    let mut cost = EvalCost::default();
    for t in window_passes {
        m.merge(&t.metrics());
        cost.add(t.cost);
    }
    let per = |v: u64| v as f64 / window_passes.len().max(1) as f64;
    run.metrics.set("compile.instrs", per(cost.instrs));
    run.metrics.set("compile.chunks", per(cost.chunks));
    run.metrics.set("vm.allocs", per(cost.allocs));
    run.metrics.set("vm.alloc_bytes", per(cost.alloc_bytes));
    core_ledger(run, &m, window_passes.len().max(1) as f64);

    Ok(PassTimes { traced_ms: median(&pass_ms), untraced_ms: median(&untraced_ms) })
}

/// The `vm.*` counter ratios and the `core.*` ledger from counters summed
/// over `passes` passes.
pub fn core_ledger(run: &mut Run, m: &Metrics, passes: f64) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per = |v: u64| v as f64 / passes;
    let c = &mut run.metrics;
    c.set("vm.superinstructions", per(m.superinstructions_dispatched));
    c.set("vm.ic_hit_ratio", ratio(m.ic_hits, m.ic_hits + m.ic_misses));
    c.set("core.call_ops", per(m.call_interface_ops()));
    c.set("core.checks_executed", per(m.checks_executed));
    c.set("core.checks_elided", per(m.checks_elided));
    c.set("core.overflows", per(m.overflows));
    c.set("core.underflows", per(m.underflows));
    c.set("core.captures", per(m.captures));
    c.set("core.reinstatements", per(m.reinstatements));
    c.set("core.relink_ratio", ratio(m.reinstates_relinked, m.reinstatements));
    c.set("core.slots_copied", per(m.slots_copied));
    c.set("core.slots_copied_per_reinstate", ratio(m.slots_copied, m.reinstatements));
    c.set("core.splits", per(m.splits));
    c.set("core.segments_allocated", per(m.segments_allocated));
    c.set(
        "core.segment_reuse_ratio",
        ratio(m.segments_reused, m.segments_allocated + m.segments_reused),
    );
}

/// The traced run of an evaluation workload: the layer passes, the
/// baselines, control and core ledgers, and a serve probe of the same
/// programs.
///
/// # Errors
///
/// Construction failures.
pub fn run_traced(
    wl: &EvalWorkload,
    cfg: &RunConfig,
    run: &mut Run,
    spans: &mut Spans,
) -> Result<(), String> {
    let times = layer_passes(wl, cfg, 0.5, run, spans)?;
    run.metrics.set("trace.overhead", times.traced_ms / times.untraced_ms);
    ledger::baselines(wl, cfg, 0.2, run)?;
    ledger::control(wl, cfg, 0.1, run)?;
    ledger::sim(cfg, run);
    // The probe runs the smoke-test sizes of the same programs: at full
    // size their capture and relink events would overflow the worker's
    // event ring and evict the job lifecycle events the waits come from.
    let small = programs::eval_workload(wl.name, Scale::Tiny, cfg.seed)
        .expect("every evaluation workload has a smoke-test size");
    serverun::probe(&small, cfg, run);
    Ok(())
}
