//! The `serve` workload and the serve probe of the other workloads.
//!
//! `serve` is an open loop: one generator thread submits jobs at seeded
//! Poisson arrival times at a fixed rate, and each job's latency runs from
//! the time it was due, so a stall also charges the jobs it delays.
//! Between segments of the open loop, bursts of jobs submitted at once
//! measure saturation throughput. The job mix is the `serve_load` classes
//! plus a deep recursion, with every (class, strategy) pair equally often.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use segstack_baselines::Strategy;
use segstack_core::rng::SplitMix64;
use segstack_core::trace::{EventKind, OwnerTrace};
use segstack_serve::{
    JoinHandle, Request, Runtime, RuntimeConfig, RuntimeSnapshot, SubmitError, WorkerMetrics,
};

use crate::evalrun::{layer_passes, pass_order, Item};
use crate::programs::{serve_as_eval, serve_classes, EvalWorkload, Program};
use crate::report::{Run, Tally};
use crate::spans::Spans;
use crate::stats::{geomean, median, min, percentile};
use crate::{ledger, RunConfig};

/// Open-loop arrival rate, jobs per second: about a fifth of what one
/// worker sustains on this mix on the reference host (2 cores, one
/// worker, 230-245 jobs/s). At half of saturation the host's episodic
/// slowdowns were amplified by queueing until same-seed runs differed by
/// 50% in median latency.
pub const OPEN_LOOP_RATE: f64 = 50.0;

/// Submission-queue depth: far above any backlog at the open-loop rate, so
/// a refusal means the runtime fell badly behind.
const QUEUE_DEPTH: usize = 4096;

/// Workers: every core but the generator's.
pub fn workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).max(1)
}

/// The job mix: job `i` of each block of `classes × 6` gets class
/// `i % classes` and strategy `(i / classes) % 6`, and each block is
/// shuffled, so every strategy runs every class equally often.
pub struct Mix {
    classes: usize,
    rng: SplitMix64,
    block: Vec<(usize, Strategy)>,
}

impl Mix {
    /// A mix over `classes` classes drawn with `seed`.
    pub fn new(classes: usize, seed: u64) -> Self {
        Mix { classes, rng: SplitMix64::new(seed), block: Vec::new() }
    }

    /// The next job's (class, strategy).
    pub fn next_job(&mut self) -> (usize, Strategy) {
        if self.block.is_empty() {
            let n = Strategy::ALL.len();
            self.block = (0..self.classes * n)
                .map(|i| (i % self.classes, Strategy::ALL[(i / self.classes) % n]))
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("block refilled")
    }
}

fn uniform(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Starts a runtime and runs one job of `warm` per strategy on it, so every
/// worker-side kit the measured jobs need exists before timing starts.
fn start_warm(warm: &Program, tracing: bool, tally: &mut Tally) -> Runtime {
    let rt = Runtime::start(
        RuntimeConfig::with_workers(workers()).queue_depth(QUEUE_DEPTH).tracing(tracing),
    );
    let handles: Vec<_> = Strategy::ALL
        .iter()
        .map(|&s| rt.submit(Request::new(warm.src.clone()).strategy(s)))
        .collect();
    for h in handles {
        let got =
            h.map_err(|e| e.to_string()).and_then(|h| h.wait().result.map_err(|e| e.to_string()));
        tally.check(warm.name, got, &warm.expect);
    }
    rt
}

/// A submitted job awaiting its outcome.
struct Pending {
    program: usize,
    lag: Duration,
    handle: JoinHandle,
}

/// Waits for every job, checking values; returns each job's program and
/// latency from its due time, in ms.
fn collect(pending: Vec<Pending>, programs: &[Program], tally: &mut Tally) -> Vec<(usize, f64)> {
    pending
        .into_iter()
        .map(|p| {
            let outcome = p.handle.wait();
            let prog = &programs[p.program];
            tally.check(prog.name, outcome.result.map_err(|e| e.to_string()), &prog.expect);
            (p.program, (p.lag + outcome.latency).as_secs_f64() * 1e3)
        })
        .collect()
}

/// What the load generator offered, and how late it ran.
#[derive(Default)]
struct Load {
    /// Per job, how long after its due time it was submitted, ms.
    lag_ms: Vec<f64>,
    refused: u64,
    wall: Duration,
}

/// What an open loop measured.
#[derive(Default)]
struct OpenLoop {
    /// Per job, its class and its latency from its due time, ms.
    jobs: Vec<(usize, f64)>,
    load: Load,
}

impl OpenLoop {
    fn latency_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.1).collect()
    }
}

/// Poisson arrival times at [`OPEN_LOOP_RATE`] within `duration`, drawn
/// from `seed`.
fn arrivals(seed: u64, duration: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_a11e);
    let mut due = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        due += Duration::from_secs_f64(-(1.0 - uniform(&mut rng)).ln() / OPEN_LOOP_RATE);
        if due > duration {
            return out;
        }
        out.push(due);
    }
}

/// Submits one job at each time in `dues` (measured from now), then waits
/// for them all; adds what it measured to `into`.
fn open_loop(
    rt: &Runtime,
    classes: &[Program],
    mix: &mut Mix,
    dues: &[Duration],
    into: &mut OpenLoop,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut pending = Vec::with_capacity(dues.len());
    for &due in dues {
        let (class, strategy) = mix.next_job();
        if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lag = start.elapsed().saturating_sub(due);
        into.load.lag_ms.push(lag.as_secs_f64() * 1e3);
        match rt.try_submit(Request::new(classes[class].src.clone()).strategy(strategy)) {
            Ok(handle) => pending.push(Pending { program: class, lag, handle }),
            Err(SubmitError::QueueFull(_) | SubmitError::ShutDown(_)) => {
                into.load.refused += 1;
                tally.check(classes[class].name, Err("refused".into()), "");
            }
        }
    }
    into.jobs.extend(collect(pending, classes, tally));
    into.load.wall += start.elapsed();
}

/// One saturation burst: `jobs` jobs submitted at once (a full queue
/// would block the submitter); returns completed jobs per second.
fn burst(rt: &Runtime, classes: &[Program], mix: &mut Mix, jobs: usize, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut pending = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let (class, strategy) = mix.next_job();
        match rt.submit(Request::new(classes[class].src.clone()).strategy(strategy)) {
            Ok(handle) => pending.push(Pending { program: class, lag: Duration::ZERO, handle }),
            Err(e) => tally.check(classes[class].name, Err(e.to_string()), ""),
        }
    }
    let failed_before = tally.failed;
    collect(pending, classes, tally);
    let completed = jobs as u64 - (tally.failed - failed_before);
    completed as f64 / start.elapsed().as_secs_f64()
}

/// The untraced `serve` run.
pub fn run_untraced(cfg: &RunConfig, run: &mut Run) {
    let classes = serve_classes(cfg.scale);
    let rt = start_warm(&classes[0], false, &mut run.tally);
    // The open loop is cut into segments; between them come the bursts
    // and the timed fresh start-ups for `setup_s`, so that both sample
    // the whole run rather than its start or its end.
    let mut mix = Mix::new(classes.len(), cfg.seed);
    let dues = arrivals(cfg.seed, Duration::from_secs_f64(cfg.seconds * 0.75));
    let segments = (cfg.bursts() / 2).max(1);
    let segment = Duration::from_secs_f64(cfg.seconds * 0.75 / segments as f64);
    let mut open = OpenLoop::default();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    for s in 0..segments {
        let from = segment * s as u32;
        let last = s + 1 == segments;
        let slice: Vec<Duration> = dues
            .iter()
            .filter(|&&d| d >= from && (d < from + segment || last))
            .map(|&d| d - from)
            .collect();
        open_loop(&rt, &classes, &mut mix, &slice, &mut open, &mut run.tally);
        for _ in 0..cfg.bursts() / segments {
            rates.push(burst(&rt, &classes, &mut mix, cfg.burst_jobs(), &mut run.tally));
        }
        while setups.len() < cfg.setup_reps() * (s + 1) / segments {
            let start = Instant::now();
            let fresh = start_warm(&classes[0], false, &mut run.tally);
            setups.push(start.elapsed().as_secs_f64());
            fresh.shutdown();
        }
    }
    run.metrics.set("setup_s", median(&setups));
    run.samples.insert("setup".into(), setups.len() as u64);
    // Contention on the host halves the worker's speed for seconds at a
    // time, so the end-to-end figures are the least disturbed ones: each
    // class's fastest job (geometric mean over classes, so no class
    // dominates) and the fastest burst.
    let fastest: Vec<f64> = (0..classes.len())
        .map(|c| min(&open.jobs.iter().filter(|j| j.0 == c).map(|j| j.1).collect::<Vec<_>>()))
        .collect();
    run.metrics.set("latency_ms_min", geomean(&fastest));
    let latency = open.latency_ms();
    let p50 = median(&latency);
    run.notes.push(format!(
        "open-loop job latency p50 {p50:.3} ms, p90 {:.3} ms",
        percentile(&latency, 0.9)
    ));
    run.samples.insert("jobs".into(), latency.len() as u64);
    let lag_p99 = percentile(&open.load.lag_ms, 0.99);
    if lag_p99 > 0.1 * p50 {
        run.notes.push(format!(
            "invalid: generator lag p99 {lag_p99:.3} ms exceeds 10% of latency p50 {p50:.3} ms"
        ));
    }

    run.metrics.set("throughput_per_s", rates.iter().copied().fold(0.0, f64::max));
    run.samples.insert("bursts".into(), rates.len() as u64);

    let snapshot = rt.shutdown();
    let total = snapshot.total();
    run.counters = BTreeMap::from([
        ("jobs".to_string(), total.finished()),
        ("quanta".to_string(), total.quanta),
        ("ticks".to_string(), total.ticks),
    ]);
}

/// The traced `serve` run: the layer ledger over the job classes, then an
/// untraced and a traced open loop for `trace.overhead` and the serve and
/// load-generator rows.
///
/// # Errors
///
/// Construction failures.
pub fn run_traced(cfg: &RunConfig, run: &mut Run, spans: &mut Spans) -> Result<(), String> {
    let wl = serve_as_eval(cfg.scale);
    let classes = &wl.programs;
    layer_passes(&wl, cfg, 0.15, run, spans)?;
    ledger::baselines(&wl, cfg, 0.1, run)?;
    ledger::control(&wl, cfg, 0.05, run)?;
    ledger::sim(cfg, run);
    let share = |f: f64| Duration::from_secs_f64(cfg.seconds * f);

    let mut p50 = [0.0; 2];
    for (i, tracing) in [false, true].into_iter().enumerate() {
        let rt = start_warm(&classes[0], tracing, &mut run.tally);
        let warm = rt.metrics().total();
        let mut mix = Mix::new(classes.len(), cfg.seed);
        let mut open = OpenLoop::default();
        let dues = arrivals(cfg.seed, share(0.35));
        open_loop(&rt, classes, &mut mix, &dues, &mut open, &mut run.tally);
        p50[i] = median(&open.latency_ms());
        let (snapshot, traces) = rt.shutdown_traced();
        if tracing {
            serve_ledger(run, &snapshot, &warm, &traces, &open.load);
            run.samples.insert("traced_jobs".into(), open.jobs.len() as u64);
        }
    }
    run.metrics.set("trace.overhead", p50[1] / p50[0]);
    Ok(())
}

/// The serve and load-generator rows of an evaluation workload: each
/// round submits every program of a pass that runs as a job at once to a
/// traced runtime and waits for all of them.
pub fn probe(wl: &EvalWorkload, cfg: &RunConfig, run: &mut Run) {
    let rt = start_warm(&wl.programs[0], true, &mut run.tally);
    let warm = rt.metrics().total();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut load = Load::default();
    let start = Instant::now();
    let rounds = cfg.probe_rounds();
    for _ in 0..rounds {
        let round_start = Instant::now();
        let mut pending = Vec::new();
        for item in pass_order(wl, &mut rng) {
            let Item::Prog { strategy, program } = item else { continue };
            if !wl.programs[program].as_job {
                continue;
            }
            let src = wl.programs[program].src.clone();
            let lag = round_start.elapsed();
            load.lag_ms.push(lag.as_secs_f64() * 1e3);
            match rt.try_submit(Request::new(src).strategy(wl.strategies[strategy])) {
                Ok(handle) => pending.push(Pending { program, lag, handle }),
                Err(e) => {
                    load.refused += 1;
                    run.tally.check(wl.programs[program].name, Err(e.to_string()), "");
                }
            }
        }
        collect(pending, &wl.programs, &mut run.tally);
    }
    load.wall = start.elapsed();
    let (snapshot, traces) = rt.shutdown_traced();
    serve_ledger(run, &snapshot, &warm, &traces, &load);
    run.samples.insert("probe_rounds".into(), rounds as u64);
}

/// The `serve.*` and `loadgen.*` rows from a finished runtime.
fn serve_ledger(
    run: &mut Run,
    snapshot: &RuntimeSnapshot,
    warm: &WorkerMetrics,
    traces: &[OwnerTrace],
    load: &Load,
) {
    let wall = load.wall;
    // Only the measured jobs: the warm-up jobs' work is subtracted.
    let total = snapshot.total();
    let jobs = (total.finished() - warm.finished()).max(1) as f64;
    let quanta = (total.quanta - warm.quanta).max(1) as f64;
    let busy_nanos = (total.busy_nanos - warm.busy_nanos) as f64;
    // Exact per-quantum busy times and per-job waits from the workers'
    // event timelines (the retained part of each ring).
    let (mut quantum_us, mut queue_ms, mut runset_ms) = (Vec::new(), Vec::new(), Vec::new());
    for trace in traces {
        let (mut enqueued, mut admitted) = (BTreeMap::new(), BTreeMap::new());
        for ev in &trace.events {
            match ev.kind {
                EventKind::JobEnqueue => {
                    enqueued.insert(ev.a, ev.nanos);
                }
                EventKind::JobAdmit => {
                    admitted.insert(ev.a, ev.nanos);
                    if let Some(q) = enqueued.get(&ev.a) {
                        queue_ms.push(ev.nanos.saturating_sub(*q) as f64 / 1e6);
                    }
                }
                EventKind::QuantumBegin => {
                    if let Some(a) = admitted.remove(&ev.a) {
                        runset_ms.push(ev.nanos.saturating_sub(a) as f64 / 1e6);
                    }
                }
                EventKind::QuantumEnd => quantum_us.push(ev.b as f64 / 1e3),
                _ => {}
            }
        }
    }
    let c = &mut run.metrics;
    c.set("serve.busy_ms_per_job", busy_nanos / 1e6 / jobs);
    c.set("serve.quanta_per_job", quanta / jobs);
    c.set("serve.quantum_us_p50", median(&quantum_us));
    c.set("serve.quantum_us_p99", percentile(&quantum_us, 0.99));
    c.set("serve.captures_per_quantum", (total.core.captures - warm.core.captures) as f64 / quanta);
    c.set(
        "serve.slots_copied_per_quantum",
        (total.core.slots_copied - warm.core.slots_copied) as f64 / quanta,
    );
    c.set(
        "serve.utilization",
        busy_nanos / (wall.as_nanos() as f64 * snapshot.workers.len() as f64),
    );
    c.set("serve.queue_wait_ms_p50", median(&queue_ms));
    c.set("serve.queue_wait_ms_p90", percentile(&queue_ms, 0.9));
    c.set("serve.runset_wait_ms_p50", median(&runset_ms));
    c.set("loadgen.lag_ms_p99", percentile(&load.lag_ms, 0.99));
    c.set("loadgen.lag_ms_max", load.lag_ms.iter().copied().fold(0.0, f64::max));
    c.set("loadgen.offered_per_s", load.lag_ms.len() as f64 / wall.as_secs_f64());
    c.set("loadgen.refused", load.refused as f64);
    run.samples.insert("quanta_timed".into(), quantum_us.len() as u64);
    run.samples.insert("queue_waits".into(), queue_ms.len() as u64);
}
