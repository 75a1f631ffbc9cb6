//! Ledger rows measured the same way for every workload: the baseline
//! strategies, the engine quantum (`control`), and the core stack
//! operations in isolation (`core.sim`).

use std::rc::Rc;
use std::time::Instant;

use segstack_baselines::Strategy;
use segstack_control::{Control, Step};
use segstack_core::rng::SplitMix64;
use segstack_core::{sim, Config, ControlStack, SegmentedStack, TestCode, TestSlot};
use segstack_scheme::Engine;
use segstack_serve::RuntimeConfig;

use crate::evalrun::build_engine;
use crate::programs::EvalWorkload;
use crate::report::{catch, Run, Tally};
use crate::stats::{median, percentile};
use crate::RunConfig;

fn run_programs(engine: &mut Engine, wl: &EvalWorkload, order: &[usize], tally: &mut Tally) -> f64 {
    let start = Instant::now();
    for &i in order {
        let p = &wl.programs[i];
        let got = catch(|| engine.eval(&p.src).map(|v| v.to_string()).map_err(|e| e.to_string()));
        tally.check(p.name, got, &p.expect);
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// `baselines.<s>.*`: the workload's programs on each of the six
/// strategies, one warm engine each, rounds rotating across strategies
/// to fill about `share` of the run. Copy and heap-frame counts are those
/// of the first measured round.
///
/// # Errors
///
/// Engine construction failures.
pub fn baselines(
    wl: &EvalWorkload,
    cfg: &RunConfig,
    share: f64,
    run: &mut Run,
) -> Result<(), String> {
    let mut engines = Strategy::ALL
        .iter()
        .map(|&s| build_engine(s, wl.libs))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("engine construction: {e}"))?;
    let mut rng = SplitMix64::new(cfg.seed);
    for e in &mut engines {
        run_programs(e, wl, &shuffled(wl.programs.len(), &mut rng), &mut run.tally);
    }
    let mut times = vec![Vec::new(); engines.len()];
    // A round costs about 8 of the workload's passes per strategy a pass
    // covers: six strategies, the baselines slower than the segmented one.
    let rounds = cfg.passes(wl.pass_rate * wl.strategies.len() as f64 / 8.0, share, 1);
    for round in 0..rounds {
        for (i, e) in engines.iter_mut().enumerate() {
            let order = shuffled(wl.programs.len(), &mut rng);
            let (copied, frames) = (e.metrics().slots_copied, e.metrics().heap_frames_allocated);
            times[i].push(run_programs(e, wl, &order, &mut run.tally));
            if round == 0 {
                let s = Strategy::ALL[i];
                let m = e.metrics();
                run.metrics
                    .set(format!("baselines.{s}.slots_copied"), (m.slots_copied - copied) as f64);
                run.metrics.set(
                    format!("baselines.{s}.heap_frames"),
                    (m.heap_frames_allocated - frames) as f64,
                );
            }
        }
    }
    let segmented = median(&times[0]);
    for (s, t) in Strategy::ALL.iter().zip(&times) {
        run.metrics.set(format!("baselines.{s}.ms"), median(t));
        if *s != Strategy::Segmented {
            run.metrics.set(format!("baselines.{s}.vs_segmented"), median(t) / segmented);
        }
    }
    run.samples.insert("baseline_rounds".into(), rounds as u64);
    Ok(())
}

/// `control.*`: the workload's programs (those that run as jobs) as
/// engine jobs on one segmented
/// kit, each stepped to completion at the serve runtime's default
/// quantum, for about `share` of the run; every `step_job` call is timed.
///
/// # Errors
///
/// Kit construction failures.
pub fn control(
    wl: &EvalWorkload,
    cfg: &RunConfig,
    share: f64,
    run: &mut Run,
) -> Result<(), String> {
    let mut kit = Control::new(Strategy::Segmented).map_err(|e| format!("control kit: {e}"))?;
    let quantum = RuntimeConfig::default().quantum;
    let mut rng = SplitMix64::new(cfg.seed);
    let mut steps_us = Vec::new();
    let mut quanta = 0;
    // Pass 0 warms the kit and is not recorded.
    for pass in 0..cfg.passes(wl.pass_rate, share, 2) {
        for i in shuffled(wl.programs.len(), &mut rng) {
            let p = &wl.programs[i];
            if !p.as_job {
                continue;
            }
            let got = catch(|| {
                let mut job = kit.spawn_job(&p.src).map_err(|e| e.to_string())?;
                loop {
                    let t = Instant::now();
                    let step = kit.step_job(&mut job, quantum).map_err(|e| e.to_string())?;
                    if pass > 0 {
                        steps_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    if let Step::Done { value, .. } = step {
                        if pass == 1 {
                            quanta += job.quanta();
                        }
                        return Ok(value.to_string());
                    }
                }
            });
            run.tally.check(p.name, got, &p.expect);
        }
    }
    run.metrics.set("control.step_us_p50", median(&steps_us));
    run.metrics.set("control.step_us_p99", percentile(&steps_us, 0.99));
    run.metrics.set("control.quanta", quanta as f64);
    run.samples.insert("control_steps".into(), steps_us.len() as u64);
    Ok(())
}

/// `core.sim.*`: stack operations through `sim` and `ControlStack` on a
/// `SegmentedStack<TestSlot>` with the default configuration; each is
/// the median of several repetitions.
pub fn sim(cfg: &RunConfig, run: &mut Run) {
    let code = Rc::new(TestCode::new());
    let fresh = || {
        SegmentedStack::<TestSlot>::new(Config::default(), code.clone())
            .expect("the default configuration has no budget to exhaust")
    };
    let n = cfg.sim_ops();
    let reps = cfg.ledger_setup_reps();
    let time_ns = |f: &mut dyn FnMut() -> u64| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                let ops = f();
                start.elapsed().as_nanos() as f64 / ops.max(1) as f64
            })
            .collect();
        median(&samples)
    };
    let call_return =
        time_ns(&mut || sim::call_return_workload(&mut fresh(), &code, n / 100, 50, 4));
    // Tail-position capture in a loop: the §4 looper.
    let capture = time_ns(&mut || {
        sim::looper_workload(&mut fresh(), &code, n, 4);
        n as u64
    });
    // Seal a 1000-frame tower and reinstate it from an empty stack, as a
    // scheduler resuming a preempted job does: multi-shot takes the Fig 7
    // split-and-copy path, one-shot relinks.
    let resume = |one_shot: bool| {
        time_ns(&mut || {
            let mut stack = fresh();
            sim::push_frames(&mut stack, &code, 1000, 4);
            let rounds = n / 100;
            for _ in 0..rounds {
                sim::push_frames(&mut stack, &code, 1, 4);
                let k = if one_shot { stack.capture_one_shot() } else { stack.capture() };
                stack.reset();
                stack.reinstate(&k).expect("reinstating a live continuation");
            }
            rounds as u64
        })
    };
    let reinstate = resume(false);
    let relink = resume(true);
    run.metrics.set("core.sim.call_return_ns", call_return);
    run.metrics.set("core.sim.capture_ns", capture);
    run.metrics.set("core.sim.reinstate_ns", reinstate);
    run.metrics.set("core.sim.relink_ns", relink);
}
