//! The worker loop: one OS thread, one set of Scheme engines, many jobs.
//!
//! A worker owns its engines outright — the VM is `Rc`-based and not
//! `Send`, so nothing about a running program ever crosses a thread
//! boundary. The only shared state is the injector queue (job intake),
//! the per-worker metrics cell, and each job's cancellation flag +
//! outcome channel.
//!
//! Scheduling is round-robin over the worker's in-flight jobs: each
//! iteration grants the front job one engine quantum, then rotates it to
//! the back. Preemption happens *inside* the running program — the
//! engine timer fires mid-computation and capture reifies the rest of
//! the job as a continuation — so a hostile `(let loop () (loop))`
//! cannot hold the worker hostage for longer than one quantum.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use segstack_baselines::Strategy;
use segstack_control::{Control, EngineJob, Step};
use segstack_core::trace::{emit, EventKind, RingSink};

use crate::job::{JobError, JobOutcome, JobSpec};
use crate::metrics::WorkerMetrics;
use crate::queue::Bounded;
use crate::runtime::{RuntimeConfig, TraceShared};

/// One job admitted onto this worker.
struct Active {
    spec: JobSpec,
    engine_job: EngineJob,
}

/// Everything a worker thread needs.
pub(crate) struct Worker {
    pub injector: Arc<Bounded<JobSpec>>,
    pub metrics: Arc<Mutex<WorkerMetrics>>,
    pub config: RuntimeConfig,
    /// Set when the runtime is dropped without a graceful `shutdown`:
    /// in-flight and queued jobs are cancelled at the next preemption
    /// point instead of being run to completion.
    pub abort: Arc<AtomicBool>,
    /// This worker's index (trace track id and thread name suffix).
    pub index: usize,
    /// Shared tracing state (epoch + drained-trace collector), when the
    /// runtime was started with tracing on.
    pub tracing: Option<TraceShared>,
}

impl Worker {
    /// The thread body: admit, rotate, step, report — until the injector
    /// closes and every in-flight job has an outcome. A traced worker
    /// drains its ring into the runtime's collector on every exit path.
    pub fn run(self) {
        // Every engine on this worker shares one ring; the shared epoch
        // aligns all workers' timelines on one time base.
        let ring =
            self.tracing.as_ref().map(|t| Rc::new(RefCell::new(RingSink::with_epoch(t.epoch))));
        self.run_loop(&ring);
        if let (Some(ring), Some(t)) = (ring, &self.tracing) {
            let trace = ring
                .borrow_mut()
                .take_trace(format!("worker-{}", self.index), self.index as u64 + 1);
            t.collector.lock().expect("trace collector poisoned").push(trace);
        }
    }

    fn run_loop(&self, ring: &Option<Rc<RefCell<RingSink>>>) {
        // Kits are built lazily per strategy: most deployments use one or
        // two strategies, and prelude compilation is the expensive part.
        let mut kits: Vec<(Strategy, Control)> = Vec::new();
        let mut active: VecDeque<Active> = VecDeque::new();

        loop {
            // An aborting runtime does not drain: everything still in
            // flight or queued is cancelled so the thread can be joined
            // even if a job is divergent with no fuel or deadline.
            if self.abort.load(Ordering::Relaxed) {
                for slot in active.drain(..) {
                    self.finish(ring, &slot, Err(JobError::Cancelled), |m| m.cancelled += 1);
                }
                while let Some(spec) = self.injector.try_pop() {
                    self.report(ring, &spec, 0, 0, Err(JobError::Cancelled), |m| {
                        m.cancelled += 1;
                    });
                }
                return;
            }

            // Admission: top up the local run set from the shared queue.
            // Block only when idle; never block while jobs are in flight.
            while active.len() < self.config.max_inflight {
                let next = if active.is_empty() {
                    match self.injector.pop() {
                        Some(spec) => Some(spec),
                        // Closed and drained: nothing in flight, so done.
                        None => return,
                    }
                } else {
                    self.injector.try_pop()
                };
                let Some(spec) = next else { break };
                self.admit(ring, spec, &mut kits, &mut active);
            }

            let Some(mut slot) = active.pop_front() else { continue };

            // Pre-quantum policy checks (cheap, no engine involvement).
            if slot.spec.flags.is_cancelled() {
                self.finish(ring, &slot, Err(JobError::Cancelled), |m| m.cancelled += 1);
                continue;
            }
            if past_deadline(&slot.spec) {
                self.finish(ring, &slot, Err(JobError::DeadlineExceeded), |m| {
                    m.deadline_exceeded += 1;
                });
                continue;
            }

            // Grant one quantum on the kit for this job's strategy.
            let kit = kit_for(ring, &mut kits, slot.spec.strategy).expect("kit built at admission");
            emit(ring, EventKind::QuantumBegin, slot.spec.id, self.index as u64);
            let ticks_before = slot.engine_job.ticks_used();
            let start = Instant::now();
            let step = kit.step_job(&mut slot.engine_job, self.config.quantum);
            let busy = start.elapsed().as_nanos() as u64;
            emit(ring, EventKind::QuantumEnd, slot.spec.id, busy);
            {
                // The job's own tick ledger is the one ledger: the worker
                // charges what this quantum added to it.
                let mut m = self.metrics.lock().expect("metrics poisoned");
                m.ticks = m.ticks.saturating_add(slot.engine_job.ticks_used() - ticks_before);
                m.quanta = m.quanta.saturating_add(1);
                m.busy_nanos = m.busy_nanos.saturating_add(busy);
                m.quantum_nanos.record(busy);
                m.core.merge(kit.metrics());
            }
            kit.engine().reset_metrics();

            match step {
                Ok(Step::Done { value, .. }) => {
                    self.finish(ring, &slot, Ok(value.to_string()), |m| m.completed += 1);
                }
                Ok(Step::Expired) => {
                    if out_of_fuel(&slot) {
                        self.finish(ring, &slot, Err(JobError::FuelExhausted), |m| {
                            m.fuel_exhausted += 1;
                        });
                    } else if past_deadline(&slot.spec) {
                        // The deadline passed *during* the quantum: the
                        // engine timer preempted the program mid-flight
                        // and we discard the captured remainder.
                        self.finish(ring, &slot, Err(JobError::DeadlineExceeded), |m| {
                            m.deadline_exceeded += 1;
                        });
                    } else {
                        active.push_back(slot);
                    }
                }
                Err(e) => {
                    self.finish(ring, &slot, Err(JobError::Eval(e.to_string())), |m| {
                        m.eval_errors += 1;
                    });
                }
            }
        }
    }

    /// Builds (or reuses) the kit, spawns the engine, and enqueues the
    /// job locally. Spawn failures are reported as outcomes immediately.
    fn admit(
        &self,
        ring: &Option<Rc<RefCell<RingSink>>>,
        spec: JobSpec,
        kits: &mut Vec<(Strategy, Control)>,
        active: &mut VecDeque<Active>,
    ) {
        self.metrics.lock().expect("metrics poisoned").admitted += 1;
        if let Some(r) = ring {
            // Backdate the enqueue instant to submission time so the job's
            // async span covers its whole queue wait on the timeline.
            let mut r = r.borrow_mut();
            let queued_at = spec
                .submitted
                .checked_duration_since(r.epoch())
                .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
            r.record_at(queued_at, EventKind::JobEnqueue, spec.id, 0);
            r.record_now(EventKind::JobAdmit, spec.id, strategy_index(spec.strategy));
            let depth = self.injector.len() as u64;
            r.record_now(EventKind::QueueDepth, depth, 0);
        }
        let kit = match kit_for(ring, kits, spec.strategy) {
            Ok(kit) => kit,
            Err(e) => {
                self.report(ring, &spec, 0, 0, Err(JobError::Eval(e)), |m| m.eval_errors += 1);
                return;
            }
        };
        match kit.spawn_job(&spec.program) {
            Ok(engine_job) => active.push_back(Active { spec, engine_job }),
            Err(e) => {
                self.report(ring, &spec, 0, 0, Err(JobError::Eval(e.to_string())), |m| {
                    m.eval_errors += 1;
                });
            }
        }
    }

    fn finish(
        &self,
        ring: &Option<Rc<RefCell<RingSink>>>,
        slot: &Active,
        result: Result<String, JobError>,
        count: impl FnOnce(&mut WorkerMetrics),
    ) {
        self.report(
            ring,
            &slot.spec,
            slot.engine_job.quanta(),
            slot.engine_job.ticks_used(),
            result,
            count,
        );
    }

    fn report(
        &self,
        ring: &Option<Rc<RefCell<RingSink>>>,
        spec: &JobSpec,
        quanta: u64,
        ticks: u64,
        result: Result<String, JobError>,
        count: impl FnOnce(&mut WorkerMetrics),
    ) {
        let latency = spec.submitted.elapsed();
        let latency_nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        {
            let mut m = self.metrics.lock().expect("metrics poisoned");
            count(&mut m);
            m.latency.record(latency_nanos);
        }
        emit(ring, outcome_kind(&result), spec.id, latency_nanos);
        // Queue-depth gauge on drain: one job just left the system.
        emit(ring, EventKind::QueueDepth, self.injector.len() as u64, 0);
        // A dropped handle is fine; the outcome just goes unobserved.
        let _ =
            spec.outcome_tx.try_send(JobOutcome { id: spec.id, result, quanta, ticks, latency });
    }
}

/// The job-outcome event kind for a result.
fn outcome_kind(result: &Result<String, JobError>) -> EventKind {
    match result {
        Ok(_) => EventKind::JobComplete,
        Err(JobError::Cancelled) => EventKind::JobCancelled,
        Err(JobError::DeadlineExceeded) => EventKind::JobDeadline,
        Err(JobError::FuelExhausted) => EventKind::JobFuel,
        Err(_) => EventKind::JobError,
    }
}

/// The strategy's position in [`Strategy::ALL`], as an event payload.
fn strategy_index(strategy: Strategy) -> u64 {
    Strategy::ALL.iter().position(|s| *s == strategy).unwrap_or(0) as u64
}

fn past_deadline(spec: &JobSpec) -> bool {
    spec.deadline.is_some_and(|d| Instant::now() >= d)
}

fn out_of_fuel(slot: &Active) -> bool {
    slot.spec.fuel.is_some_and(|cap| slot.engine_job.ticks_used() >= cap)
}

/// Finds or builds the kit for a strategy. Building loads the prelude
/// and the control libraries, so it happens at most once per strategy
/// per worker. Traced workers hand every kit a clone of their ring, so
/// engine-level events land on the worker's own timeline.
fn kit_for<'k>(
    ring: &Option<Rc<RefCell<RingSink>>>,
    kits: &'k mut Vec<(Strategy, Control)>,
    strategy: Strategy,
) -> Result<&'k mut Control, String> {
    if let Some(i) = kits.iter().position(|(s, _)| *s == strategy) {
        return Ok(&mut kits[i].1);
    }
    let kit = match ring {
        Some(r) => Control::with_trace_sink(strategy, r.clone()),
        None => Control::new(strategy),
    }
    .map_err(|e| format!("engine construction: {e}"))?;
    kits.push((strategy, kit));
    Ok(&mut kits.last_mut().expect("just pushed").1)
}
