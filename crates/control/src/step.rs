//! Engine stepping hooks: run a program one quantum at a time.
//!
//! `segstack-serve` schedules many requests onto one Scheme engine by
//! slicing each program into engine quanta (Dybvig & Hieb, "Engines from
//! Continuations"): a job is reified as an engine procedure, every
//! [`Control::step_job`] call grants it a bounded number of timer ticks
//! (one tick per procedure call), and an expired quantum hands back a
//! fresh engine for the rest of the computation — a first-class
//! continuation in disguise. Because capture is O(1) on the segmented
//! strategy (and stack overflow is itself an implicit capture),
//! preemption cost does not grow with how deep the request's recursion
//! happens to be when the timer fires.
//!
//! The hooks are deliberately low-level — spawn, step, fuel counters —
//! so schedulers own all policy (quantum size, fairness, deadlines).

use segstack_scheme::{SchemeError, Value};

use crate::Control;

/// A partially evaluated program: the current engine procedure plus fuel
/// accounting. Dropping the job drops the captured continuation.
///
/// A job is tied to the [`Control`] that spawned it; stepping it on a
/// different kit is a programming error (the engine value's code indices
/// only mean something to its own VM).
#[derive(Debug)]
pub struct EngineJob {
    eng: Value,
    quanta: u64,
    ticks_used: u64,
}

impl EngineJob {
    /// Quanta granted so far (completed or expired).
    pub fn quanta(&self) -> u64 {
        self.quanta
    }

    /// Timer ticks consumed so far (one tick is one procedure call; the
    /// final quantum counts only the ticks actually used).
    pub fn ticks_used(&self) -> u64 {
        self.ticks_used
    }
}

/// The outcome of granting one quantum to a job.
#[derive(Clone, Debug)]
pub enum Step {
    /// The program ran to completion with this value.
    Done {
        /// The program's result.
        value: Value,
        /// Unused ticks from the final quantum.
        leftover: u64,
    },
    /// The quantum expired; the job now holds the reified remainder of
    /// the computation and can be stepped again (or dropped to cancel).
    Expired,
}

/// One quantum of the job bound to `%step-job-engine`: runs it for
/// `%step-job-quantum` ticks and tags the outcome. Compiled once per kit
/// and rerun every quantum, so stepping a job adds no code to the store.
const STEP_DRIVER: &str = "(%step-job-engine %step-job-quantum
   (lambda (value leftover) (vector 'done value leftover))
   (lambda (rest) (vector 'expired rest)))";

impl Control {
    /// Compiles `program` (one or more top-level forms) into a suspended
    /// engine without running any of it. Top-level `define`s in the
    /// program become internal definitions scoped to the job.
    ///
    /// # Errors
    ///
    /// Read or compile errors in `program`; nothing is evaluated yet.
    pub fn spawn_job(&mut self, program: &str) -> Result<EngineJob, SchemeError> {
        // Reject unreadable programs eagerly so the error surfaces at
        // submission, not at the first quantum.
        segstack_scheme::read_all(program)?;
        let eng = self.eval(&format!("(make-engine (lambda ()\n{program}\n))"))?;
        Ok(EngineJob { eng, quanta: 0, ticks_used: 0 })
    }

    /// Grants the job `quantum` timer ticks. The job runs until it either
    /// finishes ([`Step::Done`]) or the timer preempts it mid-computation
    /// via continuation capture ([`Step::Expired`]).
    ///
    /// # Errors
    ///
    /// Runtime errors raised by the program. The engine's control stack
    /// is reset by the error path, so the kit stays usable — an erroring
    /// job cannot poison its worker.
    pub fn step_job(&mut self, job: &mut EngineJob, quantum: u64) -> Result<Step, SchemeError> {
        let quantum = quantum.clamp(1, i64::MAX as u64);
        self.engine().define("%step-job-engine", job.eng.clone());
        self.engine().define("%step-job-quantum", Value::Fixnum(quantum as i64));
        let driver = match self.driver {
            Some(chunk) => chunk,
            None => {
                let chunk = self.engine().compile(STEP_DRIVER)?.expect("the driver is one form");
                self.driver = Some(chunk);
                chunk
            }
        };
        let v = self.engine().run(driver);
        job.quanta += 1;
        let v = match v {
            Ok(v) => v,
            Err(e) => {
                // The whole quantum is gone and the job is dead.
                job.ticks_used += quantum;
                return Err(e);
            }
        };
        let items = match &v {
            Value::Vector(items) => items.borrow().clone(),
            other => {
                return Err(SchemeError::runtime(format!(
                    "engine step returned {} instead of a tagged vector",
                    other.type_name()
                )))
            }
        };
        match items.first() {
            Some(tag) if tag.eq_value(&Value::sym("done")) => {
                let value = items[1].clone();
                let leftover = items[2].as_fixnum()?.max(0) as u64;
                job.ticks_used += quantum.saturating_sub(leftover);
                Ok(Step::Done { value, leftover })
            }
            Some(tag) if tag.eq_value(&Value::sym("expired")) => {
                job.eng = items[1].clone();
                job.ticks_used += quantum;
                Ok(Step::Expired)
            }
            _ => Err(SchemeError::runtime("engine step returned a malformed vector")),
        }
    }

    /// Runs a spawned job to completion with a fixed quantum, returning
    /// the value and the number of quanta it took. A convenience for
    /// tests and examples; real schedulers interleave jobs instead.
    ///
    /// # Errors
    ///
    /// See [`Control::step_job`].
    pub fn run_job(
        &mut self,
        job: &mut EngineJob,
        quantum: u64,
    ) -> Result<(Value, u64), SchemeError> {
        loop {
            if let Step::Done { value, .. } = self.step_job(job, quantum)? {
                return Ok((value, job.quanta()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segstack_baselines::Strategy;

    fn kit() -> Control {
        Control::new(Strategy::Segmented).unwrap()
    }

    #[test]
    fn fast_job_completes_in_one_quantum() {
        let mut k = kit();
        let mut job = k.spawn_job("(+ 40 2)").unwrap();
        match k.step_job(&mut job, 1000).unwrap() {
            Step::Done { value, leftover } => {
                assert_eq!(value.to_string(), "42");
                assert!(leftover > 0);
            }
            Step::Expired => panic!("trivial job expired"),
        }
        assert_eq!(job.quanta(), 1);
        assert!(job.ticks_used() < 1000);
    }

    #[test]
    fn long_job_is_preempted_across_toplevel_steps() {
        let mut k = kit();
        let mut job =
            k.spawn_job("(let loop ((i 5000)) (if (= i 0) 'finished (loop (- i 1))))").unwrap();
        let mut expirations = 0;
        let value = loop {
            match k.step_job(&mut job, 100).unwrap() {
                Step::Done { value, .. } => break value,
                Step::Expired => expirations += 1,
            }
        };
        assert_eq!(value.to_string(), "finished");
        assert!(expirations > 5, "only {expirations} expirations for 5000 calls at quantum 100");
        assert_eq!(job.quanta(), expirations + 1);
    }

    #[test]
    fn jobs_with_defines_and_continuations_run() {
        let mut k = kit();
        let mut job = k
            .spawn_job(
                "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
                 (+ (fib 12) (call/cc (lambda (c) (c 1))))",
            )
            .unwrap();
        let (value, _) = k.run_job(&mut job, 500).unwrap();
        assert_eq!(value.to_string(), "145");
    }

    #[test]
    fn interleaved_jobs_do_not_interfere() {
        let mut k = kit();
        let mut a = k
            .spawn_job("(let loop ((i 300) (acc 0)) (if (= i 0) acc (loop (- i 1) (+ acc 2))))")
            .unwrap();
        let mut b = k
            .spawn_job("(let loop ((i 500) (acc 1)) (if (= i 0) acc (loop (- i 1) acc)))")
            .unwrap();
        let mut results = Vec::new();
        let mut pending: Vec<&mut EngineJob> = vec![&mut a, &mut b];
        // Round-robin the two jobs on the same kit until both finish.
        while !pending.is_empty() {
            let mut still = Vec::new();
            for job in pending {
                match k.step_job(job, 60).unwrap() {
                    Step::Done { value, .. } => results.push(value.to_string()),
                    Step::Expired => still.push(job),
                }
            }
            pending = still;
        }
        results.sort();
        assert_eq!(results, ["1", "600"]);
    }

    #[test]
    fn erroring_job_leaves_the_kit_usable() {
        let mut k = kit();
        let mut bad = k.spawn_job("(car 42)").unwrap();
        assert!(k.step_job(&mut bad, 100).is_err());
        // The worker survives: a fresh job still runs.
        let mut good = k.spawn_job("(* 6 7)").unwrap();
        let (value, _) = k.run_job(&mut good, 100).unwrap();
        assert_eq!(value.to_string(), "42");
    }

    #[test]
    fn divergent_job_expires_forever_without_poisoning() {
        let mut k = kit();
        let mut spin = k.spawn_job("(let loop () (loop))").unwrap();
        for _ in 0..10 {
            match k.step_job(&mut spin, 50).unwrap() {
                Step::Expired => {}
                Step::Done { value, .. } => panic!("divergent job finished with {value}"),
            }
        }
        assert_eq!(spin.ticks_used(), 500);
        drop(spin);
        let mut after = k.spawn_job("'alive").unwrap();
        let (value, _) = k.run_job(&mut after, 100).unwrap();
        assert_eq!(value.to_string(), "alive");
    }

    #[test]
    fn stepping_compiles_no_code_per_quantum() {
        let mut k = kit();
        let mut job =
            k.spawn_job("(let loop ((i 100000)) (if (= i 0) 'done (loop (- i 1))))").unwrap();
        // The first quantum compiles the driver; no later one adds a chunk.
        assert!(matches!(k.step_job(&mut job, 100).unwrap(), Step::Expired));
        let chunks = k.engine().chunk_count();
        for _ in 0..50 {
            assert!(matches!(k.step_job(&mut job, 100).unwrap(), Step::Expired));
        }
        assert_eq!(k.engine().chunk_count(), chunks, "a quantum must not compile code");
    }

    #[test]
    fn unreadable_program_fails_at_spawn() {
        let mut k = kit();
        assert!(k.spawn_job("(unbalanced").is_err());
    }

    #[test]
    fn stepping_works_on_every_strategy() {
        for s in Strategy::ALL {
            let mut k = Control::new(s).unwrap();
            let mut job =
                k.spawn_job("(let loop ((i 1000)) (if (= i 0) 'ok (loop (- i 1))))").unwrap();
            let (value, quanta) = k.run_job(&mut job, 100).unwrap();
            assert_eq!(value.to_string(), "ok", "{s}");
            assert!(quanta > 1, "{s}: never preempted");
        }
    }
}
