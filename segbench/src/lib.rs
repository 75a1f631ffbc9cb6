//! # segbench
//!
//! One command that measures the segstack workspace end to end and layer
//! by layer. Four workloads (`calls`, `conts`, `strategies`, `serve`)
//! each report the same end-to-end metrics; a traced run of the same
//! workload and seed reports the per-layer ledger. Every program output
//! is checked against a reference computed in Rust or written by hand.
//! See `README.md` in this directory for the glossary.

#![warn(missing_docs)]

use std::path::PathBuf;

pub mod alloc;
pub mod compare;
mod evalrun;
mod ledger;
mod pipeline;
pub mod programs;
pub mod report;
mod serverun;
mod spans;
mod stats;

use programs::Scale;
use report::{Run, RunRecord};
use spans::Spans;

/// What one run measures.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name (see [`programs::WORKLOADS`]).
    pub workload: String,
    /// Input seed: program order, LCG inputs, serve arrivals and mix.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// The traced run (per-layer ledger) instead of the untraced one.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Where the traced run writes its span file.
    pub spans_out: Option<PathBuf>,
}

impl RunConfig {
    fn full_or(&self, full: usize, tiny: usize) -> usize {
        match self.scale {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }

    /// Fresh constructions timed for `setup_s`.
    pub fn setup_reps(&self) -> usize {
        self.full_or(21, 2)
    }

    /// Repetitions behind each set-up and `core.sim` ledger row.
    pub fn ledger_setup_reps(&self) -> usize {
        self.full_or(5, 1)
    }

    /// Traced passes measured at least, whatever the budget.
    pub fn min_traced_passes(&self) -> usize {
        self.full_or(20, evalrun::COUNTER_PASSES)
    }

    /// Passes a phase given `share` of the run makes at `rate` passes per
    /// second, and at least `min`. Work is fixed per run rather than
    /// time-bounded, so two commits do the same work and memory that
    /// grows with work (see `conts`) does not couple to speed.
    pub fn passes(&self, rate: f64, share: f64, min: usize) -> usize {
        ((self.seconds * share * rate).round() as usize).max(min)
    }

    /// Operations per `core.sim` repetition.
    pub fn sim_ops(&self) -> usize {
        self.full_or(200_000, 2_000)
    }

    /// Jobs per saturation burst.
    pub fn burst_jobs(&self) -> usize {
        self.full_or(40, 30)
    }

    /// Rounds of the serve probe in a traced evaluation run.
    pub fn probe_rounds(&self) -> usize {
        self.full_or(100, 2)
    }

    /// Saturation bursts per `serve` run.
    pub fn bursts(&self) -> usize {
        self.full_or(16, 2)
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// An unknown workload, a construction failure, or a host without
/// `/proc/self/status`. Wrong outputs are not errors: they are counted in
/// the record's `failed`.
pub fn run_workload(cfg: &RunConfig) -> Result<RunRecord, String> {
    let mut run = Run::default();
    let mut spans = Spans::default();
    match (cfg.workload.as_str(), cfg.trace) {
        ("serve", false) => serverun::run_untraced(cfg, &mut run),
        ("serve", true) => serverun::run_traced(cfg, &mut run, &mut spans)?,
        (name, trace) => {
            let wl = programs::eval_workload(name, cfg.scale, cfg.seed)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            if trace {
                evalrun::run_traced(&wl, cfg, &mut run, &mut spans)?;
            } else {
                evalrun::run_untraced(&wl, cfg, &mut run)?;
            }
        }
    }
    if cfg.trace {
        let doc = spans.to_chrome_json();
        match segstack_core::trace::validate_chrome_trace(&doc) {
            Ok(_) => {
                if let Some(path) = &cfg.spans_out {
                    write_file(path, &doc)?;
                    run.notes.push(format!("spans written to {}", path.display()));
                }
            }
            Err(e) => run.tally.fail(format!("span file does not validate: {e}")),
        }
    } else {
        run.metrics.set("peak_rss_mb", report::peak_rss_mb()?);
    }
    let mut notes = run.notes;
    notes.extend(run.tally.failures.iter().map(|f| format!("failed: {f}")));
    Ok(RunRecord {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        seconds: cfg.seconds,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        metrics: run.metrics.finish(cfg.trace),
        counters: run.counters,
        samples: run.samples,
        notes,
    })
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}
