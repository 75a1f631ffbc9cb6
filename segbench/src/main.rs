//! `segbench`: run the benchmark, or compare two sets of runs.
//!
//! ```text
//! segbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!          [--out FILE] [--spans FILE]
//! segbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! Each workload (default: all four) runs in its own child process, so
//! `peak_rss_mb` is that workload's alone. Every metric is printed by name
//! with its unit; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--out` appends each
//! workload's full record (counters, sample counts, notes) as one JSON
//! line, the input `compare` reads. The exit code is 1 if any output was
//! wrong, 2 on a usage error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use segbench::programs::{Scale, WORKLOADS};
use segbench::report::RunRecord;
use segbench::{compare, run_workload, RunConfig};

#[global_allocator]
static ALLOC: segbench::alloc::Counting = segbench::alloc::Counting;

/// Measurement budget per run when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    child: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("segbench: {msg}");
    eprintln!(
        "usage: segbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--out FILE] [--spans FILE]\n       segbench compare A.jsonl B.jsonl [--benchmark FILE]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        spans: None,
        child: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.trace = true,
            "--out" => a.out = Some(value()?.into()),
            "--spans" => a.spans = Some(value()?.into()),
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(a)
}

/// Where a traced run writes its spans unless `--spans` says otherwise:
/// under the build's target directory, inside the working directory.
fn default_spans(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("segbench").join(format!("spans-{workload}.json"))
}

/// Runs one workload in a child process and reads back its record.
fn run_child(args: &Args, workload: &str) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating segbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.trace {
        let spans = match &args.spans {
            Some(p) if args.workloads.len() == 1 => p.clone(),
            _ => default_spans(workload),
        };
        cmd.arg("--spans").arg(spans);
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = segstack_core::trace::json::parse(line)
        .map_err(|_| format!("the {workload} run ended without a record ({})", out.status))?;
    RunRecord::from_json(&parsed)
}

fn print_record(r: &RunRecord) {
    println!(
        "== {} (seed {}, {}, {} s): {} attempted, {} failed",
        r.workload,
        r.seed,
        if r.trace { "traced" } else { "untraced" },
        r.seconds,
        r.attempted,
        r.failed
    );
    for m in &r.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let samples: Vec<String> = r.samples.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("  samples: {}", samples.join(" "));
    for n in &r.notes {
        println!("  note: {n}");
    }
}

/// The final line for several workloads: metric names carry an
/// `@workload` suffix.
fn combined_line(records: &[RunRecord]) -> String {
    let mut all = RunRecord {
        attempted: records.iter().map(|r| r.attempted).sum(),
        failed: records.iter().map(|r| r.failed).sum(),
        ..RunRecord::default()
    };
    for r in records {
        for m in &r.metrics {
            let mut m = m.clone();
            m.name = format!("{}@{}", m.name, r.workload);
            all.metrics.push(m);
        }
    }
    all.result_line()
}

fn run_compare(mut it: impl Iterator<Item = String>) -> ExitCode {
    let (Some(a), Some(b)) = (it.next(), it.next()) else {
        return usage("compare needs two record files");
    };
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--benchmark", Some(p)) => benchmark = p.into(),
            _ => return usage(&format!("unknown compare argument {flag:?}")),
        }
    }
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_records(&t))
    };
    let bench = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("{}: {e}", benchmark.display()))
        .and_then(|t| segstack_core::trace::json::parse(&t).map_err(|e| e.to_string()))
        .and_then(|v| compare::bounds(&v));
    match (load(&a), load(&b), bench) {
        (Ok(ra), Ok(rb), Ok(bounds)) => {
            let (report, regressed) = compare::compare(&ra, &rb, &bounds);
            print!("{report}");
            ExitCode::from(u8::from(regressed))
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("segbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        argv.next();
        return run_compare(argv);
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.child {
        let cfg = RunConfig {
            workload: args.workloads[0].clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: Scale::Full,
            spans_out: args.spans.clone(),
        };
        return match run_workload(&cfg) {
            Ok(record) => {
                println!("{}", record.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("segbench: {}: {e}", cfg.workload);
                ExitCode::FAILURE
            }
        };
    }
    let mut records = Vec::new();
    for w in &args.workloads {
        match run_child(&args, w) {
            Ok(r) => {
                print_record(&r);
                records.push(r);
            }
            Err(e) => {
                eprintln!("segbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.out {
        let lines: String = records.iter().map(|r| r.to_json() + "\n").collect();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, lines.as_bytes()));
        if let Err(e) = appended {
            eprintln!("segbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match records.as_slice() {
        [one] => println!("{}", one.result_line()),
        many => println!("{}", combined_line(many)),
    }
    if records.iter().all(RunRecord::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
