//! Runs a Scheme program on every control-stack strategy and prints a
//! comparison table: the experiment harness, pointed at *your* workload.
//!
//! ```sh
//! cargo run -p segstack-bench --release --bin compare -- path/to/prog.scm
//! cargo run -p segstack-bench --release --bin compare -- -e '(+ 1 2)'
//! ```
//!
//! Options:
//!
//! * `-e EXPR` — evaluate an expression instead of a file
//! * `--segment N`, `--copy-bound N`, `--frame-bound N` — stack configuration
//!
//! Times come from the harness sampler: each strategy runs the program
//! once unmeasured, then in every one of `ROUNDS` rounds on a fresh
//! engine; the table shows medians with quartiles, and each strategy's
//! per-round ratio to the segmented stack.

use segstack_baselines::Strategy;
use segstack_bench::experiments::{engine, sample, timed_eval};
use segstack_bench::table::Table;
use segstack_core::Config;
use segstack_scheme::CheckPolicy;

struct Args {
    source: String,
    label: String,
    segment: usize,
    copy_bound: usize,
    frame_bound: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut source = None;
    let mut label = String::new();
    let mut segment = 16 * 1024;
    let mut copy_bound = 128;
    let mut frame_bound = 64;
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        match a.as_str() {
            "-e" => {
                let expr = take("-e")?;
                label = expr.clone();
                source = Some(expr);
            }
            "--segment" => segment = take("--segment")?.parse().map_err(|e| format!("{e}"))?,
            "--copy-bound" => {
                copy_bound = take("--copy-bound")?.parse().map_err(|e| format!("{e}"))?
            }
            "--frame-bound" => {
                frame_bound = take("--frame-bound")?.parse().map_err(|e| format!("{e}"))?
            }
            "-h" | "--help" => {
                return Err("usage: compare [options] FILE.scm | -e EXPR".into());
            }
            path => {
                label = path.to_string();
                source = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?,
                );
            }
        }
    }
    let source = source.ok_or("usage: compare [options] FILE.scm | -e EXPR")?;
    Ok(Args { source, label, segment, copy_bound, frame_bound })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cfg = match Config::builder()
        .segment_slots(args.segment)
        .copy_bound(args.copy_bound)
        .frame_bound(args.frame_bound)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad configuration: {e}");
            std::process::exit(2);
        }
    };
    // The sampler insists that every run succeeds with one value, so a
    // program that fails is reported once, before sampling.
    let mut result = match engine(Strategy::Segmented, &cfg, CheckPolicy::Elide).eval(&args.source)
    {
        Ok(v) => v.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if result.len() > 24 {
        result.truncate(21);
        result.push_str("...");
    }

    let mut t = Table::new(
        format!("strategy comparison: {}", args.label),
        format!(
            "segment={} copy-bound={} frame-bound={}",
            args.segment, args.copy_bound, args.frame_bound
        ),
        &[
            "strategy",
            "time",
            "vs segmented",
            "result",
            "captures",
            "reinstates",
            "overflows",
            "slots copied",
            "heap frames",
        ],
    );
    let runs = sample(Strategy::ALL.len(), |v| {
        timed_eval(&mut engine(Strategy::ALL[v], &cfg, CheckPolicy::Elide), &args.source)
    });
    for (s, r) in Strategy::ALL.into_iter().zip(&runs) {
        let m = &r.counters;
        t.row(vec![
            s.to_string().into(),
            r.time().into(),
            r.ratio().into(),
            result.clone().into(),
            m.captures.into(),
            m.reinstatements.into(),
            m.overflows.into(),
            m.slots_copied.into(),
            m.heap_frames_allocated.into(),
        ]);
    }
    println!("{t}");
}
