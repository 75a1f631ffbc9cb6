//! Prints every experiment table (or the ones named on the command line).
//!
//! Run with `cargo run -p segstack-bench --release --bin harness`.
//! Pass experiment ids (`e01`..`e14`, `e16`..`e19`, `a1`..`a3`) to run a
//! subset; an unknown id exits 2 with the list of known ones.
//! `--json PATH` additionally writes the selected tables as one JSON
//! document stamped with the commit and host (the committed `BENCH_*.json`
//! snapshots). `--trace-out PATH` additionally runs a
//! canonical continuation-heavy workload on a traced segmented engine and
//! writes its timeline as Chrome/Perfetto trace-event JSON.

use std::process::Command;

use segstack_bench::experiments::{self, ROUNDS};
use segstack_core::trace::{chrome_trace_json, flame_summary, validate_chrome_trace};

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" || a == "--trace-out" {
            match args.next() {
                Some(p) if a == "--json" => json_path = Some(p),
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("{a} needs a file path");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(a);
        }
    }
    let selected = match experiments::select(&ids) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &trace_path {
        export_core_trace(path);
        // Trace-only invocation: no ids means no experiments here.
        if ids.is_empty() {
            return;
        }
    }
    println!("# segstack experiment harness");
    println!(
        "(times are the median [quartiles] of {ROUNDS} rounds on this host; \
         counters are host-independent)\n"
    );
    let mut json_entries: Vec<String> = Vec::new();
    for (id, f) in selected {
        let start = std::time::Instant::now();
        let table = f();
        println!("{table}");
        println!("[{id} took {:.1}s]\n", start.elapsed().as_secs_f64());
        json_entries.push(format!("{{\"id\":\"{id}\",\"table\":{}}}", table.to_json()));
    }
    if let Some(path) = json_path {
        let doc = format!(
            "{{\"generator\":\"segstack-bench harness\",\"commit\":\"{}\",\"host\":\"{}\",\
             \"experiments\":[{}]}}\n",
            commit(),
            host(),
            json_entries.join(",")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Trimmed stdout of a command that succeeded.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// The checkout's abbreviated commit, with `-dirty` when the working tree
/// has uncommitted changes.
fn commit() -> String {
    output_of("git", &["describe", "--always", "--dirty", "--abbrev=12"])
        .unwrap_or_else(|| "unknown".into())
}

/// The host name, core count and target.
fn host() -> String {
    let name = output_of("hostname", &[]).unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{name} ({cores} cores, {}-{})", std::env::consts::ARCH, std::env::consts::OS)
}

/// Runs the canonical traced core workload and writes its Perfetto
/// timeline (validated before it is written).
fn export_core_trace(path: &str) {
    let traces = experiments::traced_core_trace();
    let doc = chrome_trace_json(&traces);
    let stats = match validate_chrome_trace(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exported trace failed validation: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "trace: {path} — {} events ({} spans, {} instants) on {} track(s); \
         open in https://ui.perfetto.dev or chrome://tracing",
        stats.events, stats.spans, stats.instants, stats.tracks
    );
    println!("\n## flame summary (self time per span kind)\n{}", flame_summary(&traces));
}
