//! Prints every experiment table (or the ones named on the command line).
//!
//! Run with `cargo run -p segstack-bench --release --bin harness`.
//! Pass experiment ids (`e01`..`e19`, `a1`..`a3`) to run a subset.
//! `--json PATH` additionally writes the selected tables as one JSON
//! document (e.g. the committed `BENCH_PR4.json` regression snapshot).
//! `--trace-out PATH` additionally runs a canonical continuation-heavy
//! workload on a traced segmented engine and writes its timeline as
//! Chrome/Perfetto trace-event JSON.

use segstack_bench::experiments;
use segstack_core::trace::{chrome_trace_json, flame_summary, validate_chrome_trace};

fn main() {
    let mut filters: Vec<String> = Vec::new();
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
            filters.push(a);
        }
    }
    if let Some(path) = &trace_path {
        export_core_trace(path);
        // Trace-only invocation: ids were only ever filters, so an empty
        // selection here is intentional, not an error.
        if filters.is_empty() {
            return;
        }
    }
    let all = experiments::all();
    let selected: Vec<_> = if filters.is_empty() {
        all
    } else {
        all.into_iter().filter(|(id, _)| filters.iter().any(|f| f == id)).collect()
    };
    if selected.is_empty() {
        eprintln!("no experiment matches; known ids: e01..e19, a1..a3");
        std::process::exit(2);
    }
    println!("# segstack experiment harness");
    println!("(times are wall-clock on this host; counters are host-independent)\n");
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
            "{{\"generator\":\"segstack-bench harness\",\"experiments\":[{}]}}\n",
            json_entries.join(",")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
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
