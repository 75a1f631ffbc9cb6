//! The serve job mix: the four job classes the end-to-end benchmark
//! (`segbench serve`) submits to the `segstack-serve` runtime.

use crate::workloads as w;

/// One workload class of the mix: a name, a program, and the value every
/// run must print (so the load test doubles as a correctness check).
pub struct JobClass {
    /// Short name used in reports ("fib", "ctak", ...).
    pub name: &'static str,
    /// The Scheme program.
    pub program: String,
    /// Expected printed result.
    pub expect: &'static str,
}

/// The four-class mix: fib / tak / tail-loop / call-cc-heavy.
pub fn job_classes() -> Vec<JobClass> {
    vec![
        JobClass { name: "fib", program: w::fib(18), expect: "2584" },
        JobClass { name: "tak", program: w::tak(12, 8, 4), expect: "5" },
        JobClass { name: "tail-loop", program: w::tail_loop(30_000), expect: "30000" },
        JobClass { name: "ctak", program: w::ctak(12, 8, 4), expect: "5" },
    ]
}
