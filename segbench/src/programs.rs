//! The workloads' programs and the Rust reference values they are checked
//! against.
//!
//! Every expected value comes from a Rust implementation in this file or
//! from a constant written by hand, never from the engine under test.
//! Program texts are the experiment corpus of `segstack-bench`
//! (`workloads`, `serve_load`); the seeded variants substitute the seed
//! into that text.

use segstack_baselines::Strategy;
use segstack_bench::{serve_load, workloads as w};

/// The four workloads, in the order a full run measures them.
pub const WORKLOADS: [&str; 4] = ["calls", "conts", "strategies", "serve"];

/// Problem sizes. `Full` is what the benchmark measures; `Tiny` keeps the
/// same programs and shapes small enough for a debug-build smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

impl Scale {
    fn pick(self, full: u32, tiny: u32) -> u32 {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// One Scheme program with the printed value it must produce.
#[derive(Clone, Debug)]
pub struct Program {
    /// Short name used in spans and failure messages.
    pub name: &'static str,
    /// The source, evaluated as one unit.
    pub src: String,
    /// The expected printed result.
    pub expect: String,
    /// Whether the program also runs as an engine job (`spawn_job` wraps
    /// it in a lambda body, where definitions must precede expressions).
    pub as_job: bool,
}

fn program(name: &'static str, src: String, expect: impl ToString) -> Program {
    Program { name, src, expect: expect.to_string(), as_job: true }
}

/// Engine round-robin through `Control::spawn_job` / `step_job`: `jobs`
/// counting loops of `iters` iterations stepped in turn, `quantum` ticks
/// per step. Job `j` adds `j + 1` per iteration.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    /// Number of jobs interleaved.
    pub jobs: u32,
    /// Loop iterations per job.
    pub iters: u32,
    /// Timer ticks granted per step.
    pub quantum: u64,
}

impl RoundRobin {
    /// The source of job `j`.
    pub fn job_src(&self, j: u32) -> String {
        format!(
            "(let loop ((i {}) (acc 0)) (if (= i 0) acc (loop (- i 1) (+ acc {}))))",
            self.iters,
            j + 1
        )
    }

    /// The value job `j` must return.
    pub fn job_expect(&self, j: u32) -> String {
        (u64::from(self.iters) * u64::from(j + 1)).to_string()
    }
}

/// An evaluation workload: programs, the strategies each pass runs them
/// on, and whether the engines carry the control libraries.
#[derive(Clone, Debug)]
pub struct EvalWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Programs run once per strategy per pass.
    pub programs: Vec<Program>,
    /// Strategies a pass covers.
    pub strategies: Vec<Strategy>,
    /// Engines load the `segstack-control` libraries (amb, engines, ...).
    pub libs: bool,
    /// Engine round-robin run once per pass, if any.
    pub round_robin: Option<RoundRobin>,
    /// Passes per second of `--seconds`: about what the reference host
    /// (2 cores) completes, so a run does a fixed amount of work that
    /// takes about `--seconds` there.
    pub pass_rate: f64,
}

/// The `calls` workload: call-intensive programs, no continuations.
pub fn calls(scale: Scale, seed: u64) -> EvalWorkload {
    let s = |full, tiny| scale.pick(full, tiny);
    let lcg_seed = seed % 1000;
    let (fib_n, tak, helper_n, lcg_n, sort_n) =
        (s(22, 12), (16, 10, 4), s(30_000, 500), s(30_000, 500), s(1_500, 100));
    let (boyer_n, deriv_n, queens_n, deep_n) = (2, s(400, 20), s(7, 5), s(100_000, 5_000));
    let tak = if scale == Scale::Full { tak } else { (8, 4, 2) };
    EvalWorkload {
        name: "calls",
        programs: vec![
            program("fib", w::fib(fib_n), fib(fib_n)),
            program("tak", w::tak(tak.0, tak.1, tak.2), self::tak(tak.0, tak.1, tak.2)),
            program("nested-helper", w::nested_helper(helper_n), nested_helper(helper_n)),
            program(
                "lcg-let-loop",
                seeded_lcg_let_loop(lcg_n, lcg_seed),
                lcg_let_loop(lcg_n, lcg_seed),
            ),
            program("sort", seeded_sort(sort_n, lcg_seed), sort_sum(sort_n, lcg_seed)),
            // Its lemma table is filled by an expression between definitions.
            Program { as_job: false, ..program("boyer", w::boyer(boyer_n), boyer(boyer_n)) },
            program("deriv", w::deriv(deriv_n), 3),
            program("queens", w::queens_plain(queens_n), queens(queens_n)),
            program("deep-sum", w::deep_sum(deep_n), deep_sum(deep_n)),
        ],
        strategies: vec![Strategy::Segmented],
        libs: false,
        round_robin: None,
        pass_rate: 7.5,
    }
}

/// The `conts` workload: capture, reinstate, relink and underflow.
///
/// Captures below live frames on the segmented stack currently leak
/// memory (the baselines do not): a few 128 KB segments per run of ctak,
/// a ping-pong or amb, and about 3 KB per capture in loops of them. The
/// leaking shapes are therefore run once per pass at sizes whose leak is
/// bounded, and most of the pass goes to reinstatement (the Fig 7 split
/// path), one-shot relinking and tail-position capture, which do not leak.
pub fn conts(scale: Scale, _seed: u64) -> EvalWorkload {
    let s = |full, tiny| scale.pick(full, tiny);
    let ctak = if scale == Scale::Full { (12, 8, 4) } else { (8, 4, 2) };
    let (gen_w, gen_r) = (s(50, 10), 2);
    let (spacer, cc_rounds, one_rounds) = (s(600, 40), s(20, 10), s(8_000, 50));
    let (re_depth, re_rounds) = (1_000, s(1_500, 10));
    let (cap_depth, cap_rounds) = (s(1_000, 100), s(50, 10));
    let (looper_n, queens_n) = (s(60_000, 500), 5);
    EvalWorkload {
        name: "conts",
        programs: vec![
            program("ctak", w::ctak(ctak.0, ctak.1, ctak.2), tak(ctak.0, ctak.1, ctak.2)),
            program(
                "generator-drain",
                w::generator_drain(gen_w, gen_r),
                generator_drain(gen_w, gen_r),
            ),
            program("pingpong-cc", w::pingpong("%call/cc", spacer, cc_rounds), cc_rounds),
            program("pingpong-1cc", w::pingpong("%call/1cc", spacer, one_rounds), one_rounds),
            program("reinstate-depth", w::reinstate_at_depth(re_depth, re_rounds), re_rounds),
            program("capture-depth", w::capture_at_depth(cap_depth, cap_rounds), cap_depth),
            program("looper", w::looper(looper_n), "done"),
            program("amb-queens", format!("(queens-count {queens_n})"), queens(queens_n)),
        ],
        strategies: vec![Strategy::Segmented],
        libs: true,
        round_robin: Some(RoundRobin { jobs: 4, iters: s(5_000, 300), quantum: 1_000 }),
        pass_rate: 4.5,
    }
}

/// The `strategies` workload: the paper's comparison on all six
/// strategies. Sized, like `conts`, so the segmented stack's capture leak
/// stays bounded over a run.
pub fn strategies(scale: Scale, _seed: u64) -> EvalWorkload {
    let s = |full, tiny| scale.pick(full, tiny);
    let ctak = if scale == Scale::Full { (12, 8, 4) } else { (8, 4, 2) };
    let fib_n = s(22, 10);
    let (spacer, rounds) = (s(200, 20), s(600, 20));
    let (cap_depth, cap_rounds) = (s(200, 50), s(50, 20));
    let (park, iters) = (s(300, 50), s(20_000, 500));
    EvalWorkload {
        name: "strategies",
        programs: vec![
            program("fib", w::fib(fib_n), fib(fib_n)),
            program("ctak", w::ctak(ctak.0, ctak.1, ctak.2), tak(ctak.0, ctak.1, ctak.2)),
            program("pingpong-1cc", w::pingpong("%call/1cc", spacer, rounds), rounds),
            program("capture-depth", w::capture_at_depth(cap_depth, cap_rounds), cap_depth),
            program("boundary-loop", w::boundary_loop(park, iters), boundary_loop(iters)),
        ],
        strategies: Strategy::ALL.to_vec(),
        libs: false,
        round_robin: None,
        pass_rate: 4.0,
    }
}

/// The `serve` job classes: the fixed `serve_load` mix plus a deep
/// recursion that the default quantum preempts mid-descent. Each
/// preempted job leaks its captured stack on most strategies today, so the
/// recursion is 5000 deep (about 0.1 MB leaked per job) rather than the
/// 20000 (about 1.8 MB) that would exhaust memory over a run.
pub fn serve_classes(scale: Scale) -> Vec<Program> {
    let deep_n = scale.pick(5_000, 2_000);
    let mut classes: Vec<Program> = serve_load::job_classes()
        .into_iter()
        .map(|c| program(c.name, c.program, c.expect))
        .collect();
    classes.push(program("deep-sum", w::deep_sum(deep_n), deep_sum(deep_n)));
    classes
}

/// The `serve` job classes as an evaluation workload, for the layer
/// ledger of the traced `serve` run: one pass runs each class once on the
/// segmented stack.
pub fn serve_as_eval(scale: Scale) -> EvalWorkload {
    EvalWorkload {
        name: "serve",
        programs: serve_classes(scale),
        strategies: vec![Strategy::Segmented],
        libs: false,
        round_robin: None,
        pass_rate: 50.0,
    }
}

/// The evaluation workload named `name`; `None` for `serve` and unknown
/// names.
pub fn eval_workload(name: &str, scale: Scale, seed: u64) -> Option<EvalWorkload> {
    match name {
        "calls" => Some(calls(scale, seed)),
        "conts" => Some(conts(scale, seed)),
        "strategies" => Some(strategies(scale, seed)),
        _ => None,
    }
}

/// Replaces the single occurrence of `from` in `src`.
fn replace_once(src: String, from: &str, to: &str) -> String {
    assert_eq!(src.matches(from).count(), 1, "{from:?} must occur exactly once");
    src.replacen(from, to, 1)
}

fn seeded_sort(n: u32, seed: u64) -> String {
    replace_once(
        w::sort(n),
        &format!("(make-list-lcg {n} 42)"),
        &format!("(make-list-lcg {n} {seed})"),
    )
}

fn seeded_lcg_let_loop(n: u32, seed: u64) -> String {
    replace_once(w::lcg_let_loop(n), &format!("(loop {n} 42)"), &format!("(loop {n} {seed})"))
}

// ---- Rust references --------------------------------------------------------

/// Doubly recursive Fibonacci.
pub fn fib(n: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Takeuchi's function (ctak computes the same value).
pub fn tak(x: i32, y: i32, z: i32) -> i32 {
    if y >= x {
        z
    } else {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    }
}

/// `(sum n)` of the deep non-tail recursion.
pub fn deep_sum(n: u32) -> u64 {
    u64::from(n) * (u64::from(n) + 1) / 2
}

/// The LCG step loop of `lcg-let-loop`.
pub fn lcg_let_loop(n: u32, seed: u64) -> u64 {
    (0..n).fold(seed, |s, _| ((s * 1_103_515_245 + 12_345) % 2_147_483_648) % 1000)
}

/// `(loop n 0)` of the nested helper chain: the sum of `i^2 + 9`.
pub fn nested_helper(n: u32) -> u64 {
    (1..=u64::from(n)).map(|i| i * i + 9).sum()
}

/// The sum of the sorted LCG list (sorting does not change it).
pub fn sort_sum(n: u32, seed: u64) -> u64 {
    let mut s = seed;
    let mut sum = 0;
    for _ in 0..n {
        s = (s * 1_103_515_245 + 12_345) % 2_147_483_648;
        sum += s % 1000;
    }
    sum
}

/// The Boyer checksum (total rewritten term size) for `n` theorem
/// instances, as published with the program's own test corpus.
pub fn boyer(n: u32) -> u64 {
    match n {
        2 => 122,
        _ => panic!("no reference checksum for boyer {n}"),
    }
}

/// Solutions of the `n`-queens puzzle.
pub fn queens(n: u32) -> u64 {
    fn place(n: u32, cols: &mut Vec<u32>) -> u64 {
        if cols.len() as u32 == n {
            return 1;
        }
        let mut count = 0;
        for row in 0..n {
            let safe = cols
                .iter()
                .rev()
                .enumerate()
                .all(|(dist, &r)| r != row && r.abs_diff(row) != dist as u32 + 1);
            if safe {
                cols.push(row);
                count += place(n, cols);
                cols.pop();
            }
        }
        count
    }
    place(n, &mut Vec::new())
}

/// The generator drain: `rounds` passes summing `0..width`.
pub fn generator_drain(width: u32, rounds: u32) -> u64 {
    u64::from(rounds) * u64::from(width) * u64::from(width.saturating_sub(1)) / 2
}

/// The boundary loop's accumulator after `iters` crossings.
pub fn boundary_loop(iters: u32) -> u64 {
    (0..iters).fold(0, |acc, _| (acc + (acc + 1)) % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_known_values() {
        assert_eq!(fib(18), 2584);
        assert_eq!(fib(20), 6765);
        assert_eq!(tak(12, 8, 4), 5);
        assert_eq!(deep_sum(1000), 500_500);
        assert_eq!(queens(6), 4);
        assert_eq!(queens(8), 92);
        assert_eq!(generator_drain(10, 3), 135);
    }

    #[test]
    fn serve_classes_carry_reference_values() {
        let refs = [
            fib(18).to_string(),
            tak(12, 8, 4).to_string(),
            "30000".into(),
            tak(12, 8, 4).to_string(),
        ];
        for (class, want) in serve_classes(Scale::Full).iter().zip(refs) {
            assert_eq!(class.expect, want, "{}", class.name);
        }
    }
}
