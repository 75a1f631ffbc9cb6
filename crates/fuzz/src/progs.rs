//! The Scheme front end: fuel-bounded, `call/cc`-heavy random programs for
//! differentially fuzzing the full engines.
//!
//! Programs are generated from a seed alone (the same [`SplitMix64`]
//! discipline as the trace generator), use only total arithmetic over
//! bound variables, and weave `call/cc` receivers — invoked (escaping) or
//! ignored — through every other production. `tests/differential.rs`
//! consumes this module for its property tests, and the serve front end
//! reuses [`gen_program`] to build job payloads.

use segstack_baselines::Strategy;
use segstack_core::rng::SplitMix64;
use segstack_core::Config;
use segstack_scheme::Engine;

/// Variable pool for generated programs.
pub const VARS: [&str; 5] = ["va", "vb", "vc", "vd", "ve"];

/// Draws a numeric leaf or (when available) a bound variable from the
/// bitmask over [`VARS`].
fn leaf(rng: &mut SplitMix64, bound: u8) -> String {
    let bound_vars: Vec<&'static str> =
        VARS.iter().enumerate().filter(|(i, _)| bound & (1 << i) != 0).map(|(_, v)| *v).collect();
    if !bound_vars.is_empty() && rng.gen_bool() {
        (*rng.choose(&bound_vars)).to_string()
    } else {
        rng.gen_range_i64(-50, 50).to_string()
    }
}

/// Picks a variable to bind: an unbound one among the first two, or one
/// already bound (shadowing it).
fn binder(rng: &mut SplitMix64, bound: u8) -> usize {
    let eligible: Vec<usize> =
        (0..VARS.len()).filter(|&i| i < 2 || bound & (1 << i) != 0).collect();
    *rng.choose(&eligible)
}

/// Generates a deterministic expression using only bound variables from
/// `bound` (a bitmask over [`VARS`]). `k_depth` counts enclosing `call/cc`
/// receivers whose continuation parameter may be invoked; nesting is
/// capped at three. Draws come from the seeded generator, so a failing
/// program is reproducible from its seed alone.
pub fn arb_expr(rng: &mut SplitMix64, depth: u32, bound: u8, k_depth: u8) -> String {
    if depth == 0 {
        return leaf(rng, bound);
    }
    let sub = |rng: &mut SplitMix64| arb_expr(rng, depth - 1, bound, k_depth);
    loop {
        match rng.gen_range(0, 13) {
            0 => return leaf(rng, bound),
            1 => {
                let (a, b) = (sub(rng), sub(rng));
                return format!("(+ {a} {b})");
            }
            2 => {
                let (a, b) = (sub(rng), sub(rng));
                return format!("(- {a} {b})");
            }
            3 => {
                let (a, b) = (sub(rng), sub(rng));
                return format!("(min {a} (* 3 {b}))");
            }
            4 => {
                let (c, t, e) = (sub(rng), sub(rng), sub(rng));
                return format!("(if (< {c} 0) {t} {e})");
            }
            5 => {
                let (a, b) = (sub(rng), sub(rng));
                return format!("(begin {a} {b})");
            }
            6 => {
                // let-binding an unbound or shadowed variable.
                let i = binder(rng, bound);
                let v = VARS[i];
                let a = sub(rng);
                let b = arb_expr(rng, depth - 1, bound | (1 << i), k_depth);
                return format!("(let (({v} {a})) {b})");
            }
            7 => {
                // set! on a bound variable, when any is in scope.
                if bound == 0 {
                    continue;
                }
                let bound_vars: Vec<&'static str> = VARS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bound & (1 << i) != 0)
                    .map(|(_, v)| *v)
                    .collect();
                let v = *rng.choose(&bound_vars);
                let (a, b) = (sub(rng), sub(rng));
                return format!("(begin (set! {v} {a}) {b})");
            }
            8 => {
                // Direct lambda application (exercises closures and frames).
                let b = arb_expr(rng, depth - 1, bound | 1, k_depth);
                let a = sub(rng);
                return format!("((lambda ({}) {b}) {a})", VARS[0]);
            }
            9 => {
                // A self-recursive named let counting a small literal down
                // to 0, accumulating in a pool variable. `lp` and `n` are
                // outside the pool, so no subexpression can reach them.
                let i = binder(rng, bound);
                let (v, n) = (VARS[i], rng.gen_range(0, 4));
                let a = sub(rng);
                let b = arb_expr(rng, depth - 1, bound | (1 << i), k_depth);
                return format!("(let lp ((n {n}) ({v} {a})) (if (< n 1) {v} (lp (- n 1) {b})))");
            }
            10 => {
                // A body whose internal define recurses on itself (not in
                // tail position) from a small literal argument.
                let i = binder(rng, bound);
                let (v, n) = (VARS[i], rng.gen_range(0, 4));
                let b = arb_expr(rng, depth - 1, bound | (1 << i), k_depth);
                let a = sub(rng);
                return format!(
                    "(let () (define (rec n {v}) (if (< n 1) {v} (+ 1 (rec (- n 1) {b})))) \
                     (rec {n} {a}))"
                );
            }
            11 => {
                // A procedure's frame re-entered through a continuation
                // after the procedure was `set!` to a new lambda, which
                // leaves that frame the only owner of the old code. `pf`,
                // `pk` and `pm` are outside the pool; `pm` allows one
                // re-entry.
                let (a, b) = (sub(rng), sub(rng));
                return format!(
                    "(let ((pm 0) (pk #f)) \
                     (define (pf x) (+ x (call/cc (lambda (c) (set! pk c) 0)))) \
                     (let ((r (pf {a}))) \
                     (if (< pm 1) \
                     (begin (set! pm 1) (set! pf (lambda (x) (* 2 x))) (pk {b})) \
                     (+ r (pf 1)))))"
                );
            }
            _ => {
                // call/cc: the continuation may be invoked (escape) or
                // ignored; nesting is capped at three receivers.
                if k_depth >= 3 {
                    continue;
                }
                let kname = format!("k{k_depth}");
                let b = arb_expr(rng, depth - 1, bound, k_depth + 1);
                if rng.gen_bool() {
                    let a = sub(rng);
                    return format!("(call/cc (lambda ({kname}) (+ 1 ({kname} {a}) {b})))");
                }
                return format!("(call/cc (lambda ({kname}) {b}))");
            }
        }
    }
}

/// Generates a self-contained program for `seed` at the given expression
/// depth.
pub fn gen_program(seed: u64, depth: u32) -> String {
    arb_expr(&mut SplitMix64::new(seed), depth, 0, 0)
}

/// Generates a program that runs the seed's expression at recursion depth
/// 60, so captures happen with real frames below them and the stressed
/// configurations engage their overflow/underflow paths.
pub fn gen_driven_program(seed: u64, depth: u32) -> String {
    let src = gen_program(seed, depth);
    format!(
        "(define (drive n) (if (= n 0) {src} (+ 1 (drive (- n 1)))))
         (drive 60)"
    )
}

/// A stressed configuration: small segments force frequent overflow, a
/// tiny copy bound forces splitting on nearly every reinstatement.
pub fn stressed_cfg() -> Config {
    Config::builder().segment_slots(256).frame_bound(48).copy_bound(16).build().unwrap()
}

/// Evaluates `src` under a strategy, returning printed output and value
/// (or the error text — errors must also be identical across strategies).
pub fn run_on(strategy: Strategy, cfg: &Config, src: &str) -> Result<String, String> {
    let mut e = Engine::builder()
        .strategy(strategy)
        .config(cfg.clone())
        .max_steps(50_000_000)
        .build()
        .map_err(|e| e.to_string())?;
    let v = e.eval(src).map_err(|e| e.to_string())?;
    let out = e.take_output();
    Ok(format!("{out}|{v}"))
}

/// Checks that every strategy agrees with the segmented reference on
/// `src` under `cfg`, reporting the divergence instead of panicking.
pub fn agree_on(cfg: &Config, src: &str) -> Result<(), String> {
    let reference = run_on(Strategy::Segmented, cfg, src);
    for s in Strategy::ALL {
        if s == Strategy::Segmented {
            continue;
        }
        let got = run_on(s, cfg, src);
        if got != reference {
            return Err(format!(
                "strategy {s} diverges:\n  segmented: {reference:?}\n  {s}: {got:?}\non:\n{src}"
            ));
        }
    }
    Ok(())
}

/// One Scheme-level differential round for `seed`: a shallow program on
/// the default and stressed configurations, and a driven (deep) program on
/// the stressed configuration.
pub fn differential_round(seed: u64) -> Result<(), String> {
    let err = |e: String| format!("scheme seed {seed}: {e}");
    let src = gen_program(seed, 4);
    agree_on(&Config::default(), &src).map_err(err)?;
    agree_on(&stressed_cfg(), &src).map_err(err)?;
    let driven = gen_driven_program(seed, 3);
    agree_on(&stressed_cfg(), &driven).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_deterministic_per_seed() {
        assert_eq!(gen_program(11, 4), gen_program(11, 4));
        assert_ne!(gen_program(11, 4), gen_program(12, 4));
    }

    #[test]
    fn a_few_rounds_agree() {
        for seed in 0..4 {
            differential_round(seed).unwrap();
        }
    }
}
