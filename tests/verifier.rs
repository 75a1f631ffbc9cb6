//! The bytecode verifier run over everything this repository compiles: the
//! prelude, the control libraries, and the full workload corpus. The
//! verified invariants are exactly what stack walking (Figure 4), timer
//! re-entry and bounded frames rely on.
//!
//! The store verifies the chunks that are live, and a unit's code is freed
//! once nothing holds it, so these tests compile each unit themselves and
//! keep its handle: then every chunk compiled is live and verified.

use std::rc::Rc;

use segstack::control::libs;
use segstack::scheme::prelude::PRELUDE;
use segstack::scheme::{CheckPolicy, Chunk, Engine};

/// Compiles and runs `srcs` in order on a fresh engine without the
/// prelude (pass it in `srcs`), returning the engine and every unit's
/// top-level chunk.
fn compile_all(policy: CheckPolicy, srcs: &[&str]) -> (Engine, Vec<Rc<Chunk>>) {
    let mut e = Engine::builder().check_policy(policy).without_prelude().build().unwrap();
    let mut units = Vec::new();
    for src in srcs {
        let unit = e.compile(src).unwrap().expect("one unit");
        e.run(unit.clone()).unwrap();
        units.push(unit);
    }
    (e, units)
}

/// Asserts that `e`'s store verifies and that it verified every chunk the
/// engine ever compiled.
fn assert_all_verified(e: &Engine, what: &str) {
    let errors = e.verify_code();
    assert!(
        errors.is_empty(),
        "{what}: {} violations:\n{}",
        errors.len(),
        errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(e.frame_sizes().len(), e.chunk_count(), "{what}: every compiled chunk is live");
}

#[test]
fn every_compiled_chunk_verifies() {
    // The prelude, the control libraries and the whole corpus, through the
    // same engine.
    let mut srcs = vec![PRELUDE];
    srcs.extend(libs::ALL.iter().map(|(_, src)| *src));
    srcs.extend([
        include_str!("programs/ctak.scm"),
        include_str!("programs/sort.scm"),
        include_str!("programs/deriv.scm"),
        include_str!("programs/queens.scm"),
        include_str!("programs/generators.scm"),
        include_str!("programs/boyer.scm"),
        include_str!("programs/meta.scm"),
    ]);
    let (e, _units) = compile_all(CheckPolicy::default(), &srcs);
    assert_all_verified(&e, "corpus");
    assert!(e.chunk_count() > 150, "corpus compiled into many chunks");
}

#[test]
fn verifier_holds_under_every_check_policy() {
    for policy in [CheckPolicy::Always, CheckPolicy::Elide, CheckPolicy::Never] {
        let (e, _units) = compile_all(
            policy,
            &[
                PRELUDE,
                "(define (f a . rest) (apply + a rest))
                 (define-syntax sq (syntax-rules () ((_ x) (* x x))))
                 (map (lambda (v) (sq (f v 1))) '(1 2 3))",
            ],
        );
        assert_all_verified(&e, &format!("{policy:?}"));
    }
}

#[test]
fn verifier_catches_corruption() {
    use segstack::scheme::{Check, Chunk, CodeStore, Instr, Symbol};
    let store = CodeStore::new();
    let mut bad = Chunk::new(Symbol::intern("bad"), 0, false);
    bad.instrs = vec![
        Instr::Call { d: 3, nargs: 1, check: Check::Yes }, // no FrameSize words
        Instr::Jump(99),                                   // out of range
        Instr::Const(0),                                   // empty pool
        Instr::LocalSet(50),                               // beyond frame size
    ];
    bad.frame_slots = 6;
    // The store verifies live chunks only; this handle keeps it live.
    let _bad = store.add(bad);
    let errors = store.verify();
    assert!(errors.len() >= 5, "found only {errors:?}");
    let text = errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n");
    assert!(text.contains("not preceded by a frame-size word"), "{text}");
    assert!(text.contains("return point lacks"), "{text}");
    assert!(text.contains("jump target"), "{text}");
    assert!(text.contains("outside pool"), "{text}");
    assert!(text.contains("beyond recorded frame size"), "{text}");
}
