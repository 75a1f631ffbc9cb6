//! The bytecode verifier run over everything this repository compiles: the
//! prelude, the control libraries, and the full workload corpus. The
//! verified invariants are exactly what stack walking (Figure 4), timer
//! re-entry and bounded frames rely on.

use segstack::baselines::Strategy;
use segstack::control::Control;
use segstack::scheme::{CheckPolicy, Engine};

#[test]
fn every_compiled_chunk_verifies() {
    let mut kit = Control::new(Strategy::Segmented).unwrap();
    // Compile the whole corpus through the same engine.
    for src in [
        include_str!("programs/ctak.scm"),
        include_str!("programs/sort.scm"),
        include_str!("programs/deriv.scm"),
        include_str!("programs/queens.scm"),
        include_str!("programs/generators.scm"),
        include_str!("programs/boyer.scm"),
        include_str!("programs/meta.scm"),
    ] {
        kit.eval(src).unwrap();
    }
    let errors = kit.engine().verify_code();
    assert!(
        errors.is_empty(),
        "{} violations:\n{}",
        errors.len(),
        errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert!(kit.engine().chunk_count() > 150, "corpus compiled into many chunks");
}

#[test]
fn verifier_holds_under_every_check_policy() {
    for policy in [CheckPolicy::Always, CheckPolicy::Elide, CheckPolicy::Never] {
        let mut e = Engine::builder().check_policy(policy).build().unwrap();
        e.eval(
            "(define (f a . rest) (apply + a rest))
             (define-syntax sq (syntax-rules () ((_ x) (* x x))))
             (map (lambda (v) (sq (f v 1))) '(1 2 3))",
        )
        .unwrap();
        let errors = e.verify_code();
        assert!(errors.is_empty(), "{policy:?}: {errors:?}");
    }
}

#[test]
fn verifier_catches_corruption() {
    use segstack::scheme::{Check, Chunk, CodeStore, Instr, Symbol};
    let store = CodeStore::new();
    store.add(Chunk {
        instrs: vec![
            Instr::Call { d: 3, nargs: 1, check: Check::Yes }, // no FrameSize words
            Instr::Jump(99),                                   // out of range
            Instr::Const(0),                                   // empty pool
            Instr::LocalSet(50),                               // beyond frame size
        ],
        consts: vec![],
        nparams: 0,
        variadic: false,
        name: Symbol::intern("bad"),
        frame_slots: 6,
        ics: vec![],
    });
    let errors = store.verify();
    assert!(errors.len() >= 5, "found only {errors:?}");
    let text = errors.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n");
    assert!(text.contains("not preceded by a frame-size word"), "{text}");
    assert!(text.contains("return point lacks"), "{text}");
    assert!(text.contains("jump target"), "{text}");
    assert!(text.contains("outside pool"), "{text}");
    assert!(text.contains("beyond recorded frame size"), "{text}");
}
