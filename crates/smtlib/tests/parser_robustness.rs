//! Robustness: the lexer/parser must never panic — any byte soup either
//! parses or returns a structured error.

use yinyang_rt::{props, Rng, StdRng};
use yinyang_smtlib::{check_script, parse_script, parse_term, tokenize, MAX_NESTING};
use yinyang_solver::{SatResult, SmtSolver};

/// Arbitrary printable text (plus some control/unicode characters) up to
/// `max` characters.
fn any_text(rng: &mut StdRng, max: usize) -> String {
    let n = rng.random_range(0..=max);
    (0..n)
        .map(|_| match rng.random_range(0..10usize) {
            0 => char::from(rng.random_range(0u8..32) as u8), // control chars
            1 => ['λ', '∀', '𝔽', 'é', '\u{7f}'][rng.random_range(0..5usize)],
            _ => char::from(rng.random_range(32u8..127)),
        })
        .collect()
}

/// S-expression-flavored soup: the characters the grammar actually uses.
fn sexpr_soup(rng: &mut StdRng, max: usize) -> String {
    const CHARS: &[u8] = br#"()abcdefghijklmnopqrstuvwxyz0123456789:"|;.-+*= "#;
    let n = rng.random_range(0..=max);
    (0..n).map(|_| CHARS[rng.random_range(0..CHARS.len())] as char).collect()
}

props! {
    cases: 512;

    fn tokenizer_never_panics(input in |r: &mut StdRng| any_text(r, 200)) {
        let _ = tokenize(&input);
    }

    fn parser_never_panics_on_arbitrary_text(input in |r: &mut StdRng| any_text(r, 200)) {
        let _ = parse_script(&input);
        let _ = parse_term(&input);
    }

    fn parser_never_panics_on_sexpr_soup(input in |r: &mut StdRng| sexpr_soup(r, 160)) {
        let _ = parse_script(&input);
    }

    fn accepted_soup_reaches_a_print_fixed_point(input in |r: &mut StdRng| sexpr_soup(r, 160)) {
        // Whenever random soup happens to parse, one parse→print round
        // normalizes it: reparsing the printed form is total and a fixed
        // point of print∘parse.
        if let Ok(script) = parse_script(&input) {
            let printed = script.to_string();
            let reparsed = parse_script(&printed)
                .unwrap_or_else(|e| panic!("printed script failed to reparse: {e}\n{printed}"));
            assert_eq!(reparsed, script);
            assert_eq!(reparsed.to_string(), printed, "print not idempotent");
        }
    }

    fn parse_of_printed_script_is_total(seed in |r: &mut StdRng| r.random_range(0u64..=u64::MAX)) {
        // Scripts we print always reparse.
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.random_range(1..4usize);
        let mut script = yinyang_smtlib::Script::new();
        for i in 0..count {
            let len = rng.random_range(0..=5usize);
            let mut name = String::new();
            name.push(char::from(rng.random_range(b'a'..=b'z')));
            for _ in 0..len {
                let c = if rng.random_bool(0.7) {
                    rng.random_range(b'a'..=b'z')
                } else {
                    rng.random_range(b'0'..=b'9')
                };
                name.push(char::from(c));
            }
            // Suffix with the index so repeated names stay distinct.
            let name = format!("{name}{i}");
            let v = rng.random_range(-100i64..100);
            script.declare_var(name.as_str(), yinyang_smtlib::Sort::Int);
            script.assert_term(yinyang_smtlib::Term::eq(
                yinyang_smtlib::Term::var(name.as_str()),
                yinyang_smtlib::Term::int(v),
            ));
        }
        let text = script.to_string();
        assert!(parse_script(&text).is_ok(), "failed to reparse: {text}");
    }
}

/// `(assert (not (not … x)))` with `depth` nested `not`s.
fn nested_not(depth: usize) -> String {
    format!(
        "(declare-fun x () Bool)\n(assert {}x{})\n(check-sat)\n",
        "(not ".repeat(depth),
        ")".repeat(depth)
    )
}

/// `(assert (> (+ 1 (+ 1 … x)) 0))`, nested `depth` deep counting the `>`.
fn nested_plus(depth: usize) -> String {
    let adds = depth - 1;
    format!(
        "(declare-fun x () Int)\n(assert (> {}x{} 0))\n(check-sat)\n",
        "(+ 1 ".repeat(adds),
        ")".repeat(adds)
    )
}

#[test]
fn scripts_at_the_nesting_limit_work_on_a_default_stack_thread() {
    // `thread::spawn` gives the default stack, the smallest a campaign
    // worker runs on. An overflow here aborts the test binary.
    std::thread::spawn(|| {
        for text in [nested_not(MAX_NESTING), nested_plus(MAX_NESTING)] {
            let script = parse_script(&text).expect("a script at the limit parses");
            check_script(&script).expect("and type-checks");
            let printed = script.to_string();
            assert_eq!(parse_script(&printed).expect("and reparses once printed"), script);
            assert_eq!(SmtSolver::new().solve_script(&script).result, SatResult::Sat);
        }
    })
    .join()
    .expect("at-limit scripts run on a default-stack thread");
}

#[test]
fn deeply_nested_input_is_handled() {
    // 300 levels of nesting: must error or parse without stack overflow.
    let deep = format!("{}x{}", "(not ".repeat(300), ")".repeat(300));
    let _ = parse_term(&deep);
    let unbalanced = "(".repeat(500);
    assert!(parse_script(&unbalanced).is_err());
    // Past the nesting limit, however deep, is a parse error.
    for text in [
        nested_not(MAX_NESTING + 1),
        nested_plus(MAX_NESTING + 1),
        nested_not(50_000),
        nested_plus(20_000),
    ] {
        let err = parse_script(&text).expect_err("too deep to parse");
        assert!(err.message.contains("nesting"), "{err}");
    }
    let deep_attribute = format!("(set-info :note {}x{})", "(".repeat(50_000), ")".repeat(50_000));
    assert!(parse_script(&deep_attribute).is_err());
}

#[test]
fn pathological_strings() {
    for s in [
        "\"",
        "\"\"\"",
        "(assert \"",
        "|",
        "(assert (= x 1.))",
        "(assert (= x .5))",
        "(assert ())",
        "(check-sat",
        ")",
    ] {
        let _ = parse_script(s); // must not panic
    }
}
