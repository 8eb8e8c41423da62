//! Hostile CI scripts: the register route hands untrusted `script` text
//! to [`CiScript::parse`], which runs it through the YAML reader, the
//! condition tokenizer and parser, and the semantic analysis. Whatever
//! the text, parsing must return — never panic, never exhaust the stack
//! — and every refusal is a [`CiError`] with a message.
//!
//! Inputs are token soups over the condition alphabet set inside an
//! otherwise valid script, and byte flips, truncations and line splices
//! of valid scripts. 2,048 cases each run in the debug suite; the
//! `_exhaustively` twins run 250,000 in release with `--ignored`.

use easeml_ci_core::{CiError, CiScript};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid scripts the edits start from: every condition shape the
/// estimator distinguishes, and the optional keys.
const SCRIPTS: [&str; 5] = [
    "ml:\n  - condition  : n - o > 0.02 +/- 0.01\n  - reliability: 0.9999\n  \
     - mode       : fp-free\n  - adaptivity : full\n  - steps      : 32\n",
    "language: python\nml:\n  - script     : ./test_model.py\n  \
     - condition  : n - 1.1 * o > 0.01 +/- 0.01 /\\ d < 0.1 +/- 0.01\n  \
     - reliability: 0.999\n  - mode       : fn-free\n  \
     - adaptivity : none -> ci@example.com\n  - steps      : 8\n",
    "ml:\n  - condition  : f1(n) - f1(o) > -0.1 +/- 0.2\n  - reliability: 0.99\n  \
     - mode       : fp-free\n  - adaptivity : firstChange\n  - steps      : 4\n",
    "ml:\n  - condition  : topk(n, 5) > 0.5 +/- 0.2\n  - reliability: 0.99\n  \
     - adaptivity : full\n  - steps      : 2\n",
    "# comment\nml:\n  - condition  : d < 0.1 +/- 0.01 # trailing\n  \
     - reliability: 0.9\n  - steps      : 1\n",
];

/// The condition alphabet, with the pieces most likely to trip a
/// tokenizer or parser: keywords with and without their parenthesis,
/// numbers at and past the `f64` range, partial operators and stray
/// characters.
const TOKENS: [&str; 40] = [
    "n",
    "o",
    "d",
    "f1(",
    "topk(",
    "f1",
    "topk",
    "(",
    ")",
    ",",
    "+",
    "-",
    "*",
    ">",
    "<",
    "+/-",
    "/\\",
    "/",
    "\\",
    "+/",
    "0",
    "0.5",
    "1",
    "2",
    "5",
    "0.02",
    "1e308",
    "1e-308",
    "9e999999999",
    "1e",
    "1.",
    ".",
    "0.5.5",
    "4294967296",
    "-0",
    "e5",
    "nan",
    "inf",
    "é",
    ":",
];

/// Characters a flip writes: printable ASCII, layout characters the
/// YAML reader treats specially, a NUL and multi-byte characters.
fn flip_char(pick: u64) -> char {
    const SPECIAL: [char; 8] = ['\t', '\n', '\r', '#', ':', '\0', 'é', '😀'];
    match pick % 4 {
        0 => SPECIAL[(pick / 4) as usize % SPECIAL.len()],
        _ => char::from(b' ' + ((pick / 4) % 95) as u8),
    }
}

/// The first script with its condition replaced by `tokens` over
/// `TOKENS`, each followed by a space or not as `spacing`'s bits say.
fn soup_script(tokens: &[usize], spacing: u64) -> String {
    let mut condition = String::new();
    for (i, &t) in tokens.iter().enumerate() {
        condition.push_str(TOKENS[t]);
        if spacing >> (i % 64) & 1 == 1 {
            condition.push(' ');
        }
    }
    SCRIPTS[0].replace("n - o > 0.02 +/- 0.01", &condition)
}

/// One edit of a script's characters: flip one, cut the text short, or
/// splice a line of another script in, at positions drawn from `at`.
fn edited(script: usize, edits: &[(u32, u64, u64)]) -> String {
    let mut chars: Vec<char> = SCRIPTS[script].chars().collect();
    for &(kind, at, pick) in edits {
        let pos = (at % (chars.len() as u64 + 1)) as usize;
        match kind {
            0 => {
                if pos < chars.len() {
                    chars[pos] = flip_char(pick);
                }
            }
            1 => chars.truncate(pos),
            _ => {
                let donor: Vec<&str> = SCRIPTS[pick as usize % SCRIPTS.len()].lines().collect();
                let line = donor[(pick / 8) as usize % donor.len()];
                let spliced: Vec<char> = format!("{line}\n").chars().collect();
                chars.splice(pos..pos, spliced);
            }
        }
    }
    chars.into_iter().collect()
}

/// Parse `text`; a panic or a refusal without a message fails the case.
fn check(text: &str) -> Result<(), TestCaseError> {
    let parsed = catch_unwind(AssertUnwindSafe(|| CiScript::parse(text)));
    let Ok(parsed) = parsed else {
        return Err(TestCaseError::fail(format!("parse panicked on {text:?}")));
    };
    if let Err(e) = parsed {
        let e: CiError = e;
        prop_assert!(!e.to_string().is_empty(), "empty refusal for {:?}", text);
    }
    Ok(())
}

fn soup() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..TOKENS.len(), 0..40)
}

fn script_edits() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    prop::collection::vec((0u32..3, 0u64..u64::MAX, 0u64..u64::MAX), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Token soups in the condition of an otherwise valid script.
    #[test]
    fn hostile_conditions_are_refused_not_panicked_on(
        tokens in soup(),
        spacing in 0u64..u64::MAX,
    ) {
        check(&soup_script(&tokens, spacing))?;
    }

    /// Byte flips, truncations and line splices of valid scripts.
    #[test]
    fn hostile_script_edits_are_refused_not_panicked_on(
        script in 0usize..SCRIPTS.len(),
        edits in script_edits(),
    ) {
        check(&edited(script, &edits))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250_000))]

    /// [`hostile_conditions_are_refused_not_panicked_on`] over many more
    /// soups; run it in release with `--ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn hostile_conditions_are_refused_not_panicked_on_exhaustively(
        tokens in soup(),
        spacing in 0u64..u64::MAX,
    ) {
        check(&soup_script(&tokens, spacing))?;
    }

    /// [`hostile_script_edits_are_refused_not_panicked_on`] over many
    /// more edits; run it in release with `--ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn hostile_script_edits_are_refused_not_panicked_on_exhaustively(
        script in 0usize..SCRIPTS.len(),
        edits in script_edits(),
    ) {
        check(&edited(script, &edits))?;
    }
}

/// A register body holds up to 1 MiB of script: a condition nested or
/// chained that deep must be refused before anything recurses once per
/// token.
#[test]
fn deeply_nested_conditions_are_refused_without_exhausting_the_stack() {
    let deep = 200_000;
    for condition in [
        format!("{}n{} > 0.5 +/- 0.1", "(".repeat(deep), ")".repeat(deep)),
        format!("{}n > 0.5 +/- 0.1", "-".repeat(deep)),
        format!("n{} > 0.5 +/- 0.1", " * 2".repeat(deep)),
        format!("n{} > 0.5 +/- 0.1", " + n".repeat(deep)),
        format!("n{} > 0.5 +/- 0.1", " - o".repeat(deep)),
    ] {
        let text = SCRIPTS[0].replace("n - o > 0.02 +/- 0.01", &condition);
        let err = CiScript::parse(&text).expect_err("an unbounded condition must be refused");
        assert!(err.to_string().contains("too long"), "{err}");
    }
    // The deepest conditions under the token cap parse.
    let cap = easeml_ci_core::dsl::MAX_TOKENS;
    let nest = (cap - 6) / 2;
    for condition in [
        format!("{}n{} > 0.5 +/- 0.1", "(".repeat(nest), ")".repeat(nest)),
        format!("{}n > 0.5 +/- 0.1", "-".repeat(cap - 6)),
    ] {
        let text = SCRIPTS[0].replace("n - o > 0.02 +/- 0.01", &condition);
        CiScript::parse(&text).unwrap();
    }
}
