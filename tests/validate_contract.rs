//! Regressions for the validator contract (tier 1): a module that
//! `tls_ir::validate` accepts never panics in the pipeline. Each case below
//! is a one-edit mutant of a serialized generator module that `validate`
//! used to accept and that then panicked; it must now get a typed error.

use tls_repro::experiments::fuzz::{self, FailureKind, FuzzConfig};
use tls_repro::ir::{generate, serial, validate, GenConfig, Module, Sid, ValidateError};

/// The serialized measurement module of generator seed 40 (the seed of the
/// mutation study that found both panics).
fn seed40_text() -> String {
    serial::to_text(&generate(40, &GenConfig::default(), 0))
}

/// Replace the first line starting with `prefix` by `line`.
fn edit_line(text: &str, prefix: &str, line: &str) -> String {
    let mut done = false;
    let out: Vec<&str> = text
        .lines()
        .map(|l| {
            if !done && l.starts_with(prefix) {
                done = true;
                line
            } else {
                l
            }
        })
        .collect();
    assert!(done, "no line starts with `{prefix}`");
    out.join("\n") + "\n"
}

/// The mutant parses (the fault is semantic, not syntactic), and the fuzz
/// harness — which used to panic on it — reports it as an invalid module.
fn assert_rejected(m: &Module, expect: &ValidateError) {
    assert_eq!(validate(m).as_ref(), Err(expect));
    let failure = fuzz::check_module(m, &FuzzConfig::default(), &fuzz::ALL_MODES)
        .expect_err("an invalid module must not pass");
    assert_eq!(failure.kind, FailureKind::Invalid, "{failure}");
    assert!(failure.detail.contains(&expect.to_string()), "{failure}");
}

/// A load's sid edited past `counts sid=` (`s10` → `s90`; the count is
/// 12). The simulator sizes its per-sid tables by the count, so the load
/// indexed past the end of one when it executed speculatively (it panicked
/// in `step_epoch`).
#[test]
fn sid_past_the_count_is_a_typed_error() {
    let text = seed40_text();
    let original = serial::parse(&text).expect("parses");
    validate(&original).expect("the unmutated module is valid");
    assert_eq!(original.next_sid, 12);
    let load = "  load v1 v6 0 s10";
    assert!(text.contains(&format!("{load}\n")), "seed 40 changed shape");
    let mutant = serial::parse(&edit_line(&text, load, "  load v1 v6 0 s90")).expect("parses");
    let expect = ValidateError::SidOutOfRange {
        func: "main".into(),
        sid: Sid(90),
        next_sid: 12,
    };
    assert_rejected(&mutant, &expect);
}

/// The entry function given a parameter: the interpreter and the machine
/// both start it with none, and asserted so (`assert_eq!` panics).
#[test]
fn parameterized_entry_is_a_typed_error() {
    let text = seed40_text();
    let main = text
        .lines()
        .find(|l| l.starts_with("func main "))
        .expect("entry function line")
        .to_string();
    assert!(main.contains(" params=0 "), "{main}");
    let mutant = serial::parse(&edit_line(
        &text,
        "func main ",
        &main.replace(" params=0 ", " params=1 "),
    ))
    .expect("parses");
    let expect = ValidateError::EntryHasParams {
        func: "main".into(),
        params: 1,
    };
    assert_rejected(&mutant, &expect);
}
