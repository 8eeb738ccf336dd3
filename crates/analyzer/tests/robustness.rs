//! Parser robustness: arbitrary input never panics, mutated valid sources
//! fail gracefully with positioned errors, and valid sources round-trip
//! through the token stream. Random inputs are drawn from
//! `gom_obs::SplitMix64`, one seed per case, and every failure prints its
//! seed.

use gom_analyzer::ast::Item;
use gom_analyzer::car_schema::{CAR_SCHEMA_SRC, COMPANY_SCHEMA_SRC};
use gom_analyzer::lex::tokenize;
use gom_analyzer::{parse_source, ParseError};
use gom_obs::SplitMix64;

/// Random cases per property, one seed each.
const SEEDS: u64 = 512;

/// A printable ASCII character (`' '..='~'`), or also `'\n'` when
/// `newline` is set.
fn ascii(rng: &mut SplitMix64, newline: bool) -> char {
    let k = rng.below(95 + usize::from(newline));
    if k == 95 {
        '\n'
    } else {
        (b' ' + k as u8) as char
    }
}

/// Parse `src`; a parser panic fails the test naming `case`.
fn parse_or_fail(src: &str, case: std::fmt::Arguments) -> Result<Vec<Item>, ParseError> {
    std::panic::catch_unwind(|| parse_source(src))
        .unwrap_or_else(|_| panic!("{case}: the parser panicked"))
}

/// The lexer and parser must never panic, whatever the input.
#[test]
fn parser_never_panics_on_arbitrary_ascii() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let len = rng.below(301);
        let src: String = (0..len).map(|_| ascii(&mut rng, true)).collect();
        let _ = parse_or_fail(&src, format_args!("seed {seed}")); // Ok or Err — both fine
    }
}

/// Random single-character corruption of a valid source either still
/// parses (the change hit a comment or irrelevant spot) or produces a
/// positioned error — never a panic, never a bogus success with a
/// mangled schema name.
#[test]
fn mutated_car_schema_fails_gracefully() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let pos = rng.below(CAR_SCHEMA_SRC.len());
        let c = ascii(&mut rng, false);
        let mut src = CAR_SCHEMA_SRC.to_string();
        // splice at a char boundary
        if src.is_char_boundary(pos) && src.is_char_boundary(pos + 1) {
            src.replace_range(pos..pos + 1, &c.to_string());
        }
        match parse_or_fail(&src, format_args!("seed {seed}")) {
            Ok(items) => assert!(!items.is_empty(), "seed {seed}: empty parse"),
            Err(e) => {
                assert!(e.line >= 1, "seed {seed}: {e}");
                assert!(!e.msg.is_empty(), "seed {seed}: empty message");
            }
        }
    }
}

/// Truncation at every prefix length never panics.
#[test]
fn truncated_sources_never_panic() {
    for len in 0..COMPANY_SCHEMA_SRC.len() {
        if COMPANY_SCHEMA_SRC.is_char_boundary(len) {
            let _ = parse_or_fail(&COMPANY_SCHEMA_SRC[..len], format_args!("prefix {len}"));
        }
    }
}

#[test]
fn canonical_sources_tokenize_exactly_once() {
    for src in [CAR_SCHEMA_SRC, COMPANY_SCHEMA_SRC] {
        let toks = tokenize(src).unwrap();
        assert!(!toks.is_empty());
        // Spans are monotonically increasing and within bounds.
        let mut prev_end = 0;
        for t in &toks {
            assert!(t.start >= prev_end, "overlapping spans");
            assert!(t.end <= src.len());
            prev_end = t.start;
        }
    }
}

#[test]
fn error_positions_point_into_the_source() {
    let src = "schema S is\n  type T is\n    [ x : ; ]\n  end type T;\nend schema S;";
    let err = parse_source(src).unwrap_err();
    assert_eq!(err.line, 3, "{err}");
}
