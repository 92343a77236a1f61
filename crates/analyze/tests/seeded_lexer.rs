//! Seeded property tests for the analyzer's lexer: on arbitrary input —
//! not just well-formed Rust — token spans must be non-overlapping,
//! in-bounds, and concatenate back to the source byte-for-byte. Totality
//! is what lets the corpus test and the whole-repo analysis trust the
//! token stream.

use saga_analyze::lexer::lex;
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

/// Fragments biased toward lexer trouble: comment openers, string quotes,
/// raw-string hashes, lifetimes vs. char literals.
const TROUBLE: [&str; 13] = [
    "//", "/*", "*/", "\"", "\\\"", "r#\"", "\"#", "'a", "'a'", "0x1f", "1..2", "fn f() {}",
    "self.m.lock()",
];

/// Up to `max` arbitrary scalar values folded to `char`, surrogates
/// skipped — the lexer must stay total on any unicode, not just source-y
/// text.
fn unicode_run(rng: &mut Xoshiro256PlusPlus, max: usize) -> String {
    rng.vec(0, max, |rng| rng.range(0, 0x0010_FFFF) as u32)
        .into_iter()
        .filter_map(char::from_u32)
        .collect()
}

/// Up to 23 fragments: the trouble list, printable-ASCII runs (the bulk
/// of real source), and plain unicode.
fn source(rng: &mut Xoshiro256PlusPlus) -> String {
    rng.vec(0, 23, |rng| match rng.range(0, TROUBLE.len() + 1) {
        i if i < TROUBLE.len() => TROUBLE[i].to_string(),
        i if i == TROUBLE.len() => {
            rng.vec(0, 7, |rng| rng.range(32, 126) as u8 as char).into_iter().collect()
        }
        _ => unicode_run(rng, 3),
    })
    .concat()
}

#[test]
fn spans_tile_arbitrary_input() {
    for_each_seed(SEEDS, |rng| {
        let src = source(rng);
        let tokens = lex(&src);
        let mut cursor = 0usize;
        for t in &tokens {
            assert_eq!(t.start, cursor, "gap/overlap at byte {cursor} of {src:?}");
            assert!(t.end > t.start, "empty span at {} of {src:?}", t.start);
            assert!(t.end <= src.len(), "span {}..{} out of bounds of {src:?}", t.start, t.end);
            cursor = t.end;
        }
        assert_eq!(cursor, src.len(), "lexer stopped before the end of {src:?}");
        let rebuilt: String = tokens.iter().map(|t| t.text(&src)).collect();
        assert_eq!(rebuilt, src);
    });
}

#[test]
fn spans_tile_arbitrary_unicode() {
    for_each_seed(SEEDS, |rng| {
        let src = unicode_run(rng, 63);
        let mut cursor = 0usize;
        for t in &lex(&src) {
            assert_eq!(t.start, cursor, "gap/overlap in {src:?}");
            cursor = t.end;
        }
        assert_eq!(cursor, src.len(), "lexer stopped before the end of {src:?}");
    });
}
