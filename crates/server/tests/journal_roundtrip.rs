//! Round-trip property tests for the server's batch journal format,
//! extending the loader-serializer property (PR-4, `saga-stream`) to the
//! journal layer: `serialize ∘ parse` is the identity on structured
//! batches, and `parse` accepts every op spelling the loader does —
//! normalizing all of them to the same canonical text.

use saga_server::api::parse_batch_body;
use saga_server::journal::{
    append_batch, journal_root, parse_journal, serialize_journal, Journal, JournalBatch,
};
use saga_stream::{edge_weight, Edge, EdgeOp};
use saga_utils::rng::{for_each_seed, Xoshiro256PlusPlus};

/// Cases per property; replay a failure by chaining its seed on.
const SEEDS: std::ops::Range<u64> = 0..256;

const CAPACITY: usize = 48;

/// Batches as the tenant worker journals them: up to 7, consecutive seqs,
/// 1..=11 ops each, every edge carrying its canonical quantized weight
/// for `directed` (undirected weights canonicalize).
fn batches(rng: &mut Xoshiro256PlusPlus, directed: bool) -> Vec<JournalBatch> {
    (0..rng.range(0, 7))
        .map(|seq| JournalBatch {
            seq,
            ops: rng.vec(1, 11, |rng| {
                let op = if rng.chance(0.5) { EdgeOp::Insert } else { EdgeOp::Delete };
                let (s, d) = (rng.range(0, CAPACITY - 1) as u32, rng.range(0, CAPACITY - 1) as u32);
                (op, Edge::new(s, d, edge_weight(s, d, directed)))
            }),
        })
        .collect()
}

/// Renders one op in a chosen *foreign* spelling: any of the
/// insert/delete op columns the loader accepts, fused `-src`, with or
/// without the explicit weight.
fn foreign_line(op: EdgeOp, e: &Edge, spelling: usize, with_weight: bool) -> String {
    let w = if with_weight { format!(" {}", e.weight) } else { String::new() };
    match op {
        EdgeOp::Insert => match spelling {
            0 => format!("{} {}{w}", e.src, e.dst),
            1 => format!("+ {} {}{w}", e.src, e.dst),
            2 => format!("a {} {}{w}", e.src, e.dst),
            _ => format!("I {} {}{w}", e.src, e.dst),
        },
        EdgeOp::Delete => match spelling {
            0 => format!("- {} {}{w}", e.src, e.dst),
            1 => format!("d {} {}{w}", e.src, e.dst),
            2 => format!("D {} {}{w}", e.src, e.dst),
            _ => format!("-{} {}{w}", e.src, e.dst),
        },
    }
}

/// serialize ∘ parse is the identity on structured batches, for both
/// directednesses.
#[test]
fn serialize_parse_identity() {
    for_each_seed(SEEDS, |rng| {
        let directed = rng.chance(0.5);
        let batches = batches(rng, directed);
        let text = serialize_journal(&batches);
        let back = parse_journal(&text, directed).unwrap();
        assert_eq!(&back, &batches);
        // And serialization is deterministic: a second round trip yields
        // byte-identical text.
        assert_eq!(serialize_journal(&back), text);
    });
}

/// Every foreign spelling of the same ops parses to the same batches as
/// the canonical text — spelling never leaks into the journal's meaning.
#[test]
fn foreign_spellings_normalize() {
    for_each_seed(SEEDS, |rng| {
        let directed = rng.chance(0.5);
        let batches = batches(rng, directed);
        let mut text = String::new();
        for b in &batches {
            for &(op, ref e) in &b.ops {
                // Fused `-src` only renders for nonzero src (the loader
                // reads a bare `-0` as op column + missing dst).
                let spelling = match rng.range(0, 3) {
                    3 if op == EdgeOp::Delete && e.src == 0 => 0,
                    spelling => spelling,
                };
                text.push_str(&foreign_line(op, e, spelling, rng.chance(0.5)));
                text.push('\n');
            }
            text.push_str(&format!("#batch {}\n", b.seq));
        }
        let parsed = parse_journal(&text, directed).unwrap();
        assert_eq!(&parsed, &batches);
        // Normalization: re-serializing the foreign text gives canonical
        // text that round-trips to the same batches.
        let canonical = serialize_journal(&parsed);
        assert_eq!(parse_journal(&canonical, directed).unwrap(), batches);
    });
}

/// The replay root is a pure function of the journal text — the
/// convention offline replay and the tenant worker must share.
#[test]
fn root_survives_the_round_trip() {
    for_each_seed(SEEDS, |rng| {
        let batches = batches(rng, true);
        let text = serialize_journal(&batches);
        let back = parse_journal(&text, true).unwrap();
        assert_eq!(journal_root(&back), journal_root(&batches));
    });
}

/// Whatever body the server admits journals to exactly the ops it
/// admitted: `parse_batch_body` → `append_batch` → `parse_journal` is the
/// identity, weight bits included, over foreign spellings, comments,
/// blank lines, derived and explicit weights (`-0`, subnormals, `MAX`).
#[test]
fn accepted_bodies_journal_to_the_same_ops() {
    let bits = |ops: &[(EdgeOp, Edge)]| -> Vec<_> {
        ops.iter().map(|&(op, e)| (op, e.src, e.dst, e.weight.to_bits())).collect()
    };
    for_each_seed(SEEDS, |rng| {
        let directed = rng.chance(0.5);
        let mut body = String::new();
        for _ in 0..rng.range(1, 12) {
            match rng.range(0, 9) {
                0 => body.push_str("# a comment\n"),
                1 => body.push_str("  \n"),
                _ => {
                    let op = if rng.chance(0.5) { EdgeOp::Insert } else { EdgeOp::Delete };
                    let (s, d) = (rng.range(0, CAPACITY - 1) as u32, rng.range(0, CAPACITY - 1) as u32);
                    let weight = match rng.range(0, 5) {
                        0 => -0.0,
                        1 => f32::from_bits(rng.range(1, 0x7f_ffff) as u32),
                        2 => f32::MAX,
                        // Sign bit cleared: non-negative, now and then inf/NaN.
                        _ => f32::from_bits(rng.next_u64() as u32 & 0x7fff_ffff),
                    };
                    let spelling = if op == EdgeOp::Delete && s == 0 { 0 } else { rng.range(0, 3) };
                    let line = foreign_line(op, &Edge::new(s, d, weight), spelling, rng.chance(0.7));
                    body.push_str(&line);
                    body.push('\n');
                }
            }
        }
        let Ok(ops) = parse_batch_body(&body, CAPACITY, directed) else { return };
        let mut journal = String::new();
        append_batch(&mut journal, 3, &ops);
        let back = parse_journal(&journal, directed).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].seq, 3);
        assert_eq!(bits(&back[0].ops), bits(&ops), "{body}");
    });
}

/// The packed journal a tenant keeps renders exactly the text
/// `serialize_journal` writes for the same batches: inserts and deletes,
/// empty batches, arbitrary seqs, and every weight the body parser admits
/// (`-0`, subnormals, `MAX`, arbitrary non-negative bit patterns).
#[test]
fn packed_journal_renders_the_serialized_bytes() {
    for_each_seed(SEEDS, |rng| {
        let mut seq = rng.range(0, 1000);
        let batches: Vec<JournalBatch> = (0..rng.range(0, 9))
            .map(|_| {
                seq += rng.range(1, 3);
                let ops = rng.vec(0, 80, |rng| {
                    let op = if rng.chance(0.5) { EdgeOp::Insert } else { EdgeOp::Delete };
                    let weight = match rng.range(0, 4) {
                        0 => -0.0,
                        1 => f32::from_bits(rng.range(1, 0x7f_ffff) as u32),
                        2 => f32::MAX,
                        _ => f32::from_bits(rng.next_u64() as u32 & 0x7f7f_ffff),
                    };
                    let (s, d) = (rng.range(0, 1 << 24) as u32, rng.range(0, 1 << 24) as u32);
                    (op, Edge::new(s, d, weight))
                });
                JournalBatch { seq, ops }
            })
            .collect();
        let mut journal = Journal::default();
        for b in &batches {
            journal.append(b.seq, &b.ops);
        }
        assert_eq!(journal.render(), serialize_journal(&batches));
    });
}
