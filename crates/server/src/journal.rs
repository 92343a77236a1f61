//! The per-tenant batch journal: every byte the server accepts, in
//! acceptance order, replayable offline.
//!
//! A journal is the loader's edge-op grammar plus markers: canonical
//! [`render_edge_line`] rows — one per op, explicit weights — with a
//! `#batch <seq>` comment terminating each accepted batch. Because the
//! markers are `#` comments, a journal also loads as an ordinary edge-op
//! stream; [`parse_journal`] reads it with the loader's one line reader
//! ([`read_op_lines`]) and adds only the markers, recovering the batch
//! boundaries that `saga-check`'s loadgen replays through the
//! [`GraphOracle`] to prove the server processed exactly what it admitted
//! (DESIGN.md §13).
//!
//! A live tenant keeps its journal as a [`Journal`] of packed records and
//! renders the text only when it is read.
//!
//! [`GraphOracle`]: saga_graph::oracle::GraphOracle
//! [`render_edge_line`]: saga_stream::loader::render_edge_line

use saga_stream::loader::{read_op_lines, write_edge_line, OpLine};
use saga_stream::{Edge, EdgeOp};
use std::fmt::Write as _;

/// A journal in packed form: 12 bytes and one bit per op, 16 bytes per
/// batch. [`render`](Self::render) is byte for byte what
/// [`append_batch`] would have written for the same batches.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Every op's edge, in acceptance order.
    edges: Vec<Edge>,
    /// Bit `i` set: op `i` is a delete.
    deletes: Vec<u64>,
    /// Per batch: the end of its ops in `edges`, and its seq.
    batches: Vec<(usize, usize)>,
}

impl Journal {
    /// Records one accepted batch.
    pub fn append(&mut self, seq: usize, ops: &[(EdgeOp, Edge)]) {
        for &(op, edge) in ops {
            let i = self.edges.len();
            if i.is_multiple_of(64) {
                self.deletes.push(0);
            }
            if op == EdgeOp::Delete {
                self.deletes[i / 64] |= 1 << (i % 64);
            }
            self.edges.push(edge);
        }
        self.batches.push((self.edges.len(), seq));
    }

    /// The canonical journal text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut start = 0;
        for &(end, seq) in &self.batches {
            push_batch(&mut out, seq, (start..end).map(|i| (self.op(i), self.edges[i])));
            start = end;
        }
        out
    }

    fn op(&self, i: usize) -> EdgeOp {
        if self.deletes[i / 64] >> (i % 64) & 1 == 1 {
            EdgeOp::Delete
        } else {
            EdgeOp::Insert
        }
    }
}

/// One journaled batch: the ops exactly as accepted, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalBatch {
    /// Acceptance sequence number (what the `#batch` marker carries).
    pub seq: usize,
    /// The batch's ops in acceptance order.
    pub ops: Vec<(EdgeOp, Edge)>,
}

impl JournalBatch {
    /// Splits into `(inserts, deletes)` in op order — the form both the
    /// driver session and [`GraphOracle::apply_batch`] consume (inserts
    /// apply before deletes within a batch, the window semantics).
    ///
    /// [`GraphOracle::apply_batch`]: saga_graph::oracle::GraphOracle::apply_batch
    pub fn split(&self) -> (Vec<Edge>, Vec<Edge>) {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for &(op, e) in &self.ops {
            match op {
                EdgeOp::Insert => inserts.push(e),
                EdgeOp::Delete => deletes.push(e),
            }
        }
        (inserts, deletes)
    }
}

/// The replay root for a journal: the source vertex of the very first
/// journaled op. This is the same convention the tenant worker uses when
/// no explicit root was configured (and mirrors the differential
/// checker's `stream.edges.first().src` rule), so an offline replay seeds
/// BFS/SSSP/SSWP from the vertex the server did.
pub fn journal_root(batches: &[JournalBatch]) -> saga_stream::Node {
    batches
        .first()
        .and_then(|b| b.ops.first())
        .map(|&(_, e)| e.src)
        .unwrap_or(0)
}

/// Appends one batch to a journal in canonical form: one
/// [`render_edge_line`](saga_stream::loader::render_edge_line) row per op,
/// then the `#batch` terminator.
pub fn append_batch(out: &mut String, seq: usize, ops: &[(EdgeOp, Edge)]) {
    push_batch(out, seq, ops.iter().copied());
}

fn push_batch(out: &mut String, seq: usize, ops: impl Iterator<Item = (EdgeOp, Edge)>) {
    for (op, edge) in ops {
        write_edge_line(out, &edge, op);
        out.push('\n');
    }
    let _ = writeln!(out, "#batch {seq}");
}

/// Serializes batches to canonical journal text.
/// [`parse_journal`] ∘ `serialize_journal` is the identity on non-empty
/// batches (pinned by the seeded round-trip tests in
/// `tests/journal_roundtrip.rs`).
pub fn serialize_journal(batches: &[JournalBatch]) -> String {
    let mut out = String::new();
    for b in batches {
        append_batch(&mut out, b.seq, &b.ops);
    }
    out
}

/// Parses journal text back into batches. Accepts every op spelling
/// the loader does (`+`/`-`/`a`/`d`/fused signs, optional weights —
/// absent weights are re-derived from the endpoints with `directed`
/// sensitivity, exactly what the server does at admission). Trailing rows
/// after the last marker become a final implicit batch.
///
/// # Errors
///
/// Returns a message naming the first offending line: unparseable rows,
/// malformed `#batch` markers, or an empty batch.
pub fn parse_journal(text: &str, directed: bool) -> Result<Vec<JournalBatch>, String> {
    let mut batches = Vec::new();
    let mut ops: Vec<(EdgeOp, Edge)> = Vec::new();
    read_op_lines(text, |line| {
        match line {
            OpLine::Op(raw) => {
                let (src, dst) = raw.nodes()?;
                ops.push((raw.op, raw.edge(src, dst, directed)));
            }
            OpLine::Comment(comment) => {
                let Some(seq) = comment.strip_prefix("#batch") else { return Ok(()) };
                let seq: usize = seq.trim().parse().map_err(|_| "malformed #batch marker")?;
                if ops.is_empty() {
                    return Err(format!("empty batch {seq}"));
                }
                batches.push(JournalBatch { seq, ops: std::mem::take(&mut ops) });
            }
        }
        Ok(())
    })?;
    if !ops.is_empty() {
        let seq = batches.last().map(|b: &JournalBatch| b.seq + 1).unwrap_or(0);
        batches.push(JournalBatch { seq, ops });
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<JournalBatch> {
        vec![
            JournalBatch {
                seq: 0,
                ops: vec![
                    (EdgeOp::Insert, Edge::new(0, 1, 2.5)),
                    (EdgeOp::Insert, Edge::new(1, 2, 1.0)),
                ],
            },
            JournalBatch {
                seq: 1,
                ops: vec![
                    (EdgeOp::Delete, Edge::new(0, 1, 2.5)),
                    (EdgeOp::Insert, Edge::new(2, 3, 8.875)),
                ],
            },
        ]
    }

    #[test]
    fn serialize_then_parse_is_identity() {
        let batches = sample();
        let text = serialize_journal(&batches);
        assert_eq!(parse_journal(&text, true).unwrap(), batches);
    }

    #[test]
    fn journal_is_also_a_plain_edge_op_stream() {
        // Batch markers are comments, so the loader sees just the rows.
        let text = serialize_journal(&sample());
        let parsed: Vec<_> =
            text.lines().filter_map(saga_stream::loader::parse_edge_line).collect();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[2].op, EdgeOp::Delete);
    }

    #[test]
    fn foreign_spellings_and_missing_weights_parse() {
        let text = "+ 1 2\nd 3 4\n#batch 7\n-5 6\n#batch 8\n";
        let batches = parse_journal(text, false).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 7);
        assert_eq!(batches[0].ops[0].0, EdgeOp::Insert);
        assert_eq!(batches[0].ops[1].0, EdgeOp::Delete);
        let e = batches[0].ops[0].1;
        assert_eq!(e.weight, saga_stream::edge_weight(1, 2, false), "derived like admission");
        assert_eq!(batches[1].ops[0].1.src, 5);
    }

    #[test]
    fn trailing_rows_become_an_implicit_final_batch() {
        let text = "1 2\n#batch 0\n3 4\n";
        let batches = parse_journal(text, true).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].seq, 1, "implicit seq continues the last marker");
    }

    #[test]
    fn malformed_journals_are_rejected_with_line_numbers() {
        assert!(parse_journal("1 2\n#batch x\n", true)
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_journal("#batch 0\n", true).unwrap_err().contains("empty batch"));
        assert!(parse_journal("1 2\nnot an edge\n", true)
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn split_preserves_op_order_within_kind() {
        let b = &sample()[1];
        let (ins, del) = b.split();
        assert_eq!(ins, vec![Edge::new(2, 3, 8.875)]);
        assert_eq!(del, vec![Edge::new(0, 1, 2.5)]);
    }
}
