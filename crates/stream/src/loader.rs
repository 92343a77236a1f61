//! The one edge-op grammar, and the loader for SNAP-style edge-list files.
//!
//! The paper's real datasets come from the SNAP collection (§IV-C), which
//! cannot be redistributed here — but the loader can: point it at any SNAP
//! `.txt` edge list (`# comment` lines, whitespace-separated
//! `src dst [weight]` rows) and it produces the same [`EdgeStream`] the
//! synthetic profiles do, with vertex ids densely remapped, deterministic
//! weights derived for unweighted edges, and the §IV-B shuffle applied.
//!
//! Every edge-op document in the workspace is this grammar, as GAP's one
//! `.el`/`.wel` reader feeds every kernel: a SNAP file, and the server's
//! uploaded batch bodies, tenant journals (the grammar plus `#batch`
//! markers) and edge dumps. [`parse_edge_line`] reads one row on the
//! [`Cursor`], [`read_op_lines`] is the one line-numbered reader the
//! server's three documents share (each caller adds only its own rules),
//! and [`RawEdge::edge`] is the one place an absent weight is derived.
//!
//! ```no_run
//! use saga_stream::loader::load_snap_text;
//!
//! let stream = load_snap_text("soc-LiveJournal1.txt", true, 42)?;
//! println!("{} vertices, {} edges", stream.num_nodes, stream.edges.len());
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::batching::shuffle_edges;
use crate::{edge_weight, Edge, EdgeOp, EdgeStream, Node};
use saga_utils::scan::Cursor;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// One parsed line of an edge-list file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawEdge {
    /// Source id as it appears in the file.
    pub src: u64,
    /// Destination id as it appears in the file.
    pub dst: u64,
    /// Optional explicit weight.
    pub weight: Option<f32>,
    /// Operation: `Insert` for plain rows, `Delete` for rows with a
    /// `-`/`d` op column or a fused `-src` first token.
    pub op: EdgeOp,
}

impl RawEdge {
    /// The row as an edge between `src` and `dst` — its own ids, or the
    /// dense ids a loader remaps them to — carrying its explicit weight,
    /// or else the deterministic [`edge_weight`] of the pair.
    pub fn edge(&self, src: Node, dst: Node, directed: bool) -> Edge {
        Edge::new(src, dst, self.weight.unwrap_or_else(|| edge_weight(src, dst, directed)))
    }

    /// The row's own ids as vertex ids.
    ///
    /// # Errors
    ///
    /// Names an id beyond [`Node`]'s range.
    pub fn nodes(&self) -> Result<(Node, Node), String> {
        match (Node::try_from(self.src), Node::try_from(self.dst)) {
            (Ok(src), Ok(dst)) => Ok((src, dst)),
            _ => Err(format!("vertex id {} out of range", self.src.max(self.dst))),
        }
    }
}

/// One non-blank line of an edge-op document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpLine<'a> {
    /// An edge row.
    Op(RawEdge),
    /// A `#` or `%` comment line, surrounding whitespace trimmed.
    Comment(&'a str),
}

/// Reads one line: `None` when blank, `Some(Err(()))` for a malformed row.
fn op_line(line: &str) -> Option<Result<OpLine<'_>, ()>> {
    let mut c = Cursor::new(line);
    c.skip_ws();
    match c.peek()? {
        b'#' | b'%' => Some(Ok(OpLine::Comment(c.rest().trim_end()))),
        _ => Some(row(&mut c).map(OpLine::Op).ok_or(())),
    }
}

/// `[op] src dst [weight]`, tokens converted with `FromStr`.
fn row(c: &mut Cursor<'_>) -> Option<RawEdge> {
    let mut first = c.token()?;
    let op = match first {
        "+" | "a" | "A" | "i" | "I" => {
            first = c.token()?;
            EdgeOp::Insert
        }
        "-" | "d" | "D" => {
            first = c.token()?;
            EdgeOp::Delete
        }
        _ => match first.strip_prefix('-') {
            Some(rest) => {
                first = rest;
                EdgeOp::Delete
            }
            None => {
                first = first.strip_prefix('+').unwrap_or(first);
                EdgeOp::Insert
            }
        },
    };
    let src = first.parse().ok()?;
    let dst = c.token()?.parse().ok()?;
    let weight = c.token().map(str::parse).transpose().ok()?;
    Some(RawEdge { src, dst, weight, op })
}

/// Parses one line of a SNAP edge list. Returns `None` for comments and
/// blank lines; malformed lines — including rows whose weight column is
/// not a number — yield `None` too (SNAP files occasionally carry
/// headers).
///
/// Rows may carry a leading op column (`+`/`a`/`i` insert, `-`/`d`
/// delete, case-insensitive) or fuse the sign onto the source id
/// (`-12 34` deletes edge 12→34); plain `src dst [weight]` rows are
/// insertions.
///
/// # Examples
///
/// ```
/// use saga_stream::loader::parse_edge_line;
/// use saga_stream::EdgeOp;
///
/// assert_eq!(parse_edge_line("# FromNodeId ToNodeId"), None);
/// let e = parse_edge_line("12\t34").unwrap();
/// assert_eq!((e.src, e.dst, e.weight, e.op), (12, 34, None, EdgeOp::Insert));
/// let w = parse_edge_line("1 2 0.5").unwrap();
/// assert_eq!(w.weight, Some(0.5));
/// let d = parse_edge_line("- 12 34").unwrap();
/// assert_eq!((d.src, d.dst, d.op), (12, 34, EdgeOp::Delete));
/// assert_eq!(parse_edge_line("-12 34").unwrap().op, EdgeOp::Delete);
/// // A non-numeric weight column rejects the whole line rather than
/// // silently keeping the edge unweighted.
/// assert_eq!(parse_edge_line("1 2 abc"), None);
/// ```
pub fn parse_edge_line(line: &str) -> Option<RawEdge> {
    match op_line(line)? {
        Ok(OpLine::Op(raw)) => Some(raw),
        _ => None,
    }
}

/// The one line-numbered reader of edge-op documents. Blank lines are
/// skipped; comment lines go to `visit` as [`OpLine::Comment`] (most
/// callers ignore them, the journal's `#batch` markers live there); every
/// other line must be a [`parse_edge_line`] row. The first unparseable
/// row, or the first error `visit` returns, ends the read with that
/// message prefixed by `line N: `.
///
/// # Examples
///
/// ```
/// use saga_stream::loader::{read_op_lines, OpLine};
///
/// let mut rows = 0;
/// let text = "# header\n1 2\n\n- 2 3 0.5\n";
/// read_op_lines(text, |line| Ok(rows += matches!(line, OpLine::Op(_)) as usize)).unwrap();
/// assert_eq!(rows, 2);
/// let err = read_op_lines("1 2\nnot an edge\n", |_| Ok(())).unwrap_err();
/// assert!(err.starts_with("line 2: "), "{err}");
/// ```
pub fn read_op_lines<'a>(
    text: &'a str,
    mut visit: impl FnMut(OpLine<'a>) -> Result<(), String>,
) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        match op_line(line) {
            None => {}
            Some(Ok(op)) => visit(op).map_err(at)?,
            Some(Err(())) => return Err(at(format!("unparseable edge op {line:?}"))),
        }
    }
    Ok(())
}

/// Renders one edge as a canonical edge-list line: deletes carry a
/// leading `-` op column, inserts none, and the weight is always explicit
/// (shortest round-tripping float form) so re-parsing never has to
/// re-derive it. [`parse_edge_line`] accepts every line this produces.
///
/// # Examples
///
/// ```
/// use saga_stream::loader::{parse_edge_line, render_edge_line};
/// use saga_stream::{Edge, EdgeOp};
///
/// let line = render_edge_line(&Edge::new(1, 2, 2.5), EdgeOp::Delete);
/// assert_eq!(line, "- 1 2 2.5");
/// let raw = parse_edge_line(&line).unwrap();
/// assert_eq!((raw.src, raw.dst, raw.weight, raw.op), (1, 2, Some(2.5), EdgeOp::Delete));
/// ```
pub fn render_edge_line(edge: &Edge, op: EdgeOp) -> String {
    let mut line = String::new();
    write_edge_line(&mut line, edge, op);
    line
}

/// Appends [`render_edge_line`]'s row to `out`, without the newline and
/// without a `String` of its own.
pub fn write_edge_line(out: &mut String, edge: &Edge, op: EdgeOp) {
    use std::fmt::Write as _;
    let sign = match op {
        EdgeOp::Insert => "",
        EdgeOp::Delete => "- ",
    };
    let _ = write!(out, "{sign}{} {} {}", edge.src, edge.dst, edge.weight);
}

/// Serializes an edge list to the canonical text form read back by
/// [`read_edge_list_with`]: one [`render_edge_line`] row per edge, ops
/// taken from `ops` (empty means insert-only). Because vertex ids are
/// emitted as-is and re-reading remaps by first appearance, a serialized
/// dense stream round-trips to identical edges, ops, and node count.
///
/// # Panics
///
/// Panics if `ops` is neither empty nor parallel to `edges`.
pub fn serialize_edge_list(edges: &[Edge], ops: &[EdgeOp]) -> String {
    assert!(
        ops.is_empty() || ops.len() == edges.len(),
        "ops must be empty or carry one op per edge"
    );
    let mut out = String::new();
    for (i, edge) in edges.iter().enumerate() {
        let op = ops.get(i).copied().unwrap_or(EdgeOp::Insert);
        write_edge_line(&mut out, edge, op);
        out.push('\n');
    }
    out
}

/// Reads an edge list from any reader, densely remapping vertex ids in
/// first-appearance order. Unweighted edges get deterministic
/// direction-sensitive weights; see [`read_edge_list_with`] for undirected
/// inputs. The returned op vector is empty when every row is an insertion.
pub fn read_edge_list<R: Read>(reader: R) -> std::io::Result<(Vec<Edge>, Vec<EdgeOp>, usize)> {
    read_edge_list_with(reader, true)
}

/// [`read_edge_list`] with explicit directedness: undirected inputs weigh
/// both orientations of a pair identically.
pub fn read_edge_list_with<R: Read>(
    reader: R,
    directed: bool,
) -> std::io::Result<(Vec<Edge>, Vec<EdgeOp>, usize)> {
    let mut remap: HashMap<u64, Node> = HashMap::new();
    let mut edges = Vec::new();
    let mut ops = Vec::new();
    let mut any_delete = false;
    let buf = BufReader::new(reader);
    for line in buf.lines() {
        let line = line?;
        let Some(raw) = parse_edge_line(&line) else {
            continue;
        };
        let next_src = remap.len() as Node;
        let src = *remap.entry(raw.src).or_insert(next_src);
        let next_dst = remap.len() as Node;
        let dst = *remap.entry(raw.dst).or_insert(next_dst);
        edges.push(raw.edge(src, dst, directed));
        ops.push(raw.op);
        any_delete |= raw.op == EdgeOp::Delete;
    }
    if !any_delete {
        ops.clear(); // normalized form: empty ops ⇒ insert-only stream
    }
    Ok((edges, ops, remap.len()))
}

/// Loads a SNAP text edge list into an [`EdgeStream`], batched at the
/// paper's ratio (one batch per ~500K paper-edges worth, at least 10
/// batches). Insert-only files are shuffled with `seed` (§IV-B); files
/// carrying an op column keep their order, since shuffling could move a
/// delete ahead of the insert it targets.
///
/// # Errors
///
/// Returns any I/O error from opening or reading the file.
pub fn load_snap_text<P: AsRef<Path>>(
    path: P,
    directed: bool,
    seed: u64,
) -> std::io::Result<EdgeStream> {
    let file = std::fs::File::open(&path)?;
    let (mut edges, ops, num_nodes) = read_edge_list_with(file, directed)?;
    if ops.is_empty() {
        shuffle_edges(&mut edges, seed);
    }
    let name = path
        .as_ref()
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snap".to_string());
    let suggested_batch_size = (edges.len() / 10).clamp(1, 500_000);
    Ok(EdgeStream {
        name,
        num_nodes,
        directed,
        edges,
        ops,
        boundaries: Vec::new(),
        suggested_batch_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight_for;

    const SAMPLE: &str = "\
# Directed graph (each unordered pair of nodes is saved once)
# FromNodeId\tToNodeId
100\t200
100\t300
200\t100

300\t400\t2.5
not a line
";

    #[test]
    fn parses_comments_blanks_and_weights() {
        assert_eq!(parse_edge_line(""), None);
        assert_eq!(parse_edge_line("# x"), None);
        assert_eq!(parse_edge_line("% matrix-market style"), None);
        assert_eq!(parse_edge_line("abc def"), None);
        let e = parse_edge_line("  7   9  ").unwrap();
        assert_eq!((e.src, e.dst), (7, 9));
    }

    #[test]
    fn non_numeric_weight_rejects_the_line() {
        assert_eq!(parse_edge_line("1 2 abc"), None);
        assert_eq!(parse_edge_line("1 2 1.5e"), None);
        // A parseable weight still goes through.
        assert_eq!(parse_edge_line("1 2 1.5").unwrap().weight, Some(1.5));
    }

    #[test]
    fn op_columns_parse_in_every_spelling() {
        for (line, op) in [
            ("+ 1 2", EdgeOp::Insert),
            ("a 1 2", EdgeOp::Insert),
            ("I 1 2", EdgeOp::Insert),
            ("- 1 2", EdgeOp::Delete),
            ("d 1 2", EdgeOp::Delete),
            ("D 1 2 3.5", EdgeOp::Delete),
            ("+1 2", EdgeOp::Insert),
            ("-1 2", EdgeOp::Delete),
        ] {
            let e = parse_edge_line(line).unwrap_or_else(|| panic!("{line:?}"));
            assert_eq!((e.src, e.dst), (1, 2), "{line:?}");
            assert_eq!(e.op, op, "{line:?}");
        }
        // A bare op token with nothing after it is malformed.
        assert_eq!(parse_edge_line("-"), None);
        assert_eq!(parse_edge_line("- 1"), None);
    }

    #[test]
    fn op_streams_keep_file_order_and_carry_ops() {
        let sample = "1 2\n2 3\n- 1 2\n";
        let (edges, ops, n) = read_edge_list(sample.as_bytes()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(ops, vec![EdgeOp::Insert, EdgeOp::Insert, EdgeOp::Delete]);
        // The delete row targets the same remapped endpoints as its insert.
        assert_eq!((edges[2].src, edges[2].dst), (edges[0].src, edges[0].dst));

        let dir = std::env::temp_dir().join("saga-loader-ops-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("churn.txt");
        std::fs::write(&path, sample).unwrap();
        let stream = load_snap_text(&path, true, 9).unwrap();
        assert!(stream.has_deletions());
        // No shuffle for op streams: order is exactly the file order.
        assert_eq!(stream.edges, edges);
        assert_eq!(stream.ops, ops);
    }

    #[test]
    fn dense_remap_preserves_structure() {
        let (edges, ops, n) = read_edge_list(SAMPLE.as_bytes()).unwrap();
        assert_eq!(n, 4, "ids 100, 200, 300, 400");
        assert_eq!(edges.len(), 4);
        assert!(ops.is_empty(), "insert-only input normalizes to empty ops");
        // 100 -> 0, 200 -> 1, 300 -> 2, 400 -> 3 (first-appearance order).
        assert_eq!((edges[0].src, edges[0].dst), (0, 1));
        assert_eq!((edges[1].src, edges[1].dst), (0, 2));
        assert_eq!((edges[2].src, edges[2].dst), (1, 0));
        assert_eq!((edges[3].src, edges[3].dst), (2, 3));
        assert_eq!(edges[3].weight, 2.5, "explicit weight kept");
        // Unweighted edges get the deterministic pair weight.
        assert_eq!(edges[0].weight, weight_for(0, 1));
    }

    #[test]
    fn load_snap_text_roundtrip() {
        let dir = std::env::temp_dir().join("saga-loader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, SAMPLE).unwrap();
        let stream = load_snap_text(&path, true, 1).unwrap();
        assert_eq!(stream.name, "tiny");
        assert_eq!(stream.num_nodes, 4);
        assert_eq!(stream.edges.len(), 4);
        assert!(stream.directed);
        // Same seed, same shuffle.
        let again = load_snap_text(&path, true, 1).map(|s| s.edges).unwrap();
        assert_eq!(stream.edges, again);
    }
}
