//! Item-level parser: function boundaries and the atomic operations in
//! their bodies — just enough structure to drive the atomics audit, built
//! on the total [`crate::lexer`].
//!
//! The parser is approximate by design (DESIGN.md §11 lists the known
//! approximations). It recovers, per function, its name, declaration line
//! and whether it sits inside a test module (test code is parsed but
//! excluded from the audit), and a linear event stream over its body:
//! atomic operations carrying an `Ordering::` argument, and the locals
//! that borrow a field (`let`, `for` and single-parameter iterator
//! closures), so an operation on the local groups with the field.

use crate::lexer::{lex, Token, TokenKind};

/// One element of a function body's linear event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A local name that borrows a field (`let stamp = &self.stamps[i];`,
    /// `for word in &self.words { … }`, or the one parameter of a closure
    /// passed along `self.words.iter()…`): operations on `name` belong to
    /// `field`'s atomic group.
    Alias {
        /// The borrowing local.
        name: String,
        /// The underlying field.
        field: String,
    },
    /// An atomic operation with an explicit `Ordering::` argument.
    AtomicOp {
        /// Receiver field or variable (atomic group seed).
        field: String,
        /// Method name (`load`, `store`, `fetch_add`, …).
        method: String,
        /// Ordering names in argument position (`Relaxed`, `AcqRel`, …;
        /// two entries for compare-exchange success/failure).
        orderings: Vec<String>,
        /// True when the result is syntactically discarded (`x.op(…);`
        /// as a bare statement).
        discarded: bool,
        /// 1-based source line.
        line: usize,
    },
}

/// One parsed function (or trait-method declaration, which has an empty
/// event stream).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared inside a `#[cfg(test)]` module.
    pub in_test_module: bool,
    /// Linear body event stream (empty for bodyless declarations).
    pub events: Vec<Event>,
}

/// Atomic methods whose calls the audit records (when an `Ordering::`
/// argument is present, which excludes same-named non-atomic methods).
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Parses `source` into its functions. Never fails; unrecognized
/// constructs are skipped.
pub fn parse(source: &str) -> Vec<FnInfo> {
    let tokens: Vec<Token> = lex(source)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(source.char_indices().filter(|&(_, c)| c == '\n').map(|(i, _)| i + 1))
        .collect();
    let mut p = Parser {
        source,
        tokens,
        pos: 0,
        line_starts,
        fns: Vec::new(),
    };
    p.items(false, usize::MAX);
    p.fns
}

struct Parser<'s> {
    source: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    line_starts: Vec<usize>,
    fns: Vec<FnInfo>,
}

impl Parser<'_> {
    fn peek(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.pos + ahead)
    }

    fn text(&self, tok: &Token) -> &str {
        tok.text(self.source)
    }

    fn peek_text(&self, ahead: usize) -> &str {
        self.peek(ahead).map_or("", |t| t.text(self.source))
    }

    fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skips a balanced group that starts at the current token (`(`, `[`,
    /// `{`, or `<`), returning the token range of its interior.
    fn skip_group(&mut self, open: &str, close: &str) -> (usize, usize) {
        debug_assert_eq!(self.peek_text(0), open);
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        while depth > 0 {
            let Some(t) = self.bump() else { break };
            let s = t.text(self.source);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
            }
        }
        (start, self.pos.saturating_sub(1))
    }

    /// Skips to the `{` or `;` that ends an item header, stepping over
    /// generic `<…>` groups; true when it stopped at a `{`.
    fn skip_to_body(&mut self) -> bool {
        while let Some(t) = self.peek(0) {
            match self.text(t) {
                "{" => return true,
                ";" => {
                    self.bump();
                    return false;
                }
                "<" => {
                    self.skip_group("<", ">");
                }
                _ => {
                    self.bump();
                }
            }
        }
        false
    }

    /// Item-level walk inside one brace region (or the whole file when
    /// `end == usize::MAX`): records functions, descends into
    /// `impl`/`trait`/`mod` blocks, tracks `#[cfg(test)]`.
    fn items(&mut self, in_test: bool, end: usize) {
        let mut pending_cfg_test = false;
        while self.pos < end.min(self.tokens.len()) {
            let text = self.peek_text(0).to_string();
            match text.as_str() {
                "#" => {
                    // Attribute: `#[...]` or `#![...]`.
                    self.bump();
                    if self.peek_text(0) == "!" {
                        self.bump();
                    }
                    if self.peek_text(0) == "[" {
                        let (s, e) = self.skip_group("[", "]");
                        let attr: String = self.tokens[s..e]
                            .iter()
                            .map(|t| t.text(self.source))
                            .collect::<Vec<_>>()
                            .join(" ");
                        if attr.contains("cfg") && attr.contains("test") {
                            pending_cfg_test = true;
                        }
                    }
                }
                "fn" => {
                    self.bump();
                    self.function(in_test || pending_cfg_test);
                    pending_cfg_test = false;
                }
                "impl" | "trait" | "mod" => {
                    self.bump();
                    if self.skip_to_body() {
                        let (s, e) = self.skip_group("{", "}");
                        let save = self.pos;
                        self.pos = s;
                        self.items(in_test || pending_cfg_test, e);
                        self.pos = save;
                    }
                    pending_cfg_test = false;
                }
                "{" => {
                    // Stray block at item level (e.g. const bodies): skip.
                    self.skip_group("{", "}");
                    pending_cfg_test = false;
                }
                _ => {
                    self.bump();
                    if !matches!(text.as_str(), "pub" | "(" | ")" | "crate" | "super" | "unsafe" | "const" | "async") {
                        pending_cfg_test = false;
                    }
                }
            }
        }
    }

    /// Parses one function starting after its `fn` keyword.
    fn function(&mut self, in_test: bool) {
        let Some(name_tok) = self.peek(0).copied() else { return };
        if name_tok.kind != TokenKind::Ident {
            return; // `fn(` — a function-pointer type, not a declaration
        }
        let name = self.text(&name_tok).to_string();
        let line = self.line_of(name_tok.start);
        self.bump();
        if self.peek_text(0) == "<" {
            self.skip_group("<", ">");
        }
        if self.peek_text(0) != "(" {
            return;
        }
        self.skip_group("(", ")");
        let events = if self.skip_to_body() {
            let (bs, be) = self.skip_group("{", "}");
            self.body_events(bs, be)
        } else {
            Vec::new()
        };
        self.fns.push(FnInfo {
            name,
            line,
            in_test_module: in_test,
            events,
        });
    }

    /// Walks one function body's token range and emits the event stream.
    fn body_events(&self, start: usize, end: usize) -> Vec<Event> {
        let mut ev = Vec::new();
        let mut i = start;
        // Innermost-last stack of the calls whose argument list is open:
        // the paren depth at the call and the root field of its receiver
        // chain (`words` for `self.words.iter().map(`).
        let mut call_stack: Vec<(usize, Option<String>)> = Vec::new();
        let mut paren_depth = 0usize;
        let mut pending_let: Option<String> = None;

        while i < end {
            let tok = self.tokens[i];
            let s = self.text(&tok);
            match s {
                ";" => {
                    pending_let = None;
                    i += 1;
                }
                "(" => {
                    paren_depth += 1;
                    i += 1;
                }
                ")" => {
                    paren_depth = paren_depth.saturating_sub(1);
                    while call_stack.last().is_some_and(|&(d, _)| d > paren_depth) {
                        call_stack.pop();
                    }
                    i += 1;
                }
                "let" => {
                    pending_let = self.let_alias(i, &mut ev);
                    i += 1;
                }
                "for" => {
                    self.for_alias(i, end, &mut ev);
                    i += 1;
                }
                "|" if self.closure_starts_at(i, start) => {
                    let close = self.closure_params_end(i, end);
                    // The one parameter of a closure passed along a field's
                    // receiver chain iterates that field.
                    if let (Some((_, Some(root))), [param]) =
                        (call_stack.last(), self.closure_params(i + 1, close).as_slice())
                    {
                        ev.push(Event::Alias {
                            name: param.clone(),
                            field: root.clone(),
                        });
                    }
                    // Body: a block, or a bare expression to the next
                    // top-level `,` or `)`, walked with its own state.
                    let j = close + 1;
                    let body_end = if self.peek_at(j) == "{" {
                        self.matching(j, "{", "}", end) + 1
                    } else {
                        self.expr_end(j, end)
                    };
                    ev.extend(self.body_events(j, body_end.min(end)));
                    i = body_end;
                }
                _ if tok.kind == TokenKind::Ident && self.peek_at(i + 1) == "(" => {
                    self.call_site(i, end, s, &mut ev, &pending_let);
                    let is_method = i > 0 && self.peek_at(i - 1) == ".";
                    let root = if is_method { self.chain_root_field(i - 1) } else { None };
                    call_stack.push((paren_depth, root));
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
        ev
    }

    /// `let [mut] NAME = &[mut] self.FIELD…` — a field borrow: aliases
    /// NAME to FIELD. Returns NAME when the `let` binds a plain name
    /// (tuple/struct patterns bind none).
    fn let_alias(&self, i: usize, ev: &mut Vec<Event>) -> Option<String> {
        let mut j = i + 1;
        if self.peek_at(j) == "mut" {
            j += 1;
        }
        let name = self
            .tokens
            .get(j)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| self.text(t).to_string())?;
        let mut k = j + 1;
        if self.peek_at(k) == "=" && self.peek_at(k + 1) == "&" {
            k += 2;
            if self.peek_at(k) == "mut" {
                k += 1;
            }
            if self.peek_at(k) == "self" && self.peek_at(k + 1) == "." {
                if let Some(ft) = self.tokens.get(k + 2).filter(|t| t.kind == TokenKind::Ident) {
                    ev.push(Event::Alias {
                        name: name.clone(),
                        field: self.text(ft).to_string(),
                    });
                }
            }
        }
        Some(name)
    }

    /// `for X in … self.FIELD … {` or `for (i, X) in … self.FIELD … {` —
    /// iteration borrows the field: aliases X (the last pattern ident,
    /// i.e. the element of an `enumerate()` pair) to FIELD.
    fn for_alias(&self, i: usize, end: usize, ev: &mut Vec<Event>) {
        let mut j = i + 1;
        if self.peek_at(j) == "mut" {
            j += 1;
        }
        let is_ident = |k: usize| self.tokens.get(k).is_some_and(|t| t.kind == TokenKind::Ident);
        let mut pat_name: Option<String> = None;
        let mut after_pat = j + 1;
        if self.peek_at(j) == "(" {
            let mut k = j + 1;
            while k < end && self.peek_at(k) != ")" {
                if is_ident(k) && !matches!(self.peek_at(k), "mut" | "_") {
                    pat_name = Some(self.peek_at(k).to_string());
                }
                k += 1;
            }
            after_pat = k + 1;
        } else if is_ident(j) {
            pat_name = Some(self.peek_at(j).to_string());
        }
        let Some(name) = pat_name.filter(|_| self.peek_at(after_pat) == "in") else { return };
        let mut k = after_pat + 1;
        while k < end && self.peek_at(k) != "{" && self.peek_at(k) != ";" {
            if self.peek_at(k) == "self" && self.peek_at(k + 1) == "." {
                if is_ident(k + 2) {
                    ev.push(Event::Alias {
                        name,
                        field: self.peek_at(k + 2).to_string(),
                    });
                }
                return;
            }
            k += 1;
        }
    }

    fn peek_at(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text(self.source))
    }

    /// Index of the token matching `open` at position `i` (which must
    /// hold `open`), bounded by `end`.
    fn matching(&self, i: usize, open: &str, close: &str, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            let s = self.peek_at(j);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        end
    }

    /// Heuristic: a `|` begins a closure when the previous significant
    /// token cannot end an expression.
    fn closure_starts_at(&self, i: usize, body_start: usize) -> bool {
        if i == body_start {
            return true;
        }
        let prev = self.peek_at(i - 1);
        matches!(prev, "(" | "," | "=" | "{" | ";" | "&" | "|")
            || matches!(prev, "mut" | "move" | "return" | "else" | "=>" | ":")
            || prev == ">" && self.peek_at(i.saturating_sub(2)) == "="
    }

    /// Index of the `|` closing the parameter list opened at `i`.
    fn closure_params_end(&self, i: usize, end: usize) -> usize {
        // `||` (empty params) lexes as two `|` puncts.
        let mut j = i + 1;
        let mut depth = 0usize;
        while j < end {
            match self.peek_at(j) {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth = depth.saturating_sub(1),
                "|" if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// The parameter names in the token range of a closure's parameter
    /// list; none for ref/tuple patterns, so aliasing stays conservative.
    fn closure_params(&self, start: usize, end: usize) -> Vec<String> {
        let mut params = Vec::new();
        let mut in_type = false;
        for t in &self.tokens[start.min(end)..end.min(self.tokens.len())] {
            match self.text(t) {
                ":" => in_type = true,
                "," => in_type = false,
                "mut" | "_" => {}
                _ if in_type => {}
                s if t.kind == TokenKind::Ident => params.push(s.to_string()),
                _ => return Vec::new(),
            }
        }
        params
    }

    /// End (exclusive) of a bare closure-body expression starting at `j`:
    /// the next `,` or `)` at the closure's own nesting level.
    fn expr_end(&self, j: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut k = j;
        while k < end {
            match self.peek_at(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => return k,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => return k,
                _ => {}
            }
            k += 1;
        }
        end
    }

    /// Records the call `name(` at `i` if it is an atomic operation: a
    /// method of [`ATOMIC_METHODS`] with an `Ordering::` argument.
    fn call_site(&self, i: usize, end: usize, name: &str, ev: &mut Vec<Event>, pending_let: &Option<String>) {
        if i == 0 || self.peek_at(i - 1) != "." || !ATOMIC_METHODS.contains(&name) {
            return;
        }
        let args_close = self.matching(i + 1, "(", ")", end);
        let orderings = self.ordering_args(i + 2, args_close);
        if orderings.is_empty() {
            return;
        }
        // A further `.` after the call's `)` chains the result into a
        // temporary; a pending `let` binds it; a `;` discards it.
        let discarded = pending_let.is_none() && self.peek_at(args_close + 1) == ";";
        ev.push(Event::AtomicOp {
            field: self.receiver_field(i - 1),
            method: name.to_string(),
            orderings,
            discarded,
            line: self.line_of(self.tokens[i].start),
        });
    }

    /// Root field of a method-call receiver chain: walking back from the
    /// `.` at `dot`, skip call-argument and index groups and method
    /// names, and return the field identifier nearest the chain root
    /// (`words` for `self.words.iter().map`). `None` when the chain
    /// bottoms out in a call or non-path expression.
    fn chain_root_field(&self, dot: usize) -> Option<String> {
        let mut j = dot;
        let mut best: Option<String> = None;
        while j > 0 {
            j -= 1; // element before the current `.`
            match self.peek_at(j) {
                ")" => {
                    let open = self.rmatching(j);
                    if open == 0 {
                        break;
                    }
                    j = open;
                    if j == 0 {
                        break;
                    }
                    j -= 1; // the callee name — a method, not a field
                    if self.tokens.get(j).is_none_or(|t| t.kind != TokenKind::Ident) {
                        break;
                    }
                }
                "]" => {
                    let mut depth = 0usize;
                    loop {
                        match self.peek_at(j) {
                            "]" => depth += 1,
                            "[" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            return best;
                        }
                        j -= 1;
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1; // the indexed field
                    match self.tokens.get(j) {
                        Some(t) if t.kind == TokenKind::Ident => {
                            let s = self.text(t);
                            if s != "self" {
                                best = Some(s.to_string());
                            }
                        }
                        _ => break,
                    }
                }
                _ => match self.tokens.get(j) {
                    Some(t) if t.kind == TokenKind::Ident => {
                        let s = self.text(t);
                        if s != "self" {
                            best = Some(s.to_string());
                        }
                    }
                    _ => break,
                },
            }
            if j == 0 || self.peek_at(j - 1) != "." {
                break;
            }
            j -= 1; // the next `.` up the chain
        }
        best
    }

    /// The receiver field of a method call: walking back from the `.`,
    /// skip one balanced `[…]` index, then take the identifier. Falls
    /// back to `"?"` when the receiver is not a simple path.
    fn receiver_field(&self, dot: usize) -> String {
        let mut j = dot; // index of the `.` token
        if j == 0 {
            return "?".to_string();
        }
        j -= 1;
        if self.peek_at(j) == "]" {
            // Skip the index expression backwards.
            let mut depth = 0usize;
            loop {
                match self.peek_at(j) {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return "?".to_string();
                }
                j -= 1;
            }
            if j == 0 {
                return "?".to_string();
            }
            j -= 1;
        }
        // `)` — receiver is a call result: attribute to the called name.
        if self.peek_at(j) == ")" {
            let open = self.rmatching(j);
            if open > 0 {
                let t = &self.tokens[open - 1];
                if t.kind == TokenKind::Ident {
                    return self.text(t).to_string();
                }
            }
            return "?".to_string();
        }
        let t = &self.tokens[j];
        if t.kind == TokenKind::Ident {
            let name = self.text(t);
            if name == "self" {
                return "self".to_string();
            }
            return name.to_string();
        }
        "?".to_string()
    }

    /// Index of the `(` matching the `)` at `j`, scanning backwards.
    fn rmatching(&self, j: usize) -> usize {
        let mut depth = 0usize;
        let mut k = j;
        loop {
            match self.peek_at(k) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return 0;
            }
            k -= 1;
        }
    }

    /// `Ordering::X` names appearing in an argument token range.
    fn ordering_args(&self, start: usize, end: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut j = start;
        while j + 2 < end + 3 && j < end {
            if self.peek_at(j) == "Ordering"
                && self.peek_at(j + 1) == ":"
                && self.peek_at(j + 2) == ":"
            {
                out.push(self.peek_at(j + 3).to_string());
                j += 4;
            } else {
                j += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(fns: &'a [FnInfo], name: &str) -> &'a FnInfo {
        fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("fn {name} not found"))
    }

    fn aliases(f: &FnInfo) -> Vec<(String, String)> {
        f.events
            .iter()
            .filter_map(|e| match e {
                Event::Alias { name, field } => Some((name.clone(), field.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn finds_fns_inside_impls_traits_and_modules() {
        let fns = parse(
            "impl Foo {\n    fn a(&self) {}\n}\nimpl<T: Clone> Bar for Baz<T> where T: Copy {\n    fn b(&self) {}\n}\nmod m {\n    fn c() {}\n}\nfn free() {}\n",
        );
        let names: Vec<_> = fns.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(names, [("a", 2), ("b", 5), ("c", 8), ("free", 10)]);
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let fns = parse("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod() {}\n");
        assert!(find(&fns, "t").in_test_module);
        assert!(!find(&fns, "prod").in_test_module);
    }

    #[test]
    fn atomic_ops_with_orderings() {
        let fns = parse(
            "fn f(&self) {\n    self.edges.fetch_add(1, Ordering::AcqRel);\n    let n = self.edges.load(Ordering::Acquire);\n    let _ = self.stamps[i].compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n}\n",
        );
        let f = find(&fns, "f");
        let ops: Vec<_> = f.events.iter().filter_map(|e| match e {
            Event::AtomicOp { field, method, orderings, discarded, .. } => {
                Some((field.clone(), method.clone(), orderings.clone(), *discarded))
            }
            _ => None,
        }).collect();
        assert_eq!(ops.len(), 3, "{ops:?}");
        assert_eq!(ops[0], ("edges".into(), "fetch_add".into(), vec!["AcqRel".into()], true));
        assert_eq!(ops[1], ("edges".into(), "load".into(), vec!["Acquire".into()], false));
        assert_eq!(ops[2].2, vec!["AcqRel".to_string(), "Acquire".to_string()]);
    }

    #[test]
    fn property_array_load_without_ordering_is_not_atomic() {
        let fns = parse("fn f(&self) { let v = values.load(src as usize); }\n");
        assert!(find(&fns, "f").events.is_empty());
    }

    #[test]
    fn let_borrow_and_for_loop_emit_aliases() {
        let fns = parse(
            "fn f(&self) {\n    let stamp = &self.stamps[i];\n    stamp.load(Ordering::Acquire);\n    for word in &self.words {\n        word.store(0, Ordering::Release);\n    }\n}\n",
        );
        let f = find(&fns, "f");
        assert_eq!(
            aliases(f),
            vec![("stamp".into(), "stamps".into()), ("word".into(), "words".into())],
            "{:?}",
            f.events
        );
    }

    #[test]
    fn enumerate_tuple_pattern_aliases_element() {
        let fns = parse(
            "fn f(&self) {\n    for (i, b) in self.buckets.iter().enumerate() {\n        b.load(Ordering::Relaxed);\n    }\n}\n",
        );
        assert_eq!(aliases(find(&fns, "f")), vec![("b".into(), "buckets".into())]);
    }

    #[test]
    fn iterator_closure_aliases_its_param_to_the_chain_root() {
        let fns = parse(
            "fn f(&self) -> u64 {\n    self.words.iter().map(|w: &AtomicU64| w.load(Ordering::Acquire)).sum()\n}\n",
        );
        assert_eq!(aliases(find(&fns, "f")), vec![("w".into(), "words".into())]);
    }

    #[test]
    fn chain_root_skips_index_and_call_groups() {
        let fns = parse(
            "fn f(&self) {\n    self.slots[..len].iter().for_each(|s| { s.load(Ordering::Acquire); });\n}\n",
        );
        assert_eq!(aliases(find(&fns, "f")), vec![("s".into(), "slots".into())]);
    }

    #[test]
    fn multi_param_closure_aliases_nothing() {
        let fns = parse("fn f(&self) { self.xs.iter().fold(0, |acc, x| acc + x); }\n");
        assert!(aliases(find(&fns, "f")).is_empty());
    }

    #[test]
    fn trait_declarations_have_no_events() {
        let fns = parse("trait T {\n    fn for_each(&self, v: u32, f: &mut dyn FnMut(u32));\n}\n");
        assert!(find(&fns, "for_each").events.is_empty());
    }
}
