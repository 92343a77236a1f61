//! Item-level parser: function boundaries, method-call sites, scope
//! depth, and guard bindings — just enough structure to drive the lock
//! and atomics analyses, built on the total [`crate::lexer`].
//!
//! The parser is approximate by design (DESIGN.md §11 lists the known
//! approximations). It recovers, per function:
//!
//! - identity: name, enclosing `impl` type, declaration line, whether the
//!   function sits inside a `#[cfg(test)]` module (test code is parsed
//!   but excluded from the whole-repo analyses);
//! - signature facts: parameters with `Fn`/`FnMut`/`FnOnce`-bounded types
//!   (callback parameters), and whether the return type names a lock
//!   guard (`MutexGuard`, `RwLockReadGuard`, `RwLockWriteGuard`) — calls
//!   to such helpers count as acquisitions at the caller;
//! - a linear event stream over the body: scope enter/exit, statement
//!   ends, lock acquisitions (`.lock()` / zero-arg `.read()` /
//!   `.write()`) with their receiver field and binding kind, `drop(x)`
//!   calls, named calls with forwarded callback parameters, closure
//!   boundaries tagged with the call they are an argument of, direct
//!   invocations of callback parameters, and atomic operations carrying
//!   an `Ordering::` argument.

use crate::lexer::{lex, Token, TokenKind};

/// How an acquired guard is bound at the acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// `let name = ….lock();` — the guard lives to end of scope (or an
    /// explicit `drop(name)`).
    Let(String),
    /// Temporary — the guard dies at the end of the statement.
    Temp,
}

/// Which acquisition method produced a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `.lock()` on a mutex.
    Lock,
    /// `.read()` on a reader-writer lock.
    Read,
    /// `.write()` on a reader-writer lock.
    Write,
}

impl Mode {
    /// Short display form used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Lock => "lock",
            Mode::Read => "read",
            Mode::Write => "write",
        }
    }
}

/// One element of a function body's linear event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `{` — a new lexical scope (over-approximated: struct literals and
    /// match arms also count, which only shortens guard lifetimes).
    ScopeEnter,
    /// `}` — closes the innermost scope; let-bound guards die here.
    ScopeExit,
    /// `;` — temporaries acquired in the statement die here.
    StmtEnd,
    /// A lock acquisition site.
    Acquire {
        /// Receiver field or variable the lock lives in (lock class seed).
        field: String,
        /// `.lock()` / `.read()` / `.write()`.
        mode: Mode,
        /// Guard binding (scope-long or statement-temporary).
        binding: Binding,
        /// 1-based source line.
        line: usize,
    },
    /// `drop(name)` — ends a let-bound guard early.
    DropCall {
        /// The dropped binding's name.
        name: String,
    },
    /// A named call (free function or method) that is not an acquisition.
    Call {
        /// Callee name (last path segment / method name).
        name: String,
        /// Guard binding if the call's result is let-bound (relevant for
        /// guard-returning helpers).
        binding: Binding,
        /// Callback parameters of the *current* function passed through
        /// as bare arguments (callback forwarding).
        forwards: Vec<String>,
        /// The bare locals the call is made *on*: its receiver when that
        /// is a plain name (`view.f()`, not `self.view.f()`) and its bare
        /// top-level arguments (`f(view)`, `f(&view)`) — how the model
        /// tells a read through a frozen view from one of the live graph.
        operands: Vec<String>,
        /// 1-based source line.
        line: usize,
    },
    /// Start of a closure literal.
    ClosureEnter {
        /// Name of the call this closure is an argument of, if any.
        passed_to: Option<String>,
        /// Root field of the receiver chain of that call (`words` for
        /// `self.words.iter().map(|w| …)`) — lets the model alias a
        /// single closure parameter back to the field it iterates.
        chain_root: Option<String>,
        /// The closure's parameter names (empty for tuple/ref patterns,
        /// which the alias logic skips).
        params: Vec<String>,
        /// 1-based source line.
        line: usize,
    },
    /// End of a closure literal.
    ClosureExit,
    /// Direct invocation of a callback parameter (`f(…)` where `f` is a
    /// `Fn`-bounded parameter of the current function).
    CallbackInvoke {
        /// The invoked parameter's name.
        param: String,
        /// 1-based source line.
        line: usize,
    },
    /// A local name that borrows a field (`let stamp = &self.stamps[i];`
    /// or `for word in &self.words { … }`): operations on `name` belong
    /// to `field`'s lock/atomic group.
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
    /// `Type::name` inside an `impl`/`trait` block, else the bare name.
    pub qual_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters whose types are `Fn`/`FnMut`/`FnOnce`-shaped.
    pub callback_params: Vec<String>,
    /// Return type names a guard type — callers treat calls to this
    /// function as lock acquisitions.
    pub returns_guard: bool,
    /// Declared inside a `#[cfg(test)]` module.
    pub in_test_module: bool,
    /// Linear body event stream (empty for bodyless declarations).
    pub events: Vec<Event>,
}

/// Methods that acquire a lock when called with zero arguments.
fn acquire_mode(name: &str) -> Option<Mode> {
    match name {
        "lock" => Some(Mode::Lock),
        "read" => Some(Mode::Read),
        "write" => Some(Mode::Write),
        _ => None,
    }
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

/// Guard type names that mark a helper as guard-returning.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

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
    p.items(None, false, usize::MAX);
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

    /// Item-level walk inside one brace region (or the whole file when
    /// `end == usize::MAX`): records functions, descends into
    /// `impl`/`trait`/`mod` blocks, tracks `#[cfg(test)]`.
    fn items(&mut self, impl_type: Option<String>, in_test: bool, end: usize) {
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
                    self.function(impl_type.as_deref(), in_test || pending_cfg_test);
                    pending_cfg_test = false;
                }
                "impl" | "trait" => {
                    self.bump();
                    let ty = self.impl_target();
                    if self.peek_text(0) == "{" {
                        let (s, e) = self.skip_group("{", "}");
                        let save = self.pos;
                        self.pos = s;
                        self.items(ty, in_test || pending_cfg_test, e);
                        self.pos = save;
                    }
                    pending_cfg_test = false;
                }
                "mod" => {
                    self.bump();
                    self.bump(); // module name
                    if self.peek_text(0) == "{" {
                        let (s, e) = self.skip_group("{", "}");
                        let save = self.pos;
                        self.pos = s;
                        self.items(impl_type.clone(), in_test || pending_cfg_test, e);
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

    /// After `impl`/`trait`: resolve the target type name (the one after
    /// `for` in `impl Trait for Type`), leaving the cursor at the body
    /// `{` (or wherever parsing stopped).
    fn impl_target(&mut self) -> Option<String> {
        let mut result: Option<String> = None;
        while let Some(t) = self.peek(0) {
            let s = self.text(t).to_string();
            match s.as_str() {
                "{" | ";" => break,
                "<" => {
                    self.skip_group("<", ">");
                    continue;
                }
                "for" => {
                    result = None;
                    self.bump();
                    continue;
                }
                "where" => {
                    // Bounds may contain `{`-free paths only; scan to `{`.
                    while self.peek(0).is_some() && self.peek_text(0) != "{" {
                        self.bump();
                    }
                    break;
                }
                _ => {
                    if t.kind == TokenKind::Ident {
                        // Last path segment wins; `for` resets so the
                        // implementing type (not the trait) is kept.
                        result = Some(s);
                    }
                    self.bump();
                }
            }
        }
        result
    }

    /// Parses one function starting after its `fn` keyword.
    fn function(&mut self, impl_type: Option<&str>, in_test: bool) {
        let Some(name_tok) = self.peek(0).copied() else { return };
        if name_tok.kind != TokenKind::Ident {
            return; // `fn(` — a function-pointer type, not a declaration
        }
        let name = self.text(&name_tok).to_string();
        let line = self.line_of(name_tok.start);
        self.bump();

        // Generic parameters: `<F: Fn(usize) + Sync, …>`.
        let mut bound_text = String::new();
        if self.peek_text(0) == "<" {
            let (s, e) = self.skip_group("<", ">");
            bound_text = self.join(s, e);
        }
        if self.peek_text(0) != "(" {
            return;
        }
        let (ps, pe) = self.skip_group("(", ")");
        let params = self.split_params(ps, pe);

        // Return type + where clause: everything up to the body `{` or a
        // terminating `;` (trait declaration without a body).
        let mut ret_where = String::new();
        let mut has_body = false;
        while let Some(t) = self.peek(0) {
            match self.text(t) {
                "{" => {
                    has_body = true;
                    break;
                }
                ";" => {
                    self.bump();
                    break;
                }
                "<" => {
                    let (s, e) = self.skip_group("<", ">");
                    ret_where.push_str(&self.join(s, e));
                    ret_where.push(' ');
                }
                s => {
                    ret_where.push_str(s);
                    ret_where.push(' ');
                    self.bump();
                }
            }
        }
        bound_text.push(' ');
        bound_text.push_str(&ret_where);

        // Return type mentions a guard → guard-returning helper. The
        // where clause is included in the haystack, which is fine: bounds
        // never name concrete guard types in this workspace.
        let returns_guard = GUARD_TYPES.iter().any(|g| ret_where.contains(g));

        let callback_type_params = Self::fn_bounded_idents(&bound_text);
        let callback_params: Vec<String> = params
            .iter()
            .filter(|(_, ty)| {
                Self::is_fn_type(ty) || callback_type_params.iter().any(|tp| ty.split_whitespace().any(|w| w == tp))
            })
            .map(|(n, _)| n.clone())
            .collect();

        let events = if has_body {
            let (bs, be) = self.skip_group("{", "}");
            self.body_events(bs, be, &callback_params)
        } else {
            Vec::new()
        };

        let qual_name = match impl_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        self.fns.push(FnInfo {
            name,
            qual_name,
            line,
            callback_params,
            returns_guard,
            in_test_module: in_test,
            events,
        });
    }

    fn join(&self, start: usize, end: usize) -> String {
        self.tokens[start..end.min(self.tokens.len())]
            .iter()
            .map(|t| t.text(self.source))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Splits the parameter-list token range into `(name, type-text)`
    /// pairs at top-level commas. `self` receivers yield no pair.
    fn split_params(&self, start: usize, end: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end {
            // One parameter: NAME : TYPE (skip pattern params and self).
            let mut depth = 0usize;
            let param_start = i;
            let mut colon_at = None;
            while i < end {
                let s = self.text(&self.tokens[i]);
                match s {
                    "(" | "[" | "<" | "{" => depth += 1,
                    ")" | "]" | ">" | "}" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => break,
                    ":" if depth == 0 && colon_at.is_none() => colon_at = Some(i),
                    _ => {}
                }
                i += 1;
            }
            if let Some(c) = colon_at {
                // Name = last ident before the colon (skips `mut`).
                let name = self.tokens[param_start..c]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokenKind::Ident && self.text(t) != "mut")
                    .map(|t| self.text(t).to_string());
                if let Some(name) = name {
                    out.push((name, self.join(c + 1, i)));
                }
            }
            i += 1; // past the comma
        }
        out
    }

    /// Type-parameter names bounded by `Fn`/`FnMut`/`FnOnce` in generics
    /// or where-clause text.
    fn fn_bounded_idents(bounds: &str) -> Vec<String> {
        let words: Vec<&str> = bounds.split_whitespace().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            if words[i] == ":" && i > 0 {
                let name = words[i - 1];
                // Scan the bound until the next top-level comma-ish word.
                let mut j = i + 1;
                while j < words.len() && words[j] != "," {
                    if matches!(words[j], "Fn" | "FnMut" | "FnOnce") {
                        out.push(name.to_string());
                        break;
                    }
                    j += 1;
                }
            }
            i += 1;
        }
        out
    }

    /// True for parameter types that are directly `Fn`-shaped
    /// (`impl Fn…`, `&mut dyn FnMut…`, `fn(…)` pointers excluded).
    fn is_fn_type(ty: &str) -> bool {
        ty.split_whitespace().any(|w| matches!(w, "Fn" | "FnMut" | "FnOnce"))
    }

    /// Walks one function body's token range and emits the event stream.
    fn body_events(&self, start: usize, end: usize, callback_params: &[String]) -> Vec<Event> {
        let mut ev = Vec::new();
        let mut i = start;
        // Innermost-first stack of call names whose argument list is
        // currently open: (name, paren_depth_at_open).
        let mut call_stack: Vec<(String, usize, Option<String>)> = Vec::new();
        let mut paren_depth = 0usize;
        let mut pending_let: Option<String> = None;

        while i < end {
            let tok = self.tokens[i];
            let s = self.text(&tok);
            match s {
                "{" => {
                    ev.push(Event::ScopeEnter);
                    i += 1;
                }
                "}" => {
                    ev.push(Event::ScopeExit);
                    i += 1;
                }
                ";" => {
                    ev.push(Event::StmtEnd);
                    pending_let = None;
                    i += 1;
                }
                "(" => {
                    paren_depth += 1;
                    i += 1;
                }
                ")" => {
                    paren_depth = paren_depth.saturating_sub(1);
                    while call_stack.last().is_some_and(|&(_, d, _)| d > paren_depth) {
                        call_stack.pop();
                    }
                    i += 1;
                }
                "let" => {
                    // `let [mut] NAME =` — tuple/struct patterns stay Temp.
                    let mut j = i + 1;
                    if self.peek_at(j) == "mut" {
                        j += 1;
                    }
                    let name_tok = self.tokens.get(j);
                    if let Some(nt) = name_tok {
                        if nt.kind == TokenKind::Ident {
                            pending_let = Some(self.text(nt).to_string());
                        } else {
                            pending_let = None;
                        }
                    }
                    // `let NAME = &self.FIELD…;` — a field borrow: alias
                    // NAME to FIELD so its lock/atomic ops group with the
                    // field (`let stamp = &self.stamps[i];`).
                    if let Some(name) = pending_let.clone() {
                        let mut k = j + 1;
                        if self.peek_at(k) == "=" {
                            k += 1;
                            if self.peek_at(k) == "&" {
                                k += 1;
                                if self.peek_at(k) == "mut" {
                                    k += 1;
                                }
                                if self.peek_at(k) == "self" && self.peek_at(k + 1) == "." {
                                    if let Some(ft) = self.tokens.get(k + 2) {
                                        if ft.kind == TokenKind::Ident {
                                            ev.push(Event::Alias {
                                                name,
                                                field: self.text(ft).to_string(),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                    i += 1;
                }
                "for" => {
                    // `for X in … self.FIELD … {` or
                    // `for (i, X) in … self.FIELD … {` — iteration borrows
                    // the field: alias X (the last pattern ident, i.e. the
                    // element of an `enumerate()` pair) to FIELD.
                    let mut j = i + 1;
                    if self.peek_at(j) == "mut" {
                        j += 1;
                    }
                    // Tuple patterns (`for (i, b) in xs.iter().enumerate()`)
                    // bind the element last: alias the final ident.
                    let mut pat_name: Option<String> = None;
                    let mut after_pat = j + 1;
                    if self.peek_at(j) == "(" {
                        let mut k = j + 1;
                        while k < end && self.peek_at(k) != ")" {
                            if self
                                .tokens
                                .get(k)
                                .is_some_and(|t| t.kind == TokenKind::Ident)
                                && self.peek_at(k) != "mut"
                                && self.peek_at(k) != "_"
                            {
                                pat_name = Some(self.peek_at(k).to_string());
                            }
                            k += 1;
                        }
                        after_pat = k + 1;
                    } else if self
                        .tokens
                        .get(j)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        pat_name = Some(self.peek_at(j).to_string());
                    }
                    let is_simple =
                        pat_name.is_some() && self.peek_at(after_pat) == "in";
                    if is_simple {
                        let name = pat_name.unwrap_or_default();
                        let mut k = after_pat + 1;
                        while k < end && self.peek_at(k) != "{" && self.peek_at(k) != ";" {
                            if self.peek_at(k) == "self" && self.peek_at(k + 1) == "." {
                                if let Some(ft) = self.tokens.get(k + 2) {
                                    if ft.kind == TokenKind::Ident {
                                        ev.push(Event::Alias {
                                            name,
                                            field: self.text(ft).to_string(),
                                        });
                                    }
                                }
                                break;
                            }
                            k += 1;
                        }
                    }
                    i += 1;
                }
                "|" => {
                    if self.closure_starts_at(i, start) {
                        let close = self.closure_params_end(i, end);
                        let (passed_to, chain_root) = call_stack
                            .last()
                            .map(|(n, _, r)| (Some(n.clone()), r.clone()))
                            .unwrap_or((None, None));
                        // Parameter names; ref/tuple patterns yield no
                        // params so the alias logic stays conservative.
                        let mut params: Vec<String> = Vec::new();
                        let mut simple = true;
                        let mut in_type = false;
                        for t in &self.tokens[(i + 1).min(close)..close.min(self.tokens.len())] {
                            match self.text(t) {
                                ":" => in_type = true,
                                "," => in_type = false,
                                "mut" | "_" => {}
                                _ if in_type => {}
                                s if t.kind == TokenKind::Ident => params.push(s.to_string()),
                                _ => simple = false,
                            }
                        }
                        if !simple {
                            params.clear();
                        }
                        ev.push(Event::ClosureEnter {
                            passed_to,
                            chain_root,
                            params,
                            line: self.line_of(tok.start),
                        });
                        // Body: a block, or a bare expression to the next
                        // top-level `,` or `)`.
                        let j = close + 1;
                        if self.peek_at(j) == "{" {
                            let body_end = self.matching(j, "{", "}", end);
                            let inner = self.body_events(j + 1, body_end, callback_params);
                            ev.extend(inner);
                            ev.push(Event::ClosureExit);
                            i = body_end + 1;
                        } else {
                            let expr_end = self.expr_end(j, end);
                            let inner = self.body_events(j, expr_end, callback_params);
                            ev.extend(inner);
                            ev.push(Event::ClosureExit);
                            i = expr_end;
                        }
                        continue;
                    }
                    i += 1;
                }
                _ if tok.kind == TokenKind::Ident => {
                    i = self.ident_site(i, end, s, callback_params, &mut ev, &mut call_stack, paren_depth, &mut pending_let);
                }
                _ => {
                    i += 1;
                }
            }
        }
        ev
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

    /// Handles an identifier token inside a body: classifies call sites,
    /// acquisitions, callback invocations, and atomic operations.
    /// Returns the next token index.
    #[allow(clippy::too_many_arguments)]
    fn ident_site(
        &self,
        i: usize,
        end: usize,
        name: &str,
        callback_params: &[String],
        ev: &mut Vec<Event>,
        call_stack: &mut Vec<(String, usize, Option<String>)>,
        paren_depth: usize,
        pending_let: &mut Option<String>,
    ) -> usize {
        let line = self.line_of(self.tokens[i].start);
        // Only `ident (` forms are interesting (calls); `ident!` is a
        // macro (its arguments still get scanned as ordinary tokens).
        if self.peek_at(i + 1) != "(" {
            return i + 1;
        }
        let is_method = i > 0 && self.peek_at(i - 1) == ".";
        let args_close = self.matching(i + 1, "(", ")", end);
        // Binding: a further `.` after the call's `)` chains the result
        // into a temporary; otherwise a pending `let` captures it.
        let chained = self.peek_at(args_close + 1) == ".";
        let binding = if chained {
            Binding::Temp
        } else {
            pending_let
                .clone()
                .map(Binding::Let)
                .unwrap_or(Binding::Temp)
        };

        if is_method {
            let field = self.receiver_field(i - 1);
            let zero_arg = args_close == i + 2;
            if let (Some(mode), true) = (acquire_mode(name), zero_arg) {
                ev.push(Event::Acquire {
                    field,
                    mode,
                    binding,
                    line,
                });
                return i + 2; // continue inside the (empty) args
            }
            if ATOMIC_METHODS.contains(&name) {
                let orderings = self.ordering_args(i + 2, args_close);
                if !orderings.is_empty() {
                    let discarded = !chained
                        && pending_let.is_none()
                        && self.peek_at(args_close + 1) == ";";
                    ev.push(Event::AtomicOp {
                        field,
                        method: name.to_string(),
                        orderings,
                        discarded,
                        line,
                    });
                    // Still descend into the args (closures in
                    // `fetch_update` etc. are rare; orderings recorded).
                }
            }
            ev.push(Event::Call {
                name: name.to_string(),
                binding,
                forwards: self.forwarded_params(i + 2, args_close, callback_params),
                operands: self.operands(Some(i - 1), i + 2, args_close),
                line,
            });
            call_stack.push((name.to_string(), paren_depth, self.chain_root_field(i - 1)));
            return i + 1;
        }

        // Free call: `drop(x)`, callback invocation, or named call.
        if name == "drop" {
            if let Some(t) = self.tokens.get(i + 2) {
                if t.kind == TokenKind::Ident && self.peek_at(i + 3) == ")" {
                    ev.push(Event::DropCall {
                        name: self.text(t).to_string(),
                    });
                    return i + 4;
                }
            }
            return i + 1;
        }
        if callback_params.iter().any(|p| p == name) {
            ev.push(Event::CallbackInvoke {
                param: name.to_string(),
                line,
            });
            return i + 1;
        }
        ev.push(Event::Call {
            name: name.to_string(),
            binding,
            forwards: self.forwarded_params(i + 2, args_close, callback_params),
            operands: self.operands(None, i + 2, args_close),
            line,
        });
        call_stack.push((name.to_string(), paren_depth, None));
        i + 1
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

    /// Callback parameters of the current function passed as bare
    /// top-level arguments in the range (callback forwarding `g(f)`).
    fn forwarded_params(&self, start: usize, end: usize, callback_params: &[String]) -> Vec<String> {
        self.bare_idents(start, end)
            .into_iter()
            .map(|j| self.peek_at(j).to_string())
            .filter(|s| callback_params.contains(s))
            .collect()
    }

    /// The bare locals a call is made on (`Event::Call`'s `operands`):
    /// `dot` is the index of the receiver's `.` for a method call.
    fn operands(&self, dot: Option<usize>, start: usize, end: usize) -> Vec<String> {
        // `view.f()` counts, `self.view.f()` and `make().f()` do not.
        let receiver = dot
            .and_then(|d| d.checked_sub(1))
            .filter(|&r| self.tokens[r].kind == TokenKind::Ident && (r == 0 || self.peek_at(r - 1) != "."));
        let args = self
            .bare_idents(start, end)
            .into_iter()
            .filter(|&j| self.peek_at(j + 1) != ".");
        receiver.into_iter().chain(args).map(|j| self.peek_at(j).to_string()).collect()
    }

    /// Indices of the identifiers that stand alone at the top level of an
    /// argument list: not a field (`.x`) and not a callee (`x(`).
    fn bare_idents(&self, start: usize, end: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut depth = 0usize;
        for j in start..end {
            match self.peek_at(j) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                _ if depth == 0
                    && self.tokens[j].kind == TokenKind::Ident
                    && self.peek_at(j + 1) != "("
                    && self.peek_at(j.saturating_sub(1)) != "." =>
                {
                    out.push(j);
                }
                _ => {}
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

    #[test]
    fn finds_fns_and_impl_qualification() {
        let fns = parse(
            "impl Foo {\n    fn a(&self) {}\n}\nimpl Bar for Baz {\n    fn b(&self) {}\n}\nfn free() {}\n",
        );
        assert_eq!(find(&fns, "a").qual_name, "Foo::a");
        assert_eq!(find(&fns, "b").qual_name, "Baz::b");
        assert_eq!(find(&fns, "free").qual_name, "free");
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let fns = parse("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod() {}\n");
        assert!(find(&fns, "t").in_test_module);
        assert!(!find(&fns, "prod").in_test_module);
    }

    #[test]
    fn acquisition_with_let_binding() {
        let fns = parse("fn f(&self) {\n    let mut list = self.lists[i].lock();\n    list.push(1);\n}\n");
        let f = find(&fns, "f");
        assert!(f.events.iter().any(|e| matches!(
            e,
            Event::Acquire { field, mode: Mode::Lock, binding: Binding::Let(n), .. }
                if field == "lists" && n == "list"
        )), "{:?}", f.events);
    }

    #[test]
    fn chained_guard_is_temporary() {
        let fns = parse("fn f(&self) { let n = self.chain.lock().len(); }\n");
        let f = find(&fns, "f");
        assert!(f.events.iter().any(|e| matches!(
            e,
            Event::Acquire { field, binding: Binding::Temp, .. } if field == "chain"
        )), "{:?}", f.events);
    }

    #[test]
    fn rwlock_read_write_modes() {
        let fns = parse("fn f(&self) { let s = self.snapshot.read(); }\nfn g(&self) { let s = self.snapshot.write(); }\n");
        assert!(find(&fns, "f").events.iter().any(|e| matches!(e, Event::Acquire { mode: Mode::Read, .. })));
        assert!(find(&fns, "g").events.iter().any(|e| matches!(e, Event::Acquire { mode: Mode::Write, .. })));
    }

    #[test]
    fn read_with_args_is_not_an_acquisition() {
        let fns = parse("fn f(r: &mut R) { r.read(&mut buf); }\n");
        assert!(!find(&fns, "f").events.iter().any(|e| matches!(e, Event::Acquire { .. })));
    }

    #[test]
    fn callback_params_via_impl_and_generics() {
        let fns = parse(
            "fn a(&self, f: &mut dyn FnMut(u32)) {}\nfn b<F>(&self, f: F) where F: Fn(usize) + Sync {}\nfn c<F: FnOnce()>(f: F) {}\nfn d(&self, x: usize) {}\n",
        );
        assert_eq!(find(&fns, "a").callback_params, vec!["f"]);
        assert_eq!(find(&fns, "b").callback_params, vec!["f"]);
        assert_eq!(find(&fns, "c").callback_params, vec!["f"]);
        assert!(find(&fns, "d").callback_params.is_empty());
    }

    #[test]
    fn callback_invocation_and_forwarding() {
        let fns = parse(
            "fn f(&self, g: &mut dyn FnMut(u32)) {\n    let list = self.lists[v].lock();\n    for x in list.iter() { g(x); }\n}\nfn h(&self, g: &mut dyn FnMut(u32)) { self.out.for_each(v, g); }\n",
        );
        assert!(find(&fns, "f").events.iter().any(|e| matches!(e, Event::CallbackInvoke { param, .. } if param == "g")));
        assert!(find(&fns, "h").events.iter().any(|e| matches!(
            e,
            Event::Call { name, forwards, .. } if name == "for_each" && forwards == &["g".to_string()]
        )));
    }

    #[test]
    fn call_operands_are_bare_receiver_and_bare_arguments() {
        let fns = parse(
            concat!(
                "fn f(&self) {\n    view.degree(v);\n    self.graph.degree(w);\n",
                "    kernel(&view, x.len(), self.n, y.z);\n}\n",
            ),
        );
        let operands: Vec<(String, Vec<String>)> = find(&fns, "f")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, operands, .. } => Some((name.clone(), operands.clone())),
                _ => None,
            })
            .collect();
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(operands[0], ("degree".to_string(), strs(&["view", "v"])));
        assert_eq!(operands[1], ("degree".to_string(), strs(&["w"])));
        assert_eq!(operands[2], ("kernel".to_string(), strs(&["view"])));
    }

    #[test]
    fn closure_argument_is_attributed_to_call() {
        let fns = parse("fn f(&self) {\n    pool.run_on_all(|w| {\n        let g = self.lists[w].lock();\n    });\n}\n");
        let f = find(&fns, "f");
        let enter = f.events.iter().find_map(|e| match e {
            Event::ClosureEnter { passed_to, .. } => Some(passed_to.clone()),
            _ => None,
        });
        assert_eq!(enter, Some(Some("run_on_all".to_string())));
        // The acquire is inside the closure (between Enter and Exit).
        let idx_enter = f.events.iter().position(|e| matches!(e, Event::ClosureEnter { .. })).unwrap();
        let idx_exit = f.events.iter().position(|e| matches!(e, Event::ClosureExit)).unwrap();
        let idx_acq = f.events.iter().position(|e| matches!(e, Event::Acquire { .. })).unwrap();
        assert!(idx_enter < idx_acq && idx_acq < idx_exit);
    }

    #[test]
    fn guard_returning_helper_is_detected() {
        let fns = parse("fn lock_list(&self, v: u32) -> MutexGuard<'_, Vec<u32>> {\n    self.lists[v as usize].lock()\n}\n");
        assert!(find(&fns, "lock_list").returns_guard);
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
        assert!(!find(&fns, "f").events.iter().any(|e| matches!(e, Event::AtomicOp { .. })));
    }

    #[test]
    fn drop_call_is_recorded() {
        let fns = parse("fn f(&self) { let g = self.m.lock(); drop(g); }\n");
        assert!(find(&fns, "f").events.iter().any(|e| matches!(e, Event::DropCall { name } if name == "g")));
    }

    #[test]
    fn let_borrow_and_for_loop_emit_aliases() {
        let fns = parse(
            "fn f(&self) {\n    let stamp = &self.stamps[i];\n    stamp.load(Ordering::Acquire);\n    for word in &self.words {\n        word.store(0, Ordering::Release);\n    }\n}\n",
        );
        let f = find(&fns, "f");
        let aliases: Vec<_> = f.events.iter().filter_map(|e| match e {
            Event::Alias { name, field } => Some((name.clone(), field.clone())),
            _ => None,
        }).collect();
        assert_eq!(
            aliases,
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
        let f = find(&fns, "f");
        assert!(f.events.iter().any(|e| matches!(
            e,
            Event::Alias { name, field } if name == "b" && field == "buckets"
        )), "{:?}", f.events);
    }

    #[test]
    fn iterator_closure_carries_chain_root_and_param() {
        let fns = parse(
            "fn f(&self) -> u64 {\n    self.words.iter().map(|w| w.load(Ordering::Acquire)).sum()\n}\n",
        );
        let f = find(&fns, "f");
        let enter = f.events.iter().find_map(|e| match e {
            Event::ClosureEnter { chain_root, params, .. } => {
                Some((chain_root.clone(), params.clone()))
            }
            _ => None,
        });
        assert_eq!(enter, Some((Some("words".into()), vec!["w".into()])), "{:?}", f.events);
    }

    #[test]
    fn chain_root_skips_index_and_call_groups() {
        let fns = parse(
            "fn f(&self) {\n    self.slots[..len].iter().for_each(|s| { s.load(Ordering::Acquire); });\n}\n",
        );
        let f = find(&fns, "f");
        let enter = f.events.iter().find_map(|e| match e {
            Event::ClosureEnter { chain_root, params, .. } => {
                Some((chain_root.clone(), params.clone()))
            }
            _ => None,
        });
        assert_eq!(enter, Some((Some("slots".into()), vec!["s".into()])), "{:?}", f.events);
    }

    #[test]
    fn multi_param_closure_has_no_alias_params() {
        let fns = parse("fn f(&self) { xs.iter().fold(0, |acc, x| acc + x); }\n");
        let f = find(&fns, "f");
        let enter = f.events.iter().find_map(|e| match e {
            Event::ClosureEnter { params, .. } => Some(params.clone()),
            _ => None,
        });
        assert_eq!(enter, Some(vec!["acc".into(), "x".into()]));
    }

    #[test]
    fn trait_declarations_have_no_events() {
        let fns = parse("trait T {\n    fn for_each(&self, v: u32, f: &mut dyn FnMut(u32));\n}\n");
        let f = find(&fns, "for_each");
        assert!(f.events.is_empty());
        assert_eq!(f.callback_params, vec!["f"]);
        assert_eq!(f.qual_name, "T::for_each");
    }
}
