//! Whole-program model: per-function lock/atomics facts extracted from
//! parser event streams, plus the two call-graph fixpoints the checks
//! consume (transitive may-acquire sets and callback-provider sets).
//!
//! Lock identity is a **class**, named `file_stem.field` (e.g.
//! `adjacency_chunked.chunks`). Structures live one-per-file in this
//! workspace and locks are private fields, so the pair is unique enough
//! without type inference; two spellings of the same lock (direct field
//! access vs. a closure parameter) yield two classes, which only splits
//! edges and never merges distinct locks.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{parse, Binding, Event, FnInfo, Mode};

/// One source file handed to the model.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display path (repo-relative).
    pub path: String,
    /// File stem used as the lock-class namespace.
    pub stem: String,
    /// Full source text.
    pub source: String,
}

impl SourceFile {
    /// Builds a [`SourceFile`] from a path and its contents, deriving the
    /// stem from the final path component.
    pub fn new(path: impl Into<String>, source: impl Into<String>) -> Self {
        let path = path.into();
        let stem = std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        Self {
            path,
            stem,
            source: source.into(),
        }
    }
}

/// A named call site with the lock classes lexically held when it runs.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (method or free-function last segment).
    pub name: String,
    /// Callback parameters of the caller forwarded as bare arguments.
    pub forwards: Vec<String>,
    /// Bare locals the call is made on (receiver and bare arguments).
    pub operands: Vec<String>,
    /// Lock classes held at the call.
    pub held: Vec<String>,
    /// 1-based line.
    pub line: usize,
    /// Indices (into the owning function's `closures`) of every closure
    /// this call is nested inside.
    pub closures: Vec<usize>,
}

/// A closure literal and what it does, for the held-across-callback check.
#[derive(Debug, Clone)]
pub struct ClosureSite {
    /// The call this closure is an argument of, if any.
    pub passed_to: Option<String>,
    /// The closure's parameter names (empty for tuple/ref patterns).
    pub params: Vec<String>,
    /// 1-based line.
    pub line: usize,
    /// Lock classes acquired directly inside the closure.
    pub acquires: BTreeSet<String>,
    /// Indices into the owning function's `calls` made inside the closure.
    pub calls: Vec<usize>,
}

/// One atomic operation, grouped later by its `group` key.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Group key `file_stem.field`.
    pub group: String,
    /// Method name (`load`, `store`, `fetch_add`, …).
    pub method: String,
    /// Ordering names at the call (two for compare-exchange).
    pub orderings: Vec<String>,
    /// Result syntactically discarded.
    pub discarded: bool,
    /// 1-based line.
    pub line: usize,
}

/// A lock-order edge: `from` held while `to` is acquired.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The already-held class.
    pub from: String,
    /// The class acquired under it.
    pub to: String,
    /// File of the acquisition site.
    pub file: String,
    /// Function containing the site.
    pub func: String,
    /// 1-based line.
    pub line: usize,
    /// `"direct"` (nested acquisition) or `"call"` (via a callee's
    /// may-acquire set).
    pub via: &'static str,
}

/// One analyzed function with extracted facts and fixpoint results.
#[derive(Debug, Clone)]
pub struct AnalyzedFn {
    /// Repo-relative file path.
    pub file: String,
    /// Lock-class namespace (file stem).
    pub stem: String,
    /// The parsed function.
    pub info: FnInfo,
    /// Directly acquired classes with mode and line.
    pub direct_acquires: Vec<(String, Mode, usize)>,
    /// Within-function nesting edges.
    pub direct_edges: Vec<LockEdge>,
    /// Named call sites with held sets.
    pub calls: Vec<CallSite>,
    /// Closure literals.
    pub closures: Vec<ClosureSite>,
    /// Classes held while invoking an opaque callback parameter
    /// (class → line of the invocation).
    pub cb_held: BTreeMap<String, usize>,
    /// Atomic operations.
    pub atomics: Vec<AtomicSite>,
    /// Fixpoint: classes this function may acquire, transitively.
    pub may_acquire: BTreeSet<String>,
    /// Fixpoint: classes held when this function (or a callee it forwards
    /// its callback to) invokes the callback (class → representative line).
    pub provider: BTreeMap<String, usize>,
}

/// The whole-program model.
#[derive(Debug, Default)]
pub struct Model {
    /// Every production function analyzed.
    pub fns: Vec<AnalyzedFn>,
    /// Name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Ubiquitous method names that are never resolved across files: they
/// collide with `std` collection methods, so a cross-file match would
/// wire unrelated call sites into the graph. Same-file resolution still
/// applies (a file calling its own `insert` means that `insert`).
const COMMON_NAMES: &[&str] = &[
    "insert", "remove", "get", "get_mut", "push", "pop", "len", "clear",
    "contains", "contains_key", "new", "clone", "next", "iter", "iter_mut",
    "drain", "extend", "take", "set", "add", "swap", "write", "read",
    "flush", "send", "recv", "join", "entry", "resize", "reserve", "sort",
    "drop", "default", "from", "into", "run", "append", "load", "store",
];

impl Model {
    /// Builds the model from source files: parse, extract facts, run both
    /// fixpoints. Test-module functions are parsed but excluded.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut model = Model::default();
        // Pass 0: parse everything, learn guard-returning helper names.
        let mut parsed: Vec<(usize, Vec<FnInfo>)> = Vec::new();
        let mut guard_helpers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            let fns = parse(&f.source);
            for func in fns.iter().filter(|x| !x.in_test_module && x.returns_guard) {
                let classes: BTreeSet<String> = func
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Acquire { field, .. } => Some(class_of(&f.stem, field)),
                        _ => None,
                    })
                    .collect();
                guard_helpers
                    .entry(func.name.clone())
                    .or_default()
                    .extend(classes);
            }
            parsed.push((fi, fns));
        }
        // A helper that returns guards it got from another helper
        // (`read_chunks` collecting `read_chunk`s) acquires that one's classes.
        loop {
            let mut grown = false;
            let helpers = parsed.iter().flat_map(|(_, fns)| fns);
            for func in helpers.filter(|x| !x.in_test_module && x.returns_guard) {
                let inner: BTreeSet<String> = func
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Call { name, .. } if *name != func.name => guard_helpers.get(name),
                        _ => None,
                    })
                    .flatten()
                    .cloned()
                    .collect();
                let own = guard_helpers.entry(func.name.clone()).or_default();
                grown |= inner.iter().any(|class| own.insert(class.clone()));
            }
            if !grown {
                break;
            }
        }
        // Pass 1: per-function fact extraction with guard helpers known.
        for (fi, fns) in parsed {
            let f = &files[fi];
            for info in fns.into_iter().filter(|x| !x.in_test_module) {
                let idx = model.fns.len();
                let analyzed = extract(f, info, &guard_helpers);
                model
                    .by_name
                    .entry(analyzed.info.name.clone())
                    .or_default()
                    .push(idx);
                model.fns.push(analyzed);
            }
        }
        model.fixpoint_may_acquire();
        model.fixpoint_providers();
        model
    }

    /// Resolves a call name to candidate functions: same-file matches
    /// win; otherwise cross-file by name unless the name is on the
    /// common-method denylist.
    pub fn resolve(&self, caller: usize, name: &str) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        let file = &self.fns[caller].file;
        let same_file: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| i != caller && self.fns[i].file == *file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        if COMMON_NAMES.contains(&name) {
            return Vec::new();
        }
        all.iter().copied().filter(|&i| i != caller).collect()
    }

    /// Transitive may-acquire: direct acquisitions plus everything any
    /// resolvable callee may acquire, iterated to fixpoint.
    fn fixpoint_may_acquire(&mut self) {
        for f in &mut self.fns {
            f.may_acquire = f
                .direct_acquires
                .iter()
                .map(|(c, _, _)| c.clone())
                .collect();
        }
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add = BTreeSet::new();
                for c in &self.fns[i].calls {
                    for j in self.resolve(i, &c.name) {
                        for cls in &self.fns[j].may_acquire {
                            if !self.fns[i].may_acquire.contains(cls) {
                                add.insert(cls.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    self.fns[i].may_acquire.extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Callback providers: a function that invokes an opaque callback
    /// parameter while holding locks, or that forwards its callback
    /// parameter to such a provider (adding any locks it holds at the
    /// forwarding call). Iterated to fixpoint so trait wrappers like
    /// `for_each_out_neighbor → for_each` inherit provider status.
    fn fixpoint_providers(&mut self) {
        for f in &mut self.fns {
            f.provider = f.cb_held.clone();
        }
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: BTreeMap<String, usize> = BTreeMap::new();
                for c in &self.fns[i].calls {
                    if c.forwards.is_empty() {
                        continue;
                    }
                    for j in self.resolve(i, &c.name) {
                        if self.fns[j].provider.is_empty() {
                            continue;
                        }
                        for cls in self.fns[j].provider.keys() {
                            if !self.fns[i].provider.contains_key(cls) {
                                add.insert(cls.clone(), c.line);
                            }
                        }
                        for cls in &c.held {
                            if !self.fns[i].provider.contains_key(cls) {
                                add.insert(cls.clone(), c.line);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    self.fns[i].provider.extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// All lock-order edges: within-function nesting plus held-at-call ×
    /// callee-may-acquire.
    pub fn edges(&self) -> Vec<LockEdge> {
        let mut out = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            out.extend(f.direct_edges.iter().cloned());
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                for j in self.resolve(i, &c.name) {
                    for to in &self.fns[j].may_acquire {
                        for from in &c.held {
                            out.push(LockEdge {
                                from: from.clone(),
                                to: to.clone(),
                                file: f.file.clone(),
                                func: f.info.qual_name.clone(),
                                line: c.line,
                                via: "call",
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Lock-class name for an acquisition receiver.
fn class_of(stem: &str, field: &str) -> String {
    format!("{stem}.{field}")
}

/// A held guard: its class and, for `let`-bound guards, the binding name
/// (so `drop(name)` can release it).
#[derive(Debug, Clone)]
struct Held {
    class: String,
    name: Option<String>,
}

/// Walks one function's event stream, tracking guard lifetimes by scope,
/// and produces its direct facts.
fn extract(
    file: &SourceFile,
    info: FnInfo,
    guard_helpers: &BTreeMap<String, BTreeSet<String>>,
) -> AnalyzedFn {
    let mut out = AnalyzedFn {
        file: file.path.clone(),
        stem: file.stem.clone(),
        direct_acquires: Vec::new(),
        direct_edges: Vec::new(),
        calls: Vec::new(),
        closures: Vec::new(),
        cb_held: BTreeMap::new(),
        atomics: Vec::new(),
        may_acquire: BTreeSet::new(),
        provider: BTreeMap::new(),
        info,
    };
    // Scope stack of let-bound guards; statement temporaries die at `;`.
    let mut frames: Vec<Vec<Held>> = vec![Vec::new()];
    let mut temps: Vec<String> = Vec::new();
    // Innermost-last stack of open closures (indices into out.closures),
    // each with the frame depth at entry so exits stay balanced.
    let mut closure_stack: Vec<(usize, usize)> = Vec::new();
    // Local-name → field aliases (`let w = &self.words`, loop variables,
    // single-parameter iterator closures) so per-element receivers fold
    // back into the owning field's class.
    let mut alias: BTreeMap<String, String> = BTreeMap::new();

    let events = std::mem::take(&mut out.info.events);
    for ev in &events {
        match ev {
            Event::ScopeEnter => frames.push(Vec::new()),
            Event::ScopeExit => {
                if frames.len() > 1 {
                    frames.pop();
                }
            }
            Event::StmtEnd => temps.clear(),
            Event::Alias { name, field } => {
                let target = alias.get(field).cloned().unwrap_or_else(|| field.clone());
                alias.insert(name.clone(), target);
            }
            Event::ClosureEnter {
                passed_to,
                chain_root,
                params,
                line,
            } => {
                if let (Some(root), [param]) = (chain_root, params.as_slice()) {
                    let target = alias.get(root).cloned().unwrap_or_else(|| root.clone());
                    alias.insert(param.clone(), target);
                }
                let idx = out.closures.len();
                out.closures.push(ClosureSite {
                    passed_to: passed_to.clone(),
                    params: params.clone(),
                    line: *line,
                    acquires: BTreeSet::new(),
                    calls: Vec::new(),
                });
                closure_stack.push((idx, frames.len()));
                frames.push(Vec::new());
            }
            Event::ClosureExit => {
                if let Some((_, depth)) = closure_stack.pop() {
                    while frames.len() > depth.max(1) {
                        frames.pop();
                    }
                }
            }
            Event::DropCall { name } => {
                for frame in frames.iter_mut().rev() {
                    if let Some(p) = frame.iter().rposition(|h| h.name.as_deref() == Some(name)) {
                        frame.remove(p);
                        break;
                    }
                }
            }
            Event::Acquire {
                field,
                mode,
                binding,
                line,
            } => {
                let field = alias.get(field).map_or(field.as_str(), String::as_str);
                let class = class_of(&file.stem, field);
                record_acquire(&mut out, &frames, &temps, &closure_stack, &class, *mode, *line);
                register_held(&mut frames, &mut temps, binding, &class);
            }
            Event::Call {
                name,
                binding,
                forwards,
                operands,
                line,
            } => {
                let held = held_classes(&frames, &temps);
                // Guard-returning helpers count as acquisitions here.
                if let Some(classes) = guard_helpers.get(name) {
                    for class in classes {
                        record_acquire(
                            &mut out,
                            &frames,
                            &temps,
                            &closure_stack,
                            class,
                            Mode::Lock,
                            *line,
                        );
                        register_held(&mut frames, &mut temps, binding, class);
                    }
                }
                let call_idx = out.calls.len();
                out.calls.push(CallSite {
                    name: name.clone(),
                    forwards: forwards.clone(),
                    operands: operands.clone(),
                    held,
                    line: *line,
                    closures: closure_stack.iter().map(|&(i, _)| i).collect(),
                });
                for &(ci, _) in &closure_stack {
                    out.closures[ci].calls.push(call_idx);
                }
            }
            Event::CallbackInvoke { line, .. } => {
                for class in held_classes(&frames, &temps) {
                    out.cb_held.entry(class).or_insert(*line);
                }
            }
            Event::AtomicOp {
                field,
                method,
                orderings,
                discarded,
                line,
            } => {
                let field = alias.get(field).map_or(field.as_str(), String::as_str);
                out.atomics.push(AtomicSite {
                    group: class_of(&file.stem, field),
                    method: method.clone(),
                    orderings: orderings.clone(),
                    discarded: *discarded,
                    line: *line,
                });
            }
        }
    }
    out
}

/// Snapshot of every held class (scoped guards plus statement temps).
fn held_classes(frames: &[Vec<Held>], temps: &[String]) -> Vec<String> {
    frames
        .iter()
        .flatten()
        .map(|h| h.class.clone())
        .chain(temps.iter().cloned())
        .collect()
}

/// Records an acquisition: direct-acquire list, nesting edges from every
/// held class (self-edges included — same-class nesting is a deadlock
/// with non-reentrant locks), and closure-local acquire sets.
fn record_acquire(
    out: &mut AnalyzedFn,
    frames: &[Vec<Held>],
    temps: &[String],
    closure_stack: &[(usize, usize)],
    class: &str,
    mode: Mode,
    line: usize,
) {
    for from in held_classes(frames, temps) {
        out.direct_edges.push(LockEdge {
            from,
            to: class.to_string(),
            file: out.file.clone(),
            func: out.info.qual_name.clone(),
            line,
            via: "direct",
        });
    }
    out.direct_acquires.push((class.to_string(), mode, line));
    for &(ci, _) in closure_stack {
        out.closures[ci].acquires.insert(class.to_string());
    }
}

/// Adds a freshly acquired guard to the held state per its binding.
fn register_held(frames: &mut [Vec<Held>], temps: &mut Vec<String>, binding: &Binding, class: &str) {
    match binding {
        Binding::Let(name) => {
            if let Some(frame) = frames.last_mut() {
                frame.push(Held {
                    class: class.to_string(),
                    name: Some(name.clone()),
                });
            }
        }
        Binding::Temp => temps.push(class.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        Model::build(&[SourceFile::new("crates/x/src/widget.rs", src)])
    }

    fn find<'a>(m: &'a Model, name: &str) -> &'a AnalyzedFn {
        let idx = m.by_name.get(name).and_then(|v| v.first()).copied();
        &m.fns[idx.unwrap_or_else(|| panic!("fn {name} not in model"))]
    }

    #[test]
    fn nested_acquisition_yields_edge() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n}\n",
        );
        let edges = m.edges();
        assert!(edges.iter().any(|e| e.from == "widget.alpha" && e.to == "widget.beta"));
        assert!(!edges.iter().any(|e| e.from == "widget.beta"));
    }

    #[test]
    fn drop_releases_guard_before_next_acquire() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        drop(a);\n        let b = self.beta.lock();\n    }\n}\n",
        );
        assert!(m.edges().is_empty());
    }

    #[test]
    fn scope_exit_releases_guard() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        {\n            let a = self.alpha.lock();\n        }\n        let b = self.beta.lock();\n    }\n}\n",
        );
        assert!(m.edges().is_empty());
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        let n = self.alpha.lock().len();\n        let b = self.beta.lock();\n    }\n}\n",
        );
        assert!(m.edges().is_empty());
    }

    #[test]
    fn may_acquire_propagates_through_calls() {
        let m = model_of(
            "impl W {\n    fn low(&self) { let g = self.alpha.lock(); }\n    fn high(&self) { self.low(); }\n}\n",
        );
        assert!(find(&m, "high").may_acquire.contains("widget.alpha"));
    }

    #[test]
    fn call_under_lock_yields_call_edge() {
        let m = model_of(
            "impl W {\n    fn low(&self) { let g = self.alpha.lock(); }\n    fn high(&self) {\n        let b = self.beta.lock();\n        self.low();\n    }\n}\n",
        );
        assert!(m
            .edges()
            .iter()
            .any(|e| e.from == "widget.beta" && e.to == "widget.alpha" && e.via == "call"));
    }

    #[test]
    fn callback_invoke_under_lock_marks_provider() {
        let m = model_of(
            "impl W {\n    fn for_each(&self, f: &mut dyn FnMut(u32)) {\n        let g = self.alpha.lock();\n        for x in g.iter() { f(x); }\n    }\n}\n",
        );
        assert!(find(&m, "for_each").provider.contains_key("widget.alpha"));
    }

    #[test]
    fn provider_status_propagates_through_forwarding() {
        let m = model_of(
            "impl W {\n    fn inner(&self, f: &mut dyn FnMut(u32)) {\n        let g = self.alpha.lock();\n        f(1);\n    }\n    fn outer(&self, f: &mut dyn FnMut(u32)) {\n        self.inner(f);\n    }\n}\n",
        );
        assert!(find(&m, "outer").provider.contains_key("widget.alpha"));
    }

    #[test]
    fn guard_helper_counts_as_acquisition_at_caller() {
        let m = model_of(
            "impl W {\n    fn lock_list(&self, v: usize) -> MutexGuard<'_, Vec<u32>> {\n        self.lists[v].lock()\n    }\n    fn f(&self, f2: &mut dyn FnMut(u32)) {\n        let list = self.lock_list(0);\n        for x in list.iter() { f2(x); }\n    }\n}\n",
        );
        assert!(find(&m, "f").provider.contains_key("widget.lists"));
    }

    #[test]
    fn common_names_do_not_resolve_cross_file() {
        let m = Model::build(&[
            SourceFile::new(
                "crates/x/src/store.rs",
                "impl S {\n    fn insert(&self) { let g = self.alpha.lock(); }\n}\n",
            ),
            SourceFile::new(
                "crates/x/src/user.rs",
                "impl U {\n    fn f(&self) {\n        let b = self.beta.lock();\n        self.map.insert(1);\n    }\n}\n",
            ),
        ]);
        assert!(!m
            .edges()
            .iter()
            .any(|e| e.from == "user.beta" && e.to == "store.alpha"));
    }

    #[test]
    fn test_module_fns_are_excluded() {
        let m = model_of(
            "#[cfg(test)]\nmod tests {\n    fn t(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n",
        );
        assert!(m.fns.is_empty());
    }

    #[test]
    fn self_nesting_yields_self_edge() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        let a = self.alpha.lock();\n        let b = self.alpha.lock();\n    }\n}\n",
        );
        assert!(m
            .edges()
            .iter()
            .any(|e| e.from == "widget.alpha" && e.to == "widget.alpha"));
    }

    #[test]
    fn let_borrow_alias_folds_atomic_group() {
        // `let stamp = &self.stamps[i]` then ops on `stamp` must land in
        // the `widget.stamps` group, not a phantom `widget.stamp` group.
        let m = model_of(
            "impl W {\n    fn mark(&self, i: usize) {\n        let stamp = &self.stamps[i];\n        if stamp.load(Ordering::Acquire) == 0 {\n            let _ = stamp.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n        }\n    }\n}\n",
        );
        let groups: Vec<_> = find(&m, "mark").atomics.iter().map(|a| a.group.clone()).collect();
        assert!(groups.iter().all(|g| g == "widget.stamps"), "{groups:?}");
    }

    #[test]
    fn for_loop_alias_folds_atomic_group() {
        let m = model_of(
            "impl W {\n    fn clear(&self) {\n        for word in &self.words {\n            word.store(0, Ordering::Release);\n        }\n    }\n    fn count(&self) -> usize {\n        self.words.iter().map(|w| w.load(Ordering::Acquire)).sum()\n    }\n}\n",
        );
        for f in &m.fns {
            for a in &f.atomics {
                assert_eq!(a.group, "widget.words", "{:?} in {}", a, f.info.name);
            }
        }
    }

    #[test]
    fn closure_param_alias_folds_lock_class() {
        // Iterating a lock array with a closure must attribute the
        // acquisition to the array field, not the closure parameter.
        let m = model_of(
            "impl W {\n    fn drain(&self) {\n        self.chunks.iter().for_each(|c| {\n            let g = c.lock();\n            g.len();\n        });\n    }\n}\n",
        );
        let acquires: Vec<_> = find(&m, "drain")
            .direct_acquires
            .iter()
            .map(|(c, _, _)| c.clone())
            .collect();
        assert_eq!(acquires, vec!["widget.chunks".to_string()], "{acquires:?}");
    }
}
