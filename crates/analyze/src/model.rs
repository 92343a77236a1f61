//! Whole-program model: the atomic operations of every non-test function,
//! each keyed by its **group**, `file_stem.field` (e.g.
//! `bitvec.words`). Structures live one-per-file in this workspace and
//! atomics are private fields, so the pair is unique enough without type
//! inference; a local that borrows a field (`let w = &self.words`, a loop
//! variable, an iterator closure's parameter) folds back into the field's
//! group.

use std::collections::BTreeMap;

use crate::parser::{parse, Event, FnInfo};

/// One source file handed to the model.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display path (repo-relative).
    pub path: String,
    /// File stem used as the atomic-group namespace.
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

/// One analyzed function.
#[derive(Debug, Clone)]
pub struct AnalyzedFn {
    /// Repo-relative file path.
    pub file: String,
    /// Atomic operations.
    pub atomics: Vec<AtomicSite>,
}

/// The whole-program model.
#[derive(Debug, Default)]
pub struct Model {
    /// Every production function analyzed.
    pub fns: Vec<AnalyzedFn>,
}

impl Model {
    /// Builds the model from source files. Test-module functions are
    /// parsed but excluded.
    pub fn build(files: &[SourceFile]) -> Self {
        let fns = files.iter().flat_map(|f| {
            parse(&f.source).into_iter().filter(|x| !x.in_test_module).map(move |info| extract(f, info))
        });
        Model { fns: fns.collect() }
    }
}

/// Walks one function's event stream, folding aliases into fields, and
/// keys each atomic operation by its group.
fn extract(file: &SourceFile, info: FnInfo) -> AnalyzedFn {
    let mut alias: BTreeMap<String, String> = BTreeMap::new();
    let mut atomics = Vec::new();
    for ev in info.events {
        match ev {
            Event::Alias { name, field } => {
                let target = alias.get(&field).cloned().unwrap_or(field);
                alias.insert(name, target);
            }
            Event::AtomicOp {
                field,
                method,
                orderings,
                discarded,
                line,
            } => {
                let field = alias.get(&field).map_or(field.as_str(), String::as_str);
                atomics.push(AtomicSite {
                    group: format!("{}.{field}", file.stem),
                    method,
                    orderings,
                    discarded,
                    line,
                });
            }
        }
    }
    AnalyzedFn {
        file: file.path.clone(),
        atomics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        Model::build(&[SourceFile::new("crates/x/src/widget.rs", src)])
    }

    fn groups(m: &Model) -> Vec<String> {
        m.fns.iter().flat_map(|f| f.atomics.iter().map(|a| a.group.clone())).collect()
    }

    #[test]
    fn test_module_fns_are_excluded() {
        let m = model_of(
            "#[cfg(test)]\nmod tests {\n    fn t(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n}\n",
        );
        assert!(m.fns.is_empty());
    }

    #[test]
    fn let_borrow_alias_folds_atomic_group() {
        // `let stamp = &self.stamps[i]` then ops on `stamp` must land in
        // the `widget.stamps` group, not a phantom `widget.stamp` group.
        let m = model_of(
            "impl W {\n    fn mark(&self, i: usize) {\n        let stamp = &self.stamps[i];\n        if stamp.load(Ordering::Acquire) == 0 {\n            let _ = stamp.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n        }\n    }\n}\n",
        );
        assert_eq!(groups(&m), ["widget.stamps", "widget.stamps"]);
    }

    #[test]
    fn for_loop_and_closure_aliases_fold_atomic_group() {
        let m = model_of(
            "impl W {\n    fn clear(&self) {\n        for word in &self.words {\n            word.store(0, Ordering::Release);\n        }\n    }\n    fn count(&self) -> usize {\n        self.words.iter().map(|w| w.load(Ordering::Acquire)).sum()\n    }\n}\n",
        );
        assert_eq!(groups(&m), ["widget.words", "widget.words"]);
    }

    #[test]
    fn alias_of_an_alias_folds_to_the_field() {
        let m = model_of(
            "impl W {\n    fn f(&self) {\n        let ws = &self.words;\n        ws.iter().for_each(|w| { w.store(0, Ordering::Release); });\n    }\n}\n",
        );
        assert_eq!(groups(&m), ["widget.words"]);
    }
}
