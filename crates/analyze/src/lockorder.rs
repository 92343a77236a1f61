//! Lock-order graph construction, cycle detection, and the
//! lock-held-across-callback check (the PR-6 bug shape).

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{LockEdge, Model};
use crate::report::Finding;

/// The global lock-order graph plus its findings.
#[derive(Debug, Default)]
pub struct LockOrder {
    /// Adjacency: held class → classes acquired under it.
    pub adj: BTreeMap<String, BTreeSet<String>>,
    /// One representative edge per (from, to) pair, for reporting.
    pub witness: BTreeMap<(String, String), LockEdge>,
    /// Deadlock findings (cycles and held-across-callback).
    pub findings: Vec<Finding>,
}

/// Builds the graph from the model's edges and runs both checks.
pub fn check(model: &Model) -> LockOrder {
    let mut lo = LockOrder::default();
    for e in model.edges() {
        lo.adj.entry(e.from.clone()).or_default().insert(e.to.clone());
        lo.adj.entry(e.to.clone()).or_default();
        lo.witness
            .entry((e.from.clone(), e.to.clone()))
            .or_insert(e);
    }
    cycles(&mut lo);
    callbacks(model, &mut lo);
    lo
}

/// Reports every non-trivial strongly connected component (≥ 2 classes)
/// and every self-loop as a potential deadlock cycle. The finding key is
/// the sorted class list, which is stable under edge-discovery order.
fn cycles(lo: &mut LockOrder) {
    for scc in tarjan(&lo.adj) {
        let cyclic = scc.len() > 1
            || scc
                .first()
                .is_some_and(|c| lo.adj.get(c).is_some_and(|s| s.contains(c)));
        if !cyclic {
            continue;
        }
        let mut classes: Vec<&String> = scc.iter().collect();
        classes.sort();
        let key = format!(
            "lock-cycle:{}",
            classes.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(",")
        );
        // Witness edges internal to the component, for the message.
        let mut sites = Vec::new();
        for ((from, to), e) in &lo.witness {
            if scc.contains(from) && scc.contains(to) {
                sites.push(format!(
                    "{from} -> {to} at {}:{} ({}, {})",
                    e.file, e.line, e.func, e.via
                ));
            }
        }
        let noun = if scc.len() == 1 {
            "same-class nesting (self-deadlock with non-reentrant locks)"
        } else {
            "lock-order cycle (potential deadlock)"
        };
        lo.findings.push(Finding {
            key,
            message: format!("{noun}: {}", sites.join("; ")),
        });
    }
}

/// Where a read phase starts: `GraphTopology::frozen` and its
/// value-returning form `saga_graph::read_phase`. Both hold every chunk
/// guard across the closure by design and
/// hand it, as its one parameter, a view whose reads take none of them.
const VIEW_ENTRIES: &[&str] = &["frozen", "read_phase"];

/// Flags closures that may acquire a lock class their receiver holds
/// while invoking them: `g.for_each(v, |x| … g.degree(x) …)` where
/// `for_each` holds the chunk lock across the callback.
///
/// A closure passed to one of [`VIEW_ENTRIES`] is a whole read phase, so
/// it is judged differently in three ways. Its providers are every
/// `frozen` in the workspace (a trait method; `read_phase` only wraps it).
/// The calls it makes *on its view parameter* — as the bare receiver or a
/// bare argument — are exempt: that is the lock-free read the view exists
/// for. And only calls that resolve into a provider's own file count:
/// kernels run on the pool, whose context-insensitive summary may acquire
/// everything. What is left is the misuse worth catching — a per-visit read
/// of the live graph, or a batch on it, written inside a read phase.
fn callbacks(model: &Model, lo: &mut LockOrder) {
    for (i, f) in model.fns.iter().enumerate() {
        for closure in &f.closures {
            let Some(callee) = &closure.passed_to else {
                continue;
            };
            let view_entry = VIEW_ENTRIES.contains(&callee.as_str());
            let view = closure.params.first().filter(|_| view_entry);
            let mut providers = model.resolve(i, callee);
            if view_entry {
                providers = model.by_name.get("frozen").cloned().unwrap_or_default();
                providers.retain(|&j| !model.fns[j].provider.is_empty());
            }
            // What the closure itself may acquire, transitively.
            let mut may: BTreeSet<String> = closure.acquires.clone();
            for &ci in &closure.calls {
                let call = &f.calls[ci];
                if view.is_some_and(|view| call.operands.contains(view)) {
                    continue;
                }
                for j in model.resolve(i, &call.name) {
                    let file = &model.fns[j].file;
                    if view_entry && !providers.iter().any(|&p| model.fns[p].file == *file) {
                        continue;
                    }
                    may.extend(model.fns[j].may_acquire.iter().cloned());
                }
            }
            if may.is_empty() {
                continue;
            }
            for j in providers {
                let prov = &model.fns[j].provider;
                for class in may.intersection(&prov.keys().cloned().collect()) {
                    let prov_line = prov.get(class).copied().unwrap_or(0);
                    lo.findings.push(Finding {
                        key: format!("callback:{}.{}:{class}", f.stem, f.info.name),
                        message: format!(
                            "closure at {}:{} (in {}) passed to `{}` may acquire `{class}`, \
                             which `{}` holds across the callback ({}:{}) — self-deadlock shape",
                            f.file,
                            closure.line,
                            f.info.qual_name,
                            callee,
                            model.fns[j].info.qual_name,
                            model.fns[j].file,
                            prov_line,
                        ),
                    });
                }
            }
        }
    }
    lo.findings.sort_by(|a, b| a.key.cmp(&b.key).then(a.message.cmp(&b.message)));
    lo.findings.dedup_by(|a, b| a.key == b.key && a.message == b.message);
}

/// Iterative Tarjan SCC over the class graph (iterative so deep chains
/// cannot overflow the stack).
fn tarjan(adj: &BTreeMap<String, BTreeSet<String>>) -> Vec<BTreeSet<String>> {
    let nodes: Vec<&String> = adj.keys().collect();
    let index_of: BTreeMap<&String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let succs: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| adj[*n].iter().filter_map(|s| index_of.get(s).copied()).collect())
        .collect();

    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs = Vec::new();

    // Explicit DFS frames: (node, next successor position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut si)) = frames.last_mut() {
            if *si == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succs[v].get(*si) {
                *si += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = BTreeSet::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.insert(nodes[w].clone());
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

impl LockOrder {
    /// Graphviz DOT rendering of the lock-order graph (the CI artifact).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n    rankdir=LR;\n");
        for class in self.adj.keys() {
            out.push_str(&format!("    \"{class}\";\n"));
        }
        for ((from, to), e) in &self.witness {
            out.push_str(&format!(
                "    \"{from}\" -> \"{to}\" [label=\"{}:{} ({})\"];\n",
                e.file.rsplit('/').next().unwrap_or(&e.file),
                e.line,
                e.via
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn check_src(files: &[(&str, &str)]) -> LockOrder {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| SourceFile::new(*p, *s))
            .collect();
        check(&Model::build(&files))
    }

    #[test]
    fn ab_ba_cycle_is_detected() {
        let lo = check_src(&[(
            "crates/x/src/pair.rs",
            "impl P {\n    fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n    fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }\n}\n",
        )]);
        assert!(
            lo.findings.iter().any(|f| f.key == "lock-cycle:pair.alpha,pair.beta"),
            "{:?}",
            lo.findings
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let lo = check_src(&[(
            "crates/x/src/pair.rs",
            "impl P {\n    fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n    fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n",
        )]);
        assert!(lo.findings.is_empty(), "{:?}", lo.findings);
    }

    #[test]
    fn callback_reacquire_is_flagged() {
        let lo = check_src(&[(
            "crates/x/src/chunked.rs",
            concat!(
                "impl C {\n",
                "    fn degree(&self, v: usize) -> usize {\n",
                "        self.chunks[v].lock().len()\n",
                "    }\n",
                "    fn for_each(&self, v: usize, f: &mut dyn FnMut(usize)) {\n",
                "        let chunk = self.chunks[v].lock();\n",
                "        for x in chunk.iter() { f(x); }\n",
                "    }\n",
                "    fn bad(&self) {\n",
                "        let mut total = 0;\n",
                "        self.for_each(0, &mut |x| { total += self.degree(x); });\n",
                "    }\n",
                "}\n",
            ),
        )]);
        assert!(
            lo.findings.iter().any(|f| f.key == "callback:chunked.bad:chunked.chunks"),
            "{:?}",
            lo.findings
        );
    }

    #[test]
    fn two_phase_collect_then_query_is_clean() {
        let lo = check_src(&[(
            "crates/x/src/chunked.rs",
            concat!(
                "impl C {\n",
                "    fn degree(&self, v: usize) -> usize {\n",
                "        self.chunks[v].lock().len()\n",
                "    }\n",
                "    fn for_each(&self, v: usize, f: &mut dyn FnMut(usize)) {\n",
                "        let chunk = self.chunks[v].lock();\n",
                "        for x in chunk.iter() { f(x); }\n",
                "    }\n",
                "    fn good(&self) {\n",
                "        let mut seen = Vec::new();\n",
                "        self.for_each(0, &mut |x| seen.push(x));\n",
                "        let mut total = 0;\n",
                "        for x in seen { total += self.degree(x); }\n",
                "    }\n",
                "}\n",
            ),
        )]);
        assert!(lo.findings.is_empty(), "{:?}", lo.findings);
    }

    #[test]
    fn dot_contains_edges() {
        let lo = check_src(&[(
            "crates/x/src/pair.rs",
            "impl P {\n    fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n}\n",
        )]);
        let dot = lo.to_dot();
        assert!(dot.contains("\"pair.alpha\" -> \"pair.beta\""), "{dot}");
    }
}
