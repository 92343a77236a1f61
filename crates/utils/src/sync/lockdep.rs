//! The lock-order checker of a debug build: Linux lockdep's rule, cut to
//! what this workspace's locks need. Compiled only under
//! `all(debug_assertions, not(loom))`; a release build's locks carry none
//! of it (DESIGN.md §7b, "Lock classes").
//!
//! A lock's **class** is its construction site: `Mutex::new` and
//! `RwLock::new` are `#[track_caller]`, so every lock one line of code
//! builds — every chunk of every chunked structure, every AS vertex list —
//! is one class. A [`ThreadPool`](crate::parallel::ThreadPool) dispatch is
//! a pseudo-class named by its call site: the caller holds it through the
//! join and every task runs under it, so a lock held across a dispatch
//! whose tasks take it is an ordinary cycle.
//!
//! Each thread keeps the stack of classes it holds. A blocking acquire of
//! class `B` records `A → B` for every held `A` in one global class graph,
//! and panics — before it blocks — when `B` is already held (same-class
//! nesting) or when the graph already leads from `B` back to `A`: two
//! threads running the two paths can deadlock, whether or not this run
//! interleaved them that way. A try-lock cannot block, so it adds no edge;
//! what it holds still orders the acquires made under it. The checker sees
//! exactly the acquisitions the debug test suites execute.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

/// A source location: a lock's construction site, a dispatch's call site,
/// or where an acquisition happened.
pub(crate) type Site = &'static Location<'static>;

/// A lock class: every lock built at one site, or every dispatch made at
/// one site.
#[derive(Debug, Clone, Copy, Eq, PartialOrd, Ord)]
pub(crate) struct Class {
    pub(crate) site: Site,
    dispatch: bool,
}

impl Class {
    /// The class of the locks constructed at `site`.
    pub(crate) const fn lock(site: Site) -> Self {
        Self { site, dispatch: false }
    }

    /// The pseudo-class of the pool dispatches made at `site`.
    pub(crate) const fn dispatch(site: Site) -> Self {
        Self { site, dispatch: true }
    }

    /// This thread's cache key. Two copies of one `Location` may sit at
    /// different addresses, which only costs a second lookup.
    fn key(self) -> usize {
        std::ptr::from_ref(self.site).addr() | usize::from(self.dispatch)
    }
}

/// By value, as the derived `Ord` compares; one address is the common case.
impl PartialEq for Class {
    fn eq(&self, other: &Self) -> bool {
        self.dispatch == other.dispatch
            && (std::ptr::eq(self.site, other.site) || self.site == other.site)
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = if self.dispatch { "pool dispatch at" } else { "lock constructed at" };
        write!(f, "{what} {}", self.site)
    }
}

/// Every recorded `held → acquired` edge with the site that first took it.
static GRAPH: Mutex<BTreeMap<Class, BTreeMap<Class, Site>>> = Mutex::new(BTreeMap::new());

/// One thread's view: what it holds, and which edges it has checked.
struct Thread {
    /// The classes held and where they were taken, oldest first.
    held: Vec<(Class, Site)>,
    /// Edges this thread has recorded: only a new one takes [`GRAPH`]'s
    /// lock.
    seen: BTreeSet<(usize, usize)>,
    /// The last edge checked, which a loop of acquires repeats.
    last: (usize, usize),
}

thread_local! {
    static THREAD: RefCell<Thread> = const {
        RefCell::new(Thread { held: Vec::new(), seen: BTreeSet::new(), last: (0, 0) })
    };
}

impl Thread {
    /// Checks taking `to` at `at` against every held class, newest first,
    /// recording the new edges; the panic message of the first violation.
    fn check(&mut self, to: Class, at: Site) -> Option<String> {
        for &(from, from_at) in self.held.iter().rev() {
            if from == to {
                return Some(format!(
                    "lock order: same-class nesting at {at}: {to} is acquired while a lock \
                     of that class, taken at {from_at}, is held; only \
                     saga_utils::sync::read_all may take several"
                ));
            }
            let key = (from.key(), to.key());
            if self.last != key && !self.seen.contains(&key) {
                if let Some(message) = record(from, from_at, to, at) {
                    return Some(message);
                }
                self.seen.insert(key);
            }
            self.last = key;
        }
        None
    }
}

/// One class on this thread's held stack, popped when the token drops.
#[derive(Debug)]
pub(crate) struct Held {
    class: Class,
    at: Site,
}

impl Held {
    /// A blocking acquire of `class` by the caller: panics there if it
    /// could deadlock against what this thread holds, else records the new
    /// edges and holds `class`.
    #[track_caller]
    pub(crate) fn acquire(class: Class) -> Self {
        let at = Location::caller();
        let violation = THREAD.try_with(|thread| {
            let mut thread = thread.borrow_mut();
            let violation = if std::thread::panicking() { None } else { thread.check(class, at) };
            if violation.is_none() {
                thread.held.push((class, at));
            }
            violation
        });
        if let Ok(Some(message)) = violation {
            panic!("{message}");
        }
        Self { class, at }
    }

    /// Holds `class` without an edge: a successful try-lock, which cannot
    /// have blocked.
    #[track_caller]
    pub(crate) fn push(class: Class) -> Self {
        let held = Self { class, at: Location::caller() };
        held.resume();
        held
    }

    /// Takes the class off the stack for a `Condvar::wait`, which releases
    /// the lock while parked.
    pub(crate) fn suspend(&self) {
        let _ = THREAD.try_with(|thread| {
            let held = &mut thread.borrow_mut().held;
            match held.last() {
                Some(&(class, _)) if class == self.class => drop(held.pop()),
                _ => {
                    if let Some(i) = held.iter().rposition(|&(class, _)| class == self.class) {
                        held.remove(i);
                    }
                }
            }
        });
    }

    /// Puts it back when the wait re-locks: the lock is re-taken where it
    /// was held, so no edge is new.
    pub(crate) fn resume(&self) {
        let _ = THREAD.try_with(|thread| thread.borrow_mut().held.push((self.class, self.at)));
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        self.suspend();
    }
}

/// Records `from → to` in [`GRAPH`] (`from` taken at `from_at`, `to` being
/// taken at `at`) unless the graph already leads back from `to` to `from`;
/// then the panic message.
fn record(from: Class, from_at: Site, to: Class, at: Site) -> Option<String> {
    let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(path) = path(&graph, to, from) {
        let steps: Vec<String> =
            path.iter().map(|(a, b, site)| format!("\n  {a}\n    → {b}, first at {site}")).collect();
        return Some(format!(
            "lock order inversion at {at}: {to} is acquired while {from}, taken at \
             {from_at}, is held, but the reverse order is already recorded:{}",
            steps.concat()
        ));
    }
    graph.entry(from).or_default().entry(to).or_insert(at);
    None
}

/// A path of recorded edges from `start` to `goal`, if one exists.
fn path(
    graph: &BTreeMap<Class, BTreeMap<Class, Site>>,
    start: Class,
    goal: Class,
) -> Option<Vec<(Class, Class, Site)>> {
    let mut parent: BTreeMap<Class, (Class, Site)> = BTreeMap::new();
    let mut stack = vec![start];
    while let Some(at) = stack.pop() {
        for (&next, &site) in graph.get(&at).into_iter().flatten() {
            if next == start || parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, (at, site));
            if next == goal {
                let mut path = Vec::new();
                let mut cur = goal;
                while cur != start {
                    let (prev, site) = parent[&cur];
                    path.push((prev, cur, site));
                    cur = prev;
                }
                path.reverse();
                return Some(path);
            }
            stack.push(next);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    //! Each case takes its locks on one thread (a pool's workers aside) and
    //! every checker panic comes before the blocking acquire, so no case
    //! really deadlocks. Classes are per line, so cases do not share any.

    use super::*;
    use crate::parallel::ThreadPool;
    use crate::sync::{read_all, thread, Arc, Condvar, Mutex, RwLock};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The checker's message from `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the checker should panic");
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// `file:line:` of a site in this file.
    fn at(line: u32) -> String {
        format!("{}:{line}:", file!())
    }

    /// The recorded edges among the classes built or dispatched at `lines`
    /// of this file, as `(from line, to line)`.
    fn edges_among(lines: &[u32]) -> Vec<(u32, u32)> {
        let here = |c: &Class| c.site.file() == file!() && lines.contains(&c.site.line());
        let graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        let edges = graph.iter().filter(|(from, _)| here(from));
        edges
            .flat_map(|(from, to)| to.keys().filter(|to| here(to)).map(|to| (from.site.line(), to.site.line())))
            .collect()
    }

    #[test]
    fn an_inversion_panics_naming_both_sites() {
        let (a, a_line) = (Mutex::new(()), line!());
        let (b, b_line) = (Mutex::new(()), line!());
        {
            let _a = a.lock();
            let _b = b.lock();
        }
        let message = panic_message(|| {
            let _b = b.lock();
            let _a = a.lock();
        });
        assert!(message.contains("inversion"), "{message}");
        assert!(message.contains(&at(a_line)) && message.contains(&at(b_line)), "{message}");
        assert_eq!(edges_among(&[a_line, b_line]), [(a_line, b_line)]);
    }

    /// The `Barrier::wait` shape: a guard parked in `Condvar::wait` under
    /// another guard. The wait releases and re-takes its lock where it was
    /// held, so the only edge is the one the first `lock` made.
    #[test]
    fn a_condvar_wait_adds_no_edge() {
        let (outer, outer_line) = (Mutex::new(()), line!());
        let (state, state_line) = (Arc::new((Mutex::new(false), Condvar::new())), line!());
        let _outer = outer.lock();
        let mut ready = state.0.lock();
        let notifier = Arc::clone(&state);
        let handle = thread::spawn_named("lockdep-test-notify".into(), move || {
            *notifier.0.lock() = true;
            notifier.1.notify_all();
        });
        while !*ready {
            state.1.wait(&mut ready);
        }
        drop(ready);
        handle.join().unwrap();
        assert_eq!(edges_among(&[outer_line, state_line]), [(outer_line, state_line)]);
        assert_eq!(THREAD.with_borrow(|thread| thread.held.len()), 1, "the wait put its class back once");
    }

    #[test]
    fn a_lock_held_across_a_dispatch_whose_task_takes_it_panics() {
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let (lock, lock_line) = (Mutex::new(0u32), line!());
            let message = panic_message(|| {
                let _held = lock.lock();
                pool.run_on_all(|_| {
                    *lock.lock() += 1;
                });
            });
            let dispatch = format!("pool dispatch at {}", at(lock_line + 3));
            assert!(message.contains(&at(lock_line)) && message.contains(&dispatch), "{threads}: {message}");
        }
    }

    /// `shell.scratch` held across the ingest dispatch, chunk read guards
    /// held across a kernel's: their tasks take other classes, and the
    /// tasks that do take them are another site's.
    #[test]
    fn a_lock_held_across_one_site_and_taken_by_another_sites_tasks_is_fine() {
        let pool = ThreadPool::new(2);
        let scratch = Mutex::new(());
        let chunks: Vec<RwLock<u32>> = (0..2).map(|_| RwLock::new(0)).collect();
        {
            let _scratch = scratch.lock();
            pool.run_on_all(|w| *chunks[w].write() += 1);
        }
        pool.run_on_all(|_| drop(scratch.lock()));
        {
            let view = read_all(&chunks);
            pool.run_on_all(|w| assert_eq!(*view[w], 1));
        }
        pool.parallel_for(0..2, crate::parallel::Schedule::Static, |c| *chunks[c].write() += 1);
    }

    #[test]
    fn same_class_nesting_panics_except_through_read_all() {
        let (chunks, line): (Vec<RwLock<u32>>, _) = ((0..3).map(|_| RwLock::new(0)).collect(), line!());
        let message = panic_message(|| {
            let _first = chunks[0].read();
            let _second = chunks[1].read();
        });
        assert!(message.contains("same-class nesting") && message.contains(&at(line)), "{message}");
        let all = read_all(&chunks);
        assert_eq!(all.len(), 3);
        assert_eq!(THREAD.with_borrow(|thread| thread.held.len()), 1, "read_all holds the class once");
        let message = panic_message(|| drop(chunks[2].write()));
        assert!(message.contains("same-class nesting"), "{message}");
    }

    #[test]
    fn a_try_lock_adds_no_edge_but_orders_what_it_holds() {
        let (a, a_line) = (Mutex::new(()), line!());
        let (b, b_line) = (Mutex::new(()), line!());
        let (c, c_line) = (Mutex::new(()), line!());
        {
            let _a = a.lock();
            let _b = b.try_lock().expect("b is free");
            let _c = c.lock();
        }
        let _b = b.lock();
        let _a = a.lock();
        let mut edges = edges_among(&[a_line, b_line, c_line]);
        edges.sort_unstable();
        assert_eq!(edges, [(a_line, c_line), (b_line, a_line), (b_line, c_line)]);
    }
}
