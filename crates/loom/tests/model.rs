//! Self-tests for the saga-loom model checker: known-correct protocols must
//! pass every explored schedule, and seeded concurrency bugs must be found.

use saga_loom::cell::CausalCell;
use saga_loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use saga_loom::sync::{Arc, Condvar, Mutex, OnceLock};
use saga_loom::thread;

#[test]
fn fetch_add_never_loses_an_increment() {
    saga_loom::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
}

#[test]
#[should_panic(expected = "model failed")]
fn racy_read_modify_write_is_caught() {
    saga_loom::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    // Deliberate bug: the load and store are separate
                    // scheduling points, so increments can be lost.
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
}

#[test]
fn mutex_protected_rmw_is_sound() {
    saga_loom::model(|| {
        let counter = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    let mut guard = counter.lock();
                    *guard += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 2);
    });
}

#[test]
fn cas_race_has_exactly_one_winner() {
    saga_loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let flag = Arc::clone(&flag);
                let wins = Arc::clone(&wins);
                thread::spawn(move || {
                    if flag
                        .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn condvar_handoff_is_not_lost() {
    // Producer sets a flag under the mutex and notifies; consumer waits
    // until the flag is set. The wait loop re-checks the predicate, so no
    // schedule loses the handoff.
    saga_loom::model(|| {
        struct Chan {
            state: Mutex<bool>,
            cv: Condvar,
        }
        let chan = Arc::new(Chan {
            state: Mutex::new(false),
            cv: Condvar::new(),
        });
        let consumer = {
            let chan = Arc::clone(&chan);
            thread::spawn(move || {
                let mut ready = chan.state.lock();
                while !*ready {
                    chan.cv.wait(&mut ready);
                }
            })
        };
        {
            let mut ready = chan.state.lock();
            *ready = true;
            chan.cv.notify_all();
        }
        consumer.join().unwrap();
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn lost_wakeup_is_reported_as_deadlock() {
    saga_loom::model(|| {
        struct Chan {
            state: Mutex<bool>,
            cv: Condvar,
        }
        let chan = Arc::new(Chan {
            state: Mutex::new(false),
            cv: Condvar::new(),
        });
        let consumer = {
            let chan = Arc::clone(&chan);
            thread::spawn(move || {
                let mut ready = chan.state.lock();
                while !*ready {
                    chan.cv.wait(&mut ready);
                }
            })
        };
        // Deliberate bug: the flag is set without holding the mutex and
        // without notifying. Schedules where the consumer checked the flag
        // first strand it in `wait` forever.
        consumer.join().unwrap();
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn abba_lock_order_deadlocks()
{
    saga_loom::model(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            thread::spawn(move || {
                let _ga = a.lock();
                thread::yield_now();
                let _gb = b.lock();
            })
        };
        {
            let _gb = b.lock();
            thread::yield_now();
            let _ga = a.lock();
        }
        t.join().unwrap();
    });
}

#[test]
fn two_condvars_on_one_struct_do_not_alias() {
    // Regression guard for address-based identity: the ThreadPool has two
    // adjacent condvars; notifying one must not wake the other's waiter.
    saga_loom::model(|| {
        struct TwoQueues {
            state: Mutex<(bool, bool)>,
            first: Condvar,
            second: Condvar,
        }
        let q = Arc::new(TwoQueues {
            state: Mutex::new((false, false)),
            first: Condvar::new(),
            second: Condvar::new(),
        });
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut st = q.state.lock();
                while !st.1 {
                    q.second.wait(&mut st);
                }
            })
        };
        {
            let mut st = q.state.lock();
            st.0 = true;
            // Wrong queue: must NOT wake the waiter...
            q.first.notify_all();
            // ...and the right queue must.
            st.1 = true;
            q.second.notify_all();
        }
        waiter.join().unwrap();
    });
}

#[test]
fn shutdown_flag_protocol_terminates() {
    // Miniature of the ThreadPool shutdown protocol: worker loops on a
    // condvar until a shutdown flag is set under the lock.
    saga_loom::model(|| {
        struct Ctl {
            state: Mutex<u64>,
            cv: Condvar,
            shutdown: AtomicBool,
        }
        let ctl = Arc::new(Ctl {
            state: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker = {
            let ctl = Arc::clone(&ctl);
            thread::spawn(move || {
                let mut epoch = ctl.state.lock();
                loop {
                    if ctl.shutdown.load(Ordering::SeqCst) {
                        return *epoch;
                    }
                    ctl.cv.wait(&mut epoch);
                }
            })
        };
        ctl.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = ctl.state.lock();
            ctl.cv.notify_all();
        }
        assert_eq!(worker.join().unwrap(), 0);
    });
}

/// A payload published behind a flag: the reader that sees the flag set
/// reads the payload, which must be ordered after its write.
fn publish_behind_flag(store: Ordering, load: Ordering) {
    saga_loom::model(move || {
        let payload = Arc::new(CausalCell::new(0u32));
        let flag = Arc::new(AtomicBool::new(false));
        let reader = {
            let (payload, flag) = (Arc::clone(&payload), Arc::clone(&flag));
            thread::spawn(move || {
                if flag.load(load) {
                    assert_eq!(payload.get(), 7);
                }
            })
        };
        payload.set(7);
        flag.store(true, store);
        reader.join().unwrap();
    });
}

#[test]
fn release_acquire_flag_publishes_a_cell_write() {
    publish_behind_flag(Ordering::Release, Ordering::Acquire);
}

#[test]
#[should_panic(expected = "unpublished value")]
fn relaxed_flag_store_does_not_publish_a_cell_write() {
    publish_behind_flag(Ordering::Relaxed, Ordering::Acquire);
}

#[test]
#[should_panic(expected = "unpublished value")]
fn relaxed_flag_load_does_not_acquire_a_cell_write() {
    publish_behind_flag(Ordering::Release, Ordering::Relaxed);
}

#[test]
fn mutex_hand_over_and_join_publish_cell_writes() {
    saga_loom::model(|| {
        let slot = Arc::new((Mutex::new(false), CausalCell::new(0u32)));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let mut written = slot.0.lock();
                slot.1.set(1);
                *written = true;
            })
        };
        if *slot.0.lock() {
            assert_eq!(slot.1.get(), 1);
        }
        writer.join().unwrap();
        slot.1.set(2);
        assert_eq!(slot.1.get(), 2);
    });
}

#[test]
#[should_panic(expected = "wrote over an unpublished value")]
fn unordered_writes_to_one_cell_are_caught() {
    saga_loom::model(|| {
        let slot = Arc::new(CausalCell::new(0u32));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.set(1))
        };
        slot.set(2);
        writer.join().unwrap();
    });
}

#[test]
fn once_lock_initialises_once_and_publishes_the_value() {
    saga_loom::model(|| {
        let cell = Arc::new(OnceLock::new());
        let inits = Arc::new(AtomicUsize::new(0));
        let init = |cell: &OnceLock<CausalCell<u32>>, inits: &AtomicUsize| {
            let value = cell.get_or_init(|| {
                inits.fetch_add(1, Ordering::SeqCst);
                let value = CausalCell::new(0);
                value.set(5);
                value
            });
            assert_eq!(value.get(), 5);
        };
        let racer = {
            let (cell, inits) = (Arc::clone(&cell), Arc::clone(&inits));
            thread::spawn(move || init(&cell, &inits))
        };
        init(&cell, &inits);
        racer.join().unwrap();
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn preemption_bound_zero_still_runs_every_thread() {
    let mut b = saga_loom::Builder::new();
    b.preemption_bound = Some(0);
    let schedules = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen = std::sync::Arc::clone(&schedules);
    b.check(move || {
        seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let x = Arc::new(AtomicUsize::new(0));
        let t = {
            let x = Arc::clone(&x);
            thread::spawn(move || x.fetch_add(1, Ordering::SeqCst))
        };
        x.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(x.load(Ordering::SeqCst), 2);
    });
    // With bound 0 at least the blocking-forced schedules run.
    assert!(schedules.load(std::sync::atomic::Ordering::SeqCst) >= 1);
}
