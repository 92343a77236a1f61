//! Self-tests for the saga-loom model checker: known-correct protocols must
//! pass every explored schedule, and seeded concurrency bugs must be found.

use saga_loom::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use saga_loom::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
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
/// loads the payload `Relaxed`, so the payload's store must happen-before
/// that load.
fn publish_behind_flag(store: Ordering, load: Ordering) {
    saga_loom::model(move || {
        let payload = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let reader = {
            let (payload, flag) = (Arc::clone(&payload), Arc::clone(&flag));
            thread::spawn(move || {
                if flag.load(load) {
                    assert_eq!(payload.load(Ordering::Relaxed), 7);
                }
            })
        };
        payload.store(7, Ordering::Relaxed);
        flag.store(true, store);
        reader.join().unwrap();
    });
}

#[test]
fn release_acquire_flag_publishes_a_relaxed_payload() {
    publish_behind_flag(Ordering::Release, Ordering::Acquire);
}

#[test]
#[should_panic(expected = "unordered read")]
fn relaxed_flag_store_does_not_publish_a_relaxed_payload() {
    publish_behind_flag(Ordering::Relaxed, Ordering::Acquire);
}

/// Fails at the flag itself: its Relaxed load reads a store that nothing
/// orders before it.
#[test]
#[should_panic(expected = "unordered read")]
fn relaxed_flag_load_does_not_acquire_a_relaxed_payload() {
    publish_behind_flag(Ordering::Release, Ordering::Relaxed);
}

#[test]
fn mutex_hand_over_and_join_publish_relaxed_stores() {
    saga_loom::model(|| {
        let slot = Arc::new((Mutex::new(false), AtomicU32::new(0)));
        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                let mut written = slot.0.lock();
                slot.1.store(1, Ordering::Relaxed);
                *written = true;
            })
        };
        if *slot.0.lock() {
            assert_eq!(slot.1.load(Ordering::Relaxed), 1);
        }
        writer.join().unwrap();
        slot.1.store(2, Ordering::Relaxed);
        assert_eq!(slot.1.load(Ordering::Relaxed), 2);
    });
}

/// A location last written by a read-modify-write is a counter: a Relaxed
/// read of it is exempt, until the next plain store re-arms the check.
#[test]
fn rmw_written_counters_are_exempt_until_a_plain_store() {
    saga_loom::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let bumper = {
            let counter = Arc::clone(&counter);
            thread::spawn(move || counter.fetch_add(1, Ordering::Relaxed))
        };
        assert!(counter.load(Ordering::Relaxed) <= 1);
        bumper.join().unwrap();
    });
}

#[test]
#[should_panic(expected = "unordered read")]
fn a_plain_store_after_an_rmw_is_checked_again() {
    saga_loom::model(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let writer = {
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                counter.store(5, Ordering::Relaxed);
            })
        };
        let _ = counter.load(Ordering::Relaxed);
        writer.join().unwrap();
    });
}

#[test]
fn once_lock_initialises_once_and_publishes_the_value() {
    saga_loom::model(|| {
        let cell = Arc::new(OnceLock::new());
        let inits = Arc::new(AtomicUsize::new(0));
        let init = |cell: &OnceLock<AtomicU32>, inits: &AtomicUsize| {
            let value = cell.get_or_init(|| {
                inits.fetch_add(1, Ordering::SeqCst);
                let value = AtomicU32::new(0);
                value.store(5, Ordering::Relaxed);
                value
            });
            assert_eq!(value.load(Ordering::Relaxed), 5);
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

/// Two readers meet inside the lock: each holds its read guard until the
/// other has arrived. An exclusive read lock deadlocks here.
#[test]
fn two_readers_hold_the_lock_at_once() {
    saga_loom::model(|| {
        let lock = Arc::new(RwLock::new(()));
        let met = Arc::new((Mutex::new(0usize), Condvar::new()));
        let meet = |lock: &RwLock<()>, met: &(Mutex<usize>, Condvar)| {
            let _shared = lock.read();
            let mut arrived = met.0.lock();
            *arrived += 1;
            met.1.notify_all();
            while *arrived < 2 {
                met.1.wait(&mut arrived);
            }
        };
        let other = {
            let (lock, met) = (Arc::clone(&lock), Arc::clone(&met));
            thread::spawn(move || meet(&lock, &met))
        };
        meet(&lock, &met);
        other.join().unwrap();
    });
}

/// A writer is never inside the lock together with a reader: it waits for
/// the reader count to drop to zero, and readers wait for it.
#[test]
fn a_writer_waits_for_zero_readers() {
    saga_loom::model(|| {
        let lock = Arc::new(RwLock::new(0u32));
        let (reading, writing) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
        let reader = {
            let (lock, reading, writing) = (Arc::clone(&lock), Arc::clone(&reading), Arc::clone(&writing));
            thread::spawn(move || {
                let seen = lock.read();
                reading.store(true, Ordering::SeqCst);
                assert!(!writing.load(Ordering::SeqCst), "a writer is inside with a reader");
                assert!(*seen == 0 || *seen == 1);
                reading.store(false, Ordering::SeqCst);
            })
        };
        {
            let mut value = lock.write();
            writing.store(true, Ordering::SeqCst);
            assert!(!reading.load(Ordering::SeqCst), "a reader is inside with a writer");
            *value = 1;
            writing.store(false, Ordering::SeqCst);
        }
        reader.join().unwrap();
        assert_eq!(*lock.read(), 1);
    });
}

/// Read → read carries no happens-before: a Relaxed payload stored under
/// one read guard and loaded under another is an unordered read.
#[test]
#[should_panic(expected = "unordered read")]
fn read_to_read_publishes_nothing() {
    saga_loom::model(|| {
        let lock = Arc::new(RwLock::new(()));
        let payload = Arc::new(AtomicU32::new(0));
        let writer = {
            let (lock, payload) = (Arc::clone(&lock), Arc::clone(&payload));
            thread::spawn(move || {
                let _shared = lock.read();
                payload.store(7, Ordering::Relaxed);
            })
        };
        {
            let _shared = lock.read();
            let _ = payload.load(Ordering::Relaxed);
        }
        writer.join().unwrap();
    });
}

/// Read → write and write → read do publish: a Relaxed payload stored
/// under one guard is ordered before a load under the next guard of the
/// other kind.
#[test]
fn read_to_write_and_write_to_read_publish() {
    saga_loom::model(|| {
        let lock = Arc::new(RwLock::new(()));
        let payloads = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
        let other = {
            let (lock, payloads) = (Arc::clone(&lock), Arc::clone(&payloads));
            thread::spawn(move || {
                {
                    let _shared = lock.read();
                    payloads[0].store(7, Ordering::Relaxed);
                }
                let _exclusive = lock.write();
                payloads[1].store(9, Ordering::Relaxed);
            })
        };
        {
            let _exclusive = lock.write();
            assert!(matches!(payloads[0].load(Ordering::Relaxed), 0 | 7));
        }
        {
            let _shared = lock.read();
            assert!(matches!(payloads[1].load(Ordering::Relaxed), 0 | 9));
        }
        other.join().unwrap();
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

/// Every interleaving within the bound is explored, including a switch
/// back to a lower-numbered thread: two threads that each append twice to
/// a log produce all six orders.
#[test]
fn every_interleaving_of_two_threads_is_explored() {
    let orders = std::sync::Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
    let seen = std::sync::Arc::clone(&orders);
    let mut b = saga_loom::Builder::new();
    b.preemption_bound = Some(3);
    b.check(move || {
        let log = Arc::new(Mutex::new(String::new()));
        let other = {
            let log = Arc::clone(&log);
            thread::spawn(move || (0..2).for_each(|_| log.lock().push('b')))
        };
        (0..2).for_each(|_| log.lock().push('a'));
        other.join().unwrap();
        seen.lock().unwrap().insert(log.lock().clone());
    });
    let orders = orders.lock().unwrap();
    assert_eq!(orders.len(), 6, "explored only {orders:?}");
}
