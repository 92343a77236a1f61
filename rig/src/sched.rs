//! The open-loop schedule: requests are due at fixed times whatever the
//! system does, and a request's latency counts from its due time, so a
//! stall charges every request it delays (no coordinated omission). How
//! late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// The time source of an open loop; the unit tests drive a fake one.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `deadline` (returns at once when it has passed).
    fn sleep_until(&self, deadline: Duration);
}

/// The wall clock, counted from its creation.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        // Sleep to just short of the deadline, then spin: a plain sleep
        // overshoots by the scheduler's slack, which would show up as
        // generator lateness.
        const SPIN: Duration = Duration::from_micros(200);
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// When request `i` was due and when the generator actually sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time.
    pub sent: Duration,
}

impl Sent {
    /// How late the generator ran for this request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Latency of a request completed at `done`, counted from its due time.
    pub fn latency(&self, done: Duration) -> Duration {
        done.saturating_sub(self.due)
    }
}

/// Sends `count` requests, request `i` due at `start + i * interval`,
/// never waiting for the system: when `send` stalls, later requests go
/// out late but keep their due times.
pub fn run_open_loop<C: Clock>(
    clock: &C,
    start: Duration,
    interval: Duration,
    count: usize,
    mut send: impl FnMut(usize),
) -> Vec<Sent> {
    let mut log = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + interval * i as u32;
        clock.sleep_until(due);
        let sent = clock.now();
        send(i);
        log.push(Sent { due, sent });
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            self.0.set(self.0.get() + by);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, deadline: Duration) {
            self.0.set(self.0.get().max(deadline));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_reported() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Requests due every 10 ms; each send takes 1 ms, except request 1,
        // which stalls the generator for 35 ms.
        let log = run_open_loop(&clock, 10 * MS, 10 * MS, 5, |i| {
            clock.advance(if i == 1 { 35 * MS } else { MS });
        });
        let due: Vec<_> = log.iter().map(|s| s.due.as_millis()).collect();
        assert_eq!(due, [10, 20, 30, 40, 50], "due times ignore the stall");
        let sent: Vec<_> = log.iter().map(|s| s.sent.as_millis()).collect();
        assert_eq!(sent, [10, 20, 55, 56, 57], "the stall delays later sends");
        let late: Vec<_> = log.iter().map(|s| s.lateness().as_millis()).collect();
        assert_eq!(late, [0, 0, 25, 16, 7]);
        // Request 2 completes 2 ms after it was finally sent: a closed loop
        // would call that 2 ms, the open loop charges the 27 ms since due.
        assert_eq!(log[2].latency(57 * MS), 27 * MS);
        // A completion stamped before the due time cannot go negative.
        assert_eq!(log[4].latency(40 * MS), Duration::ZERO);
    }

    #[test]
    fn wall_clock_does_not_return_early() {
        let clock = WallClock::start();
        let deadline = clock.now() + 2 * MS;
        clock.sleep_until(deadline);
        assert!(clock.now() >= deadline);
    }
}
