//! Per-thread event rings and the global collector.
//!
//! Every thread that emits a trace event owns one [`ThreadRing`]: a
//! fixed-capacity array of atomic slots written only by that thread and
//! read by the collector. The hot path is wait-free — one monotonic index
//! load, four relaxed stores, one release store — and never blocks or
//! allocates after the ring exists (the ring itself is allocated lazily on
//! the thread's first event, so untraced runs allocate nothing).
//!
//! **Drop policy:** in the default (prefix) mode the ring does not wrap.
//! Once `RING_CAPACITY` events have been written, further events are
//! counted in `dropped` and discarded, so a drained trace is always an
//! exact *prefix* of the thread's event stream (wrap-around would instead
//! tear the oldest spans in half). The Chrome exporter closes any spans
//! the prefix left open.
//!
//! **Flight-recorder mode** ([`set_flight_recorder`]) inverts the policy
//! for long-lived servers: the ring wraps and always holds the *most
//! recent* `RING_CAPACITY` events per thread (overwritten events are
//! counted in `dropped`). A drain that races an emitting producer may
//! observe one torn slot per ring (the one being overwritten); the
//! decoders tolerate this — an unknown site resolves to `"<unknown>"`
//! and the Chrome exporter balances stray begins/ends — so a dump taken
//! from a live process is always well-formed, merely approximate at the
//! wrap frontier. Switch modes only across a [`clear`] quiescence point.
//!
//! Publication protocol (single producer, quiescent-or-racing reader):
//! the producer writes the four payload words with relaxed stores, then
//! publishes them with a release store of `head`; the collector acquires
//! `head` and reads only slots below it. [`clear`] may only be called when
//! no thread is emitting (e.g. after the pool's fork-join barrier).

use crate::{resolve_site, EventKind, Site};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained per thread before the drop policy engages.
pub const RING_CAPACITY: usize = 1 << 15;

/// One published event: four words, written relaxed before the ring's
/// `head` release-store publishes them.
struct Slot {
    /// Nanoseconds since the trace epoch.
    t_ns: AtomicU64,
    /// Packed `kind | has_arg | track | site` (see [`pack_meta`]).
    meta: AtomicU64,
    /// The argument value (valid when the `has_arg` bit is set).
    arg: AtomicU64,
    /// Duration in nanoseconds for [`EventKind::Complete`]; for
    /// `Begin`/`Instant` events with the `has_ctx` bit set, the word is
    /// reused to carry the trace id (a `Complete` never carries one).
    dur_ns: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Self {
            t_ns: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

const KIND_SHIFT: u32 = 56;
const CTX_SHIFT: u32 = 49;
const ARG_SHIFT: u32 = 48;
const TRACK_SHIFT: u32 = 32;

fn pack_meta(kind: EventKind, has_arg: bool, has_ctx: bool, track: u16, site: u32) -> u64 {
    ((kind as u64) << KIND_SHIFT)
        | ((has_ctx as u64) << CTX_SHIFT)
        | ((has_arg as u64) << ARG_SHIFT)
        | ((track as u64) << TRACK_SHIFT)
        | site as u64
}

fn unpack_meta(meta: u64) -> (EventKind, bool, bool, u16, u32) {
    let kind = match (meta >> KIND_SHIFT) & 0xff {
        0 => EventKind::Begin,
        1 => EventKind::End,
        2 => EventKind::Instant,
        _ => EventKind::Complete,
    };
    let has_ctx = (meta >> CTX_SHIFT) & 1 == 1;
    let has_arg = (meta >> ARG_SHIFT) & 1 == 1;
    let track = ((meta >> TRACK_SHIFT) & 0xffff) as u16;
    let site = (meta & 0xffff_ffff) as u32;
    (kind, has_arg, has_ctx, track, site)
}

/// One thread's event buffer, registered with the global collector for the
/// lifetime of the process (worker threads are pool-lifetime, so rings are
/// few and reused across runs).
struct ThreadRing {
    slots: Box<[Slot]>,
    /// Number of events written; monotonic within a run, reset by
    /// [`clear`]. A release store here publishes the slot payloads.
    head: AtomicUsize,
    /// Events discarded by the drop policy.
    dropped: AtomicU64,
    /// Interned id of the thread's default track name.
    track: AtomicUsize,
}

impl ThreadRing {
    fn new(track: usize) -> Self {
        Self {
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            track: AtomicUsize::new(track),
        }
    }

    /// Appends one event (producer side; owner thread only). `word` is
    /// the duration for `Complete` events, or the trace id when `has_ctx`
    /// (never both — the span-carrying kinds have no duration field).
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        kind: EventKind,
        site: u32,
        track: u16,
        t_ns: u64,
        word: u64,
        has_ctx: bool,
        arg: Option<u64>,
    ) {
        let i = self.head.load(Ordering::Relaxed);
        if i >= RING_CAPACITY {
            if !flight_recorder() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Wrap mode: the slot we are about to reuse holds the ring's
            // oldest event; count it as dropped so total-emitted
            // accounting (`drain().len() + dropped_events()`) still holds.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[i % RING_CAPACITY];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.meta.store(
            pack_meta(kind, arg.is_some(), has_ctx, track, site),
            Ordering::Relaxed,
        );
        slot.arg.store(arg.unwrap_or(0), Ordering::Relaxed);
        slot.dur_ns.store(word, Ordering::Relaxed);
        self.head.store(i + 1, Ordering::Release);
    }
}

/// Flight-recorder (wrap) mode flag; see the module docs. Relaxed is
/// sufficient for the same reason as the global enable flag.
static FLIGHT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the rings are in flight-recorder (keep-newest, wrapping) mode.
#[inline]
pub fn flight_recorder() -> bool {
    FLIGHT.load(Ordering::Relaxed)
}

/// Switches between prefix mode (`false`, the default: keep-oldest,
/// drop-newest) and flight-recorder mode (`true`: wrap, keep-newest).
/// Only switch across a [`clear`] quiescence point — mixing modes within
/// one capture makes the drain order undefined for pre-switch events.
pub fn set_flight_recorder(on: bool) {
    FLIGHT.store(on, Ordering::Relaxed);
}

/// All rings ever registered (lock taken on registration and drain only,
/// never on the emit path). Lock poisoning is ignored — a panicking emitter
/// leaves the registry structurally intact.
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Interned track names; an event's `track` field (when non-zero) and a
/// ring's default `track` both index this table.
static TRACKS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Sequential fallback names for unnamed threads.
static ANON_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    /// Muted threads never emit (and so never allocate a ring). Set by
    /// short-lived stage threads whose work is reported from elsewhere via
    /// [`emit_complete`] — a per-batch scope thread that allocated a
    /// pool-lifetime ring would leak one ring per batch.
    static MUTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Permanently mutes the calling thread: its span/instant emissions become
/// no-ops and it never registers a ring with the collector.
pub fn mute_thread() {
    MUTED.with(|m| m.set(true));
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Interns `name` into the track table and returns its index.
pub(crate) fn intern_track(name: &str) -> usize {
    let mut tracks = lock(&TRACKS);
    if let Some(i) = tracks.iter().position(|t| t == name) {
        return i;
    }
    tracks.push(name.to_string());
    tracks.len() - 1
}

fn with_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| {
                    format!("thread-{}", ANON_THREADS.fetch_add(1, Ordering::Relaxed))
                });
            let ring = Arc::new(ThreadRing::new(intern_track(&name)));
            lock(&REGISTRY).push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// The trace epoch: every timestamp is nanoseconds since the first call.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the trace epoch (the epoch is pinned on first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Renames the calling thread's track in exported timelines (e.g. the
/// pipelined driver labels its stages). Affects events emitted afterwards.
pub fn set_thread_track(name: &str) {
    let id = intern_track(name);
    with_ring(|ring| ring.track.store(id, Ordering::Relaxed));
}

/// Emits an event on the calling thread's ring.
///
/// `track` overrides the destination track (`None` = the thread's own);
/// used for [`EventKind::Complete`] events that describe work another
/// (short-lived) thread performed, so that thread never needs a ring.
pub(crate) fn emit(
    kind: EventKind,
    site: u32,
    track: Option<usize>,
    t_ns: u64,
    dur_ns: u64,
    arg: Option<u64>,
    trace: Option<u64>,
) {
    if MUTED.with(std::cell::Cell::get) {
        return;
    }
    // Track 0 in the packed meta means "the ring's default"; explicit
    // overrides are stored biased by one.
    let track = track.map(|t| (t + 1).min(u16::MAX as usize) as u16).unwrap_or(0);
    // The trace id rides in the duration word: only Complete events have
    // a real duration, and Complete never carries a context.
    let (word, has_ctx) = match trace {
        Some(id) if kind != EventKind::Complete => (id, true),
        _ => (dur_ns, false),
    };
    with_ring(|ring| ring.push(kind, site, track, t_ns, word, has_ctx, arg));
}

/// One decoded trace event, as consumed by the exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Track (timeline row) the event belongs to — the emitting thread's
    /// name unless overridden at emission.
    pub track: String,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds ([`EventKind::Complete`] only, else 0).
    pub dur_ns: u64,
    /// Phase kind.
    pub kind: EventKind,
    /// Span/event name (the `span!` site's literal).
    pub name: String,
    /// Optional `(key, value)` argument captured at the site.
    pub arg: Option<(String, u64)>,
    /// Trace id carried from the ambient [`crate::ctx::TraceCtx`] at
    /// emission, when one was installed.
    pub trace_id: Option<u64>,
}

/// Decodes and returns every event currently held by every ring,
/// per-thread emission order preserved within each ring. Non-destructive;
/// pair with [`clear`] between runs.
pub fn drain() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = lock(&REGISTRY).clone();
    let tracks = lock(&TRACKS).clone();
    let mut out = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let n = head.min(RING_CAPACITY);
        // In prefix mode the oldest surviving event is slot 0; once a
        // wrapping ring has lapped, it is the slot head points at next.
        let start = if head > RING_CAPACITY { head } else { 0 };
        let default_track = ring.track.load(Ordering::Relaxed);
        for k in 0..n {
            let slot = &ring.slots[(start + k) % RING_CAPACITY];
            let (kind, has_arg, has_ctx, track, site) =
                unpack_meta(slot.meta.load(Ordering::Relaxed));
            let (name, arg_name) = resolve_site(site);
            let track_id = if track == 0 {
                default_track
            } else {
                track as usize - 1
            };
            let word = slot.dur_ns.load(Ordering::Relaxed);
            out.push(TraceEvent {
                track: tracks
                    .get(track_id)
                    .cloned()
                    .unwrap_or_else(|| format!("track-{track_id}")),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                dur_ns: if has_ctx { 0 } else { word },
                kind,
                name: name.to_string(),
                arg: has_arg.then(|| (arg_name.to_string(), slot.arg.load(Ordering::Relaxed))),
                trace_id: has_ctx.then_some(word),
            });
        }
    }
    out
}

/// Total events discarded by the drop policy across all rings.
pub fn dropped_events() -> u64 {
    lock(&REGISTRY)
        .iter()
        .map(|r| r.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Resets every ring for a fresh capture.
///
/// Caller must guarantee quiescence: no thread may be emitting
/// concurrently (after a pool fork-join barrier, the pool's own
/// synchronization provides the needed happens-before edge).
pub fn clear() {
    for ring in lock(&REGISTRY).iter() {
        ring.head.store(0, Ordering::Release);
        ring.dropped.store(0, Ordering::Relaxed);
    }
}

/// Emits a [`EventKind::Complete`] event for work measured elsewhere (for
/// example a short-lived stage thread), attributed to `track`.
pub fn emit_complete(site: &Site, track: &str, t_ns: u64, dur_ns: u64, arg: Option<u64>) {
    if !crate::enabled() {
        return;
    }
    let track_id = intern_track(track);
    emit(
        EventKind::Complete,
        site.id(),
        Some(track_id),
        t_ns,
        dur_ns,
        arg,
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips_all_fields() {
        for kind in [
            EventKind::Begin,
            EventKind::End,
            EventKind::Instant,
            EventKind::Complete,
        ] {
            for has_arg in [false, true] {
                for has_ctx in [false, true] {
                    let meta = pack_meta(kind, has_arg, has_ctx, 513, 0xdead_beef);
                    assert_eq!(
                        unpack_meta(meta),
                        (kind, has_arg, has_ctx, 513, 0xdead_beef)
                    );
                }
            }
        }
    }


    #[test]
    fn track_interning_dedupes() {
        let a = intern_track("saga-test-track");
        let b = intern_track("saga-test-track");
        assert_eq!(a, b);
        let c = intern_track("saga-test-track-2");
        assert_ne!(a, c);
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
