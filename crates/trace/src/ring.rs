//! The per-owner ring-buffer sink.
//!
//! One [`RingSink`] belongs to exactly one owner (a worker thread, a
//! benchmark run, an engine) and is never shared across threads — that is
//! what makes it lock-free: the owner writes, the owner reads. Cross-owner
//! timelines are aligned by sharing an *epoch* `Instant` at construction
//! and merging the drained [`OwnerTrace`]s afterwards.
//!
//! The ring keeps the most recent `capacity` events (drop-oldest) but
//! counts and histograms every event it ever saw, so aggregate readouts
//! survive ring wrap.
//!
//! Instrumented code holds an `Option<Rc<RefCell<RingSink>>>` — `None`
//! when untraced — and writes through [`emit`]. The `Rc` lets one owner
//! (a serve worker) hand the same ring to several engines and keep a
//! handle for itself, still without locks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use crate::event::{Event, EventKind, KIND_COUNT};
use crate::hist::{HistSummary, Histogram};

/// Default ring capacity: enough for a few seconds of serve traffic or a
/// full small benchmark, ~3 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A bounded, drop-oldest event ring with always-on aggregate counters
/// and per-kind histograms of the first payload word.
#[derive(Clone, Debug)]
pub struct RingSink {
    epoch: Instant,
    capacity: usize,
    events: VecDeque<Event>,
    seq: u64,
    dropped: u64,
    kind_counts: [u64; KIND_COUNT],
    hists: Vec<Histogram>,
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new()
    }
}

impl RingSink {
    /// A ring with the default capacity, epoch = now.
    pub fn new() -> Self {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring keeping at most `capacity` events, epoch = now.
    pub fn with_capacity(capacity: usize) -> Self {
        RingSink::with_epoch_and_capacity(Instant::now(), capacity)
    }

    /// A ring whose timestamps are relative to a shared `epoch` — use
    /// one epoch across all owners whose traces will be merged.
    pub fn with_epoch(epoch: Instant) -> Self {
        RingSink::with_epoch_and_capacity(epoch, DEFAULT_RING_CAPACITY)
    }

    /// Shared epoch and explicit capacity.
    pub fn with_epoch_and_capacity(epoch: Instant, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            epoch,
            capacity,
            events: VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY)),
            seq: 0,
            dropped: 0,
            kind_counts: [0; KIND_COUNT],
            hists: (0..KIND_COUNT).map(|_| Histogram::new()).collect(),
        }
    }

    /// The epoch timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds elapsed since the epoch, saturating at `u64::MAX`.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an event stamped now.
    #[inline]
    pub fn record_now(&mut self, kind: EventKind, a: u64, b: u64) {
        self.record_at(self.now_nanos(), kind, a, b)
    }

    /// Records an event with an explicit timestamp — used to backdate
    /// (e.g. a job's enqueue instant observed at admission time).
    pub fn record_at(&mut self, nanos: u64, kind: EventKind, a: u64, b: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.kind_counts[kind.index()] += 1;
        self.hists[kind.index()].record(a);
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event { seq, nanos, kind, a, b });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by ring wrap (still counted in aggregates).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// How many events of `kind` were ever recorded.
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind.index()]
    }

    /// Histogram of the first payload word for `kind`.
    pub fn histogram(&self, kind: EventKind) -> &Histogram {
        &self.hists[kind.index()]
    }

    /// Summaries for every kind that has been seen at least once, in
    /// kind order.
    pub fn summaries(&self) -> Vec<(EventKind, HistSummary)> {
        EventKind::ALL
            .iter()
            .filter(|k| self.kind_counts[k.index()] > 0)
            .map(|k| (*k, self.hists[k.index()].summary()))
            .collect()
    }

    /// Drains the retained events into an [`OwnerTrace`] for export,
    /// leaving the aggregate counters and histograms in place.
    pub fn take_trace(&mut self, owner: impl Into<String>, tid: u64) -> OwnerTrace {
        OwnerTrace {
            owner: owner.into(),
            tid,
            events: self.events.drain(..).collect(),
            dropped: self.dropped,
        }
    }

    /// Clears events and aggregates; keeps epoch and capacity.
    pub fn reset(&mut self) {
        self.events.clear();
        self.seq = 0;
        self.dropped = 0;
        self.kind_counts = [0; KIND_COUNT];
        for h in &mut self.hists {
            h.reset();
        }
    }
}

/// Records one event stamped now into `ring`, if there is one.
///
/// The one write path of every instrumented layer. Every event the
/// paper prices — capture, reinstatement, overflow, underflow — sits off
/// the call/return path, so an untraced writer pays this `None` test at
/// event sites only, never on a call or a return.
#[inline]
pub fn emit(ring: &Option<Rc<RefCell<RingSink>>>, kind: EventKind, a: u64, b: u64) {
    if let Some(r) = ring {
        r.borrow_mut().record_now(kind, a, b);
    }
}

/// One owner's drained timeline, ready for export: the owner name becomes
/// the Perfetto track (thread) name.
#[derive(Clone, Debug)]
pub struct OwnerTrace {
    /// Human-readable owner name ("worker-0", "bench", ...).
    pub owner: String,
    /// Track id; unique per owner within one export.
    pub tid: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wrap before the drain.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotonic_and_timestamps_nondecreasing() {
        let mut r = RingSink::new();
        for i in 0..100 {
            r.record_now(EventKind::Capture, i, 0);
        }
        let evs: Vec<_> = r.events().copied().collect();
        for w in evs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].nanos >= w[0].nanos);
        }
        assert_eq!(r.total_recorded(), 100);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_but_keeps_aggregates() {
        let mut r = RingSink::with_capacity(4);
        for i in 0..10u64 {
            r.record_now(EventKind::Split, i, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.kind_count(EventKind::Split), 10);
        assert_eq!(r.histogram(EventKind::Split).count(), 10);
        // The retained window is the most recent events.
        assert_eq!(r.events().next().unwrap().a, 6);
    }

    #[test]
    fn backdating_and_shared_epoch() {
        let epoch = Instant::now();
        let mut a = RingSink::with_epoch(epoch);
        let mut b = RingSink::with_epoch(epoch);
        a.record_at(5, EventKind::JobEnqueue, 1, 0);
        b.record_at(7, EventKind::JobEnqueue, 2, 0);
        assert_eq!(a.events().next().unwrap().nanos, 5);
        assert_eq!(b.events().next().unwrap().nanos, 7);
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    fn take_trace_drains_events_only() {
        let mut r = RingSink::new();
        r.record_now(EventKind::Capture, 3, 0);
        let t = r.take_trace("w0", 1);
        assert_eq!(t.owner, "w0");
        assert_eq!(t.events.len(), 1);
        assert!(r.is_empty());
        assert_eq!(r.kind_count(EventKind::Capture), 1);
    }

    #[test]
    fn shared_ring_records_through_the_handle() {
        let ring = Rc::new(RefCell::new(RingSink::new()));
        let handle = Some(ring.clone());
        emit(&handle, EventKind::Capture, 4, 0);
        emit(&handle, EventKind::Relink, 9, 1);
        emit(&None, EventKind::Capture, 1, 0); // untraced: records nothing
        assert_eq!(ring.borrow().len(), 2);
        assert_eq!(ring.borrow().kind_count(EventKind::Capture), 1);
    }

    #[test]
    fn summaries_cover_only_seen_kinds() {
        let mut r = RingSink::new();
        r.record_now(EventKind::Capture, 8, 0);
        r.record_now(EventKind::Capture, 16, 0);
        let s = r.summaries();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, EventKind::Capture);
        assert_eq!(s[0].1.count, 2);
        assert_eq!(s[0].1.max, 16);
    }
}
