//! The engine's event timeline: a bucketed calendar queue.
//!
//! The LogP engine pops events in `(time, phase, seq)` order. A binary heap
//! gives that order in `O(log n)` per operation, but the engine's pushes are
//! extremely structured: almost every event lands within `max(L, G, o)`
//! steps of the current instant (deliveries at most `L` ahead, submissions
//! and acquisitions at most `max(o, G)` ahead, thanks to the gap rules). A
//! calendar queue exploits this: a ring of time slots covering a power-of-two
//! window `[cursor, cursor + H)`, each slot holding one FIFO per phase.
//! Pushes into the window and pops from it are `O(1)`.
//!
//! Events beyond the window — `WaitUntil` far in the future, long `Compute`
//! bursts — go to a small overflow heap ordered by `(time, phase, seq)`.
//! Whenever the cursor advances, overflow events whose time has entered the
//! window are drained into their slots; because the heap yields them in
//! `(time, phase, seq)` order and each `(slot, phase)` FIFO preserves
//! insertion order, the pop sequence is **identical** to the heap's total
//! order, event for event. `tests/determinism.rs` asserts this trace
//! equivalence on a stalling-heavy workload.
//!
//! Invariants:
//!
//! * `len == ring_len + overflow.len()`.
//! * Every ring event's time is in `[cursor, cursor + H)`; every overflow
//!   event's time is `>= cursor + H`. The drain on cursor advance restores
//!   the second half before any push can target the newly covered times,
//!   so a `(slot, phase)` FIFO is always filled in ascending `seq` order.
//! * Pops never skip an instant: the cursor only advances past a slot that
//!   is empty, and within the cursor slot the lowest non-empty phase wins —
//!   so a phase-1 event pushed *at the current instant* while a phase-2
//!   event is being processed is still popped first, exactly as a heap
//!   keyed `(time, phase, seq)` would.

use bvl_exec::Phase;
use bvl_model::Steps;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// Number of event phases per instant (see [`Phase`]).
pub const PHASES: usize = Phase::COUNT;

/// Which timeline implementation the engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TimelineKind {
    /// The bucketed calendar queue — `O(1)` push/pop for in-window events.
    #[default]
    Bucket,
    /// The classic `BinaryHeap` timeline — kept as the reference
    /// implementation for differential tests and benchmarks.
    BinaryHeap,
}

/// An event ordered by `(at, phase, seq)`; the payload does not participate
/// in the ordering.
struct Keyed<T> {
    at: u64,
    phase: u8,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.phase, self.seq) == (other.at, other.phase, other.seq)
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.phase, self.seq).cmp(&(other.at, other.phase, other.seq))
    }
}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Don't allocate rings beyond this many slots; rarer far-ahead events are
/// cheap enough through the overflow heap.
const MAX_SLOTS: u64 = 1 << 16;

struct Ring<T> {
    /// `slots[t & mask]` holds the per-phase FIFOs for instant `t`.
    slots: Vec<[VecDeque<T>; PHASES]>,
    mask: u64,
    /// Base of the covered window; also the scan position for pops.
    cursor: u64,
    /// Events currently stored in slots (the rest are in `overflow`).
    ring_len: usize,
    /// Lower bound on the earliest occupied in-window instant (`u64::MAX`
    /// when the ring is empty). Pushes tighten it; [`Ring::next_time`]
    /// scans forward from it and parks it on what it finds, so repeated
    /// elections cost amortized `O(1)` instead of a window scan each.
    earliest: Cell<u64>,
    overflow: BinaryHeap<Reverse<Keyed<T>>>,
    /// Drained slot buffers, kept for reuse (at most [`PHASES`]). A queue
    /// keeps its capacity after it drains, so without recycling every
    /// slot would end up holding its own peak-sized allocation.
    spare: Vec<VecDeque<T>>,
}

impl<T> Ring<T> {
    fn new(span_hint: u64) -> Ring<T> {
        // +2: the furthest structured push is `span_hint` ahead of `now`,
        // and the window must strictly contain it even mid-instant.
        let slots = (span_hint + 2).next_power_of_two().clamp(8, MAX_SLOTS);
        Ring {
            slots: (0..slots)
                .map(|_| std::array::from_fn(|_| VecDeque::new()))
                .collect(),
            mask: slots - 1,
            cursor: 0,
            ring_len: 0,
            earliest: Cell::new(u64::MAX),
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
        }
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn push(&mut self, at: u64, phase: u8, seq: u64, payload: T) {
        debug_assert!(at >= self.cursor, "push into the past");
        if at - self.cursor < self.horizon() {
            self.push_slot(at, phase, payload);
        } else {
            self.overflow.push(Reverse(Keyed {
                at,
                phase,
                seq,
                payload,
            }));
        }
    }

    /// Move overflow events whose time has entered the window into slots.
    /// Heap order is `(at, phase, seq)`, so each FIFO stays seq-sorted.
    fn drain_overflow(&mut self) {
        let end = self.cursor + self.horizon();
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.at >= end {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.push_slot(ev.at, ev.phase, ev.payload);
        }
    }

    /// Append to an in-window `(slot, phase)` FIFO, giving it a spare
    /// buffer first if it has none.
    #[inline]
    fn push_slot(&mut self, at: u64, phase: u8, payload: T) {
        let q = &mut self.slots[(at & self.mask) as usize][phase as usize];
        if q.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *q = buf;
            }
        }
        q.push_back(payload);
        self.ring_len += 1;
        self.earliest.set(self.earliest.get().min(at));
    }

    /// Move the cursor to `at`, handing the drained buffers of the slot it
    /// leaves to the spare pool (slots a jump skips over give theirs back
    /// when the cursor next stops on them), then drain newly covered
    /// overflow events.
    fn move_cursor(&mut self, at: u64) {
        if at != self.cursor {
            for q in &mut self.slots[(self.cursor & self.mask) as usize] {
                debug_assert!(q.is_empty(), "cursor left a non-empty slot");
                if q.capacity() > 0 && self.spare.len() < PHASES {
                    self.spare.push(mem::take(q));
                } else {
                    *q = VecDeque::new();
                }
            }
            self.cursor = at;
        }
        self.drain_overflow();
    }

    fn pop(&mut self) -> Option<(Steps, Phase, T)> {
        loop {
            if self.ring_len == 0 {
                // Jump straight to the earliest far-future event.
                let at = self.overflow.peek()?.0.at;
                self.move_cursor(at);
                debug_assert!(self.ring_len > 0);
            }
            let slot = &mut self.slots[(self.cursor & self.mask) as usize];
            for (phase, q) in slot.iter_mut().enumerate() {
                if let Some(payload) = q.pop_front() {
                    self.ring_len -= 1;
                    return Some((Steps(self.cursor), Phase::from_u8(phase as u8), payload));
                }
            }
            self.move_cursor(self.cursor + 1);
        }
    }

    /// Earliest queued instant, without advancing the cursor (the cursor
    /// must stay put so same-instant pushes remain legal — see
    /// [`Timeline::next_time`]).
    fn next_time(&self) -> Option<u64> {
        if self.ring_len > 0 {
            let end = self.cursor + self.horizon();
            // `earliest` is a lower bound (pushes tighten it, pops never
            // invalidate a lower bound), so starting the scan there and
            // parking it on the hit keeps repeated peeks near-free.
            let mut t = self.earliest.get().max(self.cursor);
            while t < end {
                if self.slots[(t & self.mask) as usize]
                    .iter()
                    .any(|q| !q.is_empty())
                {
                    self.earliest.set(t);
                    return Some(t);
                }
                t += 1;
            }
            unreachable!("ring_len > 0 but no event at or after `earliest`");
        }
        self.earliest.set(u64::MAX);
        self.overflow.peek().map(|r| r.0.at)
    }

    fn advance_to(&mut self, at: u64) {
        debug_assert!(at >= self.cursor, "advance into the past");
        debug_assert!(
            self.next_time().is_none_or(|t| t >= at),
            "advance past a queued event"
        );
        self.move_cursor(at);
    }

    fn pop_at(&mut self, at: u64, phase: u8) -> Option<T> {
        debug_assert_eq!(self.cursor, at, "pop_at before advance_to");
        let slot = &mut self.slots[(at & self.mask) as usize];
        let payload = slot[phase as usize].pop_front()?;
        self.ring_len -= 1;
        Some(payload)
    }
}

/// A priority queue of engine events, popped in `(time, phase, seq)` order
/// where `seq` is the push sequence number.
pub struct Timeline<T> {
    imp: Imp<T>,
    seq: u64,
    len: usize,
}

enum Imp<T> {
    Bucket(Ring<T>),
    Heap(BinaryHeap<Reverse<Keyed<T>>>),
}

impl<T> Timeline<T> {
    /// Create a timeline. `span_hint` is how far ahead of the current
    /// instant structured pushes can land (`max(L, G, o)` for the LogP
    /// engine); it sizes the bucket ring and is irrelevant for the heap.
    pub fn new(kind: TimelineKind, span_hint: u64) -> Timeline<T> {
        Timeline {
            imp: match kind {
                TimelineKind::Bucket => Imp::Bucket(Ring::new(span_hint)),
                TimelineKind::BinaryHeap => Imp::Heap(BinaryHeap::new()),
            },
            seq: 0,
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `payload` at instant `at`, phase `phase`.
    #[inline]
    pub fn push(&mut self, at: Steps, phase: Phase, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        match &mut self.imp {
            Imp::Bucket(ring) => ring.push(at.get(), phase.as_u8(), seq, payload),
            Imp::Heap(heap) => heap.push(Reverse(Keyed {
                at: at.get(),
                phase: phase.as_u8(),
                seq,
                payload,
            })),
        }
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Steps, Phase, T)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        match &mut self.imp {
            Imp::Bucket(ring) => ring.pop(),
            Imp::Heap(heap) => heap
                .pop()
                .map(|Reverse(ev)| (Steps(ev.at), Phase::from_u8(ev.phase), ev.payload)),
        }
    }

    /// The earliest queued instant, **without** consuming anything or
    /// advancing the bucket cursor — so pushes at the returned instant
    /// remain legal afterwards. The sharded engine uses this to elect the
    /// next lock-step instant across shards.
    pub fn next_time(&self) -> Option<Steps> {
        if self.len == 0 {
            return None;
        }
        match &self.imp {
            Imp::Bucket(ring) => ring.next_time().map(Steps),
            Imp::Heap(heap) => heap.peek().map(|r| Steps(r.0.at)),
        }
    }

    /// Advance the clock to `at`, which must not skip past any queued
    /// event (callers advance to [`Timeline::next_time`] or earlier).
    /// A no-op for the heap; for the bucket ring it moves the cursor and
    /// drains newly covered overflow events into their slots.
    pub fn advance_to(&mut self, at: Steps) {
        if let Imp::Bucket(ring) = &mut self.imp {
            ring.advance_to(at.get());
        }
    }

    /// Remove and return the earliest event at exactly instant `at` with
    /// exactly phase `phase`, or `None` if there is none. Requires a prior
    /// [`Timeline::advance_to`]`(at)` (bucket cursor parked at `at`); events
    /// pushed at `(at, phase)` between calls are picked up in `seq` order,
    /// exactly like [`Timeline::pop`] would.
    ///
    /// For the heap the check is against the *top* — so callers must drain
    /// phases in ascending order within an instant and never leave a
    /// lower-phase event queued at `at` when popping a higher phase (the
    /// sharded engine's sub-phase discipline guarantees this; the bucket
    /// ring pops per-phase queues directly and has no such sensitivity,
    /// which is exactly why both impls agree under that discipline).
    pub fn pop_at(&mut self, at: Steps, phase: Phase) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let popped = match &mut self.imp {
            Imp::Bucket(ring) => ring.pop_at(at.get(), phase.as_u8()),
            Imp::Heap(heap) => {
                let top = heap.peek()?;
                if top.0.at == at.get() && top.0.phase == phase.as_u8() {
                    heap.pop().map(|Reverse(ev)| ev.payload)
                } else {
                    None
                }
            }
        };
        popped.inspect(|_| {
            self.len -= 1;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(t: &mut Timeline<T>) -> Vec<(u64, Phase, T)> {
        let mut out = Vec::new();
        while let Some((at, ph, v)) = t.pop() {
            out.push((at.get(), ph, v));
        }
        out
    }

    /// Feed both implementations an identical interleaved push/pop schedule
    /// and require identical pop sequences.
    fn equivalence_on(schedule: &[(u64, Phase)], span_hint: u64) {
        let mut bucket = Timeline::new(TimelineKind::Bucket, span_hint);
        let mut heap = Timeline::new(TimelineKind::BinaryHeap, span_hint);
        let mut popped = Vec::new();
        for (i, &(at, ph)) in schedule.iter().enumerate() {
            bucket.push(Steps(at), ph, i);
            heap.push(Steps(at), ph, i);
            if i % 3 == 2 {
                popped.push((bucket.pop(), heap.pop()));
            }
        }
        for (b, h) in popped {
            assert_eq!(b, h);
        }
        assert_eq!(drain(&mut bucket), drain(&mut heap));
    }

    #[test]
    fn matches_heap_on_clustered_times() {
        let sched: Vec<(u64, Phase)> = (0..200)
            .map(|i: u64| ((i * 7919) % 40, Phase::from_u8((i % 3) as u8)))
            .collect();
        // Interleaved pops force monotone re-push times for this harness,
        // so sort by time first to keep pushes legal.
        let mut sched = sched;
        sched.sort();
        equivalence_on(&sched, 64);
    }

    #[test]
    fn matches_heap_when_slots_refill_across_horizons() {
        // Hint 4 -> 8 slots. Six events per instant over 40 instants fill,
        // drain and refill every slot five times, with every 20th event
        // pushed three horizons ahead through the overflow heap. Push times
        // stay at or after every popped time, as the engine's do.
        let sched: Vec<(u64, Phase)> = (0..240u64)
            .map(|i| {
                let at = i / 6 + if i % 20 == 19 { 24 } else { 0 };
                (at, Phase::from_u8((i % 3) as u8))
            })
            .collect();
        equivalence_on(&sched, 4);
    }

    #[test]
    fn drained_slot_buffers_are_recycled_into_a_bounded_pool() {
        let mut t = Timeline::new(TimelineKind::Bucket, 4);
        let spare = |t: &Timeline<u64>| match &t.imp {
            Imp::Bucket(ring) => ring.spare.len(),
            Imp::Heap(_) => unreachable!(),
        };
        let mut max_spare = 0;
        for now in 0..120u64 {
            t.advance_to(Steps(now));
            for phase in 0..PHASES as u8 {
                while t.pop_at(Steps(now), Phase::from_u8(phase)).is_some() {}
            }
            // Bursts of every phase into several slots ahead, then a tail
            // that only drains: more buffers retire than pushes take.
            for ahead in (1..5).filter(|_| now < 100) {
                for phase in 0..PHASES as u8 {
                    for k in 0..(now % 7) {
                        t.push(Steps(now + ahead), Phase::from_u8(phase), k);
                    }
                }
            }
            max_spare = max_spare.max(spare(&t));
            assert!(
                spare(&t) <= PHASES,
                "spare pool holds {} buffers",
                spare(&t)
            );
        }
        assert!(max_spare > 0, "drained buffers reached the pool");
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut t = Timeline::new(TimelineKind::Bucket, 4);
        t.push(Steps(1_000_000), Phase::Ready, "far");
        t.push(Steps(3), Phase::Deliver, "near");
        t.push(Steps(2_000_000), Phase::Deliver, "farther");
        assert_eq!(t.len(), 3);
        assert_eq!(t.pop(), Some((Steps(3), Phase::Deliver, "near")));
        assert_eq!(t.pop(), Some((Steps(1_000_000), Phase::Ready, "far")));
        assert_eq!(t.pop(), Some((Steps(2_000_000), Phase::Deliver, "farther")));
        assert_eq!(t.pop(), None);
    }

    #[test]
    fn same_instant_lower_phase_wins_even_if_pushed_later() {
        for kind in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
            let mut t = Timeline::new(kind, 8);
            t.push(Steps(5), Phase::Ready, "ready");
            t.push(Steps(5), Phase::Submit, "submit");
            t.push(Steps(5), Phase::Deliver, "deliver");
            assert_eq!(t.pop(), Some((Steps(5), Phase::Deliver, "deliver")));
            assert_eq!(t.pop(), Some((Steps(5), Phase::Submit, "submit")));
            assert_eq!(t.pop(), Some((Steps(5), Phase::Ready, "ready")));
        }
    }

    #[test]
    fn fifo_within_phase() {
        for kind in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
            let mut t = Timeline::new(kind, 8);
            for i in 0..10 {
                t.push(Steps(1), Phase::Submit, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| t.pop().map(|(_, _, v)| v)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn overflow_drains_in_order_as_window_advances() {
        // Horizon is small (hint 2 -> 8 slots); events at stride 20 all go
        // through the overflow heap yet must still come out sorted.
        let mut t = Timeline::new(TimelineKind::Bucket, 2);
        for i in (0..50u64).rev() {
            t.push(Steps(i * 20), Phase::from_u8((i % 3) as u8), i);
        }
        let mut last = (0, Phase::Deliver);
        let mut n = 0;
        while let Some((at, ph, _)) = t.pop() {
            assert!((at.get(), ph) >= last);
            last = (at.get(), ph);
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn push_at_cursor_instant_during_processing() {
        // Pop an event at t=10, then push more work at t=10: it must be
        // popped before anything later, in phase-then-FIFO order.
        let mut t = Timeline::new(TimelineKind::Bucket, 8);
        t.push(Steps(10), Phase::Ready, "first");
        t.push(Steps(11), Phase::Deliver, "later");
        assert_eq!(t.pop(), Some((Steps(10), Phase::Ready, "first")));
        t.push(Steps(10), Phase::Submit, "same-instant-submit");
        t.push(Steps(10), Phase::Ready, "same-instant-ready");
        assert_eq!(t.pop(), Some((Steps(10), Phase::Submit, "same-instant-submit")));
        assert_eq!(t.pop(), Some((Steps(10), Phase::Ready, "same-instant-ready")));
        assert_eq!(t.pop(), Some((Steps(11), Phase::Deliver, "later")));
    }

    #[test]
    fn next_time_is_non_mutating_and_agrees_across_impls() {
        for kind in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
            let mut t = Timeline::new(kind, 4);
            assert_eq!(t.next_time(), None);
            t.push(Steps(7), Phase::Ready, "r");
            t.push(Steps(500), Phase::Deliver, "overflow");
            assert_eq!(t.next_time(), Some(Steps(7)));
            assert_eq!(t.next_time(), Some(Steps(7)), "peek twice is safe");
            // The cursor did not advance: a push at an earlier instant than
            // the peeked time must still be legal.
            t.push(Steps(5), Phase::Submit, "earlier");
            assert_eq!(t.next_time(), Some(Steps(5)));
            assert_eq!(t.pop(), Some((Steps(5), Phase::Submit, "earlier")));
            assert_eq!(t.next_time(), Some(Steps(7)));
        }
    }

    #[test]
    fn pop_at_filters_by_instant_and_phase() {
        for kind in [TimelineKind::Bucket, TimelineKind::BinaryHeap] {
            let mut t = Timeline::new(kind, 8);
            t.push(Steps(3), Phase::Deliver, "d");
            t.push(Steps(3), Phase::Submit, "s");
            t.push(Steps(3), Phase::Ready, "r");
            t.push(Steps(4), Phase::Deliver, "next-instant");
            t.advance_to(Steps(3));
            // Exact-phase pops drain the instant one sub-phase at a time.
            assert_eq!(t.pop_at(Steps(3), Phase::Deliver), Some("d"));
            assert_eq!(t.pop_at(Steps(3), Phase::Deliver), None);
            assert_eq!(t.pop_at(Steps(3), Phase::Submit), Some("s"));
            // Same-instant push during processing is picked up.
            t.push(Steps(3), Phase::Ready, "r2");
            assert_eq!(t.pop_at(Steps(3), Phase::Ready), Some("r"));
            assert_eq!(t.pop_at(Steps(3), Phase::Ready), Some("r2"));
            // The instant is exhausted; t=4 is untouched.
            assert_eq!(t.pop_at(Steps(3), Phase::Ready), None);
            assert_eq!(t.len(), 1);
            t.advance_to(Steps(4));
            assert_eq!(t.pop_at(Steps(4), Phase::Deliver), Some("next-instant"));
            assert!(t.is_empty());
        }
    }

    #[test]
    fn advance_to_drains_overflow_for_pop_at() {
        // Tiny window (hint 2 -> 8 slots): an event 100 ahead sits in the
        // overflow heap until advance_to covers its instant.
        let mut t = Timeline::new(TimelineKind::Bucket, 2);
        t.push(Steps(100), Phase::Submit, "far");
        assert_eq!(t.next_time(), Some(Steps(100)));
        t.advance_to(Steps(100));
        assert_eq!(t.pop_at(Steps(100), Phase::Submit), Some("far"));
        assert!(t.is_empty());
        assert_eq!(t.pop_at(Steps(100), Phase::Submit), None);
    }

    #[test]
    fn empty_ring_jumps_to_overflow_min() {
        let mut t = Timeline::new(TimelineKind::Bucket, 2);
        t.push(Steps(0), Phase::Ready, 0);
        assert!(t.pop().is_some());
        // Ring empty; next event far beyond the window.
        t.push(Steps(999_999), Phase::Submit, 1);
        t.push(Steps(999_999), Phase::Deliver, 2);
        assert_eq!(t.pop(), Some((Steps(999_999), Phase::Deliver, 2)));
        assert_eq!(t.pop(), Some((Steps(999_999), Phase::Submit, 1)));
        assert!(t.is_empty());
    }
}
