//! A monotonic event queue for discrete-event simulation.
//!
//! The queue orders events by `(time, sequence number)`; the sequence number
//! is assigned at push time, so events scheduled for the same instant fire in
//! FIFO order. This stable tie-break is what makes simulations reproducible:
//! two runs with the same seed push the same events in the same order and
//! therefore pop them in the same order.
//!
//! # Indexed-heap design
//!
//! The queue is a binary heap stored in a `Vec`, augmented with a *slot
//! table* that maps every [`EventHandle`] to the current position of its
//! entry in the heap array. Sift operations keep the table in sync, which
//! makes three operations possible that a plain `BinaryHeap` cannot offer:
//!
//! * [`EventQueue::cancel`] physically removes the entry (swap with the last
//!   element, then sift to restore the heap property). There are no lazily
//!   discarded tombstones: after a cancel, [`EventQueue::len`] *is* the
//!   number of entries in the heap array (plus the arrival lane, below),
//!   and memory is bounded by the live event count however
//!   cancellation-heavy the workload is.
//! * [`EventQueue::reschedule`] moves an event to a new time in place
//!   (decrease/increase-key), assigning a fresh sequence number so the
//!   operation is observably identical to cancel-plus-schedule — a
//!   rescheduled event fires after events already scheduled at its new
//!   timestamp, preserving the FIFO tie-break.
//! * [`EventQueue::peek_time`] is a true `&self` read of the heap root (and
//!   the lane head) — there are no cancelled heads to discard.
//!
//! Handles stay cheap and `Copy`: a handle packs a slot index and an epoch;
//! the slot's epoch is bumped whenever its event pops or is cancelled, so a
//! dead handle (including one whose slot was since reused) is recognised and
//! `cancel` stays a true no-op for it. The per-event hash map the previous
//! lazy-cancellation design kept on the schedule/pop hot path is gone.
//!
//! # Arrival lane
//!
//! Exogenous arrivals come pre-sorted and in bulk: a node is handed a whole
//! release-ordered batch before any of it fires. Sifting each of them
//! through the heap would grow it to the batch size although only a few
//! timers are ever in flight. [`EventQueue::schedule_ordered`] therefore
//! appends to a second, release-ordered lane (a `VecDeque` whose times never
//! decrease) instead:
//!
//! * the event takes its sequence number from the same counter as
//!   [`EventQueue::schedule`], so it sits in the same `(time, seq)` total
//!   order it would have had in the heap;
//! * an event earlier than the lane's tail falls back to the heap, so the
//!   lane stays sorted whatever the input;
//! * [`EventQueue::pop`], [`EventQueue::pop_at_or_before`] and
//!   [`EventQueue::peek_time`] take the smaller of the lane head and the
//!   heap root by `(time, seq)`, and [`EventQueue::len`] counts both.
//!
//! The pop order is thus exactly the one an all-heap queue would give; only
//! the heap shrinks to the in-flight timers. Lane events take no handle:
//! they cannot be cancelled or rescheduled.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Identifies a scheduled event so it can be cancelled or rescheduled.
///
/// A handle is *live* from [`EventQueue::schedule`] until its event pops or
/// is cancelled; afterwards it is *dead* — [`EventQueue::cancel`] becomes a
/// no-op and [`EventQueue::reschedule`] a panic. Slot reuse cannot
/// resurrect a dead handle: each reuse bumps the slot's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    epoch: u32,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    payload: E,
}

/// Per-handle slot state: where the entry currently sits in the heap array,
/// and which incarnation of the slot outstanding handles refer to.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pos: u32,
    epoch: u32,
}

/// Priority queue of timestamped events with stable FIFO tie-break, true
/// cancellation and in-place reschedule (see the module docs).
pub struct EventQueue<E> {
    /// Heap-ordered entries; `heap[0]` is the earliest `(time, seq)`.
    heap: Vec<Entry<E>>,
    /// Slot table indexed by `EventHandle::slot`.
    slots: Vec<Slot>,
    /// Slots whose event popped or was cancelled, available for reuse.
    free_slots: Vec<u32>,
    /// Handle-less `(time, seq, payload)` events in non-decreasing `time`
    /// (see the module docs' arrival lane).
    lane: VecDeque<(SimTime, u64, E)>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live events, in the heap and the arrival lane together.
    /// Cancellation removes entries physically, so no stale entries are
    /// counted (or kept).
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Panic unless `time` is at or after the clock.
    fn assert_not_past(&self, time: SimTime) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} event={}",
            self.now,
            time
        );
    }

    /// The next FIFO tie-break number, shared by the heap and the lane.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Panics if `time` is before the current clock — scheduling into the
    /// past is always a simulation bug and silently reordering it would
    /// corrupt causality.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        self.assert_not_past(time);
        let seq = self.take_seq();
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot { pos: 0, epoch: 0 });
                (self.slots.len() - 1) as u32
            }
        };
        let pos = self.heap.len();
        let state = &mut self.slots[slot as usize];
        state.pos = pos as u32;
        let epoch = state.epoch;
        self.heap.push(Entry {
            time,
            seq,
            slot,
            payload,
        });
        self.sift_up(pos);
        EventHandle { slot, epoch }
    }

    /// Schedule a handle-less `payload` at `time` on the arrival lane (see
    /// the module docs). It pops exactly where [`EventQueue::schedule`]
    /// would have put it; a `time` before the lane's tail goes to the heap
    /// instead, so any input order is correct, but only non-decreasing
    /// times keep the heap small.
    ///
    /// Panics if `time` is before the current clock, like `schedule`.
    pub fn schedule_ordered(&mut self, time: SimTime, payload: E) {
        if self.lane.back().is_some_and(|&(tail, _, _)| time < tail) {
            self.schedule(time, payload);
            return;
        }
        self.assert_not_past(time);
        let seq = self.take_seq();
        self.lane.push_back((time, seq, payload));
    }

    /// True while `handle`'s event is still queued (not popped, not
    /// cancelled).
    pub fn is_scheduled(&self, handle: EventHandle) -> bool {
        self.resolve(handle).is_some()
    }

    /// Cancel a previously scheduled event, removing it from the heap.
    /// Idempotent; cancelling an already-popped event has no effect.
    pub fn cancel(&mut self, handle: EventHandle) {
        if let Some(pos) = self.resolve(handle) {
            self.remove_at(pos);
        }
    }

    /// Move a live event to a new absolute time in place. The event gets a
    /// fresh sequence number, so this is observably identical to
    /// cancel-plus-schedule (FIFO tie-break included) while keeping
    /// `handle` valid.
    ///
    /// Panics if `handle` is dead (already popped or cancelled) or `time`
    /// is in the past — both are simulation bugs.
    pub fn reschedule(&mut self, handle: EventHandle, time: SimTime) {
        assert!(
            time >= self.now,
            "cannot reschedule into the past: now={} event={}",
            self.now,
            time
        );
        let pos = self
            .resolve(handle)
            .expect("reschedule of a dead event (already popped or cancelled)");
        let seq = self.take_seq();
        self.heap[pos].time = time;
        self.heap[pos].seq = seq;
        self.restore_at(pos);
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Timestamp of the earliest live event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(time, _)| time)
    }

    /// Pop the earliest live event only if its timestamp is at or before
    /// `horizon`; otherwise leave the queue — and the clock — untouched.
    ///
    /// This is the window primitive of conservative time-stepped
    /// simulation: a simulator advancing to a horizon drains exactly the
    /// events inside the window `(now, horizon]` and stops with every
    /// later event still queued, so it can be resumed with a larger
    /// horizon without ever popping an event out of order.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (time, from_lane) = self.next()?;
        if time > horizon {
            return None;
        }
        let payload = if from_lane {
            self.lane.pop_front()?.2
        } else {
            self.remove_at(0).payload
        };
        self.now = time;
        Some((time, payload))
    }

    /// Timestamp of the earliest event by `(time, seq)`, and whether it is
    /// the lane head (else the heap root).
    fn next(&self) -> Option<(SimTime, bool)> {
        match (self.lane.front(), self.heap.first()) {
            (Some(&(time, seq, _)), Some(root)) if (root.time, root.seq) < (time, seq) => {
                Some((root.time, false))
            }
            (Some(&(time, _, _)), _) => Some((time, true)),
            (None, root) => root.map(|root| (root.time, false)),
        }
    }

    /// Heap position of a live handle's entry, `None` if the handle is dead.
    fn resolve(&self, handle: EventHandle) -> Option<usize> {
        let slot = self.slots.get(handle.slot as usize)?;
        (slot.epoch == handle.epoch).then_some(slot.pos as usize)
    }

    /// Remove the entry at heap position `pos`, retiring its slot and
    /// restoring the heap property. Returns the removed entry.
    fn remove_at(&mut self, pos: usize) -> Entry<E> {
        let entry = self.heap.swap_remove(pos);
        let slot = &mut self.slots[entry.slot as usize];
        // Kill outstanding handles to this slot before it is reused.
        slot.epoch = slot.epoch.wrapping_add(1);
        self.free_slots.push(entry.slot);
        if pos < self.heap.len() {
            self.sift_down_to_bottom(pos);
        }
        entry
    }

    /// Re-establish the heap property for an entry whose key changed; it may
    /// need to move either towards the root or towards the leaves.
    fn restore_at(&mut self, pos: usize) {
        if pos > 0 && self.before(pos, (pos - 1) / 2) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// `(time, seq)` ordering between two heap positions.
    fn before(&self, a: usize, b: usize) -> bool {
        let (ea, eb) = (&self.heap[a], &self.heap[b]);
        (ea.time, ea.seq) < (eb.time, eb.seq)
    }

    /// Sift towards the root via swap-chains. Only the *displaced* entry's
    /// slot position is updated per level; the moving entry's slot is
    /// written once at its final position.
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(pos, parent) {
                break;
            }
            self.heap.swap(pos, parent);
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            pos = parent;
        }
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
    }

    /// Drag the entry at `pos` (the relocated last leaf after a removal)
    /// to the bottom along the min-child path without comparing against it,
    /// then sift it back up. A displaced leaf almost always belongs near
    /// the bottom again, so skipping the per-level entry comparison beats
    /// [`EventQueue::sift_down`] on the pop hot path — the same strategy
    /// `std`'s `BinaryHeap` uses.
    fn sift_down_to_bottom(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.before(right, left) {
                right
            } else {
                left
            };
            self.heap.swap(pos, child);
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            pos = child;
        }
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
        self.sift_up(pos);
    }

    /// Sift towards the leaves (see [`EventQueue::sift_up`]).
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.before(right, left) {
                right
            } else {
                left
            };
            if !self.before(child, pos) {
                break;
            }
            self.heap.swap(pos, child);
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            pos = child;
        }
        self.slots[self.heap[pos].slot as usize].pos = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 1);
        q.pop();
        q.schedule(SimTime::from_secs(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let _a = q.schedule(SimTime::from_millis(1), "a");
        let b = q.schedule(SimTime::from_millis(2), "b");
        let _c = q.schedule(SimTime::from_millis(3), "c");
        q.cancel(b);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_pop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.cancel(a);
        q.cancel(a);
        assert!(q.pop().is_none());
        let b = q.schedule(SimTime::from_millis(2), "b");
        assert!(q.pop().is_some());
        q.cancel(b); // already popped: no effect
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancel_after_pop_does_not_underflow_len() {
        // Regression: cancelling an already-popped event used to leave a
        // stale entry in the cancelled set, so `heap.len() - cancelled.len()`
        // underflowed (panicking in debug builds) once the queue drained.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        q.cancel(a); // already popped: must be a true no-op
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        // The queue keeps working normally afterwards.
        q.schedule(SimTime::from_millis(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_popped_then_cancel_queued_keeps_len_exact() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), ());
        let b = q.schedule(SimTime::from_millis(2), ());
        let c = q.schedule(SimTime::from_millis(3), ());
        q.pop();
        q.cancel(a); // popped: no-op
        q.cancel(b); // queued: counts
        q.cancel(b); // idempotent
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.cancel(c);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_is_a_shared_read() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        q.cancel(a);
        // peek_time borrows &self: two simultaneous peeks are fine.
        let peek: &EventQueue<()> = &q;
        assert_eq!(peek.peek_time(), peek.peek_time());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(30), "c");
        // Horizon before everything: nothing pops, clock untouched.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 3);
        // Inclusive horizon: events at exactly the horizon pop.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(20)),
            Some((SimTime::from_millis(10), "a"))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(20)),
            Some((SimTime::from_millis(20), "b"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(20)), None);
        assert_eq!(
            q.now(),
            SimTime::from_millis(20),
            "clock stops at the window edge"
        );
        // Resuming with a larger horizon drains the rest in order.
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX),
            Some((SimTime::from_millis(30), "c"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None, "empty queue");
    }

    #[test]
    fn windowed_draining_matches_a_single_run() {
        // Popping through a staircase of horizons yields the same sequence
        // as draining in one go — the property the resumable node
        // simulators rely on.
        let schedule = |q: &mut EventQueue<u64>| {
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                q.schedule(SimTime::from_millis(state % 500), state);
            }
        };
        let mut whole = EventQueue::new();
        schedule(&mut whole);
        let one_go: Vec<(SimTime, u64)> = std::iter::from_fn(|| whole.pop()).collect();

        let mut stepped = EventQueue::new();
        schedule(&mut stepped);
        let mut windows = Vec::new();
        for h in (0..=500)
            .step_by(37)
            .map(SimTime::from_millis)
            .chain([SimTime::MAX])
        {
            while let Some(ev) = stepped.pop_at_or_before(h) {
                windows.push(ev);
            }
        }
        assert_eq!(one_go, windows);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + SimDuration::from_secs(1), 2);
        q.schedule(t + SimDuration::from_millis(500), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn handle_reuse_cannot_cancel_the_new_tenant() {
        // `a` pops, freeing its slot; `b` reuses it. The dead handle `a`
        // must not be able to cancel (or report as) `b`.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        let b = q.schedule(SimTime::from_millis(2), "b");
        assert!(!q.is_scheduled(a));
        assert!(q.is_scheduled(b));
        q.cancel(a);
        assert_eq!(q.len(), 1, "dead handle must not evict the reused slot");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
    }

    #[test]
    fn reschedule_moves_event_in_both_directions() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(30), "c");
        // Increase-key: a jumps past both.
        q.reschedule(a, SimTime::from_millis(40));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(20)));
        // Decrease-key: a comes back to the front.
        q.reschedule(a, SimTime::from_millis(5));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn reschedule_takes_fresh_fifo_position_at_equal_time() {
        // Rescheduling onto an occupied timestamp must behave exactly like
        // cancel + schedule: the moved event fires after events that were
        // already scheduled there.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "moved");
        q.schedule(SimTime::from_millis(5), "first");
        q.reschedule(a, SimTime::from_millis(5));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "moved"]);
    }

    #[test]
    fn reschedule_keeps_handle_valid() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), ());
        for k in 2..100u64 {
            q.reschedule(a, SimTime::from_millis(k));
            assert!(q.is_scheduled(a));
            assert_eq!(q.len(), 1);
        }
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "dead event")]
    fn reschedule_after_pop_panics() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), ());
        q.pop();
        q.reschedule(a, SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "cannot reschedule into the past")]
    fn reschedule_into_the_past_panics() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(10), ());
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.reschedule(a, SimTime::from_secs(1));
    }

    #[test]
    fn reschedule_burst_keeps_len_bounded_by_live_events() {
        // Regression for the invoker tick pattern: the lazy queue forced
        // callers to schedule a fresh generation-stamped tick on every
        // change (no true cancel), so a burst of N reschedules grew the
        // heap to N dead entries. With in-place reschedule the queue never
        // holds more than the live events.
        let mut q = EventQueue::new();
        let live = 10u64;
        for i in 0..live {
            q.schedule(SimTime::from_secs(1000 + i), i);
        }
        let tick = q.schedule(SimTime::from_millis(1), u64::MAX);
        for k in 0..5000u64 {
            q.reschedule(tick, SimTime::from_millis(2 + k));
            assert_eq!(q.len() as u64, live + 1, "no stale entries may pile up");
        }
        q.cancel(tick);
        assert_eq!(q.len() as u64, live);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..live).collect::<Vec<_>>());
    }

    #[test]
    fn lane_and_heap_events_at_one_instant_pop_by_seq() {
        let t = SimTime::from_millis(5);
        // Lane first, then heap: the lane event has the smaller seq.
        let mut q = EventQueue::new();
        q.schedule_ordered(t, "lane");
        q.schedule(t, "heap");
        q.schedule_ordered(t, "lane2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["lane", "heap", "lane2"]);
        // Heap first, then lane.
        let mut q = EventQueue::new();
        q.schedule(t, "heap");
        q.schedule_ordered(t, "lane");
        q.schedule(t, "heap2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["heap", "lane", "heap2"]);
    }

    #[test]
    fn out_of_order_lane_pushes_fall_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_ordered(SimTime::from_millis(20), "b");
        q.schedule_ordered(SimTime::from_millis(10), "a"); // before the tail
        q.schedule_ordered(SimTime::from_millis(20), "c"); // ties the tail
        q.schedule_ordered(SimTime::from_millis(30), "d");
        assert_eq!(q.lane.len(), 3);
        assert_eq!(q.heap.len(), 1);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn len_peek_and_is_empty_count_the_lane() {
        let mut q = EventQueue::new();
        q.schedule_ordered(SimTime::from_millis(3), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        let h = q.schedule(SimTime::from_millis(7), ());
        q.schedule_ordered(SimTime::from_millis(9), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.cancel(h);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), ())));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(8)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(9)),
            Some((SimTime::from_millis(9), ()))
        );
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn schedule_ordered_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_ordered(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_ordered(SimTime::from_secs(1), ());
    }

    #[test]
    fn heavy_interleaving_maintains_heap_order() {
        // Deterministic stress: schedule/cancel/reschedule/pop driven by a
        // cheap LCG, validated by ordered pops at the end.
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            match rng() % 4 {
                0 | 1 => {
                    let t = q.now() + SimDuration::from_millis(rng() % 50);
                    handles.push(q.schedule(t, ()));
                }
                2 => {
                    if !handles.is_empty() {
                        let h = handles[(rng() % handles.len() as u64) as usize];
                        if q.is_scheduled(h) {
                            q.reschedule(h, q.now() + SimDuration::from_millis(rng() % 50));
                        }
                    }
                }
                _ => {
                    if rng() % 2 == 0 {
                        if !handles.is_empty() {
                            let h = handles[(rng() % handles.len() as u64) as usize];
                            q.cancel(h);
                        }
                    } else {
                        q.pop();
                    }
                }
            }
        }
        let mut last = q.now();
        while let Some((t, ())) = q.pop() {
            assert!(t >= last, "pops must stay time-ordered");
            last = t;
        }
        assert_eq!(q.len(), 0);
    }
}
