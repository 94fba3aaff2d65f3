//! Differential property test of the indexed event heap.
//!
//! The reference model is a naive `Vec` scan: schedule pushes `(time, seq,
//! id)`, cancel retains, reschedule rewrites time and takes a fresh
//! sequence number, pop scans for the minimum `(time, seq)`. Every
//! operation's observable effect (pop results, length, handle liveness,
//! peek) must match the indexed heap exactly — including the FIFO
//! tie-break at equal timestamps, which the tiny time range below forces
//! constantly. Arrival-lane pushes (`schedule_ordered`) are plain schedules
//! to the model: the lane must be invisible except through the missing
//! handle.

use faas_simcore::events::EventQueue;
use faas_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// One operation of the random interleaving. Indices are resolved modulo
/// the number of handles issued so far.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + dt` milliseconds.
    Schedule(u64),
    /// Push onto the arrival lane at `now + dt` milliseconds. The clock
    /// moves with pops, so a `dt` drawn from a range wider than the one
    /// that advances the lane's tail lands both after the tail (a lane
    /// append) and before it (a heap fallback).
    ScheduleOrdered(u64),
    /// Cancel the k-th issued handle (dead handles exercise the no-op path).
    Cancel(usize),
    /// Reschedule the k-th issued handle to `now + dt` ms, if still live.
    Reschedule(usize, u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // dt in 0..6 ms over hundreds of events forces equal-timestamp ties.
    prop_oneof![
        (0u64..6).prop_map(Op::Schedule),
        (0u64..6).prop_map(Op::ScheduleOrdered),
        (0usize..512).prop_map(Op::Cancel),
        ((0usize..512), (0u64..6)).prop_map(|(k, dt)| Op::Reschedule(k, dt)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// The executable specification: a flat vector scanned on every pop.
#[derive(Default)]
struct VecModel {
    live: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
    now: SimTime,
}

impl VecModel {
    fn schedule(&mut self, time: SimTime, id: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.push((time, seq, id));
    }

    fn cancel(&mut self, id: usize) {
        self.live.retain(|&(_, _, i)| i != id);
    }

    fn is_live(&self, id: usize) -> bool {
        self.live.iter().any(|&(_, _, i)| i == id)
    }

    fn reschedule(&mut self, id: usize, time: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = self
            .live
            .iter_mut()
            .find(|(_, _, i)| *i == id)
            .expect("reschedule of a dead id");
        entry.0 = time;
        entry.1 = seq;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.iter().map(|&(t, _, _)| t).min()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let best = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(k, _)| k)?;
        let (time, _, id) = self.live.swap_remove(best);
        self.now = time;
        Some((time, id))
    }
}

/// Model ids of arrival-lane events start here, clear of handle indices.
const LANE_ID: usize = 1 << 32;

/// How many `schedule_ordered` calls appended to the lane and how many fell
/// back to the heap, mirrored from the lane's documented rule (a push
/// before the lane's tail goes to the heap).
#[derive(Default)]
struct LaneTally {
    appends: usize,
    fallbacks: usize,
}

/// Run `ops` against both the queue and the Vec-scan model, asserting that
/// every observable agrees after every operation and through the drain.
fn check_against_model(ops: Vec<Op>) -> LaneTally {
    let mut q = EventQueue::new();
    let mut model = VecModel::default();
    // Every handle ever issued, with its model id (= issue index).
    let mut handles = Vec::new();
    // Lane-resident events, `(time, model id)` in lane order.
    let mut lane = std::collections::VecDeque::new();
    let mut tally = LaneTally::default();
    let mut lane_ids = LANE_ID;
    for op in ops {
        match op {
            Op::Schedule(dt) => {
                let t = q.now() + SimDuration::from_millis(dt);
                let id = handles.len();
                handles.push(q.schedule(t, id));
                model.schedule(t, id);
            }
            Op::ScheduleOrdered(dt) => {
                let t = q.now() + SimDuration::from_millis(dt);
                let id = lane_ids;
                lane_ids += 1;
                q.schedule_ordered(t, id);
                model.schedule(t, id);
                if lane.back().is_some_and(|&(tail, _)| t < tail) {
                    tally.fallbacks += 1;
                } else {
                    tally.appends += 1;
                    lane.push_back((t, id));
                }
            }
            Op::Cancel(k) if !handles.is_empty() => {
                let id = k % handles.len();
                q.cancel(handles[id]);
                model.cancel(id);
            }
            Op::Reschedule(k, dt) if !handles.is_empty() => {
                let id = k % handles.len();
                prop_assert_eq!(q.is_scheduled(handles[id]), model.is_live(id));
                if q.is_scheduled(handles[id]) {
                    let t = q.now() + SimDuration::from_millis(dt);
                    q.reschedule(handles[id], t);
                    model.reschedule(id, t);
                }
            }
            Op::Pop => {
                let popped = q.pop();
                prop_assert_eq!(popped, model.pop());
                prop_assert_eq!(q.now(), model.now);
                if let Some((_, id)) = popped {
                    if lane.front().is_some_and(|&(_, head)| head == id) {
                        lane.pop_front();
                    }
                }
            }
            Op::Cancel(_) | Op::Reschedule(_, _) => {}
        }
        prop_assert_eq!(q.len(), model.live.len());
        prop_assert_eq!(q.is_empty(), model.live.is_empty());
        prop_assert_eq!(q.peek_time(), model.peek_time());
    }
    // Drain: the full remaining pop sequence (FIFO ties included) must
    // agree element for element.
    loop {
        let (got, want) = (q.pop(), model.pop());
        prop_assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    for (id, &h) in handles.iter().enumerate() {
        prop_assert!(!q.is_scheduled(h), "drained queue kept handle {id} live");
    }
    tally
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op_strategy(), 1..400)
}

/// The differential test must reach both lane paths: in-order pushes that
/// append and out-of-order ones that fall back to the heap.
#[test]
fn ordered_schedules_take_both_the_lane_and_the_heap_fallback() {
    let mut rng = TestRng::from_seed(0x5EED_1A4E);
    let mut total = LaneTally::default();
    for _ in 0..16 {
        let tally = check_against_model(ops_strategy().generate(&mut rng));
        total.appends += tally.appends;
        total.fallbacks += tally.fallbacks;
    }
    assert!(total.appends > 0, "no schedule_ordered reached the lane");
    assert!(
        total.fallbacks > 0,
        "no schedule_ordered fell back to the heap"
    );
}

proptest! {
    /// Arbitrary schedule/schedule_ordered/cancel/reschedule/pop
    /// interleavings agree with the Vec-scan model on every observable.
    #[test]
    fn indexed_heap_matches_vec_scan_model(ops in ops_strategy()) {
        check_against_model(ops);
    }

    /// Equal-timestamp storms pop in exact issue order, with rescheduled
    /// events taking their *new* FIFO position.
    #[test]
    fn fifo_tie_break_survives_reschedules(
        moved in prop::collection::vec(0usize..64, 1..32)
    ) {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let mut handles = Vec::new();
        for i in 0..64usize {
            handles.push(q.schedule(t, i));
        }
        // Rescheduling to the same timestamp re-queues behind the rest —
        // exactly what cancel + schedule would do.
        let mut order: Vec<usize> = (0..64).collect();
        for &k in &moved {
            q.reschedule(handles[k], t);
            order.retain(|&i| i != k);
            order.push(k);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
        prop_assert_eq!(popped, order);
    }
}
