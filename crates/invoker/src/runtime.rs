//! The node runtime both invokers share, generic over a queue
//! [`Discipline`].
//!
//! The paper's two nodes differ in exactly two decisions: the order in
//! which queued calls start, and how running calls get CPU. Everything
//! else is one model, owned by [`NodeRuntime`]: arrival, the fault
//! timeline, retries and backoff, crash and restart, pending timeouts,
//! failover handoffs, outcome slots and the step API. A [`Discipline`]
//! owns only its pending structure, its processor and the events that
//! belong to them (the queue-vs-resource split of a
//! `QueueResource<Q: Queue>`):
//!
//! * `baseline` — stock OpenWhisk: greedy admission with a FIFO overflow
//!   queue, CPU shared by the OS (the GPS bank);
//! * `ours` — the paper's invoker (§IV): a SEPT/EECT/FC priority queue in
//!   front of one dedicated core per call.
//!
//! # Step contract
//!
//! ```text
//! new(..) ──▶ inject(calls)* ──▶ [ advance_to(horizon) ]* ──▶ finish()
//!                  ▲                      │
//!                  └── inject_handoff ◀───┘ (between windows, via the
//!                                            cluster engine)
//! ```
//!
//! * `new` builds an empty simulator and schedules the node's fault
//!   timeline (nothing else), before any arrival, so a fault at the same
//!   instant as an arrival fires first.
//! * `inject` appends a release-sorted batch of calls and schedules their
//!   arrivals. Calls may only be injected at (or after) the node's current
//!   clock: the event queue rejects scheduling into the past, so a caller
//!   must hand a node every call whose release falls inside a window
//!   *before* advancing through that window.
//! * `advance_to(horizon)` drains exactly the events with `time <=
//!   horizon` ([`EventQueue::pop_at_or_before`]) and reports a
//!   [`NodeProgress`] snapshot. The node's clock never passes the horizon,
//!   so the caller can interleave any number of nodes in lock-step
//!   windows. `advance_to(SimTime::MAX)` runs to completion.
//! * `finish` checks the conservation invariant (every injected call
//!   completed XOR dropped XOR was handed off) and assembles the
//!   [`NodeResult`].
//!
//! The `simulate_*` entry points are *defined* as `new`, one `inject` of
//! the whole call list, `advance_to(SimTime::MAX)`, then `finish`; windowed
//! and whole runs are bit-identical (same event order, same RNG
//! consumption, same `peak_events` sampling — see the digest pins).
//!
//! # Call lifecycle under faults
//!
//! A non-trivial [`FaultSpec`] tracks, per call, the current delivery
//! attempt and where it sits:
//!
//! ```text
//!             begin_attempt                place
//! Idle ──────────────────────▶ Queued ──────────▶ Running ──▶ Done
//!                                │  timeout         │ crash / transient
//!                                ▼                  ▼
//!                              Backoff ◀────── fail_attempt
//!                                │ retry (attempts left)
//!                                ├──────▶ Dropped (exhausted)
//!                                └──────▶ Migrated (attempts left, cluster
//!                                         failover on: the retry leaves
//!                                         the node as a `Handoff`)
//! ```
//!
//! * **Capacity** events go to the discipline, which rescales its
//!   processor.
//! * **Crash** kills every in-flight attempt (init, CPU or I/O phase) and
//!   retries it per policy; queued calls survive — OpenWhisk's load
//!   balancer has already committed them to the invoker's Kafka topic, so
//!   they wait for the restart. Every container is lost and the node
//!   restarts cold. Timers scheduled before the crash (completion,
//!   cleanup, prewarm) carry the incarnation they were scheduled under and
//!   are dropped when stale — correct because no attempt survives a crash.
//! * **Transient failures** are drawn per attempt when it completes: the
//!   work was consumed and the container still cleans up, but the
//!   response is lost and the attempt fails.
//! * The **pending timeout** abandons an attempt still queued after the
//!   policy's deadline.
//!
//! A call whose attempts are exhausted is dropped — excluded from
//! `outcomes`, reported in [`NodeResult::drops`] — so every call resolves
//! exactly once. All of this is dead state on fault-free runs: the
//! per-call vector is allocated only under a non-trivial plan, and every
//! fault path is gated off, so fault-free runs schedule no fault events.
//!
//! # Cross-node failover
//!
//! With failover enabled (`new(.., failover: true)`, cluster runs only), a
//! failed attempt that still has retries left is not retried locally: the
//! call leaves the node as a [`Handoff`] carrying the attempts consumed so
//! far and the instant its retry backoff expires. The cluster engine
//! collects outboxes at each window barrier and re-injects every handoff
//! on the least-loaded healthy node via `inject_handoff`, which charges one
//! fresh dispatch hop (`hop_request`) like any arrival — failover goes back
//! through the controller, unlike a local retry. The attempt counter
//! carries across nodes, so a policy of `n` attempts spends `n` attempts
//! cluster-wide, wherever they ran.

use crate::config::NodeConfig;
use crate::pool::{ContainerId, ContainerPool, PoolStats};
use crate::result::{DroppedCall, FaultStats, NodeResult};
use crate::step::{Handoff, NodeProgress};
use faas_simcore::dist::Sampler;
use faas_simcore::events::EventQueue;
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{DropReason, FaultEvent, FaultKind, FaultSpec};
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::trace::{Call, CallKind, CallOutcome, ColdStartKind};

/// A node's queue discipline: its pending structure and its processor.
/// The hooks are called by [`NodeRuntime`]; each gets the shared [`Node`]
/// state it may read and the helpers it may call.
pub trait Discipline: Sized {
    /// The discipline's own events (processor completions).
    type Ev: Copy;
    /// Stream ids of the service-time and cold-start RNGs.
    const STREAMS: [u64; 2];
    /// A call's attempt was delivered: place it at once or queue it.
    fn admit(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime, i: u32);
    /// Start queued calls while the node has room.
    fn dispatch(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime);
    /// A queued attempt timed out; its entry is now stale.
    fn dequeue(&mut self);
    /// One of the discipline's own events fired.
    fn on_event(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime, ev: Self::Ev);
    /// A container finished cleanup and went back to the pool.
    fn release(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime);
    /// The node crashed: every running attempt is already failed and every
    /// container lost; drop the processor state.
    fn crash(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime);
    /// A capacity fault scaled the node's CPU to `factor` of nominal.
    fn set_capacity(&mut self, n: &mut Node<'_, Self::Ev>, now: SimTime, factor: f64);
    /// Calls waiting in the pending structure.
    fn queue_depth(&self) -> usize;
    /// Calls holding a container.
    fn inflight(&self) -> usize;
    /// The maximum over modeled resource axes of `consumption /
    /// capacity` (see [`NodeProgress::dominant_milli`]).
    fn dominant_share(&mut self, cfg: &NodeConfig) -> f64;
    /// Check the discipline drained and report its totals.
    fn finish(self, n: &Node<'_, Self::Ev>) -> Totals;
}

/// What a discipline contributes to the [`NodeResult`].
pub struct Totals {
    pub peak_queue: usize,
    pub peak_concurrency: usize,
    /// `[core-seconds, bandwidth-unit-seconds]` of work served.
    pub served: [f64; 2],
}

/// Events of the shared runtime, plus the discipline's own (`Own`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev<E> {
    /// A call (or a failover handoff) reaches the invoker.
    Arrive(u32),
    /// A container finishes post-response cleanup (incarnation-guarded).
    /// Carries the container, not the call: a retried call may already
    /// hold a *new* container when its failed attempt's cleanup fires.
    CleanupDone(ContainerId, u32),
    /// A prewarm replacement becomes ready (incarnation-guarded).
    PrewarmReady(u32),
    /// Fault-timeline event at this index fires (fault runs only).
    Fault(u32),
    /// A failed call's retry backoff expired: re-deliver the next attempt.
    Retry(u32),
    /// The pending timeout of `(call, attempt)` fired: abandon the attempt
    /// if it is still queued.
    PendingTimeout(u32, u32),
    /// One of the discipline's own events.
    Own(E),
}

/// Where a call's current delivery attempt sits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Queued,
    Running,
    Backoff,
    Done,
    Dropped,
    Migrated,
}

/// Per-call fault state: delivery attempts begun so far (1-based once
/// arrived) and the current attempt's phase.
#[derive(Debug, Clone, Copy)]
struct FaultCall {
    attempt: u32,
    phase: Phase,
}

/// Per-call state of the current delivery attempt that its outcome slot
/// does not hold (the slot records receive time, start kind and execution
/// start as the attempt progresses).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallRuntime {
    /// Intrinsic processing time drawn for the attempt (contention-free).
    pub(crate) p: f64,
    container: Option<ContainerId>,
}

/// The state both disciplines share, and the steps they call into.
pub struct Node<'a, E> {
    pub(crate) catalogue: &'a Catalogue,
    pub(crate) cfg: &'a NodeConfig,
    node_index: u16,
    pub(crate) calls: Vec<Call>,
    pub(crate) rt: Vec<CallRuntime>,
    pub(crate) events: EventQueue<Ev<E>>,
    pub(crate) pool: ContainerPool,
    rng_service: Xoshiro256,
    rng_cold: Xoshiro256,
    /// False between a crash and its restart.
    pub(crate) alive: bool,
    /// Bumped on every crash; timer events carry the value they were
    /// scheduled under and are dropped when stale.
    pub(crate) incarnation: u32,
    /// The fault plan (the inert [`FaultSpec::none`] on fault-free runs).
    faults: &'a FaultSpec,
    /// False iff `faults.is_none()`: every fault code path is gated on it.
    fault_on: bool,
    /// Per-call attempt/phase state (empty on fault-free runs).
    fstate: Vec<FaultCall>,
    fault_stats: FaultStats,
    drops: Vec<DroppedCall>,
    /// Cross-node failover on: failed attempts with retries left leave the
    /// node as [`Handoff`]s instead of local retries.
    failover: bool,
    /// Outbox of pending handoffs, drained by the cluster engine at each
    /// window barrier.
    handoffs: Vec<Handoff>,
    /// Calls that left via failover (their outcome slot is discarded).
    migrated: usize,
    outcomes: Vec<CallOutcome>,
    /// Slots of `outcomes` already overwritten with a real completion.
    outcomes_filled: usize,
    last_completion: SimTime,
}

impl<E> Node<'_, E> {
    /// The current attempt's number (0 on fault-free runs).
    pub(crate) fn attempt(&self, i: u32) -> u32 {
        self.fstate.get(i as usize).map_or(0, |f| f.attempt)
    }

    /// True while call `i`'s current attempt waits to start (always true
    /// on fault-free runs, where nothing leaves a queue but a start).
    pub(crate) fn is_queued(&self, i: u32) -> bool {
        !self.fault_on || self.fstate[i as usize].phase == Phase::Queued
    }

    /// Lease a container for call `i`; on success the attempt is running.
    pub(crate) fn place(&mut self, now: SimTime, i: u32) -> Option<ColdStartKind> {
        let idx = i as usize;
        let func = self.calls[idx].func;
        let mem = self.catalogue.spec(func).memory_mb as u64;
        let placement = self.pool.place(func, mem, now)?;
        self.outcomes[idx].start_kind = placement.kind;
        self.rt[idx].container = Some(placement.container);
        if self.fault_on {
            self.fstate[idx].phase = Phase::Running;
        }
        Some(placement.kind)
    }

    /// Draw the cold-start initialisation work of a placement, in
    /// core-seconds (no draw for a warm start).
    pub(crate) fn draw_init(&mut self, kind: ColdStartKind) -> f64 {
        let calib = &self.cfg.calibration;
        match kind {
            ColdStartKind::Warm => 0.0,
            ColdStartKind::Prewarm => {
                calib.coldstart_work.sample(&mut self.rng_cold) * calib.prewarm_init_fraction
            }
            ColdStartKind::Cold => calib.coldstart_work.sample(&mut self.rng_cold),
        }
    }

    /// Call `i`'s attempt starts executing at `at` with intrinsic
    /// processing time `p`.
    pub(crate) fn begin_exec(&mut self, i: u32, at: SimTime, p: f64) {
        self.outcomes[i as usize].exec_start = at;
        self.rt[i as usize].p = p;
    }

    /// When call `i`'s current attempt started executing.
    pub(crate) fn exec_start(&self, i: u32) -> SimTime {
        self.outcomes[i as usize].exec_start
    }

    /// Draw an intrinsic processing time for `func`.
    pub(crate) fn draw_service(&mut self, func: FuncId) -> f64 {
        self.catalogue
            .spec(func)
            .service_dist()
            .sample(&mut self.rng_service)
    }

    /// Schedule a prewarm replacement if the prewarm stock is short.
    pub(crate) fn prewarm_later(&mut self, now: SimTime) {
        if self.pool.prewarm_deficit() > 0 {
            self.events.schedule(
                now + self.cfg.calibration.prewarm_replacement_delay,
                Ev::PrewarmReady(self.incarnation),
            );
        }
    }

    /// Call `i`'s attempt finished executing at `now`: its container
    /// cleans up for `mgmt`, then the transient-failure draw either fails
    /// the attempt or writes its outcome with `processing`.
    pub(crate) fn complete_attempt(
        &mut self,
        now: SimTime,
        i: u32,
        mgmt: SimDuration,
        processing: SimDuration,
    ) {
        let idx = i as usize;
        let call = self.calls[idx];
        let container = self.rt[idx].container;
        // Cleanup happens whether or not the response survives: the work
        // was consumed either way.
        self.events.schedule(
            now + mgmt,
            Ev::CleanupDone(
                container.expect("completed call must hold a container"),
                self.incarnation,
            ),
        );
        if self.fault_on && self.faults.attempt_fails(call.id, self.fstate[idx].attempt) {
            self.fault_stats.transient_failures += 1;
            self.fail_attempt(now, i, DropReason::ExhaustedRetries);
            return;
        }
        let completion = now + self.cfg.calibration.hop_response;
        // A hard assert (one branch per call, negligible next to the event
        // loop): together with the final filled-count check it guarantees
        // every slot is written exactly once, in release builds too.
        assert_eq!(
            self.outcomes[idx].completion,
            SimTime::ZERO,
            "outcome written twice"
        );
        self.outcomes_filled += 1;
        if self.fault_on {
            self.fstate[idx].phase = Phase::Done;
        }
        let outcome = &mut self.outcomes[idx];
        outcome.exec_end = now;
        outcome.completion = completion;
        outcome.processing = processing;
        if call.kind == CallKind::Measured {
            self.last_completion = self.last_completion.max(completion);
        }
    }

    /// Append a call that has used `attempts` delivery attempts so far;
    /// returns its index.
    fn push_call(&mut self, call: Call, attempts: u32) -> u32 {
        let idx = self.calls.len() as u32;
        self.calls.push(call);
        self.rt.push(CallRuntime {
            p: 0.0,
            container: None,
        });
        self.outcomes
            .push(CallOutcome::pending(&call, self.node_index));
        if self.fault_on {
            self.fstate.push(FaultCall {
                attempt: attempts,
                phase: Phase::Idle,
            });
        }
        idx
    }

    /// Start the next delivery attempt of call `i` (fault runs only):
    /// bump the attempt counter and arm the pending timeout.
    fn begin_attempt(&mut self, now: SimTime, i: u32) {
        let f = &mut self.fstate[i as usize];
        f.attempt += 1;
        f.phase = Phase::Queued;
        let attempt = f.attempt;
        if attempt > 1 {
            self.fault_stats.retries += 1;
        }
        if let Some(timeout) = self.faults.retry.pending_timeout {
            self.events
                .schedule(now + timeout, Ev::PendingTimeout(i, attempt));
        }
    }

    /// A delivery attempt of call `i` just failed (transient failure,
    /// crash kill, or pending timeout): schedule the retry per policy —
    /// locally, or as a cross-node handoff when failover is on — or drop
    /// the call with `exhausted_reason` when no attempts remain.
    fn fail_attempt(&mut self, now: SimTime, i: u32, exhausted_reason: DropReason) {
        let idx = i as usize;
        let call = self.calls[idx];
        let attempt = self.fstate[idx].attempt;
        if attempt < self.faults.retry.max_attempts {
            let wait = self
                .faults
                .retry
                .backoff(self.faults.seed, call.id, attempt);
            if self.failover {
                // The retry leaves the node: the cluster engine re-routes
                // it to the least-loaded healthy node at the next barrier.
                self.fstate[idx].phase = Phase::Migrated;
                self.migrated += 1;
                self.fault_stats.failovers += 1;
                self.handoffs.push(Handoff {
                    call,
                    attempts: attempt,
                    due: now + wait,
                    from: self.node_index,
                });
                return;
            }
            self.fstate[idx].phase = Phase::Backoff;
            self.events.schedule(now + wait, Ev::Retry(i));
        } else {
            assert_eq!(
                self.outcomes[idx].completion,
                SimTime::ZERO,
                "dropped a call that already completed"
            );
            self.fstate[idx].phase = Phase::Dropped;
            self.fault_stats.dropped += 1;
            self.drops.push(DroppedCall {
                id: call.id,
                func: call.func,
                release: call.release,
                node: self.node_index,
                reason: exhausted_reason,
                attempts: attempt,
            });
        }
    }
}

/// A resumable node simulator: the shared runtime driving discipline `D`
/// (see the module docs for the lifecycle contract).
pub struct NodeRuntime<'a, D: Discipline> {
    n: Node<'a, D::Ev>,
    disc: D,
    /// This node's compiled fault timeline, indexed by [`Ev::Fault`].
    timeline: Vec<FaultEvent>,
    /// Pool statistics when the first measured call arrived, so the
    /// reported counters cover only the measured phase (Fig. 2).
    measured_snapshot: Option<PoolStats>,
    peak_events: usize,
    /// Dominant share at the end of the last `advance_to` window.
    dominant_milli: u32,
}

impl<'a, D: Discipline> NodeRuntime<'a, D> {
    /// Build an empty node: no calls yet, only the node's fault timeline
    /// scheduled.
    pub(crate) fn new(
        catalogue: &'a Catalogue,
        cfg: &'a NodeConfig,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
        disc: D,
    ) -> Self {
        faults.validate();
        let fault_on = !faults.is_none();
        assert!(!failover || fault_on, "failover needs a fault plan");
        let timeline = if fault_on {
            faults.timeline_for_node(node_index).events
        } else {
            Vec::new()
        };
        let mut root = Xoshiro256::seed_from_u64(seed);
        let rng_service = root.derive_stream(D::STREAMS[0]);
        let rng_cold = root.derive_stream(D::STREAMS[1]);
        let mut events = EventQueue::new();
        for (k, fault) in timeline.iter().enumerate() {
            events.schedule(fault.at, Ev::Fault(k as u32));
        }
        NodeRuntime {
            n: Node {
                catalogue,
                cfg,
                node_index,
                calls: Vec::new(),
                rt: Vec::new(),
                events,
                pool: ContainerPool::new(
                    cfg.memory_mb,
                    catalogue.len(),
                    cfg.prewarm_count,
                    prewarm_mem_mb(catalogue),
                ),
                rng_service,
                rng_cold,
                alive: true,
                incarnation: 0,
                faults,
                fault_on,
                fstate: Vec::new(),
                fault_stats: FaultStats::default(),
                drops: Vec::new(),
                failover,
                handoffs: Vec::new(),
                migrated: 0,
                outcomes: Vec::new(),
                outcomes_filled: 0,
                last_completion: SimTime::ZERO,
            },
            disc,
            timeline,
            measured_snapshot: None,
            peak_events: 0,
            dominant_milli: 0,
        }
    }

    /// Append a release-sorted batch of calls and schedule their arrivals.
    pub(crate) fn inject(&mut self, calls: &[Call]) {
        let n = &mut self.n;
        for (k, call) in calls.iter().enumerate() {
            debug_assert!(
                k == 0 || calls[k - 1].release <= call.release,
                "calls must be sorted by release"
            );
            let idx = n.push_call(*call, 0);
            n.events.schedule(
                call.release + n.cfg.calibration.hop_request,
                Ev::Arrive(idx),
            );
        }
    }

    /// Re-inject a call another node failed over: the attempt counter
    /// carries across, and the delivery is a fresh dispatch through the
    /// controller — one `hop_request` after `deliver_at`.
    pub(crate) fn inject_handoff(&mut self, h: &Handoff, deliver_at: SimTime) {
        let n = &mut self.n;
        assert!(n.fault_on, "handoffs only exist under a fault plan");
        let idx = n.push_call(h.call, h.attempts);
        n.events
            .schedule(deliver_at + n.cfg.calibration.hop_request, Ev::Arrive(idx));
    }

    /// Drain every event with `time <= horizon`, then report progress.
    pub(crate) fn advance_to(&mut self, horizon: SimTime) -> NodeProgress {
        loop {
            self.peak_events = self.peak_events.max(self.n.events.len());
            let Some((now, ev)) = self.n.events.pop_at_or_before(horizon) else {
                break;
            };
            let (n, disc) = (&mut self.n, &mut self.disc);
            match ev {
                Ev::Arrive(i) | Ev::Retry(i) => self.deliver(now, i),
                Ev::CleanupDone(container, inc) => {
                    if inc == n.incarnation {
                        n.pool.release_idle(container, now);
                        disc.release(n, now);
                        disc.dispatch(n, now);
                    }
                }
                Ev::PrewarmReady(inc) => {
                    if inc == n.incarnation {
                        n.pool.replenish_prewarm();
                        disc.dispatch(n, now);
                    }
                }
                Ev::Fault(k) => match self.timeline[k as usize].kind {
                    FaultKind::SetCapacityFactor(f) => {
                        n.fault_stats.capacity_events += 1;
                        disc.set_capacity(n, now, f);
                    }
                    FaultKind::Crash => self.on_crash(now),
                    FaultKind::Restart => self.on_restart(now),
                },
                Ev::PendingTimeout(i, attempt) => self.on_pending_timeout(now, i, attempt),
                Ev::Own(ev) => disc.on_event(n, now, ev),
            }
        }
        let share = self.disc.dominant_share(self.n.cfg);
        self.dominant_milli = (share * 1000.0).round() as u32;
        self.progress()
    }

    /// The [`NodeProgress`] snapshot `advance_to` returns.
    pub(crate) fn progress(&self) -> NodeProgress {
        let n = &self.n;
        NodeProgress {
            now: n.events.now(),
            next_event: n.events.peek_time(),
            queue_depth: self.disc.queue_depth(),
            inflight: self.disc.inflight(),
            alive: n.alive,
            dominant_milli: self.dominant_milli,
            completed: n.outcomes_filled,
            dropped: n.drops.len(),
            handoffs: n.handoffs.len(),
        }
    }

    /// Timestamp of the earliest still-queued event.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.n.events.peek_time()
    }

    /// Take the pending failover outbox (cluster engine, between windows).
    pub(crate) fn take_handoffs(&mut self) -> Vec<Handoff> {
        std::mem::take(&mut self.n.handoffs)
    }

    /// Check conservation and assemble the [`NodeResult`]. Call after the
    /// final `advance_to` has drained the node.
    pub(crate) fn finish(self) -> NodeResult {
        let mut n = self.n;
        assert!(
            n.events.is_empty(),
            "finish with {} events still queued",
            n.events.len()
        );
        assert!(
            n.handoffs.is_empty(),
            "finish with {} handoffs not collected",
            n.handoffs.len()
        );
        assert_eq!(
            n.outcomes_filled + n.drops.len() + n.migrated,
            n.calls.len(),
            "every call must resolve exactly once: completed XOR dropped XOR handed off"
        );
        let totals = self.disc.finish(&n);
        if !n.drops.is_empty() || n.migrated > 0 {
            // Dropped and migrated calls never overwrote their pending
            // slot: remove them so `outcomes` contains completions only
            // (goodput; a migrated call's outcome is owned by the node
            // that resolved it).
            n.outcomes.retain(|o| o.completion != SimTime::ZERO);
        }
        n.drops.sort_unstable_by_key(|d| (d.release, d.id));
        let total_stats = n.pool.stats();
        NodeResult {
            outcomes: n.outcomes,
            measured_pool_stats: total_stats.since(self.measured_snapshot.unwrap_or(total_stats)),
            total_pool_stats: total_stats,
            peak_queue: totals.peak_queue,
            peak_concurrency: totals.peak_concurrency,
            peak_events: self.peak_events,
            peak_resident_calls: 0,
            last_completion: n.last_completion,
            served_cpu_secs: totals.served[0],
            served_mem_units: totals.served[1],
            drops: n.drops,
            fault_stats: n.fault_stats,
        }
    }

    /// A delivery of call `i` reaches the invoker: its first arrival, a
    /// failover handoff, or a local retry after backoff.
    fn deliver(&mut self, now: SimTime, i: u32) {
        let n = &mut self.n;
        let idx = i as usize;
        // Arrivals preserve release order (constant hop), so this is the
        // first measured arrival.
        if self.measured_snapshot.is_none() && n.calls[idx].kind == CallKind::Measured {
            self.measured_snapshot = Some(n.pool.stats());
        }
        n.outcomes[idx].invoker_receive = now;
        if n.fault_on {
            debug_assert!(matches!(n.fstate[idx].phase, Phase::Idle | Phase::Backoff));
            n.begin_attempt(now, i);
        }
        self.disc.admit(n, now, i);
    }

    /// The pending timeout of `(i, attempt)` fired. If that attempt is
    /// still queued the client has given up on it: fail the attempt. Stale
    /// timeouts (the attempt started, resolved, or a later attempt is
    /// current) no-op.
    fn on_pending_timeout(&mut self, now: SimTime, i: u32, attempt: u32) {
        let f = self.n.fstate[i as usize];
        if f.phase != Phase::Queued || f.attempt != attempt {
            return;
        }
        self.disc.dequeue();
        self.n.fault_stats.timeouts += 1;
        self.n.fail_attempt(now, i, DropReason::TimedOut);
    }

    fn on_crash(&mut self, now: SimTime) {
        let n = &mut self.n;
        assert!(n.alive, "crash on a node that is already down");
        n.alive = false;
        n.incarnation += 1;
        n.fault_stats.crashes += 1;
        // Kill every in-flight attempt; index order keeps the retry
        // schedule deterministic. Queued calls stay queued.
        for i in 0..n.calls.len() as u32 {
            if n.fstate[i as usize].phase == Phase::Running {
                n.fault_stats.crash_kills += 1;
                n.fail_attempt(now, i, DropReason::ExhaustedRetries);
            }
        }
        n.pool.crash();
        self.disc.crash(n, now);
    }

    fn on_restart(&mut self, now: SimTime) {
        let n = &mut self.n;
        assert!(!n.alive, "restart on a live node");
        n.alive = true;
        // Cold boot: rebuild the prewarm stock at once, exactly like
        // `ContainerPool::new` does at time zero.
        while n.pool.replenish_prewarm() {}
        self.disc.dispatch(n, now);
    }
}

/// Stemcell (prewarm) containers use the default action memory size: the
/// smallest function's.
fn prewarm_mem_mb(catalogue: &Catalogue) -> u64 {
    catalogue
        .iter()
        .map(|(_, f)| f.memory_mb as u64)
        .min()
        .unwrap_or(256)
}

/// The invariants both disciplines share, checked once per discipline.
#[cfg(test)]
pub(crate) mod tests {
    use crate::{simulate_calls_faulted, NodeConfig, NodeMode, NodeResult};
    use faas_core::{Policy, SchedulerConfig};
    use faas_simcore::time::{SimDuration, SimTime};
    use faas_workload::faults::{CapacityRamp, DropReason, FaultSpec, RetryPolicy};
    use faas_workload::scenario::BurstScenario;
    use faas_workload::sebs::Catalogue;
    use faas_workload::weight::WeightTable;

    /// The baseline and the scheduled node under `policy`.
    fn modes(policy: Policy) -> [NodeMode; 2] {
        let scheduled = NodeMode::Scheduled(SchedulerConfig::paper(policy));
        [NodeMode::Baseline, scheduled]
    }

    /// Run one burst on `cfg` under the fault plan `faults(burst_start)`.
    pub(crate) fn run_on(
        mode: &NodeMode,
        cfg: &NodeConfig,
        intensity: u32,
        seed: u64,
        faults: impl Fn(SimTime) -> FaultSpec,
    ) -> NodeResult {
        let cat = Catalogue::sebs();
        let scenario = BurstScenario::standard(cfg.cores, intensity).generate(&cat, seed);
        let weights = WeightTable::uniform(cat.len());
        let spec = faults(scenario.burst_start);
        let calls = scenario.all_calls();
        simulate_calls_faulted(&cat, &calls, mode, cfg, &weights, &spec, seed, 0)
    }

    /// Run one fault-free burst on the paper's node.
    pub(crate) fn run(mode: &NodeMode, cores: u32, intensity: u32, seed: u64) -> NodeResult {
        run_on(mode, &NodeConfig::paper(cores), intensity, seed, |_| {
            FaultSpec::none()
        })
    }

    #[test]
    fn every_call_completes() {
        for mode in modes(Policy::Fifo) {
            let r = run(&mode, 10, 30, 1);
            assert_eq!(r.measured_len(), 330);
            for o in r.measured() {
                assert!(o.completion > o.release);
                assert!(o.exec_end >= o.exec_start);
                assert!(o.invoker_receive >= o.release);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let [baseline, fc] = modes(Policy::FairChoice);
        for (mode, intensity, seed) in [(baseline, 30, 2), (fc, 40, 7)] {
            let a = run(&mode, 10, intensity, seed);
            let b = run(&mode, 10, intensity, seed);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.peak_queue, b.peak_queue);
        }
    }

    #[test]
    fn inert_fault_machinery_reproduces_the_plain_run() {
        // A non-trivial spec whose events cannot change the simulation — a
        // capacity ramp whose floor is 1.0 — exercises every fault gate
        // (timeline merge, per-call state, transient draws at zero
        // probability) and must still produce the plain run's outcomes.
        let spec = FaultSpec {
            seed: 99,
            capacity: vec![CapacityRamp {
                node: None,
                start: SimTime::from_secs(130),
                floor: 1.0,
                steps_down: 2,
                step_every: SimDuration::from_secs(2),
                hold: SimDuration::from_secs(5),
                steps_up: 2,
            }],
            retry: RetryPolicy::standard(),
            ..FaultSpec::none()
        };
        assert!(!spec.is_none(), "the gate must actually engage");
        for mode in modes(Policy::Sept) {
            let gated = run_on(&mode, &NodeConfig::paper(10), 30, 14, |_| spec.clone());
            assert_eq!(run(&mode, 10, 30, 14).outcomes, gated.outcomes);
            assert!(gated.drops.is_empty());
            assert_eq!(gated.fault_stats.capacity_events, 4);
            assert_eq!(gated.fault_stats.retries, 0);
        }
    }

    #[test]
    fn capacity_degradation_slows_the_contended_run() {
        let window = SimDuration::from_secs(60);
        for mode in modes(Policy::Sept) {
            let plain = run(&mode, 10, 60, 15);
            let degraded = run_on(&mode, &NodeConfig::paper(10), 60, 15, |start| {
                FaultSpec::degradation(15, start, window)
            });
            assert!(degraded.drops.is_empty(), "degradation drops nothing");
            assert_eq!(degraded.outcomes.len(), plain.outcomes.len());
            assert_ne!(plain.outcomes, degraded.outcomes, "capacity must bite");
            assert!(
                degraded.last_completion > plain.last_completion,
                "{mode:?}: losing capacity mid-burst must delay the drain: {:?} vs {:?}",
                degraded.last_completion,
                plain.last_completion
            );
        }
    }

    #[test]
    fn crash_kills_in_flight_calls_and_restart_drains_the_rest() {
        let window = SimDuration::from_secs(60);
        let crash = |start| FaultSpec::crash_restart(16, start, window);
        for mode in modes(Policy::Sept) {
            let r = run_on(&mode, &NodeConfig::paper(10), 60, 16, crash);
            assert_eq!(r.fault_stats.crashes, 1);
            assert!(r.fault_stats.crash_kills > 0, "{mode:?}: in-flight calls");
            assert_eq!(
                r.outcomes.len() + r.drops.len(),
                run(&mode, 10, 60, 16).outcomes.len(),
                "call conservation: completed XOR dropped"
            );
            assert_eq!(r.fault_stats.dropped, r.drops.len() as u64);
            // The standard policy retries crash-killed attempts: with 3
            // attempts and one crash, every kill should eventually complete.
            assert!(
                r.drops.is_empty(),
                "one crash under 3 attempts drops nothing"
            );
            assert!(r.fault_stats.retries >= r.fault_stats.crash_kills);
            // Bit-identical reproduction.
            let again = run_on(&mode, &NodeConfig::paper(10), 60, 16, crash);
            assert_eq!(r.outcomes, again.outcomes);
            assert_eq!(r.drops, again.drops);
            assert_eq!(r.fault_stats, again.fault_stats);
        }
    }

    #[test]
    fn retry_storm_drops_only_fully_exhausted_calls() {
        let spec = FaultSpec::retry_storm(17);
        for mode in modes(Policy::Fifo) {
            let r = run_on(&mode, &NodeConfig::paper(10), 30, 17, |_| spec.clone());
            let total = r.outcomes.len() + r.drops.len();
            assert_eq!(total, run(&mode, 10, 30, 17).outcomes.len());
            assert!(r.fault_stats.transient_failures > 0);
            assert!(r.fault_stats.retries > 0);
            // p_drop = 0.15^5 ≈ 8e-5: with ~360 calls, drops are possible
            // but every drop must be a genuine exhaustion.
            for d in &r.drops {
                assert_eq!(d.reason, DropReason::ExhaustedRetries);
                assert_eq!(d.attempts, spec.retry.max_attempts);
            }
            // The survivors dominate: goodput stays near 1.
            assert!(r.drops.len() < total / 20);
        }
    }

    #[test]
    fn pending_timeout_abandons_queued_calls() {
        // Starve the node (tiny memory bounds concurrency) with a tight
        // no-retry timeout: the queue backs up and queued calls are
        // abandoned with `TimedOut`.
        let mut spec = FaultSpec::none();
        spec.retry.pending_timeout = Some(SimDuration::from_secs(5));
        let cfg = NodeConfig::paper(4).with_memory_mb(1024);
        for mode in modes(Policy::Fifo) {
            let r = run_on(&mode, &cfg, 60, 18, |_| spec.clone());
            assert!(!r.drops.is_empty(), "a starved queue must time calls out");
            assert!(r.drops.iter().all(|d| d.reason == DropReason::TimedOut));
            assert_eq!(r.fault_stats.timeouts, r.drops.len() as u64);
            assert_eq!(
                r.outcomes.len() + r.drops.len(),
                run_on(&mode, &cfg, 60, 18, |_| FaultSpec::none())
                    .outcomes
                    .len()
            );
        }
    }
}
