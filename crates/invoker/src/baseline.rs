//! The unmodified-OpenWhisk baseline node (§III): FIFO overflow queue +
//! GPS bank, as a [`Discipline`] of the shared node runtime.
//!
//! Semantics reproduced from the paper's description of the stock invoker:
//!
//! * **Greedy admission**: a request that finds no pending queue is placed
//!   immediately — warm free-pool container, else prewarm, else a newly
//!   created container (evicting idle containers if memory is short). Only
//!   when placement is impossible does the request join a FIFO queue.
//! * **Memory-based limits**: the number of simultaneously busy containers
//!   is bounded by the memory pool, *not* by the core count.
//! * **OS preemption**: all CPU phases (cold-start initialisation, function
//!   execution, per-call container management) share the cores under
//!   generalized processor sharing with a context-switch capacity penalty
//!   (`faas_cpu::gps`). I/O phases hold the container but no CPU.
//!
//! Call phase machine:
//!
//! ```text
//! Arrive ─(queue empty? place : enqueue)─▶ [Init (GPS)] ─▶ CpuPhase (GPS)
//!     ─▶ IoPhase (timer) ─▶ respond ─▶ Cleanup (container held)
//!     ─▶ container idle → drain FIFO queue
//! ```
//!
//! # Fault semantics specific to this discipline
//!
//! The shared model is in the `runtime` module docs. Here:
//!
//! * **Capacity** events rebase the GPS bank via [`GpsCpu::set_capacity`]
//!   — running calls keep their served work and share the new capacity.
//! * **Crash** tears the GPS bank down; crash-killed work counts as served
//!   only up to the crash.
//! * **Transient failures** are drawn at I/O completion.
//! * A **pending timeout** leaves its FIFO entry behind as a tombstone:
//!   entries are `(call, attempt)` pairs, and one whose attempt is no
//!   longer current and queued is skipped when it reaches the head. A live
//!   count keeps the "queue non-empty" admission test, `peak_queue` and the
//!   reported queue depth exact, and a timeout costs O(1) however long the
//!   queue.

use crate::config::NodeConfig;
use crate::runtime::{Discipline, Ev, Node, Totals};
use faas_cpu::{GpsCpu, GpsParams, Resource, ResourceVector, TaskId};
use faas_simcore::events::EventHandle;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::ColdStartKind;
use faas_workload::weight::{CallPhase, TaskShare, WeightTable};
use std::collections::{HashMap, VecDeque};

/// The baseline's own events.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// The earliest GPS task completion is due. There is at most one live
    /// tick at any time: membership changes move it in place via
    /// [`faas_simcore::events::EventQueue::reschedule`].
    GpsTick,
    /// A call's I/O phase finishes, under the given node incarnation.
    IoDone(u32, u32),
}

/// What a GPS task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Cold-start initialisation of call `i`.
    Init(u32),
    /// CPU phase of call `i`.
    Exec(u32),
}

/// Greedy admission, FIFO overflow and the GPS bank.
pub struct Baseline<'a> {
    /// Per-function GPS weights/caps (weighted containers). The uniform
    /// table keeps every task on the GPS fast path.
    weights: &'a WeightTable,
    cpu: GpsCpu,
    /// `(call, attempt)` entries, tombstones included (see the module
    /// docs).
    fifo: VecDeque<(u32, u32)>,
    /// Live entries of `fifo`.
    queued: usize,
    peak_queue: usize,
    /// Each live GPS task's owner and demand profile (per dominant-resource
    /// unit, from `ResourceVector::profile`), so removals can settle the
    /// per-resource served-work counters.
    owners: HashMap<TaskId, (Owner, [f64; 2])>,
    /// Per-resource work served by the GPS bank, in axis units:
    /// `[core-seconds, bandwidth-unit-seconds]`. Accumulated as offered
    /// work at task entry minus the residual returned at removal, so
    /// crash-killed work counts only what actually ran.
    served_work: [f64; 2],
    leased: usize,
    peak_leased: usize,
    /// The one pending [`Event::GpsTick`], rescheduled in place on every
    /// GPS membership change instead of abandoning stale copies.
    tick: Option<EventHandle>,
    /// Reused buffer for completion collection: the GPS tick is the hottest
    /// event, and `finished_tasks_into` keeps it allocation-free.
    finished_scratch: Vec<TaskId>,
}

impl<'a> Baseline<'a> {
    pub(crate) fn new(catalogue: &Catalogue, cfg: &NodeConfig, weights: &'a WeightTable) -> Self {
        assert_eq!(
            weights.len(),
            catalogue.len(),
            "weight table must cover the catalogue"
        );
        let mut cpu = GpsCpu::new(GpsParams {
            cores: cfg.cores as f64,
            ctx_switch_penalty: cfg.calibration.ctx_switch_penalty,
            penalty_cap: cfg.calibration.ctx_switch_penalty_cap,
        });
        // A modeled memory-bandwidth capacity enters the GPS bank before
        // any task exists; with the 0.0 sentinel the bank never hears
        // about the axis and stays bit-identical to the CPU-only model.
        if cfg.mem_bandwidth > 0.0 {
            cpu.set_resource_capacity(SimTime::ZERO, Resource::Mem, cfg.mem_bandwidth);
        }
        Baseline {
            weights,
            cpu,
            fifo: VecDeque::new(),
            queued: 0,
            peak_queue: 0,
            owners: HashMap::new(),
            served_work: [0.0; 2],
            leased: 0,
            peak_leased: 0,
            tick: None,
            finished_scratch: Vec::new(),
        }
    }

    /// Attempt immediate placement; returns false if the call must queue.
    fn try_place(&mut self, n: &mut Node<'_, Event>, now: SimTime, i: u32) -> bool {
        let Some(kind) = n.place(now, i) else {
            return false;
        };
        self.leased += 1;
        self.peak_leased = self.peak_leased.max(self.leased);
        if kind == ColdStartKind::Prewarm {
            n.prewarm_later(now);
        }
        let init_work = n.draw_init(kind);
        if init_work > 0.0 {
            // Per-phase lookup: warm-up cold-start init can run at a
            // different share than the function's (cgroup update latency).
            let call = n.calls[i as usize];
            let share = self
                .weights
                .phase_share(call.func, call.kind, CallPhase::Init);
            let (tid, profile) = self.add_share_task(now, init_work, &share);
            self.owners.insert(tid, (Owner::Init(i), profile));
        } else {
            self.start_exec(n, now, i);
        }
        self.reschedule_tick(n, now);
        true
    }

    /// Begin the execution phases: CPU work under GPS, then I/O.
    fn start_exec(&mut self, n: &mut Node<'_, Event>, now: SimTime, i: u32) {
        let call = n.calls[i as usize];
        let p = n.draw_service(call.func);
        let cpu_work = n.catalogue.spec(call.func).cpu_fraction * p;
        n.begin_exec(i, now, p);
        let share = self
            .weights
            .phase_share(call.func, call.kind, CallPhase::Exec);
        let (tid, profile) = self.add_share_task(now, cpu_work, &share);
        self.owners.insert(tid, (Owner::Exec(i), profile));
    }

    /// Enter a CPU phase of `cpu_work` core-seconds into the GPS bank
    /// under `share`, returning the task and its demand profile. CPU-only
    /// shares take the scalar `add_task` path — bit-identical to the
    /// pre-DRF model. Shares with a memory-bandwidth demand convert work
    /// and rate cap into dominant-resource units
    /// (`ResourceVector::dominant_per_cpu`) so the bank's water-filling
    /// allocates by dominant share (see `faas_cpu::gps`). Offered work is
    /// credited to the per-resource served counters here; removals debit
    /// the unserved residual.
    fn add_share_task(
        &mut self,
        now: SimTime,
        cpu_work: f64,
        share: &TaskShare,
    ) -> (TaskId, [f64; 2]) {
        if share.is_cpu_only() {
            self.served_work[0] += cpu_work;
            let tid = self
                .cpu
                .add_task(now, cpu_work, share.weight, share.max_rate);
            (tid, [1.0, 0.0])
        } else {
            let demand = ResourceVector::per_cpu(share.mem_per_cpu);
            let scale = demand.dominant_per_cpu();
            let profile = demand.profile();
            let work = cpu_work * scale;
            self.served_work[0] += work * profile[0];
            self.served_work[1] += work * profile[1];
            let tid =
                self.cpu
                    .add_task_demand(now, work, share.weight, share.max_rate * scale, demand);
            (tid, profile)
        }
    }

    /// Remove a GPS task and debit the unserved residual from the
    /// per-resource served-work counters.
    fn remove_gps_task(&mut self, now: SimTime, tid: TaskId, profile: [f64; 2]) {
        let residual = self.cpu.remove_task(now, tid);
        self.served_work[0] -= residual * profile[0];
        self.served_work[1] -= residual * profile[1];
    }

    fn on_gps_tick(&mut self, n: &mut Node<'_, Event>, now: SimTime) {
        // The tick just fired; its handle is dead until rescheduled below.
        self.tick = None;
        // Collect every task that finished by now (several can tie) into the
        // reused scratch buffer, snapshotting the set before membership
        // changes below can alter it.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.cpu.finished_tasks_into(now, &mut finished);
        for &tid in &finished {
            let (owner, profile) = self
                .owners
                .remove(&tid)
                .expect("finished GPS task must have an owner");
            self.remove_gps_task(now, tid, profile);
            match owner {
                Owner::Init(i) => self.start_exec(n, now, i),
                Owner::Exec(i) => {
                    let cpu_fraction = n.catalogue.spec(n.calls[i as usize].func).cpu_fraction;
                    let io = (1.0 - cpu_fraction) * n.rt[i as usize].p;
                    n.events.schedule(
                        now + SimDuration::from_secs_f64(io),
                        Ev::Own(Event::IoDone(i, n.incarnation)),
                    );
                }
            }
        }
        self.finished_scratch = finished;
        self.reschedule_tick(n, now);
    }

    /// Keep the single tick event aligned with the next GPS completion:
    /// moved in place when the completion time shifts, cancelled when the
    /// bank drains. The queue never holds stale ticks.
    fn reschedule_tick(&mut self, n: &mut Node<'_, Event>, now: SimTime) {
        match self.cpu.next_completion(now) {
            Some((_, at)) => {
                let at = at.max(now);
                match self.tick {
                    Some(handle) => n.events.reschedule(handle, at),
                    None => self.tick = Some(n.events.schedule(at, Ev::Own(Event::GpsTick))),
                }
            }
            None => {
                if let Some(handle) = self.tick.take() {
                    n.events.cancel(handle);
                }
            }
        }
    }
}

impl Discipline for Baseline<'_> {
    type Ev = Event;
    const STREAMS: [u64; 2] = [0xB001, 0xB002];

    fn admit(&mut self, n: &mut Node<'_, Event>, now: SimTime, i: u32) {
        // §III: "When an invoker receives a new request and there are
        // pending requests, the request is added to the queue." A dead
        // node's requests queue too: the LB committed them to the topic.
        if !n.alive || self.queued > 0 || !self.try_place(n, now, i) {
            self.fifo.push_back((i, n.attempt(i)));
            self.queued += 1;
            self.peak_queue = self.peak_queue.max(self.queued);
        }
    }

    /// Serve queued requests in FIFO order until one cannot be placed.
    fn dispatch(&mut self, n: &mut Node<'_, Event>, now: SimTime) {
        while let Some(&(i, attempt)) = self.fifo.front() {
            if n.is_queued(i) && n.attempt(i) == attempt {
                if !self.try_place(n, now, i) {
                    break;
                }
                self.queued -= 1;
            }
            self.fifo.pop_front();
        }
    }

    fn dequeue(&mut self) {
        self.queued -= 1;
    }

    fn on_event(&mut self, n: &mut Node<'_, Event>, now: SimTime, ev: Event) {
        match ev {
            Event::GpsTick => self.on_gps_tick(n, now),
            Event::IoDone(i, inc) => {
                if inc != n.incarnation {
                    return; // the attempt was killed by a crash
                }
                // Post-response cleanup holds the container (docker pause,
                // log collection) but burns no CPU: with containers
                // oversubscribing the cores the OS overlaps this work,
                // unlike the paper's dedicated-core regime where it idles
                // the call's core.
                let p = n.rt[i as usize].p;
                let mgmt = n
                    .cfg
                    .calibration
                    .baseline_mgmt_secs(n.cfg.cores, p, self.leased);
                let processing = now.saturating_since(n.exec_start(i));
                n.complete_attempt(now, i, SimDuration::from_secs_f64(mgmt), processing);
            }
        }
    }

    fn release(&mut self, _n: &mut Node<'_, Event>, _now: SimTime) {
        self.leased -= 1;
    }

    fn crash(&mut self, n: &mut Node<'_, Event>, now: SimTime) {
        // `owners` is a HashMap whose iteration order is arbitrary: sort
        // the task ids so the bank's float accumulation stays
        // deterministic across runs.
        let mut tasks: Vec<_> = self.owners.drain().collect();
        tasks.sort_unstable_by_key(|&(tid, _)| tid);
        for (tid, (_, profile)) in tasks {
            self.remove_gps_task(now, tid, profile);
        }
        self.leased = 0;
        self.reschedule_tick(n, now); // the bank is empty: cancels the tick
    }

    fn set_capacity(&mut self, n: &mut Node<'_, Event>, now: SimTime, factor: f64) {
        // Capacity-rebase invariant (see `GpsCpu::set_capacity`): served
        // work up to `now` is settled under the old capacity before the
        // parameter swap, then the tick moves to the new earliest finisher.
        self.cpu.set_capacity(now, n.cfg.cores as f64 * factor);
        self.reschedule_tick(n, now);
    }

    fn queue_depth(&self) -> usize {
        self.queued
    }

    fn inflight(&self) -> usize {
        self.leased
    }

    /// The GPS bank's dominant share: one O(live tasks) scan per window.
    fn dominant_share(&mut self, _cfg: &NodeConfig) -> f64 {
        let mut share: f64 = 0.0;
        for r in [Resource::Cpu, Resource::Mem] {
            let cap = self.cpu.resource_capacity(r);
            if cap.is_finite() && cap > 0.0 {
                share = share.max(self.cpu.resource_consumption(r) / cap);
            }
        }
        share
    }

    fn finish(self, _n: &Node<'_, Event>) -> Totals {
        assert_eq!(self.queued, 0, "baseline ended with stuck calls");
        debug_assert!(self.cpu.is_empty(), "GPS bank must drain");
        Totals {
            peak_queue: self.peak_queue,
            peak_concurrency: self.peak_leased,
            // Compensated entry/exit accounting can leave a ±ulp residue
            // around zero; served work is non-negative by construction.
            served: self.served_work.map(|w| w.max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::tests::{run as run_mode, run_on};
    use crate::{simulate_calls, simulate_calls_faulted, NodeConfig, NodeMode, NodeResult};
    use faas_simcore::time::SimTime;
    use faas_workload::faults::FaultSpec;
    use faas_workload::scenario::BurstScenario;
    use faas_workload::sebs::Catalogue;
    use faas_workload::trace::{Call, CallId, CallKind, ColdStartKind};
    use faas_workload::weight::{WeightSpec, WeightTable};

    fn run(cores: u32, intensity: u32, seed: u64) -> NodeResult {
        run_mode(&NodeMode::Baseline, cores, intensity, seed)
    }

    fn simulate(calls: &[Call], cfg: &NodeConfig, weights: &WeightTable, seed: u64) -> NodeResult {
        let cat = Catalogue::sebs();
        let none = FaultSpec::none();
        simulate_calls_faulted(
            &cat,
            calls,
            &NodeMode::Baseline,
            cfg,
            weights,
            &none,
            seed,
            0,
        )
    }

    #[test]
    fn concurrency_exceeds_cores_under_load() {
        // The defining property of the baseline: memory-bounded concurrency,
        // far beyond the core count (§IV-A motivation).
        let r = run(10, 60, 3);
        assert!(
            r.peak_concurrency > 10,
            "baseline should oversubscribe: peak {}",
            r.peak_concurrency
        );
    }

    #[test]
    fn greedy_creation_causes_cold_starts_under_load() {
        // Fig. 2a: the baseline keeps creating containers as load grows.
        let r = run(10, 90, 4);
        assert!(
            r.measured_cold_starts() > 100,
            "greedy baseline must cold-start heavily: got {}",
            r.measured_cold_starts()
        );
    }

    #[test]
    fn short_calls_stay_fast_at_moderate_load() {
        // Processor sharing favours short jobs: at intensity 30 on 10 cores
        // the median response must stay in single-digit seconds even though
        // the tail is long (paper Table III: median 2.82 s, avg 14.78 s).
        let r = run(10, 30, 5);
        let mut resp: Vec<f64> = r
            .measured()
            .map(|o| o.response_time().as_secs_f64())
            .collect();
        resp.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = resp[resp.len() / 2];
        let mean = resp.iter().sum::<f64>() / resp.len() as f64;
        assert!(median < 15.0, "median {median}");
        assert!(mean > median, "PS must skew the mean above the median");
    }

    #[test]
    fn node_index_is_propagated() {
        let cat = Catalogue::sebs();
        let calls = vec![Call {
            id: CallId(0),
            func: cat.by_name("graph-bfs").unwrap(),
            release: SimTime::ZERO,
            kind: CallKind::Measured,
        }];
        let r = simulate_calls(
            &cat,
            &calls,
            &NodeMode::Baseline,
            &NodeConfig::paper(4),
            1,
            9,
        );
        assert_eq!(r.outcomes[0].node, 9);
    }

    #[test]
    fn io_heavy_function_is_insensitive_to_contention() {
        // sleep(1s) has cpu_fraction 0.02: its processing time barely grows
        // even under heavy sharing.
        let r = run(10, 60, 6);
        let sleep = Catalogue::sebs().by_name("sleep").unwrap();
        let mut times: Vec<f64> = r
            .measured()
            .filter(|o| o.func == sleep && o.start_kind == ColdStartKind::Warm)
            .map(|o| o.processing.as_secs_f64())
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(!times.is_empty());
        let median = times[times.len() / 2];
        assert!(
            median < 3.0,
            "warm sleep executions should stay near 1s, got median {median}"
        );
    }

    #[test]
    fn weighted_simulation_is_deterministic_and_complete() {
        let cat = Catalogue::sebs();
        let calls = BurstScenario::standard(10, 30)
            .generate(&cat, 8)
            .all_calls();
        let weights = WeightSpec::paper_tiers().table(&cat);
        let run = || simulate(&calls, &NodeConfig::paper(10), &weights, 8);
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes, "weighted runs are deterministic");
        assert_eq!(a.measured_len(), 330, "every call completes");
    }

    #[test]
    fn tiered_weights_change_the_contended_outcome() {
        let cat = Catalogue::sebs();
        let calls = BurstScenario::standard(10, 60)
            .generate(&cat, 10)
            .all_calls();
        let plain = run(10, 60, 10);
        let weights = WeightSpec::paper_tiers().table(&cat);
        let tiered = simulate(&calls, &NodeConfig::paper(10), &weights, 10);
        assert_ne!(
            plain.outcomes, tiered.outcomes,
            "weighted shares must shift completions under contention"
        );
        assert_eq!(tiered.outcomes.len(), plain.outcomes.len());
    }

    #[test]
    fn warmup_phase_shares_change_overlapping_outcomes() {
        // Cgroup-update latency: with `paper_tiers_cgroup_lag`, a warm-up
        // call's cold-start init runs at the default (1, 1) share instead
        // of the function's tier share. Overlap a warm-up and a measured
        // cold start of a weight-4 function on one core: the banks differ
        // (uniform vs heterogeneous), so the measured completion moves.
        let cat = Catalogue::sebs();
        let func = cat.ids().next().unwrap(); // tier index 0: weight 4.0
        let calls = vec![
            Call {
                id: CallId(0),
                func,
                release: SimTime::ZERO,
                kind: CallKind::Warmup,
            },
            Call {
                id: CallId(1),
                func,
                release: SimTime::ZERO,
                kind: CallKind::Measured,
            },
        ];
        let cfg = NodeConfig::paper(1);
        let run = |spec: WeightSpec| simulate(&calls, &cfg, &spec.table(&cat), 11);
        let plain = run(WeightSpec::paper_tiers());
        let lagged = run(WeightSpec::paper_tiers_cgroup_lag());
        assert_ne!(
            plain.outcomes, lagged.outcomes,
            "warm-up init at the default share must shift the overlap"
        );
        // The override only touches warm-up phases: without warm-up calls
        // the two tables are indistinguishable.
        let measured_only = |spec: WeightSpec| simulate(&calls[1..], &cfg, &spec.table(&cat), 12);
        let plain = measured_only(WeightSpec::paper_tiers());
        let lagged = measured_only(WeightSpec::paper_tiers_cgroup_lag());
        assert_eq!(plain.outcomes, lagged.outcomes);
    }

    #[test]
    fn queue_forms_when_memory_exhausted() {
        let cfg = NodeConfig::paper(10).with_memory_mb(4 * 1024);
        let r = run_on(&NodeMode::Baseline, &cfg, 60, 7, |_| FaultSpec::none());
        assert!(r.peak_queue > 0, "4 GiB at intensity 60 must queue");
        assert_eq!(r.measured_len(), 660);
    }
}
