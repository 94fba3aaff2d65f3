//! # faas-invoker
//!
//! The OpenWhisk invoker substrate: container lifecycle and the two
//! node-level resource-management regimes the paper compares, as one node
//! runtime under two queue disciplines.
//!
//! * [`config`] — node configuration and the calibration constants that tie
//!   the simulator to the paper's measured testbed behaviour.
//! * [`pool`] — the container pool (§III): free (warm) pool, prewarm pool,
//!   memory accounting, LRU eviction, cold-start bookkeeping.
//! * `runtime` (private) — the node model both regimes share: arrival,
//!   faults, retries, failover handoffs, outcomes and the resumable step
//!   API, generic over a `Discipline`. Its module docs hold the step
//!   contract and the fault semantics.
//! * `baseline` (private) — the unmodified-OpenWhisk discipline: greedy
//!   container creation, memory-proportional CPU shares time-sliced by the
//!   OS (generalized processor sharing with a context-switch penalty),
//!   FIFO overflow queue.
//! * `ours` (private) — the paper's discipline (§IV): a policy-driven
//!   priority queue in front of at most `cores` busy containers, each
//!   pinned to a full core, non-preemptive execution.
//! * [`result`] — per-run outcome collection.
//! * [`step`] — the progress snapshots and failover handoffs the step API
//!   exchanges with the cluster crate's window loop.
//!
//! [`NodeSim`] selects the discipline from a [`NodeMode`]; the `simulate_*`
//! functions run one to completion. Both regimes consume the same
//! [`faas_workload::Scenario`]s and produce the same
//! [`result::NodeResult`], so every experiment in the paper is a
//! like-for-like comparison.

mod baseline;
pub mod config;
mod ours;
pub mod pool;
pub mod result;
mod runtime;
pub mod step;

pub use config::{Calibration, NodeConfig, NodeMode};
pub use pool::{ContainerPool, PoolStats};
pub use result::{DroppedCall, FaultStats, NodeResult};
pub use step::{Handoff, NodeProgress};

use baseline::Baseline;
use faas_core::SchedulerConfig;
use faas_simcore::time::SimTime;
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::Call;
use faas_workload::weight::WeightTable;
use faas_workload::Scenario;
use ours::Scheduled;
use runtime::NodeRuntime;

/// Simulate one node serving `calls` (release-ordered) under the given mode,
/// with uniform container weights and no faults.
///
/// `node_index` tags the resulting outcomes (multi-node experiments run one
/// simulation per worker).
pub fn simulate_calls(
    catalogue: &Catalogue,
    calls: &[Call],
    mode: &NodeMode,
    cfg: &NodeConfig,
    seed: u64,
    node_index: u16,
) -> NodeResult {
    let weights = WeightTable::uniform(catalogue.len());
    simulate_calls_faulted(
        catalogue,
        calls,
        mode,
        cfg,
        &weights,
        &FaultSpec::none(),
        seed,
        node_index,
    )
}

/// Simulate one node with per-function container weights and rate caps
/// under a fault plan: dynamic capacity, node crash/restart, transient
/// failures and the retry/timeout/backoff policy (see
/// [`faas_workload::faults`] for the model and the `runtime` module docs
/// for the node semantics). Pass [`FaultSpec::none`] for a fault-free run.
///
/// Weights shape the *baseline* node only: each CPU phase (cold-start
/// init and execution) enters its GPS bank with the share
/// [`WeightTable::phase_share`] assigns it — memory-proportional soft CPU
/// shares are exactly what the GPS weight models, and warm-up calls may
/// override per phase (cgroup update latency). The paper's regime pins
/// every busy container to one full core, so [`NodeMode::Scheduled`] is
/// weight-invariant.
///
/// The node's fault timeline is derived from `(faults, node_index)` inside
/// the invoker, so multi-node runs stay shard-invariant.
#[allow(clippy::too_many_arguments)]
pub fn simulate_calls_faulted(
    catalogue: &Catalogue,
    calls: &[Call],
    mode: &NodeMode,
    cfg: &NodeConfig,
    weights: &WeightTable,
    faults: &FaultSpec,
    seed: u64,
    node_index: u16,
) -> NodeResult {
    let mut sim = NodeSim::new(
        catalogue, mode, cfg, weights, faults, seed, node_index, false,
    );
    sim.inject(calls);
    sim.advance_to(SimTime::MAX);
    sim.finish()
}

/// Simulate a full scenario (warm-up plus burst) on a single node.
pub fn simulate_scenario(
    catalogue: &Catalogue,
    scenario: &Scenario,
    mode: &NodeMode,
    cfg: &NodeConfig,
    seed: u64,
) -> NodeResult {
    let calls = scenario.all_calls();
    simulate_calls(catalogue, &calls, mode, cfg, seed, 0)
}

/// Convenience constructor for the scheduled mode.
pub fn scheduled(sched: SchedulerConfig) -> NodeMode {
    NodeMode::Scheduled(sched)
}

/// A mode-dispatching resumable node simulator: one enum over the two
/// disciplines of the shared node runtime, exposing the step API (see
/// [`step`]) so the cluster engine can drive either node kind through
/// conservative time windows without caring which regime it is. Boxed per
/// variant — the simulators are large and a cluster holds many.
pub enum NodeSim<'a> {
    /// The unmodified-OpenWhisk node.
    Baseline(Box<NodeRuntime<'a, Baseline<'a>>>),
    /// The paper's scheduled node.
    Scheduled(Box<NodeRuntime<'a, Scheduled>>),
}

/// Run `$body` with `$s` bound to whichever runtime `$sim` holds.
macro_rules! each {
    ($sim:expr, $s:ident => $body:expr) => {
        match $sim {
            NodeSim::Baseline($s) => $body,
            NodeSim::Scheduled($s) => $body,
        }
    };
}

impl<'a> NodeSim<'a> {
    /// Build an empty resumable node for `mode`: no calls yet, only the
    /// node's fault timeline scheduled. `failover` (cluster runs under a
    /// fault plan only) turns retries into cross-node [`Handoff`]s.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalogue: &'a Catalogue,
        mode: &NodeMode,
        cfg: &'a NodeConfig,
        weights: &'a WeightTable,
        faults: &'a FaultSpec,
        seed: u64,
        node_index: u16,
        failover: bool,
    ) -> NodeSim<'a> {
        match mode {
            NodeMode::Baseline => NodeSim::Baseline(Box::new(NodeRuntime::new(
                catalogue,
                cfg,
                faults,
                seed,
                node_index,
                failover,
                Baseline::new(catalogue, cfg, weights),
            ))),
            NodeMode::Scheduled(sched) => NodeSim::Scheduled(Box::new(NodeRuntime::new(
                catalogue,
                cfg,
                faults,
                seed,
                node_index,
                failover,
                Scheduled::new(catalogue, cfg, *sched),
            ))),
        }
    }

    /// Append a release-sorted batch of calls and schedule their arrivals.
    pub fn inject(&mut self, calls: &[Call]) {
        each!(self, s => s.inject(calls))
    }

    /// Re-inject a call another node failed over (see [`step::Handoff`]).
    pub fn inject_handoff(&mut self, h: &Handoff, deliver_at: SimTime) {
        each!(self, s => s.inject_handoff(h, deliver_at))
    }

    /// Drain every event with `time <= horizon`, then report progress.
    pub fn advance_to(&mut self, horizon: SimTime) -> NodeProgress {
        each!(self, s => s.advance_to(horizon))
    }

    /// The current [`NodeProgress`] snapshot.
    pub fn progress(&self) -> NodeProgress {
        each!(self, s => s.progress())
    }

    /// Timestamp of the earliest still-queued event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        each!(self, s => s.next_event_time())
    }

    /// Take the pending failover outbox.
    pub fn take_handoffs(&mut self) -> Vec<Handoff> {
        each!(self, s => s.take_handoffs())
    }

    /// Check conservation and assemble the [`NodeResult`].
    pub fn finish(self) -> NodeResult {
        each!(self, s => s.finish())
    }
}
