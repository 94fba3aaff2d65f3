//! The cluster engine: one conservative-window loop behind every entry
//! point.
//!
//! # The conservative-window protocol
//!
//! Nodes only interact through the controller: routing decisions of a
//! feedback policy depend on node state at a call's release time, and a
//! failed attempt may resume on another node. Every controller→node
//! delivery charges at least one network hop, so events on one node
//! cannot affect another within less than the hop latency. The engine
//! therefore advances all nodes in lock-step windows of width
//! [`ClusterConfig::lookahead`] (classic conservative lookahead of
//! parallel discrete-event simulation):
//!
//! ```text
//! loop {
//!     t       = earliest pending work anywhere
//!               (node event, unrouted arrival, undelivered handoff)
//!     horizon = t + lookahead
//!     1. route every arrival with release <= horizon       (sequential,
//!        flushing full ingestion batches on the way)
//!     2. pick a target for every handoff with due <= horizon (sequential)
//!     3. every node takes its batch, then its handoffs,
//!        and advances to `horizon`                          (parallel)
//!     4. collect the nodes' failover outboxes               (sequential)
//! }
//! ```
//!
//! Routing (steps 1–2) sees the [`NodeProgress`] snapshots of the
//! previous barrier plus the calls routed since — a stale-by-at-most-one-
//! window view, the staleness a real controller's health polling has.
//! Each node's simulator is self-contained, so the run is a pure function
//! of `(seed, lookahead)`: bit-identical across reruns *and thread
//! counts*. `lookahead = `[`SimDuration::MAX`] is one window: with a
//! static policy every node runs to completion on its own share, which is
//! the paper's §VIII cluster (workers do not interact).
//!
//! # Sources
//!
//! Every run feeds the loop one release-ordered stream of calls. Spec and
//! scenario runs pass their sorted burst and warm every node first (the
//! paper warms all workers). Trace runs page a [`TraceSource`] lazily and
//! inject no warm-up: a trace is the complete log of what the cluster
//! received, so if the recorded system was warmed, the warming calls are
//! in the log.
//!
//! # Bounded ingestion
//!
//! Trace runs give the loop a `chunk` bound. When a node's pending batch
//! reaches `chunk` calls mid-window, the engine flushes: in one parallel
//! section every node advances to just before its batch's first release
//! (never past an undelivered handoff of the current window) and takes
//! the batch. A flush refreshes no view and collects no outbox, so it is
//! not a barrier and cannot change the schedule; it only keeps the calls
//! held for routing within `chunk × nodes`, however long the trace. Ahead
//! of the router, the trace is synthesized in pages of `chunk × nodes`
//! calls, each split across the worker threads. The largest batch handed
//! to each node, summed over nodes, is reported as
//! [`NodeResult::peak_resident_calls`].
//!
//! # Cross-node failover
//!
//! With [`ClusterConfig::failover`] on, a failed attempt with retries
//! left leaves its node as a [`Handoff`] instead of backing off locally.
//! The engine collects outboxes at each barrier and re-injects every due
//! handoff, in `(due, call id)` order, on the least-loaded healthy node
//! (lowest index on ties, preferring nodes other than the one that
//! failed), no earlier than the barrier at which it was collected —
//! failover cannot run ahead of the window protocol, which is why it
//! requires a finite lookahead. The attempt counter carries across nodes:
//! a policy of `n` attempts spends `n` attempts cluster-wide.

use crate::lb::{NodeView, Router};
use crate::sim::{node_seeds, ClusterConfig, ClusterScenario};
use faas_invoker::{Handoff, NodeMode, NodeProgress, NodeResult, NodeSim};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves};
use faas_workload::sebs::Catalogue;
use faas_workload::trace::{Call, CallId};
use faas_workload::trace_source::{TraceSource, WorkloadSource};
use faas_workload::weight::WeightTable;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Run a materialized [`ClusterScenario`]: route the shared burst, warm
/// and simulate every worker, merge. `seed` fixes the per-node service
/// and cold-start draws.
pub fn run_cluster(
    catalogue: &Catalogue,
    scenario: &ClusterScenario,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    seed: u64,
) -> NodeResult {
    let weights = WeightTable::uniform(catalogue.len());
    // Warm-up ids start above the burst ids, so ids stay unique per node.
    let warmup = scenario.node_warmup(cfg.node.cores, scenario.burst.len() as u64);
    let nodes = Nodes {
        catalogue,
        mode,
        cfg,
        weights: &weights,
        faults: &FaultSpec::none(),
        sim_seed: seed,
    };
    NodeResult::merge(nodes.run(&mut scenario.burst.iter().copied(), &warmup, None))
}

/// Run a [`WorkloadSpec`] under a fault plan. The burst is generated in
/// parallel chunks and sorted; `scenario_seed` fixes the workload,
/// `sim_seed` the per-node draws. The spec's weight axis is realized once
/// against the catalogue and applied on every worker. Fault timelines are
/// pure functions of `(faults, node)`, so every routing policy sees the
/// same per-node fault schedule.
pub fn run_cluster_streamed_coupled(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
) -> NodeResult {
    NodeResult::merge(run_cluster_streamed_coupled_per_node(
        catalogue,
        spec,
        mode,
        cfg,
        faults,
        scenario_seed,
        sim_seed,
    ))
}

/// [`run_cluster_streamed_coupled`] with each node's [`NodeResult`]
/// returned separately (index = node id) instead of merged: cross-node
/// dominant-share fairness needs the per-node served work, which a merged
/// result erases.
pub fn run_cluster_streamed_coupled_per_node(
    catalogue: &Catalogue,
    spec: &WorkloadSpec,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
) -> Vec<NodeResult> {
    let (waves, burst_start) = warmup_waves(catalogue);
    let generator = ShardedGenerator::new(spec, catalogue, burst_start, scenario_seed);
    let mut burst = generator.generate_parallel();
    burst.sort_by_key(|c| (c.release, c.id));
    let warmup = warmup_calls_for_waves(&waves, cfg.node.cores, generator.len());
    let weights = spec.weights.table(catalogue);
    let nodes = Nodes {
        catalogue,
        mode,
        cfg,
        weights: &weights,
        faults,
        sim_seed,
    };
    nodes.run(&mut burst.into_iter(), &warmup, None)
}

/// Replay a trace with at most `chunk` calls per node held for routing
/// (see the module docs for the memory bound). Any policy, lookahead and
/// failover setting composes with trace ingestion. Bit-identical across
/// reruns, thread counts and chunk sizes.
pub fn run_cluster_trace_streamed(
    catalogue: &Catalogue,
    trace: &dyn TraceSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    sim_seed: u64,
    chunk: usize,
) -> NodeResult {
    assert!(chunk > 0, "ingestion window must hold at least one call");
    let weights = WeightTable::uniform(catalogue.len());
    let nodes = Nodes {
        catalogue,
        mode,
        cfg,
        weights: &weights,
        faults,
        sim_seed,
    };
    let mut arrivals = pages(trace, (chunk as u64).saturating_mul(cfg.nodes as u64));
    NodeResult::merge(nodes.run(&mut arrivals, &[], Some(chunk)))
}

/// `trace` in index (= release) order, synthesized one page of up to
/// `page` calls at a time with each page split across the worker threads,
/// so ingestion stays parallel although routing is sequential. A page as
/// large as a full round of batches keeps the parallel sections per call
/// few.
fn pages(trace: &dyn TraceSource, page: u64) -> impl Iterator<Item = Call> + '_ {
    let len = trace.len();
    let page = page.clamp(1, len.max(1));
    (0..len).step_by(page as usize).flat_map(move |lo| {
        let hi = (lo + page).min(len);
        let step = (hi - lo).div_ceil(rayon::current_num_threads() as u64);
        let starts: Vec<u64> = (lo..hi).step_by(step as usize).collect();
        let parts: Vec<Vec<Call>> = starts
            .par_iter()
            .map(|&a| trace.iter_chunk(a, (a + step).min(hi)).collect())
            .collect();
        parts.into_iter().flatten()
    })
}

/// Run any [`WorkloadSource`] — analytic spec or trace — under any
/// [`ClusterConfig`]. Trace sources are opened first (synthetic traces
/// start at [`SimTime::ZERO`] and draw from `scenario_seed`); `chunk`
/// bounds their ingestion and is unused by spec sources. The only
/// fallible path is opening a recorded trace file.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_source(
    catalogue: &Catalogue,
    source: &WorkloadSource,
    mode: &NodeMode,
    cfg: &ClusterConfig,
    faults: &FaultSpec,
    scenario_seed: u64,
    sim_seed: u64,
    chunk: usize,
) -> std::io::Result<NodeResult> {
    Ok(match source {
        WorkloadSource::Spec(spec) => run_cluster_streamed_coupled(
            catalogue,
            spec,
            mode,
            cfg,
            faults,
            scenario_seed,
            sim_seed,
        ),
        WorkloadSource::Trace(tspec) => {
            let trace = tspec.open(catalogue, SimTime::ZERO, scenario_seed)?;
            let trace = trace.as_ref();
            run_cluster_trace_streamed(catalogue, trace, mode, cfg, faults, sim_seed, chunk)
        }
    })
}

/// One nanosecond before `t` (clamped at zero). Advancing a node to just
/// before a release keeps every event at that release queued together, so
/// where a flush falls never reorders same-timestamp work.
fn just_before(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(1))
}

/// Pick the failover target: least-loaded healthy node, lowest index on
/// ties, preferring nodes other than the one the attempt failed on. With
/// nothing else alive the handoff goes back to `from` (it queues there
/// until the restart), and with the whole cluster down liveness is
/// ignored.
fn failover_target(views: &[NodeView], from: u16) -> u16 {
    let pick = |pred: &dyn Fn(usize) -> bool| {
        (0..views.len())
            .filter(|&n| pred(n))
            .min_by_key(|&n| (views[n].backlog, n))
            .map(|n| n as u16)
    };
    pick(&|n| views[n].alive && n as u16 != from)
        .or_else(|| pick(&|n| views[n].alive))
        .or_else(|| pick(&|_| true))
        .expect("cluster needs at least one node")
}

/// What every node of a run is built from.
struct Nodes<'a> {
    catalogue: &'a Catalogue,
    mode: &'a NodeMode,
    cfg: &'a ClusterConfig,
    weights: &'a WeightTable,
    faults: &'a FaultSpec,
    sim_seed: u64,
}

/// One node of the loop: its simulator and what the controller has
/// routed to it but not yet handed over.
struct Lane<'a> {
    sim: NodeSim<'a>,
    batch: Vec<Call>,
    handoffs: Vec<Handoff>,
    /// Largest batch handed over so far.
    peak_batch: u64,
}

impl Lane<'_> {
    fn take_batch(&mut self) {
        if !self.batch.is_empty() {
            self.peak_batch = self.peak_batch.max(self.batch.len() as u64);
            self.sim.inject(&self.batch);
            self.batch.clear();
        }
    }
}

impl Nodes<'_> {
    /// The window loop (see the module docs). `arrivals` must be sorted by
    /// `(release, id)`; every node takes `warmup` before the first window;
    /// `chunk` (trace sources only) bounds each node's pending batch.
    fn run(
        self,
        arrivals: &mut dyn Iterator<Item = Call>,
        warmup: &[Call],
        chunk: Option<usize>,
    ) -> Vec<NodeResult> {
        let cfg = self.cfg;
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        assert!(
            !cfg.failover || cfg.lookahead < SimDuration::MAX,
            "failover handoffs are delivered at window barriers: a finite \
             lookahead is required"
        );
        let mut lanes: Vec<Lane> = node_seeds(self.sim_seed, cfg.nodes)
            .into_iter()
            .map(|(node, node_seed)| {
                let mut sim = NodeSim::new(
                    self.catalogue,
                    self.mode,
                    &cfg.node,
                    self.weights,
                    self.faults,
                    node_seed,
                    node,
                    cfg.failover,
                );
                sim.inject(warmup);
                Lane {
                    sim,
                    batch: Vec::new(),
                    handoffs: Vec::new(),
                    peak_batch: 0,
                }
            })
            .collect();
        let mut arrivals = arrivals.peekable();
        let mut router = Router::new(cfg.lb);
        // The controller's view: each node's backlog at the last barrier
        // plus the calls routed there since, and its last liveness.
        let mut views = vec![
            NodeView {
                backlog: 0,
                alive: true,
                dominant_milli: 0,
            };
            cfg.nodes as usize
        ];
        // Collected but undelivered handoffs, popped in (due, call id)
        // order, ties in collection order (warm-up ids repeat per node).
        let mut pending: BTreeMap<(SimTime, CallId, u64), Handoff> = BTreeMap::new();
        let mut collected = 0u64;
        let mut barrier = SimTime::ZERO;

        loop {
            let t = lanes
                .iter()
                .filter_map(|l| l.sim.next_event_time())
                .chain(arrivals.peek().map(|c| c.release))
                .chain(pending.keys().next().map(|&(due, ..)| due))
                .min();
            let Some(t) = t else { break };
            let horizon = t + cfg.lookahead; // saturates at SimTime::MAX

            // 1. Route this window's arrivals; batches stay sorted because
            // arrivals come in (release, id) order.
            while let Some(call) = arrivals.next_if(|c| c.release <= horizon) {
                let node = router.route(&call, &views) as usize;
                views[node].backlog += 1;
                lanes[node].batch.push(call);
                if chunk.is_some_and(|c| lanes[node].batch.len() >= c) {
                    // Stop short of the earliest pending handoff: it is
                    // delivered at this window's barrier, not before.
                    let limit = pending
                        .keys()
                        .next()
                        .map_or(SimTime::MAX, |&(due, ..)| just_before(due.max(barrier)));
                    let _: Vec<()> = lanes
                        .par_iter_mut()
                        .map(|l| {
                            if let Some(first) = l.batch.first() {
                                l.sim.advance_to(just_before(first.release).min(limit));
                                l.take_batch();
                            }
                        })
                        .collect();
                }
            }

            // 2. Pick each due handoff's target on the routed view.
            while let Some(entry) = pending.first_entry() {
                if entry.key().0 > horizon {
                    break;
                }
                let h = entry.remove();
                let target = failover_target(&views, h.from) as usize;
                views[target].backlog += 1;
                lanes[target].handoffs.push(h);
            }

            // 3. Barrier: the only parallel section of a window. Each lane
            // is self-contained and the chunked pool preserves order, so
            // the snapshots are thread-count invariant.
            let progress: Vec<NodeProgress> = lanes
                .par_iter_mut()
                .map(|l| {
                    l.take_batch();
                    for h in l.handoffs.drain(..) {
                        // Never into a window that already ran.
                        l.sim.inject_handoff(&h, h.due.max(barrier));
                    }
                    l.sim.advance_to(horizon)
                })
                .collect();
            for (v, p) in views.iter_mut().zip(&progress) {
                *v = NodeView {
                    backlog: p.backlog(),
                    alive: p.alive,
                    dominant_milli: p.dominant_milli,
                };
            }

            // 4. Collect failover outboxes.
            for l in lanes.iter_mut() {
                for h in l.sim.take_handoffs() {
                    pending.insert((h.due, h.call.id, collected), h);
                    collected += 1;
                }
            }
            barrier = horizon;
        }

        assert!(pending.is_empty(), "every handoff was delivered");
        lanes
            .into_iter()
            .map(|l| {
                let mut r = l.sim.finish();
                if chunk.is_some() {
                    r.peak_resident_calls = l.peak_batch;
                }
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::LoadBalancer;
    use faas_core::{Policy, SchedulerConfig};
    use faas_invoker::NodeConfig;
    use faas_workload::arrival::ArrivalSpec;
    use faas_workload::mix::MixSpec;
    use faas_workload::synth::{SynthSpec, SyntheticTrace};
    use faas_workload::trace_source::TraceSpec;
    use faas_workload::weight::WeightSpec;

    fn catalogue() -> Catalogue {
        Catalogue::sebs()
    }

    fn scenario(per_function: usize, seed: u64) -> ClusterScenario {
        ClusterScenario::generate(&catalogue(), per_function, SimDuration::from_secs(60), seed)
    }

    #[test]
    fn burst_is_shared_across_node_counts() {
        // The same scenario object is reused for 1-4 nodes; its burst is
        // by construction identical (the paper sends the same sequence).
        let sc = scenario(12, 2);
        let cat = catalogue();
        let cfg1 = ClusterConfig::independent(1, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let cfg2 = ClusterConfig { nodes: 2, ..cfg1 };
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r1 = run_cluster(&cat, &sc, &mode, &cfg1, 3);
        let r2 = run_cluster(&cat, &sc, &mode, &cfg2, 3);
        assert_eq!(
            r1.outcomes.iter().filter(|o| o.is_measured()).count(),
            r2.outcomes.iter().filter(|o| o.is_measured()).count(),
        );
    }

    #[test]
    fn every_measured_call_served_once() {
        let sc = scenario(12, 3);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let r = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 4);
        let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
        assert_eq!(measured.len(), sc.burst.len());
        let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sc.burst.len(), "no duplicates");
    }

    #[test]
    fn outcomes_carry_node_indices() {
        let sc = scenario(12, 5);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(4, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo));
        let r = run_cluster(&cat, &sc, &mode, &cfg, 6);
        let nodes: std::collections::BTreeSet<u16> = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| o.node)
            .collect();
        assert_eq!(nodes.len(), 4, "all nodes serve traffic");
    }

    #[test]
    fn more_nodes_reduce_response_time() {
        let sc = scenario(30, 7);
        let cat = catalogue();
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let avg = |nodes: u16| {
            let cfg =
                ClusterConfig::independent(nodes, NodeConfig::paper(10), LoadBalancer::RoundRobin);
            let r = run_cluster(&cat, &sc, &mode, &cfg, 8);
            let v: Vec<f64> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| o.response_time().as_secs_f64())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let one = avg(1);
        let four = avg(4);
        assert!(
            four < one,
            "4 nodes ({four:.1}s) must beat 1 node ({one:.1}s)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = scenario(12, 9);
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let a = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 10);
        let b = run_cluster(&cat, &sc, &NodeMode::Baseline, &cfg, 10);
        assert_eq!(a.outcomes, b.outcomes);
    }

    fn streamed_spec(count: usize) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn streamed_round_robin_serves_every_call_once() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let r = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(132),
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            1,
            2,
        );
        let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
        assert_eq!(measured.len(), 132);
        let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 132, "no duplicates");
        // Stride assignment balances nodes exactly (132 = 3 x 44).
        for node in 0..3u16 {
            let n = measured.iter().filter(|o| o.node == node).count();
            assert_eq!(n, 44, "node {node}");
        }
    }

    #[test]
    fn streamed_is_deterministic() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let a = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(66),
            &mode,
            &cfg,
            &FaultSpec::none(),
            3,
            4,
        );
        let b = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(66),
            &mode,
            &cfg,
            &FaultSpec::none(),
            3,
            4,
        );
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn streamed_function_hash_serves_every_call_on_both_nodes() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let r = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(66),
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            5,
            6,
        );
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
        assert_eq!(measured, 66);
        let nodes: std::collections::BTreeSet<u16> = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| o.node)
            .collect();
        assert_eq!(nodes.len(), 2, "both nodes serve traffic");
    }

    #[test]
    fn streamed_scenario_seed_changes_workload_sim_seed_does_not() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let releases = |scen: u64, sim: u64| -> Vec<u64> {
            let r = run_cluster_streamed_coupled(
                &cat,
                &streamed_spec(66),
                &NodeMode::Baseline,
                &cfg,
                &FaultSpec::none(),
                scen,
                sim,
            );
            let mut v: Vec<u64> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| o.release.as_nanos())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(releases(1, 2), releases(1, 3), "sim seed leaves workload");
        assert_ne!(releases(1, 2), releases(9, 2), "scenario seed changes it");
    }

    #[test]
    fn streamed_weighted_spec_reaches_every_node() {
        // The weight axis plumbs through the streamed path: a tiered spec
        // still serves every call exactly once on every node, and changes
        // the baseline outcomes relative to uniform weights.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mut spec = streamed_spec(132);
        spec.weights = WeightSpec::paper_tiers();
        let weighted = run_cluster_streamed_coupled(
            &cat,
            &spec,
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            7,
            8,
        );
        let uniform = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(132),
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            7,
            8,
        );
        let measured = weighted.outcomes.iter().filter(|o| o.is_measured()).count();
        assert_eq!(measured, 132);
        assert_ne!(
            weighted.outcomes, uniform.outcomes,
            "tiered weights must shift baseline completions"
        );
        // Same calls, same releases: only the service schedule moved.
        let ids = |r: &NodeResult| {
            let mut v: Vec<u64> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| o.id.0)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&weighted), ids(&uniform));
    }

    #[test]
    fn streamed_weighted_function_hash_applies_weights() {
        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        // The tiered model includes a 0.5-core cap, which binds even on an
        // uncontended node (Zipf weights with unit caps only matter once
        // the run-queue oversubscribes the cores).
        let mut spec = streamed_spec(66);
        spec.weights = WeightSpec::paper_tiers();
        let weighted = run_cluster_streamed_coupled(
            &cat,
            &spec,
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            9,
            10,
        );
        let uniform = run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(66),
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            9,
            10,
        );
        assert_eq!(
            weighted.outcomes.iter().filter(|o| o.is_measured()).count(),
            66
        );
        assert_ne!(
            weighted.outcomes, uniform.outcomes,
            "weights must reach function-hash routed nodes"
        );
    }

    #[test]
    fn faulted_cluster_conserves_calls_and_reproduces_bit_for_bit() {
        // Crash worker 0 mid-burst on a 3-node streamed cluster: every
        // measured call either completes or is reported dropped, only node
        // 0 crashes, and a fixed seed reproduces the run exactly.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let spec = streamed_spec(660);
        let (_, burst_start) = warmup_waves(&cat);
        let mut faults = FaultSpec::crash_restart(21, burst_start, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
        let measured_drops = r.drops.iter().filter(|d| d.id.0 < 660).count();
        assert_eq!(
            measured + measured_drops,
            660,
            "cluster call conservation: completed XOR dropped"
        );
        assert_eq!(r.fault_stats.crashes, 1, "only node 0 crashes");
        assert!(r.fault_stats.crash_kills > 0);
        assert!(r.fault_stats.retries > 0);
        let again = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.drops, again.drops);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    fn fault_timelines_are_shard_invariant() {
        // Each worker's timeline derives from `(faults, node)` alone, so
        // degrading node 1 shows up identically under both static
        // policies (they route different calls, so only the fault
        // accounting is comparable).
        let cat = catalogue();
        let spec = streamed_spec(132);
        let (_, burst_start) = warmup_waves(&cat);
        let faults = FaultSpec::degradation(31, burst_start, SimDuration::from_secs(60));
        let run_with = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), lb);
            run_cluster_streamed_coupled(&cat, &spec, &NodeMode::Baseline, &cfg, &faults, 31, 32)
        };
        let stride = run_with(LoadBalancer::RoundRobin);
        let hash = run_with(LoadBalancer::FunctionHash);
        assert_eq!(
            stride.fault_stats.capacity_events, hash.fault_stats.capacity_events,
            "both policies replay the same capacity schedule"
        );
        assert!(stride.fault_stats.capacity_events > 0);
        assert!(stride.drops.is_empty() && hash.drops.is_empty());
    }

    fn crash_faults(seed: u64) -> FaultSpec {
        let (_, burst_start) = warmup_waves(&catalogue());
        let mut faults = FaultSpec::crash_restart(seed, burst_start, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        faults
    }

    #[test]
    fn faulted_materialized_run_matches_its_pre_refactor_digest() {
        // No public entry point runs a materialized scenario under faults,
        // so this pin drives the loop directly: the digest (outcomes,
        // drops, fault counters, served-work bits, as in
        // `tests/digest_pinning.rs`) was captured from the coupled engine
        // before the engines were folded together.
        let cat = catalogue();
        let sc = ClusterScenario::generate(&cat, 24, SimDuration::from_secs(60), 4);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
        let weights = WeightTable::uniform(cat.len());
        let nodes = Nodes {
            catalogue: &cat,
            mode: &NodeMode::Baseline,
            cfg: &cfg,
            weights: &weights,
            faults: &crash_faults(33),
            sim_seed: 3,
        };
        let warmup = sc.node_warmup(10, sc.burst.len() as u64);
        let r = NodeResult::merge(nodes.run(&mut sc.burst.iter().copied(), &warmup, None));
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                acc = (acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for o in &r.outcomes {
            for x in [
                o.id.0,
                o.func.0 as u64,
                o.is_measured() as u64,
                o.release.as_nanos(),
                o.invoker_receive.as_nanos(),
                o.exec_start.as_nanos(),
                o.exec_end.as_nanos(),
                o.completion.as_nanos(),
                o.processing.as_nanos(),
                o.start_kind as u64,
                o.node as u64,
            ] {
                eat(x);
            }
        }
        for d in &r.drops {
            let timed_out = matches!(d.reason, faas_workload::faults::DropReason::TimedOut);
            for x in [
                d.id.0,
                d.func.0 as u64,
                d.release.as_nanos(),
                d.node as u64,
                timed_out as u64,
                d.attempts as u64,
            ] {
                eat(x);
            }
        }
        let fs = r.fault_stats;
        for x in [
            fs.crashes,
            fs.capacity_events,
            fs.transient_failures,
            fs.crash_kills,
            fs.timeouts,
            fs.retries,
            fs.dropped,
            fs.failovers,
            r.served_cpu_secs.to_bits(),
            r.served_mem_units.to_bits(),
        ] {
            eat(x);
        }
        assert!(fs.crash_kills > 0 && fs.retries > 0, "the faults bite");
        assert_eq!(acc, 16856276605213020516);
    }

    #[test]
    fn finite_windows_conserve_calls_and_rerun_bit_identically() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(250), false);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
        assert_eq!(
            r.outcomes.iter().filter(|o| o.is_measured()).count(),
            264,
            "windowing must not lose calls"
        );
        let again =
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.peak_events, again.peak_events);
    }

    #[test]
    fn per_node_results_sum_to_the_merged_entry_point() {
        // The per-node variant is the same engine: node count of results,
        // and outcome counts / served work that merge to exactly what the
        // merged entry point reports, dominant routing included.
        let cat = catalogue();
        let mut spec = streamed_spec(132);
        spec.weights = WeightSpec::paper_tiers_mem();
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10).with_mem_bandwidth(8.0),
            LoadBalancer::JoinShortestDominant { seed: 11 },
        )
        .coupled(SimDuration::from_millis(250), false);
        let mode = NodeMode::Baseline;
        let per_node = run_cluster_streamed_coupled_per_node(
            &cat,
            &spec,
            &mode,
            &cfg,
            &FaultSpec::none(),
            5,
            6,
        );
        assert_eq!(per_node.len(), 3, "one result per node");
        let merged =
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 5, 6);
        assert_eq!(
            per_node.iter().map(|r| r.outcomes.len()).sum::<usize>(),
            merged.outcomes.len(),
            "outcomes partition across nodes"
        );
        let cpu: f64 = per_node.iter().map(|r| r.served_cpu_secs).sum();
        let mem: f64 = per_node.iter().map(|r| r.served_mem_units).sum();
        assert!((cpu - merged.served_cpu_secs).abs() < 1e-9);
        assert!((mem - merged.served_mem_units).abs() < 1e-9);
        assert!(mem > 0.0, "the memory-tiered spec exercises the mem axis");
    }

    #[test]
    fn coupled_runs_are_thread_count_invariant() {
        // The whole point of the conservative protocol: the schedule is a
        // pure function of (seed, lookahead), however many worker threads
        // advance the nodes. Serialized via the env-var lock inherent in
        // running this test in one process: set, run, restore.
        let cat = catalogue();
        let spec = streamed_spec(132);
        let cfg = ClusterConfig::independent(
            4,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 7 },
        )
        .coupled(SimDuration::from_millis(500), true);
        let faults = crash_faults(41);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let parallel = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 7, 8);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 7, 8);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(parallel.outcomes, serial.outcomes);
        assert_eq!(parallel.drops, serial.drops);
        assert_eq!(parallel.fault_stats, serial.fault_stats);
        assert_eq!(parallel.peak_events, serial.peak_events);
    }

    #[test]
    fn feedback_policies_route_every_call_and_differ_from_round_robin() {
        let cat = catalogue();
        let spec = streamed_spec(264);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 9, 10)
        };
        let rr = run(LoadBalancer::RoundRobin);
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let p2c = run(LoadBalancer::PowerOfTwoChoices { seed: 1 });
        for r in [&rr, &jsq, &p2c] {
            let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
            assert_eq!(measured.len(), 264);
            let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 264, "each call served exactly once");
            let nodes: std::collections::BTreeSet<u16> = measured.iter().map(|o| o.node).collect();
            assert_eq!(nodes.len(), 3, "every node serves traffic");
        }
        assert_ne!(rr.outcomes, jsq.outcomes, "JSQ must route differently");
        assert_ne!(
            jsq.outcomes, p2c.outcomes,
            "two probes differ from global min"
        );
    }

    #[test]
    fn dominant_share_policies_route_every_call_and_rerun_identically() {
        // The dominant-share feedback policies run the same window
        // protocol: every call resolves exactly once, every node serves
        // traffic, and reruns are bit-identical. With a memory-bandwidth
        // axis modeled the dominant signal carries real information (some
        // functions are bandwidth-heavy), so the routing may legitimately
        // differ from plain JSQ's.
        let cat = catalogue();
        let spec = streamed_spec(264);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let node = NodeConfig::paper(10).with_mem_bandwidth(4.0);
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, node, lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 9, 10)
        };
        for lb in [
            LoadBalancer::JoinShortestDominant { seed: 1 },
            LoadBalancer::PowerOfTwoDominant { seed: 1 },
        ] {
            let r = run(lb);
            let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
            assert_eq!(measured.len(), 264, "{lb:?}");
            let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 264, "{lb:?}: each call served exactly once");
            let nodes: std::collections::BTreeSet<u16> = measured.iter().map(|o| o.node).collect();
            assert_eq!(nodes.len(), 3, "{lb:?}: every node serves traffic");
            let again = run(lb);
            assert_eq!(r.outcomes, again.outcomes, "{lb:?} rerun");
        }
    }

    #[test]
    fn failover_moves_retries_across_nodes_and_conserves_calls() {
        // Crash node 0 mid-burst with a strict no-local-timeout policy:
        // killed attempts must resume on the surviving nodes, and every
        // call still resolves exactly once cluster-wide.
        let cat = catalogue();
        let spec = streamed_spec(660);
        let faults = crash_faults(21);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(500), true);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
        let measured_drops = r.drops.iter().filter(|d| d.id.0 < 660).count();
        assert_eq!(measured + measured_drops, 660, "cluster call conservation");
        assert!(r.fault_stats.failovers > 0, "crash kills must hand off");
        assert_eq!(r.fault_stats.crashes, 1);
        // A failed-over retry lands on a healthy node: node 0 crashed, so
        // some calls released to node 0's shard complete elsewhere.
        let moved = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured() && o.id.0 % 3 == 0 && o.node != 0)
            .count();
        assert!(moved > 0, "some node-0 calls must finish on other nodes");
        let again = run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &faults, 21, 22);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.fault_stats, again.fault_stats);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn failover_requires_a_finite_lookahead() {
        let cat = catalogue();
        let faults = crash_faults(5);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::MAX, true);
        run_cluster_streamed_coupled(
            &cat,
            &streamed_spec(22),
            &NodeMode::Baseline,
            &cfg,
            &faults,
            1,
            2,
        );
    }

    #[test]
    fn narrower_windows_only_change_feedback_schedules() {
        // With a static policy the routing is window-invariant, so any
        // lookahead yields the same assignment (the service schedule may
        // shift only through handoff timing — disabled here). Sanity: the
        // call-to-node mapping is identical across window widths.
        let cat = catalogue();
        let spec = streamed_spec(132);
        let mode = NodeMode::Baseline;
        let node_of = |lookahead: SimDuration| {
            let cfg =
                ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
                    .coupled(lookahead, false);
            let r =
                run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 3, 4);
            let mut v: Vec<(u64, u16)> = r
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| (o.id.0, o.node))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            node_of(SimDuration::from_millis(100)),
            node_of(SimDuration::MAX)
        );
    }

    fn synth(mean_rate: f64, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(
            &SynthSpec::azure(mean_rate, SimDuration::from_secs(60)),
            &catalogue(),
            SimTime::ZERO,
            seed,
        )
    }

    fn node_map(r: &NodeResult) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = r
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| (o.id.0, o.node))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn streamed_replay_serves_every_call_once_and_reruns_identically() {
        let cat = catalogue();
        let trace = synth(8.0, 3);
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 5, 64);
        let measured: Vec<_> = r.outcomes.iter().filter(|o| o.is_measured()).collect();
        assert_eq!(measured.len() as u64, trace.len());
        let mut ids: Vec<u64> = measured.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, trace.len(), "each call served once");
        assert!(measured.iter().all(|o| o.id.0 % 3 == o.node as u64));
        let again =
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 5, 64);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.peak_resident_calls, again.peak_resident_calls);
    }

    #[test]
    fn ingestion_windows_do_not_change_the_replay() {
        // Draining to just-before each window's first release keeps the
        // event schedule identical whatever the chunking — one window per
        // call, 64-call windows and inject-everything all agree.
        let cat = catalogue();
        let trace = synth(6.0, 7);
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let run = |chunk: usize| {
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 9, chunk)
        };
        let tiny = run(1);
        let medium = run(64);
        let whole = run(usize::MAX >> 8);
        assert_eq!(tiny.outcomes, medium.outcomes);
        assert_eq!(medium.outcomes, whole.outcomes);
    }

    #[test]
    fn coupled_replay_routes_feedback_policies() {
        let cat = catalogue();
        let trace = synth(8.0, 17);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |lb: LoadBalancer| {
            let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), lb)
                .coupled(SimDuration::from_millis(500), false);
            run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &FaultSpec::none(), 19, 64)
        };
        let jsq = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        let rr = run(LoadBalancer::RoundRobin);
        for r in [&jsq, &rr] {
            let measured = r.outcomes.iter().filter(|o| o.is_measured()).count();
            assert_eq!(measured as u64, trace.len());
        }
        assert_ne!(node_map(&jsq), node_map(&rr), "JSQ must route differently");
        let again = run(LoadBalancer::JoinShortestQueue { seed: 1 });
        assert_eq!(jsq.outcomes, again.outcomes);
    }

    #[test]
    fn peak_resident_calls_is_bounded_by_chunk_times_nodes() {
        // The acceptance bound: however long the trace, the ingestion
        // working set stays under chunk × nodes calls.
        let cat = catalogue();
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let chunk = 32usize;
        let bound = (chunk * 3) as u64;
        let mut peaks = Vec::new();
        for rate in [4.0, 16.0] {
            let trace = synth(rate, 23);
            let r = run_cluster_trace_streamed(
                &cat,
                &trace,
                &mode,
                &cfg,
                &FaultSpec::none(),
                25,
                chunk,
            );
            assert!(
                r.peak_resident_calls <= bound,
                "{} calls resident for a {}-call trace (bound {bound})",
                r.peak_resident_calls,
                trace.len()
            );
            assert!(r.peak_resident_calls > 0);
            peaks.push(r.peak_resident_calls);
        }
        assert_eq!(peaks[0], peaks[1], "residency is independent of length");
        // Windows wider than a batch flush inside the window: the bound
        // holds with coupled nodes too.
        let trace = synth(8.0, 23);
        let ccfg = cfg.coupled(SimDuration::from_secs(20), false);
        let r =
            run_cluster_trace_streamed(&cat, &trace, &mode, &ccfg, &FaultSpec::none(), 25, chunk);
        assert!(r.peak_resident_calls <= bound);
    }

    #[test]
    fn flushes_inside_a_window_do_not_change_a_coupled_replay() {
        // Feedback routing, failover and crashes with windows of ~100
        // calls: flushing every 4 calls per node (mid-window, around
        // undelivered handoffs) gives the run of one batch per window.
        let cat = catalogue();
        let trace = synth(10.0, 37);
        let mut faults = FaultSpec::crash_restart(5, SimTime::ZERO, SimDuration::from_secs(60));
        faults.transient_failure = 0.1;
        let cfg = ClusterConfig::independent(
            3,
            NodeConfig::paper(10),
            LoadBalancer::JoinShortestQueue { seed: 2 },
        )
        .coupled(SimDuration::from_secs(10), true);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let run = |chunk| run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &faults, 3, chunk);
        let (flushed, whole) = (run(4), run(trace.len() as usize));
        assert!(flushed.fault_stats.failovers > 0, "handoffs cross windows");
        assert!(flushed.peak_resident_calls <= 4 * 3);
        assert!(whole.peak_resident_calls > 4 * 3, "windows hold many calls");
        assert_eq!(flushed.outcomes, whole.outcomes);
        assert_eq!(flushed.drops, whole.drops);
        assert_eq!(flushed.fault_stats, whole.fault_stats);
    }

    #[test]
    fn run_cluster_source_dispatches_specs_and_traces() {
        use faas_workload::arrival::ArrivalSpec;
        use faas_workload::generate::WorkloadSpec;
        use faas_workload::mix::MixSpec;
        use faas_workload::weight::WeightSpec;

        let cat = catalogue();
        let cfg = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::RoundRobin);
        let mode = NodeMode::Baseline;
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: 66 },
            mix: MixSpec::Equal,
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        };
        // Spec sources are the streamed spec entry point.
        let via_source = run_cluster_source(
            &cat,
            &WorkloadSource::Spec(spec.clone()),
            &mode,
            &cfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("spec source");
        let direct =
            run_cluster_streamed_coupled(&cat, &spec, &mode, &cfg, &FaultSpec::none(), 1, 2);
        assert_eq!(via_source.outcomes, direct.outcomes);

        // Synthetic trace sources replay through the bounded engine.
        let synth_spec = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let trace = SyntheticTrace::new(&synth_spec, &cat, SimTime::ZERO, 1);
        let via_trace = run_cluster_source(
            &cat,
            &WorkloadSource::Trace(TraceSpec::Synthetic(synth_spec)),
            &mode,
            &cfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("synthetic source");
        assert_eq!(
            via_trace
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .count() as u64,
            trace.len()
        );
        assert!(via_trace.peak_resident_calls > 0);

        // Coupled nodes replay through the same bounded ingestion.
        let ccfg = cfg.coupled(SimDuration::from_millis(500), false);
        let synth_spec = SynthSpec::azure(6.0, SimDuration::from_secs(60));
        let via_coupled = run_cluster_source(
            &cat,
            &WorkloadSource::Trace(TraceSpec::Synthetic(synth_spec)),
            &mode,
            &ccfg,
            &FaultSpec::none(),
            1,
            2,
            64,
        )
        .expect("coupled source");
        assert!(via_coupled.peak_resident_calls <= 64 * 2);
        assert_eq!(
            via_coupled
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .count() as u64,
            trace.len()
        );
    }

    #[test]
    fn faulted_replay_conserves_calls_and_fails_over() {
        let cat = catalogue();
        let trace = synth(10.0, 29);
        let n = trace.len();
        let mut faults = FaultSpec::crash_restart(21, SimTime::ZERO, SimDuration::from_secs(60));
        faults.transient_failure = 0.05;
        let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin)
            .coupled(SimDuration::from_millis(500), true);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
        let r = run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &faults, 31, 64);
        let measured = r.outcomes.iter().filter(|o| o.is_measured()).count() as u64;
        let dropped = r.drops.len() as u64;
        assert_eq!(measured + dropped, n, "replay call conservation");
        assert_eq!(r.fault_stats.crashes, 1);
        let again = run_cluster_trace_streamed(&cat, &trace, &mode, &cfg, &faults, 31, 64);
        assert_eq!(r.outcomes, again.outcomes);
        assert_eq!(r.fault_stats, again.fault_stats);
    }
}
