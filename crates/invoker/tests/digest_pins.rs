//! Pin the node simulators' output on the configurations the cluster pins
//! do not reach: pending timeouts on a starved node, capacity ramps, DRF
//! bandwidth, weighted GPS shares, an oversubscribed busy limit, and a
//! failover pair stepped through conservative windows.
//!
//! Every configuration is stepped through 250 ms `advance_to` windows and
//! the digest folds in each [`NodeProgress`] a window returns (the signals
//! feedback load balancers route on), so a change in event order, RNG
//! consumption, queue accounting or the progress view shows up as a
//! digest mismatch. Single-node configurations are also checked against
//! the run-to-completion entry point.

use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{
    simulate_calls_faulted, NodeConfig, NodeMode, NodeProgress, NodeResult, NodeSim,
};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::{DropReason, FaultSpec, RetryPolicy};
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::{Call, CallKind};
use faas_workload::weight::{WeightSpec, WeightTable};

const WINDOW: SimDuration = SimDuration::from_millis(250);

fn fnv1a(acc: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *acc = (*acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the fields the cluster digest pins hash, plus served work
/// and failovers.
fn fold_result(acc: &mut u64, r: &NodeResult) {
    for o in &r.outcomes {
        fnv1a(acc, o.id.0);
        fnv1a(acc, o.func.0 as u64);
        fnv1a(acc, matches!(o.kind, CallKind::Measured) as u64);
        fnv1a(acc, o.release.as_nanos());
        fnv1a(acc, o.invoker_receive.as_nanos());
        fnv1a(acc, o.exec_start.as_nanos());
        fnv1a(acc, o.exec_end.as_nanos());
        fnv1a(acc, o.completion.as_nanos());
        fnv1a(acc, o.processing.as_nanos());
        fnv1a(acc, o.start_kind as u64); // Warm 0, Prewarm 1, Cold 2
        fnv1a(acc, o.node as u64);
    }
    for d in &r.drops {
        fnv1a(acc, d.id.0);
        fnv1a(acc, d.func.0 as u64);
        fnv1a(acc, d.release.as_nanos());
        fnv1a(acc, d.node as u64);
        fnv1a(acc, matches!(d.reason, DropReason::TimedOut) as u64);
        fnv1a(acc, d.attempts as u64);
    }
    let fs = &r.fault_stats;
    for x in [
        fs.crashes,
        fs.capacity_events,
        fs.transient_failures,
        fs.crash_kills,
        fs.timeouts,
        fs.retries,
        fs.dropped,
        fs.failovers,
    ] {
        fnv1a(acc, x);
    }
    for x in [
        r.peak_queue as u64,
        r.peak_concurrency as u64,
        r.peak_events as u64,
        r.last_completion.as_nanos(),
        r.measured_pool_stats.warm_hits,
        r.measured_pool_stats.prewarm_hits,
        r.measured_pool_stats.cold_creates,
        r.measured_pool_stats.evictions,
        r.total_pool_stats.warm_hits,
        r.total_pool_stats.cold_creates,
        r.served_cpu_secs.to_bits(),
        r.served_mem_units.to_bits(),
    ] {
        fnv1a(acc, x);
    }
}

fn fold_progress(acc: &mut u64, p: &NodeProgress) {
    for x in [
        p.now.as_nanos(),
        p.next_event.map_or(u64::MAX, |t| t.as_nanos()),
        p.queue_depth as u64,
        p.inflight as u64,
        p.alive as u64,
        p.dominant_milli as u64,
        p.completed as u64,
        p.dropped as u64,
        p.handoffs as u64,
    ] {
        fnv1a(acc, x);
    }
}

fn digest_of(r: &NodeResult) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    fold_result(&mut acc, r);
    acc
}

/// One pinned configuration: `shards[k]` is node `k`'s call list.
struct Case<'a> {
    mode: NodeMode,
    cfg: NodeConfig,
    weights: WeightTable,
    faults: FaultSpec,
    seed: u64,
    burst_start: SimTime,
    shards: Vec<Vec<Call>>,
    failover: bool,
    cat: &'a Catalogue,
}

/// One node running a fault-free standard burst on the paper's node.
fn case(cat: &Catalogue, mode: NodeMode, cores: u32, intensity: u32, seed: u64) -> Case<'_> {
    let scenario = BurstScenario::standard(cores, intensity).generate(cat, seed);
    Case {
        mode,
        cfg: NodeConfig::paper(cores),
        weights: WeightTable::uniform(cat.len()),
        faults: FaultSpec::none(),
        seed,
        burst_start: scenario.burst_start,
        shards: vec![scenario.all_calls()],
        failover: false,
        cat,
    }
}

impl Case<'_> {
    /// Step every node through [`WINDOW`]-wide windows. After each window
    /// every handoff goes to the other node of a pair, delivered no
    /// earlier than the barrier. Returns the digest over every progress
    /// snapshot, every handoff and every node's result, plus the results.
    fn run_windowed(&self) -> (u64, Vec<NodeResult>) {
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        let mut nodes: Vec<NodeSim> = (0..self.shards.len())
            .map(|k| {
                NodeSim::new(
                    self.cat,
                    &self.mode,
                    &self.cfg,
                    &self.weights,
                    &self.faults,
                    self.seed + k as u64,
                    k as u16,
                    self.failover,
                )
            })
            .collect();
        for (node, shard) in nodes.iter_mut().zip(&self.shards) {
            node.inject(shard);
        }
        let mut horizon = SimTime::ZERO;
        while nodes.iter().any(|n| n.next_event_time().is_some()) {
            horizon += WINDOW;
            for node in nodes.iter_mut() {
                fold_progress(&mut acc, &node.advance_to(horizon));
            }
            let outboxes: Vec<_> = nodes.iter_mut().map(|n| n.take_handoffs()).collect();
            for (from, outbox) in outboxes.into_iter().enumerate() {
                for h in outbox {
                    fnv1a(&mut acc, h.call.id.0);
                    fnv1a(&mut acc, h.attempts as u64);
                    fnv1a(&mut acc, h.due.as_nanos());
                    let to = (from + 1) % nodes.len();
                    nodes[to].inject_handoff(&h, h.due.max(horizon));
                }
            }
        }
        let results: Vec<NodeResult> = nodes.into_iter().map(|n| n.finish()).collect();
        for r in &results {
            fold_result(&mut acc, r);
        }
        (acc, results)
    }

    /// The windowed digest; a single node must also match the
    /// run-to-completion entry point bit for bit.
    fn digest(&self) -> u64 {
        let (d, results) = self.run_windowed();
        if let [windowed] = results.as_slice() {
            let whole = simulate_calls_faulted(
                self.cat,
                &self.shards[0],
                &self.mode,
                &self.cfg,
                &self.weights,
                &self.faults,
                self.seed,
                0,
            );
            assert_eq!(digest_of(windowed), digest_of(&whole), "{:?}", self.mode);
        }
        d
    }
}

/// Tiny memory backs the queue up under a tight pending timeout.
fn starved(cat: &Catalogue, mode: NodeMode, max_attempts: u32) -> Case<'_> {
    let mut faults = FaultSpec::none();
    faults.retry = RetryPolicy {
        max_attempts,
        pending_timeout: Some(SimDuration::from_secs(5)),
        backoff_base: SimDuration::from_millis(200),
        ..RetryPolicy::standard()
    };
    Case {
        cfg: NodeConfig::paper(4).with_memory_mb(1024),
        faults,
        ..case(cat, mode, 4, 60, 18)
    }
}

fn degraded(cat: &Catalogue, mode: NodeMode) -> Case<'_> {
    let c = case(cat, mode, 10, 60, 15);
    let faults = FaultSpec::degradation(15, c.burst_start, SimDuration::from_secs(60));
    Case { faults, ..c }
}

fn tiers_mem(cat: &Catalogue, mode: NodeMode) -> Case<'_> {
    Case {
        cfg: NodeConfig::paper(10).with_mem_bandwidth(8.0),
        weights: WeightSpec::paper_tiers_mem().table(cat),
        ..case(cat, mode, 10, 60, 24)
    }
}

/// Two nodes splitting one burst by call parity; node 0 crashes under an
/// impatient retry policy and its failed attempts fail over to node 1.
fn failover_pair(cat: &Catalogue, mode: NodeMode) -> Case<'_> {
    let c = case(cat, mode, 10, 60, 31);
    let mut shards = vec![Vec::new(), Vec::new()];
    for &call in &c.shards[0] {
        shards[(call.id.0 % 2) as usize].push(call);
    }
    let faults = FaultSpec::crash_strict(31, c.burst_start, SimDuration::from_secs(60));
    Case {
        faults,
        shards,
        failover: true,
        ..c
    }
}

#[test]
fn node_outputs_match_their_pinned_digests() {
    let cat = Catalogue::sebs();
    let sched = |policy| NodeMode::Scheduled(SchedulerConfig::paper(policy));
    let (fifo, fc) = (sched(Policy::Fifo), sched(Policy::FairChoice));
    let base = NodeMode::Baseline;
    let cases = [
        starved(&cat, base, 1),
        starved(&cat, fifo, 1),
        starved(&cat, base, 3),
        starved(&cat, fifo, 3),
        degraded(&cat, base),
        degraded(&cat, sched(Policy::Sept)),
        tiers_mem(&cat, base),
        tiers_mem(&cat, fc),
        Case {
            weights: WeightSpec::paper_tiers_cgroup_lag().table(&cat),
            ..case(&cat, base, 10, 60, 25)
        },
        Case {
            cfg: NodeConfig::paper(5).with_busy_limit_factor(2.0),
            ..case(&cat, fifo, 5, 60, 21)
        },
        failover_pair(&cat, base),
        failover_pair(&cat, fc),
    ];
    // Captured before the two nodes were folded onto one runtime.
    let pinned = [
        ("starved/baseline", 9829553095319823930),
        ("starved/fifo", 12459491526498693575),
        ("starved-retry/baseline", 8727793784142749231),
        ("starved-retry/fifo", 5422691062690079390),
        ("degradation/baseline", 6044457600229271192),
        ("degradation/sept", 3777104901660530393),
        ("tiers-mem/baseline", 18127918910773680319),
        ("tiers-mem/fair-choice", 1930419037810856766),
        ("cgroup-lag/baseline", 1776354287581284365),
        ("busy-limit-2x/fifo", 4601557519657088597),
        ("failover-pair/baseline", 9995807812027420054),
        ("failover-pair/fair-choice", 4799575681818699397),
    ];
    let got: Vec<_> = pinned
        .iter()
        .zip(&cases)
        .map(|(&(name, _), c)| (name, c.digest()))
        .collect();
    assert_eq!(got, pinned);
}
