//! Per-run result collection.

use crate::pool::PoolStats;
use faas_simcore::time::SimTime;
use faas_workload::faults::DropReason;
use faas_workload::sebs::FuncId;
use faas_workload::trace::{CallId, CallOutcome};
use serde::{Deserialize, Serialize};

/// A call that never completed: every retry attempt was consumed (node
/// crash or transient failure on each) or the pending timeout fired on the
/// final attempt. Dropped calls are excluded from `outcomes` — latency
/// statistics describe goodput — and reported here with their reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DroppedCall {
    /// The call's id.
    pub id: CallId,
    /// Function invoked.
    pub func: FuncId,
    /// Release (arrival) time of the call.
    pub release: SimTime,
    /// Node that dropped it.
    pub node: u16,
    /// Why the call was given up on.
    pub reason: DropReason,
    /// Attempts consumed (equals the policy's `max_attempts` for
    /// [`DropReason::ExhaustedRetries`]).
    pub attempts: u32,
}

/// Robustness counters a faulted node simulation accumulates. All zero on
/// a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crash events processed.
    pub crashes: u64,
    /// Dynamic-capacity events processed (degradation and restoration).
    pub capacity_events: u64,
    /// Attempts whose response was lost to a transient failure.
    pub transient_failures: u64,
    /// In-flight attempts killed by a node crash.
    pub crash_kills: u64,
    /// Attempts abandoned by the pending timeout.
    pub timeouts: u64,
    /// Retry attempts scheduled (attempt ≥ 2 dispatches).
    pub retries: u64,
    /// Calls dropped (matches the length of [`NodeResult::drops`]).
    pub dropped: u64,
    /// Failed attempts handed off to another node for their retry
    /// (cross-node failover; always zero outside the coupled cluster
    /// engine). Counted on the node the attempt failed on.
    pub failovers: u64,
}

impl FaultStats {
    fn add(self, b: FaultStats) -> FaultStats {
        FaultStats {
            crashes: self.crashes + b.crashes,
            capacity_events: self.capacity_events + b.capacity_events,
            transient_failures: self.transient_failures + b.transient_failures,
            crash_kills: self.crash_kills + b.crash_kills,
            timeouts: self.timeouts + b.timeouts,
            retries: self.retries + b.retries,
            dropped: self.dropped + b.dropped,
            failovers: self.failovers + b.failovers,
        }
    }
}

/// Everything a node simulation produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeResult {
    /// One outcome per call (warm-up calls included, flagged by kind).
    pub outcomes: Vec<CallOutcome>,
    /// Container-pool statistics accumulated over the *measured* phase
    /// (from the first measured arrival on), which is what Fig. 2 counts.
    pub measured_pool_stats: PoolStats,
    /// Container-pool statistics over the whole run (warm-up included).
    pub total_pool_stats: PoolStats,
    /// Largest pending-queue length observed.
    pub peak_queue: usize,
    /// Largest number of simultaneously leased containers observed.
    pub peak_concurrency: usize,
    /// Largest number of live entries in the simulator's event queue. This
    /// is a simulator-health metric, not a modelled quantity: it bounds the
    /// event heap's memory and guards against stale-event buildup.
    pub peak_events: usize,
    /// Largest ingestion batch handed to the node in a trace-streamed run
    /// — the bounded-memory RSS proxy. The cluster engine hands a node its
    /// batch when the batch reaches `chunk` calls (a flush: every node
    /// takes its pending batch) or at a window barrier, so this never
    /// exceeds `chunk`. Zero for runs that materialize their call list up
    /// front. Unlike the other peaks, cluster merges *sum* this field: the
    /// cluster's resident set is the sum of its nodes' batches, which is
    /// what the `chunk × nodes` bound is stated against.
    pub peak_resident_calls: u64,
    /// Completion time of the last measured call.
    pub last_completion: SimTime,
    /// CPU work served by the node's processor model, in core-seconds.
    /// On the baseline node this is the GPS bank's completed work across
    /// every CPU phase (cold-start init, execution, warm-up included);
    /// on the scheduled node it is the intrinsic CPU work of completed
    /// executions. Cluster merges sum it.
    pub served_cpu_secs: f64,
    /// Memory-bandwidth work served, in bandwidth-unit-seconds. Zero
    /// whenever the memory axis is unmodeled
    /// (`NodeConfig::mem_bandwidth == 0.0`) or no task demanded it.
    /// Cluster merges sum it.
    pub served_mem_units: f64,
    /// Calls that never completed (fault runs only; empty otherwise).
    pub drops: Vec<DroppedCall>,
    /// Robustness counters (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

impl NodeResult {
    /// Outcomes of measured (non-warm-up) calls only.
    pub fn measured(&self) -> impl Iterator<Item = &CallOutcome> {
        self.outcomes.iter().filter(|o| o.is_measured())
    }

    /// Number of measured calls.
    pub fn measured_len(&self) -> usize {
        self.measured().count()
    }

    /// Cold starts among measured calls (what Fig. 2 reports).
    pub fn measured_cold_starts(&self) -> usize {
        self.measured().filter(|o| o.start_kind.is_cold()).count()
    }

    /// Fold `other` into `self` without allocating: outcome vectors are
    /// appended in place, pool stats summed, peaks and the last completion
    /// maxed (except `peak_resident_calls`, which sums — see its doc).
    /// The accumulated outcome order is unspecified until
    /// [`NodeResult::sort_outcomes`] is called.
    pub fn merge_from(&mut self, other: NodeResult) {
        self.outcomes.extend(other.outcomes);
        self.measured_pool_stats = add_stats(self.measured_pool_stats, other.measured_pool_stats);
        self.total_pool_stats = add_stats(self.total_pool_stats, other.total_pool_stats);
        self.peak_queue = self.peak_queue.max(other.peak_queue);
        self.peak_concurrency = self.peak_concurrency.max(other.peak_concurrency);
        self.peak_events = self.peak_events.max(other.peak_events);
        self.peak_resident_calls += other.peak_resident_calls;
        self.last_completion = self.last_completion.max(other.last_completion);
        self.served_cpu_secs += other.served_cpu_secs;
        self.served_mem_units += other.served_mem_units;
        self.drops.extend(other.drops);
        self.fault_stats = self.fault_stats.add(other.fault_stats);
    }

    /// Restore the canonical `(release, id)` outcome order after one or
    /// more [`NodeResult::merge_from`] calls.
    pub fn sort_outcomes(&mut self) {
        self.outcomes.sort_unstable_by_key(|o| (o.release, o.id));
        self.drops.sort_unstable_by_key(|d| (d.release, d.id));
    }

    /// Merge outcomes of several nodes (multi-node experiments).
    ///
    /// Merges in place into the first result — the only allocation is the
    /// one `reserve_exact` growing its outcome vector to the merged size,
    /// so grid/sweep experiments with thousands of runs do not reallocate
    /// per node.
    pub fn merge(results: Vec<NodeResult>) -> NodeResult {
        assert!(!results.is_empty(), "merge of zero results");
        let total: usize = results.iter().map(|r| r.outcomes.len()).sum();
        let mut iter = results.into_iter();
        let mut acc = iter.next().expect("non-empty");
        acc.outcomes.reserve_exact(total - acc.outcomes.len());
        for r in iter {
            acc.merge_from(r);
        }
        acc.sort_outcomes();
        acc
    }
}

fn add_stats(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        warm_hits: a.warm_hits + b.warm_hits,
        prewarm_hits: a.prewarm_hits + b.prewarm_hits,
        cold_creates: a.cold_creates + b.cold_creates,
        evictions: a.evictions + b.evictions,
        placement_failures: a.placement_failures + b.placement_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::time::SimDuration;
    use faas_workload::sebs::FuncId;
    use faas_workload::trace::{CallId, CallKind, ColdStartKind};

    fn outcome(id: u64, kind: CallKind, cold: ColdStartKind, node: u16) -> CallOutcome {
        let t = SimTime::from_secs(id);
        CallOutcome {
            id: CallId(id),
            func: FuncId(0),
            kind,
            release: t,
            invoker_receive: t,
            exec_start: t,
            exec_end: t + SimDuration::from_secs(1),
            completion: t + SimDuration::from_secs(1),
            processing: SimDuration::from_secs(1),
            start_kind: cold,
            node,
        }
    }

    fn result(outcomes: Vec<CallOutcome>) -> NodeResult {
        let last = outcomes
            .iter()
            .map(|o| o.completion)
            .max()
            .unwrap_or(SimTime::ZERO);
        NodeResult {
            outcomes,
            measured_pool_stats: PoolStats::default(),
            total_pool_stats: PoolStats::default(),
            peak_queue: 3,
            peak_concurrency: 2,
            peak_events: 5,
            peak_resident_calls: 7,
            last_completion: last,
            served_cpu_secs: 1.5,
            served_mem_units: 0.5,
            drops: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    #[test]
    fn measured_filters_warmup() {
        let r = result(vec![
            outcome(0, CallKind::Warmup, ColdStartKind::Cold, 0),
            outcome(1, CallKind::Measured, ColdStartKind::Warm, 0),
            outcome(2, CallKind::Measured, ColdStartKind::Cold, 0),
        ]);
        assert_eq!(r.measured_len(), 2);
        assert_eq!(r.measured_cold_starts(), 1, "warm-up colds excluded");
    }

    #[test]
    fn merge_combines_and_sorts() {
        let a = result(vec![outcome(3, CallKind::Measured, ColdStartKind::Warm, 0)]);
        let b = result(vec![outcome(1, CallKind::Measured, ColdStartKind::Warm, 1)]);
        let m = NodeResult::merge(vec![a, b]);
        assert_eq!(m.outcomes.len(), 2);
        assert_eq!(m.outcomes[0].id, CallId(1), "sorted by release");
        assert_eq!(m.last_completion, SimTime::from_secs(4));
        assert_eq!(m.peak_queue, 3);
    }

    #[test]
    #[should_panic(expected = "zero results")]
    fn merge_empty_panics() {
        NodeResult::merge(vec![]);
    }

    #[test]
    fn merge_from_accumulates_in_place() {
        let mut acc = result(vec![outcome(2, CallKind::Measured, ColdStartKind::Warm, 0)]);
        let extra = result(vec![outcome(1, CallKind::Measured, ColdStartKind::Cold, 1)]);
        acc.merge_from(extra);
        acc.sort_outcomes();
        assert_eq!(acc.outcomes.len(), 2);
        assert_eq!(acc.outcomes[0].id, CallId(1), "sorted after merge_from");
        assert_eq!(acc.last_completion, SimTime::from_secs(3));
        assert_eq!(acc.peak_events, 5, "event peak maxes across nodes");
        assert_eq!(
            acc.peak_resident_calls, 14,
            "resident peak sums across nodes"
        );
        assert_eq!(acc.served_cpu_secs, 3.0, "served CPU work sums");
        assert_eq!(acc.served_mem_units, 1.0, "served bandwidth work sums");
    }

    #[test]
    fn merge_accumulates_drops_and_fault_stats() {
        let drop = |id: u64, node: u16| DroppedCall {
            id: CallId(id),
            func: FuncId(0),
            release: SimTime::from_secs(id),
            node,
            reason: DropReason::ExhaustedRetries,
            attempts: 3,
        };
        let mut a = result(vec![outcome(0, CallKind::Measured, ColdStartKind::Warm, 0)]);
        a.drops.push(drop(7, 0));
        a.fault_stats.retries = 2;
        a.fault_stats.dropped = 1;
        let mut b = result(vec![outcome(1, CallKind::Measured, ColdStartKind::Warm, 1)]);
        b.drops.push(drop(3, 1));
        b.fault_stats.crashes = 1;
        b.fault_stats.dropped = 1;
        let m = NodeResult::merge(vec![a, b]);
        assert_eq!(m.drops.len(), 2);
        assert_eq!(m.drops[0].id, CallId(3), "drops sorted by release");
        assert_eq!(m.fault_stats.retries, 2);
        assert_eq!(m.fault_stats.crashes, 1);
        assert_eq!(m.fault_stats.dropped, 2);
    }

    #[test]
    fn merge_matches_pairwise_merge_from() {
        let a = result(vec![outcome(5, CallKind::Measured, ColdStartKind::Warm, 0)]);
        let b = result(vec![outcome(4, CallKind::Warmup, ColdStartKind::Cold, 1)]);
        let merged = NodeResult::merge(vec![a.clone(), b.clone()]);
        let mut manual = a;
        manual.merge_from(b);
        manual.sort_outcomes();
        assert_eq!(merged.outcomes, manual.outcomes);
        assert_eq!(merged.peak_events, manual.peak_events);
    }
}
