//! The values the resumable step API exchanges with the cluster engine:
//! the [`NodeProgress`] snapshot every `advance_to` window returns, and
//! the [`Handoff`] a failed attempt leaves a node as under cross-node
//! failover. The lifecycle contract of [`crate::NodeSim`] and the failover
//! semantics are documented once, in the `runtime` module.

use faas_simcore::time::SimTime;
use faas_workload::trace::Call;

/// Snapshot returned by every `advance_to` call: what the load balancer is
/// allowed to observe about a node between windows (plus simulator-health
/// counters for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeProgress {
    /// The node's clock: timestamp of the last event processed (never past
    /// the horizon).
    pub now: SimTime,
    /// Timestamp of the earliest still-queued event, `None` when the node
    /// is fully drained.
    pub next_event: Option<SimTime>,
    /// Calls waiting in the node's pending structure (baseline FIFO /
    /// scheduled priority queue). The scheduled queue reaps stale entries
    /// lazily, so under faults this is an upper bound — exactly the noisy
    /// signal a real controller polls.
    pub queue_depth: usize,
    /// Calls currently holding a container (admitted, not yet cleaned up).
    pub inflight: usize,
    /// False between a crash and its restart.
    pub alive: bool,
    /// Dominant-share resource consumption at the last snapshot, in
    /// thousandths: the maximum over modeled resource axes (CPU always;
    /// memory bandwidth when [`crate::NodeConfig::mem_bandwidth`] is set)
    /// of `consumption / capacity`, rounded to milli-units. Integer so the
    /// snapshot stays `Eq`-comparable; `1000` means some axis is
    /// saturated, and values above `1000` are possible transiently on the
    /// scheduled node (queued work oversubscribing the busy limit).
    pub dominant_milli: u32,
    /// Outcomes written so far.
    pub completed: usize,
    /// Calls dropped so far.
    pub dropped: usize,
    /// Handoffs waiting in the node's outbox.
    pub handoffs: usize,
}

impl NodeProgress {
    /// The queue-depth signal feedback balancers route on: queued plus
    /// in-flight calls — the node's total backlog.
    pub fn backlog(&self) -> usize {
        self.queue_depth + self.inflight
    }
}

/// A call leaving a node for cross-node failover: one failed attempt's
/// retry, redirected to another node by the cluster engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Handoff {
    /// The call to re-deliver (original id, func and release).
    pub call: Call,
    /// Attempts consumed so far (the receiving node continues the count).
    pub attempts: u32,
    /// When the retry backoff expires: the earliest instant the next
    /// attempt may be dispatched.
    pub due: SimTime,
    /// Node the attempt failed on.
    pub from: u16,
}
