//! Integration tests of cluster-level trace replay: rerun identity,
//! thread-count invariance, ingestion-window invariance, and the
//! bounded-working-set contract, with independent and coupled nodes.

use faas_cluster::{run_cluster_trace_streamed, ClusterConfig, LoadBalancer};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{NodeConfig, NodeMode, NodeResult};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::{SynthSpec, SyntheticTrace};
use faas_workload::trace_source::TraceSource;
use proptest::prelude::*;

fn trace(catalogue: &Catalogue, rate: f64, secs: u64, seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(
        &SynthSpec::azure(rate, SimDuration::from_secs(secs)),
        catalogue,
        SimTime::ZERO,
        seed,
    )
}

fn fc_mode() -> NodeMode {
    NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice))
}

/// Every outcome-visible field the replay engines produce.
fn assert_same_result(a: &NodeResult, b: &NodeResult) {
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.peak_events, b.peak_events);
    assert_eq!(a.peak_resident_calls, b.peak_resident_calls);
}

#[test]
fn streamed_replay_is_thread_invariant() {
    let cat = Catalogue::sebs();
    let t = trace(&cat, 8.0, 60, 0x7A11);
    let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let parallel =
        run_cluster_trace_streamed(&cat, &t, &fc_mode(), &cfg, &FaultSpec::none(), 5, 64);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_cluster_trace_streamed(&cat, &t, &fc_mode(), &cfg, &FaultSpec::none(), 5, 64);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_same_result(&parallel, &serial);
    assert_eq!(parallel.outcomes.len() as u64, t.len());
}

#[test]
fn coupled_replay_is_thread_invariant() {
    let cat = Catalogue::sebs();
    let t = trace(&cat, 8.0, 60, 0x7A12);
    let cfg = ClusterConfig::independent(
        3,
        NodeConfig::paper(10),
        LoadBalancer::JoinShortestQueue { seed: 7 },
    )
    .coupled(SimDuration::from_millis(500), false);
    let parallel =
        run_cluster_trace_streamed(&cat, &t, &fc_mode(), &cfg, &FaultSpec::none(), 5, 64);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_cluster_trace_streamed(&cat, &t, &fc_mode(), &cfg, &FaultSpec::none(), 5, 64);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_same_result(&parallel, &serial);
    assert_eq!(parallel.outcomes.len() as u64, t.len());
}

proptest! {
    // Each case replays a few hundred calls through a full cluster sim;
    // keep the case count in the tens.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ingestion window is invisible: any chunk size produces the
    /// same outcomes as paging a node's whole shard at once, every call
    /// is served exactly once, and the working set stays within
    /// chunk × nodes.
    #[test]
    fn replay_is_window_invariant_and_conserves_calls(
        seed in any::<u64>(),
        chunk in 1usize..200,
        nodes in 1u16..5
    ) {
        let cat = Catalogue::sebs();
        let t = trace(&cat, 6.0, 30, seed);
        let cfg = ClusterConfig::independent(
            nodes,
            NodeConfig::paper(10),
            LoadBalancer::RoundRobin,
        );
        let windowed =
            run_cluster_trace_streamed(&cat, &t, &fc_mode(), &cfg, &FaultSpec::none(), 5, chunk);
        let whole = run_cluster_trace_streamed(
            &cat,
            &t,
            &fc_mode(),
            &cfg,
            &FaultSpec::none(),
            5,
            t.len().max(1) as usize,
        );
        prop_assert_eq!(&windowed.outcomes, &whole.outcomes);
        let mut ids: Vec<u64> = windowed.outcomes.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..t.len()).collect::<Vec<u64>>());
        prop_assert!(
            windowed.peak_resident_calls <= (chunk as u64) * nodes as u64,
            "working set {} vs bound {}",
            windowed.peak_resident_calls,
            chunk * nodes as usize
        );
    }
}
