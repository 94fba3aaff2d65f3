//! Pin the cluster entry points to digests captured from earlier engines.
//!
//! The step-API refactor rebuilt both node simulators around resumable
//! `advance_to` loops, and the independent, coupled and trace-replay
//! cluster engines were later folded into one window loop. These digests
//! were captured before each change; any drift in event ordering, RNG
//! stream use or accounting shows up as a digest mismatch long before a
//! statistical test would notice.

use faas_cluster::{
    run_cluster, run_cluster_streamed_coupled, run_cluster_trace_streamed, ClusterConfig,
    ClusterScenario, LoadBalancer,
};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{NodeConfig, NodeMode, NodeResult};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::{DropReason, FaultSpec};
use faas_workload::mix::MixSpec;
use faas_workload::scenario::warmup_waves;
use faas_workload::sebs::Catalogue;
use faas_workload::synth::{SynthSpec, SyntheticTrace};
use faas_workload::trace::{CallKind, ColdStartKind};
use faas_workload::trace_source::TraceSource;
use faas_workload::weight::WeightSpec;
use faas_workload::WorkloadSpec;

fn fnv1a(acc: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *acc = (*acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over every field that the legacy engines produce: outcomes,
/// drops, fault stats, peaks and pool stats. Field order matters — this
/// must match the capture run exactly.
fn digest(r: &NodeResult) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for o in &r.outcomes {
        fnv1a(&mut acc, o.id.0);
        fnv1a(&mut acc, o.func.0 as u64);
        fnv1a(&mut acc, matches!(o.kind, CallKind::Measured) as u64);
        fnv1a(&mut acc, o.release.as_nanos());
        fnv1a(&mut acc, o.invoker_receive.as_nanos());
        fnv1a(&mut acc, o.exec_start.as_nanos());
        fnv1a(&mut acc, o.exec_end.as_nanos());
        fnv1a(&mut acc, o.completion.as_nanos());
        fnv1a(&mut acc, o.processing.as_nanos());
        let sk = match o.start_kind {
            ColdStartKind::Warm => 0u64,
            ColdStartKind::Prewarm => 1,
            ColdStartKind::Cold => 2,
        };
        fnv1a(&mut acc, sk);
        fnv1a(&mut acc, o.node as u64);
    }
    for d in &r.drops {
        fnv1a(&mut acc, d.id.0);
        fnv1a(&mut acc, d.func.0 as u64);
        fnv1a(&mut acc, d.release.as_nanos());
        fnv1a(&mut acc, d.node as u64);
        fnv1a(&mut acc, matches!(d.reason, DropReason::TimedOut) as u64);
        fnv1a(&mut acc, d.attempts as u64);
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
    ] {
        fnv1a(&mut acc, x);
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
    ] {
        fnv1a(&mut acc, x);
    }
    acc
}

fn spec(count: usize) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalSpec::Uniform { count },
        mix: MixSpec::Equal,
        weights: WeightSpec::Uniform,
        window: SimDuration::from_secs(60),
    }
}

/// Digests captured from the pre-refactor engines (commit f565ac7); see
/// each run below for the configuration behind a value.
const PINNED: [u64; 6] = [
    14642674751337349946,
    15214209751175753215,
    16958703615627671419,
    2236528332478866575,
    12442433899240915259,
    7411778174491961696,
];

#[test]
fn cluster_runs_match_their_pre_refactor_digests() {
    let cat = Catalogue::sebs();
    let fc = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let none = FaultSpec::none();
    let rr3 = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let rr1 = ClusterConfig { nodes: 1, ..rr3 };
    let fh2 = ClusterConfig::independent(2, NodeConfig::paper(10), LoadBalancer::FunctionHash);
    let run = |count: usize, mode: &NodeMode, cfg: &ClusterConfig, faults: &FaultSpec, seeds| {
        let (scenario_seed, sim_seed) = seeds;
        digest(&run_cluster_streamed_coupled(
            &cat,
            &spec(count),
            mode,
            cfg,
            faults,
            scenario_seed,
            sim_seed,
        ))
    };

    let d1 = run(132, &NodeMode::Baseline, &rr3, &none, (1, 2));
    let d2 = run(132, &fc, &rr3, &none, (1, 2));
    let sc = ClusterScenario::generate(&cat, 12, SimDuration::from_secs(60), 2);
    let d3 = digest(&run_cluster(&cat, &sc, &NodeMode::Baseline, &fh2, 3));
    let (_, burst_start) = warmup_waves(&cat);
    let mut faults = FaultSpec::crash_restart(21, burst_start, SimDuration::from_secs(60));
    faults.transient_failure = 0.05;
    let d4 = run(660, &fc, &rr3, &faults, (21, 22));
    let d5 = run(660, &NodeMode::Baseline, &rr3, &faults, (21, 22));
    let d6 = run(66, &fc, &rr1, &none, (5, 6));
    assert_eq!([d1, d2, d3, d4, d5, d6], PINNED);
}

/// FNV-1a over a run's observable behaviour: every outcome field, every
/// drop, the fault counters (failovers included) and the bits of the
/// served work. Peaks are left out: they depend on where ingestion
/// windows fall, not on what the cluster did.
fn behaviour_digest(r: &NodeResult) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for o in &r.outcomes {
        for x in [
            o.id.0,
            o.func.0 as u64,
            matches!(o.kind, CallKind::Measured) as u64,
            o.release.as_nanos(),
            o.invoker_receive.as_nanos(),
            o.exec_start.as_nanos(),
            o.exec_end.as_nanos(),
            o.completion.as_nanos(),
            o.processing.as_nanos(),
            o.start_kind as u64,
            o.node as u64,
        ] {
            fnv1a(&mut acc, x);
        }
    }
    for d in &r.drops {
        for x in [
            d.id.0,
            d.func.0 as u64,
            d.release.as_nanos(),
            d.node as u64,
            matches!(d.reason, DropReason::TimedOut) as u64,
            d.attempts as u64,
        ] {
            fnv1a(&mut acc, x);
        }
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
        r.served_cpu_secs.to_bits(),
        r.served_mem_units.to_bits(),
    ] {
        fnv1a(&mut acc, x);
    }
    acc
}

fn synth(seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(
        &SynthSpec::azure(8.0, SimDuration::from_secs(60)),
        &Catalogue::sebs(),
        SimTime::ZERO,
        seed,
    )
}

fn trace_faults() -> FaultSpec {
    let mut faults = FaultSpec::crash_restart(21, SimTime::ZERO, SimDuration::from_secs(60));
    faults.transient_failure = 0.05;
    faults
}

/// Trace-replay digests, captured before the cluster engines were folded
/// into one window loop (the independent and coupled trace engines).
const TRACE_PINNED: [u64; 10] = [
    11740953161297997647,
    12628662218544111592,
    11740953161297997647,
    12628662218544111592,
    11740953161297997647,
    12628662218544111592,
    12433579994156991158,
    17124542309105242162,
    14378080303011415999,
    1974648248669219372,
];

#[test]
fn trace_replays_match_their_pre_refactor_digests() {
    let cat = Catalogue::sebs();
    let fc = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let none = FaultSpec::none();
    let rr3 = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let trace = synth(0x7E57);
    let whole = trace.len() as usize;
    let mut got = Vec::new();
    let mut pin = |r: NodeResult| got.push(behaviour_digest(&r));

    // Round-robin at one call, 64 calls and the whole trace per window.
    for chunk in [1, 64, whole] {
        for mode in [&NodeMode::Baseline, &fc] {
            pin(run_cluster_trace_streamed(
                &cat, &trace, mode, &rr3, &none, 5, chunk,
            ));
        }
    }
    let fh3 = ClusterConfig {
        lb: LoadBalancer::FunctionHash,
        ..rr3
    };
    pin(run_cluster_trace_streamed(
        &cat, &trace, &fc, &fh3, &none, 5, 32,
    ));
    pin(run_cluster_trace_streamed(
        &cat,
        &trace,
        &fc,
        &rr3,
        &trace_faults(),
        7,
        64,
    ));
    let jsq = ClusterConfig {
        lb: LoadBalancer::JoinShortestQueue { seed: 3 },
        ..rr3
    }
    .coupled(SimDuration::from_millis(500), false);
    pin(run_cluster_trace_streamed(
        &cat, &trace, &fc, &jsq, &none, 9, 64,
    ));
    let failover = rr3.coupled(SimDuration::from_millis(500), true);
    pin(run_cluster_trace_streamed(
        &cat,
        &trace,
        &fc,
        &failover,
        &trace_faults(),
        11,
        64,
    ));

    assert_eq!(got, TRACE_PINNED);
}
