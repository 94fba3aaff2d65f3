//! End-to-end integration tests: scenario generation → node simulation →
//! metric aggregation, across crate boundaries.

use faas_scheduling::metrics::summary::RunSummary;
use faas_scheduling::prelude::*;

fn avg_response(result: &NodeResult) -> f64 {
    let v: Vec<f64> = result
        .measured()
        .map(|o| o.response_time().as_secs_f64())
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn full_pipeline_produces_consistent_summaries() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 30).generate(&catalogue, 1);
    let node = NodeConfig::paper(10);
    let result = simulate_scenario(
        &catalogue,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        &node,
        1,
    );
    assert_eq!(result.measured_len(), scenario.measured_len());

    let outcomes: Vec<&CallOutcome> = result.measured().collect();
    let summary = RunSummary::from_outcomes(&outcomes, &catalogue, scenario.burst_start);
    // Percentiles are internally consistent.
    let r = summary.response;
    assert!(r.p50 <= r.p75 && r.p75 <= r.p95 && r.p95 <= r.p99 && r.p99 <= r.max);
    // The mean response matches a direct computation.
    assert!((r.mean - avg_response(&result)).abs() < 1e-9);
    // Every completion fits below the recorded last completion.
    for o in &outcomes {
        assert!(o.completion <= result.last_completion);
    }
}

#[test]
fn causality_holds_for_every_call_and_strategy() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(5, 40).generate(&catalogue, 2);
    let node = NodeConfig::paper(5);
    let modes = [
        NodeMode::Baseline,
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Eect)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Rect)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
    ];
    for mode in &modes {
        let result = simulate_scenario(&catalogue, &scenario, mode, &node, 2);
        for o in &result.outcomes {
            assert!(o.invoker_receive >= o.release, "request hop is positive");
            assert!(o.exec_start >= o.invoker_receive, "no time travel to exec");
            assert!(o.exec_end >= o.exec_start, "execution takes time");
            assert!(o.completion >= o.exec_end, "response hop is positive");
            assert!(!o.processing.is_zero(), "processing time drawn");
        }
    }
}

#[test]
fn conservation_every_generated_call_is_answered_exactly_once() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 60).generate(&catalogue, 3);
    let node = NodeConfig::paper(10);
    for mode in [
        NodeMode::Baseline,
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
    ] {
        let result = simulate_scenario(&catalogue, &scenario, &mode, &node, 3);
        let calls = scenario.all_calls();
        assert_eq!(result.outcomes.len(), calls.len());
        let mut seen = std::collections::BTreeSet::new();
        for (o, c) in result.outcomes.iter().zip(&calls) {
            assert_eq!(o.id, c.id);
            assert_eq!(o.func, c.func);
            assert!(seen.insert(o.id), "duplicate outcome for {:?}", o.id);
        }
    }
}

#[test]
fn per_function_counts_survive_the_pipeline() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 30).generate(&catalogue, 4);
    let node = NodeConfig::paper(10);
    let result = simulate_scenario(
        &catalogue,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Rect)),
        &node,
        4,
    );
    for func in catalogue.ids() {
        let n = result.measured().filter(|o| o.func == func).count();
        assert_eq!(n, 30, "function {func:?} must keep its 30 calls");
    }
}

#[test]
fn cluster_and_single_node_agree_on_one_worker() {
    // A 1-node cluster must behave exactly like the node simulation it
    // wraps (same calls, same seed derivation modulo the cluster's seed
    // scrambling — so compare structure, not exact times).
    let catalogue = Catalogue::sebs();
    let scenario = ClusterScenario::generate(&catalogue, 12, SimDuration::from_secs(60), 5);
    let cfg = ClusterConfig::independent(1, NodeConfig::paper(10), LoadBalancer::RoundRobin);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept));
    let result = run_cluster(&catalogue, &scenario, &mode, &cfg, 5);
    let measured: Vec<&CallOutcome> = result.outcomes.iter().filter(|o| o.is_measured()).collect();
    assert_eq!(measured.len(), scenario.burst.len());
    assert!(measured.iter().all(|o| o.node == 0));
}

#[test]
fn stretch_and_response_are_coupled_through_the_reference() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(5, 30).generate(&catalogue, 6);
    let node = NodeConfig::paper(5);
    let result = simulate_scenario(
        &catalogue,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        &node,
        6,
    );
    for o in result.measured() {
        let reference = catalogue.spec(o.func).stretch_reference();
        let stretch = o.stretch(reference);
        let expected = o.response_time().as_secs_f64() / reference.as_secs_f64();
        assert!((stretch - expected).abs() < 1e-12);
    }
}
