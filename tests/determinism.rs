//! Reproducibility guarantees: every layer of the stack is bit-for-bit
//! deterministic given its seed, and sensitive to seed changes.

use faas_scheduling::prelude::*;

#[test]
fn single_node_runs_are_bit_reproducible() {
    let catalogue = Catalogue::sebs();
    for policy in [
        Policy::Fifo,
        Policy::Sept,
        Policy::Eect,
        Policy::Rect,
        Policy::FairChoice,
    ] {
        let scenario = BurstScenario::standard(10, 40).generate(&catalogue, 77);
        let node = NodeConfig::paper(10);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(policy));
        let a = simulate_scenario(&catalogue, &scenario, &mode, &node, 77);
        let b = simulate_scenario(&catalogue, &scenario, &mode, &node, 77);
        assert_eq!(a.outcomes, b.outcomes, "{policy:?} must be deterministic");
        assert_eq!(a.measured_pool_stats, b.measured_pool_stats);
        assert_eq!(a.peak_queue, b.peak_queue);
    }
}

#[test]
fn baseline_runs_are_bit_reproducible() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 60).generate(&catalogue, 78);
    let node = NodeConfig::paper(10);
    let a = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 78);
    let b = simulate_scenario(&catalogue, &scenario, &NodeMode::Baseline, &node, 78);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn different_seeds_change_outcomes() {
    let catalogue = Catalogue::sebs();
    let node = NodeConfig::paper(10);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept));
    let s1 = BurstScenario::standard(10, 30).generate(&catalogue, 1);
    let s2 = BurstScenario::standard(10, 30).generate(&catalogue, 2);
    let a = simulate_scenario(&catalogue, &s1, &mode, &node, 1);
    let b = simulate_scenario(&catalogue, &s2, &mode, &node, 2);
    assert_ne!(a.outcomes, b.outcomes);
}

#[test]
fn same_scenario_different_sim_seed_changes_service_times_only() {
    // The scenario fixes the call sequence; the simulation seed drives
    // service-time draws. Changing only the latter must keep the call set
    // identical but change timings.
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(5, 30).generate(&catalogue, 9);
    let node = NodeConfig::paper(5);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo));
    let a = simulate_scenario(&catalogue, &scenario, &mode, &node, 100);
    let b = simulate_scenario(&catalogue, &scenario, &mode, &node, 200);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.id, ob.id);
        assert_eq!(oa.func, ob.func);
        assert_eq!(oa.release, ob.release);
    }
    assert_ne!(a.outcomes, b.outcomes, "timings must differ");
}

#[test]
fn cluster_runs_are_reproducible() {
    let catalogue = Catalogue::sebs();
    let scenario = ClusterScenario::generate(&catalogue, 24, SimDuration::from_secs(60), 13);
    let cfg = ClusterConfig::independent(3, NodeConfig::paper(10), LoadBalancer::FunctionHash);
    let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice));
    let a = run_cluster(&catalogue, &scenario, &mode, &cfg, 13);
    let b = run_cluster(&catalogue, &scenario, &mode, &cfg, 13);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn scenario_generation_is_pure() {
    let catalogue = Catalogue::sebs();
    let a = BurstScenario::standard(20, 60).generate(&catalogue, 5);
    let b = BurstScenario::standard(20, 60).generate(&catalogue, 5);
    assert_eq!(a, b);
    let f1 = FairnessScenario::paper().generate(&catalogue, 5);
    let f2 = FairnessScenario::paper().generate(&catalogue, 5);
    assert_eq!(f1, f2);
}
