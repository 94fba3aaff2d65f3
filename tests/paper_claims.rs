//! Integration tests pinning the paper's headline claims, at reduced scale
//! so the suite stays fast. `experiments all` prints the full-scale
//! numbers.

use faas_scheduling::prelude::*;

fn run(
    catalogue: &Catalogue,
    scenario: &Scenario,
    mode: &NodeMode,
    cores: u32,
    seed: u64,
) -> NodeResult {
    simulate_scenario(catalogue, scenario, mode, &NodeConfig::paper(cores), seed)
}

fn avg_response(result: &NodeResult) -> f64 {
    let v: Vec<f64> = result
        .measured()
        .map(|o| o.response_time().as_secs_f64())
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn avg_stretch(result: &NodeResult, catalogue: &Catalogue) -> f64 {
    let v: Vec<f64> = result
        .measured()
        .map(|o| o.stretch(catalogue.spec(o.func).stretch_reference()))
        .collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// §I / §VII-A: "In a loaded system, our method decreases the average
/// response time by a factor of 4" (SEPT/FC vs baseline, aggregated).
#[test]
fn headline_average_response_improvement() {
    let catalogue = Catalogue::sebs();
    let mut ratios = Vec::new();
    for (cores, intensity) in [(10u32, 60u32), (20, 30)] {
        let scenario = BurstScenario::standard(cores, intensity).generate(&catalogue, 7);
        let base = run(&catalogue, &scenario, &NodeMode::Baseline, cores, 7);
        let fc = run(
            &catalogue,
            &scenario,
            &NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
            cores,
            7,
        );
        ratios.push(avg_response(&base) / avg_response(&fc));
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean_ratio > 2.0,
        "FC must beat the baseline severalfold under load, got {mean_ratio:.1}x"
    );
}

/// §I: "The improvement is even higher for shorter requests, as the average
/// stretch is decreased by a factor of 18."
#[test]
fn headline_stretch_improvement_exceeds_response_improvement() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 60).generate(&catalogue, 8);
    let base = run(&catalogue, &scenario, &NodeMode::Baseline, 10, 8);
    let fc = run(
        &catalogue,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
        10,
        8,
    );
    let response_gain = avg_response(&base) / avg_response(&fc);
    let stretch_gain = avg_stretch(&base, &catalogue) / avg_stretch(&fc, &catalogue);
    assert!(stretch_gain > response_gain, "short requests gain the most");
    assert!(stretch_gain > 10.0, "stretch gain {stretch_gain:.0}x");
}

/// Table II's flip: our FIFO completes the load *slower* than the baseline
/// on few cores at low intensity, but *faster* at 20 cores.
#[test]
fn completion_time_flip_with_core_count() {
    let catalogue = Catalogue::sebs();

    let ratio = |cores: u32, intensity: u32, seed: u64| {
        let scenario = BurstScenario::standard(cores, intensity).generate(&catalogue, seed);
        let fifo = run(
            &catalogue,
            &scenario,
            &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
            cores,
            seed,
        );
        let base = run(&catalogue, &scenario, &NodeMode::Baseline, cores, seed);
        let anchor = scenario.burst_start;
        fifo.last_completion.saturating_since(anchor).as_secs_f64()
            / base.last_completion.saturating_since(anchor).as_secs_f64()
    };

    // Paper Table II: 5 cores/intensity 30 -> 1.14-1.20 (FIFO slower).
    assert!(ratio(5, 30, 9) > 1.0, "baseline wins the 5-core race");
    // Paper Table II: 20 cores/intensity 60 -> 0.60-0.64 (FIFO faster).
    assert!(ratio(20, 60, 9) < 0.9, "our FIFO wins the 20-core race");
}

/// §VI / Fig. 2b: with the paper's container management and a 32 GiB pool,
/// warmed containers eliminate measured cold starts; OpenWhisk's greedy
/// creation does not.
#[test]
fn cold_start_contrast() {
    let catalogue = Catalogue::sebs();
    let scenario = BurstScenario::standard(10, 90).generate(&catalogue, 10);
    let ours = run(
        &catalogue,
        &scenario,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        10,
        10,
    );
    let base = run(&catalogue, &scenario, &NodeMode::Baseline, 10, 10);
    assert!(ours.measured_cold_starts() < 10);
    assert!(base.measured_cold_starts() > 200);
}

/// §IV: EECT prevents starvation — under sustained pressure from shorter
/// calls, a long call still executes within a bounded horizon; under SEPT
/// it waits until the pressure stops.
#[test]
fn eect_is_starvation_resistant_where_sept_is_not() {
    use faas_scheduling::workload::trace::CallId as Id;
    use faas_scheduling::workload::trace::{Call, CallKind};
    let catalogue = Catalogue::sebs();
    let dna = catalogue.by_name("dna-visualisation").unwrap();
    let bfs = catalogue.by_name("graph-bfs").unwrap();

    // Warm the estimator first (the warm-up dna completes by ~11 s) so
    // SEPT/EECT know dna is long, then release the measured long call at
    // t=30 together with an unbroken stream of short calls on a single
    // action core: strictly more short work per second than the core can
    // serve, so SEPT never reaches the long call until the stream ends.
    let mut calls = vec![
        Call {
            id: Id(1),
            func: dna,
            release: SimTime::ZERO,
            kind: CallKind::Warmup,
        },
        Call {
            id: Id(0),
            func: dna,
            release: SimTime::from_secs(30),
            kind: CallKind::Measured,
        },
    ];
    // The stream starts before the long call's release, so the node is
    // already backlogged with short work when the long call arrives.
    let mut t = SimTime::from_secs(20);
    for id in 2u64..2002 {
        t += SimDuration::from_millis(50);
        calls.push(Call {
            id: Id(id),
            func: bfs,
            release: t,
            kind: CallKind::Measured,
        });
    }
    calls.sort_by_key(|c| (c.release, c.id));

    let node = NodeConfig::paper(1);
    let wait_of_dna = |policy: Policy| {
        let result = simulate_calls(
            &catalogue,
            &calls,
            &NodeMode::Scheduled(SchedulerConfig::paper(policy)),
            &node,
            11,
            0,
        );
        let delay = result
            .measured()
            .find(|o| o.func == dna)
            .expect("dna call served")
            .invoker_delay();
        delay.as_secs_f64()
    };

    let sept_wait = wait_of_dna(Policy::Sept);
    let eect_wait = wait_of_dna(Policy::Eect);
    // EECT's bound: calls received after r'(dna) + E(p(dna)) cannot pass
    // it, so its wait is capped by the backlog present at that cutoff
    // (~150 s of short work here) regardless of how long the stream runs.
    assert!(
        eect_wait < 200.0,
        "EECT wait must stay bounded, waited {eect_wait:.1}s"
    );
    // SEPT starves the long call until the whole stream drains.
    assert!(
        sept_wait > 2.0 * eect_wait,
        "SEPT wait {sept_wait:.1}s vs EECT {eect_wait:.1}s"
    );
}

/// §VIII: FC on 3 workers beats the baseline on 4 workers for the same
/// fixed load — the paper's headline configuration (18-core workers, 2376
/// total requests).
#[test]
fn fc_on_three_nodes_beats_baseline_on_four() {
    let catalogue = Catalogue::sebs();
    let scenario = ClusterScenario::generate(
        &catalogue,
        216, // 2376 requests total, as in SSVIII
        SimDuration::from_secs(60),
        12,
    );
    let run_cfg = |nodes: u16, mode: &NodeMode| {
        let cfg =
            ClusterConfig::independent(nodes, NodeConfig::paper(18), LoadBalancer::RoundRobin);
        let result = run_cluster(&catalogue, &scenario, mode, &cfg, 12);
        let v: Vec<f64> = result
            .outcomes
            .iter()
            .filter(|o| o.is_measured())
            .map(|o| o.response_time().as_secs_f64())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let base4 = run_cfg(4, &NodeMode::Baseline);
    let fc3 = run_cfg(
        3,
        &NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
    );
    assert!(
        fc3 < base4,
        "FC on 3 nodes ({fc3:.1}s) must beat baseline on 4 ({base4:.1}s)"
    );
}
