//! Fig. 6 / Tables V & VI reproduction: multi-node experiments.
//!
//! §VIII: a fixed total load (1320 requests for 10-core workers, 2376 for
//! 18-core workers, uniform over 60 s) is served by 4, 3, 2 or 1 workers
//! under the baseline and under Fair-Choice. The paper's headline: FC on
//! 3 VMs provides better response-time statistics than the baseline on
//! 4 VMs.

use crate::Effort;
use faas_cluster::{run_cluster, run_cluster_source, ClusterConfig, ClusterScenario, LoadBalancer};
use faas_core::{Policy, SchedulerConfig};
use faas_invoker::{NodeConfig, NodeMode};
use faas_metrics::compare::{self, Strategy};
use faas_metrics::summary::MetricSummary;
use faas_metrics::table::{fmt_secs, TextTable};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace_source::WorkloadSource;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One multi-node configuration result (a Table V row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Number of worker nodes.
    pub nodes: u16,
    /// Action cores per node.
    pub cpus_per_node: u32,
    /// Per-core intensity implied by the fixed load.
    pub intensity: u32,
    /// Strategy (baseline or FC, as in the paper).
    pub strategy: Strategy,
    /// Response-time statistics pooled over seeds (seconds).
    pub response: MetricSummary,
    /// Maximum completion time relative to burst start (seconds).
    pub max_completion: f64,
    /// Per-seed average response times (Table VI granularity).
    pub per_seed_avg: Vec<f64>,
    /// Sim health: largest pending-queue length over all nodes and seeds.
    pub peak_queue: usize,
    /// Sim health: largest live event-heap size over all nodes and seeds.
    pub peak_events: usize,
}

/// The multi-node result set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// All rows.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Look up a row.
    pub fn row(&self, nodes: u16, cpus: u32, strategy: Strategy) -> Option<&Fig6Row> {
        self.rows
            .iter()
            .find(|r| r.nodes == nodes && r.cpus_per_node == cpus && r.strategy == strategy)
    }
}

/// Run the multi-node experiments for both node sizes of the paper.
pub fn run(effort: Effort) -> Fig6Result {
    let catalogue = Catalogue::sebs();
    let seeds = effort.seed_set();
    // (cores per node, calls per function for the fixed load): 10-core
    // experiment sends 1320 = 11 x 120, 18-core sends 2376 = 11 x 216.
    let node_sizes: &[(u32, usize)] = if effort.quick {
        &[(10, 120)]
    } else {
        &[(10, 120), (18, 216)]
    };
    let node_counts: &[u16] = if effort.quick { &[4, 1] } else { &[4, 3, 2, 1] };

    let cases: Vec<(u32, usize, u16, Strategy)> = node_sizes
        .iter()
        .flat_map(|&(cores, per_func)| {
            node_counts.iter().flat_map(move |&n| {
                [Strategy::Baseline, Strategy::Fc]
                    .into_iter()
                    .map(move |s| (cores, per_func, n, s))
            })
        })
        .collect();

    let rows: Vec<Fig6Row> = cases
        .par_iter()
        .map(|&(cores, per_func, nodes, strategy)| {
            let mode = match strategy {
                Strategy::Baseline => NodeMode::Baseline,
                Strategy::Fc => NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
                _ => unreachable!("the paper's SSVIII uses baseline and FC only"),
            };
            let cfg = ClusterConfig::independent(
                nodes,
                NodeConfig::paper(cores),
                LoadBalancer::RoundRobin,
            );
            let mut pooled: Vec<f64> = Vec::new();
            let mut per_seed_avg = Vec::new();
            let mut max_completion: f64 = 0.0;
            let mut peak_queue = 0usize;
            let mut peak_events = 0usize;
            for &seed in seeds {
                let scenario = ClusterScenario::generate(
                    &catalogue,
                    per_func,
                    SimDuration::from_secs(60),
                    seed,
                );
                let result = run_cluster(&catalogue, &scenario, &mode, &cfg, seed);
                let resp: Vec<f64> = result
                    .outcomes
                    .iter()
                    .filter(|o| o.is_measured())
                    .map(|o| o.response_time().as_secs_f64())
                    .collect();
                per_seed_avg.push(resp.iter().sum::<f64>() / resp.len() as f64);
                max_completion = max_completion.max(
                    result
                        .last_completion
                        .saturating_since(scenario.burst_start)
                        .as_secs_f64(),
                );
                peak_queue = peak_queue.max(result.peak_queue);
                peak_events = peak_events.max(result.peak_events);
                pooled.extend(resp);
            }
            // The per-core intensity the paper quotes: the 4-node setup is
            // intensity 30, halving the nodes doubles it.
            let intensity = 120 / nodes as u32;
            Fig6Row {
                nodes,
                cpus_per_node: cores,
                intensity,
                strategy,
                response: MetricSummary::from_values(&pooled),
                max_completion,
                per_seed_avg,
                peak_queue,
                peak_events,
            }
        })
        .collect();

    Fig6Result { rows }
}

/// Ingestion window of trace-backed runs (matches the sweep's chunk).
const SOURCE_CHUNK: usize = 512;

/// The multi-node scaling experiment over an arbitrary [`WorkloadSource`]
/// — the trace-backed counterpart of [`run`]. The same fixed-total-load
/// design: every node count serves the *same* source, so halving the
/// worker count doubles the per-node load. Trace seeds are the run seeds,
/// so pooling over seeds pools over trace realizations. The `intensity`
/// column keeps the paper's `120 / nodes` mapping, which is meaningful
/// for paper-shaped loads only; `max_completion` is anchored to the first
/// measured release of each run (a trace carries no warm-up phase). The
/// only fallible path is opening a recorded trace file.
pub fn run_source(
    source: &WorkloadSource,
    cores: u32,
    effort: Effort,
) -> std::io::Result<Fig6Result> {
    let catalogue = Catalogue::sebs();
    let seeds = effort.seed_set();
    let node_counts: &[u16] = if effort.quick { &[4, 1] } else { &[4, 3, 2, 1] };

    let mut rows = Vec::new();
    for &nodes in node_counts {
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let mode = match strategy {
                Strategy::Baseline => NodeMode::Baseline,
                Strategy::Fc => NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
                _ => unreachable!("the paper's SSVIII uses baseline and FC only"),
            };
            let cfg = ClusterConfig::independent(
                nodes,
                NodeConfig::paper(cores),
                LoadBalancer::RoundRobin,
            );
            let mut pooled: Vec<f64> = Vec::new();
            let mut per_seed_avg = Vec::new();
            let mut max_completion: f64 = 0.0;
            let mut peak_queue = 0usize;
            let mut peak_events = 0usize;
            for &seed in seeds {
                let result = run_cluster_source(
                    &catalogue,
                    source,
                    &mode,
                    &cfg,
                    &FaultSpec::none(),
                    seed,
                    seed ^ 0xC1u64,
                    SOURCE_CHUNK,
                )?;
                let resp: Vec<f64> = result
                    .measured()
                    .map(|o| o.response_time().as_secs_f64())
                    .collect();
                assert!(!resp.is_empty(), "source produced no measured calls");
                per_seed_avg.push(resp.iter().sum::<f64>() / resp.len() as f64);
                let start = result
                    .measured()
                    .map(|o| o.release)
                    .min()
                    .unwrap_or(SimTime::ZERO);
                max_completion = max_completion
                    .max(result.last_completion.saturating_since(start).as_secs_f64());
                peak_queue = peak_queue.max(result.peak_queue);
                peak_events = peak_events.max(result.peak_events);
                pooled.extend(resp);
            }
            let intensity = 120 / nodes as u32;
            rows.push(Fig6Row {
                nodes,
                cpus_per_node: cores,
                intensity,
                strategy,
                response: MetricSummary::from_values(&pooled),
                max_completion,
                per_seed_avg,
                peak_queue,
                peak_events,
            });
        }
    }
    Ok(Fig6Result { rows })
}

/// Render Table V with paper references.
pub fn render(result: &Fig6Result) -> String {
    let mut t = TextTable::new([
        "nodes x cores/strategy",
        "R avg",
        "paper",
        "R p50",
        "paper",
        "R p75",
        "paper",
        "R p95",
        "paper",
        "R p99",
        "paper",
        "max c",
        "paper",
        "peakQ",
        "peakEv",
    ]);
    for r in &result.rows {
        let paper = compare::table5(r.nodes as u32, r.cpus_per_node, r.strategy);
        let pick = |f: fn(&compare::Table5Row) -> f64| {
            paper.map(|p| fmt_secs(f(p))).unwrap_or_else(|| "-".into())
        };
        t.row([
            format!("{}x{}/{}", r.nodes, r.cpus_per_node, r.strategy.name()),
            fmt_secs(r.response.mean),
            pick(|p| p.r_avg),
            fmt_secs(r.response.p50),
            pick(|p| p.r_p50),
            fmt_secs(r.response.p75),
            pick(|p| p.r_p75),
            fmt_secs(r.response.p95),
            pick(|p| p.r_p95),
            fmt_secs(r.response.p99),
            pick(|p| p.r_p99),
            fmt_secs(r.max_completion),
            pick(|p| p.max_c),
            r.peak_queue.to_string(),
            r.peak_events.to_string(),
        ]);
    }
    let mut out = format!(
        "Fig. 6 / Table V: multi-node response times (fixed total load)\n{}",
        t.render()
    );
    // The headline comparison, spelled out.
    if let (Some(fc3), Some(base4)) = (
        result.row(3, 18, Strategy::Fc),
        result.row(4, 18, Strategy::Baseline),
    ) {
        out.push_str(&format!(
            "headline: FC on 3 VMs avg {} vs baseline on 4 VMs avg {} (paper: 68 vs 240)\n",
            fmt_secs(fc3.response.mean),
            fmt_secs(base4.response.mean)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig6Result {
        run(Effort {
            seeds: 1,
            quick: true,
        })
    }

    #[test]
    fn fc_beats_baseline_at_equal_nodes() {
        let r = quick();
        for nodes in [4u16, 1] {
            let fc = r.row(nodes, 10, Strategy::Fc).unwrap();
            let base = r.row(nodes, 10, Strategy::Baseline).unwrap();
            assert!(
                fc.response.mean < base.response.mean,
                "{nodes} nodes: FC {:.1} vs baseline {:.1}",
                fc.response.mean,
                base.response.mean
            );
        }
    }

    #[test]
    fn fewer_nodes_fc_still_competitive() {
        // The paper's headline at 10-core granularity: FC on 1 node beats
        // the baseline on 1 node by a wide margin; and FC with a quarter of
        // the nodes stays below the 4-node baseline average.
        let r = quick();
        let fc1 = r.row(1, 10, Strategy::Fc).unwrap();
        let base1 = r.row(1, 10, Strategy::Baseline).unwrap();
        assert!(fc1.response.mean * 2.0 < base1.response.mean);
    }

    #[test]
    fn intensity_mapping() {
        let r = quick();
        assert_eq!(r.row(4, 10, Strategy::Fc).unwrap().intensity, 30);
        assert_eq!(r.row(1, 10, Strategy::Fc).unwrap().intensity, 120);
    }

    #[test]
    fn trace_backed_scaling_keeps_more_nodes_at_least_as_fast() {
        use faas_workload::synth::SynthSpec;
        use faas_workload::trace_source::TraceSpec;
        let src = WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(
            6.0,
            SimDuration::from_secs(60),
        )));
        let r = run_source(
            &src,
            10,
            Effort {
                seeds: 1,
                quick: true,
            },
        )
        .unwrap();
        // Quick mode: {4, 1} nodes x {baseline, FC}.
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(
                row.response.count > 0,
                "{} nodes served the trace",
                row.nodes
            );
            assert!(row.peak_events > 0, "sim health populated");
        }
        // The same trace on 4 workers must not lose to 1 worker.
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let four = r.row(4, 10, strategy).unwrap();
            let one = r.row(1, 10, strategy).unwrap();
            assert!(
                four.response.mean <= one.response.mean,
                "{strategy:?}: 4 nodes ({}) vs 1 node ({})",
                four.response.mean,
                one.response.mean
            );
        }
    }

    #[test]
    fn render_contains_headline_when_full() {
        // Quick mode lacks 18-core rows; render must still work.
        let s = render(&quick());
        assert!(s.contains("Table V"));
    }
}
