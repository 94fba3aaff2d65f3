//! Fig. 5 reproduction: Fair-Choice fairness under a skewed call mix.
//!
//! §VII-D: 10 CPU cores, intensity 90, exactly 10 dna-visualisation calls
//! (~1% of traffic), everything else uniform over the other ten functions.
//! The paper's claims:
//!
//! * the all-calls stretch distribution (Fig. 5a) looks like the standard
//!   intensity-90 panel (Fig. 4 at 10 CPUs would be its neighbour);
//! * FC rescues the rare long function: dna-visualisation's average stretch
//!   drops from 5.3 (SEPT) to 2.1, the median from 5.2 to 1.6 (Fig. 5b);
//! * the cost is mild for the short frequent graph-bfs: average stretch
//!   rises from 22.2 (SEPT) to 25.8 (Fig. 5c).

use crate::grid::{mode_for, STRATEGIES};
use crate::Effort;
use faas_cluster::{run_cluster_source, ClusterConfig, LoadBalancer};
use faas_invoker::{simulate_scenario, NodeConfig};
use faas_metrics::compare::Strategy;
use faas_metrics::summary::{stretches, MetricSummary};
use faas_metrics::table::{fmt_secs, TextTable};
use faas_workload::faults::FaultSpec;
use faas_workload::scenario::FairnessScenario;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::CallOutcome;
use faas_workload::trace_source::WorkloadSource;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Stretch statistics for one strategy in the three panels of Fig. 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Strategy.
    pub strategy: Strategy,
    /// Panel (a): all calls.
    pub all: MetricSummary,
    /// Panel (b): dna-visualisation calls only (1% of traffic).
    pub dna: MetricSummary,
    /// Panel (c): graph-bfs calls only (~9.9% of traffic).
    pub bfs: MetricSummary,
}

/// The Fig. 5 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// One row per strategy.
    pub rows: Vec<Fig5Row>,
}

/// Run the fairness experiment.
pub fn run(effort: Effort) -> Fig5Result {
    let catalogue = Catalogue::sebs();
    let scenario_cfg = FairnessScenario::paper();
    let seeds = effort.seed_set();
    let dna = catalogue.by_name("dna-visualisation").expect("dna exists");
    let bfs = catalogue.by_name("graph-bfs").expect("bfs exists");

    let rows: Vec<Fig5Row> = STRATEGIES
        .par_iter()
        .map(|&strategy| {
            let mut all = Vec::new();
            let mut dna_vals = Vec::new();
            let mut bfs_vals = Vec::new();
            for &seed in seeds {
                let scenario = scenario_cfg.generate(&catalogue, seed);
                let cfg = NodeConfig::paper(scenario_cfg.cores);
                let result =
                    simulate_scenario(&catalogue, &scenario, &mode_for(strategy), &cfg, seed);
                let outcomes: Vec<&CallOutcome> = result.measured().collect();
                all.extend(stretches(&outcomes, &catalogue));
                let dna_outs: Vec<&CallOutcome> =
                    outcomes.iter().copied().filter(|o| o.func == dna).collect();
                dna_vals.extend(stretches(&dna_outs, &catalogue));
                let bfs_outs: Vec<&CallOutcome> =
                    outcomes.iter().copied().filter(|o| o.func == bfs).collect();
                bfs_vals.extend(stretches(&bfs_outs, &catalogue));
            }
            Fig5Row {
                strategy,
                all: MetricSummary::from_values(&all),
                dna: MetricSummary::from_values(&dna_vals),
                bfs: MetricSummary::from_values(&bfs_vals),
            }
        })
        .collect();

    Fig5Result { rows }
}

/// Ingestion window of trace-backed runs (matches the sweep's chunk).
const SOURCE_CHUNK: usize = 512;

/// A summary that tolerates an absent panel: a trace need not call every
/// function the paper's fairness scenario names.
fn summary_or_empty(values: &[f64]) -> MetricSummary {
    if values.is_empty() {
        MetricSummary {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p75: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    } else {
        MetricSummary::from_values(values)
    }
}

/// The fairness panels over an arbitrary [`WorkloadSource`] — the
/// trace-backed counterpart of [`run`]: the same three stretch panels on
/// the paper's 10-core node, but the calls come from any analytic spec or
/// trace instead of the materialized fairness scenario. Trace seeds are
/// the run seeds, so pooling over seeds pools over trace realizations.
/// Panels of functions the source never calls report a zero-count
/// summary. The only fallible path is opening a recorded trace file.
pub fn run_source(source: &WorkloadSource, effort: Effort) -> std::io::Result<Fig5Result> {
    let catalogue = Catalogue::sebs();
    let scenario_cfg = FairnessScenario::paper();
    let seeds = effort.seed_set();
    let dna = catalogue.by_name("dna-visualisation").expect("dna exists");
    let bfs = catalogue.by_name("graph-bfs").expect("bfs exists");

    let mut rows = Vec::new();
    for &strategy in STRATEGIES.iter() {
        let mut all = Vec::new();
        let mut dna_vals = Vec::new();
        let mut bfs_vals = Vec::new();
        for &seed in seeds {
            let cfg = ClusterConfig::independent(
                1,
                NodeConfig::paper(scenario_cfg.cores),
                LoadBalancer::RoundRobin,
            );
            let result = run_cluster_source(
                &catalogue,
                source,
                &mode_for(strategy),
                &cfg,
                &FaultSpec::none(),
                seed,
                seed ^ 0xC1u64,
                SOURCE_CHUNK,
            )?;
            let outcomes: Vec<&CallOutcome> = result.measured().collect();
            all.extend(stretches(&outcomes, &catalogue));
            let dna_outs: Vec<&CallOutcome> =
                outcomes.iter().copied().filter(|o| o.func == dna).collect();
            dna_vals.extend(stretches(&dna_outs, &catalogue));
            let bfs_outs: Vec<&CallOutcome> =
                outcomes.iter().copied().filter(|o| o.func == bfs).collect();
            bfs_vals.extend(stretches(&bfs_outs, &catalogue));
        }
        rows.push(Fig5Row {
            strategy,
            all: summary_or_empty(&all),
            dna: summary_or_empty(&dna_vals),
            bfs: summary_or_empty(&bfs_vals),
        });
    }
    Ok(Fig5Result { rows })
}

/// Render the three panels.
pub fn render(result: &Fig5Result) -> String {
    let mut out = String::from(
        "Fig. 5: stretch under the skewed mix (10 CPUs, intensity 90, 10 dna calls)\n",
    );
    type PanelPick = fn(&Fig5Row) -> MetricSummary;
    let panels: [(&str, PanelPick); 3] = [
        ("(a) all calls", |r| r.all),
        ("(b) dna-visualisation (1% of calls)", |r| r.dna),
        ("(c) graph-bfs (~9.9% of calls)", |r| r.bfs),
    ];
    for (title, pick) in panels {
        out.push_str(&format!("{title}\n"));
        let mut t = TextTable::new(["strategy", "avg", "p50", "p75", "p95"]);
        for row in &result.rows {
            let s = pick(row);
            t.row([
                row.strategy.name().to_string(),
                fmt_secs(s.mean),
                fmt_secs(s.p50),
                fmt_secs(s.p75),
                fmt_secs(s.p95),
            ]);
        }
        out.push_str(&t.render());
    }
    out.push_str(
        "paper: FC cuts dna stretch (avg 5.3 -> 2.1, median 5.2 -> 1.6 vs SEPT)\n       while graph-bfs pays mildly (avg 22.2 -> 25.8)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig5Result {
        run(Effort {
            seeds: 2,
            quick: true,
        })
    }

    fn row(r: &Fig5Result, s: Strategy) -> &Fig5Row {
        r.rows.iter().find(|x| x.strategy == s).unwrap()
    }

    #[test]
    fn fc_rescues_the_rare_long_function() {
        let r = quick();
        let fc = row(&r, Strategy::Fc);
        let sept = row(&r, Strategy::Sept);
        // The paper's core fairness claim (Fig. 5b): FC gives the rare
        // dna-visualisation far better stretch than SEPT.
        assert!(
            fc.dna.mean < sept.dna.mean,
            "FC dna stretch {:.2} must beat SEPT {:.2}",
            fc.dna.mean,
            sept.dna.mean
        );
        assert!(
            fc.dna.p50 < sept.dna.p50,
            "FC dna median {:.2} vs SEPT {:.2}",
            fc.dna.p50,
            sept.dna.p50
        );
    }

    #[test]
    fn fc_dna_improvement_ratio_matches_paper_shape() {
        // Paper: FC cuts the dna mean stretch from 5.3 (SEPT) to 2.1 —
        // a ~2.5x improvement. The simulator reproduces the direction with
        // a weaker factor (queue-depth composition differs); require at
        // least 1.2x on the mean (`experiments fig5` prints the full-scale
        // means next to the paper's).
        let r = quick();
        let fc = row(&r, Strategy::Fc);
        let sept = row(&r, Strategy::Sept);
        assert!(
            fc.dna.mean * 1.2 < sept.dna.mean,
            "FC dna mean {:.2} vs SEPT {:.2}",
            fc.dna.mean,
            sept.dna.mean
        );
    }

    #[test]
    fn both_policies_keep_bfs_usable() {
        let r = quick();
        let fc = row(&r, Strategy::Fc);
        let sept = row(&r, Strategy::Sept);
        // graph-bfs remains in the same order of magnitude under FC; the
        // paper reports 22.2 -> 25.8.
        assert!(fc.bfs.mean < sept.bfs.mean * 10.0 + 50.0);
    }

    #[test]
    fn baseline_is_worst_overall() {
        let r = quick();
        let base = row(&r, Strategy::Baseline);
        let fc = row(&r, Strategy::Fc);
        assert!(base.all.mean > fc.all.mean);
    }

    #[test]
    fn spec_and_trace_sources_run_the_panels() {
        use faas_simcore::time::SimDuration;
        use faas_workload::arrival::ArrivalSpec;
        use faas_workload::generate::WorkloadSpec;
        use faas_workload::mix::MixSpec;
        use faas_workload::synth::SynthSpec;
        use faas_workload::trace_source::TraceSpec;
        use faas_workload::weight::WeightSpec;
        let effort = Effort {
            seeds: 1,
            quick: true,
        };
        // A spec source with the paper's rare-function mix populates every
        // panel, dna included.
        let spec = WorkloadSource::Spec(WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: 330 },
            mix: MixSpec::Fairness {
                rare_function: "dna-visualisation".into(),
                rare_calls: 10,
            },
            weights: WeightSpec::Uniform,
            window: SimDuration::from_secs(60),
        });
        let r = run_source(&spec, effort).unwrap();
        assert_eq!(r.rows.len(), STRATEGIES.len());
        for row in &r.rows {
            assert!(row.all.count > 0, "{:?}: all-calls panel", row.strategy);
            assert!(row.dna.count > 0, "{:?}: dna panel", row.strategy);
        }
        // A synthetic Azure-style trace drives the same panels; functions
        // the trace never draws degrade to zero-count summaries instead of
        // panicking.
        let trace = WorkloadSource::Trace(TraceSpec::Synthetic(SynthSpec::azure(
            6.0,
            SimDuration::from_secs(60),
        )));
        let r = run_source(&trace, effort).unwrap();
        for row in &r.rows {
            assert!(row.all.count > 0, "{:?}: trace-backed panel", row.strategy);
        }
    }

    #[test]
    fn render_has_three_panels() {
        let s = render(&quick());
        assert!(s.contains("(a) all calls"));
        assert!(s.contains("(b) dna-visualisation"));
        assert!(s.contains("(c) graph-bfs"));
    }
}
