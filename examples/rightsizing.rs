//! Cluster right-sizing: serve the same load with fewer machines.
//!
//! Reproduces the paper's §VIII headline experiment: a fixed total load
//! (2376 requests over 60 s) on 1–4 workers of 18 action cores each,
//! baseline vs Fair-Choice. The claim: **FC on 3 VMs provides better
//! response-time statistics than the baseline on 4 VMs**, i.e. the
//! scheduler is worth at least 25% of the fleet.
//!
//! ```text
//! cargo run --release --example rightsizing
//! ```

use faas_scheduling::metrics::summary::MetricSummary;
use faas_scheduling::metrics::table::{fmt_secs, TextTable};
use faas_scheduling::prelude::*;
use faas_scheduling::simcore::time::SimDuration;

fn main() {
    let catalogue = Catalogue::sebs();
    let cores_per_node = 18;
    let per_function = 216; // 11 functions x 216 = 2376 requests.
    let seed = 11;

    let scenario =
        ClusterScenario::generate(&catalogue, per_function, SimDuration::from_secs(60), seed);
    println!(
        "fixed load: {} requests over 60 s; workers of {cores_per_node} action cores\n",
        scenario.burst.len()
    );

    let mut table = TextTable::new(["nodes", "strategy", "R avg", "R p75", "R p95", "R p99"]);
    let mut fc3: Option<MetricSummary> = None;
    let mut base4: Option<MetricSummary> = None;

    for nodes in [4u16, 3, 2, 1] {
        for (name, mode) in [
            ("baseline", NodeMode::Baseline),
            (
                "FC",
                NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
            ),
        ] {
            let cfg = ClusterConfig::independent(
                nodes,
                NodeConfig::paper(cores_per_node),
                LoadBalancer::RoundRobin,
            );
            let result = run_cluster(&catalogue, &scenario, &mode, &cfg, seed);
            let resp: Vec<f64> = result
                .outcomes
                .iter()
                .filter(|o| o.is_measured())
                .map(|o| o.response_time().as_secs_f64())
                .collect();
            let summary = MetricSummary::from_values(&resp);
            if nodes == 3 && name == "FC" {
                fc3 = Some(summary);
            }
            if nodes == 4 && name == "baseline" {
                base4 = Some(summary);
            }
            table.row([
                nodes.to_string(),
                name.to_string(),
                fmt_secs(summary.mean),
                fmt_secs(summary.p75),
                fmt_secs(summary.p95),
                fmt_secs(summary.p99),
            ]);
        }
    }
    println!("{}", table.render());

    let (fc3, base4) = (
        fc3.expect("3-node FC ran"),
        base4.expect("4-node baseline ran"),
    );
    println!(
        "headline: FC on 3 VMs -> avg {} | baseline on 4 VMs -> avg {}  ({})",
        fmt_secs(fc3.mean),
        fmt_secs(base4.mean),
        if fc3.mean < base4.mean {
            "FC wins with 25% fewer machines, as in the paper"
        } else {
            "unexpected: check calibration"
        }
    );
    println!("paper: FC/3VM avg 68 s vs baseline/4VM avg 240 s (Table V)");
}
