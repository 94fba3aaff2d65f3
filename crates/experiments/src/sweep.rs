//! `experiments sweep`: the paper's comparison — FC/SEPT on dedicated cores
//! against OS-level GPS sharing — under every load shape the workspace
//! can produce. Each table replays the same mean load (`1.1 · cores ·
//! intensity` calls over 60 s) along one axis:
//!
//! * `workload`: arrival × function mix × container weights, one node;
//! * `cluster`: worker count × container weights (the §VIII design);
//! * `fault`: one node under each seeded fault preset;
//! * `coupled`: static against feedback routing with cross-node failover
//!   under the strict crash preset;
//! * `trace`: Azure-style synthetic traces through bounded ingestion;
//! * `resource`: a single-resource control against DRF-modeled memory
//!   bandwidth, with utilization and dominant-share fairness.
//!
//! # One grid, one row type
//!
//! A table is data: a `Table` holds its title, its columns (`Col`: a
//! header and a formatter), its strategies and a function
//! `points(ctx, seed)` listing its `Point`s. A point is a label, a
//! `Source`, a [`ClusterConfig`] and a [`FaultSpec`]. `Source::Node` is
//! the single-node burst (warm-up plus generated calls) run by
//! [`faas_invoker::simulate_calls_faulted`]; `Source::Cluster` runs any
//! [`WorkloadSource`] through [`run_cluster_source`]. Fault plans and LB
//! tie-breaks are drawn from the run seed, so pooling over seeds samples
//! them too; labels and their order do not depend on the seed.
//!
//! [`run`] crosses each table's points with its strategies. Every (point,
//! strategy) cell runs once per seed through one runner and is pooled, in
//! seed order, by one reducer into one [`Row`] carrying every statistic.
//! Cells run in parallel and land in a fixed order, so the output does
//! not depend on the thread count. [`render`] prints each table's columns
//! of its rows.
//!
//! To add a table, write its `points` function (reusing the axis
//! functions where they fit), pick its columns and append a `Table` to
//! `TABLES`.

use crate::grid::mode_for;
use crate::Effort;
use faas_cluster::{run_cluster_source, ClusterConfig, LoadBalancer};
use faas_invoker::{simulate_calls_faulted, NodeConfig, NodeResult};
use faas_metrics::compare::Strategy;
use faas_metrics::summary::{
    response_times, stretches, FaultCounts, MetricSummary, ResourceSummary, ResourceUsage,
    RobustnessSummary,
};
use faas_metrics::table::{fmt_secs, TextTable};
use faas_simcore::rng::Xoshiro256;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::FaultSpec;
use faas_workload::generate::WorkloadSpec;
use faas_workload::mix::MixSpec;
use faas_workload::scenario::{warmup_for_spec, warmup_waves};
use faas_workload::sebs::Catalogue;
use faas_workload::synth::SynthSpec;
use faas_workload::trace::CallOutcome;
use faas_workload::trace_source::{TraceSpec, WorkloadSource};
use faas_workload::weight::WeightSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use Col::*;

/// Stream tag for single-node release times.
const STREAM_TIMES: u64 = 0x5EE1;
/// Stream tag for single-node function assignment.
const STREAM_ASSIGN: u64 = 0x5EE2;

/// One (table, point, strategy) cell, pooled over seeds. Every row fills
/// every statistic, printed or not.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Table name (`workload`, `cluster`, `fault`, …).
    pub table: String,
    /// Point label, unique within the table.
    pub label: String,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Delivered measured calls, pooled over seeds.
    pub calls: usize,
    /// Response-time statistics of the delivered calls, seconds.
    pub response: MetricSummary,
    /// Stretch statistics of the delivered calls.
    pub stretch: MetricSummary,
    /// Measured-phase cold starts, summed over seeds.
    pub cold_starts: usize,
    /// Sim health: largest pending-queue length of any node and seed.
    pub peak_queue: usize,
    /// Sim health: largest live event-queue size of any node and seed.
    pub peak_events: usize,
    /// Sim health: largest ingestion working set of any seed, summed over
    /// nodes (≤ chunk × nodes for traces, zero for spec sources).
    pub peak_resident: u64,
    /// Goodput, measured drops, fault counters and the delivered p99.
    pub robustness: RobustnessSummary,
    /// Per-resource utilization and cross-node dominant-share fairness,
    /// from served work and horizons summed over seeds.
    pub resource: ResourceSummary,
}

/// The sweep result set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Cores per node used by every run.
    pub cores: u32,
    /// Intensity-equivalent load (the mean call count matches the paper's
    /// `1.1 · cores · intensity` burst).
    pub intensity: u32,
    /// Every row: tables in print order, then points, then strategies.
    pub rows: Vec<Row>,
}

impl SweepResult {
    /// Look up one row.
    pub fn row(&self, table: &str, label: &str, strategy: Strategy) -> Option<&Row> {
        self.rows
            .iter()
            .find(|r| r.table == table && r.label == label && r.strategy == strategy)
    }
}

/// Where a point's calls come from.
#[derive(Debug)]
enum Source {
    /// The single-node burst: §V-A warm-up plus the spec's calls, drawn
    /// from the run seed and simulated on the point's node.
    Node(WorkloadSpec),
    /// Any workload through the cluster engine: specs draw from the run
    /// seed, synthetic traces from `seed ^ 0x7AC3`, and the nodes from
    /// `seed ^ 0xC1`.
    Cluster(WorkloadSource),
}

/// One configuration of a table, run once per strategy and seed.
#[derive(Debug)]
struct Point {
    /// Row label.
    label: String,
    /// The calls.
    source: Source,
    /// The cluster (one node for [`Source::Node`] points).
    cluster: ClusterConfig,
    /// The fault plan.
    faults: FaultSpec,
}

/// What every table's points are built from. Both modes keep the paper's
/// 10-core node at an intensity where scheduling matters; the full sweep
/// runs the stressed regime.
struct Ctx {
    /// The function catalogue.
    catalogue: Catalogue,
    /// Cores per node.
    cores: u32,
    /// Intensity-equivalent load.
    intensity: u32,
    /// Calls of the fixed total load.
    count: usize,
    /// Length of the measured window.
    window: SimDuration,
    /// Start of the measured burst of spec runs.
    burst_start: SimTime,
    /// Reduced axes.
    quick: bool,
}

impl Ctx {
    fn new(quick: bool) -> Ctx {
        let catalogue = Catalogue::sebs();
        let (cores, intensity) = if quick { (10, 60) } else { (10, 90) };
        Ctx {
            count: catalogue.len() * cores as usize * intensity as usize / 10,
            burst_start: warmup_waves(&catalogue).1,
            catalogue,
            cores,
            intensity,
            window: SimDuration::from_secs(60),
            quick,
        }
    }

    /// The fixed total load as a uniform burst, equal mix.
    fn uniform(&self, weights: WeightSpec) -> WorkloadSpec {
        WorkloadSpec {
            arrival: ArrivalSpec::Uniform { count: self.count },
            mix: MixSpec::Equal,
            weights,
            window: self.window,
        }
    }

    /// `nodes` paper workers behind `lb`, uncoupled.
    fn cluster(&self, nodes: u16, lb: LoadBalancer) -> ClusterConfig {
        ClusterConfig::independent(nodes, NodeConfig::paper(self.cores), lb)
    }
}

/// A printed column; [`Col::spec`] gives its header and formatter.
#[derive(Debug, Clone, Copy)]
enum Col {
    Calls,
    RAvg,
    RP50,
    RP95,
    SAvg,
    Cold,
    PeakQ,
    PeakEv,
    PeakRes,
    Served,
    Drops,
    Goodput,
    Retries,
    Timeouts,
    Crashes,
    Failovers,
    RP99,
    CpuUtil,
    MemUtil,
    DomMin,
    DomMax,
    Jain,
}

impl Col {
    /// Header and cell formatter.
    fn spec(self) -> (&'static str, fn(&Row) -> String) {
        match self {
            Col::Calls => ("calls", |r| r.calls.to_string()),
            Col::RAvg => ("R avg", |r| fmt_secs(r.response.mean)),
            Col::RP50 => ("R p50", |r| fmt_secs(r.response.p50)),
            Col::RP95 => ("R p95", |r| fmt_secs(r.response.p95)),
            Col::SAvg => ("S avg", |r| fmt_secs(r.stretch.mean)),
            Col::Cold => ("cold", |r| r.cold_starts.to_string()),
            Col::PeakQ => ("peakQ", |r| r.peak_queue.to_string()),
            Col::PeakEv => ("peakEv", |r| r.peak_events.to_string()),
            Col::PeakRes => ("peakRes", |r| r.peak_resident.to_string()),
            Col::Served => ("served", |r| r.robustness.delivered.to_string()),
            Col::Drops => ("drop", |r| r.robustness.dropped.to_string()),
            Col::Goodput => ("goodput", |r| format!("{:.4}", r.robustness.goodput)),
            Col::Retries => ("retries", |r| r.robustness.counts.retries.to_string()),
            Col::Timeouts => ("t/o", |r| r.robustness.counts.timeouts.to_string()),
            Col::Crashes => ("crash", |r| r.robustness.counts.crashes.to_string()),
            Col::Failovers => ("failover", |r| r.robustness.counts.failovers.to_string()),
            Col::RP99 => ("R p99", |r| fmt_secs(r.robustness.p99_response)),
            Col::CpuUtil => ("cpuUtil", |r| format!("{:.3}", r.resource.cpu_utilization)),
            Col::MemUtil => ("memUtil", |r| format!("{:.3}", r.resource.mem_utilization)),
            Col::DomMin => ("domMin", |r| format!("{:.3}", r.resource.dominant_min)),
            Col::DomMax => ("domMax", |r| format!("{:.3}", r.resource.dominant_max)),
            Col::Jain => ("jain", |r| format!("{:.4}", r.resource.dominant_jain)),
        }
    }
}

/// One table of the sweep: what it prints and the grid it runs.
struct Table {
    /// Key of its rows ([`Row::table`]).
    name: &'static str,
    /// Heading printed above it.
    title: fn(&SweepResult) -> String,
    /// Header of the first column, `<point label>/<strategy>`.
    key: &'static str,
    /// The columns after the first.
    cols: &'static [Col],
    /// Strategies crossed with every point, given the quick flag.
    strategies: fn(bool) -> Vec<Strategy>,
    /// The points for one run seed.
    points: fn(&Ctx, u64) -> Vec<Point>,
}

/// The sweep, in print order.
const TABLES: [Table; 6] = [
    Table {
        name: "workload",
        title: |r| {
            format!(
                "Workload sweep: arrival x mix x weights x strategy at {} cores, \
                 intensity-equivalent {}",
                r.cores, r.intensity
            )
        },
        key: "arrival/mix/weights/strategy",
        cols: &[Calls, RAvg, RP50, RP95, SAvg, Cold, PeakQ, PeakEv],
        strategies: strategy_axis,
        points: workload_points,
    },
    Table {
        name: "cluster",
        title: |_| "Cluster-size sweep (streamed generation, fixed total load)".into(),
        key: "nodes/weights/strategy",
        cols: &[Calls, RAvg, RP50, RP95, Cold, PeakEv],
        strategies: headline,
        points: cluster_points,
    },
    Table {
        name: "fault",
        title: |_| "Fault-scenario sweep (robustness axis)".into(),
        key: "scenario/strategy",
        cols: &[Served, Drops, Goodput, Retries, Timeouts, Crashes, RP99],
        strategies: headline,
        points: fault_points,
    },
    Table {
        name: "coupled",
        title: |_| {
            format!(
                "Coupled-engine robustness ({COUPLED_NODES} nodes, strict crash preset, \
                 lookahead {} ms)",
                COUPLED_LOOKAHEAD.as_millis_f64()
            )
        },
        key: "lb/strategy",
        cols: &[Served, Drops, Goodput, Retries, Timeouts, Failovers, RP99],
        strategies: headline,
        points: coupled_points,
    },
    Table {
        name: "trace",
        title: |_| {
            format!(
                "Trace-replay sweep ({TRACE_NODES} nodes, streamed ingestion, chunk {TRACE_CHUNK})"
            )
        },
        key: "trace/strategy",
        cols: &[Calls, RAvg, RP50, RP95, Cold, PeakRes, PeakEv],
        strategies: headline,
        points: trace_points,
    },
    Table {
        name: "resource",
        title: |_| {
            format!(
                "Multi-resource sweep ({RESOURCE_NODES} nodes, mem bandwidth {RESOURCE_MEM_BW} \
                 units, memory-correlated tiers)"
            )
        },
        key: "config/strategy",
        cols: &[Calls, RAvg, RP95, CpuUtil, MemUtil, DomMin, DomMax, Jain],
        strategies: headline,
        points: resource_points,
    },
];

/// The arrival axis: same mean load (`count` calls over `window`), four
/// shapes.
fn arrival_axis(count: usize, window: SimDuration, quick: bool) -> Vec<ArrivalSpec> {
    let rate = count as f64 / window.as_secs_f64();
    let mut axis = vec![
        ArrivalSpec::Uniform { count },
        ArrivalSpec::Poisson { rate },
    ];
    if !quick {
        axis.push(ArrivalSpec::Mmpp {
            // On-off bursts averaging `rate`: 1.8x/0.2x with equal 8 s
            // sojourns.
            rate_on: 1.8 * rate,
            rate_off: 0.2 * rate,
            mean_on_secs: 8.0,
            mean_off_secs: 8.0,
        });
        axis.push(ArrivalSpec::Diurnal {
            mean_rate: rate,
            weights: vec![0.25, 0.5, 1.0, 1.75, 1.75, 1.25, 0.75, 0.75],
        });
    }
    axis
}

/// The mix axis.
fn mix_axis(quick: bool) -> Vec<MixSpec> {
    let mut axis = vec![MixSpec::Equal, MixSpec::Zipf { s: 1.2 }];
    if !quick {
        axis.push(MixSpec::Fairness {
            rare_function: "dna-visualisation".into(),
            rare_calls: 10,
        });
    }
    axis
}

/// The weighted-container axis. The tiered model and its cgroup-lag
/// variant (warm-up cold starts initialise at the default share until the
/// cgroup update lands) ride along even in quick mode so the CI smoke run
/// covers both the weighted GPS path and the per-phase warm-up shares.
fn weight_axis(quick: bool) -> Vec<WeightSpec> {
    let mut axis = vec![
        WeightSpec::Uniform,
        WeightSpec::paper_tiers(),
        WeightSpec::paper_tiers_cgroup_lag(),
    ];
    if !quick {
        axis.push(WeightSpec::ZipfCorrelated { s: 1.0 });
    }
    axis
}

/// The strategy axis: the paper's headline comparison plus the strongest
/// size-based policy.
fn strategy_axis(quick: bool) -> Vec<Strategy> {
    use Strategy::{Baseline, Fc, Fifo, Sept};
    if quick {
        vec![Baseline, Fc]
    } else {
        vec![Baseline, Fifo, Sept, Fc]
    }
}

/// The paper's headline pair, in both modes: the scaling, robustness,
/// trace and resource tables compare regimes, not the policy grid.
fn headline(_quick: bool) -> Vec<Strategy> {
    vec![Strategy::Baseline, Strategy::Fc]
}

/// Worker counts of the cluster-size sweep.
fn node_axis(quick: bool) -> Vec<u16> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    }
}

/// The trace axis: Azure-style synthetic traces (Zipf mean rates,
/// diurnal phase, MMPP bursts, correlated chains) at two cluster-wide
/// mean rates over the §VIII window. The steady rate keeps the
/// [`TRACE_NODES`]-worker cluster comfortably inside capacity; the
/// stressed rate is where scheduling policy starts to matter.
fn trace_axis(window: SimDuration, quick: bool) -> Vec<SynthSpec> {
    let mut axis = vec![SynthSpec::azure(2.0, window)];
    if !quick {
        axis.push(SynthSpec::azure(6.0, window));
    }
    axis
}

/// Worker count of the trace-replay table.
const TRACE_NODES: u16 = 2;

/// Ingestion window of cluster points with a trace source: small enough
/// that the peak-resident column demonstrates the bounded working set,
/// large enough to amortize the windowed drain.
const TRACE_CHUNK: usize = 512;

/// The fault-scenario axis: a fault-free control plus the three seeded
/// presets, anchored to the measured burst window.
fn fault_axis(seed: u64, start: SimTime, window: SimDuration) -> Vec<(String, FaultSpec)> {
    let degrade = FaultSpec::degradation(seed, start, window);
    let crash = FaultSpec::crash_restart(seed, start, window);
    vec![
        ("none".into(), FaultSpec::none()),
        ("degrade".into(), degrade),
        ("crash".into(), crash),
        ("retry-storm".into(), FaultSpec::retry_storm(seed)),
    ]
}

/// The LB-policy axis of the coupled robustness table: the static
/// round-robin control (no feedback, no failover — the independent
/// engine's semantics) against the two feedback policies with cross-node
/// failover. LB seeds are derived per run seed so pooling over seeds
/// samples tie-break realizations too.
fn coupled_lb_axis(seed: u64) -> Vec<(String, LoadBalancer, bool)> {
    let seed = seed ^ 0x1BA1;
    let (jsq, p2c) = (
        LoadBalancer::JoinShortestQueue { seed },
        LoadBalancer::PowerOfTwoChoices { seed },
    );
    vec![
        ("static-rr".into(), LoadBalancer::RoundRobin, false),
        ("jsq".into(), jsq, true),
        ("p2c".into(), p2c, true),
    ]
}

/// Conservative-window width of the coupled and resource tables: a
/// health-poll-scale lookahead, wide enough to amortize barriers, narrow
/// enough that the balancers see a crashed node within a fraction of its
/// outage.
const COUPLED_LOOKAHEAD: SimDuration = SimDuration::from_millis(250);

/// Worker count of the coupled robustness table (the crash-failover story
/// needs 4+ nodes).
const COUPLED_NODES: u16 = 4;

/// The resource-configuration axis of the multi-resource table: a
/// single-resource control (memory unmodeled, backlog-keyed JSQ — the
/// pre-DRF semantics), the same backlog routing with the memory axis
/// modeled, and dominant-share routing on the modeled axis. LB seeds are
/// derived per run seed so pooling over seeds samples tie-break
/// realizations too. The bool marks whether the memory axis is modeled.
fn resource_lb_axis(seed: u64) -> Vec<(String, LoadBalancer, bool)> {
    let seed = seed ^ 0xD2F;
    let (jsq, jsd) = (
        LoadBalancer::JoinShortestQueue { seed },
        LoadBalancer::JoinShortestDominant { seed },
    );
    vec![
        ("cpu-only/jsq".into(), jsq, false),
        ("mem/jsq".into(), jsq, true),
        ("mem/jsd".into(), jsd, true),
    ]
}

/// Worker count of the multi-resource table.
const RESOURCE_NODES: u16 = 4;

/// Per-node memory-bandwidth capacity of the modeled rows, in bandwidth
/// units. Against the 10-core node and [`WeightSpec::paper_tiers_mem`]'s
/// demand profile (the popular 4x tier streams 2 bandwidth units per CPU
/// unit) this makes the memory axis the binding constraint for the
/// big-memory tier, so dominant shares genuinely diverge from backlogs.
const RESOURCE_MEM_BW: f64 = 8.0;

/// `workload`: arrival × mix × weights on one node.
fn workload_points(ctx: &Ctx, _seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for arrival in arrival_axis(ctx.count, ctx.window, ctx.quick) {
        for mix in mix_axis(ctx.quick) {
            for weights in weight_axis(ctx.quick) {
                let spec = WorkloadSpec {
                    arrival: arrival.clone(),
                    mix: mix.clone(),
                    weights,
                    window: ctx.window,
                };
                points.push(Point {
                    label: format!("{}/{}", spec.label(&ctx.catalogue), spec.weights.label()),
                    source: Source::Node(spec),
                    cluster: ctx.cluster(1, LoadBalancer::RoundRobin),
                    faults: FaultSpec::none(),
                });
            }
        }
    }
    points
}

/// `cluster`: worker count × weights at the fixed total load.
fn cluster_points(ctx: &Ctx, _seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for nodes in node_axis(ctx.quick) {
        for weights in weight_axis(ctx.quick) {
            points.push(Point {
                label: format!("{nodes}/{}", weights.label()),
                source: Source::Cluster(WorkloadSource::Spec(ctx.uniform(weights))),
                cluster: ctx.cluster(nodes, LoadBalancer::RoundRobin),
                faults: FaultSpec::none(),
            });
        }
    }
    points
}

/// `fault`: the uniform burst on one node under each fault scenario; the
/// fault draws are seeded per run seed.
fn fault_points(ctx: &Ctx, seed: u64) -> Vec<Point> {
    fault_axis(seed ^ 0xFA17, ctx.burst_start, ctx.window)
        .into_iter()
        .map(|(label, faults)| Point {
            label,
            source: Source::Node(ctx.uniform(WeightSpec::Uniform)),
            cluster: ctx.cluster(1, LoadBalancer::RoundRobin),
            faults,
        })
        .collect()
}

/// `coupled`: the fixed total load on [`COUPLED_NODES`] coupled workers
/// under [`FaultSpec::crash_strict`] — node 0 dies mid-burst while an
/// impatient client times queued calls out — per LB policy. Static
/// round-robin keeps committing calls to the dead node's shard and drops
/// them; the feedback policies route around the outage and fail killed
/// attempts over, which is the goodput gap this table shows.
fn coupled_points(ctx: &Ctx, seed: u64) -> Vec<Point> {
    coupled_lb_axis(seed)
        .into_iter()
        .map(|(label, lb, failover)| Point {
            label,
            source: Source::Cluster(WorkloadSource::Spec(ctx.uniform(WeightSpec::Uniform))),
            cluster: ctx
                .cluster(COUPLED_NODES, lb)
                .coupled(COUPLED_LOOKAHEAD, failover),
            faults: FaultSpec::crash_strict(seed ^ 0xFA17, ctx.burst_start, ctx.window),
        })
        .collect()
}

/// `trace`: each synthetic trace of [`trace_axis`] on [`TRACE_NODES`]
/// round-robin workers. A trace is the complete call log, so no warm-up
/// is injected and every outcome is measured.
fn trace_points(ctx: &Ctx, _seed: u64) -> Vec<Point> {
    trace_axis(ctx.window, ctx.quick)
        .into_iter()
        .map(|spec| Point {
            label: spec.label(),
            source: Source::Cluster(WorkloadSource::Trace(TraceSpec::Synthetic(spec))),
            cluster: ctx.cluster(TRACE_NODES, LoadBalancer::RoundRobin),
            faults: FaultSpec::none(),
        })
        .collect()
}

/// `resource`: the fixed total load under the memory-correlated tier
/// model on [`RESOURCE_NODES`] coupled workers, per resource
/// configuration (see [`resource_lb_axis`]).
fn resource_points(ctx: &Ctx, seed: u64) -> Vec<Point> {
    resource_lb_axis(seed)
        .into_iter()
        .map(|(label, lb, mem_modeled)| {
            let mut cluster = ctx
                .cluster(RESOURCE_NODES, lb)
                .coupled(COUPLED_LOOKAHEAD, false);
            if mem_modeled {
                cluster.node = cluster.node.with_mem_bandwidth(RESOURCE_MEM_BW);
            }
            Point {
                label,
                source: Source::Cluster(WorkloadSource::Spec(
                    ctx.uniform(WeightSpec::paper_tiers_mem()),
                )),
                cluster,
                faults: FaultSpec::none(),
            }
        })
        .collect()
}

/// Run one (point, strategy, seed) task: one result per node.
fn run_task(ctx: &Ctx, point: &Point, strategy: Strategy, seed: u64) -> Vec<NodeResult> {
    let (catalogue, mode) = (&ctx.catalogue, mode_for(strategy));
    match &point.source {
        Source::Node(spec) => {
            let (node, faults) = (&point.cluster.node, &point.faults);
            let mut root = Xoshiro256::seed_from_u64(seed);
            let mut times = root.derive_stream(STREAM_TIMES);
            let mut assign = root.derive_stream(STREAM_ASSIGN);
            let (mut calls, start) = warmup_for_spec(catalogue, node.cores);
            let id_base = calls.len() as u64;
            calls.extend(spec.generate_sorted(catalogue, start, &mut times, &mut assign, id_base));
            let weights = spec.weights.table(catalogue);
            vec![simulate_calls_faulted(
                catalogue, &calls, &mode, node, &weights, faults, seed, 0,
            )]
        }
        Source::Cluster(source) => {
            let scenario_seed = match source {
                WorkloadSource::Spec(_) => seed,
                WorkloadSource::Trace(_) => seed ^ 0x7AC3,
            };
            run_cluster_source(
                catalogue,
                source,
                &mode,
                &point.cluster,
                &point.faults,
                scenario_seed,
                seed ^ 0xC1,
                TRACE_CHUNK,
            )
            .expect("the sweep's sources are synthetic")
        }
    }
}

/// Pool one cell's runs (one per seed, in seed order) into its row.
fn reduce(
    ctx: &Ctx,
    table: &str,
    point: &Point,
    strategy: Strategy,
    runs: Vec<Vec<NodeResult>>,
) -> Row {
    // Spec runs warm up first, traces do not; a drop is measured when its
    // call was released in the measured phase.
    let burst_start = match &point.source {
        Source::Cluster(WorkloadSource::Trace(_)) => SimTime::ZERO,
        _ => ctx.burst_start,
    };
    let mut usages = vec![ResourceUsage::default(); point.cluster.nodes as usize];
    let mut horizon_secs = 0.0;
    let mut merged = Vec::with_capacity(runs.len());
    for per_node in runs {
        for (acc, r) in usages.iter_mut().zip(&per_node) {
            acc.cpu_secs += r.served_cpu_secs;
            acc.mem_units += r.served_mem_units;
        }
        let run = NodeResult::merge(per_node);
        horizon_secs += run.last_completion.as_secs_f64();
        merged.push(run);
    }
    let outcomes: Vec<&CallOutcome> = merged.iter().flat_map(|r| r.measured()).collect();
    let dropped = merged
        .iter()
        .flat_map(|r| &r.drops)
        .filter(|d| d.release >= burst_start)
        .count();
    let mut counts = FaultCounts::default();
    for fs in merged.iter().map(|r| r.fault_stats) {
        counts.retries += fs.retries;
        counts.timeouts += fs.timeouts;
        counts.transient_failures += fs.transient_failures;
        counts.crashes += fs.crashes;
        counts.failovers += fs.failovers;
    }
    let node = &point.cluster.node;
    let response = MetricSummary::from_values(&response_times(&outcomes));
    Row {
        table: table.into(),
        label: point.label.clone(),
        strategy,
        calls: outcomes.len(),
        response,
        stretch: MetricSummary::from_values(&stretches(&outcomes, &ctx.catalogue)),
        cold_starts: merged.iter().map(|r| r.measured_cold_starts()).sum(),
        peak_queue: merged.iter().map(|r| r.peak_queue).max().unwrap_or(0),
        peak_events: merged.iter().map(|r| r.peak_events).max().unwrap_or(0),
        peak_resident: merged
            .iter()
            .map(|r| r.peak_resident_calls)
            .max()
            .unwrap_or(0),
        robustness: RobustnessSummary::new(outcomes.len(), dropped, counts, response.p99),
        resource: ResourceSummary::from_usages(
            &usages,
            node.cores as f64,
            node.mem_bandwidth,
            horizon_secs,
        ),
    }
}

/// Run the sweep.
pub fn run(effort: Effort) -> SweepResult {
    let ctx = Ctx::new(effort.quick);
    let seeds = effort.seed_set();
    // grids[table][seed] lists the table's points drawn with that seed.
    let grids: Vec<Vec<Vec<Point>>> = TABLES
        .iter()
        .map(|t| seeds.iter().map(|&seed| (t.points)(&ctx, seed)).collect())
        .collect();
    // The stand-in rayon hands each thread one contiguous slice of the
    // cells, so every table's cells are spread evenly over the list: the
    // coupled cells cost the most at N threads (one parallel section per
    // window). A cell's runs are reduced as soon as they finish, so only
    // the cells in flight hold their results.
    let mut cells = Vec::new();
    for (table, grid) in TABLES.iter().zip(&grids) {
        let strategies = (table.strategies)(ctx.quick);
        let n = grid[0].len() * strategies.len();
        for i in 0..n {
            let (p, strategy) = (i / strategies.len(), strategies[i % strategies.len()]);
            cells.push((i as f64 / n as f64, table.name, grid, p, strategy));
        }
    }
    cells.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut rows: Vec<Row> = cells
        .par_iter()
        .map(|&(_, table, grid, p, strategy)| {
            let runs = grid
                .iter()
                .zip(seeds)
                .map(|(points, &seed)| run_task(&ctx, &points[p], strategy, seed))
                .collect();
            reduce(&ctx, table, &grid[0][p], strategy, runs)
        })
        .collect();
    // Back to print order: the sort is stable, so each table keeps its own.
    rows.sort_by_key(|r| TABLES.iter().position(|t| t.name == r.table));
    SweepResult {
        cores: ctx.cores,
        intensity: ctx.intensity,
        rows,
    }
}

/// Render every table: its title, then one line per row.
pub fn render(result: &SweepResult) -> String {
    let sections: Vec<String> = TABLES
        .iter()
        .map(|table| {
            let cols: Vec<_> = table.cols.iter().map(|c| c.spec()).collect();
            let mut t = TextTable::new(
                std::iter::once(table.key).chain(cols.iter().map(|&(header, _)| header)),
            );
            for r in result.rows.iter().filter(|r| r.table == table.name) {
                t.row(
                    std::iter::once(format!("{}/{}", r.label, r.strategy.name()))
                        .chain(cols.iter().map(|(_, cell)| cell(r))),
                );
            }
            format!("{}\n{}", (table.title)(result), t.render())
        })
        .collect();
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEEDS;
    use std::sync::OnceLock;

    /// The quick sweep is shared across tests: it runs 32 node and 26
    /// cluster simulations, so compute it once.
    fn quick() -> &'static SweepResult {
        static QUICK: OnceLock<SweepResult> = OnceLock::new();
        QUICK.get_or_init(|| {
            run(Effort {
                seeds: 1,
                quick: true,
            })
        })
    }

    /// The rows of one table.
    fn table<'a>(r: &'a SweepResult, name: &str) -> Vec<&'a Row> {
        r.rows.iter().filter(|row| row.table == name).collect()
    }

    /// Expected row count of each table, derived from the very axis lists
    /// the sweep crosses — adding an arrival shape, LB policy or fault
    /// scenario can't silently desynchronize the tests.
    fn expected_rows(quick: bool) -> usize {
        arrival_axis(1, SimDuration::from_secs(60), quick).len()
            * mix_axis(quick).len()
            * weight_axis(quick).len()
            * strategy_axis(quick).len()
    }

    fn expected_cluster_rows(quick: bool) -> usize {
        // The cluster and robustness tables fix the headline strategy pair.
        node_axis(quick).len() * weight_axis(quick).len() * 2
    }

    fn expected_fault_rows() -> usize {
        fault_axis(0, SimTime::ZERO, SimDuration::from_secs(60)).len() * 2
    }

    fn expected_coupled_rows() -> usize {
        coupled_lb_axis(0).len() * 2
    }

    fn expected_trace_rows(quick: bool) -> usize {
        trace_axis(SimDuration::from_secs(60), quick).len() * 2
    }

    fn expected_resource_rows() -> usize {
        resource_lb_axis(0).len() * 2
    }

    #[test]
    fn quick_sweep_covers_the_reduced_axes() {
        let r = quick();
        assert_eq!(table(r, "workload").len(), expected_rows(true));
        assert!(r
            .row("workload", "uniform/equal/w-uniform", Strategy::Baseline)
            .is_some());
        assert!(r
            .row("workload", "poisson/zipf1.2/w-tiers3", Strategy::Fc)
            .is_some());
        assert!(r
            .row(
                "workload",
                "uniform/equal/w-tiers3+wu-i1x1",
                Strategy::Baseline
            )
            .is_some());
    }

    #[test]
    fn uniform_equal_count_matches_paper_formula() {
        let r = quick();
        let row = r
            .row("workload", "uniform/equal/w-uniform", Strategy::Fc)
            .unwrap();
        // 10 cores, intensity 60: 1.1 * 10 * 60 = 660 calls, 1 seed.
        assert_eq!(row.calls, 660);
    }

    #[test]
    fn fc_beats_baseline_across_shapes() {
        let r = quick();
        for arrival in ["uniform", "poisson"] {
            let label = format!("{arrival}/equal/w-uniform");
            let fc = r.row("workload", &label, Strategy::Fc).unwrap();
            let base = r.row("workload", &label, Strategy::Baseline).unwrap();
            assert!(
                fc.response.mean <= base.response.mean,
                "{arrival}: FC {} vs baseline {}",
                fc.response.mean,
                base.response.mean
            );
        }
    }

    #[test]
    fn weighted_column_changes_the_baseline_but_not_the_paper_mode() {
        let r = quick();
        // Weights shape the baseline's GPS bank...
        let base_u = r
            .row("workload", "uniform/equal/w-uniform", Strategy::Baseline)
            .unwrap();
        let base_w = r
            .row("workload", "uniform/equal/w-tiers3", Strategy::Baseline)
            .unwrap();
        assert!(
            (base_u.response.mean - base_w.response.mean).abs() > 1e-9,
            "tiered weights must move the baseline means"
        );
        // ...and are inert under the paper's one-core-per-container regime.
        let fc_u = r
            .row("workload", "uniform/equal/w-uniform", Strategy::Fc)
            .unwrap();
        let fc_w = r
            .row("workload", "uniform/equal/w-tiers3", Strategy::Fc)
            .unwrap();
        assert_eq!(fc_u.response.mean, fc_w.response.mean);
    }

    #[test]
    fn warmup_phase_column_is_present_and_sane() {
        let r = quick();
        let lagged = r
            .row(
                "workload",
                "uniform/equal/w-tiers3+wu-i1x1",
                Strategy::Baseline,
            )
            .unwrap();
        // The cgroup-lag column carries the full measured load and healthy
        // sim counters, like every other column.
        assert_eq!(lagged.calls, 660);
        assert!(lagged.peak_events > 0);
        // It only diverges from plain tiers through the warm-up phase, and
        // is inert under the paper's one-core-per-container regime.
        let fc_plain = r
            .row("workload", "uniform/equal/w-tiers3", Strategy::Fc)
            .unwrap();
        let fc_lagged = r
            .row("workload", "uniform/equal/w-tiers3+wu-i1x1", Strategy::Fc)
            .unwrap();
        assert_eq!(fc_plain.response.mean, fc_lagged.response.mean);
    }

    #[test]
    fn cluster_sweep_covers_nodes_and_weights() {
        let r = quick();
        let rows = table(r, "cluster");
        assert_eq!(rows.len(), expected_cluster_rows(true));
        for row in rows {
            assert_eq!(row.calls, 660, "fixed total load on {}", row.label);
        }
        let weighted = r.row("cluster", "2/w-tiers3", Strategy::Baseline).unwrap();
        assert!(weighted.peak_events > 0);
        // Fixed total load: two workers beat one for the same strategy.
        let one = r.row("cluster", "1/w-uniform", Strategy::Fc).unwrap();
        let two = r.row("cluster", "2/w-uniform", Strategy::Fc).unwrap();
        assert!(
            two.response.mean <= one.response.mean,
            "2 nodes ({}) must not lose to 1 node ({})",
            two.response.mean,
            one.response.mean
        );
    }

    #[test]
    fn fault_sweep_covers_scenarios_and_controls() {
        let r = quick();
        assert_eq!(table(r, "fault").len(), expected_fault_rows());
        // The fault-free control: full goodput, zero counters.
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let none = r.row("fault", "none", strategy).unwrap();
            assert_eq!(none.robustness.goodput, 1.0);
            assert_eq!(none.robustness.dropped, 0);
            assert_eq!(none.robustness.counts, FaultCounts::default());
            assert_eq!(none.robustness.delivered, 660);
        }
    }

    #[test]
    fn degradation_raises_the_delivered_tail() {
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let none = r.row("fault", "none", strategy).unwrap();
            let deg = r.row("fault", "degrade", strategy).unwrap();
            assert_eq!(deg.robustness.dropped, 0, "degradation drops nothing");
            assert!(
                deg.robustness.p99_response >= none.robustness.p99_response,
                "{:?}: p99 {} under degradation vs {} clean",
                strategy,
                deg.robustness.p99_response,
                none.robustness.p99_response
            );
        }
    }

    #[test]
    fn crash_and_retry_storm_populate_fault_counters() {
        let r = quick();
        let crash = r.row("fault", "crash", Strategy::Fc).unwrap();
        assert_eq!(crash.robustness.counts.crashes, 1, "one crash per seed");
        assert!(crash.robustness.counts.retries > 0);
        let storm = r.row("fault", "retry-storm", Strategy::Baseline).unwrap();
        assert!(storm.robustness.counts.transient_failures > 0);
        assert!(storm.robustness.counts.retries > 0);
        assert!(
            storm.robustness.goodput > 0.9,
            "five attempts at 15% failure keep goodput near 1, got {}",
            storm.robustness.goodput
        );
        // Conservation surfaces in the summary arithmetic.
        for row in table(r, "fault") {
            let rb = &row.robustness;
            assert_eq!(rb.delivered + rb.dropped, 660);
            assert!((rb.goodput + rb.drop_rate - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coupled_table_covers_the_lb_axis_and_conserves_calls() {
        let r = quick();
        let rows = table(r, "coupled");
        assert_eq!(rows.len(), expected_coupled_rows());
        for row in rows {
            let rb = &row.robustness;
            assert_eq!(
                rb.delivered + rb.dropped,
                660,
                "{}/{:?}: cluster call conservation",
                row.label,
                row.strategy
            );
            assert_eq!(rb.counts.crashes, 1, "one crash per seed");
        }
        // The control row runs without failover, the feedback rows with.
        let points = coupled_points(&Ctx::new(true), SEEDS[0]);
        let failover = |label: &str| {
            let point = points.iter().find(|p| p.label == label).unwrap();
            point.cluster.failover
        };
        assert!(!failover("static-rr"));
        assert!(failover("jsq"));
    }

    #[test]
    fn feedback_routing_beats_static_round_robin_under_the_crash() {
        // The acceptance bar of the coupled engine: with node 0 down and
        // an impatient client, JSQ + failover must deliver measurably more
        // of the offered load than the static control, for both regimes.
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let rr = r.row("coupled", "static-rr", strategy).unwrap();
            let jsq = r.row("coupled", "jsq", strategy).unwrap();
            assert!(
                rr.robustness.dropped > 0,
                "{strategy:?}: the strict crash preset must hurt static RR"
            );
            assert!(
                jsq.robustness.goodput > rr.robustness.goodput,
                "{strategy:?}: JSQ goodput {} must beat static RR {}",
                jsq.robustness.goodput,
                rr.robustness.goodput
            );
            assert_eq!(
                rr.robustness.counts.failovers, 0,
                "no failover on the control row"
            );
        }
        // Failovers are structural under the queued regime: FairChoice
        // holds calls pending, so strict timeouts with retries left migrate
        // across nodes throughout the run. (Under the baseline's greedy
        // dispatch only in-flight kills at the crash instant migrate, which
        // can legitimately round to zero at light per-node load.)
        let jsq_fc = r.row("coupled", "jsq", Strategy::Fc).unwrap();
        assert!(
            jsq_fc.robustness.counts.failovers > 0,
            "timed-out retries must hand off under JSQ/FC"
        );
    }

    #[test]
    fn trace_table_covers_the_axis_with_bounded_ingestion() {
        let r = quick();
        assert_eq!(table(r, "trace").len(), expected_trace_rows(true));
        let labels: Vec<String> = trace_axis(SimDuration::from_secs(60), true)
            .iter()
            .map(|s| s.label())
            .collect();
        for label in &labels {
            let base = r.row("trace", label, Strategy::Baseline).unwrap();
            let fc = r.row("trace", label, Strategy::Fc).unwrap();
            // The same trace feeds both strategies: identical call counts.
            assert_eq!(base.calls, fc.calls, "{label}: shared trace");
            assert!(base.calls > 0, "{label}: trace produced calls");
            for row in [base, fc] {
                assert!(row.peak_events > 0, "{label}: sim health populated");
                // The bounded-memory contract, end to end: the ingestion
                // working set never exceeds chunk × nodes.
                assert!(
                    row.peak_resident > 0
                        && row.peak_resident <= (TRACE_CHUNK * TRACE_NODES as usize) as u64,
                    "{label}: peak resident {} vs bound {}",
                    row.peak_resident,
                    TRACE_CHUNK * TRACE_NODES as usize
                );
            }
        }
    }

    #[test]
    fn resource_table_covers_the_axis_and_models_the_memory_column() {
        let r = quick();
        let rows = table(r, "resource");
        assert_eq!(rows.len(), expected_resource_rows());
        for row in rows {
            // The fixed total load reaches every configuration.
            assert_eq!(row.calls, 660, "{}/{:?}", row.label, row.strategy);
            assert!(
                row.resource.cpu_utilization > 0.0 && row.resource.cpu_utilization <= 1.0,
                "{}: cpu utilization {} in (0, 1]",
                row.label,
                row.resource.cpu_utilization
            );
            assert!(
                row.resource.dominant_min <= row.resource.dominant_max,
                "{}: dominant share ordering",
                row.label
            );
            assert!(
                row.resource.dominant_jain > 0.0 && row.resource.dominant_jain <= 1.0,
                "{}: Jain index {} in (0, 1]",
                row.label,
                row.resource.dominant_jain
            );
        }
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            // The single-resource control: memory axis unmodeled, so its
            // utilization reads zero and the dominant axis is the CPU one.
            let control = r.row("resource", "cpu-only/jsq", strategy).unwrap();
            assert_eq!(control.resource.mem_utilization, 0.0);
            // The modeled rows observe genuine bandwidth consumption: the
            // memory-correlated tiers demand it on two of three tiers.
            for config in ["mem/jsq", "mem/jsd"] {
                let row = r.row("resource", config, strategy).unwrap();
                assert!(
                    row.resource.mem_utilization > 0.0,
                    "{config}/{strategy:?}: modeled memory axis must be consumed"
                );
            }
        }
    }

    #[test]
    fn modeling_the_memory_axis_slows_the_bandwidth_hungry_tier() {
        // The single-resource control pretends bandwidth is free; once the
        // axis is modeled the big-memory tier competes for 8 units/node
        // and response times cannot improve.
        let r = quick();
        for strategy in [Strategy::Baseline, Strategy::Fc] {
            let control = r.row("resource", "cpu-only/jsq", strategy).unwrap();
            let modeled = r.row("resource", "mem/jsq", strategy).unwrap();
            assert!(
                modeled.response.mean >= control.response.mean,
                "{strategy:?}: modeled memory contention ({}) must not beat \
                 the unmodeled control ({})",
                modeled.response.mean,
                control.response.mean
            );
        }
    }

    #[test]
    fn sim_health_is_populated() {
        let r = quick();
        for row in table(r, "workload") {
            assert!(row.peak_events > 0, "{} peak_events", row.label);
            assert!(row.calls > 0);
        }
    }

    /// FNV-1a over the rendered bytes.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn quick_render_matches_its_pinned_digest() {
        // Every number of every table, pinned: a change to the sweep's
        // plumbing (seeds, sources, reducers, formatting) that moves any
        // printed value fails here.
        assert_eq!(fnv1a(&render(quick())), 5183502380689216576);
    }

    #[test]
    fn render_contains_health_and_weight_columns() {
        let s = render(quick());
        assert!(s.contains("peakQ") && s.contains("peakEv"));
        assert!(s.contains("uniform/equal/w-uniform/"));
        assert!(s.contains("w-tiers3"), "weighted column rendered");
        assert!(s.contains("Cluster-size sweep"));
        assert!(s.contains("Fault-scenario sweep"));
        assert!(s.contains("goodput") && s.contains("retry-storm/"));
        assert!(s.contains("Coupled-engine robustness"));
        assert!(s.contains("static-rr/") && s.contains("jsq/") && s.contains("failover"));
        assert!(s.contains("Trace-replay sweep"));
        assert!(s.contains("synth(") && s.contains("peakRes"));
        assert!(s.contains("Multi-resource sweep"));
        assert!(s.contains("cpu-only/jsq/") && s.contains("mem/jsd/") && s.contains("jain"));
    }
}
