//! The three workloads and their jobs.
//!
//! A job is one independent simulation: a Table III grid point, a trace
//! replay or a coupled cluster run. Its inputs are a pure function of the
//! workload seed and the job index. Untraced jobs call the public entry
//! points users call (`simulate_scenario`, `run_cluster_trace_streamed`,
//! `run_cluster_streamed_coupled`). Traced jobs of the cluster workloads
//! drive the same per-node simulators (`NodeSim`) through the same engine
//! loop from here, with a span around every call into a layer; the runner
//! checks that they produce the engine's outcomes bit for bit.

use crate::check::Released;
use crate::spans::{stamp, Tracer, ROOT};
use faas_cluster::{
    run_cluster_streamed_coupled, run_cluster_trace_streamed, ClusterConfig, FeedbackRouter,
    LoadBalancer, NodeView,
};
use faas_experiments::grid::mode_for;
use faas_invoker::{
    simulate_scenario, Handoff, NodeConfig, NodeMode, NodeProgress, NodeResult, NodeSim,
};
use faas_metrics::compare::{Strategy, TABLE3};
use faas_metrics::summary::RunSummary;
use faas_simcore::time::{SimDuration, SimTime};
use faas_simcore::Xoshiro256;
use faas_workload::arrival::ArrivalSpec;
use faas_workload::faults::FaultSpec;
use faas_workload::mix::MixSpec;
use faas_workload::scenario::{warmup_calls_for_waves, warmup_waves};
use faas_workload::{
    BurstScenario, CallOutcome, Catalogue, ShardedGenerator, SynthSpec, SyntheticTrace,
    TraceSource, WeightSpec, WeightTable, WorkloadSpec,
};
use rayon::prelude::*;
use std::time::Instant;

/// Table III cells: one grid pass is one job per row.
pub const GRID_CELLS: u64 = TABLE3.len() as u64;
/// Grid passes pooled per cell for the fidelity figure (the paper pools
/// five call sequences per configuration; twenty keep the figure's
/// spread across workload seeds to a few percent).
pub const FIDELITY_PASSES: u64 = 20;

/// `trace_replay` cluster: 4 nodes x 10 cores, round-robin, baseline mode.
const TRACE_NODES: u16 = 4;
const TRACE_CORES: u32 = 10;
/// Cluster-wide mean arrival rate of the synthetic trace, calls/s.
const TRACE_RATE: f64 = 4.0;
/// Ingestion window of the streamed replay.
const TRACE_CHUNK: usize = 8192;

/// `coupled_failover` cluster: 16 nodes x 10 cores at per-node intensity 30.
const COUPLED_NODES: u16 = 16;
const COUPLED_CORES: u32 = 10;
const COUPLED_INTENSITY: u64 = 30;
/// Memory-bandwidth capacity per node, so the DRF (general-mode) GPS
/// kernel runs: the memory-heavy tier of `paper_tiers_mem` binds on it.
const COUPLED_MEM_BW: f64 = 8.0;
const COUPLED_LOOKAHEAD: SimDuration = SimDuration::from_millis(250);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// The paper's single-node SSV-B bursts over the Table III grid.
    PaperGrid,
    /// An Azure-style synthetic trace over `window_secs` of simulated time
    /// replayed on the independent-node trace engine.
    TraceReplay { window_secs: u64 },
    /// The conservative-window engine under crash faults with failover,
    /// over a `window_secs` simulated burst window.
    CoupledFailover { window_secs: u64 },
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["paper_grid", "trace_replay", "coupled_failover"];

    /// The workload at its benchmark size.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "paper_grid" => Some(Workload::PaperGrid),
            // 31 250 s at 4 calls/s plus the MMPP bursts: about 165 k
            // calls, so a run holds about 60 jobs and the host-speed
            // readings around each follow the host closely.
            "trace_replay" => Some(Workload::TraceReplay {
                window_secs: 31_250,
            }),
            "coupled_failover" => Some(Workload::CoupledFailover { window_secs: 600 }),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::TraceReplay { .. } => "trace_replay",
            Workload::CoupledFailover { .. } => "coupled_failover",
        }
    }

    /// Jobs of one cycle: a grid pass, or one job. Set-up warms up with
    /// one cycle and traced runs run whole cycles.
    pub fn cycle(&self) -> u64 {
        match self {
            Workload::PaperGrid => GRID_CELLS,
            _ => 1,
        }
    }

    /// The fixed set of leading jobs the simulated-outcome metrics are
    /// taken over and the peak resident set covers, so they repeat for a
    /// seed however many jobs the timed window fits. Replay jobs differ in
    /// peak memory by trace, so their set is large enough to almost always
    /// hold a large one.
    pub fn sim_jobs(&self) -> u64 {
        match self {
            Workload::PaperGrid => FIDELITY_PASSES * GRID_CELLS,
            Workload::TraceReplay { .. } => 32,
            Workload::CoupledFailover { .. } => 8,
        }
    }
}

/// What one job produced: one simulation run, or for coupled jobs the
/// same input run under both node modes.
pub struct JobOut {
    pub runs: Vec<Run>,
    /// Conservative windows run and feedback routing decisions made;
    /// counted by traced jobs only.
    pub windows: u64,
    pub decisions: u64,
}

impl JobOut {
    fn single(run: Run, windows: u64) -> JobOut {
        JobOut {
            runs: vec![run],
            windows,
            decisions: 0,
        }
    }

    /// Call instances released over all runs.
    pub fn calls(&self) -> u64 {
        self.runs.iter().map(|r| r.released.calls()).sum()
    }
}

/// One simulation run of a job.
pub struct Run {
    pub result: NodeResult,
    pub released: Released,
    /// Total cores simulated (nodes x cores per node).
    pub cores: u32,
    /// Total memory bandwidth simulated (nodes x per-node capacity).
    pub mem_bandwidth: f64,
    /// Table III row, for grid jobs.
    pub cell: Option<usize>,
    /// Mean response time (s) and mean stretch of the measured calls.
    pub r_avg: f64,
    pub s_avg: f64,
}

/// The seed of job `index` of a run with workload seed `seed`.
pub fn job_seed(seed: u64, index: u64) -> u64 {
    Xoshiro256::seed_from_u64(seed)
        .derive_stream(index)
        .next_u64()
}

/// Run job `index`, traced when `tr` is enabled.
pub fn run_job(w: Workload, cat: &Catalogue, seed: u64, index: u64, tr: &mut Tracer) -> JobOut {
    match w {
        Workload::PaperGrid => grid_job(cat, seed, index, tr),
        Workload::TraceReplay { window_secs } => trace_job(cat, window_secs, seed, index, tr),
        Workload::CoupledFailover { window_secs } => coupled_job(cat, window_secs, seed, index, tr),
    }
}

/// A digest of job `index`'s generated inputs (the calls it releases).
#[cfg(test)]
pub fn inputs_digest(w: Workload, cat: &Catalogue, seed: u64, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |c: faas_workload::Call| {
        for v in [c.id.0, c.func.0 as u64, c.release.as_nanos()] {
            h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        }
    };
    match w {
        Workload::PaperGrid => {
            let (row, s) = grid_cell(seed, index);
            let sc = BurstScenario::standard(row.cpus, row.intensity).generate(cat, s);
            sc.warmup.iter().chain(&sc.burst).for_each(|&c| eat(c));
        }
        Workload::TraceReplay { window_secs } => {
            let trace = synth_trace(cat, window_secs, job_seed(seed, index));
            trace.iter_chunk(0, trace.len()).for_each(eat);
        }
        Workload::CoupledFailover { window_secs } => {
            let input = CoupledInput::new(cat, window_secs, seed, index, Strategy::Baseline);
            let (burst, _) = input.generate(cat);
            burst.into_iter().for_each(eat);
        }
    }
    h
}

fn summarize(result: &NodeResult, cat: &Catalogue, burst_start: SimTime) -> (f64, f64) {
    let refs: Vec<&CallOutcome> = result.measured().collect();
    let s = RunSummary::from_outcomes(&refs, cat, burst_start);
    (s.response.mean, s.stretch.mean)
}

/// Grid job `index`: pass `index / 90`, Table III row `index % 90`. All
/// strategies of a (cores, intensity) point in one pass replay the same
/// call sequence, as in the paper.
fn grid_cell(seed: u64, index: u64) -> (&'static faas_metrics::compare::Table3Row, u64) {
    (
        &TABLE3[(index % GRID_CELLS) as usize],
        job_seed(seed, index / GRID_CELLS),
    )
}

fn grid_job(cat: &Catalogue, seed: u64, index: u64, tr: &mut Tracer) -> JobOut {
    let (row, s) = grid_cell(seed, index);
    let job = tr.open("job", ROOT);
    let scenario = tr.time("workload.generate", job, || {
        BurstScenario::standard(row.cpus, row.intensity).generate(cat, s)
    });
    let cfg = NodeConfig::paper(row.cpus);
    let mode = mode_for(row.strategy);
    let result = tr.time("invoker.simulate", job, || {
        simulate_scenario(cat, &scenario, &mode, &cfg, s)
    });
    let (r_avg, s_avg) = tr.time("metrics.summarize", job, || {
        summarize(&result, cat, scenario.burst_start)
    });
    tr.close(job);
    let w = scenario.warmup.len() as u64;
    let run = Run {
        result,
        released: Released {
            warmup: 0..w,
            measured: w..w + scenario.burst.len() as u64,
            warmup_copies: 1,
        },
        cores: row.cpus,
        mem_bandwidth: cfg.mem_bandwidth,
        cell: Some((index % GRID_CELLS) as usize),
        r_avg,
        s_avg,
    };
    JobOut::single(run, 0)
}

fn synth_trace(cat: &Catalogue, window_secs: u64, s: u64) -> SyntheticTrace {
    let window = SimDuration::from_secs(window_secs);
    SyntheticTrace::new(&SynthSpec::azure(TRACE_RATE, window), cat, SimTime::ZERO, s)
}

fn trace_job(cat: &Catalogue, window_secs: u64, seed: u64, index: u64, tr: &mut Tracer) -> JobOut {
    let s = job_seed(seed, index);
    let job = tr.open("job", ROOT);
    let trace = tr.time("workload.synth", job, || synth_trace(cat, window_secs, s));
    let cfg = ClusterConfig::independent(
        TRACE_NODES,
        NodeConfig::paper(TRACE_CORES),
        LoadBalancer::RoundRobin,
    );
    let result = if tr.enabled {
        replay_traced(cat, &trace, &cfg, s, tr, job)
    } else {
        run_cluster_trace_streamed(
            cat,
            &trace,
            &NodeMode::Baseline,
            &cfg,
            &FaultSpec::none(),
            s,
            TRACE_CHUNK,
        )
    };
    let (r_avg, s_avg) = tr.time("metrics.summarize", job, || {
        summarize(&result, cat, trace.start())
    });
    tr.close(job);
    let n = trace.len();
    let run = Run {
        result,
        released: Released {
            measured: 0..n,
            warmup: n..n,
            warmup_copies: 0,
        },
        cores: TRACE_CORES * TRACE_NODES as u32,
        mem_bandwidth: cfg.node.mem_bandwidth * TRACE_NODES as f64,
        cell: None,
        r_avg,
        s_avg,
    };
    // One parallel fan-out per replay and no routing decisions: the
    // round-robin assignment is the call index.
    JobOut::single(run, 1)
}

/// Per-node seeds of the cluster engines (same derivation as the engine).
fn node_seeds(seed: u64, nodes: u16) -> Vec<(u16, u64)> {
    let mut root = Xoshiro256::seed_from_u64(seed ^ 0xC1u64.rotate_left(32));
    (0..nodes)
        .map(|node| (node, root.derive_stream(node as u64).next_u64()))
        .collect()
}

/// One nanosecond before `t`: the engine's drain horizon between windows.
fn just_before(t: SimTime) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_sub(1))
}

/// Spans measured on a worker thread, handed back to the job's tracer.
struct Laps {
    epoch: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Laps {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = stamp(self.epoch);
        let r = f();
        self.spans.push((name, start, stamp(self.epoch)));
        r
    }
}

/// `run_cluster_trace_streamed`'s round-robin engine, with spans.
fn replay_traced(
    cat: &Catalogue,
    trace: &SyntheticTrace,
    cfg: &ClusterConfig,
    seed: u64,
    tr: &mut Tracer,
    parent: u32,
) -> NodeResult {
    let run = tr.open("cluster.run", parent);
    let weights = WeightTable::uniform(cat.len());
    let faults = FaultSpec::none();
    let n = trace.len();
    let stride = cfg.nodes as u64;
    let epoch = tr.epoch;
    let per_node: Vec<(NodeResult, Laps)> = node_seeds(seed, cfg.nodes)
        .par_iter()
        .map(|&(node, node_seed)| {
            let mut laps = Laps {
                epoch,
                spans: Vec::new(),
            };
            let mut sim = laps.time("invoker.new", || {
                NodeSim::new(
                    cat,
                    &NodeMode::Baseline,
                    &cfg.node,
                    &weights,
                    &faults,
                    node_seed,
                    node,
                    false,
                )
            });
            let mut buf = Vec::with_capacity(TRACE_CHUNK.min(n as usize));
            let mut peak = 0u64;
            let mut next = node as u64;
            while next < n {
                let resume = laps.time("workload.ingest", || {
                    buf.clear();
                    while buf.len() < TRACE_CHUNK && next < n {
                        buf.push(trace.call(next));
                        next += stride;
                    }
                    (next < n).then(|| just_before(trace.call(next).release))
                });
                peak = peak.max(buf.len() as u64);
                laps.time("invoker.inject", || sim.inject(&buf));
                if let Some(t) = resume {
                    laps.time("invoker.advance", || sim.advance_to(t));
                }
            }
            laps.time("invoker.advance", || sim.advance_to(SimTime::MAX));
            let mut r = laps.time("invoker.finish", || sim.finish());
            r.peak_resident_calls = peak;
            (r, laps)
        })
        .collect();
    let mut results = Vec::with_capacity(per_node.len());
    for (r, laps) in per_node {
        for (name, start, end) in laps.spans {
            tr.record(name, run, start, end);
        }
        results.push(r);
    }
    let merged = tr.time("cluster.merge", run, || NodeResult::merge(results));
    tr.close(run);
    merged
}

/// The inputs of one coupled run.
struct CoupledInput {
    spec: WorkloadSpec,
    faults: FaultSpec,
    cfg: ClusterConfig,
    mode: NodeMode,
    scenario_seed: u64,
    sim_seed: u64,
}

impl CoupledInput {
    fn new(
        cat: &Catalogue,
        window_secs: u64,
        seed: u64,
        index: u64,
        strategy: Strategy,
    ) -> CoupledInput {
        let s = job_seed(seed, index);
        let window = SimDuration::from_secs(window_secs);
        // The paper's intensity `v`: `c * v / 10` calls per function per
        // node per 60 s.
        let count = cat.len() as u64
            * COUPLED_CORES as u64
            * COUPLED_INTENSITY
            * COUPLED_NODES as u64
            * window_secs
            / 600;
        let (_, burst_start) = warmup_waves(cat);
        CoupledInput {
            spec: WorkloadSpec {
                arrival: ArrivalSpec::Uniform {
                    count: count as usize,
                },
                mix: MixSpec::Equal,
                weights: WeightSpec::paper_tiers_mem(),
                window,
            },
            faults: FaultSpec::crash_strict(s ^ 0xFA17, burst_start, window),
            cfg: ClusterConfig::independent(
                COUPLED_NODES,
                NodeConfig::paper(COUPLED_CORES).with_mem_bandwidth(COUPLED_MEM_BW),
                LoadBalancer::JoinShortestDominant { seed: s },
            )
            .coupled(COUPLED_LOOKAHEAD, true),
            mode: mode_for(strategy),
            scenario_seed: s,
            sim_seed: s ^ 0xC1,
        }
    }

    /// The sorted burst and the per-node warm-up, as the engine builds
    /// them.
    fn generate(&self, cat: &Catalogue) -> (Vec<faas_workload::Call>, Vec<faas_workload::Call>) {
        let (waves, burst_start) = warmup_waves(cat);
        let generator = ShardedGenerator::new(&self.spec, cat, burst_start, self.scenario_seed);
        let mut burst = generator.generate_parallel();
        burst.sort_by_key(|c| (c.release, c.id));
        let warmup = warmup_calls_for_waves(&waves, self.cfg.node.cores, generator.len());
        (burst, warmup)
    }
}

/// A coupled job: one input run under the baseline node, then under
/// Fair-Choice, as the paper compares them.
fn coupled_job(
    cat: &Catalogue,
    window_secs: u64,
    seed: u64,
    index: u64,
    tr: &mut Tracer,
) -> JobOut {
    let job = tr.open("job", ROOT);
    let (_, burst_start) = warmup_waves(cat);
    let mut out = JobOut {
        runs: Vec::with_capacity(2),
        windows: 0,
        decisions: 0,
    };
    for strategy in [Strategy::Baseline, Strategy::Fc] {
        let input = CoupledInput::new(cat, window_secs, seed, index, strategy);
        let result = if tr.enabled {
            let (r, windows, decisions) = coupled_traced(cat, &input, tr, job);
            out.windows += windows;
            out.decisions += decisions;
            r
        } else {
            run_cluster_streamed_coupled(
                cat,
                &input.spec,
                &input.mode,
                &input.cfg,
                &input.faults,
                input.scenario_seed,
                input.sim_seed,
            )
        };
        let (r_avg, s_avg) = tr.time("metrics.summarize", job, || {
            summarize(&result, cat, burst_start)
        });
        let count = match input.spec.arrival {
            ArrivalSpec::Uniform { count } => count as u64,
            _ => unreachable!("coupled jobs use uniform arrivals"),
        };
        let warmup = cat.len() as u64 * COUPLED_CORES as u64;
        let nodes = input.cfg.nodes as u32;
        out.runs.push(Run {
            result,
            released: Released {
                measured: 0..count,
                warmup: count..count + warmup,
                warmup_copies: nodes,
            },
            cores: COUPLED_CORES * nodes,
            mem_bandwidth: COUPLED_MEM_BW * nodes as f64,
            cell: None,
            r_avg,
            s_avg,
        });
    }
    tr.close(job);
    out
}

/// Failover target of the coupled engine: least-loaded healthy node,
/// lowest index on ties, preferring nodes other than `from`.
fn failover_target(views: &[NodeView], from: u16) -> u16 {
    let pick = |pred: &dyn Fn(usize) -> bool| {
        (0..views.len())
            .filter(|&n| pred(n))
            .min_by_key(|&n| (views[n].backlog, n))
            .map(|n| n as u16)
    };
    pick(&|n| views[n].alive && n as u16 != from)
        .or_else(|| pick(&|n| views[n].alive))
        .or_else(|| pick(&|_| true))
        .expect("cluster needs at least one node")
}

/// `run_cluster_streamed_coupled`'s window loop (feedback routing), with
/// spans. Returns the merged result, the window count and the routing
/// decisions.
fn coupled_traced(
    cat: &Catalogue,
    input: &CoupledInput,
    tr: &mut Tracer,
    parent: u32,
) -> (NodeResult, u64, u64) {
    let cfg = &input.cfg;
    let (burst, warmup) = tr.time("workload.generate", parent, || input.generate(cat));
    let weights = input.spec.weights.table(cat);
    let run = tr.open("cluster.run", parent);
    let mut nodes: Vec<NodeSim> = node_seeds(input.sim_seed, cfg.nodes)
        .iter()
        .map(|&(node, node_seed)| {
            tr.time("invoker.new", run, || {
                let mut sim = NodeSim::new(
                    cat,
                    &input.mode,
                    &cfg.node,
                    &weights,
                    &input.faults,
                    node_seed,
                    node,
                    cfg.failover,
                );
                sim.inject(&warmup);
                sim
            })
        })
        .collect();
    let mut router = FeedbackRouter::new(cfg.lb);
    let mut views = vec![
        NodeView {
            backlog: 0,
            alive: true,
            dominant_milli: 0,
        };
        cfg.nodes as usize
    ];
    let mut batches: Vec<Vec<faas_workload::Call>> = vec![Vec::new(); cfg.nodes as usize];
    let mut cursor = 0usize;
    let mut pending: Vec<Handoff> = Vec::new();
    let mut barrier = SimTime::ZERO;
    let (mut windows, mut decisions) = (0u64, 0u64);
    let epoch = tr.epoch;
    loop {
        let mut t = nodes.iter().filter_map(|n| n.next_event_time()).min();
        if let Some(call) = burst.get(cursor) {
            t = Some(t.map_or(call.release, |t| t.min(call.release)));
        }
        if let Some(h) = pending.first() {
            t = Some(t.map_or(h.due, |t| t.min(h.due)));
        }
        let Some(t) = t else { break };
        let horizon = t + cfg.lookahead;
        windows += 1;

        let route = tr.open("cluster.lb.route", run);
        while let Some(call) = burst.get(cursor) {
            if call.release > horizon {
                break;
            }
            let node = router.route(&views) as usize;
            decisions += 1;
            views[node].backlog += 1;
            batches[node].push(*call);
            cursor += 1;
        }
        tr.close(route);
        for (node, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                tr.time("invoker.inject", run, || nodes[node].inject(batch));
                batch.clear();
            }
        }
        while pending.first().is_some_and(|h| h.due <= horizon) {
            let h = pending.remove(0);
            let target = failover_target(&views, h.from) as usize;
            views[target].backlog += 1;
            tr.time("invoker.inject", run, || {
                nodes[target].inject_handoff(&h, h.due.max(barrier))
            });
        }

        let advance = tr.open("cluster.advance", run);
        let progress: Vec<(NodeProgress, u64, u64)> = nodes
            .par_iter_mut()
            .map(|n| {
                let start = stamp(epoch);
                let p = n.advance_to(horizon);
                (p, start, stamp(epoch))
            })
            .collect();
        tr.close(advance);
        for (v, (p, start, end)) in views.iter_mut().zip(&progress) {
            tr.record("invoker.advance", advance, *start, *end);
            *v = NodeView {
                backlog: p.backlog(),
                alive: p.alive,
                dominant_milli: p.dominant_milli,
            };
        }

        tr.time("invoker.take_handoffs", run, || {
            for n in nodes.iter_mut() {
                pending.extend(n.take_handoffs());
            }
        });
        pending.sort_by_key(|h| (h.due, h.call.id));
        barrier = horizon;
    }
    assert_eq!(cursor, burst.len(), "every burst call was routed");
    assert!(pending.is_empty(), "every handoff was delivered");
    let results: Vec<NodeResult> = nodes
        .into_iter()
        .map(|n| tr.time("invoker.finish", run, || n.finish()))
        .collect();
    let merged = tr.time("cluster.merge", run, || NodeResult::merge(results));
    tr.close(run);
    (merged, windows, decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, digest};

    /// Every workload, the cluster ones at reduced sizes.
    const SMALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::TraceReplay { window_secs: 5_000 },
        Workload::CoupledFailover { window_secs: 60 },
    ];

    fn job(w: Workload, seed: u64, index: u64, traced: bool) -> JobOut {
        let mut tr = Tracer::new(traced, Instant::now());
        run_job(w, &Catalogue::sebs(), seed, index, &mut tr)
    }

    #[test]
    fn reduced_jobs_of_every_workload_pass_the_checks() {
        for w in SMALL {
            let out = job(w, 7, 0, false);
            let runs = if matches!(w, Workload::CoupledFailover { .. }) {
                2
            } else {
                1
            };
            assert_eq!(out.runs.len(), runs, "{}", w.name());
            for run in &out.runs {
                check(&run.result, &run.released).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(run.r_avg > 0.0 && run.s_avg > 0.0);
            }
        }
    }

    #[test]
    fn traced_jobs_reproduce_the_engines_bit_for_bit() {
        for w in SMALL {
            let plain = job(w, 3, 1, false);
            let traced = job(w, 3, 1, true);
            for (p, t) in plain.runs.iter().zip(&traced.runs) {
                assert_eq!(digest(&p.result), digest(&t.result), "{}", w.name());
                assert_eq!(p.result.peak_resident_calls, t.result.peak_resident_calls);
            }
            assert!(traced.windows > 0 || w == Workload::PaperGrid);
        }
    }

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        let cat = Catalogue::sebs();
        for w in SMALL {
            let a = inputs_digest(w, &cat, 11, 1);
            assert_eq!(a, inputs_digest(w, &cat, 11, 1), "{}", w.name());
            assert_ne!(a, inputs_digest(w, &cat, 12, 1), "{}", w.name());
        }
        // Grid jobs of one pass share the call sequence across strategies.
        let w = Workload::PaperGrid;
        assert_eq!(inputs_digest(w, &cat, 5, 0), inputs_digest(w, &cat, 5, 1));
        assert_ne!(
            inputs_digest(w, &cat, 5, 0),
            inputs_digest(w, &cat, 5, GRID_CELLS)
        );
    }

    #[test]
    fn benchmark_sizes_match_the_documented_configuration() {
        let cat = Catalogue::sebs();
        let input = CoupledInput::new(&cat, 600, 1, 0, Strategy::Fc);
        assert_eq!(
            input.spec.arrival,
            ArrivalSpec::Uniform { count: 52_800 },
            "per-node intensity 30 over 600 s on 16 nodes"
        );
        assert_eq!(mode_for(Strategy::Fc), input.mode);
    }
}
