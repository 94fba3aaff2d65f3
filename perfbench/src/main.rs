//! End-to-end and per-layer benchmark of the FaaS scheduling simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|trace_replay|coupled_failover> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs a workload's jobs back
//! to back (a closed loop with one client) for `--seconds`, checks every
//! job's output, and prints the metrics by name with their units; the last
//! line is one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones. With `--trace 1` each
//! job is also run with spans around every call into a layer, and the
//! metrics are the per-layer ones; the spans and a per-layer self-time
//! table are written under `perfbench/out/`. Reported times are scaled to
//! the host's quiet speed (see `speed`). The exit code is non-zero when
//! any job panicked or failed a check.

mod check;
mod jobs;
mod probes;
mod spans;
mod speed;

use check::{check, digest, fidelity_err_pct};
use faas_workload::Catalogue;
use jobs::{run_job, JobOut, Run, Workload, GRID_CELLS};
use probes::Host;
use spans::{SelfTimes, Span, Tracer, ROOT};
use speed::Speedometer;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run, at least; `setup_s` is their median. Cheap set-ups
/// repeat until `SETUP_SECS` have passed.
const SETUPS: usize = 3;
const SETUP_SECS: f64 = 1.0;
/// Spans kept for the span file; later jobs still count in the table.
const MAX_STORED_SPANS: usize = 200_000;
/// Engine threads of the end-to-end jobs. On a shared 2-vCPU host, work
/// on the second vCPU slowed by 1.6x to 3.6x in phases lasting minutes
/// (the coupled engine spawns and joins threads at each of about 3 900
/// window barriers per job; the replay fans out once), and no reading
/// taken on the benchmark's own thread followed it. So timed jobs run at
/// one thread; every run checks determinism at the default thread count,
/// and the traced run reports both.
const E2E_THREADS: usize = 1;
/// Where traced runs write their span file and layer table.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    bad(&format!("expected one of {}", Workload::NAMES.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs and checks jobs, counting attempts and failures.
struct Runner {
    cat: Catalogue,
    seed: u64,
    attempted: u64,
    failed: u64,
}

impl Runner {
    /// Run job `index` and check its output. Returns the output, its host
    /// time in seconds and its digest; `None` if it panicked or failed.
    fn job(&mut self, w: Workload, index: u64, tr: &mut Tracer) -> Option<(JobOut, f64, u64)> {
        self.attempted += 1;
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_job(w, &self.cat, self.seed, index, tr)
        }));
        let secs = start.elapsed().as_secs_f64();
        let out = match out {
            Ok(out) => out,
            Err(_) => return self.fail(w, index, "panicked"),
        };
        let mut d = 0u64;
        for run in &out.runs {
            if let Err(e) = check(&run.result, &run.released) {
                return self.fail(w, index, &e);
            }
            d = d.rotate_left(17) ^ digest(&run.result);
        }
        Some((out, secs, d))
    }

    fn fail<T>(&mut self, w: Workload, index: u64, why: &str) -> Option<T> {
        self.failed += 1;
        eprintln!("{} job {index} failed: {why}", w.name());
        None
    }

    /// A rerun of job `index` must reproduce its first digest.
    fn expect_digest(&mut self, w: Workload, index: u64, got: u64, want: Option<u64>, what: &str) {
        if want.is_some_and(|want| want != got) {
            self.failed += 1;
            eprintln!("{} job {index}: digest differs {what}", w.name());
        }
    }

    /// Run one cycle of jobs untraced and return their digests.
    fn cycle_digests(&mut self, w: Workload) -> Vec<Option<u64>> {
        let mut off = Tracer::new(false, Instant::now());
        (0..w.cycle())
            .map(|j| self.job(w, j, &mut off).map(|(_, _, d)| d))
            .collect()
    }

    /// Rerun the first cycle at `threads` engine threads; digests must
    /// match.
    fn check_threads(&mut self, w: Workload, threads: usize, want: &[Option<u64>]) {
        let got = with_threads(threads, || self.cycle_digests(w));
        let what = format!("at {threads} engine threads");
        for (j, (g, want)) in got.iter().zip(want).enumerate() {
            if let Some(g) = g {
                self.expect_digest(w, j as u64, *g, *want, &what);
            }
        }
    }

    /// Fill in the simulated-outcome stats of the fixed job set that the
    /// timed window did not reach.
    fn complete_sim_jobs(&mut self, w: Workload, sim: &mut [Option<SimStats>]) {
        let mut off = Tracer::new(false, Instant::now());
        for (j, slot) in sim.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = self
                    .job(w, j as u64, &mut off)
                    .map(|(o, _, _)| SimStats::of(&o));
            }
        }
    }
}

/// Run `f` with the engine's thread pool pinned to `n` threads.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let r = f();
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    r
}

/// The simulated outcome of one job, for the *sim* metrics.
#[derive(Clone, Copy)]
struct SimStats {
    released: u64,
    completed: u64,
    cell: Option<usize>,
    r_avg: f64,
    s_avg: f64,
}

impl SimStats {
    /// Released and completed calls over the job's runs; cell and means
    /// of its first run (grid jobs have one).
    fn of(out: &JobOut) -> SimStats {
        let first = &out.runs[0];
        SimStats {
            released: out.calls(),
            completed: out
                .runs
                .iter()
                .map(|r| r.result.outcomes.len() as u64)
                .sum(),
            cell: first.cell,
            r_avg: first.r_avg,
            s_avg: first.s_avg,
        }
    }
}

/// Table III fidelity of grid jobs: per-cell means pooled over passes.
fn fidelity(stats: &[Option<SimStats>]) -> (f64, f64) {
    let mut cells = vec![(0.0, 0.0, 0u32); GRID_CELLS as usize];
    for s in stats.iter().flatten() {
        let c = &mut cells[s.cell.expect("grid jobs have a cell")];
        *c = (c.0 + s.r_avg, c.1 + s.s_avg, c.2 + 1);
    }
    let pooled: Vec<(usize, f64, f64)> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.2 > 0)
        .map(|(row, c)| (row, c.0 / c.2 as f64, c.1 / c.2 as f64))
        .collect();
    if pooled.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    fidelity_err_pct(&pooled)
}

/// Linear-interpolated quantile of sorted data.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the timed part of an end-to-end run measured.
struct Timed {
    setup_s: f64,
    /// Digests of the first cycle, from the first set-up.
    warm: Vec<Option<u64>>,
    /// Scaled host time of each timed job.
    scaled: Vec<f64>,
    calls: u64,
    sim: Vec<Option<SimStats>>,
    peak_rss_mb: f64,
}

/// Set up several times, then time jobs for the window.
fn timed(args: &Args, rn: &mut Runner) -> Timed {
    let w = args.workload;
    let mut setups = Speedometer::start();
    let mut warm: Vec<Option<u64>> = Vec::new();
    let setup_start = Instant::now();
    let mut rep = 0;
    while rep < SETUPS || setup_start.elapsed().as_secs_f64() < SETUP_SECS {
        let start = Instant::now();
        rn.cat = Catalogue::sebs();
        let digests = rn.cycle_digests(w);
        setups.job(start.elapsed().as_secs_f64());
        setups.close();
        if rep == 0 {
            warm = digests;
        } else {
            for (j, d) in digests.iter().enumerate() {
                if let Some(d) = d {
                    rn.expect_digest(w, j as u64, *d, warm[j], "across set-ups");
                }
            }
        }
        rep += 1;
    }
    let setup_s = median(setups.scaled());
    drop(setups);

    let mut speed = Speedometer::start();
    let (mut calls, mut raw_busy) = (0u64, 0.0f64);
    let mut sim: Vec<Option<SimStats>> = vec![None; w.sim_jobs() as usize];
    let mut off = Tracer::new(false, Instant::now());
    let start = Instant::now();
    let mut index = 0u64;
    while index == 0 || start.elapsed().as_secs_f64() < args.seconds {
        if let Some((out, secs, d)) = rn.job(w, index, &mut off) {
            speed.job(secs);
            calls += out.calls();
            raw_busy += secs;
            if let Some(&want) = warm.get(index as usize) {
                rn.expect_digest(w, index, d, want, "from its set-up run");
            }
            if let Some(slot) = sim.get_mut(index as usize) {
                *slot = Some(SimStats::of(&out));
            }
        }
        index += 1;
    }
    speed.close();
    let scaled = speed.scaled();
    let busy: f64 = scaled.iter().sum();
    let mut readings = speed.readings.clone();
    readings.sort_by(f64::total_cmp);
    println!(
        "{}: {} timed jobs at {} engine threads in {:.1} s; raw host calls/s {:.1}; \
         {} speed readings, p5 {:.1} us, median {:.1} us (quiet {:.1} us), so host times are \
         scaled by {:.4}",
        w.name(),
        scaled.len(),
        rayon::current_num_threads(),
        start.elapsed().as_secs_f64(),
        ratio(calls as f64, raw_busy),
        speed.readings.len(),
        quantile(&readings, 0.05) * 1e6,
        quantile(&readings, 0.5) * 1e6,
        speed::QUIET_SECS * 1e6,
        busy / raw_busy
    );
    // The peak covers at least the fixed leading job set, so a window
    // that fits fewer jobs does not lower it.
    rn.complete_sim_jobs(w, &mut sim);
    Timed {
        setup_s,
        warm,
        scaled,
        calls,
        sim,
        peak_rss_mb: probes::peak_rss_mb(),
    }
}

/// The end-to-end run: the timed part at `E2E_THREADS`, then a
/// determinism check at the default thread count, then the
/// simulated-outcome metrics over a fixed job set.
fn end_to_end(args: &Args, rn: &mut Runner, host: &Host) -> Vec<Metric> {
    let w = args.workload;
    let t = with_threads(E2E_THREADS, || timed(args, rn));
    rn.check_threads(w, host.engine_threads, &t.warm);

    let sim = t.sim;
    let (released, completed) = sim
        .iter()
        .flatten()
        .fold((0, 0), |(r, c), s| (r + s.released, c + s.completed));
    let (r_err, s_err) = if w == Workload::PaperGrid {
        fidelity(&sim)
    } else {
        let grid = Workload::PaperGrid;
        let mut grid_sim = vec![None; grid.sim_jobs() as usize];
        rn.complete_sim_jobs(grid, &mut grid_sim);
        fidelity(&grid_sim)
    };

    let busy: f64 = t.scaled.iter().sum();
    let mut job_ms: Vec<f64> = t.scaled.iter().map(|s| s * 1e3).collect();
    job_ms.sort_by(f64::total_cmp);
    vec![
        metric("calls_per_s", ratio(t.calls as f64, busy), "calls/s"),
        metric("job_ms_p50", quantile(&job_ms, 0.5), "ms"),
        metric("job_ms_p90", quantile(&job_ms, 0.9), "ms"),
        metric("peak_rss_mb", t.peak_rss_mb, "MB"),
        metric("setup_s", t.setup_s, "s"),
        metric(
            "sim_served_ratio",
            ratio(completed as f64, released as f64),
            "ratio",
        ),
        metric("paper_r_avg_err_pct", r_err, "%"),
        metric("paper_s_avg_err_pct", s_err, "%"),
    ]
}

/// Per-layer totals over the traced jobs of one thread setting.
#[derive(Default)]
struct LayerAcc {
    jobs: u64,
    calls: u64,
    outcomes: u64,
    wall_ns: u64,
    windows: u64,
    decisions: u64,
    self_times: SelfTimes,
    placements: u64,
    cold_starts: u64,
    evictions: u64,
    placement_failures: u64,
    peak_queue: usize,
    peak_events: usize,
    peak_concurrency: usize,
    peak_resident: u64,
    wait_p50: Vec<f64>,
    wait_p99: Vec<f64>,
    retries: u64,
    timeouts: u64,
    crash_kills: u64,
    dropped: u64,
    failovers: u64,
    cpu_served: f64,
    cpu_capacity: f64,
    mem_served: f64,
    mem_capacity: f64,
}

impl LayerAcc {
    fn add(&mut self, out: &JobOut, spans: &[Span]) {
        self.jobs += 1;
        self.calls += out.calls();
        self.wall_ns += spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end - s.start)
            .sum::<u64>();
        self.windows += out.windows;
        self.decisions += out.decisions;
        self.self_times.add(spans);
        for run in &out.runs {
            self.add_run(run);
        }
    }

    fn add_run(&mut self, run: &Run) {
        let r = &run.result;
        self.outcomes += r.outcomes.len() as u64;
        let pool = r.total_pool_stats;
        self.placements += pool.warm_hits + pool.prewarm_hits + pool.cold_creates;
        self.cold_starts += pool.cold_starts();
        self.evictions += pool.evictions;
        self.placement_failures += pool.placement_failures;
        self.peak_queue = self.peak_queue.max(r.peak_queue);
        self.peak_events = self.peak_events.max(r.peak_events);
        self.peak_concurrency = self.peak_concurrency.max(r.peak_concurrency);
        let resident = if r.peak_resident_calls > 0 {
            r.peak_resident_calls
        } else {
            run.released.calls()
        };
        self.peak_resident = self.peak_resident.max(resident);
        let mut waits: Vec<f64> = r
            .measured()
            .map(|o| {
                o.exec_start
                    .saturating_since(o.invoker_receive)
                    .as_secs_f64()
            })
            .collect();
        waits.sort_by(f64::total_cmp);
        self.wait_p50.push(quantile(&waits, 0.5));
        self.wait_p99.push(quantile(&waits, 0.99));
        let f = r.fault_stats;
        self.retries += f.retries;
        self.timeouts += f.timeouts;
        self.crash_kills += f.crash_kills;
        self.dropped += f.dropped;
        self.failovers += f.failovers;
        let first = r
            .outcomes
            .iter()
            .map(|o| o.release)
            .chain(r.drops.iter().map(|d| d.release))
            .min();
        let last = r.outcomes.iter().map(|o| o.completion).max();
        if let (Some(first), Some(last)) = (first, last) {
            let makespan = last.saturating_since(first).as_secs_f64();
            self.cpu_served += r.served_cpu_secs;
            self.cpu_capacity += run.cores as f64 * makespan;
            self.mem_served += r.served_mem_units;
            self.mem_capacity += run.mem_bandwidth * makespan;
        }
    }

    fn per_call(&self, layer: &str) -> f64 {
        ratio(self.self_times.layer_ns(layer) as f64, self.calls as f64)
    }

    fn per_job(&self, count: u64) -> f64 {
        ratio(count as f64, self.jobs as f64)
    }
}

/// The per-layer self-time table of one thread setting.
fn layer_table(out: &mut String, title: &str, acc: &LayerAcc) {
    let wall = acc.wall_ns as f64;
    let jobs = acc.jobs.max(1) as f64;
    let _ = writeln!(
        out,
        "{title}: {} jobs, {:.3} ms/job wall; self time per job and as a share of job wall \
         (worker-thread spans add up, so shares can pass 100%)",
        acc.jobs,
        wall / jobs / 1e6
    );
    let mut row = |name: &str, ns: u64| {
        let _ = writeln!(
            out,
            "  {name:<24} {:>12.3} ms {:>7.1}%",
            ns as f64 / jobs / 1e6,
            100.0 * ratio(ns as f64, wall)
        );
    };
    for (name, &ns) in &acc.self_times.by_name {
        row(name, ns);
    }
    for layer in ["job", "workload", "cluster", "invoker", "metrics"] {
        row(&format!("[{layer}]"), acc.self_times.layer_ns(layer));
    }
}

/// The traced run: each job index runs untraced at `E2E_THREADS` (as the
/// end-to-end jobs do), traced at the engine's default thread count, and
/// traced at `E2E_THREADS`; the traced runs must reproduce the untraced
/// digest. The tracing overhead compares the two `E2E_THREADS` runs.
fn per_layer(args: &Args, rn: &mut Runner, host: &Host) -> Vec<Metric> {
    let w = args.workload;
    let warm = rn.cycle_digests(w);
    let epoch = Instant::now();
    let (mut acc, mut acc_1t) = (LayerAcc::default(), LayerAcc::default());
    let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
    let mut stored: Vec<(u64, usize, Span)> = Vec::new();
    let start = Instant::now();
    let mut index = 0u64;
    while index == 0
        || start.elapsed().as_secs_f64() < args.seconds
        || !index.is_multiple_of(w.cycle())
    {
        let plain = with_threads(E2E_THREADS, || {
            rn.job(w, index, &mut Tracer::new(false, epoch))
        });
        let Some((_, secs, want)) = plain else {
            index += 1;
            continue;
        };
        if let Some(&first) = warm.get(index as usize) {
            rn.expect_digest(w, index, want, first, "from its warm-up run");
        }
        let mut traced = |rn: &mut Runner, threads: usize, acc: &mut LayerAcc| {
            let mut tr = Tracer::new(true, epoch);
            let ran = rn.job(w, index, &mut tr);
            if let Some((out, secs, got)) = &ran {
                rn.expect_digest(w, index, *got, Some(want), "when traced");
                acc.add(out, &tr.spans);
                if stored.len() + tr.spans.len() <= MAX_STORED_SPANS {
                    stored.extend(tr.spans.iter().map(|s| (index, threads, *s)));
                }
                return Some(*secs);
            }
            None
        };
        traced(rn, host.engine_threads, &mut acc);
        if let Some(t) = with_threads(E2E_THREADS, || traced(rn, E2E_THREADS, &mut acc_1t)) {
            plain_secs += secs;
            traced_secs += t;
        }
        index += 1;
    }

    let mut table = String::new();
    layer_table(
        &mut table,
        &format!(
            "{} seed {} at {} engine threads",
            w.name(),
            args.seed,
            host.engine_threads
        ),
        &acc,
    );
    layer_table(
        &mut table,
        &format!(
            "{} seed {} at {E2E_THREADS} engine thread",
            w.name(),
            args.seed
        ),
        &acc_1t,
    );
    print!("{table}");
    write_trace_files(args, &format!("host {}\n{table}", host.json()), &stored);

    // Layer figures come from the one-thread traced jobs, the thread count
    // the end-to-end jobs run at; only `cluster.self_ns_per_call` is taken
    // at the default thread count.
    let a = &acc_1t;
    let cluster_ns = a.self_times.layer_ns("cluster") as f64;
    let coupled = matches!(w, Workload::CoupledFailover { .. });
    vec![
        metric("workload.ns_per_call", a.per_call("workload"), "ns"),
        metric("workload.calls", a.per_job(a.calls), "count"),
        metric(
            "workload.peak_resident_calls",
            a.peak_resident as f64,
            "count",
        ),
        metric("cluster.self_ns_per_call", acc.per_call("cluster"), "ns"),
        metric("cluster.self_ns_per_call_1t", a.per_call("cluster"), "ns"),
        metric("cluster.windows", a.per_job(a.windows), "count"),
        metric(
            "cluster.ns_per_window",
            ratio(cluster_ns, a.windows as f64),
            "ns",
        ),
        metric("cluster.lb.decisions", a.per_job(a.decisions), "count"),
        metric(
            "cluster.lb.ns_per_decision",
            ratio(
                a.self_times.name_ns("cluster.lb.route") as f64,
                a.decisions as f64,
            ),
            "ns",
        ),
        metric("cluster.failovers", a.per_job(a.failovers), "count"),
        metric("invoker.ns_per_call", a.per_call("invoker"), "ns"),
        metric(
            "invoker.pool.cold_start_ratio",
            ratio(a.cold_starts as f64, a.placements as f64),
            "ratio",
        ),
        metric("invoker.pool.evictions", a.per_job(a.evictions), "count"),
        metric(
            "invoker.pool.placement_failures",
            a.per_job(a.placement_failures),
            "count",
        ),
        metric("invoker.peak_queue", a.peak_queue as f64, "count"),
        metric("invoker.wait_s_p50", median(a.wait_p50.clone()), "s"),
        metric("invoker.wait_s_p99", median(a.wait_p99.clone()), "s"),
        metric(
            "invoker.attempts_per_call",
            ratio((a.calls + a.retries) as f64, a.calls as f64),
            "ratio",
        ),
        metric("invoker.retries", a.per_job(a.retries), "count"),
        metric("invoker.timeouts", a.per_job(a.timeouts), "count"),
        metric("invoker.crash_kills", a.per_job(a.crash_kills), "count"),
        metric("invoker.dropped", a.per_job(a.dropped), "count"),
        metric(
            "cpu.utilization",
            ratio(a.cpu_served, a.cpu_capacity),
            "ratio",
        ),
        metric(
            "cpu.mem_utilization",
            ratio(a.mem_served, a.mem_capacity),
            "ratio",
        ),
        metric("cpu.peak_concurrency", a.peak_concurrency as f64, "count"),
        metric(
            "cpu.gps_ns_per_op",
            probes::gps_ns_per_op(a.peak_concurrency, coupled),
            "ns",
        ),
        metric(
            "core.queue_ns_per_op",
            probes::queue_ns_per_op(a.peak_queue),
            "ns",
        ),
        metric("simcore.peak_events", a.peak_events as f64, "count"),
        metric(
            "simcore.event_ns_per_op",
            probes::event_ns_per_op(a.peak_events),
            "ns",
        ),
        metric(
            "metrics.ns_per_outcome",
            ratio(a.self_times.layer_ns("metrics") as f64, a.outcomes as f64),
            "ns",
        ),
        // The same jobs ran both ways, so the calls/s ratio is the ratio of
        // host times.
        metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(plain_secs, traced_secs)),
            "%",
        ),
    ]
}

/// Write the span file and the layer table of a traced run.
fn write_trace_files(args: &Args, table: &str, spans: &[(u64, usize, Span)]) {
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload.name(), args.seed);
    let mut tsv = String::from("job\tthreads\tspan\tparent\tname\tstart_ns\tend_ns\n");
    let mut first = 0usize;
    for (i, (job, threads, s)) in spans.iter().enumerate() {
        if s.parent == ROOT {
            first = i;
        }
        // Ids are positions within the job's own span list.
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            tsv,
            "{job}\t{threads}\t{}\t{parent}\t{}\t{}\t{}",
            i - first,
            s.name,
            s.start,
            s.end
        );
    }
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(format!("{stem}.spans.tsv"), tsv))
        .and_then(|_| std::fs::write(format!("{stem}.layers.txt"), table));
    match written {
        Ok(()) => println!("wrote {stem}.spans.tsv and {stem}.layers.txt"),
        Err(e) => eprintln!("could not write the trace files under {OUT_DIR}: {e}"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = Host::detect();
    println!("host {}", host.json());
    let mut rn = Runner {
        cat: Catalogue::sebs(),
        seed: args.seed,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        per_layer(&args, &mut rn, &host)
    } else {
        end_to_end(&args, &mut rn, &host)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = rn.failed == 0 && finite;
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        rn.attempted, rn.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args("--workload trace_replay --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.name(), "trace_replay");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload paper_grid --seed x --seconds 1").is_err());
        assert!(args("--workload paper_grid --seed 1 --seconds 0").is_err());
        assert!(args("--workload paper_grid --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload paper_grid --seed 1").is_err());
        assert!(args("--workload paper_grid --seed 1 --seconds 1 --bogus 3").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
