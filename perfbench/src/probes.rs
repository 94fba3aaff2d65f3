//! Host metadata and standalone per-operation proxies: the GPS kernel,
//! the scheduler's pending queue and the event queue, each timed alone at
//! a size a workload reached.

use faas_core::PendingQueue;
use faas_cpu::bench_support::{churn_params, run_churn, run_drf_churn, weighted_churn_params};
use faas_cpu::GpsCpu;
use faas_simcore::time::{SimDuration, SimTime};
use faas_simcore::EventQueue;
use std::hint::black_box;
use std::time::Instant;

/// Completion events / hold steps per proxy sample.
const PROXY_OPS: usize = 100_000;
const PROXY_SAMPLES: usize = 3;

/// Where and how a run was measured.
pub struct Host {
    pub nproc: usize,
    /// Threads the engine's pool actually uses (honours
    /// `RAYON_NUM_THREADS`).
    pub engine_threads: usize,
    pub profile: &'static str,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_threads: rayon::current_num_threads(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"engine_threads\": {}, \"profile\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc, self.engine_threads, self.profile, self.commit
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory (the
/// benchmark runs from the repository root; a plain source tree has none).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median over samples of ns per operation; `sample` builds its state
/// untimed and times `PROXY_OPS` operations with [`timed_ops`].
fn median_ns(mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..PROXY_SAMPLES).map(|_| sample()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn timed_ops(f: impl FnOnce() -> f64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64 / PROXY_OPS as f64
}

/// GPS bank cost per completion event at `tasks` concurrent tasks:
/// uniform mode on a 10-core bank, or DRF mode on the weighted shape.
pub fn gps_ns_per_op(tasks: usize, drf: bool) -> f64 {
    let tasks = tasks.max(1);
    median_ns(|| {
        let params = if drf {
            weighted_churn_params(tasks)
        } else {
            churn_params(10.0)
        };
        let mut cpu = GpsCpu::new(params);
        timed_ops(|| {
            if drf {
                run_drf_churn(&mut cpu, tasks, PROXY_OPS)
            } else {
                run_churn(&mut cpu, tasks, PROXY_OPS)
            }
        })
    })
}

/// Deterministic pseudo-random stream for the queue proxies.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Pending-queue cost per hold step (one pop plus one push) at `size`
/// queued calls.
pub fn queue_ns_per_op(size: usize) -> f64 {
    let size = size.max(1);
    median_ns(|| {
        let mut rng = Lcg(7);
        let mut q = PendingQueue::new();
        for i in 0..size {
            q.push(rng.next() as f64, i);
        }
        timed_ops(|| {
            let mut sum = 0usize;
            for _ in 0..PROXY_OPS {
                let item = q.pop().expect("hold keeps the queue full");
                sum = sum.wrapping_add(item);
                q.push(rng.next() as f64, item);
            }
            sum as f64
        })
    })
}

/// Event-queue cost per hold step (one pop plus one schedule) at `size`
/// live events.
pub fn event_ns_per_op(size: usize) -> f64 {
    let size = size.max(1);
    median_ns(|| {
        let mut rng = Lcg(11);
        let mut q = EventQueue::new();
        for i in 0..size {
            q.schedule(SimTime::from_millis(rng.next() % 1_000_000), i);
        }
        timed_ops(|| {
            let mut sum = 0usize;
            for _ in 0..PROXY_OPS {
                let (now, id) = q.pop().expect("hold keeps the queue full");
                sum = sum.wrapping_add(id);
                q.schedule(now + SimDuration::from_millis(rng.next() % 10_000), id);
            }
            sum as f64
        })
    })
}
