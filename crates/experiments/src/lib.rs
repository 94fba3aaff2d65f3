//! # faas-experiments
//!
//! The experiment harness: one module per table/figure of the paper, each
//! with a `run` function producing a serialisable result and a `render`
//! function printing the reproduced rows next to the paper's published
//! values.
//!
//! | Paper artefact | Module |
//! |----------------|--------|
//! | Table I (idle-system latencies) | [`table1`] |
//! | Fig. 2 (cold starts vs memory) | [`fig2`] |
//! | Figs. 3 & 4 + Tables III & IV (+ appendix Figs. 7–36) | [`grid`] |
//! | Table II (completion-time ratios) | [`grid`] |
//! | Fig. 5 (Fair-Choice fairness) | [`fig5`] |
//! | Fig. 6 + Tables V & VI (+ appendix Figs. 37–38) | [`fig6`] |
//!
//! [`ablations`] goes beyond the paper: hyper-parameter sweeps for the
//! design choices the paper fixes by fiat. [`functions`] renders §II's
//! per-function fairness view for one grid configuration. [`sweep`]
//! runs the paper's comparison along one axis per table — arrival × mix ×
//! container weights, cluster size, faults, coupled routing with
//! failover, synthetic trace replay and multi-resource DRF — as one
//! declarative point grid: scenario diversity the paper never measured.
//!
//! The `bench_*` modules write the `BENCH_*.json` perf artifacts;
//! [`bench_history`] folds them into the durable, append-only
//! `BENCH_HISTORY.json` trajectory and gates regressions against its
//! rolling median, and [`dashboard`] renders that trajectory as a
//! self-contained static HTML page of SVG sparklines.
//!
//! All experiments run the 5-seed repetitions in parallel (rayon) and are
//! bit-for-bit reproducible from the seed set.

pub mod ablations;
pub mod bench_coupled;
pub mod bench_drf;
pub mod bench_events;
pub mod bench_faults;
pub mod bench_gps;
pub mod bench_history;
pub mod bench_replay;
pub mod bench_schema;
pub mod bench_weighted_gps;
pub mod bench_workload;
pub mod custom;
pub mod dashboard;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod functions;
pub mod grid;
pub mod sweep;
pub mod table1;

/// Median wall-clock nanoseconds of `f` over `samples` runs. One shared
/// timing method for every `bench_*` module, so the `BENCH_*.json`
/// trajectory points stay methodologically comparable across benchmarks.
pub(crate) fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("elapsed times are finite"));
    times[times.len() / 2]
}

/// The seeds of the paper's "5 different random sequences of calls".
pub const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

/// Reduced configuration for smoke tests and benches: fewer seeds and the
/// cheaper corner of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Number of seeds to run (the paper uses 5).
    pub seeds: usize,
    /// If true, restrict grids to a small representative subset.
    pub quick: bool,
}

impl Effort {
    /// Full paper-scale effort.
    pub fn full() -> Self {
        Effort {
            seeds: SEEDS.len(),
            quick: false,
        }
    }

    /// Quick effort for tests/benches.
    pub fn quick() -> Self {
        Effort {
            seeds: 2,
            quick: true,
        }
    }

    /// The seed slice to use.
    pub fn seed_set(&self) -> &'static [u64] {
        &SEEDS[..self.seeds.min(SEEDS.len())]
    }
}
