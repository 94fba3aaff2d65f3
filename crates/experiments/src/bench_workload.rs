//! Workload-generation performance trajectory: `experiments bench`.
//!
//! Times the sharded counter-based generator ([`ShardedGenerator`]) against
//! serial generation on two workloads and writes `BENCH_workload.json` in
//! the same `{"name", "value", "unit"}` dashboard style as `BENCH_gps.json`
//! and `BENCH_events.json`:
//!
//! * **bulk generation** — materialize 10^6+ calls of an MMPP/Zipf
//!   workload. `serial` walks the index space on one thread; `sharded`
//!   fans the same chunks out under rayon and concatenates (bit-identical
//!   output). The speedup entry is the headline: generation is
//!   embarrassingly parallel because every call is a pure function of
//!   `(seed, index)`, so it should scale with cores (the `threads` entry
//!   records how many the runner had — on a single-core runner the
//!   speedup is ~1x by construction).
//! * **cluster assignment at 256 nodes** — produce every node's sorted
//!   call list. `filter` is the materialized path (each node scans the
//!   full shared burst); `stream` is the per-node stride (each node
//!   generates only its own calls). The stream path does O(n) total
//!   call-generations instead of O(n · nodes) scan steps.

use crate::bench_gps::BenchEntry;
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::arrival::ArrivalSpec;
use faas_workload::generate::{ShardedGenerator, WorkloadSpec};
use faas_workload::mix::MixSpec;
use faas_workload::sebs::Catalogue;
use faas_workload::trace::Call;
use faas_workload::weight::WeightSpec;
use rayon::prelude::*;

/// Target call count for the bulk-generation benchmark.
const BULK_CALLS: usize = 1_000_000;
/// Nodes for the assignment benchmark.
const NODES: u64 = 256;
/// Calls for the assignment benchmark.
const ASSIGN_CALLS: usize = 1_000_000;
const SAMPLES: usize = 3;

fn bulk_generator(catalogue: &Catalogue, calls: usize) -> ShardedGenerator {
    let window = SimDuration::from_secs(60);
    let rate = calls as f64 / window.as_secs_f64();
    let spec = WorkloadSpec {
        arrival: ArrivalSpec::Mmpp {
            rate_on: 1.8 * rate,
            rate_off: 0.2 * rate,
            mean_on_secs: 8.0,
            mean_off_secs: 8.0,
        },
        mix: MixSpec::Zipf { s: 1.2 },
        weights: WeightSpec::Uniform,
        window,
    };
    ShardedGenerator::new(&spec, catalogue, SimTime::ZERO, 0xBE7C)
}

/// Checksum so the optimizer cannot discard the generated calls.
fn checksum(calls: &[Call]) -> u64 {
    calls
        .iter()
        .fold(0u64, |acc, c| acc.wrapping_add(c.release.as_nanos()))
}

/// The streamed path: every node generates and sorts only its own
/// stride, in parallel.
fn assign_stream(generator: &ShardedGenerator, nodes: u64) -> u64 {
    let node_ids: Vec<u64> = (0..nodes).collect();
    let sums: Vec<u64> = node_ids
        .par_iter()
        .map(|&node| {
            let mut calls: Vec<Call> = generator.iter_stride(node, nodes).collect();
            calls.sort_by_key(|c| (c.release, c.id));
            checksum(&calls)
        })
        .collect();
    sums.into_iter().fold(0u64, u64::wrapping_add)
}

/// The materialized path: one shared burst; every node scans it for its
/// own calls (round-robin by position).
fn assign_filter(burst: &[Call], nodes: u64) -> u64 {
    let node_ids: Vec<u64> = (0..nodes).collect();
    let sums: Vec<u64> = node_ids
        .par_iter()
        .map(|&node| {
            let calls: Vec<Call> = burst
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u64 % nodes == node)
                .map(|(_, c)| *c)
                .collect();
            checksum(&calls)
        })
        .collect();
    sums.into_iter().fold(0u64, u64::wrapping_add)
}

/// Run the workload-generation benchmarks.
pub fn run() -> Vec<BenchEntry> {
    let catalogue = Catalogue::sebs();
    let mut entries = Vec::new();

    let generator = bulk_generator(&catalogue, BULK_CALLS);
    let n = generator.len();
    entries.push(BenchEntry {
        name: "workload_gen_bulk_calls".into(),
        value: n as f64,
        unit: "calls".into(),
    });
    entries.push(BenchEntry {
        name: "workload_gen_threads".into(),
        value: rayon::current_num_threads() as f64,
        unit: "threads".into(),
    });

    let serial = crate::median_ns(SAMPLES, || checksum(&generator.generate_serial()));
    let sharded = crate::median_ns(SAMPLES, || checksum(&generator.generate_parallel()));
    entries.push(BenchEntry {
        name: "workload_gen_bulk_serial_wall".into(),
        value: serial / 1e6,
        unit: "ms".into(),
    });
    entries.push(BenchEntry {
        name: "workload_gen_bulk_sharded_wall".into(),
        value: sharded / 1e6,
        unit: "ms".into(),
    });
    entries.push(BenchEntry {
        name: "workload_gen_bulk_sharded_speedup".into(),
        value: serial / sharded,
        unit: "x".into(),
    });

    let assign_gen = bulk_generator(&catalogue, ASSIGN_CALLS);
    let mut burst = assign_gen.generate_parallel();
    burst.sort_by_key(|c| (c.release, c.id));
    let filter = crate::median_ns(SAMPLES, || assign_filter(&burst, NODES));
    let stream = crate::median_ns(SAMPLES, || assign_stream(&assign_gen, NODES));
    entries.push(BenchEntry {
        name: format!("cluster_assign_n{NODES}_filter_wall"),
        value: filter / 1e6,
        unit: "ms".into(),
    });
    entries.push(BenchEntry {
        name: format!("cluster_assign_n{NODES}_stream_wall"),
        value: stream / 1e6,
        unit: "ms".into(),
    });
    entries.push(BenchEntry {
        name: format!("cluster_assign_n{NODES}_stream_speedup"),
        value: filter / stream,
        unit: "x".into(),
    });
    entries
}

/// Human-readable rendering of the entries.
pub fn render(entries: &[BenchEntry]) -> String {
    let mut out = String::from("Workload-generation benchmarks\n");
    for e in entries {
        out.push_str(&format!("  {:<44} {:>12.1} {}\n", e.name, e.value, e.unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_paths_agree() {
        // Both assignment schemes must hand every node the same calls.
        let catalogue = Catalogue::sebs();
        let generator = bulk_generator(&catalogue, 10_000);
        let burst = generator.generate_serial();
        assert_eq!(assign_stream(&generator, 7), assign_filter(&burst, 7));
    }

    #[test]
    fn bulk_count_is_near_target() {
        // The MMPP count varies with the realized on/off path (only ~7
        // sojourns fit the window), so the tolerance is a coarse band, not
        // a Poisson sqrt(n) bound.
        let catalogue = Catalogue::sebs();
        let generator = bulk_generator(&catalogue, BULK_CALLS);
        let n = generator.len() as f64;
        let target = BULK_CALLS as f64;
        assert!(
            (0.3 * target..2.0 * target).contains(&n),
            "realized count {n} vs target {target}"
        );
    }
}
