//! Host-speed scaling of job times.
//!
//! Shared hosts change speed under this benchmark. On the 2-vCPU host it
//! was built on, a fixed 2 MB random-update loop timed every 100 ms read
//! between 0.33 and 0.59 ms within one minute, in steps lasting seconds,
//! and identical grid runs a minute apart differed by 30% in raw host
//! time. So between blocks of jobs the benchmark takes a *reading*: the
//! geometric mean of the times of four fixed reference kernels (benchmark
//! code, independent of the simulator), each the median of three timings
//! after an untimed pass that brings its data back into cache. Each job's
//! raw host time is reported scaled to the host's quiet speed, `raw x
//! QUIET_SECS / reading`, with `reading` the median of the ten readings
//! nearest the job's block. A faster simulator still reads faster; a
//! busier host no longer does.
//!
//! The four kernels cover the ways the simulator's work slows down: random
//! updates over a 2 MB and a 16 MB table (cache and memory bound), a
//! binary-heap hold loop (the event and pending queues) and a B-tree churn
//! (the GPS kernel's ordered sets). On repeated same-seed runs their
//! geometric mean cut the run-to-run range of calls/s from 7-9% raw to
//! 3-4% on all three workloads, where any single kernel left one workload
//! at 8-9%.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Jobs are grouped into blocks of at least this much raw host time, with
/// one reading between blocks.
const BLOCK_SECS: f64 = 0.1;
/// Readings on each side of a block that its scale is the median of.
const SMOOTH: usize = 4;
/// A reading on the quiet host (about the 5th percentile of readings over
/// several minutes on the build host). It only scales the reported
/// numbers.
pub const QUIET_SECS: f64 = 180e-6;

/// The reference kernels' state.
struct Reference {
    small: Vec<u64>,
    large: Vec<u64>,
    heap: BinaryHeap<(u64, u64)>,
    tree: BTreeMap<u64, u64>,
    x: u64,
}

fn next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 20
}

/// Median of three timings of `f`, after one untimed call.
fn median_of_three(mut f: impl FnMut()) -> f64 {
    f();
    let mut times = [0.0f64; 3];
    for t in &mut times {
        let start = Instant::now();
        f();
        *t = start.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[1]
}

fn random_updates(table: &mut [u64], x: &mut u64) {
    let mask = table.len() - 1;
    for _ in 0..20_000 {
        let r = next(x);
        let i = r as usize & mask;
        table[i] = table[i].wrapping_add(r);
    }
    black_box(table);
}

impl Reference {
    fn new() -> Reference {
        let mut x = 1;
        Reference {
            small: (0..1 << 18).collect(),
            large: (0..1 << 21).collect(),
            heap: (0..4096).map(|i| (next(&mut x), i)).collect(),
            tree: (0..4096).map(|i| (next(&mut x), i)).collect(),
            x,
        }
    }

    /// Geometric mean of the four kernels' timings, seconds.
    fn reading(&mut self) -> f64 {
        let Reference {
            small,
            large,
            heap,
            tree,
            x,
        } = self;
        let times = [
            median_of_three(|| random_updates(small, x)),
            median_of_three(|| random_updates(large, x)),
            median_of_three(|| {
                for _ in 0..5_000 {
                    let (k, v) = heap.pop().expect("the heap holds 4096 entries");
                    heap.push((k.wrapping_add(next(x) & 0xffff), v));
                }
                black_box(&*heap);
            }),
            median_of_three(|| {
                for _ in 0..3_000 {
                    let (k, v) = tree.pop_first().expect("the tree holds 4096 entries");
                    tree.insert(k.wrapping_add(next(x) & 0xf_ffff), v);
                }
                black_box(&*tree);
            }),
        ];
        (times.iter().map(|t| t.ln()).sum::<f64>() / times.len() as f64).exp()
    }
}

/// Accumulates raw job times in blocks with a reading after each.
pub struct Speedometer {
    reference: Reference,
    block: Vec<f64>,
    block_secs: f64,
    /// Raw job times of the closed blocks; block `i` lies between
    /// readings `i` and `i + 1`.
    blocks: Vec<Vec<f64>>,
    /// Every reading taken, seconds.
    pub readings: Vec<f64>,
}

impl Speedometer {
    /// Build the kernels' data and take the opening reading.
    pub fn start() -> Speedometer {
        let mut reference = Reference::new();
        let first = reference.reading();
        Speedometer {
            reference,
            block: Vec::new(),
            block_secs: 0.0,
            blocks: Vec::new(),
            readings: vec![first],
        }
    }

    /// Record one job's raw host time; closes the block once it is long
    /// enough.
    pub fn job(&mut self, raw_secs: f64) {
        self.block.push(raw_secs);
        self.block_secs += raw_secs;
        if self.block_secs >= BLOCK_SECS {
            self.close();
        }
    }

    /// Close the open block (if any) with a fresh reading.
    pub fn close(&mut self) {
        if self.block.is_empty() {
            return;
        }
        self.blocks.push(std::mem::take(&mut self.block));
        self.block_secs = 0.0;
        let r = self.reference.reading();
        self.readings.push(r);
    }

    /// The scaled job times, in job order. Block `i` is scaled by the
    /// median of the readings from `SMOOTH` before it to `SMOOTH` after
    /// it: one reading is noisy, and the host's speed changes over
    /// seconds, not within a block.
    pub fn scaled(&self) -> Vec<f64> {
        let last = self.readings.len() - 1;
        let mut out = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            let mut near =
                self.readings[i.saturating_sub(SMOOTH)..=(i + 1 + SMOOTH).min(last)].to_vec();
            near.sort_by(f64::total_cmp);
            let n = near.len();
            let reading = 0.5 * (near[(n - 1) / 2] + near[n / 2]);
            out.extend(block.iter().map(|s| s * QUIET_SECS / reading));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_scaled_by_the_median_of_nearby_readings() {
        let mut s = Speedometer::start();
        s.job(0.01);
        assert!(s.blocks.is_empty(), "block still open");
        s.job(BLOCK_SECS);
        assert_eq!(s.blocks.len(), 1);
        s.job(0.001);
        s.close();
        assert_eq!(s.readings.len(), 3);
        let scaled = s.scaled();
        assert_eq!(scaled.len(), 3);
        let mut r = s.readings.clone();
        r.sort_by(f64::total_cmp);
        assert!((scaled[1] - BLOCK_SECS * QUIET_SECS / r[1]).abs() < 1e-12);
        assert!(scaled.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
