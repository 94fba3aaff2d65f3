//! In-memory spans recorded around calls into the simulator's public
//! functions, and the self-time attribution the per-layer table is built
//! from.
//!
//! A span is named `<layer>.<what>`; the layer is the crate the timed call
//! belongs to (`workload`, `cluster`, `invoker`, `metrics`) or `bench` for
//! the benchmark's own glue. A span's self time is its duration minus the
//! part of that interval its child spans cover. Children that ran in
//! parallel on worker threads are merged into one covered interval set, so
//! a parent's self time is the wall time during which none of its children
//! ran (for the cluster engine's parallel section: thread spawn, join and
//! barrier wait).

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

/// Nanoseconds since `epoch`; usable on worker threads (`Instant` is
/// `Copy`), whose spans are handed back to the owning [`Tracer`].
pub fn stamp(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Span recorder for one job. Disabled tracers record nothing and add one
/// branch per call.
pub struct Tracer {
    pub enabled: bool,
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        stamp(self.epoch)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start = self.now();
        self.record(name, parent, start, start)
    }

    pub fn close(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end = self.now();
        }
    }

    /// Record an already-measured interval.
    pub fn record(&mut self, name: &'static str, parent: u32, start: u64, end: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }
}

/// The layer a span name belongs to: its first dotted segment.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name over many jobs.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, u64>,
}

impl SelfTimes {
    pub fn add(&mut self, spans: &[Span]) {
        for (s, t) in spans.iter().zip(self_times(spans)) {
            *self.by_name.entry(s.name).or_insert(0) += t;
        }
    }

    /// Total self time of one layer.
    pub fn layer_ns(&self, layer_name: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _)| layer(n) == layer_name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Total self time of one span name.
    pub fn name_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        // Parent 0..100; two overlapping children (worker threads) cover
        // 10..70 together, a third 80..90: self time is 100 - 70.
        let spans = [
            span("cluster.advance", 0, 100, ROOT),
            span("invoker.advance", 10, 50, 0),
            span("invoker.advance", 30, 70, 0),
            span("invoker.advance", 80, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 40, 10]);
        let mut st = SelfTimes::default();
        st.add(&spans);
        assert_eq!(st.layer_ns("cluster"), 30);
        assert_eq!(st.layer_ns("invoker"), 90);
    }
}
