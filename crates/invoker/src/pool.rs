//! The container pool (§III of the paper).
//!
//! A node hosts *action containers*. A container is either **idle** in the
//! free pool (initialised for one function, ready for a warm start),
//! **prewarmed** (runtime initialised, no function yet), or **leased** to a
//! running call (busy executing, initialising, or being cleaned up — the
//! pool only tracks that the memory is held).
//!
//! Placement follows OpenWhisk's documented order: free-pool match →
//! prewarm → create new → evict idle free-pool containers to make room →
//! fail (caller queues the request).

use faas_simcore::time::SimTime;
use faas_workload::sebs::FuncId;
use faas_workload::trace::ColdStartKind;
use serde::{Deserialize, Serialize};

/// Identifies a container within one node simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(u32);

impl ContainerId {
    /// Raw index, for diagnostics.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Unused slot (recyclable).
    Dead,
    /// Idle in the free pool, initialised for a function.
    Idle {
        func: FuncId,
        since: SimTime,
        mem_mb: u64,
    },
    /// Leased to a call (busy / initialising / cleanup).
    Leased { func: FuncId, mem_mb: u64 },
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Placements served by an idle warm container.
    pub warm_hits: u64,
    /// Placements served by promoting a prewarm container.
    pub prewarm_hits: u64,
    /// Placements that created a container from scratch.
    pub cold_creates: u64,
    /// Idle containers evicted to free memory.
    pub evictions: u64,
    /// Placements that failed for lack of memory.
    pub placement_failures: u64,
}

impl PoolStats {
    /// Fig. 2's "coldstarts": every placement that had to initialise the
    /// function (prewarm promotion included).
    pub fn cold_starts(&self) -> u64 {
        self.prewarm_hits + self.cold_creates
    }

    /// The counts accumulated since the `earlier` snapshot.
    pub(crate) fn since(&self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            warm_hits: self.warm_hits - earlier.warm_hits,
            prewarm_hits: self.prewarm_hits - earlier.prewarm_hits,
            cold_creates: self.cold_creates - earlier.cold_creates,
            evictions: self.evictions - earlier.evictions,
            placement_failures: self.placement_failures - earlier.placement_failures,
        }
    }
}

/// The result of a successful placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The leased container.
    pub container: ContainerId,
    /// Warm / prewarm / cold.
    pub kind: ColdStartKind,
}

/// The node's container pool with memory accounting.
#[derive(Debug, Clone)]
pub struct ContainerPool {
    mem_total_mb: u64,
    mem_used_mb: u64,
    prewarm_mem_mb: u64,
    prewarm_ready: u32,
    prewarm_target: u32,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Idle containers per function, most-recently-used last.
    idle_by_func: Vec<Vec<ContainerId>>,
    stats: PoolStats,
}

impl ContainerPool {
    /// Create a pool with `memory_mb` MiB for `num_functions` functions.
    ///
    /// `prewarm_target` stemcell containers of `prewarm_mem_mb` each are
    /// allocated immediately (OpenWhisk starts its prewarm pool at boot).
    pub fn new(
        memory_mb: u64,
        num_functions: usize,
        prewarm_target: u32,
        prewarm_mem_mb: u64,
    ) -> Self {
        let mut pool = ContainerPool {
            mem_total_mb: memory_mb,
            mem_used_mb: 0,
            prewarm_mem_mb,
            prewarm_ready: 0,
            prewarm_target,
            slots: Vec::new(),
            free_slots: Vec::new(),
            idle_by_func: (0..num_functions).map(|_| Vec::new()).collect(),
            stats: PoolStats::default(),
        };
        for _ in 0..prewarm_target {
            if pool.mem_used_mb + prewarm_mem_mb <= pool.mem_total_mb {
                pool.mem_used_mb += prewarm_mem_mb;
                pool.prewarm_ready += 1;
            }
        }
        pool
    }

    /// Current memory in use (all container kinds), MiB.
    pub fn mem_used_mb(&self) -> u64 {
        self.mem_used_mb
    }

    /// Total memory, MiB.
    pub fn mem_total_mb(&self) -> u64 {
        self.mem_total_mb
    }

    /// Number of live containers (idle + leased + prewarm).
    pub fn container_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Dead))
            .count()
            + self.prewarm_ready as usize
    }

    /// Number of idle containers of `func`.
    pub fn idle_count(&self, func: FuncId) -> usize {
        self.idle_by_func[func.index()].len()
    }

    /// Number of ready prewarm containers.
    pub fn prewarm_ready(&self) -> u32 {
        self.prewarm_ready
    }

    /// How many prewarm replacements are owed (consumed but not replaced).
    pub fn prewarm_deficit(&self) -> u32 {
        self.prewarm_target.saturating_sub(self.prewarm_ready)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Try to place a call of `func` needing `mem_mb` MiB, at time `now`.
    ///
    /// Follows the OpenWhisk placement order. On failure (no warm container,
    /// no prewarm, and not enough memory even after evicting every idle
    /// container) returns `None` and the caller must queue the request.
    pub fn place(&mut self, func: FuncId, mem_mb: u64, now: SimTime) -> Option<Placement> {
        // 1. Free-pool container already initialised for this function.
        if let Some(cid) = self.idle_by_func[func.index()].pop() {
            let slot = &mut self.slots[cid.0 as usize];
            debug_assert!(matches!(slot, Slot::Idle { func: f, .. } if *f == func));
            let mem = match *slot {
                Slot::Idle { mem_mb, .. } => mem_mb,
                _ => unreachable!("idle_by_func points at a non-idle slot"),
            };
            *slot = Slot::Leased { func, mem_mb: mem };
            self.stats.warm_hits += 1;
            return Some(Placement {
                container: cid,
                kind: ColdStartKind::Warm,
            });
        }

        // 2. Prewarm container: runtime ready, function must initialise.
        if self.prewarm_ready > 0 {
            self.prewarm_ready -= 1;
            // The prewarm memory is re-purposed; adjust for the function's
            // own footprint.
            self.mem_used_mb = self.mem_used_mb - self.prewarm_mem_mb + mem_mb;
            let cid = self.alloc_slot(Slot::Leased { func, mem_mb });
            self.stats.prewarm_hits += 1;
            return Some(Placement {
                container: cid,
                kind: ColdStartKind::Prewarm,
            });
        }

        // 3. Create a new container, evicting idles if needed.
        if self.ensure_memory(mem_mb, now) {
            self.mem_used_mb += mem_mb;
            let cid = self.alloc_slot(Slot::Leased { func, mem_mb });
            self.stats.cold_creates += 1;
            return Some(Placement {
                container: cid,
                kind: ColdStartKind::Cold,
            });
        }

        self.stats.placement_failures += 1;
        None
    }

    /// Return a leased container to the free pool (idle, warm for its
    /// function).
    pub fn release_idle(&mut self, cid: ContainerId, now: SimTime) {
        let slot = &mut self.slots[cid.0 as usize];
        match *slot {
            Slot::Leased { func, mem_mb } => {
                *slot = Slot::Idle {
                    func,
                    since: now,
                    mem_mb,
                };
                self.idle_by_func[func.index()].push(cid);
            }
            ref other => panic!("release_idle on non-leased container: {other:?}"),
        }
    }

    /// Destroy a leased container outright (memory returned). Used when a
    /// node tears down rather than recycling.
    pub fn destroy_leased(&mut self, cid: ContainerId) {
        let slot = &mut self.slots[cid.0 as usize];
        match *slot {
            Slot::Leased { mem_mb, .. } => {
                self.mem_used_mb -= mem_mb;
                *slot = Slot::Dead;
                self.free_slots.push(cid.0);
            }
            ref other => panic!("destroy_leased on non-leased container: {other:?}"),
        }
    }

    /// Node crash: every container — idle, leased, prewarm — is lost and
    /// its memory returned. Accumulated statistics survive (they describe
    /// the run, not the incarnation); the restart boots with an empty pool
    /// and must re-build its prewarm stock via
    /// [`ContainerPool::replenish_prewarm`].
    pub fn crash(&mut self) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if !matches!(slot, Slot::Dead) {
                *slot = Slot::Dead;
                self.free_slots.push(idx as u32);
            }
        }
        for list in &mut self.idle_by_func {
            list.clear();
        }
        self.prewarm_ready = 0;
        self.mem_used_mb = 0;
    }

    /// Add one prewarm container if there is a deficit and memory allows.
    /// Returns true if a container was added.
    pub fn replenish_prewarm(&mut self) -> bool {
        if self.prewarm_deficit() == 0 {
            return false;
        }
        if self.mem_used_mb + self.prewarm_mem_mb > self.mem_total_mb {
            return false;
        }
        self.mem_used_mb += self.prewarm_mem_mb;
        self.prewarm_ready += 1;
        true
    }

    /// Evict idle containers (least-recently-used first, across all
    /// functions) until `needed_mb` additional MiB fit. Returns true on
    /// success; partial evictions are kept (they only help future requests).
    fn ensure_memory(&mut self, needed_mb: u64, _now: SimTime) -> bool {
        while self.mem_used_mb + needed_mb > self.mem_total_mb {
            match self.oldest_idle() {
                Some(cid) => self.evict(cid),
                None => return false,
            }
        }
        true
    }

    /// The least-recently-used idle container across every function.
    fn oldest_idle(&self) -> Option<ContainerId> {
        let mut best: Option<(SimTime, ContainerId)> = None;
        for list in &self.idle_by_func {
            for &cid in list {
                if let Slot::Idle { since, .. } = self.slots[cid.0 as usize] {
                    match best {
                        Some((t, b)) if (since, cid) >= (t, b) => {}
                        _ => best = Some((since, cid)),
                    }
                }
            }
        }
        best.map(|(_, cid)| cid)
    }

    fn evict(&mut self, cid: ContainerId) {
        let slot = &mut self.slots[cid.0 as usize];
        match *slot {
            Slot::Idle { func, mem_mb, .. } => {
                *slot = Slot::Dead;
                self.mem_used_mb -= mem_mb;
                self.free_slots.push(cid.0);
                let list = &mut self.idle_by_func[func.index()];
                let pos = list
                    .iter()
                    .position(|&c| c == cid)
                    .expect("idle container missing from its function list");
                list.remove(pos);
                self.stats.evictions += 1;
            }
            ref other => panic!("evict on non-idle container: {other:?}"),
        }
    }

    fn alloc_slot(&mut self, slot: Slot) -> ContainerId {
        if let Some(idx) = self.free_slots.pop() {
            self.slots[idx as usize] = slot;
            ContainerId(idx)
        } else {
            self.slots.push(slot);
            ContainerId((self.slots.len() - 1) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 256;

    fn pool(mem: u64) -> ContainerPool {
        // No prewarm by default to keep placement paths explicit.
        ContainerPool::new(mem, 3, 0, MB)
    }

    #[test]
    fn cold_create_then_warm_reuse() {
        let mut p = pool(1024);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap();
        assert_eq!(a.kind, ColdStartKind::Cold);
        assert_eq!(p.mem_used_mb(), MB);
        p.release_idle(a.container, t);
        assert_eq!(p.idle_count(FuncId(0)), 1);
        let b = p.place(FuncId(0), MB, t).unwrap();
        assert_eq!(b.kind, ColdStartKind::Warm);
        assert_eq!(b.container, a.container);
        assert_eq!(p.mem_used_mb(), MB, "warm reuse must not grow memory");
    }

    #[test]
    fn warm_pool_is_per_function() {
        let mut p = pool(1024);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap();
        p.release_idle(a.container, t);
        // A different function cannot take function 0's warm container.
        let b = p.place(FuncId(1), MB, t).unwrap();
        assert_eq!(b.kind, ColdStartKind::Cold);
    }

    #[test]
    fn prewarm_is_used_before_create() {
        let mut p = ContainerPool::new(1024, 2, 1, MB);
        assert_eq!(p.prewarm_ready(), 1);
        let a = p.place(FuncId(0), MB, SimTime::ZERO).unwrap();
        assert_eq!(a.kind, ColdStartKind::Prewarm);
        assert_eq!(p.prewarm_ready(), 0);
        assert_eq!(p.prewarm_deficit(), 1);
        // Replenishment restores the stemcell.
        assert!(p.replenish_prewarm());
        assert_eq!(p.prewarm_ready(), 1);
        assert!(!p.replenish_prewarm(), "no deficit left");
    }

    #[test]
    fn eviction_frees_lru_idle() {
        let mut p = pool(2 * MB);
        let a = p.place(FuncId(0), MB, SimTime::from_secs(0)).unwrap();
        let b = p.place(FuncId(1), MB, SimTime::from_secs(1)).unwrap();
        p.release_idle(a.container, SimTime::from_secs(2)); // older idle
        p.release_idle(b.container, SimTime::from_secs(3));
        // Memory full (2 idle); placing function 2 must evict the LRU idle
        // (function 0's).
        let c = p.place(FuncId(2), MB, SimTime::from_secs(4)).unwrap();
        assert_eq!(c.kind, ColdStartKind::Cold);
        assert_eq!(p.idle_count(FuncId(0)), 0, "older idle evicted");
        assert_eq!(p.idle_count(FuncId(1)), 1, "newer idle kept");
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn placement_fails_when_all_memory_leased() {
        let mut p = pool(2 * MB);
        p.place(FuncId(0), MB, SimTime::ZERO).unwrap();
        p.place(FuncId(1), MB, SimTime::ZERO).unwrap();
        // Nothing idle to evict: must fail.
        assert!(p.place(FuncId(2), MB, SimTime::ZERO).is_none());
        assert_eq!(p.stats().placement_failures, 1);
    }

    #[test]
    fn memory_accounting_is_conserved() {
        let mut p = pool(4 * MB);
        let t = SimTime::ZERO;
        let ids: Vec<_> = (0..3)
            .map(|i| p.place(FuncId(i % 3), MB, t).unwrap().container)
            .collect();
        assert_eq!(p.mem_used_mb(), 3 * MB);
        for id in &ids {
            p.release_idle(*id, t);
        }
        assert_eq!(p.mem_used_mb(), 3 * MB, "idle containers keep memory");
        assert_eq!(p.container_count(), 3);
    }

    #[test]
    fn destroy_returns_memory() {
        let mut p = pool(2 * MB);
        let a = p.place(FuncId(0), MB, SimTime::ZERO).unwrap();
        p.destroy_leased(a.container);
        assert_eq!(p.mem_used_mb(), 0);
        assert_eq!(p.container_count(), 0);
    }

    #[test]
    fn stats_cold_starts_counts_prewarm_and_cold() {
        let mut p = ContainerPool::new(4 * MB, 2, 1, MB);
        p.place(FuncId(0), MB, SimTime::ZERO).unwrap(); // prewarm
        p.place(FuncId(0), MB, SimTime::ZERO).unwrap(); // cold
        let s = p.stats();
        assert_eq!(s.prewarm_hits, 1);
        assert_eq!(s.cold_creates, 1);
        assert_eq!(s.cold_starts(), 2);
        assert_eq!(s.warm_hits, 0);
    }

    #[test]
    fn lifo_reuse_of_warm_containers() {
        // Most-recently-used container is reused first (cache-friendliness),
        // leaving the LRU one as the eviction candidate.
        let mut p = pool(4 * MB);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap().container;
        let b = p.place(FuncId(0), MB, t).unwrap().container;
        p.release_idle(a, SimTime::from_secs(1));
        p.release_idle(b, SimTime::from_secs(2));
        let again = p.place(FuncId(0), MB, SimTime::from_secs(3)).unwrap();
        assert_eq!(again.container, b, "MRU idle reused first");
    }

    #[test]
    fn eviction_tie_breaks_deterministically() {
        // Two idles released at the same instant: lowest ContainerId wins.
        let mut p = pool(2 * MB);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap().container;
        let b = p.place(FuncId(1), MB, t).unwrap().container;
        p.release_idle(a, SimTime::from_secs(1));
        p.release_idle(b, SimTime::from_secs(1));
        p.place(FuncId(2), MB, SimTime::from_secs(2)).unwrap();
        // a has the lower id: it must have been evicted.
        assert_eq!(p.idle_count(FuncId(0)), 0);
        assert_eq!(p.idle_count(FuncId(1)), 1);
        let _ = b;
    }

    #[test]
    fn prewarm_respects_memory_budget() {
        // Pool too small for the requested prewarm count.
        let p = ContainerPool::new(MB, 1, 5, MB);
        assert_eq!(p.prewarm_ready(), 1);
        assert_eq!(p.mem_used_mb(), MB);
    }

    #[test]
    fn crash_loses_every_container_but_keeps_stats() {
        let mut p = ContainerPool::new(8 * MB, 3, 2, MB);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap();
        let b = p.place(FuncId(1), MB, t).unwrap();
        p.release_idle(b.container, t);
        assert!(p.mem_used_mb() > 0);
        let stats_before = p.stats();
        p.crash();
        assert_eq!(p.mem_used_mb(), 0, "crash returns all memory");
        assert_eq!(p.container_count(), 0);
        assert_eq!(p.prewarm_ready(), 0, "stemcells die with the node");
        assert_eq!(p.idle_count(FuncId(1)), 0);
        assert_eq!(p.stats(), stats_before, "stats describe the run");
        // The restarted node rebuilds from cold: placements work again and
        // the prewarm deficit is replenishable.
        assert_eq!(p.prewarm_deficit(), 2);
        assert!(p.replenish_prewarm());
        let c = p.place(FuncId(1), MB, t).unwrap();
        assert_eq!(c.kind, ColdStartKind::Prewarm);
        let _ = a;
    }

    #[test]
    fn crash_does_not_double_free_dead_slots() {
        let mut p = pool(4 * MB);
        let t = SimTime::ZERO;
        let a = p.place(FuncId(0), MB, t).unwrap();
        p.destroy_leased(a.container); // slot already Dead + in free list
        p.place(FuncId(1), MB, t).unwrap();
        p.crash();
        p.crash(); // idempotent: a second crash finds only Dead slots
                   // Allocating up to capacity must hand out distinct slots.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            let cid = p.place(FuncId(i % 3), MB, t).unwrap().container;
            assert!(seen.insert(cid), "slot {cid:?} handed out twice");
        }
    }

    #[test]
    #[should_panic(expected = "non-leased")]
    fn double_release_panics() {
        let mut p = pool(1024);
        let a = p.place(FuncId(0), MB, SimTime::ZERO).unwrap();
        p.release_idle(a.container, SimTime::ZERO);
        p.release_idle(a.container, SimTime::ZERO);
    }
}
