//! Output checks every job passes, the outcome digest that pins
//! determinism, and the Table III fidelity figure.

use faas_invoker::NodeResult;
use faas_metrics::compare::TABLE3;
use faas_workload::CallOutcome;
use std::ops::Range;

/// The calls a job released: ids are dense, measured and warm-up ids are
/// disjoint ranges. A warm-up call is injected on every node of a cluster,
/// so it ends `warmup_copies` times; a measured call ends exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Released {
    pub measured: Range<u64>,
    pub warmup: Range<u64>,
    pub warmup_copies: u32,
}

impl Released {
    /// Number of call instances released.
    pub fn calls(&self) -> u64 {
        (self.measured.end - self.measured.start)
            + (self.warmup.end - self.warmup.start) * self.warmup_copies as u64
    }
}

/// Check conservation (every released call ends exactly once, completed
/// or dropped) and causal phase order on every outcome.
pub fn check(result: &NodeResult, released: &Released) -> Result<(), String> {
    let end = released.measured.end.max(released.warmup.end) as usize;
    let mut ends = vec![0u32; end];
    let mut count_end = |id: u64| -> Result<(), String> {
        let slot = ends
            .get_mut(id as usize)
            .ok_or_else(|| format!("call {id} was never released"))?;
        *slot += 1;
        Ok(())
    };
    for o in &result.outcomes {
        count_end(o.id.0)?;
        if o.is_measured() != released.measured.contains(&o.id.0) {
            return Err(format!("call {} has the wrong kind", o.id.0));
        }
        causal(o)?;
    }
    for d in &result.drops {
        count_end(d.id.0)?;
    }
    for (id, &n) in ends.iter().enumerate() {
        let id = id as u64;
        let want = if released.measured.contains(&id) {
            1
        } else if released.warmup.contains(&id) {
            released.warmup_copies
        } else {
            0
        };
        if n != want {
            return Err(format!("call {id} ended {n} times, expected {want}"));
        }
    }
    Ok(())
}

fn causal(o: &CallOutcome) -> Result<(), String> {
    let phases = [
        o.release,
        o.invoker_receive,
        o.exec_start,
        o.exec_end,
        o.completion,
    ];
    if phases.windows(2).all(|w| w[0] <= w[1]) {
        Ok(())
    } else {
        Err(format!(
            "call {} has phases out of order: {phases:?}",
            o.id.0
        ))
    }
}

/// FNV-1a over every outcome, drop and fault counter, in result order.
pub fn digest(result: &NodeResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for o in &result.outcomes {
        for v in [
            o.id.0,
            o.func.0 as u64,
            o.node as u64,
            o.release.as_nanos(),
            o.invoker_receive.as_nanos(),
            o.exec_start.as_nanos(),
            o.exec_end.as_nanos(),
            o.completion.as_nanos(),
            o.processing.as_nanos(),
            o.start_kind as u64,
        ] {
            eat(v);
        }
    }
    for d in &result.drops {
        for v in [d.id.0, d.node as u64, d.reason as u64, d.attempts as u64] {
            eat(v);
        }
    }
    let f = result.fault_stats;
    for v in [f.retries, f.timeouts, f.crash_kills, f.dropped, f.failovers] {
        eat(v);
    }
    h
}

/// Mean over Table III cells of `|simulated - paper| / paper`, in percent,
/// for mean response time and mean stretch. `cells` holds, per
/// [`TABLE3`] row index, the simulated pooled means `(r_avg, s_avg)`.
pub fn fidelity_err_pct(cells: &[(usize, f64, f64)]) -> (f64, f64) {
    assert!(!cells.is_empty(), "fidelity needs at least one cell");
    let (mut r, mut s) = (0.0, 0.0);
    for &(row, r_avg, s_avg) in cells {
        let paper = &TABLE3[row];
        r += (r_avg - paper.r_avg).abs() / paper.r_avg;
        s += (s_avg - paper.s_avg).abs() / paper.s_avg;
    }
    let n = cells.len() as f64;
    (100.0 * r / n, 100.0 * s / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_invoker::{FaultStats, PoolStats};
    use faas_simcore::time::{SimDuration, SimTime};
    use faas_workload::trace::{CallId, CallKind, ColdStartKind};
    use faas_workload::FuncId;

    fn outcome(id: u64, kind: CallKind) -> CallOutcome {
        let t = |s: u64| SimTime::from_secs(id + s);
        CallOutcome {
            id: CallId(id),
            func: FuncId(0),
            kind,
            release: t(0),
            invoker_receive: t(1),
            exec_start: t(2),
            exec_end: t(3),
            completion: t(4),
            processing: SimDuration::from_secs(1),
            start_kind: ColdStartKind::Warm,
            node: 0,
        }
    }

    fn result(outcomes: Vec<CallOutcome>) -> NodeResult {
        NodeResult {
            outcomes,
            measured_pool_stats: PoolStats::default(),
            total_pool_stats: PoolStats::default(),
            peak_queue: 0,
            peak_concurrency: 0,
            peak_events: 0,
            peak_resident_calls: 0,
            last_completion: SimTime::ZERO,
            served_cpu_secs: 0.0,
            served_mem_units: 0.0,
            drops: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    fn released() -> Released {
        Released {
            measured: 2..5,
            warmup: 0..2,
            warmup_copies: 1,
        }
    }

    fn good() -> NodeResult {
        result(vec![
            outcome(0, CallKind::Warmup),
            outcome(1, CallKind::Warmup),
            outcome(2, CallKind::Measured),
            outcome(3, CallKind::Measured),
            outcome(4, CallKind::Measured),
        ])
    }

    #[test]
    fn a_complete_causal_result_passes() {
        assert_eq!(check(&good(), &released()), Ok(()));
    }

    #[test]
    fn a_missing_id_is_rejected() {
        let mut r = good();
        r.outcomes.remove(3);
        let err = check(&r, &released()).unwrap_err();
        assert!(err.contains("call 3 ended 0 times"), "{err}");
    }

    #[test]
    fn a_duplicated_id_is_rejected() {
        let mut r = good();
        r.outcomes.push(outcome(4, CallKind::Measured));
        assert!(check(&r, &released()).is_err());
    }

    #[test]
    fn swapped_phases_are_rejected() {
        let mut r = good();
        let o = &mut r.outcomes[2];
        std::mem::swap(&mut o.exec_start, &mut o.exec_end);
        let err = check(&r, &released()).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn warmup_calls_end_once_per_node() {
        let rel = Released {
            warmup_copies: 2,
            ..released()
        };
        assert!(check(&good(), &rel).is_err());
        let mut r = good();
        r.outcomes.push(outcome(0, CallKind::Warmup));
        r.outcomes.push(outcome(1, CallKind::Warmup));
        assert_eq!(check(&r, &rel), Ok(()));
        assert_eq!(rel.calls(), 7);
    }

    #[test]
    fn digest_sees_a_changed_phase() {
        let mut r = good();
        let before = digest(&r);
        r.outcomes[4].completion = SimTime::from_secs(99);
        assert_ne!(digest(&r), before);
    }

    #[test]
    fn fidelity_of_a_hand_made_cell() {
        // Row 0 is (5 cores, intensity 30, baseline): R avg 3.79 s, S avg
        // 18.40. 10% high on R and 25% low on S.
        let row = &TABLE3[0];
        assert_eq!(
            (row.cpus, row.intensity, row.r_avg, row.s_avg),
            (5, 30, 3.79, 18.40)
        );
        let (r, s) = fidelity_err_pct(&[(0, 3.79 * 1.1, 18.40 * 0.75)]);
        assert!((r - 10.0).abs() < 1e-9, "{r}");
        assert!((s - 25.0).abs() < 1e-9, "{s}");
        // Averaged over cells: an exact second cell halves both errors.
        let exact = &TABLE3[1];
        let (r2, s2) =
            fidelity_err_pct(&[(0, 3.79 * 1.1, 18.40 * 0.75), (1, exact.r_avg, exact.s_avg)]);
        assert!((r2 - 5.0).abs() < 1e-9 && (s2 - 12.5).abs() < 1e-9);
    }
}
