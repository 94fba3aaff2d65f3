//! Property tests of the cluster layer.

use faas_cluster::{FeedbackRouter, LoadBalancer, NodeView, Router};
use faas_simcore::time::SimTime;
use faas_workload::sebs::FuncId;
use faas_workload::trace::{Call, CallId, CallKind};
use proptest::prelude::*;

fn calls(n: usize, funcs: u16) -> Vec<Call> {
    (0..n)
        .map(|i| Call {
            id: CallId(i as u64),
            func: FuncId((i as u16) % funcs),
            release: SimTime::from_millis(i as u64),
            kind: CallKind::Measured,
        })
        .collect()
}

/// Route `calls` in order through a fresh router on idle views.
fn assign(lb: LoadBalancer, calls: &[Call], nodes: u16) -> Vec<u16> {
    let idle = NodeView {
        backlog: 0,
        alive: true,
        dominant_milli: 0,
    };
    let views = vec![idle; nodes as usize];
    let mut router = Router::new(lb);
    calls.iter().map(|c| router.route(c, &views)).collect()
}

proptest! {
    /// Both balancers produce a total assignment onto valid nodes, and
    /// per-node loads are near-balanced.
    #[test]
    fn balancers_partition_evenly(
        n in 1usize..500,
        nodes in 1u16..9,
        funcs in 1u16..12
    ) {
        let cs = calls(n, funcs);
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            let assign = assign(lb, &cs, nodes);
            prop_assert_eq!(assign.len(), n);
            let mut counts = vec![0usize; nodes as usize];
            for &a in &assign {
                prop_assert!(a < nodes);
                counts[a as usize] += 1;
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            // Round-robin is perfectly balanced; function-hash is balanced
            // up to one call per function.
            let slack = match lb {
                LoadBalancer::RoundRobin => 1,
                LoadBalancer::FunctionHash => funcs as usize,
                LoadBalancer::JoinShortestQueue { .. }
                | LoadBalancer::PowerOfTwoChoices { .. }
                | LoadBalancer::JoinShortestDominant { .. }
                | LoadBalancer::PowerOfTwoDominant { .. } => {
                    unreachable!("feedback policies have no static assignment")
                }
            };
            prop_assert!(max - min <= slack, "{lb:?}: {counts:?}");
        }
    }

    /// Assignment is deterministic (pure function of the call list).
    #[test]
    fn assignment_is_pure(n in 1usize..200, nodes in 1u16..5) {
        let cs = calls(n, 11);
        for lb in [LoadBalancer::RoundRobin, LoadBalancer::FunctionHash] {
            prop_assert_eq!(assign(lb, &cs, nodes), assign(lb, &cs, nodes));
        }
    }
}

fn feedback_policies(seed: u64) -> [LoadBalancer; 4] {
    [
        LoadBalancer::JoinShortestQueue { seed },
        LoadBalancer::PowerOfTwoChoices { seed },
        LoadBalancer::JoinShortestDominant { seed },
        LoadBalancer::PowerOfTwoDominant { seed },
    ]
}

/// A pseudo-random but deterministic view sequence for the router to react
/// to (the proptest inputs seed it).
fn view_sequence(len: usize, nodes: usize, salt: u64) -> Vec<Vec<NodeView>> {
    (0..len)
        .map(|i| {
            (0..nodes)
                .map(|n| {
                    let h =
                        (salt ^ (i as u64) << 17 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    NodeView {
                        backlog: (h >> 32) as usize % 7,
                        // Keep at least node 0 alive so routing stays defined.
                        alive: n == 0 || h & 0xFF > 40,
                        // Span idle through transiently oversubscribed so
                        // the dominant-share policies see real variation.
                        dominant_milli: ((h >> 16) % 1300) as u32,
                    }
                })
                .collect()
        })
        .collect()
}

proptest! {
    /// Feedback routing is a pure function of (policy seed, decision
    /// index, views): two routers fed the same sequence agree decision by
    /// decision.
    #[test]
    fn feedback_routing_reruns_identically(
        len in 1usize..300,
        nodes in 1usize..8,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let views = view_sequence(len, nodes, salt);
        for lb in feedback_policies(seed) {
            let mut a = FeedbackRouter::new(lb);
            let mut b = FeedbackRouter::new(lb);
            for v in &views {
                prop_assert_eq!(a.route(v), b.route(v));
            }
        }
    }

    /// Decisions are keyed by the decision counter, not by a shared RNG
    /// stream, so any partition of the sequence reproduces the unsharded
    /// run: a router cloned mid-stream continues bit-identically, wherever
    /// the split lands (chunk) and however the halves interleave (stride —
    /// both clones advance independently yet agree with the reference).
    #[test]
    fn feedback_routing_is_partition_invariant(
        len in 2usize..300,
        nodes in 1usize..8,
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let views = view_sequence(len, nodes, salt);
        let split = ((len as f64 * split_frac) as usize).min(len - 1);
        for lb in feedback_policies(seed) {
            let mut whole = FeedbackRouter::new(lb);
            let reference: Vec<u16> = views.iter().map(|v| whole.route(v)).collect();

            let mut first = FeedbackRouter::new(lb);
            for v in &views[..split] {
                first.route(v);
            }
            let mut second = first.clone();
            let tail_a: Vec<u16> = views[split..].iter().map(|v| first.route(v)).collect();
            let tail_b: Vec<u16> = views[split..].iter().map(|v| second.route(v)).collect();
            prop_assert_eq!(&tail_a, &reference[split..]);
            prop_assert_eq!(&tail_b, &reference[split..]);
        }
    }

    /// Routing never lands on a dead node while any node is alive.
    #[test]
    fn feedback_routing_respects_liveness(
        len in 1usize..300,
        nodes in 1usize..8,
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let views = view_sequence(len, nodes, salt);
        for lb in feedback_policies(seed) {
            let mut router = FeedbackRouter::new(lb);
            for v in &views {
                let choice = router.route(v) as usize;
                prop_assert!(choice < nodes);
                prop_assert!(v[choice].alive);
            }
        }
    }

    /// Tie-breaking is fair: with every node equally loaded, the seeded
    /// draw spreads decisions across the cluster with bounded imbalance
    /// (no node starves, no node hoards).
    #[test]
    fn feedback_tie_breaking_has_bounded_imbalance(
        nodes in 2usize..8,
        seed in any::<u64>(),
    ) {
        let rounds = 2048usize;
        let flat = vec![NodeView { backlog: 3, alive: true, dominant_milli: 250 }; nodes];
        for lb in feedback_policies(seed) {
            let mut router = FeedbackRouter::new(lb);
            let mut counts = vec![0usize; nodes];
            for _ in 0..rounds {
                counts[router.route(&flat) as usize] += 1;
            }
            let expect = rounds / nodes;
            for (n, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c > expect / 2 && c < expect * 2,
                    "{lb:?}: node {n} got {c} of {rounds} over {nodes} nodes"
                );
            }
        }
    }
}
