//! # faas-cluster
//!
//! The multi-node substrate: a controller that routes calls to worker nodes
//! (§III: "A controller manages other entities and routes actions
//! invocations to invokers, acting as a load balancer"), plus the
//! multi-node experiment engine of §VIII.
//!
//! One engine runs every cluster experiment: [`engine`] advances every
//! node's resumable simulator in conservative lock-step windows of width
//! [`ClusterConfig::lookahead`], routing each window's arrivals with the
//! [`LoadBalancer`] on the node state seen at the last barrier and moving
//! failed attempts across nodes when [`ClusterConfig::failover`] is on.
//! Worker nodes do not interact in OpenWhisk, so with a static policy and
//! `lookahead = MAX` the run is exactly one single-node simulation per
//! worker on its share of the calls (each warmed, as the paper warms all
//! workers), merged.
//!
//! Three sources feed the engine, each through a thin entry point:
//! [`run_cluster`] replays a materialized [`ClusterScenario`] (the paper's
//! fixed shared burst), [`run_cluster_streamed_coupled`] (and its
//! per-node variant) generates a [`faas_workload::WorkloadSpec`] with the
//! sharded generator, and [`run_cluster_trace_streamed`] pages a
//! [`faas_workload::TraceSource`] with bounded memory, so a 10^8-call
//! day streams through the cluster without being materialized.
//! [`run_cluster_source`] takes either a spec or a trace.

pub mod engine;
pub mod lb;
pub mod sim;

pub use engine::{
    run_cluster, run_cluster_source, run_cluster_streamed_coupled,
    run_cluster_streamed_coupled_per_node, run_cluster_trace_streamed,
};
pub use lb::{FeedbackRouter, LoadBalancer, NodeView, Router};
pub use sim::{ClusterConfig, ClusterScenario};
