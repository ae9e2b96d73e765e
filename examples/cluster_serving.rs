//! Elastic scale-out cluster serving with `mprec-runtime::cluster`:
//! the sparse feature space is consistent-hash-sharded across 4
//! simulated nodes (each with its own worker and MP-Cache state over
//! one shared set of weights), a front-end scatters every micro-batch
//! to the *pruned* target set of its routed path, the nodes compute
//! partial pooled embeddings, and a merger gathers them through the top
//! MLP.
//! Runs two traffic scenarios — steady Poisson and hot-key drift —
//! printing the shard layout, per-node cache hit rates (drift visibly
//! cools the caches; a node owning only replicated table-half features
//! may idle entirely — that's shard pruning), and the slowest-shard
//! critical path the router SLA-routes on. A final run configures node
//! churn (one failure + one join mid-trace) and prints the per-epoch
//! hit rates: the post-rebalance dip and its recovery.
//!
//! Run with: `cargo run --release --example cluster_serving`

use mprec::data::query::QueryTraceConfig;
use mprec::data::scenario::{ChurnAction, ChurnEvent, LoadScenario};
use mprec::runtime::{Cluster, ClusterConfig, PathKind, RuntimeModelConfig};

fn cfg(scenario: LoadScenario) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        workers_per_node: 1,
        trace: QueryTraceConfig {
            num_queries: 4_000,
            qps: 2_000.0,
            mean_size: 16.0,
            max_size: 256,
            ..QueryTraceConfig::default()
        },
        scenario,
        model: RuntimeModelConfig {
            rows_per_feature: 10_000,
            profile_accesses: 10_000,
            ..RuntimeModelConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, scenario) in [
        ("steady poisson", LoadScenario::SteadyPoisson),
        ("hot-key drift", LoadScenario::HotKeyDrift { epochs: 8 }),
    ] {
        let cluster = Cluster::new(cfg(scenario))?;
        if scenario == LoadScenario::SteadyPoisson {
            println!("== shard layout (consistent hash, 4 nodes) ==");
            for &n in cluster.plan().nodes() {
                println!(
                    "node {n}: features {:?}",
                    cluster.plan().features_of(n)
                );
            }
            let dhe = cluster
                .paths()
                .iter()
                .position(|&p| p == PathKind::Dhe)
                .expect("dhe path");
            println!(
                "dhe critical path @4K samples: {:.0} us (slowest shard + merge)\n",
                cluster.mapping_set().mappings[dhe].profile.latency_us(4096)
            );
        }
        let report = cluster.serve()?;
        let o = &report.outcome;
        println!("== {label}: {} ==", o.policy);
        println!("completed queries    : {}", o.completed);
        println!("samples/s            : {:.0}", o.raw_sps());
        println!(
            "latency p50/p99      : {:.2} / {:.2} ms",
            report.histogram.quantile_us(0.50) / 1000.0,
            o.p99_latency_us / 1000.0
        );
        println!(
            "virtual SLA viol.    : {:.2} %",
            100.0 * report.virtual_sla_violations as f64 / o.completed.max(1) as f64
        );
        for (n, stats) in report.per_node_cache.iter().enumerate() {
            println!(
                "node {n} cache hit rate: {:.1} % ({} features, {} batches)",
                100.0 * stats.encoder_hit_rate(),
                report.per_node_features[n],
                report.per_node_batches[n]
            );
        }
        println!(
            "merged cache hit rate: {:.1} %\n",
            100.0 * report.cache.encoder_hit_rate()
        );
    }

    // Elasticity: fail node 3 at 40% of the trace, admit a cold node 4
    // at 70%, and watch the rebalanced shards dip and re-warm.
    let span = mprec::data::scenario::nominal_span_us(4_000, 2_000.0);
    let elastic = Cluster::new(ClusterConfig {
        churn: vec![
            ChurnEvent {
                at_us: 0.4 * span,
                node: 3,
                action: ChurnAction::Fail,
            },
            ChurnEvent {
                at_us: 0.7 * span,
                node: 4,
                action: ChurnAction::Join,
            },
        ],
        ..cfg(LoadScenario::SteadyPoisson)
    })?;
    let report = elastic.serve()?;
    println!("== node churn: fail node 3 @40%, join node 4 @70% ==");
    println!(
        "completed queries    : {} ({} batches retried after the failure)",
        report.outcome.completed, report.retried_batches
    );
    for (i, epoch) in report.epochs.iter().enumerate() {
        println!(
            "epoch {i} (t={:>7.0} us, live {:?}): hit rate {:.1} % over {} batches",
            epoch.start_us,
            epoch.live,
            100.0 * epoch.hit_rate(),
            epoch.batches
        );
    }
    Ok(())
}
