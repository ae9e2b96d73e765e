//! Flight-recorder export: runs the canonical node-churn cluster
//! scenario (fail one node at 40% of the trace, join a fresh one at
//! 70%) with tracing enabled, exports the recording as Chrome
//! trace-event JSON (`TRACE_cluster.json` — load it in chrome://tracing
//! or <https://ui.perfetto.dev>), validates it against the CI
//! trace-smoke contract (the recording's own lifecycle invariants,
//! syntactically valid JSON, monotonic virtual timestamps per track,
//! nonzero route-decision events), and prints a
//! compact text "explain" of one query's decision chain: which batch it
//! joined, the mapping Algorithm 2 chose, and the rejected candidates'
//! scored costs.
//!
//! Usage:
//!   trace_viz \[num_queries\]       full run (default 4000 queries)
//!   trace_viz --smoke              CI smoke: 1500 queries, asserts the
//!                                  validation contract end to end
//!   trace_viz --explain \<id\>     also print the routing explanation
//!                                  for query \<id\> (default: query 0)

use mprec_data::query::QueryTraceConfig;
use mprec_data::scenario::{self, LoadScenario};
use mprec_runtime::{Cluster, ClusterConfig, RuntimeModelConfig, TraceConfig};
use mprec_trace::{chrome_trace_json, validate_chrome_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let explain_id: u64 = args
        .iter()
        .position(|a| a == "--explain")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let num_queries = if smoke {
        1500
    } else {
        mprec_bench::arg_or(1, 4000usize)
    };
    mprec_bench::header(
        "trace_viz",
        "the flight recorder captures the full query lifecycle — enqueue, \
         batch formation, routing with rejected candidates' costs, scatter, \
         per-node execution with cache-tier outcomes, retry legs, merge, \
         completion — in virtual time, exportable to chrome://tracing",
    );

    let mut cfg = ClusterConfig {
        nodes: 3,
        workers_per_node: 1,
        trace: QueryTraceConfig {
            num_queries,
            qps: 1000.0,
            mean_size: 32.0,
            max_size: 512,
            ..QueryTraceConfig::default()
        },
        scenario: LoadScenario::SteadyPoisson,
        model: RuntimeModelConfig {
            rows_per_feature: 20_000,
            profile_accesses: 20_000,
            ..RuntimeModelConfig::default()
        },
        recorder: TraceConfig::enabled(),
        ..ClusterConfig::default()
    };
    let span = scenario::nominal_span_us(num_queries, cfg.trace.qps);
    cfg.churn = scenario::node_churn(cfg.nodes, span);

    let cluster = Cluster::new(cfg).expect("cluster builds");
    let report = cluster.serve().expect("cluster serves");
    assert_eq!(
        report.outcome.completed as usize, num_queries,
        "node churn must lose no query"
    );
    let rec = report.trace.expect("recorder was enabled");
    // The recording's own invariants, no twin needed: every enqueue ends
    // in one complete or shed, every completed batch was formed, routed
    // and executed once, virtual times and latencies add up bit for bit.
    let lifecycle = rec.validate().expect("recording validates");
    assert!(
        lifecycle.lifecycle_checked || rec.total_dropped() > 0,
        "lifecycle checks may only be skipped when a ring spilled"
    );

    let json = chrome_trace_json(&rec);
    // The CI trace-smoke contract: valid JSON, per-track monotonic
    // virtual timestamps, and at least one route-decision event.
    let summary = validate_chrome_json(&json).expect("exported trace validates");
    assert!(
        summary.route_decisions > 0,
        "trace records no route decisions"
    );
    std::fs::write("TRACE_cluster.json", &json).expect("write TRACE_cluster.json");

    println!(
        "\ncaptured {} events across {} tracks ({} route decisions, {} dropped, lifecycle {})",
        summary.events,
        summary.tracks,
        summary.route_decisions,
        rec.total_dropped(),
        if lifecycle.lifecycle_checked { "checked" } else { "skipped: ring spilled" },
    );
    println!(
        "wrote TRACE_cluster.json ({} bytes) — open in chrome://tracing or ui.perfetto.dev",
        json.len()
    );

    match rec.explain(explain_id) {
        Some(text) => println!("\nexplain(query {explain_id}):\n{text}"),
        None => println!(
            "\nexplain(query {explain_id}): not in the kept window (ring \
             spilled oldest-first; try a later id)"
        ),
    }
}
