# Developer entry points mirroring the tier-1 verify and CI.
# Install `just` (https://github.com/casey/just) or read the recipes as
# plain shell — each one is a single cargo invocation.

# Build + test exactly as the tier-1 verify does.
default: build test

# Release build of the whole workspace (facade, all crates, bench binaries).
build:
    cargo build --release

# Full test suite: unit tests, crate integration tests (including
# crates/core/tests/invariants.rs), the root integration tests, and doctests.
test:
    cargo test -q

# Criterion micro-benchmarks for the hot kernels (crates/bench/benches/micro.rs).
bench:
    cargo bench -p mprec-bench

# Lint gate used by CI: clippy over every target with warnings denied.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate used by CI: zero warnings, with missing_docs enforced on
# mprec-core and mprec-runtime (crate-level #![warn(missing_docs)]).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Regenerate one paper figure/table, e.g. `just fig fig16_mpcache`.
fig name:
    cargo run --release -p mprec-bench --bin {{name}}

# Re-record the serving figures' goldens: figures/<bin>.txt is each
# bin's stdout at its defaults, and crates/bench/tests/figures.rs fails
# when a bin's output moves. A change that moves a figure re-records it
# here, in the same diff.
figures-bless:
    cargo build --release -p mprec-bench --bins
    for f in figures/*.txt; do b=$(basename "$f" .txt); target/release/"$b" > "$f"; done

# Cache-policy ablation: the paper's static top-K cache vs online
# FIFO / LRU / segmented-LRU at equal byte budgets (shared round-down
# budget rule) on one power-law trace. Runs on serving code: the static
# column is a 1-shard ShardedMpCache, the online columns are the
# serving DynamicTier built with each eviction policy.
bench-cache-policy:
    cargo run --release -p mprec-bench --bin ablation_cache_policy

# Quick cache-policy smoke (2000 samples): the ablation is the only
# consumer of the Lru / SegmentedLru policies outside the tests.
# Mirrors the CI step.
cache-smoke:
    timeout 300 cargo run --release -p mprec-bench --bin ablation_cache_policy -- 2000

# Persistence smoke: the crash-restart suite for the MP-Cache disk tier
# (snapshot/restore round trip, torn-tmp recovery, truncated-tail
# tolerance). Tests create unique dirs under $TMPDIR and remove them on
# exit. Mirrors the CI step.
persist-smoke:
    cargo test -q -p mprec-core --test persist

# Flight-recorder export: node-churn cluster with tracing on ->
# TRACE_cluster.json (chrome://tracing / ui.perfetto.dev) plus a text
# "explain" of one query's routing chain. `just trace-viz` for the full
# trace, `--explain <id>` via `just fig trace_viz`.
trace-viz:
    cargo run --release -p mprec-bench --bin trace_viz

# Quick trace smoke: 1500-query churn cell with tracing enabled,
# exported Chrome JSON validated (valid JSON, per-track monotonic
# virtual timestamps, nonzero route decisions). Mirrors the CI step.
trace-smoke:
    timeout 300 cargo run --release -p mprec-bench --bin trace_viz -- --smoke

# The repo benchmark's correctness gate (benchmark/, BENCHMARK.json):
# every workload at 1/20 length, deterministic outputs checked
# in-process. Mirrors the CI step.
bench-smoke:
    timeout 300 cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

# Paired benchmark comparison (benchmark/README.md rules 2-4): builds
# <parent-rev> in a git worktree under .bench_build/, runs alternating
# parent/change pairs of every workload with BENCHMARK.json's command and
# prints per (metric, workload) medians, IQRs, wins and the verdict, then
# "X metrics bit-identical: yes/no". The change is the working tree.
# Options: --pairs N (10) --seconds S (10) --seed N (42) --workload W...
# --trace-runs N (0): then N alternating --trace 1 runs per side and
# workload, and each side's median of every per-layer metric.
bench-pairs parent *args:
    scripts/bench_pairs.sh {{parent}} {{args}}

# Line budgets (ROADMAP item 6), one per crate that has had its diet or
# must not grow silently.
# Raise one only together with a CHANGES.md line saying what the growth
# bought.
runtime_loc_budget := "4755"
core_loc_budget := "4277"
serving_loc_budget := "2296"
bench_loc_budget := "1577"
trace_loc_budget := "1692"
data_loc_budget := "2924"

# Lines of Rust per crate, then the budget checks: fails when
# crates/{runtime,core,serving,bench,trace,data}/src (src/bin/ included) has
# outgrown its budget. Mirrors the CI step (which reads the budgets from
# this file).
loc:
    @for d in crates/*/src; do printf '%7d %s\n' "$(find "$d" -name '*.rs' -exec cat {} + | wc -l)" "$d"; done
    @for cb in runtime:{{runtime_loc_budget}} core:{{core_loc_budget}} serving:{{serving_loc_budget}} bench:{{bench_loc_budget}} trace:{{trace_loc_budget}} data:{{data_loc_budget}}; do c=${cb%:*}; b=${cb#*:}; n=$(find crates/$c/src -name '*.rs' -exec cat {} + | wc -l); test "$n" -le "$b" || { echo "crates/$c/src: $n lines, over the $b-line budget"; exit 1; }; done
