//! The traced run of one workload: where serve wall time goes, layer by
//! layer, from the outside in.
//!
//! A quarter-length trace is served with the flight recorder on and off
//! (their difference is the recorder's overhead). The recorder's
//! `dispatcher` track gives every batch (members, sizes, path), and the
//! batches are then replayed single-threaded through the public layer
//! calls, one span per call. Serves here are never paced: the budget is
//! about busy time, and a paced serve's wall time is its schedule.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use mprec::core::scheduler::{Scheduler, SchedulerConfig};
use mprec::embed::{DheConfig, DheStack};
use mprec::nn::MlpScratch;
use mprec::runtime::{
    degrade_rank, BoundedQueue, LatencyHistogram, PathKind, RuntimeModel, TraceRecording,
};
use mprec::tensor::Matrix;
use mprec::trace::EventKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::e2e::Options;
use crate::gate::{self, Exact};
use crate::metrics::{Measured, Outcome, PER_LAYER};
use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, spread};
use crate::workloads::{path_index, plan, Built, ClusterExtras, Plan, Run, PATHS};

/// The traced run serves 1/4 of the end-to-end trace.
const TRACED_LEN_DIV: usize = 4;
/// Share of `--seconds` spent on recorder-on / recorder-off serve pairs.
const PAIR_BUDGET: f64 = 0.4;
const MIN_PAIRS: usize = 3;
/// Samples in the batch the per-path execution cost is measured on.
const EXEC_BATCH: u64 = 256;
/// Far larger than the last-level cache; the buffers are touched once
/// before timing so page faults are not measured.
const STREAM_BYTES: usize = 64 << 20;
/// SLA budget handed to the Algorithm 2 micro-benchmark.
const ROUTE_SLA_US: f64 = 5_000.0;

/// One dispatched micro-batch, as recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub path: PathKind,
    /// `(query id, samples)` in batch order.
    pub queries: Vec<(u64, u64)>,
}

impl Batch {
    fn samples(&self) -> u64 {
        self.queries.iter().map(|&(_, s)| s).sum()
    }
}

/// Rebuilds every batch from the recorder's `dispatcher` track:
/// `Enqueue` carries a query's size, `Complete.b` its batch, and
/// `path_decisions[b]` the batch's path.
pub fn rebuild_batches(rec: &TraceRecording, decisions: &[PathKind]) -> Result<Vec<Batch>, String> {
    let track = rec
        .track("dispatcher")
        .ok_or("recording has no dispatcher track")?;
    let mut size_of: HashMap<u64, u64> = HashMap::new();
    let mut batches: Vec<Batch> = decisions
        .iter()
        .map(|&path| Batch {
            path,
            queries: Vec::new(),
        })
        .collect();
    for ev in &track.events {
        match ev.kind {
            EventKind::Enqueue => {
                size_of.insert(ev.id, ev.a);
            }
            EventKind::Complete => {
                let size = *size_of
                    .get(&ev.id)
                    .ok_or(format!("query {} completed unseen", ev.id))?;
                let batch = batches.get_mut(ev.b as usize).ok_or(format!(
                    "query {} completed in unknown batch {}",
                    ev.id, ev.b
                ))?;
                batch.queries.push((ev.id, size));
            }
            _ => {}
        }
    }
    if let Some(b) = batches.iter().position(|b| b.queries.is_empty()) {
        return Err(format!("batch {b} has no recorded member"));
    }
    Ok(batches)
}

/// What a replay did, for the gate and the per-id rates.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReplayTotals {
    pub checksum: f64,
    pub samples: u64,
    /// IDs drawn by the timed draws (samples x features, per leg).
    pub drawn_ids: u64,
    pub table_ids: u64,
    pub dhe_ids: u64,
}

/// Replays `batches` in dispatch order on `model`, one span per layer
/// call under a `batch` span. `legs[path_index(path)]` lists the feature
/// subsets a batch on `path` is scattered over: all features as one leg
/// for the engine, one leg per target node for the cluster. The caller
/// resets the cache.
pub fn replay_spans(
    model: &RuntimeModel,
    batches: &[Batch],
    legs: &[Vec<Vec<usize>>],
    log: &mut SpanLog,
    root: SpanId,
) -> Result<ReplayTotals, String> {
    let features = model.config().sparse_features;
    let mut totals = ReplayTotals::default();
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); features];
    let mut scratch = model.make_scratch();
    let (mut part, mut pooled) = (Matrix::default(), Matrix::default());
    let mut top = MlpScratch::default();
    // Per path and leg: (table features, DHE features).
    let legs: Vec<Vec<(Vec<usize>, Vec<usize>)>> = PATHS
        .iter()
        .zip(legs)
        .map(|(&path, legs)| {
            legs.iter()
                .map(|leg| leg.iter().partition(|&&f| !model.path_uses_dhe(path, f)))
                .collect()
        })
        .collect();
    let err = |e: mprec::runtime::RuntimeError| format!("replay: {e}");

    for (b, batch) in batches.iter().enumerate() {
        let samples = batch.samples();
        let bspan = log.open("batch", Some(root), Some(b));
        pooled.resize_zeroed(samples as usize, model.config().emb_dim);
        for (table_feats, dhe_feats) in &legs[path_index(batch.path)] {
            let mut draw = |name| {
                let span = log.open(name, Some(bspan), Some(b));
                ids.iter_mut().for_each(Vec::clear);
                for &(qid, size) in &batch.queries {
                    model.draw_query_ids(qid, size, &mut ids);
                }
                black_box(&ids);
                log.close(span)
            };
            // The draw the program pays for: the batch's IDs, first time.
            draw("draw_ids");
            totals.drawn_ids += samples * features as u64;
            // `pool_features_into` draws the IDs again before it looks
            // them up. A repeated draw walks the same Zipf tables and is
            // far cheaper than the first, so the share of a pool call
            // that is its own draw is imputed from a second, equally warm
            // draw (not part of the budget).
            let warm_draw_ns = draw("draw_ids_rerun");
            for (name, feats) in [("table_gather", table_feats), ("cache_embed", dhe_feats)] {
                if feats.is_empty() {
                    continue;
                }
                let span = log.open(name, Some(bspan), Some(b));
                model
                    .pool_features_into(batch.path, &batch.queries, feats, &mut scratch, &mut part)
                    .map_err(err)?;
                log.close(span);
                log.impute("draw_ids", span, warm_draw_ns);
                pooled
                    .add_assign(&part)
                    .map_err(|e| format!("replay: {e}"))?;
            }
            totals.table_ids += samples * table_feats.len() as u64;
            totals.dhe_ids += samples * dhe_feats.len() as u64;
        }
        let (score, _) = log.time("top_mlp", Some(bspan), Some(b), || {
            model.score_pooled(&pooled, &mut top)
        });
        totals.checksum += score.map_err(err)?;
        totals.samples += samples;
        log.close(bspan);
    }
    Ok(totals)
}

/// Median nanoseconds of one call of `f`, over `trials` timed loops of
/// `iters` calls each.
fn bench_ns(trials: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_trial: Vec<f64> = (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_trial)
}

/// One item bounced between two threads over a pair of bounded queues;
/// a hand-off is half a round trip.
fn queue_handoff_ns() -> f64 {
    const ROUND_TRIPS: usize = 5_000;
    let there: BoundedQueue<u64> = BoundedQueue::with_capacity(4);
    let back: BoundedQueue<u64> = BoundedQueue::with_capacity(4);
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(v) = there.pop() {
                back.push(v);
            }
        });
        let t0 = Instant::now();
        for i in 0..ROUND_TRIPS as u64 {
            there.push(i);
            black_box(back.pop());
        }
        let ns = t0.elapsed().as_nanos() as f64 / (2 * ROUND_TRIPS) as f64;
        there.close();
        ns
    })
}

/// Read + write bandwidth of a large copy (GB/s): what a gather could
/// reach if its rows were contiguous.
fn host_stream_gbps() -> f64 {
    let src = vec![1u8; STREAM_BYTES];
    let mut dst = vec![2u8; STREAM_BYTES];
    let ns = bench_ns(5, 1, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    2.0 * STREAM_BYTES as f64 / ns
}

fn gemm_gflops(m: usize, k: usize, n: usize) -> Result<f64, String> {
    let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.6);
    let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.1 - 0.5);
    let mut out = Matrix::zeros(m, n);
    a.matmul_into(&b, &mut out)
        .map_err(|e| format!("gemm: {e}"))?;
    let iters = (20_000_000 / (2 * m * k * n)).max(1);
    let ns = bench_ns(5, iters, || {
        a.matmul_into(black_box(&b), &mut out)
            .expect("shapes checked above");
        black_box(&mut out);
    });
    Ok(2.0 * (m * k * n) as f64 / ns)
}

/// `(encode ns/id, encode + decode ns/id)` of one stand-alone DHE stack
/// of the workload's shape, cache bypassed.
fn dhe_ns_per_id(plan: &Plan) -> Result<(f64, f64), String> {
    let m = plan.model();
    let cfg = DheConfig {
        k: m.dhe_k,
        dnn: m.dhe_dnn,
        h: m.dhe_h,
        out_dim: m.emb_dim,
    };
    let stack = DheStack::new(cfg, 0, &mut StdRng::seed_from_u64(1))
        .map_err(|e| format!("dhe stack: {e}"))?;
    let ids: Vec<u64> = (0..EXEC_BATCH)
        .map(|i| i * 7919 % m.rows_per_feature)
        .collect();
    let mut codes = Matrix::default();
    let mut mlp = MlpScratch::default();
    let encode = bench_ns(5, 200, || {
        stack
            .encoder()
            .encode_batch_into(black_box(&ids), &mut codes);
        black_box(&mut codes);
    });
    let infer = bench_ns(5, 50, || {
        stack
            .encoder()
            .encode_batch_into(black_box(&ids), &mut codes);
        black_box(
            stack
                .decode_scratch(&codes, &mut mlp)
                .expect("decoder takes its encoder's codes"),
        );
    });
    Ok((encode / ids.len() as f64, infer / ids.len() as f64))
}

/// A `EXEC_BATCH`-sample batch of fresh query ids (8 queries of 32).
fn exec_batch(round: u64) -> Vec<(u64, u64)> {
    (0..8)
        .map(|q| (1_000_000 + round * 8 + q, EXEC_BATCH / 8))
        .collect()
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Measurements that need no engine: kernels, the DHE stack and the
/// runtime's queue and histogram on their own.
struct Micro {
    encode_ns: f64,
    infer_ns: f64,
    gemm_decoder_gflops: f64,
    gemm_256_gflops: f64,
    record_ns: f64,
    handoff_ns: f64,
    stream_gbps: f64,
}

fn micro_benchmarks(plan: &Plan) -> Result<Micro, String> {
    let m = plan.model();
    let (encode_ns, infer_ns) = dhe_ns_per_id(plan)?;
    let mut hist = LatencyHistogram::new();
    let mut x = 1.0f64;
    let record_ns = bench_ns(5, 100_000, || {
        x = x * 1.000_1 + 0.37;
        hist.record(black_box(x));
    });
    Ok(Micro {
        encode_ns,
        infer_ns,
        gemm_decoder_gflops: gemm_gflops(EXEC_BATCH as usize, m.dhe_k, m.dhe_dnn)?,
        gemm_256_gflops: gemm_gflops(256, 256, 256)?,
        record_ns,
        handoff_ns: queue_handoff_ns(),
        stream_gbps: host_stream_gbps(),
    })
}

/// Checks one serve of the traced run: its own invariants, and the same
/// deterministic outputs as every other serve of the run.
fn checked(plan: &Plan, run: Run, exact: &mut Option<Exact>) -> Result<Run, String> {
    gate::check_run(plan, &run)?;
    let e = Exact::of(&run);
    match exact {
        Some(first) => e.same_as(first, "traced vs untraced serve")?,
        None => *exact = Some(e),
    }
    Ok(run)
}

/// Replay A: the recorded batches through `execute_with`, single
/// threaded; the summed checksum must be the serve's. Returns the seconds
/// it took.
fn replay_execute(plain: &Built, batches: &[Batch], served_checksum: f64) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut sum = 0.0;
    match plain {
        Built::Engine(e) => {
            e.model().cache().reset_stats();
            e.model().cache().clear_dynamic();
            let mut scratch = e.model().make_scratch();
            for b in batches {
                let r = e.model().execute_with(b.path, &b.queries, &mut scratch);
                sum += r.map_err(|e| format!("execute_with: {e}"))?.checksum;
            }
            gate::check_checksum("engine vs execute_with replay", served_checksum, sum, 1e-9)?;
        }
        Built::Cluster(c) => {
            let mut scratch = c.make_scratch();
            for b in batches {
                let r = c.execute_with(b.path, &b.queries, &mut scratch);
                sum += r
                    .map_err(|e| format!("cluster execute_with: {e}"))?
                    .checksum;
            }
            gate::check_checksum("cluster vs execute_with replay", served_checksum, sum, 1e-6)?;
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// `core::persist` on a warmed cache: `(export MB/s, load records/s)`,
/// zeros when the dynamic tier holds nothing.
fn persist_rates(model: &RuntimeModel) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let bytes = model.cache().export_dynamic_segment(|_| true);
    let export_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let records = model
        .cache()
        .load_disk_segment(&bytes)
        .map_err(|e| format!("load segment: {e}"))?;
    let load_s = t1.elapsed().as_secs_f64();
    model.cache().clear_disk();
    Ok(if records == 0 {
        (0.0, 0.0)
    } else {
        (bytes.len() as f64 / 1e6 / export_s, records as f64 / load_s)
    })
}

pub fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    let len_div = if opts.smoke { 20 } else { TRACED_LEN_DIV };
    let paced_plan = plan(workload, opts.seed, len_div, false)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let plain_plan = paced_plan.clone().unpaced();
    let traced_plan = plan(workload, opts.seed, len_div, true)
        .expect("known workload")
        .unpaced();
    let (plain, traced) = (plain_plan.build()?, traced_plan.build()?);

    let mut log = SpanLog::new(workload);
    let root = log.open("serve", None, None);

    // data: trace generation, exactly the call `serve()` makes first.
    let mut gen_ns = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..3 {
        let (t, id) = log.time("trace_gen", Some(root), None, || {
            plain_plan.generate_trace()
        });
        gen_ns.push(log.get(id).duration_ns() as f64);
        trace = t;
    }
    let trace_gen_s = median(&gen_ns) / 1e9;

    // Recorder off / on pairs on the same trace, after one warm-up each.
    let mut exact = None;
    checked(&plain_plan, plain.serve()?, &mut exact)?;
    let mut served = checked(&traced_plan, traced.serve()?, &mut exact)?;
    let min_pairs = if opts.smoke { 1 } else { MIN_PAIRS };
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while off_s.len() < min_pairs
        || (!opts.smoke && t0.elapsed().as_secs_f64() < PAIR_BUDGET * opts.seconds)
    {
        off_s.push(checked(&plain_plan, plain.serve()?, &mut exact)?.wall_s);
        served = checked(&traced_plan, traced.serve()?, &mut exact)?;
        on_s.push(served.wall_s);
    }
    let (off, on) = (spread(&off_s), spread(&on_s));
    let serve_s = off.median;
    let overhead = (on.median - off.median) / off.median;
    let resolved = off.n >= MIN_PAIRS && (on.q1 > off.q3 || on.q3 < off.q1);

    let rec = served
        .trace
        .as_ref()
        .ok_or("traced serve returned no recording")?;
    let dropped = rec.total_dropped();
    if dropped != 0 {
        return Err(format!("flight recorder dropped {dropped} events"));
    }
    let batches = rebuild_batches(rec, &served.path_decisions)?;
    let members: u64 = batches.iter().map(|b| b.queries.len() as u64).sum();
    if members != served.completed {
        return Err(format!(
            "recorded batches hold {members} of {} completed queries",
            served.completed
        ));
    }
    let scatters = rec
        .track("dispatcher")
        .map_or(0, |t| t.events_of(EventKind::Scatter).count());

    // How late the paced generator ran: serve end minus the last
    // scheduled arrival (the only paced serve of the traced run).
    let drain_lag_s = if paced_plan.paced() {
        let run = checked(&paced_plan, paced_plan.build()?.serve()?, &mut exact)?;
        let last_arrival_s = trace.last().map_or(0.0, |q| q.arrival_us as f64 / 1e6);
        (run.wall_s - trace_gen_s - last_arrival_s).max(0.0)
    } else {
        0.0
    };

    // core::scheduler: Algorithm 2 over the recorded batch sizes.
    let (mappings, paths) = match &plain {
        Built::Engine(e) => (e.mapping_set().clone(), e.paths().to_vec()),
        Built::Cluster(c) => (c.mapping_set().clone(), c.paths().to_vec()),
    };
    let ranks: Vec<u32> = paths.iter().map(|&p| degrade_rank(p)).collect();
    let mut sched = Scheduler::new(mappings.clone(), SchedulerConfig::default());
    let mut completions = Vec::with_capacity(paths.len());
    log.time("route", Some(root), None, || {
        for batch in &batches {
            let d = sched
                .route_classed_into(
                    batch.samples(),
                    ROUTE_SLA_US,
                    &ranks,
                    f64::INFINITY,
                    f64::INFINITY,
                    &mut completions,
                )
                .expect("mapping set is never empty");
            black_box(sched.commit(&d));
        }
    });

    let sync_exec_s = replay_execute(&plain, &batches, served.checksum)?;

    // Replay B: the same batches layer by layer, under spans. Engine: on
    // the engine's own model, all features as one leg. Cluster: node
    // models are private, so on a replica built as the cluster builds its
    // nodes, one leg per target node of the boot epoch's assignment.
    let replica;
    let (model, legs): (&RuntimeModel, Vec<Vec<Vec<usize>>>) = match &plain {
        Built::Engine(e) => {
            let all: Vec<usize> = (0..e.model().config().sparse_features).collect();
            (e.model(), vec![vec![all]; PATHS.len()])
        }
        Built::Cluster(c) => {
            let cfg = c.config();
            replica = RuntimeModel::build(&cfg.model, cfg.cache_shards, cfg.seed)
                .map_err(|e| format!("replica build: {e}"))?;
            let assignments = &c.epochs()[0].assignments;
            let legs_of = |p: &PathKind| {
                let idx = c.paths().iter().position(|q| q == p);
                idx.map_or(Vec::new(), |i| {
                    assignments[i].iter().map(|(_, f)| f.to_vec()).collect()
                })
            };
            (&replica, PATHS.iter().map(legs_of).collect())
        }
    };
    model.cache().reset_stats();
    model.cache().clear_dynamic();
    let replay_root = log.open("replay", Some(root), None);
    let totals = replay_spans(model, &batches, &legs, &mut log, replay_root)?;
    log.close(replay_root);
    gate::check_checksum(
        "serve vs span replay",
        served.checksum,
        totals.checksum,
        1e-6,
    )?;
    if totals.samples != served.samples {
        return Err(format!(
            "replay ran {} of {} samples",
            totals.samples, served.samples
        ));
    }
    if !plain_plan.is_cluster() && model.cache().stats() != served.cache {
        return Err(format!(
            "replay cache counters {:?} differ from the serve's {:?}",
            model.cache().stats(),
            served.cache
        ));
    }
    let (export_mb_per_s, load_records_per_s) = persist_rates(model)?;

    // runtime::model: measured cost of one 256-sample batch per routed
    // path, against the virtual cost Algorithm 2 routes on.
    let mut exec_us = [0.0f64; 3];
    let mut virtual_over_measured = [0.0f64; 3];
    for (idx, &path) in paths.iter().enumerate() {
        let mut round = 0;
        let mut engine_scratch = model.make_scratch();
        let mut cluster_scratch = match &plain {
            Built::Cluster(c) => Some(c.make_scratch()),
            Built::Engine(_) => None,
        };
        let ns = bench_ns(7, 1, || {
            round += 1;
            let queries = exec_batch(round);
            let result = match (&plain, cluster_scratch.as_mut()) {
                (Built::Cluster(c), Some(s)) => c.execute_with(path, &queries, s),
                _ => model.execute_with(path, &queries, &mut engine_scratch),
            };
            black_box(result.expect("replayed paths execute"));
        });
        let us = ns / 1e3;
        exec_us[path_index(path)] = us / EXEC_BATCH as f64;
        virtual_over_measured[path_index(path)] =
            mappings.mappings[idx].profile.latency_us(EXEC_BATCH) / us;
    }
    let micro = micro_benchmarks(&plain_plan)?;

    log.close(root);
    let spans_path = crate::out_dir().join(format!("spans_{workload}.json"));
    log.write_json(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    // Budget: every span's self time against the untraced serve wall. The
    // self time of `batch` spans is the partial-sum adds.
    let secs = |name: &str| log.self_total_ns(name) as f64 / 1e9;
    let (draw_s, gather_s, embed_s, top_s, route_s) = (
        secs("draw_ids"),
        secs("table_gather"),
        secs("cache_embed"),
        secs("top_mlp"),
        secs("route"),
    );
    let attributed = trace_gen_s + route_s + draw_s + gather_s + embed_s + top_s + secs("batch");
    let batches_n = batches.len() as u64;
    let by_path = |p: PathKind| {
        frac(
            batches.iter().filter(|b| b.path == p).count() as u64,
            batches_n,
        )
    };
    let lookups = served.cache.lookups();
    let dim = plain_plan.model().emb_dim as f64;
    let tenant = |i: usize| served.tenants.get(i);
    let cluster = served.cluster.as_ref();
    let of_cluster = |f: &dyn Fn(&ClusterExtras) -> f64| cluster.map_or(0.0, f);
    let per = |secs: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            secs * 1e9 / count as f64
        }
    };

    println!(
        "recorder overhead: off {:.4} s [{:.4}, {:.4}], on {:.4} s [{:.4}, {:.4}], n {} -> {:+.2} % ({})",
        off.median, off.q1, off.q3, on.median, on.q1, on.q3, off.n, overhead * 100.0,
        if resolved { "resolved" } else { "unresolved: quartile ranges overlap or too few pairs" }
    );
    println!("spans: {} in {}", log.len(), spans_path.display());

    let value_of = |name: &str| -> f64 {
        match name {
            "data.trace_gen_s" => trace_gen_s,
            "data.trace_gen_ns_per_query" => per(trace_gen_s, trace.len() as u64),
            "runtime.model.draw_ids_frac" => draw_s / serve_s,
            "runtime.model.draw_ids_ns_per_id" => per(draw_s, totals.drawn_ids),
            "embed.table.gather_frac" => gather_s / serve_s,
            "embed.table.gather_ns_per_id" => per(gather_s, totals.table_ids),
            // Computed bytes: one read and one write of every gathered f32.
            "embed.table.gather_gbps" if gather_s > 0.0 => {
                totals.table_ids as f64 * dim * 8.0 / 1e9 / gather_s
            }
            "embed.table.gather_gbps" => 0.0,
            "core.mpcache.embed_frac" => embed_s / serve_s,
            "core.mpcache.embed_ns_per_id" => per(embed_s, totals.dhe_ids),
            "core.mpcache.static_hit_frac" => frac(served.cache.encoder_hits, lookups),
            "core.mpcache.dynamic_hit_frac" => frac(served.cache.dynamic_hits, lookups),
            "core.mpcache.disk_hit_frac" => frac(served.cache.disk_hits, lookups),
            "core.mpcache.miss_frac" => frac(served.cache.encoder_misses, lookups),
            "core.mpcache.evictions_per_lookup" => frac(served.cache.evictions, lookups),
            "core.mpcache.decoder_lookup_frac" => frac(served.cache.decoder_lookups, lookups),
            "embed.dhe.encode_ns_per_id" => micro.encode_ns,
            "embed.dhe.infer_ns_per_id" => micro.infer_ns,
            "tensor.gemm_decoder_gflops" => micro.gemm_decoder_gflops,
            "tensor.gemm_256_gflops" => micro.gemm_256_gflops,
            "nn.top_mlp_frac" => top_s / serve_s,
            "nn.top_mlp_ns_per_sample" => per(top_s, totals.samples),
            "core.scheduler.route_ns_per_batch" => per(route_s, batches_n),
            "runtime.queue.handoff_ns" => micro.handoff_ns,
            "runtime.histogram.record_ns" => micro.record_ns,
            "runtime.engine.serve_s" => serve_s,
            "runtime.engine.batches" => batches_n as f64,
            "runtime.engine.mean_batch_samples" => frac(served.samples, batches_n),
            "runtime.engine.path_frac_table" => by_path(PathKind::Table),
            "runtime.engine.path_frac_dhe" => by_path(PathKind::Dhe),
            "runtime.engine.path_frac_hybrid" => by_path(PathKind::Hybrid),
            "runtime.engine.sync_exec_frac" => sync_exec_s / serve_s,
            "runtime.engine.unattributed_frac" => 1.0 - attributed / serve_s,
            "runtime.engine.drain_lag_s" => drain_lag_s,
            "runtime.engine.tenant0_v_miss_frac" => tenant(0).map_or(0.0, |t| t.violation_rate()),
            "runtime.engine.tenant1_v_miss_frac" => tenant(1).map_or(0.0, |t| t.violation_rate()),
            "runtime.engine.tenant1_shed_frac" => {
                tenant(1).map_or(0.0, |t| frac(t.shed_queries, t.completed + t.shed_queries))
            }
            "runtime.model.exec_us_per_sample_table" => exec_us[0],
            "runtime.model.exec_us_per_sample_dhe" => exec_us[1],
            "runtime.model.exec_us_per_sample_hybrid" => exec_us[2],
            "runtime.model.virtual_over_measured_table" => virtual_over_measured[0],
            "runtime.model.virtual_over_measured_dhe" => virtual_over_measured[1],
            "runtime.model.virtual_over_measured_hybrid" => virtual_over_measured[2],
            "runtime.cluster.sync_exec_s" => of_cluster(&|_| sync_exec_s),
            "runtime.cluster.unattributed_frac" => of_cluster(&|_| 1.0 - sync_exec_s / serve_s),
            "runtime.cluster.legs_per_batch" => frac(scatters as u64, batches_n),
            "runtime.cluster.node_batch_imbalance" => of_cluster(&|c| {
                let max = c.per_node_batches.iter().copied().max().unwrap_or(0);
                let total: u64 = c.per_node_batches.iter().sum();
                frac(max * c.per_node_batches.len() as u64, total)
            }),
            "runtime.cluster.epochs" => of_cluster(&|c| c.epochs as f64),
            "runtime.cluster.migration_steps" => of_cluster(&|c| c.migration_steps as f64),
            "runtime.cluster.adaptive_replans" => of_cluster(&|c| c.adaptive_replans as f64),
            "runtime.cluster.retried_batches" => of_cluster(&|c| c.retried_batches as f64),
            "core.persist.export_mb_per_s" => export_mb_per_s,
            "core.persist.load_records_per_s" => load_records_per_s,
            "trace.recorder_overhead_frac" => overhead,
            "trace.events" => rec.total_events() as f64,
            "trace.dropped_events" => dropped as f64,
            "host.stream_gbps" => micro.stream_gbps,
            other => unreachable!("metric {other} has no measurement"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|def| Measured {
            name: def.name,
            unit: def.unit,
            better: def.better,
            value: value_of(def.name),
            spread: None,
        })
        .collect();
    let offered = plain_plan.offered();
    Ok(Outcome {
        attempted: offered,
        failed: offered - served.completed,
        metrics,
        info: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec::data::query::QueryTraceConfig;
    use mprec::runtime::{RuntimeConfig, RuntimeModelConfig, TraceConfig};

    /// A small three-path engine: seconds of work in a debug build.
    fn tiny_plan(recorder: bool) -> Plan {
        Plan::Engine(RuntimeConfig {
            workers: 1,
            cache_shards: 4,
            seed: 11,
            trace: QueryTraceConfig {
                num_queries: 300,
                mean_size: 4.0,
                sigma: 1.0,
                max_size: 16,
                qps: 5000.0,
                poisson_arrivals: true,
            },
            model: RuntimeModelConfig {
                sparse_features: 4,
                rows_per_feature: 500,
                emb_dim: 4,
                dhe_k: 8,
                dhe_dnn: 8,
                dhe_h: 1,
                top_hidden: vec![8],
                encoder_cache_bytes: 1024,
                decoder_centroids: 8,
                dynamic_cache_entries: 64,
                profile_accesses: 2_000,
                ..RuntimeModelConfig::default()
            },
            max_batch_samples: 32,
            sla_us: 700.0,
            recorder: if recorder {
                TraceConfig::enabled()
            } else {
                TraceConfig::default()
            },
            ..RuntimeConfig::default()
        })
    }

    fn execute_sum(model: &RuntimeModel, batches: &[Batch]) -> f64 {
        model.cache().reset_stats();
        model.cache().clear_dynamic();
        let mut scratch = model.make_scratch();
        batches
            .iter()
            .map(|b| {
                model
                    .execute_with(b.path, &b.queries, &mut scratch)
                    .unwrap()
                    .checksum
            })
            .sum()
    }

    #[test]
    fn recorded_batches_replay_to_the_served_checksum_and_a_corrupted_one_does_not() {
        let plan = tiny_plan(true);
        let Built::Engine(engine) = plan.build().unwrap() else {
            unreachable!()
        };
        let built = Built::Engine(engine);
        let run = built.serve().unwrap();
        gate::check_run(&plan, &run).unwrap();
        let Built::Engine(engine) = &built else {
            unreachable!()
        };

        let batches = rebuild_batches(run.trace.as_ref().unwrap(), &run.path_decisions).unwrap();
        assert_eq!(batches.len(), run.path_decisions.len());
        assert_eq!(
            batches.iter().map(|b| b.queries.len() as u64).sum::<u64>(),
            run.completed
        );
        assert_eq!(batches.iter().map(Batch::samples).sum::<u64>(), run.samples);
        let routed = PATHS.map(|p| batches.iter().filter(|b| b.path == p).count());
        assert!(
            routed[0] > 0 && routed[2] > 0,
            "table and hybrid must both be replayed: {routed:?}"
        );

        // The gate passes on the faithful replay, both ways of running it.
        let sum = execute_sum(engine.model(), &batches);
        gate::check_checksum("execute_with", run.checksum, sum, 1e-9).unwrap();
        assert_eq!(engine.model().cache().stats(), run.cache);

        engine.model().cache().reset_stats();
        engine.model().cache().clear_dynamic();
        let features = engine.model().config().sparse_features;
        let mut log = SpanLog::new("tiny");
        let root = log.open("serve", None, None);
        let legs = vec![vec![(0..features).collect::<Vec<usize>>()]; PATHS.len()];
        let totals = replay_spans(engine.model(), &batches, &legs, &mut log, root).unwrap();
        log.close(root);
        gate::check_checksum("spans", run.checksum, totals.checksum, 1e-6).unwrap();
        assert_eq!(totals.samples, run.samples);
        assert_eq!(
            engine.model().cache().stats(),
            run.cache,
            "replay touches the cache as the serve did"
        );
        assert_eq!(totals.drawn_ids, run.samples * features as u64);
        assert_eq!(
            totals.table_ids + totals.dhe_ids,
            run.samples * features as u64
        );
        // Every batch has its draw, its pool call(s) and its top MLP.
        assert!(log.self_total_ns("draw_ids") > 0 && log.self_total_ns("top_mlp") > 0);
        assert!(log.self_total_ns("table_gather") > 0 && log.self_total_ns("cache_embed") > 0);

        // One sample more in one query of one batch: the gate must fail.
        let mut corrupted = batches.clone();
        corrupted[1].queries[0].1 += 1;
        let sum = execute_sum(engine.model(), &corrupted);
        assert!(gate::check_checksum("execute_with", run.checksum, sum, 1e-9).is_err());
        // So must a batch replayed on the wrong path.
        let mut corrupted = batches.clone();
        corrupted[0].path = if batches[0].path == PathKind::Table {
            PathKind::Hybrid
        } else {
            PathKind::Table
        };
        let sum = execute_sum(engine.model(), &corrupted);
        assert!(gate::check_checksum("execute_with", run.checksum, sum, 1e-9).is_err());
    }

    #[test]
    fn traced_and_untraced_serves_agree_exactly() {
        let plain = tiny_plan(false).build().unwrap().serve().unwrap();
        let traced = tiny_plan(true).build().unwrap().serve().unwrap();
        assert!(plain.trace.is_none() && traced.trace.is_some());
        Exact::of(&traced)
            .same_as(&Exact::of(&plain), "traced vs untraced")
            .unwrap();
    }

    #[test]
    fn a_recording_that_lost_a_batch_is_rejected() {
        let run = tiny_plan(true).build().unwrap().serve().unwrap();
        let rec = run.trace.as_ref().unwrap();
        let mut decisions = run.path_decisions.clone();
        decisions.push(PathKind::Table);
        assert!(rebuild_batches(rec, &decisions)
            .unwrap_err()
            .contains("no recorded member"));
        decisions.truncate(run.path_decisions.len() - 1);
        assert!(rebuild_batches(rec, &decisions)
            .unwrap_err()
            .contains("unknown batch"));
    }
}
