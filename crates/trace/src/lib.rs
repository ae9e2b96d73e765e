//! Virtual-time flight recorder for the MP-Rec serving stack.
//!
//! Every layer of the runtime (engine dispatcher, engine workers, cluster
//! dispatcher, node worker pools, merger) and the deterministic replay
//! twins in `mprec-serving` record fixed-size [`TraceEvent`]s into
//! preallocated [`EventRing`]s. Events are stamped in **virtual time**
//! (the same deterministic clock Algorithm 2 routes against), so a
//! recording is bit-reproducible for a given `(config, seed)` and is
//! meaningful even on a 1-CPU container where wall-clock interleavings
//! are noise.
//!
//! # Event schema
//!
//! One flat [`TraceEvent`] struct covers the full query lifecycle; the
//! generic fields are interpreted per [`EventKind`]:
//!
//! | kind            | `t_us`              | `id`     | `node`     | `a`            | `b`          | `arg`              | `chosen`/`costs`              | `counts`                     |
//! |-----------------|---------------------|----------|------------|----------------|--------------|--------------------|-------------------------------|------------------------------|
//! | `Enqueue`       | arrival             | query id | —          | samples        | —            | —                  | —                             | —                            |
//! | `BatchFormed`   | flush instant       | batch id | —          | queries        | samples      | oldest arrival     | —                             | —                            |
//! | `RouteDecision` | flush instant       | batch id | —          | samples        | epoch        | SLA remaining (µs) | chosen idx / per-path completions | —                        |
//! | `Scatter`       | flush / retry inst. | batch id | target     | —              | epoch        | —                  | —                             | —                            |
//! | `Execute`       | virtual start       | batch id | —          | —              | exec epoch   | virtual done       | —                             | —                            |
//! | `NodeExecute`   | virtual start       | batch id | executing  | samples        | —            | virtual done       | —                             | tier deltas (stat/dyn/disk/miss) |
//! | `Retry`         | failure instant     | batch id | failed     | —              | new epoch    | —                  | —                             | —                            |
//! | `Merge`         | virtual done        | batch id | —          | samples        | —            | —                  | —                             | —                            |
//! | `Complete`      | virtual done        | query id | —          | —              | batch id     | virtual latency    | —                             | —                            |
//! | `EpochBarrier`  | membership event    | —        | churned    | 0=fail, 1=join | new epoch    | —                  | —                             | —                            |
//! | `WarmStart`     | membership event    | —        | joiner     | entries loaded | new epoch    | —                  | —                             | —                            |
//! | `MigrationStart`| window open         | —        | receiver   | features pending | new epoch  | —                  | —                             | —                            |
//! | `MigrationDone` | chunk flip          | —        | receiver   | entries shipped | new epoch   | features flipped   | —                             | —                            |
//! | `Timeout`       | leg deadline        | batch id | timed-out  | attempt        | —            | timeout budget     | —                             | —                            |
//! | `Hedge`         | hedge instant       | batch id | hedge target | primary node | —            | —                  | —                             | —                            |
//! | `Shed`          | flush instant       | query id | —          | samples        | —            | backlog (µs)       | —                             | —                            |
//!
//! Unused fields hold their [`Default`] filler (`NO_NODE`, `-1`,
//! `f64::INFINITY` cost slots, zeros), so whole events compare with
//! `==` in the differential twin tests.
//!
//! # Twin-pinned subset
//!
//! Dispatcher-side events are pure functions of `(config, seed)` and are
//! reproduced bit-for-bit by `mprec-serving::{replay, replay_cluster}`;
//! [`EventKind::is_twin_pinned`] marks them. `NodeExecute` and `Merge`
//! land on worker/merger threads (their *stamps* are virtual, but their
//! ring order depends on wall-clock scheduling), and
//! `EpochBarrier`/`WarmStart`/`MigrationStart`/`MigrationDone` are
//! runtime-membership bookkeeping (the twin consumes the resulting
//! epochs from the shipped spec instead of re-enacting the handoff), so
//! the twin comparison excludes those kinds.
//!
//! # Spill policy and sampling
//!
//! Rings never allocate after construction and never block: on overflow
//! the **oldest** event is overwritten and
//! [`EventRing::dropped_events`] counts the shortfall exactly
//! (`recorded - sampled_out - kept`). Spill is explicit, never silent —
//! exporters and reports carry the dropped counter alongside the kept
//! events.
//!
//! Under sustained overload (e.g. a chaos run injecting faults for the
//! whole trace) even a large ring spills; [`TraceConfig::sample_every_n`]
//! keeps only every Nth recorded event instead. Sampling is *counted,
//! not dropped*: skipped events land in [`EventRing::sampled_out`], and
//! the dropped/sampled/kept partition stays exact
//! (`recorded == sampled_out + dropped + kept`, property-tested in
//! `crates/trace/tests/ring_overflow.rs`). Because the sample decision
//! is a pure function of the per-ring record count, twin recorders
//! sample identically.
//!
//! # Compile-out
//!
//! Recording is config-gated at runtime (`TraceConfig::enabled`) and
//! feature-gated at compile time: building this crate with
//! `--no-default-features` turns [`EventRing::record`] into an inline
//! no-op, removing even the branch from the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;

pub use chrome::{chrome_trace_json, validate_chrome_json, ChromeSummary};

/// Maximum number of execution paths a [`TraceEvent`] can carry scored
/// costs for (table / DHE / hybrid and one spare).
pub const MAX_PATHS: usize = 4;

/// Sentinel for "no node" in [`TraceEvent::node`].
pub const NO_NODE: u32 = u32::MAX;

/// What a [`TraceEvent`] describes; see the crate-level schema table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A query entered the pending micro-batch.
    Enqueue,
    /// A micro-batch was sealed by one of the four batching rules.
    BatchFormed,
    /// Algorithm 2 picked a mapping; `costs` keeps the *rejected*
    /// candidates' expected completions alongside the chosen one.
    RouteDecision,
    /// The batch was scattered to one target node.
    Scatter,
    /// Dispatcher-side virtual execution window `[t_us, arg]`.
    Execute,
    /// A node worker finished its shard of the batch (runtime only).
    NodeExecute,
    /// The executing node failed mid-flight; the batch re-routes.
    Retry,
    /// The merger gathered the last partial (runtime only).
    Merge,
    /// A query's result was finalized at its virtual completion time.
    Complete,
    /// A membership event quiesced the cluster and opened a new epoch.
    EpochBarrier,
    /// A joining node warm-started its cache from disk segments.
    WarmStart,
    /// A dual-ownership handoff window opened: the receiver is live but
    /// the listed features are still read-served by their old owners
    /// until each chunk flips.
    MigrationStart,
    /// One handoff chunk flipped to the receiver after its warm cache
    /// entries (dynamic + disk tiers) were shipped in the background.
    MigrationDone,
    /// A scatter leg missed its per-leg virtual-time deadline; the
    /// retry ladder takes over.
    Timeout,
    /// A slow leg was hedged: re-issued to the feature's next ring
    /// owner, first result wins.
    Hedge,
    /// The brownout controller shed a low-priority query before
    /// routing (explicit outcome, never a silent drop).
    Shed,
}

impl EventKind {
    /// Stable lowercase label (used by exporters and `explain`).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::BatchFormed => "batch_formed",
            EventKind::RouteDecision => "route_decision",
            EventKind::Scatter => "scatter",
            EventKind::Execute => "execute",
            EventKind::NodeExecute => "node_execute",
            EventKind::Retry => "retry",
            EventKind::Merge => "merge",
            EventKind::Complete => "complete",
            EventKind::EpochBarrier => "epoch_barrier",
            EventKind::WarmStart => "warm_start",
            EventKind::MigrationStart => "migration_start",
            EventKind::MigrationDone => "migration_done",
            EventKind::Timeout => "timeout",
            EventKind::Hedge => "hedge",
            EventKind::Shed => "shed",
        }
    }

    /// Whether the replay twins reproduce this kind bit-for-bit on the
    /// dispatcher track (see the crate docs for why the rest are
    /// excluded).
    pub fn is_twin_pinned(self) -> bool {
        !matches!(
            self,
            EventKind::NodeExecute
                | EventKind::Merge
                | EventKind::EpochBarrier
                | EventKind::WarmStart
                | EventKind::MigrationStart
                | EventKind::MigrationDone
        )
    }
}

/// One fixed-size, `Copy` lifecycle event; field meaning depends on
/// [`EventKind`] (crate-level table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp in microseconds.
    pub t_us: f64,
    /// Event kind; selects the interpretation of the other fields.
    pub kind: EventKind,
    /// Query id or batch id (see table).
    pub id: u64,
    /// Node id, or [`NO_NODE`].
    pub node: u32,
    /// Kind-specific small integer (query count, samples, ...).
    pub a: u64,
    /// Kind-specific small integer (epoch, batch id, ...).
    pub b: u64,
    /// Kind-specific float (done time, latency, SLA slack, ...).
    pub arg: f64,
    /// Chosen mapping index for `RouteDecision`, else `-1`.
    pub chosen: i32,
    /// Per-mapping expected completions for `RouteDecision`; unused
    /// slots hold `f64::INFINITY`.
    pub costs: [f64; MAX_PATHS],
    /// Cache-tier deltas for `NodeExecute`:
    /// `[static_hits, dynamic_hits, disk_hits, misses]`.
    pub counts: [u32; 4],
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            t_us: 0.0,
            kind: EventKind::Enqueue,
            id: 0,
            node: NO_NODE,
            a: 0,
            b: 0,
            arg: 0.0,
            chosen: -1,
            costs: [f64::INFINITY; MAX_PATHS],
            counts: [0; 4],
        }
    }
}

impl TraceEvent {
    /// Query `id` of `a` samples arrived at `t_us`.
    pub fn enqueue(t_us: f64, query: u64, samples: u64) -> Self {
        TraceEvent { t_us, kind: EventKind::Enqueue, id: query, a: samples, ..Self::default() }
    }

    /// Batch `id` of `queries`/`samples` sealed at `t_us`; `oldest_us`
    /// is the oldest member's arrival.
    pub fn batch_formed(t_us: f64, batch: u64, queries: u64, samples: u64, oldest_us: f64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::BatchFormed,
            id: batch,
            a: queries,
            b: samples,
            arg: oldest_us,
            ..Self::default()
        }
    }

    /// Routing decision for batch `id`: `chosen` mapping index with the
    /// per-candidate completion vector (rejected candidates included)
    /// and the SLA budget that framed the choice. Only the first
    /// [`MAX_PATHS`] candidates' completions are recorded; `chosen` may
    /// index past them (a two-platform paper set has six mappings).
    pub fn route_decision(
        t_us: f64,
        batch: u64,
        samples: u64,
        epoch: u64,
        sla_remaining_us: f64,
        chosen: i32,
        completions: &[f64],
    ) -> Self {
        let mut costs = [f64::INFINITY; MAX_PATHS];
        for (slot, c) in costs.iter_mut().zip(completions.iter()) {
            *slot = *c;
        }
        TraceEvent {
            t_us,
            kind: EventKind::RouteDecision,
            id: batch,
            a: samples,
            b: epoch,
            arg: sla_remaining_us,
            chosen,
            costs,
            ..Self::default()
        }
    }

    /// Batch `id` scattered to `node` under `epoch`'s assignment.
    pub fn scatter(t_us: f64, batch: u64, node: u32, epoch: u64) -> Self {
        TraceEvent { t_us, kind: EventKind::Scatter, id: batch, node, b: epoch, ..Self::default() }
    }

    /// Dispatcher-side virtual execution window for batch `id`.
    pub fn execute(start_us: f64, batch: u64, exec_epoch: u64, done_us: f64) -> Self {
        TraceEvent {
            t_us: start_us,
            kind: EventKind::Execute,
            id: batch,
            b: exec_epoch,
            arg: done_us,
            ..Self::default()
        }
    }

    /// Node-side execution of batch `id` on `node` with the cache-tier
    /// outcome deltas it generated.
    pub fn node_execute(
        start_us: f64,
        batch: u64,
        node: u32,
        samples: u64,
        done_us: f64,
        tiers: [u32; 4],
    ) -> Self {
        TraceEvent {
            t_us: start_us,
            kind: EventKind::NodeExecute,
            id: batch,
            node,
            a: samples,
            arg: done_us,
            counts: tiers,
            ..Self::default()
        }
    }

    /// Batch `id`'s executing `node` failed at `t_us`; the batch
    /// re-routes in `new_epoch`.
    pub fn retry(t_us: f64, batch: u64, node: u32, new_epoch: u64) -> Self {
        TraceEvent { t_us, kind: EventKind::Retry, id: batch, node, b: new_epoch, ..Self::default() }
    }

    /// Merger gathered the last partial of batch `id`.
    pub fn merge(t_us: f64, batch: u64, samples: u64) -> Self {
        TraceEvent { t_us, kind: EventKind::Merge, id: batch, a: samples, ..Self::default() }
    }

    /// Query `id` (member of `batch`) completed with `latency_us`.
    pub fn complete(t_us: f64, query: u64, batch: u64, latency_us: f64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::Complete,
            id: query,
            b: batch,
            arg: latency_us,
            ..Self::default()
        }
    }

    /// Membership event at `t_us` opened `new_epoch`; `join` is true
    /// for a node join, false for a failure.
    pub fn epoch_barrier(t_us: f64, node: u32, new_epoch: u64, join: bool) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::EpochBarrier,
            node,
            a: u64::from(join),
            b: new_epoch,
            ..Self::default()
        }
    }

    /// Joining `node` warm-started `entries` cache entries for
    /// `new_epoch`.
    pub fn warm_start(t_us: f64, node: u32, entries: u64, new_epoch: u64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::WarmStart,
            node,
            a: entries,
            b: new_epoch,
            ..Self::default()
        }
    }

    /// A dual-ownership handoff window opened at `t_us`: receiving
    /// `node` became live under `new_epoch` with `features` still
    /// pending (read-served by their old owners until each chunk
    /// flips).
    pub fn migration_start(t_us: f64, node: u32, features: u64, new_epoch: u64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::MigrationStart,
            node,
            a: features,
            b: new_epoch,
            ..Self::default()
        }
    }

    /// One handoff chunk of `features` features flipped to receiving
    /// `node` at `t_us` under `new_epoch`, after `entries` warm cache
    /// entries were shipped in the background.
    pub fn migration_done(t_us: f64, node: u32, entries: u64, new_epoch: u64, features: u64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::MigrationDone,
            node,
            a: entries,
            b: new_epoch,
            arg: features as f64,
            ..Self::default()
        }
    }

    /// Batch `id`'s leg on `node` missed its deadline at `t_us`
    /// (attempt number `attempt`, timeout budget `timeout_us`).
    pub fn timeout(t_us: f64, batch: u64, node: u32, attempt: u32, timeout_us: f64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::Timeout,
            id: batch,
            node,
            a: attempt as u64,
            arg: timeout_us,
            ..Self::default()
        }
    }

    /// Batch `id`'s slow leg on `primary` was hedged to `target` at
    /// `t_us`.
    pub fn hedge(t_us: f64, batch: u64, primary: u32, target: u32) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::Hedge,
            id: batch,
            node: target,
            a: primary as u64,
            ..Self::default()
        }
    }

    /// Low-priority query `id` of `samples` samples shed at `t_us`
    /// under a per-node backlog of `backlog_us`.
    pub fn shed(t_us: f64, query: u64, samples: u64, backlog_us: f64) -> Self {
        TraceEvent {
            t_us,
            kind: EventKind::Shed,
            id: query,
            a: samples,
            arg: backlog_us,
            ..Self::default()
        }
    }
}

/// Preallocated drop-oldest ring of [`TraceEvent`]s.
///
/// Construction reserves the full capacity; [`record`](Self::record)
/// never allocates and never blocks. When full, the oldest event is
/// overwritten and the shortfall is counted exactly:
/// `dropped_events() == recorded() - len()`.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    head: usize,
    recorded: u64,
    every: u64,
    sampled_out: u64,
}

impl EventRing {
    /// Ring keeping at most `capacity` events (0 keeps nothing but
    /// still counts).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_sampled(capacity, 1)
    }

    /// Ring keeping every `every`-th recorded event (at most
    /// `capacity`); `every <= 1` keeps everything. Skipped events are
    /// counted in [`EventRing::sampled_out`], never silently lost.
    pub fn with_capacity_sampled(capacity: usize, every: u64) -> Self {
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            recorded: 0,
            every: every.max(1),
            sampled_out: 0,
        }
    }

    /// Append `ev`, overwriting the oldest kept event when full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        #[cfg(feature = "recorder")]
        {
            self.recorded += 1;
            if self.every > 1 && !(self.recorded - 1).is_multiple_of(self.every) {
                self.sampled_out += 1;
                return;
            }
            if self.cap == 0 {
                return;
            }
            if self.buf.len() < self.cap {
                self.buf.push(ev);
            } else {
                self.buf[self.head] = ev;
                self.head += 1;
                if self.head == self.cap {
                    self.head = 0;
                }
            }
        }
        #[cfg(not(feature = "recorder"))]
        {
            let _ = ev;
        }
    }

    /// Configured capacity (events kept at most).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently kept.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (kept + sampled out + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events intentionally skipped by the sampling rate (see
    /// [`TraceConfig::sample_every_n`]); disjoint from
    /// [`EventRing::dropped_events`].
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Events lost to drop-oldest spill; always exactly
    /// `recorded() - sampled_out() - len()`.
    pub fn dropped_events(&self) -> u64 {
        self.recorded - self.sampled_out - self.buf.len() as u64
    }

    /// Kept events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Drain into a named [`TrackRecording`] (oldest first), carrying
    /// the dropped and sampled-out counters.
    pub fn into_track(self, name: impl Into<String>) -> TrackRecording {
        let dropped_events = self.dropped_events();
        let sampled_out = self.sampled_out();
        let events: Vec<TraceEvent> = self.iter().copied().collect();
        TrackRecording { name: name.into(), events, dropped_events, sampled_out }
    }
}

/// Runtime gate for recording; the zero value (recording off) is the
/// default for every config that embeds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events when true.
    pub enabled: bool,
    /// Per-track ring capacity (events kept before drop-oldest).
    pub ring_capacity: usize,
    /// Keep only every Nth recorded event per ring (`<= 1` keeps all).
    /// Skipped events are counted exactly in
    /// [`EventRing::sampled_out`] — sampling never inflates the dropped
    /// counter. Meant for sustained-overload (chaos) runs that would
    /// otherwise spill even a large ring.
    pub sample_every_n: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, ring_capacity: 1 << 16, sample_every_n: 1 }
    }
}

impl TraceConfig {
    /// Recording on with the default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true, ..Self::default() }
    }

    /// Recording on, keeping every `every`-th event per ring.
    pub fn sampled(every: u64) -> Self {
        TraceConfig { enabled: true, sample_every_n: every, ..Self::default() }
    }

    /// A fresh ring if recording is on, `None` otherwise.
    pub fn ring(&self) -> Option<EventRing> {
        self.enabled
            .then(|| EventRing::with_capacity_sampled(self.ring_capacity, self.sample_every_n))
    }
}

/// One drained ring: a named event track plus its explicit spill
/// counter.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackRecording {
    /// Track name (`dispatcher`, `node-0-worker-0`, `merger`, ...).
    pub name: String,
    /// Kept events, oldest first (recording order).
    pub events: Vec<TraceEvent>,
    /// Events lost to drop-oldest spill on this track.
    pub dropped_events: u64,
    /// Events intentionally skipped by the sampling rate on this track.
    pub sampled_out: u64,
}

impl TrackRecording {
    /// The twin-pinned subset of this track, in recording order (what
    /// `tests/sim_vs_runtime.rs` compares between runtime and replay).
    pub fn pinned_events(&self) -> Vec<TraceEvent> {
        self.events.iter().filter(|e| e.kind.is_twin_pinned()).copied().collect()
    }

    /// Events of one kind, in recording order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The query-lifecycle invariants of [`TraceRecording::validate`],
    /// over a track that kept every event.
    fn check_lifecycle(&self) -> Result<(), String> {
        use std::collections::HashMap;

        /// What the track says about one batch.
        #[derive(Default)]
        struct Batch {
            formed: u32,
            queries: u64,
            routes: u32,
            executes: u32,
            done_us: f64,
            completes: u64,
        }
        let fail = |what: String| Err(format!("{}: {what}", self.name));
        // Query id -> (enqueue instant, outcomes seen).
        let mut queries: HashMap<u64, (f64, u32)> = HashMap::new();
        let mut batches: HashMap<u64, Batch> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                EventKind::Enqueue if queries.insert(e.id, (e.t_us, 0)).is_some() => {
                    return fail(format!("query {} enqueued twice", e.id));
                }
                EventKind::BatchFormed => {
                    let b = batches.entry(e.id).or_default();
                    b.formed += 1;
                    b.queries = e.a;
                }
                EventKind::RouteDecision => batches.entry(e.id).or_default().routes += 1,
                EventKind::Execute => {
                    let b = batches.entry(e.id).or_default();
                    b.executes += 1;
                    b.done_us = e.arg;
                }
                EventKind::Retry => {
                    let scatters = self.events[i + 1..]
                        .iter()
                        .take_while(|s| {
                            s.kind == EventKind::Scatter
                                && s.id == e.id
                                && s.b == e.b
                                && s.t_us.to_bits() == e.t_us.to_bits()
                        })
                        .count();
                    if scatters == 0 {
                        return fail(format!(
                            "retry of batch {} is not followed by its post-failure scatters",
                            e.id
                        ));
                    }
                }
                _ => {}
            }
        }
        for e in &self.events {
            if !matches!(e.kind, EventKind::Complete | EventKind::Shed) {
                continue;
            }
            let Some((enqueued_us, outcomes)) = queries.get_mut(&e.id) else {
                return fail(format!("query {} has an outcome but no enqueue", e.id));
            };
            *outcomes += 1;
            if e.kind == EventKind::Shed {
                continue;
            }
            let Some(b) = batches.get_mut(&e.b) else {
                return fail(format!("query {} completed in unknown batch {}", e.id, e.b));
            };
            b.completes += 1;
            if (b.formed, b.routes, b.executes) != (1, 1, 1) {
                return fail(format!(
                    "batch {} has {} BatchFormed / {} RouteDecision / {} Execute, want 1 each",
                    e.b, b.formed, b.routes, b.executes
                ));
            }
            if e.t_us.to_bits() != b.done_us.to_bits() {
                return fail(format!(
                    "query {} completed at {} but batch {} executed until {}",
                    e.id, e.t_us, e.b, b.done_us
                ));
            }
            if e.arg.to_bits() != (e.t_us - *enqueued_us).to_bits() {
                return fail(format!(
                    "query {} latency {} != completion {} - enqueue {}",
                    e.id, e.arg, e.t_us, enqueued_us
                ));
            }
        }
        if let Some((id, (_, n))) = queries.iter().find(|(_, &(_, n))| n != 1) {
            return fail(format!("query {id} has {n} outcomes, want exactly one"));
        }
        if let Some((id, b)) = batches.iter().find(|(_, b)| b.formed > 0 && b.completes != b.queries) {
            return fail(format!(
                "batch {id} formed with {} queries but completed {}",
                b.queries, b.completes
            ));
        }
        Ok(())
    }
}

/// A full recording: all tracks of one run plus the mapping-index →
/// path-label table that decodes `RouteDecision.chosen`/`costs`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRecording {
    /// One track per recording thread (dispatcher first by convention).
    pub tracks: Vec<TrackRecording>,
    /// Path label per mapping index (e.g. `hybrid@GPU@HBM`).
    pub path_labels: Vec<String>,
}

/// Integrity counters returned by [`TraceRecording::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Tracks in the recording.
    pub tracks: usize,
    /// Total kept events across tracks.
    pub events: u64,
    /// Total dropped events across tracks.
    pub dropped: u64,
    /// `RouteDecision` events kept.
    pub route_decisions: u64,
    /// `Complete` events kept.
    pub completes: u64,
    /// Whether the query-lifecycle invariants were checked. They need
    /// every event, so a recording whose rings dropped or sampled
    /// events out is only checked event by event.
    pub lifecycle_checked: bool,
}

impl TraceRecording {
    /// Recording with the given path-label table and no tracks yet.
    pub fn new(path_labels: Vec<String>) -> Self {
        TraceRecording { tracks: Vec::new(), path_labels }
    }

    /// Drain `ring` into a named track.
    pub fn push_ring(&mut self, name: impl Into<String>, ring: EventRing) {
        self.tracks.push(ring.into_track(name));
    }

    /// Track by name.
    pub fn track(&self, name: &str) -> Option<&TrackRecording> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// Total kept events across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped events across all tracks.
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped_events).sum()
    }

    /// Total sampled-out events across all tracks.
    pub fn total_sampled_out(&self) -> u64 {
        self.tracks.iter().map(|t| t.sampled_out).sum()
    }

    /// Check the invariants a recording must satisfy on its own, with
    /// no twin to compare against.
    ///
    /// Event by event: every timestamp finite, every execution window
    /// non-negative (`done >= start`), every `RouteDecision` carrying a
    /// feasible chosen index into the label table.
    ///
    /// Per track, when nothing was dropped or sampled out anywhere
    /// ([`TraceSummary::lifecycle_checked`]), the query lifecycle:
    ///
    /// * every `Enqueue` ends in exactly one `Complete` or `Shed`, and
    ///   every `Complete` / `Shed` names an enqueued query;
    /// * every `Complete` names a batch that has exactly one
    ///   `BatchFormed`, one `RouteDecision` and one `Execute`;
    /// * a batch's `Complete` count equals its `BatchFormed.queries`;
    /// * `Complete.t_us == Execute.done`, and `Complete.latency ==
    ///   Complete.t_us - Enqueue.t_us`, bit for bit;
    /// * every `Retry` is directly followed by its post-failure
    ///   `Scatter`s (same batch, same instant, the retry's new epoch).
    ///
    /// Returns integrity counters on success.
    pub fn validate(&self) -> Result<TraceSummary, String> {
        let complete = self.total_dropped() == 0 && self.total_sampled_out() == 0;
        let mut sum = TraceSummary {
            tracks: self.tracks.len(),
            lifecycle_checked: complete,
            ..TraceSummary::default()
        };
        for track in &self.tracks {
            if complete {
                track.check_lifecycle()?;
            }
            sum.events += track.events.len() as u64;
            sum.dropped += track.dropped_events;
            for (i, e) in track.events.iter().enumerate() {
                if !e.t_us.is_finite() {
                    return Err(format!("{}[{}]: non-finite timestamp", track.name, i));
                }
                match e.kind {
                    EventKind::Execute | EventKind::NodeExecute
                        if !e.arg.is_finite() || e.arg < e.t_us =>
                    {
                        return Err(format!(
                            "{}[{}]: execute window done={} < start={}",
                            track.name, i, e.arg, e.t_us
                        ));
                    }
                    EventKind::RouteDecision => {
                        sum.route_decisions += 1;
                        let idx = e.chosen;
                        if idx < 0 || (idx as usize) >= self.path_labels.len() {
                            return Err(format!(
                                "{}[{}]: chosen index {} outside label table (len {})",
                                track.name,
                                i,
                                idx,
                                self.path_labels.len()
                            ));
                        }
                        // Only the first MAX_PATHS costs are recorded.
                        if e.costs.get(idx as usize).is_some_and(|c| !c.is_finite()) {
                            return Err(format!(
                                "{}[{}]: chosen candidate has non-finite cost",
                                track.name, i
                            ));
                        }
                    }
                    EventKind::Complete => sum.completes += 1,
                    _ => {}
                }
            }
        }
        Ok(sum)
    }

    /// Compact text "explain" for one query id: the decision chain that
    /// routed it, including the rejected candidates' scored costs.
    /// `None` if the query neither completed nor was shed inside the
    /// kept window.
    pub fn explain(&self, query_id: u64) -> Option<String> {
        let all = |kind: EventKind, pred: &dyn Fn(&TraceEvent) -> bool| -> Vec<TraceEvent> {
            let mut found: Vec<TraceEvent> = self
                .tracks
                .iter()
                .flat_map(|t| t.events.iter())
                .filter(|e| e.kind == kind && pred(e))
                .copied()
                .collect();
            found.sort_by(|x, y| x.t_us.total_cmp(&y.t_us));
            found
        };
        let Some(&complete) = all(EventKind::Complete, &|e| e.id == query_id).first() else {
            // A shed query never completes; its explicit outcome is the
            // Shed event itself.
            let shed = *all(EventKind::Shed, &|e| e.id == query_id).first()?;
            return Some(format!(
                "query {query_id}: SHED t={:.1}µs ({} sample(s); brownout backlog {:.1}µs)\n",
                shed.t_us, shed.a, shed.arg
            ));
        };
        let batch = complete.b;
        let label = |idx: usize| -> &str {
            self.path_labels.get(idx).map(String::as_str).unwrap_or("?")
        };
        let mut out = String::new();
        if let Some(enq) = all(EventKind::Enqueue, &|e| e.id == query_id).first() {
            out.push_str(&format!(
                "query {query_id}: {} sample(s), enqueued t={:.1}µs\n",
                enq.a, enq.t_us
            ));
        } else {
            out.push_str(&format!("query {query_id}: (enqueue outside kept window)\n"));
        }
        for e in all(EventKind::BatchFormed, &|e| e.id == batch) {
            out.push_str(&format!(
                "  batch {batch} formed t={:.1}µs ({} queries, {} samples; oldest arrival {:.1}µs)\n",
                e.t_us, e.a, e.b, e.arg
            ));
        }
        for e in all(EventKind::RouteDecision, &|e| e.id == batch) {
            out.push_str(&format!(
                "  route t={:.1}µs (epoch {}, SLA remaining {:.1}µs):\n",
                e.t_us, e.b, e.arg
            ));
            for (idx, cost) in e.costs.iter().enumerate() {
                if !cost.is_finite() && idx >= self.path_labels.len() {
                    continue;
                }
                let mark = if idx == e.chosen as usize { "-> " } else { "   " };
                if cost.is_finite() {
                    out.push_str(&format!(
                        "    {mark}{}: expected completion {:.1}µs\n",
                        label(idx),
                        cost
                    ));
                } else {
                    out.push_str(&format!("    {mark}{}: infeasible\n", label(idx)));
                }
            }
        }
        for e in all(EventKind::Scatter, &|e| e.id == batch) {
            out.push_str(&format!(
                "  scatter t={:.1}µs -> node {} (epoch {})\n",
                e.t_us, e.node, e.b
            ));
        }
        for e in all(EventKind::Retry, &|e| e.id == batch) {
            out.push_str(&format!(
                "  retry t={:.1}µs: node {} failed, re-routed in epoch {}\n",
                e.t_us, e.node, e.b
            ));
        }
        for e in all(EventKind::Timeout, &|e| e.id == batch) {
            out.push_str(&format!(
                "  timeout t={:.1}µs: node {} missed the {:.1}µs leg deadline (attempt {})\n",
                e.t_us, e.node, e.arg, e.a
            ));
        }
        for e in all(EventKind::Hedge, &|e| e.id == batch) {
            out.push_str(&format!(
                "  hedge t={:.1}µs: slow leg on node {} re-issued to node {}\n",
                e.t_us, e.a, e.node
            ));
        }
        for e in all(EventKind::Execute, &|e| e.id == batch) {
            out.push_str(&format!(
                "  execute t=[{:.1}..{:.1}]µs virtual (epoch {})\n",
                e.t_us, e.arg, e.b
            ));
        }
        for e in all(EventKind::NodeExecute, &|e| e.id == batch) {
            out.push_str(&format!(
                "  node {} executed {} sample(s) t=[{:.1}..{:.1}]µs; tiers static/dynamic/disk/miss = {}/{}/{}/{}\n",
                e.node, e.a, e.t_us, e.arg, e.counts[0], e.counts[1], e.counts[2], e.counts[3]
            ));
        }
        for e in all(EventKind::Merge, &|e| e.id == batch) {
            out.push_str(&format!("  merge t={:.1}µs ({} samples)\n", e.t_us, e.a));
        }
        out.push_str(&format!(
            "  complete t={:.1}µs, virtual latency {:.1}µs\n",
            complete.t_us, complete.arg
        ));
        Some(out)
    }
}

// Recording-dependent tests: compiled out with the record path
// itself (`--no-default-features` must build *and* test clean).
#[cfg(all(test, feature = "recorder"))]
mod tests {
    use super::*;

    fn ev(t: f64, id: u64) -> TraceEvent {
        TraceEvent::enqueue(t, id, 1)
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_exactly() {
        let mut ring = EventRing::with_capacity(4);
        for i in 0..10u64 {
            ring.record(ev(i as f64, i));
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped_events(), 6);
        let ids: Vec<u64> = ring.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_under_capacity_drops_nothing() {
        let mut ring = EventRing::with_capacity(8);
        for i in 0..5u64 {
            ring.record(ev(i as f64, i));
        }
        assert_eq!(ring.dropped_events(), 0);
        assert_eq!(ring.iter().count(), 5);
        let track = ring.into_track("t");
        assert_eq!(track.events.len(), 5);
        assert_eq!(track.dropped_events, 0);
    }

    #[test]
    fn zero_capacity_ring_counts_everything_as_dropped() {
        let mut ring = EventRing::with_capacity(0);
        ring.record(ev(1.0, 1));
        ring.record(ev(2.0, 2));
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.dropped_events(), 2);
    }

    #[test]
    fn trace_config_default_is_off() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.sample_every_n, 1);
        assert!(cfg.ring().is_none());
        assert!(TraceConfig::enabled().ring().is_some());
    }

    #[test]
    fn sampling_counts_skipped_events_exactly() {
        let mut ring = TraceConfig::sampled(4).ring().expect("sampled config records");
        for i in 0..10u64 {
            ring.record(ev(i as f64, i));
        }
        // Events 0, 4, 8 kept; 7 sampled out; nothing dropped.
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.sampled_out(), 7);
        assert_eq!(ring.dropped_events(), 0);
        let ids: Vec<u64> = ring.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 4, 8]);
        let track = ring.into_track("sampled");
        assert_eq!(track.sampled_out, 7);
        assert_eq!(track.dropped_events, 0);
    }

    #[test]
    fn chaos_event_kinds_are_twin_pinned_and_explainable() {
        assert!(EventKind::Timeout.is_twin_pinned());
        assert!(EventKind::Hedge.is_twin_pinned());
        assert!(EventKind::Shed.is_twin_pinned());
        let mut rec = TraceRecording::new(vec!["table".into(), "hybrid".into()]);
        let mut ring = EventRing::with_capacity(32);
        ring.record(TraceEvent::enqueue(1.0, 42, 4));
        ring.record(TraceEvent::batch_formed(9.0, 3, 1, 4, 1.0));
        ring.record(TraceEvent::route_decision(9.0, 3, 4, 0, 491.0, 1, &[500.0, 120.0]));
        ring.record(TraceEvent::scatter(9.0, 3, 0, 0));
        ring.record(TraceEvent::timeout(129.0, 3, 0, 0, 120.0));
        ring.record(TraceEvent::hedge(69.0, 3, 0, 1));
        ring.record(TraceEvent::execute(9.0, 3, 0, 229.0));
        ring.record(TraceEvent::complete(229.0, 42, 3, 228.0));
        ring.record(TraceEvent::enqueue(230.0, 77, 2));
        ring.record(TraceEvent::shed(240.0, 77, 2, 18_000.0));
        rec.push_ring("dispatcher", ring);
        let text = rec.explain(42).expect("query present");
        assert!(text.contains("timeout t=129.0µs: node 0"), "{text}");
        assert!(text.contains("hedge t=69.0µs: slow leg on node 0 re-issued to node 1"), "{text}");
        let shed_text = rec.explain(77).expect("shed query has an explicit outcome");
        assert!(shed_text.contains("SHED"), "{shed_text}");
        assert!(rec.validate().is_ok());
    }

    #[test]
    fn validate_counts_and_rejects_bad_windows() {
        let mut rec = TraceRecording::new(vec!["table".into(), "dhe".into()]);
        let mut ring = EventRing::with_capacity(16);
        ring.record(TraceEvent::enqueue(1.0, 7, 2));
        ring.record(TraceEvent::batch_formed(5.0, 0, 1, 2, 1.0));
        ring.record(TraceEvent::route_decision(5.0, 0, 2, 0, 100.0, 1, &[30.0, 20.0]));
        ring.record(TraceEvent::execute(5.0, 0, 0, 25.0));
        ring.record(TraceEvent::complete(25.0, 7, 0, 24.0));
        rec.push_ring("dispatcher", ring);
        let sum = rec.validate().expect("valid");
        assert_eq!(sum.route_decisions, 1);
        assert_eq!(sum.completes, 1);
        assert_eq!(sum.events, 5);
        assert!(sum.lifecycle_checked);

        let mut bad = TraceRecording::new(vec!["table".into()]);
        let mut ring = EventRing::with_capacity(4);
        ring.record(TraceEvent::execute(10.0, 0, 0, 5.0));
        bad.push_ring("dispatcher", ring);
        assert!(bad.validate().is_err());
    }

    /// A two-query batch that retries once, plus one shed query.
    fn lifecycle() -> Vec<TraceEvent> {
        vec![
            TraceEvent::enqueue(1.0, 7, 2),
            TraceEvent::enqueue(2.0, 8, 3),
            TraceEvent::enqueue(3.0, 9, 1),
            TraceEvent::batch_formed(5.0, 0, 2, 5, 1.0),
            TraceEvent::route_decision(5.0, 0, 5, 0, 100.0, 1, &[30.0, 20.0]),
            TraceEvent::scatter(5.0, 0, 0, 0),
            TraceEvent::retry(9.0, 0, 0, 1),
            TraceEvent::scatter(9.0, 0, 1, 1),
            TraceEvent::execute(9.0, 0, 1, 29.0),
            TraceEvent::complete(29.0, 7, 0, 28.0),
            TraceEvent::complete(29.0, 8, 0, 27.0),
            TraceEvent::shed(30.0, 9, 1, 5_000.0),
        ]
    }

    fn recording(events: &[TraceEvent], capacity: usize) -> TraceRecording {
        let mut rec = TraceRecording::new(vec!["table".into(), "dhe".into()]);
        let mut ring = EventRing::with_capacity(capacity);
        for e in events {
            ring.record(*e);
        }
        rec.push_ring("dispatcher", ring);
        rec
    }

    #[test]
    fn validate_rejects_each_broken_lifecycle_invariant() {
        let good = lifecycle();
        let sum = recording(&good, 32).validate().expect("the unbroken lifecycle is valid");
        assert!(sum.lifecycle_checked);

        let without = |i: usize| {
            let mut ev = good.clone();
            ev.remove(i);
            ev
        };
        let with = |i: usize, e: TraceEvent| {
            let mut ev = good.clone();
            ev.insert(i, e);
            ev
        };
        let replaced = |i: usize, e: TraceEvent| {
            let mut ev = good.clone();
            ev[i] = e;
            ev
        };
        let off_by_an_ulp = f64::from_bits(28.0f64.to_bits() + 1);
        let broken: Vec<(&str, Vec<TraceEvent>, &str)> = vec![
            ("an enqueue with no outcome", without(10), "query 8 has 0 outcomes"),
            (
                "a query completed twice",
                with(10, TraceEvent::complete(29.0, 7, 0, 28.0)),
                "query 7 has 2 outcomes",
            ),
            (
                "an outcome for a query never enqueued",
                with(11, TraceEvent::complete(29.0, 99, 0, 28.0)),
                "query 99 has an outcome but no enqueue",
            ),
            ("a completed batch never formed", without(3), "0 BatchFormed"),
            (
                "a batch routed twice",
                with(5, TraceEvent::route_decision(5.0, 0, 5, 0, 100.0, 0, &[30.0, 20.0])),
                "2 RouteDecision",
            ),
            ("a completed batch never executed", without(8), "0 Execute"),
            (
                "fewer completes than the batch formed with",
                replaced(3, TraceEvent::batch_formed(5.0, 0, 3, 5, 1.0)),
                "formed with 3 queries but completed 2",
            ),
            (
                "a completion off its batch's virtual done time",
                replaced(9, TraceEvent::complete(30.0, 7, 0, 29.0)),
                "executed until 29",
            ),
            (
                "a latency that is not completion minus enqueue",
                replaced(9, TraceEvent::complete(29.0, 7, 0, off_by_an_ulp)),
                "query 7 latency",
            ),
            ("a retry without its post-failure scatters", without(7), "not followed by"),
        ];
        for (what, events, want) in broken {
            let err = recording(&events, 32).validate().expect_err(what);
            assert!(err.contains(want), "{what}: {err}");
            // The same damage in a ring that spilled cannot be told from
            // the spill itself: the lifecycle is skipped, and says so.
            let spilled = recording(&events, 4).validate().expect("per-event checks only");
            assert!(!spilled.lifecycle_checked, "{what}");
        }
    }

    #[test]
    fn explain_walks_the_decision_chain() {
        let mut rec = TraceRecording::new(vec!["table@CPU".into(), "hybrid@GPU".into()]);
        let mut ring = EventRing::with_capacity(32);
        ring.record(TraceEvent::enqueue(1.0, 42, 4));
        ring.record(TraceEvent::batch_formed(9.0, 3, 1, 4, 1.0));
        ring.record(TraceEvent::route_decision(9.0, 3, 4, 0, 491.0, 1, &[500.0, 120.0]));
        ring.record(TraceEvent::scatter(9.0, 3, 0, 0));
        ring.record(TraceEvent::execute(9.0, 3, 0, 129.0));
        ring.record(TraceEvent::complete(129.0, 42, 3, 128.0));
        rec.push_ring("dispatcher", ring);
        let text = rec.explain(42).expect("query present");
        assert!(text.contains("query 42"), "{text}");
        assert!(text.contains("-> hybrid@GPU"), "{text}");
        assert!(text.contains("table@CPU: expected completion 500.0"), "{text}");
        assert!(rec.explain(999).is_none());
    }

    #[test]
    fn pinned_subset_excludes_worker_and_membership_kinds() {
        let mut ring = EventRing::with_capacity(8);
        ring.record(TraceEvent::enqueue(1.0, 1, 1));
        ring.record(TraceEvent::node_execute(2.0, 0, 1, 4, 3.0, [1, 0, 0, 3]));
        ring.record(TraceEvent::epoch_barrier(4.0, 2, 1, false));
        ring.record(TraceEvent::complete(5.0, 1, 0, 4.0));
        let track = ring.into_track("mixed");
        let pinned = track.pinned_events();
        assert_eq!(pinned.len(), 2);
        assert!(pinned.iter().all(|e| e.kind.is_twin_pinned()));
    }
}
