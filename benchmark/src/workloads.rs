//! One measured pass of each workload. A pass drives one freshly
//! generated trace through a fresh engine; tracing on or off runs the
//! same code, with the adaptors recording or passing straight through.

use crate::harness::{
    engine_for, fold_spans, item_time, timed_push, us, Check, Collector, Layers, PassResult,
    PushStats,
};
use crate::layers;
use crate::source::{Lateness, Pacer, PassInput};
use crate::spans::{Timed, Tracer};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rfid_bench::recovery::{
    self, DurableRunOpts, CHECKPOINT_FILE, CHECKPOINT_PREV_FILE, LOG_SUBDIR,
};
use rfid_cluster::coordinator::run_coordinator;
use rfid_cluster::router::run_router;
use rfid_cluster::scenario::Engine;
use rfid_cluster::worker::run_worker;
use rfid_core::FilterConfig;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    answer, serve_with, DurableStore, Frame, Query, QueryClient, QueryResponse, ServerConfig,
    SubscriptionFilter, SubscriptionHandle, SubscriptionHub,
};
use rfid_stream::pipeline::sinks::StoreSink;
use rfid_stream::{Epoch, Pipeline, PipelineStats, StreamItem, TagId};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Engine checkpoints land every this many epochs (`durable_patrol`).
pub const CHECKPOINT_EVERY: u64 = 512;

/// Epochs per wall second the `serve_live` source releases.
pub const SERVE_EPOCHS_PER_S: f64 = 400.0;

/// A `serve_live` item is late once the generator has fallen a whole
/// epoch interval behind its schedule. Readings of one epoch fall due
/// together and leave one after another, so lateness below the time an
/// epoch takes to process is the shape of the input, not a stall.
const LATE_TOLERANCE: Duration = Duration::from_micros((1e6 / SERVE_EPOCHS_PER_S) as u64);

/// A `serve_live` pass whose generator released more than this share
/// of its items late did not offer the load it claims. The highest
/// percentile taken of push latency is a p90, so half of its tail may be stalls (the
/// box loses 50-100 ms to its hypervisor now and then) before the
/// numbers are touched.
pub const MAX_LATE_SHARE: f64 = 0.05;

/// What a pass needs besides its input.
#[derive(Debug, Clone, Copy)]
pub struct PassCtx<'a> {
    pub pass: u32,
    pub traced: bool,
    /// Clock origin shared by every span of the run.
    pub origin: Instant,
    /// Scratch directory for durable passes (`benchmark/out/tmp`).
    pub tmp: &'a Path,
    /// Scan rounds of the trace (round 1 is the in-pass warm-up of
    /// `durable_patrol` and `serve_live`).
    pub rounds: usize,
    /// Whether a traced pass also re-drives its hidden layers in
    /// isolation (the first few passes of a run do).
    pub redrive: bool,
}

impl PassCtx<'_> {
    fn tracer(&self) -> Tracer {
        if self.traced {
            Tracer::on(self.origin, self.pass)
        } else {
            Tracer::off()
        }
    }
}

/// Index of the first item past the warm-up round, and that round's
/// end in trace seconds.
fn warmup_split(input: &PassInput, rounds: usize) -> (usize, f64) {
    let epoch_len = input.scenario.trace.epoch_len;
    let warm_end = (input.epochs / rounds as u64) as f64 * epoch_len;
    let split = input
        .items
        .iter()
        .position(|it| item_time(it) >= warm_end)
        .unwrap_or(input.items.len());
    (split, warm_end)
}

fn count_timed(result: &mut PassResult, items: &[StreamItem], epochs: u64) {
    result.items = items.len() as u64;
    result.readings = items
        .iter()
        .filter(|it| matches!(it, StreamItem::Reading(_)))
        .count() as u64;
    result.epochs = epochs;
}

fn book_sync_stats(layers: &mut Layers, stats: &PipelineStats) {
    layers.peak(
        "sync.pending_high_water",
        stats.sync_pending_high_water as f64,
    );
    layers.add("sync.late_dropped", stats.late_dropped as f64);
}

fn book_push_stats(result: &mut PassResult, push: PushStats, traced: bool) {
    if traced {
        result
            .layers
            .add("sync.buffered_us", push.buffered_ns as f64 / 1e3);
        result.layers.extend("sync.hold_epochs", push.hold_epochs);
    }
    result.epoch_us = push.epoch_us;
}

// ---------------------------------------------------------------------
// cold_scan
// ---------------------------------------------------------------------

/// `Pipeline` -> engine -> collecting sink.
pub fn cold_scan(input: &PassInput, ctx: &PassCtx<'_>) -> PassResult {
    let tracer = ctx.tracer();
    let epoch_len = input.scenario.trace.epoch_len;
    let mut pipeline = Pipeline::new(
        epoch_len,
        Timed::new(engine_for(input), "engine", &tracer),
        Timed::new(Collector::default(), "sink.collect", &tracer),
    );
    let mut push = PushStats::default();

    let root = tracer.enter("pass", Some(0));
    let t0 = Instant::now();
    for item in &input.items {
        timed_push(&mut pipeline, *item, epoch_len, &tracer, &mut push);
    }
    tracer.span("finish", || pipeline.finish());
    let timed = t0.elapsed();
    tracer.exit(root);

    let (engine, sink, stats) = pipeline.into_parts();
    let (engine, sink) = (engine.into_inner(), sink.into_inner());
    let mut result = PassResult {
        timed_s: timed.as_secs_f64(),
        digest: sink.digest(),
        engine_bytes: Some(engine.memory_bytes() as f64),
        attempted: input.items.len() as u64,
        failed: stats.late_dropped,
        ..PassResult::default()
    };
    count_timed(&mut result, &input.items, stats.epochs);
    result.score_events(&sink.events, input);
    if ctx.traced {
        result
            .layers
            .add_engine_stats(engine.stats(), &Default::default());
        book_sync_stats(&mut result.layers, &stats);
    }
    book_push_stats(&mut result, push, ctx.traced);
    fold_spans(&mut result, tracer, &["engine"]);
    result
}

// ---------------------------------------------------------------------
// durable_patrol
// ---------------------------------------------------------------------

/// A scratch directory removed on success and on failure alike.
struct TempDir(PathBuf);

impl TempDir {
    fn create(parent: &Path, name: &str) -> TempDir {
        let path = parent.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the pass's scratch directory");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sync_log(store: &RwLock<DurableStore>) {
    store
        .write()
        .expect("store lock")
        .sync()
        .expect("fsync the log tail");
}

fn drain_hub(sub: &SubscriptionHandle, tracer: &Tracer, result: &mut PassResult) {
    tracer.span("hub.poll", || {
        while let Some(frame) = sub.poll() {
            result.attempted += 1;
            match frame {
                Frame::Push { rows, .. } => {
                    result.layers.add("hub.frames", 1.0);
                    result.layers.add("hub.rows", rows.len() as f64);
                }
                Frame::Lagged { dropped, .. } => result.failed += dropped.max(1),
                _ => result.failed += 1,
            }
        }
    });
}

/// `Pipeline` -> engine -> (`StoreSink<DurableStore>`, `HubSink` with
/// one polled subscription), the recovery protocol's cadence driven
/// between pushes, then `recovery::resume()` on the finished directory.
pub fn durable_patrol(input: &PassInput, ctx: &PassCtx<'_>) -> PassResult {
    let tracer = ctx.tracer();
    let epoch_len = input.scenario.trace.epoch_len;
    let dir = TempDir::create(
        ctx.tmp,
        &format!("durable-{}-{}", std::process::id(), ctx.pass),
    );
    let store = Arc::new(RwLock::new(
        DurableStore::open(&dir.0.join(LOG_SUBDIR), StoreConfig::default())
            .expect("open the durable store"),
    ));
    let hub = SubscriptionHub::default();
    let sub = hub.subscribe(1, SubscriptionFilter::All);
    let sink = (
        (
            Timed::new(StoreSink::new(Arc::clone(&store)), "sink.store", &tracer),
            Timed::new(hub.sink(), "sink.hub", &tracer),
        ),
        Timed::new(Collector::default(), "sink.collect", &tracer),
    );
    let mut pipeline = Pipeline::new(
        epoch_len,
        Timed::new(engine_for(input), "engine", &tracer),
        sink,
    );
    let mut result = PassResult::default();

    // round 1 brings every object from 1,000 particles to its
    // compressed steady state; it is set-up, not measurement
    let (split, _) = warmup_split(input, ctx.rounds);
    tracer.set_paused(true);
    for item in &input.items[..split] {
        pipeline.push(*item);
        while sub.poll().is_some() {}
    }
    tracer.set_paused(false);
    let warm_epochs = pipeline.stats().epochs;
    let stats_before = pipeline.stage().inner().stats().clone();

    let ckpt = dir.0.join(CHECKPOINT_FILE);
    let prev = dir.0.join(CHECKPOINT_PREV_FILE);
    let mut push = PushStats::default();
    let root = tracer.enter("pass", Some(0));
    let t0 = Instant::now();
    for item in &input.items[split..] {
        if !timed_push(&mut pipeline, *item, epoch_len, &tracer, &mut push) {
            continue;
        }
        drain_hub(&sub, &tracer, &mut result);
        let epoch = pipeline.sink().1.inner().last_completed().unwrap_or(0);
        if epoch > 0 && epoch % CHECKPOINT_EVERY == 0 {
            // the log must durably cover the checkpoint's epoch before
            // the checkpoint exists; then rotate and write
            tracer.span("wal.sync", || sync_log(&store));
            tracer.span("ckpt.save", || {
                if ckpt.exists() {
                    std::fs::rename(&ckpt, &prev).expect("rotate the checkpoint");
                }
                pipeline
                    .stage()
                    .inner()
                    .save_checkpoint(&ckpt, Epoch(epoch))
                    .expect("write the checkpoint");
            });
        }
    }
    tracer.span("finish", || pipeline.finish());
    drain_hub(&sub, &tracer, &mut result);
    tracer.span("wal.sync", || sync_log(&store));
    let timed = t0.elapsed();
    tracer.exit(root);

    let (engine, sink, stats) = pipeline.into_parts();
    let engine = engine.into_inner();
    let collector = sink.1.into_inner();
    drop(sink.0);
    result.timed_s = timed.as_secs_f64();
    result.digest = collector.digest();
    result.engine_bytes = Some(engine.memory_bytes() as f64);
    result.attempted += input.items.len() as u64;
    result.failed += stats.late_dropped;
    count_timed(
        &mut result,
        &input.items[split..],
        stats.epochs - warm_epochs,
    );
    result.score_events(&collector.events, input);

    let durable = Arc::try_unwrap(store)
        .expect("the pipeline held the last other handle")
        .into_inner()
        .expect("store lock");
    result.checks.push(Check::eq_digest(
        format!("pass {}: durable store digest == collecting sink", ctx.pass),
        recovery::store_digest(durable.store()),
        result.digest,
    ));
    drop(durable);

    if ctx.traced {
        result
            .layers
            .add_engine_stats(engine.stats(), &stats_before);
        book_sync_stats(&mut result.layers, &stats);
        result
            .layers
            .add("hub.dropped_rows", sub.dropped_rows() as f64);
        if ctx.redrive {
            let calls = collector.calls();
            layers::redrive_store(&calls, &mut result.layers);
            layers::redrive_wal(&calls, &dir.0.join("wal-redrive"), &mut result.layers);
            layers::checkpoint_load(input, &ckpt, &mut result.layers);
        }
    }

    // crash-restart: recover the finished directory and re-drive what
    // the newest checkpoint does not cover
    let opts = DurableRunOpts {
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurableRunOpts::default()
    };
    let t0 = Instant::now();
    let resumed = recovery::resume(
        &input.scenario,
        &FilterConfig::full_default(),
        &dir.0,
        &opts,
        None,
    );
    let recover = t0.elapsed();
    result.attempted += 1;
    match resumed {
        Ok(out) => {
            result.recover_ms = Some(recover.as_secs_f64() * 1e3);
            result.checks.push(Check::eq_digest(
                format!("pass {}: post-resume digest == collecting sink", ctx.pass),
                out.run.digest,
                result.digest,
            ));
            if ctx.traced {
                let l = &mut result.layers;
                l.sample("recover.open_replay_us", us(out.recover_elapsed));
                l.sample("recover.redrive_us", us(out.run.drive_elapsed));
                l.add("recover.replayed_events", out.replayed_events as f64);
            }
        }
        Err(e) => {
            result.failed += 1;
            result.checks.push(Check::that(
                format!("pass {}: resume", ctx.pass),
                false,
                e.to_string(),
            ));
        }
    }

    book_push_stats(&mut result, push, ctx.traced);
    fold_spans(&mut result, tracer, &["engine", "ckpt.save", "wal.sync"]);
    result
}

// ---------------------------------------------------------------------
// serve_live
// ---------------------------------------------------------------------

/// The five pull kinds, in rotation order; the index is the kind id.
pub const QUERY_KINDS: [&str; 5] = ["current", "snapshot", "trail", "contain", "delta"];

pub fn query_kind(q: &Query) -> usize {
    match q {
        Query::CurrentLocation(_) => 0,
        Query::SnapshotAt(_) => 1,
        Query::Trail { .. } => 2,
        Query::Containment { .. } => 3,
        Query::SnapshotDelta { .. } => 4,
    }
}

/// Query `i` of the closed-loop puller: an even rotation over the five
/// kinds with parameters from the pass's own generator. Epochs are
/// drawn from the paced part of the pass (`floor..=latest`): by then
/// every object has been reported once, so every snapshot has about as
/// many rows as there are objects and a query's cost does not depend
/// on how early in the trace it happened to land.
fn nth_query(rng: &mut StdRng, i: u64, objects: u64, floor: u64, latest: u64) -> Query {
    let tag = TagId(rng.gen_range(0..objects.max(1)));
    let epoch = Epoch(rng.gen_range(floor..=latest.max(floor)));
    match i % 5 {
        0 => Query::CurrentLocation(tag),
        1 => Query::SnapshotAt(epoch),
        2 => Query::Trail {
            tag,
            from: Epoch(epoch.0.saturating_sub(100)),
            to: epoch,
        },
        3 => {
            let x0 = rng.gen_range(-2.0..30.0);
            let y0 = rng.gen_range(-2.0..4.0);
            Query::Containment {
                x0,
                y0,
                x1: x0 + 8.0,
                y1: y0 + 4.0,
                epoch,
            }
        }
        _ => Query::SnapshotDelta {
            at: epoch,
            since: Epoch(epoch.0.saturating_sub(50)),
        },
    }
}

// phases of a pass, in order; a pass starts in its warm-up round (0)
const PACED: u8 = 1;
const DONE: u8 = 2;

/// What the ingest thread publishes to the client threads.
#[derive(Debug, Default)]
struct Progress {
    phase: AtomicU8,
    latest_epoch: AtomicU64,
    /// PUSH frames the hub committed, published when ingestion ends.
    frames_committed: AtomicU64,
}

#[derive(Debug, Default)]
struct PullReport {
    /// `(query, round trip)` per answered query, in order.
    answered: Vec<(Query, Duration)>,
    failed: u64,
    /// The final-epoch answers, for the bit-equality check.
    finals: Vec<(Query, Option<QueryResponse>)>,
}

#[derive(Debug, Default)]
struct SubReport {
    /// `(arrival epoch, receipt)` per PUSH frame.
    received: Vec<(u64, Instant)>,
    rows: u64,
    lagged_frames: u64,
    lagged_rows: u64,
}

fn wait_for_phase(progress: &Progress, phase: u8) {
    while progress.phase.load(Ordering::Acquire) < phase {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The closed-loop client: one query at a time, the next as soon as
/// the last is answered, over the epochs `floor..=latest`.
fn puller(
    addr: std::net::SocketAddr,
    progress: &Progress,
    objects: u64,
    floor: u64,
    seed: u64,
    tracer: Tracer,
) -> PullReport {
    let mut report = PullReport::default();
    let mut client = QueryClient::connect(addr)
        .timeout(Duration::from_secs(5))
        .establish()
        .expect("connect the puller");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E21E);
    wait_for_phase(progress, PACED);
    let mut i = 0u64;
    while progress.phase.load(Ordering::Acquire) == PACED {
        let latest = progress.latest_epoch.load(Ordering::Relaxed);
        let q = nth_query(&mut rng, i, objects, floor, latest);
        let span = tracer.enter("client.query", Some(i));
        let t0 = Instant::now();
        let resp = client.query(&q);
        let dt = t0.elapsed();
        tracer.exit(span);
        match resp {
            Ok(QueryResponse::Rows(_)) => report.answered.push((q, dt)),
            Ok(QueryResponse::Error(_)) => report.failed += 1,
            Err(_) => {
                // a timed-out or broken connection cannot be trusted
                // to frame the next response
                report.failed += 1;
                return report;
            }
        }
        i += 1;
    }
    let last = Epoch(progress.latest_epoch.load(Ordering::Relaxed));
    let tag = TagId(objects / 2);
    for q in [
        Query::CurrentLocation(tag),
        Query::SnapshotAt(last),
        Query::Trail {
            tag,
            from: Epoch(0),
            to: last,
        },
        Query::Containment {
            x0: -2.0,
            y0: -2.0,
            x1: 30.0,
            y1: 40.0,
            epoch: last,
        },
        Query::SnapshotDelta {
            at: last,
            since: Epoch(last.0.saturating_sub(50)),
        },
    ] {
        report.finals.push((q, client.query(&q).ok()));
    }
    report
}

fn subscriber(
    addr: std::net::SocketAddr,
    progress: &Progress,
    subscribed: std::sync::mpsc::Sender<()>,
) -> SubReport {
    let mut report = SubReport::default();
    let mut client = QueryClient::connect(addr)
        .timeout(Duration::from_millis(20))
        .establish()
        .expect("connect the subscriber");
    client
        .subscribe(&SubscriptionFilter::All)
        .expect("SUBSCRIBE ALL");
    subscribed
        .send(())
        .expect("ingest waits for the subscription");
    let mut done_at: Option<Instant> = None;
    loop {
        match client.next_push() {
            Ok(Frame::Push { epoch, rows, .. }) => {
                report.received.push((epoch, Instant::now()));
                report.rows += rows.len() as u64;
            }
            Ok(Frame::Lagged { dropped, .. }) => {
                report.lagged_frames += 1;
                report.lagged_rows += dropped;
            }
            Ok(_) => report.lagged_frames += 1,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return report,
        }
        if progress.phase.load(Ordering::Acquire) == DONE {
            let committed = progress.frames_committed.load(Ordering::Acquire);
            let deadline = *done_at.get_or_insert_with(|| Instant::now() + Duration::from_secs(3));
            if report.received.len() as u64 >= committed || Instant::now() > deadline {
                return report;
            }
        }
    }
}

/// Open-loop source -> `Pipeline` -> engine -> (`StoreSink<EventStore>`,
/// `HubSink`) behind `serve_with`, one closed-loop puller and one
/// otherwise idle `SUBSCRIBE ALL` connection.
pub fn serve_live(input: &PassInput, ctx: &PassCtx<'_>) -> PassResult {
    let tracer = ctx.tracer();
    let client_tracer = ctx.tracer();
    let epoch_len = input.scenario.trace.epoch_len;
    let objects = input.scenario.trace.object_tags.len() as u64;
    let registry_before = rfid_obs::global().snapshot();

    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let hub = SubscriptionHub::default();
    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind the query server");
    let addr = server.addr();
    let sink = (
        (
            Timed::new(StoreSink::new(Arc::clone(&store)), "sink.store", &tracer),
            Timed::new(hub.sink(), "sink.hub", &tracer),
        ),
        Timed::new(Collector::default(), "sink.collect", &tracer),
    );
    let mut pipeline = Pipeline::new(
        epoch_len,
        Timed::new(engine_for(input), "engine", &tracer),
        sink,
    );
    let progress = Progress::default();
    let (split, warm_end) = warmup_split(input, ctx.rounds);
    // last epoch of the warm-up round: queries address the epochs after
    let floor = (input.epochs / ctx.rounds as u64).saturating_sub(1);
    let mut due_by_epoch: Vec<Option<Instant>> = vec![None; input.epochs as usize + 2];
    let mut lateness = Lateness::new(LATE_TOLERANCE);
    let mut push = PushStats::default();
    let mut result = PassResult::default();

    let (pulled, subbed, timed, stats_before, warm_epochs) = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let sub_thread = s.spawn(|| subscriber(addr, &progress, tx));
        let pull_thread = {
            let tracer = client_tracer.clone();
            let progress = &progress;
            s.spawn(move || puller(addr, progress, objects, floor, input.seed, tracer))
        };
        rx.recv().expect("subscriber registered");

        // round 1, unpaced: objects settle into their compressed state
        tracer.set_paused(true);
        for item in &input.items[..split] {
            pipeline.push(*item);
        }
        tracer.set_paused(false);
        let warm_epochs = pipeline.stats().epochs;
        let stats_before = pipeline.stage().inner().stats().clone();
        progress
            .latest_epoch
            .store(warm_epochs.saturating_sub(1), Ordering::Relaxed);

        let root = tracer.enter("pass", Some(0));
        let start = Instant::now();
        let pacer = Pacer::new(start, warm_end, epoch_len, SERVE_EPOCHS_PER_S);
        progress.phase.store(PACED, Ordering::Release);
        for item in &input.items[split..] {
            let due = pacer.due(item_time(item));
            let released = tracer.span("source.wait", || pacer.wait_until(due));
            lateness.record(due, released);
            if timed_push(&mut pipeline, *item, epoch_len, &tracer, &mut push) {
                let epoch = pipeline.stats().epochs - 1;
                due_by_epoch[epoch as usize] = Some(due);
                progress.latest_epoch.store(epoch, Ordering::Relaxed);
            }
        }
        tracer.span("finish", || pipeline.finish());
        let timed = start.elapsed();
        tracer.exit(root);
        let committed = rfid_obs::global()
            .snapshot()
            .diff(&registry_before)
            .counter("hub_delivered_total");
        progress
            .frames_committed
            .store(committed, Ordering::Release);
        progress.phase.store(DONE, Ordering::Release);
        (
            pull_thread.join().expect("puller thread"),
            sub_thread.join().expect("subscriber thread"),
            timed,
            stats_before,
            warm_epochs,
        )
    });

    let (engine, sink, stats) = pipeline.into_parts();
    let engine = engine.into_inner();
    let collector = sink.1.into_inner();
    drop(sink.0);
    result.timed_s = timed.as_secs_f64();
    result.digest = collector.digest();
    result.engine_bytes = Some(engine.memory_bytes() as f64);
    count_timed(
        &mut result,
        &input.items[split..],
        stats.epochs - warm_epochs,
    );
    result.score_events(&collector.events, input);

    // push latency: due time of the releasing item -> PUSH receipt,
    // joined on the arrival epoch the frame names
    for (epoch, at) in &subbed.received {
        if let Some(Some(due)) = due_by_epoch.get(*epoch as usize) {
            result.push_us.push(us(at.saturating_duration_since(*due)));
        }
    }
    result.query_us = pulled.answered.iter().map(|(_, dt)| us(*dt)).collect();

    let committed = progress.frames_committed.load(Ordering::Acquire);
    let late_share = lateness.late_share();
    let voided = late_share > MAX_LATE_SHARE;
    result.voided = voided;
    result.attempted += input.items.len() as u64
        + pulled.answered.len() as u64
        + pulled.failed
        + committed
        + pulled.finals.len() as u64
        + 1;
    result.failed += stats.late_dropped
        + pulled.failed
        + subbed.lagged_rows
        + committed.saturating_sub(subbed.received.len() as u64)
        + u64::from(voided);
    {
        let store = store.read().expect("store lock");
        let wrong = pulled
            .finals
            .iter()
            .filter(|(q, got)| got.as_ref() != Some(&answer(&store, q)))
            .count();
        result.failed += wrong as u64;
        result.checks.push(Check::that(
            format!(
                "pass {}: final answers bit-equal to in-process answer()",
                ctx.pass
            ),
            wrong == 0 && pulled.finals.len() == QUERY_KINDS.len(),
            format!("{wrong} of {} differ", pulled.finals.len()),
        ));
    }
    result.checks.push(Check::that(
        format!("pass {}: pushes received == hub frames committed", ctx.pass),
        subbed.received.len() as u64 == committed,
        format!("{} vs {committed}", subbed.received.len()),
    ));
    result.checks.push(Check::that(
        format!("pass {}: zero LAGGED", ctx.pass),
        subbed.lagged_frames == 0,
        format!(
            "{} frames, {} rows",
            subbed.lagged_frames, subbed.lagged_rows
        ),
    ));
    result.checks.push(Check::that(
        format!("pass {}: generator kept its schedule", ctx.pass),
        !voided,
        format!("late_share {late_share:.4}"),
    ));

    if ctx.traced {
        let l = &mut result.layers;
        l.add_engine_stats(engine.stats(), &stats_before);
        book_sync_stats(l, &stats);
        l.extend("source.late_us", lateness.late_us.iter().copied());
        l.add("source.late_items", lateness.late_items as f64);
        l.add("source.paced_items", lateness.late_us.len() as f64);
        l.add("hub.frames", subbed.received.len() as f64);
        l.add("hub.rows", subbed.rows as f64);
        l.add("hub.dropped_rows", subbed.lagged_rows as f64);
        l.add("server.lagged_frames", subbed.lagged_frames as f64);
        for (q, dt) in &pulled.answered {
            l.sample(layers::RTT_KEYS[query_kind(q)], us(*dt));
        }
        if ctx.redrive {
            layers::redrive_store(&collector.calls(), l);
            let queries: Vec<Query> = pulled.answered.iter().map(|(q, _)| *q).collect();
            layers::redrive_queries(&store.read().expect("store lock"), &queries, l);
        }
    }
    server.shutdown();

    book_push_stats(&mut result, push, ctx.traced);
    tracer.adopt(client_tracer, None);
    fold_spans(&mut result, tracer, &["engine"]);
    result
}

// ---------------------------------------------------------------------
// cluster_scan
// ---------------------------------------------------------------------

/// Cluster workers: 2, or fewer on a box with fewer cores.
pub fn cluster_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// `run_router` + workers + `run_coordinator` on threads over loopback
/// TCP, fed the trace's epoch batches.
pub fn cluster_scan(input: &PassInput, ctx: &PassCtx<'_>) -> PassResult {
    let tracer = ctx.tracer();
    let workers = cluster_workers();
    let batches = input.scenario.trace.epoch_batches();
    let router_l = TcpListener::bind("127.0.0.1:0").expect("bind the router");
    let coord_l = TcpListener::bind("127.0.0.1:0").expect("bind the coordinator");
    let router_addr = router_l.local_addr().expect("router address");
    let coord_addr = coord_l.local_addr().expect("coordinator address");
    let head: Engine = engine_for(input);
    let engines: Vec<Engine> = (0..workers).map(|_| engine_for(input)).collect();
    let thread_tracers: Vec<Tracer> = (0..workers + 1).map(|_| ctx.tracer()).collect();

    let root = tracer.enter("pass", Some(0));
    let t0 = Instant::now();
    let (routed, merged, worked) = std::thread::scope(|s| {
        let coord = {
            let tracer = &thread_tracers[workers];
            let coord_l = &coord_l;
            s.spawn(move || {
                tracer.span("cluster.coordinator", || run_coordinator(coord_l, workers))
            })
        };
        let handles: Vec<_> = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| {
                let tracer = &thread_tracers[i];
                s.spawn(move || {
                    tracer.span("cluster.worker", || {
                        let router = TcpStream::connect(router_addr)?;
                        let coordinator = TcpStream::connect(coord_addr)?;
                        run_worker(i, router, coordinator, engine)
                    })
                })
            })
            .collect();
        let routed = tracer.span("cluster.router", || {
            run_router(&router_l, workers, head, &batches)
        });
        let worked: Vec<std::io::Result<()>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (routed, coord.join().expect("coordinator thread"), worked)
    });
    let timed = t0.elapsed();
    tracer.exit(root);

    let mut result = PassResult {
        timed_s: timed.as_secs_f64(),
        attempted: input.items.len() as u64,
        ..PassResult::default()
    };
    result.items = input.items.len() as u64;
    result.readings = input.readings;
    result.epochs = batches.len() as u64;
    let errors: Vec<String> = worked
        .iter()
        .filter_map(|r| r.as_ref().err().map(|e| format!("worker: {e}")))
        .chain(routed.as_ref().err().map(|e| format!("router: {e}")))
        .chain(merged.as_ref().err().map(|e| format!("coordinator: {e}")))
        .collect();
    result.failed += errors.len() as u64;
    result.checks.push(Check::that(
        format!("pass {}: cluster ran to completion", ctx.pass),
        errors.is_empty(),
        errors.join("; "),
    ));
    if let Ok(merged) = &merged {
        result.digest = merged.digest;
        result.score_events(&merged.events, input);
    }
    for t in thread_tracers {
        tracer.adopt(t, root);
    }
    if ctx.traced {
        if let Ok(summary) = &routed {
            result
                .layers
                .add("engine.object_updates", summary.object_updates as f64);
            result
                .layers
                .add("engine.reader_resamples", summary.reader_resamples as f64);
            result
                .layers
                .add("engine.readings", summary.readings as f64);
        }
        if ctx.redrive {
            layers::redrive_cluster(input, workers, result.timed_s, &mut result.layers);
        }
    }
    fold_spans(&mut result, tracer, &[]);
    result
}
