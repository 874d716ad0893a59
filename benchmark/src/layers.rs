//! Isolated re-drives of the layers a pass cannot time from outside
//! while it runs: store against WAL inside `DurableStore`, answer
//! against codec against socket inside the server, head, workers and
//! protocol inside the cluster. Each replays inputs a traced pass
//! captured at the layer's boundary.

use crate::harness::{engine_for, us, Layers, SinkCall};
use crate::source::PassInput;
use crate::workloads::{query_kind, CHECKPOINT_EVERY};
use rfid_cluster::proto;
use rfid_core::engine::cluster::{ClusterHead, ClusterWorker};
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{answer, Query, QueryResponse, SegmentLog};
use rfid_stream::wire::{decode_event_frame, merge_events_by_tag, WireEventSink};
use rfid_stream::{Epoch, EventSink, LocationEvent};
use std::path::Path;
use std::time::Instant;

pub const RTT_KEYS: [&str; 5] = [
    "server.rtt_us.current",
    "server.rtt_us.snapshot",
    "server.rtt_us.trail",
    "server.rtt_us.contain",
    "server.rtt_us.delta",
];

pub const ANSWER_KEYS: [&str; 5] = [
    "query.answer_us.current",
    "query.answer_us.snapshot",
    "query.answer_us.trail",
    "query.answer_us.contain",
    "query.answer_us.delta",
];

pub const CODEC_KEYS: [&str; 5] = [
    "query.codec_us.current",
    "query.codec_us.snapshot",
    "query.codec_us.trail",
    "query.codec_us.contain",
    "query.codec_us.delta",
];

/// Replays the captured sink calls through a fresh in-memory
/// `EventStore`: what the store costs without the WAL, the lock and
/// the pipeline around it.
pub fn redrive_store(calls: &[SinkCall], layers: &mut Layers) {
    let mut store = EventStore::new(StoreConfig::default());
    let t0 = Instant::now();
    for call in calls {
        match call {
            SinkCall::Event(e) => {
                store.push(e);
            }
            SinkCall::EpochComplete(epoch) => {
                // one completion in 64 seals a segment (clones the
                // relation); those are the tail of this sample
                let t = Instant::now();
                store.complete_epoch(*epoch);
                layers.sample("store.complete_epoch_us", us(t.elapsed()));
            }
            SinkCall::Finish => store.finish(),
        }
    }
    layers.add("store.busy_us", us(t0.elapsed()));
    let stats = store.stats();
    layers.add(
        "store.events",
        (stats.events_live + stats.events_compacted) as f64,
    );
    layers.add("store.segments", stats.segments as f64);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replays the captured sink calls through a `SegmentLog` alone, with
/// the pass's fsync cadence: what the WAL costs without the store.
pub fn redrive_wal(calls: &[SinkCall], dir: &Path, layers: &mut Layers) {
    let width = StoreConfig::default().segment_epochs;
    let mut log = SegmentLog::open(dir, width).expect("open the re-drive log");
    let mut busy = std::time::Duration::ZERO;
    let mut timed = |f: &mut dyn FnMut(&mut SegmentLog)| {
        let t = Instant::now();
        f(&mut log);
        let dt = t.elapsed();
        busy += dt;
        dt
    };
    for call in calls {
        match call {
            SinkCall::Event(e) => {
                timed(&mut |log| log.append_event(e).expect("append"));
            }
            SinkCall::EpochComplete(epoch) => {
                let dt = timed(&mut |log| log.complete_epoch(*epoch).expect("complete"));
                layers.sample("wal.complete_epoch_us", us(dt));
                if epoch.0 > 0 && epoch.0 % CHECKPOINT_EVERY == 0 {
                    let dt = timed(&mut |log| log.sync().expect("fsync"));
                    layers.sample("wal.sync_us", us(dt));
                }
            }
            SinkCall::Finish => {
                timed(&mut |log| log.finish().expect("finish"));
                let dt = timed(&mut |log| log.sync().expect("fsync"));
                layers.sample("wal.sync_us", us(dt));
            }
        }
    }
    layers.add("wal.busy_us", us(busy));
    layers.add("wal.seals", log.live_segments() as f64);
    drop(log);
    layers.add("wal.bytes", dir_bytes(dir) as f64);
    let _ = std::fs::remove_dir_all(dir);
}

/// Times `load_checkpoint` of the pass's newest checkpoint into a
/// fresh engine, and books the checkpoint's size.
pub fn checkpoint_load(input: &PassInput, ckpt: &Path, layers: &mut Layers) {
    let Ok(meta) = std::fs::metadata(ckpt) else {
        return;
    };
    layers.sample("ckpt.bytes", meta.len() as f64);
    let mut engine = engine_for(input);
    let t = Instant::now();
    let loaded = engine.load_checkpoint(ckpt);
    let dt = t.elapsed();
    if loaded.is_ok() {
        layers.sample("ckpt.load_us", us(dt));
    }
}

/// Replays the pass's query list in-process: `answer()` alone, and the
/// wire codec alone (request encode + parse, response encode + parse).
pub fn redrive_queries(store: &EventStore, queries: &[Query], layers: &mut Layers) {
    for q in queries {
        let kind = query_kind(q);
        let t = Instant::now();
        let response = answer(store, q);
        layers.sample(ANSWER_KEYS[kind], us(t.elapsed()));

        let t = Instant::now();
        let line = q.encode();
        let parsed = Query::parse(&line);
        let payload = response.encode();
        let decoded = QueryResponse::parse(&payload);
        layers.sample(CODEC_KEYS[kind], us(t.elapsed()));
        debug_assert!(parsed.is_ok() && decoded.is_ok());
        let _ = std::hint::black_box((parsed, decoded));

        if kind == 1 {
            layers.sample(
                "query.rows.snapshot",
                response.rows().map_or(0, <[_]>::len) as f64,
            );
        }
    }
}

/// Microseconds each step of the sequential cluster re-drive took,
/// summed over epochs.
#[derive(Debug, Default)]
struct ClusterCost {
    head_begin: f64,
    head_finish: f64,
    /// Per epoch, the slowest worker's step / the sum over workers.
    step_max: f64,
    step_sum: f64,
    apply_max: f64,
    proto: f64,
    metrics_ship: f64,
    merge: f64,
    bytes: usize,
}

fn lap(start: Instant) -> f64 {
    us(start.elapsed())
}

/// Drives the pass's batches through `ClusterHead` and `ClusterWorker`s
/// one after another on this thread, with every message the wire
/// carries encoded and decoded in between: each step's cost without
/// threads, sockets or waiting. `threaded_s` is the wall of the real
/// threaded pass the critical path is compared against.
pub fn redrive_cluster(input: &PassInput, workers: usize, threaded_s: f64, layers: &mut Layers) {
    let batches = input.scenario.trace.epoch_batches();
    let mut head = ClusterHead::new(engine_for(input), workers);
    let mut ws: Vec<_> = (0..workers)
        .map(|_| ClusterWorker::new(engine_for(input)))
        .collect();
    let mut merged: Vec<LocationEvent> = Vec::new();
    let mut c = ClusterCost::default();

    for batch in &batches {
        let s = Instant::now();
        let plan = head.begin_epoch(batch);
        c.head_begin += lap(s);

        let mut reports = Vec::with_capacity(workers);
        let mut round: Vec<Vec<LocationEvent>> = Vec::with_capacity(workers);
        let mut step_max = 0.0f64;
        for (i, w) in ws.iter_mut().enumerate() {
            let s = Instant::now();
            let wire = proto::encode_plan(&plan, i);
            let mine = proto::decode_plan(&wire).expect("plan round trip");
            c.bytes += wire.len();
            c.proto += lap(s);

            let mut events = Vec::new();
            let s = Instant::now();
            let list = w.process_epoch(&mine, 0, &mut events);
            let step = lap(s);
            c.step_sum += step;
            step_max = step_max.max(step);

            let s = Instant::now();
            let wire = proto::encode_reports(plan.epoch, &list);
            let (_, list) = proto::decode_reports(&wire).expect("reports round trip");
            c.bytes += wire.len();
            let mut framed = Vec::new();
            {
                let mut sink = WireEventSink::new(&mut framed);
                for e in &events {
                    sink.on_event(e);
                }
                sink.on_epoch_complete(plan.epoch);
            }
            c.bytes += framed.len();
            let payload = proto::read_msg(&mut framed.as_slice())
                .expect("event frame")
                .expect("one frame per epoch");
            let events = decode_event_frame(&payload)
                .expect("event frame round trip")
                .events;
            c.proto += lap(s);

            let s = Instant::now();
            w.observe_metrics();
            let snap = rfid_obs::global().snapshot();
            let wire = proto::encode_metrics(plan.epoch, &snap);
            std::hint::black_box(proto::decode_metrics(&wire).expect("metrics round trip"));
            c.bytes += wire.len();
            c.metrics_ship += lap(s);

            reports.push(list);
            round.push(events);
        }
        c.step_max += step_max;

        let s = Instant::now();
        let directive = head.finish_epoch(&reports);
        c.head_finish += lap(s);

        let mut apply_max = 0.0f64;
        for (i, w) in ws.iter_mut().enumerate() {
            let s = Instant::now();
            let mine = directive.as_ref().map(|d| {
                let wire = proto::encode_resample(d, i, workers);
                c.bytes += wire.len();
                proto::decode_resample(&wire).expect("resample round trip")
            });
            c.proto += lap(s);
            let s = Instant::now();
            w.apply_resample(plan.epoch, mine.as_ref());
            apply_max = apply_max.max(lap(s));
        }
        c.apply_max += apply_max;

        let s = Instant::now();
        merge_events_by_tag(&round, &mut merged);
        c.merge += lap(s);
    }
    let last = batches.last().map_or(Epoch(0), |b| b.epoch);
    let finals: Vec<Vec<LocationEvent>> = ws
        .iter_mut()
        .map(|w| {
            let mut events = Vec::new();
            w.finalize_into(last, &mut events);
            events
        })
        .collect();
    merge_events_by_tag(&finals, &mut merged);
    std::hint::black_box(&merged);

    layers.add("cluster.head_begin_us", c.head_begin);
    layers.add("cluster.head_finish_us", c.head_finish);
    layers.add("cluster.worker_step_us", c.step_max);
    layers.add("cluster.worker_step_sum_us", c.step_sum);
    layers.add("cluster.apply_resample_us", c.apply_max);
    layers.add("cluster.proto_us", c.proto);
    layers.add("cluster.metrics_ship_us", c.metrics_ship);
    layers.add("cluster.merge_us", c.merge);
    layers.add("cluster.bytes", c.bytes as f64);
    layers.add("cluster.epochs", batches.len() as f64);
    // the epoch's blocking chain when every worker runs beside the
    // others: head, the slowest worker, head, the slowest resample,
    // each worker's own share of the protocol and metrics work, merge
    let critical = c.head_begin
        + c.step_max
        + c.head_finish
        + c.apply_max
        + (c.proto + c.metrics_ship) / workers as f64
        + c.merge;
    layers.add("cluster.critical_us", critical);
    layers.add("cluster.threaded_us", threaded_s * 1e6);
}
