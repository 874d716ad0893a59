//! What every workload shares: the engine at the paper's operating
//! point, the collecting sink, the timed push, pass results and the
//! per-layer accumulators.

use crate::source::PassInput;
use crate::spans::{Span, Tracer};
use rfid_bench::metrics::{ErrorStats, EventScore, EventScoreConfig};
use rfid_cluster::scenario::{build_engine, Engine};
use rfid_core::engine::run_engine;
use rfid_core::{EngineStats, FilterConfig};
use rfid_stream::digest::event_digest;
use rfid_stream::{Epoch, EventSink, InferenceStage, LocationEvent, Pipeline, StreamItem};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A fresh engine for the pass's scenario at
/// `FilterConfig::full_default()` — 1,000 particles, spatial index and
/// compression on. No knob is named, so knobs can be deleted later
/// without touching the benchmark.
pub fn engine_for(input: &PassInput) -> Engine {
    build_engine(&input.scenario, &FilterConfig::full_default())
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One recorded sink call — the input captured at the sink boundary,
/// replayed later through a store or a log in isolation.
#[derive(Debug, Clone, Copy)]
pub enum SinkCall {
    Event(LocationEvent),
    EpochComplete(Epoch),
    Finish,
}

/// The collecting sink: the event stream plus where each epoch ended.
#[derive(Debug, Default)]
pub struct Collector {
    pub events: Vec<LocationEvent>,
    /// `(events delivered so far, epoch)` per completed epoch.
    marks: Vec<(usize, Epoch)>,
    finished: bool,
}

impl EventSink for Collector {
    fn on_event(&mut self, event: &LocationEvent) {
        self.events.push(*event);
    }
    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.marks.push((self.events.len(), epoch));
    }
    fn on_finish(&mut self) {
        self.finished = true;
    }
}

impl Collector {
    pub fn last_completed(&self) -> Option<u64> {
        self.marks.last().map(|(_, e)| e.0)
    }

    pub fn digest(&self) -> u64 {
        event_digest(&self.events)
    }

    /// The sink calls the pipeline made, in order.
    pub fn calls(&self) -> Vec<SinkCall> {
        let mut calls = Vec::with_capacity(self.events.len() + self.marks.len() + 1);
        let mut next = 0usize;
        for &(upto, epoch) in &self.marks {
            calls.extend(self.events[next..upto].iter().copied().map(SinkCall::Event));
            calls.push(SinkCall::EpochComplete(epoch));
            next = upto;
        }
        calls.extend(self.events[next..].iter().copied().map(SinkCall::Event));
        if self.finished {
            calls.push(SinkCall::Finish);
        }
        calls
    }
}

/// Digest of the batch reference path: `run_engine`, i.e.
/// `process_batch_into` over the trace's `epoch_batches()` and one
/// final flush. Doubles as the run's warm-up pass: it runs the engine
/// hot on the first pass's input.
pub fn batch_reference(input: &PassInput) -> u64 {
    let mut engine = engine_for(input);
    event_digest(&run_engine(
        &mut engine,
        &input.scenario.trace.epoch_batches(),
    ))
}

/// The trace time an item is stamped with, seconds.
pub fn item_time(item: &StreamItem) -> f64 {
    match item {
        StreamItem::Reading(r) => r.time,
        StreamItem::Report(r) => r.time,
    }
}

/// Sums, maxima and samples a traced pass collects per layer. Keys are
/// the benchmark's own span and counter names.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Self time per span name, microseconds.
    pub self_us: BTreeMap<&'static str, f64>,
    pub sum: BTreeMap<&'static str, f64>,
    pub max: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sum.entry(name).or_default() += v;
    }

    pub fn peak(&mut self, name: &'static str, v: f64) {
        let slot = self.max.entry(name).or_default();
        *slot = slot.max(v);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn extend(&mut self, name: &'static str, vs: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(vs);
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.self_us {
            *self.self_us.entry(k).or_default() += *v;
        }
        for (k, v) in &other.sum {
            self.add(k, *v);
        }
        for (k, v) in &other.max {
            self.peak(k, *v);
        }
        for (k, v) in &other.samples {
            self.extend(k, v.iter().copied());
        }
    }

    pub fn total(&self, name: &str) -> f64 {
        self.sum.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of the spans called `name`, microseconds.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Books the engine's own counters for the timed part of a pass.
    pub fn add_engine_stats(&mut self, now: &EngineStats, before: &EngineStats) {
        let mut put = |name, a: u64, b: u64| self.add(name, (a - b) as f64);
        put("engine.ingest_us", now.ingest_us, before.ingest_us);
        put("engine.infer_us", now.infer_us, before.infer_us);
        put("engine.emit_us", now.emit_us, before.emit_us);
        put(
            "engine.object_updates",
            now.object_updates,
            before.object_updates,
        );
        put(
            "engine.object_resamples",
            now.object_resamples,
            before.object_resamples,
        );
        put(
            "engine.reader_resamples",
            now.reader_resamples,
            before.reader_resamples,
        );
        put("engine.compressions", now.compressions, before.compressions);
        put(
            "engine.decompressions",
            now.decompressions,
            before.decompressions,
        );
        put("engine.readings", now.readings, before.readings);
    }
}

/// An output check; any failed check fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn eq_digest(name: impl Into<String>, got: u64, want: u64) -> Check {
        Check {
            name: name.into(),
            ok: got == want,
            detail: format!("{got:016x} vs {want:016x}"),
        }
    }

    pub fn that(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// What one measured pass produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Wall seconds of the timed region.
    pub timed_s: f64,
    /// Raw items, readings and epochs inside the timed region.
    pub items: u64,
    pub readings: u64,
    pub epochs: u64,
    /// `Pipeline::push` spans that completed an epoch, microseconds.
    pub epoch_us: Vec<f64>,
    pub digest: u64,
    pub score: Option<(EventScore, ErrorStats)>,
    pub engine_bytes: Option<f64>,
    pub recover_ms: Option<f64>,
    /// Query round trips and sighting-to-PUSH latencies, microseconds.
    pub query_us: Vec<f64>,
    pub push_us: Vec<f64>,
    /// Operations attempted (pushed items, frames, queries, resumes)
    /// and failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The generator fell behind its schedule (`serve_live`): the pass
    /// did not offer the load it claims.
    pub voided: bool,
    /// Filled by traced passes only.
    pub layers: Layers,
    pub spans: Vec<Span>,
}

impl PassResult {
    /// Scores the collected events against the pass's ground truth.
    pub fn score_events(&mut self, events: &[LocationEvent], input: &PassInput) {
        let truth = &input.scenario.trace.truth;
        self.score = Some((
            EventScore::score(events, truth, &EventScoreConfig::default()),
            ErrorStats::score(events, truth),
        ));
    }
}

/// Samples of the timed pushes of one pass.
#[derive(Debug, Default)]
pub struct PushStats {
    pub epoch_us: Vec<f64>,
    /// Time in pushes that only buffered an item, nanoseconds.
    pub buffered_ns: u64,
    /// Epochs a released epoch waited behind the item that released it.
    pub hold_epochs: Vec<f64>,
}

/// One `Pipeline::push` between two `Instant::now()` — the only
/// instrumentation of an untraced pass. Returns whether the push
/// completed an epoch.
pub fn timed_push<St: InferenceStage, Sk: EventSink>(
    pipeline: &mut Pipeline<St, Sk>,
    item: StreamItem,
    epoch_len: f64,
    tracer: &Tracer,
    stats: &mut PushStats,
) -> bool {
    let before = pipeline.stats().epochs;
    let span = tracer.enter("push", None);
    let t0 = Instant::now();
    pipeline.push(item);
    let dt = t0.elapsed();
    let after = pipeline.stats().epochs;
    if after == before {
        stats.buffered_ns += tracer.discard(span);
        return false;
    }
    stats.epoch_us.push(us(dt));
    if span.is_some() {
        // epochs are contiguous from 0, so the ordinal is the epoch
        tracer.exit_as(span, after - 1);
        let item_epoch = Epoch::from_seconds(item_time(&item), epoch_len).0;
        stats
            .hold_epochs
            .push(item_epoch.saturating_sub(after - 1) as f64);
    }
    true
}

/// Folds a finished tracer into the pass: self time per span name,
/// durations of the spans in `sample_names` as samples, and the raw
/// spans themselves.
pub fn fold_spans(result: &mut PassResult, tracer: Tracer, sample_names: &[&'static str]) {
    let Some(log) = tracer.into_log() else {
        return;
    };
    let spans = log.into_spans();
    for (name, ns) in crate::spans::self_times(&spans) {
        *result.layers.self_us.entry(name).or_default() += ns as f64 / 1e3;
    }
    for name in sample_names {
        let durs = crate::spans::durations(&spans, name);
        result
            .layers
            .extend(name, durs.into_iter().map(|ns| ns as f64 / 1e3));
    }
    result.spans = spans;
}
