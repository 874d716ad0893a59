//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root repeats this table for the driver; a self-test keeps the two
//! identical.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One of the four workloads: the shape of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `endurance_trace(objects, rounds, _)`.
    pub objects: usize,
    pub rounds: usize,
    /// Seconds one pass takes on the 2-core reference box, its own
    /// untimed warm-up round included in part.
    pub pass_seconds: f64,
}

impl Workload {
    /// Measured passes of a run of `seconds`: a run is a fixed amount
    /// of work, not a fixed wall time, so that counts and deterministic
    /// metrics repeat exactly.
    pub fn passes_in(&self, seconds: f64) -> usize {
        ((seconds / self.pass_seconds).round() as usize).max(1)
    }
}

pub const COLD_SCAN: &str = "cold_scan";
pub const DURABLE_PATROL: &str = "durable_patrol";
pub const SERVE_LIVE: &str = "serve_live";
pub const CLUSTER_SCAN: &str = "cluster_scan";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: COLD_SCAN,
        why: "2,000 objects scanned once at 1,000 particles each: inference is ~94% of wall, so engine work shows here and store, server and cluster work must not",
        objects: 2000,
        rounds: 1,
        pass_seconds: 2.3,
    },
    Workload {
        name: DURABLE_PATROL,
        why: "200 objects patrolled 20 times into the durable store with WAL, checkpoints and a crash-restart: inference falls to about half, so storage and recovery cost shows",
        objects: 200,
        rounds: 20,
        pass_seconds: 0.62,
    },
    Workload {
        name: SERVE_LIVE,
        why: "open-loop ingest at 400 epochs/s behind the TCP server with one closed-loop puller and one idle subscriber: query round trips and sighting-to-PUSH latency",
        objects: 1000,
        rounds: 4,
        pass_seconds: 7.5,
    },
    Workload {
        name: CLUSTER_SCAN,
        why: "the cold_scan traces through router, 2 workers and coordinator over loopback TCP: protocol and barrier cost against the single-process baseline",
        objects: 2000,
        rounds: 1,
        pass_seconds: 2.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const ALL: &[&str] = &[COLD_SCAN, DURABLE_PATROL, SERVE_LIVE, CLUSTER_SCAN];

/// An end-to-end metric the driver gates: what a user of the system
/// sees, on the workloads where this box repeats it.
///
/// The driver rejects the whole benchmark when ten runs of a workload
/// spread wider than a metric's bound, or when a second set of ten
/// reads worse than the first by more than it, and allows no bound
/// above 25%. The 2-vCPU reference VM has a quiet and a noisy mode that
/// last tens of minutes each: single-threaded compute runs 6-10% slower
/// in the noisy one (a third slower for ten seconds at a stretch),
/// anything that waits for an fsync or for another thread to wake
/// 15-40% slower. A wall-clock number is a gate here only where, in
/// either mode, ten runs spread no wider than half its bound and the
/// two modes lie well inside it: the rate of the single-threaded scan
/// and the delivered rate of the paced one. The others are the `wall.*`
/// per-layer metrics ([`wall`]), measured the same way on every run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline's value by which the metric may worsen
    /// before it counts as a regression: the one bound the result
    /// files, `compare` and `BENCHMARK.json` all carry.
    pub bound: f64,
    /// The workloads on which it is a gate. On the others the run
    /// reports an input size in its place, marked as not measured (see
    /// `report::RunOutcome::end_to_end`).
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    pub fn measured_on(&self, workload: &str) -> bool {
        self.workloads.contains(&workload)
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    // Wall time of the run outside its timed regions: trace generation,
    // warm-up pass and rounds, engine and server construction, checks
    // (what is done there several times: the count times the better
    // quartile of one).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: ALL,
    },
    // `wall.readings_per_s` where it repeats: the single-threaded scan,
    // and the delivered rate under serve_live's 400 epochs/s schedule.
    EndToEnd {
        name: "readings_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        workloads: &[COLD_SCAN, SERVE_LIVE],
    },
    // Event F1 at 1 ft against ground truth (EventScore), pooled counts.
    EndToEnd {
        name: "event_f1",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
        workloads: ALL,
    },
    // Mean XY error of the emitted events (ErrorStats), event-weighted.
    EndToEnd {
        name: "mean_error_ft",
        unit: "ft",
        better: Better::Lower,
        bound: 0.09,
        workloads: ALL,
    },
    // InferenceEngine::memory_bytes() at pass end, mean over passes.
    // The cluster's workers keep theirs to themselves.
    EndToEnd {
        name: "engine_state_kb",
        unit: "KB",
        better: Better::Lower,
        bound: 0.12,
        workloads: &[COLD_SCAN, DURABLE_PATROL, SERVE_LIVE],
    },
    // 1 - failed/attempted operations (ERR or timed-out queries, LAGGED
    // rows, late-dropped items, frames never received, voided passes,
    // digest or answer mismatches).
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        workloads: ALL,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: name (prefix = layer) and unit. No bound.
pub const PER_LAYER: [(&str, &str); 76] = [
    // raw readings per timed second
    ("wall.readings_per_s", "1/s"),
    // p99 of the Pipeline::push calls that completed an epoch
    ("wall.epoch_p99_us", "us"),
    // wall of recovery::resume() on the finished run directory
    ("wall.recover_ms", "ms"),
    // answered queries per second on one closed-loop connection
    ("wall.queries_per_s", "1/s"),
    // p99 query round trip
    ("wall.query_p99_us", "us"),
    // median and p90 time from the due time of the item that released
    // an epoch to the client's receipt of that epoch's PUSH frame
    ("wall.push_p50_us", "us"),
    ("wall.push_p90_us", "us"),
    ("source.items", "count"),
    ("source.readings", "count"),
    ("source.epochs", "count"),
    ("source.seeds_skipped", "count"),
    ("source.voided_passes", "count"),
    ("source.late_p99_us", "us"),
    ("source.late_share", "ratio"),
    ("sync.self_us", "us"),
    ("sync.pending_high_water", "count"),
    ("sync.late_dropped", "count"),
    ("sync.hold_epochs_p99", "epochs"),
    ("engine.busy_us", "us"),
    ("engine.ingest_us", "us"),
    ("engine.infer_us", "us"),
    ("engine.emit_us", "us"),
    ("engine.epoch_p50_us", "us"),
    ("engine.epoch_p99_us", "us"),
    ("engine.object_updates", "count"),
    ("engine.object_resamples", "count"),
    ("engine.reader_resamples", "count"),
    ("engine.compressions", "count"),
    ("engine.decompressions", "count"),
    ("engine.updates_per_reading", "ratio"),
    ("store.busy_us", "us"),
    ("store.events", "count"),
    ("store.segments", "count"),
    ("store.seal_p99_us", "us"),
    ("wal.busy_us", "us"),
    ("wal.bytes", "bytes"),
    ("wal.seals", "count"),
    ("wal.complete_epoch_p99_us", "us"),
    ("wal.sync_p50_us", "us"),
    ("ckpt.save_p50_us", "us"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.load_us", "us"),
    ("recover.open_replay_us", "us"),
    ("recover.redrive_us", "us"),
    ("recover.replayed_events", "count"),
    ("hub.busy_us", "us"),
    ("hub.frames", "count"),
    ("hub.rows", "count"),
    ("hub.dropped_rows", "count"),
    ("query.answer_us.current", "us"),
    ("query.answer_us.snapshot", "us"),
    ("query.answer_us.trail", "us"),
    ("query.answer_us.contain", "us"),
    ("query.answer_us.delta", "us"),
    ("query.codec_us.snapshot", "us"),
    ("query.rows_p50.snapshot", "rows"),
    ("server.rtt_p50_us.current", "us"),
    ("server.rtt_p50_us.snapshot", "us"),
    ("server.rtt_p50_us.trail", "us"),
    ("server.rtt_p50_us.contain", "us"),
    ("server.rtt_p50_us.delta", "us"),
    ("server.loop_wait_us", "us"),
    ("server.push_p99_us", "us"),
    ("server.lagged_frames", "count"),
    ("server.store_lock_wait_us", "us"),
    ("cluster.head_begin_us", "us"),
    ("cluster.head_finish_us", "us"),
    ("cluster.worker_step_us", "us"),
    ("cluster.worker_skew", "ratio"),
    ("cluster.apply_resample_us", "us"),
    ("cluster.proto_us", "us"),
    ("cluster.metrics_ship_us", "us"),
    ("cluster.merge_us", "us"),
    ("cluster.bytes_per_epoch", "bytes"),
    ("cluster.barrier_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The `wall.*` metrics: the wall-clock numbers of a whole pass, taken
/// with tracing off and reported as the median over the run's passes;
/// 0 on a workload that has no such quantity. They are what the issue
/// calls end-to-end, and every run measures them; the driver reads them
/// as per-layer metrics (no bound) because the box does not repeat
/// them (see [`EndToEnd`]), and `compare` judges them by whether the
/// runs of the two sides separate.
pub fn wall() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with("wall."))
}

/// Whether more of a per-layer metric is better (work counts) or less
/// (time, bytes, drops). Only `BENCHMARK.json` asks.
pub fn per_layer_better(name: &str) -> Better {
    const HIGHER: [&str; 8] = [
        "wall.readings_per_s",
        "wall.queries_per_s",
        "source.items",
        "source.readings",
        "source.epochs",
        "store.events",
        "hub.frames",
        "hub.rows",
    ];
    if HIGHER.contains(&name) {
        Better::Higher
    } else {
        Better::Lower
    }
}

/// The driver's command line (it appends `--workload W --seed S
/// --seconds T --trace 0|1`), and the seconds one driver run measures.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
pub const RUN_SECONDS: u32 = 20;

/// `BENCHMARK.json` as this catalogue defines it
/// (`rfid-benchmark catalogue > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('"', "\\\""));
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(per_layer_better(name).as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
