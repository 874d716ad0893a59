//! One run of one workload: generate the passes, warm up, measure,
//! check the outputs, and pool the samples into metrics.

use crate::catalogue::{
    self, Better, Workload, CLUSTER_SCAN, COLD_SCAN, DURABLE_PATROL, PER_LAYER, SERVE_LIVE,
};
use crate::harness::{batch_reference, Check, Layers, PassResult};
use crate::layers::{ANSWER_KEYS, CODEC_KEYS, RTT_KEYS};
use crate::report::{steal_jiffies, Env, RunOutcome, Values};
use crate::source::{Generator, PassInput};
use crate::stats::{better_quartile, mean, median, percentile, percentile_supported};
use crate::workloads::{self, PassCtx};
use std::collections::BTreeMap;
use std::time::Instant;

/// Objects per pass of a `--smoke` run.
const SMOKE_OBJECTS: usize = 50;

/// Traced passes of a run that also re-drive their hidden layers; the
/// re-drives cost about as much again as the pass itself.
const REDRIVEN_PASSES: usize = 3;

/// The pooled event F1 every run must reach.
const MIN_EVENT_F1: f64 = 0.98;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub passes: usize,
    pub traced: bool,
    /// One pass of 50 objects: a functional check, not a measurement.
    pub smoke: bool,
}

fn run_pass(w: &Workload, input: &PassInput, ctx: &PassCtx<'_>) -> PassResult {
    match w.name {
        COLD_SCAN => workloads::cold_scan(input, ctx),
        DURABLE_PATROL => workloads::durable_patrol(input, ctx),
        SERVE_LIVE => workloads::serve_live(input, ctx),
        CLUSTER_SCAN => workloads::cluster_scan(input, ctx),
        other => unreachable!("workload {other} is not in the catalogue"),
    }
}

/// The `wall.*` metrics of a set of passes. Each is taken per pass, and
/// the run reports the value the better quarter of its passes reached
/// (the upper quartile of a rate, the lower one of a latency). The box
/// only ever makes a pass slow — in its noisy mode for ten seconds at
/// a stretch, more than half of a run — so the fast end of the passes
/// is what repeats: over ten runs of `cold_scan` in that mode the
/// median over passes spread 8.4%, the quartile 3.9%. `None`: the
/// workload has no such quantity, or a pass is too short to carry the
/// percentile.
fn wall(passes: &[&PassResult]) -> Values {
    let rate = |count: usize, p: &PassResult| (count > 0).then(|| count as f64 / p.timed_s);
    let of_pass = |name: &str, p: &PassResult| match name {
        "wall.readings_per_s" => rate(p.readings as usize, p),
        "wall.epoch_p99_us" => percentile(&p.epoch_us, 0.99),
        "wall.recover_ms" => p.recover_ms,
        "wall.queries_per_s" => rate(p.query_us.len(), p),
        "wall.query_p99_us" => percentile(&p.query_us, 0.99),
        "wall.push_p50_us" => percentile(&p.push_us, 0.50),
        "wall.push_p90_us" => percentile(&p.push_us, 0.90),
        other => unreachable!("{other} is not a wall metric"),
    };
    catalogue::wall()
        .map(|(name, _)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| of_pass(name, p)).collect();
            let more_is_better = catalogue::per_layer_better(name) == Better::Higher;
            (name, better_quartile(&values, more_is_better))
        })
        .collect()
}

/// The driver's end-to-end metrics of a set of passes: accuracy, state
/// and failures as pooled counts, and the one `wall.*` value the box
/// repeats on the workloads where it does. A metric that is no gate on
/// this workload carries the mean number of raw readings in a pass,
/// and the catalogue says so.
fn end_to_end(w: &Workload, passes: &[&PassResult], wall: &Values, setup_s: Option<f64>) -> Values {
    let scores: Vec<_> = passes.iter().filter_map(|p| p.score).collect();
    let events: usize = scores.iter().map(|(s, _)| s.events).sum();
    let matched: usize = scores.iter().map(|(s, _)| s.confusion.matched).sum();
    let truth_tags: usize = scores.iter().map(|(s, _)| s.truth_tags).sum();
    let found_tags: usize = scores
        .iter()
        .map(|(s, _)| s.truth_tags - s.confusion.missed_tags)
        .sum();
    let f1 = (events > 0 && truth_tags > 0).then(|| {
        let precision = matched as f64 / events as f64;
        let recall = found_tags as f64 / truth_tags as f64;
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    });
    let scored: usize = scores.iter().map(|(_, e)| e.n).sum();
    let error_ft = (scored > 0).then(|| {
        scores
            .iter()
            .map(|(_, e)| e.mean_xy * e.n as f64)
            .sum::<f64>()
            / scored as f64
    });
    let state: Vec<f64> = passes.iter().filter_map(|p| p.engine_bytes).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let readings: u64 = passes.iter().map(|p| p.readings).sum();

    let all: [(&str, Option<f64>); 6] = [
        ("setup_s", setup_s),
        ("readings_per_s", wall["wall.readings_per_s"]),
        ("event_f1", f1),
        ("mean_error_ft", error_ft),
        ("engine_state_kb", mean(&state).map(|b| b / 1024.0)),
        (
            "ok_share",
            Some(1.0 - failed as f64 / attempted.max(1) as f64),
        ),
    ];
    let not_measured = readings as f64 / passes.len().max(1) as f64;
    all.into_iter()
        .map(|(name, v)| {
            let m = catalogue::end_to_end(name).expect("catalogue metric");
            let v = if m.measured_on(w.name) {
                v
            } else {
                Some(not_measured)
            };
            (m.name, v)
        })
        .collect()
}

/// Turns the pooled accumulators of the traced passes into every
/// per-layer metric of the catalogue; what a workload has no layer
/// for reads 0.
fn per_layer(
    w: &Workload,
    wall: &Values,
    l: &Layers,
    traced: &[&PassResult],
    seeds_skipped: u64,
    voided_passes: u64,
    overhead_share: f64,
) -> BTreeMap<&'static str, f64> {
    let sum_of = |f: fn(&PassResult) -> u64| traced.iter().map(|p| f(p)).sum::<u64>() as f64;
    let med = |key: &str| median(l.samples_of(key)).unwrap_or(0.0);
    let tail = |key: &str, q: f64| percentile_supported(l.samples_of(key), q).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let passes = traced.len().max(1) as f64;
    // re-drives ran on the first passes only; their totals are scaled
    // to the whole run so that they compare with the span totals
    let redrive_scale = passes / passes.min(REDRIVEN_PASSES as f64);
    let redriven = |key: &str| l.total(key) * redrive_scale;
    let pushes: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.push_us.iter().copied())
        .collect();
    let workers = workloads::cluster_workers() as f64;

    let value = |name: &str| -> f64 {
        match name {
            // taken from the untraced passes; a quantity the workload
            // does not have reads 0, as every per-layer metric does
            wall_metric if wall_metric.starts_with("wall.") => wall[wall_metric].unwrap_or(0.0),
            "source.items" => sum_of(|p| p.items),
            "source.readings" => sum_of(|p| p.readings),
            "source.epochs" => sum_of(|p| p.epochs),
            "source.seeds_skipped" => seeds_skipped as f64,
            "source.voided_passes" => voided_passes as f64,
            "source.late_p99_us" => tail("source.late_us", 0.99),
            "source.late_share" => {
                ratio(l.total("source.late_items"), l.total("source.paced_items"))
            }
            "sync.self_us" => {
                l.self_time("push") + l.self_time("finish") + l.total("sync.buffered_us")
            }
            "sync.pending_high_water" => {
                l.max.get("sync.pending_high_water").copied().unwrap_or(0.0)
            }
            "sync.hold_epochs_p99" => tail("sync.hold_epochs", 0.99),
            "engine.busy_us" => l.self_time("engine"),
            "engine.epoch_p50_us" => med("engine"),
            "engine.epoch_p99_us" => tail("engine", 0.99),
            "engine.updates_per_reading" => {
                ratio(l.total("engine.object_updates"), l.total("engine.readings"))
            }
            "store.seal_p99_us" => tail("store.complete_epoch_us", 0.99),
            "wal.complete_epoch_p99_us" => tail("wal.complete_epoch_us", 0.99),
            "wal.sync_p50_us" => med("wal.sync_us"),
            "ckpt.save_p50_us" => med("ckpt.save"),
            "ckpt.bytes" => med("ckpt.bytes"),
            "ckpt.load_us" => med("ckpt.load_us"),
            "recover.open_replay_us" => med("recover.open_replay_us"),
            "recover.redrive_us" => med("recover.redrive_us"),
            "recover.replayed_events" => l.total("recover.replayed_events") / passes,
            "hub.busy_us" => l.self_time("sink.hub") + l.self_time("hub.poll"),
            "query.answer_us.current" => med(ANSWER_KEYS[0]),
            "query.answer_us.snapshot" => med(ANSWER_KEYS[1]),
            "query.answer_us.trail" => med(ANSWER_KEYS[2]),
            "query.answer_us.contain" => med(ANSWER_KEYS[3]),
            "query.answer_us.delta" => med(ANSWER_KEYS[4]),
            "query.codec_us.snapshot" => med(CODEC_KEYS[1]),
            "query.rows_p50.snapshot" => med("query.rows.snapshot"),
            "server.rtt_p50_us.current" => med(RTT_KEYS[0]),
            "server.rtt_p50_us.snapshot" => med(RTT_KEYS[1]),
            "server.rtt_p50_us.trail" => med(RTT_KEYS[2]),
            "server.rtt_p50_us.contain" => med(RTT_KEYS[3]),
            "server.rtt_p50_us.delta" => med(RTT_KEYS[4]),
            // the poll/park share of the cheapest round trip
            "server.loop_wait_us" => {
                (med(RTT_KEYS[0]) - med(ANSWER_KEYS[0]) - med(CODEC_KEYS[0])).max(0.0)
            }
            "server.push_p99_us" => percentile_supported(&pushes, 0.99).unwrap_or(0.0),
            // what the shared lock and the readers behind it add to
            // the ingest-side store calls
            "server.store_lock_wait_us" if w.name == SERVE_LIVE => {
                (l.self_time("sink.store") - redriven("store.busy_us")).max(0.0)
            }
            "server.store_lock_wait_us" => 0.0,
            "cluster.worker_skew" => ratio(
                l.total("cluster.worker_step_us") * workers,
                l.total("cluster.worker_step_sum_us"),
            ),
            "cluster.bytes_per_epoch" => ratio(l.total("cluster.bytes"), l.total("cluster.epochs")),
            "cluster.barrier_share" if l.total("cluster.threaded_us") > 0.0 => {
                1.0 - l.total("cluster.critical_us") / l.total("cluster.threaded_us")
            }
            "cluster.barrier_share" => 0.0,
            "trace.overhead_share" => overhead_share,
            // everything else is a plain sum booked under its own name
            other
                if ["store.", "wal.", "cluster."]
                    .iter()
                    .any(|p| other.starts_with(p)) =>
            {
                redriven(other)
            }
            other => l.total(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, value(name)))
        .collect()
}

/// Runs the workload and returns everything it measured. Progress goes
/// to stderr; nothing is printed to stdout here.
pub fn run(opts: &RunOpts) -> RunOutcome {
    let started = Instant::now();
    let steal_before = steal_jiffies();
    let w = opts.workload;
    let objects = if opts.smoke { SMOKE_OBJECTS } else { w.objects };
    let tmp = crate::report::out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("create benchmark/out/tmp");

    let mut generator = Generator::new(w, objects, opts.seed);
    let inputs: Vec<PassInput> = (0..opts.passes).map(|_| generator.next_pass()).collect();
    let ctx = |pass: usize, traced: bool| PassCtx {
        pass: pass as u32,
        traced,
        origin: started,
        tmp: &tmp,
        rounds: w.rounds,
        redrive: pass < REDRIVEN_PASSES,
    };
    let mut checks: Vec<Check> = Vec::new();

    // warm-up: the first pass after process start runs up to 40% slow,
    // so one pass over the first trace is run and discarded. It goes
    // down the batch reference path, which also yields the digest the
    // first measured pass must reproduce.
    let mut reference_s: Vec<f64> = Vec::new();
    let mut timed_reference = |input: &PassInput| {
        let began = Instant::now();
        let digest = batch_reference(input);
        reference_s.push(began.elapsed().as_secs_f64());
        digest
    };
    let reference_digest = timed_reference(&inputs[0]);
    // (the cluster's second reference runs here too, before any pass:
    // straight after ten seconds of four busy threads the box runs a
    // single one up to 45% slow, and that would be set-up time)
    let last_reference = (w.name == CLUSTER_SCAN && opts.passes > 1)
        .then(|| timed_reference(&inputs[opts.passes - 1]));
    if w.name == SERVE_LIVE {
        // the sockets and server threads want warming too: one short
        // paced pass (the warm-up round plus one paced round)
        let short = inputs[0].shortened(inputs[0].epochs / w.rounds as u64 * 2);
        let mut c = ctx(0, false);
        c.rounds = 2;
        workloads::serve_live(&short, &c);
    }

    // A pass whose only fault is that its generator fell behind is no
    // measurement — a stall of the box of 0.4 s voids it — and is run
    // once more on the same input; what the first attempt took is
    // set-up. A pass voided twice stands, and fails the run: the
    // system does not sustain the offered rate.
    let mut voided_passes = 0u64;
    // seconds each measured pass spent outside its timed region
    let mut pass_setups: Vec<f64> = Vec::new();
    let mut measure = |input: &PassInput, ctx: &PassCtx<'_>| {
        let began = Instant::now();
        let mut pass = run_pass(w, input, ctx);
        if pass.voided && pass.failed == 1 && pass.checks.iter().filter(|c| !c.ok).count() == 1 {
            eprintln!("[{}] pass {} voided, running it again", w.name, ctx.pass);
            voided_passes += 1;
            pass = run_pass(w, input, ctx);
        }
        pass_setups.push(began.elapsed().as_secs_f64() - pass.timed_s);
        pass
    };
    let mut untraced: Vec<PassResult> = Vec::with_capacity(opts.passes);
    let mut traced: Vec<PassResult> = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        eprintln!("[{}] pass {k} (seed {})", w.name, input.seed);
        let plain = measure(input, &ctx(k, false));
        if opts.traced {
            let mut with_spans = measure(input, &ctx(k, true));
            checks.push(Check::eq_digest(
                format!("pass {k}: traced digest == untraced digest"),
                with_spans.digest,
                plain.digest,
            ));
            if k > 0 {
                // the trace file holds the first pass; later passes
                // keep only their per-layer totals
                with_spans.spans = Vec::new();
            }
            traced.push(with_spans);
        }
        untraced.push(plain);
    }
    checks.push(Check::eq_digest(
        "pass 0: digest == batch reference (process_batch_into over epoch_batches())",
        untraced[0].digest,
        reference_digest,
    ));
    if let Some(reference) = last_reference {
        let last = opts.passes - 1;
        checks.push(Check::eq_digest(
            format!("pass {last}: merged digest == single-process digest"),
            untraced[last].digest,
            reference,
        ));
    }
    let _ = std::fs::remove_dir(&tmp);

    for p in untraced.iter_mut().chain(traced.iter_mut()) {
        checks.append(&mut p.checks);
    }
    let plain: Vec<&PassResult> = untraced.iter().collect();
    let timed_s: f64 = plain.iter().map(|p| p.timed_s).sum();
    let traced_s: f64 = traced.iter().map(|p| p.timed_s).sum();
    let env = Env::capture(steal_before);
    // Set-up is everything outside the timed regions (a traced run's
    // second set of passes is neither). What a run does there several
    // times — once per pass, and the cluster's two reference passes —
    // is taken as the count times the better quartile of what one
    // took, like every other timing.
    let outside = started.elapsed().as_secs_f64() - timed_s - traced_s;
    let repeated = |each: &[f64]| {
        each.len() as f64 * better_quartile(each, false).unwrap_or(0.0) - each.iter().sum::<f64>()
    };
    let setup_s = outside + repeated(&pass_setups) + repeated(&reference_s);
    let wall_values = wall(&plain);
    let pooled = end_to_end(w, &plain, &wall_values, Some(setup_s));
    // what each pass alone measured: the gates of this workload and
    // the wall metrics it has
    let per_pass: BTreeMap<&'static str, Vec<Option<f64>>> = {
        let each: Vec<(Values, Values)> = plain
            .iter()
            .map(|p| {
                let wall = wall(&[*p]);
                (end_to_end(w, &[*p], &wall, None), wall)
            })
            .collect();
        let gates = pooled
            .keys()
            .filter(|name| catalogue::end_to_end(name).is_some_and(|m| m.measured_on(w.name)));
        let walls = wall_values
            .iter()
            .filter(|(_, v)| v.is_some())
            .map(|(name, _)| name);
        gates
            .chain(walls)
            .map(|name| {
                let values = each
                    .iter()
                    .map(|(e, wl)| e.get(name).or_else(|| wl.get(name)).copied().flatten())
                    .collect();
                (*name, values)
            })
            .collect()
    };
    if let Some(Some(f1)) = pooled.get("event_f1") {
        checks.push(Check::that(
            format!("event_f1 >= {MIN_EVENT_F1}"),
            *f1 >= MIN_EVENT_F1,
            format!("{f1:.4}"),
        ));
    }

    let mut layers = Layers::default();
    for p in &traced {
        layers.merge(&p.layers);
    }
    let traced_refs: Vec<&PassResult> = traced.iter().collect();
    let overhead_share = if traced.is_empty() {
        0.0
    } else if w.name == SERVE_LIVE {
        // the paced wall cannot stretch; the closed-loop client's rate can drop
        let rate = |ps: &[&PassResult]| {
            ps.iter().map(|p| p.query_us.len()).sum::<usize>() as f64
                / ps.iter().map(|p| p.timed_s).sum::<f64>()
        };
        rate(&plain) / rate(&traced_refs) - 1.0
    } else {
        traced_s / timed_s - 1.0
    };
    let per_layer = if opts.traced {
        per_layer(
            w,
            &wall_values,
            &layers,
            &traced_refs,
            generator.seeds_skipped,
            voided_passes,
            overhead_share,
        )
    } else {
        BTreeMap::new()
    };
    let unattributed_share = if traced_s > 0.0 {
        (layers.self_time("pass") - layers.total("sync.buffered_us")).max(0.0) / (traced_s * 1e6)
    } else {
        0.0
    };

    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    RunOutcome {
        workload: w,
        seed: opts.seed,
        passes: opts.passes,
        traced: opts.traced,
        voided_passes,
        pass_seeds: inputs.iter().map(|i| i.seed).collect(),
        end_to_end: pooled,
        wall: wall_values,
        per_pass,
        per_layer,
        unattributed_share,
        timed_s,
        attempted: plain.iter().map(|p| p.attempted).sum::<u64>() + checks.len() as u64,
        failed: plain.iter().map(|p| p.failed).sum::<u64>() + failed_checks,
        checks,
        env,
        spans: traced
            .first_mut()
            .map(|p| std::mem::take(&mut p.spans))
            .unwrap_or_default(),
    }
}
